"""Families of per-cell prefix sets indexed by integer partitions.

A partition c_1 >= ... >= c_k of n cuts [n] into consecutive cells of
those sizes.  The family attached to the partition holds every subset of
[n] that meets each cell in a prefix of that cell, so it has exactly
prod(c_i + 1) members.  Unioning the families over all partitions of n
into at most a parts gives a small Boolean-lattice fragment into which
every poset of width at most a embeds; the embedding lays the chains of
a chain cover out as the cells, and gives position j of a chain to the
up-set of its j-th element (the rule of the universal module).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterator

from .dilworth import ChainDecomposition, decomposition_into_exactly
from .errors import FormatError, LimitError, MemoryLimitError
from .poset import (
    MAX_ELEMENTS, Embedding, Frozen, Poset, SubsetMask, mask_from_text, mask_to_text, transpose
)

PARTITION_SCAN_CAP = 40
DEFAULT_MAX_SETS = 1 << 24


class PartitionSeq(Frozen):
    """An integer partition: weakly decreasing positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        object.__setattr__(self, "parts", parts)
        for prev, part in zip(self.parts, self.parts[1:]):
            if part > prev:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")
        if self.parts and self.parts[-1] < 1:
            raise ValueError("parts must be positive")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class SetFamily(Frozen):
    """A deduplicated family of subsets of [m], sorted by mask value."""

    __slots__ = ("m", "masks")

    def __init__(self, m: int, masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "masks", masks)
        prev = -1
        for mask in self.masks:
            if mask <= prev:
                raise ValueError("masks must be strictly increasing")
            if mask < 0 or mask >> self.m:
                raise ValueError(f"mask {mask:#x} outside ground set [{self.m}]")
            prev = mask

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[SubsetMask]:
        return (SubsetMask(self.m, bits) for bits in self.masks)

    def __contains__(self, item: SubsetMask) -> bool:
        i = bisect_left(self.masks, item.bits)
        return item.m == self.m and i < len(self.masks) and self.masks[i] == item.bits


def partitions(n: int, max_parts: int) -> Iterator[PartitionSeq]:
    """All partitions of n into at most max_parts parts, reverse-lex order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if not 0 <= max_parts <= n:
        raise ValueError(f"part budget {max_parts} outside [0, {n}]")
    if n > 0 and max_parts == 0:
        raise ValueError("positive n needs at least one part")
    return _partition_stream(n, max_parts)


def _partition_stream(n: int, max_parts: int) -> Iterator[PartitionSeq]:
    if n == 0:
        yield PartitionSeq(())
        return

    def rec(remaining: int, largest: int, budget: int, prefix: list[int]) -> Iterator[PartitionSeq]:
        if remaining == 0:
            yield PartitionSeq(tuple(prefix))
            return
        # each of the <= budget parts is <= the head part, so head*budget >= remaining
        low = -(-remaining // budget)
        for part in range(min(largest, remaining), low - 1, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, budget - 1, prefix)
            prefix.pop()

    yield from rec(n, n, max_parts, [])


_PARTITION_COUNTS = [1]


def partition_count(n: int) -> int:
    """The number of partitions of n, by Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    while len(_PARTITION_COUNTS) <= n:
        target = len(_PARTITION_COUNTS)
        total = 0
        k = 1
        while True:
            gen1 = k * (3 * k - 1) // 2
            gen2 = k * (3 * k + 1) // 2
            if gen1 > target:
                break
            sign = 1 if k % 2 else -1
            total += sign * _PARTITION_COUNTS[target - gen1]
            if gen2 <= target:
                total += sign * _PARTITION_COUNTS[target - gen2]
            k += 1
        _PARTITION_COUNTS.append(total)
    return _PARTITION_COUNTS[n]


def _family_masks(c: PartitionSeq) -> list[int]:
    """The per-cell prefix sets of one partition, in increasing mask order.

    Built one cell at a time from the low bits up: every prefix of a new
    cell lies above all bits placed so far, so with the prefixes in the
    outer loop the list stays sorted.
    """
    masks = [0]
    lo = 0
    for part in c:
        prefixes = [((1 << k) - 1) << lo for k in range(part + 1)]
        masks = [mask | prefix for prefix in prefixes for mask in masks]
        lo += part
    return masks


def family_for_partition(n: int, c: PartitionSeq) -> SetFamily:
    """All subsets of [n] meeting every cell of c in a prefix."""
    if c.n != n:
        raise ValueError(f"partition sums to {c.n}, not {n}")
    return SetFamily(n, tuple(_family_masks(c)))


def _balanced_product(n: int, a: int) -> int:
    """Size of the family for the most even partition of n into a parts."""
    q, r = divmod(n, a)
    return (q + 2) ** r * (q + 1) ** (a - r)


def chain_family_counts(n: int, a: int, m: int) -> tuple[int, int]:
    """Exact sizes of chain_family(n, a) and of its members inside [m].

    Cut a mask, low bit first, at every 0->1 step into blocks 1^x 0^y.  A
    block of length B under cap c (n at first) takes k = ceil(B/c) balanced
    cells and passes on the cap B // k.  A mask is a member iff this greedy
    cut uses at most a cells; greedy is optimal because fewer cells always
    leave a larger next cap.  The DP over (start, cap, cells used) weights
    each block by its (x, y) choices, and inside [m] only if start + x <= m.
    """
    states = [defaultdict(int) for _ in range(n)]
    states[0][n, 0] = 1
    chain = inside = 0
    for start in range(n):
        first = start == 0
        for (cap, used), ways in states[start].items():
            for b in range(1, n - start + 1):
                k = -(-b // cap)
                if used + k > a:
                    break
                if start + b == n:
                    chain += ways * (b + first)
                    inside += ways * max(0, min(b, m - start) + first)
                elif used + k + -(-(n - start - b) // (b // k)) <= a:  # can still finish
                    states[start + b][b // k, used + k] += ways * (b - 1 + first)
    return chain, inside


def chain_family(n: int, a: int, *, max_sets: int = DEFAULT_MAX_SETS) -> SetFamily:
    """Union of the per-cell prefix families over partitions into <= a parts.

    Raises MemoryLimitError when the union would exceed max_sets, decided
    before anything is built: by the O(1) lower bound of the most even
    partition, then by the exact count of chain_family_counts.
    """
    if not 1 <= a <= n:
        raise ValueError(f"chain budget {a} outside [1, {n}]")
    if _balanced_product(n, a) > max_sets or chain_family_counts(n, a, n)[0] > max_sets:
        raise MemoryLimitError(
            f"chain family for n={n}, a={a} exceeds {max_sets} sets"
        )
    seen: set[int] = set()
    for c in partitions(n, a):
        seen.update(_family_masks(c))
    return SetFamily(n, tuple(sorted(seen)))


def is_cell_prefix_union(bits: int, c: PartitionSeq) -> bool:
    """Does the mask meet every cell of c in a (possibly empty) prefix?"""
    lo = 0
    for part in c:
        cell_bits = (bits >> lo) & ((1 << part) - 1)
        if cell_bits & (cell_bits + 1):
            return False
        lo += part
    return True


def member_of_chain_family(t: SubsetMask, n: int, a: int) -> bool:
    """Membership in chain_family(n, a) without materializing it.

    Scans the partition stream for a layout under which t is a per-cell
    prefix union; capped because the stream length is the partition count.
    """
    if t.m != n:
        raise ValueError(f"mask over [{t.m}] tested against family over [{n}]")
    if not 1 <= a <= n:
        raise ValueError(f"chain budget {a} outside [1, {n}]")
    if n > PARTITION_SCAN_CAP:
        raise LimitError(f"partition scan capped at n={PARTITION_SCAN_CAP}, got n={n}")
    return any(is_cell_prefix_union(t.bits, c) for c in partitions(n, a))


def embed_bounded_antichain(
    p: Poset, a: int, dec: ChainDecomposition | None = None
) -> Embedding:
    """Embed a poset of width at most a into the chain family over [n].

    Cell i holds chain i of a cover of p into at most a chains, by default
    the canonical minimum one.  Position j of a chain c_0 < c_1 < ... is
    the up-set column of c_j (the universal module states the rule), so
    every image is a per-cell prefix union for the cover's own partition.
    """
    if dec is None:
        dec = decomposition_into_exactly(p, a)
    elif dec.poset != p or dec.width > a:
        raise ValueError(f"need a cover of this poset into at most {a} chains")
    succ = p.succ
    columns = [succ[c] | 1 << c for chain in dec.chains for c in chain]
    return Embedding(p.n, transpose(columns, p.n))


def decomposition_partition(p: Poset, a: int) -> PartitionSeq:
    """The partition of n given by the canonical chain cover of p."""
    return PartitionSeq(decomposition_into_exactly(p, a).lengths)


def write_family(family: SetFamily) -> str:
    """Serialize a family: header 'm=<m> count=<k>', then one set per line."""
    lines = [f"m={family.m} count={len(family)}"]
    lines.extend(mask_to_text(bits) for bits in family.masks)
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def parse_family(text: str) -> SetFamily:
    """Parse the family file format back into a SetFamily."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty family file")
    header = lines[0].split()
    if len(header) != 2 or not header[0].startswith("m=") or not header[1].startswith("count="):
        raise FormatError(f"bad family header {lines[0]!r}")
    try:
        m = int(header[0][2:])
        count = int(header[1][6:])
    except ValueError:
        raise FormatError(f"bad family header {lines[0]!r}") from None
    if not 0 <= m <= MAX_ELEMENTS:
        raise FormatError(f"ground set size {m} outside [0, {MAX_ELEMENTS}]")
    body = lines[1:]
    if len(body) != count:
        raise FormatError(f"header promises {count} sets, file has {len(body)}")
    try:
        masks = tuple(mask_from_text(line, m) for line in body)
        return SetFamily(m, masks)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
