"""Finite posets stored as bit-matrix strict orders.

A poset on n elements keeps one integer bitmask per element: bit v of
``succ[u]`` is set iff u is strictly below v.  The relation is always kept
transitively closed, so comparisons, downsets and closures are single
bitwise operations on machine-word-sized ints for every n this package
targets.  Elements are 0-indexed internally; ground sets of the Boolean
lattice are 1-indexed wherever they are displayed or serialized.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import compress

from .errors import CycleError, FormatError, SizeMismatchError

# Largest element or ground-set count a file header may declare; parsers
# reject bigger ones before allocating anything of that size.
MAX_ELEMENTS = 1 << 16

# Poset.pred transposes succ above n*n/_PRED_DENSITY comparable pairs.
_PRED_DENSITY = 64

_PAIR_RE = re.compile(r"^(\d+)\s*<\s*(\d+)$")

# _BIT_DIGITS[k] maps a byte to b"1" or b"0", its bit k as an ASCII digit
_BIT_DIGITS = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

# "1", "2", ...: the text of each ground position, grown to the widest mask
# rendered so far and never shrunk or rewritten.
_POSITIONS: list[str] = []
_POSITIONS_LOCK = threading.Lock()


class Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields, in order, in ``__slots__`` (plus
    ``"__dict__"`` if it keeps cached properties) and sets each field once
    in ``__init__`` through ``object.__setattr__``.  Equality holds between
    instances of the same class with equal fields, the hash and the repr
    (``Poset(n=2, succ=(2, 0))``) follow the fields, pickling and copying
    rebuild through ``__init__``, and assigning or deleting any attribute
    raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_to_text(bits: int) -> str:
    """Render a ground-set bitmask as 1-indexed elements, ``-`` if empty.

    The binary digits of bits select, in C, from a shared list of position
    strings, so no Python step runs per set bit.
    """
    if bits == 0:
        return "-"
    width = bits.bit_length()
    if len(_POSITIONS) < width:
        with _POSITIONS_LOCK:
            _POSITIONS.extend(map(str, range(len(_POSITIONS) + 1, width + 1)))
    selectors = format(bits, "b").encode()[::-1].translate(_DIGIT_VALUES)
    return ",".join(compress(_POSITIONS, selectors))


def _byte_columns(rows: Sequence[int], width: int) -> list[bytes]:
    """The rows transposed at byte granularity, one bytes per byte block.

    Entry b holds byte b (bits 8b..8b+7) of every row, in row order; it is
    one strided slice of the rows' concatenated little-endian bytes.  All
    rows must fit in width bits.
    """
    size = (width + 7) // 8
    data = b"".join(row.to_bytes(size, "little") for row in rows)
    return [data[b::size] for b in range(size)]


def _bit_column(block: bytes, k: int) -> int:
    """The rows whose byte in block has bit k set, as a bitmask over rows."""
    return int(block.translate(_BIT_DIGITS[k])[::-1] or b"0", 2)


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The transposed bit matrix: bit i of result[j] is bit j of rows[i].

    rows must fit in width bits.  Each of the width results is one strided
    byte slice, translated to digits and read as an int, all in C.
    """
    blocks = _byte_columns(rows, width)
    return tuple(_bit_column(blocks[j >> 3], j & 7) for j in range(width))


def mask_from_text(text: str, m: int) -> int:
    """Parse the output of :func:`mask_to_text` back into a bitmask."""
    text = text.strip()
    if text == "-":
        return 0
    bits = 0
    for piece in text.split(","):
        try:
            element = int(piece)
        except ValueError:
            raise FormatError(f"bad ground element {piece!r}") from None
        if not 1 <= element <= m:
            raise FormatError(f"ground element {element} outside [{m}]")
        bits |= 1 << (element - 1)
    return bits


class SubsetMask(Frozen):
    """A subset of the ground set [m], held as a bitmask.

    Bit i corresponds to ground element i+1, so bits are 0-indexed while
    the displayed elements are 1-indexed.
    """

    __slots__ = ("m", "bits")

    def __init__(self, m: int, bits: int = 0) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bits", bits)
        if self.m < 0:
            raise ValueError("ground set size must be non-negative")
        if self.bits < 0 or self.bits >> self.m:
            raise ValueError(f"bits {self.bits:#x} outside ground set [{self.m}]")

    @classmethod
    def from_elements(cls, m: int, elements: Iterable[int]) -> "SubsetMask":
        """Build a mask from 1-indexed ground elements."""
        bits = 0
        for e in elements:
            if not 1 <= e <= m:
                raise ValueError(f"element {e} outside ground set [{m}]")
            bits |= 1 << (e - 1)
        return cls(m, bits)

    @classmethod
    def parse(cls, m: int, text: str) -> "SubsetMask":
        return cls(m, mask_from_text(text, m))

    def elements(self) -> tuple[int, ...]:
        """The subset as a sorted tuple of 1-indexed ground elements."""
        return tuple(i + 1 for i in bit_indices(self.bits))

    def issubset(self, other: "SubsetMask") -> bool:
        return self.bits & ~other.bits == 0

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.m and (self.bits >> (element - 1)) & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return mask_to_text(self.bits)


class Embedding(Frozen):
    """Images of poset elements inside the Boolean lattice on [m].

    ``masks[j]`` is the bitmask of the image of element j.  The embedding
    is order-faithful for a companion poset when u <= v iff
    masks[u] is a subset of masks[v]; :func:`check_embedding` verifies
    that together with injectivity.
    """

    __slots__ = ("m", "masks")

    def __init__(self, m: int, masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "masks", masks)
        for j, bits in enumerate(self.masks):
            if bits < 0 or bits >> self.m:
                raise ValueError(f"image {j} does not fit ground set [{self.m}]")

    @property
    def n(self) -> int:
        return len(self.masks)

    def image(self, j: int) -> SubsetMask:
        return SubsetMask(self.m, self.masks[j])


class EmbeddingCheck(Frozen):
    """Verdict of an embedding check, with a witness pair on failure."""

    __slots__ = ("ok", "witness", "reason")

    def __init__(
        self, ok: bool, witness: tuple[int, int] | None = None, reason: str | None = None
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


class Poset(Frozen):
    """A strict partial order on n elements, stored transitively closed.

    ``succ[u]`` has bit v set iff u is strictly below v.  Construction
    validates irreflexivity, antisymmetry and transitive closedness, so a
    Poset value can always be trusted downstream.

    Closedness is checked by greedy cover picks (:func:`_picks_union`):
    each row takes its lowest successor v not yet accounted for, requires
    succ[v] within succ[u], and clears succ[v] | 1 << v from what is left.
    That is exact for an irreflexive relation.  A successor w of u that is
    never picked lies in succ[s] for a pick s with succ[s] within succ[u];
    repeat the argument for w in row s.  The chain u, s, s', ... has
    shrinking successor sets and cannot repeat, since a repeat would put
    an element below itself, so it ends at a pick and succ[w] lies within
    succ[u].  Irreflexive and transitive gives antisymmetric.  The Python
    steps are the picks, never more than the comparable pairs, and often
    far fewer.  A rejected (u, v) is a real violation, but it need not be
    the lexicographically first one.
    """

    __slots__ = ("n", "succ", "__dict__")  # __dict__ holds pred and covers

    def __init__(self, n: int, succ: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "succ", succ)
        if n < 0:
            raise ValueError("element count must be non-negative")
        if len(succ) != n:
            raise ValueError("need exactly one successor mask per element")
        full = (1 << n) - 1
        for u, row in enumerate(succ):
            if row < 0 or row & ~full:
                raise ValueError(f"row {u} mentions elements outside range")
            if (row >> u) & 1:
                raise ValueError(f"irreflexivity violated at element {u}")
        # the picks are exact only once every row is known irreflexive
        for u in range(n):
            _picks_union(succ, u)

    @classmethod
    def from_relations(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Transitively close generator pairs (u below v) into a poset.

        Pairs need not be cover relations and duplicates are tolerated.
        Raises CycleError if the closure would put an element below itself.
        """
        direct = [0] * n
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"pair ({u}, {v}) outside element range")
            if u == v:
                raise CycleError(f"element {u} cannot be strictly below itself")
            direct[u] |= 1 << v
        return cls(n, tuple(transitive_closure(n, direct)))

    @classmethod
    def chain(cls, n: int) -> "Poset":
        """The total order 0 < 1 < ... < n-1."""
        full = (1 << n) - 1
        return cls(n, tuple(full ^ ((1 << (u + 1)) - 1) for u in range(n)))

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        """n pairwise incomparable elements."""
        return cls(n, (0,) * n)

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """Predecessor masks: bit u of pred[v] set iff u is strictly below v.

        Above n*n/_PRED_DENSITY comparable pairs this is transpose(succ),
        about n*n byte steps in C; below, a Python loop sets one bit per
        pair, at the cost of one n-bit int each.  On random posets the two
        break even at about n*n/33 pairs for n = 200, n*n/70 for 600,
        n*n/100 for 2000 and n*n/140 for 5000 (CPython 3.11), so the fixed
        rule costs at most about twice the faster method there.
        """
        n, succ = self.n, self.succ
        if sum(row.bit_count() for row in succ) * _PRED_DENSITY > n * n:
            return transpose(succ, n)
        pred = [0] * n
        for u, row in enumerate(succ):
            bit = 1 << u
            for v in bit_indices(row):
                pred[v] |= bit
        return tuple(pred)

    @cached_property
    def covers(self) -> tuple[int, ...]:
        """Cover masks: successors not reachable through an intermediate element.

        What an intermediate element reaches is the union of succ over the
        greedy cover picks of the row, which by transitivity equals the
        union over all of its successors.
        """
        succ = self.succ
        return tuple(row & ~_picks_union(succ, u) for u, row in enumerate(succ))

    def less(self, u: int, v: int) -> bool:
        """Strict comparison u < v."""
        return (self.succ[u] >> v) & 1 == 1

    def leq(self, u: int, v: int) -> bool:
        """Reflexive comparison u <= v."""
        return u == v or (self.succ[u] >> v) & 1 == 1


def _picks_union(succ: Sequence[int], u: int) -> int:
    """The union of succ[v] over the greedy cover picks v of row u (see Poset).

    Raises ValueError at the first pick v with succ[v] not within succ[u].
    """
    rest = row = succ[u]
    via = 0
    while rest:
        lsb = rest & -rest
        v = lsb.bit_length() - 1
        below = succ[v]
        if below & ~row:
            if (below >> u) & 1:
                raise ValueError(f"antisymmetry violated on ({u}, {v})")
            raise ValueError(f"relation not transitively closed at ({u}, {v})")
        via |= below
        rest = (rest ^ lsb) & ~via
    return via


def transitive_closure(n: int, direct: Sequence[int]) -> list[int]:
    """Close direct successor masks under transitivity via DFS.

    Raises CycleError on the first back edge, i.e. as soon as the closure
    would force some u strictly below itself.
    """
    reach = [0] * n
    state = bytearray(n)  # 0 unvisited, 1 on the DFS stack, 2 finished
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, direct[root])]
        while stack:
            u, pending = stack[-1]
            if pending:
                lsb = pending & -pending
                v = lsb.bit_length() - 1
                stack[-1] = (u, pending ^ lsb)
                if state[v] == 1:
                    raise CycleError(f"cycle through element {v}")
                if state[v] == 0:
                    state[v] = 1
                    stack.append((v, direct[v]))
            else:
                stack.pop()
                row = direct[u]
                for v in bit_indices(direct[u]):
                    row |= reach[v]
                reach[u] = row
                state[u] = 2
    return reach


def folklore_embed(p: Poset) -> Embedding:
    """Embed p into the full Boolean lattice on [n] by downset indices.

    Position v is the up-set column of element v (the universal module
    states the rule), so element j maps to the elements at or below j.
    """
    return Embedding(p.n, transpose([row | 1 << v for v, row in enumerate(p.succ)], p.n))


def check_embedding(p: Poset, emb: Embedding) -> EmbeddingCheck:
    """Verify that emb is an order-faithful injective embedding of p.

    The relation checked is "u <= v iff image(u) is contained in image(v)"
    for every ordered pair, so incomparable pairs must fail containment
    both ways.  It is computed whole, one byte block of the ground set at
    a time (the Four Russians method).  The images are transposed into the
    block's eight ground-set columns, each the set of elements whose image
    holds that position.  A 256-entry table, built incrementally, gives
    for every byte value s the AND of the columns of the positions in s,
    and each element u folds table[byte of image(u)] into its accumulator.
    After the last block, bit v of u's accumulator is set iff image(u)
    lies within image(v), and it must equal succ[u] | 1 << u.  For m
    ground positions that is about n*m/8 + 32*m big-int operations on
    n-bit ints, instead of n*n Python steps.

    Injectivity follows from antisymmetry: equal images are contained
    both ways, which the order allows for no two distinct elements.
    Equal images are still reported first, as "duplicate images".
    Otherwise the witness is the first offending pair in (u, v) order.
    """
    if emb.n != p.n:
        raise SizeMismatchError(f"embedding has {emb.n} images for {p.n} elements")
    seen: dict[int, int] = {}
    for j, bits in enumerate(emb.masks):
        if bits in seen:
            return EmbeddingCheck(False, (seen[bits], j), "duplicate images")
        seen[bits] = j
    full = (1 << p.n) - 1
    inside = [full] * p.n  # bit v of inside[u]: image(u) within image(v)
    for block in _byte_columns(emb.masks, emb.m):
        table = [full]
        for k in range(8):
            column = _bit_column(block, k)
            table += [t & column for t in table]
        inside = [row & table[x] for row, x in zip(inside, block)]
    for u, row in enumerate(inside):
        wrong = row ^ (p.succ[u] | 1 << u)
        if wrong:
            v = (wrong & -wrong).bit_length() - 1
            reason = "containment without order" if row >> v & 1 else "order without containment"
            return EmbeddingCheck(False, (u, v), reason)
    return EmbeddingCheck(True)


def random_poset(n: int, edge_prob: float, seed: int) -> Poset:
    """Sample a random poset, deterministically for a fixed seed.

    Draws a uniformly random linear order on the elements, keeps each
    forward arc independently with probability edge_prob, and closes the
    resulting DAG transitively.
    """
    import random  # only sampling needs it; keeps it out of CLI start-up

    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    direct = [0] * n
    for i in range(n):
        row = 0
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                row |= 1 << order[j]
        direct[order[i]] = row
    return Poset(n, tuple(transitive_closure(n, direct)))


def write_poset(p: Poset) -> str:
    """Serialize a poset: first line n, then one 'u < v' line per cover pair."""
    lines = [str(p.n)]
    for u in range(p.n):
        for v in bit_indices(p.covers[u]):
            lines.append(f"{u} < {v}")
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def parse_poset(text: str) -> Poset:
    """Parse the poset text format; '#' starts a comment, blank lines skipped."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FormatError("empty poset file")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"expected element count on first line, got {lines[0]!r}") from None
    if not 0 <= n <= MAX_ELEMENTS:
        raise FormatError(f"element count {n} outside [0, {MAX_ELEMENTS}]")
    pairs = []
    for line in lines[1:]:
        match = _PAIR_RE.match(line)
        if not match:
            raise FormatError(f"expected 'u < v', got {line!r}")
        pairs.append((int(match.group(1)), int(match.group(2))))
    try:
        return Poset.from_relations(n, pairs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
