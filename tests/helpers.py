"""Independent oracles and generators for the test suite.

Everything here deliberately avoids the package's internal representations
where it can: embeddings are re-checked with frozensets, poset enumeration
re-derives the counts by filtering pair orientations, and partition counts
come from a direct table.  Agreement between these and the library is the
point, so none of this should be "simplified" to call back into the code
under test.

Two exponential tools live here rather than in the package, because the
embedding job never needs them: enumerate_posets, which yields every
labeled poset on n elements for the exhaustive tests (n <= 5), and
hardy_ramanujan, the asymptotic estimate that p(n) is checked against.
PartitionSeq and family_for_partition left the package for the same
reason: the library streams partitions as plain tuples, and only the
tests build the family of a single partition.  The text paths that the
package replaced (per-line parse_poset, per-mask writers, the closure
that visits every arc twice, from_relations checked by the greedy cover
picks) stay here as oracles in their old form, as does the antichain
read by a second BFS over the matching that a chain cover encodes.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from itertools import combinations, product
from typing import Iterator

from posetcube import CycleError, FormatError, LimitError, Poset, SizeMismatchError
from posetcube.chainfamily import SetFamily, _family_masks, chain_family
from posetcube.dilworth import NO_MATE
from posetcube.poset import (
    MAX_ELEMENTS,
    Embedding,
    EmbeddingCheck,
    Frozen,
    bit_indices,
    transitive_closure,
)

BRUTE_FORCE_CAP = 20


def enumerate_posets_filter(n: int):
    """Labeled posets on n elements by orientation filtering (n <= 4).

    Every unordered pair independently gets one of three states (below,
    above, incomparable); keep exactly the transitive outcomes.  Slower
    than the library enumerator but shares no code with it.
    """
    pairs = list(combinations(range(n), 2))
    for states in product((0, 1, 2), repeat=len(pairs)):
        less = set()
        for (u, v), state in zip(pairs, states):
            if state == 1:
                less.add((u, v))
            elif state == 2:
                less.add((v, u))
        if any(
            (u, v) in less and (v, w) in less and (u, w) not in less
            for u in range(n)
            for v in range(n)
            for w in range(n)
        ):
            continue
        succ = [0] * n
        for u, v in less:
            succ[u] |= 1 << v
        yield Poset(n, tuple(succ))


def enumerate_posets(n: int) -> Iterator[Poset]:
    """Yield every labeled poset on n elements exactly once.

    Elements are added one at a time; for each new element every valid
    (downset, upset) pair against the already-built poset is tried.  Each
    labeled poset arises from exactly one choice sequence because its
    restriction to the first k labels determines step k, so no
    deduplication is needed.  Counts explode (4231 posets at n=5, 130023
    at n=6), so callers stay at n <= 5.
    """
    if n < 0:
        raise ValueError("element count must be non-negative")
    return _extend_posets(n, [], [])


def _extend_posets(n: int, succ: list[int], pred: list[int]) -> Iterator[Poset]:
    k = len(succ)
    if k == n:
        yield Poset(n, tuple(succ))
        return
    universe = (1 << k) - 1
    for down in range(1 << k):
        # down must be closed downward, otherwise closure would grow it
        closure = 0
        for v in bit_indices(down):
            closure |= pred[v]
        if closure & ~down:
            continue
        # upset candidates must already lie above every chosen down element
        allowed = universe & ~down
        for v in bit_indices(down):
            allowed &= succ[v]
        up = allowed
        while True:
            closure = 0
            for v in bit_indices(up):
                closure |= succ[v]
            if not closure & ~up:
                bit = 1 << k
                new_succ = [succ[i] | bit if (down >> i) & 1 else succ[i] for i in range(k)]
                new_succ.append(up)
                new_pred = [pred[i] | bit if (up >> i) & 1 else pred[i] for i in range(k)]
                new_pred.append(down)
                yield from _extend_posets(n, new_succ, new_pred)
            if up == 0:
                break
            up = (up - 1) & allowed


def check_embedding_naive(p: Poset, emb: Embedding) -> bool:
    """Re-verify an embedding with frozensets and an explicit double loop."""
    images = [frozenset(bit_indices(bits)) for bits in emb.masks]
    if len(set(images)) != len(images):
        return False
    for u in range(p.n):
        for v in range(p.n):
            if (images[u] <= images[v]) != p.leq(u, v):
                return False
    return True


def check_embedding_pairwise(p: Poset, emb: Embedding) -> EmbeddingCheck:
    """The verifier one pair at a time: the duplicate scan, then every (u, v).

    Same verdicts, reasons and witness as check_embedding; its witness is
    the first offending pair in (u, v) order.
    """
    if emb.n != p.n:
        raise SizeMismatchError(f"embedding has {emb.n} images for {p.n} elements")
    masks = emb.masks
    seen: dict[int, int] = {}
    for j, bits in enumerate(masks):
        if bits in seen:
            return EmbeddingCheck(False, (seen[bits], j), "duplicate images")
        seen[bits] = j
    neg = [~bits for bits in masks]
    n = p.n
    for u in range(n):
        mu = masks[u]
        row = p.succ[u] | (1 << u)
        for v in range(n):
            contained = mu & neg[v] == 0
            if contained != ((row >> v) & 1 == 1):
                reason = "containment without order" if contained else "order without containment"
                return EmbeddingCheck(False, (u, v), reason)
    return EmbeddingCheck(True)


def witness_rejected(p: Poset, emb: Embedding, u: int, v: int) -> bool:
    """Does the pair (u, v) alone refute emb, read with frozensets?

    Equal images refute any pair of distinct elements; otherwise the
    biconditional "u <= v iff image(u) within image(v)" must fail at (u, v).
    """
    image_u = frozenset(bit_indices(emb.masks[u]))
    image_v = frozenset(bit_indices(emb.masks[v]))
    if u != v and image_u == image_v:
        return True
    return (image_u <= image_v) != p.leq(u, v)


class AntichainSplit(Frozen):
    """The three-block layout of the label construction, checked on build.

    ``below`` holds the elements under some antichain element, ``above``
    the rest, both ascending; ``antichain`` pairs with ``label_masks``
    positionally.  ``b`` and ``ell`` fix the ground-set geometry: below
    elements take positions 0..b-1, the labels live in the window
    [b, b+ell), above elements take the positions after it in listed
    order.  The library keeps no such object (it works on element masks);
    the reference builds one so that every run of it also checks that the
    blocks are disjoint and the labels are distinct (ell//2)-subsets of
    the window.
    """

    __slots__ = ("below", "antichain", "above", "ell", "label_masks")

    def __init__(self, below, antichain, above, ell, label_masks) -> None:
        object.__setattr__(self, "below", below)
        object.__setattr__(self, "antichain", antichain)
        object.__setattr__(self, "above", above)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "label_masks", label_masks)
        parts = (*below, *antichain, *above)
        if len(set(parts)) != len(parts):
            raise ValueError("blocks overlap")
        if len(label_masks) != len(antichain):
            raise ValueError("one label per antichain element required")
        if len(set(label_masks)) != len(label_masks):
            raise ValueError("label sets must be distinct")
        window = ((1 << ell) - 1) << self.b
        for mask in label_masks:
            if mask & ~window:
                raise ValueError("label outside the label block")
            if mask.bit_count() != ell // 2:
                raise ValueError(f"label size {mask.bit_count()}, expected {ell // 2}")

    @property
    def b(self) -> int:
        return len(self.below)

    @property
    def n(self) -> int:
        return len(self.below) + len(self.antichain) + len(self.above)

    @property
    def ground_size(self) -> int:
        return self.b + self.ell + len(self.above)


def split_reference(p: Poset, antichain) -> AntichainSplit:
    """The label construction's split, derived element by element.

    An element outside the antichain is below when it sits under some
    antichain element, above otherwise; ell is found by counting up to
    the least width whose middle binomial coefficient reaches the
    antichain size, and the labels are the window's colex-first subsets.
    """
    members = tuple(sorted(antichain))
    outside = [u for u in range(p.n) if u not in members]
    below = tuple(u for u in outside if any(p.less(u, y) for y in members))
    above = tuple(u for u in outside if u not in below)
    ell = 0
    while math.comb(ell, ell // 2) < len(members):
        ell += 1
    labels = colex_half_subsets_reference(len(below), ell, len(members))
    return AntichainSplit(below, members, above, ell, labels)


def embed_with_antichain_reference(p: Poset, antichain) -> Embedding:
    """The label construction element by element and pair by pair.

    The split comes from split_reference, not from the library.  A below
    element takes the below positions at or under it; an antichain
    element adds its label and the above positions it is not under; an
    above element adds the whole label window and the above positions not
    at or over it.
    """
    split = split_reference(p, antichain)
    if len(split.antichain) < 2:
        raise ValueError("antichain embedding needs at least two elements")
    b = split.b
    window = ((1 << split.ell) - 1) << b
    above_base = b + split.ell

    below_bit = {u: 1 << i for i, u in enumerate(split.below)}
    succ = p.succ
    images = [0] * p.n

    def below_part(u: int) -> int:
        bits = 0
        for x, bit in below_bit.items():
            if x == u or (succ[x] >> u) & 1:
                bits |= bit
        return bits

    for u in split.below:
        images[u] = below_part(u)
    for y, label in zip(split.antichain, split.label_masks):
        bits = below_part(y) | label
        for t, z in enumerate(split.above):
            if not (succ[y] >> z) & 1:
                bits |= 1 << (above_base + t)
        images[y] = bits
    for j, z in enumerate(split.above):
        bits = below_part(z) | window
        for t, other in enumerate(split.above):
            if t != j and not (succ[z] >> other) & 1:
                bits |= 1 << (above_base + t)
        images[z] = bits
    return Embedding(split.ground_size, tuple(images))


def embed_bounded_antichain_reference(p: Poset, dec) -> Embedding:
    """The chain-cover construction one element and one chain at a time.

    Cell i holds chain i of dec; the image of an element takes from each
    cell the prefix as long as the part of its downset on that chain.
    """
    offsets = []
    chain_masks = []
    total = 0
    for chain in dec.chains:
        offsets.append(total)
        mask = 0
        for u in chain:
            mask |= 1 << u
        chain_masks.append(mask)
        total += len(chain)
    pred = pred_reference(p)
    images = []
    for j in range(p.n):
        row = pred[j] | (1 << j)
        bits = 0
        for offset, chain_mask in zip(offsets, chain_masks):
            d = (row & chain_mask).bit_count()
            bits |= ((1 << d) - 1) << offset
        images.append(bits)
    return Embedding(p.n, tuple(images))


def colex_half_subsets_reference(lo: int, ell: int, count: int) -> tuple[int, ...]:
    """First `count` (ell//2)-subsets of [lo+1, lo+ell] in colex order, as masks.

    Sorts the 1-indexed combinations by their reversed tuples and maps
    element e to bit e-1.
    """
    pool = range(lo + 1, lo + ell + 1)
    combos = sorted(combinations(pool, ell // 2), key=lambda t: t[::-1])
    if count > len(combos):
        raise ValueError(f"only {len(combos)} labels available, need {count}")
    out = []
    for combo in combos[:count]:
        mask = 0
        for e in combo:
            mask |= 1 << (e - 1)
        out.append(mask)
    return tuple(out)


def mask_to_text_reference(bits: int) -> str:
    """A ground-set mask as 1-indexed elements, one set bit at a time."""
    if bits == 0:
        return "-"
    return ",".join(str(i + 1) for i in bit_indices(bits))


def write_embedding_reference(emb: Embedding) -> str:
    """The embedding text format, one mask_to_text_reference call per image."""
    lines = [f"n={emb.n} m={emb.m}"]
    for j, bits in enumerate(emb.masks):
        lines.append(f"{j}: {mask_to_text_reference(bits)}")
    lines.append("")
    return "\n".join(lines)


def write_family_reference(family: SetFamily) -> str:
    """The family text format, one mask_to_text_reference call per set."""
    lines = [f"m={family.m} count={len(family)}"]
    lines.extend(mask_to_text_reference(bits) for bits in family.masks)
    lines.append("")
    return "\n".join(lines)


_PAIR_LINE = re.compile(r"^([0-9]+)[ \t\n\r\f\v]*<[ \t\n\r\f\v]*([0-9]+)$")


def parse_poset_reference(text: str) -> Poset:
    """The poset text format read one line and one pair at a time."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FormatError("empty poset file")
    if any(c not in "0123456789" for c in lines[0]):
        raise FormatError(f"expected element count on first line, got {lines[0][:40]!r}")
    try:
        n = int(lines[0])
    except ValueError:  # over the interpreter's int-string digit limit
        raise FormatError(f"expected element count on first line, got {lines[0][:40]!r}") from None
    if not 0 <= n <= MAX_ELEMENTS:
        raise FormatError(f"element count {n} outside [0, {MAX_ELEMENTS}]")
    pairs = []
    for line in lines[1:]:
        match = _PAIR_LINE.match(line)
        if not match:
            raise FormatError(f"expected 'u < v', got {line[:40]!r}")
        try:
            pairs.append((int(match.group(1)), int(match.group(2))))
        except ValueError:  # over the interpreter's int-string digit limit
            raise FormatError(f"number too long in line starting {line[:40]!r}") from None
    try:
        return Poset.from_relations(n, pairs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def transitive_closure_reference(n: int, direct) -> list[int]:
    """DFS closure that visits each arc twice: once to descend, once to OR in its reach.

    Same DFS order, and so the same CycleError element, as the library.
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


def from_relations_reference(n: int, pairs) -> Poset:
    """Poset.from_relations as it was before its closure certificate.

    One step per pair, the closure that visits every arc twice, and then
    Poset.__init__'s greedy cover picks to check the result.
    """
    direct = [0] * n
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"pair ({u}, {v}) outside element range")
        if u == v:
            raise CycleError(f"element {u} cannot be strictly below itself")
        direct[u] |= 1 << v
    return Poset(n, tuple(transitive_closure_reference(n, direct)))


def closure_certificate_failure(reach, n: int, pairs) -> int | None:
    """The first row whose closure equation fails, built one arc at a time; else None.

    Row u's equation: reach[u] is the union over u's arcs (u, v) of bit v
    and reach[v], and it does not hold bit u.
    """
    implied = [0] * n
    for u, v in pairs:
        implied[u] |= 1 << v | reach[v]
    for u in range(n):
        if reach[u] != implied[u] or (reach[u] >> u) & 1:
            return u
    return None


def validate_chains_reference(p: Poset, chains) -> None:
    """ChainDecomposition's check one element and one pair at a time.

    Raises what the constructor raises, with the same message, at the
    first offence; returns None for a valid cover.
    """
    seen = 0
    for chain in chains:
        for u in chain:
            if not 0 <= u < p.n:
                raise ValueError(f"element {u} outside poset range")
            if (seen >> u) & 1:
                raise ValueError(f"element {u} appears in two chains")
            seen |= 1 << u
        for a, b in zip(chain, chain[1:]):
            if not p.less(a, b):
                raise ValueError(f"chain pair ({a}, {b}) not ordered")
    if seen != (1 << p.n) - 1:
        raise ValueError("chains do not cover every element")


def pred_reference(p: Poset) -> tuple[int, ...]:
    """Predecessor masks by a loop over every comparable pair."""
    pred = [0] * p.n
    for u, row in enumerate(p.succ):
        for v in bit_indices(row):
            pred[v] |= 1 << u
    return tuple(pred)


# _BIT_DIGITS[k] maps a byte to b"1" or b"0", its bit k as an ASCII digit
_BIT_DIGITS = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))


def _bit_column(block: bytes, k: int) -> int:
    """The rows whose byte in block has bit k set, as a bitmask over rows."""
    return int(block.translate(_BIT_DIGITS[k])[::-1] or b"0", 2)


def transpose_reference(rows, width: int) -> tuple[int, ...]:
    """The transposed bit matrix one column at a time, by digit translation.

    Column j takes byte j // 8 of every row as one strided slice, turns
    bit j % 8 of each byte into an ASCII digit, reverses the digits and
    reads them in base 2.  rows must fit in width bits.
    """
    size = (width + 7) // 8
    data = b"".join(row.to_bytes(size, "little") for row in rows)
    return tuple(_bit_column(data[j >> 3 :: size], j & 7) for j in range(width))


def validate_pairwise(n: int, succ) -> None:
    """The strict-order check with one step per comparable pair.

    Raises ValueError with the messages of Poset at the lexicographically
    first violating pair; returns None if succ is a strict order.
    """
    full = (1 << n) - 1
    for u, row in enumerate(succ):
        if row < 0 or row & ~full:
            raise ValueError(f"row {u} mentions elements outside range")
        if (row >> u) & 1:
            raise ValueError(f"irreflexivity violated at element {u}")
        for v in bit_indices(row):
            if (succ[v] >> u) & 1:
                raise ValueError(f"antisymmetry violated on ({u}, {v})")
            if succ[v] & ~row:
                raise ValueError(f"relation not transitively closed at ({u}, {v})")


def covers_reference(p: Poset) -> tuple[int, ...]:
    """Cover masks by a union of succ over every successor of each row."""
    out = []
    for row in p.succ:
        via = 0
        for v in bit_indices(row):
            via |= p.succ[v]
        out.append(row & ~via)
    return tuple(out)


def max_antichain_bruteforce(p: Poset) -> frozenset[int]:
    """Exponential maximum-antichain oracle, for n <= BRUTE_FORCE_CAP.

    Branch-and-bound maximum independent set in the comparability graph;
    any maximum-cardinality antichain may be returned, the size is the
    contract.
    """
    if p.n > BRUTE_FORCE_CAP:
        raise LimitError(f"brute-force antichain capped at n={BRUTE_FORCE_CAP}, got n={p.n}")
    pred = p.pred
    comp = [p.succ[u] | pred[u] for u in range(p.n)]
    _, best = _max_independent((1 << p.n) - 1, comp)
    return frozenset(bit_indices(best))


def _max_independent(candidates: int, comp: list[int]) -> tuple[int, int]:
    if candidates == 0:
        return 0, 0
    lsb = candidates & -candidates
    v = lsb.bit_length() - 1
    rest = candidates ^ lsb
    if comp[v] & rest == 0:
        # v conflicts with nothing left, taking it is always optimal
        size, mask = _max_independent(rest, comp)
        return size + 1, mask | lsb
    size_in, mask_in = _max_independent(rest & ~comp[v], comp)
    size_out, mask_out = _max_independent(rest, comp)
    if size_in + 1 >= size_out:
        return size_in + 1, mask_in | lsb
    return size_out, mask_out


def hopcroft_karp_reference(n: int, succ) -> tuple[list[int], list[int]]:
    """Hopcroft-Karp with a queue BFS and a recursive DFS, edge by edge.

    The library's matching must return exactly these mate arrays, since
    the chains, and so the certificates, are read off them.  The DFS
    recurses once per augmenting-path step, so keep paths short.
    """
    mate_left = [-1] * n
    mate_right = [-1] * n
    inf = n + 1
    dist = [0] * n

    def bfs() -> bool:
        queue = deque()
        for u in range(n):
            if mate_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        while queue:
            u = queue.popleft()
            for v in bit_indices(succ[u]):
                w = mate_right[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in bit_indices(succ[u]):
            w = mate_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                mate_left[u] = v
                mate_right[v] = u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in range(n):
            if mate_left[u] == -1:
                dfs(u)
    return mate_left, mate_right


def konig_antichain_reference(n: int, succ, mate_left, mate_right) -> frozenset[int]:
    """The antichain outside the König cover, by a queue over single edges."""
    reach_left = {u for u in range(n) if mate_left[u] == -1}
    reach_right = set()
    queue = deque(sorted(reach_left))
    while queue:
        u = queue.popleft()
        for v in bit_indices(succ[u]):
            if v in reach_right:
                continue
            reach_right.add(v)
            w = mate_right[v]
            if w != -1 and w not in reach_left:
                reach_left.add(w)
                queue.append(w)
    return frozenset(reach_left - reach_right)


def cover_antichain_reference(p: Poset, chains) -> frozenset[int]:
    """The antichain dual to the matching that the chains encode.

    The library's ChainDecomposition.antichain in its old form, its own
    BFS over the matching rebuilt from the chains: consecutive chain
    elements are the matched pairs and the top of each chain is an
    unmatched left vertex.  Alternating reachability from those gives a
    König vertex cover; the elements kept out of it on both sides are
    pairwise incomparable for any cover, and a maximum antichain when the
    cover is minimum.
    """
    succ = p.succ
    mate_right = [NO_MATE] * p.n
    reach_left = new_right = 0
    for chain in chains:
        for u, v in zip(chain, chain[1:]):
            mate_right[v] = u
        reach_left |= 1 << chain[-1]
        new_right |= succ[chain[-1]]
    reach_right = 0
    # one bit loop per layer: each right vertex reached for the first
    # time passes the reach on to its mate
    while new_right:
        reach_right |= new_right
        reach = 0
        while new_right:
            v = new_right.bit_length() - 1
            new_right ^= 1 << v
            u = mate_right[v]
            if u != NO_MATE:
                reach_left |= 1 << u
                reach |= succ[u]
        new_right = reach & ~reach_right
    # cover = (left not reached) + (right reached); the antichain is the rest
    return frozenset(bit_indices(reach_left & ~reach_right))


def fence_poset(k: int) -> Poset:
    """The fence x_0 < y_0 > x_1 < y_1 > ... > x_k < y_k on 2k + 2 elements.

    y_j = j and x_i = k + i for i >= 1, with x_0 = 2k + 1 last.  The
    greedy first phase matches x_i to y_(i-1) for every i >= 1, which
    leaves x_0 free, and the only augmenting path from x_0 then runs
    through every element: 2k + 1 edges.
    """

    def x(i: int) -> int:
        return 2 * k + 1 if i == 0 else k + i

    pairs = [(x(0), 0)]
    for i in range(1, k + 1):
        pairs += [(x(i), i), (x(i), i - 1)]
    return Poset.from_relations(2 * k + 2, pairs)


def three_layer_poset(n: int, prob: float, seed: int) -> Poset:
    """Three antichains of about n/4, n/2 and n/4 elements, bottom to top.

    Each pair from adjacent layers is ordered with probability prob, and
    the closure adds bottom < top through the middle.  Elements are
    shuffled, so the layers do not follow index order.  Matching such a
    poset runs phases of wide BFS layers with many dead ends.
    """
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    quarter = n // 4
    bottom, middle, top = order[:quarter], order[quarter:n - quarter], order[n - quarter:]
    pairs = [
        (u, v)
        for lower, upper in ((bottom, middle), (middle, top))
        for u in lower
        for v in upper
        if rng.random() < prob
    ]
    return Poset.from_relations(n, pairs)


def has_augmenting_path(n: int, succ, mate_left, mate_right) -> bool:
    """One augmenting-path sweep over a claimed maximum matching."""

    def try_augment(u: int, visited: set[int]) -> bool:
        for v in bit_indices(succ[u]):
            if v in visited:
                continue
            visited.add(v)
            w = mate_right[v]
            if w == -1 or try_augment(w, visited):
                return True
        return False

    return any(
        mate_left[u] == -1 and try_augment(u, set()) for u in range(n)
    )


class PartitionSeq(Frozen):
    """An integer partition: weakly decreasing positive parts.

    The library streams partitions as plain tuples and never checks them
    one by one; wrapping a tuple here checks that it is a partition.
    """

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


def family_for_partition(n: int, parts) -> SetFamily:
    """All subsets of [n] meeting every cell of the partition in a prefix.

    parts is a tuple or a PartitionSeq; it goes through PartitionSeq, so
    every call also checks that it is a partition.
    """
    c = PartitionSeq(tuple(parts))
    if c.n != n:
        raise ValueError(f"partition sums to {c.n}, not {n}")
    return SetFamily(n, tuple(_family_masks(c.parts)))


def partition_count_table(n: int, max_parts: int) -> int:
    """Partitions of n into at most max_parts parts, by the standard DP."""
    table = [[0] * (max_parts + 1) for _ in range(n + 1)]
    for k in range(max_parts + 1):
        table[0][k] = 1
    for total in range(1, n + 1):
        for k in range(1, max_parts + 1):
            table[total][k] = table[total][k - 1] + (
                table[total - k][k] if total >= k else 0
            )
    return table[n][max_parts]


def hardy_ramanujan(n: int) -> float:
    """Leading-term asymptotic estimate of the partition count."""
    if n < 1:
        raise ValueError("estimate defined for n >= 1")
    return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) / (4.0 * math.sqrt(3.0) * n)


def is_prefix_union_naive(elements: set[int], parts) -> bool:
    """Set-based re-statement of the per-cell prefix condition."""
    start = 1
    for part in parts:
        cell = list(range(start, start + part))
        got = elements.intersection(cell)
        if got and got != set(cell[: len(got)]):
            return False
        start += part
    return True


def family_masks_product(parts) -> list[int]:
    """Per-cell prefix sets of a partition, one product term per combination.

    Each term picks one prefix per cell and sums them (the cells are
    disjoint); the result is sorted, the order the library promises.
    """
    choices = []
    lo = 0
    for part in parts:
        choices.append([sum(1 << pos for pos in range(lo, lo + k)) for k in range(part + 1)])
        lo += part
    return sorted(sum(combo) for combo in product(*choices))


def naive_chain_family(n: int, a: int, all_partitions) -> set[int]:
    """Materialize the family by filtering all 2^n subsets (small n only)."""
    family = set()
    for bits in range(1 << n):
        elements = {i + 1 for i in bit_indices(bits)}
        if any(is_prefix_union_naive(elements, parts) for parts in all_partitions):
            family.add(bits)
    return family


def cardinality_materialized(u) -> int:
    """Family size by materializing the chain part and counting its sets.

    The chain part plus every subset of [m], minus the chain-part members
    that lie inside [m] and so would be counted twice.
    """
    chain = chain_family(u.n, u.a)
    inside = sum(1 for bits in chain.masks if bits >> u.m == 0)
    return len(chain) + (1 << u.m) - inside


def planted_poset(n: int, seed: int) -> tuple[Poset, frozenset[int]]:
    """A random poset with a known antichain of size at least ceil(n/3).

    Elements split into three shuffled groups; arcs only ever leave the
    middle group upward or enter it from below, so the middle group stays
    pairwise incomparable after closure.
    """
    rng = random.Random(seed)
    size = min(n - 2, -(-n // 3) + rng.randrange(0, n // 4 + 1))
    labels = list(range(n))
    rng.shuffle(labels)
    mid = labels[:size]
    rest = labels[size:]
    cut = rng.randrange(len(rest) + 1)
    lower, upper = rest[:cut], rest[cut:]
    q = rng.uniform(0.05, 0.5)
    direct = [0] * n
    for x in lower:
        for y in mid + upper:
            if rng.random() < q:
                direct[x] |= 1 << y
    for y in mid:
        for z in upper:
            if rng.random() < q:
                direct[y] |= 1 << z
    return Poset(n, tuple(transitive_closure(n, direct))), frozenset(mid)
