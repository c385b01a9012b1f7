"""Independent oracles and generators for the test suite.

Everything here deliberately avoids the package's internal representations
where it can: embeddings are re-checked with frozensets, poset enumeration
re-derives the counts by filtering pair orientations, and partition counts
come from a direct table.  Agreement between these and the library is the
point, so none of this should be "simplified" to call back into the code
under test.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, product

from posetcube import LimitError, Poset, SizeError, SizeMismatchError
from posetcube.antichain import classify
from posetcube.chainfamily import chain_family
from posetcube.poset import Embedding, EmbeddingCheck, bit_indices, transitive_closure

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


def embed_with_antichain_reference(p: Poset, antichain) -> Embedding:
    """The label construction element by element and pair by pair.

    A below element takes the below positions at or under it; an antichain
    element adds its label and the above positions it is not under; an
    above element adds the whole label window and the above positions not
    at or over it.
    """
    split = classify(p, antichain)
    if len(split.antichain) < 2:
        raise SizeError("antichain embedding needs at least two elements")
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


def mask_to_text_reference(bits: int) -> str:
    """A ground-set mask as 1-indexed elements, one set bit at a time."""
    if bits == 0:
        return "-"
    return ",".join(str(i + 1) for i in bit_indices(bits))


def pred_reference(p: Poset) -> tuple[int, ...]:
    """Predecessor masks by a loop over every comparable pair."""
    pred = [0] * p.n
    for u, row in enumerate(p.succ):
        for v in bit_indices(row):
            pred[v] |= 1 << u
    return tuple(pred)


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
        if any(is_prefix_union_naive(elements, c.parts) for c in all_partitions):
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
