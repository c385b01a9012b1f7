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

from posetcube import LimitError, Poset
from posetcube.poset import Embedding, bit_indices, transitive_closure

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
