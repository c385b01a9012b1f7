"""Minimum chain covers and maximum antichains.

A strict order on n elements induces a bipartite graph on two copies of
the element set with an edge (u, v) whenever u < v.  A maximum matching
there merges elements into paths, giving a partition into n - (matching
size) chains, which is optimal; the dual vertex cover yields a maximum
antichain of exactly that many elements.  The chains determine the
matching, so one matching per poset gives both (Fulkerson 1956).

Matching is Hopcroft-Karp on bitmask rows.  An element with no successor
has no edge on the left, so only the others enter frontiers and root
scans, and a free root with no candidate is skipped: it is no one's
mate, so its dead end would change nothing.  Each phase builds its BFS
layers from whole frontiers: the union of succ[u] over one layer, minus
the right vertices already seen, is the next layer of right vertices, so
every right vertex is touched once per phase.  The augmenting search is
an iterative DFS, so path length is bounded by memory, not by the
interpreter's recursion limit.  It takes the candidates of u, lowest
first, from succ[u] restricted to free right vertices and to those
whose mate lies one layer deeper, and re-checks that layer when a
candidate is taken, because dead ends leave the layer masks stale.  In
the first phase no right vertex is matched, so every augmenting path is
one edge; it runs as a plain greedy loop, each u in ascending order
taking its lowest free successor, as the search would.  The mate
arrays, and so the chains, are the same as a recursive DFS over succ[u]
in ascending order gives.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain as iter_chain, compress, repeat
from operator import and_, rshift

from .errors import InfeasibleError
from .poset import Frozen, Poset, bit_indices

NO_MATE = -1


class ChainDecomposition(Frozen):
    """A partition of the elements of a poset into chains.

    Each chain is a tuple of elements in increasing poset order.  Chains
    are listed longest first, ties broken by smallest element, so equal
    inputs decompose identically.
    """

    __slots__ = ("poset", "chains", "__dict__")  # __dict__ holds lengths and antichain

    def __init__(self, poset: Poset, chains: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "chains", chains)
        # accept in C: the chains list 0..n-1 once each, and every
        # consecutive pair (a, b) has bit b in succ[a]
        succ = self.poset.succ
        elements = sorted(iter_chain.from_iterable(self.chains))
        lows = iter_chain.from_iterable([chain[:-1] for chain in self.chains])
        highs = iter_chain.from_iterable([chain[1:] for chain in self.chains])
        if elements == list(range(self.poset.n)) and all(
            map(and_, map(rshift, map(succ.__getitem__, lows), highs), repeat(1))
        ):
            return
        # otherwise name the first offender, one element and pair at a time
        seen = 0
        for chain in self.chains:
            for u in chain:
                if not 0 <= u < self.poset.n:
                    raise ValueError(f"element {u} outside poset range")
                if (seen >> u) & 1:
                    raise ValueError(f"element {u} appears in two chains")
                seen |= 1 << u
            for a, b in zip(chain, chain[1:]):
                if not self.poset.less(a, b):
                    raise ValueError(f"chain pair ({a}, {b}) not ordered")
        if seen != (1 << self.poset.n) - 1:
            raise ValueError("chains do not cover every element")

    @property
    def width(self) -> int:
        return len(self.chains)

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(chain) for chain in self.chains)

    @cached_property
    def antichain(self) -> frozenset[int]:
        """The antichain dual to the matching these chains encode.

        Consecutive chain elements are the matched pairs and the top of
        each chain is an unmatched left vertex.  Alternating reachability
        from those gives a König vertex cover; the elements kept out of it
        on both sides are pairwise incomparable for any cover, and there
        are `width` of them, a maximum antichain, when the cover is minimum.
        """
        succ = self.poset.succ
        mate_right = [NO_MATE] * self.poset.n
        frontier = 0
        for chain in self.chains:
            for u, v in zip(chain, chain[1:]):
                mate_right[v] = u
            frontier |= 1 << chain[-1]
        reach_left = frontier
        reach_right = 0
        while frontier:
            new_right = 0
            for u in bit_indices(frontier):
                new_right |= succ[u]
            new_right &= ~reach_right
            reach_right |= new_right
            frontier = 0
            for v in bit_indices(new_right):
                if mate_right[v] != NO_MATE:
                    frontier |= 1 << mate_right[v]
            reach_left |= frontier
        # cover = (left not reached) + (right reached); the antichain is the rest
        return frozenset(bit_indices(reach_left & ~reach_right))


def _hopcroft_karp(n: int, succ: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Maximum matching in the split bipartite graph of a strict order.

    Left copy u may match right copy v whenever u < v.  Returns the mate
    arrays (NO_MATE where unmatched): mate_left[u] = v means the edge
    (u, v) is in the matching.
    """
    mate_left = [NO_MATE] * n
    mate_right = [NO_MATE] * n
    inf = n + 1
    free_right = (1 << n) - 1
    # only an element with a successor can be matched on the left
    left = list(compress(range(n), succ))
    for u in left:
        candidates = succ[u] & free_right
        if candidates:
            lsb = candidates & -candidates
            v = lsb.bit_length() - 1
            mate_left[u] = v
            mate_right[v] = u
            free_right ^= lsb
    while True:
        # BFS: dist of every left vertex reachable from a free one, and
        # layer[d], the right vertices whose mate sits at distance d
        dist = [inf] * n
        frontier = [u for u in left if mate_left[u] == NO_MATE]
        layer = [0]
        seen_right = 0
        while frontier:
            depth = len(layer) - 1
            reach = 0
            for u in frontier:
                dist[u] = depth
                reach |= succ[u]
            reach &= ~seen_right
            seen_right |= reach
            matched = reach & ~free_right
            layer.append(matched)
            frontier = [mate_right[v] for v in bit_indices(matched)]
        if not seen_right & free_right:
            return mate_left, mate_right
        for root in left:
            if mate_left[root] != NO_MATE:
                continue
            first = succ[root] & (free_right | layer[1])
            if not first:
                continue
            # path[i] is the left vertex at depth i, via[i] the right vertex
            # that leads on from it, todo[i] its candidates not yet tried
            path = [root]
            via: list[int] = []
            todo = [first]
            while path:
                u = path[-1]
                pending = todo[-1]
                if not pending:
                    # dead end: u leaves its layer for the rest of the phase
                    if mate_left[u] != NO_MATE:
                        layer[dist[u]] &= ~(1 << mate_left[u])
                    dist[u] = inf
                    path.pop()
                    todo.pop()
                    if via:
                        via.pop()
                    continue
                lsb = pending & -pending
                todo[-1] = pending ^ lsb
                v = lsb.bit_length() - 1
                w = mate_right[v]
                if w == NO_MATE:
                    free_right ^= lsb
                    via.append(v)
                    for depth, (x, y) in enumerate(zip(path, via)):
                        mate_left[x] = y
                        mate_right[y] = x
                        layer[depth] |= 1 << y
                        if depth + 1 < len(path):
                            layer[depth + 1] &= ~(1 << y)
                    break
                depth = dist[u] + 1
                if dist[w] == depth:
                    path.append(w)
                    via.append(v)
                    todo.append(succ[w] & (free_right | layer[depth + 1]))


def _sorted_chains(chains: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    chains.sort(key=lambda chain: (-len(chain), chain[0]))
    return tuple(tuple(chain) for chain in chains)


def min_chain_decomposition(p: Poset) -> ChainDecomposition:
    """Partition p into the fewest possible chains.

    The number of chains always equals the maximum antichain size.
    """
    mate_left, mate_right = _hopcroft_karp(p.n, p.succ)
    chains = []
    for start in range(p.n):
        if mate_right[start] != NO_MATE:
            continue
        chain = [start]
        while mate_left[chain[-1]] != NO_MATE:
            chain.append(mate_left[chain[-1]])
        chains.append(chain)
    return ChainDecomposition(p, _sorted_chains(chains))


def max_antichain(p: Poset) -> frozenset[int]:
    """A maximum antichain of p, dual to its minimum chain cover."""
    return min_chain_decomposition(p).antichain


def decomposition_into_exactly(p: Poset, a: int) -> ChainDecomposition:
    """Decompose p into at most a chains, failing if the width exceeds a.

    A minimum decomposition is returned unchanged when it already fits;
    the count is never padded upward.
    """
    dec = min_chain_decomposition(p)
    if dec.width > a:
        raise InfeasibleError(
            f"width {dec.width} exceeds requested chain count {a}"
        )
    return dec
