"""Minimum chain covers and maximum antichains.

A strict order on n elements induces a bipartite graph on two copies of
the element set with an edge (u, v) whenever u < v.  A maximum matching
there merges elements into paths, giving a partition into n - (matching
size) chains, which is optimal; the dual vertex cover yields a maximum
antichain of exactly that many elements (Fulkerson 1956).  One matching
is read in one of two ways.  The chains are the unmatched right vertices
followed up through their mates.  The antichain is read off the last BFS
of the matching, the one that finds no free right vertex: the elements
kept out of the König cover are the free left vertices and the mates of
the right vertices it reached, minus those right vertices.  A BFS over
the chains would run over the same matching from the same roots (a free
left vertex without a successor reaches nothing), so it would reach the
same vertices and give the same antichain.  cover_or_antichain, which
the embedder calls, runs one matching and builds the chains or the
antichain, never both.

Matching is Hopcroft-Karp on bitmask rows.  Each phase's BFS
(_alternating_bfs) starts from the roots, the free left vertices with a
successor, at depth 0 (an element with no successor has no edge on the
left).  layer[d] holds the matched right vertices whose mate sits at
depth d; one bit loop over a layer ORs the rows of those mates, and what
it reaches, minus the right vertices already seen, gives the next layer,
so every right vertex is touched once per phase.  The augmenting search is an iterative DFS from
each root in turn, so path length is bounded by memory, not by the
interpreter's recursion limit.  It takes the candidates of u, lowest
first, from succ[u] restricted to free right vertices and to the next
layer.  The layers stay exact: a dead end takes its mate out of its
layer for the rest of the phase, and an augmentation moves each right
vertex on the path to its new mate's layer, so a candidate's mate always
sits one layer deeper and no depth array is needed.  A candidate whose
mate has no candidate of its own is a dead end at once; it is retired
where it stands, without a push.  A phase whose BFS reached a free right
vertex always augments; one that does not raises VerificationError
rather than loop.  In the first phase no right vertex is matched, so
every augmenting path is one edge; it runs as a plain greedy loop, each
u in ascending order taking its lowest free successor, as the search
would.  The mate arrays, and so the chains, are the same as a recursive
DFS over succ[u] in ascending order gives.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain as iter_chain, compress, repeat
from operator import and_, rshift

from .errors import VerificationError
from .poset import Frozen, Poset, _bits, _selectors

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

        Consecutive chain elements are the matched pairs, so the bottom of
        each chain is a free right vertex and its top a free left vertex.
        The matching's alternating BFS runs from the tops, and the elements
        kept out of the König vertex cover are pairwise incomparable for
        any cover; there are `width` of them, a maximum antichain, when the
        cover is minimum.  For min_chain_decomposition's cover this is the
        BFS that ended the matching, so it equals max_antichain.
        """
        mate_right = [NO_MATE] * self.poset.n
        for chain in self.chains:
            for u, v in zip(chain, chain[1:]):
                mate_right[v] = u
        tops = [chain[-1] for chain in self.chains]
        bottoms = _bits(chain[0] for chain in self.chains)
        _, reached = _alternating_bfs(self.poset.succ, mate_right, tops, bottoms)
        return frozenset(_konig_antichain(mate_right, reached))


def _alternating_bfs(
    succ: tuple[int, ...], mate_right: list[int], roots: list[int], free_right: int
) -> tuple[list[int], int]:
    """The layers of the alternating BFS from roots, and the right vertices it reached.

    layer[d] holds the matched right vertices whose mate sits at depth d;
    the roots, free left vertices, are depth 0.  A free right vertex is
    reached but leads nowhere.
    """
    reach = 0
    for u in roots:
        reach |= succ[u]
    seen_right = reach
    layer = [0, reach & ~free_right]
    while layer[-1]:
        matched = layer[-1]
        reach = 0
        while matched:
            v = matched.bit_length() - 1
            reach |= succ[mate_right[v]]
            matched ^= 1 << v
        reach &= ~seen_right
        seen_right |= reach
        layer.append(reach & ~free_right)
    return layer, seen_right


def _konig_antichain(mate_right: list[int], reached: int) -> tuple[int, ...]:
    """The elements outside the König cover of a matching, in ascending order.

    reached holds the right vertices that the alternating BFS from the
    free left vertices reached.  The cover is the left vertices it did not
    reach and the right vertices it did, so the rest is (free left
    vertices and mates of reached right vertices) minus reached right
    vertices.  A reached right vertex may be free when the matching is not
    maximum, and then has no mate to read.  Four passes in C.
    """
    n = len(mate_right)
    matched_left = _bits(filter(NO_MATE.__ne__, mate_right))
    reached_left = _bits(filter(NO_MATE.__ne__, compress(mate_right, _selectors(reached))))
    free_left = ((1 << n) - 1) ^ matched_left
    return tuple(compress(range(n), _selectors((free_left | reached_left) & ~reached)))


def _hopcroft_karp(n: int, succ: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """Maximum matching in the split bipartite graph of a strict order.

    Left copy u may match right copy v whenever u < v.  Returns the mate
    arrays (NO_MATE where unmatched), where mate_left[u] = v means the
    edge (u, v) is in the matching, and the mask of the right vertices
    that the last BFS reached, the one that found no free right vertex.
    """
    mate_left = [NO_MATE] * n
    mate_right = [NO_MATE] * n
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
        roots = [u for u in left if mate_left[u] == NO_MATE]
        layer, seen_right = _alternating_bfs(succ, mate_right, roots, free_right)
        if not seen_right & free_right:
            return mate_left, mate_right, seen_right
        before = free_right
        for root in roots:
            # path[i] is the left vertex at depth i, via[i] the right vertex
            # that leads on from it, todo[i] its candidates not yet tried;
            # pending holds those of the last vertex on the path
            path = [root]
            via: list[int] = []
            todo: list[int] = []
            pending = succ[root] & (free_right | layer[1])
            while True:
                if not pending:
                    if not todo:
                        break
                    # dead end: the vertex leaves its layer for the phase
                    path.pop()
                    layer[len(path)] ^= 1 << via.pop()
                    pending = todo.pop()
                    continue
                lsb = pending & -pending
                pending ^= lsb
                v = lsb.bit_length() - 1
                w = mate_right[v]
                if w == NO_MATE:
                    free_right ^= lsb
                    via.append(v)
                    for depth, (x, y) in enumerate(zip(path, via)):
                        mate_left[x] = y
                        mate_right[y] = x
                        if depth:
                            layer[depth] ^= (1 << via[depth - 1]) | (1 << y)
                    break
                depth = len(path)
                candidates = succ[w] & (free_right | layer[depth + 1])
                if candidates:
                    path.append(w)
                    via.append(v)
                    todo.append(pending)
                    pending = candidates
                else:
                    layer[depth] ^= lsb  # a leaf dead end, retired unpushed
        if free_right == before:
            raise VerificationError("a matching phase found no augmenting path")


def _sorted_chains(chains: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    chains.sort(key=lambda chain: (-len(chain), chain[0]))
    return tuple(tuple(chain) for chain in chains)


def _chains(p: Poset, mate_left: list[int], mate_right: list[int]) -> ChainDecomposition:
    """The chains of a matching: each free right vertex followed up through its mates."""
    chains = []
    for start, mate in enumerate(mate_right):
        if mate == NO_MATE:
            chain = [start]
            u = mate_left[start]
            while u != NO_MATE:
                chain.append(u)
                u = mate_left[u]
            chains.append(chain)
    return ChainDecomposition(p, _sorted_chains(chains))


def min_chain_decomposition(p: Poset) -> ChainDecomposition:
    """Partition p into the fewest possible chains.

    The number of chains always equals the maximum antichain size.
    """
    mate_left, mate_right, _ = _hopcroft_karp(p.n, p.succ)
    return _chains(p, mate_left, mate_right)


def max_antichain(p: Poset) -> frozenset[int]:
    """A maximum antichain of p, min_chain_decomposition(p).antichain without the chains."""
    _, mate_right, reached = _hopcroft_karp(p.n, p.succ)
    return frozenset(_konig_antichain(mate_right, reached))


def cover_or_antichain(
    p: Poset, a: int
) -> tuple[ChainDecomposition | None, tuple[int, ...]]:
    """From one matching, the minimum chain cover if it fits in a chains, else an antichain.

    Returns (min_chain_decomposition(p), ()) when the width is at most a,
    and otherwise (None, the elements of max_antichain(p) in ascending
    order).  The width is the number of unmatched right vertices, so only
    the branch taken is built.
    """
    mate_left, mate_right, reached = _hopcroft_karp(p.n, p.succ)
    if mate_right.count(NO_MATE) <= a:
        return _chains(p, mate_left, mate_right), ()
    return None, _konig_antichain(mate_right, reached)


def decomposition_into_exactly(p: Poset, a: int) -> ChainDecomposition:
    """Decompose p into at most a chains, failing if the width exceeds a.

    A minimum decomposition is returned unchanged when it already fits;
    the count is never padded upward.
    """
    dec = min_chain_decomposition(p)
    if dec.width > a:
        raise ValueError(f"width {dec.width} exceeds requested chain count {a}")
    return dec
