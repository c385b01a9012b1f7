"""Chain covers, maximum antichains, and the Dilworth equality."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetcube import InfeasibleError, Poset, random_poset
from posetcube.dilworth import (
    ChainDecomposition,
    _hopcroft_karp,
    decomposition_into_exactly,
    max_antichain,
    min_chain_decomposition,
)
from posetcube.poset import enumerate_posets
from helpers import (
    fence_poset,
    has_augmenting_path,
    hopcroft_karp_reference,
    konig_antichain_reference,
    max_antichain_bruteforce,
)


class TestMinChainDecomposition:
    def test_chain_collapses_to_one(self):
        dec = min_chain_decomposition(Poset.chain(5))
        assert dec.chains == ((0, 1, 2, 3, 4),)

    def test_antichain_stays_apart(self):
        dec = min_chain_decomposition(Poset.antichain(4))
        assert dec.chains == ((0,), (1,), (2,), (3,))

    def test_isolated_element(self):
        dec = min_chain_decomposition(Poset.from_relations(3, [(0, 1)]))
        assert dec.chains == ((0, 1), (2,))
        assert dec.lengths == (2, 1)

    def test_equal_lengths_ordered_by_least_element(self):
        p = Poset.from_relations(4, [(1, 3), (0, 2)])
        dec = min_chain_decomposition(p)
        assert dec.chains == ((0, 2), (1, 3))

    def test_lengths_weakly_decreasing(self):
        for seed in range(30):
            dec = min_chain_decomposition(random_poset(11, 0.2, seed))
            assert all(a >= b for a, b in zip(dec.lengths, dec.lengths[1:]))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 13), st.floats(0.0, 0.8), st.integers(0, 2**32))
    def test_partitions_elements_into_chains(self, n, prob, seed):
        p = random_poset(n, prob, seed)
        dec = min_chain_decomposition(p)
        covered = sorted(u for chain in dec.chains for u in chain)
        assert covered == list(range(n))
        for chain in dec.chains:
            assert all(p.less(a, b) for a, b in zip(chain, chain[1:]))


class TestMaxAntichain:
    def test_chain(self):
        assert len(max_antichain(Poset.chain(7))) == 1

    def test_antichain(self):
        assert max_antichain(Poset.antichain(5)) == frozenset(range(5))

    def test_pairwise_incomparable(self):
        for seed in range(30):
            p = random_poset(12, 0.3, seed)
            best = max_antichain(p)
            assert all(not p.leq(u, v) for u in best for v in best if u != v)

    def test_size_matches_brute_force(self):
        for seed in range(60):
            p = random_poset(15, 0.15 + 0.02 * (seed % 10), seed)
            assert len(max_antichain(p)) == len(max_antichain_bruteforce(p))


class TestDilworthEquality:
    def test_exhaustive_small(self):
        for n in range(1, 5):
            for p in enumerate_posets(n):
                assert min_chain_decomposition(p).width == len(max_antichain(p))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 13), st.floats(0.0, 0.8), st.integers(0, 2**32))
    def test_random(self, n, prob, seed):
        p = random_poset(n, prob, seed)
        assert min_chain_decomposition(p).width == len(max_antichain(p))


class TestMatchingMaximality:
    def test_no_augmenting_path_remains(self):
        for seed in range(40):
            p = random_poset(14, 0.25, seed)
            mate_left, mate_right = _hopcroft_karp(p.n, p.succ)
            assert not has_augmenting_path(p.n, p.succ, mate_left, mate_right)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 70), st.floats(0.0, 1.0), st.integers(0, 2**32))
    @example(0, 0.5, 0)
    @example(1, 0.5, 0)
    @example(7, 1.0, 3)
    @example(70, 0.0, 5)
    @example(70, 0.05, 11)
    def test_same_mates_as_the_reference(self, n, prob, seed):
        p = random_poset(n, prob, seed)
        mates = _hopcroft_karp(p.n, p.succ)
        assert mates == hopcroft_karp_reference(p.n, p.succ)
        assert max_antichain(p) == konig_antichain_reference(p.n, p.succ, *mates)

    def test_augmenting_path_through_every_element(self):
        # the recursive search would nest 1200 calls deep here
        p = fence_poset(1200)
        assert len(max_antichain(p)) == min_chain_decomposition(p).width == 1201


class TestDecompositionIntoExactly:
    def test_chain_with_exact_budget(self):
        assert decomposition_into_exactly(Poset.chain(4), 1).width == 1

    def test_loose_budget_keeps_minimum(self):
        assert decomposition_into_exactly(Poset.chain(4), 3).width == 1

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            decomposition_into_exactly(Poset.antichain(2), 1)


class TestChainDecompositionValidation:
    def test_rejects_duplicate_element(self):
        with pytest.raises(ValueError):
            ChainDecomposition(Poset.chain(2), ((0, 1), (1,)))

    def test_rejects_unordered_chain(self):
        with pytest.raises(ValueError):
            ChainDecomposition(Poset.antichain(2), ((0, 1),))

    def test_rejects_missing_element(self):
        with pytest.raises(ValueError):
            ChainDecomposition(Poset.chain(3), ((0, 1),))
