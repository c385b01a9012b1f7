"""Chain covers, maximum antichains, and the Dilworth equality."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetcube import InfeasibleError, Poset, random_poset
from posetcube.dilworth import (
    ChainDecomposition,
    _hopcroft_karp,
    cover_or_antichain,
    decomposition_into_exactly,
    max_antichain,
    min_chain_decomposition,
)
from helpers import (
    cover_antichain_reference,
    enumerate_posets,
    fence_poset,
    has_augmenting_path,
    hopcroft_karp_reference,
    konig_antichain_reference,
    max_antichain_bruteforce,
    three_layer_poset,
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
            mate_left, mate_right, _ = _hopcroft_karp(p.n, p.succ)
            assert not has_augmenting_path(p.n, p.succ, mate_left, mate_right)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 70), st.floats(0.0, 1.0), st.integers(0, 2**32))
    @example(0, 0.5, 0)
    @example(1, 0.5, 0)
    @example(7, 1.0, 3)
    @example(70, 0.0, 5)
    @example(70, 0.05, 11)
    # the sizes of the benchmark's embed-dense and embed-sparse posets
    @example(200, 0.3, 1)
    @example(200, 0.3, 2)
    @example(600, 0.005, 1)
    @example(600, 0.005, 2)
    # many phases with deep layers
    @example(1000, 0.3, 1)
    # a dead end that stays in its layer is entered again after an
    # augmentation: a leaf never pushed, and one popped from the path
    @example(326, 0.1745416428516091, 776611)
    @example(38, 0.21916507363898047, 791339)
    def test_same_mates_as_the_reference(self, n, prob, seed):
        p = random_poset(n, prob, seed)
        mates = _hopcroft_karp(p.n, p.succ)[:2]
        assert mates == hopcroft_karp_reference(p.n, p.succ)
        assert max_antichain(p) == konig_antichain_reference(p.n, p.succ, *mates)

    # wide layers and many dead ends, as on the label branch's typical posets
    @settings(max_examples=100, deadline=None)
    @given(st.integers(20, 300), st.floats(0.0, 0.5), st.integers(0, 2**32))
    @example(300, 0.02, 1)
    @example(300, 0.3, 2)
    def test_same_mates_on_three_layer_posets(self, n, prob, seed):
        p = three_layer_poset(n, prob, seed)
        mates = _hopcroft_karp(p.n, p.succ)[:2]
        assert mates == hopcroft_karp_reference(p.n, p.succ)
        assert max_antichain(p) == konig_antichain_reference(p.n, p.succ, *mates)

    # posets made mostly of elements without a successor, which the
    # matching leaves out of every frontier and root scan
    SINK_HEAVY = {
        "antichain": Poset.antichain(60),
        "star": Poset.from_relations(60, [(0, v) for v in range(1, 60)]),
        "stars": Poset.from_relations(60, [(u, v) for u in range(4) for v in range(4, 60)]),
        "inverted-star": Poset.from_relations(60, [(u, 59) for u in range(59)]),
        "isolated-and-a-chain": Poset.from_relations(60, [(u, u + 7) for u in range(30, 53, 7)]),
        "isolated-and-sparse": Poset.from_relations(
            80, [(u, v) for u in range(0, 80, 9) for v in range(u + 1, 80, 13)]
        ),
        "fence-with-isolated": Poset.from_relations(
            40, [(u, v) for u in range(0, 20, 2) for v in (u + 1, u - 1) if 0 <= v < 20]
        ),
    }

    @pytest.mark.parametrize("p", list(SINK_HEAVY.values()), ids=list(SINK_HEAVY))
    def test_same_mates_on_sink_heavy_posets(self, p):
        mates = _hopcroft_karp(p.n, p.succ)[:2]
        assert mates == hopcroft_karp_reference(p.n, p.succ)
        assert max_antichain(p) == konig_antichain_reference(p.n, p.succ, *mates)
        assert len(max_antichain(p)) == min_chain_decomposition(p).width

    def test_augmenting_path_through_every_element(self):
        # the recursive search would nest 1200 calls deep here
        p = fence_poset(1200)
        assert len(max_antichain(p)) == min_chain_decomposition(p).width == 1201


def assert_antichain_readings(p: Poset, a: int) -> None:
    """Every reading of p's matching against the second BFS over its chains."""
    dec = min_chain_decomposition(p)
    expected = cover_antichain_reference(p, dec.chains)
    assert max_antichain(p) == dec.antichain == expected
    assert len(expected) == dec.width
    cover, antichain = cover_or_antichain(p, a)
    if dec.width <= a:
        assert (cover.chains, antichain) == (dec.chains, ())
    else:
        assert (cover, antichain) == (None, tuple(sorted(expected)))


class TestAntichainFromTheMatching:
    """The König antichain read off the matching's last BFS, by
    max_antichain and cover_or_antichain, and off a cover's own BFS, by
    ChainDecomposition.antichain, equals the old second BFS over the
    chains (helpers.cover_antichain_reference)."""

    def test_every_poset_up_to_five(self):
        for n in range(1, 6):
            for p in enumerate_posets(n):
                for a in range(1, n + 1):
                    assert_antichain_readings(p, a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32), st.integers(0, 60))
    @example(600, 3 / 600, 1, 199)  # the embed-sparse shape
    @example(200, 0.3, 1, 66)  # the embed-dense shape
    def test_random_posets(self, n, prob, seed, a):
        assert_antichain_readings(random_poset(n, prob, seed), 1 + a % n)

    @pytest.mark.parametrize(
        "p, chains, expected",
        [
            # the BFS reaches the free right vertices 1 and 2, which have no mate
            (Poset.chain(3), ((0,), (1,), (2,)), {0}),
            (Poset.from_relations(4, [(0, 1), (2, 3)]), ((0,), (1,), (2, 3)), {0, 3}),
        ],
    )
    def test_covers_that_are_not_minimum(self, p, chains, expected):
        assert ChainDecomposition(p, chains).antichain == expected
        assert cover_antichain_reference(p, chains) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.randoms(use_true_random=False),
    )
    def test_minimum_covers_cut_into_more_chains(self, n, prob, seed, rng):
        p = random_poset(n, prob, seed)
        chains = []
        for chain in min_chain_decomposition(p).chains:
            cuts = sorted(rng.sample(range(1, len(chain)), rng.randrange(len(chain))))
            chains += [chain[i:j] for i, j in zip([0, *cuts], [*cuts, len(chain)])]
        chains = tuple(chains)
        assert ChainDecomposition(p, chains).antichain == cover_antichain_reference(p, chains)


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
