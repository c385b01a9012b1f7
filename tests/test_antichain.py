"""The label construction: splitting, label assignment, and the embedding."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcube import (
    NotAnAntichainError,
    Poset,
    SizeError,
    SubsetMask,
    check_embedding,
)
from posetcube.antichain import AntichainSplit, classify, embed_with_antichain, min_ell
from posetcube.dilworth import max_antichain
from posetcube.poset import enumerate_posets
from helpers import check_embedding_naive, planted_poset

# one element under two incomparable ones, a fourth above the first of them
FAN = Poset.from_relations(4, [(0, 1), (0, 2), (1, 3)])


class TestMinEll:
    def test_known_values(self):
        assert [min_ell(a) for a in [1, 2, 3, 4, 5, 10]] == [0, 2, 3, 4, 4, 5]

    def test_minimality(self):
        for a in range(1, 1000):
            ell = min_ell(a)
            assert math.comb(ell, ell // 2) >= a
            if ell:
                assert math.comb(ell - 1, (ell - 1) // 2) < a

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            min_ell(0)


class TestClassify:
    def test_fan_example(self):
        split = classify(FAN, (1, 2))
        assert split.below == (0,)
        assert split.b == 1
        assert split.above == (3,)
        assert split.ell == 2
        assert split.antichain == (1, 2)
        # label window is [2, 3]; colex order assigns {2} then {3}
        assert split.label_masks == (0b010, 0b100)

    def test_whole_antichain(self):
        split = classify(Poset.antichain(4), range(4))
        assert split.below == () and split.above == ()
        assert split.ground_size == split.ell == 4

    def test_comparable_pair_rejected(self):
        with pytest.raises(NotAnAntichainError):
            classify(Poset.chain(3), (0, 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify(Poset.antichain(2), (0, 5))

    def test_label_invariants_on_random_inputs(self):
        for seed in range(80):
            p, antichain = planted_poset(18, seed)
            split = classify(p, antichain)
            half = split.ell // 2
            window = ((1 << split.ell) - 1) << split.b
            assert len(set(split.label_masks)) == len(split.antichain)
            for mask in split.label_masks:
                assert mask.bit_count() == half
                assert mask & ~window == 0
            assert split.n == p.n
            assert split.ground_size == p.n - len(split.antichain) + split.ell


class TestAntichainSplitValidation:
    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError):
            AntichainSplit((0,), (0, 1), (), 2, (0b0010, 0b0100))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            AntichainSplit((), (0, 1), (), 2, (0b01, 0b01))

    def test_rejects_wrong_label_size(self):
        with pytest.raises(ValueError):
            AntichainSplit((), (0, 1), (), 2, (0b01, 0b11))

    def test_rejects_label_outside_window(self):
        with pytest.raises(ValueError):
            AntichainSplit((2,), (0, 1), (), 2, (0b001, 0b010))


class TestEmbedWithAntichain:
    def test_fan_example(self):
        emb = embed_with_antichain(FAN, (1, 2))
        assert emb.m == 4
        assert [SubsetMask(4, b).elements() for b in emb.masks] == [
            (1,), (1, 2), (1, 3, 4), (1, 2, 3),
        ]
        assert check_embedding(FAN, emb)

    def test_two_antichain(self):
        emb = embed_with_antichain(Poset.antichain(2), (0, 1))
        assert emb.m == 2
        assert list(emb.masks) == [0b01, 0b10]

    def test_single_element_rejected(self):
        with pytest.raises(SizeError):
            embed_with_antichain(Poset.chain(3), (1,))

    def test_comparable_elements_rejected(self):
        with pytest.raises(NotAnAntichainError):
            embed_with_antichain(Poset.chain(3), (0, 1))

    def test_exhaustive_small_posets(self):
        for n in range(2, 6):
            for p in enumerate_posets(n):
                antichain = max_antichain(p)
                if len(antichain) < 2:
                    continue
                emb = embed_with_antichain(p, antichain)
                assert emb.m == n - len(antichain) + min_ell(len(antichain))
                assert check_embedding(p, emb)
                assert check_embedding_naive(p, emb)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(6, 40), st.integers(0, 2**32))
    def test_planted_random_posets(self, n, seed):
        p, antichain = planted_poset(n, seed)
        emb = embed_with_antichain(p, antichain)
        assert emb.m == n - len(antichain) + min_ell(len(antichain))
        assert check_embedding(p, emb)


class TestStructuralProperties:
    def plant(self, seed):
        p, antichain = planted_poset(16, seed)
        return p, classify(p, antichain), embed_with_antichain(p, antichain)

    def test_below_positions_mirror_order(self):
        # position i belongs to an image exactly when the i-th below
        # element sits at or under the imaged element
        for seed in range(40):
            p, split, emb = self.plant(seed)
            for i, x in enumerate(split.below):
                for v in range(p.n):
                    assert bool(emb.masks[v] >> i & 1) == p.leq(x, v)

    def test_antichain_images_incomparable(self):
        for seed in range(40):
            _, split, emb = self.plant(seed)
            members = split.antichain
            for u in members:
                for v in members:
                    if u != v:
                        assert emb.masks[u] & ~emb.masks[v]

    def test_label_window_separates_blocks(self):
        for seed in range(40):
            _, split, emb = self.plant(seed)
            window = ((1 << split.ell) - 1) << split.b
            for z in split.above:
                assert emb.masks[z] & window == window
            for x in split.below:
                assert emb.masks[x] & window != window
            for y in split.antichain:
                assert emb.masks[y] & window != window
