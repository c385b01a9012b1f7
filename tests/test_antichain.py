"""The label construction: splitting, label assignment, and the embedding."""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcube import Poset, SubsetMask, check_embedding
from posetcube.antichain import classify, embed_with_antichain, min_ell
from posetcube.dilworth import max_antichain
from helpers import (
    AntichainSplit,
    check_embedding_naive,
    colex_half_subsets_reference,
    enumerate_posets,
    planted_poset,
)

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
    """classify's masks, and the labels the certificate gives the antichain."""

    def test_fan_example(self):
        assert classify(FAN, (1, 2)) == (0b0001, 0b0110, 0b1000)
        assert classify(FAN, frozenset({3})) == (0b0011, 0b1000, 0b0100)

    def test_whole_antichain(self):
        assert classify(Poset.antichain(4), range(4)) == (0, 0b1111, 0)
        assert classify(Poset.antichain(4), ()) == (0, 0, 0b1111)

    def test_comparable_pair_rejected(self):
        with pytest.raises(ValueError, match="elements 0 and 2 are comparable"):
            classify(Poset.chain(3), (2, 0))

    def test_out_of_range_rejected(self):
        for antichain in [(0, 5), (0, 2), (-1, 0)]:
            with pytest.raises(ValueError, match="outside poset range"):
                classify(Poset.antichain(2), antichain)

    def test_duplicate_rejected(self):
        for antichain in [(0, 0), (1, 0, 1), [2, 2]]:
            with pytest.raises(ValueError, match="listed twice"):
                classify(Poset.antichain(3), antichain)

    def test_any_iterable_of_elements(self):
        masks = classify(FAN, (1, 2))
        for antichain in ([2, 1], frozenset({1, 2}), range(1, 3), iter((2, 1))):
            assert classify(FAN, antichain) == masks

    def test_every_antichain_of_small_posets(self):
        for n in range(1, 5):
            for p in enumerate_posets(n):
                for size in range(n + 1):
                    for antichain in combinations(range(n), size):
                        if any(p.less(u, v) for u in antichain for v in antichain):
                            continue
                        below, chosen, above = classify(p, antichain)
                        for u in range(n):
                            under = any(p.less(u, y) for y in antichain)
                            assert (below >> u & 1, chosen >> u & 1, above >> u & 1) == (
                                under,
                                u in antichain,
                                not under and u not in antichain,
                            )

    def test_masks_on_random_inputs(self):
        # below is exactly the union of pred over the antichain, and the
        # three masks partition the elements
        for seed in range(80):
            p, antichain = planted_poset(18, seed)
            below, chosen, above = classify(p, antichain)
            assert chosen == sum(1 << y for y in antichain)
            assert below | chosen | above == (1 << p.n) - 1
            assert below & chosen == below & above == chosen & above == 0
            union = 0
            for y in antichain:
                union |= p.pred[y]
            assert below == union
            for u in range(p.n):
                under = any(p.less(u, y) for y in antichain)
                over = any(p.less(y, u) for y in antichain)
                assert (below >> u & 1) == under and not (under and over)

    def test_label_invariants_on_random_inputs(self):
        # the certificate's label window [b, b + ell) holds, for each
        # antichain element in ascending order, the next colex-least
        # (ell//2)-subset of the window
        for seed in range(80):
            p, antichain = planted_poset(18, seed)
            below, _, _ = classify(p, antichain)
            a, b = len(antichain), below.bit_count()
            ell = min_ell(a)
            emb = embed_with_antichain(p, antichain)
            assert emb.m == p.n - a + ell
            window = ((1 << ell) - 1) << b
            labels = tuple(emb.masks[y] & window for y in sorted(antichain))
            assert len(set(labels)) == a
            assert all(label.bit_count() == ell // 2 for label in labels)
            assert labels == colex_half_subsets_reference(b, ell, a)


class TestAntichainSplitValidation:
    """The reference split refuses a layout the label construction must not make."""

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError, match="blocks overlap"):
            AntichainSplit((0,), (0, 1), (), 2, (0b0010, 0b0100))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="label sets must be distinct"):
            AntichainSplit((), (0, 1), (), 2, (0b01, 0b01))

    def test_rejects_wrong_label_size(self):
        with pytest.raises(ValueError, match="label size 2, expected 1"):
            AntichainSplit((), (0, 1), (), 2, (0b01, 0b11))

    def test_rejects_label_outside_window(self):
        with pytest.raises(ValueError, match="label outside the label block"):
            AntichainSplit((2,), (0, 1), (), 2, (0b001, 0b010))


@pytest.mark.parametrize(
    "poset, antichain, message",
    [
        (Poset.antichain(3), (0, 0), "element 0 listed twice"),
        (Poset.antichain(3), (1, 1, 2), "element 1 listed twice"),
        (Poset.antichain(3), (), "need at least one label"),
        (Poset.antichain(3), (1,), "antichain embedding needs at least two elements"),
        (Poset.antichain(3), (0, 7), "element 7 outside poset range"),
        (Poset.antichain(3), (-1, 0), "element -1 outside poset range"),
        (FAN, (0, 3), "elements 0 and 3 are comparable"),
        (FAN, (1, 2, 3), "elements 1 and 3 are comparable"),
        # range and repeats in the order given, then the least element below
        # another, paired with the least antichain element over it
        (Poset.antichain(3), (7, 0, 0), "element 7 outside poset range"),
        (Poset.antichain(3), (0, 0, 7), "element 0 listed twice"),
        (Poset.antichain(3), (0, 3, -1), "element 3 outside poset range"),
        (Poset.antichain(3), (0, -1, 3), "element -1 outside poset range"),
        (Poset.antichain(3), (2, 1, 2, 1), "element 2 listed twice"),
        (Poset.antichain(3), iter((1, 0, 1)), "element 1 listed twice"),
        (Poset.chain(3), (0, 1, 1), "element 1 listed twice"),
        (Poset.chain(3), (0, 1, 5), "element 5 outside poset range"),
        (Poset.chain(4), (3, 0), "elements 0 and 3 are comparable"),
        (Poset.chain(4), (3, 2, 0), "elements 0 and 2 are comparable"),
        (FAN, (3, 2, 1), "elements 1 and 3 are comparable"),
        (
            Poset.from_relations(4, [(2, 3), (1, 0)]),
            (3, 2, 1, 0),
            "elements 1 and 0 are comparable",
        ),
    ],
    ids=[
        "duplicate",
        "duplicate-of-three",
        "empty",
        "single",
        "out-of-range",
        "negative",
        "comparable",
        "comparable-among-three",
        "range-before-duplicate",
        "duplicate-before-range",
        "range-before-negative",
        "negative-before-range",
        "first-of-two-duplicates",
        "duplicate-in-iterator",
        "duplicate-before-comparable",
        "range-before-comparable",
        "comparable-pair",
        "least-upper-element",
        "least-lower-element",
        "lower-element-before-its-upper",
    ],
)
def test_embed_rejects_bad_antichain(poset, antichain, message):
    with pytest.raises(ValueError, match=f"^{message}$") as info:
        embed_with_antichain(poset, antichain)
    assert type(info.value) is ValueError


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
        with pytest.raises(ValueError, match="antichain embedding needs at least two elements"):
            embed_with_antichain(Poset.chain(3), (1,))

    def test_comparable_elements_rejected(self):
        with pytest.raises(ValueError, match="elements 0 and 1 are comparable"):
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


def elements(mask: int) -> list[int]:
    return [u for u in range(mask.bit_length()) if mask >> u & 1]


class TestStructuralProperties:
    """The certificate block by block, on planted posets."""

    def plant(self, seed):
        p, antichain = planted_poset(16, seed)
        below, chosen, above = classify(p, antichain)
        emb = embed_with_antichain(p, antichain)
        return p, (elements(below), elements(chosen), elements(above)), emb

    def test_below_positions_mirror_order(self):
        # position i belongs to an image exactly when the i-th below
        # element sits at or under the imaged element
        for seed in range(40):
            p, (below, _, _), emb = self.plant(seed)
            for i, x in enumerate(below):
                for v in range(p.n):
                    assert bool(emb.masks[v] >> i & 1) == p.leq(x, v)

    def test_antichain_images_incomparable(self):
        for seed in range(40):
            _, (_, members, _), emb = self.plant(seed)
            for u in members:
                for v in members:
                    if u != v:
                        assert emb.masks[u] & ~emb.masks[v]

    def test_label_window_separates_blocks(self):
        # the above images hold the whole label window, the below images
        # do not, and each antichain image meets it in its own
        # (ell//2)-subset
        for seed in range(40):
            _, (below, members, above), emb = self.plant(seed)
            ell = min_ell(len(members))
            window = ((1 << ell) - 1) << len(below)
            for z in above:
                assert emb.masks[z] & window == window
            for x in below:
                assert emb.masks[x] & window != window
            labels = [emb.masks[y] & window for y in members]
            assert len(set(labels)) == len(members)
            assert all(label.bit_count() == ell // 2 for label in labels)
