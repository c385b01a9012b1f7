"""The byte-block kernels against the per-pair and per-bit paths they replaced.

check_embedding, embed_with_antichain, mask_to_text and Poset.pred work
on whole rows and byte blocks.  The oracles in helpers.py do the same jobs
one pair or one bit at a time, and every answer here must match them
exactly: verdict, witness and reason, certificate bits, and text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcube import Poset, check_embedding, random_poset
from posetcube.antichain import embed_with_antichain
from posetcube.chainfamily import embed_bounded_antichain
from posetcube.dilworth import min_chain_decomposition
from posetcube.poset import (
    _PRED_DENSITY,
    Embedding,
    folklore_embed,
    mask_from_text,
    mask_to_text,
    transpose,
)
from helpers import (
    check_embedding_naive,
    check_embedding_pairwise,
    embed_with_antichain_reference,
    mask_to_text_reference,
    planted_poset,
    pred_reference,
    witness_rejected,
)

KINDS = ("folklore", "chain-cover", "labels")


def certificate(p: Poset, kind: str) -> Embedding | None:
    """A valid certificate of the given kind, None if p has no such one."""
    if kind == "folklore":
        return folklore_embed(p)
    dec = min_chain_decomposition(p)
    if kind == "chain-cover":
        return embed_bounded_antichain(p, dec.width, dec)
    antichain = sorted(dec.antichain)
    return embed_with_antichain(p, antichain) if len(antichain) >= 2 else None


def assert_same_verdict(p: Poset, emb: Embedding) -> None:
    verdict = check_embedding(p, emb)
    assert verdict == check_embedding_pairwise(p, emb)
    assert verdict.ok == check_embedding_naive(p, emb)
    if not verdict.ok:
        assert witness_rejected(p, emb, *verdict.witness)


class TestVerifier:
    @pytest.mark.parametrize(
        "p, emb",
        [
            (Poset.antichain(0), Embedding(0, ())),
            (Poset.antichain(1), Embedding(0, (0,))),
            (Poset.antichain(2), Embedding(0, (0, 0))),
            (Poset.chain(2), Embedding(0, (0, 0))),
            (Poset.antichain(1), Embedding(9, (1 << 8,))),
        ],
    )
    def test_degenerate_ground_sets(self, p, emb):
        assert_same_verdict(p, emb)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 70),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.sampled_from(KINDS),
        st.randoms(use_true_random=False),
    )
    def test_agrees_with_both_oracles(self, n, prob, seed, kind, rng):
        p = random_poset(n, prob ** 3, seed)
        emb = certificate(p, kind)
        if emb is None:
            return
        assert check_embedding(p, emb).ok
        if n and emb.m and rng.random() < 0.7:
            masks = list(emb.masks)
            j = rng.randrange(n)
            if n > 1 and rng.random() < 0.2:
                masks[j] = masks[rng.randrange(n)]
            else:
                masks[j] ^= 1 << rng.randrange(emb.m)
            emb = Embedding(emb.m, tuple(masks))
        assert_same_verdict(p, emb)

    @pytest.mark.parametrize("n, seed", [(6, 0), (9, 1), (13, 2), (17, 3), (24, 4)])
    def test_every_one_bit_flip_of_a_label_certificate(self, n, seed):
        p, antichain = planted_poset(n, seed)
        emb = embed_with_antichain(p, antichain)
        rejected = 0
        for j in range(n):
            for bit in range(emb.m):
                masks = list(emb.masks)
                masks[j] ^= 1 << bit
                flipped = Embedding(emb.m, tuple(masks))
                assert_same_verdict(p, flipped)
                rejected += not check_embedding(p, flipped).ok
        assert rejected  # a certificate that survives every flip checks nothing


class TestLabels:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 70), st.floats(0.0, 1.0), st.integers(0, 2**32), st.integers(2, 70))
    def test_equals_reference(self, n, prob, seed, size):
        p = random_poset(n, prob ** 3, seed)
        antichain = sorted(min_chain_decomposition(p).antichain)[:size]
        if len(antichain) < 2:
            return
        emb = embed_with_antichain(p, antichain)
        assert emb == embed_with_antichain_reference(p, antichain)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 70), st.integers(0, 2**32))
    def test_planted_equals_reference(self, n, seed):
        p, antichain = planted_poset(n, seed)
        assert embed_with_antichain(p, antichain) == embed_with_antichain_reference(p, antichain)


class TestMaskText:
    @pytest.mark.parametrize(
        "bits", [0, 1, 1 << 65535, (1 << 65536) - 1], ids=["empty", "one", "top", "full"]
    )
    def test_extremes(self, bits):
        text = mask_to_text(bits)
        assert text == mask_to_text_reference(bits)
        assert mask_from_text(text, 65536) == bits

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1 << 16), st.integers(0, 8), st.randoms(use_true_random=False))
    def test_equals_reference(self, width, thinning, rng):
        bits = rng.getrandbits(width)
        for _ in range(thinning):  # halve the density each round
            bits &= rng.getrandbits(width)
        assert mask_to_text(bits) == mask_to_text_reference(bits)


class TestTranspose:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 70), st.integers(0, 70), st.randoms(use_true_random=False))
    def test_equals_bit_by_bit(self, count, width, rng):
        rows = [rng.getrandbits(width) for _ in range(count)]
        columns = transpose(rows, width)
        assert len(columns) == width
        for j, column in enumerate(columns):
            assert column == sum((row >> j & 1) << i for i, row in enumerate(rows))


class TestPred:
    # pred transposes above n*n/_PRED_DENSITY comparable pairs, loops below
    @pytest.mark.parametrize(
        "n, prob, dense", [(200, 1 / 200, False), (200, 0.3, True), (64, 0.015, False), (64, 0.02, True)]
    )
    def test_both_sides_of_the_crossover(self, n, prob, dense):
        p = random_poset(n, prob, 7)
        assert (sum(row.bit_count() for row in p.succ) * _PRED_DENSITY > n * n) == dense
        assert p.pred == pred_reference(p)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 70), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_equals_reference(self, n, prob, seed):
        p = random_poset(n, prob ** 2, seed)
        assert p.pred == pred_reference(p)

