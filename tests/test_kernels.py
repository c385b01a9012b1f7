"""The bit-parallel kernels against the per-pair and per-bit paths they replaced.

check_embedding (its up-set and label accepts and its byte-block pass), the
three constructions (folklore_embed, embed_bounded_antichain,
embed_with_antichain), transpose and its 8x8 tile kernel, mask_to_text
and Poset.pred work on whole rows and byte blocks; Poset validation and
Poset.covers take one step per greedy cover pick; colex_half_subsets
filters masks by popcount.  The oracles
in helpers.py do the same jobs one pair, one bit, one column or one
combination at a time, and every answer here must match them: verdict,
witness and reason, certificate bits, columns, labels, text and cover
masks.
"""

from __future__ import annotations

import math
import random
import re
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetcube.poset
from posetcube import Poset, build_universal, check_embedding, embed_with_branch, random_poset
from posetcube.antichain import colex_half_subsets, embed_with_antichain
from posetcube.chainfamily import embed_bounded_antichain
from posetcube.dilworth import ChainDecomposition, min_chain_decomposition
from posetcube.poset import (
    Embedding,
    EmbeddingCheck,
    _block_columns,
    _containment,
    _tile_swaps,
    folklore_embed,
    mask_from_text,
    mask_to_text,
    transpose,
)
from posetcube.universal import BRANCH_ANTICHAIN
from helpers import (
    check_embedding_naive,
    check_embedding_pairwise,
    colex_half_subsets_reference,
    covers_reference,
    embed_bounded_antichain_reference,
    embed_with_antichain_reference,
    enumerate_posets,
    mask_to_text_reference,
    planted_poset,
    pred_reference,
    transpose_reference,
    validate_pairwise,
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


def assert_every_flip_agrees(p: Poset, emb: Embedding) -> None:
    """assert_same_verdict on every one-bit flip of every image of emb."""
    rejected = 0
    for j in range(p.n):
        for bit in range(emb.m):
            masks = list(emb.masks)
            masks[j] ^= 1 << bit
            flipped = Embedding(emb.m, tuple(masks))
            assert_same_verdict(p, flipped)
            rejected += not check_embedding(p, flipped).ok
    assert rejected  # a certificate that survives every flip checks nothing


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
        assert_every_flip_agrees(p, embed_with_antichain(p, antichain))

    @pytest.mark.parametrize("n, seed", [(6, 0), (9, 1), (13, 2), (17, 3), (24, 4)])
    def test_every_one_bit_flip_of_a_chain_cover_certificate(self, n, seed):
        p = random_poset(n, 0.3, seed)
        assert_every_flip_agrees(p, certificate(p, "chain-cover"))

    @pytest.mark.parametrize("n, seed", [(13, 2), (17, 3), (24, 4), (30, 5), (40, 6)])
    def test_every_one_bit_flip_on_the_padded_ground_set(self, n, seed):
        # embed_with_branch's label shape: images inside [m], ground set [n]
        p, antichain = planted_poset(n, seed)
        inner = embed_with_antichain(p, antichain)
        emb = Embedding(n, inner.masks)
        top = max(emb.masks).bit_length()
        assert top <= inner.m < n
        assert_same_verdict(p, emb)
        rejected_above_top = 0
        for j in range(n):
            for bit in range(n):
                masks = list(emb.masks)
                masks[j] ^= 1 << bit
                flipped = Embedding(n, tuple(masks))
                assert_same_verdict(p, flipped)
                if bit >= top:
                    rejected_above_top += not check_embedding(p, flipped).ok
        # a walk that stopped below a flipped bit would accept these
        assert rejected_above_top

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(64, 200),
        st.integers(0, 2**32),
        st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    def test_sparse_label_certificates(self, n, seed, flips, rng):
        # embed_with_branch's label shape on the benchmark's sparse posets:
        # images within about 2n/3 of the ground set [n], mostly zero
        # bytes, which the fold skips
        p = random_poset(n, 3 / n, seed)
        antichain = sorted(min_chain_decomposition(p).antichain)[: -(-n // 3)]
        emb = Embedding(n, embed_with_antichain(p, antichain).masks)
        assert_same_verdict(p, emb)
        masks = list(emb.masks)
        for _ in range(flips):
            masks[rng.randrange(n)] ^= 1 << rng.randrange(n)
        assert_same_verdict(p, Embedding(n, tuple(masks)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 70),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.sampled_from(KINDS),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    def test_duplicate_images_anywhere(self, n, prob, seed, kind, copies, rng):
        p = random_poset(n, prob ** 3, seed)
        emb = certificate(p, kind)
        if emb is None:
            return
        masks = list(emb.masks)
        for _ in range(copies):  # first and last positions included
            i, j = rng.sample((0, n - 1, rng.randrange(n), rng.randrange(n)), 2)
            masks[j] = masks[i]
        assert_same_verdict(p, Embedding(emb.m, tuple(masks)))


def up_sets(p: Poset) -> list[int]:
    """The principal up-set succ[u] | 1 << u of every element u."""
    return [row | 1 << u for u, row in enumerate(p.succ)]


def from_columns(columns: list[int], n: int) -> Embedding:
    """The embedding whose ground position i holds the elements of columns[i]."""
    return Embedding(len(columns), transpose(columns, n))


def is_up_set(p: Poset, s: int) -> bool:
    return all(p.succ[u] & ~s == 0 for u in range(p.n) if s >> u & 1)


def verdict_and_block_passes(p: Poset, emb: Embedding):
    """check_embedding's verdict and how often it ran the block pass."""
    with mock.patch.object(posetcube.poset, "_containment", wraps=_containment) as block:
        verdict = check_embedding(p, emb)
    return verdict, block.call_count


class TestUpSetAccept:
    """check_embedding's column-identity accept, against the pairwise oracle.

    Columns that are exactly the principal up-sets, in any order and with
    repeats, are accepted without the block pass.  Every other set of
    columns must get the block pass's verdict, witness and reason.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 40),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.sampled_from(("folklore", "chain-cover")),
        st.integers(0, 5),
        st.randoms(use_true_random=False),
    )
    def test_permuted_and_repeated_columns(self, n, prob, seed, kind, repeats, rng):
        p = random_poset(n, prob ** 3, seed)
        columns = list(transpose(certificate(p, kind).masks, n))
        assert sorted(columns) == sorted(up_sets(p))
        if n:
            columns += [rng.choice(columns) for _ in range(repeats)]  # w > n
        rng.shuffle(columns)
        emb = from_columns(columns, n)
        verdict, passes = verdict_and_block_passes(p, emb)
        assert verdict == check_embedding_pairwise(p, emb) == EmbeddingCheck(True)
        assert passes == 0

    def test_too_few_columns_go_to_the_block_pass(self):
        # 0 < 2 and 1 < 2: the columns up(0) = {0, 2} and up(1) = {1, 2}
        # embed it, but up(2) is no column, so only the block pass can accept
        p = Poset.from_relations(3, [(0, 2), (1, 2)])
        emb = from_columns([0b101, 0b110], 3)
        assert emb.masks == (0b01, 0b10, 0b11)
        verdict, passes = verdict_and_block_passes(p, emb)
        assert verdict == check_embedding_pairwise(p, emb) == EmbeddingCheck(True)
        assert passes == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.randoms(use_true_random=False),
    )
    def test_every_up_set_plus_one_that_is_not(self, n, prob, seed, rng):
        p = random_poset(n, prob ** 2, seed)
        extra = rng.getrandbits(n)
        if is_up_set(p, extra):
            return
        columns = up_sets(p)
        rng.shuffle(columns)
        columns.insert(rng.randrange(n + 1), extra)
        emb = from_columns(columns, n)
        verdict, passes = verdict_and_block_passes(p, emb)
        assert verdict == check_embedding_pairwise(p, emb)
        assert not verdict.ok and passes == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 40),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    def test_an_up_set_replaced_by_a_repeat(self, n, prob, seed, copies, rng):
        # w stays at least n, but some element's up-set is no column
        p = random_poset(n, prob ** 2, seed)
        columns = up_sets(p)
        rng.shuffle(columns)
        del columns[rng.randrange(n)]
        columns += [rng.choice(columns) for _ in range(copies)]
        emb = from_columns(columns, n)
        verdict, passes = verdict_and_block_passes(p, emb)
        assert verdict == check_embedding_pairwise(p, emb)
        assert passes == (verdict.reason != "duplicate images")

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.randoms(use_true_random=False),
    )
    def test_zero_column_below_the_top_bit(self, n, prob, seed, rng):
        # a zero column is no principal up-set, so the up-set accept
        # declines; the label accept takes it as a window column with
        # every element principal (B is everything, Y, Z and L are empty)
        p = random_poset(n, prob ** 2, seed)
        columns = up_sets(p)
        rng.shuffle(columns)
        columns.insert(rng.randrange(n), 0)
        emb = from_columns(columns, n)
        assert max(emb.masks).bit_length() == n + 1
        verdict, passes = verdict_and_block_passes(p, emb)
        assert verdict == check_embedding_pairwise(p, emb) == EmbeddingCheck(True)
        assert passes == 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(15, 40),
        st.integers(0, 2**32),
        st.integers(2, 4),
        st.integers(0, 2),
        st.randoms(use_true_random=False),
    )
    def test_label_certificates_with_m_equal_to_n(self, n, seed, a, flips, rng):
        # a = 2..4 gives ell = a and m = n, so the label images may reach
        # the top bit n and the sets are built; a planted antichain of at
        # least 5 elements sends p to the label branch
        p, _ = planted_poset(n, seed)
        u = build_universal(n, a)
        assert u.m == n
        emb, branch = embed_with_branch(u, p)
        assert branch == BRANCH_ANTICHAIN
        masks = list(emb.masks)
        for _ in range(flips):
            masks[rng.randrange(n)] ^= 1 << rng.randrange(n)
        emb = Embedding(n, tuple(masks))
        verdict = check_embedding(p, emb)
        assert verdict == check_embedding_pairwise(p, emb)
        assert verdict.ok or flips


def label_certificate(n: int, seed: int, share: float, planted: bool = True):
    """A poset and its label-branch certificate at a budget a in 2..width-1.

    share picks a within that range; the certificate is None if the poset
    is narrower than 3, so that no budget of at least 2 gives the branch.
    """
    p = planted_poset(n, seed)[0] if planted else random_poset(n, 2 / n, seed)
    width = min_chain_decomposition(p).width
    if width < 3:
        return p, None
    a = 2 + int(share * (width - 3))
    emb, branch = embed_with_branch(build_universal(n, a), p)
    assert branch == BRANCH_ANTICHAIN
    return p, emb


def column_blocks(p: Poset, columns: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The columns split into principal, co-principal and window columns.

    Principal: some element's up-set.  Co-principal: Y minus the down-set
    of some z in Y, Y being the elements whose up-set is no column.
    Window: the rest.
    """
    ups = set(up_sets(p))
    rest = sum(1 << u for u in range(p.n) if p.succ[u] | 1 << u not in columns)
    co = {rest & ~(p.pred[z] | 1 << z) for z in range(p.n) if rest >> z & 1}
    blocks: tuple[list[int], list[int], list[int]] = ([], [], [])
    for c in columns:
        blocks[0 if c in ups else 1 if c in co else 2].append(c)
    return blocks


class TestLabelAccept:
    """check_embedding's label accept (poset._label_accept), against the pairwise oracle.

    The accept reads the distinct columns only, so permuting and repeating
    the columns of a certificate never changes whether it runs the block
    pass.  Anything the accept declines must get the block pass's verdict,
    witness and reason, and anything it takes must be order-faithful.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(13, 40),
        st.integers(0, 2**32),
        st.floats(0.0, 1.0),
        st.integers(0, 5),
        st.randoms(use_true_random=False),
    )
    def test_permuted_and_repeated_columns(self, n, seed, share, repeats, rng):
        p, emb = label_certificate(n, seed, share)
        if emb is None:
            return
        base, base_passes = verdict_and_block_passes(p, emb)
        columns = list(transpose(emb.masks, max(emb.masks).bit_length()))
        columns += [rng.choice(columns) for _ in range(repeats)]
        rng.shuffle(columns)
        moved = from_columns(columns, n)
        verdict, passes = verdict_and_block_passes(p, moved)
        assert base == verdict == check_embedding_pairwise(p, moved) == EmbeddingCheck(True)
        assert passes == base_passes

    @settings(max_examples=40, deadline=None)
    @given(st.integers(13, 40), st.integers(0, 2**32), st.floats(0.0, 1.0), st.booleans())
    def test_every_one_bit_flip(self, n, seed, share, planted):
        p, emb = label_certificate(n, seed, share, planted)
        if emb is None:
            return
        top = max(emb.masks).bit_length()
        rejected = 0
        for j in range(n):
            for bit in range(min(top + 1, n)):  # one bit above the images too
                masks = list(emb.masks)
                masks[j] ^= 1 << bit
                flipped = Embedding(n, tuple(masks))
                verdict = check_embedding(p, flipped)
                assert verdict == check_embedding_pairwise(p, flipped)
                rejected += not verdict.ok
        assert rejected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(13, 40),
        st.integers(0, 2**32),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_columns_swapped_between_blocks(self, n, seed, share, replace, rng):
        # a column of one block is replaced by a column of another, or one
        # element trades places between a column of each block
        p, emb = label_certificate(n, seed, share)
        if emb is None:
            return
        columns = list(transpose(emb.masks, max(emb.masks).bit_length()))
        blocks = column_blocks(p, columns)
        kinds = [k for k, block in enumerate(blocks) if block]
        if len(kinds) < 2:
            return
        mine, theirs = (rng.choice(blocks[k]) for k in rng.sample(kinds, 2))
        i, k = columns.index(mine), columns.index(theirs)
        if replace:
            columns[i] = theirs
        else:
            x = rng.choice([x for x in range(n) if (mine ^ theirs) >> x & 1])
            columns[i] ^= 1 << x
            columns[k] ^= 1 << x
        swapped = from_columns(columns, n)
        verdict, passes = verdict_and_block_passes(p, swapped)
        assert verdict == check_embedding_pairwise(p, swapped)
        assert verdict.ok or passes == (verdict.reason != "duplicate images")

    @pytest.mark.parametrize(
        "condition, succ, columns",
        [
            ("1: B a down-set", (0, 1), (0b0, 0b1, 0b10)),
            ("2: the rest lie within Y and cover it", (0, 0), (0b0, 0b1)),
            ("3: the window holds Z", (0, 0, 0), (0b0, 0b11, 0b101)),
            ("4: nothing in Y below L", (0, 0b101, 0), (0b11, 0b101, 0b110)),
            ("5: distinct rows", (0, 0), (0b0, 0b11)),
            ("5: rows of one size", (0, 0, 0, 0), (0b11, 0b101, 0b1010)),
            ("5: no row is the whole window", (0, 0, 0), (0b11, 0b101)),
        ],
    )
    def test_each_condition_is_needed(self, condition, succ, columns):
        # the smallest columns (by a search over every poset of n <= 4)
        # that meet every condition but the named one and embed nothing
        p = Poset(len(succ), succ)
        emb = from_columns(list(columns), p.n)
        assert max(emb.masks).bit_length() == len(columns)
        verdict, passes = verdict_and_block_passes(p, emb)
        assert verdict == check_embedding_pairwise(p, emb)
        assert not verdict.ok and passes == (verdict.reason != "duplicate images")


class TestEmbeddingRange:
    # Embedding names the first image out of range, wherever it sits

    @pytest.mark.parametrize("bad", [-1, -(1 << 70), 1 << 9, (1 << 70) | 1])
    @pytest.mark.parametrize("j", [0, 5])
    def test_first_and_last_index(self, bad, j):
        masks = [1, 2, 0, 511, 3, 4]
        masks[j] = bad
        with pytest.raises(ValueError) as info:
            Embedding(9, tuple(masks))
        assert str(info.value) == f"image {j} does not fit ground set [9]"

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 70),
        st.integers(1, 70),
        st.lists(st.sampled_from(("negative", "wide")), max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_names_the_first_bad_image(self, m, count, faults, rng):
        masks = [rng.getrandbits(m) for _ in range(count)]
        assert Embedding(m, tuple(masks)).masks == tuple(masks)
        spoiled = []
        for fault in faults:
            j = rng.choice((0, count - 1, rng.randrange(count)))
            if fault == "negative":
                masks[j] = -1 - rng.getrandbits(m)
            else:
                masks[j] |= 1 << (m + rng.randrange(3))
            spoiled.append(j)
        if spoiled:
            with pytest.raises(ValueError) as info:
                Embedding(m, tuple(masks))
            assert str(info.value) == f"image {min(spoiled)} does not fit ground set [{m}]"


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

    def test_every_antichain_of_small_posets(self):
        for n in range(2, 6):
            for p in enumerate_posets(n):
                for size in range(2, n + 1):
                    for antichain in combinations(range(n), size):
                        if not any(p.less(u, v) for u in antichain for v in antichain):
                            emb = embed_with_antichain(p, antichain)
                            assert emb == embed_with_antichain_reference(p, antichain)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 70), st.integers(0, 2**32))
    def test_planted_equals_reference(self, n, seed):
        p, antichain = planted_poset(n, seed)
        assert embed_with_antichain(p, antichain) == embed_with_antichain_reference(p, antichain)


class TestChainCover:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 70),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.randoms(use_true_random=False),
    )
    def test_every_cover_equals_reference(self, n, prob, seed, rng):
        # the minimum cover, all singletons, and the minimum cover's chains
        # cut at random points and shuffled: each is a cover of p
        p = random_poset(n, prob ** 3, seed)
        dec = min_chain_decomposition(p)
        pieces = []
        for chain in dec.chains:
            cuts = sorted(rng.sample(range(1, len(chain)), rng.randrange(len(chain))))
            pieces += [chain[i:j] for i, j in zip([0, *cuts], [*cuts, len(chain)])]
        rng.shuffle(pieces)
        singletons = tuple((u,) for u in range(n))
        for chains in (dec.chains, singletons, tuple(pieces)):
            cover = ChainDecomposition(p, chains)
            emb = embed_bounded_antichain(p, cover.width, cover)
            assert emb == embed_bounded_antichain_reference(p, cover)


class TestFolklore:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 70), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_images_are_downsets(self, n, prob, seed):
        p = random_poset(n, prob ** 2, seed)
        pred = pred_reference(p)
        assert folklore_embed(p) == Embedding(n, tuple(pred[j] | 1 << j for j in range(n)))


class TestColexLabels:
    @pytest.mark.parametrize("lo", [0, 5])
    @pytest.mark.parametrize("ell", range(18))
    def test_equals_reference(self, ell, lo):
        # the kernel's labels are relative to the label window; shifted to
        # a window at any offset lo they are that window's colex-first
        # subsets, which the reference builds in place
        total = math.comb(ell, ell // 2)
        for count in {0, 1, total // 2, total}:
            shifted = tuple(label << lo for label in colex_half_subsets(ell, count))
            assert shifted == colex_half_subsets_reference(lo, ell, count)
        with pytest.raises(ValueError, match=f"only {total} labels available"):
            colex_half_subsets(ell, total + 1)
        with pytest.raises(ValueError, match=f"only {total} labels available"):
            colex_half_subsets_reference(lo, ell, total + 1)


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
        text = mask_to_text(bits)
        assert text == mask_to_text_reference(bits)
        assert mask_from_text(text, width) == bits


def columns_bit_by_bit(rows, width: int) -> tuple[int, ...]:
    """The definition of the transpose: bit i of column j is bit j of rows[i]."""
    return tuple(sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(width))


# row counts around the 8-row tile and the 64-row word, and the benchmark's
ROW_COUNTS = (0, 1, 7, 8, 9, 63, 64, 65, 600)
FILLS = ("random", "ones", "one-bit")


def filled_rows(fill: str, count: int, width: int, rng) -> list[int]:
    """count rows of width bits: random bits, all ones, or one random bit each."""
    if fill == "random":
        return [rng.getrandbits(width) for _ in range(count)]
    if fill == "ones":
        return [(1 << width) - 1] * count
    return [1 << rng.randrange(width) if width else 0 for _ in range(count)]


class TestTranspose:
    @pytest.mark.parametrize("fill", FILLS)
    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_block_columns(self, count, fill):
        rng = random.Random(count)
        block = bytes(filled_rows(fill, count, 8, rng))
        columns = _block_columns(block, _tile_swaps(count))
        assert tuple(columns) == columns_bit_by_bit(block, 8)
        assert tuple(columns) == transpose_reference(block, 8)

    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_block_columns_of_every_single_bit(self, count):
        # one set bit moves through every position of every 8x8 tile, so
        # each bit of each delta-swap mask is taken in both directions
        swaps = _tile_swaps(count)
        for i in range(count):
            for k in range(8):
                block = bytearray(count)
                block[i] = 1 << k
                expected = [1 << i if column == k else 0 for column in range(8)]
                assert _block_columns(bytes(block), swaps) == expected

    @pytest.mark.parametrize("fill", FILLS)
    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_shapes(self, count, fill):
        rng = random.Random(count)
        for width in (0, 1, 5, 13, 67):  # never a multiple of 8 but 0
            rows = filled_rows(fill, count, width, rng)
            columns = transpose(rows, width)
            assert columns == columns_bit_by_bit(rows, width)
            assert columns == transpose_reference(rows, width)

    @pytest.mark.parametrize("count, width", [(410, 600), (600, 410)])
    def test_benchmark_shapes(self, count, width):
        # the label construction's (m columns of n bits) and the verifier's
        rng = random.Random(count)
        rows = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(count)]
        columns = transpose(rows, width)
        assert columns == transpose_reference(rows, width)
        assert columns == columns_bit_by_bit(rows, width)
        assert transpose(columns, count) == tuple(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 70), st.integers(0, 70), st.randoms(use_true_random=False))
    def test_equals_bit_by_bit(self, count, width, rng):
        rows = [rng.getrandbits(width) for _ in range(count)]
        columns = transpose(rows, width)
        assert len(columns) == width
        assert columns == columns_bit_by_bit(rows, width)


class TestPred:
    @pytest.mark.parametrize("n, prob", [(200, 1 / 200), (200, 0.3), (64, 0.015), (64, 0.02)])
    def test_fixed_shapes(self, n, prob):
        p = random_poset(n, prob, 7)
        assert p.pred == pred_reference(p)

    @pytest.mark.parametrize("n", [0, 1, 8, 64, 65])
    def test_chain_and_antichain(self, n):
        for p in (Poset.chain(n), Poset.antichain(n)):
            assert p.pred == pred_reference(p)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 70), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_equals_reference(self, n, prob, seed):
        p = random_poset(n, prob ** 2, seed)
        assert p.pred == pred_reference(p)


def rejection(check, n: int, succ) -> str | None:
    """The ValueError message of check(n, succ), None if it passes."""
    try:
        check(n, succ)
    except ValueError as exc:
        return str(exc)
    return None


def assert_real_violation(succ, message: str) -> None:
    """The rejection names a pair or element that really breaks the order."""
    numbers = tuple(map(int, re.findall(r"\d+", message)))
    if message.startswith("irreflexivity"):
        (u,) = numbers
        assert succ[u] >> u & 1
        return
    u, v = numbers
    assert succ[u] >> v & 1
    if message.startswith("antisymmetry"):
        assert succ[v] >> u & 1
    else:
        assert message.startswith("relation not transitively closed")
        assert not succ[v] >> u & 1
        assert succ[v] & ~succ[u]


class TestValidator:
    # Poset(n, succ) checks closedness by greedy cover picks; the oracle
    # walks every comparable pair

    @pytest.mark.parametrize("n, posets", [(0, 1), (1, 1), (2, 3), (3, 19), (4, 219)])
    def test_every_relation_up_to_four(self, n, posets):
        accepted = 0
        for code in range(1 << (n * n)):
            succ = tuple(code >> (n * u) & ((1 << n) - 1) for u in range(n))
            expected = rejection(validate_pairwise, n, succ)
            got = rejection(Poset, n, succ)
            assert (got is None) == (expected is None), succ
            if got is None:
                accepted += 1
            else:
                assert_real_violation(succ, got)
        assert accepted == posets  # the labeled poset counts

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 70),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.integers(1, 2),
        st.randoms(use_true_random=False),
    )
    def test_flipped_posets_agree_with_oracle(self, n, prob, seed, flips, rng):
        succ = list(random_poset(n, prob ** 2, seed).succ)
        for _ in range(flips if n else 0):
            succ[rng.randrange(n)] ^= 1 << rng.randrange(n)
        succ = tuple(succ)
        expected = rejection(validate_pairwise, n, succ)
        got = rejection(Poset, n, succ)
        assert (got is None) == (expected is None)
        if got is not None:
            assert_real_violation(succ, got)

    def test_rejects_out_of_range_rows(self):
        for succ in ((0b100, 0), (-1, 0)):
            assert rejection(Poset, 2, succ) == rejection(validate_pairwise, 2, succ)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 70),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.lists(st.sampled_from(("negative", "outside", "reflexive")), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_bad_rows_named_like_the_row_loop(self, n, prob, seed, faults, rng):
        # Poset accepts the rows with min, max and one map; the row loop it
        # bypasses names the first row out of range or holding its own bit
        succ = list(random_poset(n, prob ** 2, seed).succ)
        spoiled = set()
        for fault in faults:
            u = rng.choice((0, n - 1, rng.randrange(n)))
            if fault == "negative":
                succ[u] = -1 - rng.getrandbits(n + 1)
            elif fault == "outside":
                succ[u] |= 1 << (n + rng.randrange(3))
            else:
                succ[u] |= 1 << u
            spoiled.add(u)
        # the rows left alone are in range and irreflexive; a row given
        # two faults fails the range test first
        first = min(spoiled)
        if 0 <= succ[first] < 1 << n:
            expected = f"irreflexivity violated at element {first}"
        else:
            expected = f"row {first} mentions elements outside range"
        assert rejection(Poset, n, tuple(succ)) == expected
        assert rejection(validate_pairwise, n, tuple(succ)) is not None


class TestCovers:
    @pytest.mark.parametrize("n, prob", [(200, 0.3), (600, 3 / 600), (300, 0.05)])
    def test_benchmark_shapes(self, n, prob):
        p = random_poset(n, prob, 3)
        assert p.covers == covers_reference(p)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 70), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_equals_reference(self, n, prob, seed):
        p = random_poset(n, prob ** 2, seed)
        assert p.covers == covers_reference(p)
