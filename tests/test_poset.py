"""Core poset type, embeddings, enumeration, and the text format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcube import (
    CycleError,
    FormatError,
    LimitError,
    Poset,
    SizeMismatchError,
    SubsetMask,
    check_embedding,
    parse_embedding,
    parse_family,
    parse_poset,
    random_poset,
    write_poset,
)
from posetcube.poset import MAX_ELEMENTS, Embedding, enumerate_posets, folklore_embed
from helpers import check_embedding_naive, enumerate_posets_filter, max_antichain_bruteforce

V_POSET = Poset.from_relations(4, [(0, 1), (0, 2), (1, 3)])
PQ_R = Poset.from_relations(3, [(0, 1)])  # p below q, r isolated


def images_of(emb: Embedding) -> list[tuple[int, ...]]:
    return [SubsetMask(emb.m, bits).elements() for bits in emb.masks]


class TestConstruction:
    def test_from_relations_closes_transitively(self):
        p = Poset.from_relations(3, [(0, 1), (1, 2)])
        assert p.less(0, 2)
        assert p.succ == (0b110, 0b100, 0b000)

    def test_empty_relation_is_antichain(self):
        p = Poset.from_relations(2, [])
        assert p.succ == (0, 0)

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset.from_relations(2, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            Poset.from_relations(1, [(0, 0)])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset.from_relations(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_duplicate_pairs_tolerated(self):
        p = Poset.from_relations(2, [(0, 1), (0, 1), (0, 1)])
        assert p.less(0, 1)

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            Poset.from_relations(2, [(0, 2)])

    def test_reflexive_matrix_rejected(self):
        with pytest.raises(ValueError):
            Poset(1, (0b1,))

    def test_antisymmetry_violation_rejected(self):
        with pytest.raises(ValueError):
            Poset(2, (0b10, 0b01))

    def test_unclosed_matrix_rejected(self):
        with pytest.raises(ValueError):
            Poset(3, (0b010, 0b100, 0b000))

    def test_pred_transposes_succ(self):
        assert V_POSET.pred == (0b0000, 0b0001, 0b0001, 0b0011)

    def test_covers_drop_implied_arcs(self):
        p = Poset.from_relations(3, [(0, 1), (1, 2), (0, 2)])
        assert p.covers == (0b010, 0b100, 0b000)


class TestLeq:
    def test_chain_transitive(self):
        assert Poset.chain(3).leq(0, 2)

    def test_reflexive(self):
        assert PQ_R.leq(1, 1)

    def test_antichain_incomparable(self):
        assert not Poset.antichain(2).leq(0, 1)


class TestFolkloreEmbed:
    def test_three_chain(self):
        assert images_of(folklore_embed(Poset.chain(3))) == [(1,), (1, 2), (1, 2, 3)]

    def test_antichain_singletons(self):
        assert images_of(folklore_embed(Poset.antichain(4))) == [(1,), (2,), (3,), (4,)]

    def test_isolated_element(self):
        assert images_of(folklore_embed(PQ_R)) == [(1,), (1, 2), (3,)]

    def test_exhaustive_up_to_four(self):
        for n in range(1, 5):
            for p in enumerate_posets(n):
                assert check_embedding(p, folklore_embed(p))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_random_posets(self, n, prob, seed):
        p = random_poset(n, prob, seed)
        assert check_embedding(p, folklore_embed(p))


class TestCheckEmbedding:
    def test_accepts_folklore_chain(self):
        p = Poset.chain(3)
        assert check_embedding(p, folklore_embed(p)).ok

    def test_fake_comparability_detected(self):
        verdict = check_embedding(Poset.antichain(2), Embedding(2, (0b01, 0b11)))
        assert not verdict.ok
        assert verdict.witness == (0, 1)

    def test_missing_containment_detected(self):
        verdict = check_embedding(Poset.chain(2), Embedding(2, (0b01, 0b10)))
        assert not verdict.ok
        assert verdict.witness == (0, 1)

    def test_duplicate_images_detected(self):
        verdict = check_embedding(Poset.antichain(2), Embedding(3, (0b1, 0b1)))
        assert not verdict.ok

    def test_image_count_mismatch(self):
        with pytest.raises(SizeMismatchError):
            check_embedding(Poset.antichain(2), Embedding(2, (0b1,)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 8),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        st.randoms(use_true_random=False),
    )
    def test_agrees_with_naive_verifier(self, n, prob, seed, rng):
        p = random_poset(n, prob, seed)
        emb = folklore_embed(p)
        if rng.random() < 0.7:
            # corrupt one image to exercise the rejecting paths too
            masks = list(emb.masks)
            j = rng.randrange(n)
            masks[j] ^= 1 << rng.randrange(p.n)
            emb = Embedding(emb.m, tuple(masks))
        assert bool(check_embedding(p, emb)) == check_embedding_naive(p, emb)


class TestEnumerate:
    def test_counts(self):
        assert [sum(1 for _ in enumerate_posets(n)) for n in range(6)] == [
            1, 1, 3, 19, 219, 4231,
        ]

    def test_matches_orientation_filter(self):
        for n in range(1, 5):
            ours = {p.succ for p in enumerate_posets(n)}
            theirs = {p.succ for p in enumerate_posets_filter(n)}
            assert ours == theirs

    def test_cap(self):
        with pytest.raises(LimitError):
            enumerate_posets(7)


class TestRandomPoset:
    def test_zero_probability_gives_antichain(self):
        assert random_poset(6, 0.0, 1).succ == (0,) * 6

    def test_full_probability_gives_chain(self):
        p = random_poset(6, 1.0, 1)
        assert sorted(row.bit_count() for row in p.succ) == [0, 1, 2, 3, 4, 5]

    def test_seed_determinism(self):
        assert random_poset(8, 0.3, 42).succ == random_poset(8, 0.3, 42).succ

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            random_poset(3, 1.5, 0)


class TestBruteForceAntichain:
    def test_chain(self):
        assert len(max_antichain_bruteforce(Poset.chain(6))) == 1

    def test_antichain(self):
        assert max_antichain_bruteforce(Poset.antichain(5)) == frozenset(range(5))

    def test_isolated_element(self):
        assert len(max_antichain_bruteforce(PQ_R)) == 2

    def test_result_is_antichain(self):
        p = random_poset(12, 0.25, 7)
        best = max_antichain_bruteforce(p)
        assert all(
            not p.leq(u, v) for u in best for v in best if u != v
        )

    def test_cap(self):
        with pytest.raises(LimitError):
            max_antichain_bruteforce(Poset.antichain(21))


class TestPosetFormat:
    def test_write_emits_covers_only(self):
        p = Poset.from_relations(3, [(0, 1), (1, 2), (0, 2)])
        assert write_poset(p) == "3\n0 < 1\n1 < 2\n"

    def test_parse_with_comments_and_blanks(self):
        p = parse_poset("# header\n3\n\n0 < 1  # inline\n1 < 2\n")
        assert p.less(0, 2)

    def test_round_trip(self):
        for seed in range(20):
            p = random_poset(9, 0.3, seed)
            text = write_poset(p)
            assert parse_poset(text).succ == p.succ
            assert write_poset(parse_poset(text)) == text

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError):
            parse_poset("# nothing\n")

    def test_bad_pair_line_rejected(self):
        with pytest.raises(FormatError):
            parse_poset("2\n0 << 1\n")

    def test_bad_count_rejected(self):
        with pytest.raises(FormatError):
            parse_poset("two\n")

    def test_out_of_range_element_rejected(self):
        with pytest.raises(FormatError):
            parse_poset("2\n0 < 5\n")

    def test_cycle_in_file(self):
        with pytest.raises(CycleError):
            parse_poset("2\n0 < 1\n1 < 0\n")


class TestHeaderBound:
    """Every parser rejects a header above MAX_ELEMENTS before allocating."""

    def test_largest_allowed_header_parses(self):
        top = MAX_ELEMENTS
        assert parse_poset(f"{top}\n").succ == (0,) * top
        assert parse_embedding(f"n=1 m={top}\n0: {top}\n").masks == (1 << (top - 1),)
        assert parse_family(f"m={top} count=1\n{top}\n").masks == (1 << (top - 1),)

    @pytest.mark.parametrize("big", [MAX_ELEMENTS + 1, 10**9])
    def test_larger_header_rejected(self, big):
        with pytest.raises(FormatError, match=str(MAX_ELEMENTS)):
            parse_poset(f"{big}\n")
        with pytest.raises(FormatError, match=str(MAX_ELEMENTS)):
            parse_embedding(f"n=1 m={big}\n0: {big}\n")
        with pytest.raises(FormatError, match=str(MAX_ELEMENTS)):
            parse_embedding(f"n={big} m=1\n0: 1\n")
        with pytest.raises(FormatError, match=str(MAX_ELEMENTS)):
            parse_family(f"m={big} count=1\n{big}\n")


class TestSubsetMask:
    def test_elements_are_one_indexed(self):
        assert SubsetMask(5, 0b10011).elements() == (1, 2, 5)

    def test_from_elements(self):
        assert SubsetMask.from_elements(4, [3, 1]).bits == 0b101

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SubsetMask(3, 0b1000)
        with pytest.raises(ValueError):
            SubsetMask.from_elements(3, [4])

    def test_parse_and_str_round_trip(self):
        for text in ["-", "1", "1,3,4"]:
            assert str(SubsetMask.parse(4, text)) == text

    def test_containment_and_len(self):
        s = SubsetMask(4, 0b0101)
        assert 1 in s and 3 in s and 2 not in s
        assert len(s) == 2
        assert s.issubset(SubsetMask(4, 0b1101))
        assert not SubsetMask(4, 0b1101).issubset(s)
