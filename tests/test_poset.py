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
from posetcube.poset import _SLICE, MAX_ELEMENTS, Embedding, folklore_embed
from helpers import (
    check_embedding_naive,
    enumerate_posets,
    enumerate_posets_filter,
    max_antichain_bruteforce,
    parse_poset_reference,
)

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

    @pytest.mark.parametrize(
        "head, bad, tail",
        [
            ("3\n", "0 < " + "9" * 5000, ""),
            ("3\n0 < 1\n", "0" * 5000 + "2 < 1", ""),  # leading zeros count too
            ("3\n", "1 < " + "9" * 5000, "0 <\n"),  # the first bad line is named
        ],
        ids=["pair", "leading-zeros", "before-a-malformed-line"],
    )
    def test_number_over_the_int_digit_limit_names_its_line(self, head, bad, tail):
        # int() refuses strings over 4300 digits with a bare ValueError
        text = head + bad + "\n" + tail
        expected = f"number too long in line starting {bad[:40]!r}"
        for parse in (parse_poset, parse_poset_reference):
            with pytest.raises(FormatError) as info:
                parse(text)
            assert str(info.value) == expected


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


class TestAsciiNumbers:
    """Counts, pairs and indices are ASCII digits; int() alone takes much more."""

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_poset, "+3\n", "expected element count on first line, got '+3'"),
            (parse_poset, "1_0\n", "expected element count on first line, got '1_0'"),
            (parse_poset, "٣\n", "expected element count on first line, got '٣'"),
            (parse_poset, " ٣ \n", "expected element count on first line, got '٣'"),
            (parse_poset, "３\n", "expected element count on first line, got '３'"),
            (parse_poset, "2\n٠ < ١\n", "expected 'u < v', got '٠ < ١'"),
            (parse_poset, "2\n0 < ١\n", "expected 'u < v', got '0 < ١'"),
            (parse_poset, "2\n0 < 1\n", "expected 'u < v', got '0\\u2003< 1'"),
            (parse_poset, "2\n0 <\xa01\n", "expected 'u < v', got '0 <\\xa01'"),
            (parse_poset, "2\n+0 < 1\n", "expected 'u < v', got '+0 < 1'"),
            (parse_embedding, "n=٢ m=٢\n0: 1\n1: 2\n", "bad embedding header 'n=٢ m=٢'"),
            (parse_embedding, "n=1 m=1\n٠: 1\n", "expected image line for element 0, got '٠: 1'"),
            (parse_embedding, "n=1 m=1\n0: 1\n", "bad embedding header 'n=1\\u2003m=1'"),
            (parse_family, "m=٢ count=1\n1\n", "bad family header 'm=٢ count=1'"),
            (parse_family, "m=2 count=+1\n1\n", "bad family header 'm=2 count=+1'"),
            (parse_family, "m=1_0 count=1\n1\n", "bad family header 'm=1_0 count=1'"),
        ],
    )
    def test_non_ascii_or_signed_numbers_rejected(self, parse, text, message):
        with pytest.raises(FormatError) as info:
            parse(text)
        assert str(info.value) == message
        if parse is parse_poset:
            with pytest.raises(FormatError) as info:
                parse_poset_reference(text)
            assert str(info.value) == message

    def test_leading_zeros_still_read(self):
        assert parse_poset("003\n00 < 01\n") == Poset.from_relations(3, [(0, 1)])
        assert parse_embedding("n=02 m=2\n00: 1\n01: 1,2\n").masks == (0b01, 0b11)
        assert parse_family("m=02 count=01\n1\n").masks == (0b01,)


class TestCanonicalSets:
    """A ground set parses only in the exact form masks_to_text writes."""

    NOT_CANONICAL = ["1_0", "+3", "03", "1, 3", "1 ,3", "\u0663", "2,1", "1,1", "3,3,10"]

    @pytest.mark.parametrize("text", NOT_CANONICAL)
    def test_rejected_by_every_parser(self, text):
        with pytest.raises(FormatError):
            parse_embedding(f"n=1 m=12\n0: {text}\n")
        with pytest.raises(FormatError):
            parse_family(f"m=12 count=1\n{text}\n")
        with pytest.raises(FormatError):
            SubsetMask.parse(12, text)

    def test_rewritten_order_is_named(self):
        with pytest.raises(FormatError, match="'2,1' is not written as '1,2'"):
            parse_embedding("n=1 m=2\n0: 2,1\n")

    def test_canonical_text_still_parses(self):
        assert parse_embedding("n=2 m=12\n0: -\n1: 1,3,10,12\n").masks == (0, 0b101000000101)
        assert parse_family("m=12 count=2\n-\n10\n").masks == (0, 1 << 9)
        assert SubsetMask.parse(12, "  2,11  ").bits == 0b10000000010

    def test_existing_messages_come_first(self):
        with pytest.raises(FormatError, match="bad ground element 'x'"):
            SubsetMask.parse(4, "2,1,x")
        with pytest.raises(FormatError, match=r"ground element 13 outside \[12\]"):
            SubsetMask.parse(12, "13,1")

    # two bad sets, on the second and third line of a body: whatever their
    # errors, the one on the earlier line is named
    FIRST_BAD_SET = {
        "canonical-then-element": ("2,1", "1,x", "ground set '2,1' is not written as '1,2'"),
        "element-then-canonical": ("1,x", "2,1", "bad ground element 'x'"),
        "canonical-then-range": ("2,1", "13", "ground set '2,1' is not written as '1,2'"),
        "range-then-canonical": ("13", "2,1", "ground element 13 outside [12]"),
    }

    @pytest.mark.parametrize("case", list(FIRST_BAD_SET.values()), ids=list(FIRST_BAD_SET))
    def test_first_bad_set_is_named(self, case):
        first, later, message = case
        for parse, text in [
            (parse_embedding, f"n=3 m=12\n0: 1\n1: {first}\n2: {later}\n"),
            (parse_family, f"m=12 count=3\n1\n{first}\n{later}\n"),
        ]:
            with pytest.raises(FormatError) as info:
                parse(text)
            assert str(info.value) == message

    @pytest.mark.parametrize("case", list(FIRST_BAD_SET.values()), ids=list(FIRST_BAD_SET))
    @pytest.mark.parametrize(
        "where", [(0, 2 * _SLICE), (_SLICE - 1, _SLICE), (_SLICE, 2 * _SLICE - 1), (2 * _SLICE - 1, 2 * _SLICE)]
    )
    def test_first_bad_set_is_named_across_slices(self, case, where):
        # canonical form is checked one slice of _SLICE lines at a time
        first, later, message = case
        sets = ["1"] * (2 * _SLICE + 3)
        sets[where[0]], sets[where[1]] = first, later
        for parse, text in [
            (parse_embedding, f"n={len(sets)} m=12\n" + "".join(f"{j}: {s}\n" for j, s in enumerate(sets))),
            (parse_family, f"m=12 count={len(sets)}\n" + "".join(f"{s}\n" for s in sets)),
        ]:
            with pytest.raises(FormatError) as info:
                parse(text)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0: 2,1\n1: 1\nx: 1\n", "ground set '2,1' is not written as '1,2'"),
            ("0: 2,1\n5: 1\n2: 1\n", "ground set '2,1' is not written as '1,2'"),
            ("0: 1,x\n" + "9" * 5000 + ": 1\n2: 1\n", "bad ground element 'x'"),
            ("0: 1\nx: 1\n2: 2,1\n", "expected image line for element 1, got 'x: 1'"),
            ("0: 1\n5: 1\n2: 1,x\n", "expected image line for element 1, got '5: 1'"),
        ],
        ids=["set-then-line", "set-then-index", "set-then-long-index", "line-then-set", "index-then-set"],
    )
    def test_first_bad_image_line_is_named(self, body, message):
        with pytest.raises(FormatError) as info:
            parse_embedding(f"n=3 m=12\n{body}")
        assert str(info.value) == message


# A message that quotes an input line quotes at most its first 40
# characters: (parse, text around {line}, the message around the quote, a
# line of at most 40 characters, a hostile one)
QUOTED_LINES = {
    "poset-count": (
        parse_poset, "{line}\n", "expected element count on first line, got {quote}", "two", "9" * 5000
    ),
    "poset-pair": (
        parse_poset, "3\n{line}\n", "expected 'u < v', got {quote}", "0 < x", "0 < 1 " + "x" * 10**6
    ),
    "embedding-header": (
        parse_embedding, "{line}\n", "bad embedding header {quote}", "n=1 m=two", "n=1 " + "m" * 10**6
    ),
    "image-line": (
        parse_embedding,
        "n=1 m=2\n{line}\n",
        "expected image line for element 0, got {quote}",
        "zero: 1",
        "zero: " + "1," * 500_000,
    ),
    "family-header": (
        parse_family, "{line}\n", "bad family header {quote}", "m=2", "m=2 count=1 " + "x" * 10**6
    ),
    "family-header-count": (
        parse_family, "{line}\n", "bad family header {quote}", "m=2 count=x", "m=" + "9" * 5000 + " count=1"
    ),
    "ground-element": (
        lambda text: SubsetMask.parse(12, text), "1,{line}", "bad ground element {quote}", "x", "x" * 10**6
    ),
    "not-canonical": (
        lambda text: SubsetMask.parse(2, text),
        "{line}",
        "ground set {quote} is not written as '1,2'",
        "2,1",
        "2,1" + ",2,1" * 250_000,
    ),
}


class TestQuotedLines:
    @pytest.mark.parametrize("case", list(QUOTED_LINES.values()), ids=list(QUOTED_LINES))
    def test_short_line_quoted_whole(self, case):
        parse, text, message, short, _ = case
        assert len(short) <= 40
        with pytest.raises(FormatError) as info:
            parse(text.format(line=short))
        assert str(info.value) == message.format(quote=repr(short))

    @pytest.mark.parametrize("case", list(QUOTED_LINES.values()), ids=list(QUOTED_LINES))
    def test_hostile_line_quoted_to_forty_characters(self, case):
        parse, text, message, _, hostile = case
        with pytest.raises(FormatError) as info:
            parse(text.format(line=hostile))
        assert str(info.value) == message.format(quote=repr(hostile[:40]))
        assert len(str(info.value)) < 120


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
