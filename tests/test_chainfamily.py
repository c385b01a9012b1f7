"""Partition engine, per-cell prefix families, and the chain-cover embedding."""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcube import (
    FormatError,
    LimitError,
    MemoryLimitError,
    Poset,
    SubsetMask,
    check_embedding,
    parse_family,
    random_poset,
    write_family,
)
from posetcube.chainfamily import (
    SetFamily,
    _family_masks,
    chain_family,
    chain_family_counts,
    embed_bounded_antichain,
    is_cell_prefix_union,
    member_of_chain_family,
    partition_count,
    partitions,
)
from posetcube.dilworth import max_antichain, min_chain_decomposition
from helpers import (
    PartitionSeq,
    enumerate_posets,
    family_for_partition,
    family_masks_product,
    hardy_ramanujan,
    is_prefix_union_naive,
    naive_chain_family,
    partition_count_table,
)


def masks_of(family: SetFamily) -> set[int]:
    return set(family.masks)


class TestPartitions:
    def test_four_into_two(self):
        assert list(partitions(4, 2)) == [(4,), (3, 1), (2, 2)]

    def test_single_part(self):
        assert list(partitions(9, 1)) == [(9,)]

    def test_five_unrestricted(self):
        assert sum(1 for _ in partitions(5, 5)) == 7

    def test_zero(self):
        assert list(partitions(0, 0)) == [()]

    def test_reverse_lexicographic_order(self):
        for n, k in [(8, 8), (10, 4), (12, 3)]:
            seen = list(partitions(n, k))
            assert seen == sorted(seen, reverse=True)
            assert len(seen) == len(set(seen))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 18), st.integers(1, 18))
    def test_stream_against_count_table(self, n, max_parts):
        max_parts = min(max_parts, n)
        listed = list(partitions(n, max_parts))
        assert len(listed) == partition_count_table(n, max_parts)
        for c in listed:
            assert sum(c) == n and len(c) <= max_parts
            assert all(a >= b for a, b in zip(c, c[1:]))
            assert all(part >= 1 for part in c)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            partitions(5, 0)
        with pytest.raises(ValueError):
            partitions(5, 6)

    def test_every_streamed_tuple_is_a_partition_seq(self):
        # the stream checks none of the tuples it yields; PartitionSeq checks
        # each one, for every n <= 16 and every valid budget
        for n in range(17):
            for max_parts in range(0 if n == 0 else 1, n + 1):
                listed = list(partitions(n, max_parts))
                assert len(listed) == partition_count_table(n, max_parts), (n, max_parts)
                for parts in listed:
                    assert type(parts) is tuple
                    c = PartitionSeq(parts)
                    assert c.n == n and c.k <= max_parts, (n, max_parts, parts)

    def test_partition_seq_validation(self):
        with pytest.raises(ValueError):
            PartitionSeq((1, 2))
        with pytest.raises(ValueError):
            PartitionSeq((2, 0))


class TestPartitionCount:
    def test_small_values(self):
        assert [partition_count(n) for n in range(11)] == [
            1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
        ]

    def test_fifty(self):
        assert partition_count(50) == 204226

    def test_matches_stream(self):
        for n in range(1, 21):
            assert partition_count(n) == sum(1 for _ in partitions(n, n))


class TestHardyRamanujan:
    def test_value_at_one(self):
        expected = math.exp(math.pi * math.sqrt(2.0 / 3.0)) / (4.0 * math.sqrt(3.0))
        assert hardy_ramanujan(1) == pytest.approx(expected)

    def test_same_order_of_magnitude(self):
        assert 0.5 < partition_count(60) / hardy_ramanujan(60) < 1.0


class TestFamilyForPartition:
    def test_two_by_two_product(self):
        fam = family_for_partition(4, PartitionSeq((2, 2)))
        first = [0b00, 0b01, 0b11]
        second = [0b0000, 0b0100, 0b1100]
        assert masks_of(fam) == {a | b for a in first for b in second}
        assert len(fam) == 9

    def test_single_cell_gives_prefixes(self):
        fam = family_for_partition(5, PartitionSeq((5,)))
        assert list(fam.masks) == [0, 1, 3, 7, 15, 31]

    def test_singleton_cells_give_everything(self):
        fam = family_for_partition(3, PartitionSeq((1, 1, 1)))
        assert list(fam.masks) == list(range(8))

    def test_wrong_sum_rejected(self):
        with pytest.raises(ValueError):
            family_for_partition(5, PartitionSeq((2, 2)))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10**9))
    def test_size_and_prefix_structure(self, n, pick):
        all_parts = list(partitions(n, n))
        c = all_parts[pick % len(all_parts)]
        fam = family_for_partition(n, c)
        expected = math.prod(part + 1 for part in c)
        assert len(fam) == expected
        for s in fam:
            assert is_prefix_union_naive(set(s.elements()), c)

    def test_cell_by_cell_lists_equal_the_product_oracle(self):
        for n in range(13):
            for c in partitions(n, n):
                assert _family_masks(c) == family_masks_product(c), c


class TestChainFamily:
    def test_single_chain_budget(self):
        assert list(chain_family(3, 1).masks) == [0, 1, 3, 7]

    def test_four_two_matches_naive_filter(self):
        fam = chain_family(4, 2)
        naive = naive_chain_family(4, 2, list(partitions(4, 2)))
        assert masks_of(fam) == naive
        assert len(fam) == 12 <= 90

    def test_contains_each_generating_family(self):
        fam = masks_of(chain_family(6, 3))
        for c in partitions(6, 3):
            assert masks_of(family_for_partition(6, c)) <= fam

    def test_matches_naive_filter_medium(self):
        for n, a in [(6, 2), (7, 3), (8, 4), (9, 3)]:
            fam = masks_of(chain_family(n, a))
            assert fam == naive_chain_family(n, a, list(partitions(n, a)))

    def test_cap_trips(self):
        with pytest.raises(MemoryLimitError):
            chain_family(10, 5, max_sets=50)

    def test_hopeless_input_fails_fast(self):
        with pytest.raises(MemoryLimitError):
            chain_family(64, 22)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            chain_family(4, 0)
        with pytest.raises(ValueError):
            chain_family(4, 5)


class TestChainFamilyCounts:
    def test_matches_naive_filter(self):
        # the set-based filter over all 2^n subsets shares no code with the DP
        for n in range(1, 11):
            for a in range(1, n + 1):
                family = naive_chain_family(n, a, list(partitions(n, a)))
                for m in range(n + 1):
                    inside = sum(1 for bits in family if bits >> m == 0)
                    assert chain_family_counts(n, a, m) == (len(family), inside), (n, a, m)

    def test_matches_materialized_family(self):
        for n in range(1, 15):
            for a in range(1, n + 1):
                masks = chain_family(n, a).masks
                for m in range(n + 1):
                    inside = bisect_right(masks, (1 << m) - 1)
                    assert chain_family_counts(n, a, m) == (len(masks), inside), (n, a, m)

    def test_one_chain_gives_the_prefixes(self):
        for n in range(1, 201):
            assert chain_family_counts(n, 1, n // 2) == (n + 1, n // 2 + 1), n

    def test_n_chains_give_every_subset(self):
        for n in range(1, 61):
            assert chain_family_counts(n, n, n // 2) == (2**n, 2 ** (n // 2)), n

    def test_count_never_shrinks_as_the_budget_grows(self):
        for n in range(1, 41):
            counts = [chain_family_counts(n, a, n)[0] for a in range(1, n + 1)]
            assert counts == sorted(counts), n


class TestMemberOfChainFamily:
    def test_empty_set_always_member(self):
        for n, a in [(1, 1), (4, 2), (9, 3), (40, 13)]:
            assert member_of_chain_family(SubsetMask(n, 0), n, a)

    def test_full_set_always_member(self):
        assert member_of_chain_family(SubsetMask(7, 0b1111111), 7, 2)

    def test_singleton_needs_a_cell_start(self):
        # cells sit left to right with weakly decreasing sizes, so no
        # layout of [4] into two cells opens a cell at element 2
        assert not member_of_chain_family(SubsetMask(4, 0b0010), 4, 2)
        assert member_of_chain_family(SubsetMask(4, 0b0010), 4, 4)

    def test_agrees_with_materialized_family(self):
        for n in range(1, 10):
            for a in {1, 2, (n + 2) // 3, n}:
                if not 1 <= a <= n:
                    continue
                fam = masks_of(chain_family(n, a))
                for bits in range(1 << n):
                    assert member_of_chain_family(SubsetMask(n, bits), n, a) == (
                        bits in fam
                    ), (n, a, bits)

    def test_agrees_at_twelve(self):
        fam = masks_of(chain_family(12, 4))
        for bits in range(1 << 12):
            assert member_of_chain_family(SubsetMask(12, bits), 12, 4) == (bits in fam)

    def test_scan_cap(self):
        with pytest.raises(LimitError):
            member_of_chain_family(SubsetMask(41, 0b1), 41, 2)

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            member_of_chain_family(SubsetMask(5, 0), 6, 2)


class TestIsCellPrefixUnion:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 10**9), st.integers(0, 2**10 - 1))
    def test_matches_set_based_check(self, n, pick, bits):
        all_parts = list(partitions(n, n))
        c = all_parts[pick % len(all_parts)]
        bits &= (1 << n) - 1
        elements = set(SubsetMask(n, bits).elements())
        assert is_cell_prefix_union(bits, c) == is_prefix_union_naive(elements, c)


class TestEmbedBoundedAntichain:
    def test_three_chain_single_cell(self):
        emb = embed_bounded_antichain(Poset.chain(3), 1)
        assert list(emb.masks) == [0b001, 0b011, 0b111]

    def test_isolated_element_two_cells(self):
        emb = embed_bounded_antichain(Poset.from_relations(3, [(0, 1)]), 2)
        assert list(emb.masks) == [0b001, 0b011, 0b100]

    def test_antichain_singletons(self):
        emb = embed_bounded_antichain(Poset.antichain(4), 4)
        assert list(emb.masks) == [0b0001, 0b0010, 0b0100, 0b1000]

    def test_width_above_budget_rejected(self):
        with pytest.raises(ValueError, match="width 3 exceeds requested chain count 2"):
            embed_bounded_antichain(Poset.antichain(3), 2)

    def test_given_cover_must_fit(self):
        dec = min_chain_decomposition(Poset.antichain(3))
        with pytest.raises(ValueError):
            embed_bounded_antichain(Poset.antichain(3), 2, dec)
        with pytest.raises(ValueError):
            embed_bounded_antichain(Poset.chain(3), 3, dec)

    def test_exhaustive_small_posets(self):
        for n in range(1, 6):
            for p in enumerate_posets(n):
                width = len(max_antichain(p))
                for a in {width, n}:
                    emb = embed_bounded_antichain(p, a)
                    assert check_embedding(p, emb)
                    for bits in emb.masks:
                        assert member_of_chain_family(SubsetMask(n, bits), n, a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 14), st.floats(0.1, 0.9), st.integers(0, 2**32))
    def test_random_posets(self, n, prob, seed):
        p = random_poset(n, prob, seed)
        a = len(max_antichain(p))
        emb = embed_bounded_antichain(p, a)
        assert emb.m == n
        assert check_embedding(p, emb)
        for bits in emb.masks:
            assert member_of_chain_family(SubsetMask(n, bits), n, a)


class TestFamilyFormat:
    def test_write_layout(self):
        fam = chain_family(3, 1)
        assert write_family(fam) == "m=3 count=4\n-\n1\n1,2\n1,2,3\n"

    def test_round_trip(self):
        for n, a in [(1, 1), (5, 2), (7, 3), (8, 8)]:
            fam = chain_family(n, a)
            text = write_family(fam)
            again = parse_family(text)
            assert again == fam
            assert write_family(again) == text

    def test_count_mismatch_rejected(self):
        with pytest.raises(FormatError):
            parse_family("m=3 count=2\n-\n")

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError):
            parse_family("count=2 m=3\n-\n1\n")

    def test_element_outside_ground_set_rejected(self):
        with pytest.raises(FormatError):
            parse_family("m=3 count=1\n4\n")

    def test_unsorted_masks_rejected(self):
        with pytest.raises(ValueError):
            SetFamily(3, (3, 1))
