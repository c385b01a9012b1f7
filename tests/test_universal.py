"""Family assembly, dispatching embeddings, counting, and the stats formats."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetcube.chainfamily
import posetcube.universal
from posetcube import (
    FormatError,
    MemoryLimitError,
    Poset,
    SizeMismatchError,
    SubsetMask,
    build_universal,
    cardinality,
    check_embedding,
    embed,
    embed_with_branch,
    membership,
    parse_embedding,
    random_poset,
    size_bound,
    write_embedding,
)
from posetcube.antichain import min_ell
from posetcube.chainfamily import chain_family, partition_count, partitions
from posetcube.poset import Embedding, folklore_embed
from posetcube.universal import BRANCH_ANTICHAIN, BRANCH_CHAIN, BRANCH_FOLKLORE
from helpers import cardinality_materialized, enumerate_posets, fence_poset, naive_chain_family


class TestBuildUniversal:
    def test_small_n_degrades_to_full_lattice(self):
        u = build_universal(3)
        assert (u.a, u.m) == (1, 3)
        assert cardinality(u) == 8
        assert all(membership(u, SubsetMask(3, bits)) for bits in range(8))

    def test_n_six_is_still_everything(self):
        u = build_universal(6)
        assert (u.a, u.ell, u.m) == (2, 2, 6)
        assert cardinality(u) == 64

    def test_n_fifteen_shrinks(self):
        u = build_universal(15)
        assert (u.a, u.ell, u.m) == (5, 4, 14)
        assert cardinality(u) == 19476 < 2**15

    def test_budget_override(self):
        u = build_universal(12, a=6)
        assert u.a == 6 and u.ell == 4 and u.m == 10

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_universal(0)
        with pytest.raises(ValueError):
            build_universal(5, a=6)

    def test_tiny_cap_goes_predicate_only(self):
        # the family holds only its parameters, so a cap too small to count
        # it still leaves membership and embedding working
        u = build_universal(9)
        assert u.__slots__ == ("n", "a", "ell", "m")
        assert repr(u) == f"UniversalFamily(n=9, a={u.a}, ell={u.ell}, m={u.m})"
        with pytest.raises(MemoryLimitError):
            chain_family(9, u.a, max_sets=3)
        assert membership(u, SubsetMask(9, (1 << 9) - 1))
        emb = embed(u, random_poset(9, 0.3, 1))
        assert all(membership(u, SubsetMask(9, bits)) for bits in emb.masks)


class TestMembership:
    def test_empty_and_full_always_in(self):
        for n in [1, 2, 5, 11]:
            u = build_universal(n)
            assert membership(u, SubsetMask(n, 0))
            assert membership(u, SubsetMask(n, (1 << n) - 1))

    def test_matches_union_of_parts(self):
        # every budget for n <= 10, and the default budget at n = 12
        cases = [(n, a) for n in range(1, 11) for a in range(1, n + 1)] + [(12, None)]
        for n, a in cases:
            u = build_universal(n, a)
            explicit = set(chain_family(n, u.a).masks)
            for bits in range(1 << n):
                expected = bits >> u.m == 0 or bits in explicit
                assert membership(u, SubsetMask(n, bits)) == expected, (n, u.a, bits)

    def test_predicate_only_agrees_with_materialized(self):
        # against a family materialized by filtering all 2^n subsets with the
        # set-based prefix test, sharing no code with the partition scan
        u = build_universal(10)
        lattice = set(range(1 << u.m))
        fat = lattice | naive_chain_family(10, u.a, list(partitions(10, u.a)))
        for bits in range(1 << 10):
            assert membership(u, SubsetMask(10, bits)) == (bits in fat), bits

    def test_ground_set_mismatch(self):
        with pytest.raises(SizeMismatchError):
            membership(build_universal(5), SubsetMask(4, 0))


class TestCardinality:
    def test_one_element(self):
        assert cardinality(build_universal(1)) == 2

    def test_counts_without_materializing(self, monkeypatch):
        u = build_universal(9)
        expected = cardinality_materialized(u)

        def refuse(*args, **kwargs):
            raise AssertionError("cardinality materialized the chain family")

        monkeypatch.setattr(posetcube.chainfamily, "chain_family", refuse)
        monkeypatch.setattr(posetcube.universal, "chain_family", refuse, raising=False)
        assert cardinality(u) == expected

    def test_matches_the_materialized_count(self):
        for n in range(1, 15):
            for a in range(1, n + 1):
                u = build_universal(n, a)
                assert cardinality(u) == cardinality_materialized(u), (n, a)


class TestSizeBound:
    def test_three(self):
        # the default a is 1 at n=3, so the lattice part is all of 2^[3]
        assert size_bound(3) == partition_count(3) * 1 * 4 + 2**3 == 20

    def test_chain_term_dominates_at_thirty(self):
        n, a = 30, 10
        chain_term = partition_count(n) * a * (-(-n // a) + 1) ** a
        lattice_term = 1 << (n - a + min_ell(a))
        assert chain_term > lattice_term
        assert size_bound(30) == chain_term + lattice_term

    def test_cardinality_within_bound(self):
        for n in range(1, 41):
            for a in range(1, n + 1):
                assert cardinality(build_universal(n, a)) <= size_bound(n, a), (n, a)


class TestEmbed:
    def test_chain_goes_through_chain_cover(self):
        p = Poset.chain(6)
        emb, branch = embed_with_branch(build_universal(6), p)
        assert branch == BRANCH_CHAIN
        assert list(emb.masks) == [0b000001, 0b000011, 0b000111, 0b001111, 0b011111, 0b111111]

    def test_antichain_goes_through_labels(self):
        u = build_universal(6)
        emb, branch = embed_with_branch(u, Poset.antichain(6))
        assert branch == BRANCH_ANTICHAIN
        assert emb.m == 6
        assert all(bits >> u.m == 0 for bits in emb.masks)

    def test_small_n_goes_through_folklore(self):
        p = Poset.antichain(3)
        u = build_universal(3)
        emb, branch = embed_with_branch(u, p)
        assert branch == BRANCH_FOLKLORE
        assert emb.masks == folklore_embed(p).masks

    def test_exhaustive_n_four_covers_both_branches(self):
        u = build_universal(4)
        branches = set()
        for p in enumerate_posets(4):
            emb, branch = embed_with_branch(u, p)
            branches.add(branch)
            assert all(membership(u, SubsetMask(4, bits)) for bits in emb.masks)
        assert branches == {BRANCH_CHAIN, BRANCH_ANTICHAIN}

    def test_long_augmenting_path(self):
        p = fence_poset(1200)
        u = build_universal(p.n)
        emb, branch = embed_with_branch(u, p)
        assert branch == BRANCH_ANTICHAIN
        assert emb.n == p.n
        assert all(bits >> u.m == 0 for bits in emb.masks)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            embed(build_universal(5), Poset.chain(4))

    def test_deterministic(self):
        p = random_poset(10, 0.3, 5)
        u = build_universal(10)
        assert embed(u, p).masks == embed(u, p).masks

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_random_posets_verified_images_members(self, n, prob, seed):
        p = random_poset(n, prob, seed)
        u = build_universal(n)
        emb = embed(u, p)
        assert emb.m == n
        for bits in emb.masks:
            assert membership(u, SubsetMask(n, bits))


class TestVerifyUniversality:
    def test_two(self):
        # the exhaustive sweep of criterion 1, at n=2
        u = build_universal(2)
        posets = list(enumerate_posets(2))
        results = [embed_with_branch(u, p) for p in posets]
        assert len(posets) == 3
        assert all(check_embedding(p, emb) for p, (emb, _) in zip(posets, results))
        assert Counter(branch for _, branch in results) == {BRANCH_FOLKLORE: 3}


class TestEmbeddingFormat:
    def test_write_layout(self):
        emb = folklore_embed(Poset.chain(2))
        assert write_embedding(emb) == "n=2 m=2\n0: 1\n1: 1,2\n"

    def test_empty_image_dash(self):
        emb = Embedding(3, (0, 0b101))
        assert write_embedding(emb) == "n=2 m=3\n0: -\n1: 1,3\n"

    def test_round_trip(self):
        for seed in range(20):
            p = random_poset(7, 0.4, seed)
            emb = embed(build_universal(7), p)
            text = write_embedding(emb)
            again = parse_embedding(text)
            assert again == emb
            assert write_embedding(again) == text

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_embedding("n=2\n0: 1\n1: 2\n")

    def test_wrong_image_count(self):
        with pytest.raises(FormatError):
            parse_embedding("n=3 m=2\n0: 1\n1: 2\n")

    def test_wrong_element_index(self):
        with pytest.raises(FormatError):
            parse_embedding("n=2 m=2\n0: 1\n2: 2\n")

    def test_element_outside_ground_set(self):
        with pytest.raises(FormatError):
            parse_embedding("n=1 m=2\n0: 3\n")
