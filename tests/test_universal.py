"""Family assembly, dispatching embeddings, counting, and the stats formats."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetcube.chainfamily
import posetcube.dilworth
import posetcube.poset
import posetcube.universal
from posetcube import (
    FormatError,
    MemoryLimitError,
    Poset,
    SizeMismatchError,
    SubsetMask,
    VerificationError,
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
from posetcube.antichain import embed_with_antichain, min_ell
from posetcube.chainfamily import (
    chain_family,
    embed_bounded_antichain,
    is_cell_prefix_union,
    partition_count,
    partitions,
)
from posetcube.dilworth import (
    ChainDecomposition,
    _alternating_bfs,
    _hopcroft_karp,
    min_chain_decomposition,
)
from posetcube.poset import Embedding, folklore_embed
from posetcube.universal import (
    BRANCH_ANTICHAIN,
    BRANCH_CHAIN,
    BRANCH_FOLKLORE,
    _chain_escape,
    _verify,
)
from helpers import (
    cardinality_materialized,
    cover_antichain_reference,
    enumerate_posets,
    fence_poset,
    naive_chain_family,
)


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


@contextmanager
def counting():
    """Mocks that wrap the label construction, ChainDecomposition and the
    alternating BFS, counting their calls inside the block."""
    with (
        mock.patch.object(
            posetcube.universal, "embed_with_antichain", wraps=embed_with_antichain
        ) as labels,
        mock.patch.object(posetcube.dilworth, "ChainDecomposition", wraps=ChainDecomposition) as covers,
        mock.patch.object(posetcube.dilworth, "_alternating_bfs", wraps=_alternating_bfs) as bfs,
    ):
        yield labels, covers, bfs


class TestOneMatching:
    """embed_with_branch reads its branch off one matching: a narrow poset
    gets its one minimum chain cover, a wide one the least a elements of
    the antichain that the old second BFS over the chains gave
    (helpers.cover_antichain_reference), with no chains and no BFS beyond
    the matching's own."""

    @staticmethod
    def assert_one_matching(counters, p: Poset, a: int) -> str:
        labels, covers, bfs = counters
        dec = min_chain_decomposition(p)
        expected = tuple(sorted(cover_antichain_reference(p, dec.chains)))[:a]
        bfs.reset_mock()
        _hopcroft_karp(p.n, p.succ)
        matching_runs = bfs.call_count
        for counter in counters:
            counter.reset_mock()
        branch = embed_with_branch(build_universal(p.n, a), p)[1]
        chosen = labels.call_args.args[1] if labels.called else None
        if dec.width <= a:
            assert (branch, chosen, covers.call_count) == (BRANCH_CHAIN, None, 1)
        else:
            assert (branch, chosen, covers.call_count) == (BRANCH_ANTICHAIN, expected, 0)
        assert bfs.call_count == matching_runs
        return branch

    def test_every_poset_up_to_five(self):
        with counting() as counters:
            for n in range(2, 6):
                for p in enumerate_posets(n):
                    for a in range(2, n + 1):
                        self.assert_one_matching(counters, p, a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 60), st.floats(0.0, 1.0), st.integers(0, 2**32), st.integers(0, 60))
    def test_random_posets(self, n, prob, seed, a):
        with counting() as counters:
            self.assert_one_matching(counters, random_poset(n, prob, seed), 2 + a % (n - 1))

    @pytest.mark.parametrize(
        "p, branch",
        [
            (random_poset(600, 3 / 600, 1), BRANCH_ANTICHAIN),  # the embed-sparse shape
            (fence_poset(300), BRANCH_ANTICHAIN),  # one augmenting path through everything
            (random_poset(200, 0.3, 1), BRANCH_CHAIN),  # the embed-dense shape
        ],
    )
    def test_benchmark_shapes(self, p, branch):
        with counting() as counters:
            assert self.assert_one_matching(counters, p, build_universal(p.n).a) == branch


class TestBlockPassOnlyForLabels:
    """Chain-cover and folklore certificates pass check_embedding's up-set
    accept, and label certificates its label accept, so they embed with
    the byte-block pass out of reach.  Only a label certificate in which
    one column plays two roles, as can happen for small budgets, is
    declined and goes through the block pass."""

    @pytest.fixture
    def no_block_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("block pass ran")

        monkeypatch.setattr(posetcube.poset, "_containment", refuse)

    @pytest.mark.parametrize(
        "n, prob, seed", [(6, 0.3, 1), (30, 0.5, 2), (200, 0.3, 1), (300, 0.3, 4)]
    )
    def test_chain_cover(self, no_block_pass, n, prob, seed):
        p = random_poset(n, prob, seed)
        assert embed_with_branch(build_universal(n), p)[1] == BRANCH_CHAIN

    def test_every_narrow_poset_of_five(self, no_block_pass):
        u = build_universal(5)
        narrow = [p for p in enumerate_posets(5) if min_chain_decomposition(p).width <= u.a]
        assert {embed_with_branch(u, p)[1] for p in narrow} == {BRANCH_CHAIN}

    def test_folklore(self, no_block_pass):
        for n in (1, 2, 3):
            for p in enumerate_posets(n):
                assert embed_with_branch(build_universal(n), p)[1] == BRANCH_FOLKLORE
        for n, prob, seed in [(40, 0.0, 1), (40, 0.2, 2), (100, 0.05, 3)]:
            p = random_poset(n, prob, seed)
            assert embed_with_branch(build_universal(n, 1), p)[1] == BRANCH_FOLKLORE

    @pytest.mark.parametrize(
        "p, a",
        [
            # a = 4: the label column of bit 0 is Y without the third
            # antichain element, so that element fits Z and is moved to L
            (Poset.antichain(12), None),
            (Poset.antichain(15), None),  # a = 5, the least budget with ell = 4
            (Poset.antichain(40), 7),  # ell = 5, and one label holds the top bit
            (random_poset(60, 0.05, 3), 5),
            (random_poset(600, 3 / 600, 1), None),  # the embed-sparse shape, a = 200
            (random_poset(300, 0.01, 2), 30),
        ],
    )
    def test_labels(self, no_block_pass, p, a):
        assert embed_with_branch(build_universal(p.n, a), p)[1] == BRANCH_ANTICHAIN

    def test_labels_reach_the_block_pass(self, no_block_pass):
        # 1 < 0 and 2 < 0, with 3 apart, at a = 2: the antichain {1, 2}
        # leaves 0 and 3 above, and the column of 0 (everything not at or
        # under 0) is {3}, the up-set of 3.  So 3 looks principal, the
        # label columns that hold it leave Y, and the accept declines
        p = Poset.from_relations(4, [(1, 0), (2, 0)])
        with pytest.raises(AssertionError, match="block pass ran"):
            embed_with_branch(build_universal(4, 2), p)


def swap_positions(emb: Embedding, i: int, k: int) -> Embedding:
    """emb with ground positions i and k exchanged in every image.

    Renaming ground positions keeps every containment, so the result is
    exactly as order-faithful as emb.
    """
    swapped = []
    for bits in emb.masks:
        if (bits >> i ^ bits >> k) & 1:
            bits ^= 1 << i | 1 << k
        swapped.append(bits)
    return Embedding(emb.m, tuple(swapped))


class TestVerifyWitnesses:
    """_verify's membership witnesses reject order-faithful non-members."""

    @pytest.mark.parametrize("seed", range(5))
    def test_swap_inside_a_chain_cell_escapes(self, seed):
        p = random_poset(30, 0.3, seed)
        u = build_universal(p.n)
        emb, branch = embed_with_branch(u, p)
        assert branch == BRANCH_CHAIN
        dec = min_chain_decomposition(p)
        lo = 0
        for length in dec.lengths:
            if length >= 2:
                swapped = swap_positions(emb, lo, lo + 1)
                assert check_embedding(p, swapped).ok
                # images holding lo but not lo + 1 now start their cell late
                j = next(j for j, bits in enumerate(emb.masks) if (bits >> lo) & 3 == 1)
                with pytest.raises(VerificationError) as info:
                    _verify(u, p, swapped, BRANCH_CHAIN, dec)
                assert str(info.value) == f"image of element {j} escapes the chain family"
            lo += length

    @pytest.mark.parametrize("seed", range(5))
    def test_moving_a_position_above_m_escapes(self, seed):
        p = random_poset(60, 3 / 60, seed)
        u = build_universal(p.n)
        emb, branch = embed_with_branch(u, p)
        assert branch == BRANCH_ANTICHAIN and u.m < p.n
        used = 0
        for bits in emb.masks:
            used |= bits
        for i in (0, u.m // 2, u.m - 1):
            assert (used >> i) & 1
            for k in (u.m, p.n - 1):
                swapped = swap_positions(emb, i, k)
                assert check_embedding(p, swapped).ok
                j = next(j for j, bits in enumerate(emb.masks) if (bits >> i) & 1)
                with pytest.raises(VerificationError) as info:
                    _verify(u, p, swapped, BRANCH_ANTICHAIN, None)
                assert str(info.value) == f"image of element {j} escapes the lattice part"

    def test_cover_listed_shortest_first_is_no_partition(self):
        # the cells follow the reversed chains, so the embedding is
        # order-faithful, but its cover's lengths are not weakly decreasing
        p = random_poset(30, 0.3, 0)
        u = build_universal(p.n)
        dec = min_chain_decomposition(p)
        shortest_first = ChainDecomposition(p, dec.chains[::-1])
        assert shortest_first.lengths == (5, 6, 8, 11)
        emb = embed_bounded_antichain(p, u.a, shortest_first)
        assert check_embedding(p, emb).ok
        with pytest.raises(VerificationError) as info:
            _verify(u, p, emb, BRANCH_CHAIN, shortest_first)
        assert str(info.value) == (
            "chain cover (5, 6, 8, 11) is no partition of 30 into at most 10 parts"
        )

    def test_cover_wider_than_the_budget_is_no_partition(self):
        p = random_poset(30, 0.3, 0)
        u = build_universal(p.n)
        singletons = ChainDecomposition(p, tuple((v,) for v in range(p.n)))
        emb = embed_bounded_antichain(p, p.n, singletons)
        assert check_embedding(p, emb).ok and u.a < p.n
        with pytest.raises(VerificationError) as info:
            _verify(u, p, emb, BRANCH_CHAIN, singletons)
        assert str(info.value) == (
            f"chain cover {(1,) * p.n} is no partition of 30 into at most {u.a} parts"
        )

    def test_chain_escape_equals_is_cell_prefix_union(self):
        for n in range(11):
            masks = tuple(range(1 << n))
            for c in partitions(n, n):
                members = [is_cell_prefix_union(bits, c) for bits in masks]
                for bits, member in zip(masks, members):
                    assert (_chain_escape((bits,), c) is None) == member
                first = members.index(False) if False in members else None
                assert _chain_escape(masks, c) == first


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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n={big} m=2\n", "n={big} m=2"),
            ("n=1 m={big}\n0: 1\n", "n=1 m={big}"),
            ("n=1 m=2\n{big}: 1\n", "{big}: 1"),
        ],
        ids=["element-count", "ground-size", "image-index"],
    )
    def test_number_over_the_int_digit_limit_names_its_line(self, text, line):
        # int() refuses strings over 4300 digits with a bare ValueError
        big = "9" * 5000
        with pytest.raises(FormatError) as info:
            parse_embedding(text.format(big=big))
        assert str(info.value) == f"number too long in line starting {line.format(big=big)[:40]!r}"
