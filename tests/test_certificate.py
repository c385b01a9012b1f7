"""Poset.from_relations certifies its closure against the input arcs.

It no longer runs Poset.__init__'s greedy cover picks.  Its result, or
its exception and message, is compared with from_relations_reference
(the reference closure checked by the picks); every wrong closure the
closure code could return must be rejected with VerificationError, which
names the first row whose equation fails; and the picks must still run
for masks given to Poset directly.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posetcube.poset
from posetcube import Poset, VerificationError, parse_poset, random_poset, write_poset
from posetcube.cli import main
from posetcube.errors import PosetCubeError
from posetcube.poset import bit_indices
from helpers import (
    closure_certificate_failure,
    from_relations_reference,
    transitive_closure_reference,
)


def outcome(build, n: int, pairs):
    """What build makes of the pairs: the Poset, or the exception's type and message."""
    try:
        return build(n, pairs)
    except (PosetCubeError, ValueError) as exc:
        return type(exc), str(exc)


def dag_arcs(n: int, q: float, rng: random.Random) -> list[tuple[int, int]]:
    """Each forward arc of a random linear order, kept with probability q."""
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < q]


def direct_masks(n: int, pairs) -> list[int]:
    direct = [0] * n
    for u, v in pairs:
        direct[u] |= 1 << v
    return direct


def least_fixed_point(n: int, pairs) -> list[int]:
    """The least reach that satisfies every row's union equation, cycles included.

    On arcs with a cycle it has a reflexive bit on every element of the
    cycle: the wrong closure that only the reflexive test rejects.
    """
    reach = [0] * n
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            row = reach[u] | 1 << v | reach[v]
            if row != reach[u]:
                reach[u], changed = row, True
    return reach


def expect_rejected(n: int, pairs, wrong: list[int]) -> None:
    """from_relations, handed the closure wrong, names the row the oracle names."""
    row = closure_certificate_failure(wrong, n, pairs)
    assert row is not None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(posetcube.poset, "transitive_closure", lambda count, direct: list(wrong))
        with pytest.raises(VerificationError) as caught:
            Poset.from_relations(n, pairs)
    assert str(caught.value) == f"transitive closure wrong at row {row}"


@st.composite
def relation_lists(draw):
    """n <= 80 and the pairs of a random DAG, with up to three faults.

    The pairs are the sampled arcs (transitive ones included at high
    density), the cover pairs, every comparable pair, or the arcs each
    repeated up to three times, in row order or shuffled.  A fault is a
    reversed comparable pair (a cycle), a self-loop or a pair outside the
    element range, inserted at a random position.
    """
    n = draw(st.integers(0, 80))
    rng = random.Random(draw(st.integers(0, 2**32)))
    arcs = dag_arcs(n, draw(st.sampled_from((0.0, 0.02, 0.1, 0.3, 1.0))), rng)
    p = Poset(n, tuple(transitive_closure_reference(n, direct_masks(n, arcs))))
    comparable = [(u, v) for u in range(n) for v in bit_indices(p.succ[u])]
    shape = draw(st.sampled_from(("arcs", "covers", "comparable", "duplicates")))
    if shape == "arcs":
        pairs = list(arcs)
    elif shape == "covers":
        pairs = [(u, v) for u in range(n) for v in bit_indices(p.covers[u])]
    elif shape == "comparable":
        pairs = comparable
    else:
        pairs = [arc for arc in arcs for _ in range(rng.randint(1, 3))]
    if draw(st.booleans()):
        rng.shuffle(pairs)
    for fault in draw(st.lists(st.sampled_from(("cycle", "self", "range")), max_size=3)):
        if fault == "cycle" and comparable:
            u, v = rng.choice(comparable)
            bad = (v, u)
        elif fault == "self" and n:
            bad = (rng.randrange(n),) * 2
        else:
            inside = rng.randrange(n) if n else 0
            outside = rng.choice((n, n + 7, -1))
            bad = rng.choice(((inside, outside), (outside, inside), (outside, outside)))
        pairs.insert(rng.randrange(len(pairs) + 1), bad)
    return n, pairs


class TestSameResultAsThePicks:
    @settings(max_examples=400, deadline=None)
    @given(relation_lists())
    @example((0, []))
    @example((3, [(0, 5), (1, 1)]))  # the first offender is named, whatever comes later
    @example((3, [(1, 1), (0, 5)]))
    @example((3, [(0, 1), (1, 0), (0, 7)]))  # a bad pair after a cycle comes first
    @example((3, [(0, 1), (1, 2), (2, 0)]))
    @example((2, [(-1, -1)]))
    @example((-1, []))
    @example((-1, [(0, 1)]))
    def test_same_poset_or_error(self, case):
        n, pairs = case
        got = outcome(Poset.from_relations, n, pairs)
        assert got == outcome(from_relations_reference, n, pairs)
        if isinstance(got, Poset):
            assert got.succ == tuple(transitive_closure_reference(n, direct_masks(n, pairs)))

    def test_benchmark_shapes(self):
        rng = random.Random(7)
        for n, q in ((200, 0.3), (600, 3 / 600)):
            p = random_poset(n, q, 7)
            covers = [(u, v) for u in range(n) for v in bit_indices(p.covers[u])]
            comparable = [(u, v) for u in range(n) for v in bit_indices(p.succ[u])]
            mixed = covers * 2 + rng.sample(comparable, len(comparable) // 3)
            rng.shuffle(mixed)
            for pairs in (covers, comparable, mixed):
                assert Poset.from_relations(n, pairs) == p


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.sampled_from((0.05, 0.2, 0.5, 1.0)), st.integers(0, 2**32))
    def test_every_one_bit_flip_is_rejected(self, n, q, seed):
        pairs = dag_arcs(n, q, random.Random(seed))
        reach = transitive_closure_reference(n, direct_masks(n, pairs))
        for u in range(n):
            for bit in range(n + 1):  # bit n lies outside the element range
                wrong = list(reach)
                wrong[u] ^= 1 << bit
                expect_rejected(n, pairs, wrong)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.sampled_from((0.05, 0.2, 0.5, 1.0)), st.integers(0, 2**32))
    def test_reflexive_bit_on_a_cycle_is_rejected(self, n, q, seed):
        rng = random.Random(seed)
        pairs = dag_arcs(n, q, rng)
        reach = transitive_closure_reference(n, direct_masks(n, pairs))
        comparable = [(u, v) for u in range(n) for v in bit_indices(reach[u])]
        if not comparable:
            pairs, comparable = [(0, 1)], [(0, 1)]
        u, v = rng.choice(comparable)
        pairs.insert(rng.randrange(len(pairs) + 1), (v, u))
        wrong = least_fixed_point(n, pairs)
        # every equation holds; only the reflexive bits give it away
        assert any((row >> w) & 1 for w, row in enumerate(wrong))
        expect_rejected(n, pairs, wrong)

    def test_two_cycle_closed_reflexively(self):
        expect_rejected(2, [(0, 1), (1, 0)], [0b11, 0b11])

    def test_negative_row_is_rejected(self):
        expect_rejected(3, [(0, 1)], [0b10, 0, -1])

    def test_parse_raises_verification_error(self, monkeypatch):
        monkeypatch.setattr(posetcube.poset, "transitive_closure", lambda n, direct: list(direct))
        with pytest.raises(VerificationError, match="transitive closure wrong at row 0"):
            parse_poset("3\n0 < 1\n1 < 2\n")

    def test_cli_embed_exits_3(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "chain.poset"
        path.write_text("3\n0 < 1\n1 < 2\n")
        monkeypatch.setattr(posetcube.poset, "transitive_closure", lambda n, direct: list(direct))
        assert main(["embed", "--in", str(path)]) == 3
        assert capsys.readouterr().err == "error: transitive closure wrong at row 0\n"


class TestPicksOnlyForGivenMasks:
    def test_parse_and_from_relations_run_no_picks(self, monkeypatch):
        cases = []
        for n, q, seed in ((0, 0.0, 1), (1, 0.0, 1), (30, 0.2, 2), (200, 0.3, 3), (600, 3 / 600, 4)):
            p = random_poset(n, q, seed)
            pairs = [(u, v) for u in range(n) for v in bit_indices(p.succ[u])]
            cases.append((p, write_poset(p), pairs))

        def refuse(succ, u):
            raise AssertionError("greedy cover picks ran")

        monkeypatch.setattr(posetcube.poset, "_picks_union", refuse)
        for p, text, pairs in cases:
            assert parse_poset(text) == p
            assert Poset.from_relations(p.n, pairs) == p

    def test_given_masks_still_run_the_picks(self, monkeypatch):
        p = Poset.from_relations(3, [(0, 1), (1, 2)])

        def refuse(succ, u):
            raise AssertionError("greedy cover picks ran")

        monkeypatch.setattr(posetcube.poset, "_picks_union", refuse)
        for build in (
            lambda: Poset(3, p.succ),
            lambda: pickle.loads(pickle.dumps(p)),
            lambda: Poset.chain(3),
        ):
            with pytest.raises(AssertionError, match="greedy cover picks ran"):
                build()
