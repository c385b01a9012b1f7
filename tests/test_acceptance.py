"""Acceptance gate: the nine binding criteria, one reported line each.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
pytest run yields a readable scorecard.  Tolerances and workloads are
pinned here on purpose; loosening them defeats the gate.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from posetcube import (
    SubsetMask,
    build_universal,
    cardinality,
    check_embedding,
    parse_embedding,
    parse_family,
    parse_poset,
    random_poset,
    size_bound,
    write_embedding,
    write_family,
    write_poset,
)
from posetcube.antichain import embed_with_antichain, min_ell
from posetcube.chainfamily import (
    SetFamily,
    _family_masks,
    chain_family,
    family_for_partition,
    hardy_ramanujan,
    partition_count,
    partitions,
)
from posetcube.cli import main
from posetcube.dilworth import max_antichain, min_chain_decomposition
from posetcube.poset import Embedding, enumerate_posets
from posetcube.universal import verify_universality
from helpers import max_antichain_bruteforce, planted_poset

# exact family sizes for the default budget, frozen after first computation
CARDINALITY_FIXTURE = {
    4: 16, 5: 32, 6: 64, 7: 128, 8: 256, 9: 512, 10: 1024, 11: 2048,
    12: 4096, 13: 5354, 14: 10122, 15: 19476, 16: 27960, 17: 51284,
    18: 94447, 19: 200454, 20: 371008,
}

LABELED_POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


@pytest.fixture
def announce(capsys):
    def _announce(criterion: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")

    return _announce


def test_criterion_1_exhaustive_universality(announce):
    ok = False
    detail = ""
    try:
        start = time.time()
        total = 0
        for n, expected in LABELED_POSET_COUNTS.items():
            report = verify_universality(n)
            assert report.total == expected, (n, report.total)
            assert report.passed == expected
            assert report.failed == 0
            total += report.total
        elapsed = time.time() - start
        assert elapsed < 300.0
        detail = f"{total} posets over n=1..5 embedded and verified in {elapsed:.1f}s"
        ok = True
    finally:
        announce("criterion 1 universality n<=5", ok, detail or "see failure above")


def test_criterion_2_dilworth_equality(announce):
    ok = False
    detail = ""
    try:
        checked = 0
        for n in range(1, 6):
            for p in enumerate_posets(n):
                width = min_chain_decomposition(p).width
                assert width == len(max_antichain(p)) == len(max_antichain_bruteforce(p))
                checked += 1
        rng = random.Random(20260815)
        for _ in range(1000):
            n = rng.randint(1, 15)
            p = random_poset(n, rng.uniform(0.0, 0.9), rng.randrange(2**32))
            width = min_chain_decomposition(p).width
            assert width == len(max_antichain(p)) == len(max_antichain_bruteforce(p))
            checked += 1
        detail = f"width equals antichain size on {checked} posets (exhaustive + random)"
        ok = True
    finally:
        announce("criterion 2 chain cover vs antichain", ok, detail or "see failure above")


def test_criterion_3_family_size_formula(announce):
    ok = False
    detail = ""
    try:
        checked = 0
        for n in range(1, 21):
            for c in partitions(n, n):
                expected = math.prod(part + 1 for part in c.parts)
                assert len(family_for_partition(n, c)) == expected, (n, c)
                checked += 1
        detail = f"exact product size on all {checked} partitions with n<=20"
        ok = True
    finally:
        announce("criterion 3 family size formula", ok, detail or "see failure above")


def test_criterion_4_chain_family_bound(announce):
    # sizes come from one incremental union per n (the direct constructor
    # would redo the whole stream per budget); spot checks below pin the
    # incremental sizes to the public constructor
    ok = False
    detail = ""
    try:
        sizes: dict[tuple[int, int], int] = {}
        worst = Fraction(0)
        for n in range(1, 21):
            by_parts: dict[int, list] = {}
            for c in partitions(n, n):
                by_parts.setdefault(c.k, []).append(c)
            union: set[int] = set()
            for a in range(1, n + 1):
                for c in by_parts.get(a, []):
                    union.update(_family_masks(c))
                bound = partition_count(n) * a * (Fraction(n, a) + 1) ** a
                assert len(union) <= bound, (n, a)
                worst = max(worst, Fraction(len(union)) / bound)
                sizes[n, a] = len(union)
        for n, a in [(6, 2), (11, 4), (16, 5), (20, 7), (20, 20)]:
            assert len(chain_family(n, a)) == sizes[n, a]
        detail = f"bound holds for all 210 (n,a) pairs, tightest ratio {float(worst):.3f}"
        ok = True
    finally:
        announce("criterion 4 chain family bound", ok, detail or "see failure above")


def test_criterion_5_antichain_embedding_at_scale(announce):
    ok = False
    detail = ""
    try:
        start = time.time()
        runs = 10_000
        for seed in range(runs):
            n = 6 + seed % 55
            p, antichain = planted_poset(n, seed)
            a = len(antichain)
            assert a >= -(-n // 3)
            emb = embed_with_antichain(p, antichain)
            assert emb.m == n - a + min_ell(a), (n, a)
            assert check_embedding(p, emb), (n, seed)
        elapsed = time.time() - start
        assert elapsed < 120.0
        detail = f"{runs} planted posets up to n=60 verified in {elapsed:.1f}s"
        ok = True
    finally:
        announce("criterion 5 label embedding at scale", ok, detail or "see failure above")


def test_criterion_6_cardinality_regression(announce):
    ok = False
    detail = ""
    try:
        for n in range(4, 21):
            u = build_universal(n)
            card = cardinality(u)
            assert card == CARDINALITY_FIXTURE[n], (n, card)
            assert card <= size_bound(n)
            assert card <= 1 << n
        detail = "exact sizes for n=4..20 match the fixture and stay within both bounds"
        ok = True
    finally:
        announce("criterion 6 cardinality regression", ok, detail or "see failure above")


def test_criterion_7_partition_engine(announce):
    ok = False
    detail = ""
    try:
        for n in range(0, 41):
            assert partition_count(n) == sum(1 for _ in partitions(n, n)), n
        assert partition_count(50) == 204226
        ratio_100 = partition_count(100) / hardy_ramanujan(100)
        ratio_1000 = partition_count(1000) / hardy_ramanujan(1000)
        assert 0.90 <= ratio_100 <= 1.00
        assert abs(1 - ratio_1000) < abs(1 - ratio_100)
        detail = (
            f"recurrence matches stream for n<=40; asymptotic ratio "
            f"{ratio_100:.4f} at n=100, {ratio_1000:.4f} at n=1000"
        )
        ok = True
    finally:
        announce("criterion 7 partition engine", ok, detail or "see failure above")


def test_criterion_8_cli_determinism(announce, tmp_path, capsys):
    ok = False
    detail = ""
    try:
        poset_path = tmp_path / "p.poset"
        poset_path.write_text(write_poset(random_poset(12, 0.25, 99)))

        def run(argv: list[str], out_name: str) -> tuple[str, bytes]:
            out = tmp_path / out_name
            assert main(argv + ["--out", str(out)]) == 0
            return capsys.readouterr().out, out.read_bytes()

        embed_argv = ["embed", "--in", str(poset_path)]
        first = run(embed_argv, "e1.txt")
        second = run(embed_argv, "e2.txt")
        assert first == second
        family_argv = ["family", "--n", "12", "--a", "4"]
        first = run(family_argv, "f1.txt")
        second = run(family_argv, "f2.txt")
        assert first == second
        detail = "embed and family reruns are byte-identical (stdout and files)"
        ok = True
    finally:
        announce("criterion 8 determinism", ok, detail or "see failure above")


def test_criterion_9_format_round_trips(announce):
    ok = False
    detail = ""
    try:
        rng = random.Random(4)
        for i in range(100):
            p = random_poset(rng.randint(1, 15), rng.random(), rng.randrange(2**32))
            text = write_poset(p)
            assert write_poset(parse_poset(text)) == text

            m = rng.randint(1, 16)
            masks = {rng.randrange(1 << m) for _ in range(rng.randint(1, 40))}
            fam = SetFamily(m, tuple(sorted(masks)))
            text = write_family(fam)
            assert write_family(parse_family(text)) == text

            count = rng.randint(1, 20)
            emb = Embedding(m, tuple(rng.randrange(1 << m) for _ in range(count)))
            text = write_embedding(emb)
            assert write_embedding(parse_embedding(text)) == text
        detail = "100 posets, families, and embeddings survive write-parse-write"
        ok = True
    finally:
        announce("criterion 9 format round trips", ok, detail or "see failure above")
