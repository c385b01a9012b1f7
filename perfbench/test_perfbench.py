"""Tests of the benchmark's own checks, accounting and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from functools import cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
from posetcube import chainfamily, dilworth, poset, universal  # noqa: E402


def write_certificate(ground: int, masks: list[int]) -> str:
    lines = [f"n={len(masks)} m={ground}"]
    for j, bits in enumerate(masks):
        lines.append(f"{j}: " + (",".join(str(e + 1) for e in checks.ones(bits)) or "-"))
    return "\n".join(lines) + "\n"


@cache
def materialized_family(n: int, a: int) -> frozenset[int]:
    return frozenset(chainfamily.chain_family(n, a).masks)


def oracle_ok(p: poset.Poset, masks: list[int]) -> bool:
    """Order-faithfulness by frozensets and membership by a materialized family."""
    n = p.n
    images = [frozenset(checks.ones(bits)) for bits in masks]
    if len(set(images)) != n:
        return False
    for u in range(n):
        for v in range(n):
            if (images[u] <= images[v]) != p.leq(u, v):
                return False
    a = checks.default_budget(n)
    m = checks.lattice_ground(n, a)
    family = materialized_family(n, a)
    return all(bits >> m == 0 or bits in family for bits in masks)


@pytest.mark.parametrize("n", range(1, 11))
def test_layout_search_matches_materialized_chain_family(n):
    for a in range(1, n + 1):
        family = materialized_family(n, a)
        for bits in range(1 << n):
            assert checks.in_chain_family(bits, n, a) == (bits in family), (n, a, bits)


def test_layout_search_matches_partition_scan_at_family_query_size():
    rng = random.Random(5)
    for _ in range(40):
        bits = rng.getrandbits(38)
        expected = chainfamily.member_of_chain_family(poset.SubsetMask(38, bits), 38, 13)
        assert checks.in_chain_family(bits, 38, 13) == expected


def test_poset_reader_matches_library_closure():
    for seed in range(20):
        p = poset.random_poset(15, 0.2, seed)
        up = checks.read_poset(poset.write_poset(p))
        assert up == [p.succ[u] | (1 << u) for u in range(p.n)]


@pytest.mark.parametrize("n, q", [(9, 0.4), (9, 0.05), (12, 0.3), (12, 0.08)])
def test_every_one_bit_flip_is_judged_like_the_oracle(n, q):
    u = universal.build_universal(n)
    caught = 0
    for seed in range(3):
        p = poset.random_poset(n, q, seed)
        text = poset.write_poset(p)
        emb = universal.embed(u, p)
        assert checks.certificate_ok(text, universal.write_embedding(emb))
        for j in range(n):
            for e in range(n):
                masks = list(emb.masks)
                masks[j] ^= 1 << e
                verdict = checks.certificate_ok(text, write_certificate(n, masks))
                assert verdict == oracle_ok(p, masks), (seed, j, e)
                caught += not verdict
    assert caught


def flipped_until_caught(text: str, certificate: str) -> str:
    ground, masks = checks.read_certificate(certificate)
    for j in range(len(masks)):
        for e in range(ground):
            flipped = list(masks)
            flipped[j] ^= 1 << e
            candidate = write_certificate(ground, flipped)
            if not checks.certificate_ok(text, candidate):
                return candidate
    raise AssertionError("no single flip is caught")


def test_a_flipped_certificate_is_counted_as_a_failed_op():
    bench = workload.EmbedLibrary(12, 0.3, seed=1)
    bench.min_ops = bench.digest_ops = 6
    honest = bench.run

    def corrupt_third_op(text, tracer):
        certificate, branch = honest(text, tracer)
        if corrupt_third_op.calls == 2:
            certificate = flipped_until_caught(text, certificate)
        corrupt_third_op.calls += 1
        return certificate, branch

    corrupt_third_op.calls = 0
    bench.run = corrupt_third_op
    report = workload.measure(bench, bench.make_input(0), 0, None)
    assert report["ok"] == [True, True, False, True, True, True]
    metrics = run.end_to_end(report, [(0.1, 1.0)], 1024)
    assert metrics["verified_rate"]["value"] == pytest.approx(5 / 6)


def test_the_digest_repeats_for_a_seed_and_sees_a_changed_output():
    def digest(seed):
        bench = workload.EmbedLibrary(12, 0.3, seed)
        bench.min_ops = bench.digest_ops = 4
        return workload.measure(bench, bench.make_input(0), 0, None)["digest"]

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def traced_embed(tracer: spans.Tracer, p: poset.Poset) -> None:
    # n >= 37 keeps build_universal from materializing millions of sets
    family = universal.build_universal(p.n)
    tracer.op = 0
    tracer.install()
    try:
        with tracer.span(spans.OP_SPAN):
            universal.embed_with_branch(family, p)
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_binding():
    originals = (universal.max_antichain, dilworth.min_chain_decomposition, chainfamily.partitions)
    tracer = spans.Tracer()
    tracer.install()
    assert universal.max_antichain is not originals[0]
    assert dilworth.min_chain_decomposition is not originals[1]
    tracer.uninstall()
    assert (universal.max_antichain, dilworth.min_chain_decomposition, chainfamily.partitions) == originals


def test_chain_cover_embed_counts_three_matchings():
    tracer = spans.Tracer()
    traced_embed(tracer, poset.random_poset(40, 0.3, 2))
    metrics = spans.layer_metrics(tracer, 1, 0.0)
    assert metrics["dilworth.matchings"]["value"] == 3
    assert metrics["universal.branch.chain-cover"]["value"] == 1
    assert metrics["dilworth.min_chain_decomposition.ms"]["value"] > 0


def test_a_removed_name_is_an_absent_metric_not_a_crash(monkeypatch):
    monkeypatch.delattr(chainfamily, "decomposition_partition")
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + (("dilworth", "renamed_away"),))
    tracer = spans.Tracer()
    traced_embed(tracer, poset.random_poset(40, 0.3, 2))
    assert "chainfamily.decomposition_partition" in tracer.absent
    assert "dilworth.renamed_away" in tracer.absent
    metrics = spans.layer_metrics(tracer, 1, 0.0)
    assert "chainfamily.decomposition_partition.self_ms" not in metrics
    assert metrics["dilworth.max_antichain.ms"]["value"] > 0


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()
    }
