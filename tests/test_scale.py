"""Opt-in scale targets: n = 5000 and dense n = 2000 through parse,
verified embed and write, dense n = 2000 through parse, ``pred`` and
``covers``, and the parse of every comparable pair of a dense n = 1000
poset.

Each pipeline case runs ``parse_poset`` -> ``embed`` (which verifies) ->
``write_embedding`` in a fresh interpreter, so that its peak RSS is the
pipeline's own.  The default run deselects them; run them with
``python -m pytest -q -m scale``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from posetcube import parse_poset, random_poset, write_poset
from posetcube.poset import bit_indices

pytestmark = pytest.mark.scale

SRC = Path(__file__).resolve().parent.parent / "src"
PIPELINE = """
import resource, sys, time
from posetcube import build_universal, embed, parse_poset, write_embedding

text = open(sys.argv[1]).read()
start = time.perf_counter()
p = parse_poset(text)
certificate = write_embedding(embed(build_universal(p.n), p))
seconds = time.perf_counter() - start
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def run_pipeline(tmp_path: Path, poset_text: str) -> tuple[float, float]:
    """Seconds and peak RSS in MB of one pipeline run on the given poset."""
    path = tmp_path / "poset.txt"
    path.write_text(poset_text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    seconds, rss_mb = map(float, done.stdout.split())
    print(f"{seconds:.2f} s, {rss_mb:.1f} MB peak RSS")
    return seconds, rss_mb


def test_sparse_5000_under_5_s_and_150_mb(tmp_path):
    seconds, rss_mb = run_pipeline(tmp_path, write_poset(random_poset(5000, 4 / 5000, 1)))
    assert seconds < 5
    assert rss_mb < 150


def test_antichain_5000_under_5_s(tmp_path):
    # its certificate text is about 78 MB and is built whole before it is
    # written, so it gets a looser memory bound than the sparse case
    seconds, rss_mb = run_pipeline(tmp_path, "5000\n")
    assert seconds < 5
    assert rss_mb < 200


def test_dense_2000_under_half_a_second(tmp_path):
    # width 9, so the chain-cover branch, whose certificate check_embedding
    # accepts by its up-set columns.  0.10-0.17 s on a 2-core Xeon with
    # CPython 3.11.7 (0.14-0.16 s before the accept); the bound leaves
    # about 3x, as the n = 5000 cases do
    seconds, _ = run_pipeline(tmp_path, write_poset(random_poset(2000, 0.3, 1)))
    assert seconds < 0.5


def test_dense_2000_parse_pred_covers_under_half_a_second():
    text = write_poset(random_poset(2000, 0.05, 1))
    start = time.perf_counter()
    p = parse_poset(text)
    assert len(p.pred) == len(p.covers) == 2000
    seconds = time.perf_counter() - start
    print(f"{seconds:.3f} s")
    assert seconds < 0.5


def test_every_comparable_pair_of_a_dense_1000_parses_under_2_s():
    # 494,740 arcs, 4.8 MB of text: each arc costs a Python step in the
    # parse, the closure and the certificate's OR
    p = random_poset(1000, 0.3, 1)
    lines = [f"{u} < {v}" for u, row in enumerate(p.succ) for v in bit_indices(row)]
    text = "\n".join(["1000", *lines, ""])
    start = time.perf_counter()
    parsed = parse_poset(text)
    seconds = time.perf_counter() - start
    print(f"{len(lines)} pairs, {len(text) / 1e6:.1f} MB: {seconds:.3f} s")
    assert parsed == p
    assert seconds < 2
