"""Opt-in scale targets: n = 5000 through parse, verified embed and write.

Each case runs ``parse_poset`` -> ``embed`` (which verifies) ->
``write_embedding`` in a fresh interpreter, so that its peak RSS is the
pipeline's own.  The default run deselects them; run them with
``python -m pytest -q -m scale``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from posetcube import random_poset, write_poset

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
    # its certificate text is about 78 MB and is built whole, so its peak
    # RSS is reported above rather than bounded here
    seconds, _ = run_pipeline(tmp_path, "5000\n")
    assert seconds < 5
