"""Opt-in scale targets: n = 5000 and dense n = 2000 through parse,
verified embed and write, the verified embeds of the n = 8000 antichain
and chain, dense n = 2000 through parse, ``pred`` and ``covers``, the
parse of every comparable pair of a dense n = 1000 poset, and the parse
of an n = 5000 certificate.

Each pipeline case runs ``parse_poset`` -> ``embed`` (which verifies) ->
``write_embedding`` in a fresh interpreter, the n = 8000 cases their
embed alone, and the certificate case its parse alone.  The child reads
its peak RSS as ``VmHWM`` in ``/proc/self/status`` just before it exits,
which counts its own pages only; ``ru_maxrss`` would also count the
pages of the process that launched it, up to its exec.  Where that file
does not exist, the child falls back to ``ru_maxrss``.  The default run
deselects these cases; run them with ``python -m pytest -q -m scale``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from posetcube import (
    build_universal,
    embed,
    parse_embedding,
    parse_poset,
    random_poset,
    write_embedding,
    write_poset,
)
from posetcube.poset import bit_indices

pytestmark = pytest.mark.scale

SRC = Path(__file__).resolve().parent.parent / "src"
# the last lines of every child: print seconds, peak RSS in MB and where
# the peak was read
PEAK = """
import resource
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    source = "VmHWM"
except (OSError, StopIteration):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    source = "ru_maxrss"
print(seconds, peak_kb / 1024, source)
"""
PIPELINE = """
import sys, time
from posetcube import build_universal, embed, parse_poset, write_embedding

text = open(sys.argv[1]).read()
start = time.perf_counter()
p = parse_poset(text)
certificate = write_embedding(embed(build_universal(p.n), p))
seconds = time.perf_counter() - start
""" + PEAK
EMBED = """
import sys, time
from posetcube import Poset, build_universal, embed

shape, n = sys.argv[1].split()
p = getattr(Poset, shape)(int(n))
start = time.perf_counter()
embed(build_universal(p.n), p)
seconds = time.perf_counter() - start
""" + PEAK

PARSE_EMBEDDING = """
import sys, time
from posetcube import parse_embedding

text = open(sys.argv[1]).read()
seconds = float("inf")
for _ in range(3):
    start = time.perf_counter()
    parse_embedding(text)
    seconds = min(seconds, time.perf_counter() - start)
""" + PEAK


def run_pipeline(tmp_path: Path, poset_text: str) -> tuple[float, float]:
    """Seconds and peak RSS in MB of one pipeline run on the given poset."""
    path = tmp_path / "poset.txt"
    path.write_text(poset_text)
    return run_child(PIPELINE, str(path))


def run_child(script: str, argument: str) -> tuple[float, float]:
    """Seconds and peak RSS in MB that a fresh interpreter running script reports."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, argument],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    seconds, rss_mb, source = done.stdout.split()
    print(f"{float(seconds):.2f} s, {float(rss_mb):.1f} MB peak RSS ({source})")
    return float(seconds), float(rss_mb)


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


def test_antichain_8000_verified_embed_under_0_6_s_and_55_mb():
    # the label branch: check_embedding's label accept recognises the
    # certificate from the poset alone.  0.20-0.26 s on a 2-core Xeon with
    # CPython 3.11.7; with the byte-block pass instead it took 1.07-1.14 s
    # (the check 0.96-1.04 s).  The time bound leaves a little over 2x.
    # The peak is 46 MB; it was 61 MB while the check held the up-sets as
    # an int list and as bytes keys at once
    seconds, rss_mb = run_child(EMBED, "antichain 8000")
    assert seconds < 0.6
    assert rss_mb < 55


def test_chain_8000_verified_embed_under_0_3_s():
    # the chain-cover branch: check_embedding's up-set accept compares the
    # sorted columns with the sorted up-sets.  0.15-0.16 s on a 2-core Xeon
    # with CPython 3.11.7; comparing them as sets of ints took 0.29-0.34 s,
    # since the up-sets 2^n - 2^x of a chain fall into 61 hash classes.
    # The bound leaves about 2x
    seconds, _ = run_child(EMBED, "chain 8000")
    assert seconds < 0.3


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


def test_sparse_5000_certificate_parses_back_under_2_s_and_58_mb(tmp_path):
    # 3,951,730 elements in 19.8 MB of text, read element by element and
    # checked for canonical form by rendering the sets 256 at a time.
    # 1.0-1.4 s on a 2-core Xeon with CPython 3.11.7, but single runs on a
    # shared host reach 1.9 s, so the best of three is bounded.  The peak
    # is 55.7 MB, most of it the read of the file (53.9 MB with one render
    # per line); one render of all 5000 sets took it to 60.8 MB, and holding
    # each image's set text beside its line to 78 MB
    certificate = write_embedding(embed(build_universal(5000), random_poset(5000, 4 / 5000, 1)))
    path = tmp_path / "embedding.txt"
    path.write_text(certificate)
    seconds, rss_mb = run_child(PARSE_EMBEDDING, str(path))
    assert write_embedding(parse_embedding(certificate)) == certificate
    assert seconds < 2
    assert rss_mb < 58
