"""What a CLI run imports: no heavy standard-library module at start-up.

Each test starts a child with ``python -S``, so that no site-packages
``.pth`` file preloads modules and only posetcube's own imports count.
The checks are on the modules imported, never on a time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from posetcube import build_universal, embed, random_poset, write_embedding, write_poset

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules the CLI does without: dataclasses pulls in inspect, ast and dis,
# and the other four are needed by no command.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "typing", "pathlib", "random", "threading")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-S", *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_import_loads_no_heavy_module():
    code = f"import posetcube.cli, sys; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    child = _python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


def test_cli_embed_runs_without_site(tmp_path):
    p = random_poset(12, 0.3, 5)
    source, target = tmp_path / "p.poset", tmp_path / "p.cert"
    source.write_text(write_poset(p))
    child = _python("-m", "posetcube.cli", "embed", "--in", str(source), "--out", str(target))
    assert child.returncode == 0, child.stderr
    assert "VERIFIED" in child.stdout.splitlines()
    assert target.read_text() == write_embedding(embed(build_universal(12), p))
