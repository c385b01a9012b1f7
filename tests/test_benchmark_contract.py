"""Every library name the benchmark traces or calls must exist in the library.

perfbench/spans.py wraps functions by (module, name).  A name it cannot
find is reported as absent and the per-layer metrics built on it drop
out of the traced result, so removing or renaming one of them silently
breaks the benchmark's output.  The file is loaded here, never changed.
perfbench/test_perfbench.py also calls a few names directly; losing one
of them would only show as one more failure in the benchmark's own tests.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
TRACED = [*_spans.SPANS, *((module, name) for module, name, _ in _spans.COUNTED)]


@pytest.mark.parametrize("module_name, name", TRACED)
def test_traced_name_resolves(module_name, name):
    module = importlib.import_module(f"{_spans.PACKAGE}.{module_name}")
    assert callable(getattr(module, name, None))


# names that perfbench/test_perfbench.py calls directly, as (module, dotted name)
CALLED = [
    ("universal", "max_antichain"),
    ("chainfamily", "partitions"),
    ("chainfamily", "member_of_chain_family"),
    ("poset", "Poset.leq"),
]


@pytest.mark.parametrize("module_name, name", CALLED)
def test_called_name_resolves(module_name, name):
    target = importlib.import_module(f"{_spans.PACKAGE}.{module_name}")
    for attr in name.split("."):
        target = getattr(target, attr, None)
    assert callable(target)
