"""Spans around the calls into posetcube's layers, recorded by the benchmark.

The library has no tracing of its own, so the benchmark wraps public
functions from outside.  A call resolves a name in the caller's module,
so a wrapper must replace the function at every binding that holds it:
``universal.max_antichain`` as well as ``dilworth.max_antichain``, and
``dilworth.min_chain_decomposition`` inside dilworth itself, because its
caller lives in the same module.  :meth:`Tracer.install` therefore swaps
the function in every loaded posetcube module that binds the same
object, and :meth:`Tracer.uninstall` puts the originals back.

Names that a later version of the library removes or renames are listed
in ``Tracer.absent`` and the metrics built on them are left out; they
never stop a run.  Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "posetcube"

# Every public function timed as a span, as (module, name); the span is
# called "module.name".  transitive_closure is public (no underscore) and
# is where parse_poset spends its closure work.
SPANS = (
    ("poset", "parse_poset"),
    ("poset", "transitive_closure"),
    ("poset", "check_embedding"),
    ("dilworth", "max_antichain"),
    ("dilworth", "min_chain_decomposition"),
    ("dilworth", "decomposition_into_exactly"),
    ("chainfamily", "chain_family"),
    ("chainfamily", "member_of_chain_family"),
    ("chainfamily", "embed_bounded_antichain"),
    ("chainfamily", "decomposition_partition"),
    ("antichain", "classify"),
    ("antichain", "embed_with_antichain"),
    ("universal", "build_universal"),
    ("universal", "embed_with_branch"),
    ("universal", "membership"),
    ("universal", "write_embedding"),
)

# Iterators counted item by item rather than timed: (module, name, counter).
COUNTED = (("chainfamily", "partitions", "chainfamily.partitions_scanned"),)

OP_SPAN = "bench.op"
CLI_SPAN = "cli.main"


class Tracer:
    """In-memory spans and counters for the ops of one run.

    A span is (name, start_ns, end_ns, parent index or -1, op id).  Spans
    of one op share its id; counters are kept per (op id, counter name).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int | None]] = []
        self.counts: Counter[tuple[int | None, str]] = Counter()
        self.op: int | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, object]] | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter_ns(), 0, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, parent, op = self.spans[index]
            self.spans[index] = (name, start, perf_counter_ns(), parent, op)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.op, name] += amount

    def _timed(self, name: str, fn):
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if note:
                        note(self, None, exc)
                    raise
            if note:
                note(self, result, None)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)

            def counting():
                for item in items:
                    self.count(name)
                    yield item

            return counting()

        return wrapper

    def _build_wrappers(self) -> list[tuple[object, object]]:
        pairs = []
        for module_name, name in SPANS:
            fn = _lookup(module_name, name)
            if fn is None:
                self.absent.append(f"{module_name}.{name}")
            else:
                pairs.append((fn, self._timed(f"{module_name}.{name}", fn)))
        for module_name, name, counter in COUNTED:
            fn = _lookup(module_name, name)
            if fn is None:
                self.absent.append(f"{module_name}.{name}")
            else:
                pairs.append((fn, self._counted(counter, fn)))
        return pairs

    def install(self) -> None:
        """Replace every posetcube binding of a traced function by its wrapper."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        replace = {id(fn): wrapper for fn, wrapper in self._wrappers}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[op, name, n] for (op, name), n in self.counts.items()],
            "absent": self.absent,
        }

    def adopt(self, data: dict) -> None:
        """Take in the export of a traced child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1]
        for name, start, end, child_parent, _ in data["spans"]:
            adopted = parent if child_parent < 0 else base + child_parent
            self.spans.append((name, start, end, adopted, self.op))
        for _, name, n in data["counts"]:
            self.counts[self.op, name] += n
        for name in data["absent"]:
            if name not in self.absent:
                self.absent.append(name)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.export(), handle)


def _lookup(module_name: str, name: str):
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    return getattr(module, name, None)


def _package_modules():
    for module_name, module in list(sys.modules.items()):
        if module_name == PACKAGE or module_name.startswith(PACKAGE + "."):
            yield module


def _note_chain_family(tracer: Tracer, result, exc) -> None:
    if exc is not None:
        if type(exc).__name__ == "MemoryLimitError":
            tracer.count("chainfamily.chain_family.gave_up")
    else:
        tracer.count("chainfamily.chain_family.sets", len(result))


def _note_branch(tracer: Tracer, result, exc) -> None:
    if exc is None:
        tracer.count(f"universal.branch.{result[1]}")


_NOTES = {
    "chainfamily.chain_family": _note_chain_family,
    "universal.embed_with_branch": _note_branch,
}


# Per-layer metrics: name -> (unit, how it is computed, source names).
# "ms" is a span's whole duration, "self_ms" its duration minus the time
# its child spans cover; both, and "count", are means per traced op.
# "run" counts are totals over the traced ops of the run.  A CLI op's own
# time outside cli.main is its start-up, so it is not also unattributed.
LAYER_METRICS = {
    "dilworth.max_antichain.ms": ("ms", "ms", ("dilworth.max_antichain",)),
    "dilworth.min_chain_decomposition.ms": ("ms", "ms", ("dilworth.min_chain_decomposition",)),
    "dilworth.matchings": (
        "count",
        "calls",
        ("dilworth.max_antichain", "dilworth.min_chain_decomposition"),
    ),
    "poset.check_embedding.ms": ("ms", "ms", ("poset.check_embedding",)),
    "antichain.classify.ms": ("ms", "ms", ("antichain.classify",)),
    "antichain.embed_with_antichain.self_ms": ("ms", "self_ms", ("antichain.embed_with_antichain",)),
    "universal.write_embedding.ms": ("ms", "ms", ("universal.write_embedding",)),
    "chainfamily.chain_family.ms": ("ms", "ms", ("chainfamily.chain_family",)),
    "chainfamily.chain_family.sets": ("count", "count", ("chainfamily.chain_family",)),
    "chainfamily.chain_family.gave_up": ("count", "count", ("chainfamily.chain_family",)),
    "chainfamily.member_of_chain_family.self_ms": (
        "ms",
        "self_ms",
        ("chainfamily.member_of_chain_family",),
    ),
    "chainfamily.partitions_scanned": ("count", "count", ("chainfamily.partitions",)),
    "universal.membership.self_ms": ("ms", "self_ms", ("universal.membership",)),
    "chainfamily.embed_bounded_antichain.self_ms": (
        "ms",
        "self_ms",
        ("chainfamily.embed_bounded_antichain",),
    ),
    "chainfamily.decomposition_partition.self_ms": (
        "ms",
        "self_ms",
        ("chainfamily.decomposition_partition",),
    ),
    "poset.parse_poset.self_ms": ("ms", "self_ms", ("poset.parse_poset",)),
    "poset.transitive_closure.ms": ("ms", "ms", ("poset.transitive_closure",)),
    "universal.build_universal.self_ms": ("ms", "self_ms", ("universal.build_universal",)),
    "universal.embed_with_branch.self_ms": ("ms", "self_ms", ("universal.embed_with_branch",)),
    "cli.startup_ms": ("ms", "startup", ()),
    "cli.main.self_ms": ("ms", "self_ms", (CLI_SPAN,)),
    "universal.branch.chain-cover": ("count", "run", ("universal.embed_with_branch",)),
    "universal.branch.antichain-labels": ("count", "run", ("universal.embed_with_branch",)),
    "bench.unattributed_ms": ("ms", "unattributed", ()),
    "bench.trace_overhead_pct": ("%", "overhead", ()),
}


def span_totals(spans, scale: dict | None = None) -> tuple[Counter, Counter, Counter]:
    """Whole duration, self duration and call count per span name, in ns.

    Only spans that belong to an op count; set-up spans have no op id.  A
    span's time is multiplied by its op's factor in `scale`, if given.
    """
    factor = [1.0 if scale is None or op is None else scale[op] for _, _, _, _, op in spans]
    children: Counter = Counter()
    for index, (_, start, end, parent, op) in enumerate(spans):
        if op is not None and parent >= 0:
            children[parent] += (end - start) * factor[index]
    whole: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for index, (name, start, end, _, op) in enumerate(spans):
        if op is not None:
            duration = (end - start) * factor[index]
            whole[name] += duration
            own[name] += duration - children[index]
            calls[name] += 1
    return whole, own, calls


def cli_startup_ns(spans, scale: dict | None = None) -> float:
    """Total time of traced CLI ops spent outside cli.main: start-up and exit."""
    total = 0.0
    for name, start, end, parent, op in spans:
        if name == CLI_SPAN and parent >= 0:
            _, op_start, op_end, _, _ = spans[parent]
            factor = 1.0 if scale is None else scale[op]
            total += ((op_end - op_start) - (end - start)) * factor
    return total


def layer_metrics(
    tracer: Tracer, ops: int, overhead_pct: float, scale: dict | None = None
) -> dict[str, dict]:
    """Per-layer metrics over `ops` traced ops, leaving out absent sources.

    `scale` maps an op id to the factor that turns its times into
    reference-speed times (see clock.py).
    """
    whole, own, calls = span_totals(tracer.spans, scale)
    startup_ns = cli_startup_ns(tracer.spans, scale)
    counts: Counter = Counter()
    for (op, name), n in tracer.counts.items():
        if op is not None:
            counts[name] += n
    out = {}
    for metric, (unit, kind, sources) in LAYER_METRICS.items():
        if sources and all(source in tracer.absent for source in sources):
            continue
        source = sources[0] if sources else None
        if kind == "ms":
            value = whole[source] / 1e6 / ops
        elif kind == "self_ms":
            value = own[source] / 1e6 / ops
        elif kind == "calls":
            value = sum(calls[s] for s in sources) / ops
        elif kind == "count":
            value = counts[metric] / ops
        elif kind == "run":
            value = counts[metric]
        elif kind == "startup":
            value = startup_ns / 1e6 / ops
        elif kind == "unattributed":
            value = (own[OP_SPAN] - startup_ns) / 1e6 / ops
        else:
            value = overhead_pct
        out[metric] = {"value": value, "unit": unit}
    return out


def self_shares(tracer: Tracer) -> dict[str, float]:
    """Share of all traced op time that each span name holds as self time."""
    _, own, _ = span_totals(tracer.spans)
    total = sum(own.values()) or 1
    return {name: round(ns / total, 4) for name, ns in own.most_common()}
