"""One benchmark process: set up a workload, then run its ops in a closed loop.

run.py starts this file; it is not a command of its own:

    python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE [--setup-only]

It prints "ready" when set-up is done, so the parent can time set-up from
the spawn.  It then runs ops one at a time for SECONDS of wall time, and
for at least the workload's ``min_ops`` ops.  Each op gets a fresh input made
from SEED and its index, and its output is checked by ``checks`` outside
the timed region.  The last line of output is a JSON report of every
latency and verdict.  With TRACE 1, ops alternate in blocks of four
between running with the layer spans of ``spans`` installed and without,
so the untraced ops of the same run give the tracing overhead; blocks of
four keep the cli-embed size mix the same on both sides.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import checks
import clock
import proc
import spans

HERE = Path(__file__).resolve().parent
# A CLI child is killed after this long; run.py allows for one such op.
CLI_TIMEOUT_S = 30


def import_library() -> None:
    """Import posetcube from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(proc.SRC))
    import posetcube

    where = Path(posetcube.__file__).resolve()
    if proc.SRC.resolve() not in where.parents:
        raise SystemExit(f"posetcube was imported from {where}, not from {proc.SRC}")


class EmbedLibrary:
    """Text in, certificate out: parse_poset, embed_with_branch, write_embedding.

    Inputs are random_poset(n, q) in the poset text format.  The family is
    built once, in set-up, as a library user would.
    """

    digest_ops = 16
    min_ops = 100

    def __init__(self, n: int, q: float, seed: int) -> None:
        import_library()
        from posetcube import poset, universal

        self.poset, self.universal = poset, universal
        self.n, self.q = n, q
        self.rng = random.Random(seed)
        self.family = universal.build_universal(n)

    def make_input(self, i: int) -> str:
        p = self.poset.random_poset(self.n, self.q, self.rng.getrandbits(64))
        return self.poset.write_poset(p)

    def run(self, text: str, tracer) -> tuple[str, str]:
        p = self.poset.parse_poset(text)
        emb, branch = self.universal.embed_with_branch(self.family, p)
        return self.universal.write_embedding(emb), branch

    def judge(self, text: str, out: tuple[str, str]) -> tuple[bool, bytes, str]:
        certificate, branch = out
        return checks.certificate_ok(text, certificate), certificate.encode(), branch


class FamilyQuery:
    """membership(build_universal(38), mask) on masks the chain part must decide.

    The masks cycle through chain-cover certificate images with bits above
    m, one-bit flips of such images, and uniform random masks.  Every mask
    is used once.
    """

    digest_ops = 48
    min_ops = 100
    n = 38

    def __init__(self, seed: int) -> None:
        import_library()
        from posetcube import poset, universal

        self.poset, self.universal = poset, universal
        self.rng = random.Random(seed)
        self.family = universal.build_universal(self.n)
        self.a = checks.default_budget(self.n)
        self.m = checks.lattice_ground(self.n, self.a)
        self.images: list[int] = []
        self.seen: set[int] = set()

    def _image(self) -> int:
        while not self.images:
            p = self.poset.random_poset(self.n, 0.3, self.rng.getrandbits(64))
            emb = self.universal.embed(self.family, p)
            self.images = [bits for bits in emb.masks if bits >> self.m]
        return self.images.pop()

    def make_input(self, i: int) -> int:
        while True:
            kind = i % 3
            if kind == 0:
                bits = self._image()
            elif kind == 1:
                bits = self._image() ^ (1 << self.rng.randrange(self.n))
            else:
                bits = self.rng.getrandbits(self.n)
            if bits not in self.seen:
                self.seen.add(bits)
                return bits

    def run(self, bits: int, tracer) -> bool:
        return self.universal.membership(self.family, self.poset.SubsetMask(self.n, bits))

    def judge(self, bits: int, answer: bool) -> tuple[bool, bytes, None]:
        expected = checks.in_universal_family(bits, self.n, self.a)
        return answer == expected, b"1" if answer else b"0", None


class CliEmbed:
    """One `python -m posetcube.cli embed --in F --out G` child per op.

    Half the ops are at n=20 and a quarter each at n=18 and n=22, and q
    alternates between 0.3 and 2/n, so both branches run at every n.
    """

    digest_ops = 8
    min_ops = 8
    sizes = (20, 18, 20, 22)

    def __init__(self, seed: int, workdir: Path) -> None:
        import_library()
        from posetcube import poset

        self.poset = poset
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.max_rss_kb = 0

    def make_input(self, i: int) -> tuple[str, Path, Path]:
        n = self.sizes[i % 4]
        q = 0.3 if (i + i // 4) % 2 == 0 else 2 / n
        text = self.poset.write_poset(self.poset.random_poset(n, q, self.rng.getrandbits(64)))
        source = self.workdir / f"op{i}.poset"
        source.write_text(text)
        return text, source, self.workdir / f"op{i}.cert"

    def run(self, inp: tuple[str, Path, Path], tracer) -> proc.Child:
        _, source, target = inp
        embed = ["embed", "--in", str(source), "--out", str(target)]
        if tracer is None:
            child = proc.spawn(["-m", "posetcube.cli", *embed], CLI_TIMEOUT_S)
        else:
            spans_file = target.with_suffix(".spans")
            child = proc.spawn([str(HERE / "trace_cli.py"), str(spans_file), *embed], CLI_TIMEOUT_S)
            if spans_file.exists():
                tracer.adopt(json.loads(spans_file.read_text()))
                spans_file.unlink()
        self.max_rss_kb = max(self.max_rss_kb, child.maxrss_kb)
        return child

    def judge(self, inp: tuple[str, Path, Path], child: proc.Child) -> tuple[bool, bytes, str | None]:
        text, source, target = inp
        certificate = target.read_text() if target.exists() else ""
        source.unlink()
        target.unlink(missing_ok=True)
        lines = child.stdout.decode().splitlines()
        branch = next((line[7:] for line in lines if line.startswith("branch=")), None)
        ok = (
            child.returncode == 0
            and "VERIFIED" in lines
            and bool(certificate)
            and checks.certificate_ok(text, certificate)
        )
        return ok, child.stdout + certificate.encode(), branch


WORKLOADS = {
    "embed-dense": lambda seed, workdir: EmbedLibrary(200, 0.3, seed),
    "embed-sparse": lambda seed, workdir: EmbedLibrary(600, 3 / 600, seed),
    "cli-embed": CliEmbed,
    "family-query": lambda seed, workdir: FamilyQuery(seed),
}


def measure(workload, first_input, seconds: float, tracer: spans.Tracer | None) -> dict:
    """Run ops until `seconds` have passed, checking each one after its timer stops.

    A run makes at least `min_ops` ops: the ones its digest covers and, on
    the library workloads, the hundred that put ten samples beyond p90.
    The reference loop of ``clock`` runs before every op and after the
    last, so each op has a factor to reference speed in "scale".
    """
    latency_ns, traced, ok, loops = [], [], [], []
    errors: list[str] = []
    branches: Counter = Counter()
    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.min_ops or time.perf_counter() < deadline:
        inp = first_input if i == 0 else workload.make_input(i)
        loops.append(clock.loop_ns())
        on = tracer is not None and i % 8 >= 4
        if on:
            tracer.op = i
            tracer.install()
        error = None
        start = time.perf_counter_ns()
        try:
            if on:
                with tracer.span(spans.OP_SPAN):
                    out = workload.run(inp, tracer)
            else:
                out = workload.run(inp, None)
        except Exception as exc:
            error = exc
        elapsed = time.perf_counter_ns() - start
        if on:
            tracer.uninstall()
            tracer.op = None
        verdict, data, branch = False, b"", None
        if error is None:
            try:
                verdict, data, branch = workload.judge(inp, out)
            except Exception as exc:
                error = exc
        if error is not None and len(errors) < 5:
            errors.append(f"op {i}: {type(error).__name__}: {error}")
        if i < workload.digest_ops:
            digest.update(len(data).to_bytes(8, "little") + data)
        latency_ns.append(elapsed)
        traced.append(on)
        ok.append(verdict)
        if branch is not None:
            branches[branch] += 1
        i += 1
    loops.append(clock.loop_ns())
    return {
        "latency_ns": latency_ns,
        "scale": [clock.scale(a, b) for a, b in zip(loops, loops[1:])],
        "loop_ns": loops,
        "traced": traced,
        "ok": ok,
        "errors": errors,
        "digest": digest.hexdigest(),
        "digest_ops": workload.digest_ops,
        "branches": dict(branches),
        "child_maxrss_kb": getattr(workload, "max_rss_kb", None),
    }


def trace_report(tracer: spans.Tracer, report: dict, trace_path: Path) -> dict:
    """Per-layer metrics of the traced ops, and the spans written to trace_path."""
    scaled = [ns * f for ns, f in zip(report["latency_ns"], report["scale"])]
    on = [ns for ns, flag in zip(scaled, report["traced"]) if flag]
    off = [ns for ns, flag in zip(scaled, report["traced"]) if not flag]
    overhead = (statistics.median(on) / statistics.median(off) - 1) * 100
    tracer.dump(trace_path)
    scale = dict(enumerate(report["scale"]))
    return {
        "layers": spans.layer_metrics(tracer, len(on), overhead, scale),
        "self_shares": spans.self_shares(tracer),
        "absent": tracer.absent,
        "trace_file": str(trace_path.relative_to(proc.ROOT)),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]
    with tempfile.TemporaryDirectory(dir=proc.RUNS) as workdir:
        workload = WORKLOADS[name](seed, Path(workdir))
        first_input = workload.make_input(0)
        print("ready", flush=True)
        if setup_only:
            return 0
        tracer = spans.Tracer() if trace else None
        report = measure(workload, first_input, seconds, tracer)
        if tracer is not None:
            trace_path = proc.RUNS / f"trace-{name}-seed{seed}.json"
            report.update(trace_report(tracer, report, trace_path))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
