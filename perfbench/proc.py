"""Child processes for the benchmark: one at a time, reaped with their rusage."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"


def child_env() -> dict[str, str]:
    """The environment of a child that must import posetcube from this checkout."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


@dataclass(frozen=True)
class Child:
    """How a child process ended and what it printed."""

    returncode: int
    stdout: bytes
    maxrss_kb: int
    started_ns: int
    first_line_ns: int | None

    @property
    def ready_s(self) -> float | None:
        """Seconds from the spawn to the child's first line of output."""
        if self.first_line_ns is None:
            return None
        return (self.first_line_ns - self.started_ns) / 1e9


def spawn(args: list[str], timeout: float, *, own_group: bool = False) -> Child:
    """Run `python3 args...` to completion, or kill it after timeout seconds.

    The child is reaped with os.wait4, which gives its own peak RSS.  The
    time its first line of output arrived is kept, so a child can mark the
    end of its set-up by printing a line.  With own_group the child leads a
    new process group, and a kill reaches the processes it started too.
    """
    started_ns = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
        start_new_session=own_group,
    )

    def kill() -> None:
        if own_group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()

    chunks = []
    first_line_ns = None
    deadline = time.monotonic() + timeout
    fd = proc.stdout.fileno()
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                kill()
                break
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if first_line_ns is None and b"\n" in chunk:
                first_line_ns = time.perf_counter_ns()
            chunks.append(chunk)
    except BaseException:
        kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return Child(
        proc.returncode, b"".join(chunks), usage.ru_maxrss, started_ns, first_line_ns
    )
