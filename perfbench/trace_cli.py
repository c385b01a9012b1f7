"""Run the posetcube CLI with the benchmark's layer spans installed.

    python3 perfbench/trace_cli.py SPANS_FILE CLI_ARGS...

The traced ops of the cli-embed workload start this file in place of
`python -m posetcube.cli`.  It installs the same wrappers as a library
run, calls posetcube.cli.main under a "cli.main" span, writes the spans
to SPANS_FILE and exits with the CLI's own exit code.
"""

import sys

import proc
import spans

sys.path.insert(0, str(proc.SRC))

from posetcube import cli  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span(spans.CLI_SPAN):
            code = cli.main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
