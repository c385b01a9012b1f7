"""Command-line interface.

Five subcommands: family materializes the chain family, embed turns a
poset file into a verified embedding certificate, verify-all exhausts
every labeled poset at desk scale, stats tabulates exact family sizes
against the bound, partitions exposes the partition engine.  Exit codes
are stable: 0 success, 1 bad arguments or malformed input, 2 cap
exceeded, 3 internal verification failure (never expected).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from .chainfamily import (
    DEFAULT_MAX_SETS,
    chain_family,
    partition_count,
    partitions,
    write_family,
)
from .errors import MemoryLimitError, PosetCubeError, VerificationError
from .poset import parse_poset
from .universal import (
    build_universal,
    cardinality,
    embed_with_branch,
    size_bound,
    verify_universality,
    write_embedding,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for caps."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, int]:
    """Accept a single count or a non-empty inclusive 'A..B' span."""
    lo, sep, hi = text.partition("..")
    try:
        span = (int(lo), int(hi)) if sep else (int(text), int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}") from None
    if span[0] > span[1]:
        raise argparse.ArgumentTypeError(f"empty n range {text!r}")
    return span


def _parse_cap(text: str) -> int:
    """A non-negative set-count limit."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError("cap must be non-negative")
    return cap


def _single_n(args: argparse.Namespace) -> int:
    lo, hi = args.n
    if lo != hi:
        raise ValueError("this command takes a single n, not a range")
    return lo


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posetcube", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="materialize the chain family over [n]")
    family.add_argument("--n", type=_parse_range, required=True)
    family.add_argument("--a", type=int, default=None)
    family.add_argument("--cap", type=_parse_cap, default=DEFAULT_MAX_SETS)
    family.add_argument("--out", default=None)
    family.set_defaults(handler=cmd_family)

    embed = sub.add_parser("embed", help="embed a poset file, emit a verified certificate")
    embed.add_argument("--in", dest="in_path", required=True)
    embed.add_argument("--a", type=int, default=None)
    embed.add_argument("--out", default=None)
    embed.set_defaults(handler=cmd_embed)

    verify = sub.add_parser("verify-all", help="embed every labeled poset on n elements")
    verify.add_argument("--n", type=_parse_range, required=True)
    verify.set_defaults(handler=cmd_verify_all)

    stats = sub.add_parser("stats", help="family size against the bound, per n")
    stats.add_argument("--n", type=_parse_range, required=True, metavar="N or A..B")
    stats.add_argument("--a", type=int, default=None)
    stats.add_argument("--cap", type=_parse_cap, default=DEFAULT_MAX_SETS)
    stats.set_defaults(handler=cmd_stats)

    parts = sub.add_parser("partitions", help="partition count, optionally the stream")
    parts.add_argument("--n", type=_parse_range, required=True)
    parts.add_argument("--list", dest="list_items", action="store_true")
    parts.set_defaults(handler=cmd_partitions)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def cmd_family(args: argparse.Namespace) -> int:
    n = _single_n(args)
    fam = chain_family(n, build_universal(n, args.a).a, max_sets=args.cap)
    _emit(write_family(fam), args.out)
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    p = parse_poset(Path(args.in_path).read_text())
    if p.n < 1:
        raise ValueError("cannot embed the empty poset")
    emb, branch = embed_with_branch(build_universal(p.n, args.a), p)
    _emit(write_embedding(emb), args.out)
    print(f"branch={branch}")
    print("VERIFIED")
    return EXIT_OK


def cmd_verify_all(args: argparse.Namespace) -> int:
    report = verify_universality(_single_n(args))
    print(f"{report.passed}/{report.total}")
    print(
        f"chain-cover={report.chain_cover}"
        f" antichain-labels={report.antichain_labels}"
        f" folklore={report.folklore}"
    )
    return EXIT_OK if report.failed == 0 else EXIT_VERIFY


def cmd_stats(args: argparse.Namespace) -> int:
    lo, hi = args.n
    blocks = []
    for n in range(lo, hi + 1):
        u = build_universal(n, args.a)
        lines = [f"n={n}", f"a={u.a}", f"ell={u.ell}", f"m={u.m}"]
        try:
            card = cardinality(u, max_sets=args.cap)
        except MemoryLimitError:
            card = None
        lines.append(f"cardinality={'predicate-only' if card is None else card}")
        lines.append(f"size_bound={size_bound(n, u.a)}")
        lines.append(f"pow2_n={1 << n}")
        if card is not None:
            bits = math.log2(card)
            lines.append(f"ratio_bits={bits / n:.6f}")
            lines.append(f"excess_bits={(bits - 2 * n / 3) / math.sqrt(n):.6f}")
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return EXIT_OK


def cmd_partitions(args: argparse.Namespace) -> int:
    n = _single_n(args)
    if n < 0:
        raise ValueError("need a non-negative count")
    print(partition_count(n))
    if args.list_items:
        for c in partitions(n, n):
            print(",".join(str(part) for part in c.parts) or "-")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except MemoryLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (PosetCubeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
