"""Command-line interface.

Three subcommands: family materializes the chain family, embed turns a
poset file into a verified embedding certificate, stats tabulates exact
family sizes against the bound.  Exit codes are stable: 0 success, 1 bad
arguments or malformed input, 2 cap exceeded, 3 internal verification
failure (never expected).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from .chainfamily import DEFAULT_MAX_SETS, chain_family, write_family
from .errors import MemoryLimitError, PosetCubeError, VerificationError
from .poset import parse_poset
from .universal import (
    build_universal,
    cardinality,
    embed_with_branch,
    size_bound,
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


def _count(text: str) -> int:
    """A number written in ASCII digits only, the rule of the file formats.

    int() alone would also take a sign, underscores, surrounding spaces
    and non-ASCII digits.  Raises ValueError on those, and on a number
    over the interpreter's digit limit.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a count: {text!r}")
    return int(text)


def _parse_int(text: str) -> int:
    """--n and --a: a count in ASCII digits."""
    try:
        return _count(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    """Accept a single count or a non-empty inclusive 'A..B' span."""
    lo, sep, hi = text.partition("..")
    try:
        span = (_count(lo), _count(hi)) if sep else (_count(text), _count(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}") from None
    if span[0] > span[1]:
        raise argparse.ArgumentTypeError(f"empty n range {text!r}")
    return span


def _parse_cap(text: str) -> int:
    """A non-negative set-count limit."""
    if text.startswith("-"):
        raise argparse.ArgumentTypeError("cap must be non-negative")
    try:
        return _count(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posetcube", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="materialize the chain family over [n]")
    family.add_argument("--n", type=_parse_int, required=True)
    family.add_argument("--a", type=_parse_int, default=None)
    family.add_argument("--cap", type=_parse_cap, default=DEFAULT_MAX_SETS)
    family.add_argument("--out", default=None)
    family.set_defaults(handler=cmd_family)

    embed = sub.add_parser("embed", help="embed a poset file, emit a verified certificate")
    embed.add_argument("--in", dest="in_path", required=True)
    embed.add_argument("--a", type=_parse_int, default=None)
    embed.add_argument("--out", default=None)
    embed.set_defaults(handler=cmd_embed)

    stats = sub.add_parser("stats", help="family size against the bound, per n")
    stats.add_argument("--n", type=_parse_range, required=True, metavar="N or A..B")
    stats.add_argument("--a", type=_parse_int, default=None)
    stats.set_defaults(handler=cmd_stats)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as out:
            out.write(text)


def cmd_family(args: argparse.Namespace) -> int:
    fam = chain_family(args.n, build_universal(args.n, args.a).a, max_sets=args.cap)
    _emit(write_family(fam), args.out)
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    with open(args.in_path) as source:
        p = parse_poset(source.read())
    if p.n < 1:
        raise ValueError("cannot embed the empty poset")
    emb, branch = embed_with_branch(build_universal(p.n, args.a), p)
    _emit(write_embedding(emb), args.out)
    print(f"branch={branch}")
    print("VERIFIED")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    lo, hi = args.n
    blocks = []
    for n in range(lo, hi + 1):
        u = build_universal(n, args.a)
        card = cardinality(u)
        bits = math.log2(card)
        lines = [f"n={n}", f"a={u.a}", f"ell={u.ell}", f"m={u.m}", f"cardinality={card}"]
        lines.append(f"size_bound={size_bound(n, u.a)}")
        lines.append(f"pow2_n={1 << n}")
        lines.append(f"ratio_bits={bits / n:.6f}")
        lines.append(f"excess_bits={(bits - 2 * n / 3) / math.sqrt(n):.6f}")
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
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
