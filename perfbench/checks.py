"""Output checks that share no code with posetcube.

Every benchmark op is judged here, outside the timed region, from the
input text the op was given and the bytes it produced.  Nothing in this
module imports the library: the order comes from the benchmark's own
parse and closure of the input, a certificate is read by its own parser,
and family membership is decided by a memoized search over cell layouts
instead of the library's partition scan or materialized family.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

_PAIR_RE = re.compile(r"^(\d+)\s*<\s*(\d+)$")
_HEADER_RE = re.compile(r"^n=(\d+)\s+m=(\d+)$")
_IMAGE_RE = re.compile(r"^(\d+):\s*(.+)$")


def ones(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def read_poset(text: str) -> list[int]:
    """Up-sets of the poset in the text format: bit v of up[u] iff u <= v.

    The relation is closed by walking a topological order backwards, so a
    cyclic input raises ValueError instead of returning a non-order.
    """
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    n = int(lines[0])
    succ = [0] * n
    for line in lines[1:]:
        match = _PAIR_RE.match(line)
        if not match:
            raise ValueError(f"bad pair line {line!r}")
        succ[int(match.group(1))] |= 1 << int(match.group(2))
    indegree = [0] * n
    for row in succ:
        for v in ones(row):
            indegree[v] += 1
    order = [u for u in range(n) if indegree[u] == 0]
    for u in order:
        for v in ones(succ[u]):
            indegree[v] -= 1
            if indegree[v] == 0:
                order.append(v)
    if len(order) != n:
        raise ValueError("input relation has a cycle")
    up = [0] * n
    for u in reversed(order):
        row = 1 << u
        for v in ones(succ[u]):
            row |= up[v]
        up[u] = row
    return up


def read_certificate(text: str) -> tuple[int, list[int]]:
    """Ground size and image masks (bit e-1 for element e) of a certificate."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise ValueError(f"bad certificate header {lines[0]!r}")
    count, ground = int(header.group(1)), int(header.group(2))
    if len(lines) - 1 != count:
        raise ValueError(f"header promises {count} images, found {len(lines) - 1}")
    masks = []
    for j, line in enumerate(lines[1:]):
        match = _IMAGE_RE.match(line)
        if not match or int(match.group(1)) != j:
            raise ValueError(f"expected image line {j}, got {line!r}")
        bits = 0
        if match.group(2).strip() != "-":
            for piece in match.group(2).split(","):
                element = int(piece)
                if not 1 <= element <= ground:
                    raise ValueError(f"element {element} outside [{ground}]")
                bits |= 1 << (element - 1)
        masks.append(bits)
    return ground, masks


def order_faithful(up: list[int], masks: list[int]) -> bool:
    """Injective, and u <= v iff image(u) is a subset of image(v), all pairs.

    Bit-sliced: column e holds the elements whose image contains e, so the
    elements whose image contains image(u) are the AND of u's columns.
    """
    n = len(up)
    if len(masks) != n or len(set(masks)) != n:
        return False
    columns: dict[int, int] = {}
    for v, bits in enumerate(masks):
        for e in ones(bits):
            columns[e] = columns.get(e, 0) | (1 << v)
    everyone = (1 << n) - 1
    for u, bits in enumerate(masks):
        supersets = everyone
        for e in ones(bits):
            supersets &= columns[e]
        if supersets != up[u]:
            return False
    return True


def default_budget(n: int) -> int:
    """The antichain budget a = ceil(n/3) that the library defaults to."""
    return -(-n // 3)


def lattice_ground(n: int, a: int) -> int:
    """m = n - a + ell, with ell the least width whose middle binomial reaches a."""
    if a < 2:
        return n
    ell = 0
    while math.comb(ell, ell // 2) < a:
        ell += 1
    return n - a + ell


def min_cells(bits: int, n: int) -> int:
    """Fewest cells of a weakly decreasing layout of [n] meeting bits in prefixes.

    A cell is met in a prefix iff it holds no 0 followed by a 1, so every
    0->1 step forces a cut and splits [n] into blocks of the form 1^x 0^y,
    inside which any cut is allowed.  Cell sizes must not increase from
    left to right, so a block of length L cut into k cells under a cap c
    needs ceil(L/c) <= k, and the largest smallest-cell it can leave for
    the blocks to its right is L // k.  The search memoizes on (block,
    cap); a larger cap never needs more cells, so only that largest
    smallest-cell is worth trying for each k.
    """
    starts = [0]
    steps = bits & ~(bits << 1) & ~1 & ((1 << n) - 1)
    starts.extend(ones(steps))
    blocks = [hi - lo for lo, hi in zip(starts, starts[1:] + [n])]

    @lru_cache(maxsize=None)
    def cells(i: int, cap: int) -> int:
        if i == len(blocks):
            return 0
        length = blocks[i]
        best = n + 1
        last = None
        for k in range(-(-length // cap), length + 1):
            smallest = length // k
            if smallest == last:
                continue
            last = smallest
            best = min(best, k + cells(i + 1, smallest))
            if k >= best:
                break
        return best

    return cells(0, n)


def in_chain_family(bits: int, n: int, a: int) -> bool:
    """Is bits in the union of per-cell prefix families over layouts of <= a cells?"""
    return min_cells(bits, n) <= a


def in_universal_family(bits: int, n: int, a: int) -> bool:
    """Membership in the chain part over [n] or the lattice part over [m]."""
    if bits < 0 or bits >> n:
        return False
    return bits >> lattice_ground(n, a) == 0 or in_chain_family(bits, n, a)


def certificate_ok(poset_text: str, certificate: str) -> bool:
    """Does the certificate embed the input poset into the default family?"""
    up = read_poset(poset_text)
    n = len(up)
    ground, masks = read_certificate(certificate)
    if ground != n or not order_faithful(up, masks):
        return False
    a = default_budget(n)
    return all(in_universal_family(bits, n, a) for bits in masks)
