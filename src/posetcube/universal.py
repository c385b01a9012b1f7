"""The small universal family and its embedding dispatcher.

For n-element posets the family over [n] unions two parts: the per-cell
prefix families for partitions into at most a parts, which absorb every
poset of width at most a, and the full Boolean lattice over the first
m = n - a + ell ground elements, which absorbs every poset containing an
a-element antichain via the label construction.  With a about n/3 the
total count stays near 2^(2n/3), far below the 2^n of the naive downset
embedding, while still containing every n-element poset as an induced
subfamily.

All three constructions build an embedding the same way.  They list the
m ground positions as columns, column i being the set of elements whose
image holds position i, and call poset.transpose once to get the images.
Every column is an up-set of the poset, so u <= v already gives
image(u) within image(v); check_embedding verifies the converse and
injectivity.  Each construction's docstring lists its columns.
"""

from __future__ import annotations

import re

from .antichain import embed_with_antichain, min_ell
from .chainfamily import (
    chain_family_counts,
    embed_bounded_antichain,
    member_of_chain_family,
    partition_count,
)
from .dilworth import ChainDecomposition, cover_or_antichain
# unused here, but the benchmark's tracer test wraps universal.max_antichain
from .dilworth import max_antichain  # noqa: F401
from .errors import FormatError, SizeMismatchError, VerificationError
from .poset import (
    MAX_ELEMENTS,
    Embedding,
    Frozen,
    Poset,
    SubsetMask,
    check_embedding,
    folklore_embed,
    mask_from_text,
    masks_to_text,
    parse_int,
)

BRANCH_CHAIN = "chain-cover"
BRANCH_ANTICHAIN = "antichain-labels"
BRANCH_FOLKLORE = "folklore"

_HEADER_RE = re.compile(r"^n=(\d+)\s+m=(\d+)$", re.ASCII)
_IMAGE_RE = re.compile(r"^(\d+):\s*(.+)$", re.ASCII)


class UniversalFamily(Frozen):
    """A family of subsets of [n] containing every n-element poset.

    The family is a formula fixed by (n, a, ell, m); nothing is
    materialized.  Its chain part, chain_family(n, a), is decided by the
    partition scan and counted by a block DP; the lattice part is every
    subset of [m].  For a < 2 the label construction is unavailable and
    the family degrades to the whole of 2^[n], encoded by m = n.
    """

    __slots__ = ("n", "a", "ell", "m")

    def __init__(self, n: int, a: int, ell: int, m: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m", m)


def build_universal(n: int, a: int | None = None) -> UniversalFamily:
    """The parameters (n, a, ell, m) of the universal family for n-element posets."""
    if n < 1:
        raise ValueError("need at least one element")
    if a is None:
        a = -(-n // 3)  # the chain/antichain split, n/3 rounded up
    if not 1 <= a <= n:
        raise ValueError(f"antichain budget {a} outside [1, {n}]")
    ell = min_ell(a)
    return UniversalFamily(n, a, ell, n - a + ell if a >= 2 else n)


def membership(u: UniversalFamily, t: SubsetMask) -> bool:
    """Is t a member of the family?

    Masks inside [m] are in the lattice part; every other mask goes
    through the partition scan of the chain part (member_of_chain_family,
    capped at n = PARTITION_SCAN_CAP).
    """
    if t.m != u.n:
        raise SizeMismatchError(f"mask over [{t.m}] tested against family over [{u.n}]")
    return t.bits >> u.m == 0 or member_of_chain_family(t, u.n, u.a)


def cardinality(u: UniversalFamily) -> int:
    """Exact family size: chain part plus the lattice part, overlap once.

    Both counts of the chain part come from the block DP of
    chain_family_counts, so nothing is materialized at any n.
    """
    chain, chain_inside_m = chain_family_counts(u.n, u.a, u.m)
    return chain + (1 << u.m) - chain_inside_m


def size_bound(n: int, a: int | None = None) -> int:
    """Upper bound p(n)*a*(ceil(n/a)+1)^a + 2^m on the family size.

    a and m are those of build_universal(n, a).  Exact integer arithmetic;
    the second term dominates for large n and carries the 2n/3 exponent
    once a is about n/3.
    """
    u = build_universal(n, a)
    chain_term = partition_count(n) * u.a * (-(-n // u.a) + 1) ** u.a
    return chain_term + (1 << u.m)


def embed_with_branch(u: UniversalFamily, p: Poset) -> tuple[Embedding, str]:
    """Embed p into the family, returning the dispatch branch taken.

    One matching of p decides the branch (cover_or_antichain).  Posets of
    width at most a go through its minimum chain cover; the rest donate an
    a-element antichain, the smallest-indexed elements of the maximum one
    read off the same matching, to the label construction, whose images
    live inside [m]; no chains are built for them.  The antichain is the
    one min_chain_decomposition(p).antichain gives, so the certificate is
    too.  The result is verified before being returned: order-faithfulness
    via check_embedding and family membership of every image via a branch
    witness, so a returned embedding is always a valid certificate.
    """
    if p.n != u.n:
        raise SizeMismatchError(f"poset has {p.n} elements, family expects {u.n}")
    dec = None
    if u.a < 2:
        emb, branch = folklore_embed(p), BRANCH_FOLKLORE
    else:
        dec, antichain = cover_or_antichain(p, u.a)
        if dec is not None:
            emb, branch = embed_bounded_antichain(p, u.a, dec), BRANCH_CHAIN
        else:
            chosen = antichain[: u.a]
            inner = embed_with_antichain(p, chosen)
            if inner.m != u.m:
                raise VerificationError(
                    f"label construction used ground [{inner.m}], expected [{u.m}]"
                )
            emb, branch = Embedding(u.n, inner.masks), BRANCH_ANTICHAIN
    _verify(u, p, emb, branch, dec)
    return emb, branch


def embed(u: UniversalFamily, p: Poset) -> Embedding:
    """Embed p into the family; the result is a verified certificate."""
    return embed_with_branch(u, p)[0]


def _verify(
    u: UniversalFamily,
    p: Poset,
    emb: Embedding,
    branch: str,
    dec: ChainDecomposition | None,
) -> None:
    """Check order-faithfulness and per-image membership, raising on failure.

    Order-faithfulness is check_embedding.  Every certificate costs it one
    transpose of the images and the principal up-sets succ[c] | 1 << c.
    Folklore and chain-cover images pass its up-set accept: their columns
    are exactly those up-sets, one per element.  Label images pass its
    label accept, which recognises the construction's below, label and
    above columns from p alone (the proofs are in check_embedding and
    _label_accept).  A certificate that neither accepts, which only a
    small budget can give the label branch, goes through the byte-block
    pass over all pairs at once, about n*w/8 operations on n-bit ints with
    w the top bit of the images (README, "What a verified embed costs").
    Membership is established through a branch-specific witness instead
    of the general predicate, so verification works at any n.
    dec is the minimum chain cover read off the matching on the chain
    branch and None on the others, which build no chains.  Chain-cover
    images must be per-cell prefix unions of the partition given by the
    chain lengths of dec, which must be positive, weakly
    decreasing and sum to n in at most a parts; _chain_escape tests each
    image with one expression.  The other branches must produce subsets of
    [m], which the largest image decides; the images are scanned only to
    name the one that escapes.
    """
    verdict = check_embedding(p, emb)
    if not verdict:
        raise VerificationError(
            f"embedding not order-faithful at pair {verdict.witness}: {verdict.reason}"
        )
    if branch == BRANCH_CHAIN:
        parts = dec.lengths
        decreasing = all(x >= y > 0 for x, y in zip(parts, parts[1:]))
        if sum(parts) != u.n or len(parts) > u.a or not decreasing:
            raise VerificationError(
                f"chain cover {parts} is no partition of {u.n} into at most {u.a} parts"
            )
        j = _chain_escape(emb.masks, parts)
        if j is not None:
            raise VerificationError(f"image of element {j} escapes the chain family")
    elif max(emb.masks, default=0) >> u.m:
        j = next(j for j, bits in enumerate(emb.masks) if bits >> u.m)
        raise VerificationError(f"image of element {j} escapes the lattice part")


def _chain_escape(masks: tuple[int, ...], parts: tuple[int, ...]) -> int | None:
    """The first j whose masks[j] is no per-cell prefix union of parts, else None.

    With starts marking the first position of each cell, a mask inside
    [sum(parts)] is a per-cell prefix union iff bits & ~(bits << 1) & ~starts
    is 0: a set bit whose lower neighbour is clear may only open a cell.
    """
    starts = lo = 0
    for part in parts:
        starts |= 1 << lo
        lo += part
    for j, bits in enumerate(masks):
        if bits & ~(bits << 1) & ~starts:
            return j
    return None


def write_embedding(emb: Embedding) -> str:
    """Serialize an embedding: header 'n=<n> m=<m>', then 'j: elements'."""
    lines = [f"n={emb.n} m={emb.m}"]
    lines += [f"{j}: {text}" for j, text in enumerate(masks_to_text(emb.masks))]
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def parse_embedding(text: str) -> Embedding:
    """Parse the embedding text format back into an Embedding."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty embedding file")
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise FormatError(f"bad embedding header {lines[0][:40]!r}")
    n, m = parse_int(header.group(1), lines[0]), parse_int(header.group(2), lines[0])
    if max(n, m) > MAX_ELEMENTS:
        raise FormatError(f"header n={n} m={m} exceeds {MAX_ELEMENTS}")
    body = lines[1:]
    if len(body) != n:
        raise FormatError(f"header promises {n} images, file has {len(body)}")
    masks = []
    for j, line in enumerate(body):
        match = _IMAGE_RE.match(line)
        if not match or parse_int(match.group(1), line) != j:
            raise FormatError(f"expected image line for element {j}, got {line[:40]!r}")
        masks.append(mask_from_text(match.group(2), m))
    try:
        return Embedding(m, tuple(masks))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
