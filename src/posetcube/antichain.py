"""Embedding posets with a large antichain into a shrunken Boolean lattice.

Fix an antichain A of size a in a poset on n elements and let ell be the
least width for which the middle binomial coefficient reaches a.  The
ground set [n-a+ell] splits into three blocks: positions for the elements
lying below A, a label block of width ell whose half-size subsets tag the
antichain elements, and positions for everything else.  Every position
is held by an up-set of the poset (the rule of the universal module); the
a antichain elements share the ell label positions, which is what buys
the drop from n to n-a+ell ground elements.  The blocks are element
masks from classify, and the label block is listed straight from them.
"""

from __future__ import annotations

import math
from itertools import islice

from .errors import NotAnAntichainError, SizeError
from .poset import Embedding, Poset, bit_indices, transpose


def min_ell(a: int) -> int:
    """Least ell >= 0 whose middle binomial coefficient is at least a."""
    if a < 1:
        raise ValueError("need at least one label")
    ell = 0
    while math.comb(ell, ell // 2) < a:
        ell += 1
    return ell


def colex_half_subsets(ell: int, count: int) -> tuple[int, ...]:
    """First `count` masks of the (ell//2)-subsets of bits 0..ell-1, colex order.

    Colex order on k-subsets is the numeric order of their masks, so these
    are the least ints below 2^ell with ell//2 set bits.
    """
    half = ell // 2
    available = math.comb(ell, half)
    if count > available:
        raise ValueError(f"only {available} labels available, need {count}")
    masks = (x for x in range(1 << ell) if x.bit_count() == half)
    return tuple(islice(masks, count))


def classify(p: Poset, antichain: frozenset[int] | tuple[int, ...]) -> tuple[int, int, int]:
    """Split the elements into (below, chosen, above) masks for embedding.

    chosen holds the antichain, below every element under some antichain
    element (the union of their pred masks), above everything else.  No
    below element also sits over an antichain element, else two antichain
    elements would be comparable through it.  Raises ValueError on an
    element out of range or listed twice, NotAnAntichainError on a
    comparable pair.
    """
    chosen = 0
    for y in antichain:
        if not 0 <= y < p.n:
            raise ValueError(f"element {y} outside poset range")
        if chosen >> y & 1:
            raise ValueError(f"element {y} listed twice")
        chosen |= 1 << y
    succ, pred = p.succ, p.pred
    below = 0
    for y in bit_indices(chosen):
        if succ[y] & chosen:
            other = next(bit_indices(succ[y] & chosen))
            raise NotAnAntichainError(f"elements {y} and {other} are comparable")
        below |= pred[y]
    return below, chosen, ((1 << p.n) - 1) ^ below ^ chosen


def embed_with_antichain(
    p: Poset, antichain: frozenset[int] | tuple[int, ...]
) -> Embedding:
    """Embed p into the Boolean lattice on [n-a+ell] using the antichain.

    The m up-set columns (the universal module states the rule) are, in
    ground order:

    - below position i (element x_i, ascending): the elements at or over
      x_i, succ[x_i] | 1 << x_i;
    - label position j: every above element and the antichain elements
      whose label has bit j, labels being the colex-least half-size
      subsets of the window, given to the antichain in ascending order
      (one transpose of the rows that hold each element's label);
    - above position t (element z_t, ascending): the antichain and above
      elements not at or under z_t, the complement of pred[z_t] | 1 << z_t.

    Distinct labels of one size keep the antichain images pairwise
    incomparable.
    """
    below, chosen, above = classify(p, antichain)
    a = chosen.bit_count()
    ell = min_ell(a)
    if a < 2:
        raise SizeError("antichain embedding needs at least two elements")
    rows = [0] * p.n
    for y, label in zip(bit_indices(chosen), colex_half_subsets(ell, a)):
        rows[y] = label
    succ, pred = p.succ, p.pred
    columns = [succ[x] | 1 << x for x in bit_indices(below)]
    columns += [above | column for column in transpose(rows, ell)]
    columns += [(chosen | above) & ~(pred[z] | 1 << z) for z in bit_indices(above)]
    return Embedding(len(columns), transpose(columns, p.n))
