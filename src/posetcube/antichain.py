"""Embedding posets with a large antichain into a shrunken Boolean lattice.

Fix an antichain A of size a in a poset on n elements and let ell be the
least width for which the middle binomial coefficient reaches a.  The
ground set [n-a+ell] splits into three blocks: positions for the elements
lying below A, a label block of width ell whose half-size subsets tag the
antichain elements, and positions for everything else.  Every position
is held by an up-set of the poset (the rule of the universal module); the
a antichain elements share the ell label positions, which is what buys
the drop from n to n-a+ell ground elements.
"""

from __future__ import annotations

import math
from itertools import islice

from .errors import NotAnAntichainError, SizeError
from .poset import Embedding, Frozen, Poset, bit_indices, transpose


def min_ell(a: int) -> int:
    """Least ell >= 0 whose middle binomial coefficient is at least a."""
    if a < 1:
        raise ValueError("need at least one label")
    ell = 0
    while math.comb(ell, ell // 2) < a:
        ell += 1
    return ell


def colex_half_subsets(lo: int, ell: int, count: int) -> tuple[int, ...]:
    """First `count` masks of the (ell//2)-subsets of bits lo..lo+ell-1, colex order.

    Colex order on k-subsets is the numeric order of their masks, so these
    are the least ints below 2^ell with ell//2 set bits, shifted up by lo.
    """
    half = ell // 2
    available = math.comb(ell, half)
    if count > available:
        raise ValueError(f"only {available} labels available, need {count}")
    masks = (x << lo for x in range(1 << ell) if x.bit_count() == half)
    return tuple(islice(masks, count))


class AntichainSplit(Frozen):
    """The three-block layout induced by a chosen antichain.

    ``below`` holds the elements under some antichain element, ``above``
    the rest, both ascending; ``antichain`` pairs with ``label_masks``
    positionally.  ``b`` and ``ell`` fix the ground-set geometry: below
    elements occupy positions 1..b, labels live in [b+1, b+ell], above
    elements take [b+ell+1, ..] in listed order.
    """

    __slots__ = ("below", "antichain", "above", "ell", "label_masks")

    def __init__(
        self,
        below: tuple[int, ...],
        antichain: tuple[int, ...],
        above: tuple[int, ...],
        ell: int,
        label_masks: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "below", below)
        object.__setattr__(self, "antichain", antichain)
        object.__setattr__(self, "above", above)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "label_masks", label_masks)
        parts = (*self.below, *self.antichain, *self.above)
        if len(set(parts)) != len(parts):
            raise ValueError("blocks overlap")
        if len(self.label_masks) != len(self.antichain):
            raise ValueError("one label per antichain element required")
        window = ((1 << self.ell) - 1) << self.b
        half = self.ell // 2
        if len(set(self.label_masks)) != len(self.label_masks):
            raise ValueError("label sets must be distinct")
        for mask in self.label_masks:
            if mask & ~window:
                raise ValueError("label outside the label block")
            if mask.bit_count() != half:
                raise ValueError(f"label size {mask.bit_count()}, expected {half}")

    @property
    def b(self) -> int:
        return len(self.below)

    @property
    def n(self) -> int:
        return len(self.below) + len(self.antichain) + len(self.above)

    @property
    def ground_size(self) -> int:
        return self.b + self.ell + len(self.above)


def _antichain_mask(p: Poset, elements: tuple[int, ...]) -> int:
    mask = 0
    for y in elements:
        if not 0 <= y < p.n:
            raise ValueError(f"element {y} outside poset range")
        mask |= 1 << y
    for y in elements:
        if p.succ[y] & mask:
            other = next(bit_indices(p.succ[y] & mask))
            raise NotAnAntichainError(f"elements {y} and {other} are comparable")
    return mask


def classify(p: Poset, antichain: frozenset[int] | tuple[int, ...]) -> AntichainSplit:
    """Split the poset into below / antichain / above blocks for embedding.

    Below holds every non-antichain element under some antichain element;
    everything else lands above.  Labels are the colex-least half-size
    subsets of the label window, assigned to antichain elements in
    ascending order.
    """
    members = tuple(sorted(antichain))
    a_mask = _antichain_mask(p, members)
    below = []
    above = []
    for u in range(p.n):
        if (a_mask >> u) & 1:
            continue
        if p.succ[u] & a_mask:
            below.append(u)
        else:
            above.append(u)
    # an element below A can never also sit above an antichain element,
    # else the two antichain elements would be comparable through it
    for x in below:
        assert not p.pred[x] & a_mask, "below element above the antichain"
    ell = min_ell(len(members))
    labels = colex_half_subsets(len(below), ell, len(members))
    return AntichainSplit(tuple(below), members, tuple(above), ell, labels)


def embed_with_antichain(
    p: Poset, antichain: frozenset[int] | tuple[int, ...]
) -> Embedding:
    """Embed p into the Boolean lattice on [n-a+ell] using the antichain.

    The m up-set columns (the universal module states the rule) are, in
    ground order:

    - below position i (element x_i): the elements at or over x_i,
      succ[x_i] | 1 << x_i;
    - label position j: every above element and the antichain elements
      whose label has it;
    - above position t (element z_t): the antichain and above elements not
      at or under z_t, the complement of pred[z_t] | 1 << z_t.

    Distinct labels of one size keep the antichain images pairwise
    incomparable.
    """
    split = classify(p, antichain)
    if len(split.antichain) < 2:
        raise SizeError("antichain embedding needs at least two elements")
    full = (1 << p.n) - 1
    above = sum(1 << z for z in split.above)
    top = full ^ sum(1 << x for x in split.below)  # antichain and above
    labels = [above] * split.ell
    for y, label in zip(split.antichain, split.label_masks):
        for j in bit_indices(label >> split.b):
            labels[j] |= 1 << y
    succ, pred = p.succ, p.pred
    columns = [succ[x] | 1 << x for x in split.below]
    columns += labels
    columns += [top & ~(pred[z] | 1 << z) for z in split.above]
    return Embedding(split.ground_size, transpose(columns, p.n))
