"""Finite posets stored as bit-matrix strict orders.

A poset on n elements keeps one integer bitmask per element: bit v of
``succ[u]`` is set iff u is strictly below v.  The relation is always kept
transitively closed, so comparisons, downsets and closures are single
bitwise operations on machine-word-sized ints for every n this package
targets.  Elements are 0-indexed internally; ground sets of the Boolean
lattice are 1-indexed wherever they are displayed or serialized.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import and_, getitem, lshift, or_, rshift

from .errors import CycleError, FormatError, SizeMismatchError, VerificationError

# Largest element or ground-set count a file header may declare; parsers
# reject bigger ones before allocating anything of that size.
MAX_ELEMENTS = 1 << 16

# one 'u < v' line; MULTILINE lets one findall take the pairs of a whole
# body whose lines are joined by "\n"
_PAIR_RE = re.compile(r"^(\d+)\s*<\s*(\d+)$", re.MULTILINE | re.ASCII)

# The three delta swaps that transpose an 8x8 bit tile held in a 64-bit
# word, byte r being row r (Hacker's Delight, section 7-3): shift and mask.
_TILE_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
# _SELECTORS[value][k] is bit k of the byte value, as a 0 or 1 byte
_SELECTORS = tuple(
    format(value, "08b").encode()[::-1].translate(_DIGIT_VALUES) for value in range(256)
)

# "1", "2", ...: the text of each ground position, grown to the widest mask
# rendered so far and never shrunk or rewritten.
_POSITIONS: list[str] = []
_POSITIONS_LOCK = threading.Lock()


class Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields, in order, in ``__slots__`` (plus
    ``"__dict__"`` if it keeps cached properties) and sets each field once
    in ``__init__`` through ``object.__setattr__``.  Equality holds between
    instances of the same class with equal fields, the hash and the repr
    (``Poset(n=2, succ=(2, 0))``) follow the fields, pickling and copying
    rebuild through ``__init__``, and assigning or deleting any attribute
    raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _selectors(bits: int) -> bytes:
    """One byte per position up to the top bit of bits: 1 where bits is set, else 0.

    itertools.compress(items, _selectors(bits)) keeps items[i] for each
    set bit i, in C.
    """
    return format(bits, "b").encode()[::-1].translate(_DIGIT_VALUES)


def _positions(width: int) -> list[str]:
    """_POSITIONS, grown to hold the text of every position below width."""
    if len(_POSITIONS) < width:
        with _POSITIONS_LOCK:
            _POSITIONS.extend(map(str, range(len(_POSITIONS) + 1, width + 1)))
    return _POSITIONS


def mask_to_text(bits: int) -> str:
    """Render a ground-set bitmask as 1-indexed elements, ``-`` if empty.

    The binary digits of bits select, in C, from a shared list of position
    strings, so no Python step runs per set bit.  masks_to_text renders
    many masks at once.
    """
    if bits == 0:
        return "-"
    return ",".join(compress(_positions(bits.bit_length()), _selectors(bits)))


def masks_to_text(masks: Sequence[int]) -> Iterator[str]:
    """mask_to_text of every mask, built from byte-block text tables.

    The masks are packed into little-endian bytes, byte b of a mask
    holding ground positions 8b+1..8b+8 (the layout of _byte_columns).
    For each byte value that occurs in block b, the text of its set
    positions is built once, and each mask joins the fragments of its
    nonzero bytes.  So the Python steps are one per mask and one per
    distinct (block, byte value), never one per set bit.  The tables live
    for this call only; they hold at most 256 entries per block.  The
    texts are yielded one at a time, so a caller that wraps each in a
    line never holds two copies of the whole text.
    """
    width = max(masks, default=0).bit_length()
    if width == 0:
        return repeat("-", len(masks))
    positions = _positions(width)
    size = (width + 7) // 8
    data = _packed(masks, size)
    tables = []
    for b in range(size):
        table = [""] * 256
        block_positions = positions[8 * b : 8 * b + 8]
        for value in set(data[b::size]):
            table[value] = ",".join(compress(block_positions, _SELECTORS[value]))
        tables.append(table)
    rows = (data[i : i + size] for i in range(0, len(data), size))
    return (",".join(filter(None, map(getitem, tables, row))) or "-" for row in rows)


def _keys(rows: Iterable[int], size: int) -> Iterator[bytes]:
    """Each row as size little-endian bytes."""
    return map(int.to_bytes, rows, repeat(size), repeat("little"))


def _packed(rows: Sequence[int], size: int) -> bytes:
    """The rows as size little-endian bytes each, concatenated in row order."""
    return b"".join(_keys(rows, size))


def _byte_columns(rows: Sequence[int], width: int) -> list[bytes]:
    """The rows transposed at byte granularity, one bytes per byte block.

    Entry b holds byte b (bits 8b..8b+7) of every row, in row order; it is
    one strided slice of the rows' packed bytes.  All rows must fit in
    width bits.
    """
    size = (width + 7) // 8
    data = _packed(rows, size)
    return [data[b::size] for b in range(size)]


def _tile_swaps(count: int) -> tuple[tuple[int, int], ...]:
    """_TILE_SWAPS with each mask repeated once per 64-bit word of count bytes."""
    words = (count + 7) // 8
    return tuple(
        (shift, int.from_bytes(mask.to_bytes(8, "little") * words, "little"))
        for shift, mask in _TILE_SWAPS
    )


def _block_columns(block: bytes, swaps: tuple[tuple[int, int], ...]) -> list[int]:
    """The eight bit columns of a byte block: bit i of column k is bit k of block[i].

    The block is read as one int whose 64-bit words are 8x8 tiles, row i
    in byte i.  Three delta swaps transpose every tile at once, so byte k
    of each word then holds bit k of that word's eight rows, and column k
    is every eighth byte.  swaps comes from _tile_swaps(len(block)).
    """
    x = int.from_bytes(block, "little")
    for shift, mask in swaps:
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    data = x.to_bytes((len(block) + 7) // 8 * 8, "little")
    return [int.from_bytes(data[k::8], "little") for k in range(8)]


def _columns(blocks: Sequence[bytes], count: int) -> list[int]:
    """The eight bit columns of each byte block of count rows, in block order."""
    swaps = _tile_swaps(count)
    columns: list[int] = []
    for block in blocks:
        columns += _block_columns(block, swaps)
    return columns


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The transposed bit matrix: bit i of result[j] is bit j of rows[i].

    rows must fit in width bits.  Each byte block of the rows gives eight
    results at once through _block_columns, about 20 big-int operations.
    """
    return tuple(_columns(_byte_columns(rows, width), len(rows))[:width])


def mask_from_text(text: str, m: int) -> int:
    """Parse the output of :func:`mask_to_text` back into a bitmask.

    Only that output is accepted: ascending decimal elements without
    repeats, signs, leading zeros, underscores or inner spaces.
    """
    text = text.strip()
    if text == "-":
        return 0
    # binary digits, most significant first, read as one int at the end:
    # OR-ing in 1 << (element - 1) would cost a full-width big-int step each
    digits = bytearray(b"0") * m
    for piece in text.split(","):
        try:
            element = int(piece)
        except ValueError:
            raise FormatError(f"bad ground element {piece[:40]!r}") from None
        if not 1 <= element <= m:
            raise FormatError(f"ground element {element} outside [{m}]")
        digits[-element] = 49  # ord("1") at the digit of bit element - 1
    bits = int(digits[digits.find(49):], 2)  # from the top set bit down
    canonical = mask_to_text(bits)
    if canonical != text:
        raise FormatError(f"ground set {text[:40]!r} is not written as {canonical[:40]!r}")
    return bits


class SubsetMask(Frozen):
    """A subset of the ground set [m], held as a bitmask.

    Bit i corresponds to ground element i+1, so bits are 0-indexed while
    the displayed elements are 1-indexed.
    """

    __slots__ = ("m", "bits")

    def __init__(self, m: int, bits: int = 0) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bits", bits)
        if self.m < 0:
            raise ValueError("ground set size must be non-negative")
        if self.bits < 0 or self.bits >> self.m:
            raise ValueError(f"bits {self.bits:#x} outside ground set [{self.m}]")

    @classmethod
    def from_elements(cls, m: int, elements: Iterable[int]) -> "SubsetMask":
        """Build a mask from 1-indexed ground elements."""
        bits = 0
        for e in elements:
            if not 1 <= e <= m:
                raise ValueError(f"element {e} outside ground set [{m}]")
            bits |= 1 << (e - 1)
        return cls(m, bits)

    @classmethod
    def parse(cls, m: int, text: str) -> "SubsetMask":
        return cls(m, mask_from_text(text, m))

    def elements(self) -> tuple[int, ...]:
        """The subset as a sorted tuple of 1-indexed ground elements."""
        return tuple(i + 1 for i in bit_indices(self.bits))

    def issubset(self, other: "SubsetMask") -> bool:
        return self.bits & ~other.bits == 0

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.m and (self.bits >> (element - 1)) & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return mask_to_text(self.bits)


class Embedding(Frozen):
    """Images of poset elements inside the Boolean lattice on [m].

    ``masks[j]`` is the bitmask of the image of element j.  The embedding
    is order-faithful for a companion poset when u <= v iff
    masks[u] is a subset of masks[v]; :func:`check_embedding` verifies
    that together with injectivity.
    """

    __slots__ = ("m", "masks")

    def __init__(self, m: int, masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "masks", masks)
        for j, bits in enumerate(self.masks):
            if bits < 0 or bits >> self.m:
                raise ValueError(f"image {j} does not fit ground set [{self.m}]")

    @property
    def n(self) -> int:
        return len(self.masks)


class EmbeddingCheck(Frozen):
    """Verdict of an embedding check, with a witness pair on failure."""

    __slots__ = ("ok", "witness", "reason")

    def __init__(
        self, ok: bool, witness: tuple[int, int] | None = None, reason: str | None = None
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


class Poset(Frozen):
    """A strict partial order on n elements, stored transitively closed.

    ``succ[u]`` has bit v set iff u is strictly below v.  Construction
    validates irreflexivity, antisymmetry and transitive closedness, so a
    Poset value can always be trusted downstream.

    from_relations certifies the closure reach that it computes against
    the input arcs, heads[u] listing the heads of u's arcs and direct[u]
    being their mask: reach[u] == direct[u] | OR(reach[v] for v in
    heads[u]), and no bit u in reach[u], for every u.  Then reach is the
    closure.  Every path of arcs lands in reach, by induction on its
    length.  A bit of reach[u] on no path from u must come from the row
    of a head, where it is on no path either, and so on without end: the
    walk closes a cycle of arcs, which sets a reflexive bit.  The check
    runs in C, with no Python step per arc, and no picks run.

    Given masks are checked by greedy cover picks (:func:`_picks_union`):
    each row takes its lowest successor v not yet accounted for, requires
    succ[v] within succ[u], and clears succ[v] | 1 << v from what is left.
    That is exact for an irreflexive relation.  A successor w of u that is
    never picked lies in succ[s] for a pick s with succ[s] within succ[u];
    repeat the argument for w in row s.  The chain u, s, s', ... has
    shrinking successor sets and cannot repeat, since a repeat would put
    an element below itself, so it ends at a pick and succ[w] lies within
    succ[u].  Irreflexive and transitive gives antisymmetric.  The Python
    steps are the picks, never more than the comparable pairs, and often
    far fewer.  A rejected (u, v) is a real violation, but it need not be
    the lexicographically first one.
    """

    __slots__ = ("n", "succ", "__dict__")  # __dict__ holds pred and covers

    def __init__(self, n: int, succ: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "succ", succ)
        if n < 0:
            raise ValueError("element count must be non-negative")
        if len(succ) != n:
            raise ValueError("need exactly one successor mask per element")
        full = (1 << n) - 1
        # accept in C: every row within [0, full], no row u holding bit u;
        # the loop only names the first offender
        if n and (
            min(succ) < 0
            or max(succ) > full
            or any(map(and_, map(rshift, succ, range(n)), repeat(1)))
        ):
            for u, row in enumerate(succ):
                if row < 0 or row & ~full:
                    raise ValueError(f"row {u} mentions elements outside range")
                if (row >> u) & 1:
                    raise ValueError(f"irreflexivity violated at element {u}")
        # the picks are exact only once every row is known irreflexive; an
        # empty row has none
        for u in compress(range(n), succ):
            _picks_union(succ, u)

    @classmethod
    def from_relations(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Transitively close generator pairs (u below v) into a poset.

        Pairs need not be cover relations and duplicates are tolerated.
        Raises CycleError if the closure would put an element below itself,
        and VerificationError (a bug) if the closure fails its certificate.
        """
        direct = [0] * n
        heads: list[list[int]] = [[] for _ in direct]
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"pair ({u}, {v}) outside element range")
            if u == v:
                raise CycleError(f"element {u} cannot be strictly below itself")
            direct[u] |= 1 << v
            heads[u].append(v)
        reach = transitive_closure(n, direct)
        implied = list(map(reduce, repeat(or_), map(map, repeat(reach.__getitem__), heads), direct))
        if implied != reach or any(map(and_, map(rshift, reach, range(n)), repeat(1))):
            u = next(u for u, row in enumerate(reach) if row != implied[u] or row >> u & 1)
            raise VerificationError(f"transitive closure wrong at row {u}")
        return cls._certified(n, tuple(reach))

    @classmethod
    def _certified(cls, n: int, succ: tuple[int, ...]) -> "Poset":
        """A Poset of a certified closure (see Poset): sets the fields, runs no picks."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "succ", succ)
        return p

    @classmethod
    def chain(cls, n: int) -> "Poset":
        """The total order 0 < 1 < ... < n-1."""
        full = (1 << n) - 1
        return cls(n, tuple(full ^ ((1 << (u + 1)) - 1) for u in range(n)))

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        """n pairwise incomparable elements."""
        return cls(n, (0,) * n)

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """Predecessor masks: bit u of pred[v] set iff u is strictly below v."""
        return transpose(self.succ, self.n)

    @cached_property
    def covers(self) -> tuple[int, ...]:
        """Cover masks: successors not reachable through an intermediate element.

        What an intermediate element reaches is the union of succ over the
        greedy cover picks of the row, which by transitivity equals the
        union over all of its successors.
        """
        succ = self.succ
        return tuple(row & ~_picks_union(succ, u) for u, row in enumerate(succ))

    def less(self, u: int, v: int) -> bool:
        """Strict comparison u < v."""
        return (self.succ[u] >> v) & 1 == 1

    def leq(self, u: int, v: int) -> bool:
        """Reflexive comparison u <= v."""
        return u == v or (self.succ[u] >> v) & 1 == 1


def _picks_union(succ: Sequence[int], u: int) -> int:
    """The union of succ[v] over the greedy cover picks v of row u (see Poset).

    Raises ValueError at the first pick v with succ[v] not within succ[u].
    """
    rest = row = succ[u]
    via = 0
    while rest:
        lsb = rest & -rest
        v = lsb.bit_length() - 1
        below = succ[v]
        if below & ~row:
            if (below >> u) & 1:
                raise ValueError(f"antisymmetry violated on ({u}, {v})")
            raise ValueError(f"relation not transitively closed at ({u}, {v})")
        via |= below
        rest = (rest ^ lsb) & ~via
    return via


def transitive_closure(n: int, direct: Sequence[int]) -> list[int]:
    """Close direct successor masks under transitivity via DFS.

    Each stack entry is [element, heads still pending, reach gathered so
    far].  A child already finished is ORed in when its arc is taken, and
    a child finished later ORs its reach into its parent's entry when it
    is popped.  Either way the pending heads that the child's reach holds
    are dropped unvisited.  They have all finished (by induction, all that
    a finished element reaches has finished, or a cycle error would have
    been raised), and each one's reach lies within the child's, so
    visiting them would only OR in bits that are already there.  So every
    arc is visited at most once, and an arc implied by others is mostly
    not visited at all.  A head without successors finishes where it is
    met, without a push.  Raises CycleError on the first back edge, i.e.
    as soon as the closure would force some u strictly below itself; the
    dropped heads were never on the stack, so the error names the same
    element as a walk over every arc.
    """
    reach = [0] * n
    state = bytearray(n)  # 0 unvisited, 1 on the DFS stack, 2 finished
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [[root, direct[root], direct[root]]]
        while stack:
            top = stack[-1]
            pending = top[1]
            if pending:
                lsb = pending & -pending
                v = lsb.bit_length() - 1
                if state[v] == 1:
                    raise CycleError(f"cycle through element {v}")
                pending ^= lsb
                if state[v] == 0:
                    top[1] = pending
                    if direct[v]:
                        state[v] = 1
                        stack.append([v, direct[v], direct[v]])
                    else:
                        state[v] = 2  # reach[v] stays 0
                else:
                    below = reach[v]
                    top[1] = pending & ~below if pending & below else pending
                    top[2] |= below
            else:
                stack.pop()
                u, _, row = top
                reach[u] = row
                state[u] = 2
                if stack:
                    top = stack[-1]
                    top[2] |= row
                    if top[1] & row:
                        top[1] &= ~row
    return reach


def folklore_embed(p: Poset) -> Embedding:
    """Embed p into the full Boolean lattice on [n] by downset indices.

    Position v is the up-set column of element v (the universal module
    states the rule), so element j maps to the elements at or below j.
    """
    return Embedding(p.n, transpose([row | 1 << v for v, row in enumerate(p.succ)], p.n))


def check_embedding(p: Poset, emb: Embedding) -> EmbeddingCheck:
    """Verify that emb is an order-faithful injective embedding of p.

    The relation checked is "u <= v iff image(u) is contained in image(v)"
    for every ordered pair, so incomparable pairs must fail containment
    both ways.  Column i of the images is the set of elements whose image
    holds position i, so image(u) lies within image(v) iff every column
    that holds u also holds v.  Hence emb is order-faithful iff (a) every
    column is an up-set, which gives containment for u <= v, and (b) for
    every pair with u not <= v, some column holds u but not v.
    Injectivity then follows from antisymmetry: equal images are contained
    both ways, which the order allows for no two distinct elements.

    The images are transposed once into their columns, about 20*w/8
    big-int operations with w the top bit of the images.  The principal
    up-sets up(x) = succ[x] | 1 << x are generated from succ wherever a
    step reads them, and never kept as a second list.  Two exact accepts
    read the columns:

    - The up-set accept takes emb if w = n and its columns, sorted, are
      the n up-sets, sorted.  That is (a), and for u not <= v the column
      up(u) holds u but not v.  The lists are compared sorted, not as sets
      of ints: an int hashes to its value modulo 2^61 - 1, so the up-sets
      2^n - 2^x of a chain fall into 61 hash classes and a set of them
      takes quadratic time.  Folklore and chain-cover certificates are
      their up-set columns reordered, so they pass.
    - Otherwise the label accept (_label_accept) tries the criterion that
      certificates of the label construction meet; its proof is in its
      docstring.  It also takes up-set columns with repeats (w > n), with
      every element in its B.

    Any other emb gets the full check, with the same verdict, witness and
    reason whether or not the accepts ran.  Equal images are reported
    first, as "duplicate images".  Then _containment's byte-block pass,
    which reuses the columns, gives for every u the elements whose image
    contains image(u), which must be exactly up(u); the witness is the
    first offending pair in (u, v) order.
    """
    if emb.n != p.n:
        raise SizeMismatchError(f"embedding has {emb.n} images for {p.n} elements")
    n, masks = p.n, emb.masks
    w = max(masks, default=0).bit_length()
    blocks = _byte_columns(masks, w)
    columns = _columns(blocks, n)
    if w == n and sorted(columns[:w]) == sorted(_up_sets(p.succ)) or _label_accept(
        p, masks, columns[:w]
    ):
        return EmbeddingCheck(True)
    seen: dict[int, int] = {}
    for j, bits in enumerate(masks):
        if bits in seen:
            return EmbeddingCheck(False, (seen[bits], j), "duplicate images")
        seen[bits] = j
    for u, (row, up) in enumerate(zip(_containment(n, blocks, columns), _up_sets(p.succ))):
        wrong = row ^ up
        if wrong:
            v = (wrong & -wrong).bit_length() - 1
            reason = "containment without order" if row >> v & 1 else "order without containment"
            return EmbeddingCheck(False, (u, v), reason)
    return EmbeddingCheck(True)


def _up_sets(succ: Sequence[int]) -> Iterator[int]:
    """The principal up-sets up(x) = succ[x] | 1 << x, in element order."""
    return map(or_, succ, map(lshift, repeat(1), range(len(succ))))


def _bits(positions: Iterable[int]) -> int:
    """The mask with the given bit positions set, built in C."""
    return reduce(or_, map(lshift, repeat(1), positions), 0)


def _label_accept(p: Poset, masks: Sequence[int], columns: list[int]) -> bool:
    """Does the label criterion show that the images masks embed p?

    columns are the columns of the images up to their top bit, by
    position (see check_embedding).  Write up(x) = succ[x] | 1 << x and
    down(z) = pred[z] | 1 << z.  The criterion:

    1. B, the set of x whose up(x) is a column, is a down-set.  So Y, the
       rest, is an up-set.
    2. The other columns lie within Y and together cover Y.
    3. K is the set of z in Y for which Y - down(z) is a column, and Z
       the set of z in K that every column of 2 not of that form holds.
       The window W is every column of 2 except the Y - down(z), z in Z.
    4. L = Y - Z is an antichain, and no element of Z lies below one of L.
    5. For v in L, the row R(v), the set of window columns that hold v, is
       different for every v and of one size for all v, and is never all
       of W.

    Proof that the criterion is exact, with (a) and (b) as in
    check_embedding.  First, every window column holds Z: a column not of
    the form Y - down(k) does by the choice of Z, and Y - down(k) for k
    in K - Z, which lies in L, holds every z in Z, since z <= k would put
    z below an element of L (4).  (a): up(x) is an up-set, and
    Y - down(z) is the meet of two up-sets.  Let a window column C hold u,
    and u < v.  Then v is in Y, since u is (2).  u is in Z or in L, so v
    is not in L (4), so v is in Z, which C holds.  (b): let u not <= v.
    - u in B: the column up(u) holds u but not v.
    - u in Y, v in B: some column of 2 holds u, and it lies within Y.
    - u in Y, v in Z: the column Y - down(v) holds u but not v.
    - u in Z, v in L: some window column misses v (5), and it holds u.
    - u and v in L: R(u) and R(v) are distinct and of one size, so R(u)
      is not within R(v), and some window column holds u but not v.
    Y is Z together with L, so these cases are every pair.

    The label construction (antichain module) meets 1-5 with B its below
    block, Z its above block and L the chosen antichain, whenever each of
    its columns plays one role.  A label column can also be Y - down(y)
    for an antichain element y (the column of label bit 0 at a = 4 is Y
    without the third element); then y is in K, but a label column misses
    it, so y stays in L and the column in W.  A label or above column that
    is also some element's up(x), which small budgets allow, puts that
    element in B, and the criterion fails.  A declined certificate gets
    the full check.

    The columns are matched by their bytes, not as ints.  An int hashes to
    its value modulo 2^61 - 1, so sets that differ in one element, such
    as the columns Y - down(z) of an antichain, fall into 61 hash classes
    and make set operations quadratic; bytes hash well and keep their
    hash.  Beyond the conversions, B is one intersection of key sets, 2
    and 4 are reduces over n-bit ints in C, K takes one operation per
    element of Y on p.pred (which classify has already computed on the
    label branch), and R(v) is masks[v] at one position of each window
    column, so no second transpose runs.
    """
    n, succ = p.n, p.succ
    size = (n + 7) // 8
    where = dict(zip(_keys(columns, size), range(len(columns))))  # a position of each column
    up = dict(zip(_keys(_up_sets(succ), size), range(n)))
    principal = where.keys() & up.keys()
    below = _bits(map(up.__getitem__, principal))
    del up  # the peak comes later, with the keys of co
    rest = ((1 << n) - 1) ^ below  # Y
    others = where.keys() - principal
    if reduce(or_, map(columns.__getitem__, map(where.__getitem__, others)), 0) != rest:  # 2
        return False
    # everything above some element of Y: within Y iff Y is an up-set (1),
    # and disjoint from L iff 4 holds
    reach = reduce(or_, compress(succ, _selectors(rest)), 0)
    if reach & below:
        return False
    pred = p.pred
    ys = list(compress(range(n), _selectors(rest)))
    co = dict(zip(_keys((rest & ~(pred[z] | 1 << z) for z in ys), size), ys))
    fits = others & co.keys()  # the columns Y - down(k)
    window = list(map(where.__getitem__, others - fits))  # a position of each
    fit = _bits(map(co.__getitem__, fits))  # K
    above = fit & reduce(and_, map(columns.__getitem__, window), rest)  # Z
    for z in bit_indices(fit ^ above):  # its column joins the window
        window.append(where[(rest & ~(pred[z] | 1 << z)).to_bytes(size, "little")])
    antichain = rest ^ above  # L
    if reach & antichain:  # 4
        return False
    held = _bits(window)
    rows = set(map(and_, compress(masks, _selectors(antichain)), repeat(held)))
    return (
        len(rows) == antichain.bit_count()
        and len(set(map(int.bit_count, rows))) <= 1
        and held not in rows
    )  # 5


def _containment(n: int, blocks: Sequence[bytes], columns: Sequence[int]) -> list[int]:
    """Bit v of row u is set iff image u lies within image v.

    blocks are the images' byte blocks (_byte_columns) up to their top
    bit, and columns[8*b : 8*b + 8] the eight ground-set columns of block
    b (_block_columns), which check_embedding has already computed.  All
    n*n pairs are decided at once, one byte block of the ground set at a
    time (the Four Russians method).  A 256-entry table, built
    incrementally, gives for every byte value s the AND of the columns of
    the positions in s, and each element u folds table[byte of image u]
    into its row.  Blocks above the top bit would hold only zero bytes,
    and table[0] is the full mask, so they would change no row; for the
    same reason a zero byte below the top bit is skipped, not folded.
    That is about n*w/8 + 32*w big-int operations on n-bit ints, instead
    of n*n Python steps, with w the top bit of the images.
    """
    full = (1 << n) - 1
    inside = [full] * n
    for b, block in enumerate(blocks):
        table = [full]
        for column in columns[8 * b : 8 * b + 8]:
            table += [t & column for t in table]
        inside = [row & table[x] if x else row for row, x in zip(inside, block)]
    return inside


def random_poset(n: int, edge_prob: float, seed: int) -> Poset:
    """Sample a random poset, deterministically for a fixed seed.

    Draws a uniformly random linear order on the elements, keeps each
    forward arc independently with probability edge_prob, and closes the
    resulting DAG transitively.
    """
    import random  # only sampling needs it; keeps it out of CLI start-up

    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    direct = [0] * n
    for i in range(n):
        row = 0
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                row |= 1 << order[j]
        direct[order[i]] = row
    return Poset(n, tuple(transitive_closure(n, direct)))


def write_poset(p: Poset) -> str:
    """Serialize a poset: first line n, then one 'u < v' line per cover pair."""
    lines = [str(p.n)]
    for u in range(p.n):
        for v in bit_indices(p.covers[u]):
            lines.append(f"{u} < {v}")
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def parse_int(digits: str, line: str) -> int:
    """int(digits) for a run of decimal digits from the given line of a file.

    int refuses a string over the interpreter's digit limit (4300 by
    default) with ValueError; that becomes a FormatError naming the line.
    """
    try:
        return int(digits)
    except ValueError:
        raise FormatError(f"number too long in line starting {line[:40]!r}") from None


def parse_poset(text: str) -> Poset:
    """Parse the poset text format; '#' starts a comment, blank lines skipped.

    Lines are stripped, and the pairs taken by one findall over the body,
    without a Python step per line.  Only when a line is no pair (the
    findall comes up short of one pair per line) or a number is too long
    for int (see parse_int) is the body matched line by line, to name the
    first bad line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(filter(None, map(str.strip, lines)))
    if not lines:
        raise FormatError("empty poset file")
    try:
        if not (lines[0].isascii() and lines[0].isdigit()):
            raise ValueError  # int() would also take "+3", "1_0" and non-ASCII digits
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"expected element count on first line, got {lines[0][:40]!r}") from None
    if not 0 <= n <= MAX_ELEMENTS:
        raise FormatError(f"element count {n} outside [0, {MAX_ELEMENTS}]")
    body = lines[1:]
    found = _PAIR_RE.findall("\n".join(body))
    try:
        ends = list(map(int, chain.from_iterable(found))) if len(found) == len(body) else None
    except ValueError:  # a number too long for int
        ends = None
    if ends is None:
        ends = []
        for line in body:
            match = _PAIR_RE.match(line)
            if not match:
                raise FormatError(f"expected 'u < v', got {line[:40]!r}")
            ends += [parse_int(digits, line) for digits in match.groups()]
    try:
        return Poset.from_relations(n, zip(ends[::2], ends[1::2]))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
