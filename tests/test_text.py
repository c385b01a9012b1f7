"""The text readers and writers against the per-line and per-mask paths they replaced.

write_embedding and write_family render every mask through one call of
masks_to_text, parse_poset takes its pairs with one findall,
transitive_closure visits each arc once, and ChainDecomposition accepts
a valid cover without a Python step per pair.  The oracles in helpers.py
do the same jobs one line, one mask, one arc or one pair at a time.
Written text must be byte-identical; a parse must give the same Poset or
raise the same exception type with the same message.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetcube import CycleError, Poset, random_poset, write_poset
from posetcube.chainfamily import SetFamily, chain_family, write_family
from posetcube.dilworth import ChainDecomposition, min_chain_decomposition
from posetcube.errors import PosetCubeError
from posetcube.poset import Embedding, masks_to_text, parse_poset, transitive_closure
from posetcube.universal import build_universal, embed_with_branch, write_embedding
from helpers import (
    mask_to_text_reference,
    parse_poset_reference,
    transitive_closure_reference,
    validate_chains_reference,
    write_embedding_reference,
    write_family_reference,
)


def outcome(parse, text: str):
    """What parse makes of text: the Poset, or the exception's type and message."""
    try:
        return parse(text)
    except (PosetCubeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_parse(text: str) -> None:
    assert outcome(parse_poset, text) == outcome(parse_poset_reference, text)


def assert_same_text(emb: Embedding) -> None:
    assert write_embedding(emb) == write_embedding_reference(emb)
    family = SetFamily(emb.m, tuple(sorted(set(emb.masks))))
    assert write_family(family) == write_family_reference(family)


# line breaks that str.splitlines splits at; the findall pattern's
# anchors see only \n, which the library joins the stripped lines with
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028")
SPACES = ("", " ", "\t", "  \t", "\xa0", "\u3000")
ASCII_SPACES = ("", " ", "\t", "  \t")
# zero of each digit block: ASCII, Arabic-Indic, Devanagari, fullwidth
DIGIT_ZEROS = ("0", "\u0660", "\u0966", "\uff10")
MALFORMED = ("0 <", "< 1", "1 > 0", "a < b", "0 < 1 < 2", "0 <= 1", "-1 < 0", "x", "0 1", "+0 < 1")


def spelled(number: int, zero: str) -> str:
    """number in decimal, written with the digit block that starts at zero."""
    return "".join(chr(ord(zero) + int(d)) for d in str(number))


@st.composite
def poset_texts(draw):
    """A poset file with random spacing, line breaks, digits, comments and blanks.

    Some draws add a reversed pair (a cycle), a self-loop or one
    malformed line at a random position.  Half the draws keep the digits
    and the spaces inside a line ASCII; the others may use non-ASCII
    digits and spaces there, which the format rejects.
    """
    n = draw(st.integers(0, 12))
    p = random_poset(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**32)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = [tuple(map(int, line.split(" < "))) for line in write_poset(p).splitlines()[1:]]
    fault = draw(st.sampled_from(("none", "cycle", "self", "malformed")))
    if fault == "cycle" and pairs:
        u, v = rng.choice(pairs)
        pairs.insert(rng.randrange(len(pairs) + 1), (v, u))
    elif fault == "self" and n:
        pairs.insert(rng.randrange(len(pairs) + 1), (rng.randrange(n), None))
    ascii_only = draw(st.booleans())
    zero = "0" if ascii_only else draw(st.sampled_from(DIGIT_ZEROS))
    comments = draw(st.booleans())

    def pad() -> str:
        return rng.choice(SPACES)

    def inner() -> str:
        return rng.choice(ASCII_SPACES if ascii_only else SPACES)

    def decorate(line: str) -> str:
        if comments and rng.random() < 0.3:
            line += pad() + "# note < 3"
        return pad() + line + pad()

    lines = [decorate(spelled(n, zero))]
    for u, v in pairs:
        v = u if v is None else v
        lines.append(decorate(f"{spelled(u, zero)}{inner()}<{inner()}{spelled(v, zero)}"))
    if fault == "malformed":
        lines.insert(rng.randrange(len(lines) + 1), decorate(rng.choice(MALFORMED)))
    for _ in range(rng.randrange(4)):  # blank, whitespace-only and comment-only lines
        filler = rng.choice(("", pad(), "# only a comment" if comments else ""))
        lines.insert(rng.randrange(len(lines) + 1), filler)
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + brk for line, brk in zip(lines, breaks))


class TestParsePoset:
    @settings(max_examples=400, deadline=None)
    @given(poset_texts())
    @example("2\n0 <\n1\n")  # a pair split over two lines: findall can join them
    @example("2\n0\n< 1\n")
    @example("2\n0 <\r\n1\n")
    @example("3\n0 <\x0b1\n1 < 2\n")
    @example("2\n0 <\t\n\t1\n")
    @example("")
    @example("\n \t\n")
    @example("# only\n")
    @example("3\n0 < 1\n1 < 2\n2 < 0\n")
    @example("2\n0 < 1\n0 < 1\n")
    @example("2\n0 < 2\n")
    @example("65537\n")
    @example("\u0663\n\u0660 < \u0661\n")
    @example("2\n0 < 1 # c\r1 < 0\n")
    def test_equals_reference(self, text):
        assert_same_parse(text)

    def test_round_trips_of_the_benchmark_shapes(self):
        for n, q in ((600, 3 / 600), (200, 0.3)):
            p = random_poset(n, q, 5)
            text = write_poset(p)
            assert parse_poset(text) == parse_poset_reference(text) == p
            assert write_poset(parse_poset(text)) == text


def random_direct(n: int, q: float, rng: random.Random, back_arcs: int) -> list[int]:
    """Direct successor masks of a random DAG, plus back_arcs arcs that may close cycles."""
    order = list(range(n))
    rng.shuffle(order)
    direct = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < q:
                direct[order[i]] |= 1 << order[j]
    for _ in range(back_arcs if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        direct[u] |= 1 << v
    return direct


def closure_outcome(close, n: int, direct):
    try:
        return close(n, direct)
    except CycleError as exc:
        return str(exc)


class TestClosure:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 60),
        st.floats(0, 1),
        st.integers(0, 3),
        st.integers(0, 2**32),
    )
    def test_equals_reference(self, n, q, back_arcs, seed):
        direct = random_direct(n, q, random.Random(seed), back_arcs)
        assert closure_outcome(transitive_closure, n, direct) == closure_outcome(
            transitive_closure_reference, n, direct
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(1, 8),
        st.floats(0, 1),
        st.integers(0, 3),
        st.integers(0, 2**32),
    )
    def test_leaf_heavy_equals_reference(self, n, inner, q, back_arcs, seed):
        # only `inner` elements have arcs; every other element is a leaf.
        # Back arcs among the inner elements close cycles that pass next
        # to leaves.
        rng = random.Random(seed)
        inner_elements = rng.sample(range(n), min(inner, n))
        direct = [0] * n
        for u in inner_elements:
            for v in range(n):
                if v != u and rng.random() < q:
                    direct[u] |= 1 << v
        for _ in range(back_arcs if len(inner_elements) > 1 else 0):
            u, v = rng.sample(inner_elements, 2)
            direct[u] |= 1 << v
        assert closure_outcome(transitive_closure, n, direct) == closure_outcome(
            transitive_closure_reference, n, direct
        )

    @pytest.mark.parametrize(
        "direct, outcome",
        [
            ([0b1110, 0, 0, 0], [0b1110, 0, 0, 0]),  # a star of leaves
            ([0b0110, 0b1001, 0, 0], "cycle through element 0"),  # a leaf on each side
            ([0b0010, 0b1100, 0, 0b0001], "cycle through element 0"),
            ([0, 0b100, 0b001, 0], [0, 0b101, 0b001, 0]),  # leaf 0 reached twice
        ],
    )
    def test_leaves_next_to_cycles(self, direct, outcome):
        assert closure_outcome(transitive_closure, len(direct), direct) == outcome
        assert closure_outcome(transitive_closure_reference, len(direct), direct) == outcome

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 60),
        st.floats(0, 1),
        st.floats(0, 1),
        st.integers(0, 3),
        st.integers(0, 2**32),
    )
    def test_implied_arcs_equal_reference(self, n, q, keep, back_arcs, seed):
        # the arcs are a random share of the closure of a random DAG, so
        # most heads are implied by others and are dropped unvisited;
        # back arcs close cycles among them
        rng = random.Random(seed)
        reach = transitive_closure_reference(n, random_direct(n, q, rng, 0))
        direct = [sum(1 << v for v in range(n) if row >> v & 1 and rng.random() < keep) for row in reach]
        for _ in range(back_arcs if n > 1 else 0):
            u, v = rng.sample(range(n), 2)
            direct[u] |= 1 << v
        assert closure_outcome(transitive_closure, n, direct) == closure_outcome(
            transitive_closure_reference, n, direct
        )

    def test_every_comparable_pair_of_a_path(self):
        # each element lists every element above it; in ascending order the
        # first head's reach holds all the others
        n = 300
        direct = [((1 << n) - 1) ^ ((1 << (u + 1)) - 1) for u in range(n)]
        assert transitive_closure(n, direct) == direct
        direct[-1] = 1  # the top element back to the bottom closes a cycle
        assert closure_outcome(transitive_closure, n, direct) == closure_outcome(
            transitive_closure_reference, n, direct
        )

    def test_long_path(self):
        n = 3000  # deeper than the recursion limit, one arc per element
        direct = [1 << (u + 1) for u in range(n - 1)] + [0]
        assert transitive_closure(n, direct) == transitive_closure_reference(n, direct)
        direct[-1] = 1  # and the same path closed into a cycle
        assert closure_outcome(transitive_closure, n, direct) == "cycle through element 0"


# single bits on both sides of a byte boundary, and the largest position
SINGLE_BITS = (7, 8, 15, 16, 65535)


class TestWriters:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 16), min_size=1, max_size=8),
        st.integers(0, 8),
        st.randoms(use_true_random=False),
    )
    def test_random_masks(self, widths, thinning, rng):
        masks = []
        for width in widths:
            bits = rng.getrandbits(width)
            for _ in range(thinning):  # halve the density each round
                bits &= rng.getrandbits(width)
            masks.append(bits)
        assert list(masks_to_text(masks)) == list(map(mask_to_text_reference, masks))
        assert_same_text(Embedding(max(widths), tuple(masks)))

    @pytest.mark.parametrize("position", SINGLE_BITS)
    def test_single_bits(self, position):
        masks = (1 << position, 0, (1 << position) | 1, 1 << position)
        assert list(masks_to_text(masks)) == list(map(mask_to_text_reference, masks))
        assert_same_text(Embedding(position + 1, masks))

    @pytest.mark.parametrize("m, count", [(0, 0), (0, 1), (5, 0), (5, 3), (65536, 2)])
    def test_empty_images(self, m, count):
        emb = Embedding(m, (0,) * count)
        assert list(masks_to_text(emb.masks)) == ["-"] * count
        assert_same_text(emb)

    @pytest.mark.parametrize("a", [None, 1, 2])
    @pytest.mark.parametrize("n, q", [(2, 0.0), (9, 0.0), (9, 0.3), (40, 0.1), (120, 3 / 120)])
    @pytest.mark.parametrize("seed", range(3))
    def test_certificates_of_every_branch(self, n, q, seed, a):
        p = random_poset(n, q, seed)
        emb, _ = embed_with_branch(build_universal(n, a), p)
        assert_same_text(emb)

    def test_branches_are_all_reached(self):
        branches = {
            embed_with_branch(build_universal(n, a), random_poset(n, q, 0))[1]
            for n, q, a in ((9, 0.0, None), (40, 1.0, None), (9, 0.3, 1))
        }
        assert branches == {"chain-cover", "antichain-labels", "folklore"}

    @pytest.mark.parametrize("n", range(1, 17))
    def test_chain_families(self, n):
        for a in range(1, n + 1):
            family = chain_family(n, a)
            assert write_family(family) == write_family_reference(family)


class TestChainAccept:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 30),
        st.floats(0, 1),
        st.integers(0, 2**32),
        st.sampled_from(
            (
                "none", "swap", "drop", "duplicate", "replace",
                "reverse", "move", "outside", "negative",
            )
        ),
        st.randoms(use_true_random=False),
    )
    def test_same_verdict_and_message(self, n, q, seed, fault, rng):
        p = random_poset(n, q, seed)
        chains = [list(c) for c in min_chain_decomposition(p).chains]
        flat = [(i, k) for i, c in enumerate(chains) for k in range(len(c))]
        if fault == "swap" and len(flat) > 1:
            (i, k), (j, l) = rng.sample(flat, 2)
            chains[i][k], chains[j][l] = chains[j][l], chains[i][k]
        elif fault == "drop" and flat:
            i, k = rng.choice(flat)
            del chains[i][k]
        elif fault == "duplicate" and flat:
            i, k = rng.choice(flat)
            chains[rng.randrange(len(chains))].append(chains[i][k])
        elif fault == "replace" and flat:  # same count, but a repeat or an outsider
            i, k = rng.choice(flat)
            chains[i][k] = rng.randrange(n + 2)
        elif fault == "reverse" and chains:
            chains[rng.randrange(len(chains))].reverse()
        elif fault == "move" and flat:
            i, k = rng.choice(flat)
            chains.append([chains[i].pop(k)])
        elif fault == "outside":
            chains.append([n + rng.randrange(3)])
        elif fault == "negative" and flat:  # inserted before or after an element
            i, k = rng.choice(flat)
            chains[i].insert(k + rng.randrange(2), -1 - rng.randrange(3))
        chains = tuple(tuple(c) for c in chains)
        assert raised(ChainDecomposition, p, chains) == raised(validate_chains_reference, p, chains)

    @pytest.mark.parametrize(
        "chains, u",
        [(((2, 1), (0,)), 2), (((-1, 1), (0,)), -1), (((0,), (1,), (5,)), 5), (((1,), (0, 7)), 7)],
    )
    def test_element_outside_range_is_named(self, chains, u):
        expected = (ValueError, f"element {u} outside poset range")
        p = Poset(2, (2, 0))
        assert raised(ChainDecomposition, p, chains) == expected
        assert raised(validate_chains_reference, p, chains) == expected


def raised(check, *args):
    """The type and message of what check(*args) raises, None if nothing."""
    try:
        check(*args)
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc)
    return None
