"""Value semantics of the package's nine immutable classes.

Each class is pinned on what callers can see: equality (same class only),
hashing that agrees with it, fields that cannot be assigned or deleted,
the exact repr, pickle and copy round trips, and every ValueError its
constructor raises.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from posetcube.antichain import AntichainSplit
from posetcube.chainfamily import PartitionSeq, SetFamily
from posetcube.dilworth import ChainDecomposition
from posetcube.poset import Embedding, EmbeddingCheck, Poset, SubsetMask
from posetcube.universal import UniversalFamily

CHAIN2 = Poset(2, (2, 0))

# (class, constructor arguments, a different value's arguments, exact repr)
CASES = [
    (Poset, (2, (2, 0)), (2, (0, 0)), "Poset(n=2, succ=(2, 0))"),
    (SubsetMask, (3, 5), (3, 4), "SubsetMask(m=3, bits=5)"),
    (Embedding, (2, (1, 3)), (2, (1, 2)), "Embedding(m=2, masks=(1, 3))"),
    (
        EmbeddingCheck,
        (False, (0, 1), "duplicate images"),
        (False, (1, 0), "duplicate images"),
        "EmbeddingCheck(ok=False, witness=(0, 1), reason='duplicate images')",
    ),
    (
        ChainDecomposition,
        (CHAIN2, ((0, 1),)),
        (Poset(2, (0, 0)), ((0,), (1,))),
        "ChainDecomposition(poset=Poset(n=2, succ=(2, 0)), chains=((0, 1),))",
    ),
    (
        AntichainSplit,
        ((0,), (1, 2), (3,), 2, (2, 4)),
        ((0,), (1, 2), (3,), 2, (4, 2)),
        "AntichainSplit(below=(0,), antichain=(1, 2), above=(3,), ell=2, label_masks=(2, 4))",
    ),
    (PartitionSeq, ((2, 1),), ((1, 1, 1),), "PartitionSeq(parts=(2, 1))"),
    (SetFamily, (2, (0, 1, 3)), (2, (0, 3)), "SetFamily(m=2, masks=(0, 1, 3))"),
    (UniversalFamily, (9, 3, 3, 9), (9, 4, 3, 8), "UniversalFamily(n=9, a=3, ell=3, m=9)"),
]

IDS = [case[0].__name__ for case in CASES]

FIELDS = {
    Poset: ("n", "succ"),
    SubsetMask: ("m", "bits"),
    Embedding: ("m", "masks"),
    EmbeddingCheck: ("ok", "witness", "reason"),
    ChainDecomposition: ("poset", "chains"),
    AntichainSplit: ("below", "antichain", "above", "ell", "label_masks"),
    PartitionSeq: ("parts",),
    SetFamily: ("m", "masks"),
    UniversalFamily: ("n", "a", "ell", "m"),
}


def _copy_args(args):
    """The same arguments in fresh containers, so equality is not identity."""
    return tuple(copy.deepcopy(arg) for arg in args)


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_equality_is_by_value_and_class(cls, args, other, text):
    x, y = cls(*args), cls(*_copy_args(args))
    assert x is not y and x == y and not x != y
    assert x != cls(*other)

    class Twin(cls):
        """The same fields under another class."""

    twin = Twin(*args)
    assert x != twin and twin != x
    assert x != args


def test_classes_with_the_same_field_names_differ():
    assert Embedding(2, (0, 1)) != SetFamily(2, (0, 1))


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_hash_agrees_with_equality(cls, args, other, text):
    x, y = cls(*args), cls(*_copy_args(args))
    assert hash(x) == hash(y)
    assert len({x, y, cls(*other)}) == 2


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, other, text):
    x = cls(*args)
    for name, value in zip(FIELDS[cls], args):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == value
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_repr_is_exact(cls, args, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, args, other, text):
    x = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert back == x and type(back) is cls and repr(back) == text
    for clone in (copy.copy(x), copy.deepcopy(x)):
        assert clone == x and type(clone) is cls and repr(clone) == text


def test_cached_values_survive_a_round_trip():
    p = Poset.chain(4)
    dec = ChainDecomposition(p, ((0, 1, 2, 3),))
    assert p.pred == (0, 1, 3, 7) and p.covers == (2, 4, 8, 0)
    assert dec.lengths == (4,) and dec.antichain == frozenset({3})
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert q == p and q.pred == p.pred and q.covers == p.covers
    back = pickle.loads(pickle.dumps(dec))
    assert back == dec and back.lengths == (4,) and back.antichain == frozenset({3})


def test_keywords_and_defaults():
    assert SubsetMask(m=3, bits=5) == SubsetMask(3, 5)
    assert SubsetMask(3) == SubsetMask(3, 0)
    assert EmbeddingCheck(True) == EmbeddingCheck(True, None, None)
    assert EmbeddingCheck(ok=False, reason="r", witness=(0, 1)).witness == (0, 1)
    assert Poset(n=2, succ=(2, 0)) == CHAIN2
    assert UniversalFamily(n=9, a=3, ell=3, m=9) == UniversalFamily(9, 3, 3, 9)


# (class, constructor arguments, a fragment of the ValueError message)
INVALID = [
    (Poset, (-1, ()), "element count must be non-negative"),
    (Poset, (2, (0,)), "need exactly one successor mask per element"),
    (Poset, (2, (4, 0)), "row 0 mentions elements outside range"),
    (Poset, (2, (-1, 0)), "row 0 mentions elements outside range"),
    (Poset, (2, (1, 0)), "irreflexivity violated at element 0"),
    (Poset, (2, (2, 1)), "antisymmetry violated on (0, 1)"),
    (Poset, (3, (2, 4, 0)), "relation not transitively closed at (0, 1)"),
    (SubsetMask, (-1, 0), "ground set size must be non-negative"),
    (SubsetMask, (2, 4), "bits 0x4 outside ground set [2]"),
    (SubsetMask, (2, -1), "outside ground set [2]"),
    (Embedding, (2, (1, 4)), "image 1 does not fit ground set [2]"),
    (Embedding, (2, (-1,)), "image 0 does not fit ground set [2]"),
    (ChainDecomposition, (CHAIN2, ((0, 1), (1,))), "element 1 appears in two chains"),
    (ChainDecomposition, (CHAIN2, ((1, 0),)), "chain pair (1, 0) not ordered"),
    (ChainDecomposition, (CHAIN2, ((0,),)), "chains do not cover every element"),
    (AntichainSplit, ((0,), (0, 1), (), 2, (2, 4)), "blocks overlap"),
    (AntichainSplit, ((0,), (1, 2), (), 2, (2,)), "one label per antichain element required"),
    (AntichainSplit, ((0,), (1, 2), (), 2, (2, 2)), "label sets must be distinct"),
    (AntichainSplit, ((0,), (1, 2), (), 2, (2, 8)), "label outside the label block"),
    (AntichainSplit, ((0,), (1, 2), (), 2, (2, 6)), "label size 2, expected 1"),
    (PartitionSeq, ((1, 2),), "parts not weakly decreasing: (1, 2)"),
    (PartitionSeq, ((2, 0),), "parts must be positive"),
    (SetFamily, (2, (1, 1)), "masks must be strictly increasing"),
    (SetFamily, (2, (3, 1)), "masks must be strictly increasing"),
    (SetFamily, (2, (1, 4)), "mask 0x4 outside ground set [2]"),
]


@pytest.mark.parametrize(
    "cls, args, message", INVALID, ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(INVALID)]
)
def test_constructor_rejects(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert message in str(info.value)
