"""The top-level public API: exactly the names the embedding job needs."""

from __future__ import annotations

import posetcube

PUBLIC = {
    "parse_poset",
    "write_poset",
    "parse_embedding",
    "write_embedding",
    "parse_family",
    "write_family",
    "Poset",
    "SubsetMask",
    "random_poset",
    "build_universal",
    "embed",
    "embed_with_branch",
    "membership",
    "cardinality",
    "size_bound",
    "check_embedding",
    "CycleError",
    "FormatError",
    "InfeasibleError",
    "LimitError",
    "MemoryLimitError",
    "NotAnAntichainError",
    "PosetCubeError",
    "SizeError",
    "SizeMismatchError",
    "VerificationError",
}


def test_all_is_exactly_the_public_names():
    assert len(posetcube.__all__) == len(PUBLIC) == 26
    assert set(posetcube.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace: dict[str, object] = {}
    exec("from posetcube import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(posetcube, name)
