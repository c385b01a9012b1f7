"""Small universal subfamilies of the Boolean lattice, with certified embeddings.

The package builds, for each n, a family of subsets of [n] of size
roughly 2^(2n/3) that contains an isomorphic copy of every n-element
poset under set containment, and produces the witnessing embeddings.
The lower-level pieces stay importable from their own modules.
"""

from .chainfamily import parse_family, write_family
from .errors import (
    CycleError,
    FormatError,
    LimitError,
    MemoryLimitError,
    PosetCubeError,
    SizeMismatchError,
    VerificationError,
)
from .poset import (
    Poset,
    SubsetMask,
    check_embedding,
    parse_poset,
    random_poset,
    write_poset,
)
from .universal import (
    build_universal,
    cardinality,
    embed,
    embed_with_branch,
    membership,
    parse_embedding,
    size_bound,
    write_embedding,
)

__version__ = "0.1.0"

__all__ = [
    "CycleError",
    "FormatError",
    "LimitError",
    "MemoryLimitError",
    "Poset",
    "PosetCubeError",
    "SizeMismatchError",
    "SubsetMask",
    "VerificationError",
    "build_universal",
    "cardinality",
    "check_embedding",
    "embed",
    "embed_with_branch",
    "membership",
    "parse_embedding",
    "parse_family",
    "parse_poset",
    "random_poset",
    "size_bound",
    "write_embedding",
    "write_family",
    "write_poset",
]
