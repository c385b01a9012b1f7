"""Exception types shared across the package."""


class PosetCubeError(Exception):
    """Base class for every error raised by this package."""


class CycleError(PosetCubeError):
    """Generator pairs force an element strictly below itself."""


class LimitError(PosetCubeError):
    """Requested computation exceeds a hard safety cap."""


class MemoryLimitError(PosetCubeError):
    """Materializing a set family would exceed the configured cap."""


class SizeMismatchError(PosetCubeError):
    """Poset size does not match its companion object."""


class VerificationError(PosetCubeError):
    """An internal consistency check failed; this indicates a bug."""


class FormatError(PosetCubeError):
    """Malformed text input for one of the file formats."""
