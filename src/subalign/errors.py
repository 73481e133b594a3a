"""Exception types shared across the package."""


class SubalignError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SubalignError):
    """Invalid user-supplied configuration or parameters."""


class ShapeError(SubalignError):
    """Incompatible array shapes between operands."""


class ParseError(SubalignError):
    """Malformed input file."""


class RangeError(SubalignError):
    """A scalar map leaves its admissible range."""


class IllConditionedError(SubalignError):
    """A linear system is numerically singular."""


class RankDeficiencyError(SubalignError):
    """Requested components exceed the numerical rank."""


class PostselectionError(SubalignError):
    """Postselection outcome has (near-)zero probability."""
