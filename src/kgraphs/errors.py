"""Exception hierarchy for the kgraphs package.

Everything raised on purpose derives from KGraphError.  Each class carries
how the CLI reports it, inherited unless overridden: ``kind`` names the
failure on stderr and ``exit_code`` is the process's exit code.
"""


class KGraphError(Exception):
    """Base class for all kgraphs errors; a validation or precondition
    failure unless a subclass says otherwise."""

    kind = "validation failure"
    exit_code = 1


class InputFormatError(KGraphError):
    """Malformed external input (JSON document, path literal, CLI value)."""

    kind = "input error"
    exit_code = 3


class BoundError(KGraphError):
    """An enumeration or search bound was exceeded."""

    kind = "bound exceeded"
    exit_code = 2


class GraphValidationError(KGraphError):
    """The graph data does not satisfy the square/cubical axioms."""


class CompositionError(KGraphError):
    """Paths with mismatched endpoints (or from different graphs) composed."""


class SegmentRangeError(KGraphError):
    """Requested segment degrees outside 0 <= m <= n <= d(path)."""


class NotStronglyConnectedError(KGraphError):
    """Operation requires a strongly connected graph."""


class NotIrreducibleError(KGraphError):
    """No box sum of matrix powers is entrywise positive within the bound."""


class ConvergenceError(BoundError):
    """Power iteration failed to converge within the iteration budget."""


class NonConstantRatioError(BoundError):
    """Rayleigh ratios disagree beyond tolerance; input family is suspect."""


class NotPeriodicError(KGraphError):
    """A degree pair (m, n) with m - n outside the periodicity group."""


class PeriodicityUndecidedError(BoundError):
    """Membership of a difference in the periodicity group could not be
    decided within the enumeration cap."""


class EnumerationCapError(BoundError):
    """An enumeration would exceed the graph's cap (KGraph.cap)."""


class WitnessSearchError(BoundError):
    """No separating-tail witness found up to the requested degree bound."""
