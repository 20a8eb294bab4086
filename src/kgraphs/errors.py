"""Exception hierarchy for the kgraphs package.

Everything raised on purpose derives from KGraphError so callers (and the CLI)
can map failures to exit codes without matching on strings.
"""


class KGraphError(Exception):
    """Base class for all kgraphs errors."""


class InputFormatError(KGraphError):
    """Malformed external input (JSON document, path literal, CLI value)."""


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


class ConvergenceError(KGraphError):
    """Power iteration failed to converge within the iteration budget."""


class NonConstantRatioError(KGraphError):
    """Rayleigh ratios disagree beyond tolerance; input family is suspect."""


class NotPeriodicError(KGraphError):
    """A degree pair (m, n) with m - n outside the periodicity group."""


class PeriodicityUndecidedError(KGraphError):
    """Membership of a difference in the periodicity group could not be
    decided within the enumeration cap."""


class EnumerationCapError(KGraphError):
    """An enumeration would exceed the graph's cap (KGraph.cap)."""


class WitnessSearchError(KGraphError):
    """No separating-tail witness found up to the requested degree bound."""
