"""Exception hierarchy and record base class for the kgraphs package.

Everything raised on purpose derives from KGraphError.  Each class carries
how the CLI reports it, inherited unless overridden: ``kind`` names the
failure on stderr and ``exit_code`` is the process's exit code.
"""


class Record:
    """An immutable record, as a frozen dataclass, without ``dataclasses``.

    The fields are the subclass's own annotated names, in order; a class
    attribute of that name is the field's default.  A record takes its
    fields by position or by name, then runs ``__post_init__`` if it has
    one.  Its repr reads ``Name(field=value!r, ...)``; records of one class
    are equal when their field tuples are, and hash as that tuple.
    ``replace(**changes)`` copies a record with the named fields changed.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        # the first record of a class compiles the class's own __init__, as
        # dataclasses does when it builds the class: a process compiles
        # only what it builds, and Python's signature checks the arguments
        cls, fields = type(self), self._fields
        slotted = "__slots__" in vars(cls)
        defaults = {} if slotted else vars(cls)
        params = [f"{f}=_d[{f!r}]" if f in defaults else f for f in fields]
        space = {"_set": object.__setattr__, "_d": defaults}
        if slotted:     # a slot's own descriptor sets it with no name lookup
            space.update((f"_set_{f}", vars(cls)[f].__set__) for f in fields)
        body = [f"_set_{f}(self, {f})" if slotted
                else f"_set(self, {f!r}, {f})" for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n    "
             + "\n    ".join(body), space)
        cls.__init__ = space["__init__"]
        cls.__init__(self, *args, **kwargs)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __eq__(self, other):
        return self._values() == other._values() \
            if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change the field {name!r} of a record")

    __delattr__ = __setattr__


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
