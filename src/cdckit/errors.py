"""Exception types shared across the package, and ``record``, which makes its value classes."""

from operator import attrgetter


def record(cls=None, *, frozen=True):
    """``dataclass(frozen=frozen)`` on the annotated fields of ``cls``, with no code generated:
    class attributes give defaults, repr skips ``_`` names, and the class's own
    ``__init__``, ``__eq__`` and ``__hash__`` are kept."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    fields, get, show = set(names), attrgetter(*names), [n for n in names if n[0] != "_"]

    def __init__(self, *args, **kw):
        (d := self.__dict__).update(defaults)
        d.update(zip(names, args) if args else ())
        d.update(kw)
        if (len(args) > len(names) or len(d) != len(names)  # too many, or missing
                or kw and not kw.keys() <= fields  # unknown
                or args and kw and not kw.keys().isdisjoint(names[:len(args)])):  # twice
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in show)})"

    def refuse(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    own = cls.__dict__.get
    cls.__init__, cls.__repr__ = own("__init__", __init__), __repr__
    cls.__eq__ = own("__eq__", lambda s, o: get(s) == get(o) if o.__class__ is s.__class__
                     else NotImplemented)
    cls.__hash__ = own("__hash__", lambda s: hash(get(s))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


class CdcError(Exception):
    """Base class for all package errors."""


class UnsupportedOrder(CdcError):
    """Field order outside the supported set of small prime powers."""


class DegreeTooLarge(CdcError):
    """Extension degree beyond the supported range."""


class BadArguments(CdcError):
    """Arguments violate a documented precondition."""


class BadShape(BadArguments):
    """Matrix or code shape parameters are inconsistent."""


class AmbientMismatch(BadArguments):
    """Subspaces live in different ambient spaces."""


class LengthMismatch(BadArguments):
    """Vectors of different lengths."""


class DimensionMismatch(BadArguments):
    """Code dimensions that were required to agree do not."""


class ParameterMismatch(BadArguments):
    """Construction inputs whose parameters do not fit together."""


class DiagramMismatch(BadArguments):
    """A code's diagram does not match the expected one."""


class NotRref(BadArguments):
    """Matrix is not in (reduced) row echelon form."""


class NotACwc(BadArguments):
    """Vector set fails the constant-weight-code requirements."""


class ConditionNotMet(CdcError):
    """No implemented construction route applies to these inputs."""


class TooLarge(CdcError):
    """Instance exceeds the enumeration/verification caps."""


class TooLargeToEnumerate(TooLarge):
    """Code too large for full enumeration."""


class GuardFailed(CdcError):
    """A distance guard on identifying vectors failed."""


class RankRestrictionViolated(CdcError):
    """A member of a rank-restricted list exceeds the declared rank."""


class NotInRegistry(CdcError):
    """Requested parameters are absent from the bound registry."""


class DuplicateCodeword(CdcError):
    """Two construction branches produced the same subspace."""


class VerificationFailed(CdcError):
    """A construction-time self-check did not hold."""


class UsageError(CdcError):
    """Input that names no valid request: a bad command-line argument, or a
    malformed file (``ParseError``).  The command line exits 2 on it."""

    kind = "usage"


class ParseError(UsageError):
    """Malformed input file."""

    kind = "parse"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
