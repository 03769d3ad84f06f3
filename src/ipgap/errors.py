"""Exception taxonomy and the immutable-value base shared across the package.

Three families, mirrored by the command-line exit codes: input problems
(exit 2), mathematical domain problems such as unbounded programs (exit 1),
and internal verification failures that should never occur (exit 3).

Value is the base of every immutable value class of the package; it lives
here, in the one module every other imports, and reads nothing from them.
"""

from operator import attrgetter, eq, ge, gt, le, lt


def _comparison(op, key):
    """op on the compared fields' tuples, for two values of one class."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(key(self), key(other))
        return NotImplemented

    return compare


class Value:
    """Immutable value whose fields are its class's annotated names, in order.

    A class attribute named as a field is its default.  The constructor
    takes the fields by position or name; a class may write its own
    __init__, storing with object.__setattr__.  Equality (same class
    only), the hash of the fields' tuple and repr read every field but
    those the class keywords name: uncompared for the first two, unshown
    for repr.  order=True adds <, <=, > and >= on the same tuple.
    Assignment and deletion raise AttributeError.  Instances keep a
    __dict__, so functools.cached_property, pickle and copy work as on
    any plain object.
    """

    __slots__ = ()

    def __init_subclass__(cls, uncompared=(), unshown=(), order=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._shown = tuple(f for f in fields if f not in unshown)
        compared = [f for f in fields if f not in uncompared]
        get = attrgetter(*compared)
        key = get if len(compared) > 1 else lambda obj: (get(obj),)
        cls.__hash__ = lambda self: hash(key(self))
        for op in (eq, lt, le, gt, ge) if order else (eq,):
            setattr(cls, f"__{op.__name__}__", _comparison(op, key))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes at most {len(fields)} arguments")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                object.__setattr__(self, name, kwargs.pop(name))
            elif name in type(self).__dict__:
                object.__setattr__(self, name, type(self).__dict__[name])
            else:
                raise TypeError(f"{type(self).__name__} missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected arguments {sorted(kwargs)}")

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IpgapError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class InputError(IpgapError):
    """Malformed or inconsistent user input."""

    exit_code = 2


class BadParameter(InputError):
    """A parameter is outside the range an operation supports."""


class ParseError(InputError):
    """An instance or report file failed to parse.

    Carries the 1-based line number (and column when known) so the CLI can
    point at the offending text.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class MathDomainError(IpgapError):
    """The instance is outside the mathematical domain of the operation."""

    exit_code = 1


class UnboundedProgram(MathDomainError):
    """Some fiber of the program has cost unbounded below."""


class NonTerminatingOrder(MathDomainError):
    """The requested cost/tiebreak combination is not well founded on fibers."""


class UnboundedAux(MathDomainError):
    """A per-component auxiliary linear program is unbounded."""


class TrivialInstance(MathDomainError):
    """The instance's non-optimal ideal is zero, so its gap is 0.

    gap_fan_subdivide raises it, having no component to split the cone
    by (and so `ipgap fan` exits 1); gap_report reports gap 0 instead.
    """


class ZeroIdeal(MathDomainError):
    """Irreducible decomposition of the zero ideal was requested."""


class UnitIdeal(MathDomainError):
    """Irreducible decomposition of the unit ideal was requested."""


class DegenerateCone(MathDomainError):
    """A cone that was expected to be full dimensional has empty interior."""


class InfiniteFiber(MathDomainError):
    """Brute-force enumeration hit a fiber with unbounded coordinates."""


class EmptyFiber(MathDomainError):
    """A right-hand side admits no nonnegative integer point."""


class FiberCapExceeded(MathDomainError):
    """Enumeration would exceed the configured point cap."""


class MinorCapExceeded(MathDomainError):
    """The Schrijver bound's sweep over maximal minors outgrew its cap."""


class VerificationError(IpgapError):
    """An internal cross-check failed; indicates a bug, never bad input."""

    exit_code = 3


class WitnessMismatch(VerificationError):
    """The constructed witness does not attain the reported gap."""
