"""Exception taxonomy shared across the package.

Three families, mirrored by the command-line exit codes: input problems
(exit 2), mathematical domain problems such as unbounded programs (exit 1),
and internal verification failures that should never occur (exit 3).
"""


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
    """Marker for instances whose non-optimal ideal is zero (gap 0).

    The pipeline reports gap 0 rather than raising; this class exists for
    callers that want to signal the condition themselves.
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
