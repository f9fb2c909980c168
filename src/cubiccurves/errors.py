"""Typed errors shared across the toolkit.

PreconditionError subclasses mark calls outside an operation's documented
domain (the CLI maps them to exit code 2).  It maps two more to exit code
3, an internal failure: AssertionError, whose explicit form InvariantViolation
is raised where a mathematical invariant of the engine fails, and
DegeneratePoints.  Any other exception escapes the CLI.
"""


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


class NotEffective(PreconditionError):
    pass


class NotSmoothMember(PreconditionError):
    pass


class NonPositiveDegree(PreconditionError):
    pass


class NotALine(PreconditionError):
    pass


class InvalidK(PreconditionError):
    pass


class DprimeNotNef(PreconditionError):
    pass


class GenusOutOfHodgeRange(PreconditionError):
    pass


class DegreeTooSmall(PreconditionError):
    pass


class OracleTooLarge(PreconditionError):
    """The interpolation oracle's input is past its size budget."""


class InvariantViolation(AssertionError):
    """A mathematical invariant of the engine failed.

    Raised explicitly instead of by ``assert`` so that the check also runs
    under ``python -O``; it subclasses AssertionError so callers that treat
    assertion failures as internal errors (CLI exit code 3) still do.
    """


class DegeneratePoints(RuntimeError):
    """Point sampling failed the general-position checks ten times running."""
