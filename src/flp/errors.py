"""Exception hierarchy for the flp package.

Every error raised deliberately by this package derives from FlpError, so
callers (including the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class FlpError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FlpError):
    """A caller-supplied value is malformed or out of range."""


class InfeasibleError(FlpError):
    """The instance admits no feasible solution (e.g. k exceeds n)."""


class InvariantError(FlpError):
    """A structural invariant of a value object is broken (e.g. lottery
    probabilities that do not sum to 1)."""


class MechanismPreconditionError(FlpError):
    """A mechanism was applied to an instance outside its precondition."""


class UnsupportedVariantError(FlpError):
    """An operation restricted to one cost variant was called on the other."""


class ParseError(InputError):
    """A file or literal could not be parsed; message pinpoints the location."""
