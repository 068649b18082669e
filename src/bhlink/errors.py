"""Exception types raised by the exact link-topology computations.

Every error below signals bad *input data* or a violated cross-check, never
a recoverable state: callers that batch over many weight systems should
catch :class:`BhlinkError` per item and keep going.
"""

from __future__ import annotations


class BhlinkError(Exception):
    """Base class for all errors raised by this package."""


class NonIntegralExpansion(BhlinkError):
    """A fully expanded link divisor has a fractional coefficient.

    This flags an invalid weight system (no quasihomogeneous polynomial
    realises it), not a bug in the divisor ring.
    """


class NonIntegralOrder(BhlinkError):
    """The torsion order product of a divisor is not an integer."""


class PoleAtT(BhlinkError):
    """A factor with negative net exponent vanishes at the evaluation point."""


class NonPositiveWeights(BhlinkError):
    """The weight solution of an exponent matrix has a non-positive entry."""


class SingularSystem(BhlinkError):
    """The exponent matrix is singular, so no weight system exists."""


class NoSplit(BhlinkError):
    """The requested two-factor degree split does not exist."""


class NonIntegralMilnor(BhlinkError):
    """The Milnor number product formula does not yield an integer."""


class CrossCheckFailed(BhlinkError):
    """Two independent computations of the same invariant disagree."""


class PreconditionFailed(BhlinkError):
    """A closed-form shortcut was invoked outside its hypotheses."""


class NoRepresentation(BhlinkError):
    """No invertible polynomial of the requested shape matches the weights."""
