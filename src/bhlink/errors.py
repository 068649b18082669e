"""Exception types raised by the exact link-topology computations.

Every error is a :class:`BhlinkError`, and each belongs to one of three
families.

Invalid input: the weight data, or a step computed from it, describes no
link, so no answer exists.

* :class:`NonIntegralExpansion`
* :class:`NonIntegralOrder`
* :class:`NonPositiveWeights`
* :class:`NonIntegralMilnor`
* :class:`SingularSystem`

Not applicable: the data is fine, but the construction asked for does not
apply to it.

* :class:`NoSplit`
* :class:`PreconditionFailed`
* :class:`NoRepresentation`
* :class:`PoleAtT`

Internal: a computation of this package disagrees with its cross-check, which
is the program's fault, not the input's.

* :class:`CrossCheckFailed`

Callers that batch over many weight systems should catch :class:`BhlinkError`
per item and keep going; ``bhlink`` exits 2 on the first two families and 3
on the last.
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
    """Two independent computations of the same invariant disagree.

    This is the program's fault, not the input's: ``bhlink`` exits 3 on it.
    """


class PreconditionFailed(BhlinkError):
    """A construction was invoked outside its hypotheses: a closed-form
    shortcut, or the link profile of data that gives a negative b3."""


class NoRepresentation(BhlinkError):
    """No invertible polynomial of the requested shape matches the weights."""
