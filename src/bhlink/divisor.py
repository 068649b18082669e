"""The expanded L_n divisor of a link and its evaluators.

The characteristic polynomial of the monodromy of a weighted-homogeneous link
is a quotient of products of polynomials t^j - 1.  Its divisor is recorded as
an integer combination of the symbols

    L_n = div(t^n - 1),

which multiply by the rule  L_a * L_b = gcd(a, b) * L_{lcm(a, b)},  extended
bilinearly.  For a weight system (w_0..w_n; d) with reduced invariants
u_i = d / gcd(d, w_i) and v_i = w_i / gcd(d, w_i), the link divisor is the
fully expanded product

    prod_i ( (1/v_i) L_{u_i}  -  L_1 ),

whose coefficients are guaranteed integral for valid data even though the
intermediate 1/v_i factors are genuinely fractional (the expansion runs over
the scaled factors L_{u_i} - v_i L_1 and divides once at the end).
``expand_link_divisor`` multiplies the factors that share a u in closed
form, then applies the rule once per distinct u.  From the expanded divisor
sum(a_j L_j) one reads off:

* ``coefficient_sum``  sum(a_j)       = middle Betti number of the link,
* ``root_count``       sum(a_j * j)   = Milnor number,
* ``delta_order_at_one``  |prod(j^a_j)| = order of the torsion group when the
  Betti number vanishes,
* ``delta_eval``       exact rational value of prod((t^j - 1)^a_j).

All coefficients are integers, not rationals, of arbitrary precision; only
``delta_eval`` returns an exact rational.  Divisors are immutable values, so
every evaluator is safe under concurrency.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import NonIntegralExpansion, NonIntegralOrder, PoleAtT

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CyclotomicDivisor",
    "expand_link_divisor",
]


def _lowest_terms(numerator: int, denominator: int) -> str:
    """numerator/denominator in lowest terms as Fraction prints it, for denominator > 0."""
    g = gcd(numerator, denominator)
    return f"{numerator // g}/{denominator // g}"


class CyclotomicDivisor:
    """A finite combination sum(a_j L_j) with integer coefficients.

    Only nonzero coefficients are stored; the zero divisor has an empty term
    map.  Two divisors are equal when their term maps are.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for j, a in terms.items():
                if j < 1:
                    raise ValueError(f"divisor index must be >= 1, got {j}")
                # integral values, such as True or Fraction(4, 2), become int
                if getattr(a, "denominator", None) != 1:
                    raise ValueError(f"coefficient of L{j} must be an integer, got {a!r}")
                if a != 0:
                    clean[int(j)] = int(a)
        self._terms = clean

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicDivisor):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "CyclotomicDivisor(0)"
        parts = " ".join(f"{self._terms[j]:+d}*L{j}" for j in sorted(self._terms))
        return f"CyclotomicDivisor({parts})"

    # ----- link invariants -------------------------------------------------

    def coefficient_sum(self) -> int:
        """sum(a_j): the multiplicity of the root t = 1, i.e. the middle Betti
        number when this is an expanded link divisor."""
        return sum(self._terms.values())

    def root_count(self) -> int:
        """sum(a_j * j): the total root multiplicity, i.e. the degree of the
        characteristic polynomial (the Milnor number for a link divisor)."""
        return sum(a * j for j, a in self._terms.items())

    def delta_order_at_one(self) -> int:
        """|Delta(1)| as an exact integer, or 0 when t = 1 is a root.

        When the coefficient sum vanishes each factor (t^j - 1)^a_j sheds one
        (t - 1)^a_j and contributes j^a_j at t = 1, so the value is
        |prod_{j >= 2} j^a_j|.
        """
        if self.coefficient_sum() != 0:
            return 0
        numerator = denominator = 1
        for j, a in self._terms.items():
            if j >= 2:
                if a >= 0:
                    numerator *= j**a
                else:
                    denominator *= j**-a
        value, remainder = divmod(numerator, denominator)
        if remainder:
            raise NonIntegralOrder(f"torsion order {_lowest_terms(numerator, denominator)} is not an integer")
        return value

    def delta_eval(self, t: Fraction | int) -> Fraction:
        """Exact value of prod((t^j - 1)^a_j) at a rational point.

        The only rational roots of unity are t = 1 and t = -1, so vanishing
        factors can cancel only there.  Each vanishing factor is divided once
        by (t - t0), replacing it with the derivative value j * t0^(j-1); if
        the net multiplicity of vanishing factors is positive the product is
        0, and if it is negative the point is a pole.
        """
        # imported here: no command evaluates Delta, and fractions costs a
        # one-shot command its import time
        from fractions import Fraction

        t = Fraction(t)

        def vanishes(j: int) -> bool:
            return t == 1 or (t == -1 and j % 2 == 0)

        net = sum(a for j, a in self._terms.items() if vanishes(j))
        if net > 0:
            return Fraction(0)
        if net < 0:
            raise PoleAtT(f"net exponent {net} of vanishing factors at t={t}")
        value = Fraction(1)
        for j, a in self._terms.items():
            factor = j * t ** (j - 1) if vanishes(j) else t**j - 1
            value *= factor**a
        return value


def expand_link_divisor(pairs: Iterable[tuple[int, int]]) -> CyclotomicDivisor:
    """Fully expand prod_i ((1/v_i) L_{u_i} - L_1) and assert integrality.

    ``pairs`` lists the reduced invariants (u_i, v_i) of a weight system, one
    per variable.  The scaled factors L_{u_i} - v_i L_1 are grouped by u, in
    the order each u first appears, and the factors of one class C multiply
    in closed form:

        prod_{i in C} (L_u - v_i L_1) = alpha L_u + beta L_1,
        beta = prod (-v_i),  alpha = (prod (u - v_i) - beta) / u.

    Proof: L_u L_u = u L_u, L_u L_1 = L_u and L_1 L_1 = L_1, so the product
    is some alpha L_u + beta L_1, with beta the term that takes L_1 from
    every factor.  L_j -> j is a ring homomorphism (gcd * lcm is the
    product), and it maps the product to prod (u - v_i) = alpha u + beta.
    The class binomials are then multiplied over integer term maps by the
    gcd/lcm rule (indices are lcm's of the u_i, which keeps the term count
    small), and the product is divided once by prod v_i: the golden dual
    (219, 365, 420, 200, 260; 1460), whose u are (20, 4, 73, 73, 73), takes
    three products instead of five.  Both routes to the Betti number stay
    independent: this one forms no term per subset of the variables.  A
    coefficient that does not divide signals an invalid weight system and
    raises :class:`NonIntegralExpansion`, naming the largest index whose
    coefficient is fractional.
    """
    # u -> [prod (u - v_i), prod (-v_i)] over its class
    classes: dict[int, list[int]] = {}
    scale = 1
    for u, v in pairs:
        if u < 1 or v < 1:
            raise ValueError(f"invalid reduced pair ({u}, {v})")
        scale *= v
        products = classes.get(u)
        if products is None:
            classes[u] = [u - v, -v]
        else:
            products[0] *= u - v
            products[1] *= -v
    if not classes:
        raise ValueError("expected at least one (u, v) pair")
    acc = {1: 1}
    for u, (top, beta) in classes.items():
        alpha = (top - beta) // u
        out: dict[int, int] = {}
        for j, a in acc.items():
            g = gcd(j, u)
            m = j // g * u
            out[m] = out.get(m, 0) + a * g * alpha
            out[j] = out.get(j, 0) + a * beta
        # a zero stays until the end: the constructor drops it
        acc = out
    terms = {}
    for j, a in acc.items():
        coefficient, remainder = divmod(a, scale)
        if remainder:
            k = max(i for i, b in acc.items() if b % scale)
            raise NonIntegralExpansion(f"coefficient of L{k} is {_lowest_terms(acc[k], scale)}, not an integer")
        terms[j] = coefficient
    return CyclotomicDivisor(terms)
