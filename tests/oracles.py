"""Independent oracles used to derive expected values in the tests.

Three brute-force models, deliberately disjoint from the package internals:

* a root-multiset model of the divisor ring: L_n is the multiset of the n
  points k/n on the rational circle, products add points pairwise mod 1;
* a dense integer-polynomial model: a divisor is the rational function
  prod (t^j - 1)^(a_j), realized by exact polynomial multiplication and
  exact division, then evaluated at rational points;
* the torsion recursion and the subset Betti sum over index tuples in
  Fraction arithmetic, with the chain read off by a scan over j = 1..r.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor, gcd, lcm

from bhlink.divisor import CyclotomicDivisor
from bhlink.errors import NonIntegralC, NonIntegralMilnor
from bhlink.weights import WeightSystem

RootMultiset = dict[Fraction, Fraction]


def roots_of_unity(n: int, coeff: Fraction | int = 1) -> RootMultiset:
    return {Fraction(k, n) % 1: Fraction(coeff) for k in range(n)}


def root_add(a: RootMultiset, b: RootMultiset) -> RootMultiset:
    out = dict(a)
    for q, c in b.items():
        out[q] = out.get(q, Fraction(0)) + c
        if out[q] == 0:
            del out[q]
    return out


def root_scale(a: RootMultiset, c: Fraction | int) -> RootMultiset:
    return {q: m * c for q, m in a.items() if m * c != 0}


def root_mul(a: RootMultiset, b: RootMultiset) -> RootMultiset:
    """Pairwise sums of circle points: the ring product of divisors."""
    out: RootMultiset = {}
    for q1, c1 in a.items():
        for q2, c2 in b.items():
            q = (q1 + q2) % 1
            out[q] = out.get(q, Fraction(0)) + c1 * c2
            if out[q] == 0:
                del out[q]
    return out


def divisor_roots(d: CyclotomicDivisor) -> RootMultiset:
    out: RootMultiset = {}
    for j, a in d.terms.items():
        out = root_add(out, root_scale(roots_of_unity(j), a))
    return out


# ----- dense integer polynomials, constant term first ------------------------


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_divexact(n: list[int], d: list[int]) -> list[int]:
    n = list(n)
    out = [0] * (len(n) - len(d) + 1)
    for shift in range(len(n) - len(d), -1, -1):
        coeff, rem = divmod(n[shift + len(d) - 1], d[-1])
        assert rem == 0, "inexact polynomial division"
        out[shift] = coeff
        for k, b in enumerate(d):
            n[shift + k] -= coeff * b
    assert all(c == 0 for c in n), "nonzero remainder"
    return out


def t_power_minus_one(j: int) -> list[int]:
    return [-1] + [0] * (j - 1) + [1]


def characteristic_polynomial(d: CyclotomicDivisor) -> list[int]:
    """The integer polynomial prod (t^j - 1)^(a_j), by multiply-then-divide."""
    numerator = [1]
    denominator = [1]
    for j, a in sorted(d.terms.items()):
        a = int(a)
        for _ in range(abs(a)):
            if a > 0:
                numerator = poly_mul(numerator, t_power_minus_one(j))
            else:
                denominator = poly_mul(denominator, t_power_minus_one(j))
    return poly_divexact(numerator, denominator)


def poly_eval(p: list[int], t: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(p):
        total = total * t + c
    return total


# ----- the subset recursions by brute force ----------------------------------
# Fraction arithmetic over index-tuple subsets from itertools.combinations and
# the torsion chain by a scan over j = 1..r, as the package computed them
# before its integer bitmask transform.


def _subsets(n1: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(n1 + 1):
        out.extend(combinations(range(n1), size))
    return out


def _inclusion_exclusion(u, v, subset) -> Fraction:
    total = Fraction(0)
    for size in range(len(subset) + 1):
        for sub in combinations(subset, size):
            num = 1
            den = 1
            for i in sub:
                num *= u[i]
                den *= v[i]
            den *= lcm(*(u[i] for i in sub)) if sub else 1
            total += (-1) ** (len(subset) - size) * Fraction(num, den)
    return total


def oracle_betti_subset_sum(ws: WeightSystem) -> int:
    red = ws.reduced()
    total = _inclusion_exclusion(red.u, red.v, tuple(range(len(red.u))))
    if total.denominator != 1:
        raise NonIntegralMilnor(f"Betti subset sum {total} is not an integer")
    return int(total)


def oracle_worksheet(ws: WeightSystem):
    """(c, k, r) of the torsion recursion, keyed by index tuples."""
    red = ws.reduced()
    u, v = red.u, red.v
    n1 = len(u)
    subsets = _subsets(n1)
    c: dict[tuple[int, ...], int] = {}
    for subset in subsets:
        outside = [u[i] for i in range(n1) if i not in subset]
        if not outside:
            c[subset] = 1
            continue
        numerator = gcd(*outside)
        denominator = 1
        for size in range(len(subset)):
            for proper in combinations(subset, size):
                denominator *= c[proper]
        if numerator % denominator != 0:
            raise NonIntegralC(f"c-recursion inexact at subset {subset} for {ws}")
        c[subset] = numerator // denominator
    k = {
        subset: _inclusion_exclusion(u, v, subset) if (n1 - len(subset)) % 2 else Fraction(0)
        for subset in subsets
    }
    return c, k, floor(max(k.values()))


def oracle_torsion_chain(c, k, r: int) -> tuple[int, ...]:
    """d_j = product of the c whose k is at least j, for j = 1..r, units dropped."""
    torsion = []
    for j in range(1, r + 1):
        dj = 1
        for subset, value in k.items():
            if value >= j:
                dj *= c[subset]
        if dj > 1:
            torsion.append(dj)
    return tuple(torsion)
