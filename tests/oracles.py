"""Independent oracles used to derive expected values in the tests.

Three brute-force models, deliberately disjoint from the package internals:

* a root-multiset model of the divisor ring: L_n is the multiset of the n
  points k/n on the rational circle, products add points pairwise mod 1;
* a dense integer-polynomial model: a divisor is the rational function
  prod (t^j - 1)^(a_j), realized by exact polynomial multiplication and
  exact division, then evaluated at rational points;
* the torsion recursion and the subset Betti sum over index tuples in
  Fraction arithmetic, with the chain read off by a scan over j = 1..r;
* the representation search as a scan over every set partition, every
  linear order of a chain and every cyclic order of a cycle;
* the weight solve as Gauss-Jordan elimination over Fraction;
* the split closed forms alpha and beta of a five-variable (m2, m3) split.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import floor, gcd, lcm

from bhlink.divisor import CyclotomicDivisor
from bhlink.errors import (
    NoRepresentation,
    NonIntegralMilnor,
    NonPositiveWeights,
    SingularSystem,
)
from bhlink.polynomial import Block, BlockKind, InvertiblePolynomial
from bhlink.weights import SplitDecomposition, WeightSystem

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
        assert numerator % denominator == 0, f"c-recursion inexact at subset {subset} for {ws}"
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


# ----- the representation search by permutation scan -------------------------
# Every set partition of the variables, every role per cell, every linear
# order of a chain and every cyclic order of a cycle (rotations pinned at the
# smallest variable), as the package searched before its option table.


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def _forced(d: int, w: tuple[int, ...], var: int, minus: int) -> int | None:
    """The exponent a with a * w_var + minus = d, if a positive integer."""
    num = d - minus
    if num <= 0 or num % w[var] != 0:
        return None
    return num // w[var]


def _block_options(cell: list[int], ws: WeightSystem) -> list[Block]:
    d, w = ws.degree, ws.weights
    options: list[Block] = []
    if len(cell) == 1:
        a = _forced(d, w, cell[0], 0)
        return [Block(BlockKind.FERMAT, (cell[0],), (a,))] if a and a >= 2 else []
    for order in permutations(cell):
        exps = [_forced(d, w, order[0], 0)]
        exps += [_forced(d, w, cur, w[prev]) for prev, cur in zip(order, order[1:])]
        if all(exps) and exps[0] >= 2:
            options.append(Block(BlockKind.CHAIN, order, tuple(exps)))
    for tail in permutations(cell[1:]):
        order = (cell[0],) + tail
        exps = [_forced(d, w, cur, w[nxt]) for cur, nxt in zip(order, order[1:] + order[:1])]
        if all(exps):
            options.append(Block(BlockKind.CYCLE, order, tuple(exps)))
    return options


def _key(poly: InvertiblePolynomial):
    return tuple((b.kind.value, b.variables, b.exponents) for b in poly.blocks)


def oracle_representations(ws: WeightSystem) -> list[InvertiblePolynomial]:
    """Every valid block polynomial of the data, sorted by the canonical key."""
    found = set()
    options: dict[tuple[int, ...], list[Block]] = {}
    for partition in _set_partitions(list(range(ws.n_vars))):
        cells = [tuple(sorted(cell)) for cell in partition]
        for cell in cells:
            if cell not in options:
                options[cell] = _block_options(list(cell), ws)
        for blocks in product(*(options[cell] for cell in cells)):
            poly = InvertiblePolynomial(ws.n_vars, blocks)
            if not poly.validate():
                found.add(poly)
    return sorted(found, key=_key)


def oracle_chain_cycle(ws: WeightSystem) -> InvertiblePolynomial:
    """The 2-chain on (0, 1) plus 3-cycle on (2, 3, 4) with the smallest
    per-variable exponent tuple, the first in scan order on a tie."""
    if ws.n_vars != 5:
        raise NoRepresentation("chain-cycle search expects a five-variable system")
    chains = [b for b in _block_options([0, 1], ws) if b.kind is BlockKind.CHAIN]
    cycles = [b for b in _block_options([2, 3, 4], ws) if b.kind is BlockKind.CYCLE]
    polys = [InvertiblePolynomial(5, blocks) for blocks in product(chains, cycles)]
    candidates = [poly for poly in polys if not poly.validate()]
    if not candidates:
        raise NoRepresentation(f"no chain-cycle representation for {ws}")
    return min(candidates, key=lambda p: tuple(p.exponent_of(i) for i in range(5)))


# ----- the weight solve over Fraction ----------------------------------------


def oracle_solve_weights(poly: InvertiblePolynomial) -> WeightSystem:
    """Gauss-Jordan elimination of [A | 1] over Fraction, denominators
    cleared, weights and degree divided by their joint gcd."""
    n = poly.n_vars
    rows = [[Fraction(x) for x in row] + [Fraction(1)] for row in poly.exponent_matrix()]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem("exponent matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    solution = [rows[r][n] for r in range(n)]
    scale = lcm(*(x.denominator for x in solution))
    ints = [int(x * scale) for x in solution] + [scale]
    if any(x <= 0 for x in ints[:-1]):
        raise NonPositiveWeights(f"weight ray {ints[:-1]} has a non-positive entry")
    g = gcd(*ints)
    return WeightSystem(tuple(x // g for x in ints[:-1]), ints[-1] // g)


# ----- the split closed forms --------------------------------------------------


def alpha(split: SplitDecomposition) -> Fraction:
    """m2/(v0 v1) - 1/v0 - 1/v1 on the m3 group; the torsion exponent is
    alpha + 1 for the rational-homology-sphere split cases."""
    i, j = split.group3
    v0, v1 = split.v[i], split.v[j]
    return Fraction(split.m2, v0 * v1) - Fraction(1, v0) - Fraction(1, v1)


def beta(split: SplitDecomposition) -> Fraction:
    """The quadratic expression in m3 and the m2-group v's.

    On index-one data (weight sum d + 1) beta = 1 exactly when the link of
    the split data is a rational homology sphere.  Off index one the
    equivalence fails: (60, 72, 35, 72, 150; 360) with groups ((1, 3),
    (0, 2, 4)) has beta = 11/12 and b3 = 0.
    """
    a, b_, c_ = (split.v[i] for i in split.group2)
    m3 = split.m3
    numerator = m3 * m3 - (a + b_ + c_) * m3 + (a * b_ + a * c_ + b_ * c_)
    return Fraction(numerator, a * b_ * c_)
