"""The transpose-duality pipeline: duals, twins and Einstein certification.

Transposing the exponent matrix of an invertible polynomial yields the dual
polynomial; its weights solve the transposed weight equation.  For cycle,
Fermat-cycle and cycle-cycle shapes the dual link keeps degree, Milnor number
and homology (the dual is a *twin*); for chain-cycle shapes both the degree
and the Milnor number change, and for index-one data (|w| = d + 1, the
anticanonical hypersurfaces of the Johnson-Kollar list) closed forms predict
the whole dual profile of a 2-chain plus 3-cycle from the polynomial itself
(the chain's order gives head and tail, the cycle's order each successor)
and the (m2, m3) split of its weights:

    dual degree (raw)   d (m2 - 1),
    dual Milnor number  ((m2 - 1)^2 / v1 + 1) (m3 - 1),
    dual torsion        Z_m3              if gcd(a1, m3) = 1,
                        Z_d               if gcd(a1, m3) = 2,
                        Z_d + Z_m2^(g-2)  if g = gcd(a1, m3) > 2,

with a1 the chain tail exponent and d = m2 m3 the *source* degree.  The raw
dual weights may share a joint factor with the raw dual degree; profiles are
compared after primitive normalization.  Off index one the forms are false
(they give Z_25 for the chain-cycle dual of (25, 4, 25, 24, 76; 100), whose
torsion is Z_25^2) and refuse the data.

A link whose quotient orbifold is Fano (index I = |w| - d > 0) carries a
positive Ricci curvature Sasaki metric; it is certified Sasaki-Einstein by
the sufficient inequality

    I * d < (n / (n - 1)) * min_{i<j} (w_i w_j),

compared exactly in integers once the denominator n - 1 is cleared (4/3 for
the five-variable, 7-dimensional case).  Failure of the inequality never
certifies a negative: the verdict is then only "positive Ricci".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .errors import BhlinkError, CrossCheckFailed, NoSplit, PreconditionFailed
from .invariants import HomologyProfile, _profile_memo, homology_profile
from .polynomial import CHAIN, CYCLE, Block, InvertiblePolynomial, classify
from .representation import count_representations, enumerate_representations
from .weights import WeightSystem, solve_weights

__all__ = [
    "Verdict",
    "SasakiVerdict",
    "ClosedFormPrediction",
    "DualReport",
    "se_certificate",
    "bh_dual",
    "chain_cycle_closed_forms",
    "is_twin",
    "swap_twin",
    "pipeline",
]


class Verdict(str, Enum):
    SASAKI_EINSTEIN = "SasakiEinstein"
    POSITIVE_RICCI_ONLY = "PositiveRicciOnly"
    NOT_FANO = "NotFano"


# The members, bound once, as polynomial binds BlockKind's: on Python 3.11
# every attribute read off the class runs through EnumType's __getattr__ hook
SASAKI_EINSTEIN, POSITIVE_RICCI_ONLY, NOT_FANO = (
    Verdict.SASAKI_EINSTEIN, Verdict.POSITIVE_RICCI_ONLY, Verdict.NOT_FANO
)


@dataclass(frozen=True)
class SasakiVerdict:
    fano: bool
    inequality_holds: bool
    verdict: Verdict


def se_certificate(ws: WeightSystem) -> SasakiVerdict:
    """Apply the index inequality; sufficient only, never a negative claim.

    I d < (n / (n - 1)) min w_i w_j is compared in integers as
    (n - 1) I d < n min w_i w_j; two-variable data (n = 1) has no inequality
    and raises :class:`PreconditionFailed`.
    """
    index = ws.fano_index()
    n = ws.n_vars - 1
    if n < 2:
        raise PreconditionFailed(f"the index inequality needs at least three variables: {ws}")
    # the weights are positive, so the smallest pairwise product is that of the two smallest
    low = sorted(ws.weights)
    holds = (n - 1) * index * ws.degree < n * low[0] * low[1]
    if index <= 0:
        return SasakiVerdict(False, holds, NOT_FANO)
    if holds:
        return SasakiVerdict(True, True, SASAKI_EINSTEIN)
    return SasakiVerdict(True, False, POSITIVE_RICCI_ONLY)


def bh_dual(poly: InvertiblePolynomial) -> tuple[InvertiblePolynomial, WeightSystem]:
    """The transposed polynomial and its primitively normalized weights."""
    dual = poly.transpose()
    return dual, solve_weights(dual)


@dataclass(frozen=True)
class ClosedFormPrediction:
    """Chain-cycle dual data predicted without transposing anything; ``torsion``
    holds (factor, multiplicity) runs, as in :class:`HomologyProfile`."""

    raw_degree: int
    raw_weights: tuple[int, ...]
    degree: int
    weights: tuple[int, ...]
    mu: int
    torsion: tuple[tuple[int, int], ...]

    def profile(self) -> HomologyProfile:
        return HomologyProfile(b3=0, torsion=self.torsion, mu=self.mu, degree=self.degree)


def chain_cycle_closed_forms(poly: InvertiblePolynomial, ws: WeightSystem) -> ClosedFormPrediction:
    """Predicted dual of ``poly``, a 2-chain plus 3-cycle representing ``ws``.

    The chain's order names its head and tail, the cycle's order each
    variable's successor.  Preconditions, checked exactly in this order:
    the blocks are a 2-variable chain and a 3-variable cycle; ``ws`` splits
    with m3 on the chain and m2 on the cycle (:class:`NoSplit` propagates);
    the split weights sum to d + 1 (index one); the chain head has v = 1 and
    exponent m2; the tail exponent is (m2 - 1) / v1; the cycle exponents
    satisfy prod + 1 = m3 (the rational-homology-sphere condition); and the
    cycle's own orientation satisfies e_k v_k + v_(k+1) = m3, which also
    refuses a ``ws`` that ``poly`` does not represent.  Each other failure
    raises :class:`PreconditionFailed`.
    """
    blocks = poly.blocks
    if not (
        len(blocks) == 2
        and blocks[0].kind is CHAIN
        and len(blocks[0].variables) == 2
        and blocks[1].kind is CYCLE
        and len(blocks[1].variables) == 3
    ):
        raise PreconditionFailed("not a 2-chain plus 3-cycle")
    chain, cycle = blocks
    split = ws.split((chain.variables, tuple(sorted(cycle.variables))))
    m2, m3, d, v = split.m2, split.m3, split.degree, split.v
    (head, tail), (a_head, a1) = chain.variables, chain.exponents
    # the cycle is x_c0^e0 x_c1 + x_c1^e1 x_c2 + x_c2^e2 x_c0
    cyc, exps = cycle.variables, cycle.exponents
    c0, c1, c2 = cyc
    e0, e1, e2 = exps
    x0, x1, x2 = v[c0], v[c1], v[c2]

    weight_sum = m3 * (v[head] + v[tail]) + m2 * (x0 + x1 + x2)
    if weight_sum != d + 1:
        raise PreconditionFailed(f"closed forms need index one: weight sum {weight_sum} != d + 1 = {d + 1}")
    if v[head] != 1 or a_head != m2:
        raise PreconditionFailed(
            f"chain head z{head} needs v = 1 and exponent m2 = {m2}, has v = {v[head]} and exponent {a_head}"
        )
    v1 = v[tail]
    if v1 * a1 != m2 - 1:
        raise PreconditionFailed(f"tail exponent {a1} != (m2 - 1)/v1 = ({m2} - 1)/{v1}")
    if e0 * e1 * e2 + 1 != m3:
        by_variable = tuple(e for _, e in sorted(zip(cyc, exps)))
        raise PreconditionFailed(f"cycle exponents {by_variable} do not satisfy prod + 1 = m3 = {m3}")
    if e0 * x0 + x1 != m3 or e1 * x1 + x2 != m3 or e2 * x2 + x0 != m3:
        raise PreconditionFailed(f"cycle {cyc} with exponents {exps} fails e_k v_k + v_(k+1) = m3 = {m3}")

    raw_degree = d * (m2 - 1)
    raw = [0] * 5
    raw[head] = m3 * v1 * (a1 - 1)
    raw[tail] = m3 * m2 * v1
    scale = m2 * (m2 - 1)
    raw[c0] = scale * (1 - e1 + e1 * e2)
    raw[c1] = scale * (1 - e2 + e2 * e0)
    raw[c2] = scale * (1 - e0 + e0 * e1)

    joint = gcd(raw_degree, *raw)
    weights = tuple(x // joint for x in raw)
    degree = raw_degree // joint

    # exact: v1 a1 = m2 - 1 was checked above
    mu = ((m2 - 1) ** 2 // v1 + 1) * (m3 - 1)

    g = gcd(a1, m3)
    if g == 1:
        torsion: tuple[tuple[int, int], ...] = ((m3, 1),)
    elif g == 2:
        torsion = ((d, 1),)
    else:
        torsion = ((d, 1), (m2, g - 2))

    return ClosedFormPrediction(
        raw_degree=raw_degree,
        raw_weights=tuple(raw),
        degree=degree,
        weights=weights,
        mu=mu,
        torsion=torsion,
    )


def is_twin(a: HomologyProfile, b: HomologyProfile) -> bool:
    """Equal degree, Milnor number, Betti number and torsion runs: the four
    fields of a profile."""
    return a == b


def swap_twin(poly: InvertiblePolynomial) -> tuple[InvertiblePolynomial, WeightSystem]:
    """Exchange the exponents of the two lowest-index cycle variables.

    For a chain-cycle polynomial whose link is a rational homology sphere
    this produces a twin: same degree and homology profile.  Any
    transposition of two cycle exponents yields the same link up to variable
    relabeling, so the swapped weights agree with other conventions as a
    multiset.
    """
    if classify(poly) != "Chain-Cycle":
        raise PreconditionFailed(f"swap_twin expects a chain-cycle polynomial, got {classify(poly)}")
    cycle = next(b for b in poly.blocks if b.kind is CYCLE)
    chain = next(b for b in poly.blocks if b.kind is CHAIN)
    if len(cycle.variables) != 3:
        raise PreconditionFailed("swap_twin expects a three-variable cycle")
    lo, mid = sorted(cycle.variables)[:2]
    exps = {v: e for v, e in zip(cycle.variables, cycle.exponents)}
    exps[lo], exps[mid] = exps[mid], exps[lo]
    swapped_cycle = Block(
        CYCLE, cycle.variables, tuple(exps[v] for v in cycle.variables)
    )
    swapped = InvertiblePolynomial(poly.n_vars, (chain, swapped_cycle))
    return swapped, solve_weights(swapped)


# The most representations pipeline() reports on: (1^6; 3) has 6,600 and
# takes 0.24-0.28 s (2-CPU Xeon, CPython 3.11.7); (1^7; 3) has 63,840.
PIPELINE_BUDGET = 10_000


@dataclass(frozen=True)
class DualReport:
    """One representation's transpose dual, its profile and Einstein verdict.

    ``skipped`` says why no closed-form comparison ran (None: it ran and
    passed); ``error`` says why there is no dual, whose fields then stay None."""

    source_polynomial: InvertiblePolynomial
    dual_polynomial: InvertiblePolynomial | None = None
    dual_weights: WeightSystem | None = None
    dual_profile: HomologyProfile | None = None
    dual_verdict: SasakiVerdict | None = None
    skipped: str | None = None
    error: str | None = None


def checked_dual(poly: InvertiblePolynomial, ws: WeightSystem) -> DualReport:
    """Transpose ``poly`` (a representation of ``ws``), profile the dual and
    certify it.

    This is the one place a dual is compared with the closed forms: for a
    2-chain plus 3-cycle inside their hypotheses a disagreement raises
    :class:`CrossCheckFailed`; outside them the report's ``skipped`` names
    the refused hypothesis.  It is also the one place a dual gets its
    :func:`se_certificate` verdict.
    """
    dual_poly, dual_ws = bh_dual(poly)
    dual_profile = homology_profile(dual_ws)
    fields = (poly, dual_poly, dual_ws, dual_profile, se_certificate(dual_ws))
    try:
        prediction = chain_cycle_closed_forms(poly, ws)
    except (NoSplit, PreconditionFailed) as exc:
        return DualReport(*fields, skipped=str(exc))
    if sorted(prediction.weights) != sorted(dual_ws.weights) or prediction.profile() != dual_profile:
        raise CrossCheckFailed(
            f"chain-cycle closed forms disagree with the transposed dual for {ws}: "
            f"predicted ({prediction.weights}; {prediction.degree}), mu={prediction.mu}, "
            f"torsion={prediction.torsion}; computed ({dual_ws.weights}; {dual_ws.degree}), "
            f"mu={dual_profile.mu}, torsion={dual_profile.torsion}, b3={dual_profile.b3}"
        )
    return DualReport(*fields)


def pipeline(ws: WeightSystem) -> list[DualReport]:
    """The :func:`checked_dual` report of every invertible representation.

    A representation whose dual fails gets ``DualReport(poly, error=...)``
    rather than aborting the rest; ``bhlink pipeline`` writes every report,
    then exits 3 when one records a ``CrossCheckFailed``.  Data with more
    than ``PIPELINE_BUDGET`` representations raises
    :class:`PreconditionFailed` before any is built.
    Each distinct dual system is profiled once per call (or once per
    command, under ``bhlink``).  The source is not profiled here: a report's
    dual is a twin when ``is_twin(homology_profile(ws), report.dual_profile)``.
    """
    count = count_representations(ws)
    if count > PIPELINE_BUDGET:
        raise PreconditionFailed(
            f"{ws} has {count} invertible representations, over the pipeline budget of {PIPELINE_BUDGET}"
        )
    reports: list[DualReport] = []
    with _profile_memo():
        for poly in enumerate_representations(ws):
            try:
                reports.append(checked_dual(poly, ws))
            except BhlinkError as exc:
                reports.append(DualReport(poly, error=f"{type(exc).__name__}: {exc}"))
    return reports
