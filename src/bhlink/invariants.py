"""Topological invariants of the link of a weighted-homogeneous singularity.

For a weight system (w_0..w_n; d) with reduced invariants (u_i, v_i) the link
is a (2n-1)-manifold whose middle homology is computed here three ways and
cross-checked:

* the Milnor number  mu = prod (d - w_i) / w_i  equals the root count of the
  expanded divisor;
* the middle Betti number equals both the coefficient sum of the expanded
  divisor and the direct inclusion-exclusion sum over all 2^(n+1) index
  subsets;
* the torsion of the middle homology group comes from the subset recursion
  on gcds of the u_i (the c-numbers) weighted by the parity-filtered
  inclusion-exclusion sums (the k-numbers): d_j is the product of every c
  whose k is at least j, and the torsion group is the direct sum of Z/d_j.

The subset route is integer-only.  Subsets of the index set are bitmasks.
One cached pass per system reduces the weights and fills two per-mask
arrays: D * f(T) for f(T) = prod u_T / (prod v_T * lcm u_T) over the common
denominator D = prod v * lcm u, and the gcd of the u_i outside each mask.
One Mobius butterfly (one step per bit and mask) inverts both: additively,
the first becomes D times every inclusion-exclusion sum (the full set gives
the Betti number, the odd-parity subsets give the k-numbers); by exact
division, the second becomes the c-numbers.  The subset sum and the torsion
recursion of one profile both read that pass, and the torsion worksheet
keeps the integer arrays c and D * k, indexed by bitmask.
The torsion is returned as runs: the subsets with c > 1 are grouped by
floor(k), and each gap between consecutive floors is one factor with its
multiplicity, so no sequence with one entry per copy is ever built.  The
cost is O(n 2^n) in time and O(2^n) in memory; it does not depend on
r = floor(max k), which grows like (d/w)^(n-1).

The torsion recursion is a theorem for chain type, cycle type and iterated
Thom-Sebastiani sums of these (hence for every invertible polynomial) and a
conjecture otherwise; callers that care can check whether the weight system
admits an invertible representation.

Inside a :func:`_profile_memo` scope (one ``bhlink`` command, or one
``duality.pipeline`` call) :func:`homology_profile` computes each distinct
system once: the profile is a symmetric function of the primitive weights,
so the memo key is the sorted weights and the degree.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from enum import Enum

from .divisor import CyclotomicDivisor, expand_link_divisor
from .errors import (
    CrossCheckFailed,
    NonIntegralExpansion,
    NonIntegralMilnor,
    PoleAtT,
    PreconditionFailed,
)
from .weights import WeightSystem

__all__ = [
    "HomologyProfile",
    "TorsionWorksheet",
    "DiffeoType",
    "link_divisor",
    "milnor_number",
    "betti_subset_sum",
    "orlik_torsion",
    "homology_profile",
    "branched_cover",
]


@dataclass(frozen=True)
class HomologyProfile:
    """(Betti number, torsion runs, Milnor number, degree).

    ``torsion`` holds the torsion group Z_{d_1}^{m_1} + Z_{d_2}^{m_2} + ...
    as its runs ((d_1, m_1), (d_2, m_2), ...): the factors strictly
    decrease, each divides the one before it, every multiplicity is at least
    1 and unit factors are dropped.  This tuple plus b3, mu and the degree
    is the whole comparison key for twin detection.
    """

    b3: int
    torsion: tuple[tuple[int, int], ...]
    mu: int
    degree: int

    def torsion_order(self) -> int:
        return prod(factor**count for factor, count in self.torsion)

    def torsion_str(self) -> str:
        """Group notation, e.g. ``Z_90+Z_18^3``; ``1`` for the trivial group."""
        if not self.torsion:
            return "1"
        return "+".join(
            f"Z_{factor}" + (f"^{count}" if count > 1 else "")
            for factor, count in self.torsion
        )


@dataclass(frozen=True)
class TorsionWorksheet:
    """The c / k numbers of the torsion recursion, indexed by subset bitmask.

    Bit i of a mask stands for index i.  ``c`` values are positive integers
    (every recursion division is exact for positive u_i, see
    :func:`_subset_table`).  ``scaled_k`` holds
    ``scale * k``, so k(S) = scaled_k[S] / scale exactly; k is 0 on the
    subsets of parity weight 0.  ``r`` = floor(max k).  The full index set
    has no complement gcd; its parity weight is 0 so it never enters any
    d_j, and its c is recorded as 1.
    """

    c: tuple[int, ...]
    scaled_k: tuple[int, ...]
    scale: int
    r: int


class DiffeoType(str, Enum):
    STANDARD = "Standard"
    KERVAIRE = "Kervaire"
    NOT_HOMOTOPY_SPHERE = "NotHomotopySphere"
    INDETERMINATE = "Indeterminate"


def link_divisor(ws: WeightSystem) -> CyclotomicDivisor:
    """The fully expanded divisor of the link's characteristic polynomial;
    a fractional coefficient's :class:`NonIntegralExpansion` names ``ws``."""
    try:
        return expand_link_divisor(ws.reduced().pairs())
    except NonIntegralExpansion as exc:
        raise NonIntegralExpansion(f"link divisor of {ws}: {exc}") from None


def milnor_number(ws: WeightSystem) -> int:
    """prod (d - w_i) / w_i, exact.

    Individual factors may be fractional; only the full product must be an
    integer, otherwise the data is not a valid link.
    """
    numerator = denominator = 1
    for w in ws.weights:
        numerator *= ws.degree - w
        denominator *= w
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise NonIntegralMilnor(
            f"Milnor product {Fraction(numerator, denominator)} is not an integer for {ws}"
        )
    return value


@lru_cache(maxsize=1)
def _subset_table(ws: WeightSystem) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """The per-mask arrays of one system: the signed subset sums, D and the c-numbers.

    The first entry holds D * sum_{T subset S} (-1)^(|S|-|T|) f(T) for every
    bitmask S, with f(T) = prod u_T / (prod v_T * lcm u_T), f(empty) = 1,
    and D = prod v * lcm u, so every D * f(T) is an integer.  The last
    entry holds c(S): the gcd g(S) of the u_i outside S over the product of
    c on the proper subsets of S (the full set has no g; its c is 1).  One
    loop fills the products, lcms and gcds of every T | {i} from T; one
    Mobius butterfly then inverts both arrays, per bit and mask, by a
    subtraction and by a division.  The last system's arrays are kept: the
    subset sum and the torsion recursion of one profile read the same ones.

    Every division is exact for positive u_i.  For a prime p let x_i =
    v_p(u_i) and B_k = {i : x_i < k}; then v_p(g(T)) = #{k >= 1 : B_k
    subset T}.  Once the bits in P are done, entry S holds the valuation
    #{k >= 1 : B_k subset S, S & P subset B_k} >= 0; at the end that is
    v_p(c(S)) = #{k : B_k = S}.  The full set's entry is never a divisor.
    """
    red = ws.reduced()
    size = 1 << len(red.u)
    prod_v = prod(red.v)
    mixed = [prod_v] * size  # prod u_T * prod v outside T
    lcm_u = [1] * size
    gcd_u = [0] * size
    for i, (ui, vi) in enumerate(red.pairs()):
        bit = 1 << i
        for t in range(bit):
            mixed[t | bit] = mixed[t] // vi * ui
            lcm_u[t | bit] = lcm(lcm_u[t], ui)
            gcd_u[t | bit] = gcd(gcd_u[t], ui)
    lcm_all = lcm_u[-1]
    table = [m * (lcm_all // l) for m, l in zip(mixed, lcm_u)]
    c = gcd_u[::-1]  # the gcd outside S, as full ^ S == full - S
    bit = 1
    while bit < size:
        for base in range(bit, size, 2 * bit):
            for s in range(base, base + bit):
                table[s] -= table[s ^ bit]
                c[s] //= c[s ^ bit]
        bit <<= 1
    c[-1] = 1  # the full set: its parity weight is 0, so it never enters a d_j
    return tuple(table), prod_v * lcm_all, tuple(c)


def betti_subset_sum(ws: WeightSystem) -> int:
    """Middle Betti number by direct inclusion-exclusion over index subsets.

    Independent of the divisor ring: sums (-1)^(n+1-s) * prod(u)/ (prod(v) *
    lcm(u)) over all 2^(n+1) subsets, the empty subset contributing
    (-1)^(n+1).  The sum is the full-set entry of the integer subset table
    over its common denominator.
    """
    table, denominator, _ = _subset_table(ws)
    total, remainder = divmod(table[-1], denominator)
    if remainder:
        raise NonIntegralMilnor(
            f"Betti subset sum {Fraction(table[-1], denominator)} is not an integer for {ws}"
        )
    return total


def orlik_torsion(ws: WeightSystem) -> tuple[TorsionWorksheet, tuple[tuple[int, int], ...]]:
    """Torsion coefficients of the middle homology via the subset recursion.

    c over the ordered subsets S of {0..n}: the gcd of the u_i *outside* S
    divided by the product of c over all proper subsets of S; the division
    is exact for any positive u_i (proof at :func:`_subset_table`).  k
    weights each subset by the parity epsilon of n - |S| + 1 times the
    inclusion-exclusion sum over its own subsets.  The torsion comes back as
    (d_j, multiplicity) runs, as in :class:`HomologyProfile`; unit
    coefficients are dropped.

    Subsets are bitmasks and the arithmetic is integer.  c, D and D * k for
    every subset come from the one cached butterfly of :func:`_subset_table`
    (O(n 2^n)).  floor(k) is integer floor division by D (k >= j exactly
    when floor(k) >= j).  d_j is constant between consecutive values of
    floor(k) over the subsets with c > 1, so each gap is one (d_j,
    multiplicity) run; the cost does not depend on r.
    """
    table, scale, c = _subset_table(ws)
    n1 = ws.n_vars
    # the parity weight of S is 1 when n1 - |S| is odd and 0 otherwise
    scaled_k = tuple(
        entry if (n1 - mask.bit_count()) & 1 else 0 for mask, entry in enumerate(table)
    )
    by_floor: dict[int, int] = {}  # floor(k) -> product of the c > 1 with that floor
    for c_mask, k_mask in zip(c, scaled_k):
        if c_mask > 1 and k_mask >= scale:
            level = k_mask // scale
            by_floor[level] = by_floor.get(level, 1) * c_mask
    # d_j for j up to the lowest floor is the product of every group; each
    # gap to the next floor is one run, after which that group drops out
    runs: list[tuple[int, int]] = []
    d, previous = prod(by_floor.values()), 0
    for level in sorted(by_floor):
        runs.append((d, level - previous))
        d //= by_floor[level]
        previous = level

    sheet = TorsionWorksheet(c=c, scaled_k=scaled_k, scale=scale, r=max(scaled_k) // scale)
    return sheet, tuple(runs)


# (sorted weights, degree) -> profile, while a _profile_memo scope is open
_MEMO: ContextVar[dict[tuple[tuple[int, ...], int], HomologyProfile] | None] = ContextVar(
    "bhlink_profile_memo", default=None
)
# about 500 bytes an entry; past this the oldest entry makes room
_MEMO_SIZE = 4096


@contextmanager
def _profile_memo():
    """Memoize :func:`homology_profile` for the calls made inside the block.

    A nested scope reuses the open one.  Workers forked inside the scope
    inherit its entries.  The memo ends with the outermost block, so no
    later command reads a profile computed before it started.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def homology_profile(ws: WeightSystem) -> HomologyProfile:
    """Bundle Betti number, torsion runs, Milnor number and degree.

    Cross-checks on every computed profile: the product-formula Milnor
    number equals the divisor root count, and for rational homology spheres
    the product of the torsion coefficients equals |Delta(1)|.  When every
    gcd(d, w_i) = 1 each u_i is d, so the divisor is s L_1 + x L_d with
    s = (-1)^(n+1), and mu - s = d (b - s): mu + 1 = d (b + 1) for an odd
    number of variables, mu - 1 = d (b - 1) for an even one.  Inside a
    :func:`_profile_memo` scope a system whose sorted weights and degree
    were already profiled is not computed again; a failure is never
    memoized, so its error names the system in its own order.
    """
    memo = _MEMO.get()
    if memo is None:
        return _computed_profile(ws)
    key = (tuple(sorted(ws.weights)), ws.degree)
    profile = memo.get(key)
    if profile is None:
        profile = _computed_profile(ws)
        if len(memo) >= _MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = profile
    return profile


def _computed_profile(ws: WeightSystem) -> HomologyProfile:
    divisor = link_divisor(ws)
    b = divisor.coefficient_sum()
    b_direct = betti_subset_sum(ws)
    if b != b_direct:
        raise CrossCheckFailed(
            f"betti mismatch for {ws}: divisor route {b}, subset route {b_direct}"
        )
    mu = milnor_number(ws)
    if mu != divisor.root_count():
        raise CrossCheckFailed(
            f"Milnor mismatch for {ws}: product {mu}, divisor root count {divisor.root_count()}"
        )
    if all(gcd(ws.degree, w) == 1 for w in ws.weights):
        s = -1 if ws.n_vars % 2 else 1
        if mu - s != ws.degree * (b - s):
            raise CrossCheckFailed(
                f"coprime identity mu - s = d (b - s), s = {s}, fails for {ws}: "
                f"mu = {mu}, b3 = {b}"
            )
    _, torsion = orlik_torsion(ws)
    profile = HomologyProfile(b3=b, torsion=torsion, mu=mu, degree=ws.degree)
    if b == 0:
        order = divisor.delta_order_at_one()
        if profile.torsion_order() != order:
            raise CrossCheckFailed(
                f"torsion order mismatch for {ws}: subset recursion "
                f"{profile.torsion_order()}, |Delta(1)| = {order}"
            )
    return profile


def branched_cover(ws: WeightSystem, p: int) -> tuple[WeightSystem, DiffeoType]:
    """The p-fold cover system z0^p + f and its 9-sphere diffeomorphism label.

    The cover of a five-variable system is weighted homogeneous for degree
    lcm(p, d) with a new weight d'/p prepended and the old weights scaled by
    d'/d; like every weight system, the cover is stored primitive (this is
    the unique homogeneity-preserving choice up to scaling).  When the
    9-dimensional link is a homotopy sphere, i.e. |Delta(1)| = 1, the value
    Delta(-1) mod 8 distinguishes the standard sphere (+-1) from the
    Kervaire sphere (+-3).
    """
    if ws.n_vars != 5:
        raise PreconditionFailed("branched covers are built over five-variable systems")
    if p < 2:
        raise PreconditionFailed("cover order must be at least 2")
    d2 = lcm(p, ws.degree)
    scale = d2 // ws.degree
    cover = WeightSystem((d2 // p,) + tuple(w * scale for w in ws.weights), d2)
    divisor = link_divisor(cover)
    if divisor.coefficient_sum() != 0 or divisor.delta_order_at_one() != 1:
        return cover, DiffeoType.NOT_HOMOTOPY_SPHERE
    try:
        value = divisor.delta_eval(-1)
    except PoleAtT:
        return cover, DiffeoType.INDETERMINATE
    if value.denominator != 1:
        return cover, DiffeoType.INDETERMINATE
    residue = int(value) % 8
    if residue in (1, 7):
        return cover, DiffeoType.STANDARD
    if residue in (3, 5):
        return cover, DiffeoType.KERVAIRE
    return cover, DiffeoType.INDETERMINATE
