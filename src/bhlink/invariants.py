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
One cached call per system reduces the weights and runs a straight-line
kernel, generated once per variable count (at most 8), that fills two
per-mask arrays: the signed terms (-1)^(n+1-|T|) D f(T) for f(T) = prod u_T /
(prod v_T * lcm u_T) over the common denominator D = prod v * lcm u, and the
c-numbers in closed form, c(S) = g(S) / gcd(g(S), lcm u_S) with g(S) the gcd
of the u_i outside S.  The Betti number is one sum of all the terms.  A
k-number is the parity-filtered inclusion-exclusion sum over the submasks
of S, and only a subset with c > 1 can enter the torsion, so the recursion
sums the submasks of those subsets alone; the torsion worksheet keeps c
and the terms, and computes r on first read.  The torsion is
returned as runs: the subsets with c > 1 are grouped by floor(k), and each
gap between consecutive floors is one factor with its multiplicity, so no
sequence with one entry per copy is ever built.  The cost is 2^(n+1) terms
plus 2^|S| for each subset S of parity weight 1 with c(S) > 1, at most
3^(n+1); on 1,200 generated systems of 5 to 8 weights it is at most half
the (n+1) 2^(n+1) steps of a Mobius butterfly over both arrays (worst 680
against 2,048 at 8 weights).  It does not depend on r = floor(max k),
which grows like (d/w)^(n-1).

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
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from enum import Enum

from .divisor import CyclotomicDivisor, _lowest_terms, expand_link_divisor
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

    Bit i of a mask stands for index i.  ``c`` values are positive integers,
    in closed form (see :func:`_subset_table`); ``terms`` holds the signed
    terms (-1)^(n+1-|T|) D f(T) and ``scale`` is D.  On a subset S of
    parity weight 1, D k(S) is ``_inclusion_exclusion(terms, S)``;
    k is 0 on the others.  ``r`` = floor(max k), computed on first read:
    the torsion runs need k only where c > 1.  The full index set has no
    complement gcd; its parity weight is 0 so it never enters any d_j, and
    its c is recorded as 1.
    """

    c: tuple[int, ...]
    terms: tuple[int, ...]
    scale: int

    @cached_property
    def r(self) -> int:
        n1 = len(self.terms).bit_length() - 1
        # k is 0 on the masks of parity weight 0
        return max(0, *(_inclusion_exclusion(self.terms, mask) for mask in _odd_masks(n1))) // self.scale


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
        raise NonIntegralMilnor(f"Milnor product {_lowest_terms(numerator, denominator)} is not an integer for {ws}")
    return value


# the kernel's text grows as 3 * 2^n1 lines; the CLI reads its weight bound here
_MAX_WEIGHTS = 8


@lru_cache(maxsize=None)
def _table_kernel(n1: int):
    """The straight-line filler of :func:`_subset_table` for n1 weights,
    generated once per variable count.

    ``kernel(u_0, .., u_{n1-1}, v_0, .., v_{n1-1})`` returns ``(terms, D, c)``.
    Mask m with low bit i has parent p = m ^ (m & -m), and its entries are
    locals: s_m = s_p // -v_i * u_i (the sign flips with each index), l_m =
    lcm(l_p, u_i) and g_m = gcd(g_p, u_i); a one-index mask's lcm and gcd
    are u_i itself.  Every division is exact, so the parent chosen cannot
    change a value.  The text holds only names built from integer indices,
    and it runs with no builtins: its namespace holds ``gcd`` and ``lcm``.
    Generating it costs 1.0-1.2 ms at 5 weights, 10.2-10.7 ms at 8 (2-CPU Xeon, CPython 3.11.7).
    """
    full = (1 << n1) - 1
    args = ", ".join([f"u{i}" for i in range(n1)] + [f"v{i}" for i in range(n1)])
    lines = [f"def kernel({args}):", f"    pv = {' * '.join(f'v{i}' for i in range(n1))}"]
    # s, l and g: the expression naming each mask's entry; the empty set's
    # lcm is 1 and it has no gcd, which only the full set's c would read
    s = ["-pv" if n1 & 1 else "pv"]
    l, g = ["1"], [""]
    for m in range(1, full + 1):
        i = (m & -m).bit_length() - 1
        p = m & (m - 1)
        lines.append(f"    s{m} = {s[p]} // -v{i} * u{i}")
        s.append(f"s{m}")
        if p:
            lines += [f"    l{m} = lcm({l[p]}, u{i})", f"    g{m} = gcd({g[p]}, u{i})"]
            l.append(f"l{m}")
            g.append(f"g{m}")
        else:
            l.append(f"u{i}")
            g.append(f"u{i}")
    lcm_all = l[full]
    # L // l_m is 1 on the full set; c of the empty set is g(full) // gcd(g(full), 1)
    terms = [f"{s[0]} * {lcm_all}"]
    terms += [f"{s[m]} * ({lcm_all} // {l[m]})" for m in range(1, full)]
    terms.append(s[full])
    c = [g[full]] + [f"{g[full ^ m]} // gcd({g[full ^ m]}, {l[m]})" for m in range(1, full)] + ["1"]
    lines.append(f"    return ({', '.join(terms)}), pv * {lcm_all}, ({', '.join(c)})")
    namespace = {"__builtins__": {}, "gcd": gcd, "lcm": lcm}
    exec(compile("\n".join(lines), f"<bhlink subset-table kernel, {n1} weights>", "exec"), namespace)
    return namespace["kernel"]


@lru_cache(maxsize=1)
def _subset_table(ws: WeightSystem) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """The per-mask arrays of one system: the signed terms, D and the c-numbers.

    The first entry holds the term (-1)^(n+1-|T|) D f(T) of every bitmask T,
    with f(T) = prod u_T / (prod v_T * lcm u_T), f(empty) = 1, and D = prod v
    * lcm u, so every term is an integer; the terms are not summed here.  The
    last entry holds c(S) = g(S) / gcd(g(S), lcm u_S), with g(S) the gcd of
    the u_i outside S (the full set has no g; its c is 1).  The kernel of
    :func:`_table_kernel` fills the products, lcms and gcds of every mask
    from its parent without a loop.  A system of more than 8 weights raises
    :class:`PreconditionFailed`: the kernel's text grows as 3 * 2^(n+1)
    lines.  The last system's arrays are kept: the subset sum and the
    torsion recursion of one profile read the same ones.

    This closed form is the c of the recursion c(S) = g(S) / prod of c over
    the proper subsets of S: for a prime p let x_i = v_p(u_i) and B_k = {i :
    x_i < k}; then v_p(g(T)) = #{k >= 1 : B_k subset T}, so by Mobius
    inversion v_p(c(S)) = #{k >= 1 : B_k = S} = max(0, min_{i not in S} x_i
    - max_{i in S} x_i), which is v_p(g(S)) - min(v_p(g(S)), v_p(lcm u_S)).
    """
    if ws.n_vars > _MAX_WEIGHTS:
        raise PreconditionFailed(
            f"the subset table takes at most {_MAX_WEIGHTS} weights; {ws} has {ws.n_vars}"
        )
    red = ws.reduced()
    return _table_kernel(ws.n_vars)(*red.u, *red.v)


def _inclusion_exclusion(terms: tuple[int, ...], mask: int) -> int:
    """D times the inclusion-exclusion sum of a mask S of parity weight 1
    (n1 - |S| odd, the only masks either caller passes), sum_{T subset S}
    (-1)^(|S|-|T|) D f(T), by one pass over the submasks of S.  The terms
    carry (-1)^(n1-|T|), so the sum of the submasks' terms is the wanted
    sum times (-1)^(n1-|S|) = -1."""
    total, sub = terms[0], mask
    while sub:
        total += terms[sub]
        sub = (sub - 1) & mask
    return -total


def betti_subset_sum(ws: WeightSystem) -> int:
    """Middle Betti number by direct inclusion-exclusion over index subsets.

    Independent of the divisor ring: sums (-1)^(n+1-s) * prod(u)/ (prod(v) *
    lcm(u)) over all 2^(n+1) subsets, the empty subset contributing
    (-1)^(n+1).  Over the common denominator D that is one sum of the
    signed integer terms of :func:`_subset_table`.
    """
    terms, denominator, _ = _subset_table(ws)
    numerator = sum(terms)
    total, remainder = divmod(numerator, denominator)
    if remainder:
        raise NonIntegralMilnor(f"Betti subset sum {_lowest_terms(numerator, denominator)} is not an integer for {ws}")
    return total


@lru_cache(maxsize=None)
def _odd_masks(n1: int) -> tuple[int, ...]:
    """The subsets S of n1 indices of parity weight 1, n1 - |S| odd: the
    only ones whose k can be nonzero."""
    return tuple(mask for mask in range(1 << n1) if (n1 - mask.bit_count()) & 1)


def orlik_torsion(ws: WeightSystem) -> tuple[TorsionWorksheet, tuple[tuple[int, int], ...]]:
    """Torsion coefficients of the middle homology via the subset recursion.

    c over the ordered subsets S of {0..n}: the gcd of the u_i *outside* S
    divided by the product of c over all proper subsets of S, which is
    g(S) / gcd(g(S), lcm u_S) in closed form (proof at :func:`_subset_table`).
    k weights each subset by the parity epsilon of n - |S| + 1 times the
    inclusion-exclusion sum over its own subsets.  The torsion comes back as
    (d_j, multiplicity) runs, as in :class:`HomologyProfile`; unit
    coefficients are dropped.

    Subsets are bitmasks and the arithmetic is integer.  Only a subset with
    c > 1 and parity weight 1 can enter a d_j, so D * k is summed over the
    submasks of those alone: the cost is the 2^(n+1) terms of the cached
    table plus 2^|S| for each such S, at most 3^(n+1) and in practice a few
    dozen.  floor(k) is integer floor division by D (k >= j exactly when
    floor(k) >= j).  d_j is constant between consecutive values of floor(k)
    over the subsets with c > 1, so each gap is one (d_j, multiplicity) run;
    the cost does not depend on r.
    """
    terms, scale, c = _subset_table(ws)
    n1 = ws.n_vars
    by_floor: dict[int, int] = {}  # floor(k) -> product of the c > 1 with that floor
    for mask in _odd_masks(n1):
        c_mask = c[mask]
        if c_mask > 1:
            k_mask = _inclusion_exclusion(terms, mask)
            if k_mask >= scale:
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
    return TorsionWorksheet(c=c, terms=terms, scale=scale), tuple(runs)


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
    number of variables, mu - 1 = d (b - 1) for an even one.  A negative
    Betti number raises :class:`PreconditionFailed`: no quasismooth
    hypersurface has that link, so its profile means nothing.  Inside a
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
    if b < 0:
        # the link of a quasismooth hypersurface has b3 >= 0
        raise PreconditionFailed(f"b3 = {b} < 0: {ws} is not the link of a quasismooth hypersurface")
    mu = milnor_number(ws)
    if mu != divisor.root_count():
        raise CrossCheckFailed(
            f"Milnor mismatch for {ws}: product {mu}, divisor root count {divisor.root_count()}"
        )
    # every gcd(d, w_i) = 1 exactly when each v_i = w_i / gcd(d, w_i) is w_i
    if ws.reduced().v == ws.weights:
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
