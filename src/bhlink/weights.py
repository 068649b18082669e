"""Weight systems (w; d): A.w = d.1 solved per block, reduction, index, well-formedness.

A weight system pairs a vector of positive integer weights with the common
degree of the defining monomials.  Everything downstream consumes only the
reduced invariants u_i = d / gcd(d, w_i), v_i = w_i / gcd(d, w_i), which are
invariant under joint rescaling of (w, d).  A :class:`WeightSystem` divides
weights *and* degree by their joint gcd once it has validated them, so every
profile, index and comparison reads primitive data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

from .errors import CrossCheckFailed, NonPositiveWeights, NoSplit, SingularSystem
from .polynomial import Block, BlockKind, InvertiblePolynomial

__all__ = [
    "WeightSystem",
    "ReducedWeights",
    "SplitDecomposition",
    "solve_weights",
    "wellformed_space",
]


@dataclass(frozen=True)
class ReducedWeights:
    """Componentwise u_i = d/gcd(d, w_i), v_i = w_i/gcd(d, w_i); gcd(u_i, v_i) = 1."""

    u: tuple[int, ...]
    v: tuple[int, ...]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.u, self.v))


@dataclass(frozen=True)
class SplitDecomposition:
    """A coprime factorization d = m2 * m3 with weights w_i = m3 v_i on the
    2-element group and w_i = m2 v_i on the 3-element group.

    ``v`` is indexed by the original variable positions; ``group3`` carries
    the m3 factor and ``group2`` the m2 factor.
    """

    m2: int
    m3: int
    v: tuple[int, ...]
    group3: tuple[int, int]
    group2: tuple[int, int, int]

    @property
    def degree(self) -> int:
        return self.m2 * self.m3


@dataclass(frozen=True)
class WeightSystem:
    weights: tuple[int, ...]
    degree: int

    def __post_init__(self):
        weights, degree = tuple(int(w) for w in self.weights), int(self.degree)
        if len(weights) < 2:
            raise ValueError("a weight system needs at least two weights")
        if min(weights) < 1:
            raise NonPositiveWeights(f"weights must be positive: {weights}")
        if max(weights) >= degree:
            raise NonPositiveWeights(f"every weight must be smaller than the degree: {weights}, d={degree}")
        g = gcd(degree, *weights)
        object.__setattr__(self, "weights", tuple(w // g for w in weights) if g > 1 else weights)
        object.__setattr__(self, "degree", degree // g)

    @property
    def n_vars(self) -> int:
        return len(self.weights)

    def fano_index(self) -> int:
        """|w| - d.  Positive exactly when the quotient orbifold is Fano."""
        return sum(self.weights) - self.degree

    def reduced(self) -> ReducedWeights:
        us, vs = [], []
        for w in self.weights:
            g = gcd(self.degree, w)
            us.append(self.degree // g)
            vs.append(w // g)
        return ReducedWeights(tuple(us), tuple(vs))

    def is_wellformed_space(self) -> bool:
        return wellformed_space(self.weights)

    def is_wellformed_hypersurface(self) -> bool:
        """Well-formed ambient space and every codimension-2 gcd divides d."""
        return self.wellformedness()[1]

    def wellformedness(self) -> tuple[bool, bool]:
        """(:meth:`is_wellformed_space`, :meth:`is_wellformed_hypersurface`),
        with the space check run once."""
        space = wellformed_space(self.weights)
        rests = combinations(self.weights, len(self.weights) - 2)
        return space, space and all(self.degree % gcd(*rest) == 0 for rest in rests)

    def split(
        self,
        grouping: tuple[tuple[int, int], tuple[int, int, int]] = ((0, 1), (2, 3, 4)),
    ) -> SplitDecomposition:
        """The (m2, m3) factorization of Theorem-style five-variable data.

        ``grouping`` names the two indices carrying the m3 factor and the
        three carrying m2.  m2 is read off as u_i on the m3 group (the two
        values must agree); raises :class:`NoSplit` when any divisibility or
        coprimality requirement fails.
        """
        if len(self.weights) != 5:
            raise NoSplit("splits are defined for five-variable systems")
        g3, g2 = tuple(grouping[0]), tuple(grouping[1])
        if sorted(g3 + g2) != list(range(5)) or len(g3) != 2:
            raise NoSplit(f"grouping {grouping} does not partition the five indices")
        d = self.degree
        m2_values = {d // gcd(d, self.weights[i]) for i in g3}
        if len(m2_values) != 1:
            raise NoSplit(f"u_i disagree on the m3 group: {sorted(m2_values)}")
        # m2 = d / gcd(d, w_i) divides d, and m3 = gcd(d, w_i) divides w_i on g3
        m2 = m2_values.pop()
        m3 = d // m2
        if gcd(m2, m3) != 1:
            raise NoSplit(f"gcd(m2, m3) = gcd({m2}, {m3}) != 1")
        v = [0] * 5
        for i in g3:
            v[i] = self.weights[i] // m3
        for i in g2:
            if self.weights[i] % m2 != 0:
                raise NoSplit(f"m2 = {m2} does not divide w_{i} = {self.weights[i]}")
            v[i] = self.weights[i] // m2
        return SplitDecomposition(m2, m3, tuple(v), g3, g2)

    def __str__(self) -> str:
        return f"({', '.join(map(str, self.weights))}; d={self.degree})"


def wellformed_space(weights: tuple[int, ...] | list[int]) -> bool:
    """True iff every n-element subset of the n+1 weights has gcd 1."""
    return all(gcd(*rest) == 1 for rest in combinations(weights, len(weights) - 1))


def _block_ray(block: Block) -> tuple[list[int], int]:
    """(N, D) with N / D = A_block^-1 . 1: (n, q) <- (q - n, q a) from (0, 1)
    runs forwards over a chain (a Fermat block is one of length one) to
    N_last / D, then N_{j-1} = D - a_j N_j; backwards over a cycle, to N_0 and
    prod(a) with D = prod(a) - (-1)^L, then N_{j+1} = D - a_j N_j.  No division.
    """
    exps, cycle = block.exponents, block.kind is BlockKind.CYCLE
    num, den = 0, 1
    for a in exps[::-1] if cycle else exps:
        num, den = den - num, den * a
    if cycle:
        den -= (-1) ** len(exps)
    nums = [num]
    for a in exps[:-1] if cycle else exps[:0:-1]:
        nums.append(den - a * nums[-1])
    return (nums if cycle else nums[::-1]), den


def solve_weights(poly: InvertiblePolynomial) -> WeightSystem:
    """The unique primitive positive solution of A.w = d.(1, ..., 1).

    :func:`_block_ray` solves each block of A, d is the lcm of the reduced
    denominators and w_i = x_i . d; a block failing a_j w_j + w_link = d
    (w_link: chain predecessor, cycle successor or 0) raises
    :class:`CrossCheckFailed`.  Raises :class:`SingularSystem` when det A = 0
    (a block's D is 0, or a variable is in no block) and
    :class:`NonPositiveWeights` for a non-positive or degenerate ray.
    """
    solved, d = [], 1
    for block in poly.blocks:
        nums, den = _block_ray(block)
        if den == 0:
            raise SingularSystem("exponent matrix is singular")
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        solved.append((block, [num // g for num in nums], den // g))
        d = lcm(d, den // g)
    ray = [None] * poly.n_vars
    for block, nums, den in solved:
        ws = [num * (d // den) for num in nums]
        links = ws[1:] + ws[:1] if block.kind is BlockKind.CYCLE else [0] + ws[:-1]
        for v, a, w, link in zip(block.variables, block.exponents, ws, links):
            if a * w + link != d:
                raise CrossCheckFailed(f"block {block} solved as {ws} fails A.w = {d}.1")
            ray[v] = w
    if None in ray:
        raise SingularSystem("exponent matrix is singular")
    if min(ray) <= 0:
        raise NonPositiveWeights(f"weight ray {ray} has a non-positive entry")
    return WeightSystem(tuple(ray), d)
