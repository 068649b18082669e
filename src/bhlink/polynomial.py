"""Invertible polynomials as Fermat / chain / cycle block decompositions.

An invertible polynomial in n variables is a sum of exactly n monomials whose
exponent matrix is nonsingular; it always decomposes into blocks of three
shapes:

* Fermat  x_i^a,
* chain   x_{c0}^{e0} + x_{c0} x_{c1}^{e1} + ... + x_{c(m-1)} x_{cm}^{em},
* cycle   x_{c0}^{e0} x_{c1} + x_{c1}^{e1} x_{c2} + ... + x_{cm}^{em} x_{c0}.

The exponent matrix convention used throughout: row i holds the monomial that
*owns* variable i, i.e. the one carrying the block exponent e_i on x_i, so
the block exponents sit on the diagonal and every row has at most one
off-diagonal entry, which equals 1.  With this convention the weight
equation reads  A . w = d . (1, ..., 1)  and the transpose-dual polynomial is
literally the transposed matrix: chains reverse orientation, cycles reverse
their cyclic orientation, Fermat blocks are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "BlockKind",
    "Block",
    "InvertiblePolynomial",
    "classify",
]

Matrix = list[list[int]]


class BlockKind(str, Enum):
    FERMAT = "fermat"
    CHAIN = "chain"
    CYCLE = "cycle"


# Violation codes returned by InvertiblePolynomial.validate().
NOT_A_PARTITION = "NotAPartition"
FERMAT_EXPONENT_TOO_SMALL = "FermatExponentTooSmall"
CHAIN_HEAD_TOO_SMALL = "ChainHeadTooSmall"
CHAIN_TAIL_TOO_SMALL = "ChainTailTooSmall"
CYCLE_EXPONENT_TOO_SMALL = "CycleExponentTooSmall"
EVEN_CYCLE_DEGENERATE = "EvenCycleDegenerate"
SINGULAR_MATRIX = "SingularMatrix"
BLOCK_TOO_SHORT = "BlockTooShort"

# the block order within a polynomial: Fermat blocks, then chains, then cycles
_RANK = {BlockKind.FERMAT: 0, BlockKind.CHAIN: 1, BlockKind.CYCLE: 2}


@dataclass(frozen=True)
class Block:
    """One Fermat, chain or cycle block.

    ``variables`` lists the variable indices in block order (chain order for
    chains, cyclic successor order for cycles) and ``exponents`` is aligned
    with it.  Cycles are stored rotated so the smallest variable comes first,
    which makes equality and deduplication deterministic; rotating a cycle
    relabels nothing, while reflecting it changes the monomial set and is a
    genuinely different polynomial.
    """

    kind: BlockKind
    variables: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.exponents):
            raise ValueError("variables and exponents must have equal length")
        if self.kind is BlockKind.CYCLE and self.variables:
            # canonical rotation: minimal variable first
            pivot = self.variables.index(min(self.variables))
            if pivot:
                object.__setattr__(
                    self, "variables", self.variables[pivot:] + self.variables[:pivot]
                )
                object.__setattr__(
                    self, "exponents", self.exponents[pivot:] + self.exponents[:pivot]
                )

    def determinant(self) -> int:
        """Determinant of the block's own exponent matrix."""
        prod = 1
        for e in self.exponents:
            prod *= e
        if self.kind is BlockKind.CYCLE:
            # expansion of the cyclic matrix: prod(e) - (-1)^len
            return prod - (-1) ** len(self.variables)
        return prod

    def _sort_key(self) -> tuple[int, int]:
        return (_RANK[self.kind], self.variables[0])


@dataclass(frozen=True)
class InvertiblePolynomial:
    """A block decomposition of an invertible polynomial on n_vars variables.

    Blocks are stored in canonical order (Fermat blocks by variable index,
    then chains by head index, then cycles by minimal index), so dataclass
    equality is structural equality of polynomials.
    """

    n_vars: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(sorted(self.blocks, key=Block._sort_key))
        )

    # ----- structure -------------------------------------------------------

    def validate(self) -> list[str]:
        """Return the list of violated structural conditions (empty == valid)."""
        violations: list[str] = []
        seen = [v for b in self.blocks for v in b.variables]
        if sorted(seen) != list(range(self.n_vars)):
            violations.append(NOT_A_PARTITION)
        for b in self.blocks:
            if b.kind is BlockKind.FERMAT:
                if len(b.variables) != 1:
                    violations.append(BLOCK_TOO_SHORT)
                elif b.exponents[0] < 2:
                    violations.append(FERMAT_EXPONENT_TOO_SMALL)
            elif b.kind is BlockKind.CHAIN:
                if len(b.variables) < 2:
                    violations.append(BLOCK_TOO_SHORT)
                    continue
                if b.exponents[0] < 2:
                    violations.append(CHAIN_HEAD_TOO_SMALL)
                if min(b.exponents[1:]) < 1:
                    violations.append(CHAIN_TAIL_TOO_SMALL)
            else:
                if len(b.variables) < 2:
                    violations.append(BLOCK_TOO_SHORT)
                    continue
                if min(b.exponents) < 1:
                    violations.append(CYCLE_EXPONENT_TOO_SMALL)
                if len(b.variables) % 2 == 0:
                    # even cycles with a_j = 1 on all even or all odd positions
                    # have non-unique weights
                    evens = b.exponents[0::2]
                    odds = b.exponents[1::2]
                    if all(e == 1 for e in evens) or all(e == 1 for e in odds):
                        violations.append(EVEN_CYCLE_DEGENERATE)
        if NOT_A_PARTITION not in violations:
            det = 1
            for b in self.blocks:
                det *= b.determinant()
            if det == 0:
                violations.append(SINGULAR_MATRIX)
        return violations

    def exponent_matrix(self) -> Matrix:
        """The n x n exponent matrix, row i = monomial owning variable i."""
        n = self.n_vars
        m = [[0] * n for _ in range(n)]
        for b in self.blocks:
            vs, es = b.variables, b.exponents
            if b.kind is BlockKind.FERMAT:
                m[vs[0]][vs[0]] = es[0]
            elif b.kind is BlockKind.CHAIN:
                m[vs[0]][vs[0]] = es[0]
                for k in range(1, len(vs)):
                    m[vs[k]][vs[k]] = es[k]
                    m[vs[k]][vs[k - 1]] = 1
            else:
                for k, v in enumerate(vs):
                    m[v][v] = es[k]
                    m[v][vs[(k + 1) % len(vs)]] += 1
        return m

    def transpose(self) -> InvertiblePolynomial:
        """The polynomial of the transposed exponent matrix (an involution).

        Block by block: chains and cycles reverse their variable order, each
        exponent staying on its variable; a Fermat block reversed is itself.
        """
        blocks = (Block(b.kind, b.variables[::-1], b.exponents[::-1]) for b in self.blocks)
        return InvertiblePolynomial(self.n_vars, tuple(blocks))

    def exponent_of(self, variable: int) -> int:
        """The block exponent carried by one variable (its diagonal entry)."""
        for b in self.blocks:
            if variable in b.variables:
                return b.exponents[b.variables.index(variable)]
        raise ValueError(f"variable {variable} not in any block")

    def render(self) -> str:
        """Text form in standard notation, e.g. ``z0^3 + z0*z1^2 + z4*z2^5``.

        Monomials appear in owner-variable order; in two-variable monomials
        the exponent-1 variable is written first.
        """
        rows = self.exponent_matrix()
        parts = []
        for r, row in enumerate(rows):
            if not any(row):
                continue
            own = f"z{r}" if row[r] == 1 else f"z{r}^{row[r]}"
            other = [c for c in range(self.n_vars) if c != r and row[c]]
            parts.append(f"z{other[0]}*{own}" if other else own)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def classify(poly: InvertiblePolynomial) -> str:
    """Type label computed from the block multiset.

    One of ``BP``, ``Chain``, ``Cycle``, ``BP-Chain``, ``BP-Cycle``,
    ``Chain-Cycle``, ``Cycle-Cycle`` or ``Mixed(...)``.
    """
    counts = {BlockKind.FERMAT: 0, BlockKind.CHAIN: 0, BlockKind.CYCLE: 0}
    for b in poly.blocks:
        counts[b.kind] += 1
    nf, nch, ncy = counts[BlockKind.FERMAT], counts[BlockKind.CHAIN], counts[BlockKind.CYCLE]
    if nch == 0 and ncy == 0:
        return "BP"
    if nf == 0 and nch == 1 and ncy == 0:
        return "Chain"
    if nf == 0 and nch == 0 and ncy == 1:
        return "Cycle"
    if nch == 1 and ncy == 0:
        return "BP-Chain"
    if nch == 0 and ncy == 1:
        return "BP-Cycle"
    if nf == 0 and nch == 1 and ncy == 1:
        return "Chain-Cycle"
    if nf == 0 and nch == 0 and ncy == 2:
        return "Cycle-Cycle"
    kinds = ",".join(
        f"{kind.value}x{count}" for kind, count in counts.items() if count
    )
    return f"Mixed({kinds})"
