"""Count and enumerate the invertible polynomials representing a weight system.

One data set (w; d) usually admits several polynomial shapes.  Exponents are
forced by the weights,

    Fermat or chain head:  a = d / w,
    chain tail:            a_k = (d - w_prev) / w_k,
    cycle entry:           a_i = (d - w_next) / w_i,

so a chain steps i -> j, and a cycle j -> i, only where (d - w_i) / w_j is a
positive integer.  One option table (cached for the last system) keys the
*valid* blocks of every cell by its variable bitmask: Fermat blocks (d / w
>= 2), then chains from each Fermat head and cycles pinned at their smallest
variable, found by a walk along the steps.  Every exponent is >= 1, so only
an even cycle can be singular, and none that is degenerate (exponents all 1
on its even or odd positions) is kept.  So every set partition of table
blocks is a representation: the count is a subset sum over the table, and
the walk over partitions yields them lazily in canonical order, validating
each one as an independent check of the rules it applied.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from .errors import CrossCheckFailed, NoRepresentation
from .polynomial import Block, BlockKind, InvertiblePolynomial
from .weights import WeightSystem

__all__ = ["enumerate_representations", "find_chain_cycle", "has_invertible_representation"]


@lru_cache(maxsize=1)
def _option_table(ws: WeightSystem) -> dict[int, list[Block]]:
    """The valid blocks of every cell with any, keyed by its variable bitmask."""
    n, d, w = ws.n_vars, ws.degree, ws.weights
    table: dict[int, list[Block]] = {}
    steps = [[j for j in range(n) if d - w[i] >= w[j] and (d - w[i]) % w[j] == 0] for i in range(n)]
    heads = [d % w[v] == 0 and d >= 2 * w[v] for v in range(n)]

    def walk(path: tuple[int, ...], mask: int, tail: tuple[int, ...]) -> None:
        # tail: the exponents (d - w_prev) / w_cur along the path
        head, last = path[0], path[-1]
        if tail and heads[head]:
            table.setdefault(mask, []).append(Block(BlockKind.CHAIN, path, (d // w[head], *tail)))
        # read backwards from the head, a path that closes is a cycle
        if tail and head in steps[last] and head == min(path):
            exps = ((d - w[last]) // w[head], *tail[::-1])
            if len(exps) % 2 or min(max(exps[0::2]), max(exps[1::2])) > 1:
                table.setdefault(mask, []).append(Block(BlockKind.CYCLE, path[:1] + path[:0:-1], exps))
        for nxt in steps[last]:
            if not mask >> nxt & 1 and (heads[head] or nxt > head):
                walk(path + (nxt,), mask | 1 << nxt, tail + ((d - w[last]) // w[nxt],))

    for v in range(n):
        if heads[v]:
            table[1 << v] = [Block(BlockKind.FERMAT, (v,), (d // w[v],))]
        walk((v,), 1 << v, ())
    return table


def count_representations(ws: WeightSystem) -> int:
    """The number of invertible polynomials of the data; builds none."""
    cells: list[list[tuple[int, int]]] = [[] for _ in range(ws.n_vars)]
    for cell, options in _option_table(ws).items():
        cells[(cell & -cell).bit_length() - 1].append((cell, len(options)))
    memo = {0: 1}

    def count(m: int) -> int:
        if m not in memo:
            low = cells[(m & -m).bit_length() - 1]
            memo[m] = sum(size * count(m ^ cell) for cell, size in low if cell & m == cell)
        return memo[m]

    return count((1 << ws.n_vars) - 1)


def iter_representations(ws: WeightSystem) -> Iterator[InvertiblePolynomial]:
    """Every representation, lazily, in ``_canonical_key`` order."""
    n = ws.n_vars
    # a polynomial lists its blocks by increasing key k = rank * n + first variable
    groups: dict[int, list[tuple]] = {}
    for mask, options in _option_table(ws).items():
        for block in options:
            rank, first = block._sort_key()
            groups.setdefault(rank * n + first, []).append((block.variables, block.exponents, mask, block))
    # per key: its first variable's bit, the variables the blocks of larger
    # keys cover, and its blocks in canonical order
    entries, above = [], 0
    for k in sorted(groups, reverse=True):
        entries.append((k, 1 << k % n, above, [item[2:] for item in sorted(groups[k])]))
        for item in groups[k]:
            above |= item[2]
    # _canonical_key compares kinds by value: chains, cycles, then Fermat (keys below n)
    entries.sort(key=lambda entry: (entry[0] < n, entry[0]))

    def walk(rest: int, last: int, chosen: tuple[Block, ...]) -> Iterator[InvertiblePolynomial]:
        if not rest:
            poly = InvertiblePolynomial(n, chosen)
            if poly.validate():
                raise CrossCheckFailed(f"the option-table walk built {poly}, violating {poly.validate()}")
            yield poly
            return
        for key, bit, reach, group in entries:
            if key > last and rest & bit:
                for mask, block in group:
                    if mask & rest == mask and not (rest ^ mask) & ~reach:
                        yield from walk(rest ^ mask, key, chosen + (block,))

    yield from walk((1 << n) - 1, -1, ())


def enumerate_representations(ws: WeightSystem) -> list[InvertiblePolynomial]:
    """All invertible polynomials P with exponent_matrix(P) . w = d . 1, in
    canonical-key order and without duplicates.  An empty list is a valid
    answer."""
    return list(iter_representations(ws))


def has_invertible_representation(ws: WeightSystem) -> bool:
    """Whether the data carries an invertible polynomial, read off the count:
    degenerate data can admit hundreds of thousands of them."""
    return count_representations(ws) > 0


def _canonical_key(poly: InvertiblePolynomial):
    return tuple((block.kind.value, block.variables, block.exponents) for block in poly.blocks)


def find_chain_cycle(ws: WeightSystem) -> InvertiblePolynomial:
    """The representation with a 2-chain on variables 0, 1 and a 3-cycle on
    2, 3, 4 with the smallest per-variable exponent tuple (then the smallest
    canonical key); table blocks are valid, so it is picked from the chain
    and cycle blocks of the two cells.  Raises :class:`NoRepresentation` when
    no such polynomial matches."""
    if ws.n_vars != 5:
        raise NoRepresentation("chain-cycle search expects a five-variable system")
    table = _option_table(ws)
    chains = [b for b in table.get(0b00011, ()) if b.kind is BlockKind.CHAIN]
    cycles = [b for b in table.get(0b11100, ()) if b.kind is BlockKind.CYCLE]
    polys = (InvertiblePolynomial(5, pair) for pair in product(chains, cycles))
    chosen = min(polys, key=lambda p: (tuple(map(p.exponent_of, range(5))), _canonical_key(p)), default=None)
    if chosen is None:
        raise NoRepresentation(f"no chain-cycle representation for {ws}")
    return chosen
