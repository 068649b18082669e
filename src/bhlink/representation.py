"""Enumerate the invertible polynomials representing a given weight system.

One data set (w; d) usually admits several polynomial shapes.  Exponents are
forced by the weights,

    Fermat or chain head:  a = d / w,
    chain tail:            a_k = (d - w_prev) / w_k,
    cycle entry:           a_i = (d - w_next) / w_i,

so a chain steps i -> j, and a cycle j -> i, only where w_j | d - w_i.  One
option table per system holds the blocks of every cell, indexed by the
cell's variable bitmask: Fermat blocks on the singletons, chains and cycles
from a depth-first walk along those steps (chains from each head with
w | d and d / w >= 2, cycles pinned at their smallest variable; a reflected
cycle is a different polynomial).  Set partitions are walked as bitmasks,
the cell of the lowest remaining variable taken among the cells with
options, and a candidate survives iff the structural validation passes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import NoRepresentation
from .polynomial import Block, BlockKind, InvertiblePolynomial
from .weights import WeightSystem

__all__ = ["enumerate_representations", "find_chain_cycle", "has_invertible_representation"]


def _chain_block(order: tuple[int, ...], ws: WeightSystem) -> Block:
    d, w = ws.degree, ws.weights
    tail = [(d - w[prev]) // w[cur] for prev, cur in zip(order, order[1:])]
    return Block(BlockKind.CHAIN, order, (d // w[order[0]], *tail))


def _cycle_block(order: tuple[int, ...], ws: WeightSystem) -> Block:
    d, w = ws.degree, ws.weights
    exps = [(d - w[nxt]) // w[cur] for cur, nxt in zip(order, order[1:] + order[:1])]
    return Block(BlockKind.CYCLE, order, tuple(exps))


def _fermat_block(var: int, ws: WeightSystem) -> Block | None:
    a, r = divmod(ws.degree, ws.weights[var])
    return Block(BlockKind.FERMAT, (var,), (a,)) if r == 0 and a >= 2 else None


def _option_table(ws: WeightSystem) -> list[list[Block]]:
    """Every Fermat, chain and cycle block of the system, indexed by the
    bitmask of its variables; chains come before cycles in each cell."""
    n, d, w = ws.n_vars, ws.degree, ws.weights
    table: list[list[Block]] = [[] for _ in range(1 << n)]
    # a chain may step i -> j, and a cycle j -> i, iff w_j | d - w_i
    steps = [[j for j in range(n) if (d - w[i]) % w[j] == 0] for i in range(n)]
    # a chain head is a variable with a Fermat block: w | d and d / w >= 2
    fermat = [_fermat_block(v, ws) for v in range(n)]

    def walk(path: tuple[int, ...], mask: int) -> None:
        head, last = path[0], path[-1]
        if len(path) > 1:
            if fermat[head]:
                table[mask].append(_chain_block(path, ws))
            # read backwards from the head, a path that closes is a cycle
            if head in steps[last] and head == min(path):
                table[mask].append(_cycle_block(path[:1] + path[:0:-1], ws))
        for nxt in steps[last]:
            if not mask >> nxt & 1 and (fermat[head] or nxt > head):
                walk(path + (nxt,), mask | 1 << nxt)

    for v in range(n):
        table[1 << v] = [fermat[v]] if fermat[v] else []
        walk((v,), 1 << v)
    for options in table:
        options.sort(key=lambda b: b.kind is BlockKind.CYCLE)
    return table


def _iter_representations(ws: WeightSystem) -> Iterator[InvertiblePolynomial]:
    n = ws.n_vars
    table = _option_table(ws)
    # the cells with options, grouped by their lowest variable; largest mask
    # first (and chains first in each cell) puts a valid polynomial first on
    # every benchmark system, so has_invertible_representation stops there
    cells: list[list[int]] = [[] for _ in range(n)]
    for mask in range((1 << n) - 1, 0, -1):
        if table[mask]:
            cells[(mask & -mask).bit_length() - 1].append(mask)

    def assemble(rest: int, chosen: tuple[Block, ...]) -> Iterator[InvertiblePolynomial]:
        if not rest:
            poly = InvertiblePolynomial(n, chosen)
            if not poly.validate():
                yield poly
            return
        for cell in cells[(rest & -rest).bit_length() - 1]:
            if cell & rest == cell:
                for block in table[cell]:
                    yield from assemble(rest ^ cell, chosen + (block,))

    yield from assemble((1 << n) - 1, ())


def enumerate_representations(ws: WeightSystem) -> list[InvertiblePolynomial]:
    """All invertible polynomials P with exponent_matrix(P) . w = d . 1.

    Sorted by a canonical key, so the output order is deterministic; the walk
    yields no duplicates (set partitions are distinct bitmasks and a cell
    lists each block once).  An empty list is a valid answer.
    """
    return sorted(_iter_representations(ws), key=_canonical_key)


def has_invertible_representation(ws: WeightSystem) -> bool:
    """Whether the data carries at least one invertible polynomial.

    Early-exits on the first hit; degenerate data (all weights equal, say)
    can admit hundreds of thousands of representations, so callers that only
    need existence must not enumerate them all.
    """
    return next(_iter_representations(ws), None) is not None


def _canonical_key(poly: InvertiblePolynomial):
    return tuple(
        (block.kind.value, block.variables, block.exponents) for block in poly.blocks
    )


def _exponent_tuple(poly: InvertiblePolynomial) -> tuple[int, ...]:
    return tuple(poly.exponent_of(i) for i in range(poly.n_vars))


def pick_chain_cycle(polys: Iterable[InvertiblePolynomial]) -> InvertiblePolynomial | None:
    """The polynomial whose blocks are exactly a chain on variables 0, 1 and a
    cycle on 2, 3, 4 with the smallest per-variable exponent tuple (then the
    smallest canonical key), or None when there is none.  The key is total,
    so the order of ``polys`` does not matter."""
    shape = [(BlockKind.CHAIN, {0, 1}), (BlockKind.CYCLE, {2, 3, 4})]
    matches = (p for p in polys if [(b.kind, set(b.variables)) for b in p.blocks] == shape)
    return min(matches, key=lambda p: (_exponent_tuple(p), _canonical_key(p)), default=None)


def find_chain_cycle(ws: WeightSystem) -> InvertiblePolynomial:
    """The representation with a 2-chain on variables 0, 1 and a 3-cycle on
    2, 3, 4, tie-broken by the smallest per-variable exponent tuple.

    Raises :class:`NoRepresentation` when no such polynomial matches the
    weights.
    """
    if ws.n_vars != 5:
        raise NoRepresentation("chain-cycle search expects a five-variable system")
    chosen = pick_chain_cycle(_iter_representations(ws))
    if chosen is None:
        raise NoRepresentation(f"no chain-cycle representation for {ws}")
    return chosen
