"""Enumerate the invertible polynomials representing a given weight system.

One data set (w; d) usually admits several polynomial shapes.  The search is
exhaustive: every set partition of the variables, every role assignment
(Fermat / chain / cycle), every linear order of a chain and cyclic order of a
cycle.  Exponents are then forced by the weights,

    Fermat or chain head:  a = d / w,
    chain tail:            a_k = (d - w_prev) / w_k,
    cycle entry:           a_i = (d - w_next) / w_i,

and a candidate survives iff all exponents are positive integers and the
structural validation passes.  Cycle orders are enumerated up to rotation
only; a reflected cycle is a different polynomial.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

from .errors import NoRepresentation
from .polynomial import Block, BlockKind, InvertiblePolynomial
from .weights import WeightSystem

__all__ = ["enumerate_representations", "find_chain_cycle", "has_invertible_representation"]


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def _chain_block(order: tuple[int, ...], ws: WeightSystem) -> Block | None:
    d, w = ws.degree, ws.weights
    head = order[0]
    if d % w[head] != 0:
        return None
    exps = [d // w[head]]
    if exps[0] < 2:
        return None
    for prev, cur in zip(order, order[1:]):
        num = d - w[prev]
        if num <= 0 or num % w[cur] != 0:
            return None
        exps.append(num // w[cur])
    return Block(BlockKind.CHAIN, order, tuple(exps))


def _cycle_block(order: tuple[int, ...], ws: WeightSystem) -> Block | None:
    d, w = ws.degree, ws.weights
    m = len(order)
    exps = []
    for k in range(m):
        cur, nxt = order[k], order[(k + 1) % m]
        num = d - w[nxt]
        if num <= 0 or num % w[cur] != 0:
            return None
        exps.append(num // w[cur])
    return Block(BlockKind.CYCLE, order, tuple(exps))


def _fermat_block(var: int, ws: WeightSystem) -> Block | None:
    if ws.degree % ws.weights[var] != 0:
        return None
    a = ws.degree // ws.weights[var]
    if a < 2:
        return None
    return Block(BlockKind.FERMAT, (var,), (a,))


def _block_options(cell: list[int], ws: WeightSystem) -> list[Block]:
    options: list[Block] = []
    if len(cell) == 1:
        b = _fermat_block(cell[0], ws)
        return [b] if b else []
    for order in permutations(cell):
        b = _chain_block(tuple(order), ws)
        if b:
            options.append(b)
    # rotations are the same cycle: pin the smallest variable first
    smallest, rest = cell[0], cell[1:]
    for tail in permutations(rest):
        b = _cycle_block((smallest,) + tail, ws)
        if b:
            options.append(b)
    return options


def _iter_representations(ws: WeightSystem) -> Iterator[InvertiblePolynomial]:
    n = ws.n_vars
    for partition in _set_partitions(list(range(n))):
        per_cell = [_block_options(sorted(cell), ws) for cell in partition]
        if any(not options for options in per_cell):
            continue

        def assemble(i: int, chosen: list[Block]) -> Iterator[InvertiblePolynomial]:
            if i == len(per_cell):
                poly = InvertiblePolynomial(n, tuple(chosen))
                if not poly.validate():
                    yield poly
                return
            for block in per_cell[i]:
                yield from assemble(i + 1, chosen + [block])

        yield from assemble(0, [])


def enumerate_representations(ws: WeightSystem) -> list[InvertiblePolynomial]:
    """All invertible polynomials P with exponent_matrix(P) . w = d . 1.

    The result is duplicate-free and sorted by a canonical key, so the output
    order is deterministic.  An empty list is a valid answer.
    """
    return sorted(set(_iter_representations(ws)), key=_canonical_key)


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


def find_chain_cycle(
    ws: WeightSystem,
    grouping: tuple[tuple[int, int], tuple[int, int, int]] = ((0, 1), (2, 3, 4)),
) -> InvertiblePolynomial:
    """The representation with a 2-chain on ``grouping[0]`` and a 3-cycle on
    ``grouping[1]``, tie-broken by the smallest per-variable exponent tuple.

    Raises :class:`NoRepresentation` when no such polynomial matches the
    weights.
    """
    if ws.n_vars != 5:
        raise NoRepresentation("chain-cycle search expects a five-variable system")
    chains = [b for b in _block_options(list(grouping[0]), ws) if b.kind is BlockKind.CHAIN]
    cycles = [b for b in _block_options(sorted(grouping[1]), ws) if b.kind is BlockKind.CYCLE]
    polys = (InvertiblePolynomial(5, blocks) for blocks in product(chains, cycles))
    candidates = [poly for poly in polys if not poly.validate()]
    if not candidates:
        raise NoRepresentation(f"no chain-cycle representation for {ws}")
    return min(candidates, key=_exponent_tuple)
