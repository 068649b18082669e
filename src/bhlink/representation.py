"""Count and enumerate the invertible polynomials representing a weight system.

One data set (w; d) usually admits several polynomial shapes.  Exponents are
forced by the weights,

    Fermat or chain head:  a = d / w,
    chain tail:            a_k = (d - w_prev) / w_k,
    cycle entry:           a_i = (d - w_next) / w_i,

so a chain steps i -> j, and a cycle j -> i, only where (d - w_i) / w_j is a
positive integer.  One option table (cached for the last system) holds the
*valid* blocks as raw fields: Fermat blocks (d / w >= 2), then chains from
each Fermat head and cycles pinned at their smallest variable, found by one
walk along the steps, grouped by canonical key and counted per cell.  Every
exponent is >= 1, so only an even cycle can be singular, and none that is
degenerate (exponents all 1 on its even or odd positions) is kept.  So every
set partition of table blocks is a representation: the count is a subset sum
over the cell counts and builds no block, and the walk over partitions
yields them lazily in canonical order (by the (kind value, variables,
exponents) of each block, in the polynomial's block order), validating each
one as an independent check of the rules it applied.  The walk builds each block when it first
reaches it, and on request skips every chain ending in exponent 1: its
transpose has no positive weights.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from .errors import CrossCheckFailed, NoRepresentation
from .polynomial import Block, BlockKind, InvertiblePolynomial
from .weights import WeightSystem

__all__ = ["enumerate_representations", "find_chain_cycle", "has_invertible_representation"]


# the kind of each block group: its key is rank * n + first variable
_KINDS = (BlockKind.FERMAT, BlockKind.CHAIN, BlockKind.CYCLE)


@lru_cache(maxsize=1)
def _option_table(ws: WeightSystem) -> tuple[dict[int, list[tuple]], int]:
    """The valid blocks of the data as raw fields, and the number of
    representations they make.  One walk lists the (variables, exponents,
    mask) of each block under its key rank * n + first variable and counts
    the blocks of each cell by its variable bitmask; the count is a subset
    sum over those cell counts, so it builds no block."""
    n, d, w = ws.n_vars, ws.degree, ws.weights
    groups: dict[int, list[tuple]] = {}
    cells: dict[int, int] = {}
    rests = [d - x for x in w]
    # steps[i]: each j with its exponent (d - w_i) / w_j, a positive integer
    steps = [[(j, r // x) for j, x in enumerate(w) if r >= x and r % x == 0] for r in rests]
    heads = [d % x == 0 and d >= 2 * x for x in w]

    def add(key: int, variables: tuple[int, ...], exponents: tuple[int, ...], mask: int) -> None:
        groups.setdefault(key, []).append((variables, exponents, mask))
        cells[mask] = cells.get(mask, 0) + 1

    # a path, its bitmask, and the head's d / w followed by the exponents
    # (d - w_prev) / w_cur along the path: a path of a Fermat head, as it
    # stands, is a chain
    paths = []
    for v, x in enumerate(w):
        if heads[v]:
            add(v, (v,), (d // x,), 1 << v)
        paths.append(((v,), 1 << v, (d // x,)))
    while paths:
        path, mask, exps = paths.pop()
        head, last = path[0], path[-1]
        if len(path) > 1:
            if heads[head]:
                add(n + head, path, exps, mask)
            # read backwards from the head, a path that closes is a cycle; one
            # that passed a variable below the head is pinned at that one instead
            r, x = rests[last], w[head]
            if r >= x and r % x == 0 and mask & -mask == 1 << head:
                cycle = (r // x, *exps[:0:-1])
                if len(cycle) % 2 or min(max(cycle[0::2]), max(cycle[1::2])) > 1:
                    add(2 * n + head, path[:1] + path[:0:-1], cycle, mask)
        for nxt, exp in steps[last]:
            if not mask >> nxt & 1 and (heads[head] or nxt > head):
                paths.append((path + (nxt,), mask | 1 << nxt, exps + (exp,)))

    # ways[m]: the partitions of the variables of m into table cells, each
    # extended by the cells holding the lowest variable it leaves out
    by_low: dict[int, list[tuple[int, int]]] = {}
    for cell, size in cells.items():
        by_low.setdefault(cell & -cell, []).append((cell, size))
    full = (1 << n) - 1
    ways = [1] + [0] * full
    for m in range(full):
        if ways[m]:
            for cell, size in by_low.get(~m & (m + 1), ()):
                if not cell & m:
                    ways[m | cell] += ways[m] * size
    return groups, ways[full]


def count_representations(ws: WeightSystem) -> int:
    """The number of invertible polynomials of the data, summed once per
    system; builds none."""
    return _option_table(ws)[1]


@lru_cache(maxsize=1)
def _walk_order(ws: WeightSystem) -> tuple[list[tuple], int]:
    """The table's groups in the order the walk tries them, and the number of
    table entries.  Each group is its key, its first variable's bit, the
    variables the groups of larger keys cover, its kind, and its entries in
    canonical order as raw (mask, slot, variables, exponents) fields, twice:
    all of them, then only those with a transposable dual.  ``slot`` numbers
    the entries, so a walk can build each Block once."""
    n = ws.n_vars
    groups = _option_table(ws)[0]
    entries, above, slots = [], 0, 0
    for k in sorted(groups, reverse=True):
        kind = _KINDS[k // n]
        group = [(mask, slot, vs, es) for slot, (vs, es, mask) in enumerate(sorted(groups[k]), slots)]
        slots += len(group)
        # a chain ending in x^1 transposes to one headed by x^1, so the dual's
        # weight ray is w_head = d, then (d - w_head) / a = 0: checked_dual
        # raises NonPositiveWeights on every polynomial holding such a chain,
        # and a batch row passes over those, so skipping them changes nothing
        dualizable = [entry for entry in group if entry[3][-1] > 1] if kind is BlockKind.CHAIN else group
        entries.append((k, 1 << k % n, above, kind, (group, dualizable)))
        for mask, *_ in group:
            above |= mask
    # the canonical order compares kinds by value: chains, cycles, then Fermat (keys below n)
    entries.sort(key=lambda entry: (entry[0] < n, entry[0]))
    return entries, slots


def iter_representations(ws: WeightSystem, *, transposable: bool = False) -> Iterator[InvertiblePolynomial]:
    """Every representation, lazily, in canonical order; with
    ``transposable``, only those whose transpose is valid (no chain ends in
    exponent 1), which are all that can have a dual.  Each Block is built
    when the walk first reaches it."""
    n, (entries, slots) = ws.n_vars, _walk_order(ws)
    built: list[Block | None] = [None] * slots

    def walk(rest: int, last: int, chosen: tuple[Block, ...]) -> Iterator[InvertiblePolynomial]:
        if not rest:
            poly = InvertiblePolynomial(n, chosen)
            if poly.validate():
                raise CrossCheckFailed(f"the option-table walk built {poly}, violating {poly.validate()}")
            yield poly
            return
        for key, bit, reach, kind, groups in entries:
            if key > last and rest & bit:
                for mask, slot, vs, es in groups[transposable]:
                    if mask & rest == mask and not (rest ^ mask) & ~reach:
                        block = built[slot]
                        if block is None:
                            block = built[slot] = Block(kind, vs, es)
                        yield from walk(rest ^ mask, key, chosen + (block,))

    yield from walk((1 << n) - 1, -1, ())


def enumerate_representations(ws: WeightSystem) -> list[InvertiblePolynomial]:
    """All invertible polynomials P with exponent_matrix(P) . w = d . 1, in
    canonical order and without duplicates.  An empty list is a valid
    answer."""
    return list(iter_representations(ws))


def has_invertible_representation(ws: WeightSystem) -> bool:
    """Whether the data carries an invertible polynomial, read off the count:
    degenerate data can admit hundreds of thousands of them."""
    return count_representations(ws) > 0


def find_chain_cycle(ws: WeightSystem) -> InvertiblePolynomial:
    """The representation with a 2-chain on variables 0, 1 and a 3-cycle on
    2, 3, 4 with the smallest per-variable exponent tuple (then the first in
    canonical order); table blocks are valid, so it is picked from the chain
    and cycle blocks of the two cells.  Raises :class:`NoRepresentation` when
    no such polynomial matches."""
    if ws.n_vars != 5:
        raise NoRepresentation("chain-cycle search expects a five-variable system")
    groups = _option_table(ws)[0]
    # chains headed at 0 or 1 (keys 5, 6) and cycles pinned at 2 (key 12), as
    # raw (variables, exponents); a table cycle is already rotated as a Block
    # is, so (chain, cycle) pairs compare in canonical order
    chains = [(vs, es) for k in (5, 6) for vs, es, mask in groups.get(k, ()) if mask == 0b00011]
    cycles = [(vs, es) for vs, es, mask in groups.get(12, ()) if mask == 0b11100]

    def pick_key(pair):
        (chain_vs, chain_es), (cycle_vs, cycle_es) = pair
        per_variable = sorted(zip(chain_vs + cycle_vs, chain_es + cycle_es))
        return tuple(e for _, e in per_variable), pair

    chosen = min(product(chains, cycles), key=pick_key, default=None)
    if chosen is None:
        raise NoRepresentation(f"no chain-cycle representation for {ws}")
    (chain_vs, chain_es), (cycle_vs, cycle_es) = chosen
    blocks = (Block(BlockKind.CHAIN, chain_vs, chain_es), Block(BlockKind.CYCLE, cycle_vs, cycle_es))
    return InvertiblePolynomial(5, blocks)
