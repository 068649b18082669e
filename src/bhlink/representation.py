"""Count and enumerate the invertible polynomials representing a weight system.

Every monomial of an invertible polynomial is x_v^a or x_v^a x_j, one per
variable v, the one that owns it (Kreuzer and Skarke, *On the
classification of quasihomogeneous functions*, Comm. Math. Phys. 150,
1992).  So a representation is a *partner map*: each variable is either a
head, owning x_v^a alone, or picks one partner j != v, and no variable is
picked twice.  The orbits of such a map are chains, each ending at its head
(a Fermat block is a head alone), and cycles.  Exponents are forced by the
weights,

    Fermat or chain head:  a = d / w,               an integer >= 2,
    chain tail:            a_k = (d - w_prev) / w_k,
    cycle entry:           a_i = (d - w_next) / w_i,

so v may take j as its partner only where (d - w_j) / w_v is a positive
integer (:func:`_partners` states this rule once).  Every exponent is >= 1,
so only an even cycle can be singular; a map holding one that is degenerate
(exponents all 1 on its even or its odd positions) is rejected, and every
other partner map is exactly one representation.  So existence is a
first-found search over partner maps that builds no polynomial, and the
chain-cycle pick reads its few candidates straight from the partner rule.

Counting and enumeration share one option table (cached for the last
system), which holds the *valid* blocks as raw fields: Fermat blocks, then
chains from each head and cycles pinned at their smallest variable, found by
one walk from partners to the variables that may pick them, grouped by
canonical key and counted per cell.  Every set partition of table blocks is
a representation: the count is a subset sum over the cell counts and builds
no block, and the walk over partitions yields them lazily in canonical order
(by the (kind value, variables, exponents) of each block, in the
polynomial's block order), validating each one as an independent check of
the rules it applied.  The walk builds each block when it first reaches it,
and on request skips every chain ending in exponent 1: its transpose has no
positive weights.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import CrossCheckFailed, NoRepresentation
from .polynomial import CHAIN, CYCLE, FERMAT, Block, InvertiblePolynomial
from .weights import WeightSystem

__all__ = ["enumerate_representations", "find_chain_cycle", "has_invertible_representation"]


# the kind of each block group: its key is rank * n + first variable
_KINDS = (FERMAT, CHAIN, CYCLE)


@lru_cache(maxsize=1)
def _partners(ws: WeightSystem) -> tuple[list[dict[int, int]], list[int]]:
    """The monomials each variable may own.  ``partners[v][j]`` is the
    exponent a of x_v^a x_j, (d - w_j) / w_v, for each j != v where that is
    a positive integer; ``heads[v]`` is the exponent of x_v^a alone, d / w_v
    where that is an integer >= 2, and 0 where v cannot be a head.  Cached
    for the last system, so the table and the chain-cycle pick of one batch
    row share it."""
    d, w = ws.degree, ws.weights
    rests = [d - x for x in w]
    partners: list[dict[int, int]] = [{} for _ in w]
    # loops, not comprehensions, which cost a call each before Python 3.12
    for v, x in enumerate(w):
        row = partners[v]
        for j, r in enumerate(rests):
            if r % x == 0 and r > 0 and j != v:
                row[j] = r // x
    return partners, [d // x if d % x == 0 and d >= 2 * x else 0 for x in w]


def _pickers(partners: list[dict[int, int]]) -> list[dict[int, int]]:
    """The partner map inverted: ``pickers[j][v]`` is ``partners[v][j]``, for
    walks that go from a partner to the variables that may pick it."""
    pickers: list[dict[int, int]] = [{} for _ in partners]
    for v, row in enumerate(partners):
        for j, a in row.items():
            pickers[j][v] = a
    return pickers


def _degenerate(cycle: tuple[int, ...] | list[int]) -> bool:
    """Whether a cycle's exponents make it singular: an even cycle whose
    exponents are all 1 on its even or on its odd positions."""
    return len(cycle) % 2 == 0 and min(max(cycle[0::2]), max(cycle[1::2])) == 1


@lru_cache(maxsize=1)
def _option_table(ws: WeightSystem) -> tuple[dict[int, list[tuple]], int]:
    """The valid blocks of the data as raw fields, and the number of
    representations they make.  One walk lists the (variables, exponents,
    mask) of each block under its key rank * n + first variable and counts
    the blocks of each cell by its variable bitmask; the count is a subset
    sum over those cell counts, so it builds no block."""
    n = ws.n_vars
    groups: dict[int, list[tuple]] = {}
    cells: dict[int, int] = {}
    partners, heads = _partners(ws)
    pickers = _pickers(partners)

    # a path of at least two variables, its bitmask, and the head's exponent
    # followed by the exponents (d - w_prev) / w_cur along the path: a path
    # from a head, as it stands, is a chain.  A path from a variable that
    # heads no chain visits only larger ones: it can only close into a cycle
    # pinned at that variable
    paths = []
    for v, a in enumerate(heads):
        if a:
            groups[v] = [((v,), (a,), 1 << v)]
            cells[1 << v] = 1
        for nxt, exp in pickers[v].items():
            if a or nxt > v:
                paths.append(((v, nxt), 1 << v | 1 << nxt, (a, exp)))
    while paths:
        path, mask, exps = paths.pop()
        head, last = path[0], path[-1]
        if heads[head]:
            groups.setdefault(n + head, []).append((path, exps, mask))
            cells[mask] = cells.get(mask, 0) + 1
        # read backwards from the head, a path that closes is a cycle; one
        # that passed a variable below the head is pinned at that one instead
        if last in partners[head] and mask & -mask == 1 << head:
            cycle = (partners[head][last], *exps[:0:-1])
            if not _degenerate(cycle):
                groups.setdefault(2 * n + head, []).append((path[:1] + path[:0:-1], cycle, mask))
                cells[mask] = cells.get(mask, 0) + 1
        for nxt, exp in pickers[last].items():
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
        # a chain ending in x^1 transposes to one headed by x^1, so the dual's
        # weight ray is w_head = d, then (d - w_head) / a = 0: checked_dual
        # raises NonPositiveWeights on every polynomial holding such a chain,
        # and a batch row passes over those, so skipping them changes nothing
        chains = kind is CHAIN
        group, dualizable, cover = [], [], 0
        for vs, es, mask in sorted(groups[k]):
            entry = (mask, slots, vs, es)
            group.append(entry)
            if es[-1] > 1 or not chains:
                dualizable.append(entry)
            cover |= mask
            slots += 1
        entries.append((k, 1 << k % n, above, kind, (group, dualizable)))
        above |= cover
    # the canonical order compares kinds by value: chains, cycles, then Fermat (keys below n)
    entries.sort(key=lambda entry: (entry[0] < n, entry[0]))
    return entries, slots


def iter_representations(ws: WeightSystem, *, transposable: bool = False) -> Iterator[InvertiblePolynomial]:
    """Every representation, lazily, in canonical order; with
    ``transposable``, only those whose transpose is valid (no chain ends in
    exponent 1), which are all that can have a dual.  Each Block is built
    when the walk first reaches it."""
    n, (entries, slots) = ws.n_vars, _walk_order(ws)
    # a module-level recursion: a nested one would close over itself, and the
    # cycle would keep its blocks alive until the cyclic collector ran
    yield from _walk(n, entries, [None] * slots, transposable, (1 << n) - 1, -1, ())


def _walk(
    n: int, entries: list[tuple], built: list[Block | None], transposable: bool, rest: int, last: int,
    chosen: tuple[Block, ...],
) -> Iterator[InvertiblePolynomial]:
    """The representations that cover the variables of ``rest`` with groups
    of keys above ``last``, each after ``chosen``; ``built`` holds the Block
    of each table slot once the walk has reached it."""
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
                    yield from _walk(n, entries, built, transposable, rest ^ mask, key, chosen + (block,))


def enumerate_representations(ws: WeightSystem) -> list[InvertiblePolynomial]:
    """All invertible polynomials whose exponent matrix A has A . w = d . 1, in
    canonical order and without duplicates.  An empty list is a valid
    answer."""
    return list(iter_representations(ws))


def has_invertible_representation(ws: WeightSystem) -> bool:
    """Whether the data carries an invertible polynomial: a first-found
    search over partner maps, which correspond one to one to the
    representations (see the module docstring), so it answers exactly
    ``count_representations(ws) > 0``.  Each variable in turn is a head or
    picks a partner nobody has picked yet, and a map that closes a
    degenerate even cycle is abandoned.  It builds no table, no block and no
    polynomial: degenerate data with hundreds of thousands of
    representations answers at its first one."""
    n = ws.n_vars
    partners, heads = _partners(ws)
    # the variables with the fewest options go first, so a dead end shows
    # before the search branches on variables with many
    order = sorted(range(n), key=lambda v: (heads[v] > 0) + len(partners[v]))
    if not heads[order[0]] and not partners[order[0]]:
        return False
    # partner[v]: None while v is not placed, -1 for a head
    return _place(order, partners, heads, [None] * n, [0] * n, 0, 0)


def _place(
    order: list[int], partners: list[dict[int, int]], heads: list[int], partner: list[int | None],
    exps: list[int], i: int, picked: int,
) -> bool:
    """Whether the partial map ``partner`` (with the exponent of each placed
    variable in ``exps``) extends to a representation, placing ``order[i:]``
    in turn; ``picked`` marks the variables already taken as partners.  A
    module-level recursion, so no call leaves a reference cycle behind."""
    if i == len(order):
        return True
    v = order[i]
    if heads[v]:
        partner[v] = -1
        if _place(order, partners, heads, partner, exps, i + 1, picked):
            return True
    for j, a in partners[v].items():
        if not picked >> j & 1:
            partner[v], exps[v] = j, a
            if not _closes_degenerate_cycle(partner, exps, v) and _place(
                order, partners, heads, partner, exps, i + 1, picked | 1 << j
            ):
                return True
    partner[v] = None
    return False


def _closes_degenerate_cycle(partner: list[int | None], exps: list[int], v: int) -> bool:
    """Whether v's new partner closes a degenerate cycle: its orbit comes
    back to v before it meets a head or a variable not placed yet."""
    cycle, k = [exps[v]], partner[v]
    while k != v:
        if partner[k] is None or partner[k] < 0:
            return False
        cycle.append(exps[k])
        k = partner[k]
    return _degenerate(cycle)


def find_chain_cycle(ws: WeightSystem) -> InvertiblePolynomial:
    """The representation with a 2-chain on variables 0, 1 and a 3-cycle on
    2, 3, 4 with the smallest per-variable exponent tuple (then the first in
    canonical order).  Its at most two chains and two cycles are read from
    the partner rule; a 3-cycle is odd, so each of them is valid, and only
    the winner's two blocks are built.  Raises :class:`NoRepresentation`
    when no such polynomial matches."""
    if ws.n_vars != 5:
        raise NoRepresentation("chain-cycle search expects a five-variable system")
    partners, heads = _partners(ws)
    # (per-variable exponents, variables, exponents) of each chain
    # x_h^a + x_h x_t^b, and of each cycle x_2^a x_s + x_s^b x_t + x_t^c x_2,
    # rotated to start at 2 as a Block stores it
    chains, cycles = [], []
    for h, t in ((0, 1), (1, 0)):
        if heads[h] and h in partners[t]:
            a, b = heads[h], partners[t][h]
            chains.append(((a, b) if h == 0 else (b, a), (h, t), (a, b)))
    for s, t in ((3, 4), (4, 3)):
        if s in partners[2] and t in partners[s] and 2 in partners[t]:
            a, b, c = partners[2][s], partners[s][t], partners[t][2]
            cycles.append(((a, b, c) if s == 3 else (a, c, b), (2, s, t), (a, b, c)))
    if not chains or not cycles:
        raise NoRepresentation(f"no chain-cycle representation for {ws}")
    # the cells are disjoint and two chains never tie on exponents (the one
    # headed at 1 gives x_0 the smaller one), so the smallest per-variable
    # exponent tuple, then canonical order, picks the chain and the cycle apart
    _, chain_vs, chain_es = min(chains)
    _, cycle_vs, cycle_es = min(cycles)
    blocks = (Block(CHAIN, chain_vs, chain_es), Block(CYCLE, cycle_vs, cycle_es))
    return InvertiblePolynomial(5, blocks)
