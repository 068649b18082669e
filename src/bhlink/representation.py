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
chain-cycle pick reads its few candidates straight from the partner rule
(a batch row's pick returns None on a miss, and raises nothing).

Counting and enumeration share one option table, built in one pass per
system (cached for the last): the *valid* blocks as raw fields, each group
already in canonical order, counted per cell.  Every set partition of table
blocks is a representation: the count is a subset sum over the cell counts
and builds no block, and the walk over partitions yields them lazily in
canonical order (by the (kind value, variables, exponents) of each block,
in the polynomial's block order), validating each one as an independent
check of the rules it applied.  The walk builds each block when it first
reaches it, and on request skips every chain ending in exponent 1: its
transpose has no positive weights.
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
def _partners(ws: WeightSystem) -> tuple[list[dict[int, int]], list[int], list[dict[int, int]]]:
    """The monomials each variable may own.  ``partners[v][j]`` is the
    exponent a of x_v^a x_j, (d - w_j) / w_v, for each j != v where that is
    a positive integer, by ascending j; ``heads[v]`` is the exponent of x_v^a
    alone, d / w_v where that is an integer >= 2, or 0; ``pickers[j][v]`` is
    ``partners[v][j]`` by descending v.  Cached for the last system, so the
    table and the chain-cycle pick of one batch row share it."""
    d, w = ws.degree, ws.weights
    partners: list[dict[int, int]] = [{} for _ in w]
    pickers: list[dict[int, int]] = [{} for _ in w]
    down = [*enumerate(w)][::-1]
    # loops, not comprehensions, which cost a call each before Python 3.12
    for j, x in enumerate(w):
        r = d - x
        if r > 0:
            for v, y in down:
                if r % y == 0 and v != j:
                    pickers[j][v] = partners[v][j] = r // y
    return partners, [d // x if d % x == 0 and d >= 2 * x else 0 for x in w], pickers


def _degenerate(cycle: tuple[int, ...] | list[int]) -> bool:
    """Whether a cycle's exponents make it singular: an even cycle whose
    exponents are all 1 on its even or on its odd positions."""
    return len(cycle) % 2 == 0 and min(max(cycle[0::2]), max(cycle[1::2])) == 1


@lru_cache(maxsize=1)
def _option_table(ws: WeightSystem) -> tuple[list[tuple], int, int]:
    """The valid blocks in walk order, the number of entries and of
    representations.  A group is its key (rank * n + first variable), that
    variable's bit, the variables of larger keys' groups, its kind, and its
    entries in canonical order as raw (mask, slot, variables, exponents)
    fields, twice: all, then those with a transposable dual.  ``slot`` lets a
    walk build each Block once; the count sums per-cell block counts."""
    n = ws.n_vars
    partners, heads, pickers = _partners(ws)
    # per rank, each group's (first variable, entries, transposable, cover)
    found: list[list[tuple]] = [[], [], []]
    # cells[bitmask]: the cell's blocks, counted as found, grouped once below
    cells: dict[int, int] = {}
    slots = 0
    for v, a in enumerate(heads):
        bit = 1 << v
        if a:
            # a path from the head through variables that may pick the last is
            # its Fermat block alone, then a chain, exponents (d - w_prev) / w_cur;
            # pickers come by descending v, so paths pop in lexicographic order
            chains, cover = [], 0
            paths = [((v,), bit, (a,))]
            while paths:
                path, mask, exps = paths.pop()
                chains.append((mask, slots, path, exps))
                cover |= mask
                slots += 1
                cells[mask] = cells.get(mask, 0) + 1
                for nxt, exp in pickers[path[-1]].items():
                    if not mask >> nxt & 1:
                        paths.append((path + (nxt,), mask | 1 << nxt, exps + (exp,)))
            fermat = [chains.pop(0)]
            found[0].append((v, fermat, fermat, bit))
            if chains:
                # a chain ending in x^1 transposes to one headed by x^1, so the
                # dual's weights are w_head = d, then (d - w_head) / a = 0: its
                # checked_dual raises NonPositiveWeights, which a batch row skips
                transposable = [entry for entry in chains if entry[3][-1] > 1]
                found[1].append((v, chains, transposable, cover))
        # a path from v along partners above v that closes back onto v is a
        # cycle pinned at v, in block order; pushed by descending partner, the
        # paths pop in lexicographic order
        paths = []
        for nxt, exp in reversed(partners[v].items()):
            if nxt > v:
                paths.append(((v, nxt), bit | 1 << nxt, (exp,)))
        if not paths:
            continue
        closers, cycles, cover = pickers[v], [], 0
        while paths:
            path, mask, exps = paths.pop()
            last = path[-1]
            if last in closers:
                cycle = exps + (closers[last],)
                if not _degenerate(cycle):
                    cycles.append((mask, slots, path, cycle))
                    cover |= mask
                    slots += 1
                    cells[mask] = cells.get(mask, 0) + 1
            for nxt, exp in reversed(partners[last].items()):
                if nxt > v and not mask >> nxt & 1:
                    paths.append((path + (nxt,), mask | 1 << nxt, exps + (exp,)))
        if cycles:
            found[2].append((v, cycles, cycles, cover))
    # one pass by descending key gives each group the cover of those above
    # it; canonical order compares kind values: chains, cycles, then Fermat
    entries, above = [], 0
    for rank in (2, 1, 0):
        for v, group, transposable, cover in reversed(found[rank]):
            entries.append((rank * n + v, 1 << v, above, _KINDS[rank], (group, transposable)))
            above |= cover
    entries.reverse()
    entries = entries[len(found[0]):] + entries[:len(found[0])]

    # ways[m]: the partitions of the variables of m into table cells, each
    # extended by the cells holding the lowest variable it leaves out
    by_low: dict[int, list[tuple[int, int]]] = {1 << v: [] for v in range(n)}
    for cell, size in cells.items():
        by_low[cell & -cell].append((cell, size))
    full = (1 << n) - 1
    ways = [1] + [0] * full
    for m in range(full):
        if ways[m]:
            for cell, size in by_low[~m & (m + 1)]:
                if not cell & m:
                    ways[m | cell] += ways[m] * size
    return entries, slots, ways[full]


def count_representations(ws: WeightSystem) -> int:
    """The number of invertible polynomials of the data; builds none."""
    return _option_table(ws)[2]


def iter_representations(ws: WeightSystem, *, transposable: bool = False) -> Iterator[InvertiblePolynomial]:
    """Every representation, lazily, in canonical order; with
    ``transposable``, only those whose transpose is valid (no chain ends in
    exponent 1), which are all that can have a dual.  Each Block is built
    when the walk first reaches it."""
    n, (entries, slots, _) = ws.n_vars, _option_table(ws)
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
    polynomial: (1^8; 3), with 693,840 representations, answers at its first
    one."""
    n = ws.n_vars
    partners, heads, _ = _partners(ws)
    # the fewest options first, so a dead end shows before the search branches:
    # (1,1,1,1,1,1,1,4; 10) is refused at the first _place call, not the 265,561st
    order = sorted(range(n), key=lambda v: (heads[v] > 0) + len(partners[v]))
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
    canonical order).  Raises :class:`NoRepresentation` when no such
    polynomial matches."""
    poly = _chain_cycle(ws)
    if poly is None:
        if ws.n_vars != 5:
            raise NoRepresentation("chain-cycle search expects a five-variable system")
        raise NoRepresentation(f"no chain-cycle representation for {ws}")
    return poly


def _chain_cycle(ws: WeightSystem) -> InvertiblePolynomial | None:
    """:func:`find_chain_cycle`'s pick, or None where it raises, so a batch
    row's miss formats no error.  Its at most two chains and two cycles come
    from the partner rule; a 3-cycle is odd, so each is valid, and only the
    winner's two blocks are built."""
    if ws.n_vars != 5:
        return None
    partners, heads, _ = _partners(ws)
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
        return None
    # the cells are disjoint and two chains never tie on exponents (the one
    # headed at 1 gives x_0 the smaller one), so the smallest per-variable
    # exponent tuple, then canonical order, picks the chain and the cycle apart
    _, chain_vs, chain_es = min(chains)
    _, cycle_vs, cycle_es = min(cycles)
    return InvertiblePolynomial(5, (Block(CHAIN, chain_vs, chain_es), Block(CYCLE, cycle_vs, cycle_es)))
