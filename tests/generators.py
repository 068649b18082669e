"""Instance pools and generators for the property suites.

The twin-preservation theorem needs *all* of: index one, a coprime degree
split (or fully coprime weights for the pure cycle), a well-formed ambient
space and a rational-homology-sphere link.  Index one is load-bearing: it
forces gcd(d, sum of dual weights) = gcd(d, d + 1) = 1, which keeps the dual
weight data primitive; dropping it produces genuine counterexamples (the
dual normalizes to a different link).  Index one is also a stiff Diophantine
constraint, so the pools below are enumerated exhaustively in a parameter
box rather than rejection-sampled, then enlarged by random coordinate
permutations (each permuted instance runs the whole pipeline on
non-canonical variable layouts).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from math import gcd

from bhlink import InvertiblePolynomial, WeightSystem, solve_weights, wellformed_space
from bhlink.errors import BhlinkError
from bhlink.polynomial import Block, BlockKind

Instance = tuple[InvertiblePolynomial, WeightSystem]


def _alternating(values: list[int]) -> int:
    # 1 - a + ab - abc + abcd for values (a, b, c, d)
    total, prod = 1, 1
    for sign, value in zip((-1, 1, -1, 1), values):
        prod *= value
        total += sign * prod
    return total


def five_cycle_data(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The raw degree and weights of the five-cycle x_i^(a_i) x_(i+1)."""
    degree = 1
    for a in exps:
        degree *= a
    weights = tuple(_alternating([exps[(i - k) % 5] for k in range(1, 5)]) for i in range(5))
    return degree + 1, weights


@lru_cache(maxsize=None)
def index_one_cycles(max_exp: int = 12) -> tuple[Instance, ...]:
    """Every pure five-cycle with index one and primitive coprime weights.

    Weights come from the alternating closed form for the orientation
    x_i^(a_i) x_(i+1); primitivity of the raw tuple is exactly the
    rational-homology-sphere condition, and index one (weight sum = d + 1)
    is an extra Diophantine constraint.  Summing the closed form gives the
    index excess  sum w - d - 1 = 3 - c1 + c2 - c3 + c4 - c5,  where c_k
    sums the products of k cyclically consecutive exponents.  It is linear
    in a5, so it is solved for a5 rather than scanned.
    """
    pool = []
    for head in product(range(1, max_exp + 1), repeat=4):
        a1, a2, a3, a4 = head
        # excess(head + (a5,)) = at_zero + slope * a5: the terms of the c_k
        # without a5 make at_zero, those with a5 make slope
        at_zero = (
            3 - a1 - a2 - a3 - a4 + a1 * a2 + a2 * a3 + a3 * a4
            - a1 * a2 * a3 - a2 * a3 * a4 + a1 * a2 * a3 * a4
        )
        slope = (
            -1 + a4 + a1 - a3 * a4 - a4 * a1 - a1 * a2
            + a2 * a3 * a4 + a3 * a4 * a1 + a4 * a1 * a2 + a1 * a2 * a3 - a1 * a2 * a3 * a4
        )
        if slope == 0:
            last = range(1, max_exp + 1) if at_zero == 0 else ()
        elif at_zero % slope == 0 and 1 <= -at_zero // slope <= max_exp:
            last = (-at_zero // slope,)
        else:
            last = ()
        for a5 in last:
            exps = head + (a5,)
            degree, weights = five_cycle_data(exps)
            if gcd(degree, *weights) != 1:
                continue
            poly = InvertiblePolynomial(5, (Block(BlockKind.CYCLE, tuple(range(5)), exps),))
            if poly.validate():
                continue
            ws = WeightSystem(weights, degree)
            assert solve_weights(poly) == ws
            pool.append((poly, ws))
    return tuple(pool)


@lru_cache(maxsize=None)
def index_one_split_instances(
    shape: str, max_exp: int = 9, k_max: int = 8, x_cap: int = 400
) -> tuple[Instance, ...]:
    """Every index-one BP-cycle or cycle-cycle instance in a parameter box.

    The cycle exponents fix m3 = a2 a3 a4 + 1 and the m2-group v's; index one
    then reads m3 (v0 + v1) - (m3 - v2 - v3 - v4) m2 = 1, a linear Diophantine
    equation whose solution family is walked for k_max steps; head exponents
    are read off the divisors of m2.
    """
    assert shape in ("bp-cycle", "cycle-cycle")
    pool: list[Instance] = []
    seen: set[WeightSystem] = set()
    for a2, a3, a4 in product(range(1, max_exp + 1), repeat=3):
        m3 = a2 * a3 * a4 + 1
        v2, v3, v4 = a3 * a4 - a3 + 1, a2 * a4 - a4 + 1, a2 * a3 - a2 + 1
        t = m3 - (v2 + v3 + v4)
        if t <= 0 or gcd(m3, t) != 1:
            continue
        x0 = pow(m3, -1, t) if t > 1 else 1
        for k in range(k_max):
            x = x0 + k * t
            if x > x_cap:
                break
            m2 = (m3 * x - 1) // t
            if x < 2 or m2 < 2 or gcd(m2, m3) != 1:
                continue
            for v0 in range(1, x):
                v1 = x - v0
                if shape == "bp-cycle":
                    if not (m2 % v0 == 0 and m2 % v1 == 0 and m2 // v0 >= 2 and m2 // v1 >= 2):
                        continue
                    head: tuple[Block, ...] = (
                        Block(BlockKind.FERMAT, (0,), (m2 // v0,)),
                        Block(BlockKind.FERMAT, (1,), (m2 // v1,)),
                    )
                else:
                    if not ((m2 - v1) % v0 == 0 and (m2 - v0) % v1 == 0):
                        continue
                    b0, b1 = (m2 - v1) // v0, (m2 - v0) // v1
                    if b0 < 2 or b1 < 2:
                        continue
                    head = (Block(BlockKind.CYCLE, (0, 1), (b0, b1)),)
                weights = (m3 * v0, m3 * v1, m2 * v2, m2 * v3, m2 * v4)
                degree = m2 * m3
                if any(w >= degree for w in weights):
                    continue
                if not wellformed_space(weights):
                    continue
                if sum(weights) - 1 != degree:
                    continue
                cycle = Block(BlockKind.CYCLE, (2, 4, 3), (a2, a4, a3))
                poly = InvertiblePolynomial(5, head + (cycle,))
                if poly.validate():
                    continue
                ws = WeightSystem(weights, degree)
                if ws in seen:
                    continue
                try:
                    if solve_weights(poly) != ws:
                        continue
                except BhlinkError:
                    continue
                seen.add(ws)
                pool.append((poly, ws))
    return tuple(pool)


@lru_cache(maxsize=None)
def index_one_chain_cycles(max_exp: int = 9, max_tail: int = 80) -> tuple[Instance, ...]:
    """Every index-one chain-cycle instance inside the closed-form hypotheses
    in a parameter box.

    The polynomial is x0^m2 + x0 x1^a1 + x2^a2 x3 + x3^a3 x4 + x4^a4 x2: the
    cycle fixes m3 = a2 a3 a4 + 1 and the m2-group v's (a_i v_i + v_next =
    m3), the chain head has v = 1 and the tail v1 = (m2 - 1) / a1.  Index
    one, m3 (1 + v1) + m2 (v2 + v3 + v4) = m2 m3 + 1, then leaves one
    candidate m2 per (cycle, a1).
    """
    pool: list[Instance] = []
    for a2, a3, a4 in product(range(1, max_exp + 1), repeat=3):
        m3 = a2 * a3 * a4 + 1
        t = m3 - (a3 * a4 - a4 + 1) - (a4 * a2 - a2 + 1) - (a2 * a3 - a3 + 1)
        for a1 in range(1, max_tail + 1):
            numerator, denominator = m3 * (a1 - 1) - a1, a1 * t - m3
            if denominator == 0 or numerator % denominator != 0:
                continue
            m2 = numerator // denominator
            if m2 < 2 or gcd(m2, m3) != 1 or (m2 - 1) % a1 != 0:
                continue
            poly = InvertiblePolynomial(
                5,
                (
                    Block(BlockKind.CHAIN, (0, 1), (m2, a1)),
                    Block(BlockKind.CYCLE, (2, 3, 4), (a2, a3, a4)),
                ),
            )
            if poly.validate():
                continue
            ws = solve_weights(poly)
            assert ws.fano_index() == 1 and ws.degree == m2 * m3
            pool.append((poly, ws))
    return tuple(pool)


def permute_instance(instance: Instance, perm: tuple[int, ...]) -> Instance:
    """Relabel variables through a permutation; same link, new coordinates."""
    poly, ws = instance
    blocks = tuple(
        Block(b.kind, tuple(perm[v] for v in b.variables), b.exponents)
        for b in poly.blocks
    )
    new_poly = InvertiblePolynomial(poly.n_vars, blocks)
    new_weights = [0] * poly.n_vars
    for old, w in enumerate(ws.weights):
        new_weights[perm[old]] = w
    return new_poly, WeightSystem(tuple(new_weights), ws.degree)


def theorem_population(minimum: int = 1010, seed: int = 20240612) -> list[Instance]:
    """The strict index-one pools, closed under random coordinate permutations
    until the population reaches ``minimum`` distinct instances."""
    core = (
        list(index_one_cycles(12))
        + list(index_one_split_instances("bp-cycle"))
        + list(index_one_split_instances("cycle-cycle"))
    )
    rng = random.Random(seed)
    population = list(core)
    seen = set(population)
    identity = tuple(range(5))
    while len(population) < minimum:
        base = rng.choice(core)
        perm = tuple(rng.sample(range(5), 5))
        if perm == identity:
            continue
        variant = permute_instance(base, perm)
        if variant in seen:
            continue
        seen.add(variant)
        population.append(variant)
    return population


def random_invertible(rng: random.Random, n: int = 5, max_exp: int = 6):
    """A random valid invertible polynomial on n variables, or None."""
    items = list(range(n))
    rng.shuffle(items)
    blocks: list[Block] = []
    i = 0
    while i < n:
        size = rng.randint(1, min(3, n - i))
        cell = tuple(sorted(items[i : i + size]))
        i += size
        if size == 1:
            blocks.append(Block(BlockKind.FERMAT, cell, (rng.randint(2, max_exp),)))
        elif rng.random() < 0.5:
            exps = (rng.randint(2, max_exp),) + tuple(
                rng.randint(1, max_exp) for _ in cell[1:]
            )
            blocks.append(Block(BlockKind.CHAIN, cell, exps))
        else:
            order = (cell[0],) + tuple(rng.sample(cell[1:], len(cell) - 1))
            exps = tuple(rng.randint(1, max_exp) for _ in cell)
            blocks.append(Block(BlockKind.CYCLE, order, exps))
    poly = InvertiblePolynomial(n, tuple(blocks))
    if poly.validate():
        return None
    return poly


def random_weight_system(rng: random.Random, max_weight: int | None = None, n: int = 5, max_exp: int = 6):
    """A weight system realized by a random invertible polynomial."""
    poly = random_invertible(rng, n=n, max_exp=max_exp)
    if poly is None:
        return None
    try:
        ws = solve_weights(poly)
    except BhlinkError:
        return None
    if max_weight is not None and max(ws.weights) > max_weight:
        return None
    return poly, ws
