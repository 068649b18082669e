"""The instance generators against the plain scans they replace."""

from itertools import product
from math import gcd

import pytest

from bhlink import InvertiblePolynomial, WeightSystem
from bhlink.polynomial import Block, BlockKind

from generators import _alternating, index_one_cycles


def scanned_index_one_cycles(max_exp):
    """Every exponent tuple in the box, tested one by one."""
    pool = []
    for exps in product(range(1, max_exp + 1), repeat=5):
        degree = 1
        for a in exps:
            degree *= a
        degree += 1
        weights = tuple(
            _alternating([exps[(i - k) % 5] for k in range(1, 5)]) for i in range(5)
        )
        if sum(weights) != degree + 1 or gcd(degree, *weights) != 1:
            continue
        poly = InvertiblePolynomial(5, (Block(BlockKind.CYCLE, tuple(range(5)), exps),))
        if not poly.validate():
            pool.append((poly, WeightSystem(weights, degree)))
    return tuple(pool)


@pytest.mark.parametrize("max_exp", [1, 2, 3, 5, 8])
def test_index_one_cycles_match_the_scan(max_exp):
    assert index_one_cycles(max_exp) == scanned_index_one_cycles(max_exp)
