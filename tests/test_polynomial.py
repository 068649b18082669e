"""Block decompositions, exponent matrices, transposition, validation."""

import pytest

from bhlink import InvertiblePolynomial, classify
from bhlink.polynomial import (
    Block,
    BlockKind,
    BLOCK_TOO_SHORT,
    CHAIN_HEAD_TOO_SMALL,
    CHAIN_TAIL_TOO_SMALL,
    CYCLE_EXPONENT_TOO_SMALL,
    EVEN_CYCLE_DEGENERATE,
    FERMAT_EXPONENT_TOO_SMALL,
    NOT_A_PARTITION,
    SINGULAR_MATRIX,
)


def chain_cycle_881():
    return InvertiblePolynomial(
        5,
        (
            Block(BlockKind.CHAIN, (0, 1), (3, 2)),
            Block(BlockKind.CYCLE, (2, 4, 3), (5, 8, 22)),
        ),
    )


DUAL_881_MATRIX = [
    [3, 1, 0, 0, 0],
    [0, 2, 0, 0, 0],
    [0, 0, 5, 1, 0],
    [0, 0, 0, 22, 1],
    [0, 0, 1, 0, 8],
]


def test_exponent_matrix_chain_cycle_dual():
    # the transposed chain-cycle has rows (3,1,0,0,0), (0,2,0,0,0), ...
    assert chain_cycle_881().transpose().exponent_matrix() == DUAL_881_MATRIX


def test_exponent_matrix_single_fermat():
    poly = InvertiblePolynomial(1, (Block(BlockKind.FERMAT, (0,), (2,)),))
    assert poly.exponent_matrix() == [[2]]


def test_exponent_matrix_bp_chain():
    # z0^7 + z1^3 + z2^7 + z2 z3^10 + z3 z4^3
    poly = InvertiblePolynomial(
        5,
        (
            Block(BlockKind.FERMAT, (0,), (7,)),
            Block(BlockKind.FERMAT, (1,), (3,)),
            Block(BlockKind.CHAIN, (2, 3, 4), (7, 10, 3)),
        ),
    )
    assert poly.exponent_matrix() == [
        [7, 0, 0, 0, 0],
        [0, 3, 0, 0, 0],
        [0, 0, 7, 0, 0],
        [0, 0, 1, 10, 0],
        [0, 0, 0, 1, 3],
    ]
    assert str(poly) == "z0^7 + z1^3 + z2^7 + z2*z3^10 + z3*z4^3"


def test_classify():
    assert classify(chain_cycle_881()) == "Chain-Cycle"
    bp_cycle = InvertiblePolynomial(
        5,
        (
            Block(BlockKind.FERMAT, (0,), (25,)),
            Block(BlockKind.FERMAT, (1,), (25,)),
            Block(BlockKind.CYCLE, (2, 4, 3), (2, 3, 2)),
        ),
    )
    assert classify(bp_cycle) == "BP-Cycle"
    fermats = InvertiblePolynomial(
        5, tuple(Block(BlockKind.FERMAT, (i,), (2,)) for i in range(5))
    )
    assert classify(fermats) == "BP"
    two_cycles = InvertiblePolynomial(
        5,
        (
            Block(BlockKind.CYCLE, (0, 1), (24, 24)),
            Block(BlockKind.CYCLE, (2, 4, 3), (2, 3, 2)),
        ),
    )
    assert classify(two_cycles) == "Cycle-Cycle"


def test_transpose_matches_displayed_dual():
    assert chain_cycle_881().transpose().exponent_matrix() == DUAL_881_MATRIX


def test_transpose_fixes_bp():
    poly = InvertiblePolynomial(
        5, tuple(Block(BlockKind.FERMAT, (i,), (i + 2,)) for i in range(5))
    )
    assert poly.transpose() == poly


def test_transpose_involution():
    poly = chain_cycle_881()
    assert poly.transpose().transpose() == poly


def test_transpose_reverses_chain_and_cycle_orientation():
    poly = chain_cycle_881()
    dual = poly.transpose()
    chain = next(b for b in dual.blocks if b.kind is BlockKind.CHAIN)
    # chain head moves to the old tail, exponents stay attached to variables
    assert chain.variables == (1, 0)
    assert chain.exponents == (2, 3)
    cycle = next(b for b in dual.blocks if b.kind is BlockKind.CYCLE)
    src_cycle = next(b for b in poly.blocks if b.kind is BlockKind.CYCLE)
    succ_src = {src_cycle.variables[i]: src_cycle.variables[(i + 1) % 3] for i in range(3)}
    succ_dual = {cycle.variables[i]: cycle.variables[(i + 1) % 3] for i in range(3)}
    assert succ_dual == {b: a for a, b in succ_src.items()}


def transposed(matrix):
    return [list(column) for column in zip(*matrix)]


def test_transpose_chain_with_tail_exponent_one():
    # z0^4 + z1^3 + z3*z2 + z1*z3^2 + z4^2: the dual chain starts at the
    # old tail, whose exponent-1 row becomes the pure monomial z2
    poly = InvertiblePolynomial(
        5,
        (
            Block(BlockKind.FERMAT, (0,), (4,)),
            Block(BlockKind.CHAIN, (1, 3, 2), (3, 2, 1)),
            Block(BlockKind.FERMAT, (4,), (2,)),
        ),
    )
    assert poly.validate() == []
    dual = poly.transpose()
    assert dual == InvertiblePolynomial(
        5,
        (
            Block(BlockKind.FERMAT, (0,), (4,)),
            Block(BlockKind.CHAIN, (2, 3, 1), (1, 2, 3)),
            Block(BlockKind.FERMAT, (4,), (2,)),
        ),
    )
    assert str(dual) == "z0^4 + z3*z1^3 + z2 + z2*z3^2 + z4^2"
    assert dual.exponent_matrix() == transposed(poly.exponent_matrix())
    assert dual.transpose() == poly


def test_transpose_cycle_with_exponent_one():
    # the cycle 0 -> 2 -> 1 -> 0 has the monomial z2*z0; its dual
    # 0 -> 1 -> 2 -> 0 has z1*z0, where either variable could own the row
    poly = InvertiblePolynomial(
        5,
        (
            Block(BlockKind.CYCLE, (0, 2, 1), (1, 4, 3)),
            Block(BlockKind.CHAIN, (3, 4), (2, 5)),
        ),
    )
    assert poly.validate() == []
    dual = poly.transpose()
    assert dual == InvertiblePolynomial(
        5,
        (
            Block(BlockKind.CYCLE, (0, 1, 2), (1, 3, 4)),
            Block(BlockKind.CHAIN, (4, 3), (5, 2)),
        ),
    )
    assert dual.exponent_matrix() == transposed(poly.exponent_matrix())
    assert dual.transpose() == poly


def test_validate_clean():
    assert chain_cycle_881().validate() == []


def test_validate_even_cycle_degenerate():
    poly = InvertiblePolynomial(
        4, (Block(BlockKind.CYCLE, (0, 1, 2, 3), (1, 5, 1, 7)),)
    )
    assert EVEN_CYCLE_DEGENERATE in poly.validate()
    ok = InvertiblePolynomial(4, (Block(BlockKind.CYCLE, (0, 1, 2, 3), (1, 5, 2, 7)),))
    assert ok.validate() == []


def test_validate_chain_head_too_small():
    poly = InvertiblePolynomial(2, (Block(BlockKind.CHAIN, (0, 1), (1, 4)),))
    assert CHAIN_HEAD_TOO_SMALL in poly.validate()


@pytest.mark.parametrize(
    "n_vars, block, violations",
    [
        # variable 1 belongs to no block
        (2, Block(BlockKind.FERMAT, (0,), (2,)), [NOT_A_PARTITION]),
        (2, Block(BlockKind.FERMAT, (0, 1), (2, 3)), [BLOCK_TOO_SHORT]),
        (1, Block(BlockKind.CHAIN, (0,), (3,)), [BLOCK_TOO_SHORT]),
        (1, Block(BlockKind.CYCLE, (0,), (3,)), [BLOCK_TOO_SHORT]),
        (1, Block(BlockKind.FERMAT, (0,), (1,)), [FERMAT_EXPONENT_TOO_SMALL]),
        # a zero tail exponent also zeroes the determinant
        (2, Block(BlockKind.CHAIN, (0, 1), (2, 0)), [CHAIN_TAIL_TOO_SMALL, SINGULAR_MATRIX]),
        (3, Block(BlockKind.CYCLE, (0, 1, 2), (0, 2, 2)), [CYCLE_EXPONENT_TOO_SMALL]),
    ],
    ids=["partition", "fermat-short", "chain-short", "cycle-short", "fermat-exponent", "chain-tail", "cycle-exponent"],
)
def test_validate_names_each_violation(n_vars, block, violations):
    assert InvertiblePolynomial(n_vars, (block,)).validate() == violations


def test_render_chain_cycle():
    assert str(chain_cycle_881()) == "z0^3 + z0*z1^2 + z4*z2^5 + z2*z3^22 + z3*z4^8"


def test_matrix_roundtrip_and_involution_fuzz():
    import random

    from generators import random_invertible

    rng = random.Random(13)
    done = 0
    while done < 500:
        n = rng.randint(2, 8)
        # max_exp 2 one time in three: exponent-1 entries become frequent
        poly = random_invertible(rng, n=n, max_exp=rng.choice((2, 3, 6)))
        if poly is None:
            continue
        done += 1
        assert poly.transpose().transpose() == poly
        # the transpose really is the matrix transpose
        m = poly.exponent_matrix()
        mt = poly.transpose().exponent_matrix()
        assert all(m[r][c] == mt[c][r] for r in range(n) for c in range(n))
