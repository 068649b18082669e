"""Weight solving, reduction, index, well-formedness and degree splits."""

from math import gcd

import pytest

from bhlink import WeightSystem, solve_weights, wellformed_space
from bhlink.errors import NonPositiveWeights, NoSplit
from bhlink.polynomial import Block, BlockKind, InvertiblePolynomial

from test_polynomial import chain_cycle_881


def test_solve_weights_chain_cycle():
    ws = solve_weights(chain_cycle_881())
    assert ws == WeightSystem((881, 881, 465, 99, 318), 2643)


def test_solve_weights_of_transpose():
    ws = solve_weights(chain_cycle_881().transpose())
    assert ws == WeightSystem((881, 2643, 1014, 216, 534), 5286)


def test_solve_weights_all_squares():
    poly = InvertiblePolynomial(
        5, tuple(Block(BlockKind.FERMAT, (i,), (2,)) for i in range(5))
    )
    assert solve_weights(poly) == WeightSystem((1, 1, 1, 1, 1), 2)


def test_solve_weights_satisfies_matrix_equation():
    for poly in (chain_cycle_881(), chain_cycle_881().transpose()):
        ws = solve_weights(poly)
        for row in poly.exponent_matrix():
            assert sum(a * w for a, w in zip(row, ws.weights)) == ws.degree
        assert gcd(ws.degree, *ws.weights) == 1


def test_reduced():
    ws = WeightSystem((15, 35, 15, 9, 32), 105)
    red = ws.reduced()
    assert red.u == (7, 3, 7, 35, 105)
    assert red.v == (1, 1, 1, 3, 32)

    assert WeightSystem((1, 1, 1, 1, 1), 2).reduced().u == (2, 2, 2, 2, 2)

    red = WeightSystem((881, 881, 465, 99, 318), 2643).reduced()
    assert red.u == (3, 3, 881, 881, 881)
    assert red.v == (1, 1, 155, 33, 106)


def test_reduce_recombine_roundtrip():
    ws = WeightSystem((15, 35, 14, 7, 35), 105)
    red = ws.reduced()
    for u, v, w in zip(red.u, red.v, ws.weights):
        g = gcd(ws.degree, w)
        assert u * g == ws.degree
        assert v * g == w
        assert gcd(u, v) == 1


def test_fano_index():
    assert WeightSystem((73, 73, 95, 45, 80), 365).fano_index() == 1
    assert WeightSystem((219, 365, 420, 200, 260), 1460).fano_index() == 4
    assert WeightSystem((1, 1, 1, 1, 1), 5).fano_index() == 0


def test_wellformed_space():
    assert wellformed_space((881, 881, 465, 99, 318))
    # the dual drops well-formedness: gcd(2643, 1014, 216, 534) = 3
    assert gcd(2643, 1014, 216, 534) == 3
    assert not wellformed_space((881, 2643, 1014, 216, 534))
    assert wellformed_space((1, 1, 1, 1, 1))


def test_wellformed_hypersurface():
    assert WeightSystem((881, 881, 465, 99, 318), 2643).is_wellformed_hypersurface()
    assert not WeightSystem((881, 2643, 1014, 216, 534), 5286).is_wellformed_hypersurface()
    assert WeightSystem((1, 1, 1, 1, 1), 2).is_wellformed_hypersurface()
    # a well-formed space, but gcd(2, 2, 2) = 2 does not divide 7
    assert WeightSystem((2, 2, 2, 3, 5), 7).is_wellformed_space()
    assert not WeightSystem((2, 2, 2, 3, 5), 7).is_wellformed_hypersurface()


def test_split_881():
    split = WeightSystem((881, 881, 465, 99, 318), 2643).split()
    assert (split.m2, split.m3) == (3, 881)
    assert split.v == (1, 1, 155, 33, 106)
    assert split.m2 * split.m3 == 2643


def test_split_73():
    split = WeightSystem((73, 73, 95, 45, 80), 365).split()
    assert (split.m2, split.m3) == (5, 73)
    assert split.v == (1, 1, 19, 9, 16)


def test_split_reconstructs_weights():
    ws = WeightSystem((65, 650, 1581, 867, 153), 3315)
    split = ws.split()
    for i in split.group3:
        assert split.m3 * split.v[i] == ws.weights[i]
    for i in split.group2:
        assert split.m2 * split.v[i] == ws.weights[i]


def test_split_rejected():
    # gcd(105, 15) = 15 gives m2 = 7, but 7 does not divide 35
    with pytest.raises(NoSplit):
        WeightSystem((15, 35, 15, 9, 32), 105).split()
    with pytest.raises(NoSplit, match="five-variable"):
        WeightSystem((12, 12, 14, 21, 21, 24), 84).split()
    with pytest.raises(NoSplit, match="does not partition"):
        WeightSystem((881, 881, 465, 99, 318), 2643).split(((0, 1), (1, 2, 3)))
    with pytest.raises(NoSplit, match=r"gcd\(m2, m3\) = gcd\(6, 2\) != 1"):
        WeightSystem((2, 2, 3, 3, 3), 12).split(((0, 1), (2, 3, 4)))


def test_weight_system_rejects_bad_data():
    with pytest.raises(ValueError, match="at least two weights"):
        WeightSystem((1,), 2)
    with pytest.raises(NonPositiveWeights, match="must be positive"):
        WeightSystem((1, 0, 1, 1, 1), 2)


def test_normalized_divides_jointly():
    # a weight system is stored primitive: the constructor divides jointly
    ws = WeightSystem((22, 22, 22, 22, 22), 44)
    assert (ws.weights, ws.degree) == ((1, 1, 1, 1, 1), 2)
    assert ws == WeightSystem((1, 1, 1, 1, 1), 2)


def test_double_dual_weights_return():
    for poly in (chain_cycle_881(),):
        ws = solve_weights(poly)
        assert solve_weights(poly.transpose().transpose()) == ws
