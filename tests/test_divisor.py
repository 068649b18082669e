"""Link divisor: the expansion against the circle model, and its evaluators."""

import random
from fractions import Fraction

import pytest

from bhlink import CyclotomicDivisor, WeightSystem, expand_link_divisor
from bhlink.errors import NonIntegralExpansion, NonIntegralOrder, PoleAtT
from bhlink.invariants import link_divisor

from oracles import (
    characteristic_polynomial,
    divisor_roots,
    poly_eval,
    root_add,
    root_mul,
    root_scale,
    roots_of_unity,
)

D = CyclotomicDivisor


def _product_roots(pairs):
    """prod ((1/v) L_u - L_1) on the circle model, factor by factor."""
    acc = roots_of_unity(1)
    for u, v in pairs:
        factor = root_add(root_scale(roots_of_unity(u), Fraction(1, v)), root_scale(roots_of_unity(1), -1))
        acc = root_mul(acc, factor)
    return acc


def _check_expansion(pairs, rng):
    expanded = expand_link_divisor(pairs)
    assert divisor_roots(expanded) == _product_roots(pairs)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert expand_link_divisor(shuffled) == expanded
    return expanded


def test_lambda_product_basic():
    # (L_a - L_1)(L_b - L_1) = gcd(a, b) L_lcm(a, b) - L_a - L_b + L_1
    rng = random.Random(0)
    assert _check_expansion([(1, 1), (1, 1)], rng) == D({})
    assert _check_expansion([(6, 1), (4, 1)], rng) == D({12: 2, 6: -1, 4: -1, 1: 1})
    assert _check_expansion([(7, 1), (7, 1)], rng) == D({7: 5, 1: 1})


def test_lambda_product_matches_root_multiset_oracle():
    rng = random.Random(0)
    for _ in range(50):
        pairs = [(rng.randint(1, 24), 1) for _ in range(rng.randint(1, 3))]
        _check_expansion(pairs, rng)


def test_multiply_squared_difference_collapses_to_unit():
    # (L2 - L1)^2 = 2 L2 - 2 L2 + L1 = L1, cross-checked on the circle model
    assert _check_expansion([(2, 1), (2, 1)], random.Random(0)) == D({1: 1})


def test_coefficients_are_integers():
    # int keys and coefficients are kept as given; any other integral value
    # becomes an int, zeros are dropped, and the rest raises
    assert D({2: 5, 3: 0}).terms == {2: 5}
    for value, want in ((True, 1), (Fraction(4, 2), 2)):
        terms = D({2: value}).terms
        assert terms == {2: want}
        assert type(terms[2]) is int
    assert type(next(iter(D({True: 3}).terms))) is int
    with pytest.raises(ValueError, match="L6"):
        D({1: 1, 6: Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"^coefficient of L2 must be an integer, got 2\.0$"):
        D({2: 2.0})
    with pytest.raises(ValueError, match=r"^divisor index must be >= 1, got 0$"):
        D({0: 1})
    with pytest.raises(ValueError, match=r"^divisor index must be >= 1, got -3$"):
        D({-3: 1})


def test_repeated_u_with_v_above_one_matches_circle_model():
    # the factors of one u multiply in closed form, so a class of two or
    # three factors with v > 1 is the case the grouping must get right:
    # (8, 14, 19, 19, 10; 38) has u = 19 with v = 4, 7 and 5
    from generators import random_weight_system

    rng = random.Random(3)
    pairs = list(WeightSystem((8, 14, 19, 19, 10), 38).reduced().pairs())
    assert pairs == [(19, 4), (19, 7), (2, 1), (2, 1), (19, 5)]
    _check_expansion(pairs, rng)
    count = 0
    while count < 20:
        got = random_weight_system(rng, max_weight=24)
        if got is None:
            continue
        pairs = list(got[1].reduced().pairs())
        us = [u for u, _ in pairs]
        if any(us.count(u) > 1 and v > 1 for u, v in pairs):
            count += 1
            _check_expansion(pairs, rng)


def test_ring_laws_on_random_divisors():
    # the expansion of a valid system's reduced pairs, fractional 1/v_i
    # included, agrees with the circle model in every factor order
    from generators import random_weight_system

    rng = random.Random(1)
    count = 0
    while count < 30:
        got = random_weight_system(rng, max_weight=12)
        if got is None:
            continue
        count += 1
        _check_expansion(list(got[1].reduced().pairs()), rng)


def test_expand_single_factor():
    assert expand_link_divisor([(2, 1)]) == D({2: 1, 1: -1})


def test_expand_quadric_five_fold():
    # (L2 - L1)^5 brute-forced on the circle model
    d = expand_link_divisor([(2, 1)] * 5)
    factor = root_add(roots_of_unity(2), root_scale(roots_of_unity(1), -1))
    acc = roots_of_unity(1)
    for _ in range(5):
        acc = root_mul(acc, factor)
    assert divisor_roots(d) == acc
    # the expansion collapses to L2 - L1: one root, none of them at t = 1,
    # matching the quadric link being a rational homology sphere with mu = 1
    assert d == D({2: 1, 1: -1})
    assert d.coefficient_sum() == 0
    assert d.root_count() == 1


def test_expand_not_wellformed_dual_data():
    d = link_divisor(WeightSystem((15, 35, 14, 7, 35), 105))
    assert d.coefficient_sum() == 0
    assert d.root_count() == 2184


def test_expand_rejects_invalid_weight_system():
    # no quasihomogeneous polynomial has weights (2, 3) in degree 4
    with pytest.raises(NonIntegralExpansion, match=r"^coefficient of L4 is 1/3, not an integer$"):
        expand_link_divisor([(2, 1), (4, 3)])


def test_expand_names_the_largest_fractional_index():
    # the coefficients of L2 (1/3) and L3 (1/5) are both fractional; the
    # error names L3, in every factor order
    for pairs in ([(6, 2), (2, 3), (3, 5)], [(3, 5), (2, 3), (6, 2)]):
        with pytest.raises(NonIntegralExpansion, match=r"^coefficient of L3 is 1/5, not an integer$"):
            expand_link_divisor(pairs)


def test_expand_rejects_bad_pairs():
    with pytest.raises(ValueError, match=r"^expected at least one \(u, v\) pair$"):
        expand_link_divisor([])
    # the first invalid pair is named, as the pairs come
    with pytest.raises(ValueError, match=r"^invalid reduced pair \(0, 1\)$"):
        expand_link_divisor([(2, 1), (0, 1), (3, 0)])
    with pytest.raises(ValueError, match=r"^invalid reduced pair \(3, 0\)$"):
        expand_link_divisor(iter([(2, 1), (3, 0)]))


def test_coefficient_sum_examples():
    assert (D({2: 1, 1: -1})).coefficient_sum() == 0
    assert link_divisor(WeightSystem((15, 35, 15, 9, 32), 105)).coefficient_sum() == 24
    assert link_divisor(WeightSystem((5, 35, 57, 64, 160), 320)).coefficient_sum() == 36


def test_root_count_examples():
    assert (D({2: 1, 1: -1})).root_count() == 1
    assert link_divisor(WeightSystem((1, 1, 1, 1, 1), 2)).root_count() == 1


def test_delta_order_at_one():
    # Delta(t) = (t^2 - 1)/(t - 1) = t + 1, so |Delta(1)| = 2
    x = D({2: 1, 1: -1})
    assert x.delta_order_at_one() == 2
    poly = characteristic_polynomial(x)
    assert abs(poly_eval(poly, Fraction(1))) == 2

    assert link_divisor(WeightSystem((15, 35, 15, 9, 32), 105)).delta_order_at_one() == 0
    assert (
        link_divisor(WeightSystem((13, 13, 125, 100, 75), 325)).delta_order_at_one()
        == 13**24
    )
    # coefficient sum 0, but the value at t = 1 is 1/2
    with pytest.raises(NonIntegralOrder, match=r"^torsion order 1/2 is not an integer$"):
        D({1: 1, 2: -1}).delta_order_at_one()
    # 4 / 6^2 is printed in lowest terms
    with pytest.raises(NonIntegralOrder, match=r"^torsion order 1/9 is not an integer$"):
        D({1: 1, 4: 1, 6: -2}).delta_order_at_one()


def test_delta_eval_simple_points():
    x = D({2: 1, 1: -1})
    oracle = characteristic_polynomial(x)
    assert x.delta_eval(0) == poly_eval(oracle, Fraction(0)) == 1
    assert x.delta_eval(-1) == poly_eval(oracle, Fraction(-1)) == 0
    assert x.delta_eval(Fraction(1, 2)) == poly_eval(oracle, Fraction(1, 2))


def test_delta_eval_kervaire_join():
    # exponents (3,2,2,2,2,2): weights (2,3,3,3,3,3), degree 6
    d = link_divisor(WeightSystem((2, 3, 3, 3, 3, 3), 6))
    assert d.delta_eval(-1) == 3
    oracle = characteristic_polynomial(d)
    assert poly_eval(oracle, Fraction(-1)) == 3
    assert poly_eval(oracle, Fraction(-1)) % 8 == 3


def test_delta_eval_pole():
    with pytest.raises(PoleAtT):
        D({1: 1, 2: -1}).delta_eval(-1)


def test_delta_eval_cancels_vanishing_factors_of_net_multiplicity_zero():
    # (t - 1) / (t^2 - 1) = 1 / (t + 1): at t = 1 both factors vanish, each is
    # replaced by its derivative j * t^(j - 1), and 1^1 * 2^-1 = 1/2
    assert D({1: 1, 2: -1}).delta_eval(1) == Fraction(1, 2)
    assert D({2: 1, 1: -1}).delta_eval(1) == 2


def test_delta_eval_matches_polynomial_oracle_on_random_links():
    from generators import random_weight_system

    rng = random.Random(2)
    count = 0
    while count < 25:
        got = random_weight_system(rng, max_weight=40)
        if got is None:
            continue
        count += 1
        _, ws = got
        d = link_divisor(ws)
        oracle = characteristic_polynomial(d)
        for t in (Fraction(0), Fraction(2), Fraction(-2), Fraction(1, 3)):
            assert d.delta_eval(t) == poly_eval(oracle, t)
        assert d.root_count() == len(oracle) - 1
        assert d.coefficient_sum() >= 0
        if d.coefficient_sum() == 0:
            assert d.delta_order_at_one() == abs(poly_eval(oracle, Fraction(1)))
        else:
            assert poly_eval(oracle, Fraction(1)) == 0
