"""Transpose duals, closed forms, twins and Einstein certification."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bhlink import (
    Verdict,
    WeightSystem,
    bh_dual,
    chain_cycle_closed_forms,
    classify,
    enumerate_representations,
    find_chain_cycle,
    homology_profile,
    is_twin,
    pipeline,
    se_certificate,
    solve_weights,
    swap_twin,
)
from bhlink import duality
from bhlink.duality import checked_dual
from bhlink.errors import BhlinkError, CrossCheckFailed, PreconditionFailed
from bhlink.polynomial import Block, BlockKind, InvertiblePolynomial
from bhlink.representation import count_representations

from generators import index_one_chain_cycles, permute_instance, theorem_population
from test_polynomial import chain_cycle_881


def test_se_certificate_sasaki_einstein():
    ws = WeightSystem((219, 365, 420, 200, 260), 1460)
    v = se_certificate(ws)
    assert v.verdict is Verdict.SASAKI_EINSTEIN
    # I d = 5840 < (4/3) * 200 * 219 = 58400
    assert ws.fano_index() * ws.degree == 5840


def test_se_certificate_positive_ricci_only():
    ws = WeightSystem((299, 325, 2400, 3000, 1800), 7800)
    v = se_certificate(ws)
    assert v.verdict is Verdict.POSITIVE_RICCI_ONLY
    assert v.fano and not v.inequality_holds


def test_se_certificate_not_fano():
    assert se_certificate(WeightSystem((1, 1, 1, 1, 1), 5)).verdict is Verdict.NOT_FANO


def test_se_certificate_permutation_invariant():
    a = se_certificate(WeightSystem((299, 325, 2400, 3000, 1800), 7800))
    b = se_certificate(WeightSystem((3000, 325, 1800, 299, 2400), 7800))
    assert a == b


def _inequality_by_fractions(ws):
    n = ws.n_vars - 1
    min_pair = min(a * b for i, a in enumerate(ws.weights) for b in ws.weights[i + 1 :])
    return Fraction(ws.fano_index() * ws.degree) < Fraction(n, n - 1) * min_pair


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(3, 8), degree=st.integers(2, 400))
def test_se_certificate_integer_inequality_matches_fractions(data, n, degree):
    weights = data.draw(st.tuples(*[st.integers(1, degree - 1)] * n))
    ws = WeightSystem(weights, degree)
    assert se_certificate(ws).inequality_holds == _inequality_by_fractions(ws)


def test_se_certificate_boundary_is_strict():
    # I d = 2 = (2/1) * min w_i w_j: equality does not certify
    v = se_certificate(WeightSystem((1, 1, 1), 2))
    assert not v.inequality_holds
    assert v.verdict is Verdict.POSITIVE_RICCI_ONLY


def test_se_certificate_needs_three_variables():
    with pytest.raises(PreconditionFailed):
        se_certificate(WeightSystem((1, 1), 2))


def test_bh_dual_chain_cycle_929():
    poly = find_chain_cycle(WeightSystem((929, 1858, 2849, 63, 805), 6503))
    _, dual_ws = bh_dual(poly)
    assert sorted(dual_ws.weights) == sorted((1858, 6503, 9597, 315, 1239))
    assert dual_ws.degree == 19509


def test_bh_dual_bp_chain():
    ws = WeightSystem((15, 35, 15, 9, 32), 105)
    bp_chain = [p for p in enumerate_representations(ws) if classify(p) == "BP-Chain"]
    assert bp_chain
    _, dual_ws = bh_dual(bp_chain[0])
    assert dual_ws == WeightSystem((15, 35, 14, 7, 35), 105)


def test_bh_dual_bp_self_dual():
    ws = WeightSystem((1, 1, 1, 1, 1), 2)
    bp = [p for p in enumerate_representations(ws) if classify(p) == "BP"]
    dual_poly, dual_ws = bh_dual(bp[0])
    assert dual_poly == bp[0]
    assert dual_ws == ws


def test_closed_forms_881():
    ws = WeightSystem((881, 881, 465, 99, 318), 2643)
    pred = chain_cycle_closed_forms(chain_cycle_881(), ws)
    assert pred.degree == 5286
    assert sorted(pred.weights) == sorted((881, 2643, 1014, 216, 534))
    assert pred.mu == 4400
    assert pred.torsion == ((881, 1),)


def test_closed_forms_73():
    ws = WeightSystem((73, 73, 95, 45, 80), 365)
    pred = chain_cycle_closed_forms(find_chain_cycle(ws), ws)
    assert pred.raw_degree == 1460
    assert pred.mu == 1224
    assert pred.torsion == ((73, 1),)


def test_closed_forms_torsion_trichotomy():
    # gcd(a1, m3) = 5 > 2: torsion picks up m2 factors, joint factor 50 drops
    ws = WeightSystem((65, 650, 1581, 867, 153), 3315)
    pred = chain_cycle_closed_forms(find_chain_cycle(ws), ws)
    assert pred.raw_degree == 165750
    assert pred.degree == 3315
    assert pred.torsion == ((3315, 1), (51, 3))

    # gcd(a1, m3) = 2: torsion is the source degree
    ws = WeightSystem((118, 118, 185, 135, 35), 590)
    pred = chain_cycle_closed_forms(find_chain_cycle(ws), ws)
    assert pred.torsion == ((590, 1),)
    assert pred.degree == 1180


def test_closed_forms_precondition():
    ws = WeightSystem((881, 881, 465, 99, 318), 2643)
    # the 881 polynomial with z4's exponent 8 raised to 9
    chain, _ = chain_cycle_881().blocks
    wrong = InvertiblePolynomial(5, (chain, Block(BlockKind.CYCLE, (2, 4, 3), (5, 9, 22))))
    with pytest.raises(PreconditionFailed):
        chain_cycle_closed_forms(wrong, ws)
    # the chain's tail exponent 2 raised to 3
    _, cycle = chain_cycle_881().blocks
    wrong = InvertiblePolynomial(5, (Block(BlockKind.CHAIN, (0, 1), (3, 3)), cycle))
    with pytest.raises(PreconditionFailed, match=r"tail exponent 3 != \(m2 - 1\)/v1 = \(3 - 1\)/1"):
        chain_cycle_closed_forms(wrong, ws)


def test_closed_forms_refuse_data_not_of_index_one():
    # a 2-chain plus 3-cycle representation of data with Fano index 54: its
    # split passes, then the index-one check names the sum and d + 1
    ws = WeightSystem((25, 4, 25, 24, 76), 100)
    poly = InvertiblePolynomial(
        5, (Block(BlockKind.CHAIN, (0, 2), (4, 3)), Block(BlockKind.CYCLE, (1, 4, 3), (6, 1, 4)))
    )
    assert poly in enumerate_representations(ws)
    with pytest.raises(PreconditionFailed) as refused:
        chain_cycle_closed_forms(poly, ws)
    assert str(refused.value) == "closed forms need index one: weight sum 154 != d + 1 = 101"


def test_closed_forms_read_the_chain_head_off_the_polynomial():
    ws = WeightSystem((17, 34, 175, 125, 75), 425)
    poly = find_chain_cycle(ws)
    chain, cycle = poly.blocks
    assert chain == Block(BlockKind.CHAIN, (0, 1), (25, 12))
    chain_cycle_closed_forms(poly, ws)
    # the same exponent per variable, the chain given tail first
    tail_first = InvertiblePolynomial(5, (Block(BlockKind.CHAIN, (1, 0), (12, 25)), cycle))
    with pytest.raises(PreconditionFailed, match="chain head z1 needs v = 1"):
        chain_cycle_closed_forms(tail_first, ws)


def test_closed_forms_read_the_cycle_orientation_off_the_polynomial():
    ws = WeightSystem((881, 881, 465, 99, 318), 2643)
    chain, cycle = chain_cycle_881().blocks
    # the same exponent per variable, the cycle run the other way round
    reversed_cycle = Block(BlockKind.CYCLE, cycle.variables[::-1], cycle.exponents[::-1])
    assert reversed_cycle != cycle
    with pytest.raises(PreconditionFailed, match="e_k v_k"):
        chain_cycle_closed_forms(InvertiblePolynomial(5, (chain, reversed_cycle)), ws)


def test_is_twin():
    a = homology_profile(WeightSystem((929, 1858, 2849, 63, 805), 6503))
    b = homology_profile(WeightSystem((929, 1858, 3199, 413, 105), 6503))
    assert is_twin(a, b)
    assert is_twin(a, a)
    chain_cycle = find_chain_cycle(WeightSystem((13, 13, 125, 100, 75), 325))
    _, dual_ws = bh_dual(chain_cycle)
    assert not is_twin(
        homology_profile(WeightSystem((13, 13, 125, 100, 75), 325)),
        homology_profile(dual_ws),
    )


def test_swap_twin_929():
    poly = find_chain_cycle(WeightSystem((929, 1858, 2849, 63, 805), 6503))
    swapped, swapped_ws = swap_twin(poly)
    assert sorted(swapped_ws.weights) == sorted((929, 1858, 3199, 413, 105))
    assert swapped_ws.degree == 6503
    assert is_twin(
        homology_profile(solve_weights(poly)), homology_profile(swapped_ws)
    )
    # the twin's own transpose dual: a twin of the first dual
    _, twin_dual_ws = bh_dual(swapped)
    assert sorted(twin_dual_ws.weights) == sorted((1858, 6503, 8547, 2415, 189))
    assert twin_dual_ws.degree == 19509
    _, dual_ws = bh_dual(poly)
    assert is_twin(homology_profile(dual_ws), homology_profile(twin_dual_ws))


def test_swap_twin_identity_when_exponents_equal():
    poly = find_chain_cycle(WeightSystem((13, 143, 775, 620, 465), 2015))
    swapped, swapped_ws = swap_twin(poly)
    assert swapped == poly
    assert swapped_ws == WeightSystem((13, 143, 775, 620, 465), 2015)


def test_swap_twin_profile_equality_across_fixture():
    # the exponent-swap twin keeps degree and whole profile on every row
    from bhlink.fixture import ROWS

    for row in ROWS:
        ws = WeightSystem(row.source, row.source_degree)
        poly = find_chain_cycle(ws)
        _, twin_ws = swap_twin(poly)
        assert twin_ws.degree == ws.degree
        assert is_twin(homology_profile(ws), homology_profile(twin_ws)), row.source


def test_swap_twin_requires_chain_cycle():
    from bhlink.polynomial import Block, BlockKind, InvertiblePolynomial

    bp = InvertiblePolynomial(
        5, tuple(Block(BlockKind.FERMAT, (i,), (2,)) for i in range(5))
    )
    with pytest.raises(PreconditionFailed):
        swap_twin(bp)


def test_pipeline_929():
    ws = WeightSystem((929, 1858, 2849, 63, 805), 6503)
    reports = pipeline(ws)
    assert all(r.error is None for r in reports)
    chain_cycle = [r for r in reports if classify(r.source_polynomial) == "Chain-Cycle"]
    assert chain_cycle
    r = chain_cycle[0]
    assert r.dual_profile.b3 == 0
    assert r.dual_profile.torsion == ((929, 1),)
    assert r.dual_profile.mu == 17632
    assert se_certificate(ws).verdict is Verdict.SASAKI_EINSTEIN
    assert r.dual_verdict.verdict is Verdict.SASAKI_EINSTEIN


def test_pipeline_three_shapes():
    ws = WeightSystem((13, 13, 125, 100, 75), 325)
    reports = pipeline(ws)
    labels = {classify(r.source_polynomial) for r in reports}
    assert {"BP-Cycle", "Chain-Cycle", "Cycle-Cycle"} <= labels
    chain_cycle = [r for r in reports if classify(r.source_polynomial) == "Chain-Cycle"]
    assert any(
        r.dual_profile.torsion == ((13, 1),)
        and r.dual_verdict.verdict is Verdict.POSITIVE_RICCI_ONLY
        for r in chain_cycle
    )
    twins = [r for r in reports if classify(r.source_polynomial) in ("BP-Cycle", "Cycle-Cycle")]
    source = homology_profile(ws)
    assert twins and all(is_twin(source, r.dual_profile) for r in twins)


def test_a_joint_multiple_is_its_primitive_system():
    # the golden (13, 13, 125, 100, 75; 325) doubled: the profile's degree,
    # the twins and the pipeline are those of the primitive system
    ws = WeightSystem((26, 26, 250, 200, 150), 650)
    assert (ws.weights, ws.degree) == ((13, 13, 125, 100, 75), 325)
    source = homology_profile(ws)
    assert source.degree == 325
    reports = pipeline(ws)
    assert len(reports) == 4
    assert sum(is_twin(source, r.dual_profile) for r in reports) == 2
    # (73, 73, 95, 45, 80; 365) tripled is still index one, so the closed
    # forms cross-check its chain-cycle dual rather than skip it
    ws = WeightSystem((219, 219, 285, 135, 240), 1095)
    assert checked_dual(find_chain_cycle(ws), ws).skipped is None


def test_pipeline_self_dual_quadric():
    ws = WeightSystem((1, 1, 1, 1, 1), 2)
    reports = pipeline(ws)
    assert reports
    source = homology_profile(ws)
    assert all(is_twin(source, r.dual_profile) for r in reports if classify(r.source_polynomial) == "BP")


def test_pipeline_aggregates_per_representation_errors():
    # the quadric data admits chain representations with tail exponent 1
    # whose transposes have degenerate weights; the batch must not abort
    reports = pipeline(WeightSystem((1, 1, 1, 1, 1), 2))
    errored = [r for r in reports if r.error is not None]
    fine = [r for r in reports if r.error is None]
    assert errored and fine
    assert all(r.dual_profile is None for r in errored)
    assert all("NonPositiveWeights" in r.error for r in errored)


def test_pipeline_budget_refuses_before_building(monkeypatch):
    # (1^6; 3) still runs; (1^7; 3) is refused
    assert count_representations(WeightSystem((1,) * 6, 3)) == 6_600 <= duality.PIPELINE_BUDGET
    assert count_representations(WeightSystem((1,) * 7, 3)) == 63_840 > duality.PIPELINE_BUDGET

    def unexpected(*args):
        raise AssertionError("built past the budget")

    monkeypatch.setattr(duality, "enumerate_representations", unexpected)
    monkeypatch.setattr(duality, "homology_profile", unexpected)
    with pytest.raises(PreconditionFailed, match=f"63840 .*budget of {duality.PIPELINE_BUDGET}"):
        pipeline(WeightSystem((1,) * 7, 3))


def test_pipeline_budget_boundary(monkeypatch):
    # a golden source with c = 4 representations: a budget of exactly c
    # reports all of them, one of c - 1 refuses before building any
    ws = WeightSystem((73, 73, 95, 45, 80), 365)
    count = count_representations(ws)
    assert count == 4
    monkeypatch.setattr(duality, "PIPELINE_BUDGET", count)
    reports = pipeline(ws)
    assert [r.source_polynomial for r in reports] == enumerate_representations(ws)
    assert len(reports) == count
    monkeypatch.setattr(duality, "PIPELINE_BUDGET", count - 1)
    with pytest.raises(PreconditionFailed) as refused:
        pipeline(ws)
    assert str(refused.value) == (
        "(73, 73, 95, 45, 80; d=365) has 4 invertible representations, over the pipeline budget of 3"
    )


def test_pipeline_whole_fixture():
    # runs the internal closed-form assertion on all 97 chain-cycle
    # representations across the golden rows; every source is an index-one
    # rational homology sphere, so each dual keeps the source's SE verdict
    from bhlink.fixture import ROWS

    n_reports = 0
    for row in ROWS:
        ws = WeightSystem(row.source, row.source_degree)
        reports = pipeline(ws)
        assert reports
        source = homology_profile(ws)
        assert source.b3 == 0 and ws.fano_index() == 1
        verdict = se_certificate(ws).verdict
        n_reports += len(reports)
        for r in reports:
            assert r.error is None, (row.source, str(r.source_polynomial), r.error)
            assert r.dual_verdict.verdict is verdict, (row.source, str(r.source_polynomial))
            label = classify(r.source_polynomial)
            if label == "Chain-Cycle":
                # duality changes degree and Milnor number here, never a twin
                assert not is_twin(source, r.dual_profile)
                assert r.dual_profile.b3 == 0
            elif label in ("Cycle", "BP-Cycle", "Cycle-Cycle"):
                assert is_twin(source, r.dual_profile)
    assert n_reports == 194


def test_se_verdict_kept_by_the_dual_of_an_index_one_rhs_source():
    # a rule derived and checked here, not quoted from the paper: for a
    # rational homology sphere source of index one, the dual's SE verdict is
    # the source's.  The population holds both verdicts
    verdicts = Counter()
    for poly, ws in theorem_population():
        assert homology_profile(ws).b3 == 0 and ws.fano_index() == 1, ws
        verdict = se_certificate(ws).verdict
        assert se_certificate(bh_dual(poly)[1]).verdict is verdict, (ws, str(poly))
        verdicts[verdict] += 1
    assert verdicts == {Verdict.SASAKI_EINSTEIN: 985, Verdict.POSITIVE_RICCI_ONLY: 25}


@pytest.mark.parametrize(
    "weights, degree, b3, index, verdict, dual_verdicts",
    [
        # index 16: SE, and both duals, (18,63,28,63,21; 189) among them, lose it
        ((108, 216, 126, 217, 105), 756, 0, 16, Verdict.SASAKI_EINSTEIN, {Verdict.POSITIVE_RICCI_ONLY: 2}),
        # b3 = 24: not SE, and 10 of its 12 duals are
        (
            (10, 4, 5, 6, 6), 30, 24, 1, Verdict.POSITIVE_RICCI_ONLY,
            {Verdict.SASAKI_EINSTEIN: 10, Verdict.POSITIVE_RICCI_ONLY: 2},
        ),
    ],
)
def test_se_verdict_moves_off_the_hypotheses(weights, degree, b3, index, verdict, dual_verdicts):
    # each source drops one hypothesis of the rule above, and its verdict moves
    ws = WeightSystem(weights, degree)
    assert (homology_profile(ws).b3, ws.fano_index(), se_certificate(ws).verdict) == (b3, index, verdict)
    reports = pipeline(ws)
    assert all(r.error is None for r in reports)
    assert Counter(r.dual_verdict.verdict for r in reports) == dual_verdicts


def test_closed_forms_need_index_one():
    # index 54: the closed forms would predict Z_25, the dual has Z_25^2
    ws = WeightSystem((25, 4, 25, 24, 76), 100)
    poly = InvertiblePolynomial(
        5, (Block(BlockKind.CHAIN, (0, 2), (4, 3)), Block(BlockKind.CYCLE, (1, 4, 3), (6, 1, 4)))
    )
    assert solve_weights(poly) == ws
    with pytest.raises(PreconditionFailed, match="index one"):
        chain_cycle_closed_forms(poly, ws)


def test_pipeline_chain_cycle_off_index_one():
    reports = pipeline(WeightSystem((25, 4, 25, 24, 76), 100))
    assert not any("CrossCheckFailed" in (r.error or "") for r in reports)
    transposed = [
        r for r in reports
        if classify(r.source_polynomial) == "Chain-Cycle" and r.error is None
    ]
    assert len(transposed) == 2
    for r in transposed:
        assert r.dual_profile.b3 == 0
        assert r.dual_profile.torsion == ((25, 2),)
        assert r.dual_profile.mu == 240


@settings(max_examples=60, deadline=None)
@given(
    instance=st.sampled_from(index_one_chain_cycles()),
    perm=st.permutations(range(5)),
)
def test_closed_forms_match_transposed_dual_on_index_one(instance, perm):
    poly, ws = permute_instance(instance, tuple(perm))
    prediction = chain_cycle_closed_forms(poly, ws)
    _, dual_ws = bh_dual(poly)
    assert sorted(prediction.weights) == sorted(dual_ws.weights)
    assert prediction.profile() == homology_profile(dual_ws)
    assert checked_dual(poly, ws).skipped is None


@settings(max_examples=200, deadline=None)
@given(
    chain=st.tuples(st.integers(2, 8), st.integers(1, 8)),
    cycle=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    perm=st.permutations(range(5)),
)
def test_checked_dual_agrees_on_chain_cycle_data(chain, cycle, perm):
    # raises CrossCheckFailed wherever the closed forms accept wrong data
    poly = InvertiblePolynomial(
        5, (Block(BlockKind.CHAIN, (0, 1), chain), Block(BlockKind.CYCLE, (2, 3, 4), cycle))
    )
    assume(not poly.validate())
    try:
        poly, ws = permute_instance((poly, solve_weights(poly)), tuple(perm))
        dual = checked_dual(poly, ws)
    except CrossCheckFailed:
        raise
    except BhlinkError:
        assume(False)
    if ws.fano_index() != 1:
        assert dual.skipped is not None
