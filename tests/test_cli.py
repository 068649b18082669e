"""Command-line surface: analyze, pipeline, batch, verify-table."""

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bhlink import (
    WeightSystem,
    cli,
    duality,
    enumerate_representations,
    find_chain_cycle,
    homology_profile,
    invariants,
    is_twin,
    weights,
)
from bhlink.cli import main
from bhlink.errors import CrossCheckFailed, NonPositiveWeights, PreconditionFailed
from bhlink.fixture import ROWS

from generators import random_weight_system
from oracles import oracle_batch_dual


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_text(capsys):
    code, out = run(capsys, "analyze", "-w", "15,35,14,7,35", "-d", "105")
    assert code == 0
    assert "Z_7^26" in out
    assert "2184" in out
    assert "SasakiEinstein" in out


def test_analyze_json(capsys):
    code, out = run(capsys, "analyze", "-w", "15,35,14,7,35", "-d", "105", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["betti"] == 0
    assert record["torsion"] == [[7, 26]]
    assert record["milnor"] == 2184
    assert record["torsion_status"] == "certified"
    assert record["se"]["verdict"] == "SasakiEinstein"


def test_analyze_quadric(capsys):
    code, out = run(capsys, "analyze", "-w", "1,1,1,1,1", "-d", "2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["betti"] == 0
    assert record["torsion"] == [[2, 1]]
    assert record["milnor"] == 1


def test_analyze_non_rhs(capsys):
    code, out = run(capsys, "analyze", "-w", "15,35,15,9,32", "-d", "105", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["betti"] == 24
    assert not record["rational_homology_sphere"]


def test_analyze_invalid_input_exit_2(capsys):
    assert main(["analyze", "-w", "1,2,3", "-d", "10"]) == 2
    assert capsys.readouterr().err == "error: expected 5 to 8 weights, got 3\n"
    assert main(["analyze", "-w", ",".join(["1"] * 9), "-d", "2"]) == 2
    assert capsys.readouterr().err == "error: expected 5 to 8 weights, got 9\n"
    # a weight at least as large as the degree is invalid data
    assert main(["analyze", "-w", "7,1,1,1,1", "-d", "5"]) == 2
    assert main(["analyze", "-w", "1,x,1,1,1", "-d", "5"]) == 2
    assert "error: weights must be integers" in capsys.readouterr().err
    assert main(["analyze", "-w", "1,1,1,1,1", "-d", "x"]) == 2
    assert capsys.readouterr().err == "error: invalid weight system: the degree is not an integer: 'x'\n"


def test_analyze_degree_over_500_digits_exit_2(capsys):
    # a longer degree could give results past CPython's int-to-str limit;
    # past 4,300 digits int() itself would refuse the field with its own message
    for weights, degree, message in (
        ("1,1,1,1,1", str(10**1500 + 1), "invalid weight system: the degree has more than 500 digits"),
        ("1,1,1,1,1", "1" + "0" * 5000, "invalid weight system: the degree has more than 500 digits"),
        ("1,1,1,1,1", "1" * 501, "invalid weight system: the degree has more than 500 digits"),
        ("1" + "0" * 4999 + ",1,1,1,1", "7", "weights must be integers: weight field 1 has more than 500 digits"),
    ):
        assert main(["analyze", "-w", weights, "-d", degree]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    # 500 digits is allowed, on eight variables too, where mu has 3,993 digits
    for weights in ("1,1,1,1,1", "1,1,1,1,1,1,1,1"):
        assert main(["analyze", "-w", weights, "-d", str(10**499 + 1), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["degree"] == 10**499 + 1
    # digits are counted, not characters: 600 characters of leading zeros parse
    assert main(["analyze", "-w", "1,1,1,1,1", "-d", "0" * 597 + "105", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 105


def test_analyze_non_integral_divisor_names_system_and_stage(capsys):
    assert main(["analyze", "-w", "19,18,5,12,16", "-d", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: link divisor of (19, 18, 5, 12, 16; d=20): coefficient of L20 is -103/513, not an integer\n"
    )


def test_pipeline_text(capsys):
    code, out = run(capsys, "pipeline", "-w", "929,1858,2849,63,805", "-d", "6503")
    assert code == 0
    assert "Chain-Cycle" in out
    assert "19509" in out
    assert "Z_929" in out
    # weight data that matches no invertible polynomial: not quasismooth (every
    # degree-7 monomial has degree >= 3 in z0..z3, so the hypersurface is
    # singular at the z4 vertex); this pins what the formula prints for it
    code, out = run(capsys, "pipeline", "-w", "1,1,1,1,4", "-d", "7")
    assert (code, out) == (0, "no invertible representation matches (1, 1, 1, 1, 4; d=7)\n")
    # the first representation's dual has a non-positive weight
    code, out = run(capsys, "pipeline", "-w", "12,22,6,54,33", "-d", "66")
    assert code == 0
    assert "\n[BP-Chain]" in out
    assert "  error: NonPositiveWeights: weight ray [0, 22, 6, 66, 33] has a non-positive entry\n" in out
    assert "dual weights (6, 22, 30, 36, 33; d=66)" in out


def test_text_views_byte_for_byte(capsys):
    # perfbench digests only --json, batch and verify-table output
    code, out = run(capsys, "analyze", "-w", "15,35,14,7,35", "-d", "105")
    assert (code, out) == (
        0,
        "weight system   (15, 35, 14, 7, 35)  d = 105\n"
        "b3              0\n"
        "H3 torsion      Z_7^26  [certified]\n"
        "Milnor number   2184\n"
        "RHS             True\n"
        "well-formed     space: False   hypersurface: False\n"
        "Fano index      1\n"
        "SE verdict      SasakiEinstein\n",
    )
    code, out = run(capsys, "pipeline", "-w", "12,22,6,54,33", "-d", "66")
    assert (code, out) == (
        0,
        "source (12, 22, 6, 54, 33; d=66): b3=0  H3=1  mu=20\n"
        "\n"
        "[BP-Chain]  z2*z0^5 + z1^3 + z2^11 + z0*z3 + z4^2\n"
        "  error: NonPositiveWeights: weight ray [0, 22, 6, 66, 33] has a non-positive entry\n"
        "\n"
        "[BP-Cycle]  z2*z0^5 + z1^3 + z3*z2^2 + z0*z3 + z4^2\n"
        "  dual  z3*z0^5 + z1^3 + z0*z2^2 + z2*z3 + z4^2\n"
        "  dual weights (6, 22, 30, 36, 33; d=66)\n"
        "  dual profile b3=0  H3=1  mu=20\n"
        "  twin=True  source SE=PositiveRicciOnly  dual SE=PositiveRicciOnly\n",
    )


def test_pipeline_json_three_sections(capsys):
    code, out = run(capsys, "pipeline", "-w", "13,13,125,100,75", "-d", "325", "--json")
    assert code == 0
    record = json.loads(out)
    labels = {entry["type"] for entry in record["representations"]}
    assert {"BP-Cycle", "Chain-Cycle", "Cycle-Cycle"} <= labels


def test_pipeline_self_dual(capsys):
    code, out = run(capsys, "pipeline", "-w", "1,1,1,1,1", "-d", "5", "--json")
    assert code == 0
    record = json.loads(out)
    bp = [e for e in record["representations"] if e["type"] == "BP"]
    assert bp and bp[0]["dual_weights"] == [1, 1, 1, 1, 1]


def _torsion_text(runs):
    parts = [f"Z_{value}" + (f"^{count}" if count > 1 else "") for value, count in runs]
    return "+".join(parts) if parts else "1"


def test_batch_roundtrips_fixture(tmp_path, capsys):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    with src.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["w0", "w1", "w2", "w3", "w4", "d"])
        for row in ROWS:
            writer.writerow(list(row.source) + [row.source_degree])
    assert main(["batch", str(src), str(dst)]) == 0
    capsys.readouterr()
    with dst.open(newline="") as handle:
        records = list(csv.DictReader(handle))
    assert len(records) == len(ROWS)
    for record, row in zip(records, ROWS):
        assert record["error"] == ""
        assert sorted(int(x) for x in record["dual_w"].split()) == sorted(row.dual)
        assert int(record["dual_d"]) == row.dual_degree
        assert int(record["dual_mu"]) == row.dual_mu
        assert record["dual_torsion"] == _torsion_text(row.dual_torsion)
        assert record["b3"] == "0"
        assert record["index"] == "1"
        assert record["dual_se"] == "SasakiEinstein"


def test_batch_empty_csv(tmp_path, capsys):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    src.write_text("w0,w1,w2,w3,w4,d\n")
    assert main(["batch", str(src), str(dst)]) == 0
    capsys.readouterr()
    assert dst.read_text().strip().count("\n") == 0  # header only


def test_batch_malformed_header_exit_2(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("a,b,c\n1,2,3\n")
    assert main(["batch", str(src), str(tmp_path / "out.csv")]) == 2
    capsys.readouterr()


def test_batch_bad_row_continues(tmp_path, capsys):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    src.write_text(
        "w0,w1,w2,w3,w4,d\n"
        "1,1,1,1,1,2\n"
        "7,1,1,1,1,5\n"  # weight exceeds degree
        "15,35,14,7,35,105\n"
    )
    assert main(["batch", str(src), str(dst)]) == 0
    capsys.readouterr()
    with dst.open(newline="") as handle:
        records = list(csv.DictReader(handle))
    assert len(records) == 3
    assert records[0]["error"] == ""
    assert records[1]["error"] != ""
    assert records[2]["torsion"] == "Z_7^26"


def test_batch_ke_status_passthrough_and_jobs_determinism(tmp_path, capsys):
    src = tmp_path / "in.csv"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    with src.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["w0", "w1", "w2", "w3", "w4", "d", "ke_status"])
        for row in ROWS[:8]:
            writer.writerow(list(row.source) + [row.source_degree, "KE"])
    assert main(["batch", str(src), str(a)]) == 0
    assert main(["batch", str(src), str(b), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()
    with a.open(newline="") as handle:
        records = list(csv.DictReader(handle))
    assert all(record["ke_status"] == "KE" for record in records)


def test_batch_no_representation_row(tmp_path, capsys):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    # weight data that matches no invertible polynomial and is not
    # quasismooth (singular at the z4 vertex): this pins what the formula
    # prints for it, not the homology of a link
    src.write_text("w0,w1,w2,w3,w4,d\n1,1,1,1,4,7\n")
    assert main(["batch", str(src), str(dst)]) == 0
    capsys.readouterr()
    with dst.open(newline="") as handle:
        record = next(csv.DictReader(handle))
    assert record["error"] == ""
    assert record["n_reps"] == "0"
    assert record["dual_w"] == ""
    assert record["b3"] == "138"
    # the torsion tag, from the existence search, agrees with the count
    code, out = run(capsys, "analyze", "-w", "1,1,1,1,4", "-d", "7", "--json")
    assert code == 0
    assert json.loads(out)["torsion_status"] == "conjectural"


def _quiet_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def five_weight_rows(draw):
    """A generator row, which has a representation, or uniformly random
    small weights, most of which have none."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        got = None
        while got is None:
            got = random_weight_system(rng)
        return got[1].weights, got[1].degree
    weights = tuple(draw(st.lists(st.integers(1, 8), min_size=5, max_size=5)))
    return weights, draw(st.integers(max(weights) + 1, 24))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(row=five_weight_rows())
# every partner map of this system holds a degenerate 2-cycle: conjectural, n_reps 0
@example(row=((12, 11, 9, 8, 4), 20))
def test_analyze_tag_agrees_with_batch_count(tmp_path_factory, row):
    # analyze's tag comes from the existence search and batch's n_reps from
    # the count: certified exactly when n_reps is not 0
    weights, degree = row
    code, out = _quiet_main(["analyze", "-w", ",".join(map(str, weights)), "-d", str(degree), "--json"])
    src = tmp_path_factory.mktemp("row") / "in.csv"
    dst = src.with_name("out.csv")
    _write_rows(src, [row])
    assert _quiet_main(["batch", str(src), str(dst)])[0] == 0
    with dst.open(newline="") as handle:
        (record,) = csv.DictReader(handle)
    assert code in (0, 2)
    if code:
        # data analyze refuses fails that batch row before it is counted
        assert record["error"] and record["n_reps"] == ""
    else:
        expected = "certified" if record["n_reps"] != "0" else "conjectural"
        assert json.loads(out)["torsion_status"] == expected


def test_batch_dual_falls_back_past_a_degenerate_first(tmp_path, capsys):
    # no chain-cycle; the first representation in canonical order (BP-Chain)
    # has a dual with a non-positive weight, so the row reports the second
    # (BP-Cycle): the lazy walk must go on past the first
    ws = WeightSystem((12, 22, 6, 54, 33), 66)
    first, second = enumerate_representations(ws)
    with pytest.raises(NonPositiveWeights):
        duality.checked_dual(first, ws)
    assert duality.checked_dual(second, ws).dual_weights.weights == (6, 22, 30, 36, 33)
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    _write_rows(src, [(ws.weights, ws.degree)])
    assert main(["batch", str(src), str(dst)]) == 0
    capsys.readouterr()
    assert dst.read_bytes() == (
        b"w0,w1,w2,w3,w4,d,b3,torsion,mu,index,wellformed,se_verdict,n_reps,dual_w,dual_d,"
        b"dual_torsion,dual_mu,dual_se,twin,error\r\n"
        b"12,22,6,54,33,66,0,1,20,61,false,PositiveRicciOnly,2,6 22 30 36 33,66,1,20,"
        b"PositiveRicciOnly,true,\r\n"
    )


def assert_batch_row_matches_reference(ws):
    # the reference tries every representation; the batch walk skips those
    # whose transpose is invalid, so both must report the same dual
    record = {**{f"w{i}": str(w) for i, w in enumerate(ws.weights)}, "d": str(ws.degree)}
    row = cli.process_batch_row(record)
    report = oracle_batch_dual(ws)
    expected = dict.fromkeys(["dual_w", "dual_d", "dual_torsion", "dual_mu", "dual_se", "twin", "error"], "")
    if report is not None:
        expected.update(
            dual_w=" ".join(map(str, report.dual_weights.weights)),
            dual_d=str(report.dual_weights.degree),
            dual_torsion=report.dual_profile.torsion_str(),
            dual_mu=str(report.dual_profile.mu),
            dual_se=report.dual_verdict.verdict.value,
            twin=str(is_twin(homology_profile(ws), report.dual_profile)).lower(),
        )
    assert {column: row[column] for column in expected} == expected


@pytest.mark.parametrize("weights, degree", [((1, 1, 1, 1, 1), 2), ((12, 22, 6, 54, 33), 66)])
def test_batch_row_matches_the_full_search_on_named_rows(weights, degree):
    assert_batch_row_matches_reference(WeightSystem(weights, degree))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_batch_row_matches_the_full_search_on_generated_rows(seed):
    rng = random.Random(seed)
    got = None
    while got is None:
        got = random_weight_system(rng)
    assert_batch_row_matches_reference(got[1])


def _plus_one(real):
    return lambda ws: real(ws) + 1


def _extra_factor_2(real):
    def torsion(ws):
        sheet, runs = real(ws)
        return sheet, runs + ((2, 1),)

    return torsion


@pytest.mark.parametrize("command", ["analyze", "pipeline"])
def test_source_cross_check_failure_exit_3(capsys, monkeypatch, command):
    # each injection makes one route of homology_profile disagree with its
    # cross-check on the source (15, 35, 14, 7, 35; 105), which has b3 = 0
    for name, wrong, message in (
        # the product-formula Milnor number against the divisor root count
        ("milnor_number", _plus_one, "Milnor mismatch"),
        # the subset-route Betti number against the divisor coefficient sum
        ("betti_subset_sum", _plus_one, "betti mismatch"),
        # the subset-recursion torsion order against |Delta(1)|
        ("orlik_torsion", _extra_factor_2, "torsion order mismatch"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(invariants, name, wrong(getattr(invariants, name)))
            assert main([command, "-w", "15,35,14,7,35", "-d", "105"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"cross-check failure: {message}")


def test_batch_overwrites_output_columns_in_the_input(tmp_path, capsys):
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text(
        "w0,w1,w2,w3,w4,d,ke_status,error,dual_w\n"
        "73,73,95,45,80,365,KE,stale error,stale\n"
        # matches no invertible polynomial (and is not quasismooth): the
        # formula's numbers, no dual and no error
        "1,1,1,1,4,7,,,9 9 9 9 9\n"
    )
    assert main(["batch", str(src), str(dst)]) == 0
    assert "(0 with errors)" in capsys.readouterr().out
    with dst.open(newline="") as handle:
        dual, none = csv.DictReader(handle)
    assert dual["ke_status"] == "KE" and dual["error"] == ""
    assert sorted(map(int, dual["dual_w"].split())) == sorted(ROWS[0].dual)
    assert none["n_reps"] == "0" and none["dual_w"] == "" and none["error"] == ""


def test_negative_betti_number_is_refused(tmp_path, capsys):
    # b3 = -20: no quasismooth hypersurface has this link, so there is no
    # profile to print
    message = "b3 = -20 < 0: (7, 7, 7, 7, 8; d=35) is not the link of a quasismooth hypersurface"
    for command in ("analyze", "pipeline"):
        assert main([command, "-w", "7,7,7,7,8", "-d", "35"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("w0,w1,w2,w3,w4,d\n7,7,7,7,8,35\n")
    assert main(["batch", str(src), str(dst)]) == 0
    assert "(1 with errors)" in capsys.readouterr().out
    with dst.open(newline="") as handle:
        (record,) = csv.DictReader(handle)
    assert record["b3"] == ""
    assert record["error"] == f"PreconditionFailed: {message}"


def test_pipeline_over_budget_exit_2(capsys):
    # (1^7; 3) has 63,840 representations: refused from the count, at once
    assert main(["pipeline", "-w", "1,1,1,1,1,1,1", "-d", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "63840" in captured.err and str(duality.PIPELINE_BUDGET) in captured.err


def test_verify_table(capsys):
    assert main(["verify-table"]) == 0
    out = capsys.readouterr().out
    assert "75/75" in out
    assert "FAIL" not in out


def test_verify_table_fixture_override_roundtrip(tmp_path, capsys):
    # dump the embedded table in the documented CSV format and replay it
    path = tmp_path / "fixture.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["w0", "w1", "w2", "w3", "w4", "tw0", "tw1", "tw2", "tw3", "tw4", "dual_d", "dual_mu", "dual_torsion"]
        )
        for row in ROWS:
            writer.writerow(
                list(row.source) + list(row.dual)
                + [row.dual_degree, row.dual_mu, _torsion_text(row.dual_torsion)]
            )
    assert main(["verify-table", "--fixture", str(path)]) == 0
    assert "75/75" in capsys.readouterr().out


def test_verify_table_fixture_override_mismatch(tmp_path, capsys):
    bad = tmp_path / "fixture.csv"
    with bad.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["w0", "w1", "w2", "w3", "w4", "tw0", "tw1", "tw2", "tw3", "tw4", "dual_d", "dual_mu", "dual_torsion"]
        )
        row = ROWS[0]
        writer.writerow(list(row.source) + list(row.dual) + [row.dual_degree, row.dual_mu + 1, "Z_73"])
        # "1" is the trivial group, which no golden dual has
        row = ROWS[1]
        writer.writerow(list(row.source) + list(row.dual) + [row.dual_degree, row.dual_mu, "1"])
        row = ROWS[2]
        torsion = _torsion_text(row.dual_torsion)
        wrong_weight = (row.dual[0] + 1,) + row.dual[1:]
        writer.writerow(list(row.source) + list(wrong_weight) + [row.dual_degree, row.dual_mu, torsion])
        row = ROWS[3]
        torsion = _torsion_text(row.dual_torsion)
        writer.writerow(list(row.source) + list(row.dual) + [row.dual_degree + 1, row.dual_mu, torsion])
        # the true chain-cycle dual of index-one data, short of the inequality
        writer.writerow([13, 13, 75, 100, 125, 325, 299, 1800, 3000, 2400, 7800, 6924, "Z_13"])
        # the true dual of (4, 2, 1, 1, 1; 8): b3 = 128, outside the closed forms
        writer.writerow([4, 2, 1, 1, 1, 2, 4, 1, 1, 1, 8, 1029, "Z_4"])
        # torsion is compared run by run, so only the canonical spelling passes
        row = next(r for r in ROWS if r.source == (65, 650, 1581, 867, 153))
        writer.writerow(list(row.source) + list(row.dual) + [row.dual_degree, row.dual_mu, "Z_3315+Z_51+Z_51^2"])
        # Z_1 parses, as the trivial group in a non-canonical spelling
        row = ROWS[0]
        writer.writerow(list(row.source) + list(row.dual) + [row.dual_degree, row.dual_mu, "Z_1"])
    assert main(["verify-table", "--fixture", str(bad)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("FAIL") for line in lines[:8])
    assert f"dual torsion {ROWS[1].dual_torsion} != ()" in lines[1]
    assert lines[2].endswith(f"dual weights {sorted(ROWS[2].dual)} != {sorted(wrong_weight)}")
    assert lines[3].endswith(f"dual degree {ROWS[3].dual_degree} != {ROWS[3].dual_degree + 1}")
    assert lines[4].endswith("  dual not certified Sasaki-Einstein")
    problems = lines[5].split("  ", 2)[2].split("; ")
    assert problems[0] == "dual b3 128 != 0"
    assert problems[1].startswith("closed forms not applicable: ")
    assert problems[2:] == ["dual not certified Sasaki-Einstein"]
    assert lines[6].endswith("dual torsion ((3315, 1), (51, 3)) != ((3315, 1), (51, 1), (51, 2))")
    assert lines[7].endswith(f"dual torsion {ROWS[0].dual_torsion} != ((1, 1),)")
    assert lines[-1] == "0/8 rows verified"


def test_verify_table_missing_fixture_exit_2(tmp_path, capsys):
    # exit 1 means a table mismatch; an unreadable fixture is invalid input
    assert main(["verify-table", "--fixture", str(tmp_path / "absent.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: no such file")
    assert captured.out == ""


def test_verify_table_fixture_without_columns_exit_2(tmp_path, capsys):
    path = tmp_path / "fixture.csv"
    path.write_text("w0,w1,w2,w3,w4,d\n73,73,95,45,80,365\n")
    assert main(["verify-table", "--fixture", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed fixture header")
    assert "tw0" in captured.err and "dual_torsion" in captured.err
    assert captured.out == ""
    # a field that does not parse is invalid input too, not a mismatch
    path.write_text(
        "w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion\n"
        "73,73,95,45,x,219,365,420,200,260,1460,1224,Z_73\n"
    )
    assert main(["verify-table", "--fixture", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed fixture row 2")
    for torsion in ("Z_x", "73"):
        path.write_text(
            "w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion\n"
            f"73,73,95,45,80,219,365,420,200,260,1460,1224,{torsion}\n"
        )
        assert main(["verify-table", "--fixture", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed fixture row 2")
    # past CPython's 4,300-digit str-to-int limit the error names bhlink's own limit
    huge = "1" + "0" * 4999
    for row, field in (
        (f"73,73,95,45,80,219,365,420,200,260,1460,{huge},Z_73", "dual_mu"),
        (f"{huge},73,95,45,80,219,365,420,200,260,1460,1224,Z_73", "w0"),
        (f"73,73,95,45,80,219,365,420,200,260,1460,1224,Z_73^{huge}", "a torsion multiplicity"),
    ):
        path.write_text("w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion\n" + row + "\n")
        assert main(["verify-table", "--fixture", str(path)]) == 2
        err = _single_error_line(capsys)
        assert err == f"error: malformed fixture row 2: {field} has more than 500 digits\n"
        assert "4300" not in err


@pytest.mark.parametrize("torsion", ["Z_0", "Z_-73", "Z_73^0", "Z_73^-1", "Z_73+Z_0^2"])
def test_verify_table_fixture_torsion_naming_no_group_exit_2(tmp_path, capsys, torsion):
    # a factor or a multiplicity below 1 names no group: malformed input, not a mismatch
    path = tmp_path / "fixture.csv"
    path.write_text(
        "w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion\n"
        f"73,73,95,45,80,219,365,420,200,260,1460,1224,{torsion}\n"
    )
    assert main(["verify-table", "--fixture", str(path)]) == 2
    part = torsion.split("+")[-1]
    assert _single_error_line(capsys) == (
        f"error: malformed fixture row 2: bad torsion field {torsion!r}: {part} names no group\n"
    )


@pytest.mark.parametrize(
    "column, value, field",
    [("dual_mu", "abc", "dual_mu"), ("tw2", "", "tw2"), ("dual_torsion", "Z_x", "a torsion factor")],
)
def test_verify_table_fixture_non_integer_field_names_its_column(tmp_path, capsys, column, value, field):
    header = "w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion"
    row = dict(zip(header.split(","), "73,73,95,45,80,219,365,420,200,260,1460,1224,Z_73".split(",")))
    row[column] = value
    path = tmp_path / "fixture.csv"
    path.write_text(f"{header}\n{','.join(row.values())}\n")
    assert main(["verify-table", "--fixture", str(path)]) == 2
    part = value.removeprefix("Z_")
    assert _single_error_line(capsys) == f"error: malformed fixture row 2: {field} is not an integer: {part!r}\n"


def test_verify_table_fixture_repeated_column_exit_2(tmp_path, capsys):
    # a dict record keeps the last w0; batch and verify-table refuse it alike
    path = tmp_path / "fixture.csv"
    path.write_text(
        "w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion,w0\n"
        "73,73,95,45,80,219,365,420,200,260,1460,1224,Z_73,74\n"
    )
    assert main(["verify-table", "--fixture", str(path)]) == 2
    assert "repeated column w0" in _single_error_line(capsys)


def test_verify_table_fixture_long_row_exit_2(tmp_path, capsys):
    # a split torsion Z_73,Z_2 would otherwise be read as Z_73 and pass
    path = tmp_path / "fixture.csv"
    path.write_text(
        "w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion\n"
        "73,73,95,45,80,219,365,420,200,260,1460,1224,Z_73\n"
        "73,73,95,45,80,219,365,420,200,260,1460,1224,Z_73,Z_2\n"
    )
    assert main(["verify-table", "--fixture", str(path)]) == 2
    assert _single_error_line(capsys) == "error: malformed fixture row 3: 1 more fields than the header\n"


def test_verify_table_fixture_without_rows_exit_2(tmp_path, capsys):
    # a truncated table is invalid input, not 0/0 rows verified
    path = tmp_path / "fixture.csv"
    path.write_text("w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion\n")
    assert main(["verify-table", "--fixture", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: fixture {path} has no rows\n"


def test_batch_accepts_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    _write_rows(plain, [(row.source, row.source_degree) for row in ROWS[:3]])
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["batch", str(plain), str(a)]) == 0
    assert main(["batch", str(marked), str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_batch_directory_as_input_exit_2(tmp_path, capsys):
    assert main(["batch", str(tmp_path), str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_batch_output_in_missing_directory_exit_2(tmp_path, capsys):
    src = tmp_path / "in.csv"
    _write_rows(src, [(ROWS[0].source, ROWS[0].source_degree)])
    assert main(["batch", str(src), str(tmp_path / "missing" / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _single_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    return captured.err


def test_batch_non_utf8_input_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_bytes(b"\xff\xfe")
    assert main(["batch", str(src), str(tmp_path / "out.csv")]) == 2
    assert "not UTF-8" in _single_error_line(capsys)


def test_verify_table_non_utf8_fixture_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe")
    assert main(["verify-table", "--fixture", str(path)]) == 2
    assert "not UTF-8" in _single_error_line(capsys)


def test_batch_oversized_field_exit_2(tmp_path, capsys):
    # the csv module refuses a field past its size limit
    src = tmp_path / "in.csv"
    src.write_text(f'w0,w1,w2,w3,w4,d\n"{"1" * (csv.field_size_limit() + 1)}"\n')
    assert main(["batch", str(src), str(tmp_path / "out.csv")]) == 2
    assert "malformed CSV" in _single_error_line(capsys)


def _batch_records(tmp_path, capsys, body, jobs="1"):
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("w0,w1,w2,w3,w4,d\n" + body)
    assert main(["batch", str(src), str(dst), "--jobs", jobs]) == 0
    assert "Traceback" not in capsys.readouterr().err
    with dst.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    assert all(len(row) == len(header) for row in rows)
    return [dict(zip(header, row)) for row in rows[1:]]


def test_batch_short_row_is_that_rows_error(tmp_path, capsys):
    first, short, last = _batch_records(
        tmp_path, capsys, "1,1,1,1,1,2\n1,1,1\n15,35,14,7,35,105\n"
    )
    assert first["error"] == "" and first["torsion"] == "Z_2"
    assert short["error"].startswith("ValueError") and short["w3"] == ""
    assert last["error"] == "" and last["torsion"] == "Z_7^26"


def test_batch_long_row_is_that_rows_error(tmp_path, capsys):
    for jobs in ("1", "2"):
        long, last = _batch_records(
            tmp_path, capsys, "1,1,1,1,1,5,7,8\n15,35,14,7,35,105\n", jobs
        )
        assert long["error"] == "ValueError: 2 more fields than the header"
        assert long["d"] == "5" and long["b3"] == ""
        assert last["error"] == "" and last["torsion"] == "Z_7^26"


def test_batch_non_integer_field_names_its_column(tmp_path, capsys):
    blank, word, last = _batch_records(tmp_path, capsys, ",1,1,1,1,5\n1,1,1,1,1,x\n15,35,14,7,35,105\n")
    assert blank["error"] == "ValueError: w0 is not an integer: ''"
    assert word["error"] == "ValueError: the degree is not an integer: 'x'"
    assert last["error"] == "" and last["torsion"] == "Z_7^26"


def test_batch_huge_degree_is_that_rows_error(tmp_path, capsys):
    # the 500-digit guard of analyze holds per row: 10^700 + 1 would print a
    # 3,501-digit mu, 10^1500 + 1 trip CPython's int-to-str limit, and a field
    # of 10^5000 its str-to-int limit
    huge, huger, hugest, weight, last = _batch_records(
        tmp_path,
        capsys,
        f"1,1,1,1,1,{10**700 + 1}\n1,1,1,1,1,{10**1500 + 1}\n1,1,1,1,1,1{'0' * 5000}\n"
        f"1{'0' * 4999},1,1,1,1,5\n15,35,14,7,35,105\n",
    )
    for row in (huge, huger, hugest):
        assert row["error"] == "ValueError: the degree has more than 500 digits"
        assert row["mu"] == ""
    assert weight["error"] == "ValueError: w0 has more than 500 digits"
    assert last["error"] == "" and last["torsion"] == "Z_7^26"


def _subprocess_env():
    """The environment for a child interpreter that imports this bhlink, with
    stdout block-buffered on a pipe as a shell gives it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_import_leaves_fractions_out():
    # fractions brings in decimal and numbers, import time a one-shot command
    # pays for nothing: only the owner-pinned delta_eval uses it, and imports it itself
    code = "import sys, bhlink.cli; print('fractions' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_builds_no_table_kernel():
    # the subset table's kernel is generated on first use, not at import
    code = "import bhlink.cli; from bhlink import invariants; print(invariants._table_kernel.cache_info())"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "CacheInfo(hits=0, misses=0, maxsize=None, currsize=0)\n"


def test_closed_stdout_exit_2():
    # the reader goes away before the first write, as with `| head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "bhlink.cli", "verify-table"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == "error: stdout was closed before all output was written\n"


@pytest.mark.parametrize(
    "argv",
    [["verify-table"], ["analyze", "-w", "15,35,14,7,35", "-d", "105"], ["analyze", "-w", "1,2,3", "-d", "10"]],
)
def test_stderr_on_the_closed_stdout_pipe_exit_2(argv):
    # `2>&1 | true`: stdout and stderr are one pipe whose reader is gone, so
    # the error line cannot be written either; the exit code still stands
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bhlink.cli", *argv],
            stdout=write, stderr=write, env=_subprocess_env(), timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2


def test_cross_check_exit_3_when_stderr_fails(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "milnor_number", _plus_one(invariants.milnor_number))
    monkeypatch.setattr(sys, "stderr", _UnwritableStdout(BrokenPipeError(errno.EPIPE, "Broken pipe")))
    assert main(["analyze", "-w", "15,35,14,7,35", "-d", "105"]) == 3
    assert capsys.readouterr().out == ""


def _write_rows(path, systems):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["w0", "w1", "w2", "w3", "w4", "d"])
        for weights, degree in systems:
            writer.writerow(list(weights) + [degree])


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, forks nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_batch_pool_capped_by_rows_and_cpus(tmp_path, capsys, monkeypatch):
    # cmd_batch imports the pool class where it forks, so the patch goes on its module
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
    systems = [(row.source, row.source_degree) for row in ROWS[:6]]
    serial = tmp_path / "serial.csv"
    _write_rows(tmp_path / "six.csv", systems)
    assert main(["batch", str(tmp_path / "six.csv"), str(serial)]) == 0
    # below two workers' worth of rows nothing is forked, at it two workers are
    floor = cli._ROWS_PER_WORKER
    cases = [(floor, 2 * floor - 1, 2, []), (floor, 2 * floor, 2, [2])]
    cases += [(1, 1, 100000, []), (1, 3, 100000, [3]), (1, 6, 100000, [4]), (1, 6, 2, [2])]
    for rows_per_worker, rows, jobs, expected in cases:
        monkeypatch.setattr(cli, "_ROWS_PER_WORKER", rows_per_worker)
        _RecordingPool.sizes.clear()
        src, dst = tmp_path / f"in{rows}.csv", tmp_path / f"out{rows}.csv"
        _write_rows(src, (systems * rows)[:rows])
        assert main(["batch", str(src), str(dst), "--jobs", str(jobs)]) == 0
        assert _RecordingPool.sizes == expected, (rows, jobs)
        if rows == 6:
            assert dst.read_text() == serial.read_text()
    capsys.readouterr()


def _one_cross_check_line(capsys, count):
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        f"cross-check failure: {count} output item(s) record a failed cross-check; "
        "the first is CrossCheckFailed: "
    )
    return captured.out


def _inject_closed_form_disagreement(monkeypatch):
    real = duality.chain_cycle_closed_forms
    monkeypatch.setattr(
        duality, "chain_cycle_closed_forms", lambda poly, ws: dataclasses.replace(real(poly, ws), torsion=(2,))
    )
    return real


def test_injected_closed_form_disagreement_reaches_every_command(tmp_path, capsys, monkeypatch):
    # one contract: the command writes all of its output, then main exits 3
    # with one stderr line; exit 3 wins over verify-table's 1
    real = _inject_closed_form_disagreement(monkeypatch)
    ws = WeightSystem((929, 1858, 2849, 63, 805), 6503)
    argv = ["-w", "929,1858,2849,63,805", "-d", "6503"]
    reports = duality.pipeline(ws)
    chosen = find_chain_cycle(ws)
    assert [r.source_polynomial == chosen for r in reports if r.error] == [True]

    assert main(["pipeline", *argv]) == 3
    out = _one_cross_check_line(capsys, 1)
    assert out.count("\n[") == len(reports)
    assert out.count("  error: CrossCheckFailed: ") == 1
    assert main(["pipeline", *argv, "--json"]) == 3
    payload = json.loads(_one_cross_check_line(capsys, 1))["representations"]
    assert [entry["polynomial"] for entry in payload] == [str(r.source_polynomial) for r in reports]
    assert sum(entry["error"] is not None for entry in payload) == 1

    # a row with invalid data stays that row's error; the second copy's dual
    # profile comes from the command's memo, and the closed forms are
    # compared with it all the same; a real two-worker pool sees the
    # failure only as the error text its rows carry back
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)
    src = tmp_path / "in.csv"
    _write_rows(src, [(ws.weights, ws.degree), ((1, 1, 1), 2), (ws.weights[::-1], ws.degree), ((1, 1, 1, 1, 1), 5)])
    outputs = []
    for jobs in ("1", "2"):
        outputs.append(tmp_path / f"out{jobs}.csv")
        assert main(["batch", str(src), str(outputs[-1]), "--jobs", jobs]) == 3
        assert "processed 4 rows (3 with errors)" in _one_cross_check_line(capsys, 2)
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    with outputs[0].open(newline="") as handle:
        records = list(csv.DictReader(handle))
    assert [record["error"].split(":")[0] for record in records] == [
        "CrossCheckFailed", "ValueError", "CrossCheckFailed", ""
    ]
    assert all(record["dual_w"] == "" and record["b3"] == "0" for record in records[::2])

    assert main(["verify-table"]) == 3
    out = _one_cross_check_line(capsys, 75)
    assert out.count("FAIL  ") == 75 and out.endswith("\n0/75 rows verified\n")
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(
        "w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion\n"
        "73,73,95,45,80,219,365,420,200,260,1460,1224,Z_73\n"
        "73,73,95,45,80,219,365,420,200,260,1460,1225,Z_73\n"
    )
    assert main(["verify-table", "--fixture", str(fixture)]) == 3
    assert _one_cross_check_line(capsys, 2).endswith("\n0/2 rows verified\n")

    # analyze reads no dual; without a failure the other codes hold
    assert main(["analyze", *argv]) == 0
    monkeypatch.setattr(duality, "chain_cycle_closed_forms", real)
    assert main(["verify-table", "--fixture", str(fixture)]) == 1
    assert main(["batch", str(src), str(outputs[0]), "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("\n1/2 rows verified\nprocessed 4 rows (1 with errors) -> " + str(outputs[0]) + "\n")
    assert captured.err == ""


def test_batch_reports_an_internal_failure_in_a_dual(tmp_path, capsys, monkeypatch):
    # a failed cross-check in a dual is the row's error, not a reason to try
    # the next representation; the command still exits 3 once it is written
    ws = WeightSystem((929, 1858, 2849, 63, 805), 6503)
    real = invariants.orlik_torsion

    def failing_on_duals(system):
        if system != ws:
            raise CrossCheckFailed(f"injected for {system}")
        return real(system)

    monkeypatch.setattr(invariants, "orlik_torsion", failing_on_duals)
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    _write_rows(src, [(ws.weights, ws.degree)])
    assert main(["batch", str(src), str(dst), "--jobs", "1"]) == 3
    assert "(1 with errors)" in _one_cross_check_line(capsys, 1)
    with dst.open(newline="") as handle:
        record = next(csv.DictReader(handle))
    assert record["error"].startswith("CrossCheckFailed: injected")
    assert record["torsion"] == "Z_929^3"
    assert record["dual_w"] == record["twin"] == ""


class _FullStdout(io.TextIOBase):
    """A stdout on a full device: every write fails with ENOSPC.  Its file
    descriptor is a scratch file's, so main may point it at devnull."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT)

    def fileno(self):
        return self.fd

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("command", ["verify-table", "analyze --json", "batch"])
def test_write_failure_exit_2_with_one_line(tmp_path, capsys, monkeypatch, command):
    src = tmp_path / "in.csv"
    _write_rows(src, [(ROWS[0].source, ROWS[0].source_degree)])
    argv = {
        "verify-table": ["verify-table"],
        "analyze --json": ["analyze", "-w", "15,35,14,7,35", "-d", "105", "--json"],
        "batch": ["batch", str(src), str(tmp_path / "out.csv")],
    }[command]
    # a write failure wins over a recorded cross-check failure
    _inject_closed_form_disagreement(monkeypatch)
    full, plain = _FullStdout(tmp_path / "full"), (tmp_path / "stdout").open("w")
    if command == "batch":
        # the output CSV is the file that fills up; stdout is a plain file
        monkeypatch.setattr(sys, "stdout", plain)
        real_open = Path.open

        def open_full(self, mode="r", **kwargs):
            return full if "w" in mode else real_open(self, mode, **kwargs)

        monkeypatch.setattr(Path, "open", open_full)
    else:
        monkeypatch.setattr(sys, "stdout", full)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write output: No space left on device\n"
    plain.close()
    os.close(full.fd)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_full_device_exit_2():
    # the output is buffered, so the write fails in main's flush; the flush
    # at exit must not print a second error
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bhlink.cli", "analyze", "-w", "15,35,14,7,35", "-d", "105"],
            stdout=full, stderr=subprocess.PIPE, env=_subprocess_env(), timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: cannot write output: No space left on device\n"


class _UnflushableStdout(io.StringIO):
    """A buffered stdout whose writes succeed and whose flush fails, as a full
    device or a closed pipe fails the flush of a block-buffered stdout."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def flush(self):
        raise self.error


@pytest.mark.parametrize(
    "error, line",
    [
        (OSError(errno.ENOSPC, "No space left on device"), "error: cannot write output: No space left on device\n"),
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), "error: stdout was closed before all output was written\n"),
    ],
    ids=["full", "closed"],
)
def test_help_that_cannot_be_written_exit_2(capsys, monkeypatch, error, line):
    # argparse prints the help and raises SystemExit; main's flush fails after
    monkeypatch.setattr(sys, "stdout", _UnflushableStdout(error))
    assert main(["analyze", "-h"]) == 2
    assert capsys.readouterr().err == line


class _UnwritableStdout(io.StringIO):
    """An unbuffered stdout: each write goes to the device at once, so the
    write itself fails, and there is nothing left for a flush to fail on."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize(
    "error, line",
    [
        (OSError(errno.ENOSPC, "No space left on device"), "error: cannot write output: No space left on device\n"),
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), "error: stdout was closed before all output was written\n"),
    ],
    ids=["full", "closed"],
)
def test_help_that_cannot_be_written_unbuffered_exit_2(capsys, monkeypatch, error, line):
    # argparse drops an OSError from its own write; the CLI's parsers let it
    # reach main, which gives the write failure its one line
    monkeypatch.setattr(sys, "stdout", _UnwritableStdout(error))
    assert main(["analyze", "-h"]) == 2
    assert main(["-h"]) == 2
    assert capsys.readouterr().err == line * 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_help_on_an_unbuffered_full_device_exit_2():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bhlink.cli", "analyze", "-h"],
            stdout=full, stderr=subprocess.PIPE, env=dict(_subprocess_env(), PYTHONUNBUFFERED="1"),
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: cannot write output: No space left on device\n"


def test_help_and_usage_errors_still_exit_through_argparse(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bhlink analyze [-h]")
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "-w", "1,1,1,1,1", "-d", "5", "--bogus"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bhlink [-h]")
    assert err.endswith("\nbhlink: error: unrecognized arguments: --bogus\n")


def test_a_command_line_is_parsed_once(capsys, monkeypatch):
    # a plain line is read off the action table and no argparse parse runs,
    # at any level; a line the table declines takes one top-level parse_args,
    # argparse's own nested parse, and prints the plain line's bytes
    parser, _ = cli._parser()
    calls = []

    def recording(method):
        real = getattr(argparse.ArgumentParser, method)

        def record(self, args=None, namespace=None):
            calls.append((method, self, args))
            return real(self, args, namespace)

        return record

    for method in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, method, recording(method))
    assert main(["analyze", "-w", "15,35,14,7,35", "-d", "105"]) == 0
    assert calls == []
    plain = capsys.readouterr().out
    assert "Z_7^26" in plain
    declined = ["analyze", "--weights=15,35,14,7,35", "-d", "105"]
    assert main(declined) == 0
    assert [call for call in calls if call[0] == "parse_args"] == [("parse_args", parser, declined)]
    assert capsys.readouterr().out == plain


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["bhlink", "analyze", "-w", "15,35,14,7,35", "-d", "105", "--json"])
    assert main() == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["weights"], record["degree"], record["milnor"]) == ([15, 35, 14, 7, 35], 105, 2184)


def test_only_verify_table_imports_the_golden_table(tmp_path):
    src = tmp_path / "in.csv"
    _write_rows(src, [((15, 35, 14, 7, 35), 105)])
    script = (
        "import contextlib, io, json, sys\n"
        "from bhlink import cli\n"
        "seen = ['bhlink.fixture' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['analyze', '-w', '73,73,95,45,80', '-d', '365'],\n"
        "                 ['pipeline', '-w', '73,73,95,45,80', '-d', '365'],\n"
        "                 ['batch', sys.argv[1], sys.argv[2]], ['verify-table']):\n"
        "        assert cli.main(argv) == 0\n"
        "        seen.append('bhlink.fixture' in sys.modules)\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(src), str(tmp_path / "out.csv")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(), timeout=120,
    )
    assert proc.stderr.decode() == ""
    assert json.loads(proc.stdout) == [False, False, False, False, True]


def test_full_output_csv_under_a_stringio_stdout_exit_2(tmp_path, capsys):
    # main's callers in this process swap stdout for a buffer with no descriptor
    src = tmp_path / "in.csv"
    _write_rows(src, [((15, 35, 14, 7, 35), 105)])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["batch", str(src), "/dev/full"]) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "error: cannot write output: No space left on device\n"


def test_full_output_csv_leaves_the_callers_stdout_open(tmp_path):
    # the output CSV failed, not stdout: what the host process prints next arrives
    src = tmp_path / "in.csv"
    _write_rows(src, [((15, 35, 14, 7, 35), 105)])
    host = "import sys; from bhlink import cli; print('exit', cli.main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", host, "batch", str(src), "/dev/full"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.decode() == "exit 2\n"
    assert proc.stderr.decode() == "error: cannot write output: No space left on device\n"


def test_commands_without_a_pool_do_not_import_it(tmp_path):
    # a fresh interpreter: only a batch that forks a pool imports it
    src = tmp_path / "in.csv"
    _write_rows(src, [((15, 35, 14, 7, 35), 105), ((73, 73, 95, 45, 80), 365)])
    script = (
        "import contextlib, io, json, sys\n"
        "from bhlink import cli\n"
        "cli._available_cpus = lambda: 2\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['analyze', '-w', '73,73,95,45,80', '-d', '365']),\n"
        "             cli.main(['pipeline', '-w', '73,73,95,45,80', '-d', '365']),\n"
        "             cli.main(['verify-table']),\n"
        "             cli.main(['batch', sys.argv[1], sys.argv[2], '--jobs', '2'])]\n"
        "imported = 'concurrent.futures.process' in sys.modules\n"
        "cli._ROWS_PER_WORKER = 1\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes.append(cli.main(['batch', sys.argv[1], sys.argv[2], '--jobs', '2']))\n"
        "print(json.dumps([codes, imported, 'concurrent.futures.process' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(src), str(tmp_path / "out.csv")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(), timeout=120,
    )
    assert proc.stderr.decode() == ""
    assert json.loads(proc.stdout) == [[0, 0, 0, 0, 0], False, True]


def test_cross_check_line_follows_the_output_in_a_merged_stream():
    # main flushes stdout before it writes the cross-check line
    inject = (
        "import dataclasses, sys; from bhlink import cli, duality; real = duality.chain_cycle_closed_forms; "
        "duality.chain_cycle_closed_forms = lambda poly, ws: dataclasses.replace(real(poly, ws), torsion=(2,)); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", inject, "pipeline", "-w", "929,1858,2849,63,805", "-d", "6503"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode == 3
    lines = proc.stdout.decode().splitlines()
    assert lines[0].startswith("source (929, 1858, 2849, 63, 805; d=6503)")
    assert sum(line.startswith("cross-check failure: ") for line in lines) == 1
    assert lines[-1].startswith("cross-check failure: 1 output item(s)")


@pytest.mark.parametrize("command", ["batch", "verify-table --fixture"])
def test_unreadable_input_exit_2(tmp_path, capsys, monkeypatch, command):
    src = tmp_path / "in.csv"
    _write_rows(src, [(ROWS[0].source, ROWS[0].source_degree)])

    def refuse(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(self))

    monkeypatch.setattr(Path, "open", refuse)
    if command == "batch":
        argv = ["batch", str(src), str(tmp_path / "out.csv")]
    else:
        argv = ["verify-table", "--fixture", str(src)]
    assert main(argv) == 2
    assert _single_error_line(capsys) == f"error: cannot read {src}: Permission denied\n"


def test_verify_table_fails_rows_outside_the_closed_forms(capsys, monkeypatch):
    def refuse(poly, ws):
        raise PreconditionFailed("injected refusal")

    monkeypatch.setattr(duality, "chain_cycle_closed_forms", refuse)
    assert main(["verify-table"]) == 1
    out = capsys.readouterr().out
    assert "0/75 rows verified" in out
    assert "closed forms not applicable: injected refusal" in out


def test_replaced_command_runs_after_the_parser_is_built(capsys, monkeypatch):
    # the parser is built once per process; the command is found by name at call time
    assert main(["analyze", "-w", "1,1,1,1,1", "-d", "2"]) == 0
    calls = []
    monkeypatch.setattr(cli, "build_parser", None)
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: calls.append(args.degree) or 7)
    assert main(["analyze", "-w", "1,1,1,1,1", "-d", "2"]) == 7
    # the command parses the degree, with the weights
    assert calls == ["2"]
    capsys.readouterr()


@pytest.mark.parametrize("weights, field", [("1,,1,1,1,1", 2), ("1,1,1,1,1,", 6)])
def test_blank_weight_field_exit_2(capsys, weights, field):
    assert main(["analyze", "-w", weights, "-d", "5"]) == 2
    assert f"weight field {field} of {weights!r} is blank" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "jobs, message",
    [
        pytest.param("0", "must be at least 1, got 0", id="0"),
        pytest.param("-3", "must be at least 1, got -3", id="-3"),
        # a non-integer keeps argparse's own type=int message
        pytest.param("two", "invalid int value: 'two'", id="two"),
    ],
)
def test_batch_jobs_below_one_exit_2(tmp_path, capsys, jobs, message):
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("w0,w1,w2,w3,w4,d\n1,1,1,1,1,2\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["batch", str(src), str(dst), "--jobs", jobs])
    assert exit_info.value.code == 2
    assert f"argument --jobs: {message}" in capsys.readouterr().err
    assert not dst.exists()


def test_batch_repeated_header_column_exit_2(tmp_path, capsys):
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("w0,w1,w2,w3,w4,d,error,error\n1,1,1,1,1,2,,\n")
    assert main(["batch", str(src), str(dst)]) == 2
    assert "repeated column error" in _single_error_line(capsys)
    assert not dst.exists()


def test_batch_two_worker_pool_matches_serial_on_permuted_duplicates(tmp_path, capsys, monkeypatch):
    # a real pool: workers forked inside the command's profile memo write the
    # bytes one process writes, duplicates and failing rows included
    sizes = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)
    rng = random.Random(3)
    systems = [((12, 22, 6, 54, 33), 66), ((6, 22, 30, 36, 33), 66), ((19, 18, 5, 12, 16), 20)]
    for row in ROWS[:6]:
        systems += [(row.source, row.source_degree), (tuple(rng.sample(row.source, 5)), row.source_degree)]
    systems.append(((16, 12, 5, 18, 19), 20))
    src = tmp_path / "in.csv"
    _write_rows(src, systems)
    outputs = []
    for jobs in ("1", "2"):
        outputs.append(tmp_path / f"out{jobs}.csv")
        assert main(["batch", str(src), str(outputs[-1]), "--jobs", jobs]) == 0
    assert "16 rows (2 with errors)" in capsys.readouterr().out
    assert sizes == [2]
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_each_command_has_its_own_profile_memo(capsys, monkeypatch):
    memos = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_analyze", lambda args: memos.append(invariants._MEMO.get()) or 0)
        for _ in range(2):
            assert main(["analyze", "-w", "1,1,1,1,1", "-d", "2"]) == 0
    assert memos == [{}, {}] and memos[0] is not memos[1]
    assert invariants._MEMO.get() is None
    # a command that profiles, and one that fails, end their memo as well
    assert main(["pipeline", "-w", "15,35,14,7,35", "-d", "105"]) == 0
    assert invariants._MEMO.get() is None
    assert main(["analyze", "-w", "19,18,5,12,16", "-d", "20"]) == 2
    assert invariants._MEMO.get() is None
    capsys.readouterr()


def test_system_record_checks_the_space_once(capsys, monkeypatch):
    checked = []
    real = weights.wellformed_space
    monkeypatch.setattr(weights, "wellformed_space", lambda ws: checked.append(ws) or real(ws))
    code, out = run(capsys, "analyze", "-w", "881,881,465,99,318", "-d", "2643", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["wellformed_space"] is record["wellformed_hypersurface"] is True
    assert checked == [(881, 881, 465, 99, 318)]
