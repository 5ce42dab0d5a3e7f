"""Tests of the benchmark's reference answers (run with pytest)."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402


@pytest.mark.parametrize("n", range(1, 10))
def test_asm_poly_totals_and_enumerations(n):
    coeffs = reference.asm_poly(n)
    assert sum(coeffs) == reference.asm_count(n)
    assert sum(c * 2 ** k for k, c in enumerate(coeffs)) == 2 ** (n * (n - 1) // 2)
    assert coeffs[0] == factorial(n)  # permutation matrices have no -1
    assert len(coeffs) - 1 == (n - 1) ** 2 // 4  # most -1 entries


def test_asm_counts_are_the_known_sequence():
    assert [reference.asm_count(n) for n in range(1, 10)] == [
        1, 2, 7, 42, 429, 7436, 218348, 10850216, 911835460]


def test_asm_poly_small_cases():
    assert reference.asm_poly(3) == [6, 1]
    assert reference.asm_poly(4) == [24, 16, 2]
    assert reference.asm_poly(8) == [
        40320, 376320, 1376704, 2622208, 2954072, 2104448, 985984, 311568,
        67530, 10000, 996, 64, 2]


def test_polynomial_helpers():
    assert reference.in_x_squared([6, 1]) == [6, 0, 0, 0, 1]
    assert reference.parse_genpoly("42+105t+75t^2+t^6") == [42, 105, 75, 0,
                                                            0, 0, 1]
    assert reference.parse_genpoly("1") == [1]


def test_theta2_closed_form():
    q, z = Fraction(2), Fraction(3)
    # N = 1, w = 1: [2/3][12] = (2/3 - 3/2)(12 - 1/12)
    assert reference.theta2(z, q, [Fraction(1)]) == (
        (Fraction(2, 3) - Fraction(3, 2)) * (12 - Fraction(1, 12)))
    # the sign is (-1)^(N+1): two equal sites give minus the square
    one = reference.theta2(z, q, [Fraction(1)])
    assert reference.theta2(z, q, [Fraction(1)] * 2) == -one * one


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_names_match_the_cli(n, tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    from bethelab import cli

    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", "all", "--n", str(n), "--seed", "1",
                     "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0
    assert {c["check"] for c in report["checks"]} == \
        reference.verify_all_check_names(n)


def test_benchmark_lists_every_traced_metric():
    import tracing

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.ALL_METRICS)


def test_self_time_is_duration_minus_covered_children():
    import tracing

    # children overlap each other and run past the parent's end
    kids = [(2, "k", 1.0, 3.0), (3, "k", 2.0, 4.0), (4, "k", 9.0, 12.0)]
    assert tracing._covered(kids, 0.0, 10.0) == 4.0


def test_tracer_counts_and_restores_every_binding():
    import passes
    import tracing

    mods = passes.load_bethelab()
    aba = mods["aba"]
    before = {name: dict(vars(m)) for name, m in mods.items()}
    mul = mods["field"].Scalar.__mul__
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        with tracer.root():
            rat = mods["field"].RAT
            params = aba.ModelParams(2, rat(5, 2), [rat(3), rat(7, 5)])
            aba.bethe_vector(params)
    finally:
        tracer.uninstall()
    assert {name: dict(vars(m)) for name, m in mods.items()} == before
    assert mods["field"].Scalar.__mul__ is mul
    layers = tracer.metrics()
    assert layers["field.scalar_mul_count"] > 0
    # B(w_1) B(w_2) needs R(w_k / (q w_j)) for the 3 distinct ratios
    assert layers["rmatrix.table_builds"] == 3
    assert layers["aba.monodromy_apply_s"] > 0


def test_reference_seconds_divide_out_the_calibration():
    import calibrate

    ref = calibrate.REFERENCE_S
    assert calibrate.reference_s(3.0, [ref, ref]) == pytest.approx(3.0)
    # half speed: rounds take twice as long, so a time counts half
    assert calibrate.reference_s(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)


def test_verify_judge_leaves_out_only_the_unjudged_check(tmp_path):
    import passes

    sys.path.insert(0, str(HERE.parent / "src"))
    from bethelab import cli

    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", "all", "--n", str(passes.VERIFY_N),
                     "--seed", "1", "--out", str(out)])
    report = json.loads(out.read_text())

    def wrong(code, report):
        return [name for name, ok in passes.VerifyAll.judge(code, report)
                if not ok()]

    assert code == 0 and wrong(code, report) == []
    assert len(passes.VerifyAll.judge(code, report)) == passes.VERIFY_CHECKS
    checks = {c["check"]: c for c in report["checks"]}
    report["pass"] = False
    for name in passes.UNJUDGED_CHECKS:
        checks[name]["pass"] = False
    assert wrong(1, report) == []
    checks["detform.partition_sum_rule"]["pass"] = False
    assert wrong(1, report) == ["detform.partition_sum_rule"]
    assert wrong(0, report) == ["exit_code_and_pass_match_checks",
                                "detform.partition_sum_rule"]
