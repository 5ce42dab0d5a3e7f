import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bethelab
from bethelab.cli import draw_w, draw_z, genpoly_str, main
from bethelab.field import RAT, LaurentPoly


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("args, name", [
    (["verify", "--suite", "all", "--n", "4", "--seed", "1"],
     "verify_all_n4_seed1.txt"),
    (["vector", "--n", "3", "--seed", "3"], "vector_n3_seed3.txt"),
    (["singlet", "--n", "4"], "singlet_n4.txt"),
    (["verify", "--suite", "all", "--n", "5", "--seed", "2"],
     "verify_all_n5_seed2.txt"),
])
def test_output_matches_golden_file(args, name, capsys):
    """A refactor keeps every report byte for byte: the files were written
    by these same commands and hold only exact values, no timings."""
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_verify_asm_n3(capsys):
    code, out = run_cli(["verify", "--suite", "asm", "--n", "3"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["pass"] is True
    by_name = {r["check"]: r for r in body["checks"]}
    assert by_name["asm.gen_poly"]["value"] == "6+t"
    assert by_name["asm.counts_match_independent_generator"]["value"] == 7


def test_verify_aba_n1_vector_record(capsys):
    code, out = run_cli(["verify", "--suite", "aba", "--n", "1",
                         "--q", "2/1", "--w", "1/1"], capsys)
    assert code == 0
    body = json.loads(out)
    rec = {r["check"]: r for r in body["checks"]}["aba.bethe_vector_components"]
    assert rec["pass"] is True
    assert rec["value"]["components"][0]["state"] == "0"
    assert rec["value"]["components"][0]["value"]["b"] == "1/1"


def test_verify_all_small(capsys):
    code, out = run_cli(["verify", "--suite", "all", "--n", "2",
                         "--seed", "5"], capsys)
    assert code == 0
    body = json.loads(out)
    names = [r["check"] for r in body["checks"]]
    assert names == sorted(names)
    assert any(n.startswith("rmatrix.ybe") for n in names)
    assert any(n.startswith("spinchain.") for n in names)


def test_invalid_size_exits_2(capsys):
    code, _ = run_cli(["verify", "--suite", "all", "--n", "0"], capsys)
    assert code == 2
    code, _ = run_cli(["verify", "--suite", "all", "--n", "99"], capsys)
    assert code == 2


def test_bad_rational_exits_2(capsys):
    code, _ = run_cli(["vector", "--n", "1", "--q", "zebra"], capsys)
    assert code == 2


def assert_empty_value_exits_2(argv, capsys):
    """An empty value (an unset shell variable) is a bad rational, never
    a cue to draw the parameter from the seed."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: bad rational ''\n"


def test_empty_q_is_a_config_error(capsys):
    assert_empty_value_exits_2(["vector", "--n", "2", "--q=", "--seed", "3"],
                               capsys)


@pytest.mark.parametrize("command", ["vector", "verify"])
def test_empty_w_is_a_config_error(command, capsys):
    assert_empty_value_exits_2([command, "--n", "2", "--w=", "--seed", "3"],
                               capsys)


def test_empty_zeta_is_a_config_error(capsys):
    assert_empty_value_exits_2(["ikdet", "--n", "2", "--zeta=", "--seed", "3"],
                               capsys)


def test_negative_rationals_take_the_equals_form(capsys):
    """argparse reads "-2/1" after a space as a flag; --q=-2/1 is a value."""
    assert main(["vector", "--n", "2", "--q", "-2/1"]) == 2
    assert ("argument --q: expected one argument"
            in capsys.readouterr().err)
    code, out = run_cli(["verify", "--n", "3", "--q=-2/1",
                         "--w=-1/1,3/2,5/7"], capsys)
    body = json.loads(out)
    assert code == 0 and body["pass"] is True and len(body["checks"]) == 39
    assert body["checks"][0]["params"]["q"] == "-2/1"


def test_seed_determinism(capsys):
    _, out1 = run_cli(["verify", "--suite", "detform", "--n", "2",
                       "--seed", "11"], capsys)
    _, out2 = run_cli(["verify", "--suite", "detform", "--n", "2",
                       "--seed", "11"], capsys)
    assert out1 == out2
    _, out3 = run_cli(["verify", "--suite", "detform", "--n", "2",
                       "--seed", "12"], capsys)
    assert out1 != out3


def test_vector_dump(capsys):
    code, out = run_cli(["vector", "--n", "1", "--q", "2/1", "--w", "1/1"],
                        capsys)
    assert code == 0
    body = json.loads(out)
    assert body == {"n": 1, "q": "2/1", "w": ["1/1"], "twist": "pi",
                    "components": [{"state": "0",
                                    "value": {"a": "0/1", "b": "1/1",
                                              "c": "0/1", "e": "0/1",
                                              "d": "45/8"}}]}


def test_singlet_dump(capsys):
    code, out = run_cli(["singlet", "--n", "3"], capsys)
    assert code == 0
    body = json.loads(out)
    comps = {c["state"]: c["value"] for c in body["components"]}
    assert comps["000"] == {"var": "x", "coeffs": ["0", "1"]}
    assert comps["U0D"] == {"var": "x", "coeffs": ["1"]}


def test_seed_only_where_parameters_are_drawn(capsys):
    for args in (["asm", "count", "--n", "3", "--seed", "5"],
                 ["singlet", "--n", "2", "--seed", "1"]):
        assert main(args) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
    for args in (["vector", "--n", "2", "--seed", "1"],
                 ["ikdet", "--n", "2", "--seed", "1"]):
        assert main(args) == 0
        capsys.readouterr()


def test_ikdet_record(capsys):
    code, out = run_cli(["ikdet", "--n", "3", "--seed", "3"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["match"] is True
    assert set(body) == {"Z_IK", "Z_direct", "match"}
    assert body["Z_IK"] == body["Z_direct"]


def test_asm_count_and_genpoly(capsys):
    code, out = run_cli(["asm", "count", "--n", "4"], capsys)
    assert code == 0
    assert out == '{\n  "count": 42,\n  "n": 4\n}\n'
    code, out = run_cli(["asm", "genpoly", "--n", "4"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["coeffs"] == [24, 16, 2]
    assert body["poly"] == "24+16t+2t^2"


def test_genpoly_text_form():
    assert genpoly_str(LaurentPoly(0, [1])) == "1"
    assert genpoly_str(LaurentPoly(0, [6, 1])) == "6+t"
    assert genpoly_str(LaurentPoly(0, [2, 0, 1])) == "2+t^2"  # 0 t skipped
    assert genpoly_str(LaurentPoly(0, [24, 16, 2])) == "24+16t+2t^2"
    assert genpoly_str(LaurentPoly(0, [])) == "0"


def test_csv_format(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, _ = run_cli(["verify", "--suite", "asm", "--n", "2",
                       "--format", "csv", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "check,params,pass,elapsed_ms"
    assert all(",true," in ln or ",false," in ln for ln in lines[1:])


def test_out_file_and_no_emit_alias(capsys, tmp_path):
    path = tmp_path / "phi.json"
    code, _ = run_cli(["singlet", "--n", "2", "--out", str(path)], capsys)
    assert code == 0
    body = json.loads(path.read_text())
    assert body["n"] == 2
    assert main(["singlet", "--n", "2", "--emit", str(path)]) == 2
    assert "unrecognized arguments: --emit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "asm", "--n", "3"],
    ["asm", "count", "--n", "3"],
])
def test_unwritable_out_path_is_a_config_error(argv, capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    assert main(argv + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: cannot write {path}: "
                            "No such file or directory\n")


@pytest.mark.parametrize("command", ["verify", "vector", "ikdet"])
def test_zero_q_is_a_config_error(command, capsys):
    """q = 0 and q^4 = 1 are refused once, by ModelParams through
    `field.session_constant`; the w drawn before it divides by nothing."""
    for q in ("0", "1/1", "-1/1"):
        assert main([command, "--n", "2", f"--q={q}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: q must satisfy q != 0 and "
                                "q^4 != 1\n")


def _old_draw_w(rng, n, q):
    """`draw_w` as it was, comparing quotients a / b with q^{+-1,+-2}."""
    while True:
        w = [draw_z(rng) for _ in range(n)]
        ok = len(set(w)) == n
        if ok:
            for a in w:
                for b in w:
                    if a is not b and a / b in (q, 1 / q, q * q, 1 / (q * q)):
                        ok = False
        if ok:
            return tuple(w)


class _SmallDraws(random.Random):
    """Numerators and denominators in 1..4, so that w often meets a
    lattice."""

    def randint(self, a, b):
        return super().randint(1, 4)


def test_draw_w_matches_the_division_form():
    """The product test accepts what the quotient test accepted: over 200
    seeded draws both return the same w and leave the stream at the same
    point, many of them after a lattice rejection."""
    retried = 0
    for seed in range(200):
        q = (RAT(2), RAT(3, 2), RAT(1, 3), RAT(4, 3))[seed % 4]
        n = 2 + seed % 2
        a, b, first = (_SmallDraws(seed) for _ in range(3))
        w = draw_w(a, n, q)
        assert w == _old_draw_w(b, n, q)
        assert a.getstate() == b.getstate()
        retried += w != tuple(draw_z(first) for _ in range(n))
    assert retried > 50


def test_console_script_entry_point():
    # the child imports the same bethelab as this process
    src = str(Path(bethelab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "bethelab.cli", "asm", "count", "--n", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 3, "count": 7}


def test_env_cap(monkeypatch, capsys):
    monkeypatch.setenv("BETHE_LAB_MAX_N", "2")
    code, _ = run_cli(["verify", "--suite", "asm", "--n", "3"], capsys)
    assert code == 2
    monkeypatch.setenv("BETHE_LAB_MAX_N", "8")
    code, out = run_cli(["asm", "genpoly", "--n", "8"], capsys)
    assert code == 0
    assert sum(json.loads(out)["coeffs"]) == 10850216
    code, out = run_cli(["verify", "--suite", "asm", "--n", "8"], capsys)
    assert code == 0, out
    # unset, the cap is 8: n = 9 is refused before any ASM is counted
    monkeypatch.delenv("BETHE_LAB_MAX_N")
    code, out = run_cli(["asm", "count", "--n", "8"], capsys)
    assert (code, json.loads(out)["count"]) == (0, 10850216)

    def never(n):
        raise AssertionError("gen_poly ran before the size check")

    monkeypatch.setattr(bethelab.asm, "gen_poly", never)
    assert run_cli(["asm", "count", "--n", "9"], capsys) == (2, "")


def test_bad_env_cap_is_a_config_error(monkeypatch, capsys):
    for value in ("abc", "", "0", "-3", "2.5"):
        monkeypatch.setenv("BETHE_LAB_MAX_N", value)
        assert main(["asm", "count", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: BETHE_LAB_MAX_N must be a positive "
                       f"integer, not {value!r}\n")


def test_format_is_a_verify_flag(capsys):
    for argv in (["vector", "--n", "2", "--seed", "1"], ["singlet", "--n", "2"],
                 ["ikdet", "--n", "2"], ["asm", "count", "--n", "3"]):
        for fmt in ("csv", "text"):
            code, out = run_cli(argv + ["--format", fmt], capsys)
            assert (code, out) == (2, ""), argv


def test_detform_draws_avoid_pole_lattice(capsys):
    # at these seeds zeta or the second w used to land on q w or w / q
    for seed in ("520050772", "564280344"):
        code, out = run_cli(["verify", "--suite", "all", "--n", "4",
                             "--seed", seed], capsys)
        assert code == 0, out
        assert json.loads(out)["pass"] is True


def test_failed_check_records_elapsed_time(monkeypatch):
    import time

    from bethelab import cli

    def slow_failure():
        time.sleep(0.02)
        raise ArithmeticError("boom")

    monkeypatch.setitem(cli.SUITES, "asm",
                        lambda params, rng: [("asm.slow", {}, slow_failure)])
    params, rng = cli.resolve_params(cli.build_parser().parse_args(
        ["verify", "--suite", "asm", "--n", "2"]))
    (rec,) = cli.run_suite("asm", params, rng)
    assert rec["pass"] is False
    assert rec["error"] == "ArithmeticError('boom')"
    assert rec["elapsed_ms"] >= 20.0


ZERO_FA_FB = [
    # fb(zeta_1 / w_1) = [q w_1 / zeta_1] = [1]: Z is the c-weight [q^2]
    (["--n", "1", "--w", "1/1", "--zeta", "2/1"], "15/4"),
    # zeta_1 = w_1 / q, so fa(zeta_1 / w_1) = [1]: Z = [q^2]^2 ([1/3][10]
    # + [4][6/5]) over the two DWBC configurations, summed by hand
    (["--n", "2", "--w", "1/1,3/1", "--zeta", "1/2,5/1"], "-45045/128"),
]


@pytest.mark.parametrize("argv, z_ik", ZERO_FA_FB, ids=["n1", "n2"])
def test_ikdet_determinant_where_fa_or_fb_vanishes(argv, z_ik, capsys):
    """The determinant formula, with each row scaled by its fa fb, divides
    only by [zeta_j/zeta_k][w_k/w_j], so a vanishing fa or fb is no pole
    and the ASM sum agrees with it."""
    code, out = run_cli(["ikdet", "--q", "2/1"] + argv, capsys)
    assert code == 0
    body = json.loads(out)
    assert body["match"] is True and body["Z_IK"]["a"] == z_ik


@pytest.mark.parametrize("argv, z_ik", ZERO_FA_FB, ids=["n1", "n2"])
def test_ikdet_match_compares_two_routes(argv, z_ik, monkeypatch, capsys):
    """A wrong ASM sum, planted at every binding, is caught: Z_IK comes
    from the determinant, not from the ASM sum that gives Z_direct."""
    from bethelab import asm, detform

    brute = asm.dwbc_partition_brute
    for mod in (asm, detform):
        monkeypatch.setattr(mod, "dwbc_partition_brute",
                            lambda zeta, w, q: brute(zeta, w, q) + 1)
    code, out = run_cli(["ikdet", "--q", "2/1"] + argv, capsys)
    body = json.loads(out)
    assert code == 0 and body["Z_IK"]["a"] == z_ik
    assert body["match"] is False


def test_verify_simple_component_at_a_zero_divisor(capsys):
    """w_1 = q w_2 puts a zero fb in Z_IK(w_1; w_2), yet the renormalised
    vector and its simple component exist."""
    code, out = run_cli(["verify", "--suite", "detform", "--n", "2",
                         "--q", "2/1", "--w", "2/1,1/1"], capsys)
    rec = {r["check"]: r for r in json.loads(out)["checks"]}
    assert rec["detform.simple_component_even"]["pass"] is True
    assert "error" not in rec["detform.simple_component_even"]


def test_verify_all_on_the_singular_lattice(capsys):
    """w_1 = q w_2: the cleared Bethe equations hold, and only the checks
    that renormalise at w with a zero divisor [q w_a / w_b] fail."""
    code, out = run_cli(["verify", "--suite", "all", "--n", "2",
                         "--q", "2/1", "--w", "2/1,1/1"], capsys)
    assert code == 1
    rec = {r["check"]: r for r in json.loads(out)["checks"]}
    assert rec["aba.bethe_residuals_zero"]["pass"] is True
    failed = {name: r["error"] for name, r in rec.items() if not r["pass"]}
    assert sorted(failed) == ["aba.cyclic_shift", "aba.exchange_1",
                              "detform.partition_sum_rule"]
    assert all(e.startswith("RedundantFactorZero(") for e in failed.values())


@pytest.mark.parametrize("zeta, message", [
    # Z_IK's zero divisor sends ikdet to the ASM sum, whose [q zeta_k / w_j]
    # is a bracket of zero
    ("0/1,2/1", "bracket of zero spectral parameter"),
    ("2/1,0/1", "bracket of zero spectral parameter"),
])
def test_zero_spectral_parameter_exits_3(zeta, message, capsys):
    code = main(["ikdet", "--n", "2", "--seed", "1", "--zeta", zeta])
    assert code == 3
    assert capsys.readouterr().err == f"singular input: {message}\n"


def test_internal_failure_exits_4(monkeypatch, capsys):
    from bethelab import cli

    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_vector", broken)
    code = main(["vector", "--n", "1", "--q", "2/1", "--w", "1/1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" in err and "KeyError: 'internal'" in err


def _irrational_read_out():
    """The rational numerators of s |U>, a vector of grade 1."""
    from bethelab.aba import ModelParams, basis_vector
    from bethelab.field import RAT

    p = ModelParams(1, RAT(2), [RAT(1)])
    return basis_vector(p, (0,)).scale(p.s).rational()


def test_irrational_component_exits_4(monkeypatch, capsys):
    """A bug guard that trips is exit 4 with the traceback, never a config
    error (2) or a singular input (3)."""
    from bethelab import cli

    monkeypatch.setattr(cli, "cmd_vector", lambda args: _irrational_read_out())
    code = main(["vector", "--n", "1", "--q", "2/1", "--w", "1/1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" in err and "IrrationalComponent" in err


def test_bare_zero_division_exits_4(monkeypatch, capsys):
    """Exit 3 is PoleEncountered alone: a ZeroDivisionError that no zero
    divisor of the model names is a bug."""
    from bethelab import cli

    monkeypatch.setattr(cli, "cmd_vector", lambda args: 1 // 0)
    code = main(["vector", "--n", "1", "--q", "2/1", "--w", "1/1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" in err and "ZeroDivisionError" in err


def test_irrational_component_in_a_check_fails_that_check(monkeypatch):
    from bethelab import cli

    monkeypatch.setitem(cli.SUITES, "asm", lambda params, rng: [
        ("asm.irrational", {}, _irrational_read_out),
        ("asm.fine", {}, lambda: True)])
    params, rng = cli.resolve_params(cli.build_parser().parse_args(
        ["verify", "--suite", "asm", "--n", "2"]))
    fine, irrational = cli.run_suite("asm", params, rng)  # sorted by name
    assert irrational["check"] == "asm.irrational"
    assert irrational["pass"] is False
    assert irrational["error"].startswith("IrrationalComponent(")
    assert fine["pass"] is True


def test_size_beyond_cap_fails_before_work(monkeypatch, capsys):
    from bethelab import spinchain

    def never(n):
        raise AssertionError("singlet built before the size check")

    monkeypatch.setenv("BETHE_LAB_MAX_N", "5")
    monkeypatch.setattr(spinchain, "singlet", never)
    code, _ = run_cli(["verify", "--suite", "spinchain", "--n", "6"], capsys)
    assert code == 2


def test_verify_all_enumerates_no_asms(monkeypatch, capsys):
    # the bijection is checked on row transitions, not ASM by ASM
    from bethelab import asm

    def refuse(n):
        raise AssertionError("verify enumerated the ASMs")

    monkeypatch.setattr(asm, "generate_asms", refuse)
    code, out = run_cli(["verify", "--suite", "all", "--n", "4"], capsys)
    assert code == 0, out


def test_suites_leave_their_work_to_the_timed_checks(monkeypatch):
    # building the check list computes nothing that a check's elapsed_ms
    # would leave out; only the seeded draws happen up front
    from bethelab import aba, asm, cli, spinchain

    def refuse(*args):
        raise RuntimeError("built before any check was timed")

    for mod, name in ((aba, "bethe_vector"), (asm, "gen_poly"),
                      (asm, "bijection_by_rows"), (spinchain, "singlet"),
                      (spinchain, "singlet_norm"),
                      (spinchain, "singlet_normalisation_audit"),
                      (spinchain, "transfer1_zero_kernel_dimension")):
        monkeypatch.setattr(mod, name, refuse)
    for n in ("1", "3"):
        params, rng = cli.resolve_params(cli.build_parser().parse_args(
            ["verify", "--suite", "all", "--n", n]))
        for suite, build in cli.SUITES.items():
            assert build(params, rng), suite
    # the work fails inside the checks, each recording its own failure
    records = cli.run_suite("asm", params, rng)
    assert len(records) == 4
    assert all("built before" in rec["error"] for rec in records)
