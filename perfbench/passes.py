"""One pass of a benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/passes.py --workload eigen --seed 3 --pass 0 --trace 0

A pass imports bethelab from the checkout's `src`, builds its inputs from
(workload, seed, pass), stamps the monotonic clock, runs its operations,
then checks every output against perfbench/reference.py or a property the
paper states.  After set-up and after each operation it times the fixed
work of perfbench/calibrate.py, which turns its set-up and operation times
into reference seconds.  It prints one JSON object: the timings, the
calibration rounds, the peak resident memory, the operations attempted and
failed, which checks did not hold, the environment and, with --trace 1, the
per-layer figures and spans.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from calibrate import calibrate, reference_s  # noqa: E402

# Sizes keep a pass to 1-3 s, so that a 30 s run holds 9 to 25 passes and
# each operation is short next to a change of the machine's speed.
EIGEN_N = 5
ASYMPTOTIC_N = 4
SUMRULE_SIZES = (6, 7)
SUMRULE_GENPOLY = 6
CONSISTENCY_N = 6
VERIFY_N = 4


# Draws follow the rules `bethelab verify` uses for random parameters:
# numerators and denominators uniform in [1, 97], q away from q^4 = 1 and
# from values that make Q(s, i) degenerate, w pairwise distinct and off the
# singular lattices w_j = q^(+-1, +-2) w_k.


def _ratio(rng):
    return rng.randint(1, 97), rng.randint(1, 97)


def _is_square(r) -> bool:
    if r < 0:
        return False
    p, q = r.numerator, r.denominator
    return isqrt(p) ** 2 == p and isqrt(q) ** 2 == q


def draw_q(rng):
    while True:
        q = Fraction(*_ratio(rng))
        if q * q == 1:
            continue
        d = reference.bracket(q) * reference.bracket(q * q)
        if not (_is_square(d) or _is_square(-d)):
            return q


def draw_w(rng, n, q):
    bad = {q, 1 / q, q * q, 1 / (q * q)}
    while True:
        w = [Fraction(*_ratio(rng)) for _ in range(n)]
        if len(set(w)) == n and not any(
                a / b in bad for a in w for b in w if a is not b):
            return w


def load_bethelab():
    """Import bethelab from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bethelab" / "__init__.py").is_file():
        raise SystemExit(f"no bethelab sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"bethelab.{name}")
            for name in ("field", "linalg", "rmatrix", "aba", "detform",
                         "asm", "spinchain", "cli")}
    if Path(mods["field"].__file__).resolve().parent != src / "bethelab":
        raise SystemExit("bethelab was not imported from the checkout")
    return mods


class Pass:
    """Operations are (name, run) pairs; run() is timed and returns the
    list of (check name, thunk) that judge its output after timing."""

    def __init__(self, mods, rng):
        self.m = mods
        self.rng = rng
        self.rat = mods["field"].RAT

    def rat_of(self, fr):
        """The program's rational type for a Fraction."""
        return self.rat(fr.numerator, fr.denominator)


class Eigen(Pass):
    def build(self):
        aba = self.m["aba"]
        q = draw_q(self.rng)
        w = draw_w(self.rng, EIGEN_N, q)
        self.q, self.w = q, w
        self.zs = [Fraction(*_ratio(self.rng)) for _ in range(2)]
        self.params = aba.ModelParams(EIGEN_N, self.rat_of(q),
                                      [self.rat_of(x) for x in w])
        self.small = aba.ModelParams(ASYMPTOTIC_N, self.rat_of(q),
                                     [self.rat_of(x) for x in w[:ASYMPTOTIC_N]])

    def operations(self):
        aba, p, n = self.m["aba"], self.params, EIGEN_N
        state = {}

        def vector():
            psi = state["psi"] = aba.bethe_vector(p)
            return [("nonzero_magnetisation_0", lambda: psi.entries and all(
                sum(k) == n and len(k) == n for k in psi.entries))]

        def transfer2(z):
            psi = state["psi"]
            out = aba.transfer2_apply(p.sc(self.rat_of(z)), p, psi)
            theta = reference.theta2(z, self.q, self.w)
            return [("eigenvalue",
                     lambda: out == psi.scale(p.sc(self.rat_of(theta))))]

        def transfer1(z):
            out = aba.transfer1_apply(p.sc(self.rat_of(z)), p, state["psi"])
            return [("annihilates", out.is_zero)]

        def residuals():
            res = aba.bethe_equations_residual([p.sc(x) for x in p.w], p)
            return [("zero", lambda: len(res) == n
                     and all(r.is_zero() for r in res))]

        def relation(check, *args):
            ok = check(*args)
            return [("holds", lambda: ok is True)]

        ops = [("bethe_vector", vector)]
        ops += [(f"transfer2_{k}", lambda z=z: transfer2(z))
                for k, z in enumerate(self.zs)]
        ops += [(f"transfer1_{k}", lambda z=z: transfer1(z))
                for k, z in enumerate(self.zs)]
        ops.append(("residuals", residuals))
        ops.append(("cyclic", lambda: relation(aba.cyclic_check, p)))
        ops += [(f"exchange_{j}",
                 lambda j=j: relation(aba.exchange_check, j, p))
                for j in range(1, n)]
        ops.append(("recurrence", lambda: relation(aba.recurrence_check, p)))
        ops += [(f"scattering_{j}",
                 lambda j=j: relation(aba.scattering_check, j, p))
                for j in (1, n)]
        ops += [(f"asymptotic_{d}",
                 lambda d=d: relation(aba.asymptotic_check, 1, d, self.small))
                for d in ("inf", "zero")]
        return ops


class SumRule(Pass):
    def build(self):
        self.q = draw_q(self.rng)

    def operations(self):
        asm, sc = self.m["asm"], self.m["spinchain"]
        phis = {}

        def genpoly():
            g = asm.gen_poly(SUMRULE_GENPOLY)
            return [("is_reference", lambda: list(g.coeffs)
                     == reference.asm_poly(SUMRULE_GENPOLY))]

        def singlet(n):
            phi = phis[n] = sc.singlet(n)
            half = n // 2
            key = (0,) * half + ((1,) if n % 2 else ()) + (2,) * half
            comp = phi.entries.get(key)
            return [("component", lambda: comp is not None
                     and list(comp.coeffs)
                     == reference.in_x_squared(reference.asm_poly(half)))]

        def norm(n):
            got = sc.singlet_norm(phis[n])
            return [("is_reference", lambda: list(got.coeffs)
                     == reference.in_x_squared(reference.asm_poly(n)))]

        def hamiltonian(n):
            return [("annihilates", sc.hamiltonian_apply_poly(phis[n]).is_zero)]

        def translation(n):
            got = sc.twisted_translation_apply(phis[n])
            sign = 1 if n % 2 else -1
            return [("eigenvalue", lambda: got == phis[n].scale(sign))]

        def consistency():
            ok = sc.homogeneous_consistency_check(CONSISTENCY_N,
                                                  self.rat_of(self.q))
            return [("holds", lambda: ok is True)]

        ops = [("gen_poly", genpoly)]
        for n in SUMRULE_SIZES:
            ops += [(f"{step.__name__}_{n}", lambda step=step, n=n: step(n))
                    for step in (singlet, norm, hamiltonian, translation)]
        return ops + [("consistency", consistency)]


# `verify` draws the zeta and w of three detform checks avoiding only
# equality with the model's w or with each other, not the lattices where
# they meet a pole: a zeta at q^(+-1) times a w makes the Slavnov checks
# raise "d(zeta_k) = 0", a zeta/w of q or 1/q makes the Izergin-Korepin
# determinant raise.  That happens for a few CLI seeds in a thousand, such
# as 520050772 and 564280344 at n = 4.  An outcome that depends on the seed
# cannot be compared run for run, so these checks are not judged, and the
# exit code and the report's `pass` are judged against the other checks
# instead of against success.
UNJUDGED_CHECKS = {"detform.slavnov_vs_operator_oracle",
                   "detform.slavnov_reduction_to_ik", "detform.ik_vs_brute"}


class VerifyAll(Pass):
    def build(self):
        out_dir = ROOT / "perfbench" / "out" / "tmp"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out = out_dir / f"verify-{os.getpid()}.json"
        self.argv = ["verify", "--suite", "all", "--n", str(VERIFY_N),
                     "--seed", str(self.rng.randrange(10 ** 9)),
                     "--out", str(self.out)]

    def operations(self):
        cli = self.m["cli"]

        def verify():
            code = cli.main(self.argv)
            try:
                report = json.loads(self.out.read_text())
            finally:
                self.out.unlink(missing_ok=True)
            return self.judge(code, report)

        return [("verify", verify)]

    @staticmethod
    def judge(code, report):
        checks = {c["check"]: c for c in report["checks"]}
        names = reference.verify_all_check_names(VERIFY_N)
        a_n = reference.asm_poly(VERIFY_N)
        all_pass = all(c["pass"] is True for c in report["checks"])
        out = [("exit_code_and_pass_match_checks",
                lambda: code == (0 if all_pass else 1)
                and report["pass"] is all_pass),
               ("check_names", lambda: set(checks) == names
                and len(checks) == len(report["checks"]))]
        out += [(name, lambda name=name: checks.get(name, {}).get("pass")
                 is True) for name in sorted(names - UNJUDGED_CHECKS)]
        out += [
            ("asm_count_is_product_formula",
             lambda: checks["asm.counts_match_independent_generator"]["value"]
             == reference.asm_count(VERIFY_N) == sum(a_n)),
            ("asm_gen_poly_is_reference",
             lambda: reference.parse_genpoly(
                 checks["asm.gen_poly"]["value"]) == a_n),
            ("sum_rule_value_is_reference",
             lambda: _x_coeffs(checks["spinchain.sum_rule_norm_equals_genpoly"]
                               ["value"]) == reference.in_x_squared(a_n)[::2]),
        ]
        return out


def _x_coeffs(value):
    if value.get("var") != "x":
        return None
    return [Fraction(c) for c in value["coeffs"]]


WORKLOADS = {"verify-all": VerifyAll, "eigen": Eigen, "sumrule": SumRule}
# checks the verify operation yields; every other operation yields one
VERIFY_CHECKS = 2 + len(reference.verify_all_check_names(VERIFY_N)
                        - UNJUDGED_CHECKS) + 3


def run_pass(workload, seed, index, trace, setup_only=False):
    mods = load_bethelab()
    rng = random.Random(f"{workload}/{seed}/{index}")
    work = WORKLOADS[workload](mods, rng)
    work.build()
    t_ready = time.monotonic()
    before = calibrate()
    if setup_only:
        return {"t_ready": t_ready, "calibration_s": before}

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(mods)
        tracer.install()
    # operation k runs between calibration rounds gauges[k] and gauges[k+1]
    judged, failed_ops, op_times, gauges = [], [], [], before[-1:]
    t0 = time.perf_counter()
    try:
        with tracer.root() if tracer else contextlib.nullcontext():
            for name, run in work.operations():
                t_op = time.perf_counter()
                try:
                    judged.append((name, run()))
                except Exception:
                    failed_ops.append((name, traceback.format_exc()))
                op_times.append(time.perf_counter() - t_op)
                gauges += calibrate(1)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer:
            tracer.uninstall()
    pass_ref_s = sum(reference_s(t, pair)
                     for t, pair in zip(op_times, zip(gauges, gauges[1:])))

    attempted = failed = 0
    wrong = []
    for name, checks in judged:
        for check, thunk in checks:
            attempted += 1
            try:
                ok = bool(thunk())
            except Exception:
                ok = False
            if not ok:
                wrong.append(f"{name}.{check}")
    # an operation that raised loses every check it would have produced:
    # all of the report's for verify, one for the others
    for _name, _tb in failed_ops:
        lost = VERIFY_CHECKS if workload == "verify-all" else 1
        attempted += lost
        failed += lost

    result = {
        "t_ready": t_ready, "pass_s": sum(op_times), "pass_ref_s": pass_ref_s,
        "calibration_s": before + gauges[1:], "rss_kib": rss_kib,
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "errors": [tb for _name, tb in failed_ops],
        "env": {"python": platform.python_version(),
                "rational_backend": mods["field"].RAT.__module__,
                "cores": os.cpu_count()},
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_records(index, t0)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are built")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.index, args.trace,
                      args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
