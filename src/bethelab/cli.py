"""Batch verification front end.

Subcommands:

    verify   --suite {rmatrix,aba,detform,asm,spinchain,all} [--n --q --w --seed]
    vector   --n [--q --w --seed] dump the Bethe vector as JSON
    singlet  --n                  dump the homogeneous singlet components
    ikdet    --n [--q --w --seed --zeta]  determinant vs. brute partition sum
    asm      {count,genpoly} --n  ASM counts

Rationals are written p/r on the command line (e.g. --q 5/2,
--w 1/1,3/2,7/3); a negative one needs the = form, --q=-2/1, or argparse
reads it as a flag.  Random parameters are drawn with numerators and
denominators uniform in [1, 97], retried until they avoid the excluded
sets (q^4 = 1, coincident w, the singular lattices w_j = q^{+-1,+-2} w_k,
and for the determinant checks the pole lattices zeta = q^{-1,0,1} w).
With a fixed seed and configuration the JSON output is byte-identical
across runs; checks always appear sorted by name.  Exit codes: 0 all
checks pass, 1 at least one failed (in `verify` any exception a check
raises, a pole or an internal error such as IrrationalComponent, fails
that check, its repr under "error"), 2 configuration error (a size
beyond the cap, an --out path that cannot be written); outside a check
(parameter setup, the dump commands) 3 singular input (PoleEncountered:
a pole at the requested parameters), 4 internal failure (traceback to
stderr), a bare ZeroDivisionError included.
The environment variable BETHE_LAB_MAX_N, a positive integer (default
8), is the one cap on --n, checked before any work starts.
`verify` writes its report as JSON, CSV or text (--format); the other
subcommands always write JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from functools import cache

from bethelab import aba, asm, detform, field, linalg, spinchain
from bethelab.field import RAT, PoleEncountered, rat_str, session_constant
from bethelab.rmatrix import (
    check_fusion_r22,
    check_ybe,
    crossing_transpose_check,
    inversion_check,
    magnetisation_pattern_check,
    permutation_check,
    rank_one_check,
)


class ConfigError(ValueError):
    pass


# -- seeded rational draws ----------------------------------------------


def draw_z(rng: random.Random) -> RAT:
    return RAT(rng.randint(1, 97), rng.randint(1, 97))


def draw_q(rng: random.Random) -> RAT:
    """q that `field.session_constant` accepts: q^4 != 1."""
    while True:
        q = draw_z(rng)
        try:
            session_constant(q)
        except ValueError:
            continue
        return q


def draw_w(rng: random.Random, n: int, q: RAT):
    """Pairwise distinct w avoiding the singular lattices q^{+-1,+-2} w_k,
    tested by products over ordered pairs: the draw divides by nothing."""
    while True:
        w = [draw_z(rng) for _ in range(n)]
        ok = len(set(w)) == n
        if ok:
            for a in w:
                for b in w:
                    if a is not b and (a == q * b or a == q * q * b):
                        ok = False
        if ok:
            return tuple(w)


def _pole_lattice(xs, q):
    """x, q x and x / q up to sign for every x in xs: the points where the
    determinant formulas divide by zero."""
    return {s * f * x for x in xs for f in (1, q, 1 / q) for s in (1, -1)}


def draw_distinct(rng: random.Random, n: int, avoid=()):
    avoid = set(avoid)
    out = []
    while len(out) < n:
        z = draw_z(rng)
        if z not in avoid and z not in out:
            out.append(z)
    return tuple(out)


# -- config parsing -------------------------------------------------------


def parse_rat(text: str) -> RAT:
    try:
        return RAT(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}") from exc


def parse_w_list(text: str):
    return tuple(parse_rat(t) for t in text.split(","))


def max_n_cap() -> int:
    text = os.environ.get("BETHE_LAB_MAX_N", "8")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ConfigError(f"BETHE_LAB_MAX_N must be a positive integer, "
                          f"not {text!r}")
    return int(text)


def check_n(n) -> int:
    """--n as given, once it lies in [1, max_n_cap()]."""
    cap = max_n_cap()
    if n is None or n < 1:
        raise ConfigError("--n must be a positive integer")
    if n > cap:
        raise ConfigError(f"--n exceeds the cap {cap}")
    return n


def resolve_params(args):
    """Build ModelParams from flags, drawing anything missing from the seed."""
    n = check_n(args.n)
    rng = random.Random(args.seed)
    q = parse_rat(args.q) if args.q is not None else draw_q(rng)
    if args.w is not None:
        w = parse_w_list(args.w)
        if len(w) != n:
            raise ConfigError("--w must list exactly n rationals")
    else:
        w = draw_w(rng, n, q)
    try:
        return aba.ModelParams(n, q, w), rng
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- check registry -------------------------------------------------------


def _record(name, params, passed, **extra):
    return {"check": name, "params": params, "pass": bool(passed), **extra}


def checks_rmatrix(params, rng):
    q = params.q
    out = []
    z, w = draw_z(rng), draw_z(rng)
    for m in (1, 2):
        for n_ in (1, 2):
            for p_ in (1, 2):
                name = f"rmatrix.ybe_{m}{n_}{p_}"
                out.append((name, {"q": rat_str(q), "z": rat_str(z),
                                   "w": rat_str(w)},
                            lambda m=m, n_=n_, p_=p_, z=z, w=w:
                            check_ybe(m, n_, p_, z, w, q)))
    zr = draw_z(rng)
    out.append(("rmatrix.permutation_point", {"q": rat_str(q)},
                lambda: permutation_check(q)))
    out.append(("rmatrix.rank_one_point", {"q": rat_str(q)},
                lambda: rank_one_check(q)))
    out.append(("rmatrix.inversion", {"q": rat_str(q), "z": rat_str(zr)},
                lambda: inversion_check(zr, q)))
    out.append(("rmatrix.crossing", {"q": rat_str(q), "z": rat_str(zr)},
                lambda: crossing_transpose_check(zr, q)))
    out.append(("rmatrix.fusion_block", {"q": rat_str(q), "z": rat_str(zr)},
                lambda: check_fusion_r22(zr, q)))
    out.append(("rmatrix.magnetisation_pattern",
                {"q": rat_str(q), "z": rat_str(zr)},
                lambda: magnetisation_pattern_check(zr, q)))
    return out


def checks_aba(params, rng):
    out = []
    ps = params.to_json_dict()
    zs = [draw_z(rng) for _ in range(3)]

    def eigen_t2():
        psi = aba.bethe_vector(params)
        return all(aba.transfer2_apply(z, params, psi)
                   == psi.scale(aba.theta2(z, params)) for z in zs)

    def eigen_t1():
        psi = aba.bethe_vector(params)
        return all(aba.transfer1_apply(z, params, psi).is_zero() for z in zs)

    def residuals():
        res = aba.bethe_equations_residual(params.w, params)
        return all(r.is_zero() for r in res)

    out.append(("aba.transfer2_eigenvalue", ps, eigen_t2))
    out.append(("aba.transfer1_annihilates", ps, eigen_t1))
    out.append(("aba.bethe_residuals_zero", ps, residuals))
    out.append(("aba.cyclic_shift", ps, lambda: aba.cyclic_check(params)))
    for j in range(1, params.n):
        out.append((f"aba.exchange_{j}", ps,
                    lambda j=j: aba.exchange_check(j, params)))
    if params.n >= 3:
        out.append(("aba.recurrence", ps,
                    lambda: aba.recurrence_check(params)))
    for j in range(1, params.n + 1):
        out.append((f"aba.scattering_{j}", ps,
                    lambda j=j: aba.scattering_check(j, params)))
    if params.n == 1:
        out.append(("aba.bethe_vector_components", ps,
                    lambda: (aba.bethe_vector(params).entries
                             == {(1,): params.s},
                             {"value": aba.bethe_vector(params)
                              .to_json_dict(params)})))
    return out


def checks_detform(params, rng):
    out = []
    ps = params.to_json_dict()
    zeta = draw_distinct(rng, params.n,
                         avoid=_pole_lattice(params.w, params.q))
    slavnov = cache(lambda: detform.slavnov(params.w, zeta, params))

    out.append(("detform.slavnov_vs_operator_oracle",
                dict(ps, zeta=[rat_str(z) for z in zeta]),
                lambda: slavnov()
                == detform.brute_scalar_product(params.w, zeta, params)))
    out.append(("detform.slavnov_reduction_to_ik",
                dict(ps, zeta=[rat_str(z) for z in zeta]),
                lambda: slavnov()
                == detform.scalar_product_reduction_rhs(zeta, params)))
    wb = draw_distinct(rng, params.n, avoid=_pole_lattice(zeta, params.q))
    out.append(("detform.ik_vs_brute",
                {"zeta": [rat_str(z) for z in zeta],
                 "w": [rat_str(x) for x in wb], "q": ps["q"]},
                lambda: detform.ik_determinant(zeta, wb, params)
                == asm.dwbc_partition_brute(zeta, wb, params.q)))
    out.append(("detform.partition_sum_rule", ps,
                lambda: detform.partition_Z(params)
                == detform.partition_Z_via_ik(params)))
    name = ("detform.simple_component_even" if params.n % 2 == 0
            else "detform.simple_component_odd")
    fn = (detform.simple_component_even if params.n % 2 == 0
          else detform.simple_component_odd)
    out.append((name, ps,
                lambda: fn(params) == detform.simple_component_direct(params)))
    return out


def checks_asm(params, rng):
    n = params.n
    poly = cache(lambda: asm.gen_poly(n))
    bijection = cache(lambda: asm.bijection_by_rows(n))

    return [
        ("asm.counts_match_independent_generator", {"n": n},
         lambda: (sum(poly().coeffs) == asm.count_asms_by_columns(n),
                  {"value": sum(poly().coeffs)})),
        ("asm.gen_poly", {"n": n},
         lambda: (poly().top() <= ((n - 1) ** 2) // 4,
                  {"value": genpoly_str(poly())})),
        ("asm.bijection_roundtrip", {"n": n}, lambda: bijection()[0]),
        ("asm.vertex_count_audit", {"n": n}, lambda: bijection()[1]),
    ]


def checks_spinchain(params, rng):
    n = params.n
    q = params.q
    out = []
    ps = {"n": n, "q": rat_str(q)}

    def sum_rule():
        norm = spinchain.singlet_norm(spinchain.singlet(n))
        want = field.spread(asm.gen_poly(n).coeffs, 2)  # A_n(x^2) in x
        return list(norm.x_coeffs()) == want, {"value": norm.to_json_dict()}

    def audit():
        report = spinchain.singlet_normalisation_audit(spinchain.singlet(n))
        return report["pass"], {"value": report}

    def translation():
        phi = spinchain.singlet(n)
        return spinchain.twisted_translation_apply(phi).entries == {
            k: p if n % 2 else -p for k, p in phi.entries.items()}

    def probe():
        dim = spinchain.transfer1_zero_kernel_dimension(n, q)
        warn = "zero eigenspace not one-dimensional at this q"
        return True, {"value": dim, **({"warning": warn} if dim != 1 else {})}

    if n >= 2:
        out.append(("spinchain.hamiltonian_annihilates_singlet", ps,
                    lambda: spinchain.hamiltonian_apply_poly(
                        spinchain.singlet(n)).is_zero()))
        out.append(("spinchain.twisted_translation_eigenvector", ps,
                    translation))
        out.append(("spinchain.sum_rule_norm_equals_genpoly", ps, sum_rule))
        out.append(("spinchain.normalisation_audit", ps, audit))
    out.append(("spinchain.homogeneous_consistency", ps,
                lambda: spinchain.homogeneous_consistency_check(n, q)))
    if 2 <= n <= 3:
        out.append(("spinchain.uniqueness_probe_logged", ps, probe))
    return out


SUITES = {
    "rmatrix": checks_rmatrix,
    "aba": checks_aba,
    "detform": checks_detform,
    "asm": checks_asm,
    "spinchain": checks_spinchain,
}


def run_suite(suite: str, params, rng):
    names = list(SUITES) if suite == "all" else [suite]
    specs = []
    for nm in names:
        specs.extend(SUITES[nm](params, rng))
    records = []
    for name, ps, fn in specs:
        fields = {}
        t0 = time.perf_counter()
        try:
            passed = fn()
            if isinstance(passed, tuple):  # (verdict, extra record fields)
                passed, fields = passed
        except Exception as exc:  # a failing identity is a failed check
            passed = False
            fields["error"] = repr(exc)
        fields["elapsed_ms"] = (time.perf_counter() - t0) * 1000.0
        records.append(_record(name, ps, passed, **fields))
    records.sort(key=lambda r: r["check"])
    return records


# -- output ---------------------------------------------------------------


def genpoly_str(poly) -> str:
    """A_n(t) as text, e.g. "6+t" for n = 3: the nonzero terms, lowest
    first, a coefficient 1 left out before t; "0" for no terms."""
    terms = []
    for k, c in enumerate(poly.coeffs, poly.low):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            var = "t" if k == 1 else f"t^{k}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms) or "0"


def emit(records_or_obj, fmt: str, out_path):
    """Write a list of check records in fmt, or a dump's object as JSON."""
    if fmt == "json":
        if isinstance(records_or_obj, list):
            body = {"checks": [{k: v for k, v in r.items()
                                if k != "elapsed_ms"}
                               for r in records_or_obj],
                    "pass": all(r["pass"] for r in records_or_obj)}
        else:
            body = records_or_obj
        text = json.dumps(body, sort_keys=True, indent=2, default=str) + "\n"
    elif fmt == "csv":
        lines = ["check,params,pass,elapsed_ms"]
        for r in records_or_obj:
            ps = json.dumps(r["params"], sort_keys=True, default=str)
            ps = '"' + ps.replace('"', '""') + '"'
            lines.append(f"{r['check']},{ps},{str(r['pass']).lower()},"
                         f"{r.get('elapsed_ms', 0):.1f}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'PASS' if r['pass'] else 'FAIL'} {r['check']} {r['params']}"
                 for r in records_or_obj]
        text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(
                f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# -- subcommands ----------------------------------------------------------


def cmd_verify(args) -> int:
    params, rng = resolve_params(args)
    records = run_suite(args.suite, params, rng)
    emit(records, args.format, args.out)
    return 0 if all(r["pass"] for r in records) else 1


def cmd_vector(args) -> int:
    params, _ = resolve_params(args)
    vec = aba.bethe_vector(params)
    emit(vec.to_json_dict(params), "json", args.out)
    return 0


def cmd_singlet(args) -> int:
    n = check_n(args.n)
    phi = spinchain.singlet(n)
    comps = [{"state": linalg.state_str(k), "value": v.to_json_dict()}
             for k, v in sorted(phi.entries.items())]
    emit({"n": n, "components": comps}, "json", args.out)
    return 0


def cmd_ikdet(args) -> int:
    params, rng = resolve_params(args)
    zeta = (parse_w_list(args.zeta) if args.zeta is not None
            else draw_distinct(rng, params.n,
                               avoid=_pole_lattice(params.w, params.q)))
    if len(zeta) != params.n:
        raise ConfigError("--zeta must list exactly n rationals")
    z_ik = detform.ik_or_asm_sum(zeta, params.w, params)
    z_direct = asm.dwbc_partition_brute(zeta, params.w, params.q)
    emit({"Z_IK": params.sc(z_ik).to_json_dict(),
          "Z_direct": params.sc(z_direct).to_json_dict(),
          "match": z_ik == z_direct}, "json", args.out)
    return 0


def cmd_asm(args) -> int:
    n = check_n(args.n)
    poly = asm.gen_poly(n)
    emit({"n": n, "count": sum(poly.coeffs)} if args.action == "count"
         else {"n": n, "coeffs": list(poly.coeffs),
               "poly": genpoly_str(poly)},
         "json", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bethelab",
        description="exact finite-size checks for the twisted "
                    "nineteen-vertex model")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, drawn=True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", default=None)
        if drawn:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--q", default=None, help="rational p/r")
            p.add_argument("--w", default=None,
                           help="comma-separated rationals p1/r1,p2/r2,...")

    pv = sub.add_parser("verify", help="run an invariant suite")
    pv.add_argument("--suite", default="all",
                    choices=tuple(SUITES) + ("all",))
    common(pv)
    pv.add_argument("--format", choices=("json", "csv", "text"),
                    default="json")
    pv.set_defaults(fn=cmd_verify)

    pvec = sub.add_parser("vector", help="dump the Bethe vector")
    common(pvec)
    pvec.set_defaults(fn=cmd_vector)

    ps = sub.add_parser("singlet", help="dump the homogeneous singlet")
    common(ps, drawn=False)
    ps.set_defaults(fn=cmd_singlet)

    pik = sub.add_parser("ikdet", help="determinant vs. brute partition sum")
    common(pik)
    pik.add_argument("--zeta", default=None,
                     help="comma-separated rationals for the row parameters")
    pik.set_defaults(fn=cmd_ikdet)

    pa = sub.add_parser("asm", help="alternating sign matrix counts")
    pa.add_argument("action", choices=("count", "genpoly"))
    common(pa, drawn=False)
    pa.set_defaults(fn=cmd_asm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PoleEncountered as exc:
        print(f"singular input: {exc}", file=sys.stderr)
        return 3
    except Exception:  # a bug, never to be reported as the user's input
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
