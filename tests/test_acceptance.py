"""Acceptance suite: every finite-size identity at its stated tolerance.

All arithmetic is exact, so every tolerance is exact equality; the only
soft quantities are the runtime budgets, which are asserted as stated.
Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.
"""

import itertools
import math
import random
import time

from helpers import (
    degree_width,
    draw_distinct,
    draw_q,
    draw_w,
    draw_z,
    eigenvalue_kernel_dimensions,
    hamiltonian_apply,
    log_derivative_hamiltonian_apply,
    model_sum,
    state_from_str,
)
from laurent_oracle import vector_laurent_coefficients
from scalar_oracle import model

from bethelab import aba, asm, cli, detform, spinchain
from bethelab.aba import ModelParams, StateVector
from bethelab.field import RAT, HalfPowerPoly, brk
from bethelab.rmatrix import (
    check_fusion_r22,
    check_ybe,
    crossing_transpose_check,
    inversion_check,
    permutation_check,
    rank_one_check,
)

SEED = 20140901


def report(num, label):
    print(f"ACCEPTANCE {num:>2} PASS: {label}")


def random_sparse_vector(rng, params, terms=4):
    entries = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, 2) for _ in range(params.n))
        entries[key] = RAT(rng.randint(-9, 9), rng.randint(1, 9))
    return StateVector(params.n, entries)


def test_criterion_01_rmatrix_structure():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 1)
    for _ in range(3):
        q = draw_q(rng)
        z, w = draw_z(rng), draw_z(rng)
        for m, n, p in itertools.product((1, 2), repeat=3):
            assert check_ybe(m, n, p, z, w, q), (m, n, p)
        assert permutation_check(q)
        assert rank_one_check(q)
        assert inversion_check(z, q)
        assert crossing_transpose_check(z, q)
        assert check_fusion_r22(z, q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, f"Yang-Baxter / degeneration / inversion / crossing / fusion "
              f"exact at 3 seeded points ({elapsed:.2f}s)")


def test_criterion_02_simple_eigenvalue():
    rng = random.Random(SEED + 2)
    times = {}
    for n in range(1, 9):
        t0 = time.perf_counter()
        q = draw_q(rng)
        params = ModelParams(n, q, draw_w(rng, n, q))
        psi = aba.bethe_vector(params)
        assert not psi.is_zero()
        for _ in range(3):
            z = params.sc(draw_z(rng))
            assert aba.transfer2_apply(z, params, psi) == \
                psi.scale(aba.theta2(z, params))
            assert aba.transfer1_apply(z, params, psi).is_zero()
        if n <= 5:  # and no other eigenvector, at the last z
            assert eigenvalue_kernel_dimensions(params, z) == (1, 1)
        res = aba.bethe_equations_residual(
            [params.sc(w) for w in params.w], params)
        assert all(r.is_zero() for r in res)
        times[n] = time.perf_counter() - t0
    for n in (7, 8):
        assert times[n] < 30.0, f"N={n} runtime {times[n]:.1f}s exceeds 30s"
    report(2, f"T2 eigenvalue, T1 annihilation and Bethe residuals exact "
              f"for N=1..8, the eigenvalue proven simple for N=1..5 "
              f"(N=7 in {times[7]:.2f}s, N=8 in {times[8]:.2f}s)")


def test_criterion_03_fusion_identity():
    rng = random.Random(SEED + 3)
    for n in (1, 2, 3):
        q = draw_q(rng)
        params = ModelParams(n, q, draw_w(rng, n, q))
        for _ in range(3):
            v = model(random_sparse_vector(rng, params), params)
            z = draw_z(rng)
            lhs = aba.transfer1_apply(
                params.sc(z), params,
                aba.transfer1_apply(params.sc(z * q), params, v))
            scal = RAT(1)
            for w in params.w:
                scal = scal * brk(q * w / z) * brk(z * q * q / w)
            if n % 2 == 0:
                scal = -scal
            assert model_sum(lhs, v.scale(scal)) == \
                aba.transfer2_apply(params.sc(z), params, v)
    report(3, "fusion identity T2 = T1 T1(qz) + theta-term exact on random "
              "sparse vectors, N <= 3")


def test_criterion_04_qkz_relations():
    rng = random.Random(SEED + 4)
    times = {}
    for n in range(2, 10):
        t0 = time.perf_counter()
        q = draw_q(rng)
        params = ModelParams(n, q, draw_w(rng, n, q))
        for j in range(1, n):
            assert aba.exchange_check(j, params)
        assert aba.cyclic_check(params)
        if n >= 3:
            assert aba.recurrence_check(params)
        for j in range(1, n + 1):
            assert aba.asymptotic_check(j, "inf", params)
            assert aba.asymptotic_check(j, "zero", params)
        times[n] = time.perf_counter() - t0
    for n in (8, 9):
        assert times[n] < 30.0, f"N={n} runtime {times[n]:.1f}s exceeds 30s"
    report(4, f"exchange, cyclic, recurrence and asymptotic relations exact "
              f"at every site for N=2..9 (N=8 in {times[8]:.2f}s, N=9 in "
              f"{times[9]:.2f}s)")


def test_criterion_05_degree_width():
    rng = random.Random(SEED + 5)
    for n in (2, 3, 4, 5, 6):
        q = draw_q(rng)
        params = ModelParams(n, q, draw_w(rng, n, q))
        for j in range(1, n + 1):
            # interpolation succeeds on the window [-(N-1), N-1] with two
            # surplus samples per parity class: support is contained in it
            polys = vector_laurent_coefficients(params, j)
            widths = []
            for poly in polys.values():
                if poly.is_zero():
                    continue
                assert poly.low >= -(n - 1) and poly.top() <= n - 1
                widths.append(degree_width(poly))
            assert max(widths) == 2 * (n - 1)
    report(5, "componentwise degree width within 2(N-1) and attained, N <= 6")


def test_criterion_06_determinant_identities():
    rng = random.Random(SEED + 6)
    t8 = None
    for n in range(1, 9):
        t0 = time.perf_counter()
        q = draw_q(rng)
        params = ModelParams(n, q, draw_w(rng, n, q))
        zeta = draw_distinct(rng, n, avoid=set(params.w)
                             | {-x for x in params.w})
        wb = draw_distinct(rng, n, avoid=zeta)
        assert detform.ik_determinant(zeta, wb, params) == \
            asm.dwbc_partition_brute(zeta, wb, params.q)
        roots = [params.sc(x) for x in params.w]
        zs = [params.sc(z) for z in zeta]
        s = detform.slavnov(roots, zs, params)
        assert s == detform.brute_scalar_product(roots, zs, params)
        assert s == detform.scalar_product_reduction_rhs(zeta, params)
        assert detform.partition_Z(params) == detform.partition_Z_via_ik(params)
        if n == 8:
            t8 = time.perf_counter() - t0
    assert t8 < 60.0, f"N=8 runtime {t8:.1f}s exceeds 60s"
    report(6, f"Izergin-Korepin vs. brute force, Slavnov vs. operator "
              f"oracle and the sum rule exact for N=1..8 (N=8 in "
              f"{t8:.2f}s)")


def test_criterion_07_simple_components():
    rng = random.Random(SEED + 7)
    for n in range(2, 9):
        q = draw_q(rng)
        params = ModelParams(n, q, draw_w(rng, n, q))
        closed = (detform.simple_component_even(params) if n % 2 == 0
                  else detform.simple_component_odd(params))
        assert closed == detform.simple_component_direct(params)
    report(7, "closed-form simple components equal direct extraction, N=2..8")


def test_criterion_08_asm_combinatorics():
    assert cli.genpoly_str(asm.gen_poly(3)) == "6+t"
    for n in range(1, 9):
        poly = asm.gen_poly(n)
        assert sum(poly.coeffs) == asm.count_asms_by_columns(n)
        assert poly.top() <= ((n - 1) ** 2) // 4
        assert asm.bijection_by_rows(n) == (True, True)
    for n in range(1, 6):
        for a in asm.generate_asms(n):
            assert asm.vertex_count_audit(a, asm.asm_to_dwbc(a))
    report(8, "A_3(t) = 6+t, generator-vs-generator counts and degree bounds "
              "for n <= 8, the bijection and vertex-count identities on "
              "every row transition for n <= 8 and on every ASM for n <= 5")


def test_criterion_09_homogeneous_singlet():
    t0 = time.perf_counter()
    phi3 = spinchain.singlet(3)
    one = HalfPowerPoly.const(1)
    x = HalfPowerPoly.x_poly([0, 1])
    assert phi3.entries == {
        state_from_str("U0D"): one,
        state_from_str("D0U"): one,
        state_from_str("DU0"): -one,
        state_from_str("0DU"): -one,
        state_from_str("UD0"): -one,
        state_from_str("0UD"): -one,
        state_from_str("000"): x,
    }
    for n in range(1, 11):
        phi = spinchain.singlet(n)  # integer coefficients asserted inside
        norm = spinchain.singlet_norm(phi)
        want = asm.gen_poly(n)
        coeffs = [0] * (4 * want.top() + 1)
        for k, c in enumerate(want.coeffs):
            coeffs[4 * k] = c
        assert norm == HalfPowerPoly(coeffs)  # A_N at t = x^2
        if n >= 2:
            audit = spinchain.singlet_normalisation_audit(phi)
            assert audit["pass"], audit
            m = n // 2
            comp = phi.entries[spinchain.distinguished_component_key(n)]
            assert comp.x_coeffs()[0] == math.factorial(m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    report(9, f"singlet components, integrality, norm sum rule, "
              f"normalisation audit and distinguished components for "
              f"n <= 10 ({elapsed:.2f}s)")


def test_criterion_10_spin_chain_closure():
    rng = random.Random(SEED + 10)
    for n in range(2, 11):
        phi = spinchain.singlet(n)
        assert spinchain.hamiltonian_apply_poly(phi).is_zero()
        got = spinchain.twisted_translation_apply(phi)
        assert got == (phi if n % 2 == 1 else phi.scale(-1))
    for n in (2, 3):
        q = draw_q(rng)
        params = ModelParams(n, q, [RAT(1)] * n)
        for _ in range(2):
            v = random_sparse_vector(rng, params, terms=3)
            assert log_derivative_hamiltonian_apply(v, q) == \
                hamiltonian_apply(v, q)
    dims = {n: spinchain.transfer1_zero_kernel_dimension(n, draw_q(rng))
            for n in (2, 3)}
    print(f"  [logged] zero-eigenspace dimensions (uniqueness probe): {dims}")
    report(10, "H annihilates the singlet, twisted translation eigenvalue "
               "(-1)^(N+1) for N=2..10, log-derivative form matches for N <= 3")


def test_criterion_11_regime_consistency():
    rng = random.Random(SEED + 11)
    for n in range(1, 9):
        for _ in range(3):
            q = draw_q(rng)
            assert spinchain.homogeneous_consistency_check(n, q)
    report(11, "renormalised vector at w = 1 equals [q]^(N(N-1)/2) times "
               "the singlet at x = q + 1/q for N <= 8")
