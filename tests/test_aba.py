import random
from math import gcd

import pytest

from helpers import (
    coefficient,
    draw_q,
    draw_w,
    draw_z,
    eigenvalue_kernel_dimensions,
    model_sum,
    state_from_str,
)
from laurent_oracle import vector_laurent_coefficients
from scalar_oracle import model

from bethelab import aba, cli, rmatrix
from bethelab.aba import (
    DOWN,
    UP,
    ZERO,
    IrrationalComponent,
    ModelParams,
    RedundantFactorZero,
    StateVector,
    asymptotic_check,
    basis_vector,
    bethe_equations_residual,
    bethe_vector,
    cyclic_check,
    exchange_check,
    leading_coefficient,
    magnetisation,
    monodromy_apply,
    recurrence_check,
    renormalised_vector,
    s_prime_apply,
    scattering_check,
    state_str,
    theta2,
    transfer1_apply,
    transfer2_apply,
    vacuum,
    vacuum_pair,
)
from bethelab.field import RAT, InconsistentSamples, PoleEncountered, brk
from bethelab.rmatrix import RMat, r22


def params_n(n, q=RAT(2), w=None):
    if w is None:
        w = [RAT(k + 2, 1) for k in range(n)]
    return ModelParams(n, q, w)


def random_vector(rng, params, n_terms=4):
    entries = {}
    for _ in range(n_terms):
        key = tuple(rng.randint(0, 2) for _ in range(params.n))
        entries[key] = RAT(rng.randint(-9, 9), rng.randint(1, 9))
    return model(StateVector(params.n, entries), params)


# ---------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------

def state_index(key) -> int:
    """Base-3 index, site 1 most significant."""
    idx = 0
    for c in key:
        idx = 3 * idx + c
    return idx


def spin_reversal_apply(v):
    """Flip U <-> D on every site."""
    flip = {UP: DOWN, ZERO: ZERO, DOWN: UP}
    return v.map(lambda part: StateVector(part.n, {
        tuple(flip[c] for c in key): x for key, x in part.entries.items()}))


def test_state_helpers():
    key = state_from_str("U0D")
    assert key == (UP, ZERO, DOWN)
    assert state_str(key) == "U0D"
    assert magnetisation(key) == 0
    assert state_index((0, 1, 2)) == 5


def test_monodromy_single_site_b():
    p = params_n(1, w=[RAT(1)])
    v = monodromy_apply("B", p.sc(p.w[0]), p, vacuum(p))
    assert v.entries == {(ZERO,): p.s}
    assert all(magnetisation(k) == 0 for k in v.entries)


def test_vacuum_eigenvalues_and_c_annihilation():
    rng = random.Random(31)
    for n in (1, 2, 3):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        z = p.sc(draw_z(rng))
        av = monodromy_apply("A", z, p, vacuum(p))
        assert av == vacuum(p).scale(RAT(*vacuum_pair(z, 1, p)))
        dv = monodromy_apply("D", z, p, vacuum(p))
        assert dv == vacuum(p).scale(RAT(*vacuum_pair(z, -1, p)))
        assert monodromy_apply("C", z, p, vacuum(p)).is_zero()


def test_b_operators_commute_on_random_vectors():
    rng = random.Random(55)
    p = params_n(3)
    v = random_vector(rng, p)
    z1, z2 = p.sc(RAT(3, 7)), p.sc(RAT(8, 5))
    b12 = monodromy_apply("B", z1, p, monodromy_apply("B", z2, p, v))
    b21 = monodromy_apply("B", z2, p, monodromy_apply("B", z1, p, v))
    assert b12 == b21


def test_operators_reject_anything_but_a_model_vector():
    """A StateVector of Scalars, the old input form, is a TypeError that
    names ModelVector."""
    p = params_n(2)
    z = p.sc(RAT(3, 7))
    v = StateVector(2, {(UP, UP): p.sc(1)})
    for apply in (lambda: transfer1_apply(z, p, v),
                  lambda: transfer2_apply(z, p, v),
                  lambda: monodromy_apply("B", z, p, v)):
        with pytest.raises(TypeError, match="ModelVector"):
            apply()


@pytest.mark.parametrize("apply", [
    *(lambda z, p, v, x=x: monodromy_apply(x, z, p, v) for x in "ABCD"),
    *(lambda z, p, v, x=x: monodromy_apply(x, [RAT(3), z], p, v)
      for x in "ABCD"),
    transfer1_apply, transfer2_apply,
], ids=[*"ABCD", *(f"{x}_list" for x in "ABCD"), "T1", "T2"])
def test_zero_spectral_parameter_is_a_pole(apply):
    """z = 0 reaches the table of r12(0) or r22(0), whose bracket of zero
    raises; no operator guards it on its own."""
    p = params_n(2)
    with pytest.raises(PoleEncountered, match="bracket of zero"):
        apply(0, p, vacuum(p))


def test_transfer2_commute_on_random_vectors():
    rng = random.Random(56)
    p = params_n(2)
    v = random_vector(rng, p)
    z1, z2 = p.sc(RAT(4, 3)), p.sc(RAT(9, 2))
    t12 = transfer2_apply(z1, p, transfer2_apply(z2, p, v))
    t21 = transfer2_apply(z2, p, transfer2_apply(z1, p, v))
    assert t12 == t21


def test_transfer2_single_site_against_partial_trace():
    p = params_n(1, w=[RAT(3, 2)])
    z = p.sc(RAT(7, 4))
    m = r22(RAT(7, 4) / p.w[0], p.q)
    omega = (-1, 1, -1)
    for site in range(3):
        basis = basis_vector(p, (site,))
        got = transfer2_apply(z, p, basis)
        for out in range(3):
            acc = RAT(0)
            for a in range(3):
                term = m.weights.get((a, out, a, site), 0)
                acc = acc + (term if omega[a] == 1 else -term)
            want = got.entries.get((out,))
            if want is None:
                assert not acc
            else:
                assert acc == want


def test_with_w_child_builds_none_of_its_parents_tables(monkeypatch):
    """A transition table depends only on q and its spectral argument, so
    a child made by with_w reuses every table its parent built: here all
    of them, since permuting w keeps the set of ratios w_k / w_j."""
    p = params_n(3)
    z = p.sc(RAT(5, 3))
    transfer2_apply(z, p, bethe_vector(p))
    builds = []
    column_map = RMat.column_map
    monkeypatch.setattr(RMat, "column_map",
                        lambda rmat: builds.append(rmat) or column_map(rmat))
    for child in (p.with_w(p.w), p.with_w(p.w[1:] + p.w[:1])):
        transfer2_apply(z, child, bethe_vector(child))
    assert builds == []


def test_bethe_vector_n1():
    p = params_n(1, w=[RAT(5, 3)])
    assert bethe_vector(p).entries == {(ZERO,): p.s}
    assert renormalised_vector(p).entries == {(ZERO,): p.sc(1)}


def test_bethe_vector_sector_zero():
    rng = random.Random(77)
    for n in (2, 3, 4, 5, 6):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        v = bethe_vector(p)
        assert not v.is_zero()
        assert all(magnetisation(k) == 0 for k in v.entries)


def test_transfer2_homogeneous_at_unit_argument_is_twisted_shift():
    # T2(z=1 | w=1) = ([q][q^2])^N S'
    rng = random.Random(78)
    for n in (2, 3):
        q = draw_q(rng)
        p = ModelParams(n, q, [RAT(1)] * n)
        scale = p.sc((brk(q) * brk(q * q)) ** n)
        for _ in range(3):
            key = tuple(rng.randint(0, 2) for _ in range(n))
            v = basis_vector(p, key)
            assert transfer2_apply(p.sc(1), p, v) == \
                v.map(s_prime_apply).scale(scale)


def test_renormalised_n3_closed_form():
    # representative components at N = 3:
    #   psi~_{U0D} = [q][q w2/w1][q w3/w2]
    #   psi~_{000} = [q]^2 [q^2] + [w2/w1][w3/w1][w3/w2]
    rng = random.Random(101)
    for _ in range(3):
        q = draw_q(rng)
        w = draw_w(rng, 3, q)
        p = ModelParams(3, q, w)
        v = renormalised_vector(p)
        want_u0d = p.sc(brk(q) * brk(q * w[1] / w[0]) * brk(q * w[2] / w[1]))
        assert v.entries.get((UP, ZERO, DOWN)) == want_u0d
        want_000 = p.sc(brk(q) ** 2 * brk(q * q)
                        + brk(w[1] / w[0]) * brk(w[2] / w[0]) * brk(w[2] / w[1]))
        assert v.entries.get((ZERO, ZERO, ZERO)) == want_000


def test_renormalised_homogeneous_n3_matches_singlet_pattern():
    # w = (1,1,1): components equal [q]^3 times (1, -1, x) pattern
    q = RAT(2)
    p = ModelParams(3, q, [RAT(1)] * 3)
    v = renormalised_vector(p)
    cube = brk(q) ** 3
    x = q + 1 / q
    assert v.entries.get(state_from_str("U0D")) == cube
    assert v.entries.get(state_from_str("D0U")) == cube
    assert v.entries.get(state_from_str("DU0")) == -cube
    assert v.entries.get(state_from_str("0DU")) == -cube
    assert v.entries.get(state_from_str("UD0")) == -cube
    assert v.entries.get(state_from_str("0UD")) == -cube
    assert v.entries.get(state_from_str("000")) == cube * x
    assert len(v.entries) == 7


def test_renormalised_divisor_zero_raises():
    q = RAT(2)
    with pytest.raises(RedundantFactorZero):
        renormalised_vector(ModelParams(2, q, [RAT(2), RAT(4)]))  # w2 = q w1


def test_renormalised_irrational_component_raises():
    p = params_n(2)
    p.memo("bethe", lambda: basis_vector(
        p, state_from_str("UD")).scale(p.s))
    with pytest.raises(IrrationalComponent):  # the divisor is rational
        renormalised_vector(p)


# ---------------------------------------------------------------------
# eigenvalue structure
# ---------------------------------------------------------------------

def test_theta2_examples():
    p = params_n(1, w=[RAT(4, 7)])
    assert theta2(p.sc(p.w[0]), p) == p.sc(brk(RAT(2)) * brk(RAT(4)))
    assert theta2(p.sc(2 * p.w[0]), p) == 0  # z = q w_1
    p2 = ModelParams(2, RAT(2), [RAT(1), RAT(1)])
    assert theta2(p2.sc(RAT(1)), p2) == p2.sc(RAT(-2025, 64))


def test_transfer_eigen_relations():
    rng = random.Random(919)
    for n in (1, 2, 3, 4):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        psi = bethe_vector(p)
        for _ in range(2):
            z = p.sc(draw_z(rng))
            assert transfer2_apply(z, p, psi) == psi.scale(theta2(z, p))
            assert transfer1_apply(z, p, psi).is_zero()


def test_a_planted_second_eigenvector_fails_the_simplicity_proof(
        monkeypatch):
    """T2 patched to map |all-up>, alone in its magnetisation sector, to
    theta2(z)|all-up>: a second eigenvector beside psi, which the kernel
    dimensions of T2(z) - theta2(z) must count."""
    rng = random.Random(921)
    q = draw_q(rng)
    p = ModelParams(3, q, draw_w(rng, 3, q))
    z = p.sc(draw_z(rng))
    assert eigenvalue_kernel_dimensions(p, z) == (1, 1)
    up, t2 = vacuum(p), aba.transfer2_apply

    def planted(z, params, v):
        return v.scale(theta2(z, params)) if v == up else t2(z, params, v)

    monkeypatch.setattr(aba, "transfer2_apply", planted)
    assert eigenvalue_kernel_dimensions(p, z) == (2, 2)


def test_fusion_identity_on_random_vectors():
    rng = random.Random(13)
    for n in (1, 2, 3):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        v = random_vector(rng, p)
        z = draw_z(rng)
        lhs = transfer1_apply(p.sc(z), p,
                              transfer1_apply(p.sc(z * q), p, v))
        scal = RAT(1)
        for w in p.w:
            scal = scal * brk(q * w / z) * brk(z * q * q / w)
        if n % 2 == 0:
            scal = -scal
        assert model_sum(lhs, v.scale(scal)) == transfer2_apply(p.sc(z), p, v)


def test_bethe_residuals_zero_at_roots():
    rng = random.Random(14)
    for n in (1, 2, 3, 4):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        res = bethe_equations_residual([p.sc(w) for w in p.w], p)
        assert all(r.is_zero() for r in res)


def test_bethe_residual_n1_structure():
    # single equation [q z/w]/[z/(q w)] = -1, satisfied at z = w
    p = params_n(1, w=[RAT(3)])
    z = p.sc(RAT(3))
    num = brk(z.r * p.q / p.w[0])
    den = brk(z.r / (p.q * p.w[0]))
    assert num / den == -1
    assert bethe_equations_residual([z], p)[0].is_zero()


def test_bethe_residuals_nonzero_off_shell():
    p = params_n(2, w=[RAT(3), RAT(7)])
    res = bethe_equations_residual([p.sc(RAT(4)), p.sc(RAT(9))], p)
    assert any(not r.is_zero() for r in res)


def test_bethe_residuals_on_the_singular_lattice():
    """The cleared equations divide by nothing: at w = (2, 1), q = 2, where
    [z_1/(q w_2)] = [z_1/(q z_2)] = [1] = 0, the roots z = w solve them,
    and at z = q w_1, where d(z) = 0, the residual is a(z) != 0."""
    p = ModelParams(2, RAT(2), [RAT(2), RAT(1)])
    assert all(r.is_zero() for r in bethe_equations_residual(p.w, p))
    p1 = params_n(1, w=[RAT(1)])
    (res,) = bethe_equations_residual([p1.sc(p1.q)], p1)  # z = q w_1
    assert not res.is_zero()


# ---------------------------------------------------------------------
# qKZ-type relations
# ---------------------------------------------------------------------

def test_exchange_relation():
    rng = random.Random(2020)
    for n in (2, 3):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        for j in range(1, n):
            assert exchange_check(j, p)


def test_exchange_explicit_instance():
    p = ModelParams(2, RAT(2), [RAT(3), RAT(5)])
    assert exchange_check(1, p)


def test_exchange_equal_arguments_is_identity_point():
    # w_j = w_{j+1}: Rhat(1) = [q][q^2] Id, both sides [q][q^2] |psi~>
    q = RAT(3)
    p = ModelParams(3, q, [RAT(5), RAT(5), RAT(2)])
    assert exchange_check(1, p)


def test_cyclic_relation():
    rng = random.Random(2021)
    for n in (1, 2, 3):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        assert cyclic_check(p)


def test_recurrence_relation():
    rng = random.Random(2022)
    for n in (3, 4):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        assert recurrence_check(p)


def test_asymptotic_relations():
    """At drawn parameters, and with a negative w, where the sampled w_j
    must avoid -w/q and -q w too."""
    rng = random.Random(2023)
    models = []
    for n in (2, 3):
        q = draw_q(rng)
        models.append(ModelParams(n, q, draw_w(rng, n, q)))
    models.append(ModelParams(2, RAT(2), [RAT(3), RAT(-2)]))
    models.append(ModelParams(3, RAT(5, 2), [RAT(3), RAT(-5, 2), RAT(7)]))
    for p in models:
        for j in range(1, p.n + 1):
            assert asymptotic_check(j, "inf", p)
            assert asymptotic_check(j, "zero", p)


def test_asymptotic_check_sees_a_missing_component(monkeypatch):
    """A sigma_j = 0 component whose reduced component is nonzero, dropped
    from the leading vector of the full vector, fails both directions."""
    from bethelab import aba

    rng = random.Random(2023)
    q = draw_q(rng)
    p = ModelParams(3, q, draw_w(rng, 3, q))
    j = 2
    assert asymptotic_check(j, "inf", p) and asymptotic_check(j, "zero", p)
    lead = aba.leading_coefficient

    def dropped(j, to_inf, params):
        v = lead(j, to_inf, params)
        key = next(k for k in sorted(v.part.entries) if k[j - 1] == ZERO)
        return v.map(lambda part: StateVector(part.n, {
            k: x for k, x in part.entries.items() if k != key}))

    monkeypatch.setattr(aba, "leading_coefficient", dropped)
    assert not asymptotic_check(j, "inf", p)
    assert not asymptotic_check(j, "zero", p)


def test_asymptotic_directions_build_only_the_reduced_vector(monkeypatch):
    """Both directions build one vector, the reduced (N-1)-site one, once
    between them, and solve no linear system: the leading coefficient is
    one sweep, with no sampled vectors and no interpolation."""
    from collections import Counter

    from bethelab import aba, field

    calls = Counter()
    build = aba.renormalised_vector
    solve = field.solve_exact
    solves = []

    def counting(params):
        calls[params.w] += 1
        return build(params)

    def counting_solve(matrix, rhs_columns):
        solves.append(len(matrix))
        return solve(matrix, rhs_columns)

    monkeypatch.setattr(aba, "renormalised_vector", counting)
    monkeypatch.setattr(field, "solve_exact", counting_solve)
    rng = random.Random(2025)
    q = draw_q(rng)
    p = ModelParams(3, q, draw_w(rng, 3, q))
    assert asymptotic_check(1, "inf", p)
    assert asymptotic_check(1, "zero", p)
    assert calls == {p.w[1:]: 1}
    assert solves == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_leading_coefficient_matches_the_laurent_oracle(n):
    """At every site and in both directions, the leading-order sweep's
    coefficient equals, key by key, the interpolated coefficient at
    w_j^(N-1) and at w_j^-(N-1)."""
    rng = random.Random(780 + n)
    q = draw_q(rng)
    p = ModelParams(n, q, draw_w(rng, n, q))
    for j in range(1, n + 1):
        polys = vector_laurent_coefficients(p, j)
        for to_inf, order in ((True, n - 1), (False, 1 - n)):
            want = {key: c for key, poly in polys.items()
                    if (c := coefficient(poly, order))}
            got = leading_coefficient(j, to_inf, p)
            assert got.grade == 0 and want
            assert {key: x.r for key, x in got.entries.items()} == want


def test_a_constant_added_to_a_bracket_passes_the_leading_order_check(
        monkeypatch):
    """What the leading-order check cannot see: an r12 whose <up 0| r12(u)
    |up 0> reads [q u] + 1 in the weight description keeps every leading
    part, so at N = 3 the asymptotic relations still hold, while the
    constant breaks the parity of w_j that the Laurent oracle's surplus
    samples check."""
    from bethelab import rmatrix

    dims, polys, keys = rmatrix.R12
    key = (0, ZERO, 0, ZERO)
    planted = {**polys[keys[key]], (0, 0): 1}
    monkeypatch.setattr(rmatrix, "R12", (dims, [*polys, planted],
                                         {**keys, key: len(polys)}))
    rng = random.Random(2027)
    q = draw_q(rng)
    p = ModelParams(3, q, draw_w(rng, 3, q))
    for j in range(1, 4):
        assert asymptotic_check(j, "inf", p)
        assert asymptotic_check(j, "zero", p)
    with pytest.raises(InconsistentSamples):
        vector_laurent_coefficients(p, 1)


def test_asymptotic_direction_has_one_spelling():
    p = params_n(2)
    for direction in ("0", 0, "infinity"):
        with pytest.raises(ValueError, match="'inf' or 'zero'"):
            asymptotic_check(1, direction, p)


@pytest.mark.parametrize("j", [0, -1, 4])
def test_site_index_outside_the_chain_is_refused(j):
    """j runs over 1..N in the scattering product and the leading
    coefficient as in the checks that call them: w[j - 1] must not wrap
    around to another site, nor run off the chain."""
    p = params_n(3)
    psi = bethe_vector(p)
    for call in (lambda: aba.scattering_apply(j, p, psi),
                 lambda: leading_coefficient(j, True, p),
                 lambda: leading_coefficient(j, False, p),
                 lambda: scattering_check(j, p),
                 lambda: asymptotic_check(j, "inf", p)):
        with pytest.raises(ValueError, match="site index out of range"):
            call()


@pytest.mark.parametrize("to_inf", [True, False])
def test_leading_coefficient_refuses_a_one_site_chain(to_inf):
    """At N = 1 there is no reduced chain to divide by: the leading
    coefficient refuses it by the chain length, as `asymptotic_check`
    does, before it builds a divisor of no sites."""
    p = ModelParams(1, 2, [3])
    with pytest.raises(ValueError, match="need N >= 2"):
        leading_coefficient(1, to_inf, p)
    with pytest.raises(ValueError, match="need N >= 2"):
        asymptotic_check(1, "inf" if to_inf else "zero", p)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (0, 0), (2, 2), (3, 0),
                                  (0, 3)])
def test_gate_sites_must_be_two_sites_of_the_vector(i, j):
    """A two-site gate acts on two distinct sites 0..N-1: a negative index
    would wrap around (in `apply_gates`, site -1 would shift into the
    auxiliary bits), and i = j would apply the gate to one site twice.
    `apply_gates` checks every gate before any work: its first gate, on
    valid sites, has no table, which compiling it would trip over."""
    p = params_n(3)
    psi = bethe_vector(p)
    with pytest.raises(ValueError, match="not two sites"):
        aba.rhat22_apply(RAT(5, 3), p, psi, i, j)
    table, _ = aba.rhat22_table((5, 3), p)
    with pytest.raises(ValueError, match="not two sites"):
        aba.apply_two_site(table, psi.part, i, j)
    with pytest.raises(ValueError, match="not two sites"):
        aba.apply_gates(psi.part, [(table, i, j)])
    with pytest.raises(ValueError, match="not two sites"):
        aba.apply_gates(psi.part, [(None, 0, 1), (table, i, j)])


def test_scattering_relation():
    rng = random.Random(2024)
    for n in (2, 3):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        for j in range(1, n + 1):
            assert scattering_check(j, p)


def test_scattering_homogeneous_reduces_to_shift():
    p = ModelParams(3, RAT(2), [RAT(1)] * 3)
    assert scattering_check(2, p)


def scattering_params():
    rng = random.Random(2025)
    q = draw_q(rng)
    return ModelParams(4, q, draw_w(rng, 4, q))


def test_scattering_check_sees_a_sign_error_in_s_prime(monkeypatch):
    """S' with Omega's sign on the 0 spin instead of U and D."""
    p = scattering_params()
    assert all(scattering_check(j, p) for j in range(1, 5))

    def wrong_sign(v):
        return StateVector(v.n, {
            key[-1:] + key[:-1]: -x if key[-1] == ZERO else x
            for key, x in v.entries.items()})

    monkeypatch.setattr(aba, "s_prime_apply", wrong_sign)
    assert not any(scattering_check(j, p) for j in range(1, 5))


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_scattering_check_sees_one_gate_at_the_inverse_argument(
        j, monkeypatch):
    """The first gate of S_j taken at 1/u, e.g. Rhat_{j,j+1}(w_{j+1}/w_j)
    for Rhat_{j,j+1}(w_j/w_{j+1})."""
    p = scattering_params()
    assert scattering_check(j, p)
    gate, calls = aba.rhat22_apply, []

    def first_inverted(u, params, v, i, k):
        calls.append(u)
        return gate(1 / u if len(calls) == 1 else u, params, v, i, k)

    monkeypatch.setattr(aba, "rhat22_apply", first_inverted)
    assert not scattering_check(j, p)
    assert len(calls) == 3


def test_a_corrupted_t2_weight_fails_the_transfer2_eigenvalue_check(
        monkeypatch):
    """One nineteen-vertex weight off by one in the sweep's tables: the
    gate route of the scattering checks does not read those tables, so
    `aba.transfer2_eigenvalue` is the check that must catch it."""
    table_of = ModelParams.r22_table

    def corrupted(self, u):
        table, den = table_of(self, u)
        table = dict(table)
        (ao, so, x), *rest = table[(UP, ZERO)]
        table[(UP, ZERO)] = [(ao, so, x + den), *rest]
        return table, den

    def verdicts():
        params, rng = cli.resolve_params(cli.build_parser().parse_args(
            ["verify", "--suite", "aba", "--n", "4", "--seed", "3"]))
        return {r["check"]: r["pass"]
                for r in cli.run_suite("aba", params, rng)}

    assert all(verdicts().values())
    monkeypatch.setattr(ModelParams, "r22_table", corrupted)
    got = verdicts()
    assert got.pop("aba.transfer2_eigenvalue") is False
    assert all(got.values())


# ---------------------------------------------------------------------
# the table memo, keyed by reduced int pairs
# ---------------------------------------------------------------------

_BUILDERS = {"r12": rmatrix.r12, "r22": rmatrix.r22,
             "rhat22": lambda z, q: rmatrix.r22(z, q).braided()}


def _keys_are_reduced_pairs(p) -> bool:
    """Every key of p's table memo is a kind and two coprime ints, the
    denominator positive."""
    return all(kind in _BUILDERS and type(a) is int and type(b) is int
               and b > 0 and gcd(a, b) == 1 for kind, a, b in p._tables)


def _counted_column_maps(monkeypatch) -> list:
    """The (dim_left, dim_right) of each `RMat.column_map` call from now
    on, each a table build."""
    builds, column_map = [], RMat.column_map

    def counted(rmat):
        builds.append((rmat.dim_left, rmat.dim_right))
        return column_map(rmat)

    monkeypatch.setattr(RMat, "column_map", counted)
    return builds


@pytest.mark.parametrize("sign", [1, -1])
def test_pair_keyed_tables_equal_the_matrices_at_their_rational(sign):
    """Each table memoised under (kind, a, b) by the monodromy, T2,
    rhat22 and leading-coefficient sweeps equals `_int_table` of
    `rmatrix.r12`, `r22` or the braided `r22` at RAT(a, b), D included,
    for q of either sign and x and w of both signs; the keys are the
    reduced pairs of the rationals x / (q w_j), x / w_j and x."""
    rng = random.Random(3400 + sign)
    for _ in range(3):
        q = sign * draw_q(rng)
        w = [rng.choice((-1, 1)) * x for x in draw_w(rng, 3, q)]
        p = ModelParams(3, q, w)
        xs = [RAT(rng.choice((-1, 1)) * rng.randint(1, 97),
                  rng.randint(1, 97)) for _ in range(2)]
        psi = bethe_vector(p)
        for x in xs:
            monodromy_apply("C", x, p, psi)
            transfer2_apply(x, p, psi)
            aba.rhat22_apply(x, p, psi, 0, 1)
        leading_coefficient(2, True, p)
        want = {("r12", *(x / (q * y)).as_integer_ratio())
                for x in xs + w for y in w}
        want |= {("r22", *(x / y).as_integer_ratio()) for x in xs for y in w}
        want |= {("rhat22", *x.as_integer_ratio()) for x in xs}
        assert set(p._tables) == want
        assert _keys_are_reduced_pairs(p)
        for (kind, a, b), table in p._tables.items():
            assert table == aba._int_table(_BUILDERS[kind](RAT(a, b), q))


def test_arguments_of_one_value_share_one_table(monkeypatch):
    """z / (q w_j) at z = 2, 4 and w = 3, 6 forms 4 / (6 q) from other
    ints than 2 / (3 q): the two reduce to one pair, so four lookups
    build three tables."""
    builds = _counted_column_maps(monkeypatch)
    p = ModelParams(2, RAT(5, 7), [RAT(3), RAT(6)])
    monodromy_apply("A", [RAT(2), RAT(4)], p, vacuum(p))
    # 2 / (3 q) = 4 / (6 q) = 14/15, 2 / (6 q) = 7/15, 4 / (3 q) = 28/15
    assert sorted(p._tables) == [("r12", 7, 15), ("r12", 14, 15),
                                 ("r12", 28, 15)]
    assert builds == [(2, 3)] * 3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exchange_and_cyclic_checks_build_no_further_r12_table(
        n, monkeypatch):
    """The swapped and rotated w of the exchange and cyclic checks form
    the arguments w_k / (q w_j) of `bethe_vector(p)` again from other
    ints: after it, the checks hit its r12 tables and build the rhat22
    tables of w_j / w_{j+1} only."""
    rng = random.Random(3430 + n)
    q = draw_q(rng)
    p = ModelParams(n, q, draw_w(rng, n, q))
    bethe_vector(p)
    r12_keys = set(p._tables)
    builds = _counted_column_maps(monkeypatch)
    assert all(exchange_check(j, p) for j in range(1, n))
    assert cyclic_check(p)
    ratios = {p.w[j - 1] / p.w[j] for j in range(1, n)}
    assert builds == [(3, 3)] * len(ratios)
    assert {k for k in p._tables if k[0] == "r12"} == r12_keys
    assert _keys_are_reduced_pairs(p)


def test_a_zero_argument_raises_the_bracket_pole():
    """A zero spectral parameter makes every memoised table a bracket of
    zero: the PoleEncountered that `rmatrix.r12(0, q)` raises, with its
    message, and nothing is memoised."""
    p = params_n(3)
    with pytest.raises(PoleEncountered) as want:
        rmatrix.r12(0, p.q)
    for call in (lambda: monodromy_apply("A", 0, p, vacuum(p)),
                 lambda: transfer1_apply(0, p, vacuum(p)),
                 lambda: transfer2_apply(0, p, vacuum(p)),
                 lambda: aba.rhat22_apply(0, p, vacuum(p), 0, 1),
                 lambda: p.r12_table((0, 1)),
                 lambda: p.r22_table((0, 1))):
        with pytest.raises(PoleEncountered) as got:
            call()
        assert type(got.value) is PoleEncountered
        assert str(got.value) == str(want.value)
    assert p._tables == {}


def test_spin_reversal_symmetry():
    rng = random.Random(2026)
    for n in (1, 2, 3, 4, 5):
        q = draw_q(rng)
        p = ModelParams(n, q, draw_w(rng, n, q))
        v = renormalised_vector(p)
        assert spin_reversal_apply(v) == v


def test_s_prime_on_basis():
    p = params_n(3)
    v = StateVector(3, {state_from_str("00U"): 1})
    got = s_prime_apply(v)
    assert got.entries == {state_from_str("U00"): -1}
    w = StateVector(3, {state_from_str("U00"): 1})
    assert s_prime_apply(w).entries == {state_from_str("0U0"): 1}


def test_json_dump_shape():
    p = params_n(1, w=[RAT(1)])
    v = bethe_vector(p)
    obj = v.to_json_dict(p)
    assert obj["twist"] == "pi" and obj["n"] == 1
    assert obj["components"][0]["state"] == "0"
    assert obj["components"][0]["value"]["b"] == "1/1"
