import random

from helpers import draw_q

from bethelab.aba import (
    StateVector,
    magnetisation,
    state_from_str,
)
from bethelab.field import RAT, HalfPowerPoly, Scalar
from bethelab.linalg import mat_eq, transpose
from bethelab.rmatrix import DOWN, UP, ZERO, VertexWeights
from bethelab.spinchain import (
    beta_apply,
    bond_gate_polynomials,
    distinguished_component_key,
    doubled_spin_matrices,
    hamiltonian_apply,
    hamiltonian_apply_poly,
    hamiltonian_dense,
    homogeneous_consistency_check,
    log_derivative_hamiltonian_apply,
    singlet,
    singlet_norm,
    singlet_normalisation_audit,
    transfer1_zero_kernel_dimension,
    twisted_translation_apply,
)


def mat_comm(a, b):
    from bethelab.linalg import mat_mul, mat_sub

    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def random_poly_vector(rng, n, terms=4):
    entries = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, 2) for _ in range(n))
        entries[key] = HalfPowerPoly.x_poly(
            [rng.randint(-3, 3) for _ in range(3)])
    return StateVector(n, entries)


def random_scalar_vector(rng, n, d, terms=4):
    entries = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, 2) for _ in range(n))
        entries[key] = Scalar(RAT(rng.randint(-5, 5), rng.randint(1, 5)), d=d)
    return StateVector(n, entries)


# ---------------------------------------------------------------------
# spin operators and the gate
# ---------------------------------------------------------------------

def test_doubled_spin_commutators():
    vw = VertexWeights(RAT(2))
    s1, s2, s3 = doubled_spin_matrices(vw)
    from bethelab.linalg import mat_scale

    i2 = vw.i + vw.i
    assert mat_eq(mat_comm(s1, s2), mat_scale(s3, i2))
    assert mat_eq(mat_comm(s2, s3), mat_scale(s1, vw.i))
    assert mat_eq(mat_comm(s3, s1), mat_scale(s2, vw.i))


def test_gate_assembly_is_real():
    h0, h1, h2, t0, t1, t2 = bond_gate_polynomials()
    assert h0[0][0] == RAT(0)  # UU diagonal of the constant part
    for m in (h0, h1, h2, t0, t1, t2):
        assert len(m) == 9 and all(len(r) == 9 for r in m)


def test_hamiltonian_symmetric_small():
    for n, q in ((2, RAT(2)), (3, RAT(5, 3))):
        h = hamiltonian_dense(n, q)
        assert mat_eq(h, transpose(h))


def test_hamiltonian_conserves_magnetisation():
    rng = random.Random(42)
    q = RAT(2)
    d = VertexWeights(q).d
    for _ in range(3):
        key = tuple(rng.randint(0, 2) for _ in range(3))
        v = StateVector(3, {key: Scalar(1, d=d)})
        hv = hamiltonian_apply(v, q)
        assert all(magnetisation(k) == magnetisation(key)
                   for k in hv.entries)


def test_hamiltonian_commutes_with_twisted_translation():
    rng = random.Random(43)
    q = RAT(7, 4)
    d = VertexWeights(q).d
    for n in (2, 3):
        v = random_scalar_vector(rng, n, d)
        a = twisted_translation_apply(hamiltonian_apply(v, q))
        b = hamiltonian_apply(twisted_translation_apply(v), q)
        assert a == b


# ---------------------------------------------------------------------
# beta and the singlet
# ---------------------------------------------------------------------

def test_beta_single_site():
    v = StateVector(1, {(UP,): HalfPowerPoly.const(1)}, sector=1)
    got = beta_apply(v)
    assert got.entries == {(ZERO,): HalfPowerPoly.y_power(1)}


def test_rho_action_on_up_down_pair():
    # rho(x) (|up> (x) |D>) = -|up D> + x^(1/2) |down 0>: one sweep on a
    # single-site chain starting from auxiliary 'up' cannot be read
    # directly, so check through the table of beta on |D>: the only
    # nonzero path flips the auxiliary at the site
    v = StateVector(1, {(DOWN,): HalfPowerPoly.const(1)}, sector=-1)
    assert beta_apply(v).is_zero()  # D cannot be lowered
    w = StateVector(1, {(ZERO,): HalfPowerPoly.const(1)}, sector=0)
    got = beta_apply(w)
    assert got.entries == {(DOWN,): HalfPowerPoly.y_power(1)}


def test_beta_output_odd_support():
    rng = random.Random(44)
    for n in (2, 3):
        for _ in range(3):
            key = tuple(rng.randint(0, 2) for _ in range(n))
            v = StateVector(n, {key: HalfPowerPoly.const(1)})
            for val in beta_apply(v).entries.values():
                assert val.is_odd_support()


def test_singlet_n1():
    phi = singlet(1)
    assert phi.entries == {(ZERO,): HalfPowerPoly.const(1)}


def test_singlet_n3_components():
    phi = singlet(3)
    one = HalfPowerPoly.const(1)
    x = HalfPowerPoly.x_poly([0, 1])
    want = {
        state_from_str("U0D"): one,
        state_from_str("D0U"): one,
        state_from_str("DU0"): -one,
        state_from_str("0DU"): -one,
        state_from_str("UD0"): -one,
        state_from_str("0UD"): -one,
        state_from_str("000"): x,
    }
    assert phi.entries == want


def test_singlet_magnetisation_zero():
    for n in (1, 2, 3, 4):
        phi = singlet(n)
        assert all(magnetisation(k) == 0 for k in phi.entries)


def test_singlet_norm_small():
    assert singlet_norm(singlet(1)) == HalfPowerPoly.const(1)
    assert singlet_norm(singlet(2)) == HalfPowerPoly.const(2)
    assert singlet_norm(singlet(3)) == HalfPowerPoly.x_poly([6, 0, 1])


def test_singlet_norm_matches_genpoly():
    from bethelab.asm import gen_poly

    for n in (1, 2, 3, 4, 5):
        norm = singlet_norm(singlet(n))
        want = gen_poly(n)
        # A_n(t) at t = x^2: coefficient k sits at x^(2k), i.e. y^(4k)
        coeffs = [0] * (4 * want.degree() + 1)
        for k, c in enumerate(want.coeffs):
            coeffs[4 * k] = c
        assert norm == HalfPowerPoly(coeffs)


def test_singlet_normalisation_audit():
    for n in (2, 3, 4, 5):
        report = singlet_normalisation_audit(singlet(n))
        assert report["pass"], report


def test_normalisation_audit_rejects_excess_degree():
    # m = 2 allows degree floor(1/4) = 0 in x^2; 2 + x^2 has degree 1
    phi, key = singlet(4), distinguished_component_key(4)
    bad = StateVector(4, {**phi.entries, key: HalfPowerPoly.x_poly([2, 0, 1])})
    report = singlet_normalisation_audit(bad)
    assert report["degree_ok"] is False
    assert report["pass"] is False


def test_hamiltonian_annihilates_singlet_symbolic():
    for n in (2, 3, 4):
        assert hamiltonian_apply_poly(singlet(n)).is_zero()


def test_hamiltonian_annihilates_singlet_numeric():
    rng = random.Random(45)
    for n in (2, 3):
        q = draw_q(rng)
        d = VertexWeights(q).d
        x = q + 1 / q
        phi = singlet(n)
        v = StateVector(n, {k: Scalar(p.eval_x(x), d=d)
                            for k, p in phi.entries.items()})
        assert hamiltonian_apply(v, q).is_zero()


def test_twisted_translation_eigenvector():
    for n in (2, 3, 4):
        phi = singlet(n)
        got = twisted_translation_apply(phi)
        want = phi if n % 2 == 1 else phi.scale(-1)
        assert got == want


def test_twisted_translation_order_n_on_singlet_sector():
    from itertools import product

    q = RAT(2)
    d = VertexWeights(q).d
    for n in (2, 3):
        for key in product((0, 1, 2), repeat=n):
            if magnetisation(key) != 0:
                continue
            v = StateVector(n, {key: Scalar(1, d=d)})
            w = v
            for _ in range(n):
                w = twisted_translation_apply(w)
            assert w == v


def test_log_derivative_matches_hamiltonian():
    rng = random.Random(46)
    for n in (2, 3):
        q = draw_q(rng)
        d = VertexWeights(q).d
        v = random_scalar_vector(rng, n, d, terms=3)
        assert log_derivative_hamiltonian_apply(v, q) == \
            hamiltonian_apply(v, q)


def test_homogeneous_consistency():
    rng = random.Random(47)
    for n in (1, 2, 3, 4):
        q = draw_q(rng)
        assert homogeneous_consistency_check(n, q)


def test_transfer1_kernel_dimension_is_one():
    rng = random.Random(48)
    for n in (2, 3):
        for _ in range(3):
            q = draw_q(rng)
            assert transfer1_zero_kernel_dimension(n, q) == 1


def test_distinguished_component_key():
    assert distinguished_component_key(4) == (UP, UP, DOWN, DOWN)
    assert distinguished_component_key(5) == (UP, UP, ZERO, DOWN, DOWN)
