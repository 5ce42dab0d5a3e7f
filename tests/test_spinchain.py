import itertools
import random

import pytest

import bond_oracle
import dense_rmatrix_oracle as dense
import halfpower_oracle as oracle
from bond_oracle import bond_gate, kron, mat_add, mat_mul, mat_scale
from helpers import (
    bond_gates,
    bond_sum,
    draw_q,
    evaluated,
    gate_sum,
    hamiltonian_apply,
    log_derivative_hamiltonian_apply,
    ring,
    state_from_str,
)

from bethelab.aba import (
    ModelParams,
    StateVector,
    apply_gates,
    magnetisation,
    renormalised_vector,
)
from bethelab import aba, cli, spinchain
from bethelab.field import RAT, HalfPowerPoly, brk
from bethelab.rmatrix import DOWN, UP, ZERO
from bethelab.spinchain import (
    NonIntegerCoefficient,
    beta_apply,
    distinguished_component_key,
    hamiltonian_apply_poly,
    homogeneous_consistency_check,
    singlet,
    singlet_norm,
    singlet_normalisation_audit,
    transfer1_zero_kernel_dimension,
    twisted_translation_apply,
)


def mat_comm(a, b):
    return [[x - y for x, y in zip(ra, rb)]
            for ra, rb in zip(mat_mul(a, b), mat_mul(b, a))]


def random_poly_vector(rng, n, terms=4):
    entries = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, 2) for _ in range(n))
        entries[key] = HalfPowerPoly.x_poly(
            [rng.randint(-3, 3) for _ in range(3)])
    return StateVector(n, entries)


def random_rational_vector(rng, n, terms=4):
    entries = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, 2) for _ in range(n))
        entries[key] = RAT(rng.randint(-5, 5), rng.randint(1, 5))
    return StateVector(n, entries)


# ---------------------------------------------------------------------
# spin operators and the gate
# ---------------------------------------------------------------------

ORACLE_RING = ring(RAT(2))


def doubled_spin_matrices(p):
    """sqrt(2) s^1, sqrt(2) s^2 and s^3 over the Gaussian rationals.

    Commutators rescale accordingly: [S1, S2] = 2i S3, [S2, S3] = i S1,
    [S3, S1] = i S2.
    """
    o, one, i = dense.coerce(p, 0), dense.coerce(p, 1), dense.unit_i(p)
    s1 = [[o, one, o], [one, o, one], [o, one, o]]
    s2 = [[o, -i, o], [i, o, -i], [o, i, o]]
    s3 = [[one, o, o], [o, o, o], [o, o, -one]]
    return s1, s2, s3


def gaussian_gate_oracle():
    """Rational 9x9 matrices (h0, h1, h2, t0, t1, t2): the bulk bond
    h0 + h1 x + h2 x^2 and the twisted boundary bond t0 + t1 x + t2 x^2,
    assembled over the Gaussian rationals from the doubled spin matrices
    with the boundary bond typed out on its own; the imaginary parts must
    cancel entrywise."""
    p = ORACLE_RING
    s1, s2, s3 = doubled_spin_matrices(p)
    half = p.sc(RAT(1, 2))
    eye = [[p.sc(int(i == j)) for j in range(3)] for i in range(3)]

    t_pair = {1: mat_scale(kron(s1, s1), half),
              2: mat_scale(kron(s2, s2), half),
              3: kron(s3, s3)}
    onsite = {1: mat_scale(kron(mat_mul(s1, s1), eye), half),
              2: mat_scale(kron(mat_mul(s2, s2), eye), half),
              3: kron(mat_mul(s3, s3), eye)}
    # (s^a s^b) (x) (s^a s^b) with the 1/sqrt(2) factors squared away
    fsq = {1: RAT(1, 2), 2: RAT(1, 2), 3: RAT(1)}
    quart = {}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            sab = mat_mul((s1, s2, s3)[a - 1], (s1, s2, s3)[b - 1])
            quart[(a, b)] = mat_scale(kron(sab, sab), p.sc(fsq[a] * fsq[b]))

    cross = mat_add(quart[(1, 3)], quart[(3, 1)], quart[(2, 3)], quart[(3, 2)])
    minus_one = p.sc(-1)
    # bulk: J3 = x^2/2 - 1, A13 = A23 = x - 1
    h0 = mat_add(t_pair[1], mat_scale(onsite[1], p.sc(2)),
                 t_pair[2], mat_scale(onsite[2], p.sc(2)),
                 mat_scale(t_pair[3], minus_one),
                 mat_scale(onsite[3], p.sc(-2)),
                 mat_scale(quart[(1, 1)], minus_one),
                 mat_scale(quart[(2, 2)], minus_one),
                 quart[(3, 3)],
                 mat_scale(quart[(1, 2)], minus_one),
                 mat_scale(quart[(2, 1)], minus_one),
                 cross)
    h1 = mat_scale(cross, minus_one)
    h2 = mat_add(mat_scale(t_pair[3], half), onsite[3],
                 mat_scale(quart[(3, 3)], p.sc(RAT(-1, 2))))
    # boundary: s^1, s^2 on the wrapped site flip sign
    t0 = mat_add(mat_scale(t_pair[1], minus_one),
                 mat_scale(onsite[1], p.sc(2)),
                 mat_scale(t_pair[2], minus_one),
                 mat_scale(onsite[2], p.sc(2)),
                 mat_scale(t_pair[3], minus_one),
                 mat_scale(onsite[3], p.sc(-2)),
                 mat_scale(quart[(1, 1)], minus_one),
                 mat_scale(quart[(2, 2)], minus_one),
                 quart[(3, 3)],
                 mat_scale(quart[(1, 2)], minus_one),
                 mat_scale(quart[(2, 1)], minus_one),
                 mat_scale(cross, minus_one))
    out = []
    for m in (h0, h1, h2, t0, cross, h2):
        out.append([[x.to_rat() for x in row] for row in m])
    return tuple(out)


def table_as_dense(table):
    """The 9x9 matrices of the coefficients of 1, x and x^2 of a bond
    table of int coefficient lists; checks each column's order."""
    dense = [[[0] * 9 for _ in range(9)] for _ in range(3)]
    for (li, ri), col in table.items():
        assert [(lo, ro) for lo, ro, _ in col] == sorted(
            (lo, ro) for lo, ro, _ in col)
        for lo, ro, w in col:
            assert len(w) == 3 and any(w)
            assert all(type(c) is int for c in w)
            for k, c in enumerate(w):
                dense[k][3 * lo + ro][3 * li + ri] = c
    return dense


def test_doubled_spin_commutators():
    p = ORACLE_RING
    s1, s2, s3 = doubled_spin_matrices(p)

    i = dense.unit_i(p)
    assert mat_comm(s1, s2) == mat_scale(s3, i + i)
    assert mat_comm(s2, s3) == mat_scale(s1, i)
    assert mat_comm(s3, s1) == mat_scale(s2, i)


def test_real_spin_matrices_reproduce_doubled_ones():
    # R_1 = S_1, i R_2 = S_2, R_3 = S_3; c_a = (S_a (x) S_a)/(2 R_a (x) R_a)
    # for a = 1, 2 and c_3 = 1
    p = ORACLE_RING
    real = [[[p.sc(c) for c in row] for row in m] for m in bond_oracle.SPIN]
    phases = (p.sc(1), p.i, p.sc(1))
    halves = (RAT(1, 2), RAT(1, 2), RAT(1))
    for r, phase, half, c2, s in zip(real, phases, halves, bond_oracle.C2,
                                     doubled_spin_matrices(p)):
        assert mat_scale(r, phase) == s
        assert (mat_scale(kron(s, s), p.sc(half))
                == mat_scale(kron(r, r), p.sc(RAT(c2, 2))))


def test_gate_assembly_is_real():
    h0, h1, h2, _, _, _ = gaussian_gate_oracle()
    gate = bond_gate()
    assert len(gate) == 3
    assert all(len(m) == 9 and all(len(r) == 9 for r in m) for m in gate)
    assert all(type(c) is int for m in gate for row in m for c in row)
    assert [mat_scale(m, RAT(1, 8)) for m in gate] == [h0, h1, h2]


def test_bulk_bond_table_is_the_gate():
    h0, h1, h2, _, _, _ = gaussian_gate_oracle()
    bulk, _ = spinchain._bond_tables()
    assert set(bulk) == {(li, ri) for li in range(3) for ri in range(3)}
    assert table_as_dense(bulk) == [h0, h1, h2]
    # the literal is the table the spin-matrix derivation gives, in order
    assert list(bulk.items()) == list(bond_oracle.bulk_table().items())


def test_boundary_bond_is_omega_conjugate():
    _, _, _, t0, t1, t2 = gaussian_gate_oracle()
    _, boundary = spinchain._bond_tables()
    assert set(boundary) == {(li, ri) for li in range(3) for ri in range(3)}
    assert table_as_dense(boundary) == [t0, t1, t2]


def test_bond_and_hamiltonian_make_no_halfpower_products(monkeypatch,
                                                         capsys):
    """The bond is summed on int matrices and H v runs on packed ints, so
    neither multiplies two HalfPowerPolys, and neither does the spin-chain
    suite of `verify` (the traced counter of such products stays at 0)."""
    calls = []
    mul = HalfPowerPoly.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(HalfPowerPoly, "__mul__", counting)
    monkeypatch.setattr(HalfPowerPoly, "__rmul__", counting)
    spinchain._bond_tables.__wrapped__()
    hamiltonian_apply_poly(singlet(4))
    assert cli.main(["verify", "--suite", "spinchain", "--n", "4"]) == 0
    assert '"pass": true' in capsys.readouterr().out
    assert calls == []
    HalfPowerPoly.const(2) * 3
    assert len(calls) == 1


def hamiltonian_dense(n: int, q):
    """H as an exact dense matrix on all 3^n states (small n only)."""
    basis = list(itertools.product((0, 1, 2), repeat=n))
    index = {key: i for i, key in enumerate(basis)}
    mat = [[RAT(0)] * len(basis) for _ in basis]
    for j, key in enumerate(basis):
        image = hamiltonian_apply(StateVector(n, {key: RAT(1)}), q)
        for k, val in image.entries.items():
            mat[index[k]][j] = val
    return mat


def test_hamiltonian_symmetric_small():
    for n, q in ((2, RAT(2)), (3, RAT(5, 3))):
        h = hamiltonian_dense(n, q)
        assert h == [list(col) for col in zip(*h)]


def test_hamiltonian_conserves_magnetisation():
    rng = random.Random(42)
    q = RAT(2)
    for _ in range(3):
        key = tuple(rng.randint(0, 2) for _ in range(3))
        v = StateVector(3, {key: RAT(1)})
        hv = hamiltonian_apply(v, q)
        assert all(magnetisation(k) == magnetisation(key)
                   for k in hv.entries)


def test_hamiltonian_commutes_with_twisted_translation():
    rng = random.Random(43)
    q = RAT(7, 4)
    for n in (2, 3):
        v = random_rational_vector(rng, n)
        a = twisted_translation_apply(hamiltonian_apply(v, q))
        b = hamiltonian_apply(twisted_translation_apply(v), q)
        assert a == b


# ---------------------------------------------------------------------
# beta and the singlet
# ---------------------------------------------------------------------

def packed_beta(v):
    """beta_apply on a vector of polynomials in x, packed at x = 2^bits as
    for the n-site singlet and unpacked again (small coefficients only):
    y^-1 beta(x) v, checked to be the oracle's beta(v) divided by y."""
    bits = spinchain._packed_rho(v.n)[1]
    got = oracle.x_unpacked(beta_apply(oracle.x_packed(v, bits)), bits)
    assert got == oracle.divided(oracle.beta(v), 1)
    return got


def test_beta_single_site():
    v = StateVector(1, {(UP,): HalfPowerPoly.const(1)})
    got = packed_beta(v)
    assert oracle.beta(v).entries == {(ZERO,): HalfPowerPoly((0, 1))}
    assert got.entries == {(ZERO,): HalfPowerPoly.const(1)}
    assert all(magnetisation(k) == 0 for k in got.entries)


def test_rho_action_on_up_down_pair():
    # rho(x) (|up> (x) |D>) = -|up D> + x^(1/2) |down 0>: one sweep on a
    # single-site chain starting from auxiliary 'up' cannot be read
    # directly, so check through the table of beta on |D>: the only
    # nonzero path flips the auxiliary at the site
    v = StateVector(1, {(DOWN,): HalfPowerPoly.const(1)})
    assert packed_beta(v).is_zero()  # D cannot be lowered
    w = StateVector(1, {(ZERO,): HalfPowerPoly.const(1)})
    got = packed_beta(w)
    assert oracle.beta(w).entries == {(DOWN,): HalfPowerPoly((0, 1))}
    assert got.entries == {(DOWN,): HalfPowerPoly.const(1)}
    assert all(magnetisation(k) == -1 for k in got.entries)


def test_beta_output_odd_support():
    """beta(x) maps polynomials in x to y times polynomials in x, so
    beta_apply's y^-1 beta(x) is exact."""
    rng = random.Random(44)
    for n in (2, 3):
        for _ in range(3):
            key = tuple(rng.randint(0, 2) for _ in range(n))
            v = StateVector(n, {key: HalfPowerPoly.const(1)})
            for val in oracle.beta(v).entries.values():
                assert oracle.is_odd_support(val)
            packed_beta(v)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_packed_singlet_and_norm_match_the_halfpower_path(n):
    phi = singlet(n)
    assert phi == oracle.singlet(n)
    assert singlet_norm(phi) == oracle.norm(phi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_singlet_coefficients_are_ints(n):
    """The packed digits are stored as they unpack: no Fraction is built
    for an integer coefficient."""
    phi = singlet(n)
    assert all(type(c) is int for p in phi.entries.values() for c in p.coeffs)
    assert all(type(c) is int for c in singlet_norm(phi).coeffs)
    assert phi == oracle.singlet(n)


def test_norm_of_rational_components():
    """The norm and H v take integer polynomials in x only: a rational
    coefficient or an odd power of y raises."""
    for p in (HalfPowerPoly((RAT(1, 2), 0, -3)), HalfPowerPoly((0, -2)),
              HalfPowerPoly((3, 0, 1, 5))):
        v = StateVector(2, {(UP, DOWN): HalfPowerPoly.x_poly([1, 2]),
                            (DOWN, UP): p})
        for apply in (singlet_norm, hamiltonian_apply_poly):
            with pytest.raises(NonIntegerCoefficient):
                apply(v)
    v = StateVector(2, {(UP, DOWN): HalfPowerPoly((RAT(4, 2), 0, -3))})
    assert singlet_norm(v) == oracle.norm(v) == \
        HalfPowerPoly.x_poly([4, -12, 9])
    assert singlet_norm(StateVector(2)) == HalfPowerPoly()


@pytest.mark.parametrize("value", [3, RAT(1, 2), RAT(4, 2)],
                         ids=["int", "fraction", "whole_fraction"])
def test_a_component_that_is_no_polynomial_raises(value):
    """An int or a rational component is not an integer polynomial in x
    either: the norm and H v raise NonIntegerCoefficient for it, as
    documented, and accept no wider input."""
    for v in (StateVector(2, {(UP, DOWN): value}),
              StateVector(2, {(UP, DOWN): HalfPowerPoly.x_poly([1, 2]),
                              (DOWN, UP): value})):
        for apply in (singlet_norm, hamiltonian_apply_poly):
            with pytest.raises(NonIntegerCoefficient):
                apply(v)


def test_x_ints_reads_whole_fractions_as_plain_ints():
    """A whole-fraction coefficient, alone or among ints, is read as its
    int: `field.pack` shifts ints, so the norm and H v of such a vector
    equal the oracle's.  The zero polynomial, which a StateVector does
    not store, and the empty vector have no components to read."""
    alone = HalfPowerPoly((RAT(4, 2),))
    mixed = HalfPowerPoly((RAT(4, 2), 0, -3, 0, RAT(-6, 3), 0, 5))
    assert all(type(c) is not int for c in alone.coeffs + mixed.coeffs[:1])
    v = StateVector(2, {(UP, DOWN): alone, (DOWN, UP): mixed,
                        (ZERO, ZERO): HalfPowerPoly.x_poly([1, 0, 2])})
    got = spinchain._x_ints(v)
    assert got == {(UP, DOWN): [2], (DOWN, UP): [2, -3, -2, 5],
                   (ZERO, ZERO): [1, 0, 2]}
    assert all(type(cs) is list and all(type(c) is int for c in cs)
               for cs in got.values())
    assert singlet_norm(v) == oracle.norm(v)
    assert hamiltonian_apply_poly(v) == oracle.hamiltonian(v)
    for empty in (StateVector(2, {(UP, DOWN): HalfPowerPoly()}),
                  StateVector(3)):
        assert spinchain._x_ints(empty) == {}
        assert singlet_norm(empty) == HalfPowerPoly()
        assert hamiltonian_apply_poly(empty) == StateVector(empty.n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_x_ints_of_the_singlet_are_its_x_coefficients(n):
    """The singlet's components hold ints only, so `_x_ints` takes each as
    it stands: its x coefficients, as plain int lists."""
    phi = singlet(n)
    got = spinchain._x_ints(phi)
    assert got == {key: list(p.x_coeffs()) for key, p in phi.entries.items()}
    assert all(type(c) is int for cs in got.values() for c in cs)


def test_h_on_the_singlet_decodes_no_zero(monkeypatch):
    """H annihilates the singlet, so `apply_gates` drops every image
    before `_decode`: H Phi is the empty vector for n = 2..7, and
    `_decode` is handed no code at all."""
    phis = [singlet(n) for n in range(2, 8)]  # swept, and decoded, first
    seen = []
    decode = aba._decode

    def recorded(n, codes):
        seen.append(dict(codes))
        return decode(n, codes)

    monkeypatch.setattr(aba, "_decode", recorded)
    for phi in phis:
        assert hamiltonian_apply_poly(phi) == StateVector(phi.n)
    assert seen == [{}] * 6


def test_singlet_guards_are_typed(monkeypatch):
    """An entry of 8 h(x) not divisible by 8 raises in the derivation of
    the bond table from spin matrices, the oracle of the literal."""
    hs = bond_gate()
    hs[1][3][1] += 4  # 8 h(x) would carry x/2 at <0U|h|U0>
    monkeypatch.setattr(bond_oracle, "bond_gate", lambda: hs)
    with pytest.raises(NonIntegerCoefficient):
        bond_oracle.bulk_table()


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
        coeffs = [0] * (4 * want.top() + 1)
        for k, c in enumerate(want.coeffs):
            coeffs[4 * k] = c
        assert norm == HalfPowerPoly(coeffs)


def test_singlet_normalisation_audit():
    # n = 1: the singlet {"0": 1} is A_0(x^2) = 1, the empty ASM
    for n in (1, 2, 3, 4, 5):
        report = singlet_normalisation_audit(singlet(n))
        assert report["pass"], report


def test_normalisation_audit_rejects_excess_degree():
    # m = 2 allows degree floor(1/4) = 0 in x^2; 2 + x^2 has degree 1
    phi, key = singlet(4), distinguished_component_key(4)
    bad = StateVector(4, {**phi.entries, key: HalfPowerPoly.x_poly([2, 0, 1])})
    report = singlet_normalisation_audit(bad)
    assert report["degree_ok"] is False
    assert report["pass"] is False


def test_normalisation_audit_compares_with_a_m_in_x():
    """matches_genpoly compares the distinguished component's coefficients
    in x with A_m(x^2), and with A_0 = 1 at m = 0."""
    assert singlet_normalisation_audit(singlet(1))["matches_genpoly"]
    key = distinguished_component_key(1)
    two = StateVector(1, {key: HalfPowerPoly.const(2)})
    assert singlet_normalisation_audit(two)["matches_genpoly"] is False
    phi, key = singlet(6), distinguished_component_key(6)
    assert singlet_normalisation_audit(phi)["matches_genpoly"]
    for x_coeffs in ([6, 0, 2], [6, 0, 1, 0, 1], [6, 1, 1]):
        bad = StateVector(6, {**phi.entries,
                              key: HalfPowerPoly.x_poly(x_coeffs)})
        assert singlet_normalisation_audit(bad)["matches_genpoly"] is False


def test_hamiltonian_annihilates_singlet_symbolic():
    for n in (2, 3, 4):
        assert hamiltonian_apply_poly(singlet(n)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_packed_hamiltonian_matches_the_halfpower_gates(n):
    """On random vectors whose image is not zero, so that a packed H that
    lost terms or returned zero fails."""
    rng = random.Random(49 + n)
    for terms in (1, 4, 9):
        v = random_poly_vector(rng, n, terms)
        want = oracle.hamiltonian(v)
        assert not want.is_zero()
        assert hamiltonian_apply_poly(v) == want


@pytest.mark.parametrize("ring_name", ["int", "fraction", "halfpower"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_one_pass_gates_match_the_bond_by_bond_sum(n, ring_name):
    """`aba.apply_gates` on the N bonds, the one pass of
    `hamiltonian_apply_poly`, against the oracle that applies each bond by
    `apply_two_site` on tuple keys and adds the images, on seeded random
    vectors in three rings.  At n = 2 the bulk bond acts on sites (1, 2)
    and the boundary bond on (2, 1)."""
    rng = random.Random(60 + n)
    x = {"int": 3, "fraction": RAT(-7, 3)}.get(ring_name)
    tables = [oracle.x_table(t) if x is None else evaluated(t, x)
              for t in spinchain._bond_tables()]

    def value():
        if ring_name == "int":
            return rng.randint(-9, 9)
        if ring_name == "fraction":
            return RAT(rng.randint(-9, 9), rng.randint(1, 9))
        return HalfPowerPoly.x_poly([rng.randint(-3, 3) for _ in range(3)])

    for terms in (1, 5, 60):
        v = StateVector(n, {tuple(rng.randint(0, 2) for _ in range(n)): value()
                            for _ in range(terms)})
        want = bond_sum(v, *tables)
        assert not want.is_zero()
        assert apply_gates(v, bond_gates(n, *tables)) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_gates_hands_decode_no_zero(n, monkeypatch):
    """`apply_gates` drops the zeros of its image before `_decode`: on
    seeded int vectors its N bonds equal the bond-by-bond `bond_sum`, one
    bulk bond and its negation on the same sites cancel to the empty
    vector, and the N bonds with that negation added equal `gate_sum`;
    no code `_decode` receives carries a zero."""
    rng = random.Random(3470 + n)
    bulk, boundary = (evaluated(t, 3) for t in spinchain._bond_tables())
    negated = {key: [(lo, ro, -x) for lo, ro, x in col]
               for key, col in bulk.items()}
    seen = []
    decode = aba._decode

    def recorded(n, codes):
        seen.append(dict(codes))
        return decode(n, codes)

    monkeypatch.setattr(aba, "_decode", recorded)
    for terms in (1, 5, 40):
        v = StateVector(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                            rng.choice((-1, 1)) * rng.randint(1, 9)
                            for _ in range(terms)})
        assert apply_gates(v, bond_gates(n, bulk, boundary)) == \
            bond_sum(v, bulk, boundary)
        assert apply_gates(v, [(bulk, 0, 1), (negated, 0, 1)]) == \
            StateVector(n)
        gates = bond_gates(n, bulk, boundary) + [(negated, 0, 1)]
        assert apply_gates(v, gates) == gate_sum(v, gates)
    assert len(seen) == 9 and {} in seen
    assert all(all(codes.values()) for codes in seen)


def test_packed_hamiltonian_on_wide_and_rational_coefficients():
    """Wide integer coefficients in x unpack exactly; a rational one
    raises."""
    rng = random.Random(50)
    for n in (2, 3, 4):
        for width in (10 ** 6, 10 ** 30):
            v = StateVector(n, {
                tuple(rng.randint(0, 2) for _ in range(n)):
                HalfPowerPoly.x_poly([rng.randint(-width, width)
                                      for _ in range(rng.randint(1, 6))])
                for _ in range(5)})
            want = oracle.hamiltonian(v)
            assert not want.is_zero()
            assert hamiltonian_apply_poly(v) == want
        with pytest.raises(NonIntegerCoefficient):
            hamiltonian_apply_poly(StateVector(n, {
                (UP,) * n: HalfPowerPoly.x_poly([RAT(1, 7)])}))


def test_hamiltonian_annihilates_singlet_numeric():
    rng = random.Random(45)
    for n in (2, 3):
        q = draw_q(rng)
        x = q + 1 / q
        phi = singlet(n)
        v = StateVector(n, {k: oracle.eval_x(p, x)
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

    for n in (2, 3):
        for key in product((0, 1, 2), repeat=n):
            if magnetisation(key) != 0:
                continue
            v = StateVector(n, {key: RAT(1)})
            w = v
            for _ in range(n):
                w = twisted_translation_apply(w)
            assert w == v


def test_log_derivative_matches_hamiltonian():
    rng = random.Random(46)
    for n in (2, 3):
        q = draw_q(rng)
        v = random_rational_vector(rng, n, terms=3)
        assert log_derivative_hamiltonian_apply(v, q) == \
            hamiltonian_apply(v, q)


def test_homogeneous_consistency():
    rng = random.Random(47)
    for n in (1, 2, 3, 4):
        q = draw_q(rng)
        assert homogeneous_consistency_check(n, q)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_singlet_is_n_single_row_beta_sweeps(n):
    """The one k-row `beta_apply` call of `singlet` against k calls of one
    row each, on the packed ints and after unpacking."""
    v = StateVector(n, {(UP,) * n: 1})
    for _ in range(n):
        v = beta_apply(v)
    assert beta_apply(StateVector(n, {(UP,) * n: 1}), n) == v
    assert singlet(n) == oracle.x_unpacked(v, spinchain._packed_rho(n)[1])


def with_coefficient(phi: StateVector, key, k: int, delta: int):
    """phi with delta added to the coefficient of x^k of one component,
    as a new vector (the memoised singlet is left as it is)."""
    cs = list(phi.entries[key].x_coeffs())
    cs += [0] * (k + 1 - len(cs))
    cs[k] += delta
    return StateVector(phi.n, {**phi.entries, key: HalfPowerPoly.x_poly(cs)})


def fraction_consistency(n: int, q) -> bool:
    """The regime check on rationals, the oracle of the int one: the
    renormalised vector at w = 1 against [q]^(N(N-1)/2) times the singlet
    evaluated at x = q + 1/q by Horner's scheme (`eval_x`)."""
    v = renormalised_vector(ModelParams(n, q, [RAT(1)] * n))
    ints, phi = v.rational().entries, spinchain.singlet(n)
    scale = brk(q) ** (n * (n - 1) // 2) * v.den
    return set(ints) == set(phi.entries) and all(
        ints[key] == scale * oracle.eval_x(p, q + 1 / q)
        for key, p in phi.entries.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_int_regime_check_matches_the_fraction_oracle(n, monkeypatch):
    """The int equation, the rational one times (ab)^(D+m), gives the
    rational check's answer at drawn q of both signs: true on the singlet,
    false on a singlet with one coefficient moved, one component's degree
    raised past D, or one component's sign flipped."""
    rng = random.Random(70 + n)
    phi = singlet(n)
    key = sorted(phi.entries)[rng.randrange(len(phi.entries))]
    top = len(phi.entries[key].x_coeffs())
    flipped = StateVector(n, {**phi.entries, key: -phi.entries[key]})
    for q in (draw_q(rng), -draw_q(rng)):
        assert homogeneous_consistency_check(n, q) is True
        assert fraction_consistency(n, q) is True
        for bad in (with_coefficient(phi, key, 0, 1),
                    with_coefficient(phi, key, top, -1), flipped):
            monkeypatch.setattr(spinchain, "singlet", lambda m, bad=bad: bad)
            assert homogeneous_consistency_check(n, q) is False
            assert fraction_consistency(n, q) is False
        monkeypatch.undo()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_singlet_coefficient_moved_by_one_fails_the_regime_check(
        n, monkeypatch):
    """The gate of the homogeneous-limit claim: each coefficient of each
    singlet component, moved by +1 or -1, makes the regime check fail."""
    rng = random.Random(80 + n)
    q = draw_q(rng)
    phi = singlet(n)
    assert homogeneous_consistency_check(n, q)
    for key, p in phi.entries.items():
        for k in range(len(p.x_coeffs())):
            for delta in (1, -1):
                bad = with_coefficient(phi, key, k, delta)
                monkeypatch.setattr(spinchain, "singlet", lambda m: bad)
                assert not homogeneous_consistency_check(n, q), (key, k, delta)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_a_planted_coefficient_in_the_singlet_raises(n, monkeypatch):
    """The singlet with one component given a non-integer coefficient, in
    x or on an odd power of y, raises NonIntegerCoefficient in the norm,
    in H v and in the regime check, which reads the singlet through
    `_x_ints` too."""
    rng = random.Random(90 + n)
    phi = singlet(n)
    key = sorted(phi.entries)[rng.randrange(len(phi.entries))]
    xs, ys = list(phi.entries[key].x_coeffs()), phi.entries[key].coeffs
    for bad in (HalfPowerPoly.x_poly([RAT(1, 2)] + xs[1:]),
                HalfPowerPoly.x_poly(xs[:-1] + [xs[-1] + RAT(1, 3)]),
                HalfPowerPoly(ys + (3,)),
                HalfPowerPoly((ys[0], RAT(-1, 7)) + ys[2:])):
        planted = StateVector(n, {**phi.entries, key: bad})
        for apply in (singlet_norm, hamiltonian_apply_poly):
            with pytest.raises(NonIntegerCoefficient):
                apply(planted)
        monkeypatch.setattr(spinchain, "singlet", lambda m, v=planted: v)
        with pytest.raises(NonIntegerCoefficient):
            homogeneous_consistency_check(n, RAT(7, 3))
        monkeypatch.undo()


def test_transfer1_kernel_dimension_is_one():
    rng = random.Random(48)
    for n in (2, 3):
        for _ in range(3):
            q = draw_q(rng)
            assert transfer1_zero_kernel_dimension(n, q) == 1


def test_distinguished_component_key():
    assert distinguished_component_key(4) == (UP, UP, DOWN, DOWN)
    assert distinguished_component_key(5) == (UP, UP, ZERO, DOWN, DOWN)
