import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bond_oracle
import dense_rmatrix_oracle as dense
import detform_oracle
from scalar_oracle import FourPart

from helpers import ring

from bethelab import linalg, rmatrix
from bethelab.aba import IrrationalWeight, ModelParams, rhat22_table
from bethelab.field import (
    RAT,
    PoleEncountered,
    SessionMismatch,
    brk,
    session_constant,
)
from bethelab.rmatrix import (
    DOWN,
    UP,
    ZERO,
    RMat,
    check_fusion_r22,
    check_ybe,
    crossing_transpose_check,
    inversion_check,
    magnetisation_pattern_check,
    permutation_check,
    r11,
    r12,
    r12_leading,
    r22,
    r_mn,
    rank_one_check,
    singlet_pair_vector,
)
from bethelab.spinchain import _RHO

Q = RAT(2)
P = ring(Q)


def is_symmetric(rmat) -> bool:
    """<lo ro|R|li ri> = <li ri|R|lo ro> for every stored weight."""
    return rmat.weights == {(li, ri, lo, ro): w for (lo, ro, li, ri), w
                            in rmat.weights.items()}


def test_r11_at_z_one():
    m = r11(1, Q)
    assert type(m.weights[0, 0, 0, 0]) is RAT
    assert m.weights[0, 0, 0, 0] == RAT(3, 2)  # [q] at q=2
    assert (0, 1, 0, 1) not in m.weights       # [1] = 0 is not stored
    assert m.weights[0, 1, 1, 0] == brk(Q)


def test_r11_symmetric_projector_point():
    # z = q: B P+ with B = diag([q^2], 2[q], 2[q], [q^2])
    m = r11(Q, Q)
    bq2 = brk(Q * Q)
    bq = brk(Q)
    assert m.weights[0, 0, 0, 0] == m.weights[1, 1, 1, 1] == bq2
    for out, in_ in itertools.product(((0, 1), (1, 0)), repeat=2):
        assert m.weights[(*out, *in_)] == bq
    # z = 1/q: (-2[q]) P-
    m = r11(1 / Q, Q)
    assert (0, 0, 0, 0) not in m.weights and (1, 1, 1, 1) not in m.weights
    assert m.weights[0, 1, 0, 1] == m.weights[1, 0, 1, 0] == -bq
    assert m.weights[0, 1, 1, 0] == m.weights[1, 0, 0, 1] == bq


def test_r12_flip_entry_is_s():
    # <up 0| R(z/q) |down U> = s for any z (the entry is constant); in the
    # gauge K = diag(1, s) the flips read 1 for 0 <- 1 and d for 1 <- 0
    z = RAT(7, 3)
    assert dense.r12(z / Q, P).entry(0, ZERO, 1, UP) == P.s
    m = r12(z / Q, Q)
    assert m.weights[0, ZERO, 1, UP] == m.weights[0, DOWN, 1, ZERO] == 1
    assert m.weights[1, UP, 0, ZERO] == m.weights[1, ZERO, 0, DOWN] == P.d
    assert all(type(w) is RAT for w in m.weights.values())


def test_r12_first_entry_at_inverse_q():
    # z = 1/q, q = 2: the (1,1) entry [q^2 z] = [q] = 3/2
    m = r12(1 / Q, Q)
    assert m.weights[0, UP, 0, UP] == RAT(3, 2)


def test_r12_symmetric():
    """K^-1 r12 K is symmetric: with K^2 = diag(1, d), <lo ro|r12|li ri>
    K^2[li] = <li ri|r12|lo ro> K^2[lo]."""
    k2 = (1, P.d)
    for zr in (RAT(3), RAT(5, 7), RAT(1, 4)):
        m = r12(zr, Q)
        assert not is_symmetric(m)
        assert {k: w * k2[k[2]] for k, w in m.weights.items()} == \
            {(li, ri, lo, ro): w * k2[li]
             for (lo, ro, li, ri), w in m.weights.items()}


def test_r22_is_symmetric_and_conserving():
    for zr in (RAT(3), RAT(4, 5)):
        assert is_symmetric(r22(zr, Q))
        assert magnetisation_pattern_check(zr, Q)


def test_r22_entry_from_weight_table():
    # <0 U| R(z) |U 0> = [q^2][qz]
    z = RAT(5, 3)
    m = r22(z, Q)
    assert m.weights[ZERO, UP, UP, ZERO] == dense.bq2(P) * dense.bqz(P, 1, z)
    assert m.weights[ZERO, ZERO, ZERO, ZERO] == \
        dense.bqz(P, 0, z) * dense.bqz(P, 1, z) + P.d


def test_r22_permutation_point():
    assert permutation_check(Q)


def test_r22_rank_one_point():
    assert rank_one_check(Q)
    # and the image is spanned by |s>
    m = r22(1 / Q, Q)
    s = singlet_pair_vector()
    assert m.weights[UP, DOWN, ZERO, ZERO] == -P.d * s[UP, DOWN]


def test_inversion_relation():
    rng = random.Random(11)
    for _ in range(3):
        z = RAT(rng.randint(2, 9), rng.randint(1, 9))
        if z * z == 1:
            continue
        assert inversion_check(z, Q)


def test_ybe_all_combinations_spec_point():
    z, w = RAT(3), RAT(5, 2)
    for m, n, p in itertools.product((1, 2), repeat=3):
        assert check_ybe(m, n, p, z, w, Q), (m, n, p)


def test_ybe_random_points():
    rng = random.Random(2718)
    for _ in range(3):
        q = RAT(rng.randint(2, 7), rng.randint(1, 3))
        if q * q == 1 or q == 0:
            continue
        z = RAT(rng.randint(1, 9), rng.randint(1, 9))
        w = RAT(rng.randint(1, 9), rng.randint(1, 9))
        if z == 0 or w == 0 or z == w:
            continue
        for m, n, p in itertools.product((1, 2), repeat=3):
            assert check_ybe(m, n, p, z, w, q), (m, n, p, q, z, w)


def test_fusion_generic_point():
    assert check_fusion_r22(RAT(3), Q)
    assert check_fusion_r22(RAT(7, 5), RAT(3, 2))


def test_fusion_at_permutation_and_rank_one_points():
    # z = 1 (upper block [q][q^2] P) and z = 1/q (upper block rank one)
    assert check_fusion_r22(RAT(1), Q)
    assert check_fusion_r22(RAT(1, 2), Q)


def test_crossing():
    assert crossing_transpose_check(RAT(3), Q)
    assert crossing_transpose_check(RAT(1, 3), Q)
    assert crossing_transpose_check(RAT(1, 2), Q)  # z = 1/q


def _identities_hold(q, z, w) -> bool:
    """The identity checks on the weights, at one point, cheapest first."""
    checks = [lambda: permutation_check(q), lambda: rank_one_check(q),
              lambda: inversion_check(z, q),
              lambda: crossing_transpose_check(z, q),
              lambda: check_fusion_r22(z, q)]
    checks += [lambda mnp=mnp: check_ybe(*mnp, z, w, q)
               for mnp in itertools.product((1, 2), repeat=3)]
    return all(check() for check in checks)


def _weight_mutants(builds, q):
    """(name, key, mutant) for each weight of each matrix: the mutant
    builds the matrix with one added to that one weight, so every call of
    the matrix is mutated alike."""
    for build in builds:
        for key in build(RAT(7, 3), q).weights:
            def mutant(u, q, build=build, key=key):
                m = build(u, q)
                return RMat(m.dim_left, m.dim_right,
                            {**m.weights, key: m.weights.get(key, 0) + 1})

            yield build.__name__, key, mutant


def _survivors(builds, holds, monkeypatch) -> list:
    """The weight mutants under which holds() is still true."""
    survivors = []
    for name, key, mutant in _weight_mutants(builds, RAT(2)):
        monkeypatch.setattr(rmatrix, name, mutant)
        if holds():
            survivors.append((name, key))
        monkeypatch.undo()
    return survivors


def test_every_weight_is_pinned_by_an_identity(monkeypatch):
    """One added to any one weight of r11, the gauged r12 or r22 breaks
    at least one identity."""
    q, z, w = RAT(2), RAT(3), RAT(5, 2)
    assert _identities_hold(q, z, w)
    assert _survivors((r11, r12, r22), lambda: _identities_hold(q, z, w),
                      monkeypatch) == []


@pytest.mark.parametrize("check, builds, count", [
    (check_fusion_r22, (r12, r22), 10 + 19),
    (crossing_transpose_check, (r12,), 10),
], ids=["fusion", "crossing"])
def test_each_weight_is_pinned_by_one_check_alone(check, builds, count,
                                                  monkeypatch):
    """Fusion by itself breaks under one added to any one weight of r12 or
    r22, and crossing under one added to any one weight of r12."""
    q, z = RAT(2), RAT(3)
    assert check(z, q)
    assert len(list(_weight_mutants(builds, q))) == count
    assert _survivors(builds, lambda: check(z, q), monkeypatch) == []


def _an_identity_fails(q, z, w) -> bool:
    """Whether one of the Yang-Baxter, inversion, fusion and crossing
    checks fails at one point."""
    checks = [lambda: inversion_check(z, q),
              lambda: crossing_transpose_check(z, q),
              lambda: check_fusion_r22(z, q)]
    checks += [lambda mnp=mnp: check_ybe(*mnp, z, w, q)
               for mnp in itertools.product((1, 2), repeat=3)]
    return not all(check() for check in checks)


def _corrupted(poly: dict):
    """The Laurent polynomial with the constant 1 added, and with each of
    its terms dropped in turn."""
    yield {**poly, (0, 0): poly.get((0, 0), 0) + 1}
    for term in poly:
        yield {e: c for e, c in poly.items() if e != term}


@pytest.mark.parametrize("name", ["R11", "R12", "R22"])
def test_every_corrupted_weight_of_the_description_breaks_an_identity(
        name, monkeypatch):
    """Each distinct weight of the description, corrupted in turn (a
    constant added, or one term dropped) at every entry that holds it,
    fails at least one of the Yang-Baxter, inversion, fusion and crossing
    checks: no wrong weight of the one table the matrices and the
    transition tables are read from goes unseen."""
    q, z, w = RAT(2), RAT(3), RAT(5, 2)
    assert not _an_identity_fails(q, z, w)
    dims, polys, keys = getattr(rmatrix, name)
    survivors, tried = [], 0
    for k, poly in enumerate(polys):
        for bad in _corrupted(poly):
            monkeypatch.setattr(rmatrix, name, (
                dims, [*polys[:k], bad, *polys[k + 1:]], keys))
            tried += 1
            if not _an_identity_fails(q, z, w):
                survivors.append((k, bad))
            monkeypatch.undo()
    assert tried == sum(len(poly) + 1 for poly in polys)
    assert survivors == []


@pytest.mark.parametrize("name", ["R11", "R12", "R22"])
def test_description_keys_are_ascending_and_in_the_pair_space(name):
    """An evaluation stores the description's keys as they stand, with no
    check or sort (`RMat._stored`), so each description lists its keys in
    ascending order, inside its pair space, each naming one of its
    weights; the matrices it gives equal the checked and sorted RMat of
    the same numerators, in order."""
    (dim_left, dim_right), polys, keys = getattr(rmatrix, name)
    assert list(keys) == sorted(keys)
    assert all(0 <= lo < dim_left and 0 <= li < dim_left
               and 0 <= ro < dim_right and 0 <= ri < dim_right
               for lo, ro, li, ri in keys)
    assert set(keys.values()) == set(range(len(polys)))
    build = getattr(rmatrix, name.lower())
    for z in (RAT(7, 3), RAT(-1), RAT(1, 2)):  # z = 1/q zeroes [qz]
        m = build(z, RAT(2))
        checked = RMat(m.dim_left, m.dim_right, m.numerators, m.den)
        assert list(m.numerators.items()) == \
            list(checked.numerators.items())
        assert all(m.numerators.values())


def test_bad_q_rejected():
    """`field.session_constant` rejects q = 0 and q^4 = 1, and with it
    ModelParams, the matrices with a spin-1 factor and every identity
    check on one; only the six-vertex r11 needs no d."""
    z, w = RAT(3), RAT(5, 2)
    for q in (1, -1, 0):
        for build in (session_constant, lambda q: ModelParams(1, q, [RAT(1)]),
                      lambda q: r12(z, q), lambda q: r22(z, q)):
            with pytest.raises(ValueError, match="q != 0 and q"):
                build(q)
    checks = [permutation_check, rank_one_check,
              lambda q: inversion_check(z, q),
              lambda q: crossing_transpose_check(z, q),
              lambda q: check_fusion_r22(z, q),
              lambda q: magnetisation_pattern_check(z, q)]
    checks += [lambda q, mnp=mnp: check_ybe(*mnp, z, w, q)
               for mnp in itertools.product((1, 2), repeat=3)
               if 2 in mnp]
    for q, check in itertools.product((1, -1), checks):
        with pytest.raises(ValueError, match="q != 0 and q"):
            check(q)
    assert check_ybe(1, 1, 1, z, w, 1)


def test_r21_checks_q_before_dividing_by_it():
    """R^(2,1)(z) = P r12(z/q) P checks q through `field.session_constant`
    before it divides z by q: at q = 0 the matrix and the Yang-Baxter
    check it opens raise that ValueError, not a bare ZeroDivisionError."""
    with pytest.raises(ValueError, match="q != 0 and q"):
        r_mn(2, 1, 3, 0)
    with pytest.raises(ValueError, match="q != 0 and q"):
        check_ybe(2, 1, 1, 3, 5, 0)


@pytest.mark.parametrize("u", [RAT(3), RAT(-2, 7)])
def test_leading_tables_are_the_leading_parts_of_r12(u):
    """Key by key, each diagonal weight [c u] of r12 is L_inf(u) t +
    L_zero(u) / t at t u, for its leading parts L_inf = c u and L_zero =
    -1/(c u): t (r12(t u) - t L_inf(u)) = L_zero(u), and the same toward 0,
    at two values of t.  The leading tables hold the diagonal keys alone,
    so every flip has a leading part of 0."""
    inf = r12_leading(u, Q, True).weights
    zero = r12_leading(u, Q, False).weights
    diagonal = {k for k in r12(u, Q).weights if k[:2] == k[2:]}
    assert len(diagonal) == 6 and set(inf) == set(zero) == diagonal
    for key, t in itertools.product(sorted(diagonal), (RAT(5), RAT(-3, 11))):
        assert t * (r12(t * u, Q).weights[key] - t * inf[key]) == zero[key]
        assert t * (r12(u / t, Q).weights[key] - t * zero[key]) == inf[key]


def test_zero_spectral_parameter_is_a_pole_of_check_ybe():
    """z / w is z * inv(w): a zero on either side is a bracket of zero or
    the inverse of zero, for every combination of spins."""
    for mnp in itertools.product((1, 2), repeat=3):
        for z, w in ((0, RAT(3)), (RAT(3), 0)):
            with pytest.raises(PoleEncountered):
                check_ybe(*mnp, z, w, Q)


def test_identity_checks_take_q_in_any_rational_form():
    """Every identity check, like every R-matrix, takes q and the spectral
    parameters as anything `as_rat` reads: an int, "p/q" or a rational."""
    assert _identities_hold(2, "3", RAT(5, 2))
    assert _identities_hold("2/1", 3, "5/2")


def test_shape_guards_raise():
    with pytest.raises(ValueError):
        RMat(2, 3, r22(RAT(3), Q).weights)  # spin-1 left factor
    with pytest.raises(ValueError):
        r12(RAT(3), Q).braided()  # factors C^2 and C^3
    with pytest.raises(ValueError):
        bond_oracle.mat_mul([[P.sc(1)] * 2], [[P.sc(1)] * 2])  # 1x2, 1x2


def test_coerce_rejects_a_scalar_of_another_session():
    """The R-matrices read rationals only; a Scalar spectral parameter is
    read by `ModelParams.rat`, which rejects one of another session."""
    other = ring(RAT(3))
    for build in (r11, r12, r22):
        with pytest.raises(TypeError):
            build(P.sc(RAT(5)), Q)
    with pytest.raises(SessionMismatch):
        P.rat(other.sc(RAT(5)))


def test_rat_takes_a_rational_spectral_parameter():
    for z, want in ((3, RAT(3)), ("3/4", RAT(3, 4)), (RAT(3, 4), RAT(3, 4)),
                    (P.sc(RAT(3, 4)), RAT(3, 4))):
        got = P.rat(z)
        assert type(got) is RAT and got == want
    for unit in (P.s, P.i, P.s * P.i):
        with pytest.raises(IrrationalWeight):
            P.rat(RAT(3, 4) * unit)
    with pytest.raises(SessionMismatch):
        P.rat(ring(RAT(3)).sc(RAT(3, 4)))


def _cofactor(a):
    if len(a) == 1:
        return a[0][0]
    acc = 0
    for j in range(len(a)):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * _cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _cleared(m):
    """(ints, factor): each row of a rational matrix times the product of
    its entries' denominators, and the product of those row factors."""
    factors = [prod(x.denominator for x in row) for row in m]
    return [[int(x * f) for x in row] for row, f in zip(m, factors)], prod(
        factors)


def test_bareiss_determinant_matches_cofactor():
    """On random rational matrices cleared to ints row by row, where the
    int determinant over the product of the row factors is the rational
    one; with FourPart entries through the oracle's Bareiss over a field;
    on a matrix whose zero leading pivot forces a row swap, and on two
    singular ones."""
    rng = random.Random(5)
    mats = [[[RAT(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)] for n in (2, 3, 4)]
    mats.append([[RAT(0), RAT(2), RAT(1)], [RAT(3, 2), RAT(1), RAT(-1)],
                 [RAT(1), RAT(5), RAT(2, 3)]])
    for rows in ([[1, 2, 3], [2, 4, 6], [-1, RAT(1, 2), 7]],
                 [[1, 2, 3], [2, 4, 5], [3, 6, 1]]):  # no pivot in column 2
        mats.append([[RAT(x) for x in row] for row in rows])
    dets = []
    for m in mats:
        want = _cofactor(m)
        ints, factor = _cleared(m)
        got = linalg.det_bareiss(ints)
        assert type(got) is int and RAT(got, factor) == want
        dets.append(RAT(got, factor))
        got = detform_oracle.det_bareiss([[FourPart(x, d=P.d) for x in row]
                                          for row in m])
        assert isinstance(got, FourPart) and got == want
    assert dets[-3:] == [RAT(5, 2), 0, 0]


# ---------------------------------------------------------------------
# the sparse weights against the dense grids they replaced


@st.composite
def sessions_and_points(draw):
    """The parameters of a valid rational q, and a nonzero rational z that
    is often 1, q or 1/q, where some weights vanish."""
    q = RAT(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
    try:
        p = ring(q)
    except ValueError:  # q^4 = 1, or [q][q^2] a square in Q(i)
        assume(False)
    z = draw(st.one_of(
        st.sampled_from([RAT(1), q, 1 / q, q * q, 1 / (q * q)]),
        st.builds(RAT, st.integers(-12, 12).filter(bool),
                  st.integers(1, 12))))
    return p, z


def _dense_pairs(p, z):
    """(sparse, K ref K^-1) for every sparse operator and its dense
    reference, K = diag(1, s) on each spin-1/2 factor of r11, r12 and r21
    and the identity on a spin-1 factor; a right partial transpose turns
    the gauge of its factor into K^-1."""
    def gauged(ref, pl, pr):
        return ref.gauged(dense.gauge_units(p, ref.dim_left, pl),
                          dense.gauge_units(p, ref.dim_right, pr))

    pairs = [(r11(z, p.q), dense.r11(z, p), 1, 1),
             (r12(z, p.q), dense.r12(z, p), 1, 1),
             (r22(z, p.q), dense.r22(z, p), 1, 1),
             (r_mn(2, 1, z, p.q), dense.r21(z, p), 1, 1)]
    pairs += [(sparse.swapped(), ref.swapped(), pr, pl)
              for sparse, ref, pl, pr in pairs[:3]]
    pairs += [(sparse.transpose_right(), ref.transpose_right(), pl, -pr)
              for sparse, ref, pl, pr in pairs[:4]]
    pairs += [(sparse.braided(), ref.braided(), pl, pr)
              for sparse, ref, pl, pr in (pairs[0], pairs[2])]
    return [(sparse, gauged(ref, pl, pr)) for sparse, ref, pl, pr in pairs]


def _rho_from_the_oracle(p):
    """K rho K^-1, K = diag(1, y), as `spinchain._RHO` writes it,
    from the ungauged FourPart r12(1/q): a bracket weight w is [w/[q]], a
    flip w = b s is [0, b] where it raises the auxiliary index, else [b]."""
    table = {}
    for (ai, si), col in dense.r12(1 / p.q, p).column_map().items():
        table[ai, si] = [
            (ao, so, [(w / dense.bq(p)).to_rat()] if ao == ai
             else [0, (w / p.s).to_rat()] if ao > ai
             else [(w / p.s).to_rat()]) for ao, so, w in col]
    return table


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(sessions_and_points())
def test_sparse_weights_match_the_dense_grids(point):
    """The sparse rational weights are K R K^-1 of the dense FourPart
    grids, entry by entry and column by column, and the gauged rho of
    `spinchain` is the one every session's ungauged r12(1/q) gives."""
    p, z = point
    for sparse, ref in _dense_pairs(p, z):
        assert (sparse.dim_left, sparse.dim_right) == \
            (ref.dim_left, ref.dim_right)
        for lo, li in itertools.product(range(ref.dim_left), repeat=2):
            for ro, ri in itertools.product(range(ref.dim_right), repeat=2):
                assert p.sc(sparse.weights.get((lo, ro, li, ri), 0)) == \
                    ref.entry(lo, ro, li, ri), (lo, ro, li, ri)
        assert all(sparse.weights.values())
        assert all(type(w) is RAT for w in sparse.weights.values())
        # same columns, same weights (the table's ints over den), in the
        # same order
        assert [(key, [(lo, ro, p.sc(RAT(x, sparse.den)))
                       for lo, ro, x in col])
                for key, col in sparse.column_map().items()] == \
            list(ref.column_map().items())
    assert _rho_from_the_oracle(p) == _RHO


def _grid():
    """(session, z) on a seeded grid: q of both signs, z of both signs
    drawn at random, and every z where a bracket of some weight vanishes,
    z = +-1, +-1/q, +-1/q^2 and +-q, so that zero weights are dropped."""
    rng = random.Random(30)
    for q in (RAT(2), RAT(-3, 2), RAT(5, 7), RAT(-4, 9)):
        p = ring(q)
        yield from ((p, s * x) for s in (1, -1)
                    for x in (RAT(1), 1 / q, 1 / (q * q), q))
        yield from ((p, RAT(rng.choice((1, -1)) * rng.randint(1, 40),
                             rng.randint(1, 40))) for _ in range(4))


def _lowest_ints(rmat) -> bool:
    """Int numerators over a positive denominator D with gcd(D,
    numerators) = 1, so that D is their least common denominator."""
    return (type(rmat.den) is int and rmat.den > 0
            and all(type(x) is int for x in rmat.numerators.values())
            and gcd(rmat.den, *rmat.numerators.values()) == 1)


def _tabled(p, table, den) -> list:
    """A transition table of ints over den as the ring's scalars."""
    return [(key, [(lo, ro, p.sc(RAT(x, den))) for lo, ro, x in col])
            for key, col in table.items()]


def test_description_matches_the_dense_oracle_on_a_grid():
    """r11, r12, r21, r22 and the braided r22 evaluated from the weight
    description, with their swaps and partial transposes, equal K R K^-1
    of the dense FourPart grids: the rational weights, and the int
    numerators over their least denominator D, column by column; so do
    the transition tables that `aba` memoises."""
    cases = 0
    for p, z in _grid():
        for sparse, ref in _dense_pairs(p, z):
            want = {(lo, ro, li, ri): x
                    for (li, ri), col in ref.column_map().items()
                    for lo, ro, x in col}
            assert {k: p.sc(w) for k, w in sparse.weights.items()} == want
            assert _lowest_ints(sparse)
            assert _tabled(p, sparse.column_map(), sparse.den) == \
                list(ref.column_map().items())
            cases += 1
        gauged12 = dense.r12(z, p).gauged(dense.gauge_units(p, 2, 1),
                                          dense.gauge_units(p, 3, 1))
        u = z.as_integer_ratio()
        for (table, den), ref in ((p.r12_table(u), gauged12),
                                  (p.r22_table(u), dense.r22(z, p)),
                                  (rhat22_table(u, p),
                                   dense.r22(z, p).braided())):
            assert den > 0 and gcd(den, *(x for col in table.values()
                                          for *_, x in col)) == 1
            assert _tabled(p, table, den) == list(ref.column_map().items())
    assert cases == 48 * 13


@pytest.mark.parametrize("build", [
    r12, lambda z, q: r_mn(2, 1, z, q), r22,
    lambda z, q: r12_leading(z, q, True),
    lambda z, q: r12_leading(z, q, False),
], ids=["r12", "r21", "r22", "r12_leading_inf", "r12_leading_zero"])
def test_description_poles_and_bad_q(build):
    """z = 0 is a bracket of zero, a pole of every matrix with a spin-1
    factor, and q = 0, 1 and -1 (q^4 = 1) raise the ValueError of
    `field.session_constant`; the six-vertex r11 reads no d, so there
    z = 0 and q = 0 are both brackets of zero."""
    with pytest.raises(PoleEncountered, match="bracket of zero"):
        build(0, Q)
    for q in (0, 1, -1):
        with pytest.raises(ValueError, match="q != 0 and q"):
            build(RAT(3), q)
    for z, q in ((0, Q), (RAT(3), 0)):
        with pytest.raises(PoleEncountered, match="bracket of zero"):
            r11(z, q)
