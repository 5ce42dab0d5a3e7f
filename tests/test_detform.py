import random

import pytest

import dense_rmatrix_oracle as dense
import detform_oracle as oracle
from detform_oracle import f_fn, g_fn
from helpers import draw_q, draw_w, draw_distinct, eval_at

from bethelab import aba, detform
from bethelab.aba import (
    ModelParams,
    monodromy_apply,
    transfer1_apply,
    vacuum,
)
from bethelab.asm import dwbc_partition_brute
from bethelab.detform import (
    brute_scalar_product,
    ik_determinant,
    ik_or_asm_sum,
    partition_Z,
    partition_Z_via_ik,
    scalar_product_reduction_rhs,
    simple_component_direct,
    simple_component_even,
    simple_component_odd,
    slavnov,
)
from bethelab.field import RAT, PoleEncountered, Scalar, brk
from bethelab.rmatrix import DOWN


def draw_params(rng, n):
    q = draw_q(rng)
    return ModelParams(n, q, draw_w(rng, n, q))


def draw_zeta(rng, params):
    # distinct from each other and from every w (the g-division poles)
    avoid = set(params.w) | {-x for x in params.w}
    return draw_distinct(rng, params.n, avoid=avoid)


# ---------------------------------------------------------------------
# f and g
# ---------------------------------------------------------------------

def test_f_example():
    assert f_fn(RAT(2), RAT(1), RAT(2)) == 0  # numerator [q w/z] = [1]


def test_g_example():
    assert g_fn(RAT(1), RAT(2), RAT(2)) == 1  # [q]/[2] = 1 at q = 2


def test_fg_pole():
    with pytest.raises(PoleEncountered):
        f_fn(RAT(3), RAT(3), RAT(2))
    with pytest.raises(PoleEncountered):
        g_fn(RAT(3), RAT(-3), RAT(2))


def test_f_product_generic():
    # f(z, w) f(w, z) = -[q w/z][q z/w] / [w/z]^2 = -(91/30)(11/30)/(16/15)^2
    q, z, w = RAT(2), RAT(3), RAT(5)
    val = f_fn(z, w, q) * f_fn(w, z, q)
    assert val == RAT(-1001, 1024)
    assert val == -brk(q * w / z) * brk(q * z / w) / brk(w / z) ** 2


# ---------------------------------------------------------------------
# Slavnov's formula
# ---------------------------------------------------------------------

def test_slavnov_n1_explicit():
    # S_1 = [q][q^2] independently of zeta (single flip in and out)
    p = ModelParams(1, RAT(2), [RAT(1)])
    for z in (RAT(3), RAT(7, 2)):
        got = slavnov([p.sc(p.w[0])], [p.sc(z)], p)
        assert got == dense.bq(p) * dense.bq2(p)
        assert got == brute_scalar_product([p.sc(p.w[0])], [p.sc(z)], p)


def test_slavnov_matches_operator_oracle():
    rng = random.Random(616)
    for n in (1, 2, 3, 4):
        p = draw_params(rng, n)
        zeta = draw_zeta(rng, p)
        roots = [p.sc(w) for w in p.w]
        zs = [p.sc(z) for z in zeta]
        assert slavnov(roots, zs, p) == brute_scalar_product(roots, zs, p)


def test_slavnov_reduction_to_ik():
    rng = random.Random(617)
    for n in (1, 2, 3, 4):
        p = draw_params(rng, n)
        zeta = draw_zeta(rng, p)
        roots = [p.sc(w) for w in p.w]
        zs = [p.sc(z) for z in zeta]
        assert slavnov(roots, zs, p) == scalar_product_reduction_rhs(zeta, p)


# ---------------------------------------------------------------------
# Izergin-Korepin determinant
# ---------------------------------------------------------------------

@pytest.mark.parametrize("zeta0, message", [
    (RAT(3), "f(z, w) has a pole at w = +-z"),  # zeta_1 = w_1
    (RAT(15, 2), "d(zeta_k) = 0"),  # zeta_1 = q w_1
])
def test_slavnov_pole_messages(zeta0, message):
    """The first pole met, f's at zeta_k = +-w_j or d's at zeta_k =
    +-q w_j, names itself."""
    p = ModelParams(3, RAT(5, 2), [RAT(3), RAT(7, 5), RAT(11, 4)])
    roots = [p.sc(x) for x in p.w]
    zeta = [p.sc(z) for z in (zeta0, RAT(13, 3), RAT(17, 6))]
    with pytest.raises(PoleEncountered) as err:
        slavnov(roots, zeta, p)
    assert str(err.value) == message


def test_slavnov_zero_divisor_f():
    """At zeta_1 = w_1 / q the factor f(w_1, zeta_1) = [1] / [1/q] that the
    formula divides by is zero."""
    p = ModelParams(3, RAT(5, 2), [RAT(3), RAT(7, 5), RAT(11, 4)])
    zeta = [RAT(6, 5), RAT(13, 3), RAT(17, 6)]
    with pytest.raises(PoleEncountered) as err:
        slavnov(p.w, zeta, p)
    assert str(err.value) == "inverse of zero scalar"


def test_ik_n1_is_c_weight():
    p = ModelParams(1, RAT(2), [RAT(3)])
    assert ik_determinant([RAT(7)], [RAT(3)], p) == dense.bq2(p)


def test_ik_matches_brute():
    rng = random.Random(618)
    for n in (1, 2, 3, 4):
        p = draw_params(rng, n)
        zeta = draw_distinct(rng, n)
        w = draw_distinct(rng, n, avoid=zeta)
        got = ik_determinant(zeta, w, p)
        assert got == dwbc_partition_brute(zeta, w, p.q)


def test_ik_symmetric_in_each_family():
    rng = random.Random(619)
    p = draw_params(rng, 3)
    zeta = list(draw_distinct(rng, 3))
    w = list(draw_distinct(rng, 3, avoid=zeta))
    base = ik_determinant(zeta, w, p)
    zeta2 = [zeta[1], zeta[0], zeta[2]]
    w2 = [w[0], w[2], w[1]]
    assert ik_determinant(zeta2, w, p) == base
    assert ik_determinant(zeta, w2, p) == base


def test_ik_coincident_raises_and_fallback_agrees():
    p = ModelParams(2, RAT(2), [RAT(3), RAT(5)])
    with pytest.raises(PoleEncountered, match="inverse of zero scalar"):
        ik_determinant([RAT(3), RAT(3)], [RAT(3), RAT(5)], p)
    got = ik_or_asm_sum([RAT(3), RAT(3)], [RAT(3), RAT(5)], p)
    assert got == dwbc_partition_brute([RAT(3), RAT(3)], [RAT(3), RAT(5)],
                                       p.q)


# ---------------------------------------------------------------------
# partition function sum rule
# ---------------------------------------------------------------------

def test_partition_n1_is_one():
    p = ModelParams(1, RAT(2), [RAT(4, 7)])
    assert partition_Z(p) == p.sc(1)


def test_partition_matches_ik_route():
    rng = random.Random(620)
    for n in (1, 2, 3, 4):
        p = draw_params(rng, n)
        assert partition_Z(p) == partition_Z_via_ik(p)


def test_partition_builds_its_vectors_once(monkeypatch):
    """The vectors at w and at 1/w are memoised on params: three sums make
    the two Bethe vectors' monodromy sweeps once."""
    from bethelab import aba

    calls = []
    apply = aba.monodromy_apply

    def counting(*args):
        calls.append(args[0])
        return apply(*args)

    monkeypatch.setattr(aba, "monodromy_apply", counting)
    p = draw_params(random.Random(627), 4)
    values = [partition_Z(p) for _ in range(3)]
    assert values[0] == values[1] == values[2] == partition_Z_via_ik(p)
    assert calls == ["B", "B"]


def test_partition_homogeneous_sum_rule():
    # w = 1: Z = A_N(x^2) since psi~ = [q]^(N(N-1)/2) Phi and the square
    # norm of Phi is the ASM generating polynomial at t = x^2
    from bethelab.asm import gen_poly

    for n in (1, 2, 3):
        q = RAT(2)
        p = ModelParams(n, q, [RAT(1)] * n)
        x = q + 1 / q
        want = brk(q) ** (n * (n - 1)) * eval_at(gen_poly(n), x * x)
        assert partition_Z(p) == p.sc(want)


# ---------------------------------------------------------------------
# simple components
# ---------------------------------------------------------------------

def test_simple_component_even_matches_direct():
    rng = random.Random(621)
    for n in (2, 4):
        p = draw_params(rng, n)
        assert simple_component_even(p) == simple_component_direct(p)


def test_simple_component_odd_matches_direct():
    rng = random.Random(622)
    for n in (1, 3, 5):
        p = draw_params(rng, n)
        assert simple_component_odd(p) == simple_component_direct(p)


def test_simple_component_odd_n3_closed_form():
    rng = random.Random(623)
    p = draw_params(rng, 3)
    w = p.w
    want = p.sc(brk(p.q) * brk(p.q * w[1] / w[0]) * brk(p.q * w[2] / w[1]))
    # psi~_{U0D} = [q][q w2/w1][q w3/w2]; the closed form uses the
    # rearrangement [q w2/w1][q w3/w2] -> [q w2/w1][q w3/w2]
    assert simple_component_direct(p) == want
    assert simple_component_odd(p) == want


def test_simple_component_homogeneous_values():
    # w = 1: the component equals [q]^(N(N-1)/2) A_{N//2}(x^2)
    q = RAT(2)
    x = q + 1 / q
    from bethelab.asm import gen_poly

    for n in (2, 3, 4, 5):
        p = ModelParams(n, q, [RAT(1)] * n)
        got = simple_component_even(p) if n % 2 == 0 else \
            simple_component_odd(p)
        expect = p.sc(brk(q) ** (n * (n - 1) // 2)
                      * eval_at(gen_poly(n // 2), x * x))
        assert got == expect
        assert got == simple_component_direct(p)


def component_from_b_reduction(params):
    """System-size reduction of the even simple component: the length-n
    matrix element

        <all-down| prod_{j=1..2n} B(w_j | w_{n+1}..w_{2n}) |all-up>

    times prod_{j,k<=n} [w_j/(q w_k)] / ( ([q][q^2])^n prod_{j<k} [q w_j/w_k] ).
    """
    n = params.n // 2
    w = params.w
    small = ModelParams(n, params.q, w[n:])
    v = vacuum(small)
    for z in w:
        v = monodromy_apply("B", small.sc(z), small, v)
    amp = RAT(v.rational().entries.get((DOWN,) * n, 0), v.den)
    num = RAT(1)
    for j in range(2 * n):
        for k in range(n):
            num = num * brk(w[j] / (params.q * w[k]))
    den = (brk(params.q) * brk(params.q * params.q)) ** n
    for j in range(2 * n):
        for k in range(j + 1, 2 * n):
            den = den * brk(params.q * w[j] / w[k])
    return num / den * amp


def test_component_from_b_reduction():
    rng = random.Random(624)
    for n in (2, 4):
        p = draw_params(rng, n)
        assert component_from_b_reduction(p) == simple_component_direct(p)


# ---------------------------------------------------------------------
# orthogonality structure
# ---------------------------------------------------------------------

def test_orthogonality_on_ik_variety():
    # frozen rational point of the N=2 variety Z_IK(zeta; w) = 0 (found by
    # an exact grid search over small rationals): the off-shell state at
    # this zeta is orthogonal to the Bethe state, through every route and
    # through the Fraction oracle
    p = ModelParams(2, RAT(2), [RAT(1), RAT(1, 5)])
    zeta = [RAT(2, 9), RAT(31, 82)]
    roots = [p.sc(w) for w in p.w]
    zs = [p.sc(z) for z in zeta]
    assert ik_determinant(zeta, p.w, p) == 0
    assert slavnov(roots, zs, p) == 0
    assert brute_scalar_product(roots, zs, p) == 0
    assert scalar_product_reduction_rhs(zeta, p) == 0
    assert oracle.slavnov(roots, zs, p) == oracle.ik_determinant(
        zeta, p.w, p) == 0


def test_left_kernel_orthogonality():
    # <psi~(1/w)| is a left zero-eigenvector of T1, so it annihilates the
    # image of T1: every other transfer eigenvector is orthogonal to the
    # Bethe state.
    from scalar_oracle import FourPart, model

    from bethelab.aba import StateVector, renormalised_vector

    rng = random.Random(625)
    for n in (2, 3):
        p = draw_params(rng, n)
        inv = p.with_w(tuple(1 / x for x in p.w))
        bra = renormalised_vector(inv)
        for _ in range(3):
            entries = {tuple(rng.randint(0, 2) for _ in range(n)):
                       RAT(rng.randint(-5, 5), rng.randint(1, 5))
                       for _ in range(4)}
            u = model(StateVector(n, entries), p)
            z = p.sc(RAT(rng.randint(1, 30), rng.randint(1, 30)))
            tu = transfer1_apply(z, p, u)
            acc = FourPart(0, d=p.d)
            for key, val in tu.entries.items():
                other = bra.entries.get(key)
                if other is not None:
                    acc = acc + val * other
            assert acc.is_zero()


# ---------------------------------------------------------------------
# the closed forms run on rationals
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5])
def test_closed_forms_make_no_scalar_products(n, monkeypatch):
    """The vacuum eigenvalues, theta2, the determinants, the DWBC oracle
    and the sum-rule and simple-component closed forms compute on ints and
    rationals only, and no Scalar product, power or inverse runs.  Each runs
    once first, so that the renormalised vectors the sum rule pairs are
    built, and memoised, outside the count: `aba` builds them, and each of
    its rescalings multiplies the vector's unit by a Scalar (one product)."""
    from bethelab.aba import theta2, vacuum_pair

    rng = random.Random(626 + n)
    p = draw_params(rng, n)
    zeta = draw_zeta(rng, p)
    coincident = (zeta[0],) + zeta[:-1]
    simple = simple_component_even if n % 2 == 0 else simple_component_odd
    runs = [lambda: theta2(zeta[0], p), lambda: vacuum_pair(zeta[0], 1, p),
            lambda: vacuum_pair(zeta[0], -1, p),
            lambda: slavnov(p.w, zeta, p),
            lambda: ik_determinant(zeta, p.w, p),
            lambda: ik_or_asm_sum(zeta, p.w, p),
            lambda: ik_or_asm_sum(coincident, p.w, p),
            lambda: dwbc_partition_brute(zeta, p.w, p.q),
            lambda: partition_Z(p), lambda: partition_Z_via_ik(p),
            lambda: simple(p)]
    for run in runs:
        run()
    calls = []

    def counted(name):
        op = getattr(Scalar, name)

        def wrapper(*args):
            calls.append(name)
            return op(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "__pow__", "inv"):
        monkeypatch.setattr(Scalar, name, counted(name))
    values = [run() for run in runs]
    assert calls == []
    assert not any(isinstance(v, Scalar) for v in values)


# ---------------------------------------------------------------------
# the int-pair formulas against the Fraction oracle
# ---------------------------------------------------------------------

SLAVNOV_POLES = {"bracket of zero spectral parameter",
                 "g(z, w) has a pole at w = +-z",
                 "f(z, w) has a pole at w = +-z",
                 "d(zeta_k) = 0", "inverse of zero scalar"}


def signed_rat(rng, low, top):
    """A rational of either sign, numerator in low..top, denominator in
    1..top."""
    return RAT(rng.choice((-1, 1)) * rng.randint(low, top),
               rng.randint(1, top))


def signed_draws(n, count=60):
    """count seeded (params, zeta, roots) at N = n: q, w and zeta of either
    sign, and off-shell roots for the algebraic identity of Slavnov's
    formula.  Every other draw takes numerators and denominators up to 7,
    and zeta and the roots sometimes 0, so that it often meets a pole; the
    rest take them up to 60, and rarely do."""
    rng = random.Random(700 + n)
    draws = []
    while len(draws) < count:
        top, low = (7, 0) if len(draws) % 2 else (60, 1)
        q = signed_rat(rng, 1, top)
        w = [signed_rat(rng, 1, top) for _ in range(n)]
        if q * q == 1:
            continue
        zeta = [signed_rat(rng, low, top) for _ in range(n)]
        roots = [signed_rat(rng, low, top) for _ in range(n)]
        draws.append((ModelParams(n, q, w), zeta, roots))
    return draws


def outcome(fn):
    """fn()'s value, or the class and message of the pole it raised."""
    try:
        return fn()
    except PoleEncountered as exc:
        return type(exc).__name__, str(exc)


def _routes(p, zeta, roots):
    """(name, args) of every determinant route: Slavnov's formula at roots
    = w and off shell, the IK determinant with w and with a second drawn
    family, the sum-rule and reduction routes and the simple component."""
    simple = ("simple_component_even" if p.n % 2 == 0
              else "simple_component_odd")
    return [("slavnov", (p.w, zeta, p)), ("slavnov", (roots, zeta, p)),
            ("ik_determinant", (zeta, p.w, p)),
            ("ik_determinant", (zeta, roots, p)),
            ("partition_Z_via_ik", (p,)),
            ("scalar_product_reduction_rhs", (zeta, p)), (simple, (p,))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_determinant_routes_match_the_fraction_oracle(n):
    """Every route of `_routes` equals the Fraction code it replaced on 60
    seeded draws at N = n with q, w and zeta of either sign: the same
    rational, or the same pole with the same message.  Each route gives a
    value on at least 20 draws."""
    values = [0] * 7
    for p, zeta, roots in signed_draws(n):
        for k, (name, args) in enumerate(_routes(p, zeta, roots)):
            got = outcome(lambda: getattr(detform, name)(*args))
            assert got == outcome(lambda: getattr(oracle, name)(*args)), (
                name, args)
            values[k] += isinstance(got, RAT)
    assert min(values) >= 20, values


def test_slavnov_meets_every_pole_in_the_oracle_order():
    """Across the seeded draws the int-pair Slavnov formula raises each of
    its pole messages, each time the one the Fraction code raises first."""
    seen = set()
    for n in (1, 2, 3, 4, 5):
        for p, zeta, roots in signed_draws(n):
            for args in ((p.w, zeta, p), (roots, zeta, p)):
                got = outcome(lambda: detform.slavnov(*args))
                assert got == outcome(lambda: oracle.slavnov(*args))
                if isinstance(got, tuple):
                    seen.add(got[1])
    assert seen == SLAVNOV_POLES


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_aba_closed_forms_match_the_fraction_oracle(n):
    """a(z), d(z) and a(q z) as int pairs, theta2, the cleared Bethe
    equations and the renormalisation divisor equal their Fraction forms
    on the same draws, poles and RedundantFactorZero included."""
    for p, zeta, roots in signed_draws(n):
        for z in zeta:
            for k, want in ((1, lambda: oracle.vacuum_a(z, p)),
                            (-1, lambda: oracle.vacuum_d(z, p)),
                            (2, lambda: oracle.vacuum_a(p.q * z, p))):
                got = outcome(lambda: RAT(*aba.vacuum_pair(z, k, p)))
                assert got == outcome(want)
            assert (outcome(lambda: aba.theta2(z, p))
                    == outcome(lambda: oracle.theta2(z, p)))
        for zs in (p.w, [r or 1 for r in roots]):
            assert (aba.bethe_equations_residual(zs, p)
                    == oracle.bethe_equations_residual(zs, p))
        assert (outcome(lambda: aba.renorm_divisor(p))
                == outcome(lambda: oracle.renorm_divisor(p)))


def test_a_sign_flip_in_one_slavnov_entry_fails_the_oracle_check(
        monkeypatch):
    """The differential check has teeth: with the sign of entry (1, N) of
    the cleared Slavnov matrix flipped before the determinant, Slavnov's
    formula disagrees with the oracle on at least 3 in 4 of the draws with
    a nonzero value, at every N >= 2."""
    det = detform.det_bareiss

    def flipped(rows):
        rows = [list(row) for row in rows]
        rows[0][-1] = -rows[0][-1]
        return det(rows)

    monkeypatch.setattr(detform, "det_bareiss", flipped)
    for n in (2, 3, 4, 5):
        tried = caught = 0
        for p, zeta, roots in signed_draws(n):
            want = outcome(lambda: oracle.slavnov(p.w, zeta, p))
            if isinstance(want, RAT) and want:
                tried += 1
                caught += detform.slavnov(p.w, zeta, p) != want
        assert tried >= 20 and caught >= tried * 3 // 4, (n, tried, caught)
