import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bethelab.field import (
    RAT,
    HalfPowerPoly,
    InconsistentSamples,
    LaurentPoly,
    PoleEncountered,
    Scalar,
    SessionMismatch,
    SingularSystem,
    brk,
    laurent_interpolate,
    laurent_interpolate_many,
    pack,
    rat_str,
    row_reduce,
    session_constant,
    solve_exact,
    spread,
    unpack,
)
from halfpower_oracle import (
    checked_neg,
    eval_x,
    is_odd_support,
    shift_down,
)
from helpers import coefficient, degree_width, ring
from scalar_oracle import FourPart, evaluate

D = RAT(45, 8)  # [q][q^2] at q = 2


def sc(r, g=0, d=D):
    return Scalar(RAT(r), g, d)


def fp(a=0, b=0, c=0, e=0, d=D):
    return FourPart(a, b, c, e, d=d)


def random_four_part(rng, d=D):
    def r():
        return RAT(rng.randint(-9, 9), rng.randint(1, 9))

    return FourPart(r(), r(), r(), r(), d=d)


def test_the_one_rational_type_is_fraction():
    assert RAT is Fraction


# ---------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------

def test_bracket_two():
    assert brk(RAT(2)) == RAT(3, 2)


def test_bracket_zero_raises():
    with pytest.raises(PoleEncountered):
        brk(0)


# ---------------------------------------------------------------------
# Scalar arithmetic; sums and the four-part tests run on the FourPart
# oracle
# ---------------------------------------------------------------------

def test_s_squared_is_d():
    s = sc(1, 1)
    assert s * s == sc(D)


def test_i_squared_is_minus_one():
    i = sc(1, 2)
    assert i * i == sc(-1)


def test_one_plus_s_times_one_minus_s():
    one = fp(1)
    s = fp(0, 1)
    assert (one + s) * (one - s) == fp(1 - D)
    assert (one + s) * (one - s) == fp(RAT(-37, 8))


def test_session_mismatch_raises():
    x = fp(1, 1)
    y = FourPart(1, 1, d=RAT(7))
    with pytest.raises(SessionMismatch):
        _ = x + y
    with pytest.raises(SessionMismatch):
        _ = x * y
    for g in range(4):
        x, y = sc(1, g), sc(1, g, RAT(7))
        with pytest.raises(SessionMismatch):
            _ = x * y
        with pytest.raises(SessionMismatch):
            _ = x == y


def test_division_by_zero_raises():
    with pytest.raises(PoleEncountered):
        _ = fp(1) / fp(0)
    with pytest.raises(PoleEncountered):
        sc(0).inv()


def test_field_axioms_random():
    rng = random.Random(20240405)
    for _ in range(60):
        x = random_four_part(rng)
        y = random_four_part(rng)
        z = random_four_part(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inv() == fp(1)
            assert (y / x) * x == y


def test_inverse_mixed_components():
    x = fp(RAT(1, 2), RAT(2, 3), RAT(-3, 5), RAT(1, 7))
    assert x * x.inv() == fp(1)


def test_pow():
    x = fp(2, 1)
    assert x ** 0 == fp(1)
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inv()


def test_rational_roundtrip_and_reality():
    x = sc(RAT(5, 3))
    assert not x.g and x.r == RAT(5, 3)
    y = fp(1, 2)
    assert not (y.c or y.e) and not y.is_rational()  # in Q(s), not Q
    with pytest.raises(ValueError):
        y.to_rat()


def test_json_roundtrip():
    x = fp(RAT(1, 2), RAT(-2, 3), RAT(4, 5), RAT(0))
    obj = x.to_json_dict()
    assert obj["a"] == "1/2" and obj["d"] == "45/8"
    back = [RAT(obj[k]) for k in "abce"]
    assert FourPart(*back, d=RAT(obj["d"])) == x
    assert rat_str(RAT(-3, 4)) == "-3/4"
    for y in x.summands():
        y = y.scalar()
        obj = y.to_json_dict()
        assert obj == FourPart.of(y).to_json_dict()
        g = next(g for g, k in enumerate("abce") if RAT(obj[k]))
        assert Scalar(RAT(obj["abce"[g]]), g, RAT(obj["d"])) == y


def test_scalar_has_no_sums_quotients_or_hash():
    """Scalar is a graded rational: products, powers and inverses only."""
    p = ring(2)
    for op in (lambda: p.s + p.i, lambda: p.s - p.s, lambda: -p.s,
               lambda: p.sc(1) / p.s, lambda: hash(p.s)):
        with pytest.raises(TypeError):
            op()


@st.composite
def graded_scalars(draw, d):
    """A homogeneous r s^k i^l, zero among them, in every grade."""
    r = RAT(draw(st.integers(-30, 30)), draw(st.integers(1, 30)))
    g = draw(st.integers(0, 3))
    return Scalar(r, g, d)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([D, -D, RAT(-7, 3), RAT(2)]).flatmap(
    lambda d: st.tuples(graded_scalars(d), graded_scalars(d),
                        st.integers(-4, 4))))
def test_graded_arithmetic_matches_four_part_oracle(case):
    """Graded *, inv and ** agree with the four-part oracle on homogeneous
    inputs of all four grades and both signs of d, and so does equality."""
    x, y, n = case
    ox, oy = FourPart.of(x), FourPart.of(y)
    assert FourPart.of(x * y) == ox * oy
    if y.is_zero():
        with pytest.raises(PoleEncountered):
            y.inv()
    else:
        assert FourPart.of(y.inv()) == oy.inv()
    if n >= 0 or not x.is_zero():
        assert FourPart.of(x ** n) == ox ** n
    assert (x == y) == (ox == oy)


def _is_rational_square(r) -> bool:
    return r >= 0 and all(isqrt(x) ** 2 == x
                          for x in (r.numerator, r.denominator))


def test_neither_d_nor_minus_d_is_a_rational_square():
    """The lemma of the module docstring, on every q = a/b with 1 <= |a|,
    b <= 60 and q^4 != 1: d = (q^2 - 1)^2 (q^2 + 1) / q^3, and neither d
    nor -d is a rational square, so Q(s, i) is a field."""
    assert _is_rational_square(RAT(49, 64))
    assert not _is_rational_square(RAT(-49, 64))
    assert not _is_rational_square(RAT(45, 8))
    for a in range(-60, 61):
        for b in range(1, 61):
            q = RAT(a, b)
            if a == 0 or q * q == 1:
                continue
            d = session_constant(q)
            assert d == (q * q - 1) ** 2 * (q * q + 1) / q ** 3
            assert not _is_rational_square(d)
            assert not _is_rational_square(-d)


def test_session_constant_is_computed_once_per_q():
    assert session_constant(RAT(7, 3)) is session_constant(RAT(7, 3))


# ---------------------------------------------------------------------
# HalfPowerPoly
# ---------------------------------------------------------------------

def test_halfpoly_y_times_y_is_x():
    y = HalfPowerPoly((0, 1))
    assert y * y == HalfPowerPoly((0, 0, 1))
    assert (y * y).is_even_support()


def test_halfpoly_identity():
    one = HalfPowerPoly.const(1)
    p = HalfPowerPoly((1, RAT(2, 3), 0, 5))
    assert one * p == p


def test_halfpoly_difference_of_squares():
    y = HalfPowerPoly((0, 1))
    one = HalfPowerPoly.const(1)
    assert (y + one) * (y + -one) == HalfPowerPoly((-1, 0, 1))  # x - 1


def test_halfpoly_even_products_stay_even():
    rng = random.Random(7)
    for _ in range(30):
        p = HalfPowerPoly.x_poly([rng.randint(-4, 4) for _ in range(4)])
        q = HalfPowerPoly.x_poly([rng.randint(-4, 4) for _ in range(3)])
        assert (p * q).is_even_support()


def test_halfpoly_shift_and_eval():
    p = HalfPowerPoly((0, 0, 0, 2, 0, 1))  # 2 y^3 + y^5 = y^3 (2 + x)
    q = shift_down(p, 3)
    assert q == HalfPowerPoly((2, 0, 1))
    assert eval_x(q, RAT(5, 2)) == RAT(9, 2)
    with pytest.raises(ValueError):
        shift_down(p, 4)
    assert is_odd_support(p)


def test_halfpoly_x_coeffs_and_json():
    p = HalfPowerPoly.x_poly([6, 0, 1])  # 6 + x^2
    assert p.x_coeffs() == (6, 0, 1)
    assert p.to_json_dict() == {"var": "x", "coeffs": ["6", "0", "1"]}


def test_spread_substitutes_a_power():
    assert spread([], 1) == []
    assert spread([], 4) == []
    assert spread((6, 1), 1) == [6, 1]
    assert spread([6, 1], 2) == [6, 0, 1]
    assert spread((24, 16, 2), 4) == [24, 0, 0, 0, 16, 0, 0, 0, 2]
    assert HalfPowerPoly(spread((6, 1), 2)) == HalfPowerPoly.x_poly([6, 1])


def test_halfpoly_integer_detection():
    assert HalfPowerPoly((1, 2, 3)).has_integer_coeffs()
    assert not HalfPowerPoly((1, RAT(1, 2))).has_integer_coeffs()


def same_poly(got, want):
    """got and want agree as values and as stored: coefficients and their
    types, equality both ways and hash."""
    assert type(got) is HalfPowerPoly
    assert got.coeffs == want.coeffs
    assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))
    assert got == want and want == got and hash(got) == hash(want)


def test_x_poly_keeps_ints_and_coerces_the_rest():
    """Ints stay ints and trailing zeros go; a Fraction, a bool or a
    string is coerced to the rational type, coefficient by coefficient."""
    for xs, want in (([], ()), ([0, 0], ()), ([-3, 0], (-3,)),
                     ([0, 0, 7, 0], (0, 0, 0, 0, 7)),
                     ([RAT(4, 2), 0, -3], (RAT(2), 0, 0, 0, -3)),
                     ([2, 0, RAT(0)], (2,)), ([True, 2], (RAT(1), 0, 2)),
                     (["1/2", 3], (RAT(1, 2), 0, 3))):
        got = HalfPowerPoly.x_poly(xs)
        assert got.coeffs == want
        assert [type(c) for c in got.coeffs] == [type(c) for c in want]


def test_negation_matches_the_checked_constructor():
    """-p stores the negated coefficients as they are, each keeping its
    type: the checked negation on int, Fraction, mixed and zero polys."""
    rng = random.Random(36)
    polys = [HalfPowerPoly(), HalfPowerPoly((0, 1)),
             HalfPowerPoly((RAT(4, 2),)),
             HalfPowerPoly((RAT(1, 2), 0, -3, RAT(-7, 5)))]
    polys += [HalfPowerPoly([rng.choice([rng.randint(-9, 9),
                                         RAT(rng.randint(-9, 9),
                                             rng.randint(1, 4))])
                             for _ in range(rng.randint(0, 8))])
              for _ in range(200)]
    for p in polys:
        same_poly(-p, checked_neg(p))
        same_poly(-(-p), p)


# ---------------------------------------------------------------------
# Kronecker packing
# ---------------------------------------------------------------------

@st.composite
def coefficients_and_bits(draw):
    """A base 2^bits and coefficients in [-2^(bits-1), 2^(bits-1)),
    the edge values -2^(bits-1) and +-(2^(bits-1) - 1) among them."""
    bits = draw(st.integers(min_value=2, max_value=80))
    half = 1 << (bits - 1)
    coeff = st.one_of(st.sampled_from([-half, -half + 1, half - 1, 0]),
                      st.integers(min_value=-half, max_value=half - 1))
    cs = draw(st.lists(coeff, max_size=12))
    while cs and cs[-1] == 0:
        cs.pop()
    return cs, bits


@settings(max_examples=300, deadline=None)
@given(coefficients_and_bits())
def test_unpack_inverts_pack_inside_the_balanced_range(case):
    cs, bits = case
    assert unpack(pack(cs, bits), bits) == cs


@settings(max_examples=200, deadline=None)
@given(coefficients_and_bits(), st.integers(min_value=0, max_value=11))
def test_unpack_at_one_bit_less_fails_on_a_top_coefficient(case, at):
    """+(2^(bits-1) - 1) and -2^(bits-1) need every bit of the base."""
    cs, bits = case
    assume(bits > 2)
    half = 1 << (bits - 1)
    for edge in (half - 1, -half):
        wide = list(cs) + [0] * (at + 1 - len(cs))
        wide[at] = edge
        while wide[-1] == 0:
            wide.pop()
        assert unpack(pack(wide, bits), bits) == wide
        assert unpack(pack(wide, bits - 1), bits - 1) != wide


def test_unpack_edge_values():
    assert unpack(pack([-8, 7, -7, 0, -1], 4), 4) == [-8, 7, -7, 0, -1]
    assert unpack(pack([8], 4), 4) != [8]  # +2^(bits-1) is out of range
    assert unpack(0, 5) == []


# ---------------------------------------------------------------------
# LaurentPoly and interpolation
# ---------------------------------------------------------------------

def test_laurent_normalization_and_width():
    p = LaurentPoly(-2, [fp(0), fp(1), fp(0), fp(3), fp(0)])
    assert p.low == -1 and p.top() == 1
    assert degree_width(p) == 2
    z = fp(RAT(5, 3))
    assert evaluate(p, z) == z.inv() + fp(3) * z


def test_interpolate_recovers_bracket():
    samples = [(1, 0), (2, RAT(3, 2)), (RAT(1, 2), RAT(-3, 2))]
    p = laurent_interpolate(samples, low_degree=-1, width=2)
    assert p.low == -1 and p.top() == 1
    assert coefficient(p, -1) == -1
    assert coefficient(p, 0) == 0
    assert coefficient(p, 1) == 1


def test_interpolate_zero_and_constant():
    pts = [1, 2, 3]
    zero = laurent_interpolate([(p, 0) for p in pts], -1, 2)
    assert zero.is_zero() and degree_width(zero) == 0
    const = laurent_interpolate([(p, RAT(7, 3)) for p in pts], -1, 2)
    assert const.low == 0 and degree_width(const) == 0


def test_interpolate_roundtrip_random():
    rng = random.Random(99)
    for _ in range(10):
        low = rng.randint(-3, 0)
        width = rng.randint(0, 4)
        coeffs = [RAT(rng.randint(-5, 5), rng.randint(1, 5))
                  for _ in range(width + 1)]
        p = LaurentPoly(low, coeffs)
        pts = []
        k = 1
        while len(pts) < width + 3:  # two surplus consistency samples
            pts.append(RAT(k, k + 1))
            k += 1
        samples = [(z, evaluate(p, z)) for z in pts]
        assert laurent_interpolate(samples, low, width) == p


def test_interpolate_many_roundtrip_random():
    """Three rows at once, at points of both signs, with surplus samples."""
    rng = random.Random(750)
    for _ in range(10):
        low, width = rng.randint(-4, 0), rng.randint(0, 6)
        points = [RAT(t) for t in rng.sample(
            [t for t in range(-12, 13) if t], width + 3)]
        polys = [LaurentPoly(low, [RAT(rng.randint(-9, 9), rng.randint(1, 9))
                                   for _ in range(width + 1)])
                 for _ in range(3)]
        values = [[evaluate(poly, t) for t in points] for poly in polys]
        assert laurent_interpolate_many(points, values, low, width) == polys


def test_interpolate_many_support_too_small_raises():
    """z - 1/z + z^2 sampled at five points cannot live on [-1, 1]."""
    points = [RAT(t) for t in (1, 2, 3, 5, 7)]
    values = [t - 1 / t + t * t for t in points]
    with pytest.raises(InconsistentSamples):
        laurent_interpolate_many(points, [values], -1, 2)
    # the whole support [-1, 2] is found from the same samples
    poly = laurent_interpolate_many(points, [values], -1, 3)[0]
    assert poly == LaurentPoly(-1, [-1, 0, 1, 1])


def test_interpolate_repeated_points_raise():
    samples = [(1, 0), (1, 0), (2, 1)]
    with pytest.raises(SingularSystem):
        laurent_interpolate(samples, -1, 2)


def test_interpolate_surplus_mismatch_raises():
    # z - 1/z sampled, but declared support cannot carry it; the surplus
    # sample exposes the wrong assumption
    samples = [(1, 0), (2, RAT(3, 2)), (3, RAT(8, 3)), (4, RAT(15, 4))]
    with pytest.raises(InconsistentSamples):
        laurent_interpolate(samples, 0, 2)


def test_solve_exact_singular():
    with pytest.raises(SingularSystem):
        solve_exact([[fp(1), fp(2)], [fp(2), fp(4)]], [[fp(1), fp(1)]])


def test_solve_exact_names_the_first_column_without_a_pivot():
    # column 1 is twice column 0; the right-hand side takes a pivot there
    a = [[RAT(1), RAT(2), RAT(0)], [RAT(3), RAT(6), RAT(1)],
         [RAT(2), RAT(4), RAT(5)]]
    with pytest.raises(SingularSystem, match="singular at column 1$"):
        solve_exact(a, [[1, 0, 0]])
    assert solve_exact([[RAT(0), RAT(2)], [RAT(3), RAT(1)]],
                       [[2, 7], [0, 3]]) == [[2, 1], [1, 0]]


def test_row_reduce_rank_and_pivots():
    """Rank and pivot columns of a rectangular matrix over Q(s, i)."""
    d = RAT(6)
    s, i, one = FourPart(0, 1, d=d), FourPart(0, 0, 1, d=d), FourPart(1, d=d)
    zero = FourPart(0, d=d)
    rows = [[zero, s, i, one],
            [zero, s * s, s * i, s],
            [zero, zero, one, i]]
    reduced, pivots = row_reduce(rows)
    assert pivots == [1, 2]
    assert [r[c] for r, c in zip(reduced, pivots)] == [one, one]
    assert all(not r[c] for c in pivots for k, r in enumerate(reduced)
               if k != pivots.index(c))
    assert not any(reduced[2])
    assert row_reduce([]) == ([], [])


def test_sums_and_products_of_int_polys_keep_ints():
    """Ints in, ints out: a sum or product of int polynomials, or of one
    and an int, stores int coefficients, and a rational one still makes
    its coefficients rational."""
    for got, want in (
            (HalfPowerPoly((1,)) + HalfPowerPoly((1, 2)), (2, 2)),
            (HalfPowerPoly((1, 2)) * HalfPowerPoly((3,)), (3, 6)),
            (HalfPowerPoly((1, 0, -2)) + 3, (4, 0, -2)),
            (2 * HalfPowerPoly((1, 0, -2)), (2, 0, -4)),
            (HalfPowerPoly((0, 1)) * HalfPowerPoly((0, 0, 1)), (0, 0, 0, 1)),
            (HalfPowerPoly.const(5), (5,)),
            (HalfPowerPoly((RAT(1, 2),)) + HalfPowerPoly((1, 2)),
             (RAT(3, 2), 2))):
        same_poly(got, HalfPowerPoly(want))
