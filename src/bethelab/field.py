"""Exact scalar arithmetic for the vertex-model engine.

Spectral parameters, their brackets [z] = z - 1/z (`brk`), the closed
forms built from them and the R-matrix weights (the mixed one in the
gauge of `rmatrix`) are rationals, of the one type RAT =
`fractions.Fraction`.  The closed forms are computed on ints: a bracket
of c x / y is the unreduced int pair (a^2 - b^2, a b) with a / b = c x / y
(`brk_ratio`), products of brackets multiply the pairs, and one RAT is
built per returned value.  What can carry a square root or i (the model's
vectors) lives in the ring

    Q(s, i),   s**2 = d,   i**2 = -1,

where the session constant d = [q][q^2] (`session_constant`, the one
check on q) is a fixed rational, so that the square roots appearing in
the mixed R-matrix become the symbol s.  Every such value is homogeneous,
one rational times one of the units 1, s, i, s*i, so a Scalar is stored
as r * s^k * i^l with rational r and grade g = k + 2 l in 0..3.  Scalars
multiply, invert and raise to powers but never add: sums are taken on
the ints of `aba.ModelVector`, one grade a vector.

Lemma: for rational q with q != 0 and q^4 != 1, neither d nor -d is a
rational square, so Q(s, i) is a field, every nonzero element is
invertible and equality is decided grade by grade.  Proof: d = (q^2 -
1)^2 (q^2 + 1) / q^3 = ((q^2 - 1)/q^2)^2 q (q^2 + 1), so +-d is a square
exactly when +-q (q^2 + 1) is, that is when y^2 = x^3 + x has a rational
point with x = +-q != 0.  Write +-q = a/b in lowest terms, b > 0; then
+-q (q^2 + 1) = a (a^2 + b^2) / b^3 is a square exactly when a b (a^2 +
b^2) is the square of an int.  Its three factors are pairwise coprime,
so for a > 0 each is a square, a = m^2, b = n^2 and m^4 + n^4 = k^2 with
m n != 0, which Fermat's descent rules out; for a < 0 the product is
negative.  So no rational point of the curve has x != 0.

The module also provides the half-power polynomial ring Q[y], y = x^(1/2)
(the form of `spinchain`'s homogeneous-limit inputs and results;
`HalfPowerPoly.__neg__` stores the negated coefficients with no
per-coefficient check), Kronecker
packing of integer polynomials into one int at 2^bits (`pack`, `unpack`),
the substitution v -> v^k on coefficient lists (`spread`), Gauss-Jordan row
reduction (`row_reduce`), Laurent polynomials (centred ones for the model,
and the ASM polynomial A_n(t) from degree 0), and exact Laurent
interpolation from samples at rational points: one exact solve
(`solve_exact`) per call, which only the tests' Laurent oracle makes, to
read whole degree windows without a symbolic algebra system.  A single
leading coefficient needs no interpolation: `brk_leading` is a bracket's
leading monomial.
"""

from __future__ import annotations

from fractions import Fraction as RAT
from functools import cache
from operator import neg

RAT_ZERO = RAT(0)


class SessionMismatch(ValueError):
    """Scalars with different session constants d were combined."""


class PoleEncountered(ZeroDivisionError):
    """A zero divisor at the requested parameters: a vanishing bracket or
    denominator, or the inverse of zero."""


class SingularSystem(ValueError):
    """Exact linear solve hit a singular matrix (e.g. repeated points)."""


class InconsistentSamples(ValueError):
    """Surplus interpolation samples contradict the assumed support."""


def as_rat(x) -> RAT:
    """Coerce an int, string "p/q" or rational to the rational type."""
    if isinstance(x, RAT):
        return x
    if isinstance(x, (int, str)):
        return RAT(x)
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return RAT(int(x.numerator), int(x.denominator))
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(r) -> str:
    """Serialize a rational as "num/den" (denominator always present)."""
    r = as_rat(r)
    return f"{r.numerator}/{r.denominator}"


def rat_str_compact(r) -> str:
    """Serialize a rational, omitting the denominator when it is 1."""
    r = as_rat(r)
    return str(r.numerator) if r.denominator == 1 else rat_str(r)


class Scalar:
    """Homogeneous element r * u_g of Q(s, i), s**2 = d, over the units
    u_g = 1, s, i, s i: the rational r of the rational type, the grade g in
    0..3 (g = k + 2 l for s^k i^l; zero has grade 0) and a session constant
    d of `session_constant`.

    Immutable.  A graded rational with product, power, inverse and
    read-out: a product with another Scalar requires an equal session
    constant, and ints and rationals coerce to grade 0 of this session.
    """

    __slots__ = ("r", "g", "d")

    def __init__(self, r, g: int, d):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "g", g if r else 0)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def is_zero(self) -> bool:
        return not self.r

    def __bool__(self) -> bool:
        return bool(self.r)

    def parts(self) -> tuple:
        """The coefficients (a, b, c, e) of 1, s, i and s i."""
        return tuple(self.r if g == self.g else RAT_ZERO for g in range(4))

    def __mul__(self, other):
        if type(other) is Scalar:
            if self.d != other.d:
                raise SessionMismatch(
                    f"session constants differ: {self.d} vs {other.d}")
        elif isinstance(other, (int, RAT)):
            other = Scalar(as_rat(other), 0, self.d)
        else:
            return NotImplemented
        r = self.r * other.r
        both = self.g & other.g
        if both & 1:
            r = r * self.d
        if both & 2:
            r = -r
        return Scalar(r, self.g ^ other.g, self.d)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """1 / (r s^k i^l) = r^-1 d^-k (-1)^l s^k i^l."""
        if not self.r:
            raise PoleEncountered("inverse of zero scalar")
        r = 1 / self.r
        if self.g & 1:
            r = r / self.d
        if self.g & 2:
            r = -r
        return Scalar(r, self.g, self.d)

    def __pow__(self, n: int) -> "Scalar":
        """x^n = r^n d^(k m) (-1)^(l m) u_g^(n mod 2), m = n // 2."""
        x = self if n >= 0 else self.inv()
        n = abs(n)
        r = x.r ** n
        if x.g & 1:
            r = r * x.d ** (n // 2)
        if x.g & 2 and n & 2:
            r = -r
        return Scalar(r, x.g if n & 1 else 0, x.d)

    def __eq__(self, other):
        if isinstance(other, (int, RAT)):
            return not self.g and self.r == other
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.d != other.d:
            raise SessionMismatch(
                f"session constants differ: {self.d} vs {other.d}")
        return self.g == other.g and self.r == other.r

    def __repr__(self):
        unit = ("", "*s", "*i", "*s*i")[self.g]
        return f"Scalar({self.r}{unit} | d={self.d})"

    def to_json_dict(self) -> dict:
        return {**dict(zip("abce", map(rat_str, self.parts()))),
                "d": rat_str(self.d)}


def pack(coeffs, bits: int) -> int:
    """sum_k c_k u^k at u = 2^bits, for ints c_k listed lowest first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << bits) + c
    return acc


def unpack(value: int, bits: int) -> list:
    """The balanced base-2^bits digits of value, lowest first: the c_k
    that `pack` took to value whenever every c_k lies in
    [-2^(bits-1), 2^(bits-1))."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while value:
        digit = ((value + half) & mask) - half
        out.append(digit)
        value = (value - digit) >> bits
    return out


def spread(coeffs, k: int) -> list:
    """The coefficients of p(v^k) from those of p(v), lowest first: c_i
    moves to k i and int zeros fill the gaps."""
    out = [0] * (k * (len(coeffs) - 1) + 1)  # [] when there are none
    out[::k] = coeffs
    return out


def brk(r) -> RAT:
    """Rational bracket [r] = r - 1/r."""
    r = as_rat(r)
    if r == 0:
        raise PoleEncountered("bracket of zero spectral parameter")
    return r - 1 / r


def brk_ratio(x, y, c=(1, 1)) -> tuple:
    """[c x / y] for rationals (or ints) x, y and a constant c = (num, den)
    of nonzero ints, as the unreduced int pair (a^2 - b^2, a b) with a / b
    = c x / y, raising as brk(c * x * inv(y)) does: the inverse of zero
    for y = 0, the bracket of zero for x = 0."""
    a = c[0] * x.numerator * y.denominator
    b = c[1] * x.denominator * y.numerator
    if not b:
        raise PoleEncountered("inverse of zero scalar")
    if not a:
        raise PoleEncountered("bracket of zero spectral parameter")
    return a * a - b * b, a * b


def brk_leading(r, to_inf: bool) -> RAT:
    """The leading monomial of [r] = r - 1/r: r as r runs to infinity
    (to_inf), -1/r as r runs to 0."""
    r = as_rat(r)
    if r == 0:
        raise PoleEncountered("bracket of zero spectral parameter")
    return r if to_inf else -1 / r


@cache
def session_constant(q) -> RAT:
    """d = [q][q^2] for a rational anisotropy q (anything `as_rat` reads),
    once q != 0 and q^4 != 1; ValueError otherwise.  Memoised per q."""
    q = as_rat(q)
    if q == 0 or q * q == 1:
        raise ValueError("q must satisfy q != 0 and q^4 != 1")
    return brk(q) * brk(q * q)


def inv(r) -> RAT:
    """1 / r for a rational r, raising PoleEncountered as Scalar.inv does."""
    if not r:
        raise PoleEncountered("inverse of zero scalar")
    return 1 / r


class HalfPowerPoly:
    """Polynomial in y over Q, read through y**2 = x.

    Coefficients are stored ascending in powers of y, an int as that int
    and any other value as a rational, so sums and products of int
    polynomials, or of one and an int, keep int coefficients; trailing
    zeros are stripped.
    Elements supported on even powers only are ordinary polynomials in x.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("HalfPowerPoly is immutable")

    @staticmethod
    def const(r) -> "HalfPowerPoly":
        return HalfPowerPoly((r,))

    @staticmethod
    def x_poly(x_coeffs) -> "HalfPowerPoly":
        """Build from coefficients in x (placed at even y powers)."""
        return HalfPowerPoly(spread(x_coeffs, 2))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_even_support(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] = a[k] + c
        return HalfPowerPoly(a)

    def __neg__(self):
        # negating keeps each coefficient's type and the last one nonzero
        p = object.__new__(HalfPowerPoly)
        object.__setattr__(p, "coeffs", tuple(map(neg, self.coeffs)))
        return p

    def _coerce(self, other):
        if isinstance(other, HalfPowerPoly):
            return other
        if isinstance(other, (int, RAT)):
            return HalfPowerPoly.const(other)
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not self.coeffs or not other.coeffs:
            return HalfPowerPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, cj in enumerate(self.coeffs):
            if cj == 0:
                continue
            for k, ck in enumerate(other.coeffs):
                if ck:
                    out[j + k] = out[j + k] + cj * ck
        return HalfPowerPoly(out)

    __rmul__ = __mul__

    def x_coeffs(self) -> tuple:
        """Coefficients as a polynomial in x (even support required)."""
        if not self.is_even_support():
            raise ValueError("odd y-support; not a polynomial in x")
        return tuple(self.coeffs[0::2])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "HalfPowerPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k % 2 == 0:
                terms.append(f"{c}*x^{k // 2}" if k > 2 else f"{c}*x")
            else:
                terms.append(f"{c}*y^{k}" if k > 1 else f"{c}*y")
        return f"HalfPowerPoly({' + '.join(terms)})"

    def to_json_dict(self) -> dict:
        return {"var": "x",
                "coeffs": [rat_str_compact(c) for c in self.x_coeffs()]}


class LaurentPoly:
    """Laurent polynomial with exact coefficients (ints or rationals in the
    package) and explicit low degree.

    Normalized so the first and last stored coefficients are nonzero;
    the zero polynomial stores no coefficients.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs):
        cs = list(coeffs)
        while cs and not cs[0]:
            cs.pop(0)
            low += 1
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            low = 0
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("LaurentPoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def top(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no top degree")
        return self.low + len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs


def row_reduce(rows):
    """Gauss-Jordan elimination with exact division over a field (the
    package's rationals; the tests also run it on FourPart): (the reduced
    rows, the pivot column of each nonzero row), every pivot 1 and the only
    nonzero entry of its column."""
    m = [list(row) for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv if x else x for x in m[r]]
        for i, row in enumerate(m):
            f = row[col]
            if f and i != r:
                m[i] = [x - f * y if y else x for x, y in zip(row, m[r])]
        pivots.append(col)
    return m, pivots


def solve_exact(matrix, rhs_columns):
    """Solve A x = b over a field, as `row_reduce`, for several right-hand
    sides at once.

    Reduces [A | B]; raises SingularSystem, naming the first column
    without a pivot, when A is singular.  `rhs_columns` is a list of
    columns; returns the list of solution columns in the same order.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if any(len(col) != n for col in rhs_columns):
        raise ValueError("right-hand side length mismatch")
    rows, pivots = row_reduce([list(row) + [b[r] for b in rhs_columns]
                               for r, row in enumerate(matrix)])
    col = next((k for k, p in enumerate(pivots) if p != k), len(pivots))
    if col < n:
        raise SingularSystem(f"singular at column {col}")
    return [[row[n + j] for row in rows] for j in range(len(rhs_columns))]


def laurent_interpolate(samples, low_degree: int, width: int) -> LaurentPoly:
    """The Laurent polynomial on [low_degree, low_degree + width] through
    the (point, value) rational pairs of `samples`: the first width + 1
    fix it, any surplus ones check it (see `laurent_interpolate_many`)."""
    return laurent_interpolate_many([p for p, _ in samples],
                                    [[as_rat(v) for _, v in samples]],
                                    low_degree, width)[0]


def laurent_interpolate_many(points, value_rows, low_degree: int,
                             width: int):
    """Interpolate many rows of rational values, sampled at the same
    rational points, into LaurentPolys.

    The P points fix a Laurent polynomial on [low_degree, low_degree + P -
    1]: one `solve_exact` of the square Vandermonde system [p^(low_degree +
    k)] takes every row at once, and repeated points make it singular
    (SingularSystem).  Coefficients above low_degree + width must vanish,
    else the assumed support is wrong and InconsistentSamples is raised.
    """
    m = len(points)
    if m < width + 1:
        raise ValueError(f"need at least {width + 1} samples, got {m}")
    points = [as_rat(p) for p in points]
    if not all(points):
        raise SingularSystem("sample point zero is not allowed")
    cols = solve_exact([[p ** (low_degree + k) for k in range(m)]
                        for p in points], value_rows)
    if any(c for col in cols for c in col[width + 1:]):
        raise InconsistentSamples(
            "surplus sample disagrees; assumed support is wrong")
    return [LaurentPoly(low_degree, col) for col in cols]
