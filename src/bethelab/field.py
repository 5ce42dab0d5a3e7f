"""Exact scalar arithmetic for the vertex-model engine.

All computations in this package run over the ring

    Q(s, i),   s**2 = d,   i**2 = -1,

where the session constant d is a fixed rational (in model computations
d = [q][q^2] with [z] = z - 1/z, so that the square roots appearing in the
mixed R-matrix become the symbol s).  Elements are stored as

    a + b*s + c*i + e*s*i

with rational a, b, c, e.  For d that is not a rational square (and -d not
one either) this is a field, so every nonzero element is invertible and all
divisions are exact.

The module also provides the half-power polynomial ring Q[y] with the
reading y = x^(1/2) (the returned form of the homogeneous-limit states,
x^(k/2) times integer polynomials), their Kronecker packing into one int
at y = 2^bits (`pack`, `unpack`), centred Laurent polynomials, and exact
Laurent interpolation on ints from samples at rational points (one int
dot product a coefficient), which is how degree widths and asymptotic
coefficients are extracted without a symbolic algebra system.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul

try:
    from gmpy2 import mpq as RAT
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as RAT

RAT_ZERO = RAT(0)


class SessionMismatch(ValueError):
    """Scalars with different session constants d were combined."""


class ZeroInverse(ZeroDivisionError):
    """Inversion of zero (e.g. bracket of a non-invertible argument)."""


class DivisionByZero(ZeroDivisionError):
    """Exact division by a zero scalar."""


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


def is_rational_square(r) -> bool:
    r = as_rat(r)
    if r < 0:
        return False
    p, q = int(r.numerator), int(r.denominator)
    sp, sq = isqrt(p), isqrt(q)
    return sp * sp == p and sq * sq == q


def validate_session_constant(d) -> RAT:
    """Check that adjoining s with s**2 = d yields a field over Q(i).

    d must be nonzero and neither d nor -d may be a rational square,
    otherwise Q(s, i) has zero divisors and exact division can fail.
    """
    d = as_rat(d)
    if d == 0:
        raise ValueError("session constant d must be nonzero")
    if is_rational_square(d) or is_rational_square(-d):
        raise ValueError(f"session constant d={d} is a square in Q(i); "
                         "the extension would not be a field")
    return d


class Scalar:
    """Element a + b*s + c*i + e*s*i of Q(s, i) with s**2 = d.

    Immutable.  Binary operations require equal session constants; ints and
    rationals coerce to the constant of the other operand.
    """

    __slots__ = ("a", "b", "c", "e", "d")

    def __init__(self, a=0, b=0, c=0, e=0, *, d):
        object.__setattr__(self, "a", as_rat(a))
        object.__setattr__(self, "b", as_rat(b))
        object.__setattr__(self, "c", as_rat(c))
        object.__setattr__(self, "e", as_rat(e))
        object.__setattr__(self, "d", as_rat(d))

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def s_unit(d) -> "Scalar":
        return Scalar(0, 1, d=d)

    @staticmethod
    def i_unit(d) -> "Scalar":
        return Scalar(0, 0, 1, d=d)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.e)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.e)

    def to_rat(self) -> RAT:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.a

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if self.d is not other.d and self.d != other.d:
                raise SessionMismatch(
                    f"session constants differ: {self.d} vs {other.d}")
            return other
        if isinstance(other, (int, RAT)):
            return Scalar(other, d=self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.a + o.a, self.b + o.b, self.c + o.c,
                      self.e + o.e, d=self.d)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b, -self.c, -self.e, d=self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.a - o.a, self.b - o.b, self.c - o.c,
                      self.e - o.e, d=self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, c, e = self.a, self.b, self.c, self.e
        A, B, C, E = o.a, o.b, o.c, o.e
        # fast paths: purely rational and s-only factors dominate in practice
        if not (c or e):
            if not (C or E):
                if not b and not B:
                    return Scalar(a * A, d=self.d)
                d = self.d
                return Scalar(a * A + b * B * d, a * B + b * A, d=self.d)
            if not b:
                return Scalar(a * A, a * B, a * C, a * E, d=self.d)
        d = self.d
        return Scalar(
            a * A + (b * B - e * E) * d - c * C,
            a * B + b * A - c * E - e * C,
            a * C + c * A + (b * E + e * B) * d,
            a * E + e * A + b * C + c * B,
            d=self.d,
        )

    __rmul__ = __mul__

    def conj_i(self) -> "Scalar":
        return Scalar(self.a, self.b, -self.c, -self.e, d=self.d)

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        if self.is_rational():
            return Scalar(1 / self.a, d=self.d)
        # 1/x = conj_i(x) * (u - v s) / (u^2 - v^2 d), where
        # n = x * conj_i(x) = u + v s lies in Q(s)
        ci = self.conj_i()
        n = self * ci
        u, v = n.a, n.b
        norm = u * u - v * v * self.d
        if norm == 0:
            raise DivisionByZero("scalar has zero norm; d admits zero divisors")
        m = Scalar(u / norm, -v / norm, d=self.d)
        return ci * m

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise DivisionByZero("division by zero scalar")
        if o.is_rational():
            r = o.a
            return Scalar(self.a / r, self.b / r, self.c / r, self.e / r,
                          d=self.d)
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inv() ** (-n)
        result = Scalar(1, d=self.d)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, RAT)):
            return self.is_rational() and self.a == other
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.d != other.d:
            raise SessionMismatch(
                f"session constants differ: {self.d} vs {other.d}")
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.e == other.e)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.e, self.d))

    # -- I/O ------------------------------------------------------------

    def __repr__(self):
        parts = []
        if self.a or self.is_zero():
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}*s")
        if self.c:
            parts.append(f"{self.c}*i")
        if self.e:
            parts.append(f"{self.e}*s*i")
        return f"Scalar({' + '.join(parts)} | d={self.d})"

    def to_json_dict(self) -> dict:
        return {"a": rat_str(self.a), "b": rat_str(self.b),
                "c": rat_str(self.c), "e": rat_str(self.e),
                "d": rat_str(self.d)}


def pack(coeffs, bits: int) -> int:
    """sum_k c_k y^k at y = 2^bits, for ints c_k listed lowest first."""
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


def brk(r) -> RAT:
    """Rational bracket [r] = r - 1/r."""
    r = as_rat(r)
    if r == 0:
        raise ZeroInverse("bracket of zero")
    return r - 1 / r


class HalfPowerPoly:
    """Polynomial in y over Q, read through y**2 = x.

    Coefficients are stored ascending in powers of y, an int as that int
    and any other value as a rational; trailing zeros are stripped.
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
        return HalfPowerPoly((as_rat(r),))

    @staticmethod
    def y_power(k: int, coeff=1) -> "HalfPowerPoly":
        return HalfPowerPoly((RAT_ZERO,) * k + (as_rat(coeff),))

    @staticmethod
    def x_poly(x_coeffs) -> "HalfPowerPoly":
        """Build from coefficients in x (placed at even y powers)."""
        cs = []
        for c in x_coeffs:
            cs.append(as_rat(c))
            cs.append(RAT_ZERO)
        return HalfPowerPoly(cs[:-1] if cs else ())

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
        a = list(self.coeffs) + [RAT_ZERO] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] = a[k] + c
        return HalfPowerPoly(a)

    def __neg__(self):
        return HalfPowerPoly(tuple(-c for c in self.coeffs))

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
        out = [RAT_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, cj in enumerate(self.coeffs):
            if cj == 0:
                continue
            for k, ck in enumerate(other.coeffs):
                if ck:
                    out[j + k] = out[j + k] + cj * ck
        return HalfPowerPoly(out)

    __rmul__ = __mul__

    def eval_x(self, x):
        """Evaluate an even-support element at the rational point x."""
        if not self.is_even_support():
            raise ValueError("odd y-support; not a polynomial in x")
        x = as_rat(x)
        acc = RAT_ZERO
        for c in reversed(self.coeffs[0::2]):
            acc = acc * x + c
        return acc

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
    """Laurent polynomial with exact coefficients (rationals or Scalars)
    and explicit low degree.

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

    def coefficient(self, k: int):
        """The coefficient of z^k, 0 outside the support."""
        if self.is_zero() or not (self.low <= k <= self.top()):
            return 0
        return self.coeffs[k - self.low]

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs


def solve_exact(matrix, rhs_columns):
    """Solve A x = b over Q or Q(s, i) for several right-hand sides at once.

    Gaussian elimination with exact division; raises SingularSystem when A
    is singular.  `rhs_columns` is a list of columns; returns the list of
    solution columns in the same order.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    a = [list(row) for row in matrix]
    bs = [list(col) for col in rhs_columns]
    if any(len(col) != n for col in bs):
        raise ValueError("right-hand side length mismatch")
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularSystem(f"singular at column {col}")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            for b in bs:
                b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for b in bs:
            b[col] = b[col] * inv
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if not f:
                continue
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            for b in bs:
                b[r] = b[r] - f * b[col]
    return bs


def laurent_interpolate(samples, low_degree: int, width: int) -> LaurentPoly:
    """The Laurent polynomial on [low_degree, low_degree + width] through
    the (point, value) rational pairs of `samples`: the first width + 1
    fix it, any surplus ones check it (see `laurent_interpolate_many`)."""
    return laurent_interpolate_many([p for p, _ in samples],
                                    [[as_rat(v) for _, v in samples]],
                                    low_degree, width)[0]


def laurent_interpolate_many(points, value_rows, low_degree: int,
                             width: int, den: int = 1):
    """Interpolate many sequences sampled at the same rational points, each
    row holding its values over den (ints, or rationals), into LaurentPolys.

    The P points fix a Laurent polynomial on [low_degree, low_degree + P -
    1]; the inverse Vandermonde matrix, cleared to ints over one
    denominator, makes each coefficient one int dot product with a row.
    Coefficients above low_degree + width must vanish, else the assumed
    support is wrong and InconsistentSamples is raised.
    """
    m = len(points)
    if m < width + 1:
        raise ValueError(f"need at least {width + 1} samples, got {m}")
    points = [as_rat(p) for p in points]
    if not all(points):
        raise SingularSystem("sample point zero is not allowed")
    if len(set(points)) != m:
        raise SingularSystem("sample points must be pairwise distinct")
    cols = solve_exact([[p ** (low_degree + k) for k in range(m)]
                        for p in points], [[int(r == c) for r in range(m)]
                                           for c in range(m)])
    vden = lcm(*(x.denominator for col in cols for x in col))
    inverse = [[col[k].numerator * (vden // col[k].denominator)
                for col in cols] for k in range(m)]
    polys = []
    for row in value_rows:
        coeffs = [sum(map(mul, vk, row)) for vk in inverse]
        if any(coeffs[width + 1:]):
            raise InconsistentSamples(
                "surplus sample disagrees; assumed support is wrong")
        polys.append(LaurentPoly(low_degree, [RAT(c, vden * den)
                                              for c in coeffs]))
    return polys
