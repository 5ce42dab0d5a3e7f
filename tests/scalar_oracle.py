"""References for the package's graded arithmetic and int vectors.

`FourPart` is the general arithmetic of Q(s, i): an element a + b s +
c i + e s i with its four rational coefficients, the sixteen-term
product, the inverse through the norm of x times its i-conjugate, and
powers by repeated squaring.  The package stores every value as one
rational and one grade; the tests check that arithmetic against this one.

The rest is the model's vector algebra on Scalar entries, as the package
computed it before its vectors moved to ints, the reference the int
vectors of `aba` (ModelVector) are tested against for small N: the split
of a single-grade vector over one common denominator, the braided
two-site gate with Scalar weights, rescaling and exact Laurent
interpolation by a Scalar linear solve, whose surplus samples are checked
by evaluating the interpolant.
"""

from math import lcm

import dense_rmatrix_oracle as dense

from bethelab.aba import ModelVector, StateVector
from bethelab.field import (
    RAT,
    InconsistentSamples,
    LaurentPoly,
    MixedGrades,
    PoleEncountered,
    Scalar,
    SessionMismatch,
    SingularSystem,
    as_rat,
    solve_exact,
)


class FourPart:
    """Element a + b*s + c*i + e*s*i of Q(s, i) with s**2 = d."""

    __slots__ = ("a", "b", "c", "e", "d")

    def __init__(self, a=0, b=0, c=0, e=0, *, d):
        self.a, self.b, self.c, self.e = map(as_rat, (a, b, c, e))
        self.d = as_rat(d)

    @staticmethod
    def of(x: Scalar) -> "FourPart":
        return FourPart(*x.parts(), d=x.d)

    def parts(self) -> tuple:
        return self.a, self.b, self.c, self.e

    def summands(self) -> list:
        """The nonzero graded Scalars whose sum this is."""
        return [Scalar(*(x if h == g else 0 for h in range(4)), d=self.d)
                for g, x in enumerate(self.parts()) if x]

    def is_zero(self) -> bool:
        return not any(self.parts())

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.e)

    def to_rat(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.a

    def _coerce(self, other):
        if isinstance(other, FourPart):
            if self.d != other.d:
                raise SessionMismatch(
                    f"session constants differ: {self.d} vs {other.d}")
            return other
        if isinstance(other, (int, RAT)):
            return FourPart(other, d=self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FourPart(*(x + y for x, y in zip(self.parts(), o.parts())),
                        d=self.d)

    __radd__ = __add__

    def __neg__(self):
        return FourPart(*(-x for x in self.parts()), d=self.d)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, c, e = self.parts()
        A, B, C, E = o.parts()
        d = self.d
        return FourPart(
            a * A + (b * B - e * E) * d - c * C,
            a * B + b * A - c * E - e * C,
            a * C + c * A + (b * E + e * B) * d,
            a * E + e * A + b * C + c * B,
            d=d,
        )

    __rmul__ = __mul__

    def conj_i(self) -> "FourPart":
        return FourPart(self.a, self.b, -self.c, -self.e, d=self.d)

    def inv(self) -> "FourPart":
        """1/x = conj_i(x) (u - v s) / (u^2 - v^2 d), where x conj_i(x) =
        u + v s lies in Q(s)."""
        if self.is_zero():
            raise PoleEncountered("inverse of zero scalar")
        ci = self.conj_i()
        n = self * ci
        u, v = n.a, n.b
        norm = u * u - v * v * self.d
        if norm == 0:
            raise PoleEncountered("zero norm; d admits zero divisors")
        return ci * FourPart(u / norm, -v / norm, d=self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inv()

    def __pow__(self, n: int) -> "FourPart":
        if n < 0:
            return self.inv() ** (-n)
        result, base = FourPart(1, d=self.d), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, RAT)):
            return self.is_rational() and self.a == other
        if not isinstance(other, FourPart):
            return NotImplemented
        if self.d != other.d:
            raise SessionMismatch(
                f"session constants differ: {self.d} vs {other.d}")
        return self.parts() == other.parts()

    def __hash__(self):
        return hash((self.parts(), self.d))

    def __repr__(self):
        return f"FourPart({', '.join(map(str, self.parts()))} | d={self.d})"

    def to_json_dict(self) -> dict:
        return {**{k: f"{x.numerator}/{x.denominator}"
                   for k, x in zip("abce", self.parts())},
                "d": f"{self.d.numerator}/{self.d.denominator}"}


def split(v: StateVector):
    """(den, grade, nums): a vector of Scalars of one grade as {key: int}
    numerators over their least common denominator."""
    grades = {x.g for x in v.entries.values()}
    if len(grades) > 1:
        raise MixedGrades(f"a vector with grades {sorted(grades)}")
    den = lcm(*(x.r.denominator for x in v.entries.values()))
    return den, grades.pop() if grades else 0, {
        key: x.r.numerator * (den // x.r.denominator)
        for key, x in v.entries.items()}


def summands(v: StateVector) -> dict:
    """{grade: StateVector}: the single-grade vectors of Scalars whose sum
    is v, a vector of FourPart entries."""
    out = {}
    for key, x in v.entries.items():
        for y in x.summands():
            out.setdefault(y.g, {})[key] = y
    return {g: StateVector(v.n, entries) for g, entries in out.items()}


def model(v: StateVector, params) -> ModelVector:
    """The ModelVector of params' model with the Scalar entries of v, all
    of one grade."""
    for x in v.entries.values():
        dense.coerce(params.vw, x)  # SessionMismatch for another session
    den, grade, nums = split(v)
    return ModelVector(params.d, den, StateVector(v.n, nums), grade)


def gate(u, params, v: StateVector, i: int, j: int) -> StateVector:
    """P R22(u) on site positions i, j (0-based, i the left factor),
    weight by weight from the braided dense matrix's Scalar weights."""
    table = dense.r22(u, params.vw).braided().column_map()
    out = {}
    for key, amp in v.entries.items():
        for lo, ro, w in table[key[i], key[j]]:
            nk = list(key)
            nk[i], nk[j] = lo, ro
            nk = tuple(nk)
            out[nk] = out.get(nk, 0) + amp * w
    return StateVector(v.n, out)


def evaluate(poly: LaurentPoly, z):
    """The Laurent polynomial at the nonzero point z."""
    acc = 0 * z
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return acc * z ** poly.low


def laurent_interpolate_many(points, value_rows, low_degree: int,
                             width: int):
    """Scalar points and rows of Scalar values: the first width + 1
    samples fix each LaurentPoly by a Scalar solve, the rest must agree
    with it."""
    m = width + 1
    if len(points) < m:
        raise ValueError(f"need at least {m} samples, got {len(points)}")
    if any(p.is_zero() for p in points):
        raise SingularSystem("sample point zero is not allowed")
    if len(set(points)) != len(points):
        raise SingularSystem("sample points must be pairwise distinct")
    matrix = [[p ** (low_degree + k) for k in range(m)] for p in points[:m]]
    sols = solve_exact(matrix, [list(row[:m]) for row in value_rows])
    polys = []
    for sol, row in zip(sols, value_rows):
        poly = LaurentPoly(low_degree, sol)
        for p, v in zip(points[m:], row[m:]):
            if evaluate(poly, p) != v:
                raise InconsistentSamples(
                    "surplus sample disagrees; assumed support is wrong")
        polys.append(poly)
    return polys


def laurent_components(sample, pts, params, low: int, width: int) -> dict:
    """Interpolate every component of the vectors sample(t), t in pts, as a
    Laurent polynomial in t on the support [low, low + width]; a component
    missing from a sample counts as zero there.  Returns {key: LaurentPoly}
    with Scalar coefficients over the sorted union of the sampled keys."""
    vecs = [sample(t) for t in pts]
    keys = sorted(set().union(*(vec.entries for vec in vecs)))
    zero = Scalar(0, d=params.d)
    rows = [[vec.entries.get(k, zero) for vec in vecs] for k in keys]
    polys = laurent_interpolate_many([params.sc(t) for t in pts], rows,
                                     low, width)
    return dict(zip(keys, polys))
