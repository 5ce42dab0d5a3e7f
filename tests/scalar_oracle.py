"""References for the package's graded arithmetic and int vectors.

`FourPart` is the general arithmetic of Q(s, i): an element a + b s +
c i + e s i with its four rational coefficients, sums, the product of
sixteen terms through the written-out multiplication table of the units,
the inverse through the norm of x times its i-conjugate, and powers by
repeated squaring.  The package stores every value as one rational and
one grade (a Scalar, which never adds); the tests check that arithmetic
against this one, and every test that adds, subtracts or divides values
of Q(s, i) does so here.  A FourPart combines with a Scalar of its
session as with the FourPart of its parts, so the two compare equal when
their parts agree.

The rest is the model's vector algebra on FourPart entries (or rationals),
as the package computed it on Scalars before its vectors moved to ints,
the reference the int vectors of `aba` (ModelVector) are tested against
for small N: the split of a single-grade vector over one common
denominator and rescaling.  `laurent_components` reads sampled vectors'
components as Laurent polynomials through `field.laurent_interpolate_many`.
"""

from math import lcm

from bethelab.aba import ModelVector, StateVector
from bethelab.field import (
    RAT,
    RAT_ZERO,
    LaurentPoly,
    PoleEncountered,
    Scalar,
    SessionMismatch,
    as_rat,
    laurent_interpolate_many,
)


class MixedGrades(ArithmeticError):
    """A value or a vector with nonzero parts of two grades, which no
    Scalar or ModelVector holds."""


# The multiplication table of the units u = 1, s, i, s i, written out from
# s**2 = d and i**2 = -1: UNIT_PRODUCTS[g][h] = (k, sign, power) means
# u_g u_h = sign d^power u_k.
UNIT_PRODUCTS = (
    ((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)),     # 1 u = u
    ((1, 1, 0), (0, 1, 1), (3, 1, 0), (2, 1, 1)),     # s s = d, s s i = d i
    ((2, 1, 0), (3, 1, 0), (0, -1, 0), (1, -1, 0)),   # i i = -1, i s i = -s
    ((3, 1, 0), (2, 1, 1), (1, -1, 0), (0, -1, 1)),   # (s i)^2 = -d
)


class FourPart:
    """Element a + b*s + c*i + e*s*i of Q(s, i) with s**2 = d."""

    __slots__ = ("a", "b", "c", "e", "d")

    def __init__(self, a=0, b=0, c=0, e=0, *, d):
        self.a, self.b, self.c, self.e = map(as_rat, (a, b, c, e))
        self.d = as_rat(d)

    @staticmethod
    def _of_parts(parts, d) -> "FourPart":
        """From four rationals and a rational d, without coercion."""
        x = object.__new__(FourPart)
        x.a, x.b, x.c, x.e = parts
        x.d = d
        return x

    @staticmethod
    def of(x: Scalar) -> "FourPart":
        return FourPart(*x.parts(), d=x.d)

    def parts(self) -> tuple:
        return self.a, self.b, self.c, self.e

    def scalar(self) -> Scalar:
        """The Scalar of a value with at most one nonzero part;
        MixedGrades for two."""
        parts = [(g, x) for g, x in enumerate(self.parts()) if x]
        if len(parts) > 1:
            raise MixedGrades(f"parts of grades {[g for g, _ in parts]}")
        g, r = parts[0] if parts else (0, RAT_ZERO)
        return Scalar(r, g, self.d)

    def summands(self) -> list:
        """The nonzero single-grade FourParts whose sum this is."""
        return [FourPart(*(x if h == g else 0 for h in range(4)), d=self.d)
                for g, x in enumerate(self.parts()) if x]

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.e)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.e)

    def to_rat(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.a

    @staticmethod
    def coerce(x, d):
        """x (an int, rational, Scalar or FourPart) as a FourPart of the
        session d: SessionMismatch for another session, NotImplemented for
        another type."""
        if isinstance(x, Scalar):
            x = FourPart.of(x)
        if isinstance(x, FourPart):
            if x.d is not d and x.d != d:
                raise SessionMismatch(
                    f"session constants differ: {d} vs {x.d}")
            return x
        if isinstance(x, (int, RAT)):
            return FourPart(x, d=d)
        return NotImplemented

    def __add__(self, other):
        o = FourPart.coerce(other, self.d)
        if o is NotImplemented:
            return o
        return FourPart._of_parts([x + y if x and y else x or y  # 0 + y = y
                                   for x, y in zip(self.parts(), o.parts())],
                                  self.d)

    __radd__ = __add__

    def __neg__(self):
        return FourPart._of_parts([-x for x in self.parts()], self.d)

    def __sub__(self, other):
        return self + -FourPart.coerce(other, self.d)

    def __mul__(self, other):
        o = FourPart.coerce(other, self.d)
        if o is NotImplemented:
            return o
        out = [RAT_ZERO] * 4
        ys = [(h, y) for h, y in enumerate(o.parts()) if y]
        for g, x in enumerate(self.parts()):
            for h, y in ys if x else ():  # the sixteen terms, zeros skipped
                k, sign, power = UNIT_PRODUCTS[g][h]
                t = x * y * self.d if power else x * y
                t = t if sign > 0 else -t
                out[k] = out[k] + t if out[k] else t
        return FourPart._of_parts(out, self.d)

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
        o = FourPart.coerce(other, self.d)
        if o is NotImplemented:
            return o
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

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
        if not isinstance(other, (FourPart, Scalar)):
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
    """(den, grade, nums): a vector of one grade, its entries FourParts or
    rationals, as {key: int} numerators over their least common
    denominator."""
    graded = {key: _graded(x) for key, x in v.entries.items()}
    grades = {g for g, _ in graded.values()}
    if len(grades) > 1:
        raise MixedGrades(f"a vector with grades {sorted(grades)}")
    den = lcm(*(r.denominator for _, r in graded.values()))
    return den, grades.pop() if grades else 0, {
        key: r.numerator * (den // r.denominator)
        for key, (_, r) in graded.items()}


def _graded(x) -> tuple:
    """(grade, rational) of a single-grade FourPart or of a rational."""
    if isinstance(x, FourPart):
        x = x.scalar()
        return x.g, x.r
    return 0, as_rat(x)


def summands(v: StateVector) -> dict:
    """{grade: StateVector}: the single-grade vectors of FourParts whose
    sum is v, a vector of FourPart entries."""
    out = {}
    for key, x in v.entries.items():
        for y in x.summands():
            out.setdefault(y.scalar().g, {})[key] = y
    return {g: StateVector(v.n, entries) for g, entries in out.items()}


def model(v: StateVector, params) -> ModelVector:
    """The ModelVector of params' model with the entries of v, FourParts
    of params' session or rationals, all of one grade."""
    for x in v.entries.values():
        if isinstance(x, FourPart) and x.d != params.d:
            raise SessionMismatch(
                f"session constants differ: {x.d} vs {params.d}")
    den, grade, nums = split(v)
    return ModelVector(params.d, den, StateVector(v.n, nums), grade)


def rationals(v: ModelVector) -> StateVector:
    """The rational values of a ModelVector of grade 0."""
    return StateVector(v.n, {key: RAT(x, v.den)
                             for key, x in v.rational().entries.items()})


def evaluate(poly: LaurentPoly, z):
    """The Laurent polynomial at the nonzero point z."""
    acc = 0 * z
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return acc * z ** poly.low


def laurent_components(sample, pts, low: int, width: int) -> dict:
    """Interpolate every component of the rational ModelVectors sample(t),
    t in the rational points pts, as a Laurent polynomial in t on the
    support [low, low + width]; a component missing from a sample counts
    as zero there.  Returns {key: LaurentPoly} with rational coefficients
    over the sorted union of the sampled keys."""
    vecs = [rationals(sample(t)).entries for t in pts]
    keys = sorted(set().union(*vecs))
    rows = [[vec.get(k, RAT(0)) for vec in vecs] for k in keys]
    return dict(zip(keys, laurent_interpolate_many(pts, rows, low, width)))
