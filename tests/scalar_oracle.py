"""The model's vector operations on Scalar entries: the reference the
int-part vectors of `aba` (ModelVector) are tested against, for small N.

Every value here is a Scalar of Q(s, i) and every step is Scalar
arithmetic, as the package computed before its vectors moved to ints:
the four-part split of a vector over one common denominator, the braided
two-site gate with Scalar weights, rescaling and exact Laurent
interpolation by a Scalar linear solve, whose surplus samples are checked
by evaluating the interpolant.
"""

from math import lcm

from bethelab.aba import ModelVector, StateVector
from bethelab.field import (
    InconsistentSamples,
    LaurentPoly,
    Scalar,
    SingularSystem,
    solve_exact,
)
from bethelab.rmatrix import r22


def split(v: StateVector):
    """(den, parts): v's four rational parts (coefficients of 1, s, i and
    s i) as {key: int} numerators over their least common denominator,
    the nonzero parts only, keyed by part index 0..3."""
    xs = {key: (x.a, x.b, x.c, x.e) for key, x in v.entries.items()}
    den = lcm(*(r.denominator for rs in xs.values() for r in rs))
    parts = {}
    for g in range(4):
        part = {key: rs[g].numerator * (den // rs[g].denominator)
                for key, rs in xs.items() if rs[g]}
        if part:
            parts[g] = part
    return den, parts


def model(v: StateVector, params) -> ModelVector:
    """The ModelVector of params' model with the Scalar entries of v."""
    for x in v.entries.values():
        params.coerce(x)  # raises SessionMismatch for another session
    den, parts = split(v)
    return ModelVector(v.n, params.d, den,
                       {g: StateVector(v.n, p) for g, p in parts.items()})


def gate(u, params, v: StateVector, i: int, j: int) -> StateVector:
    """P R22(u) on site positions i, j (0-based, i the left factor),
    weight by weight from the braided matrix's stored Scalar weights."""
    weights = r22(params.coerce(u), params.vw).braided().weights
    out = {}
    for key, amp in v.entries.items():
        for (lo, ro, li, ri), w in weights.items():
            if (li, ri) == (key[i], key[j]):
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
    if len({(p.a, p.b, p.c, p.e) for p in points}) != len(points):
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
