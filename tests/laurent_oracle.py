"""The renormalised vector's Laurent coefficients in one w_j, interpolated
from sampled vectors: the oracle for `aba.leading_coefficient` and for
the degree window and parity that the leading-order sweep cannot see.

By the parity lemma (`aba` module docstring) a component of |psi~> is
w_j^lo times a polynomial in w_j^2, so positive samples of w_j
interpolate it in w_j^2, one parity class at a time, and surplus samples
check the window [-(N-1), N-1] and the parity.
"""

from itertools import count as naturals, islice

from bethelab import aba
from bethelab.aba import ZERO, ModelParams
from bethelab.field import RAT, LaurentPoly, laurent_interpolate_many, spread

SURPLUS_SAMPLES = 2  # samples beyond the larger parity class's size


def admissible_points(params: ModelParams, j: int, count: int):
    """Deterministic stream of sample values for w_j that keep every
    renormalisation factor [q w_a / w_b] nonzero: t = +-w/q and t = +-q w
    for the other w make [q t/w] or [q w/t] a bracket of +-1."""
    q = params.q
    excluded = {s * f * w for k, w in enumerate(params.w) if k != j - 1
                for f in (q, 1 / q) for s in (1, -1)}
    return list(islice((t for t in map(RAT, naturals(1))
                        if t not in excluded), count))


def vector_laurent_coefficients(params: ModelParams, j: int):
    """Interpolate every component of |psi~> as a Laurent polynomial in
    w_j on the proven window [-(N-1), N-1]; a component missing from a
    sample is zero there.  A component with sigma_j = 0 is w_j^-(N-1)
    times a polynomial of N terms in w_j^2, and one with sigma_j != 0 is
    w_j^-(N-2) times one of N - 1 terms: each class is interpolated in
    w_j^2 from N samples at positive w_j, and the surplus ones verify the
    window and the parity (InconsistentSamples).  Returns {key:
    LaurentPoly} with rational coefficients over the sorted union of the
    sampled keys, memoised by j."""
    def build():
        n = params.n
        pts = admissible_points(params, j, n + SURPLUS_SAMPLES)
        vecs = [aba.renormalised_vector(params.with_w(
            params.w[:j - 1] + (t,) + params.w[j:])) for t in pts]
        vals = [{k: RAT(x, v.den) for k, x in v.rational().entries.items()}
                for v in vecs]
        keys = sorted(set().union(*vals))
        squares = [t * t for t in pts]
        polys = {}
        for at_zero, lo, size in ((True, 1 - n, n), (False, 2 - n, n - 1)):
            group = [k for k in keys if (k[j - 1] == ZERO) == at_zero]
            rows = [[val.get(k, 0) * t ** -lo for t, val in zip(pts, vals)]
                    for k in group]
            for k, poly in zip(group, laurent_interpolate_many(
                    squares, rows, 0, size - 1)):
                polys[k] = LaurentPoly(lo + 2 * poly.low,
                                       spread(poly.coeffs, 2))
        return {k: polys[k] for k in keys}

    return params.memo(("laurent", j), build)
