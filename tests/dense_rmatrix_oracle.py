"""The R-matrices as dense grids of FourParts, with their dense
relabelling loops: the reference the sparse `rmatrix.RMat` is tested
against.

This is the form `rmatrix` built before it stored only the nonzero
weights, on rationals, with the mixed matrix in the gauge K = diag(1, s):
here every weight is a FourPart built from FourPart brackets, and the
mixed matrix carries s itself on its flips.  Entries are read as <lo ro|
R |li ri> at row dim_right * lo + ro and column dim_right * li + ri.
`gate` applies the braided r22 weight by weight to a vector, the
reference for `aba.rhat22_apply`.
"""

from scalar_oracle import FourPart

from bethelab.field import brk
from bethelab.linalg import StateVector
from bethelab.aba import ModelParams
from bethelab.rmatrix import DOWN, UP, ZERO


def coerce(p: ModelParams, z) -> FourPart:
    """z (an int, rational, Scalar or FourPart) as a FourPart of p's
    ring; SessionMismatch for another's."""
    return FourPart.coerce(z, p.d)


def unit_s(p: ModelParams) -> FourPart:
    return FourPart(0, 1, d=p.d)


def unit_i(p: ModelParams) -> FourPart:
    return FourPart(0, 0, 1, d=p.d)


def bracket(p: ModelParams, z) -> FourPart:
    """[z] = z - 1/z as a FourPart."""
    z = coerce(p, z)
    if z.is_rational():  # zero included: brk raises PoleEncountered
        return coerce(p, brk(z.a))
    return z - z.inv()


def bqz(p: ModelParams, k: int, z) -> FourPart:
    """[q^k z] as a FourPart."""
    return bracket(p, coerce(p, z) * p.q ** k if k else z)


def bq(p: ModelParams) -> FourPart:
    return coerce(p, brk(p.q))


def bq2(p: ModelParams) -> FourPart:
    return coerce(p, brk(p.q ** 2))


def gauge_units(p: ModelParams, dim: int, power: int) -> list:
    """K^power on a factor of dimension dim: diag(1, s^power) on C^2, the
    identity on C^3."""
    one = coerce(p, 1)
    return [one, unit_s(p) ** power] if dim == 2 else [one] * 3


class DenseRMat:
    def __init__(self, dim_left: int, dim_right: int, entries):
        self.dim_left = dim_left
        self.dim_right = dim_right
        self.entries = entries

    def idx(self, left: int, right: int) -> int:
        return self.dim_right * left + right

    def entry(self, lo, ro, li, ri):
        return self.entries[self.idx(lo, ro)][self.idx(li, ri)]

    def swapped(self) -> "DenseRMat":
        dl, dr = self.dim_left, self.dim_right
        out = [[None] * (dl * dr) for _ in range(dl * dr)]
        for lo in range(dl):
            for ro in range(dr):
                for li in range(dl):
                    for ri in range(dr):
                        out[dl * ro + lo][dl * ri + li] = self.entry(lo, ro, li, ri)
        return DenseRMat(dr, dl, out)

    def braided(self) -> "DenseRMat":
        dl = self.dim_left
        out = [[None] * (dl * dl) for _ in range(dl * dl)]
        for a in range(dl):
            for b in range(dl):
                for c in range(dl):
                    for dd in range(dl):
                        out[dl * a + b][dl * c + dd] = self.entry(b, a, c, dd)
        return DenseRMat(dl, dl, out)

    def transpose_right(self) -> "DenseRMat":
        dl, dr = self.dim_left, self.dim_right
        out = [[None] * (dl * dr) for _ in range(dl * dr)]
        for lo in range(dl):
            for ro in range(dr):
                for li in range(dl):
                    for ri in range(dr):
                        out[self.idx(lo, ro)][self.idx(li, ri)] = \
                            self.entry(lo, ri, li, ro)
        return DenseRMat(dl, dr, out)

    def gauged(self, kl, kr) -> "DenseRMat":
        """(Kl x Kr) R (Kl x Kr)^-1 for diagonal Kl, Kr given as lists."""
        rows = [x * y for x in kl for y in kr]  # at index idx(left, right)
        cols = [r.inv() for r in rows]
        return DenseRMat(self.dim_left, self.dim_right, [
            [rows[r] * w * cols[c] if w else w for c, w in enumerate(row)]
            for r, row in enumerate(self.entries)])

    def column_map(self) -> dict:
        table = {}
        dl, dr = self.dim_left, self.dim_right
        for li in range(dl):
            for ri in range(dr):
                col = []
                for lo in range(dl):
                    for ro in range(dr):
                        w = self.entry(lo, ro, li, ri)
                        if not w.is_zero():
                            col.append((lo, ro, w))
                table[(li, ri)] = col
        return table


def r11(z, p: ModelParams) -> DenseRMat:
    o = coerce(p, 0)
    bz = bqz(p, 0, z)
    bqz_ = bqz(p, 1, z)
    bq_ = bq(p)
    return DenseRMat(2, 2, [
        [bqz_, o, o, o],
        [o, bz, bq_, o],
        [o, bq_, bz, o],
        [o, o, o, bqz_],
    ])


def r12(z, p: ModelParams) -> DenseRMat:
    """The physical mixed R-matrix: `rmatrix.r12` is K r12 K^-1."""
    o = coerce(p, 0)
    s = unit_s(p)
    bz = bqz(p, 0, z)
    bqz_ = bqz(p, 1, z)
    bq2z = bqz(p, 2, z)
    return DenseRMat(2, 3, [
        [bq2z, o, o, o, o, o],
        [o, bqz_, o, s, o, o],
        [o, o, bz, o, s, o],
        [o, s, o, bz, o, o],
        [o, o, s, o, bqz_, o],
        [o, o, o, o, o, bq2z],
    ])


def r22(z, p: ModelParams) -> DenseRMat:
    w1 = bqz(p, 1, z) * bqz(p, 2, z)
    w2 = bqz(p, -1, z) * bqz(p, 0, z)
    w3 = bq(p) * bq2(p)
    w4 = bqz(p, 0, z) * bqz(p, 1, z)
    w5 = bq2(p) * bqz(p, 1, z)
    w6 = bq2(p) * bqz(p, 0, z)
    w7 = w4 + w3
    U, Z, D = UP, ZERO, DOWN
    ent = {
        ((U, U), (U, U)): w1, ((D, D), (D, D)): w1,
        ((U, D), (U, D)): w2, ((D, U), (D, U)): w2,
        ((D, U), (U, D)): w3, ((U, D), (D, U)): w3,
        ((Z, U), (Z, U)): w4, ((Z, D), (Z, D)): w4,
        ((U, Z), (U, Z)): w4, ((D, Z), (D, Z)): w4,
        ((U, Z), (Z, U)): w5, ((D, Z), (Z, D)): w5,
        ((Z, D), (D, Z)): w5, ((Z, U), (U, Z)): w5,
        ((Z, Z), (D, U)): w6, ((Z, Z), (U, D)): w6,
        ((U, D), (Z, Z)): w6, ((D, U), (Z, Z)): w6,
        ((Z, Z), (Z, Z)): w7,
    }
    o = coerce(p, 0)
    mat = [[o] * 9 for _ in range(9)]
    for (out_pair, in_pair), wgt in ent.items():
        mat[3 * out_pair[0] + out_pair[1]][3 * in_pair[0] + in_pair[1]] = wgt
    return DenseRMat(3, 3, mat)


def r21(z, p: ModelParams) -> DenseRMat:
    return r12(coerce(p, z) / p.q, p).swapped()


def gate(u, params, v: StateVector, i: int, j: int) -> StateVector:
    """P R22(u) on site positions i, j (0-based, i the left factor),
    weight by weight from the braided dense matrix's FourPart weights."""
    table = r22(u, params).braided().column_map()
    out = {}
    for key, amp in v.entries.items():
        for lo, ro, w in table[key[i], key[j]]:
            nk = list(key)
            nk[i], nk[j] = lo, ro
            nk = tuple(nk)
            out[nk] = out.get(nk, 0) + amp * w
    return StateVector(v.n, out)
