"""The R-matrices as dense grids of Scalars, with their dense relabelling
loops: the reference the sparse `rmatrix.RMat` is tested against.

This is the form `rmatrix` built before it stored only the nonzero
weights, on rationals, with the mixed matrix in the gauge K = diag(1, s):
here every weight is a Scalar built from Scalar brackets, and the mixed
matrix carries s itself on its flips.  Entries are read as <lo ro| R |li
ri> at row dim_right * lo + ro and column dim_right * li + ri.
"""

from bethelab.field import Scalar, SessionMismatch, brk
from bethelab.rmatrix import DOWN, UP, ZERO, VertexWeights


def coerce(vw: VertexWeights, z) -> Scalar:
    """z as a Scalar of the session vw; SessionMismatch for another's."""
    if isinstance(z, Scalar):
        if z.d != vw.d:
            raise SessionMismatch(
                f"session constants differ: {z.d} vs {vw.d}")
        return z
    return vw.sc(z)


def rational(x: Scalar):
    """The rational r of a Scalar x = r of grade 0."""
    assert not x.g, f"{x!r} is not rational"
    return x.r


def bracket(vw: VertexWeights, z) -> Scalar:
    """[z] = z - 1/z as a Scalar."""
    z = coerce(vw, z)
    if not z.g:  # zero included: brk raises PoleEncountered
        return vw.sc(brk(z.r))
    return z - z.inv()


def bqz(vw: VertexWeights, k: int, z) -> Scalar:
    """[q^k z] as a Scalar."""
    z = coerce(vw, z)
    return bracket(vw, z * vw.sc(vw.q ** k) if k else z)


def bq(vw: VertexWeights) -> Scalar:
    return vw.sc(brk(vw.q))


def bq2(vw: VertexWeights) -> Scalar:
    return vw.sc(brk(vw.q ** 2))


def gauge_units(vw: VertexWeights, dim: int, power: int) -> list:
    """K^power on a factor of dimension dim: diag(1, s^power) on C^2, the
    identity on C^3."""
    return [vw.sc(1), vw.s ** power] if dim == 2 else [vw.sc(1)] * 3


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
        dl, dr = self.dim_left, self.dim_right
        out = [[None] * (dl * dr) for _ in range(dl * dr)]
        for lo in range(dl):
            for ro in range(dr):
                for li in range(dl):
                    for ri in range(dr):
                        out[self.idx(lo, ro)][self.idx(li, ri)] = (
                            kl[lo] * kr[ro] * self.entry(lo, ro, li, ri)
                            / (kl[li] * kr[ri]))
        return DenseRMat(dl, dr, out)

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


def r11(z, vw: VertexWeights) -> DenseRMat:
    o = vw.sc(0)
    bz = bqz(vw, 0, z)
    bqz_ = bqz(vw, 1, z)
    bq_ = bq(vw)
    return DenseRMat(2, 2, [
        [bqz_, o, o, o],
        [o, bz, bq_, o],
        [o, bq_, bz, o],
        [o, o, o, bqz_],
    ])


def r12(z, vw: VertexWeights) -> DenseRMat:
    """The physical mixed R-matrix: `rmatrix.r12` is K r12 K^-1."""
    o = vw.sc(0)
    s = vw.s
    bz = bqz(vw, 0, z)
    bqz_ = bqz(vw, 1, z)
    bq2z = bqz(vw, 2, z)
    return DenseRMat(2, 3, [
        [bq2z, o, o, o, o, o],
        [o, bqz_, o, s, o, o],
        [o, o, bz, o, s, o],
        [o, s, o, bz, o, o],
        [o, o, s, o, bqz_, o],
        [o, o, o, o, o, bq2z],
    ])


def r22(z, vw: VertexWeights) -> DenseRMat:
    w1 = bqz(vw, 1, z) * bqz(vw, 2, z)
    w2 = bqz(vw, -1, z) * bqz(vw, 0, z)
    w3 = bq(vw) * bq2(vw)
    w4 = bqz(vw, 0, z) * bqz(vw, 1, z)
    w5 = bq2(vw) * bqz(vw, 1, z)
    w6 = bq2(vw) * bqz(vw, 0, z)
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
    o = vw.sc(0)
    mat = [[o] * 9 for _ in range(9)]
    for (out_pair, in_pair), wgt in ent.items():
        mat[3 * out_pair[0] + out_pair[1]][3 * in_pair[0] + in_pair[1]] = wgt
    return DenseRMat(3, 3, mat)


def r21(z, vw: VertexWeights) -> DenseRMat:
    return r12(coerce(vw, z) / vw.sc(vw.q), vw).swapped()
