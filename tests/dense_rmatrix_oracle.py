"""The R-matrices as dense grids of Scalars, with their dense relabelling
loops: the reference the sparse `rmatrix.RMat` is tested against.

This is the form `rmatrix` built before it stored only the nonzero
weights; entries are read as <lo ro| R |li ri> at row dim_right * lo + ro
and column dim_right * li + ri.
"""

from bethelab.rmatrix import DOWN, UP, ZERO, VertexWeights


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
    z = vw.coerce(z)
    o = vw.zero
    bz = vw.bqz(0, z)
    bqz = vw.bqz(1, z)
    bq = vw.bq
    return DenseRMat(2, 2, [
        [bqz, o, o, o],
        [o, bz, bq, o],
        [o, bq, bz, o],
        [o, o, o, bqz],
    ])


def r12(z, vw: VertexWeights) -> DenseRMat:
    z = vw.coerce(z)
    o = vw.zero
    s = vw.s
    bz = vw.bqz(0, z)
    bqz = vw.bqz(1, z)
    bq2z = vw.bqz(2, z)
    return DenseRMat(2, 3, [
        [bq2z, o, o, o, o, o],
        [o, bqz, o, s, o, o],
        [o, o, bz, o, s, o],
        [o, s, o, bz, o, o],
        [o, o, s, o, bqz, o],
        [o, o, o, o, o, bq2z],
    ])


def r22(z, vw: VertexWeights) -> DenseRMat:
    z = vw.coerce(z)
    w1 = vw.bqz(1, z) * vw.bqz(2, z)
    w2 = vw.bqz(-1, z) * vw.bqz(0, z)
    w3 = vw.bq * vw.bq2
    w4 = vw.bqz(0, z) * vw.bqz(1, z)
    w5 = vw.bq2 * vw.bqz(1, z)
    w6 = vw.bq2 * vw.bqz(0, z)
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
    o = vw.zero
    mat = [[o] * 9 for _ in range(9)]
    for (out_pair, in_pair), wgt in ent.items():
        mat[3 * out_pair[0] + out_pair[1]][3 * in_pair[0] + in_pair[1]] = wgt
    return DenseRMat(3, 3, mat)


def r21(z, vw: VertexWeights) -> DenseRMat:
    return r12(vw.coerce(z) / vw.sc(vw.q), vw).swapped()
