"""R-matrices of the six-, mixed and nineteen-vertex models.

Basis conventions (fixed for the whole package):

- spin-1/2 space C^2 ordered (up, down); spin-1 space C^3 ordered
  (U, 0, D) for (up, zero, down), encoded 0, 1, 2;
- a two-site operator on V_left x V_right uses the flattened index
  dim_right * left + right;
- matrix element <out_left out_right| R |in_left in_right>, where for a
  vertex picture the in pair is (west, south) and the out pair is
  (east, north): pictures are read from south-west to north-east.

The nineteen-vertex weight table of R(z) = r22(z), with U/0/D for the
spin components and entries <aux' site'|R|aux site>:

    (U U | U U) = (D D | D D)                 = [qz][q^2 z]
    (U D | U D) = (D U | D U)                 = [z/q][z]
    (D U | U D) = (U D | D U)                 = [q][q^2]
    (0 U | 0 U) = (0 D | 0 D)
      = (U 0 | U 0) = (D 0 | D 0)             = [z][qz]
    (U 0 | 0 U) = (D 0 | 0 D)
      = (0 D | D 0) = (0 U | U 0)             = [q^2][qz]
    (0 0 | D U) = (0 0 | U D)
      = (U D | 0 0) = (D U | 0 0)             = [q^2][z]
    (0 0 | 0 0)                               = [z][qz] + [q][q^2]

with [z] = z - 1/z.  These nineteen entries conserve magnetisation and
form a symmetric matrix; r22(1) = [q][q^2] P (permutation) and r22(1/q)
= [q][q^2] |s><s| with |s> = |UD> + |DU> - |00> (rank one).

The fused-product identity relating two mixed R-matrices to r22 is
checked without adjoining the radicals 1/sqrt([q^2]), 1/sqrt(2[q]) of the
symmetrising gauge: with the unnormalised symmetric embedding
iota(U)=uu, iota(0)=ud+du, iota(D)=dd, projection pi = (iota^T with the
middle rows halved), parity kappa(U)=kappa(D)=0, kappa(0)=1, and

    C(z) = (pi x 1) R13(z/q) R23(z) (iota x 1),

the equivalent statements verified by check_fusion_r22 are

    (i)    C = r22(z) entrywise where kappa(row) = kappa(col),
    (ii)   s * C = [q]   * r22(z) where kappa(row) - kappa(col) = +1,
    (iii)  s * C = [q^2] * r22(z) where kappa(row) - kappa(col) = -1,
    (iv)   P- (R13(z/q) R23(z)) P+ = 0 on the fused pair,
    (v)    P- (R13(z/q) R23(z)) P- = [z/q][q^2 z] P-,

which together are the block-triangular decomposition with upper block
r22(z) and lower scalar [z/q][q^2 z].
"""

from __future__ import annotations

from bethelab import linalg
from bethelab.field import RAT, Scalar, ZeroInverse, as_rat, brk, validate_session_constant

UP, ZERO, DOWN = 0, 1, 2  # spin-1 components U, 0, D


class VertexWeights:
    """Session data for one rational anisotropy q: the constant d = [q][q^2],
    scalar constructors and bracket helpers shared by all R-matrices."""

    def __init__(self, q):
        q = as_rat(q)
        if q == 0 or q * q == 1:
            raise ValueError("q must satisfy q != 0 and q^4 != 1")
        qq = brk(q) * brk(q * q)
        self.q = q
        self.d = validate_session_constant(qq)
        self.zero = Scalar(0, d=self.d)
        self.one = Scalar(1, d=self.d)
        self.s = Scalar.s_unit(self.d)
        self.i = Scalar.i_unit(self.d)
        self.bq = self.sc(brk(q))
        self.bq2 = self.sc(brk(q * q))

    def sc(self, r) -> Scalar:
        return Scalar(as_rat(r), d=self.d)

    def coerce(self, z) -> Scalar:
        if isinstance(z, Scalar):
            if z.d != self.d:
                raise ValueError("scalar from a different session")
            return z
        return self.sc(z)

    def bracket(self, z: Scalar) -> Scalar:
        if z.is_zero():
            raise ZeroInverse("bracket of zero spectral parameter")
        if z.is_rational():
            return self.sc(brk(z.a))
        return z - z.inv()

    def bqz(self, k: int, z: Scalar) -> Scalar:
        """[q^k z] as a Scalar."""
        return self.bracket(z * self.sc(self.q ** k) if k else z)


class RMat:
    """Dense operator on a pair of sites, entries in Q(s, i)."""

    __slots__ = ("dim_left", "dim_right", "entries")

    def __init__(self, dim_left: int, dim_right: int, entries):
        n = dim_left * dim_right
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError(f"a {dim_left}x{dim_right} pair operator "
                             f"needs {n}x{n} entries")
        self.dim_left = dim_left
        self.dim_right = dim_right
        self.entries = entries

    def idx(self, left: int, right: int) -> int:
        return self.dim_right * left + right

    def entry(self, lo, ro, li, ri) -> Scalar:
        return self.entries[self.idx(lo, ro)][self.idx(li, ri)]

    def is_symmetric(self) -> bool:
        return linalg.mat_eq(self.entries, linalg.transpose(self.entries))

    def swapped(self) -> "RMat":
        """P R P: the same operator with the tensor factors exchanged."""
        dl, dr = self.dim_left, self.dim_right
        out = [[None] * (dl * dr) for _ in range(dl * dr)]
        for lo in range(dl):
            for ro in range(dr):
                for li in range(dl):
                    for ri in range(dr):
                        out[dl * ro + lo][dl * ri + li] = self.entry(lo, ro, li, ri)
        return RMat(dr, dl, out)

    def braided(self) -> "RMat":
        """P R (check-R): <a b|PR|c d> = <b a|R|c d>; needs dim_left == dim_right."""
        if self.dim_left != self.dim_right:
            raise ValueError("braiding needs equal factor dimensions")
        dl = self.dim_left
        out = [[None] * (dl * dl) for _ in range(dl * dl)]
        for a in range(dl):
            for b in range(dl):
                for c in range(dl):
                    for dd in range(dl):
                        out[dl * a + b][dl * c + dd] = self.entry(b, a, c, dd)
        return RMat(dl, dl, out)

    def transpose_right(self) -> "RMat":
        """Partial transpose on the right factor."""
        dl, dr = self.dim_left, self.dim_right
        out = [[None] * (dl * dr) for _ in range(dl * dr)]
        for lo in range(dl):
            for ro in range(dr):
                for li in range(dl):
                    for ri in range(dr):
                        out[self.idx(lo, ro)][self.idx(li, ri)] = \
                            self.entry(lo, ri, li, ro)
        return RMat(dl, dr, out)

    def column_map(self) -> dict:
        """Sparse transition table {(li, ri): [(lo, ro, weight), ...]}."""
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


def r11(z, q) -> RMat:
    """Six-vertex R-matrix on C^2 x C^2.

    Degenerates to B P+ at z = q (B = diag([q^2], 2[q], 2[q], [q^2])) and
    to -2[q] P- at z = 1/q.
    """
    vw = q if isinstance(q, VertexWeights) else VertexWeights(q)
    z = vw.coerce(z)
    o = vw.zero
    bz = vw.bqz(0, z)
    bqz = vw.bqz(1, z)
    bq = vw.bq
    return RMat(2, 2, [
        [bqz, o, o, o],
        [o, bz, bq, o],
        [o, bq, bz, o],
        [o, o, o, bqz],
    ])


def r12(z, q) -> RMat:
    """Mixed R-matrix on C^2 x C^3, symmetric, with the square roots of
    [q][q^2] carried by the extension symbol s."""
    vw = q if isinstance(q, VertexWeights) else VertexWeights(q)
    z = vw.coerce(z)
    o = vw.zero
    s = vw.s
    bz = vw.bqz(0, z)
    bqz = vw.bqz(1, z)
    bq2z = vw.bqz(2, z)
    return RMat(2, 3, [
        [bq2z, o, o, o, o, o],
        [o, bqz, o, s, o, o],
        [o, o, bz, o, s, o],
        [o, s, o, bz, o, o],
        [o, o, s, o, bqz, o],
        [o, o, o, o, o, bq2z],
    ])


def r22(z, q) -> RMat:
    """Nineteen-vertex R-matrix on C^3 x C^3 from the weight table above."""
    vw = q if isinstance(q, VertexWeights) else VertexWeights(q)
    z = vw.coerce(z)
    w1 = vw.bqz(1, z) * vw.bqz(2, z)      # [qz][q^2 z]
    w2 = vw.bqz(-1, z) * vw.bqz(0, z)     # [z/q][z]
    w3 = vw.bq * vw.bq2                   # [q][q^2]
    w4 = vw.bqz(0, z) * vw.bqz(1, z)      # [z][qz]
    w5 = vw.bq2 * vw.bqz(1, z)            # [q^2][qz]
    w6 = vw.bq2 * vw.bqz(0, z)            # [q^2][z]
    w7 = w4 + w3                          # [z][qz] + [q][q^2]
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
    return RMat(3, 3, mat)


def r_mn(m: int, n: int, z, q) -> RMat:
    """R^(m,n) for m, n in {1, 2}.

    The matrix with the higher spin in the first factor is the
    factor-swapped mixed matrix at a shifted argument,
    R^(2,1)(z) = P R^(1,2)(z/q) P; this is the unique member of the family
    that closes all eight mixed Yang-Baxter equations exactly.
    """
    if (m, n) == (1, 1):
        return r11(z, q)
    if (m, n) == (1, 2):
        return r12(z, q)
    if (m, n) == (2, 1):
        vw = q if isinstance(q, VertexWeights) else VertexWeights(q)
        return r12(vw.coerce(z) / vw.sc(vw.q), vw).swapped()
    if (m, n) == (2, 2):
        return r22(z, q)
    raise ValueError("m, n must be 1 or 2")


def check_ybe(m: int, n: int, p: int, z, w, q) -> bool:
    """Exact Yang-Baxter equation on C^(m+1) x C^(n+1) x C^(p+1):

    R12(z/w) R13(z) R23(w) = R23(w) R13(z) R12(z/w).
    """
    vw = VertexWeights(q)
    z = vw.coerce(z)
    w = vw.coerce(w)
    if z.is_zero() or w.is_zero():
        raise ZeroInverse("spectral parameters must be nonzero")
    dims = [m + 1, n + 1, p + 1]
    r12_ = linalg.sp_embed_pair(r_mn(m, n, z / w, vw).entries, dims, 0, 1)
    r13_ = linalg.sp_embed_pair(r_mn(m, p, z, vw).entries, dims, 0, 2)
    r23_ = linalg.sp_embed_pair(r_mn(n, p, w, vw).entries, dims, 1, 2)
    lhs = linalg.sp_mul(linalg.sp_mul(r12_, r13_), r23_)
    rhs = linalg.sp_mul(linalg.sp_mul(r23_, r13_), r12_)
    return lhs == rhs


def inversion_check(z, q) -> bool:
    """R(z) R(1/z) = [q/z][q^2 z] [qz][q^2/z] Id on C^3 x C^3."""
    vw = VertexWeights(q)
    z = vw.coerce(z)
    prod = linalg.mat_mul(r22(z, vw).entries, r22(z.inv(), vw).entries)
    rz = vw.bracket(vw.sc(vw.q) / z) * vw.bqz(2, z)
    rzi = vw.bqz(1, z) * vw.bracket(vw.sc(vw.q * vw.q) / z)
    return linalg.mat_eq(prod, linalg.mat_scale(linalg.identity(9, vw.d), rz * rzi))


def singlet_pair_vector(vw: VertexWeights):
    """|s> = |UD> + |DU> - |00> on C^3 x C^3, as a length-9 column."""
    v = [vw.zero] * 9
    v[3 * UP + DOWN] = vw.one
    v[3 * DOWN + UP] = vw.one
    v[3 * ZERO + ZERO] = -vw.one
    return v


def rank_one_check(q) -> bool:
    """r22(1/q) = [q][q^2] |s><s| and every 2x2 minor vanishes."""
    vw = VertexWeights(q)
    m = r22(vw.sc(vw.q).inv(), vw).entries
    s = singlet_pair_vector(vw)
    w3 = vw.bq * vw.bq2
    for a in range(9):
        for b in range(9):
            if m[a][b] != w3 * s[a] * s[b]:
                return False
    for a in range(9):
        for b in range(a + 1, 9):
            for c in range(9):
                for dd in range(c + 1, 9):
                    if not (m[a][c] * m[b][dd] - m[a][dd] * m[b][c]).is_zero():
                        return False
    return True


def magnetisation_pattern_check(z, q) -> bool:
    """Entries of r22 vanish unless out and in pairs carry equal spin."""
    mag = {UP: 1, ZERO: 0, DOWN: -1}
    m = r22(z, q)
    for lo in range(3):
        for ro in range(3):
            for li in range(3):
                for ri in range(3):
                    if mag[lo] + mag[ro] != mag[li] + mag[ri]:
                        if not m.entry(lo, ro, li, ri).is_zero():
                            return False
    return True


def permutation_check(z, q) -> bool:
    """r22(1) = [q][q^2] P."""
    vw = VertexWeights(q)
    m = r22(vw.one, vw)
    w3 = vw.bq * vw.bq2
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for dd in range(3):
                    want = w3 if (a, b) == (dd, c) else vw.zero
                    if m.entry(a, b, c, dd) != want:
                        return False
    return True


# -- fusion of two mixed R-matrices into the nineteen-vertex one -------


def _fused_pair_product(z, vw: VertexWeights) -> list:
    """R13(z/q) R23(z) on C^2 x C^2 x C^3 (dense 12x12)."""
    dims = [2, 2, 3]
    a13 = linalg.sp_embed_pair(r12(z / vw.sc(vw.q), vw).entries, dims, 0, 2)
    a23 = linalg.sp_embed_pair(r12(z, vw).entries, dims, 1, 2)
    prod = linalg.sp_mul(a13, a23)
    out = linalg.zeros(12, 12, vw.d)
    for i, row in prod.items():
        for j, x in row.items():
            out[i][j] = x
    return out


def check_fusion_r22(z, q) -> bool:
    """Gauge-free equivalent of the fusion decomposition (see module doc)."""
    vw = VertexWeights(q)
    z = vw.coerce(z)
    y = _fused_pair_product(z, vw)
    half = vw.sc(RAT(1, 2))

    # unnormalised symmetric embedding iota and projection pi on C^2 x C^2
    # (first two factors); sym labels U, 0, D with parity kappa(0) = 1
    iota = {UP: [(0, vw.one)], ZERO: [(1, vw.one), (2, vw.one)],
            DOWN: [(3, vw.one)]}
    pi = {UP: [(0, vw.one)], ZERO: [(1, half), (2, half)],
          DOWN: [(3, vw.one)]}
    kappa = {UP: 0, ZERO: 1, DOWN: 0}

    target = r22(z, vw)
    for i in (UP, ZERO, DOWN):
        for alpha in range(3):
            for j in (UP, ZERO, DOWN):
                for beta in range(3):
                    c = vw.zero
                    for pair_o, wo in pi[i]:
                        for pair_i, wi in iota[j]:
                            c = c + wo * wi * y[3 * pair_o + alpha][3 * pair_i + beta]
                    t = target.entry(i, alpha, j, beta)
                    dk = kappa[i] - kappa[j]
                    if dk == 0:
                        if c != t:
                            return False
                    elif dk == 1:
                        if vw.s * c != vw.bq * t:
                            return False
                    else:
                        if vw.s * c != vw.bq2 * t:
                            return False

    # antisymmetric row: P- Y P+ = 0 and P- Y P- = [z/q][q^2 z] P-
    scalar = vw.bqz(-1, z) * vw.bqz(2, z)
    anti = [vw.zero, vw.one, -vw.one, vw.zero]  # ud - du (unnormalised)
    for alpha in range(3):
        # row extraction <anti, alpha| Y with the 1/2 normalisation
        row = [vw.zero] * 12
        for jj in range(12):
            row[jj] = half * (y[3 * 1 + alpha][jj] - y[3 * 2 + alpha][jj])
        # against symmetric columns: must vanish
        for j in (UP, ZERO, DOWN):
            for beta in range(3):
                acc = vw.zero
                for pair_i, wi in iota[j]:
                    acc = acc + wi * row[3 * pair_i + beta]
                if not acc.is_zero():
                    return False
        # against the antisymmetric column: scalar block
        for beta in range(3):
            acc = vw.zero
            for pair_i, wi in enumerate(anti):
                if not wi.is_zero():
                    acc = acc + wi * row[3 * pair_i + beta]
            want = scalar if beta == alpha else vw.zero
            if acc != want:
                return False
    return True


def crossing_transpose_check(z, q) -> bool:
    """Crossing symmetry of the mixed R-matrix, in the form that holds in
    this basis convention:

        r12(z)^{t_right} = - (sigma2 x 1) r12(1/(q^2 z)) (sigma2 x 1),

    where t_right transposes the spin-1 factor and sigma2 is the second
    Pauli matrix on the auxiliary spin-1/2 factor.  Equivalent to the
    monodromy relation B(1/z | 1/w)^t = (-1)^(N-1) C(z | w).
    """
    vw = VertexWeights(q)
    z = vw.coerce(z)
    lhs = r12(z, vw).transpose_right().entries
    inner = r12((z * vw.sc(vw.q * vw.q)).inv(), vw).entries
    i_ = vw.i
    sigma2 = [[vw.zero, -i_], [i_, vw.zero]]
    conj = linalg.kron(sigma2, linalg.identity(3, vw.d))
    rhs = linalg.mat_scale(linalg.mat_mul(conj, linalg.mat_mul(inner, conj)),
                           -vw.one)
    return linalg.mat_eq(lhs, rhs)
