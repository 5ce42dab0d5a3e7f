"""R-matrices of the six-, mixed and nineteen-vertex models.

Basis conventions (fixed for the whole package):

- spin-1/2 space C^2 ordered (up, down); spin-1 space C^3 ordered
  (U, 0, D) for (up, zero, down), encoded 0, 1, 2;
- matrix element <out_left out_right| R |in_left in_right>, where for a
  vertex picture the in pair is (west, south) and the out pair is
  (east, north): pictures are read from south-west to north-east; an
  RMat stores it under the key (out_left, out_right, in_left, in_right);
- where a two-site operator on V_left x V_right is flattened (the sparse
  embeddings of `RMat.embedded`, the dense Hamiltonian bond) the index is
  dim_right * left + right.

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

from itertools import product
from math import lcm, prod

from bethelab import linalg
from bethelab.field import (
    RAT,
    Scalar,
    SessionMismatch,
    ZeroInverse,
    as_rat,
    brk,
    validate_session_constant,
)

UP, ZERO, DOWN = 0, 1, 2  # spin-1 components U, 0, D


class VertexWeights:
    """Session data for one rational anisotropy q: the constant d = [q][q^2],
    scalar constructors and bracket helpers shared by all R-matrices, and
    `tables`, the memo of transition tables built for this q."""

    def __init__(self, q):
        q = as_rat(q)
        if q == 0 or q * q == 1:
            raise ValueError("q must satisfy q != 0 and q^4 != 1")
        qq = brk(q) * brk(q * q)
        self.q = q
        self.d = validate_session_constant(qq)
        self.zero = Scalar(0, d=self.d)
        self.one = Scalar(1, d=self.d)
        self.s = Scalar(0, 1, d=self.d)
        self.i = Scalar(0, 0, 1, d=self.d)
        self.bq = self.sc(brk(q))
        self.bq2 = self.sc(brk(q * q))
        self.tables = {}

    def sc(self, r) -> Scalar:
        return Scalar.graded(as_rat(r), 0, self.d)

    def coerce(self, z) -> Scalar:
        if isinstance(z, Scalar):
            if z.d != self.d:
                raise SessionMismatch(
                    f"session constants differ: {z.d} vs {self.d}")
            return z
        return self.sc(z)

    def bracket(self, z: Scalar) -> Scalar:
        if not z.g:  # zero included: brk raises ZeroInverse
            return self.sc(brk(z.r))
        return z - z.inv()

    def bqz(self, k: int, z: Scalar) -> Scalar:
        """[q^k z] as a Scalar."""
        return self.bracket(z * self.sc(self.q ** k) if k else z)

    def rat(self, z) -> RAT:
        """The spectral parameter z (an int, "p/q", a rational or a Scalar
        of this session, else SessionMismatch) as a rational."""
        if not isinstance(z, Scalar):
            return as_rat(z)
        if self.coerce(z).g:
            raise IrrationalWeight(f"spectral parameter {z!r} is not rational")
        return z.r


class IrrationalWeight(ArithmeticError):
    """A spectral parameter with an s- or i-part, or a transition weight
    that is not rational in the gauge of the sweeps."""


def _gauged(w: Scalar, ao: int, ai: int, d):
    """The weight w = <ao .|R|ai .> as a rational: w itself, or with d
    given and ao != ai, the gauged flip weight (w = b s becomes b for
    0 <- 1 and b d for 1 <- 0)."""
    if d is None or ao == ai:
        if not w.g:
            return w.r
    elif w.g == 1:
        return w.r if ao == 0 else w.r * d
    raise IrrationalWeight(f"<{ao} .|R|{ai} .> = {w!r}")


class RMat:
    """Operator on a pair of sites V_left x V_right, stored as its nonzero
    weights {(lo, ro, li, ri): <lo ro| R |li ri>} in ascending key order.

    A key that is not stored is a zero weight, and `entry` then returns
    `zero`.  The weights are Scalars.
    """

    __slots__ = ("dim_left", "dim_right", "weights", "zero")

    def __init__(self, dim_left: int, dim_right: int, weights: dict, zero):
        if not all(0 <= lo < dim_left and 0 <= li < dim_left
                   and 0 <= ro < dim_right and 0 <= ri < dim_right
                   for lo, ro, li, ri in weights):
            raise ValueError(f"a weight lies outside the {dim_left}x"
                             f"{dim_right} pair space")
        self.dim_left = dim_left
        self.dim_right = dim_right
        self.weights = {k: weights[k] for k in sorted(weights) if weights[k]}
        self.zero = zero

    def entry(self, lo, ro, li, ri):
        return self.weights.get((lo, ro, li, ri), self.zero)

    def _relabelled(self, dim_left, dim_right, key) -> "RMat":
        return RMat(dim_left, dim_right,
                    {key(*k): w for k, w in self.weights.items()}, self.zero)

    def swapped(self) -> "RMat":
        """P R P: the same operator with the tensor factors exchanged."""
        return self._relabelled(self.dim_right, self.dim_left,
                                lambda lo, ro, li, ri: (ro, lo, ri, li))

    def braided(self) -> "RMat":
        """P R (check-R): <a b|PR|c d> = <b a|R|c d>; needs dim_left == dim_right."""
        if self.dim_left != self.dim_right:
            raise ValueError("braiding needs equal factor dimensions")
        return self._relabelled(self.dim_left, self.dim_right,
                                lambda lo, ro, li, ri: (ro, lo, li, ri))

    def transpose_right(self) -> "RMat":
        """Partial transpose on the right factor."""
        return self._relabelled(self.dim_left, self.dim_right,
                                lambda lo, ro, li, ri: (lo, ri, li, ro))

    def column_map(self) -> dict:
        """Transition table {(li, ri): [(lo, ro, weight), ...]}: every
        column, empty ones too, with its weights in ascending (lo, ro)."""
        table = {(li, ri): [] for li in range(self.dim_left)
                 for ri in range(self.dim_right)}
        for (lo, ro, li, ri), w in self.weights.items():
            table[(li, ri)].append((lo, ro, w))
        return table

    def int_column_map(self, d=None):
        """(table, D): `column_map`, gauged by K = diag(1, s), s^2 = d, on
        the left factor when d is given, with every weight an int over
        their least common denominator D."""
        cols = {key: [(ao, so, _gauged(w, ao, key[0], d)) for ao, so, w in col]
                for key, col in self.column_map().items()}
        den = lcm(*(r.denominator for col in cols.values() for *_, r in col))
        return {key: [(ao, so, r.numerator * (den // r.denominator))
                      for ao, so, r in col] for key, col in cols.items()}, den

    def embedded(self, dims, sa: int, sb: int) -> dict:
        """This operator on factors sa (left) and sb (right) of the tensor
        product of spaces of dimensions `dims`, the identity on every other
        factor, as sparse rows {row: {column: weight}} for linalg.sp_mul."""
        strides = [prod(dims[k + 1:]) for k in range(len(dims))]
        others = [k for k in range(len(dims)) if k not in (sa, sb)]
        sta, stb = strides[sa], strides[sb]
        out = {}
        for rest in product(*(range(dims[k]) for k in others)):
            base = sum(strides[k] * v for k, v in zip(others, rest))
            for (lo, ro, li, ri), w in self.weights.items():
                row = out.setdefault(base + sta * lo + stb * ro, {})
                row[base + sta * li + stb * ri] = w
        return out


def _session(q) -> VertexWeights:
    return q if isinstance(q, VertexWeights) else VertexWeights(q)


def r11(z, q) -> RMat:
    """Six-vertex R-matrix on C^2 x C^2, spin-1/2 up = 0 and down = 1.

    Degenerates to B P+ at z = q (B = diag([q^2], 2[q], 2[q], [q^2])) and
    to -2[q] P- at z = 1/q.
    """
    vw = _session(q)
    z = vw.coerce(z)
    bz, bqz, bq = vw.bqz(0, z), vw.bqz(1, z), vw.bq
    return RMat(2, 2, {
        (0, 0, 0, 0): bqz, (1, 1, 1, 1): bqz,
        (0, 1, 0, 1): bz, (1, 0, 1, 0): bz,
        (0, 1, 1, 0): bq, (1, 0, 0, 1): bq,
    }, vw.zero)


def r12(z, q) -> RMat:
    """Mixed R-matrix on C^2 x C^3, symmetric, with the square roots of
    [q][q^2] carried by the extension symbol s."""
    vw = _session(q)
    z = vw.coerce(z)
    bz, bqz, bq2z, s = vw.bqz(0, z), vw.bqz(1, z), vw.bqz(2, z), vw.s
    U, Z, D = UP, ZERO, DOWN
    return RMat(2, 3, {
        (0, U, 0, U): bq2z, (1, D, 1, D): bq2z,
        (0, Z, 0, Z): bqz, (1, Z, 1, Z): bqz,
        (0, D, 0, D): bz, (1, U, 1, U): bz,
        (0, Z, 1, U): s, (1, U, 0, Z): s,
        (0, D, 1, Z): s, (1, Z, 0, D): s,
    }, vw.zero)


def r22(z, q) -> RMat:
    """Nineteen-vertex R-matrix on C^3 x C^3 from the weight table above."""
    vw = _session(q)
    z = vw.coerce(z)
    w1 = vw.bqz(1, z) * vw.bqz(2, z)      # [qz][q^2 z]
    w2 = vw.bqz(-1, z) * vw.bqz(0, z)     # [z/q][z]
    w3 = vw.bq * vw.bq2                   # [q][q^2]
    w4 = vw.bqz(0, z) * vw.bqz(1, z)      # [z][qz]
    w5 = vw.bq2 * vw.bqz(1, z)            # [q^2][qz]
    w6 = vw.bq2 * vw.bqz(0, z)            # [q^2][z]
    w7 = w4 + w3                          # [z][qz] + [q][q^2]
    U, Z, D = UP, ZERO, DOWN
    return RMat(3, 3, {
        (U, U, U, U): w1, (D, D, D, D): w1,
        (U, D, U, D): w2, (D, U, D, U): w2,
        (D, U, U, D): w3, (U, D, D, U): w3,
        (Z, U, Z, U): w4, (Z, D, Z, D): w4,
        (U, Z, U, Z): w4, (D, Z, D, Z): w4,
        (U, Z, Z, U): w5, (D, Z, Z, D): w5,
        (Z, D, D, Z): w5, (Z, U, U, Z): w5,
        (Z, Z, D, U): w6, (Z, Z, U, D): w6,
        (U, D, Z, Z): w6, (D, U, Z, Z): w6,
        (Z, Z, Z, Z): w7,
    }, vw.zero)


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
        vw = _session(q)
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
    r12_ = r_mn(m, n, z / w, vw).embedded(dims, 0, 1)
    r13_ = r_mn(m, p, z, vw).embedded(dims, 0, 2)
    r23_ = r_mn(n, p, w, vw).embedded(dims, 1, 2)
    lhs = linalg.sp_mul(linalg.sp_mul(r12_, r13_), r23_)
    rhs = linalg.sp_mul(linalg.sp_mul(r23_, r13_), r12_)
    return lhs == rhs


def inversion_check(z, q) -> bool:
    """R(z) R(1/z) = [q/z][q^2 z] [qz][q^2/z] Id on C^3 x C^3."""
    vw = VertexWeights(q)
    z = vw.coerce(z)
    lhs = linalg.sp_mul(r22(z, vw).embedded([3, 3], 0, 1),
                        r22(z.inv(), vw).embedded([3, 3], 0, 1))
    rz = vw.bracket(vw.sc(vw.q) / z) * vw.bqz(2, z)
    rzi = vw.bqz(1, z) * vw.bracket(vw.sc(vw.q * vw.q) / z)
    c = rz * rzi
    return lhs == {k: {k: c} for k in range(9) if c}


def singlet_pair_vector(vw: VertexWeights) -> dict:
    """|s> = |UD> + |DU> - |00> on C^3 x C^3, as {(left, right): coeff}."""
    return {(UP, DOWN): vw.one, (ZERO, ZERO): -vw.one, (DOWN, UP): vw.one}


def rank_one_check(q) -> bool:
    """r22(1/q) = [q][q^2] |s><s|.

    The entries settle the rank too: an outer product of the nonzero
    vector |s> with itself has rank one, so no minor is evaluated.
    """
    vw = VertexWeights(q)
    s = singlet_pair_vector(vw)
    w3 = vw.bq * vw.bq2
    want = {o + i: w3 * so * si for o, so in s.items() for i, si in s.items()}
    return r22(vw.sc(vw.q).inv(), vw).weights == want


def magnetisation_pattern_check(z, q) -> bool:
    """Entries of r22 vanish unless out and in pairs carry equal spin.

    With U, 0, D coded 0, 1, 2 a site's spin is 1 minus its code, so equal
    spin is an equal sum of codes."""
    return all(lo + ro == li + ri for lo, ro, li, ri in r22(z, q).weights)


def permutation_check(z, q) -> bool:
    """r22(1) = [q][q^2] P."""
    vw = VertexWeights(q)
    w3 = vw.bq * vw.bq2
    return r22(vw.one, vw).weights == {(a, b, b, a): w3 for a in range(3)
                                       for b in range(3)}


# -- fusion of two mixed R-matrices into the nineteen-vertex one -------


def check_fusion_r22(z, q) -> bool:
    """Gauge-free equivalent of the fusion decomposition (see module doc)."""
    vw = VertexWeights(q)
    z = vw.coerce(z)
    # Y = R13(z/q) R23(z) on C^2 x C^2 x C^3, row 3 * pair + alpha with
    # pair = 2 * (first spin) + (second spin)
    dims = [2, 2, 3]
    y = linalg.sp_mul(r12(z / vw.sc(vw.q), vw).embedded(dims, 0, 2),
                      r12(z, vw).embedded(dims, 1, 2))
    one, half = vw.one, vw.sc(RAT(1, 2))

    def block(rows, cols, alpha, beta):
        """sum of wr wc <pr alpha| Y |pc beta> over weighted pairs pr, pc."""
        acc = vw.zero
        for pr, wr in rows:
            y_row = y.get(3 * pr + alpha, {})
            for pc, wc in cols:
                x = y_row.get(3 * pc + beta)
                if x is not None:
                    acc = acc + wr * wc * x
        return acc

    # unnormalised symmetric embedding iota and projection pi on C^2 x C^2
    # (first two factors); sym labels U, 0, D with parity kappa(0) = 1
    iota = {UP: [(0, one)], ZERO: [(1, one), (2, one)], DOWN: [(3, one)]}
    pi = {UP: [(0, one)], ZERO: [(1, half), (2, half)], DOWN: [(3, one)]}
    kappa = {UP: 0, ZERO: 1, DOWN: 0}

    target = r22(z, vw)
    for i, alpha, j, beta in product((UP, ZERO, DOWN), range(3), repeat=2):
        c = block(pi[i], iota[j], alpha, beta)
        t = target.entry(i, alpha, j, beta)
        dk = kappa[i] - kappa[j]
        if dk == 0:
            if c != t:
                return False
        elif vw.s * c != (vw.bq if dk == 1 else vw.bq2) * t:
            return False

    # antisymmetric row: P- Y P+ = 0 and P- Y P- = [z/q][q^2 z] P-
    scalar = vw.bqz(-1, z) * vw.bqz(2, z)
    anti_row = [(1, half), (2, -half)]  # <ud - du| with the 1/2 normalisation
    anti_col = [(1, one), (2, -one)]    # |ud - du>, unnormalised
    for alpha, beta in product(range(3), repeat=2):
        if any(block(anti_row, iota[j], alpha, beta) for j in iota):
            return False
        if block(anti_row, anti_col, alpha, beta) != (
                scalar if beta == alpha else vw.zero):
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
    lhs = r12(z, vw).transpose_right().embedded([2, 3], 0, 1)
    inner = r12((z * vw.sc(vw.q * vw.q)).inv(), vw).embedded([2, 3], 0, 1)
    # sigma2 x 1 = [[0, -i], [i, 0]] x 1 on C^2 x C^3, and its negative
    conj = {3 * a + k: {3 * (1 - a) + k: vw.i if a else -vw.i}
            for a in range(2) for k in range(3)}
    neg = {r: {c: -w for c, w in row.items()} for r, row in conj.items()}
    return lhs == linalg.sp_mul(linalg.sp_mul(conj, inner), neg)
