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

The weights are written once, as integer Laurent polynomials in q and
the spectral parameter z: `R11`, `R12` and `R22` list each matrix's
distinct weights, {(q exponent, z exponent): coefficient}, and the key
of every nonzero entry, in ascending key order.  Each weight is a
bracket [q^k z] (brackets [x] = x - 1/x), a product of two, a flip 1 or
d = [q][q^2], or r22's w7 = [z][qz] + [q][q^2].  `r11`, `r12` and `r22`
evaluate that description at rationals q = p/r and z = a/b (anything
`field.as_rat` reads) straight to ints: a term c q^i z^j becomes the
int c p^(3+i) r^(3-i) a^(2+j) b^(2-j) over D = (p r)^3 (a b)^2, and the
ints and D are divided by gcd(D, ints...) with the sign that makes D >
0.  `r12_at` and `r22_at` take z and q as those int pairs (a, b) and
(p, r), b, r > 0, and leave q's check to the caller (`aba.ModelParams`
holds a checked q): `aba` keys its table memo by the pair, so no
rational is built on the way.  Every evaluation reads the description
when it runs, takes its keys as they stand (in the pair space and in
ascending order, as `_keys` builds them) and drops the zero weights, so
the RMat is stored with no further check or sort.  So an
`RMat` holds its weights as int numerators over their least common
denominator D (`RMat.den`), and it has two read-outs: the ints over D,
which the transition tables of `aba` and the Yang-Baxter and inversion
products take as they are, and the rationals `RMat.weights`, which the
other identity checks compare.  z = 0, and q = 0 in r11, make D = 0 (a
bracket of zero) and raise `field.PoleEncountered`; the ring Q(s, i) of
the model's values belongs to `aba.ModelParams`.

The mixed R-matrix carries s = sqrt([q][q^2]) on its four spin-flip
weights, so it is described in the gauge K = diag(1, s) on its
spin-1/2 factor: `r12` is K R12 K^-1, whose flips weigh 1 for 0 <- 1
and d = [q][q^2] for 1 <- 0, and K^-1 r12 K is the physical matrix.
`r12` and `r22` read d from `field.session_constant`, so q = 0 and
q^4 = 1 raise its ValueError there.  `r21` carries the same gauge on its
right factor.  `r12_leading` is the leading part of r12(z) as z runs to
infinity or to 0, the description's terms of extreme z-degree (the
diagonal monomials that `aba`'s asymptotic sweep uses).  K x K commutes
with `r11`, which conserves magnetisation, so every identity below is
the physical one conjugated by K on each spin-1/2 factor and holds on
rationals.

The nineteen-vertex weight table of R(z) = r22(z), with U/0/D for the
spin components and entries <aux' site'|R|aux site>:

    (U U | U U) = (D D | D D)                 = [qz][q^2 z]     w1
    (U D | U D) = (D U | D U)                 = [z/q][z]        w2
    (D U | U D) = (U D | D U)                 = [q][q^2]        w3
    (0 U | 0 U) = (0 D | 0 D)
      = (U 0 | U 0) = (D 0 | D 0)             = [z][qz]         w4
    (U 0 | 0 U) = (D 0 | 0 D)
      = (0 D | D 0) = (0 U | U 0)             = [q^2][qz]       w5
    (0 0 | D U) = (0 0 | U D)
      = (U D | 0 0) = (D U | 0 0)             = [q^2][z]        w6
    (0 0 | 0 0)                               = [z][qz] + [q][q^2]  w7

These nineteen entries conserve magnetisation and form a symmetric
matrix; r22(1) = [q][q^2] P (permutation) and r22(1/q) = [q][q^2] |s><s|
with |s> = |UD> + |DU> - |00> (rank one).

The fusion of two mixed R-matrices into r22 is checked on the gauged
weights, with no radical adjoined: with the unnormalised symmetric
embedding iota(U) = uu, iota(0) = ud + du, iota(D) = dd, the projection
pi = (iota^T with the middle row halved) and P- = |ud - du>,
check_fusion_r22 verifies

    (pi x 1) r13(z/q) r23(z) (iota x 1) = G r22(z) G^-1,
    G = diag(1, [q], [q][q^2]) on U, 0, D,
    P- r13(z/q) r23(z) P+ = 0,  P- r13(z/q) r23(z) P- = [z/q][q^2 z] P-:

the block-triangular decomposition with upper block r22(z) and lower
scalar [z/q][q^2 z].  K x K is diag(1, s, [q][q^2]) on iota, so the
physical upper block is r22(z) conjugated by diag(1, [q]/s, 1), the
normalisation of the symmetric state ud + du.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod

from bethelab import linalg
from bethelab.field import (
    RAT,
    PoleEncountered,
    as_rat,
    brk,
    inv,
    session_constant,
)

UP, ZERO, DOWN = 0, 1, 2  # spin-1 components U, 0, D


class RMat:
    """Operator on a pair of sites V_left x V_right, stored as the int
    numerators of its nonzero weights over one denominator den > 0,
    {(lo, ro, li, ri): numerator of <lo ro| R |li ri>} in ascending key
    order; a key that is not stored is a zero weight."""

    __slots__ = ("dim_left", "dim_right", "numerators", "den")

    def __init__(self, dim_left: int, dim_right: int, numerators: dict,
                 den: int = 1):
        if not all(0 <= lo < dim_left and 0 <= li < dim_left
                   and 0 <= ro < dim_right and 0 <= ri < dim_right
                   for lo, ro, li, ri in numerators):
            raise ValueError(f"a weight lies outside the {dim_left}x"
                             f"{dim_right} pair space")
        self.dim_left = dim_left
        self.dim_right = dim_right
        self.numerators = {k: numerators[k] for k in sorted(numerators)
                           if numerators[k]}
        self.den = den

    @classmethod
    def _stored(cls, dim_left: int, dim_right: int, numerators: dict,
                den: int) -> "RMat":
        """An RMat of numerators that are already nonzero, in the pair
        space and in ascending key order, stored as they are."""
        rmat = cls.__new__(cls)
        rmat.dim_left, rmat.dim_right = dim_left, dim_right
        rmat.numerators, rmat.den = numerators, den
        return rmat

    @property
    def weights(self) -> dict:
        """The rational weights {key: numerator / den}."""
        return {k: RAT(x, self.den) for k, x in self.numerators.items()}

    def _relabelled(self, dim_left, dim_right, key) -> "RMat":
        return RMat(dim_left, dim_right,
                    {key(*k): x for k, x in self.numerators.items()},
                    self.den)

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
        """Transition table {(li, ri): [(lo, ro, numerator), ...]} over
        den: every column, empty ones too, with its weights in ascending
        (lo, ro)."""
        table = {(li, ri): [] for li in range(self.dim_left)
                 for ri in range(self.dim_right)}
        for (lo, ro, li, ri), x in self.numerators.items():
            table[(li, ri)].append((lo, ro, x))
        return table

    def embedded(self, dims, sa: int, sb: int) -> dict:
        """The numerators of this operator on factors sa (left) and sb
        (right) of the tensor product of spaces of dimensions `dims`, the
        identity times den on every other factor, as sparse rows {row:
        {column: numerator}} for linalg.sp_mul; over den they are the
        operator."""
        strides = [prod(dims[k + 1:]) for k in range(len(dims))]
        others = [k for k in range(len(dims)) if k not in (sa, sb)]
        sta, stb = strides[sa], strides[sb]
        out = {}
        for rest in product(*(range(dims[k]) for k in others)):
            base = sum(strides[k] * v for k, v in zip(others, rest))
            for (lo, ro, li, ri), x in self.numerators.items():
                row = out.setdefault(base + sta * lo + stb * ro, {})
                row[base + sta * li + stb * ri] = x
        return out


# -- the weights: integer Laurent polynomials in (q, z) -----------------


def _keys(*groups) -> dict:
    """{key: k} in ascending key order for the keys in groups[k], each
    spelled <lo ro|R|li ri> with u, d for spin-1/2 (codes 0, 1) and U, 0,
    D for spin 1."""
    return dict(sorted(
        (tuple(("ud" if c.islower() else "U0D").index(c) for c in key), k)
        for k, group in enumerate(groups) for key in group.split()))


# Each matrix as ((dim_left, dim_right), its distinct weights, {key: the
# index of its weight}), a weight sum c q^i z^j written {(i, j): c} with
# |i| <= 3 and |j| <= 2 (the powers `_evaluate` clears); [q^k z] is
# {(k, 1): 1, (-k, -1): -1}.
_D = {(3, 0): 1, (1, 0): -1, (-1, 0): -1, (-3, 0): 1}  # d = [q][q^2]
R11 = ((2, 2), [  # [qz], [z], [q]
    {(1, 1): 1, (-1, -1): -1}, {(0, 1): 1, (0, -1): -1},
    {(1, 0): 1, (-1, 0): -1}], _keys("uuuu dddd", "udud dudu", "uddu duud"))
R12 = ((2, 3), [  # the diagonal [q^k z] at index k, then the flips 1, d
    {(0, 1): 1, (0, -1): -1}, {(1, 1): 1, (-1, -1): -1},
    {(2, 1): 1, (-2, -1): -1}, {(0, 0): 1}, _D],
    _keys("uDuD dUdU", "u0u0 d0d0", "uUuU dDdD", "u0dU uDd0", "dUu0 d0uD"))
R22 = ((3, 3), [  # w1..w7 of the weight table in the module docstring
    {(3, 2): 1, (1, 0): -1, (-1, 0): -1, (-3, -2): 1},   # [qz][q^2 z]
    {(-1, 2): 1, (-1, 0): -1, (1, 0): -1, (1, -2): 1},   # [z/q][z]
    _D,                                                  # [q][q^2]
    {(1, 2): 1, (-1, 0): -1, (1, 0): -1, (-1, -2): 1},   # [z][qz]
    {(3, 1): 1, (1, -1): -1, (-1, 1): -1, (-3, -1): 1},  # [q^2][qz]
    {(2, 1): 1, (2, -1): -1, (-2, 1): -1, (-2, -1): 1},  # [q^2][z]
    {(1, 2): 1, (-1, -2): 1, (3, 0): 1, (1, 0): -2, (-1, 0): -2,
     (-3, 0): 1}],                                       # [z][qz] + d
    _keys("UUUU DDDD", "UDUD DUDU", "DUUD UDDU", "0U0U 0D0D U0U0 D0D0",
          "U00U D00D 0DD0 0UU0", "00DU 00UD UD00 DU00", "0000"))


def _evaluate(described, u, q) -> RMat:
    """The matrix a description holds at z = a/b and q = p/r, given as
    int pairs u = (a, b) and q = (p, r) with b, r > 0, as ints over their
    least common denominator D > 0 (see the module docstring)."""
    (dim_left, dim_right), polys, keys = described
    (a, b), (p, r) = u, q
    if not p * a:
        raise PoleEncountered("bracket of zero spectral parameter")
    qs = [p ** (3 + i) * r ** (3 - i) for i in range(-3, 4)]
    zs = [a ** (2 + j) * b ** (2 - j) for j in range(-2, 3)]
    nums = [sum(c * qs[i + 3] * zs[j + 2] for (i, j), c in poly.items())
            for poly in polys]
    den = qs[3] * zs[2]
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    nums = [x // g for x in nums]
    return RMat._stored(dim_left, dim_right, {
        key: nums[k] for key, k in keys.items() if nums[k]}, den // g)


def _pair(x) -> tuple:
    """The rational x (anything `field.as_rat` reads) as its reduced int
    pair (a, b), b > 0."""
    return as_rat(x).as_integer_ratio()


def r11(z, q) -> RMat:
    """Six-vertex R-matrix on C^2 x C^2, spin-1/2 up = 0 and down = 1.

    Degenerates to B P+ at z = q (B = diag([q^2], 2[q], 2[q], [q^2])) and
    to -2[q] P- at z = 1/q.
    """
    return _evaluate(R11, _pair(z), _pair(q))


def r12(z, q) -> RMat:
    """Mixed R-matrix on C^2 x C^3, symmetric up to the gauge: K R12 K^-1
    with K = diag(1, s) on the spin-1/2 factor, whose flips s become 1
    (auxiliary 0 <- 1) and d = [q][q^2] (1 <- 0)."""
    session_constant(q)
    return r12_at(_pair(z), _pair(q))


def r12_at(u, q) -> RMat:
    """r12 at z = a/b for int pairs u = (a, b) and q = (p, r), b, r > 0,
    with q already checked as `r12` checks it."""
    return _evaluate(R12, u, q)


def r12_leading(z, q, to_inf: bool) -> RMat:
    """The leading part of r12(z) as z runs to infinity (to_inf) or to 0:
    the terms of `R12` of highest or of lowest z-degree, so each diagonal
    weight [c z] becomes c z or -1/(c z) and the flips, of degree 0 in z,
    drop out.  Checks q as r12 does."""
    dims, polys, keys = R12
    degree = (max if to_inf else min)(j for poly in polys for _, j in poly)
    session_constant(q)
    return _evaluate((dims, [{e: c for e, c in poly.items() if e[1] == degree}
                             for poly in polys], keys), _pair(z), _pair(q))


def r22(z, q) -> RMat:
    """Nineteen-vertex R-matrix on C^3 x C^3 from the weight table above."""
    session_constant(q)
    return r22_at(_pair(z), _pair(q))


def r22_at(u, q) -> RMat:
    """r22 at z = a/b for int pairs u = (a, b) and q = (p, r), b, r > 0,
    with q already checked as `r22` checks it."""
    return _evaluate(R22, u, q)


def r_mn(m: int, n: int, z, q) -> RMat:
    """R^(m,n) for m, n in {1, 2}.

    The matrix with the higher spin in the first factor is the
    factor-swapped mixed matrix at a shifted argument,
    R^(2,1)(z) = P R^(1,2)(z/q) P; this is the unique member of the family
    that closes all eight mixed Yang-Baxter equations exactly.
    """
    if (m, n) == (2, 1):
        session_constant(q)  # before z / q can divide by zero
        return r12(as_rat(z) / as_rat(q), q).swapped()
    if (m, n) not in ((1, 1), (1, 2), (2, 2)):
        raise ValueError("m, n must be 1 or 2")
    return {(1, 1): r11, (1, 2): r12, (2, 2): r22}[m, n](z, q)


def check_ybe(m: int, n: int, p: int, z, w, q) -> bool:
    """Exact Yang-Baxter equation on C^(m+1) x C^(n+1) x C^(p+1):

    R12(z/w) R13(z) R23(w) = R23(w) R13(z) R12(z/w),

    on the numerators: both sides carry the same D12 D13 D23.
    """
    z, w = as_rat(z), as_rat(w)
    dims = [m + 1, n + 1, p + 1]
    r12_ = r_mn(m, n, z * inv(w), q).embedded(dims, 0, 1)
    r13_ = r_mn(m, p, z, q).embedded(dims, 0, 2)
    r23_ = r_mn(n, p, w, q).embedded(dims, 1, 2)
    lhs = linalg.sp_mul(linalg.sp_mul(r12_, r13_), r23_)
    rhs = linalg.sp_mul(linalg.sp_mul(r23_, r13_), r12_)
    return lhs == rhs


def inversion_check(z, q) -> bool:
    """R(z) R(1/z) = [q/z][q^2 z] [qz][q^2/z] Id on C^3 x C^3, on the
    numerators: the right side is scaled by D(z) D(1/z)."""
    z, q = as_rat(z), as_rat(q)
    a, b = r22(z, q), r22(inv(z), q)
    lhs = linalg.sp_mul(a.embedded([3, 3], 0, 1), b.embedded([3, 3], 0, 1))
    c = (brk(q / z) * brk(q * q * z) * brk(q * z) * brk(q * q / z)
         * a.den * b.den)
    return lhs == {k: {k: c} for k in range(9) if c}


def singlet_pair_vector() -> dict:
    """|s> = |UD> + |DU> - |00> on C^3 x C^3, as {(left, right): coeff}."""
    return {(UP, DOWN): 1, (ZERO, ZERO): -1, (DOWN, UP): 1}


def rank_one_check(q) -> bool:
    """r22(1/q) = [q][q^2] |s><s|.

    The entries settle the rank too: an outer product of the nonzero
    vector |s> with itself has rank one, so no minor is evaluated.
    """
    q = as_rat(q)
    d, s = session_constant(q), singlet_pair_vector()
    want = {o + i: d * so * si for o, so in s.items() for i, si in s.items()}
    return r22(inv(q), q).weights == want


def magnetisation_pattern_check(z, q) -> bool:
    """Entries of r22 vanish unless out and in pairs carry equal spin.

    With U, 0, D coded 0, 1, 2 a site's spin is 1 minus its code, so equal
    spin is an equal sum of codes."""
    return all(lo + ro == li + ri for lo, ro, li, ri in r22(z, q).numerators)


def permutation_check(q) -> bool:
    """r22(1) = [q][q^2] P."""
    d = session_constant(q)
    return r22(1, q).weights == {(a, b, b, a): d for a in range(3)
                                 for b in range(3)}


# -- fusion of two mixed R-matrices into the nineteen-vertex one -------


def check_fusion_r22(z, q) -> bool:
    """The fusion decomposition (see module doc) as one comparison of
    weights: Y = r13(z/q) r23(z) in the fused labels, all but its block
    P+ Y P- above the diagonal, against G r22(z) G^-1 and the scalar
    [z/q][q^2 z] on A = ud - du, all scaled by twice Y's denominator, so
    that Y's side sums ints."""
    z, q = as_rat(z), as_rat(q)
    # Y on C^2 x C^2 x C^3, row 3 * pair + alpha with
    # pair = 2 * (first spin) + (second spin), as numerators over den
    dims = [2, 2, 3]
    first, second = r12(z / q, q), r12(z, q)
    y = linalg.sp_mul(first.embedded(dims, 0, 2),
                      second.embedded(dims, 1, 2))
    den = first.den * second.den
    # the fused labels U, 0, D and A = ud - du of each pair, weighted: in
    # a row by 2 pi and P-, in a column by iota and P-; G is 1 on A.  The
    # rows' factor 2 keeps got on ints, and want is doubled to match
    anti = DOWN + 1
    rows = [[(UP, 2)], [(ZERO, 1), (anti, 1)], [(ZERO, 1), (anti, -1)],
            [(DOWN, 2)]]
    cols = [[(UP, 1)], [(ZERO, 1), (anti, 1)], [(ZERO, 1), (anti, -1)],
            [(DOWN, 1)]]
    g = {UP: 1, ZERO: brk(q), DOWN: session_constant(q), anti: 1}
    got = {}
    for r, y_row in y.items():
        for c, x in y_row.items():
            for (i, wr), (j, wc) in product(rows[r // 3], cols[c // 3]):
                if j != anti or i == anti:  # P+ Y P- is not constrained
                    key = i, r % 3, j, c % 3
                    got[key] = got.get(key, 0) + wr * wc * x
    scalar = 2 * brk(z / q) * brk(q * q * z) * den
    want = {(i, a, j, b): 2 * g[i] * x * den / g[j]
            for (i, a, j, b), x in r22(z, q).weights.items()}
    want.update({(anti, a, anti, a): scalar for a in range(3) if scalar})
    return {k: x for k, x in got.items() if x} == want


def crossing_transpose_check(z, q) -> bool:
    """Crossing symmetry of the mixed R-matrix, in the form that holds in
    this basis convention:

        r12(z)^{t_right} = - (sigma2 x 1) r12(1/(q^2 z)) (sigma2 x 1),

    where t_right transposes the spin-1 factor and sigma2 is the second
    Pauli matrix on the auxiliary spin-1/2 factor.  Equivalent to the
    monodromy relation B(1/z | 1/w)^t = (-1)^(N-1) C(z | w).  In the gauge
    sigma2 becomes M = K sigma2 K^-1, and -M X M relabels the auxiliary
    blocks X_ab of X: blocks 00, 01, 10, 11 of the image are -X_11,
    X_10 / d, d X_01 and -X_00, compared weight by weight.
    """
    z, q = as_rat(z), as_rat(q)
    d = session_constant(q)
    scale = {(0, 0): -1, (0, 1): d, (1, 0): 1 / d, (1, 1): -1}  # by X_ab
    image = {(1 - a, ro, 1 - b, ri): scale[a, b] * x for (a, ro, b, ri), x
             in r12(inv(z * q * q), q).weights.items()}
    return r12(z, q).transpose_right().weights == image
