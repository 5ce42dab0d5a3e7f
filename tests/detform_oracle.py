"""The determinant formulas and the closed forms on `fractions.Fraction`:
the reference the int-pair code of `detform` and `aba` is tested against.

Every step here makes one gcd-reduced rational: each bracket, each f and
g, each product and each step of a Bareiss elimination over a field.  The
package evaluates the same formulas on unreduced int (numerator,
denominator) pairs, clears each determinant row to ints and builds one
rational per returned value; these are the formulas it replaced, kept as
they were.  The ASM fallback at a zero divisor of the IK determinant is
the package's own `asm.dwbc_partition_brute`, which is independent of
both.
"""

from functools import cache
from math import prod

from bethelab.aba import ModelParams, RedundantFactorZero
from bethelab.asm import dwbc_partition_brute
from bethelab.field import RAT, PoleEncountered, Scalar, brk, inv


def det_bareiss(a):
    """Fraction-free determinant of a square matrix over any field (the
    package's rationals or the tests' FourPart): every division by the
    previous pivot is exact."""
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return m[k][k]
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# -- the closed forms of `aba` -------------------------------------------


def vacuum_a(z, params: ModelParams) -> RAT:
    """prod_j [q z / w_j]."""
    z = params.rat(z)
    return prod(brk(params.q * z / w) for w in params.w)


def vacuum_d(z, params: ModelParams) -> RAT:
    """prod_j [z / (q w_j)]."""
    z = params.rat(z)
    return prod(brk(z / (params.q * w)) for w in params.w)


def theta2(z, params: ModelParams) -> RAT:
    """-d(z) a(q z)."""
    z = params.rat(z)
    return -vacuum_d(z, params) * vacuum_a(params.q * z, params)


def bethe_equations_residual(roots, params: ModelParams):
    """a(z_k) prod_{j!=k} [z_k/(q z_j)] + d(z_k) prod_{j!=k} [q z_k/z_j]
    for each k, as Scalars."""
    zs = [params.rat(z) for z in roots]
    q = params.q
    residuals = []
    for k, zk in enumerate(zs):
        others = zs[:k] + zs[k + 1:]
        residuals.append(params.sc(
            vacuum_a(zk, params) * prod(brk(zk / (q * z)) for z in others)
            + vacuum_d(zk, params) * prod(brk(q * zk / z) for z in others)))
    return residuals


def renorm_divisor(params: ModelParams) -> Scalar:
    """([q][q^2])^(N/2) prod_{j<k} [q w_j / w_k]."""
    n = params.n
    acc = params.d ** (n // 2)
    for j in range(n):
        for k in range(j + 1, n):
            f = brk(params.q * params.w[j] / params.w[k])
            if f == 0:
                raise RedundantFactorZero(
                    f"[q w_{j + 1}/w_{k + 1}] = 0: w on the singular lattice")
            acc = acc * f
    return Scalar(acc, n % 2, params.d)


# -- the determinant formulas of `detform` --------------------------------


def f_fn(z, w, q) -> RAT:
    """f(z, w) = [q w / z] / [w / z] at rationals z, w and q."""
    den = brk(w * inv(z))
    if not den:
        raise PoleEncountered("f(z, w) has a pole at w = +-z")
    return brk(q * w / z) / den


def g_fn(z, w, q) -> RAT:
    """g(z, w) = [q] / [w / z] at rationals z, w and q."""
    den = brk(w * inv(z))
    if not den:
        raise PoleEncountered("g(z, w) has a pole at w = +-z")
    return brk(q) / den


def slavnov(roots, zeta, params: ModelParams) -> RAT:
    """Slavnov determinant for <vac| prod C(roots) prod B(zeta) |vac>."""
    zs = [params.rat(z) for z in roots]
    cs = [params.rat(z) for z in zeta]
    n = len(zs)
    if len(cs) != n:
        raise ValueError("roots and zeta must have equal length")
    args = zs + cs  # f, g memo keys: root j is j, zeta_k is n + k
    f = cache(lambda a, b: f_fn(args[a], args[b], params.q))
    g = cache(lambda a, b: g_fn(args[a], args[b], params.q))
    ds = [vacuum_d(c, params) for c in cs]
    pref = RAT(1)
    for j in range(n):
        pref = pref * vacuum_d(zs[j], params) * ds[j]
        for k in range(j):
            pref = pref * g(j, k) * g(n + k, n + j)
    for j in range(n):
        for k in range(n):
            pref = pref * f(j, n + k) / g(j, n + k)
    ratio = []
    for k in range(n):
        if not ds[k]:
            raise PoleEncountered("d(zeta_k) = 0")
        r = vacuum_a(cs[k], params) / ds[k]
        for m in range(n):
            r = r * f(n + k, m) * inv(f(m, n + k))
        ratio.append(r)
    matrix = []
    for j in range(n):
        row = []
        for k in range(n):
            gjk = g(j, n + k)
            gkj = g(n + k, j)
            row.append(-gjk * gjk / f(j, n + k)
                       - gkj * gkj * inv(f(n + k, j)) * ratio[k])
        matrix.append(row)
    return pref * det_bareiss(matrix)


def ik_determinant(zeta, w, params: ModelParams) -> RAT:
    """Izergin-Korepin determinant Z_IK(zeta; w), row j scaled by
    prod_l fa fb (zeta_j/w_l)."""
    zs = [params.rat(z) for z in zeta]
    ws = [params.rat(x) for x in w]
    n = len(zs)
    if len(ws) != n:
        raise ValueError("zeta and w must have equal length")
    q = params.q
    den = prod((brk(zs[j] * inv(zs[k])) * brk(ws[k] * inv(ws[j]))
                for j in range(n) for k in range(j + 1, n)), start=RAT(1))
    fc = brk(q * q)
    matrix = []
    for z in zs:
        fs = [brk(q * z * inv(x)) * brk(q * x * inv(z)) for x in ws]
        matrix.append([fc * prod(fs[:k] + fs[k + 1:]) for k in range(n)])
    return det_bareiss(matrix) * inv(den)


def ik_or_asm_sum(zeta, w, params: ModelParams) -> RAT:
    try:
        return ik_determinant(zeta, w, params)
    except PoleEncountered:
        return dwbc_partition_brute(zeta, w, params.q)


def partition_Z_via_ik(params: ModelParams) -> RAT:
    """[q^2]^(-N) Z_IK(w; w)."""
    scale = brk(params.q * params.q) ** params.n
    return ik_or_asm_sum(params.w, params.w, params) / scale


def scalar_product_reduction_rhs(zeta, params: ModelParams) -> RAT:
    """(-1)^N prod_j d(w_j) * Z_IK(zeta; w)."""
    acc = ik_or_asm_sum(zeta, params.w, params)
    for w in params.w:
        acc = acc * vacuum_d(w, params)
    return acc if params.n % 2 == 0 else -acc


def simple_component_even(params: ModelParams) -> RAT:
    """([q]/[q^2])^n prod_{j<k<=n} [q w_k/w_j] prod_{n<j<k} [q w_k/w_j]
    * Z_IK(w_1..w_n; w_{n+1}..w_{2n}) for N = 2n."""
    n = params.n // 2
    q, w = params.q, params.w
    acc = (brk(q) / brk(q * q)) ** n
    for block in (w[:n], w[n:]):
        for j in range(n):
            for k in range(j + 1, n):
                acc = acc * brk(q * block[k] / block[j])
    return acc * ik_or_asm_sum(w[:n], w[n:], params)


def simple_component_odd(params: ModelParams) -> RAT:
    """The odd component through the even formula without w_{n+1}."""
    n = params.n // 2
    q, w = params.q, params.w
    mid = w[n]
    acc = RAT(1)
    for j in range(n):
        acc = acc * brk(q * mid / w[j])
    for j in range(n + 1, 2 * n + 1):
        acc = acc * brk(q * w[j] / mid)
    if n == 0:
        return acc
    return acc * simple_component_even(params.with_w(w[:n] + w[n + 1:]))
