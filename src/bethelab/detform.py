"""Determinant formulas: Slavnov scalar products, the Izergin-Korepin
partition function, sum rules and closed-form simple components.

With the vacuum functions a(z) = prod_j [q z / w_j], d(z) = prod_j
[z / (q w_j)] and

    f(z, w) = [q w / z] / [w / z],      g(z, w) = [q] / [w / z],

Slavnov's formula evaluates <vac| prod C(z_j) prod B(zeta_j) |vac> for
on-shell roots z and arbitrary zeta as a single n x n determinant.  At the
explicit roots z = w it collapses (exactly, verified against the operator
oracle) to

    S_N = (-1)^N prod_j d(w_j) * Z_IK(zeta; w),

where Z_IK is the Izergin-Korepin determinant for the six-vertex model
with domain-wall boundaries and weights fa(z) = [q z], fb(z) = [q / z],
fc(z) = [q^2].  The determinant is taken with each row scaled by its fa
fb, so that it divides only by prod_{j<k} [zeta_j/zeta_k][w_k/w_j];
where that vanishes (coincident zeta or w, up to sign) the partition
function, which has no pole there, is evaluated through the
alternating-sign-matrix sum instead (never by a limit).  Spectral
parameters are anything `ModelParams.rat` takes.

The formulas are computed on ints and returned as rationals.  At q = p/r
and x = a/b a bracket [x] is the unreduced int pair (a^2 - b^2, a b)
(`field.brk_ratio`); f, g, a(z), d(z) (`aba.vacuum_pair`) and the
prefactors are products of such pairs, each matrix entry is one
cross-multiplied sum, each row is cleared to ints by the product of its
entries' denominators, `linalg.det_bareiss` takes the int determinant,
and one rational is built per returned value.  The pole checks, and the
order in which they are met, are those of the formulas on rationals (the
tests' `detform_oracle`).
"""

from __future__ import annotations

from math import gcd, prod

from bethelab.aba import (
    ModelParams,
    distinguished_component_key,
    monodromy_apply,
    renormalised_vector,
    vacuum,
    vacuum_pair,
)
from bethelab.asm import dwbc_partition_brute
from bethelab.field import RAT, PoleEncountered, brk_ratio
from bethelab.linalg import det_bareiss
from bethelab.rmatrix import UP


def _mul(*pairs) -> tuple:
    """The product of int pairs (num, den), unreduced."""
    return prod(x for x, _ in pairs), prod(y for _, y in pairs)


def slavnov(roots, zeta, params: ModelParams) -> RAT:
    """Slavnov determinant for <vac| prod C(roots) prod B(zeta) |vac>.

    `roots` must solve the Bethe equations (the explicit solution roots =
    w is the intended use); `zeta` is arbitrary but entrywise distinct
    from the roots.  A zero determinant is a legitimate value (orthogonal
    states), not an error.

    With beta = [zeta_k/z_j], A = [q z_j/zeta_k] and B = [q zeta_k/z_j]
    at root z_j and zeta_k, f(z_j, zeta_k) = B/beta, g(z_j, zeta_k) =
    [q]/beta and, the bracket being odd, f(zeta_k, z_j) = -A/beta and
    g(zeta_k, z_j) = -[q]/beta.  So the formula's prefactor and matrix
    read

        S = [q]^n prod_j d(z_j) d(zeta_j) prod_{j,k} B_jk
            / prod_{k<j} [z_k/z_j][zeta_j/zeta_k] * det M,
        M_jk = (ratio_k B_jk - A_jk) / (beta_jk A_jk B_jk),
        ratio_k = (-1)^n a(zeta_k) prod_m A_mk / (d(zeta_k) prod_m B_mk),

    where [q]^(2n) came out of the matrix.  Every factor is an int pair,
    and each ratio_k, which is 1 at roots = w, is reduced once; column k
    is scaled by ratio_k's denominator and each row cleared to ints by
    the product of its entries' denominators.
    """
    zs = [params.rat(z) for z in roots]
    cs = [params.rat(z) for z in zeta]
    n = len(zs)
    if len(cs) != n:
        raise ValueError("roots and zeta must have equal length")
    q, bq = params.q.as_integer_ratio(), brk_ratio(params.q, 1)
    ds = [vacuum_pair(c, -1, params) for c in cs]
    pref = (bq[0] ** n, bq[1] ** n)
    for j in range(n):
        pref = _mul(pref, vacuum_pair(zs[j], -1, params), ds[j])
        for k in range(j):
            # the divisors of g(z_j, z_k) and g(zeta_k, zeta_j)
            for den in (brk_ratio(zs[k], zs[j]), brk_ratio(cs[j], cs[k])):
                if not den[0]:
                    raise PoleEncountered("g(z, w) has a pole at w = +-z")
                pref = _mul(pref, den[::-1])
    brackets = {}  # (j, k): (beta, A, B)
    for j in range(n):
        for k in range(n):
            beta = brk_ratio(cs[k], zs[j])
            if not beta[0]:
                raise PoleEncountered("f(z, w) has a pole at w = +-z")
            brackets[j, k] = beta, brk_ratio(zs[j], cs[k], q), brk_ratio(
                cs[k], zs[j], q)
            pref = _mul(pref, brackets[j, k][2])
    ratio = []
    for k in range(n):
        if not ds[k][0]:
            raise PoleEncountered("d(zeta_k) = 0")
        num, den = _mul(vacuum_pair(cs[k], 1, params), ds[k][::-1])
        for m in range(n):
            _, (an, ad), (bn, bd) = brackets[m, k]
            if not bn:  # f(z_m, zeta_k) = 0
                raise PoleEncountered("inverse of zero scalar")
            num, den = num * an * bd, den * ad * bn
        common = gcd(num, den)
        ratio.append(((-1) ** n * num // common, den // common))
    rows, scale = [], prod(rd for _, rd in ratio)
    for j in range(n):
        row = []
        for k in range(n):
            (tn, td), (an, ad), (bn, bd) = brackets[j, k]
            if not an:  # f(zeta_k, z_j) = 0
                raise PoleEncountered("inverse of zero scalar")
            rn, rd = ratio[k]
            row.append(((rn * bn * ad - rd * an * bd) * td, tn * an * bn))
        den = prod(d for _, d in row)
        rows.append([x * (den // d) for x, d in row])
        scale *= den
    return RAT(pref[0] * det_bareiss(rows), pref[1] * scale)


def brute_scalar_product(roots, zeta, params: ModelParams) -> RAT:
    """<vac| prod_j C(roots_j) prod_j B(zeta_j) |vac> by operator sweeps:
    zero unless there are as many C's as B's, whose powers of s cancel."""
    v = monodromy_apply("B", list(reversed(zeta)), params, vacuum(params))
    v = monodromy_apply("C", list(reversed(roots)), params, v)
    return RAT(v.part.entries.get((UP,) * params.n, 0), v.den)


def ik_determinant(zeta, w, params: ModelParams) -> RAT:
    """Izergin-Korepin determinant Z_IK(zeta; w):

        prod_{j,k} fa fb (zeta_j/w_k) / prod_{j<k} [zeta_j/zeta_k][w_k/w_j]
        * det( fc / (fa fb) (zeta_j/w_k) ),

    taken with row j scaled by prod_l fa fb (zeta_j/w_l): every entry is
    fc prod_{l!=k} fa fb (zeta_j/w_l), and the one division is by the
    brackets, which vanish only at coincident zeta or w up to sign.  With
    each fa fb an int pair u_l / v_l, the row times prod_l v_l / fc is the
    int row v_k prod_{l!=k} u_l.
    """
    zs = [params.rat(z) for z in zeta]
    ws = [params.rat(x) for x in w]
    n = len(zs)
    if len(ws) != n:
        raise ValueError("zeta and w must have equal length")
    q = params.q.as_integer_ratio()
    den = _mul(*(_mul(brk_ratio(zs[j], zs[k]), brk_ratio(ws[k], ws[j]))
                 for j in range(n) for k in range(j + 1, n)))
    if not den[0]:
        raise PoleEncountered("inverse of zero scalar")
    rows, scale = [], 1
    for z in zs:
        fs = [_mul(brk_ratio(z, x, q), brk_ratio(x, z, q)) for x in ws]
        rows.append([fs[k][1] * prod(u for u, _ in fs[:k] + fs[k + 1:])
                     for k in range(n)])
        scale *= prod(v for _, v in fs)
    fc = brk_ratio(params.q, 1, q)
    return RAT(fc[0] ** n * det_bareiss(rows) * den[1],
               fc[1] ** n * scale * den[0])


def ik_or_asm_sum(zeta, w, params: ModelParams) -> RAT:
    """Z_IK through the determinant, or the exact ASM sum at a zero divisor
    of the determinant formula (coincident zeta or w up to sign)."""
    try:
        return ik_determinant(zeta, w, params)
    except PoleEncountered:
        return dwbc_partition_brute(zeta, w, params.q)


def partition_Z(params: ModelParams) -> RAT:
    """Square norm Z(w) = sum_sigma psi~_sigma(1/w) psi~_sigma(w) of the
    renormalised vector under the real (bilinear) pairing; the vector at
    1/w is memoised on params."""
    v = renormalised_vector(params)
    vi = params.memo("inverse", lambda: renormalised_vector(
        params.with_w(tuple(1 / x for x in params.w))))
    other = vi.rational().entries
    acc = sum(x * other.get(key, 0) for key, x in v.rational().entries.items())
    return RAT(acc, v.den * vi.den)


def partition_Z_via_ik(params: ModelParams) -> RAT:
    """[q^2]^(-N) Z_IK(w; w), the determinant route to the same sum rule."""
    fc = brk_ratio(params.q, 1, params.q.as_integer_ratio())
    z = ik_or_asm_sum(params.w, params.w, params)
    return RAT(z.numerator * fc[1] ** params.n,
               z.denominator * fc[0] ** params.n)


def scalar_product_reduction_rhs(zeta, params: ModelParams) -> RAT:
    """(-1)^N prod_j d(w_j) * Z_IK(zeta; w): the closed form of the
    on-shell scalar product S_N."""
    z = ik_or_asm_sum(zeta, params.w, params)
    num, den = _mul(*(vacuum_pair(w, -1, params) for w in params.w))
    return RAT((-1) ** params.n * z.numerator * num, z.denominator * den)


def simple_component_even(params: ModelParams) -> RAT:
    """Closed form of the component psi~_{U...U D...D} for N = 2n:

        ([q]/[q^2])^n prod_{j<k<=n} [q w_k/w_j]
        prod_{n<j<k} [q w_k/w_j] * Z_IK(w_1..w_n; w_{n+1}..w_{2n}).
    """
    if params.n % 2 != 0:
        raise ValueError("even-length component needs N = 2n")
    n = params.n // 2
    q, w = params.q.as_integer_ratio(), params.w
    (bn, bd), (fn, fd) = brk_ratio(params.q, 1), brk_ratio(params.q, 1, q)
    acc = _mul(((bn * fd) ** n, (bd * fn) ** n),
               *(brk_ratio(block[k], block[j], q) for block in (w[:n], w[n:])
                 for j in range(n) for k in range(j + 1, n)))
    z = ik_or_asm_sum(w[:n], w[n:], params)
    return RAT(acc[0] * z.numerator, acc[1] * z.denominator)


def simple_component_odd(params: ModelParams) -> RAT:
    """Closed form of psi~_{U...U 0 D...D} for N = 2n+1: strip the middle
    site's factors and reduce to the even formula without w_{n+1}."""
    if params.n % 2 != 1:
        raise ValueError("odd-length component needs N = 2n+1")
    n = params.n // 2
    q, w = params.q.as_integer_ratio(), params.w
    mid = w[n]
    num, den = _mul(*(brk_ratio(mid, w[j], q) for j in range(n)),
                    *(brk_ratio(x, mid, q) for x in w[n + 1:]))
    if n == 0:
        return RAT(num, den)
    even = simple_component_even(params.with_w(w[:n] + w[n + 1:]))
    return RAT(num * even.numerator, den * even.denominator)


def simple_component_direct(params: ModelParams) -> RAT:
    """The same component read off the renormalised vector itself."""
    v = renormalised_vector(params)
    key = distinguished_component_key(params.n)
    return RAT(v.rational().entries.get(key, 0), v.den)
