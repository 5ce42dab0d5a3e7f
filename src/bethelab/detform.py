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
parameters are anything `ModelParams.rat` takes, and every value here is
a rational.
"""

from __future__ import annotations

from functools import cache
from math import prod

from bethelab.aba import (
    ModelParams,
    distinguished_component_key,
    monodromy_apply,
    renormalised_vector,
    vacuum,
    vacuum_a,
    vacuum_d,
)
from bethelab.asm import dwbc_partition_brute
from bethelab.field import RAT, PoleEncountered, brk, inv
from bethelab.linalg import det_bareiss
from bethelab.rmatrix import UP


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
    """Slavnov determinant for <vac| prod C(roots) prod B(zeta) |vac>.

    `roots` must solve the Bethe equations (the explicit solution roots =
    w is the intended use); `zeta` is arbitrary but entrywise distinct
    from the roots.  A zero determinant is a legitimate value (orthogonal
    states), not an error.
    """
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
            # k < j pairs: g(z_j, z_k) g(zeta_k, zeta_j)
            pref = pref * g(j, k) * g(n + k, n + j)
    for j in range(n):
        for k in range(n):
            pref = pref * f(j, n + k) / g(j, n + k)
    ratio = []  # a(zeta_k)/d(zeta_k) * prod_m f(zeta_k, z_m)/f(z_m, zeta_k)
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
    brackets, which vanish only at coincident zeta or w up to sign.
    """
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
    scale = brk(params.q * params.q) ** params.n
    return ik_or_asm_sum(params.w, params.w, params) / scale


def scalar_product_reduction_rhs(zeta, params: ModelParams) -> RAT:
    """(-1)^N prod_j d(w_j) * Z_IK(zeta; w): the closed form of the
    on-shell scalar product S_N."""
    acc = ik_or_asm_sum(zeta, params.w, params)
    for w in params.w:
        acc = acc * vacuum_d(w, params)
    return acc if params.n % 2 == 0 else -acc


def simple_component_even(params: ModelParams) -> RAT:
    """Closed form of the component psi~_{U...U D...D} for N = 2n:

        ([q]/[q^2])^n prod_{j<k<=n} [q w_k/w_j]
        prod_{n<j<k} [q w_k/w_j] * Z_IK(w_1..w_n; w_{n+1}..w_{2n}).
    """
    if params.n % 2 != 0:
        raise ValueError("even-length component needs N = 2n")
    n = params.n // 2
    q, w = params.q, params.w
    acc = (brk(q) / brk(q * q)) ** n
    for block in (w[:n], w[n:]):
        for j in range(n):
            for k in range(j + 1, n):
                acc = acc * brk(q * block[k] / block[j])
    return acc * ik_or_asm_sum(w[:n], w[n:], params)


def simple_component_odd(params: ModelParams) -> RAT:
    """Closed form of psi~_{U...U 0 D...D} for N = 2n+1: strip the middle
    site's factors and reduce to the even formula without w_{n+1}."""
    if params.n % 2 != 1:
        raise ValueError("odd-length component needs N = 2n+1")
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
    reduced = params.with_w(w[:n] + w[n + 1:])
    return acc * simple_component_even(reduced)


def simple_component_direct(params: ModelParams) -> RAT:
    """The same component read off the renormalised vector itself."""
    v = renormalised_vector(params)
    key = distinguished_component_key(params.n)
    return RAT(v.rational().entries.get(key, 0), v.den)
