"""The twisted spin-one XXZ chain and its homogeneous-limit singlet.

The Hamiltonian is the sum over bonds of

    h = sum_a J_a ( s^a (x) s^a + 2 (s^a)^2 (x) 1 )
        - sum_{a,b} A_ab (s^a s^b) (x) (s^a s^b),

with J_1 = J_2 = 1, J_3 = (x^2 - 2)/2, A symmetric, A_aa = J_a, A_12 = 1,
A_13 = A_23 = x - 1, and anisotropy x = q + 1/q.  The boundary bond is
twisted by the rotation diag(-1, 1, -1) about the 3-axis: s^1 and s^2 at
site N+1 = 1 flip sign.

The spin-1 generators s^1, s^2 carry 1/sqrt(2), but every bond term is a
product of an even number of them, so the gate is assembled from the
doubled matrices sqrt(2) s^1, sqrt(2) s^2 over the Gaussian rationals and
the imaginary parts are asserted to cancel entrywise; the result is a pair
of rational 9 x 9 gate polynomials in x (bulk and boundary).

The zero-energy state is built in a symbolic half-power mode: the single
spin-flip operator

    beta(x) = <up| rho_N(x) ... rho_1(x) |down>,   rho = R12(1/q) / [q],

weights every spin flip by x^(1/2), and the singlet is
x^(-N/2) beta(x)^N |all-up>, a vector of integer polynomials in x.  Its
square norm and distinguished component reproduce the weighted counts of
alternating sign matrices.
"""

from __future__ import annotations

from bethelab.aba import (
    ModelParams,
    StateVector,
    apply_two_site,
    magnetisation,
    s_prime_apply,
    s_prime_inverse_apply,
    sweep,
    transfer1_apply,
    transfer2_apply,
)
from bethelab.field import (
    RAT,
    HalfPowerPoly,
    Scalar,
    as_rat,
    brk,
    laurent_interpolate_many,
)
from bethelab.linalg import kernel_dimension, kron, mat_add, mat_mul, mat_scale
from bethelab.rmatrix import DOWN, UP, ZERO, VertexWeights, r12


class ImaginaryResidue(ArithmeticError):
    """The assembled operator kept a nonzero imaginary part (bug guard)."""


class NonIntegerCoefficient(ArithmeticError):
    """A singlet component failed the integer-coefficient guarantee."""


class OddSupportResidue(ArithmeticError):
    """A singlet component failed to be a polynomial in x after the
    half-power division."""


# a fixed internal scalar session: the gate entries are rational, any
# valid d works for the assembly
_ASSEMBLY_VW = VertexWeights(RAT(2))


def doubled_spin_matrices(vw: VertexWeights):
    """sqrt(2) s^1, sqrt(2) s^2 and s^3 over the Gaussian rationals.

    Commutators rescale accordingly: [S1, S2] = 2i S3, [S2, S3] = i S1,
    [S3, S1] = i S2.
    """
    o, one, i = vw.zero, vw.one, vw.i
    s1 = [[o, one, o], [one, o, one], [o, one, o]]
    s2 = [[o, -i, o], [i, o, -i], [o, i, o]]
    s3 = [[one, o, o], [o, o, o], [o, o, -one]]
    return s1, s2, s3


def _rationalize(m):
    out = []
    for row in m:
        r = []
        for x in row:
            if not x.is_rational():
                raise ImaginaryResidue(f"gate entry {x!r} is not rational")
            r.append(x.a)
        out.append(r)
    return out


def _bond_gate_polynomials():
    """Rational 9x9 matrices (h0, h1, h2, t0, t1, t2): the bulk gate
    h0 + h1 x + h2 x^2 and the twisted boundary gate t0 + t1 x + t2 x^2."""
    vw = _ASSEMBLY_VW
    s1, s2, s3 = doubled_spin_matrices(vw)
    half = vw.sc(RAT(1, 2))
    eye = [[vw.one if i == j else vw.zero for j in range(3)] for i in range(3)]

    t_pair = {1: mat_scale(kron(s1, s1), half),
              2: mat_scale(kron(s2, s2), half),
              3: kron(s3, s3)}
    onsite = {1: mat_scale(kron(mat_mul(s1, s1), eye), half),
              2: mat_scale(kron(mat_mul(s2, s2), eye), half),
              3: kron(mat_mul(s3, s3), eye)}
    # (s^a s^b) (x) (s^a s^b) with the 1/sqrt(2) factors squared away
    fsq = {1: RAT(1, 2), 2: RAT(1, 2), 3: RAT(1)}
    quart = {}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            sab = mat_mul((s1, s2, s3)[a - 1], (s1, s2, s3)[b - 1])
            quart[(a, b)] = mat_scale(kron(sab, sab), vw.sc(fsq[a] * fsq[b]))

    cross = mat_add(quart[(1, 3)], quart[(3, 1)], quart[(2, 3)], quart[(3, 2)])
    minus_one = vw.sc(-1)
    # bulk: h0 + h1 x + h2 x^2 with J3 = x^2/2 - 1, A13 = A23 = x - 1
    h0 = mat_add(t_pair[1], mat_scale(onsite[1], vw.sc(2)),
                 t_pair[2], mat_scale(onsite[2], vw.sc(2)),
                 mat_scale(t_pair[3], minus_one),
                 mat_scale(onsite[3], vw.sc(-2)),
                 mat_scale(quart[(1, 1)], minus_one),
                 mat_scale(quart[(2, 2)], minus_one),
                 quart[(3, 3)],
                 mat_scale(quart[(1, 2)], minus_one),
                 mat_scale(quart[(2, 1)], minus_one),
                 cross)
    h1 = mat_scale(cross, minus_one)
    h2 = mat_add(mat_scale(t_pair[3], half), onsite[3],
                 mat_scale(quart[(3, 3)], vw.sc(RAT(-1, 2))))
    # boundary: s^1, s^2 on the wrapped site flip sign
    t0 = mat_add(mat_scale(t_pair[1], minus_one),
                 mat_scale(onsite[1], vw.sc(2)),
                 mat_scale(t_pair[2], minus_one),
                 mat_scale(onsite[2], vw.sc(2)),
                 mat_scale(t_pair[3], minus_one),
                 mat_scale(onsite[3], vw.sc(-2)),
                 mat_scale(quart[(1, 1)], minus_one),
                 mat_scale(quart[(2, 2)], minus_one),
                 quart[(3, 3)],
                 mat_scale(quart[(1, 2)], minus_one),
                 mat_scale(quart[(2, 1)], minus_one),
                 mat_scale(cross, minus_one))
    t1 = cross
    t2 = h2
    return tuple(_rationalize(m) for m in (h0, h1, h2, t0, t1, t2))


_GATES = None


def bond_gate_polynomials():
    global _GATES
    if _GATES is None:
        _GATES = _bond_gate_polynomials()
    return _GATES


def _colmap_from_dense(mat, ring_zero_test=lambda x: not x):
    table = {}
    for li in range(3):
        for ri in range(3):
            col = []
            j = 3 * li + ri
            for lo in range(3):
                for ro in range(3):
                    w = mat[3 * lo + ro][j]
                    if not ring_zero_test(w):
                        col.append((lo, ro, w))
            table[(li, ri)] = col
    return table


_NUMERIC_GATE_CACHE = {}
_POLY_GATE_CACHE = None


def _numeric_gates(q, d):
    key = (q, d)
    gates = _NUMERIC_GATE_CACHE.get(key)
    if gates is None:
        h0, h1, h2, t0, t1, t2 = bond_gate_polynomials()
        x = q + 1 / q
        x2 = x * x

        def combine(m0, m1, m2):
            out = [[Scalar(m0[i][j] + x * m1[i][j] + x2 * m2[i][j], d=d)
                    for j in range(9)] for i in range(9)]
            return _colmap_from_dense(out)

        gates = (combine(h0, h1, h2), combine(t0, t1, t2))
        _NUMERIC_GATE_CACHE[key] = gates
    return gates


def _poly_gates():
    global _POLY_GATE_CACHE
    if _POLY_GATE_CACHE is None:
        h0, h1, h2, t0, t1, t2 = bond_gate_polynomials()

        def combine(m0, m1, m2):
            out = [[HalfPowerPoly((m0[i][j], 0, m1[i][j], 0, m2[i][j]))
                    for j in range(9)] for i in range(9)]
            return _colmap_from_dense(out)

        _POLY_GATE_CACHE = (combine(h0, h1, h2), combine(t0, t1, t2))
    return _POLY_GATE_CACHE


def _apply_gates(v: StateVector, bulk, boundary) -> StateVector:
    if v.n < 2:
        raise ValueError("the twisted chain needs at least two sites")
    out = apply_two_site(bulk, v, 0, 1)
    for j in range(1, v.n - 1):
        out = out + apply_two_site(bulk, v, j, j + 1)
    return out + apply_two_site(boundary, v, v.n - 1, 0)


def hamiltonian_apply(v: StateVector, q) -> StateVector:
    """Apply the twisted Hamiltonian at rational anisotropy x = q + 1/q
    to a vector with Scalar entries."""
    q = as_rat(q)
    sample = next(iter(v.entries.values()), None)
    d = sample.d if sample is not None else VertexWeights(q).d
    bulk, boundary = _numeric_gates(q, d)
    return _apply_gates(v, bulk, boundary)


def hamiltonian_apply_poly(v: StateVector) -> StateVector:
    """Apply the twisted Hamiltonian symbolically to a vector with
    half-power polynomial entries (exact in x)."""
    bulk, boundary = _poly_gates()
    return _apply_gates(v, bulk, boundary)


def twisted_translation_apply(v: StateVector) -> StateVector:
    """S' = S Omega_N: the sign of the twist rides on the spin that wraps
    from site N to site 1."""
    return s_prime_apply(v, "pi")


# -- the homogeneous-limit singlet --------------------------------------


def _rho_colmap():
    """Transition table of rho(x) = R12(1/q)/[q] in half-power form: the
    bracket entries become 1, -1 and the flips carry y = x^(1/2)."""
    vw = _ASSEMBLY_VW
    m = r12(vw.sc(vw.q).inv(), vw)
    table = {}
    y = HalfPowerPoly.y_power(1)
    for a in range(2):
        for s in range(3):
            col = []
            for ao in range(2):
                for so in range(3):
                    w = m.entry(ao, so, a, s)
                    if w.is_zero():
                        continue
                    if w == vw.s:
                        col.append((ao, so, y))
                    else:
                        col.append((ao, so,
                                    HalfPowerPoly.const((w / vw.bq).to_rat())))
            table[(a, s)] = col
    return table


_RHO_TABLE = None


def beta_apply(v: StateVector) -> StateVector:
    """One sweep of rho(x) across the chain with auxiliary boundary
    <up| ... |down>; lowers the magnetisation by one and multiplies every
    component by y times a polynomial in x (odd half-power support)."""
    global _RHO_TABLE
    if _RHO_TABLE is None:
        _RHO_TABLE = _rho_colmap()
    # the auxiliary enters as down (1) and leaves as up (0)
    out = sweep([_RHO_TABLE] * v.n, v, 1, 0)
    sector = None if v.sector is None else v.sector - 1
    return StateVector(v.n, out, sector)


def singlet(n: int) -> StateVector:
    """The zero-energy state x^(-N/2) beta(x)^N |all-up>: every component
    is a polynomial in x with integer coefficients (asserted)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    v = StateVector(n, {(UP,) * n: HalfPowerPoly.const(1)}, sector=n)
    for _ in range(n):
        v = beta_apply(v)
    out = {}
    for key, val in v.entries.items():
        try:
            p = val.shift_down(n)
        except ValueError as exc:
            raise OddSupportResidue(str(exc)) from exc
        if not p.is_even_support():
            raise OddSupportResidue(f"component {key} has odd support")
        if not p.has_integer_coeffs():
            raise NonIntegerCoefficient(f"component {key}: {p!r}")
        out[key] = p
    return StateVector(n, out, sector=0)


def singlet_norm(state: StateVector) -> HalfPowerPoly:
    """Square norm under the real pairing: sum of squared components."""
    acc = HalfPowerPoly()
    for val in state.entries.values():
        acc = acc + val * val
    return acc


def distinguished_component_key(n: int):
    if n % 2 == 0:
        return (UP,) * (n // 2) + (DOWN,) * (n // 2)
    return (UP,) * (n // 2) + (ZERO,) + (DOWN,) * (n // 2)


def singlet_normalisation_audit(state: StateVector) -> dict:
    """Check the distinguished component against the weighted ASM count:
    it must equal A_m(x^2) for m = floor(n/2), with constant term m! and
    degree floor((m-1)^2/4) in x^2."""
    from math import factorial

    from bethelab.asm import gen_poly

    n = state.n
    m = n // 2
    comp = state.entries.get(distinguished_component_key(n))
    comp = comp if comp is not None else HalfPowerPoly()
    want = gen_poly(m)
    x_coeffs = comp.x_coeffs()
    got_t = tuple(x_coeffs[0::2])  # even x powers = powers of t = x^2
    t_degree = len(x_coeffs) // 2  # an odd top power of x rounds up
    report = {
        "n": n,
        "component": "".join("U0D"[c] for c in distinguished_component_key(n)),
        "constant_term_ok": bool(x_coeffs and x_coeffs[0] == factorial(m)),
        "matches_genpoly": got_t == tuple(RAT(c) for c in want.coeffs)
        and all(c == 0 for c in x_coeffs[1::2]),
        "degree_ok": t_degree <= ((m - 1) ** 2) // 4 if m else True,
        "integer_ok": comp.has_integer_coeffs(),
    }
    report["pass"] = all(v for k, v in report.items()
                         if k.endswith("_ok") or k == "matches_genpoly")
    return report


def homogeneous_consistency_check(n: int, q) -> bool:
    """The renormalised vector at w = (1, ..., 1) equals
    [q]^(N(N-1)/2) times the singlet evaluated at x = q + 1/q."""
    from bethelab.aba import renormalised_vector

    q = as_rat(q)
    params = ModelParams(n, q, [RAT(1)] * n)
    v = renormalised_vector(params)
    phi = singlet(n)
    x = q + 1 / q
    scale = brk(q) ** (n * (n - 1) // 2)
    if set(v.entries) != set(phi.entries):
        return False
    for key, poly in phi.entries.items():
        if v.entries[key] != params.sc(scale * poly.eval_x(x)):
            return False
    return True


def log_derivative_hamiltonian_apply(v: StateVector, q) -> StateVector:
    """The Hamiltonian through the transfer matrix: N plus [q^2]/2 times
    the logarithmic derivative of T2 at z = 1 in the homogeneous model,
    with d/dz extracted by exact Laurent interpolation in z (the support
    of z -> T2(z) v is contained in [-2N, 2N])."""
    n = v.n
    q = as_rat(q)
    params = ModelParams(n, q, [RAT(1)] * n)
    width = 4 * n
    pts = [RAT(t) for t in range(2, 2 + width + 3)]
    vecs = [transfer2_apply(params.sc(t), params, v) for t in pts]
    keys = sorted(set().union(*[set(u.entries) for u in vecs]))
    zero = Scalar(0, d=params.d)
    rows = [[u.entries.get(k, zero) for u in vecs] for k in keys]
    polys = laurent_interpolate_many([params.sc(t) for t in pts], rows,
                                     -2 * n, width)
    deriv = {}
    for key, poly in zip(keys, polys):
        if poly.is_zero():
            continue
        acc = zero
        for k in range(poly.low, poly.top() + 1):
            c = poly.coefficient_or_zero(k, params.d)
            if not c.is_zero():
                acc = acc + params.sc(k) * c
        if not acc.is_zero():
            deriv[key] = acc
    dv = s_prime_inverse_apply(StateVector(n, deriv, v.sector), "pi")
    bq, bq2 = brk(q), brk(q * q)
    scale = params.sc(bq2 / (2 * (bq * bq2) ** n))
    return v.scale(params.sc(n)) + dv.scale(scale)


def transfer1_zero_kernel_dimension(n: int, q, z=None) -> int:
    """Dimension of the kernel of T1(z) on the zero-magnetisation sector
    of the homogeneous twisted chain (the uniqueness probe; expected 1)."""
    from itertools import product

    q = as_rat(q)
    params = ModelParams(n, q, [RAT(1)] * n)
    z = params.sc(z if z is not None else RAT(3, 2))
    basis = [key for key in product((0, 1, 2), repeat=n)
             if magnetisation(key) == 0]
    index = {key: i for i, key in enumerate(basis)}
    cols = []
    for key in basis:
        image = transfer1_apply(z, params,
                                StateVector(n, {key: params.vw.one}, 0))
        col = [Scalar(0, d=params.d)] * len(basis)
        for k, val in image.entries.items():
            col[index[k]] = val
        cols.append(col)
    matrix = [[cols[j][i] for j in range(len(basis))]
              for i in range(len(basis))]
    return kernel_dimension(matrix)


def hamiltonian_dense(n: int, q):
    """H as an exact dense matrix on all 3^n states (small n only)."""
    from itertools import product

    q = as_rat(q)
    d = VertexWeights(q).d
    basis = list(product((0, 1, 2), repeat=n))
    index = {key: i for i, key in enumerate(basis)}
    dim = len(basis)
    zero = Scalar(0, d=d)
    mat = [[zero] * dim for _ in range(dim)]
    one = Scalar(1, d=d)
    for j, key in enumerate(basis):
        image = hamiltonian_apply(StateVector(n, {key: one}), q)
        for k, val in image.entries.items():
            mat[index[k]][j] = val
    return mat
