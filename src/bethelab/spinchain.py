"""The twisted spin-one XXZ chain and its homogeneous-limit singlet.

The Hamiltonian is the sum over bonds of

    h = sum_a J_a ( s^a (x) s^a + 2 (s^a)^2 (x) 1 )
        - sum_{a,b} A_ab (s^a s^b) (x) (s^a s^b),

with J_1 = J_2 = 1, J_3 = (x^2 - 2)/2, A symmetric, A_aa = J_a, A_12 = 1,
A_13 = A_23 = x - 1, and anisotropy x = q + 1/q.  The boundary bond is
twisted by the rotation diag(-1, 1, -1) about the 3-axis: s^1 and s^2 at
site N+1 = 1 flip sign.

The bond is built on ints from the real matrices R_1 = sqrt(2) s^1,
R_2 = -i sqrt(2) s^2 and R_3 = s^3.  Every bond term carries its spin
factors in pairs, so s^a (x) s^a = c_a R_a (x) R_a, (s^a)^2 = c_a R_a^2
and (s^a s^b) (x) (s^a s^b) = c_a c_b (R_a R_b) (x) (R_a R_b) with
c = (1/2, -1/2, 1).  As 2c, 2J and 2A are integral, 8 h(x) = H_0 + H_1 x
+ H_2 x^2 with three int 9 x 9 matrices H_k.  The boundary bond is the
bulk bond conjugated by Omega = diag(-1, 1, -1) on its wrapped right-hand
site: its entry <lo ro|h|li ri> flips sign where Omega[ro] != Omega[ri].

The zero-energy state is built from the single spin-flip operator

    beta(x) = <up| rho_N(x) ... rho_1(x) |down>,   rho = R12(1/q) / [q],

whose bracket entries are 1 and -1 and whose flips carry y = x^(1/2);
the singlet is x^(-N/2) beta(x)^N |all-up>, a vector of integer
polynomials in x.  Its square norm and distinguished component reproduce
the weighted counts of alternating sign matrices.

The singlet, its norm and the symbolic H v run on packed ints (Kronecker
substitution): an integer polynomial sum_k c_k y^k becomes sum_k c_k
2^(bits k), and the unchanged sweep and gate code multiply and add plain
ints.  Balanced base-2^bits digits unpack a result exactly when every
|c_k| < 2^(bits-1); each function derives its bits from an l1 bound (the
sum of |c| over all coefficients) and states it.  HalfPowerPoly stays the
form every function returns.
"""

from __future__ import annotations

from functools import cache
from math import ceil, lcm

from bethelab.aba import (
    OMEGA,
    ModelParams,
    StateVector,
    apply_two_site,
    basis_vector,
    magnetisation,
    s_prime_apply,
    sweep,
    transfer1_apply,
)
from bethelab.field import (
    RAT,
    HalfPowerPoly,
    as_rat,
    brk,
    pack,
    unpack,
)
from bethelab.linalg import kron, mat_add, mat_mul, mat_scale, rank
from bethelab.rmatrix import DOWN, UP, ZERO, RMat, VertexWeights, r12


class NonIntegerCoefficient(ArithmeticError):
    """A table weight that must be an integer polynomial is not one."""


class OddSupportResidue(ArithmeticError):
    """A singlet component failed to be a polynomial in x after the
    half-power division."""


# R_1, R_2, R_3 on (U, 0, D), 2 c_a and the couplings 2 J_a and 2 A_ab as
# int coefficients in x: 2 J_3 = x^2 - 2, 2 A_13 = 2 A_23 = 2x - 2
_SPIN = (((0, 1, 0), (1, 0, 1), (0, 1, 0)),
         ((0, -1, 0), (1, 0, -1), (0, 1, 0)),
         ((1, 0, 0), (0, 0, 0), (0, 0, -1)))
_C2 = (1, -1, 2)
_J2 = ((2,), (2,), (-2, 0, 1))
_A2 = ((_J2[0], (2,), (-2, 2)),
       ((2,), _J2[1], (-2, 2)),
       ((-2, 2), (-2, 2), _J2[2]))


def bond_gate():
    """The bulk bond h(x) of the module docstring as a 9 x 9 matrix of
    polynomials in x (HalfPowerPoly entries of even support), rows and
    columns indexed by 3 * left + right: each term of 8 h(x) is an int
    matrix times an int polynomial, summed into H_0, H_1 and H_2, whose
    entries over 8 become HalfPowerPolys only at the end."""
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    terms = []
    for a, ra in enumerate(_SPIN):
        pair = mat_add(kron(ra, ra), mat_scale(kron(mat_mul(ra, ra), eye), 2))
        terms.append((mat_scale(pair, 2 * _C2[a]), _J2[a]))
        for b, rb in enumerate(_SPIN):
            rab = mat_mul(ra, rb)
            terms.append((mat_scale(kron(rab, rab), -_C2[a] * _C2[b]),
                          _A2[a][b]))
    h = [mat_add(*(mat_scale(m, cs[k]) for m, cs in terms if k < len(cs)))
         for k in range(3)]
    return [[HalfPowerPoly.x_poly([RAT(m[i][j], 8) for m in h])
             for j in range(9)] for i in range(9)]


@cache
def _bond_tables():
    """Transition tables of the bulk bond and of the boundary bond, the
    bulk bond conjugated by Omega on its wrapped right-hand site."""
    gate = bond_gate()
    bulk = RMat(3, 3, {(a // 3, a % 3, b // 3, b % 3): gate[a][b]
                       for a in range(9) for b in range(9)},
                HalfPowerPoly()).column_map()
    boundary = {(li, ri): [(lo, ro, w if OMEGA[ro] == OMEGA[ri] else -w)
                           for lo, ro, w in col]
                for (li, ri), col in bulk.items()}
    return bulk, boundary


def _apply_gates(v: StateVector, bulk, boundary) -> StateVector:
    if v.n < 2:
        raise ValueError("the twisted chain needs at least two sites")
    out = apply_two_site(bulk, v, 0, 1)
    for j in range(1, v.n - 1):
        out = out + apply_two_site(bulk, v, j, j + 1)
    return out + apply_two_site(boundary, v, v.n - 1, 0)


def hamiltonian_apply_poly(v: StateVector) -> StateVector:
    """Apply the twisted Hamiltonian symbolically to a vector with
    half-power polynomial entries (exact in x), on packed ints over one
    common denominator.  Bound: a bond multiplies the l1 norm by at most
    G, the largest column l1 weight of the bond tables, and H sums N
    bonds, so every coefficient of H v is at most N G |v|_1."""
    ints, den = _integer_vector(v)
    tables = _bond_tables()
    norm = sum(abs(c) for cs in ints.values() for c in cs)
    bits = (v.n * max(map(_column_l1, tables)) * norm).bit_length() + 1
    packed = StateVector(v.n, {k: pack(cs, bits) for k, cs in ints.items()})
    out = _apply_gates(packed, *(_packed(t, bits) for t in tables))
    return StateVector(v.n, {key: _unpacked(x, bits, den)
                             for key, x in out.entries.items()})


def twisted_translation_apply(v: StateVector) -> StateVector:
    """S' = S Omega_N: the sign of the twist rides on the spin that wraps
    from site N to site 1."""
    return s_prime_apply(v, "pi")


# -- the homogeneous-limit singlet --------------------------------------


@cache
def _rho_table():
    """Transition table of rho(x) = R12(1/q)/[q] in half-power form: the
    bracket entries become 1, -1 and the flips carry y = x^(1/2).  Any
    valid scalar session gives the same table; q = 2 is used."""
    vw = VertexWeights(RAT(2))
    y = HalfPowerPoly.y_power(1)
    return {key: [(lo, ro, y if w == vw.s
                   else HalfPowerPoly.const((w / vw.bq).to_rat()))
                  for lo, ro, w in col]
            for key, col in r12(vw.sc(vw.q).inv(), vw).column_map().items()}


def _column_l1(table) -> int:
    """The largest sum of |c| over the coefficients of a column's weights."""
    return ceil(max(sum(abs(c) for *_, w in col for c in w.coeffs)
                    for col in table.values()))


def _packed(table, bits: int) -> dict:
    """A polynomial transition table with every weight packed at
    y = 2^bits; a weight that is not an integer polynomial raises."""
    if not all(w.has_integer_coeffs() for col in table.values()
               for *_, w in col):
        raise NonIntegerCoefficient(f"not an integer table: {table!r}")
    return {key: [(lo, ro, pack([int(c) for c in w.coeffs], bits))
                  for lo, ro, w in col] for key, col in table.items()}


def _integer_vector(v: StateVector):
    """({key: [int, ...]}, den): v's coefficients over their lcm."""
    den = lcm(*(c.denominator for p in v.entries.values() for c in p.coeffs))
    return {key: [c.numerator * (den // c.denominator) for c in p.coeffs]
            for key, p in v.entries.items()}, den


def _unpacked(value: int, bits: int, den: int) -> HalfPowerPoly:
    """The packed polynomial over den; a whole coefficient stays an int."""
    return HalfPowerPoly([c // den if c % den == 0 else RAT(c, den)
                          for c in unpack(value, bits)])


@cache
def _packed_rho(n: int):
    """(table, bits): rho packed for the n-site singlet.  Bound: each site
    of a sweep multiplies a vector's l1 norm by at most L = _column_l1(rho),
    so the n sweeps of n sites take |all-up> to a vector whose every
    coefficient is at most L^(n^2) in absolute value."""
    rho = _rho_table()
    bits = (_column_l1(rho) ** (n * n)).bit_length() + 1
    return _packed(rho, bits), bits


def beta_apply(v: StateVector) -> StateVector:
    """One sweep of rho(x) across the chain with auxiliary boundary
    <up| ... |down>, on components packed as by `_packed_rho(v.n)`;
    lowers the magnetisation by one and multiplies every component by y
    times a polynomial in x (odd half-power support)."""
    # the auxiliary enters as down (1) and leaves as up (0)
    return StateVector(v.n, sweep([_packed_rho(v.n)[0]] * v.n, v, 1, 0))


def singlet(n: int) -> StateVector:
    """The zero-energy state x^(-N/2) beta(x)^N |all-up>, swept on packed
    ints and unpacked once: every component is y^N times a polynomial in
    x with integer coefficients (checked)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    v = StateVector(n, {(UP,) * n: 1})
    for _ in range(n):
        v = beta_apply(v)
    bits = _packed_rho(n)[1]
    out = {key: unpack(val, bits) for key, val in v.entries.items()}
    if any(any(cs[:n]) or any(cs[n + 1::2]) for cs in out.values()):
        raise OddSupportResidue(f"component not y^{n} times a polynomial in x")
    return StateVector(n, {key: HalfPowerPoly(cs[n:])
                           for key, cs in out.items()})


def singlet_norm(state: StateVector) -> HalfPowerPoly:
    """Square norm under the real pairing: the sum of squared components,
    on packed ints.  Bound: over the common denominator, K components of
    at most l coefficients, each at most M in absolute value, give
    coefficients that sum at most K l products, so at most K l M^2."""
    ints, den = _integer_vector(state)
    top = max((abs(c) for cs in ints.values() for c in cs), default=0)
    bound = len(ints) * max(map(len, ints.values()), default=0) * top * top
    bits = bound.bit_length() + 1
    return _unpacked(sum(pack(cs, bits) ** 2 for cs in ints.values()), bits,
                     den * den)


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
    ints = v.rational().entries
    phi = singlet(n)
    x = q + 1 / q
    scale = brk(q) ** (n * (n - 1) // 2) * v.den
    return set(ints) == set(phi.entries) and all(
        ints[key] == scale * p.eval_x(x) for key, p in phi.entries.items())


def transfer1_zero_kernel_dimension(n: int, q, z=None) -> int:
    """Dimension of the kernel of T1(z) on the zero-magnetisation sector
    of the homogeneous twisted chain (the uniqueness probe; expected 1)."""
    from itertools import product

    q = as_rat(q)
    params = ModelParams(n, q, [RAT(1)] * n)
    z = params.sc(z if z is not None else RAT(3, 2))
    basis = [key for key in product((0, 1, 2), repeat=n)
             if magnetisation(key) == 0]
    images = [transfer1_apply(z, params, basis_vector(params, key)).entries
              for key in basis]
    return len(basis) - rank([[image.get(k, params.vw.zero)
                               for image in images] for k in basis])
