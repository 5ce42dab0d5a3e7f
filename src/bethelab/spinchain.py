"""The twisted spin-one XXZ chain and its homogeneous-limit singlet.

The Hamiltonian is the sum over bonds of

    h = sum_a J_a ( s^a (x) s^a + 2 (s^a)^2 (x) 1 )
        - sum_{a,b} A_ab (s^a s^b) (x) (s^a s^b),

with J_1 = J_2 = 1, J_3 = (x^2 - 2)/2, A symmetric, A_aa = J_a, A_12 = 1,
A_13 = A_23 = x - 1, and anisotropy x = q + 1/q.  The boundary bond is
twisted by the rotation diag(-1, 1, -1) about the 3-axis: s^1 and s^2 at
site N+1 = 1 flip sign.

In the real matrices R_1 = sqrt(2) s^1, R_2 = -i sqrt(2) s^2 and R_3 =
s^3 every bond term carries its spin factors in pairs, so s^a (x) s^a =
c_a R_a (x) R_a, (s^a)^2 = c_a R_a^2 and (s^a s^b) (x) (s^a s^b) = c_a c_b
(R_a R_b) (x) (R_a R_b) with c = (1/2, -1/2, 1).  As 2c, 2J and 2A are
integral, 8 h(x) is an int matrix polynomial in x, and every entry turns
out divisible by 8: h(x) has nineteen nonzero entries, each an integer
polynomial of degree at most 2 in x, written out as the table `_BOND`
(the tests rebuild it from the spin matrices as its oracle).  The
boundary bond is the bulk bond conjugated by Omega = diag(-1, 1, -1) on
its wrapped right-hand site: its entry <lo ro|h|li ri> flips sign where
Omega[ro] != Omega[ri].

The zero-energy state is built from the single spin-flip operator

    beta(x) = <up| rho_N(x) ... rho_1(x) |down>,   rho = R12(1/q) / [q],

whose bracket entries are 1 and -1 and whose flips carry s/[q] = y =
x^(1/2).  In the gauge K = diag(1, y) on rho's auxiliary index (0 = up,
1 = down), as `aba` gauges s, a flip weighs x where it raises that index
and 1 where it lowers it, so <up| K rho_N ... rho_1 K^-1 |down> = y^-1
beta(x), and the singlet x^(-N/2) beta(x)^N |all-up>, integer
polynomials in x, is N gauged sweeps of |all-up>: one `aba.sweeps` call
of N rows, memoised per N.  Every row holds the one packed rho table, so
every site pair recurs across the rows and, from N = 5 on, `sweeps`
fuses it: the pair's two-site columns are compiled once per call and
each row makes ceil(N/2) merges, not N.  A sweep whose pairs do not
recur, such as `aba`'s B chain at distinct w, keeps per-site columns,
since there fusing costs more to compile than it saves, as it does at
N <= 4.  The singlet's square norm and distinguished component
reproduce the weighted counts of alternating sign matrices.

The singlet, its norm and the symbolic H v run on packed ints (Kronecker
substitution): an integer polynomial sum_k c_k x^k becomes sum_k c_k
2^(bits k), and the sweeps multiply and add plain ints: each beta is one
row of packed rho tables, which `aba.sweeps` takes as they are, under
the one bound <up| ... |down>, and H v is one `aba.apply_gates` pass of
the N packed bonds, on the same int coding of keys.  `spinchain` codes no
keys itself: its operators are `aba`'s and its packing `field`'s.  The
norm and H v take vectors of integer polynomials in x, the singlet's own
form, and raise NonIntegerCoefficient on any other, checked in one pass
a component (`_x_ints`): a nonzero coefficient on an odd power of y
raises, a component of ints is taken as it is, and a component holding
a rational has each coefficient read, a whole one becoming its int and
any other raising.  The regime check reads the singlet the same way.
Results are built from the unpacked int lists by `HalfPowerPoly.x_poly`,
which keeps ints as ints, so the twisted translation of the singlet is a
sign flip of int tuples.
Balanced base-2^bits digits unpack a result exactly when every |c_k| <
2^(bits-1); each function derives its bits from an l1 bound (the sum of
|c| over all coefficients) and states it.  The tables are int lists in x;
HalfPowerPoly is only the form of inputs and results.  The regime check
against the renormalised Bethe vector at w = 1 compares ints too: at
q = a/b it is its rational equation cleared of the powers of ab.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, product
from math import factorial
from operator import mul

from bethelab.aba import (
    OMEGA,
    ModelParams,
    apply_gates,
    basis_vector,
    distinguished_component_key,
    magnetisation,
    renormalised_vector,
    s_prime_apply,
    sweeps,
    transfer1_apply,
)
from bethelab.asm import gen_poly
from bethelab.field import (
    RAT,
    HalfPowerPoly,
    as_rat,
    pack,
    row_reduce,
    spread,
    unpack,
)
from bethelab.linalg import StateVector, state_str
from bethelab.rmatrix import DOWN, UP, ZERO


class NonIntegerCoefficient(ArithmeticError):
    """A vector component that must be an integer polynomial in x is not
    one."""


# h(x) on the bulk bond, keyed (left, right) in, as int lists in x: the
# nineteen nonzero entries of the module docstring's h, each column
# ascending in (left, right) out
_BOND = {(UP, UP): [(UP, UP, [0, 0, 1])],
         (UP, ZERO): [(UP, ZERO, [-1, 0, 1]), (ZERO, UP, [1, 0, 0])],
         (UP, DOWN): [(UP, DOWN, [1, 0, 0]), (ZERO, ZERO, [0, 1, 0]),
                      (DOWN, UP, [-1, 0, 0])],
         (ZERO, UP): [(UP, ZERO, [1, 0, 0]), (ZERO, UP, [3, 0, 0])],
         (ZERO, ZERO): [(UP, DOWN, [0, 1, 0]), (ZERO, ZERO, [2, 0, 0]),
                        (DOWN, UP, [0, 1, 0])],
         (ZERO, DOWN): [(ZERO, DOWN, [3, 0, 0]), (DOWN, ZERO, [1, 0, 0])],
         (DOWN, UP): [(UP, DOWN, [-1, 0, 0]), (ZERO, ZERO, [0, 1, 0]),
                      (DOWN, UP, [1, 0, 0])],
         (DOWN, ZERO): [(ZERO, DOWN, [1, 0, 0]), (DOWN, ZERO, [-1, 0, 1])],
         (DOWN, DOWN): [(DOWN, DOWN, [0, 0, 1])]}


@cache
def _bond_tables():
    """Transition tables of the bulk bond `_BOND` and of the boundary bond,
    the bulk bond conjugated by Omega on its wrapped right-hand site, every
    weight the ints [c_0, c_1, c_2] of h(x) = c_0 + c_1 x + c_2 x^2."""
    boundary = {(li, ri): [(lo, ro, cs if OMEGA[ro] == OMEGA[ri]
                            else [-c for c in cs]) for lo, ro, cs in col]
                for (li, ri), col in _BOND.items()}
    return _BOND, boundary


def hamiltonian_apply_poly(v: StateVector) -> StateVector:
    """H v, exact in x, for integer polynomials in x, packed with the bond
    tables at x = 2^bits.  Bound: a bond multiplies the l1 norm by at most
    G, the largest column l1 weight of the bond tables, and H sums N
    bonds, so every coefficient is at most N G |v|_1.  The bulk bond acts
    on sites (j, j + 1) and the boundary bond on (N, 1), all N in one
    `aba.apply_gates` pass; N < 2 raises ValueError."""
    ints = _x_ints(v)
    n, tables = v.n, _bond_tables()
    norm = sum(map(abs, chain.from_iterable(ints.values())))
    bits = (n * max(map(_column_l1, tables)) * norm).bit_length() + 1
    packed = StateVector(n, {k: pack(cs, bits) for k, cs in ints.items()})
    bulk, boundary = (_packed(t, bits) for t in tables)
    out = apply_gates(packed, [(bulk, j, j + 1) for j in range(n - 1)]
                      + [(boundary, n - 1, 0)])
    return StateVector(n, {key: HalfPowerPoly.x_poly(unpack(x, bits))
                           for key, x in out.entries.items()})


def twisted_translation_apply(v: StateVector) -> StateVector:
    """S' = S Omega_N: the sign of the twist rides on the spin that wraps
    from site N to site 1."""
    return s_prime_apply(v)


# -- the homogeneous-limit singlet --------------------------------------


# K rho(x) K^-1 (module docstring) as int lists in x, keyed (aux, site)
_RHO = {(0, UP): [(0, UP, [1])],
        (0, ZERO): [(1, UP, [0, 1])],
        (0, DOWN): [(0, DOWN, [-1]), (1, ZERO, [0, 1])],
        (1, UP): [(0, ZERO, [1]), (1, UP, [-1])],
        (1, ZERO): [(0, DOWN, [1])],
        (1, DOWN): [(1, DOWN, [1])]}


def _column_l1(table) -> int:
    """The largest sum of |c| over the coefficients of a column's weights."""
    return max(sum(abs(c) for *_, w in col for c in w)
               for col in table.values())


def _packed(table, bits: int) -> dict:
    """An int polynomial transition table with every weight packed at
    2^bits."""
    return {key: [(lo, ro, pack(w, bits)) for lo, ro, w in col]
            for key, col in table.items()}


def _x_ints(v: StateVector) -> dict:
    """{key: [int, ...]}: the coefficients in x of v's components, which
    must be integer polynomials in x (HalfPowerPolys), else
    NonIntegerCoefficient.  One pass a component: `any` over the odd
    powers of y rejects odd support, a component of ints is taken as it
    is, and only one holding a rational reads each coefficient, a whole
    one becoming its int."""
    out = {}
    for key, p in v.entries.items():
        if isinstance(p, HalfPowerPoly) and not any(p.coeffs[1::2]):
            cs = p.coeffs[::2]
            if {int}.issuperset(map(type, cs)):
                out[key] = list(cs)
                continue
            if all(c.denominator == 1 for c in cs):
                out[key] = [c.numerator for c in cs]
                continue
        raise NonIntegerCoefficient(
            f"component {key} is {p!r}, not an integer polynomial in x")
    return out


@cache
def _packed_rho(n: int):
    """(table, bits): rho packed at x = 2^bits for the n-site singlet.
    Bound: each site of a sweep multiplies a vector's l1 norm by at most
    L = _column_l1(_RHO), so the n sweeps of n sites take |all-up> to a
    vector whose every coefficient is at most L^(n^2) in absolute value."""
    bits = (_column_l1(_RHO) ** (n * n)).bit_length() + 1
    return _packed(_RHO, bits), bits


def beta_apply(v: StateVector, k: int = 1) -> StateVector:
    """(y^-1 beta(x))^k on components packed at x = 2^bits as by
    `_packed_rho(v.n)`: one `sweeps` call of k rows of the gauged rho with
    auxiliary boundary <up| ... |down>, each lowering the magnetisation by
    one; for k >= 2 the rows recur, so on five sites or more every site
    pair is fused."""
    # the auxiliary enters as down (1) and leaves as up (0)
    return sweeps([[_packed_rho(v.n)[0]] * v.n] * k, v, [(1, 0, 1)])


@cache
def singlet(n: int) -> StateVector:
    """The zero-energy state x^(-N/2) beta(x)^N |all-up> = (y^-1
    beta(x))^N |all-up>, swept on ints packed at x = 2^bits in one
    `beta_apply` call and unpacked once into integer polynomials in x.
    Memoised: callers must not mutate it."""
    if n < 1:
        raise ValueError("n must be at least 1")
    v = beta_apply(StateVector(n, {(UP,) * n: 1}), n)
    bits = _packed_rho(n)[1]
    return StateVector(n, {key: HalfPowerPoly.x_poly(unpack(val, bits))
                           for key, val in v.entries.items()})


def singlet_norm(state: StateVector) -> HalfPowerPoly:
    """Square norm under the real pairing: the sum of squared components,
    integer polynomials in x packed at x = 2^bits.  Bound: K components of
    at most l coefficients, each at most M in absolute value, give
    coefficients that sum at most K l products, so at most K l M^2."""
    ints = _x_ints(state)
    top = max(map(abs, chain.from_iterable(ints.values())), default=0)
    bound = len(ints) * max(map(len, ints.values()), default=0) * top * top
    bits = bound.bit_length() + 1
    return HalfPowerPoly.x_poly(
        unpack(sum(pack(cs, bits) ** 2 for cs in ints.values()), bits))


def singlet_normalisation_audit(state: StateVector) -> dict:
    """Check the distinguished component against the weighted ASM count:
    it must equal A_m(x^2) for m = floor(n/2), with constant term m! and
    degree floor((m-1)^2/4) in x^2."""
    n = state.n
    m = n // 2
    key = distinguished_component_key(n)
    comp = state.entries.get(key, HalfPowerPoly())
    # A_m(x^2) in powers of x; A_0 = 1 counts the empty ASM
    want = spread(gen_poly(m).coeffs, 2) if m else [1]
    x_coeffs = comp.x_coeffs()
    t_degree = len(x_coeffs) // 2  # an odd top power of x rounds up
    report = {
        "n": n,
        "component": state_str(key),
        "constant_term_ok": bool(x_coeffs and x_coeffs[0] == factorial(m)),
        "matches_genpoly": list(x_coeffs) == want,
        "degree_ok": t_degree <= ((m - 1) ** 2) // 4 if m else True,
        "integer_ok": comp.has_integer_coeffs(),
    }
    report["pass"] = all(v for k, v in report.items()
                         if k.endswith("_ok") or k == "matches_genpoly")
    return report


def homogeneous_consistency_check(n: int, q) -> bool:
    """The renormalised vector at w = (1, ..., 1) equals [q]^m times the
    singlet evaluated at x = q + 1/q, m = N(N-1)/2.  With q = a/b, [q] =
    (a^2 - b^2)/ab and x = (a^2 + b^2)/ab, so for v's ints over den and a
    singlet component sum_k c_k x^k of x-degree at most D this is, times
    (ab)^(D+m), the int equation ints (ab)^(D+m) = (a^2 - b^2)^m den
    sum_k c_k (a^2 + b^2)^k (ab)^(D-k)."""
    q = as_rat(q)
    params = ModelParams(n, q, [RAT(1)] * n)
    v = renormalised_vector(params)
    ints = v.rational().entries
    phi = _x_ints(singlet(n))
    a, b = q.numerator, q.denominator
    m, deg = n * (n - 1) // 2, max(map(len, phi.values())) - 1
    powers = [(a * a + b * b) ** k * (a * b) ** (deg - k)
              for k in range(deg + 1)]
    lhs, rhs = (a * b) ** (deg + m), (a * a - b * b) ** m * v.den
    return set(ints) == set(phi) and all(
        ints[key] * lhs == rhs * sum(map(mul, cs, powers))
        for key, cs in phi.items())


def transfer1_zero_kernel_dimension(n: int, q) -> int:
    """Dimension of the kernel of T1(3/2) on the zero-magnetisation sector
    of the homogeneous twisted chain (the uniqueness probe; expected 1)."""
    params = ModelParams(n, q, [RAT(1)] * n)
    basis = [key for key in product((0, 1, 2), repeat=n)
             if magnetisation(key) == 0]
    # i times ints over a denominator: column scalings keep the rank
    images = [transfer1_apply(RAT(3, 2), params, basis_vector(params, key))
              .part.entries for key in basis]
    _, pivots = row_reduce([[RAT(image.get(k, 0)) for image in images]
                            for k in basis])
    return len(basis) - len(pivots)
