"""The homogeneous limit on HalfPowerPoly entries: the reference the
packed-integer singlet, norm and Hamiltonian of `spinchain` are tested
against, for small n.

Every step is polynomial arithmetic over Q[y], y = x^(1/2), with no
gauge: rho carries y on its flips, so beta(x) maps polynomials in x to y
times polynomials in x, and the singlet is beta(x)^n |all-up> divided by
y^n, checked to be an integer polynomial in x.  The bond tables are the
int ones of `spinchain`, written as polynomials in x; the sweep code is
the same, and H is the bond-by-bond sum of `helpers.bond_sum`.
"""

from functools import cache

import dense_rmatrix_oracle as dense
from helpers import bond_sum, ring

from bethelab.aba import StateVector, sweeps
from bethelab.field import HalfPowerPoly, RAT, as_rat, pack, unpack
from bethelab.rmatrix import UP
from bethelab.spinchain import _bond_tables


@cache
def rho_table():
    """Transition table of rho(x) = R12(1/q)/[q] in half-power form, from
    the ungauged FourPart R12 of `dense_rmatrix_oracle`: the bracket entries
    become 1, -1 and the flips carry y = x^(1/2).  Any valid scalar
    session gives the same table; q = 2 is used."""
    p = ring(RAT(2))
    y = HalfPowerPoly((0, 1))
    return {key: [(lo, ro, y if w == p.s
                   else HalfPowerPoly.const((w / dense.bq(p)).to_rat()))
                  for lo, ro, w in col]
            for key, col in dense.r12(1 / p.q, p).column_map().items()}


def checked_neg(p: HalfPowerPoly) -> HalfPowerPoly:
    """-p through the checked constructor: the oracle of
    `HalfPowerPoly.__neg__`."""
    return HalfPowerPoly(tuple(-c for c in p.coeffs))


def x_table(table):
    """An int-list transition table with its weights as polynomials in x."""
    return {key: [(lo, ro, HalfPowerPoly.x_poly(w)) for lo, ro, w in col]
            for key, col in table.items()}


def shift_down(p: HalfPowerPoly, k: int) -> HalfPowerPoly:
    """Exact division by y**k."""
    if any(c != 0 for c in p.coeffs[:k]):
        raise ValueError(f"not divisible by y^{k}: {p!r}")
    return HalfPowerPoly(p.coeffs[k:])


def divided(v: StateVector, k: int) -> StateVector:
    """v divided by y**k, component by component."""
    return StateVector(v.n, {key: shift_down(p, k)
                             for key, p in v.entries.items()})


def is_odd_support(p: HalfPowerPoly) -> bool:
    return all(c == 0 for c in p.coeffs[0::2])


def beta(v: StateVector) -> StateVector:
    return sweeps([[rho_table()] * v.n], v, [(1, 0, 1)])


@cache
def singlet(n: int) -> StateVector:
    v = StateVector(n, {(UP,) * n: HalfPowerPoly.const(1)})
    for _ in range(n):
        v = beta(v)
    out = divided(v, n)
    if not all(p.is_even_support() and p.has_integer_coeffs()
               for p in out.entries.values()):
        raise ValueError("the singlet is not an integer polynomial in x")
    return out


def norm(state: StateVector) -> HalfPowerPoly:
    acc = HalfPowerPoly()
    for val in state.entries.values():
        acc = acc + val * val
    return acc


def hamiltonian(v: StateVector) -> StateVector:
    return bond_sum(v, *map(x_table, _bond_tables()))


def eval_x(p: HalfPowerPoly, x):
    """An even-support element at the rational point x, by Horner's scheme
    on rationals: the oracle of the int regime check."""
    acc = RAT(0)
    for c in reversed(p.x_coeffs()):
        acc = acc * as_rat(x) + c
    return acc


def packed(v: StateVector, bits: int) -> StateVector:
    """v's integer polynomial components packed at y = 2^bits."""
    if not all(p.has_integer_coeffs() for p in v.entries.values()):
        raise ValueError("only integer polynomials pack")
    return StateVector(v.n, {key: pack([int(c) for c in p.coeffs], bits)
                             for key, p in v.entries.items()})


def unpacked(v: StateVector, bits: int) -> StateVector:
    return StateVector(v.n, {key: HalfPowerPoly(unpack(x, bits))
                             for key, x in v.entries.items()})


def x_packed(v: StateVector, bits: int) -> StateVector:
    """v's integer polynomials in x packed at x = 2^bits."""
    if not all(p.is_even_support() for p in v.entries.values()):
        raise ValueError("only polynomials in x pack at x")
    return packed(StateVector(v.n, {key: HalfPowerPoly(p.x_coeffs())
                                    for key, p in v.entries.items()}), bits)


def x_unpacked(v: StateVector, bits: int) -> StateVector:
    return StateVector(v.n, {key: HalfPowerPoly.x_poly(unpack(x, bits))
                             for key, x in v.entries.items()})
