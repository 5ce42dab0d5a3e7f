"""The homogeneous limit on HalfPowerPoly entries: the reference the
packed-integer singlet, norm and Hamiltonian of `spinchain` are tested
against, for small n.

Every step is polynomial arithmetic over Q[y], y = x^(1/2): the rho table
and the bond tables are used as `spinchain` builds them, unpacked, and the
sweep and gate code are the same.
"""

from bethelab.aba import StateVector, sweep
from bethelab.field import HalfPowerPoly, pack, unpack
from bethelab.rmatrix import UP
from bethelab.spinchain import _apply_gates, _bond_tables, _rho_table


def shift_down(p: HalfPowerPoly, k: int) -> HalfPowerPoly:
    """Exact division by y**k."""
    if any(c != 0 for c in p.coeffs[:k]):
        raise ValueError(f"not divisible by y^{k}: {p!r}")
    return HalfPowerPoly(p.coeffs[k:])


def is_odd_support(p: HalfPowerPoly) -> bool:
    return all(c == 0 for c in p.coeffs[0::2])


def beta(v: StateVector) -> StateVector:
    return StateVector(v.n, sweep([_rho_table()] * v.n, v, 1, 0))


def singlet(n: int) -> StateVector:
    v = StateVector(n, {(UP,) * n: HalfPowerPoly.const(1)})
    for _ in range(n):
        v = beta(v)
    out = {key: shift_down(p, n) for key, p in v.entries.items()}
    if not all(p.is_even_support() and p.has_integer_coeffs()
               for p in out.values()):
        raise ValueError("the singlet is not an integer polynomial in x")
    return StateVector(n, out)


def norm(state: StateVector) -> HalfPowerPoly:
    acc = HalfPowerPoly()
    for val in state.entries.values():
        acc = acc + val * val
    return acc


def hamiltonian(v: StateVector) -> StateVector:
    return _apply_gates(v, *_bond_tables())


def packed(v: StateVector, bits: int) -> StateVector:
    """v's integer polynomial components packed at y = 2^bits."""
    if not all(p.has_integer_coeffs() for p in v.entries.values()):
        raise ValueError("only integer polynomials pack")
    return StateVector(v.n, {key: pack([int(c) for c in p.coeffs], bits)
                             for key, p in v.entries.items()})


def unpacked(v: StateVector, bits: int) -> StateVector:
    return StateVector(v.n, {key: HalfPowerPoly(unpack(x, bits))
                             for key, x in v.entries.items()})
