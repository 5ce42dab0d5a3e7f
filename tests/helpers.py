"""Shared test utilities: the seeded admissible-parameter draws are the
canonical ones from the CLI module; the rest are small readers of package
objects and the rational form of the twisted Hamiltonian, which only tests
use."""

from math import lcm

from scalar_oracle import laurent_components, model

from bethelab.aba import (
    OMEGA,
    ModelParams,
    ModelVector,
    StateVector,
    transfer2_apply,
)
from bethelab.cli import draw_distinct, draw_q, draw_w, draw_z  # noqa: F401
from bethelab.field import RAT, as_rat, brk
from bethelab.linalg import SPIN_CHARS
from bethelab.spinchain import _apply_gates, _bond_tables


def ring(q) -> ModelParams:
    """The parameters of a one-site chain at q, for a test that needs only
    q's ring: d, the units s and i, `sc` and `rat`."""
    return ModelParams(1, q, [RAT(1)])


def model_sum(a: ModelVector, b: ModelVector) -> ModelVector:
    """a + b for vectors of one grade (or a zero one), summed on their int
    parts over a common denominator."""
    if a.part and b.part and a.grade != b.grade:
        raise ValueError(f"vectors of grades {a.grade} and {b.grade}")
    den = lcm(a.den, b.den)
    return ModelVector(a.d, den, a.part.scale(den // a.den)
                       + b.part.scale(den // b.den), a.grade | b.grade)


def at_pi(n) -> str:
    """Case id of a chain of n sites: n and the twist angle, pi, so the ids
    read as those of the model's one twist."""
    return f"{n}-pi"


def state_from_str(s: str):
    return tuple(SPIN_CHARS.index(ch) for ch in s)


def degree_width(poly) -> int:
    """Top degree minus low degree of a LaurentPoly; 0 for zero."""
    return 0 if poly.is_zero() else len(poly.coeffs) - 1


def coefficient(poly, k: int):
    """The coefficient of z^k of a LaurentPoly, 0 outside its support."""
    i = k - poly.low
    return poly.coeffs[i] if 0 <= i < len(poly.coeffs) else 0


def eval_at(genpoly, t):
    """A_n(t) at the rational t."""
    t = as_rat(t)
    acc = RAT(0)
    for c in reversed(genpoly.coeffs):
        acc = acc * t + c
    return acc


def s_prime_inverse_apply(v: StateVector) -> StateVector:
    out = {}
    for key, amp in v.entries.items():
        if OMEGA[key[0]] == -1:
            amp = -amp
        out[key[1:] + (key[0],)] = amp
    return StateVector(v.n, out)


def evaluated(table, x):
    """A transition table of int coefficient lists in x at the rational
    point x, as rationals."""
    out = {}
    for key, col in table.items():
        vals = [(lo, ro, sum(c * x ** k for k, c in enumerate(w)))
                for lo, ro, w in col]
        out[key] = [(lo, ro, c) for lo, ro, c in vals if c]
    return out


def hamiltonian_apply(v: StateVector, q) -> StateVector:
    """Apply the twisted Hamiltonian at rational anisotropy x = q + 1/q
    to a vector with rational entries."""
    q = as_rat(q)
    bulk, boundary = (evaluated(t, q + 1 / q) for t in _bond_tables())
    return _apply_gates(v, bulk, boundary)


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
    polys = laurent_components(
        lambda t: transfer2_apply(params.sc(t), params, model(v, params)),
        pts, -2 * n, width)
    deriv = {key: sum(k * c for k, c in enumerate(poly.coeffs, poly.low))
             for key, poly in polys.items()}
    dv = s_prime_inverse_apply(StateVector(n, deriv))
    bq, bq2 = brk(q), brk(q * q)
    return v.scale(n) + dv.scale(bq2 / (2 * (bq * bq2) ** n))
