"""Shared test utilities: the seeded admissible-parameter draws are the
canonical ones from the CLI module; the rest are small readers of package
objects, the gate-by-gate sum on tuple keys (the oracle of the one-pass
`aba.apply_gates`), the bond-by-bond Hamiltonian built on it and its
rational form, and the rank proof that theta2(z) is a simple eigenvalue
of T2(z), which only tests use."""

from itertools import product
from math import lcm
from operator import mul

from scalar_oracle import laurent_components, model

from bethelab import aba
from bethelab.aba import (
    OMEGA,
    ModelParams,
    ModelVector,
    StateVector,
    basis_vector,
    magnetisation,
    theta2,
    transfer2_apply,
)
from bethelab.cli import draw_distinct, draw_q, draw_w, draw_z  # noqa: F401
from bethelab.field import RAT, as_rat, brk
from bethelab.linalg import SPIN_CHARS
from bethelab.spinchain import _bond_tables


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


def gate_sum(v: StateVector, gates) -> StateVector:
    """The sum of the images of v under the two-site gates (table, i, j),
    one `aba.apply_two_site` pass each on tuple keys, added gate by gate:
    the oracle of the one-pass `aba.apply_gates`."""
    out = StateVector(v.n)
    for table, i, j in gates:
        out = out + aba.apply_two_site(table, v, i, j)
    return out


def bond_gates(n: int, bulk, boundary) -> list:
    """The N gates (table, i, j) of the twisted chain: the bulk bond on
    sites (j, j + 1), 0-based, and the boundary bond on (N - 1, 0)."""
    return [(bulk, j, j + 1) for j in range(n - 1)] + [(boundary, n - 1, 0)]


def bond_sum(v: StateVector, bulk, boundary) -> StateVector:
    """The bulk bond on sites (j, j + 1) and the boundary bond on (N, 1),
    summed bond by bond by `gate_sum`: the oracle of the N bonds that
    `spinchain.hamiltonian_apply_poly` hands to `aba.apply_gates`."""
    if v.n < 2:
        raise ValueError("the twisted chain needs at least two sites")
    return gate_sum(v, bond_gates(v.n, bulk, boundary))


def hamiltonian_apply(v: StateVector, q) -> StateVector:
    """Apply the twisted Hamiltonian at rational anisotropy x = q + 1/q
    to a vector with rational entries."""
    q = as_rat(q)
    bulk, boundary = (evaluated(t, q + 1 / q) for t in _bond_tables())
    return bond_sum(v, bulk, boundary)


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


PROOF_PRIMES = (2 ** 61 - 1, 2 ** 31 - 1)


def rank_mod(rows, p: int) -> int:
    """The rank of a matrix of ints in [0, p) modulo the prime p."""
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def eigenvalue_kernel_dimensions(params: ModelParams, z) -> tuple:
    """Upper bounds on (dim ker M, dim ker M^2) for M = T2(z) - theta2(z),
    summed over the magnetisation sectors, which T2 preserves.

    Column k of a sector's block is T2(z) e_k - theta2(z) e_k, built by
    `aba.transfer2_apply` on the basis vector and cleared to ints over its
    own denominator.  Modulo a prime p that divides no denominator, M and
    M^2 have entries in Z localised at p, so their ranks mod p are at most
    their ranks over Q and each kernel dimension mod p bounds the one over
    Q from above.  psi lies in ker M, so (1, 1) proves theta2(z) a simple
    eigenvalue: geometric and algebraic multiplicity 1.  A kernel above 1
    can come from p alone, so a second prime is tried before giving up;
    the bounds returned are the smallest found."""
    theta = theta2(z, params)
    sectors = {}
    for key in product(range(3), repeat=params.n):
        sectors.setdefault(magnetisation(key), []).append(key)
    blocks = []  # per sector: its columns of ints and their denominators
    for keys in sectors.values():
        cols, dens, members = [], [], set(keys)
        for k, key in enumerate(keys):
            # through the module, so that a test can plant a degeneracy
            image = aba.transfer2_apply(z, params, basis_vector(params, key))
            ints = image.rational().entries
            assert set(ints) <= members, "T2 left the sector"
            # (ints b - a den e_k) / (den b) for theta2(z) = a / b
            col = [ints.get(x, 0) * theta.denominator for x in keys]
            col[k] -= theta.numerator * image.den
            cols.append(col)
            dens.append(image.den * theta.denominator)
        blocks.append((cols, dens))
    best = None
    for p in PROOF_PRIMES:
        if any(den % p == 0 for _, dens in blocks for den in dens):
            continue
        dims = [0, 0]
        for cols, dens in blocks:
            cols = [[x * pow(den, -1, p) % p for x in col]
                    for col, den in zip(cols, dens)]
            kernel = len(cols) - rank_mod(cols, p)
            if kernel:  # else the block and so its square are invertible
                square = [[sum(map(mul, row, col)) % p for col in cols]
                          for row in zip(*cols)]
                dims[0] += kernel
                dims[1] += len(cols) - rank_mod(square, p)
        best = tuple(dims) if best is None else tuple(map(min, best, dims))
        if best == (1, 1):
            break
    return best
