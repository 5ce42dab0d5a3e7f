"""Differential tests of the model's int vectors against the oracles.

`aba.ModelVector` keeps a vector as one grade (the unit 1, s, i or s i)
times ints over one denominator.  `scalar_oracle` is the same algebra on
FourPart entries (or rationals), as the package computed it before on
Scalars, and `dense_rmatrix_oracle` holds the braided two-site gate.  For
N <= 5, on random vectors carrying all four parts, every int operation
must agree with the oracle exactly: reading the ints back as Scalars,
rescaling, sums, the braided two-site gate and the twisted shift.  A
random four-part vector is the sum of up to four single-grade vectors,
and the operators are linear, so each summand is compared on its own.
The renormalised vector's Laurent coefficients, interpolated one parity
class at a time in w_j^2 (`laurent_oracle`), must equal the full-width
interpolation in w_j.
"""

import random

import pytest

import dense_rmatrix_oracle as dense
import scalar_oracle
from helpers import at_pi, draw_q, draw_w, model_sum
from laurent_oracle import admissible_points, vector_laurent_coefficients
from scalar_oracle import FourPart, model, summands

from bethelab.aba import (
    ZERO,
    ModelParams,
    StateVector,
    renormalised_vector,
    rhat22_apply,
    s_prime_apply,
)
from bethelab.field import RAT, InconsistentSamples

SIZES = [1, 2, 3, 4, 5]


def params_for(rng, n):
    q = draw_q(rng)
    return ModelParams(n, q, draw_w(rng, n, q))


def random_rat(rng):
    return RAT(rng.randint(-9, 9), rng.randint(1, 9))


def random_four_part(rng, params):
    """All four parts nonzero unless drawn zero."""
    return FourPart(*(random_rat(rng) for _ in range(4)), d=params.d)


def random_vector(rng, params, count=6):
    """The single-grade summands {grade: StateVector of FourParts} of a
    vector of four-part values on random keys."""
    return summands(StateVector(params.n, {
        tuple(rng.randint(0, 2) for _ in range(params.n)):
        random_four_part(rng, params) for _ in range(count)}))


def factors(rng, params):
    """Rescaling factors: ints, rationals, every unit times a rational,
    zero and the graded summands of random four-part values."""
    units = [params.sc(1), params.s, params.i, params.s * params.i]
    return ([-1, 3, random_rat(rng), 0]
            + [u * params.sc(random_rat(rng)) for u in units]
            + [c.scalar() for _ in range(3)
               for c in random_four_part(rng, params).summands()])


@pytest.mark.parametrize("n", SIZES)
def test_parts_read_back_as_the_scalars_in_lowest_terms(n):
    rng = random.Random(700 + n)
    p = params_for(rng, n)
    for _ in range(4):
        for g, v in random_vector(rng, p).items():
            got = model(v, p)
            den, grade, _ = scalar_oracle.split(v)
            assert got.entries == v.entries
            assert got.den == den
            assert got.grade == grade == g


@pytest.mark.parametrize("n", SIZES, ids=at_pi)
def test_rescaling_matches_scalar_rescaling(n):
    rng = random.Random(710 + n)
    p = params_for(rng, n)
    for _ in range(3):
        vs = random_vector(rng, p).values()
        for c in factors(rng, p):
            for v in vs:
                got = model(v, p).scale(c)
                assert got.entries == v.scale(c).entries
                assert got == model(v.scale(c), p)


@pytest.mark.parametrize("n", SIZES)
def test_sums_match_scalar_sums(n):
    """Vectors of one grade summed on their int parts over a common
    denominator, as the operators sum their sweeps, read back as the
    four-part sums, and a vanishing sum as the zero vector."""
    rng = random.Random(720 + n)
    p = params_for(rng, n)
    for _ in range(4):
        a, b = random_vector(rng, p), random_vector(rng, p)
        for g in set(a) & set(b):
            assert model_sum(model(a[g], p), model(b[g], p)).entries == \
                (a[g] + b[g]).entries
        for v in a.values():
            assert model_sum(model(v, p), model(v.scale(-1), p)).is_zero()


@pytest.mark.parametrize("n", SIZES[1:], ids=at_pi)
def test_gate_matches_scalar_gate(n):
    """P R22(u) on every adjacent pair and on the wrapped pair (N, 1), on
    the summands of random four-part vectors and the renormalised
    vector."""
    rng = random.Random(730 + n)
    p = params_for(rng, n)
    vecs = [v for _ in range(2) for v in random_vector(rng, p, 8).values()]
    vecs.append(scalar_oracle.rationals(renormalised_vector(p)))
    pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    for v in vecs:
        for i, j in pairs:
            u = p.sc(RAT(rng.randint(1, 97), rng.randint(1, 97)))
            got = rhat22_apply(u, p, model(v, p), i, j)
            assert got.entries == dense.gate(u, p, v, i, j).entries


@pytest.mark.parametrize("n", SIZES, ids=at_pi)
def test_shift_on_parts_matches_shift_on_scalars(n):
    rng = random.Random(740 + n)
    p = params_for(rng, n)
    for v in random_vector(rng, p).values():
        got = model(v, p).map(s_prime_apply)
        assert got.entries == s_prime_apply(v).entries


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_vector_coefficients_match_scalar_interpolation(n):
    """Every component of the renormalised vector, interpolated in w_j^2
    one parity class at a time, equals the full-width rational
    interpolation in w_j from 2N + 1 samples."""
    rng = random.Random(760 + n)
    p = params_for(rng, n)
    low, width = -(n - 1), 2 * (n - 1)
    for j in range(1, n + 1):
        def sample(t, j=j):
            return renormalised_vector(
                p.with_w(p.w[:j - 1] + (t,) + p.w[j:]))

        got = vector_laurent_coefficients(p, j)
        want = scalar_oracle.laurent_components(
            sample, admissible_points(p, j, width + 3), low, width)
        assert got == want


def planted(monkeypatch, at_zero, power):
    """Sample vectors of a drawn N = 3 model, w_j^power (j = 1) added to a
    component with sigma_j = 0 or sigma_j != 0 at every sample point."""
    from bethelab import aba

    rng = random.Random(770)
    p = params_for(rng, 3)
    j = 1
    key = next(k for k in renormalised_vector(p).entries
               if (k[j - 1] == ZERO) == at_zero)
    build = aba.renormalised_vector

    def plant(params):
        v = build(params)
        if params.n != p.n or params.w == p.w:
            return v
        t = params.w[j - 1]
        return model_sum(v, aba.basis_vector(params, key).scale(t ** power))

    monkeypatch.setattr(aba, "renormalised_vector", plant)
    return p, j


def test_a_power_of_the_wrong_parity_raises(monkeypatch):
    """A term w_j of odd power planted in a component whose powers of w_j
    are all even lies inside the window [-(N-1), N-1], so a full-width
    interpolation would accept it; each parity class's surplus samples
    reject it."""
    p, j = planted(monkeypatch, True, 1)
    with pytest.raises(InconsistentSamples):
        vector_laurent_coefficients(p, j)


@pytest.mark.parametrize("at_zero, power", [(True, 4), (False, 3)],
                         ids=["sigma_zero_w^(N+1)", "sigma_nonzero_w^N"])
def test_a_power_outside_the_window_raises(monkeypatch, at_zero, power):
    """A term of the component's own parity just beyond the window's top,
    w_j^(N+1) where sigma_j = 0 and w_j^N where sigma_j != 0, is left over
    by the class's N or N - 1 interpolated powers, and the surplus samples
    reject it."""
    p, j = planted(monkeypatch, at_zero, power)
    with pytest.raises(InconsistentSamples):
        vector_laurent_coefficients(p, j)
