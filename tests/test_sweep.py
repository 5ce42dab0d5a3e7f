"""Differential tests of the whole-vector auxiliary sweep.

The oracle is the per-key contraction the sweep replaced: each basis
state is carried through the chain on its own, with its own auxiliary
index, and only the finished states are summed, all on FourParts (values
of Q(s, i) with four rational parts) with FourPart transition tables.
The sweep instead advances every state one site at a time, merges
equal partial states after each site and drops zeros only at the end of
a row, so vectors are chosen whose partial states merge and cancel
within a row.  `sweeps` runs several rows, each traced over signed
auxiliary bounds, on one int coding; it is compared with the per-key
contraction composed row after row, on ints and on HalfPowerPoly
values.  `monodromy_apply` and `transfer2_apply` run the
sweep on plain ints: on tables gauged by K = diag(1, s) on the auxiliary
factor, on the ints of a vector of one grade (the unit 1, s, i or s i),
with B and C restored by s^k and s^-k.  The random vectors carry all four
parts: each is the sum of up to four single-grade vectors, and the
operators are linear, so each summand is compared with the oracle on its
own, which covers every grade and the s^k factor; the gauged table itself
is checked against K R12 K^-1, R12 the ungauged FourPart matrix of
`dense_rmatrix_oracle`, whose tables the oracle sweeps.  The same sweep
is also run here on those FourPart tables themselves, and
`beta_apply` runs it on polynomials in x packed into Python ints, in the
gauge K = diag(1, y) of `spinchain`: its image is checked against the
per-key contraction of the ungauged rho on HalfPowerPoly entries,
divided by y once for each sweep.  Last, the T2 sweep at z = w_j is
compared with the two-site gates of `aba.scattering_apply` (the
regularity lemma), the one route of the scattering check.  The same
int coding, column compiler and merge loop sum the images of two-site
gates (`apply_gates`); that sum is compared with `apply_two_site` on
tuple keys, gate by gate, on seeded random tables in four rings.  A site
pair whose tables recur across the rows of one `sweeps` call is fused
into two-site columns; that path is compared with the same rows swept
one call a row, where nothing recurs, on seeded random tables with int
and HalfPowerPoly weights, and a count of `aba._merge` calls pins where
pairs fuse.
"""

import random

import pytest

import dense_rmatrix_oracle as dense
import halfpower_oracle
from helpers import at_pi, draw_q, draw_w, gate_sum
from scalar_oracle import FourPart, summands
from scalar_oracle import model as model_vector

from bethelab import aba
from bethelab.aba import (
    IrrationalWeight,
    ModelParams,
    StateVector,
    apply_gates,
    basis_vector,
    bethe_vector,
    magnetisation,
    monodromy_apply,
    scattering_apply,
    sweeps,
    transfer2_apply,
    vacuum,
)
from bethelab.field import RAT, HalfPowerPoly, SessionMismatch, pack
from bethelab.linalg import DimensionMismatch
from bethelab.spinchain import _RHO, _packed_rho, beta_apply

RHO = halfpower_oracle.rho_table()  # rho in y = x^(1/2), without the gauge

AUX = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}  # (a_in, a_out)
MAGNETISATION_SHIFT = {"A": 0, "B": -1, "C": 1, "D": 0}


def per_key_sweep(tables, v, a_in, a_out):
    """Reference contraction, one basis state at a time."""
    out = {}
    for key, amp in v.entries.items():
        cur = {(a_in, ()): amp}
        for site, table in zip(key, tables):
            nxt = {}
            for (a, prefix), val in cur.items():
                for ao, so, wgt in table[(a, site)]:
                    nk = (ao, prefix + (so,))
                    nv = val * wgt
                    acc = nxt.get(nk)
                    nxt[nk] = nv if acc is None else acc + nv
            cur = {k: x for k, x in nxt.items() if x}
        for (a, prefix), val in cur.items():
            if a == a_out:
                acc = out.get(prefix)
                out[prefix] = val if acc is None else acc + val
    return out


def oracle_monodromy(which, z, params, v):
    tables = [dense.r12(z * (1 / (params.q * w)), params)
              .column_map() for w in params.w]
    return model_vector(
        StateVector(v.n, per_key_sweep(tables, v, *AUX[which])), params)


def oracle_transfer2(z, params, v):
    tables = [dense.r22(z * (1 / w), params).column_map()
              for w in params.w]
    out = StateVector(v.n)
    for a0, sign in enumerate((-1, 1, -1)):
        part = StateVector(v.n, per_key_sweep(tables, v, a0, a0))
        out = out + part.scale(sign)
    return model_vector(out, params)


def oracle_beta(v):
    return StateVector(v.n, per_key_sweep([RHO] * v.n, v, 1, 0))


def shifts_magnetisation(v, image, shift):
    """Every key of image has the magnetisation of some key of v plus
    shift."""
    allowed = {magnetisation(k) + shift for k in v.entries}
    return all(magnetisation(k) in allowed for k in image.entries)


def random_four_part(rng, params):
    parts = [RAT(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
    for k in rng.sample(range(1, 4), rng.randint(0, 3)):
        parts[k] = RAT(0)
    return FourPart(*parts, d=params.d)


def random_keys(rng, n, count):
    """Keys sharing tails, so partial states coincide after early sites."""
    tails = [tuple(rng.randint(0, 2) for _ in range(n - 1))
             for _ in range(max(1, count // 3))]
    return {(rng.randint(0, 2),) + rng.choice(tails) for _ in range(count)}


def random_summands(rng, params, count):
    """The single-grade summands of a vector of four-part values."""
    return summands(StateVector(params.n, {
        k: random_four_part(rng, params)
        for k in random_keys(rng, params.n, count)})).values()


def random_vectors(rng, params, count):
    """The single-grade summands, as ModelVectors, of a vector of
    four-part values."""
    return [model_vector(v, params)
            for v in random_summands(rng, params, count)]


def partial_states(tables, head, a_in):
    """{(aux, prefix): weight} after the sites of `head`, unit amplitude."""
    cur = {(a_in, ()): 1}
    for site, table in zip(head, tables):
        nxt = {}
        for (a, prefix), val in cur.items():
            for ao, so, wgt in table[(a, site)]:
                nk = (ao, prefix + (so,))
                nxt[nk] = wgt * val + nxt.get(nk, 0)
        cur = {k: x for k, x in nxt.items() if x}
    return cur


def cancelling_vector(rng, tables, n, a_in):
    """Two states, differing in sites 1 and 2, whose contributions to one
    partial state after site 2 cancel exactly; needs n >= 2."""
    tail = tuple(rng.randint(0, 2) for _ in range(n - 2))
    heads = [(s1, s2) for s1 in range(3) for s2 in range(3)]
    rng.shuffle(heads)
    for h1 in heads:
        for h2 in heads:
            p1 = partial_states(tables, h1, a_in)
            p2 = partial_states(tables, h2, a_in)
            common = sorted(set(p1) & set(p2)) if h1 != h2 else []
            if common:
                c = rng.randint(1, 9)
                return StateVector(n, {h1 + tail: c * p2[common[0]],
                                       h2 + tail: -c * p1[common[0]]})
    raise AssertionError("no pair of states shares a partial state")


def model(rng, n):
    q = draw_q(rng)
    return ModelParams(n, q, draw_w(rng, n, q))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monodromy_matches_per_key_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        p = model(rng, n)
        z = p.sc(RAT(rng.randint(1, 97), rng.randint(1, 97)))
        vecs = [v for count in (2, 5, 9)
                for v in random_vectors(rng, p, count)]
        vecs.append(bethe_vector(p))
        for which, (a_in, _) in AUX.items():
            tables = [dense.r12(z * (1 / (p.q * w)), p).column_map()
                      for w in p.w]
            cancel = ([model_vector(cancelling_vector(rng, tables, n, a_in),
                                    p)] if n >= 2 else [])
            for v in vecs + cancel:
                got = monodromy_apply(which, z, p, v)
                assert got == oracle_monodromy(which, z, p, v)
                assert shifts_magnetisation(v, got, MAGNETISATION_SHIFT[which])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scalar_sweep_matches_per_key_oracle(n):
    """The one kernel on FourPart entries and FourPart tables, for every
    auxiliary boundary pair of both rows."""
    rng = random.Random(400 + n)
    p = model(rng, n)
    z = p.sc(RAT(rng.randint(1, 97), rng.randint(1, 97)))
    rows = {2: [dense.r12(z * (1 / (p.q * w)), p).column_map()
                for w in p.w],
            3: [dense.r22(z * (1 / w), p).column_map() for w in p.w]}
    vecs = [v for count in (3, 8) for v in random_summands(rng, p, count)]
    for dim, tables in rows.items():
        for a_in in range(dim):
            for a_out in range(dim):
                for v in vecs:
                    got = sweeps([tables], v, [(a_in, a_out, 1)])
                    assert got.entries == per_key_sweep(tables, v, a_in, a_out)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_int_coded_sweep_matches_per_key_oracle_on_long_chains(n):
    """Codes of sites 5..8 sit in bits 10..17 of a partial state: one
    seeded int vector through the int tables of both rows, for every
    auxiliary boundary pair."""
    rng = random.Random(700 + n)
    p = model(rng, n)
    z = RAT(rng.randint(1, 97), rng.randint(1, 97))
    rows = {2: [p.r12_table((z / (p.q * w)).as_integer_ratio())[0]
                for w in p.w],
            3: [p.r22_table((z / w).as_integer_ratio())[0] for w in p.w]}
    v = StateVector(n, {k: rng.choice((-1, 1)) * rng.randint(1, 99)
                        for k in random_keys(rng, n, 12)})
    for dim, tables in rows.items():
        for a_in in range(dim):
            for a_out in range(dim):
                got = sweeps([tables], v, [(a_in, a_out, 1)]).entries
                assert got == per_key_sweep(tables, v, a_in, a_out)
                assert got and all(type(x) is int for x in got.values())


def test_int_coded_sweep_on_halfpower_entries():
    """The ring-generic merge on HalfPowerPoly tables and entries."""
    rng = random.Random(750)
    n = 5
    tables = [RHO] * n
    v = StateVector(n, {k: HalfPowerPoly([rng.randint(-5, 5)
                                          for _ in range(3)])
                        for k in random_keys(rng, n, 10)})
    v = sweeps([tables], v, [(1, 0, 1)])
    for a_in, a_out in ((1, 0), (0, 0), (1, 1), (0, 1)):
        assert sweeps([tables], v, [(a_in, a_out, 1)]).entries == \
            per_key_sweep(tables, v, a_in, a_out)


T1_BOUNDS = [(0, 0, 1), (1, 1, -1)]  # tr_a of A - D
T2_BOUNDS = [(a0, a0, sign) for a0, sign in enumerate((-1, 1, -1))]


def per_key_rows(rows, v, bounds):
    """Reference for `sweeps`: each row in turn, v replaced by the sum of
    sign times the per-key contraction over the bounds."""
    for tables in rows:
        out = StateVector(v.n)
        for a_in, a_out, sign in bounds:
            part = StateVector(v.n, per_key_sweep(tables, v, a_in, a_out))
            out = out + part.scale(sign)
        v = out
    return v


def poly_table(table):
    """An int transition table's pattern with small constant HalfPowerPoly
    weights, w -> w mod 5 - 2 or 3: the kernel is ring-generic, so the
    weights need not be the model's, and small ones keep the oracle
    quick."""
    return {key: [(lo, ro, HalfPowerPoly.const(w % 5 - 2 or 3))
                  for lo, ro, w in col]
            for key, col in table.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ring", ["int", "halfpower"])
def test_multi_row_sweeps_match_composed_per_key_sweeps(n, ring):
    """`sweeps` over 2 and 3 rows with T1's and T2's signed bounds equals
    the per-key contraction applied row after row, on int entries over int
    tables and on HalfPowerPoly entries over polynomial tables; an input
    whose two keys cancel after site 2 of the first row checks that the
    zeros the sweep keeps within a row never reach its output."""
    rng = random.Random(900 + n)
    p = model(rng, n)
    zs = [RAT(rng.randint(1, 97), rng.randint(1, 97)) for _ in range(3)]
    rows = {2: [[p.r12_table((z / (p.q * w)).as_integer_ratio())[0]
                 for w in p.w] for z in zs],
            3: [[p.r22_table((z / w).as_integer_ratio())[0] for w in p.w]
                for z in zs]}
    few = ring != "int"  # HalfPowerPoly products are slow: fewer vectors
    if few:
        rows = {dim: [[poly_table(t) for t in r] for r in rs]
                for dim, rs in rows.items()}
        rows[2][0] = [RHO] * n

    def value():
        if few:
            return HalfPowerPoly([rng.randint(-5, 5) for _ in range(3)])
        return rng.choice((-1, 1)) * rng.randint(1, 99)

    for dim, bounds in ((2, T1_BOUNDS), (3, T2_BOUNDS)):
        vecs = [StateVector(n, {k: value() for k in random_keys(rng, n, c)})
                for c in ((3,) if few else (3, 9))]
        if n >= 2:
            vecs += [cancelling_vector(rng, rows[dim][0], n, a_in)
                     for a_in in ((1,) if few else range(dim))]
        for count in (2, 3):
            for v in vecs:
                got = sweeps(rows[dim][:count], v, bounds)
                assert got == per_key_rows(rows[dim][:count], v, bounds)
                assert all(got.entries.values())


@pytest.mark.parametrize("column, transitions", [
    ((4, 0), []), ((0, 4), [(0, 0, 1)]), ((0, 0), [(4, 0, 1)]),
    ((0, 0), [(0, 5, 1)]), ((-1, 0), [(0, 0, 1)]), ((0, 0), [(0, -1, 1)])])
def test_table_code_outside_two_bits_raises(column, transitions):
    """On per-site columns, in a pair that recurs on five sites and so is
    fused, with the bad table on either side of the pair, and in a
    gate."""
    table = {(a, s): [(a, s, 1)] for a in range(2) for s in range(3)}
    table[column] = transitions
    with pytest.raises(ValueError):
        sweeps([[table, table]], StateVector(2, {(0, 0): 1}), [(0, 0, 1)])
    ident = {(a, s): [(a, s, 1)] for a in range(2) for s in range(3)}
    for pair in ([table, table], [table, ident], [ident, table]):
        with pytest.raises(ValueError, match="not in 0..3"):
            sweeps([pair + [ident] * 3] * 2, StateVector(5, {(0,) * 5: 1}),
                   [(0, 0, 1)])
    with pytest.raises(ValueError, match="not in 0..3"):
        apply_gates(StateVector(2, {(0, 0): 1}), [(table, 0, 1)])


GATE_RINGS = {
    "int": lambda rng: rng.choice((-1, 1)) * rng.randint(1, 9),
    "fraction": lambda rng: RAT(rng.choice((-1, 1)) * rng.randint(1, 9),
                                rng.randint(1, 9)),
    "halfpower": lambda rng: HalfPowerPoly(
        [rng.randint(-3, 3) for _ in range(2)] + [rng.randint(1, 3)]),
    # integer polynomials packed at 2^16, as spinchain packs its bonds
    "packed": lambda rng: pack([rng.randint(-99, 99) for _ in range(3)], 16),
}


def random_gate_table(rng, value):
    """A two-site transition table on spins 0..2, each column one to three
    distinct transitions with nonzero weights."""
    outs = [(a, b) for a in range(3) for b in range(3)]
    return {key: [(a, b, value(rng))
                  for a, b in rng.sample(outs, rng.randint(1, 3))]
            for key in outs}


def gate_site_lists(rng, n):
    """Site pairs of gate lists on n sites: none, one adjacent pair each
    way, all adjacent pairs, the two ends each way (not adjacent for n >
    2), one pair twice, and five random pairs."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    twice = rng.choice(pairs)
    return [[], [(0, 1)], [(1, 0)], [(k, k + 1) for k in range(n - 1)],
            [(0, n - 1), (n - 1, 0)], [twice, twice],
            [rng.choice(pairs) for _ in range(5)]]


@pytest.mark.parametrize("ring", list(GATE_RINGS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_gates_matches_the_gate_by_gate_sum(n, ring):
    """One pass of `apply_gates` against `apply_two_site` on tuple keys,
    gate by gate, added up (`helpers.gate_sum`): on seeded random tables,
    a fresh table per gate except the repeated gate, which is one table
    twice; the empty list gives the zero vector."""
    rng = random.Random(700 + 10 * n + list(GATE_RINGS).index(ring))
    value = GATE_RINGS[ring]
    for sites in gate_site_lists(rng, n):
        tables = [random_gate_table(rng, value) for _ in sites]
        if len(sites) == 2 and sites[0] == sites[1]:
            tables[1] = tables[0]
        gates = [(t, i, j) for t, (i, j) in zip(tables, sites)]
        for terms in (1, 6, 3 ** n):
            v = StateVector(n, {k: value(rng)
                                for k in random_keys(rng, n, terms)})
            want = gate_sum(v, gates)
            assert apply_gates(v, gates) == want
            assert want.is_zero() == (not gates)


@pytest.mark.parametrize("a_in, a_out", [(4, 0), (0, 4), (-1, 0)])
def test_auxiliary_boundary_outside_two_bits_raises(a_in, a_out):
    table = {(a, s): [(a, s, 1)] for a in range(2) for s in range(3)}
    with pytest.raises(ValueError):
        sweeps([[table]], StateVector(1, {(0,): 1}), [(a_in, a_out, 1)])


@pytest.mark.parametrize("sign", [1, -1])
def test_r12_table_is_r12_in_the_rational_gauge(sign):
    """r12_table(u) over its D is K R12(u) K^-1, K = diag(1, s) on the
    auxiliary factor and R12 the dense FourPart oracle, weight by weight, at
    seeded rational u, for the session constant d of either sign (q < 0
    flips the sign of d)."""
    rng = random.Random(600 + sign)
    for _ in range(4):
        p = ModelParams(1, sign * draw_q(rng), [RAT(1)])
        assert (p.d > 0) == (sign > 0)
        k = [p.sc(1), p.s]
        for _ in range(3):
            u = RAT(rng.choice((-1, 1)) * rng.randint(1, 97),
                    rng.randint(1, 97))
            table, den = p.r12_table(u.as_integer_ratio())
            assert all(type(x) is int for col in table.values()
                       for *_, x in col)
            got = {(lo, ro, li, ri): p.sc(RAT(x, den))
                   for (li, ri), col in table.items() for lo, ro, x in col}
            assert got == {(lo, ro, li, ri): k[lo] * w * k[li].inv()
                           for (li, ri), col
                           in dense.r12(u, p).column_map().items()
                           for lo, ro, w in col}


def test_weights_that_are_not_rational_in_the_gauge_raise():
    p = ModelParams(2, RAT(2), [RAT(1), RAT(3)])
    # an s in the spectral argument makes the diagonal weights irrational
    with pytest.raises(IrrationalWeight):
        monodromy_apply("A", p.s, p, vacuum(p))
    with pytest.raises(IrrationalWeight):
        transfer2_apply(p.s, p, vacuum(p))


def test_vector_from_another_session_is_rejected():
    p = ModelParams(2, RAT(2), [RAT(1), RAT(3)])
    other = ModelParams(2, RAT(3), [RAT(1), RAT(3)])
    v = basis_vector(other, (0, 0))
    with pytest.raises(SessionMismatch):
        monodromy_apply("B", p.sc(RAT(5, 3)), p, v)
    with pytest.raises(SessionMismatch):
        transfer2_apply(p.sc(RAT(5, 3)), p, v)


def test_gate_route_rejects_a_vector_from_another_session():
    """The two-site gates check their vector as the sweeps do, so the
    scattering product does not return a vector carrying another q's d."""
    p = ModelParams(2, RAT(2), [RAT(1), RAT(3)])
    other = ModelParams(2, RAT(3), [RAT(1), RAT(3)])
    psi = bethe_vector(other)
    with pytest.raises(SessionMismatch):
        scattering_apply(1, p, psi)
    with pytest.raises(SessionMismatch):
        transfer2_apply(p.w[0], p, psi)


def test_gate_route_rejects_a_vector_of_another_length():
    """A 2-site vector on a 3-site model: DimensionMismatch on both routes
    to T2(w_j), not an IndexError from inside the gate."""
    p = ModelParams(3, RAT(2), [RAT(1), RAT(3), RAT(5)])
    psi = bethe_vector(ModelParams(2, RAT(2), [RAT(1), RAT(3)]))
    with pytest.raises(DimensionMismatch):
        scattering_apply(1, p, psi)
    with pytest.raises(DimensionMismatch):
        transfer2_apply(p.w[0], p, psi)


def test_gate_route_rejects_a_vector_from_another_session_at_one_site():
    """At N = 1 the scattering product is S' alone, with no gate, so its
    own guard must reject a vector carrying another q's d."""
    p = ModelParams(1, RAT(2), [RAT(3)])
    v = basis_vector(ModelParams(1, RAT(3), [RAT(3)]), (0,))
    with pytest.raises(SessionMismatch):
        scattering_apply(1, p, v)
    with pytest.raises(SessionMismatch):
        transfer2_apply(p.w[0], p, v)


def test_gate_route_rejects_a_vector_of_another_length_at_one_site():
    """A 2-site vector on a 1-site model: DimensionMismatch on both routes
    to T2(w_1), not a 2-site vector back from S'."""
    p = ModelParams(1, RAT(2), [RAT(3)])
    v = basis_vector(ModelParams(2, RAT(2), [RAT(1), RAT(3)]), (0, 2))
    with pytest.raises(DimensionMismatch):
        scattering_apply(1, p, v)
    with pytest.raises(DimensionMismatch):
        transfer2_apply(p.w[0], p, v)


def test_cancelling_vector_really_cancels():
    """The constructed pair loses a partial state to cancellation after
    site 2, so the sweep carries a zero within the row, which it must
    drop by the row's end."""
    rng = random.Random(7)
    p = model(rng, 3)
    z = p.sc(RAT(5, 3))
    tables = [dense.r12(z * (1 / (p.q * w)), p).column_map()
              for w in p.w]
    for a_in in (0, 1):
        v = cancelling_vector(rng, tables, 3, a_in)
        merged = {}
        for key, amp in v.entries.items():
            for k, wgt in partial_states(tables, key[:2], a_in).items():
                merged[k] = merged.get(k, 0) + amp * wgt
        assert any(not x for x in merged.values())


def test_signed_sweeps_compile_each_row_once(monkeypatch):
    """T2 traces three auxiliary bounds and T1 two, each on one compiled
    row: one compilation per site of the N-site row per call, not one per
    bound."""
    offsets = []
    columns = aba._columns

    def counting(table, lo, hi):
        offsets.append((lo, hi))
        return columns(table, lo, hi)

    p = ModelParams(3, RAT(5, 2), [RAT(3), RAT(7, 5), RAT(11, 4)])
    psi = bethe_vector(p)
    monkeypatch.setattr(aba, "_columns", counting)
    for apply in (transfer2_apply, aba.transfer1_apply):
        offsets.clear()
        apply(p.sc(RAT(2)), p, psi)
        assert offsets == [(0, 2), (0, 4), (0, 6)]


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids=at_pi)
def test_transfer2_matches_per_key_oracle(n):
    rng = random.Random(200 + n)
    for _ in range(2):
        p = model(rng, n)
        z = p.sc(RAT(rng.randint(1, 97), rng.randint(1, 97)))
        tables = [dense.r22(z * (1 / w), p).column_map()
                  for w in p.w]
        vecs = [v for count in (3, 8) for v in random_vectors(rng, p, count)]
        if n >= 2:
            vecs += [model_vector(cancelling_vector(rng, tables, n, a0), p)
                     for a0 in range(3)]
        vecs.append(bethe_vector(p))
        for v in vecs:
            assert transfer2_apply(z, p, v) == oracle_transfer2(z, p, v)


def every_sector_vector(rng, params, per_sector=3):
    """A seeded sparse vector with keys of every magnetisation -N..N, its
    rational values times one of the units 1, s, i, s i."""
    n, entries = params.n, {}
    for m in range(-n, n + 1):
        for _ in range(per_sector):
            ups = rng.randint(max(m, 0), (n + m) // 2)  # m = ups - downs
            key = [0] * ups + [2] * (ups - m) + [1] * (n - 2 * ups + m)
            rng.shuffle(key)
            entries[tuple(key)] = RAT(rng.choice((-1, 1)) * rng.randint(1, 99),
                                      rng.randint(1, 99))
    unit = rng.choice((1, params.s, params.i, params.s * params.i))
    return model_vector(StateVector(n, entries), params).scale(unit)


@pytest.mark.parametrize("n", [2, 3, 4, 5], ids=at_pi)
def test_transfer2_at_w_j_is_the_gate_product(n):
    """Regularity lemma (`aba` docstring): the T2 sweep at z = w_j equals
    [q][q^2] times the gate product S_j of `scattering_apply`, on vectors
    that are not eigenvectors and span every magnetisation sector."""
    rng = random.Random(800 + n)
    for _ in range(3):
        p = model(rng, n)
        v = every_sector_vector(rng, p)
        assert {magnetisation(k) for k in v.entries} == set(range(-n, n + 1))
        for j in range(1, n + 1):
            assert transfer2_apply(p.w[j - 1], p, v) == \
                scattering_apply(j, p, v).scale(p.d)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_beta_matches_per_key_oracle(n):
    """Packing is a ring map, so the packed images must agree exactly
    whatever the size of the coefficients: after k gauged sweeps of
    polynomials in x, the oracle's k ungauged ones divided by y^k."""
    rng = random.Random(300 + n)
    rho = halfpower_oracle.x_table(_RHO)
    bits = _packed_rho(n)[1]
    one = HalfPowerPoly.const(1)
    vecs = [StateVector(n, {(0,) * n: one})]
    for count in (3, 7):
        vecs.append(StateVector(n, {
            k: HalfPowerPoly.x_poly([rng.randint(-5, 5) for _ in range(4)])
            for k in random_keys(rng, n, count)}))
    if n >= 2:
        vecs += [cancelling_vector(rng, [rho] * n, n, a_in)
                 for a_in in (0, 1)]
    for v in vecs:
        packed = halfpower_oracle.x_packed(v, bits)
        for k in (1, 2):
            got, v = beta_apply(packed), oracle_beta(v)
            assert got == halfpower_oracle.x_packed(
                halfpower_oracle.divided(v, k), bits)
            assert shifts_magnetisation(packed, got, -1)
            packed = got


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids=at_pi)
def test_bethe_vector_is_the_chain_of_b(n):
    """bethe_vector sweeps all its B on one integer vector, which must
    give the vector of the chain of single B applications."""
    rng = random.Random(500 + n)
    for _ in range(2):
        p = model(rng, n)
        v = vacuum(p)
        for w in p.w:
            v = monodromy_apply("B", p.sc(w), p, v)
        assert bethe_vector(p) == v
        assert monodromy_apply("B", [p.sc(w) for w in p.w], p, vacuum(p)) == v


def random_table(rng, dim, value):
    """A transition table on auxiliary codes 0..dim-1 and spins 0..2:
    every column present, some empty, the rest one to three distinct
    transitions with nonzero weights."""
    outs = [(a, s) for a in range(dim) for s in range(3)]
    return {key: [(a, s, value(rng))
                  for a, s in sorted(rng.sample(outs, rng.randint(0, 3)))]
            for key in outs}


FUSE_RINGS = {
    "int": lambda rng: rng.choice((-1, 1)) * rng.randint(1, 9),
    "halfpower": lambda rng: HalfPowerPoly(
        [rng.randint(-2, 2), rng.choice((-1, 1))]),
}


def rows_with_recurring_pairs(rng, n, dim, value, count):
    """count rows of n tables: each site holds one table shared by every
    row or a fresh table per row, so some site pairs (1, 2), (3, 4), ...
    recur across the rows and others do not."""
    shared = [random_table(rng, dim, value) if rng.random() < 0.6 else None
              for _ in range(n)]
    shared[0] = shared[0] or random_table(rng, dim, value)
    shared[1] = shared[1] or random_table(rng, dim, value)
    shared[-1] = None if n > 2 else shared[-1]
    return [[t or random_table(rng, dim, value) for t in shared]
            for _ in range(count)]


def per_site_rows(rows, v, bounds):
    """`sweeps` one row a call: no pair recurs within a call, so every
    site keeps its own columns."""
    for tables in rows:
        v = sweeps([tables], v, bounds)
    return v


@pytest.mark.parametrize("ring", list(FUSE_RINGS))
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_fused_pairs_match_per_site_sweeps(n, ring):
    """Rows whose recurring pairs fuse (n >= 5) against the same rows
    swept one call a row, on seeded random tables with int and
    HalfPowerPoly weights, odd and even n, and one to three signed
    auxiliary bounds; below five sites nothing fuses and both agree."""
    rng = random.Random(1000 + 10 * n + list(FUSE_RINGS).index(ring))
    value = FUSE_RINGS[ring]
    few = ring != "int"  # HalfPowerPoly products are slow: fewer cases
    for dim in (2, 3):
        for count in (2, 3):
            rows = rows_with_recurring_pairs(rng, n, dim, value, count)
            bounds = [(rng.randrange(dim), rng.randrange(dim),
                       rng.choice((-1, 1)))
                      for _ in range(rng.randint(1, 3))]
            for terms in ((6,) if few else (1, 6, 3 ** n)):
                v = StateVector(n, {k: value(rng)
                                    for k in random_keys(rng, n, terms)})
                got = sweeps(rows, v, bounds)
                assert got == per_site_rows(rows, v, bounds)
                if not few:
                    assert got == per_key_rows(rows, v, bounds)


def cancelling_pair():
    """Two tables whose fused column at (aux, spin, spin) = (0, 0, 0)
    cancels: the first splits (0, 0) into both auxiliary codes, which the
    second takes to one state with opposite weights."""
    ident = {(a, s): [(a, s, 1)] for a in range(2) for s in range(3)}
    first = {**ident, (0, 0): [(0, 1, 1), (1, 1, 1)]}
    second = {**ident, (0, 0): [(0, 2, 1)], (1, 0): [(0, 2, -1)]}
    return first, second


def test_fused_column_that_cancels_stays_empty():
    """A fused column whose weights all cancel is kept as an empty list,
    so a state that reaches it vanishes instead of raising KeyError."""
    first, second = cancelling_pair()
    cols, mask = aba._fused(first, second, 2)
    assert cols[0] == [] and mask == 3 | 3 << 2 | 3 << 4
    assert len(cols) == 2 * 3 * 3  # every (aux, spin, spin) column
    ident = {(a, s): [(a, s, 1)] for a in range(2) for s in range(3)}
    rows, rest = [[first, second, ident, ident, ident]] * 2, (0,) * 3
    for v in (StateVector(5, {(0, 0, *rest): 1}),
              StateVector(5, {(0, 0, *rest): 1, (1, 0, *rest): 5,
                              (0, 2, 1, 0, 2): -3})):
        got = sweeps(rows, v, [(0, 0, 1), (0, 1, 1)])
        assert got == per_site_rows(rows, v, [(0, 0, 1), (0, 1, 1)])
    assert sweeps(rows, StateVector(5, {(0,) * 5: 1}), [(0, 0, 1)]).is_zero()


def count_merges(monkeypatch):
    """The list that records one entry per `aba._merge` call from now."""
    calls, merge = [], aba._merge

    def counting(*args):
        calls.append(1)
        return merge(*args)

    monkeypatch.setattr(aba, "_merge", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_merges_a_row_pin_where_pairs_fuse(n, monkeypatch):
    """From five sites on, the n-site singlet's n rows of one table fuse
    every site pair: ceil(n/2) merges a row; so does the B chain at w = 1,
    whose tables are one memoised r12(1/q).  Below five sites neither
    fuses, and the B chain at distinct w never does: n merges a row."""
    fused = -(-n // 2) if n >= 5 else n
    calls = count_merges(monkeypatch)
    beta_apply(StateVector(n, {(0,) * n: 1}), n)
    assert len(calls) == n * fused
    rng = random.Random(1100 + n)
    for p, per_row in ((model(rng, n), n),
                       (ModelParams(n, draw_q(rng), [RAT(1)] * n), fused)):
        calls.clear()
        bethe_vector(p)
        assert len(calls) == n * per_row
