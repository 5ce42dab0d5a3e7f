import inspect
import math
import random
import textwrap
from collections import Counter
from itertools import combinations, product

import pytest

from helpers import draw_q, draw_distinct, eval_at

from bethelab import asm
from bethelab.asm import (
    A_CLASS,
    B_CLASS,
    Asm,
    DwbcConfig,
    InvalidConfig,
    asm_to_dwbc,
    bijection_by_rows,
    count_asms_by_columns,
    dwbc_partition_brute,
    dwbc_to_asm,
    gen_poly,
    generate_asms,
    vertex_count_audit,
)
from bethelab.field import RAT, LaurentPoly, PoleEncountered, brk


def asm_total_product_formula(n: int) -> int:
    """prod_{j=0}^{n-1} (3j+1)! / (n+j)! — the closed count, used here
    only as a cross-check oracle for the generators."""
    num = 1
    den = 1
    for j in range(n):
        num *= math.factorial(3 * j + 1)
        den *= math.factorial(n + j)
    assert num % den == 0
    return num // den


def dwbc_partition_enumerated(zeta, w, q):
    """The domain-wall partition function summed ASM by ASM, each through
    its vertex configuration: the oracle for the row transfer."""
    n = len(zeta)
    total = RAT(0)
    for a in generate_asms(n):
        config = asm_to_dwbc(a)
        term = RAT(1)
        for i in range(n):
            for j in range(n):
                t = config.types[i][j]
                if t in A_CLASS:
                    term = term * brk(q * zeta[i] / w[j])
                elif t in B_CLASS:
                    term = term * brk(q * w[j] / zeta[i])
                else:
                    term = term * brk(q * q)
        total = total + term
    return total


def test_counts_small():
    assert [sum(1 for _ in generate_asms(n)) for n in (1, 2, 3, 4)] == \
        [1, 2, 7, 42]


def test_n1_is_trivial():
    assert list(generate_asms(1)) == [Asm([[1]])]


def test_n3_has_one_minus():
    asms = list(generate_asms(3))
    with_minus = [a for a in asms if a.minus_count() > 0]
    assert len(with_minus) == 1
    assert with_minus[0] == Asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])


def test_gen_poly_values():
    assert gen_poly(1) == LaurentPoly(0, [1])
    assert gen_poly(3).coeffs == (6, 1)
    p4 = gen_poly(4)
    assert p4.low == 0
    assert sum(p4.coeffs) == 42
    assert p4.top() == 2
    assert p4.coeffs[0] == 24  # permutation matrices


def test_gen_poly_degree_bound_and_constant_term():
    for n in range(1, 6):
        p = gen_poly(n)
        assert p.top() <= ((n - 1) ** 2) // 4
        assert p.coeffs[0] == math.factorial(n)


def test_generators_agree_and_match_closed_count():
    for n in range(1, 7):
        by_rows = sum(1 for _ in generate_asms(n))
        assert by_rows == count_asms_by_columns(n)
        assert by_rows == asm_total_product_formula(n)


def test_unique_generation():
    seen = set(generate_asms(4))
    assert len(seen) == 42


def test_size_guard():
    for fn in (lambda n: list(generate_asms(n)), gen_poly,
               count_asms_by_columns, bijection_by_rows):
        with pytest.raises(ValueError):
            fn(0)


def test_asm_validation():
    with pytest.raises(ValueError):
        Asm([[1, 0], [1, 0]])          # column sums wrong
    with pytest.raises(ValueError):
        Asm([[-1, 1], [1, 0]])         # prefix sum dips below 0
    with pytest.raises(ValueError):
        Asm([[2, -1], [-1, 2]])        # entries outside {-1,0,1}


def test_bijection_roundtrip():
    for n in (1, 2, 3, 4):
        for a in generate_asms(n):
            assert dwbc_to_asm(asm_to_dwbc(a)) == a


def test_identity_maps_to_diagonal_c_vertices():
    ident = Asm([[1 if i == j else 0 for j in range(3)] for i in range(3)])
    config = asm_to_dwbc(ident)
    for i in range(3):
        assert config.types[i][i] == 5
    assert sum(t == 5 for row in config.types for t in row) == 3


def vertex_counts(config):
    """(fives, sixes, others) of a six-vertex configuration."""
    flat = [t for row in config.types for t in row]
    fives, sixes = flat.count(5), flat.count(6)
    return fives, sixes, len(flat) - fives - sixes


def test_displayed_four_by_four_example():
    # the 4x4 matrix with a single -1 paired with its vertex configuration
    a = Asm([[0, 1, 0, 0], [1, -1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    config = asm_to_dwbc(a)
    assert a.minus_count() == 1
    assert vertex_counts(config) == (5, 1, 10)
    assert vertex_count_audit(a, config) is True


def test_vertex_count_identities():
    for n in (1, 2, 3, 4):
        for a in generate_asms(n):
            config = asm_to_dwbc(a)
            k = a.minus_count()
            assert vertex_count_audit(a, config) is True
            assert vertex_counts(config) == (n + k, k, n * n - n - 2 * k)


def test_permutation_matrix_counts():
    perm = Asm([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    config = asm_to_dwbc(perm)
    assert vertex_counts(config) == (3, 0, 6)
    assert vertex_count_audit(perm, config) is True


def test_vertex_count_audit_rejects_a_corrupted_config():
    # each 3x3 ASM against the configuration of another with a different
    # number of -1 entries: a verdict of False, never an exception
    asms = list(generate_asms(3))
    ident = next(a for a in asms if a.minus_count() == 0)
    minus = next(a for a in asms if a.minus_count() == 1)
    assert vertex_count_audit(ident, asm_to_dwbc(minus)) is False
    assert vertex_count_audit(minus, asm_to_dwbc(ident)) is False


def test_invalid_config_rejected():
    with pytest.raises(InvalidConfig):
        DwbcConfig([[1]])              # boundary violated (type 5 required)
    with pytest.raises(InvalidConfig):
        DwbcConfig([[5, 5], [5, 5]])   # internal edges inconsistent
    DwbcConfig([[5]])                  # the unique n=1 configuration


def test_partition_n1():
    z = dwbc_partition_brute([RAT(3)], [RAT(5)], RAT(2))
    assert z == brk(RAT(4))


@pytest.mark.parametrize("zeta, w, message", [
    ([0, 2], [1, 3], "bracket of zero spectral parameter"),
    ([1, 2], [0, 3], "inverse of zero scalar"),
])
def test_partition_zero_parameter_names_itself(zeta, w, message):
    with pytest.raises(PoleEncountered) as err:
        dwbc_partition_brute(zeta, w, RAT(2))
    assert type(err.value) is PoleEncountered and str(err.value) == message


def test_partition_homogeneous_matches_genpoly():
    rng = random.Random(404)
    for n in (1, 2, 3, 4):
        q = draw_q(rng)
        x = q + 1 / q
        ones = [RAT(1)] * n
        want = brk(q) ** (n * (n - 1)) * brk(q * q) ** n * \
            eval_at(gen_poly(n), x * x)
        assert dwbc_partition_brute(ones, ones, q) == want


def test_per_configuration_homogeneous_weight():
    # every single configuration weighs [q]^(n(n-1)) [q^2]^n x^(2k)
    q = RAT(3, 2)
    for n in (2, 3):
        for a in generate_asms(n):
            k = a.minus_count()
            config = asm_to_dwbc(a)
            term = RAT(1)
            for i in range(n):
                for j in range(n):
                    t = config.types[i][j]
                    term = term * (brk(q * q) if t in (5, 6) else brk(q))
            assert term == (brk(q) ** (n * n - n - 2 * k)
                            * brk(q * q) ** (n + 2 * k))


def test_partition_matches_ik_shape_n2():
    # cross-check the brute sum against the explicit two-term expansion
    rng = random.Random(99)
    q = draw_q(rng)
    zeta = draw_distinct(rng, 2)
    w = draw_distinct(rng, 2, avoid=zeta)
    got = dwbc_partition_brute(zeta, w, q)
    c2 = brk(q * q) ** 2
    term_id = c2 * brk(q * w[1] / zeta[0]) * brk(q * w[0] / zeta[1])
    term_anti = c2 * brk(q * zeta[0] / w[0]) * brk(q * zeta[1] / w[1])
    assert got == term_id + term_anti


def test_gen_poly_is_the_minus_count_histogram():
    for n in range(1, 7):
        hist = [0] * n * n
        for a in generate_asms(n):
            hist[a.minus_count()] += 1
        assert gen_poly(n) == LaurentPoly(0, hist)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_partition_transfer_matches_enumeration(n):
    rng = random.Random(700 + n)
    q = draw_q(rng)
    zeta = draw_distinct(rng, n)
    w = draw_distinct(rng, n, avoid=zeta)
    ones = [RAT(1)] * n
    # a repeated zeta, where ik_determinant raises PoleEncountered
    # and ik_or_asm_sum falls back here, with one zeta equal to a w
    coincident = ([zeta[0]] * n, [zeta[0]] + list(w[1:]))
    for z, x in ((zeta, w), (ones, ones), coincident):
        assert dwbc_partition_brute(z, x, q) == \
            dwbc_partition_enumerated(z, x, q)


def test_asm_sums_do_not_enumerate(monkeypatch):
    def refuse(n):
        raise AssertionError("ASM sums must not enumerate")

    monkeypatch.setattr(asm, "generate_asms", refuse)
    assert gen_poly(5).coeffs == (120, 200, 94, 14, 1)
    ones = [RAT(1)] * 4
    x = RAT(3, 2) + RAT(2, 3)
    want = brk(RAT(3, 2)) ** 12 * brk(RAT(9, 4)) ** 4 * \
        (24 + 16 * x ** 2 + 2 * x ** 4)
    assert dwbc_partition_brute(ones, ones, RAT(3, 2)) == want


def whole_asm_verdicts(n):
    """The two bijection checks ASM by ASM: the reference for
    bijection_by_rows."""
    roundtrip = audit = True
    for a in generate_asms(n):
        config = asm_to_dwbc(a)
        roundtrip = roundtrip and dwbc_to_asm(config) == a
        audit = audit and vertex_count_audit(a, config)
    return roundtrip, audit


def test_bijection_by_rows_matches_the_whole_asm_checks():
    for n in range(1, 7):
        assert bijection_by_rows(n) == whole_asm_verdicts(n) == (True, True)


def test_row_transitions_are_the_rows_of_the_asms():
    for n in range(1, 9):
        edges = [(a, b) for _i, a, b, _k in asm._transitions(n)]
        assert len(edges) == len(set(edges)) == (3 ** n - 1) // 2
        if n <= 5:
            rows = set()
            for m in generate_asms(n):
                col_sum, state = [0] * n, ()
                for row in m.entries:
                    col_sum = [s + x for s, x in zip(col_sum, row)]
                    nxt = tuple(j for j, s in enumerate(col_sum) if s)
                    rows.add((state, nxt))
                    state = nxt
            assert rows == set(edges)


def product_successors(a, n):
    """The states after a by filtering the Cartesian product of the
    interlacing ranges for strictly increasing tuples: the oracle of the
    direct generator `asm._successors`."""
    ranges = (range(lo, hi + 1) for lo, hi in zip((0,) + a, a + (n - 1,)))
    return [b for b in product(*ranges)
            if all(x < y for x, y in zip(b, b[1:]))]


def product_gen_poly(n):
    """A_n(t) as its coefficient list, by a row transfer of -1 count
    histograms over the product-filtered edges, each row's -1 entries
    counted as |a - b| by a set difference."""
    acc = {(): Counter({0: 1})}
    for _ in range(n):
        nxt = {}
        for a, hist in acc.items():
            for b in product_successors(a, n):
                minus, out = len(set(a) - set(b)), nxt.setdefault(b, Counter())
                for k, m in hist.items():
                    out[k + minus] += m
        acc = nxt
    hist = acc[tuple(range(n))]
    return [hist[k] for k in range(max(hist) + 1)]


def test_direct_edges_match_the_product_filter():
    """The edges a -> b come out of `asm._successors` as the product
    filter gives them, in the same order, for every state a up to n = 7,
    and each one's -1 count is len(set(a) - set(b))."""
    for n in range(1, 8):
        for i in range(n):
            for a in combinations(range(n), i):
                got = asm._successors(a, n)
                assert [b for b, _ in got] == product_successors(a, n)
                assert [k for _, k in got] == [len(set(a) - set(b))
                                               for b, _ in got]


def test_gen_poly_matches_the_product_filter_transfer():
    for n in range(1, 9):
        assert list(gen_poly(n).coeffs) == product_gen_poly(n)


ROW_TYPES = asm._row_types


def last_cell_5_6_swapped(a, b, n):
    *rest, last = ROW_TYPES(a, b, n)
    return (*rest, {5: 6, 6: 5}.get(last, last))


def mutant_row_types(old, new):
    """asm._row_types with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(ROW_TYPES))
    assert old in source
    namespace = dict(vars(asm))
    exec(source.replace(old, new), namespace)
    return namespace["_row_types"]


def verdicts_or_failure(check, n):
    """check(n), or (False, False) when it raises: verify records a check
    that raises as failed."""
    try:
        return check(n)
    except (InvalidConfig, KeyError):
        return False, False


@pytest.mark.parametrize("mutant", [
    last_cell_5_6_swapped,
    mutant_row_types('"d" if j in a else "u"', '"d" if j in b else "u"'),
], ids=["types_5_6_swapped_in_last_cell", "north_edge_read_from_b"])
def test_a_corrupted_row_fails_both_bijection_checks(monkeypatch, mutant):
    monkeypatch.setattr(asm, "_row_types", mutant)
    for n in (2, 3, 4):
        assert verdicts_or_failure(bijection_by_rows, n) == (False, False)
        assert verdicts_or_failure(whole_asm_verdicts, n) == (False, False)
