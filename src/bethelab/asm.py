"""Alternating sign matrices and the domain-wall six-vertex oracle.

An alternating sign matrix (ASM) has entries in {-1, 0, 1}; along every
row and column the nonzero entries alternate in sign and sum to 1.
The ASMs are the chains of states () -> ... -> (0, ..., n-1) in the
monotone-triangle graph, which has (3^n - 1)/2 edges: after row i the
columns whose partial sum is 1 form a state, and consecutive states
interlace.  Each edge a -> b is generated directly, b entry by entry in
the gaps of a, together with its count of -1 entries: the a_i strictly
between b_i and b_{i+1}, the columns of a that b leaves.

Each N x N ASM corresponds to exactly one configuration of the six-vertex
model with domain-wall boundary conditions (arrows in on the left/right
boundaries, out on the top/bottom).  With the vertex classes

    type 1: W> S^ E> N^      type 2: W< Sv E< Nv     (a-class, weight [q z])
    type 3: W> Sv E> Nv      type 4: W< S^ E< N^     (b-class, weight [q / z])
    type 5: W> Sv E< N^      type 6: W< S^ E> Nv     (c-class, weight [q^2])

(absolute arrow directions on the west/south/east/north edges), the entry
dictionary is +1 <-> type 5, -1 <-> type 6, 0 <-> types 1-4.  A row is
one edge, which fixes its vertex types and its -1 entries: every ASM
sum is a row transfer with one running sum per state, and the bijection
is checked once per edge (the whole-matrix maps stay as the reference).
The partition function, weighted at spectral parameter
z = zeta_row / w_col, is the independent oracle for the Izergin-Korepin
determinant; at the homogeneous point it reduces to
[q]^(n(n-1)) [q^2]^n A_n(x^2), A_n the minus-weight generating polynomial
(`gen_poly`, a `field.LaurentPoly` from degree 0; `cli` writes its text).
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import accumulate, combinations, product
from operator import mul

from bethelab.field import RAT, LaurentPoly, as_rat, brk, inv, unpack


class InvalidConfig(ValueError):
    """Vertex configuration violates edge consistency or the boundary."""


class Asm:
    """An n x n alternating sign matrix (validated on construction)."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("entries must form a nonempty square matrix")
        for mat in (rows, tuple(zip(*rows))):
            for line in mat:
                partial = 0
                for x in line:
                    if x not in (-1, 0, 1):
                        raise ValueError("entries must be -1, 0 or 1")
                    partial += x
                    if partial not in (0, 1):
                        raise ValueError("prefix sums must stay in {0, 1}")
                if partial != 1:
                    raise ValueError("every row and column must sum to 1")
        self.n = n
        self.entries = rows

    def minus_count(self) -> int:
        return sum(x == -1 for row in self.entries for x in row)

    def __eq__(self, other):
        return isinstance(other, Asm) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Asm({list(map(list, self.entries))})"


def _check_size(n: int):
    if n < 1:
        raise ValueError("n must be at least 1")


@cache
def _successors(a, n: int):
    """The states after a, in increasing order, each with its count of -1
    entries: (b, k) for the strictly increasing tuples b over range(n),
    one longer than a, interlacing it as b_1 <= a_1 <= b_2 <= ... <= a_k
    <= b_{k+1}, and k the number of a_i with b_i < a_i < b_{i+1}.  b is
    built entry by entry: b_1 runs over [0, a_1] and each next b_{i+1}
    over [a_i, a_{i+1}], a_{k+1} read as n - 1, from a_i + 1 where b_i =
    a_i, so every b is strictly increasing and comes out in order."""
    edges = [((x,), 0) for x in range(a[0] + 1 if a else n)]
    for ai, hi in zip(a, a[1:] + (n - 1,)):
        edges = [(b + (x,), k + (b[-1] < ai < x)) for b, k in edges
                 for x in range(ai + (b[-1] == ai), hi + 1)]
    return tuple(edges)


def generate_asms(n: int):
    """Yield every n x n ASM exactly once (monotone-triangle backtracking).

    States are the sorted tuples of columns whose partial sum is 1; row i
    goes from one state to an interlacing successor.
    """
    _check_size(n)

    def walk(chain):
        if len(chain) == n + 1:
            yield Asm([[(j in b) - (j in a) for j in range(n)]
                       for a, b in zip(chain, chain[1:])])
            return
        for b, _ in _successors(chain[-1], n):
            yield from walk(chain + [b])

    yield from walk([()])


def _transitions(n: int):
    """Each edge (i, a, b, k) once, row by row: row i goes from a state a
    of i columns to a successor b and holds k entries -1.  Adding any one
    column to a state gives a successor, so every state lies on a chain
    from () to (0, ..., n-1)."""
    for i in range(n):
        for a in combinations(range(n), i):
            for b, k in _successors(a, n):
                yield i, a, b, k


def _row_transfer(n: int, row_weight, one):
    """Sum, over the chains of states () -> ... -> (0, ..., n-1), that is
    over the n x n ASMs, of the product of row_weight(i, a, b, k) over the
    rows i: a -> b with k entries -1, keeping one running sum per
    state."""
    acc = {(): one}
    for i, a, b, k in _transitions(n):
        term = acc[a] * row_weight(i, a, b, k)
        acc[b] = acc[b] + term if b in acc else term
    return acc[tuple(range(n))]


def count_asms_by_columns(n: int) -> int:
    """Independent count: dynamic programming over row-partial-sum vectors,
    scanning column by column.  A column alternates when its prefix sums
    stay in {0, 1} and end at 1; it may follow a state when every row's
    partial sum stays in {0, 1}."""
    _check_size(n)
    columns = [col for col in product((-1, 0, 1), repeat=n)
               if set(accumulate(col)) <= {0, 1} and sum(col) == 1]
    counts = {(0,) * n: 1}
    for _ in range(n):
        nxt = {}
        for state, c in counts.items():
            for col in columns:
                new = tuple(s + x for s, x in zip(state, col))
                if set(new) <= {0, 1}:
                    nxt[new] = nxt.get(new, 0) + c
        counts = nxt
    return counts.get((1,) * n, 0)


def gen_poly(n: int) -> LaurentPoly:
    """A_n(t) as a LaurentPoly from degree 0 with int coefficients:
    coefficient k counts the ASMs with exactly k entries -1.

    The row a -> b holds k entries -1, counted as it is generated.  The
    row transfer runs over integers at t = 2^bits, unpacked by
    `field.unpack`: a coefficient is at most the number of ASMs, below
    3^((n-1)^2) (the last row and column follow from the rest) and so
    below 2^(bits-1).
    """
    _check_size(n)
    bits = 2 * n * n
    total = _row_transfer(n, lambda i, a, b, k: 1 << bits * k, 1)
    return LaurentPoly(0, unpack(total, bits))


# -- the ASM <-> DWBC bijection -----------------------------------------

# type -> (W, S, E, N) as absolute directions; horizontal edges are
# 'r'(ight) or 'l'(eft), vertical edges 'u'(p) or 'd'(own)
VERTEX_EDGES = {
    1: ("r", "u", "r", "u"),
    2: ("l", "d", "l", "d"),
    3: ("r", "d", "r", "d"),
    4: ("l", "u", "l", "u"),
    5: ("r", "d", "l", "u"),
    6: ("l", "u", "r", "d"),
}

A_CLASS = frozenset({1, 2})
B_CLASS = frozenset({3, 4})

_EDGES_TO_TYPE = {edges: t for t, edges in VERTEX_EDGES.items()}


class DwbcConfig:
    """n x n grid of six-vertex types obeying domain-wall boundaries."""

    __slots__ = ("n", "types")

    def __init__(self, types):
        grid = tuple(tuple(int(t) for t in row) for row in types)
        n = len(grid)
        if n == 0 or any(len(r) != n for r in grid):
            raise InvalidConfig("types must form a square grid")
        for row in grid:
            for t in row:
                if t not in VERTEX_EDGES:
                    raise InvalidConfig(f"unknown vertex type {t}")
        self.n = n
        self.types = grid
        self._validate()

    def _validate(self):
        n = self.n
        for i in range(n):
            for j in range(n):
                w, s, e, nn = VERTEX_EDGES[self.types[i][j]]
                if j == 0 and w != "r":
                    raise InvalidConfig("left boundary arrow must point in")
                if j == n - 1 and e != "l":
                    raise InvalidConfig("right boundary arrow must point in")
                if i == 0 and nn != "u":
                    raise InvalidConfig("top boundary arrow must point out")
                if i == n - 1 and s != "d":
                    raise InvalidConfig("bottom boundary arrow must point out")
                if j + 1 < n and e != VERTEX_EDGES[self.types[i][j + 1]][0]:
                    raise InvalidConfig(f"horizontal edge mismatch at {(i, j)}")
                if i + 1 < n and s != VERTEX_EDGES[self.types[i + 1][j]][3]:
                    raise InvalidConfig(f"vertical edge mismatch at {(i, j)}")

    def __eq__(self, other):
        return isinstance(other, DwbcConfig) and self.types == other.types

    def __repr__(self):
        return f"DwbcConfig({list(map(list, self.types))})"


def _row_types(a, b, n: int):
    """Vertex types along the row whose column-partial-sum state goes from
    a to b: the edge above cell j points down iff j is in a, the edge
    below iff j is in b, and the edge right of it points right iff the
    row's prefix sum, of the entries [j in b] - [j in a], is 0."""
    types, row_sum, west = [], 0, "r"
    for j in range(n):
        row_sum += (j in b) - (j in a)
        east = "r" if row_sum == 0 else "l"
        types.append(_EDGES_TO_TYPE[(west, "d" if j in b else "u", east,
                                     "d" if j in a else "u")])
        west = east
    return tuple(types)


def asm_to_dwbc(a: Asm) -> DwbcConfig:
    """Map an ASM to its six-vertex configuration, row by row through the
    states of its column partial sums."""
    states, col_sum = [()], [0] * a.n
    for row in a.entries:
        col_sum = [s + x for s, x in zip(col_sum, row)]
        states.append(tuple(j for j, s in enumerate(col_sum) if s))
    return DwbcConfig([_row_types(s, t, a.n)
                       for s, t in zip(states, states[1:])])


def _row_entries(types):
    """The ASM row of a row of vertex types: +1 at type 5, -1 at type 6."""
    return tuple({5: 1, 6: -1}.get(t, 0) for t in types)


def dwbc_to_asm(c: DwbcConfig) -> Asm:
    """Inverse map, row by row."""
    return Asm([_row_entries(row) for row in c.types])


def vertex_count_audit(a: Asm, config: DwbcConfig) -> bool:
    """Whether config, the six-vertex image of a, has the forced vertex
    counts: k type-6 and n + k type-5 vertices, k the number of -1
    entries of a (the other n^2 - n - 2k vertices follow)."""
    k = a.minus_count()
    fives = sum(t == 5 for row in config.types for t in row)
    sixes = sum(t == 6 for row in config.types for t in row)
    return sixes == k and fives == a.n + k


def bijection_by_rows(n: int):
    """(roundtrip, audit): whether dwbc_to_asm(asm_to_dwbc(a)) == a and
    vertex_count_audit hold for every n x n ASM a, checked on each edge
    a -> b (Mills, Robbins and Rumsey 1983; Kuperberg 1996).  The row
    _row_types(a, b, n) passes the roundtrip when its horizontal edges
    chain from west to east, both boundary edges pointing in, its north
    and south edges point down exactly at a and at b, and it reads back
    [j in b] - [j in a]; it passes the audit with |a - b| type-6 and
    |a - b| + 1 type-5 vertices.  That checks every ASM: the chains from
    () to (0, ..., n-1) are exactly the ASMs, and each edge lies on one;
    the top, bottom and vertical edges follow from the chain's end states
    and the states that adjacent rows share; the counts add up along a
    chain.  The -1 entries of a row are counted here as |a - b|, by a set
    difference, not read from the edge generator's count."""
    _check_size(n)
    roundtrip = audit = True
    for _i, a, b, _k in _transitions(n):
        types = _row_types(a, b, n)
        west, south, east, north = zip(*(VERTEX_EDGES[t] for t in types))
        fits = (("r",) + east == west + ("l",)
                and north == tuple("d" if j in a else "u" for j in range(n))
                and south == tuple("d" if j in b else "u" for j in range(n)))
        roundtrip = roundtrip and fits and _row_entries(types) == tuple(
            (j in b) - (j in a) for j in range(n))
        k = len(set(a) - set(b))
        audit = audit and types.count(6) == k and types.count(5) == k + 1
    return roundtrip, audit


def dwbc_partition_brute(zeta, w, q) -> RAT:
    """Domain-wall partition function by the row transfer.

    The vertex in row i, column j carries spectral parameter
    z = zeta_i / w_j and weight [q z], [q / z] or [q^2] by class.
    """
    zs = [as_rat(z) for z in zeta]
    ws = [as_rat(x) for x in w]
    n = len(zs)
    if len(ws) != n:
        raise ValueError("zeta and w must have equal length")
    _check_size(n)
    q = as_rat(q)
    fc = brk(q * q)

    def cell(z):  # the weight of each vertex type at spectral parameter z
        wa, wb = brk(q * z), brk(q * inv(z))
        return {t: wa if t in A_CLASS else wb if t in B_CLASS else fc
                for t in VERTEX_EDGES}

    cells = [[cell(zi * inv(wj)) for wj in ws] for zi in zs]
    return _row_transfer(n, lambda i, a, b, _k: reduce(mul, (
        cells[i][j][t] for j, t in enumerate(_row_types(a, b, n)))), RAT(1))
