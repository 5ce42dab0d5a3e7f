"""Alternating sign matrices and the domain-wall six-vertex oracle.

An alternating sign matrix (ASM) has entries in {-1, 0, 1}; along every
row and column the nonzero entries alternate in sign and sum to 1.
Generation walks the monotone-triangle lattice: after row i the column
partial sums form a 0/1 vector with exactly i ones, and consecutive
vectors interlace.

Each N x N ASM corresponds to exactly one configuration of the six-vertex
model with domain-wall boundary conditions (arrows in on the left/right
boundaries, out on the top/bottom).  With the vertex classes

    type 1: W> S^ E> N^      type 2: W< Sv E< Nv     (a-class, weight [q z])
    type 3: W> Sv E> Nv      type 4: W< S^ E< N^     (b-class, weight [q / z])
    type 5: W> Sv E< N^      type 6: W< S^ E> Nv     (c-class, weight [q^2])

(absolute arrow directions on the west/south/east/north edges), the entry
dictionary is +1 <-> type 5, -1 <-> type 6, 0 <-> types 1-4.  The brute
partition function sums, over all ASMs, the product of vertex weights at
spectral parameter z = zeta_row / w_col; it is the independent oracle for
the Izergin-Korepin determinant, and at the homogeneous point it reduces
to [q]^(n(n-1)) [q^2]^n A_n(x^2) with A_n the minus-weight generating
polynomial.
"""

from __future__ import annotations

from bethelab.field import RAT, Scalar, as_rat
from bethelab.rmatrix import VertexWeights

MAX_SIZE = 7


class SizeLimitExceeded(ValueError):
    """Requested size is past the exhaustive-generation guard."""


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
    if not 1 <= n <= MAX_SIZE:
        raise SizeLimitExceeded(f"n must be between 1 and {MAX_SIZE}")


def generate_asms(n: int):
    """Yield every n x n ASM exactly once (monotone-triangle backtracking).

    States are the sorted tuples of columns whose partial sum is 1; row i
    transitions interlace the previous state.
    """
    _check_size(n)

    def successors(a):
        """All strictly increasing tuples b (len(a)+1) interlacing a:
        b_1 <= a_1 <= b_2 <= ... <= a_k <= b_{k+1}."""
        k = len(a)
        out = []

        def rec(pos, prev, acc):
            if pos == k + 1:
                out.append(tuple(acc))
                return
            lo = max(prev + 1, a[pos - 1] if pos > 0 else 0)
            hi = a[pos] if pos < k else n - 1
            for b in range(lo, hi + 1):
                acc.append(b)
                rec(pos + 1, b, acc)
                acc.pop()

        rec(0, -1, [])
        return out

    def rows_from_chain(chain):
        rows = []
        prev = [0] * n
        for state in chain[1:]:
            cur = [0] * n
            for c in state:
                cur[c] = 1
            rows.append(tuple(cur[j] - prev[j] for j in range(n)))
            prev = cur
        return rows

    def walk(chain):
        if len(chain) == n + 1:
            yield Asm(rows_from_chain(chain))
            return
        for nxt in successors(chain[-1]):
            chain.append(nxt)
            yield from walk(chain)
            chain.pop()

    yield from walk([()])


def count_asms_by_columns(n: int) -> int:
    """Independent count: dynamic programming over row-partial-sum vectors,
    scanning column by column and testing candidate columns directly
    against the alternation rules."""
    _check_size(n)
    from itertools import product

    def ok_column(col, state):
        for x, s in zip(col, state):
            if s + x not in (0, 1):
                return None
        partial = 0
        for x in col:
            partial += x
            if partial not in (0, 1):
                return None
        if partial != 1:
            return None
        return tuple(s + x for x, s in zip(col, state))

    counts = {(0,) * n: 1}
    for _ in range(n):
        nxt = {}
        for state, c in counts.items():
            for col in product((-1, 0, 1), repeat=n):
                new = ok_column(col, state)
                if new is not None:
                    nxt[new] = nxt.get(new, 0) + c
        counts = nxt
    return counts.get((1,) * n, 0)


class GenPoly:
    """Coefficients of the minus-weight generating polynomial A_n(t)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        self.n = n
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def total(self) -> int:
        return sum(self.coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, t):
        t = as_rat(t)
        acc = RAT(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __eq__(self, other):
        return (isinstance(other, GenPoly) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms)

def gen_poly(n: int) -> GenPoly:
    """A_n(t): coefficient k counts the ASMs with exactly k entries -1."""
    _check_size(n)
    counts = []
    for a in generate_asms(n):
        k = a.minus_count()
        while len(counts) <= k:
            counts.append(0)
        counts[k] += 1
    return GenPoly(n, counts)


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
C_CLASS = frozenset({5, 6})

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


def asm_to_dwbc(a: Asm) -> DwbcConfig:
    """Map an ASM to its six-vertex configuration via partial sums: the
    edge right of cell (i, j) points right iff the row prefix sum is 0,
    the edge below points down iff the column prefix sum is 1."""
    n = a.n
    rows = a.entries
    types = []
    col_sum = [0] * n
    for i in range(n):
        row_sum = 0
        row_types = []
        for j in range(n):
            west = "r" if row_sum == 0 else "l"
            north = "d" if col_sum[j] == 1 else "u"
            row_sum += rows[i][j]
            col_sum[j] += rows[i][j]
            east = "r" if row_sum == 0 else "l"
            south = "d" if col_sum[j] == 1 else "u"
            row_types.append(_EDGES_TO_TYPE[(west, south, east, north)])
        types.append(row_types)
    return DwbcConfig(types)


def dwbc_to_asm(c: DwbcConfig) -> Asm:
    """Inverse map: +1 at type-5 vertices, -1 at type-6, 0 elsewhere."""
    entries = [[{5: 1, 6: -1}.get(t, 0) for t in row] for row in c.types]
    return Asm(entries)


def vertex_count_audit(a: Asm):
    """(k, fives, others) with the forced counts fives = n + k and
    others = n^2 - n - 2k; raises on violation."""
    config = asm_to_dwbc(a)
    k = a.minus_count()
    fives = sum(t == 5 for row in config.types for t in row)
    sixes = sum(t == 6 for row in config.types for t in row)
    others = a.n * a.n - fives - sixes
    if sixes != k or fives != a.n + k or others != a.n * a.n - a.n - 2 * k:
        raise AssertionError(f"vertex counts inconsistent for {a!r}")
    return k, fives, others


def dwbc_partition_brute(zeta, w, q) -> Scalar:
    """Domain-wall partition function by exhaustive ASM enumeration.

    The vertex in row i, column j carries spectral parameter
    z = zeta_i / w_j and weight [q z], [q / z] or [q^2] by class.
    """
    vw = q if isinstance(q, VertexWeights) else VertexWeights(q)
    zs = [vw.coerce(z) for z in zeta]
    ws = [vw.coerce(x) for x in w]
    n = len(zs)
    if len(ws) != n:
        raise ValueError("zeta and w must have equal length")
    _check_size(n)
    qs = vw.sc(vw.q)
    a_w = [[vw.bracket(qs * zi * wj.inv()) for wj in ws] for zi in zs]
    b_w = [[vw.bracket(qs * wj * zi.inv()) for wj in ws] for zi in zs]
    c_w = vw.bq2
    total = vw.zero
    for asm in generate_asms(n):
        config = asm_to_dwbc(asm)
        term = vw.one
        for i in range(n):
            for j in range(n):
                t = config.types[i][j]
                if t in A_CLASS:
                    term = term * a_w[i][j]
                elif t in B_CLASS:
                    term = term * b_w[i][j]
                else:
                    term = term * c_w
        total = total + term
    return total
