"""Exact sparse vectors, sparse products and the integer determinant.

`StateVector` is the sparse vector every operator of `aba` and
`spinchain` acts on.  The R-matrix identities on pair and triple tensor
spaces multiply sparse dict-of-rows matrices of int numerators with
`sp_mul`, so the 27-dimensional Yang-Baxter space costs nothing;
`rmatrix.RMat.embedded` writes a pair operator in that form.  The one
dense matrix is the int matrix of a determinant, which `detform`
clears row by row and hands to fraction-free Bareiss elimination
(`det_bareiss`); exact row reduction, for solves and kernel dimensions, is
`field.row_reduce`.
"""

from __future__ import annotations


SPIN_CHARS = "U0D"  # the letters of the spin codes 0, 1, 2


def state_str(key) -> str:
    return "".join(SPIN_CHARS[c] for c in key)


class DimensionMismatch(ValueError):
    """Vector length does not match the model size."""


class StateVector:
    """Sparse state on N spin-1 sites, keyed by spin strings (codes 0, 1, 2
    for U, 0, D), over any ring: ints (the parts of an `aba.ModelVector`,
    packed polynomials) or half-power polynomials.  Zero values are never
    stored."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries=None):
        self.n = n
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    def __bool__(self):
        return bool(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, c) -> "StateVector":
        return StateVector(self.n, {k: c * v for k, v in self.entries.items()})

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.n != other.n:
            raise DimensionMismatch("adding vectors of different length")
        out = dict(self.entries)
        for k, v in other.entries.items():
            w = out.get(k)
            out[k] = v if w is None else w + v
        return StateVector(self.n, out)

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self):
        parts = [f"{state_str(k)}: {v!r}"
                 for k, v in sorted(self.entries.items())]
        return f"StateVector(n={self.n}, {{{', '.join(parts)}}})"


def det_bareiss(a) -> int:
    """Determinant of a square int matrix by fraction-free Bareiss
    elimination: each step's division by the previous pivot is exact, so
    `//` keeps every entry an int."""
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top, pivot = m[k], m[k][k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            m[i][k + 1:] = [(x * pivot - lead * y) // prev
                            for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# -- sparse product for tensor-space identities -------------------------


def sp_mul(a: dict, b: dict) -> dict:
    """Product of sparse {row: {column: entry}} matrices; zero entries and
    empty rows are dropped."""
    out = {}
    for i, arow in a.items():
        acc = {}
        for k, x in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            for j, y in brow.items():
                v = x * y
                if j in acc:
                    acc[j] = acc[j] + v
                else:
                    acc[j] = v
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out
