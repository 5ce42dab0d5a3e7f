"""Reference answers the benchmark checks bethelab against.

Nothing here imports bethelab.  Each answer comes from a source outside the
program:

- A_n(t), the generating polynomial of n x n alternating sign matrices by
  their number of -1 entries, from a dynamic programme over the rows of
  monotone triangles.  Its tests hold it to the ASM product formula
  prod_k (3k+1)!/(n+k)! and to the 2-enumeration A_n(2) = 2^(n(n-1)/2)
  (Mills, Robbins and Rumsey).
- theta2(z), the simple transfer-matrix eigenvalue, from its closed form in
  plain rationals.
- The names of the checks that `bethelab verify --suite all --n N` defines.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod


def _interlacing(a, n):
    """Every strictly increasing b with len(a) + 1 entries in range(n) and
    b_1 <= a_1 <= b_2 <= ... <= a_k <= b_(k+1)."""
    k = len(a)
    out = []

    def extend(pos, prev, acc):
        if pos == k + 1:
            out.append(tuple(acc))
            return
        lo = max(prev + 1, a[pos - 1] if pos else 0)
        hi = a[pos] if pos < k else n - 1
        for b in range(lo, hi + 1):
            extend(pos + 1, b, acc + [b])

    extend(0, -1, [])
    return out


def asm_poly(n: int) -> list:
    """Coefficients of A_n(t), ascending in t.

    Row i of an ASM is the difference of the 0/1 column-partial-sum vectors
    after rows i and i - 1; their supports a (i - 1 columns) and b (i
    columns) interlace, and the row holds one -1 for each column of a that
    is not in b.  So A_n(t) sums t^|a \\ b| over chains () -> ... -> all
    columns.
    """
    if n < 1:
        raise ValueError("n must be positive")
    states = {(): [1]}
    for _ in range(n):
        nxt = {}
        for a, poly in states.items():
            for b in _interlacing(a, n):
                shift = len(set(a) - set(b))
                acc = nxt.setdefault(b, [])
                acc.extend([0] * (len(poly) + shift - len(acc)))
                for k, c in enumerate(poly):
                    acc[k + shift] += c
        states = nxt
    coeffs = states[tuple(range(n))]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def asm_count(n: int) -> int:
    """The number of n x n ASMs by the product formula."""
    num = prod(factorial(3 * k + 1) for k in range(n))
    den = prod(factorial(n + k) for k in range(n))
    return num // den


def in_x_squared(t_coeffs) -> list:
    """Coefficients in y = x^(1/2) of A(x^2), given A's coefficients in t:
    t^k becomes x^(2k) = y^(4k)."""
    out = []
    for k, c in enumerate(t_coeffs):
        out.extend([0] * (4 * k - len(out)))
        out.append(c)
    return out


def parse_genpoly(text: str) -> list:
    """Coefficients of a polynomial written like '42+42t+14t^2+t^3'."""
    coeffs = {}
    for term in text.split("+"):
        c, t, power = term.partition("t")
        k = (int(power[1:]) if power else 1) if t else 0
        coeffs[k] = int(c) if c else 1
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def bracket(x: Fraction) -> Fraction:
    return x - 1 / x


def theta2(z: Fraction, q: Fraction, w) -> Fraction:
    """(-1)^(N+1) prod_j [q w_j / z][q^2 z / w_j] with [x] = x - 1/x."""
    acc = Fraction(-1) ** (len(w) + 1)
    for wj in w:
        acc *= bracket(q * wj / z) * bracket(q * q * z / wj)
    return acc


def verify_all_check_names(n: int) -> set:
    """The check names `verify --suite all --n n` reports."""
    names = {f"rmatrix.ybe_{m}{a}{b}"
             for m in (1, 2) for a in (1, 2) for b in (1, 2)}
    names |= {"rmatrix.permutation_point", "rmatrix.rank_one_point",
              "rmatrix.inversion", "rmatrix.crossing",
              "rmatrix.fusion_block", "rmatrix.magnetisation_pattern"}
    names |= {"aba.transfer2_eigenvalue", "aba.transfer1_annihilates",
              "aba.bethe_residuals_zero", "aba.cyclic_shift"}
    names |= {f"aba.exchange_{j}" for j in range(1, n)}
    names |= {f"aba.scattering_{j}" for j in range(1, n + 1)}
    if n >= 3:
        names.add("aba.recurrence")
    if n == 1:
        names.add("aba.bethe_vector_components")
    names |= {"detform.slavnov_vs_operator_oracle",
              "detform.slavnov_reduction_to_ik", "detform.ik_vs_brute",
              "detform.partition_sum_rule",
              "detform.simple_component_" + ("even" if n % 2 == 0
                                             else "odd")}
    names |= {"asm.counts_match_independent_generator", "asm.gen_poly",
              "asm.bijection_roundtrip", "asm.vertex_count_audit"}
    names.add("spinchain.homogeneous_consistency")
    if n >= 2:
        names |= {"spinchain.hamiltonian_annihilates_singlet",
                  "spinchain.twisted_translation_eigenvector",
                  "spinchain.sum_rule_norm_equals_genpoly",
                  "spinchain.normalisation_audit"}
    if 2 <= n <= 3:
        names.add("spinchain.uniqueness_probe_logged")
    return names
