"""The spin-chain bond built from spin matrices: the oracle of the literal
bulk-bond table `spinchain._BOND`.

8 h(x) = H_0 + H_1 x + H_2 x^2 is summed from the real matrices R_1 =
sqrt(2) s^1, R_2 = -i sqrt(2) s^2 and R_3 = s^3 with the dense int
matrix helpers below (see the `spinchain` module docstring for the
factors c_a), and `bulk_table` divides it by 8 into the transition table
of int coefficient lists that `spinchain` writes out by hand.
"""

from itertools import product

from bethelab.spinchain import NonIntegerCoefficient

# R_1, R_2, R_3 on (U, 0, D), 2 c_a and the couplings 2 J_a and 2 A_ab as
# int coefficients in x: 2 J_3 = x^2 - 2, 2 A_13 = 2 A_23 = 2x - 2
SPIN = (((0, 1, 0), (1, 0, 1), (0, 1, 0)),
        ((0, -1, 0), (1, 0, -1), (0, 1, 0)),
        ((1, 0, 0), (0, 0, 0), (0, 0, -1)))
C2 = (1, -1, 2)
J2 = ((2,), (2,), (-2, 0, 1))
A2 = ((J2[0], (2,), (-2, 2)),
      ((2,), J2[1], (-2, 2)),
      ((-2, 2), (-2, 2), J2[2]))


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError(f"inner dimensions differ: {len(a[0])} vs {len(b)}")
    zero = a[0][0] * 0
    return [[sum((x * y for x, y in zip(row, col) if x and y), zero)
             for col in zip(*b)] for row in a]


def mat_add(*ms):
    """Entrywise sum of one or more equally shaped matrices."""
    out = ms[0]
    for m in ms[1:]:
        out = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(out, m)]
    return out


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            out.append([x * y for x in ra for y in rb])
    return out


def bond_gate():
    """[H_0, H_1, H_2], the int 9 x 9 matrices of 8 h(x) = H_0 + H_1 x +
    H_2 x^2 for the bulk bond, indexed by 3 * left + right: each term of
    8 h(x) is an int matrix times an int polynomial."""
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    terms = []
    for a, ra in enumerate(SPIN):
        pair = mat_add(kron(ra, ra), mat_scale(kron(mat_mul(ra, ra), eye), 2))
        terms.append((mat_scale(pair, 2 * C2[a]), J2[a]))
        for b, rb in enumerate(SPIN):
            rab = mat_mul(ra, rb)
            terms.append((mat_scale(kron(rab, rab), -C2[a] * C2[b]),
                          A2[a][b]))
    return [mat_add(*(mat_scale(m, cs[k]) for m, cs in terms if k < len(cs)))
            for k in range(3)]


def bulk_table():
    """The bulk bond's transition table, every weight the ints [c_0, c_1,
    c_2] of h(x) = c_0 + c_1 x + c_2 x^2, each column ascending in (left,
    right) out; NonIntegerCoefficient if 8 h(x) has an entry not divisible
    by 8."""
    hs = bond_gate()
    if any(c % 8 for h in hs for row in h for c in row):
        raise NonIntegerCoefficient("8 h(x) has an entry not divisible by 8")
    pairs = list(product(range(3), repeat=2))
    table = {}
    for li, ri in pairs:
        col = [(lo, ro, [h[3 * lo + ro][3 * li + ri] // 8 for h in hs])
               for lo, ro in pairs]
        table[li, ri] = [(lo, ro, cs) for lo, ro, cs in col if any(cs)]
    return table
