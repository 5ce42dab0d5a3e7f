"""Monodromy matrix, Bethe vectors and twisted transfer matrices.

The monodromy matrix is the ordered product of mixed R-matrices over the
chain,

    T_a(z) = R_{a,N}(z/(q w_N)) ... R_{a,1}(z/(q w_1)),

a 2x2 matrix in the auxiliary spin-1/2 space with operator entries A, B,
C, D.  Operators are never materialised as 3^N x 3^N matrices: one
int-coded kernel applies local tables to a whole sparse vector.  A key is
one int, site k (0-based) at bits 2k + 2, 2k + 3 above the auxiliary
index's bits 0-1 (`_encode`, `_decode`); a two-factor table compiles to
columns at its factors' two bit offsets, keyed by code & mask, so a
transition adds an int (`_columns`); and one loop merges a vector's
image into a dict (`_merge`).  `sweeps` applies rows of R-matrices site
by site, the auxiliary index and site j the two factors of table j,
merging equal partial states after each site.  Sites pair as (1, 2),
(3, 4), ...; a pair whose two tables recur, the same objects at the same
sites in more than one row of a call, is compiled once per call into
fused columns on (aux, site, site), summed over the auxiliary index
between the sites (`_fused`), and one merge carries the vector across
both.  The homogeneous rows fuse: the singlet's n rows of one rho table
and the B chain at w = 1, every table one memoised r12(1/q), each make
ceil(n/2) merges a row.  Fusing pays only where the merges it saves
outweigh its compile, so nothing fuses below five sites, where the
merges are small, and a pair that does not recur keeps its per-site
columns: at distinct w all N^2 tables of the B chain differ.  Keys are
coded once per operator product (a chain of rows, each traced over
signed auxiliary bounds) and decoded once on exit; zeros are dropped at the end of each row; and the last
site or pair of a row emits only the transitions whose auxiliary index
leaves as the bound's a_out: the site part of a column key c and of the
code change delta are multiples of 4, so (c + delta) & 3 is the outgoing
index.  The monodromy entries, the T1 and T2 traces and the singlet's
beta operator in `spinchain` (one row and one bound) differ only in
their tables and auxiliary bounds.  `sweeps` takes the tables as they
are, plain transition tables {(aux, site): [(aux', site', weight),
...]}, and compiles each row itself.  `apply_gates` sums the images of
two-site gates on the same coding, with the auxiliary bits left clear,
and drops the zeros before it decodes: the Hamiltonian's N bonds in
`spinchain`, whose image of the singlet decodes nothing.  A single gate
(`apply_two_site`) patches tuple keys instead, since for one gate the
coding costs more than it saves.

ModelParams is the one parameter object: N, a rational q and w, with
the ring Q(s, i) of d = [q][q^2] (`field.session_constant`, which checks
q), its units s and i, and the memo of transition tables that it shares
with every ModelParams `with_w` derives from it.  The memo is keyed by
the table's kind and the reduced int pair (a, b), b > 0, of its argument
a / b, formed from the int ratios of z, q and w, and a table is built by
`rmatrix.r12_at` or `r22_at` from that pair and q's: no rational is
built, hashed or compared on the way.  The identity checks of `rmatrix`
take q itself.

The model's vectors (ModelVector) live on plain ints: every value the
model computes is one rational times one of the units 1, s, i, s i, so a
vector is one unit (its grade) times ints over one common denominator.
Every operator here has rational weights stored as ints over one
denominator, so it maps the ints and its denominator joins the vector's.
The mixed R-matrix is rational in the gauge K = diag(1, s) on its
auxiliary factor, in which `rmatrix.r12` returns it (see that module), and
in which the entries read A, B/s, s C and D.  Rescaling by a rational
times a unit multiplies numerators and denominator and moves the grade;
Scalars are built only to read a value out.

With twist angle pi the transfer matrices are

    T1(z) = i (A(z) - D(z)),
    T2(z) = tr_a( diag(-1, 1, -1) R22_{a,N}(z/w_N) ... R22_{a,1}(z/w_1) ),

and the explicit Bethe roots z_k = w_k make the state prod_j B(w_j)|all-up>
an exact eigenvector: T1 annihilates it and T2 has eigenvalue

    theta2(z) = -d(z) a(q z),

with a(z) = prod_j [q z / w_j] and d(z) = prod_j [z / (q w_j)] the
eigenvalues of A and D on |all-up>.  The roots solve the Bethe equations,
checked cleared of division, so that they are defined for every w:

    a(z_k) prod_{j!=k} [z_k / (q z_j)] + d(z_k) prod_{j!=k} [q z_k / z_j] = 0.

The renormalised vector divides out the common factor
([q][q^2])^(N/2) prod_{j<k} [q w_j / w_k]; its components are rational
centred Laurent polynomials of degree width at most 2(N-1) in each w_j,
and it satisfies exchange, cyclic-shift, recurrence and asymptotic
relations that are verified here exactly.

Parity lemma: every power of w_j in a component psi~_sigma has the parity
of N - 1 + [sigma_j != 0].  Proof, for the lattice of the B(w_k) rows and
site columns whose weights sum to psi_sigma:

1. Only row j (B(w_j), u = w_j/(q w_l)) and column j (site j, u =
   w_k/(q w_j)) depend on w_j, and not at their crossing, where u = 1/q.
   There a weight that keeps the auxiliary spin is a bracket [c w_j^+-1],
   odd in w_j, and a gauged flip is 1 or [q][q^2], even.
2. A flip toggles the auxiliary spin and moves the site spin one step.
   B(w_j) takes the auxiliary from down to up, so row j holds an odd
   number of flips; site j goes from U to sigma_j, so column j holds
   [sigma_j = 0] flips mod 2.  The crossing counts in both, so the
   2(N - 1) vertices off it hold 1 + [sigma_j = 0] flips and [sigma_j !=
   0] odd brackets mod 2: psi_sigma has parity [sigma_j != 0] in w_j.
3. The divisor holds N - 1 odd brackets in w_j, [q w_j/w_k] or [q w_k/
   w_j], so psi~_sigma(-w_j) = (-1)^(N - 1 + [sigma_j != 0])
   psi~_sigma(w_j).

So a component is w_j^lo times a polynomial in w_j^2, and positive
samples of w_j interpolate it in w_j^2 (the tests' Laurent oracle).

Asymptotic lemma: psi~ / w_j^(N-1) tends, as w_j runs to infinity, to
one B-chain sweep over one scalar, and likewise psi~ w_j^(N-1) as w_j
runs to 0 (`leading_coefficient`).  Proof, on the same lattice, for
infinity; 0 swaps the two leading monomials:

1. Off the crossing, a vertex of row j or column j is a flip, of degree
   0 in w_j, or a bracket [c u] with c = q^2, q or 1: u = w_j/(q w_l), of
   degree +1, in row j and u = w_k/(q w_j), of degree -1, in column j.
   So psi_sigma has degree at most 2N - 2 in w_j; its coefficient there
   sums the configurations whose 2N - 2 vertices are all brackets, each
   replaced by its w_j^+1 monomial: c u in row j and -1/(c u) in column
   j (`rmatrix.r12_leading`).  That is the same sweep with those tables,
   diagonal now, and the crossing keeps r12(1/q).
2. The divisor is s times the (N-1)-site one without w_j times the N - 1
   brackets of w_j, [q w_j/w_k] for k > j and [q w_k/w_j] for k < j, so
   its top term replaces those by q w_j/w_k and -w_j/(q w_k): it is
   nonzero, of degree N - 1.
3. So psi~ / w_j^(N-1) tends to the ratio of the two top coefficients.
   The limit needs no divisibility of psi by the divisor; where psi~ is
   a Laurent polynomial in w_j (the tests' oracle interpolates it as
   one), the limit is its coefficient of w_j^(N-1).

Regularity lemma: T2(w_j) = [q][q^2] S_j as operators, with

    S_j = Rhat_{j-1,j}(w_j/w_{j-1}) ... Rhat_{1,2}(w_j/w_1) S'
          Rhat_{N-1,N}(w_j/w_N) ... Rhat_{j,j+1}(w_j/w_{j+1}),

Rhat_{k,k+1}(u) = P_{k,k+1} R22_{k,k+1}(u) and S' = S Omega_N
(`scattering_apply`).  Proof, writing R_{xk} for R22_{x,k}(w_j/w_k), x
its left factor, and P_{xy} for the swap of factors x and y, so that
P_{xy} X P_{xy} is X with x and y relabelled:

1. R_{aj} = R22(1) = [q][q^2] P_{aj} (`rmatrix.permutation_check`), so
   T2(w_j) = [q][q^2] tr_a(Omega_a R_{aN} ... R_{a,j+1} P_{aj} R_{a,j-1}
   ... R_{a1}).
2. Carried to the left, P_{aj} relabels a as j in what it passes: R_{ak}
   P_{aj} = P_{aj} R_{jk} and Omega_a P_{aj} = P_{aj} Omega_j.  So T2(w_j)
   is [q][q^2] tr_a(P_{aj} X Y), with X = Omega_j R_{jN} ... R_{j,j+1}
   on sites j..N and Y = R_{a,j-1} ... R_{a1} on a and sites 1..j-1.
3. tr_a(P_{aj} A_a B_j) = A_j B_j for one-site A and B (expand P_{aj} =
   sum_kl E^kl_a E^lk_j), so by linearity tr_a(P_{aj} X Y) is Y with a
   relabelled j, times X: T2(w_j) = [q][q^2] R_{j,j-1} ... R_{j1} Omega_j
   R_{jN} ... R_{j,j+1}.
4. Follow the content of each site through S_j.  The gates right of S'
   meet site j's content on their left factor and sites j+1, ..., N on
   their right, so they apply R_{j,j+1}, ..., R_{jN} and carry j's
   content to site N, which Omega_N meets and S takes to site 1.  The
   gates left of S' then apply R_{j1}, ..., R_{j,j-1} and carry it back
   to site j.  Every other content moves one step left (sites j+1..N,
   by the right gates) or right (sites 1..j-1, by S) and back, so S_j is
   the product of step 3 with no permutation left over.
"""

from __future__ import annotations

from math import gcd, prod

from bethelab.field import (
    RAT,
    PoleEncountered,
    Scalar,
    SessionMismatch,
    as_rat,
    brk,
    brk_leading,
    brk_ratio,
    rat_str,
    session_constant,
)
from bethelab.linalg import DimensionMismatch, StateVector, state_str
from bethelab.rmatrix import (
    DOWN,
    UP,
    ZERO,
    r12_at,
    r12_leading,
    r22_at,
    singlet_pair_vector,
)


class RedundantFactorZero(PoleEncountered):
    """A factor [q w_j / w_k] of the common divisor vanishes
    (inhomogeneities sit on the singular lattice q * w_k)."""


class IrrationalComponent(ArithmeticError):
    """A renormalised component kept an s- or i-part (bug guard)."""


class IrrationalWeight(ArithmeticError):
    """A spectral parameter with an s- or i-part."""


OMEGA = (-1, 1, -1)  # the diagonal twist at angle pi on (U, 0, D)


def magnetisation(key) -> int:
    """#up - #down for a spin string with codes U=0, 0=1, D=2."""
    return len(key) - sum(key)


def distinguished_component_key(n: int):
    """U^(n/2) D^(n/2), with a 0 between the halves for odd n."""
    return (UP,) * (n // 2) + (ZERO,) * (n % 2) + (DOWN,) * (n // 2)


class ModelVector:
    """A state of the model on plain ints: u_grade part / den, with part
    a StateVector of ints and u_grade one of the units 1, s, i, s i
    (grade 0..3, as for a Scalar), in lowest terms: equal vectors have
    equal part, den and grade, and the zero vector has den 1 and grade 0.
    Every value the model computes is homogeneous, so one grade serves a
    whole vector."""

    __slots__ = ("n", "d", "den", "part", "grade", "_entries")

    def __init__(self, d, den: int, part: StateVector, grade: int = 0):
        common = gcd(den, *part.entries.values())
        if common > 1:
            part = StateVector(part.n, {k: x // common
                                        for k, x in part.entries.items()})
        self.n, self.d, self.den, self.part = part.n, d, den // common, part
        self.grade, self._entries = grade if part else 0, None

    @property
    def entries(self) -> dict:
        """{key: Scalar} of the nonzero components, built on first use."""
        if self._entries is None:
            self._entries = {key: Scalar(RAT(x, self.den), self.grade, self.d)
                             for key, x in self.part.entries.items()}
        return self._entries

    def is_zero(self) -> bool:
        return not self.part

    def rational(self) -> StateVector:
        """The numerators of a vector whose values are all rational."""
        if self.grade:
            raise IrrationalComponent("a component has an s- or i-part")
        return self.part

    def map(self, fn, den: int = 1) -> "ModelVector":
        """The image under an operator with rational weights: fn takes the
        int part to its image times den."""
        return ModelVector(self.d, self.den * den, fn(self.part), self.grade)

    def scale(self, c) -> "ModelVector":
        """c times the vector, c an int, rational or Scalar: the vector's
        unit times c, a Scalar r u_h, takes the numerators to r and the
        grade to h."""
        c = Scalar(RAT(1), self.grade, self.d) * c
        return ModelVector(self.d, self.den * c.r.denominator,
                           self.part.scale(c.r.numerator), c.g)

    def __eq__(self, other):
        if not isinstance(other, ModelVector):
            return NotImplemented
        return ((self.d, self.den, self.grade, self.part)
                == (other.d, other.den, other.grade, other.part))

    def to_json_dict(self, params: "ModelParams") -> dict:
        comps = [{"state": state_str(k), "value": v.to_json_dict()}
                 for k, v in sorted(self.entries.items())]
        return {**params.to_json_dict(), "twist": "pi", "components": comps}


def _check_model(v: ModelVector, n: int, d):
    if not isinstance(v, ModelVector):
        raise TypeError(f"expected a ModelVector, got {type(v).__name__}")
    if v.n != n:
        raise DimensionMismatch(f"vector has {v.n} sites, model {n}")
    if v.d != d:
        raise SessionMismatch(f"session constants differ: {v.d} vs {d}")


def basis_vector(params: "ModelParams", key) -> ModelVector:
    """The basis state |key> of the model."""
    return ModelVector(params.d, 1, StateVector(params.n, {tuple(key): 1}))


def _memo(store: dict, key, build):
    """store[key], built by build() on first use."""
    value = store.get(key)
    if value is None:
        value = store[key] = build()
    return value


class ModelParams:
    """The paper's parameters: chain size N, a rational anisotropy q and
    the inhomogeneities w (the twist is OMEGA, at angle pi), with the ring
    Q(s, i) of the model's values: d = [q][q^2] (`field.session_constant`,
    whose ValueError rejects q = 0 and q^4 = 1), the units s and i, `sc`
    and `rat`.

    `memo` holds the vectors built for these parameters; the transition
    tables are memoised once for these parameters and every ModelParams
    that `with_w` derives from them, keyed by their kind and the reduced
    int pair (a, b) of their argument a / b (b > 0), which the callers
    form from the int ratios of z, q and w (`_over`) with no rational
    product, quotient or hash.
    """

    def __init__(self, n: int, q, w):
        if n < 1:
            raise ValueError("n must be at least 1")
        w = tuple(as_rat(x) for x in w)
        if len(w) != n:
            raise ValueError("need exactly n inhomogeneities")
        if any(x == 0 for x in w):
            raise ValueError("inhomogeneities must be nonzero")
        self.n, self.q, self.w = n, as_rat(q), w
        self.d = session_constant(self.q)
        # the int pairs of q, of each w_j and of each q w_j (`_over`)
        self._q = p, r = self.q.as_integer_ratio()
        self._w = [x.as_integer_ratio() for x in w]
        self._qw = [(p * a, r * b) for a, b in self._w]
        self.s = Scalar(RAT(1), 1, self.d)
        self.i = Scalar(RAT(1), 2, self.d)
        self._vectors, self._tables = {}, {}

    def with_w(self, w) -> "ModelParams":
        """These parameters at the inhomogeneities w, sharing the table
        memo."""
        w = tuple(w)
        other = ModelParams(len(w), self.q, w)
        other._tables = self._tables
        return other

    def memo(self, key, build):
        """These parameters' memo of build(), keyed by key."""
        return _memo(self._vectors, key, build)

    def sc(self, r) -> Scalar:
        return Scalar(as_rat(r), 0, self.d)

    def rat(self, z) -> RAT:
        """The spectral parameter z (an int, "p/q", a rational or a Scalar
        of this ring: SessionMismatch for another ring's, IrrationalWeight
        for one with an s- or i-part) as a rational."""
        if not isinstance(z, Scalar):
            return as_rat(z)
        if z.d != self.d:
            raise SessionMismatch(
                f"session constants differ: {z.d} vs {self.d}")
        if z.g:
            raise IrrationalWeight(f"spectral parameter {z!r} is not rational")
        return z.r

    def to_json_dict(self) -> dict:
        return {"n": self.n, "q": rat_str(self.q),
                "w": [rat_str(x) for x in self.w]}

    def _table(self, kind: str, u: tuple, build):
        """The table memo's build(), keyed by kind and the int pair u."""
        return _memo(self._tables, (kind, *u), build)

    def r12_table(self, u: tuple):
        """(table, D): the transition table of r12 at a / b, u = (a, b)
        reduced with b > 0, in the gauge K = diag(1, s) on the auxiliary
        factor, as ints over one denominator D."""
        return self._table("r12", u, lambda: _int_table(r12_at(u, self._q)))

    def r22_table(self, u: tuple):
        """(table, D) for r22 at a / b, u = (a, b) reduced with b > 0, as
        ints over one denominator D."""
        return self._table("r22", u, lambda: _int_table(r22_at(u, self._q)))


def _over(z: tuple, divisors) -> list:
    """z / c for z = (a, b) and each nonzero int pair c of divisors, as
    reduced int pairs with a positive denominator: the table memo's
    keys."""
    a, b = z
    return [_ratio(a * y, b * x) for x, y in divisors]


def _ratio(a: int, b: int) -> tuple:
    """a / b, b nonzero, as its reduced int pair with a positive
    denominator."""
    g = gcd(a, b)
    return (a // g, b // g) if b > 0 else (-a // g, -b // g)


def _int_table(rmat):
    """(table, D): the transition table of rmat, ints over D = rmat.den."""
    return rmat.column_map(), rmat.den


def vacuum(params: ModelParams) -> ModelVector:
    """Reference state |all-up>, annihilated by C(z)."""
    return basis_vector(params, (UP,) * params.n)


def vacuum_pair(z, k: int, params: ModelParams) -> tuple:
    """prod_j [q^k z / w_j] as an unreduced int pair (num, den): the
    eigenvalue a(z) of A(z) on the reference state for k = 1, d(z) of D(z)
    for k = -1, and a(q z) for k = 2."""
    p, r = params.q.as_integer_ratio()
    c = (p ** k, r ** k) if k >= 0 else (r ** -k, p ** -k)
    z = params.rat(z)
    num = den = 1
    for w in params.w:
        x, y = brk_ratio(z, w, c)
        num, den = num * x, den * y
    return num, den


_AUX = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}  # (a_in, a_out)


def _encode(v: StateVector) -> dict:
    """v's entries keyed by int codes: site k (0-based) at bits 2k + 2,
    2k + 3, above the auxiliary index's bits 0-1, here clear."""
    return {sum(s << 2 * k for k, s in enumerate(key)) << 2: amp
            for key, amp in v.entries.items()}


def _decode(n: int, codes: dict) -> StateVector:
    """The n-site StateVector of {code: amp}, aux bits clear."""
    shifts = range(2, 2 * n + 2, 2)
    return StateVector(n, {tuple(code >> s & 3 for s in shifts): x
                           for code, x in codes.items()})


def _columns(table, lo: int, hi: int):
    """(cols, mask): a two-factor transition table {(x, y): [(x', y',
    weight), ...]} as columns on codes holding x at bits lo, lo + 1 and y
    at bits hi, hi + 1, {code & mask: [(delta, weight), ...]}, delta the
    change of the code; a code outside 0..3 raises ValueError."""
    cols, codes = {}, 0
    for (x, y), col in table.items():
        codes |= x | y
        cols[x << lo | y << hi] = pairs = []
        for xo, yo, w in col:
            codes |= xo | yo
            pairs.append(((xo - x << lo) + (yo - y << hi), w))
    if not 0 <= codes < 4:  # the or of ints in 0..3 stays in 0..3
        raise ValueError(f"a table code is not in 0..3: {table!r}")
    return cols, 3 << lo | 3 << hi


def _merge(cur: dict, cols: dict, mask: int, out: dict):
    """Add the image of cur {code: amp} under compiled columns into out,
    merging equal codes."""
    for code, val in cur.items():
        for delta, wgt in cols[code & mask]:
            nk = code + delta
            nv = val * wgt
            acc = out.get(nk)
            out[nk] = nv if acc is None else acc + nv


# Recurring pairs fuse from five sites on: timed, the n-row singlet sweep
# and the B chain at w = 1 are faster fused at n = 5 and slower at n = 4.
_FUSE_FROM_SITES = 5


def _fused(first, second, lo: int):
    """(cols, mask): the tables of the sites at bits lo and lo + 2 as one
    set of columns on (aux, site, site), summed over the auxiliary index
    between them and built from their `_columns`, so a code outside 0..3
    still raises ValueError.  Weights that cancel are dropped, and a
    column whose weights all cancel stays, empty."""
    one, mask = _columns(first, 0, lo)
    two, high = _columns(second, 0, lo + 2)
    cols, sites = {}, {c & ~3 for c in two}
    for c, col in one.items():
        for s in sites:
            acc = {}
            for d1, w1 in col:
                for d2, w2 in two[(c + d1) & 3 | s]:
                    w, x = w1 * w2, acc.get(d1 + d2)
                    acc[d1 + d2] = w if x is None else x + w
            cols[c | s] = [(d, w) for d, w in acc.items() if w]
    return cols, mask | high


def sweeps(rows, v: StateVector, bounds) -> StateVector:
    """Apply rows of transition tables to v in turn, replacing v at each
    row by the sum of sign times the row's image with the auxiliary index
    entering as a_in and leaving as a_out, over the (a_in, a_out, sign) of
    bounds.  Table j - 1 of a row, {(aux, site): [(aux', site', weight),
    ...]}, acts on the auxiliary index and site j, its two factors, and is
    compiled once per row (`_columns`).  Sites pair as (1, 2), (3, 4),
    ...: on five sites or more, a pair whose two tables, the same objects,
    recur at its sites in another row of the call is compiled once per
    call into fused columns (`_fused`), so the vector moves across both
    sites in one merge.  Elsewhere fusing would cost more to compile than
    the merges save, so a pair found in one row only, or on fewer than
    five sites, keeps its two per-site columns: a single row (T1, T2) and
    the B chain at distinct w fuse nothing, the singlet's rows of one
    table and the B chain at w = 1 every pair.  Rows are sequences of
    tables.  v's keys are coded once on entry (`_encode`) and decoded once
    on exit, so a transition adds an int; between rows the auxiliary bits
    are clear.  Equal partial states merge after each site or pair; zeros
    are dropped at the end of each row.  A table or auxiliary code outside
    0..3 raises ValueError."""
    if not all(0 <= a_in | a_out < 4 for a_in, a_out, _ in bounds):
        raise ValueError(f"auxiliary codes not in 0..3: {bounds!r}")
    rows, recur, fused = list(rows), set(), {}
    if len(rows) > 1 and v.n >= _FUSE_FROM_SITES:
        seen = set()  # not a Counter, whose first call costs about 60 us
        for t in rows:
            for j in range(1, len(t), 2):
                key = j, id(t[j - 1]), id(t[j])
                (recur if key in seen else seen).add(key)
    cur = _encode(v)
    for tables in rows:
        # nothing recurs (T1, T2, the B chain at distinct w): per-site
        # columns here, since `_fused_row`'s per-pair loop costs more
        row = (_fused_row(tables, recur, fused) if recur else
               [_columns(t, 0, 2 * j) for j, t in enumerate(tables, 1)])
        out = {}
        for a_in, a_out, sign in bounds:
            _sweep_row(row, cur, a_in, a_out, sign, out)
        cur = {code: x for code, x in out.items() if x}
    return _decode(v.n, cur)


def _fused_row(tables, recur, fused) -> list:
    """One row compiled: each site pair (j, j + 1) whose key (j, id, id)
    is in recur as fused columns, built once per call into fused, and
    every other site as its own columns."""
    row = []
    for j in range(1, len(tables) + 1, 2):
        pair = tables[j - 1:j + 1]
        key = (j, *map(id, pair))
        if key in recur:
            row.append(_memo(fused, key, lambda: _fused(*pair, 2 * j)))
        else:
            row += [_columns(t, 0, 2 * i) for i, t in enumerate(pair, j)]
    return row


def _sweep_row(row, cur: dict, a_in: int, a_out: int, sign: int, out: dict):
    """Add sign times the image of cur {code: amp} under one compiled row,
    entering as a_in and leaving as a_out, into out; codes in and out have
    their aux bits clear.  The first site's deltas add a_in, and the last
    site emits only the transitions that leave as a_out: its column key c
    holds aux in bits 0-1 and the site part of a delta is a multiple of 4,
    so (c + delta) & 3 is the outgoing aux, which delta - a_out clears."""
    (cols, mask), *rest = row
    row = [({c ^ a_in: [(delta + a_in, wgt) for delta, wgt in col]
             for c, col in cols.items() if c & 3 == a_in}, mask), *rest]
    cols, mask = row[-1]
    row[-1] = ({c: [(delta - a_out, sign * wgt) for delta, wgt in col
                    if (c + delta) & 3 == a_out]
                for c, col in cols.items()}, mask)
    for j, (cols, mask) in enumerate(row):
        nxt = out if j == len(row) - 1 else {}
        _merge(cur, cols, mask, nxt)
        cur = nxt


def apply_gates(v: StateVector, gates) -> StateVector:
    """The sum of the images of v under the two-site gates (table, i, j)
    of gates, table a transition table {(left, right): [(left', right',
    weight), ...]} on site positions i, j (0-based, i the left factor), in
    one pass on v's int codes: each gate is compiled at its two sites
    (`_columns`) and merges its image into one dict, whose zeros are
    dropped before `_decode`, as `sweeps` drops them at the end of a row.
    Every gate's sites must be two distinct sites of v, else ValueError
    before any work."""
    for _, i, j in gates:
        _check_sites(v.n, i, j)
    cur, out = _encode(v), {}
    for table, i, j in gates:
        _merge(cur, *_columns(table, 2 * i + 2, 2 * j + 2), out)
    return _decode(v.n, {code: x for code, x in out.items() if x})


def _signed_sweeps(rows, v: ModelVector, params: ModelParams, bounds):
    """`sweeps` of rows of (table, D) pairs over v's ints: the tables are
    rational, so v's denominator gains the product of every D."""
    _check_model(v, params.n, params.d)
    tables = [[t for t, _ in row] for row in rows]
    return v.map(lambda part: sweeps(tables, part, bounds),
                 prod(d_j for row in rows for _, d_j in row))


def _monodromy_rows(z, params: ModelParams) -> list:
    """The row of gauged r12 tables of z, or of each z of a list."""
    zs = [params.rat(x) for x in (z if isinstance(z, list) else [z])]
    return [[params.r12_table(u) for u in _over(x.as_integer_ratio(),
                                                 params._qw)] for x in zs]


def monodromy_apply(which: str, z, params: ModelParams, v: ModelVector):
    """Apply a monodromy entry A, B, C or D at spectral parameter z; for a
    list z = [z_1, ..., z_k], apply the product which(z_k) ... which(z_1)
    in one pass over v's ints.

    One sweep over sites 1..N contracting the two-dimensional auxiliary
    space exactly; B lowers the magnetisation by one, C raises it.  Undoing
    the gauge of `r12_table` multiplies each B by s and each C by 1/s.
    """
    if which not in _AUX:
        raise ValueError("which must be one of A, B, C, D")
    rows = _monodromy_rows(z, params)
    a_in, a_out = _AUX[which]
    out = _signed_sweeps(rows, v, params, [(a_in, a_out, 1)])
    k = len(rows) * (a_in - a_out)
    return out.scale(params.s ** k) if k else out


def bethe_vector(params: ModelParams) -> ModelVector:
    """prod_{j=1..N} B(w_j) |all-up>: the eigenvector at the explicit
    Bethe roots z_k = w_k; lives in the zero-magnetisation sector."""
    return params.memo("bethe", lambda: monodromy_apply(
        "B", list(params.w), params, vacuum(params)))


def transfer1_apply(z, params: ModelParams, v: ModelVector) -> ModelVector:
    """Twisted six-vertex-auxiliary transfer matrix i(A - D), as one
    signed trace of the monodromy row."""
    out = _signed_sweeps(_monodromy_rows(z, params), v, params,
                         [(0, 0, 1), (1, 1, -1)])
    return out.scale(params.i)


def transfer2_apply(z, params: ModelParams, v: ModelVector) -> ModelVector:
    """Nineteen-vertex transfer matrix with the diagonal twist
    Omega = diag(-1, 1, -1)."""
    tables = [params.r22_table(u) for u in _over(
        params.rat(z).as_integer_ratio(), params._w)]
    return _signed_sweeps([tables], v, params,
                          [(a0, a0, sign) for a0, sign in enumerate(OMEGA)])


def theta2(z, params: ModelParams) -> RAT:
    """The simple eigenvalue -d(z) a(q z)."""
    (dn, dd), (an, ad) = vacuum_pair(z, -1, params), vacuum_pair(z, 2, params)
    return RAT(-dn * an, dd * ad)


def bethe_equations_residual(roots, params: ModelParams):
    """Each Bethe equation at the given roots (n = N roots) in cleared form,
    a(z_k) prod_{j!=k} [z_k/(q z_j)] + d(z_k) prod_{j!=k} [q z_k/z_j]; the
    sign is the twist's e^{-i pi} = -1.  Each is summed on int pairs."""
    zs = [params.rat(z) for z in roots]
    q = params.q.as_integer_ratio()
    residuals = []
    for k, zk in enumerate(zs):
        (an, ad), (dn, dd) = vacuum_pair(zk, 1, params), vacuum_pair(
            zk, -1, params)
        for z in zs[:k] + zs[k + 1:]:
            (x, y), (u, v) = brk_ratio(zk, z, q[::-1]), brk_ratio(zk, z, q)
            an, ad, dn, dd = an * x, ad * y, dn * u, dd * v
        residuals.append(params.sc(RAT(an * dd + dn * ad, ad * dd)))
    return residuals


def renorm_divisor(params: ModelParams) -> Scalar:
    """([q][q^2])^(N/2) prod_{j<k} [q w_j / w_k] as an exact scalar; for
    odd N the half-integer power is s^N = ([q][q^2])^((N-1)/2) s."""
    n, w, q = params.n, params.w, params.q.as_integer_ratio()
    num, den = params.d.numerator ** (n // 2), params.d.denominator ** (n // 2)
    for j in range(n):
        for k in range(j + 1, n):
            x, y = brk_ratio(w[j], w[k], q)
            if not x:
                raise RedundantFactorZero(
                    f"[q w_{j + 1}/w_{k + 1}] = 0: w on the singular lattice")
            num, den = num * x, den * y
    return Scalar(RAT(num, den), n % 2, params.d)


def renormalised_vector(params: ModelParams) -> ModelVector:
    """Bethe vector divided by its redundant overall factor; components
    are rational (s- and i-free), which is checked."""
    def build():
        v = bethe_vector(params).scale(renorm_divisor(params).inv())
        v.rational()
        return v

    return params.memo("renorm", build)


# -- local gates and the twisted shift ---------------------------------


def _check_sites(n: int, i: int, j: int):
    """ValueError unless i, j are two distinct sites 0..n-1."""
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"gate sites {i}, {j} are not two sites of {n}")


def apply_two_site(colmap: dict, v: StateVector, i: int,
                   j: int) -> StateVector:
    """Apply a two-site gate (column transition table) on site positions
    i, j (0-based, i is the gate's left factor): two distinct sites of v,
    else ValueError.  One gate patches tuple keys instead of coding them
    as `apply_gates` does, since coding and decoding every key costs more
    than the gate: four rhat22 gates on the N = 5 renormalised vector take
    about twice as long through the int coding (2-core x86_64, CPython
    3.11)."""
    _check_sites(v.n, i, j)
    out = {}
    for key, amp in v.entries.items():
        for ao, bo, wgt in colmap[(key[i], key[j])]:
            nk = list(key)
            nk[i] = ao
            nk[j] = bo
            nk = tuple(nk)
            nv = amp * wgt
            acc = out.get(nk)
            out[nk] = nv if acc is None else acc + nv
    return StateVector(v.n, out)


def rhat22_table(u: tuple, params: ModelParams):
    """(table, D): the transition table of the braided nineteen-vertex
    matrix P R(a / b), u = (a, b) reduced with b > 0, as ints over one
    denominator D."""
    return params._table(
        "rhat22", u, lambda: _int_table(r22_at(u, params._q).braided()))


def rhat22_apply(u, params, v: ModelVector, i: int, j: int) -> ModelVector:
    """P R(u) on site positions i, j of v (0-based, i the left factor)."""
    _check_model(v, params.n, params.d)
    table, den = rhat22_table(params.rat(u).as_integer_ratio(), params)
    return v.map(lambda part: apply_two_site(table, part, i, j), den)


def s_prime_apply(v: StateVector) -> StateVector:
    """Twisted translation S' = S Omega_N: apply Omega on the last site,
    then shift every site one step to the right (site N wraps to 1)."""
    out = {}
    for key, amp in v.entries.items():
        if OMEGA[key[-1]] == -1:
            amp = -amp
        out[(key[-1],) + key[:-1]] = amp
    return StateVector(v.n, out)


def singlet_pair_tensor(v: StateVector) -> StateVector:
    """|s> (x) v, the pair state |s> of `rmatrix` on two new sites."""
    return StateVector(v.n + 2, {
        pair + key: c * amp for pair, c in singlet_pair_vector().items()
        for key, amp in v.entries.items()})


# -- exchange / cyclic / recurrence / asymptotics ----------------------


def exchange_check(j: int, params: ModelParams) -> bool:
    """Rhat_{j,j+1}(w_j/w_{j+1}) |psi~(..., w_j, w_{j+1}, ...)>
       = [q w_{j+1}/w_j][q^2 w_j/w_{j+1}] |psi~(..., w_{j+1}, w_j, ...)>."""
    if not 1 <= j < params.n:
        raise ValueError("need 1 <= j < N")
    w, q = params.w, params.q
    lhs = rhat22_apply(w[j - 1] / w[j], params,
                       renormalised_vector(params), j - 1, j)
    swapped = list(w)
    swapped[j - 1], swapped[j] = swapped[j], swapped[j - 1]
    factor = brk(q * w[j] / w[j - 1]) * brk(q * q * w[j - 1] / w[j])
    rhs = renormalised_vector(params.with_w(swapped)).scale(factor)
    return lhs == rhs


def cyclic_check(params: ModelParams) -> bool:
    """S' |psi~(w_1, ..., w_N)> = (-1)^(N+1) |psi~(w_N, w_1, ..., w_{N-1})>."""
    lhs = renormalised_vector(params).map(s_prime_apply)
    rotated = (params.w[-1],) + params.w[:-1]
    rhs = renormalised_vector(params.with_w(rotated))
    if params.n % 2 == 0:
        rhs = rhs.scale(-1)
    return lhs == rhs


def recurrence_check(params: ModelParams) -> bool:
    """Specialising w_2 = w_1/q factorises the vector through |s> on the
    first two sites times the (N-2)-site vector:

    |psi~(w_1, w_1/q, w_3, ...)> = (-1)^N [q]
        prod_{j>=3} [q w_1/w_j][q^2 w_j/w_1]  |s> (x) |psi~(w_3, ...)>.
    """
    if params.n < 3:
        raise ValueError("recurrence needs N >= 3")
    w = params.w
    pinned = (w[0], w[0] / params.q) + w[2:]
    lhs = renormalised_vector(params.with_w(pinned))
    sub = params.with_w(w[2:])
    factor = -brk(params.q) * theta2(w[0] / params.q, sub)
    return lhs == renormalised_vector(sub).map(
        singlet_pair_tensor).scale(factor)


def leading_coefficient(j: int, to_inf: bool,
                        params: ModelParams) -> ModelVector:
    """The coefficient of |psi~> at w_j^(N-1) (to_inf) or at w_j^-(N-1)
    (asymptotic lemma, module docstring): the B chain whose row j and
    column j take the leading parts of r12 off their crossing, over the
    divisor's leading term, divided by w_j^(N-1) or by w_j^-(N-1).  j
    must lie in 1..N, and N be at least 2."""
    n, q, w = params.n, params.q, params.w
    if not 1 <= j <= n:
        raise ValueError("site index out of range")
    if n < 2:
        raise ValueError("need N >= 2")

    def table(row: int, site: int, u: tuple):
        """B(w_row) at site `site`: u = w_row / (q w_site) has degree
        [row = j] - [site = j] in w_j."""
        if (row == j) == (site == j):
            return params.r12_table(u)
        return _int_table(r12_leading(RAT(*u), q, to_inf == (row == j)))

    def bracket(a: int, b: int) -> RAT:
        """The leading monomial of the divisor's [q w_a / w_b], a < b."""
        return brk_leading(q * w[a - 1] / w[b - 1], to_inf == (a == j))

    sites = range(1, n + 1)
    rows = [[table(row, site, u) for site, u in zip(
        sites, _over(params._w[row - 1], params._qw))] for row in sites]
    psi = _signed_sweeps(rows, vacuum(params), params, [(1, 0, 1)])
    # the divisor is s times the one without w_j times the brackets of w_j
    divisor = params.s * renorm_divisor(params.with_w(w[:j - 1] + w[j:]))
    divisor = divisor * prod(bracket(*sorted((j, k)))
                             for k in sites if k != j)
    power = w[j - 1] ** (n - 1)
    # s^N undoes the gauge of the N B rows, as in `monodromy_apply`
    return psi.scale(params.s ** n * divisor.inv()
                     * (1 / power if to_inf else power))


def asymptotic_check(j: int, direction: str, params: ModelParams) -> bool:
    """Leading Laurent coefficient of |psi~> in w_j (`leading_coefficient`)
    against the (N-1)-site vector with a 0 inserted at site j: at order
    w_j^(N-1) (direction 'inf') it is (-1)^(N-j) prod_{k != j} w_k^(-1)
    times the reduced vector; at order w_j^-(N-1) (direction 'zero') it
    is (-1)^(j-1) prod_{k != j} w_k times it.  The nonzero coefficients
    are compared as one dict, so a component missing on either side fails.
    """
    if direction not in ("inf", "zero"):
        raise ValueError("direction must be 'inf' or 'zero'")
    to_inf = direction == "inf"
    got = leading_coefficient(j, to_inf, params)  # checks j and N
    n = params.n
    others = params.w[:j - 1] + params.w[j:]
    sub = params.memo(("reduced", j),
                      lambda: renormalised_vector(params.with_w(others)))
    factor = prod((1 / w if to_inf else w for w in others),
                  start=RAT((-1) ** (n - j if to_inf else j - 1)))
    want = sub.map(lambda part: StateVector(n, {
        key[:j - 1] + (ZERO,) + key[j - 1:]: x
        for key, x in part.entries.items()})).scale(factor)
    return got == want


def scattering_apply(j: int, params: ModelParams,
                     v: ModelVector) -> ModelVector:
    """S_j v = Rhat_{j-1,j}(w_j/w_{j-1}) ... Rhat_{1,2}(w_j/w_1) S'
    Rhat_{N-1,N}(w_j/w_N) ... Rhat_{j,j+1}(w_j/w_{j+1}) v, by two-site
    gates; [q][q^2] S_j is T2(w_j) (regularity lemma, module docstring).
    j must lie in 1..N."""
    _check_model(v, params.n, params.d)
    if not 1 <= j <= params.n:
        raise ValueError("site index out of range")
    wj = params.w[j - 1]
    for k in range(j, params.n):  # Rhat_{k,k+1}(w_j / w_{k+1}), ascending k
        v = rhat22_apply(wj / params.w[k], params, v, k - 1, k)
    v = v.map(s_prime_apply)
    for k in range(1, j):
        v = rhat22_apply(wj / params.w[k - 1], params, v, k - 1, k)
    return v


def scattering_check(j: int, params: ModelParams) -> bool:
    """The scattering relation of the Bethe vector psi, by two-site gates
    (`scattering_apply`): [q][q^2] S_j psi = theta2(w_j) psi, which by the
    regularity lemma is the eigenvalue relation of T2 at z = w_j."""
    psi = bethe_vector(params)
    return (scattering_apply(j, params, psi).scale(params.d)
            == psi.scale(theta2(params.w[j - 1], params)))
