"""Monodromy matrix, Bethe vectors and twisted transfer matrices.

The monodromy matrix is the ordered product of mixed R-matrices over the
chain,

    T_a(z) = R_{a,N}(z/(q w_N)) ... R_{a,1}(z/(q w_1)),

a 2x2 matrix in the auxiliary spin-1/2 space with operator entries A, B,
C, D.  States are sparse maps from spin strings over (U, 0, D) to exact
scalars; operators are never materialised as 3^N x 3^N matrices.  One
kernel, `sweep`, applies a row of R-matrices to a whole vector: it carries
every state through the chain one site at a time together with its
auxiliary index, merging equal (auxiliary, state) entries after each site
(O(3^N * N) scalar work).  The monodromy entries, the T2 trace and the
singlet's beta operator in `spinchain` differ only in their tables and
auxiliary boundary indices.

The monodromy entries and T2 sweep plain ints.  The mixed R-matrix
carries s = sqrt([q][q^2]) only on its four spin-flip weights, which the
gauge K = diag(1, s) on its auxiliary factor turns into 1 and [q][q^2];
so every table is rational, stored once per session and spectral
argument as ints over one denominator D, and the gauged entries read A,
B/s, s C and D.  The input vector is split into its four rational parts
(the coefficients of 1, s, i and s i), which rational tables never mix;
each nonzero part is swept on ints, and the result is divided once by
the input's denominator times the product of the D (once for a whole
product of entries, as in `bethe_vector`), then multiplied by s^k for k
B's or by s^-k for k C's.

With twist angle pi the transfer matrices are

    T1(z) = i (A(z) - D(z)),
    T2(z) = tr_a( diag(-1, 1, -1) R22_{a,N}(z/w_N) ... R22_{a,1}(z/w_1) ),

and the explicit Bethe roots z_k = w_k make the state prod_j B(w_j)|all-up>
an exact eigenvector: T1 annihilates it and T2 has eigenvalue

    theta2(z) = (-1)^(N+1) prod_j [q w_j / z][q^2 z / w_j].

The renormalised vector divides out the common factor
([q][q^2])^(N/2) prod_{j<k} [q w_j / w_k]; its components are rational
centred Laurent polynomials of degree width at most 2(N-1) in each w_j,
and it satisfies exchange, cyclic-shift, recurrence and asymptotic
relations that are verified here exactly.
"""

from __future__ import annotations

from math import lcm, prod

from bethelab.field import (
    RAT,
    Scalar,
    ZeroInverse,
    as_rat,
    brk,
    laurent_interpolate_many,
)
from bethelab.rmatrix import DOWN, UP, ZERO, _session, r12, r22


class DimensionMismatch(ValueError):
    """Vector length does not match the model size."""


class PoleEncountered(ZeroDivisionError):
    """A denominator bracket vanished at the requested parameters."""


class RedundantFactorZero(ZeroDivisionError):
    """A factor [q w_j / w_k] of the common divisor vanishes
    (inhomogeneities sit on the singular lattice q * w_k)."""


class IrrationalComponent(ArithmeticError):
    """A renormalised component kept an s- or i-part (bug guard)."""


class IrrationalWeight(ArithmeticError):
    """A transition weight is not rational in the gauge of the sweeps."""


SPIN_CHARS = "U0D"
OMEGA = (-1, 1, -1)  # the diagonal twist at angle pi on (U, 0, D)


def state_str(key) -> str:
    return "".join(SPIN_CHARS[c] for c in key)


def magnetisation(key) -> int:
    """#up - #down for a spin string with codes U=0, 0=1, D=2."""
    return len(key) - sum(key)


class StateVector:
    """Sparse state on N spin-1 sites; values are Scalars (or half-power
    polynomials in the homogeneous symbolic mode).  Zero values are never
    stored."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries=None):
        self.n = n
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    def __bool__(self):
        return bool(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def get(self, key):
        return self.entries.get(tuple(key))

    def items(self):
        return self.entries.items()

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

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self):
        parts = [f"{state_str(k)}: {v!r}"
                 for k, v in sorted(self.entries.items())]
        return f"StateVector(n={self.n}, {{{', '.join(parts)}}})"

    def to_json_dict(self, params: "ModelParams") -> dict:
        comps = [{"state": state_str(k), "value": v.to_json_dict()}
                 for k, v in sorted(self.entries.items())]
        return {"n": self.n, "q": f"{params.q.numerator}/{params.q.denominator}",
                "w": [f"{w.numerator}/{w.denominator}" for w in params.w],
                "twist": params.twist, "components": comps}


class ModelParams:
    """Chain size, anisotropy q, inhomogeneities w and the twist.

    Carries the scalar session (d = [q][q^2]); q may be given as that
    session, a VertexWeights, whose memo then holds the transition tables
    of every ModelParams that shares it.
    """

    def __init__(self, n: int, q, w, twist: str = "pi"):
        if n < 1:
            raise ValueError("n must be at least 1")
        if twist not in ("pi", "0"):
            raise ValueError("twist must be 'pi' or '0'")
        w = tuple(as_rat(x) for x in w)
        if len(w) != n:
            raise ValueError("need exactly n inhomogeneities")
        if any(x == 0 for x in w):
            raise ValueError("inhomogeneities must be nonzero")
        self.n = n
        self.vw = _session(q)
        self.q = self.vw.q
        self.w = w
        self.twist = twist
        self._bethe_cache = None
        self._renorm_cache = None
        self._laurent_cache = {}
        self._reduced_cache = {}

    def with_w(self, w, twist=None) -> "ModelParams":
        return ModelParams(len(tuple(w)), self.vw, w,
                           twist if twist is not None else self.twist)

    def sc(self, r) -> Scalar:
        return self.vw.sc(r)

    def coerce(self, z) -> Scalar:
        return self.vw.coerce(z)

    @property
    def d(self):
        return self.vw.d

    def _table(self, kind: str, u: Scalar, build):
        """The session's memo of build(), keyed by kind and u."""
        key = (kind, u.a, u.b, u.c, u.e)
        t = self.vw.tables.get(key)
        if t is None:
            t = self.vw.tables[key] = build()
        return t

    def r12_table(self, u: Scalar):
        """(table, D): the transition table of K r12(u) K^-1, with K =
        diag(1, s) on the auxiliary factor, as ints over one denominator
        D.  The flip weights <0 .|R|1 .> = s and <1 .|R|0 .> = s become 1
        and [q][q^2]; every other weight is rational already."""
        return self._table("r12", u,
                           lambda: _int_table(r12(u, self.vw), self.d))

    def r22_table(self, u: Scalar):
        """(table, D) for r22(u), whose weights are rational already."""
        return self._table("r22", u, lambda: _int_table(r22(u, self.vw)))


def _gauged(w: Scalar, ao: int, ai: int, d):
    """The weight w = <ao .|R|ai .> as a rational: w itself, or with d
    given and ao != ai, the gauged flip weight (w = b s becomes b for
    0 <- 1 and b d for 1 <- 0)."""
    if d is None or ao == ai:
        if w.is_rational():
            return w.a
    elif not (w.a or w.c or w.e):
        return w.b if ao == 0 else w.b * d
    raise IrrationalWeight(f"<{ao} .|R|{ai} .> = {w!r}")


def _int_table(rmat, d=None):
    """(table, D): the column transition table of rmat, gauged by
    K = diag(1, s), s^2 = d, on its left factor when d is given, with
    every weight an int over their least common denominator D."""
    cols = {key: [(ao, so, _gauged(w, ao, key[0], d)) for ao, so, w in col]
            for key, col in rmat.column_map().items()}
    den = lcm(*(r.denominator for col in cols.values() for *_, r in col))
    return {key: [(ao, so, r.numerator * (den // r.denominator))
                  for ao, so, r in col] for key, col in cols.items()}, den


def vacuum(params: ModelParams) -> StateVector:
    """Reference state |all-up>, annihilated by C(z)."""
    return StateVector(params.n, {(UP,) * params.n: params.vw.one})


def vacuum_a(z, params: ModelParams) -> Scalar:
    """Eigenvalue of A(z) on the reference state: prod_j [q z / w_j]."""
    z = params.coerce(z)
    acc = params.vw.one
    for w in params.w:
        acc = acc * params.vw.bracket(z * params.sc(params.q / w))
    return acc


def vacuum_d(z, params: ModelParams) -> Scalar:
    """Eigenvalue of D(z) on the reference state: prod_j [z / (q w_j)]."""
    z = params.coerce(z)
    acc = params.vw.one
    for w in params.w:
        acc = acc * params.vw.bracket(z * params.sc(1 / (params.q * w)))
    return acc


_AUX = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}  # (a_in, a_out)


def sweep(tables, v: StateVector, a_in: int, a_out: int) -> dict:
    """Contract a row of R-matrices against every state of v at once.

    Starts from {(a_in, key): amp}; for j = 1..N applies the transition
    table tables[j-1] {(aux, site): [(aux', site', weight), ...]} to site
    j of every partial state, merging equal (aux, key) entries and
    dropping zeros after each site.  Returns {key: amp} over the entries
    whose auxiliary index leaves as a_out.
    """
    cur = {(a_in, key): amp for key, amp in v.entries.items()}
    for j, table in enumerate(tables):
        nxt = {}
        for (a, key), val in cur.items():
            head, tail = key[:j], key[j + 1:]
            for ao, so, wgt in table[(a, key[j])]:
                nk = (ao, head + (so,) + tail)
                nv = val * wgt
                acc = nxt.get(nk)
                nxt[nk] = nv if acc is None else acc + nv
        cur = {k: x for k, x in nxt.items() if x}
    return {key: val for (a, key), val in cur.items() if a == a_out}


def _signed_sweeps(rows, v: StateVector, params: ModelParams,
                   bounds) -> StateVector:
    """For each row of (table, D) pairs in turn, replace v by the sum of
    sign * sweep(v, a_in, a_out) over the (a_in, a_out, sign) in bounds.

    The tables are rational, so the four rational parts of v (the
    coefficients of 1, s, i and s i) never mix: v is written over one
    common denominator, each nonzero part goes through every row on
    plain ints, and the result is divided once by v's denominator times
    every D."""
    for x in v.entries.values():
        params.coerce(x)  # raises SessionMismatch for another session
    parts = list(zip(*((x.a, x.b, x.c, x.e) for x in v.entries.values())))
    den = lcm(*(r.denominator for part in parts for r in part))
    sweeps = [[t for t, _ in tables] for tables in rows]
    out = {}
    for k, part in enumerate(parts):
        cur = {key: r.numerator * (den // r.denominator)
               for key, r in zip(v.entries, part) if r}
        for tables in sweeps:
            ints, cur = StateVector(v.n, cur), {}
            for a_in, a_out, sign in bounds:
                for key, x in sweep(tables, ints, a_in, a_out).items():
                    cur[key] = cur.get(key, 0) + sign * x
        for key, x in cur.items():
            if x:
                out.setdefault(key, [0, 0, 0, 0])[k] = x
    den *= prod(d_j for tables in rows for _, d_j in tables)
    return StateVector(v.n, {key: Scalar(*(RAT(x, den) for x in xs),
                                         d=params.d)
                             for key, xs in out.items()})


def monodromy_apply(which: str, z, params: ModelParams,
                    v: StateVector) -> StateVector:
    """Apply a monodromy entry A, B, C or D at spectral parameter z; for a
    list z = [z_1, ..., z_k], apply the product which(z_k) ... which(z_1),
    with v split into rational parts and recombined once for all k sweeps.

    One sweep over sites 1..N contracting the two-dimensional auxiliary
    space exactly; B lowers the magnetisation by one, C raises it.  Undoing
    the gauge of `r12_table` multiplies each B by s and each C by 1/s.
    """
    if which not in _AUX:
        raise ValueError("which must be one of A, B, C, D")
    if v.n != params.n:
        raise DimensionMismatch(f"vector has {v.n} sites, model {params.n}")
    inv_q = params.sc(1 / params.q)
    rows = []
    for x in (z if isinstance(z, list) else [z]):
        x = params.coerce(x)
        if x.is_zero():
            raise ZeroInverse("spectral parameter must be nonzero")
        rows.append([params.r12_table(x * inv_q * params.sc(w).inv())
                     for w in params.w])
    a_in, a_out = _AUX[which]
    out = _signed_sweeps(rows, v, params, [(a_in, a_out, 1)])
    k = len(rows) * (a_in - a_out)
    return out.scale(params.vw.s ** k) if k else out


def bethe_vector(params: ModelParams) -> StateVector:
    """prod_{j=1..N} B(w_j) |all-up>: the eigenvector at the explicit
    Bethe roots z_k = w_k (twist pi); lives in the zero-magnetisation
    sector."""
    if params.twist != "pi":
        raise ValueError("the explicit Bethe vector exists at twist pi")
    if params._bethe_cache is None:
        params._bethe_cache = monodromy_apply(
            "B", [params.sc(w) for w in params.w], params, vacuum(params))
    return params._bethe_cache


def transfer1_apply(z, params: ModelParams, v: StateVector) -> StateVector:
    """Twisted six-vertex-auxiliary transfer matrix: i(A - D) at twist pi,
    A + D at twist 0."""
    av = monodromy_apply("A", z, params, v)
    dv = monodromy_apply("D", z, params, v)
    if params.twist == "0":
        return av + dv
    return (av - dv).scale(params.vw.i)


def transfer2_apply(z, params: ModelParams, v: StateVector) -> StateVector:
    """Nineteen-vertex transfer matrix with the diagonal twist
    Omega = diag(-1, 1, -1) (twist pi) or the identity (twist 0)."""
    if v.n != params.n:
        raise DimensionMismatch(f"vector has {v.n} sites, model {params.n}")
    z = params.coerce(z)
    if z.is_zero():
        raise ZeroInverse("spectral parameter must be nonzero")
    tables = [params.r22_table(z * params.sc(w).inv()) for w in params.w]
    omega = OMEGA if params.twist == "pi" else (1, 1, 1)
    return _signed_sweeps([tables], v, params,
                          [(a0, a0, sign) for a0, sign in enumerate(omega)])


def theta2(z, params: ModelParams) -> Scalar:
    """(-1)^(N+1) prod_j [q w_j / z][q^2 z / w_j], the simple eigenvalue."""
    z = params.coerce(z)
    if z.is_zero():
        raise ZeroInverse("spectral parameter must be nonzero")
    acc = params.vw.one
    q = params.q
    for w in params.w:
        acc = acc * params.vw.bracket(params.sc(q * w) * z.inv())
        acc = acc * params.vw.bracket(z * params.sc(q * q / w))
    return acc if params.n % 2 == 1 else -acc


def bethe_equations_residual(roots, params: ModelParams):
    """LHS - RHS of each Bethe equation at the given roots (n = N roots,
    twist read from params: the right side carries e^{-i phi})."""
    zs = [params.coerce(z) for z in roots]
    if any(z.is_zero() for z in zs):
        raise ZeroInverse("roots must be nonzero")
    q = params.sc(params.q)
    qi = q.inv()
    phase = params.vw.one if params.twist == "0" else -params.vw.one
    residuals = []
    for k, zk in enumerate(zs):
        lhs = params.vw.one
        for w in params.w:
            wi = params.sc(w).inv()
            den = params.vw.bracket(qi * zk * wi)
            if den.is_zero():
                raise PoleEncountered("denominator bracket [z_k/(q w_j)] = 0")
            lhs = lhs * params.vw.bracket(q * zk * wi) / den
        rhs = phase
        for j, zj in enumerate(zs):
            if j == k:
                continue
            den = params.vw.bracket(qi * zk * zj.inv())
            if den.is_zero():
                raise PoleEncountered("denominator bracket [z_k/(q z_j)] = 0")
            rhs = rhs * params.vw.bracket(q * zk * zj.inv()) / den
        residuals.append(lhs - rhs)
    return residuals


def renorm_divisor(params: ModelParams) -> Scalar:
    """([q][q^2])^(N/2) prod_{j<k} [q w_j / w_k] as an exact scalar; for
    odd N the half-integer power is s^N = ([q][q^2])^((N-1)/2) s."""
    vw = params.vw
    n = params.n
    acc = vw.sc((brk(params.q) * brk(params.q * params.q)) ** (n // 2))
    if n % 2 == 1:
        acc = acc * vw.s
    for j in range(n):
        for k in range(j + 1, n):
            f = brk(params.q * params.w[j] / params.w[k])
            if f == 0:
                raise RedundantFactorZero(
                    f"[q w_{j + 1}/w_{k + 1}] = 0: w on the singular lattice")
            acc = acc * vw.sc(f)
    return acc


def renormalised_vector(params: ModelParams) -> StateVector:
    """Bethe vector divided by its redundant overall factor; components
    are rational (s- and i-free), which is checked."""
    if params._renorm_cache is None:
        inv = renorm_divisor(params).inv()
        v = bethe_vector(params).scale(inv)
        for key, val in v.entries.items():
            if not val.is_rational():
                raise IrrationalComponent(
                    f"component {state_str(key)} not rational")
        params._renorm_cache = v
    return params._renorm_cache


# -- local gates and the twisted shift ---------------------------------


def apply_two_site(colmap: dict, v: StateVector, i: int,
                   j: int) -> StateVector:
    """Apply a two-site gate (column transition table) on site positions
    i, j (0-based, i is the gate's left factor)."""
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


def rhat22_table(u, params: ModelParams) -> dict:
    """Transition table of the braided nineteen-vertex matrix P R(u)."""
    return r22(params.coerce(u), params.vw).braided().column_map()


def s_prime_apply(v: StateVector, twist: str = "pi") -> StateVector:
    """Twisted translation S' = S Omega_N: apply Omega on the last site,
    then shift every site one step to the right (site N wraps to 1)."""
    out = {}
    for key, amp in v.entries.items():
        if twist == "pi" and OMEGA[key[-1]] == -1:
            amp = -amp
        out[(key[-1],) + key[:-1]] = amp
    return StateVector(v.n, out)


def singlet_pair_tensor(v: StateVector, params: ModelParams) -> StateVector:
    """|s> (x) v with |s> = |UD> + |DU> - |00> prepended on two new sites."""
    one = params.vw.one
    out = {}
    for key, amp in v.entries.items():
        out[(UP, DOWN) + key] = amp
        out[(DOWN, UP) + key] = amp
        out[(ZERO, ZERO) + key] = -amp
    return StateVector(v.n + 2, out)


# -- exchange / cyclic / recurrence / asymptotics ----------------------


def exchange_check(j: int, params: ModelParams) -> bool:
    """Rhat_{j,j+1}(w_j/w_{j+1}) |psi~(..., w_j, w_{j+1}, ...)>
       = [q w_{j+1}/w_j][q^2 w_j/w_{j+1}] |psi~(..., w_{j+1}, w_j, ...)>."""
    if not 1 <= j < params.n:
        raise ValueError("need 1 <= j < N")
    w = params.w
    vw = params.vw
    u = params.sc(w[j - 1] / w[j])
    lhs = apply_two_site(rhat22_table(u, params),
                         renormalised_vector(params), j - 1, j)
    swapped = list(w)
    swapped[j - 1], swapped[j] = swapped[j], swapped[j - 1]
    factor = vw.sc(brk(params.q * w[j] / w[j - 1])) * \
        vw.sc(brk(params.q * params.q * w[j - 1] / w[j]))
    rhs = renormalised_vector(params.with_w(swapped)).scale(factor)
    return lhs == rhs


def cyclic_check(params: ModelParams) -> bool:
    """S' |psi~(w_1, ..., w_N)> = (-1)^(N+1) |psi~(w_N, w_1, ..., w_{N-1})>."""
    lhs = s_prime_apply(renormalised_vector(params))
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
    vw = params.vw
    factor = vw.bq
    if params.n % 2 == 1:
        factor = -factor
    for wj in w[2:]:
        factor = factor * vw.sc(brk(params.q * w[0] / wj))
        factor = factor * vw.sc(brk(params.q * params.q * wj / w[0]))
    sub = renormalised_vector(params.with_w(w[2:]))
    rhs = singlet_pair_tensor(sub, params).scale(factor)
    return lhs == rhs


def admissible_points(params: ModelParams, j: int, count: int):
    """Deterministic stream of sample values for w_j that keep every
    renormalisation factor [q w_a / w_b] nonzero."""
    q = params.q
    others = [w for k, w in enumerate(params.w) if k != j - 1]
    excluded = {w / q for w in others} | {q * w for w in others}
    points = []
    m = 1
    while len(points) < count:
        t = RAT(m, 1)
        if t not in excluded and t not in points:
            points.append(t)
        m += 1
    return points


def laurent_components(sample, pts, params: ModelParams, low: int,
                       width: int) -> dict:
    """Interpolate every component of the vectors sample(t), t in pts, as a
    Laurent polynomial in t on the support [low, low + width]; a component
    missing from a sample counts as zero there.  Returns {key: LaurentPoly}
    over the sorted union of the sampled keys."""
    vecs = [sample(t) for t in pts]
    keys = sorted(set().union(*(vec.entries for vec in vecs)))
    zero = Scalar(0, d=params.d)
    rows = [[vec.entries.get(k, zero) for vec in vecs] for k in keys]
    polys = laurent_interpolate_many([params.sc(t) for t in pts], rows,
                                     low, width)
    return dict(zip(keys, polys))


def vector_laurent_coefficients(params: ModelParams, j: int, low: int,
                                width: int, surplus: int = 2):
    """Interpolate every component of |psi~> as a Laurent polynomial in
    w_j on the assumed support [low, low + width]; surplus samples verify
    the support assumption.  Returns {key: LaurentPoly}, memoised on
    params."""
    memo = (j, low, width, surplus)
    if memo not in params._laurent_cache:
        def sample(t):
            w = list(params.w)
            w[j - 1] = t
            return renormalised_vector(params.with_w(w))

        pts = admissible_points(params, j, width + 1 + surplus)
        params._laurent_cache[memo] = laurent_components(sample, pts, params,
                                                         low, width)
    return params._laurent_cache[memo]


def asymptotic_check(j: int, direction, params: ModelParams) -> bool:
    """Leading Laurent coefficient of |psi~> in w_j against the (N-1)-site
    vector: at order w_j^(N-1) (direction 'inf') the coefficient is
    (-1)^(N-j) delta_{sigma_j, 0} prod_{k != j} w_k^(-1) times the reduced
    component; at order w_j^-(N-1) (direction 'zero') it is
    (-1)^(j-1) delta_{sigma_j, 0} prod_{k != j} w_k.
    """
    if not 1 <= j <= params.n:
        raise ValueError("site index out of range")
    if params.n < 2:
        raise ValueError("need N >= 2")
    direction = str(direction)
    if direction not in ("inf", "zero", "0"):
        raise ValueError("direction must be 'inf' or 'zero'")
    to_inf = direction == "inf"
    n = params.n
    width = 2 * (n - 1)
    polys = vector_laurent_coefficients(params, j, -(n - 1), width)
    order = n - 1 if to_inf else -(n - 1)
    others = [w for k, w in enumerate(params.w) if k != j - 1]
    prod = RAT(1)
    for w in others:
        prod = prod * (1 / w if to_inf else w)
    sign = (-1) ** (n - j) if to_inf else (-1) ** (j - 1)
    factor = params.sc(sign * prod)
    if j not in params._reduced_cache:
        params._reduced_cache[j] = renormalised_vector(params.with_w(others))
    sub = params._reduced_cache[j]
    for key, poly in polys.items():
        coeff = poly.coefficient_or_zero(order, params.d)
        if key[j - 1] != ZERO:
            if not coeff.is_zero():
                return False
            continue
        reduced = key[:j - 1] + key[j:]
        want = sub.entries.get(reduced)
        want = factor * want if want is not None else Scalar(0, d=params.d)
        if coeff != want:
            return False
    return True


def scattering_check(j: int, params: ModelParams) -> bool:
    """T2(w_j) on the Bethe vector agrees with the cyclic product of
    braided R-matrices around the twisted shift,

    [q][q^2] Rhat_{j-1,j}(w_j/w_{j-1}) ... Rhat_{1,2}(w_j/w_1) S'
        Rhat_{N-1,N}(w_j/w_N) ... Rhat_{j,j+1}(w_j/w_{j+1}),

    and both equal theta2(w_j) times the vector."""
    if not 1 <= j <= params.n:
        raise ValueError("site index out of range")
    psi = bethe_vector(params)
    wj = params.w[j - 1]
    lhs = transfer2_apply(params.sc(wj), params, psi)
    eig = psi.scale(theta2(params.sc(wj), params))
    cur = psi
    for k in range(j, params.n):  # Rhat_{k,k+1}(w_j / w_{k+1}), ascending k
        table = rhat22_table(params.sc(wj / params.w[k]), params)
        cur = apply_two_site(table, cur, k - 1, k)
    cur = s_prime_apply(cur, params.twist)
    for k in range(1, j):
        table = rhat22_table(params.sc(wj / params.w[k - 1]), params)
        cur = apply_two_site(table, cur, k - 1, k)
    rhs = cur.scale(params.vw.bq * params.vw.bq2)
    return lhs == rhs and lhs == eig
