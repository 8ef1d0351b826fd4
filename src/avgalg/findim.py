"""Finite-dimensional commutative unital algebras and their averaging operators.

Algebras are given by structure constants over an exact scalar ring.  On top
of the basic verification and averaging checks, this module carries the
induced Lie bracket and its structure theory: whether a bracket comes from a
module endomorphism, whether it comes from an averaging operator (with an
explicit inducing operator when it does), derived and lower central series,
nilpotency via image powers, the nilpotent radical over a domain, the
eigenstructure of inner derivations, and kernel-versus-bracket comparisons.

Identity checks quantified over the whole algebra reduce to basis pairs or
triples: every identity checked here is multilinear in its algebra
arguments, so holding on a basis is holding everywhere.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Union

from ._record import Record, set_field
from .exactlin import (
    Matrix,
    NoSolution,
    NotAFieldError,
    QQ,
    Ring,
    RingError,
    ShapeError,
    Solution,
    Submodule,
    Subspace,
    ZMod,
    char_poly,
    distinct_degree_factors,
    invert,
    nullspace,
    poly_derivative,
    poly_gcd,
    poly_root_mod_p,
    rational_roots,
    ring_from_name,
    solve_linear,
    submodule_kernel,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)


class NotAveragingError(ValueError):
    """The operator fails F(x*F(y)) = F(x)*F(y) at basis pair ``witness``."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotLieError(ValueError):
    pass


class NotADomainError(ValueError):
    """The algebra has zero divisors: ``witness`` times ``partner`` is 0 and
    both are nonzero (both None for the zero ring)."""

    def __init__(self, message, witness=None, partner=None):
        super().__init__(message)
        self.witness = witness
        self.partner = partner


class DomainUndecidedError(ValueError):
    """check_domain found neither a zero divisor nor a proof that the algebra
    is a field, so an analysis that needs a domain refuses it."""


class NotAnAveragingIdealError(ValueError):
    pass


class InternalInvariantError(RuntimeError):
    """A cross-check between two independent computation paths failed."""


class Check(Record):
    """Outcome of an exact identity check; witness (a tuple, or None when
    ``ok``) locates the first failure."""

    __slots__ = ("ok", "witness")
    _defaults = (None,)

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# structure algebras

def _bilinear(R: Ring, table, terms, y) -> tuple:
    """sum x_i y_j table[i][j] over the pairs (i, x_i) in ``terms``, skipping
    zero terms: the one product kernel behind mul_vec, bracket_vec and the
    row products.  x_i = None stands for 1, so e_i * y reads row i only."""
    if len(y) != len(table):
        raise ShapeError("vector length mismatch")
    out = [R.zero] * len(table)
    for i, xi in terms:
        row = table[i]
        for j, yj in enumerate(y):
            if yj:
                c = yj if xi is None else R.mul(xi, yj)
                for k, ck in enumerate(row[j]):
                    if ck:
                        out[k] = R.add(out[k], R.mul(c, ck))
    return tuple(out)


def _terms(x, dim: int) -> list:
    """The nonzero coordinates (i, x_i) of a vector x of length dim."""
    if len(x) != dim:
        raise ShapeError("vector length mismatch")
    return [(i, xi) for i, xi in enumerate(x) if xi]


class StructureAlgebra(Record):
    """Commutative unital algebra by structure constants.

    ``mul[i][j]`` is the coordinate vector of e_i * e_j; ``unit`` the
    coordinates of the identity element.
    """

    __slots__ = ("ring", "dim", "unit", "mul")

    def __init__(self, ring: Ring, dim: int, unit: tuple, mul: tuple):
        set_field(self, "ring", ring)
        set_field(self, "dim", dim)
        set_field(self, "unit", unit)
        set_field(self, "mul", mul)

    @staticmethod
    def make(ring: Ring, unit, mul) -> "StructureAlgebra":
        unit = tuple(ring.of(x) for x in unit)
        dim = len(unit)
        tab = tuple(tuple(tuple(ring.of(x) for x in cell) for cell in row) for row in mul)
        if len(tab) != dim or any(len(row) != dim for row in tab) or any(
                len(cell) != dim for row in tab for cell in row):
            raise ShapeError("structure constant table must be dim x dim x dim")
        return StructureAlgebra(ring, dim, unit, tab)

    def basis_vec(self, i: int) -> tuple:
        return tuple(self.ring.one if j == i else self.ring.zero for j in range(self.dim))

    def mul_vec(self, a, b) -> tuple:
        return _bilinear(self.ring, self.mul, _terms(a, self.dim), b)

    def row_mul(self, i: int, v) -> tuple:
        """e_i * v without building e_i."""
        return _bilinear(self.ring, self.mul, ((i, None),), v)

    def power_vec(self, a, n: int) -> tuple:
        """a^n by square-and-multiply."""
        out, base = tuple(self.unit), tuple(a)
        while n:
            if n & 1:
                out = self.mul_vec(out, base)
            n >>= 1
            if n:
                base = self.mul_vec(base, base)
        return out


class AlgebraReport(Record):
    """Which laws hold; ``failure`` is (law, indices) of the first failure,
    or None."""

    __slots__ = ("commutative", "associative", "unital", "failure")
    _defaults = (None,)

    @property
    def ok(self) -> bool:
        return self.commutative and self.associative and self.unital


def verify_algebra(A: StructureAlgebra) -> AlgebraReport:
    """Exact commutativity, associativity, and unit checks on all triples;
    ``failure`` names the first failing law in that order of priority."""
    d = range(A.dim)
    comm = next(((i, j) for i in d for j in d if A.mul[i][j] != A.mul[j][i]), None)
    unit = next(((i,) for i in d if A.mul_vec(A.unit, A.basis_vec(i)) != A.basis_vec(i)), None)
    # (e_i e_j) e_k against e_i (e_j e_k), which reads row i only
    assoc = next(((i, j, k) for i, j, k in itertools.product(d, repeat=3)
                  if A.mul_vec(A.mul[i][j], A.basis_vec(k)) != A.row_mul(i, A.mul[j][k])), None)
    failure = next(((law, w) for law, w in (("commutativity", comm), ("unit", unit),
                                            ("associativity", assoc)) if w), None)
    return AlgebraReport(comm is None, assoc is None, unit is None, failure)


def require_verified(A: StructureAlgebra):
    report = verify_algebra(A)
    if not report.ok:
        raise ValueError(f"not a commutative unital algebra: {report.failure}")


def _require_operator(A: StructureAlgebra, F: Matrix):
    if F.ring != A.ring:
        raise ShapeError("operator ring does not match the algebra")
    if F.rows != A.dim or F.cols != A.dim:
        raise ShapeError("operator must be a dim x dim matrix")


# ---------------------------------------------------------------------------
# averaging operator checks and calculus

def is_averaging(A: StructureAlgebra, F: Matrix) -> Check:
    """F(x*F(y)) = F(x)*F(y); both sides bilinear, so basis pairs decide."""
    _require_operator(A, F)
    cols = [F.col(j) for j in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = F.apply(A.row_mul(i, cols[j]))
            rhs = A.mul_vec(cols[i], cols[j])
            if lhs != rhs:
                return Check(False, (i, j))
    return Check(True)


def is_unitary(A: StructureAlgebra, F: Matrix) -> bool:
    _require_operator(A, F)
    return F.apply(A.unit) == tuple(A.unit)


def is_reynolds_averaging(A: StructureAlgebra, F: Operator) -> Check:
    """F(F(x)F(y)) = F(x)F(y) for an averaging F, on basis pairs."""
    F = averaging_operator(A, F).matrix
    cols = [F.col(j) for j in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.mul_vec(cols[i], cols[j])
            if F.apply(prod) != prod:
                return Check(False, (i, j))
    return Check(True)


class Certificate(Record):
    """Which closure hypothesis was checked for an operator combination."""

    __slots__ = ("hypothesis", "holds", "witness")
    _defaults = (None,)


def op_scale(A: StructureAlgebra, r, F: Matrix):
    """r*F; averaging whenever F is."""
    avg = is_averaging(A, F)
    cert = Certificate("operand is averaging", avg.ok, avg.witness)
    return F.scale(A.ring.of(r)), cert


def op_compose(A: StructureAlgebra, F: Matrix, G: Matrix):
    """F∘G; averaging when both are averaging and they commute."""
    avg_f, avg_g = is_averaging(A, F), is_averaging(A, G)
    fg = F.mul(G)
    commute = fg == G.mul(F)
    holds = avg_f.ok and avg_g.ok and commute
    witness = avg_f.witness or avg_g.witness or (None if commute else ("commutator",))
    cert = Certificate("operands are averaging and commute", holds, witness)
    return fg, cert


def op_add(A: StructureAlgebra, F: Matrix, G: Matrix):
    """F+G; averaging under the cross compatibility identity."""
    avg_f, avg_g = is_averaging(A, F), is_averaging(A, G)
    R, d = A.ring, range(A.dim)
    fc = [F.col(j) for j in d]
    gc = [G.col(j) for j in d]
    compat_witness = next((
        (i, j) for i in d for j in d
        if vec_add(R, F.apply(A.row_mul(i, gc[j])), G.apply(A.row_mul(i, fc[j])))
        != vec_add(R, A.mul_vec(fc[i], gc[j]), A.mul_vec(gc[i], fc[j]))), None)
    holds = avg_f.ok and avg_g.ok and compat_witness is None
    cert = Certificate(
        "operands are averaging and satisfy the cross compatibility identity",
        holds, avg_f.witness or avg_g.witness or compat_witness)
    return F.add(G), cert


def op_poly_apply(A: StructureAlgebra, coeffs, F: Matrix):
    """P(F) for P with zero constant term, coefficients ascending."""
    R = A.ring
    coeffs = [R.of(c) for c in coeffs]
    if coeffs and coeffs[0]:
        raise ValueError("polynomial must have zero constant term")
    avg = is_averaging(A, F)
    cert = Certificate("operand is averaging", avg.ok, avg.witness)
    acc = Matrix.zero(R, A.dim, A.dim)
    power = Matrix.identity(R, A.dim)
    for c in coeffs:
        if c:
            acc = acc.add(power.scale(c))
        power = power.mul(F)
    return acc, cert


# ---------------------------------------------------------------------------
# brackets

class BracketTable(Record):
    """Bracket structure constants: table[i][j] = coordinates of [e_i, e_j]."""

    __slots__ = ("ring", "dim", "table")

    def __init__(self, ring: Ring, dim: int, table: tuple):
        set_field(self, "ring", ring)
        set_field(self, "dim", dim)
        set_field(self, "table", table)

    @staticmethod
    def make(ring: Ring, table) -> "BracketTable":
        tab = tuple(tuple(tuple(ring.of(x) for x in cell) for cell in row) for row in table)
        dim = len(tab)
        if any(len(row) != dim for row in tab) or any(
                len(cell) != dim for row in tab for cell in row):
            raise ShapeError("bracket table must be dim x dim x dim")
        return BracketTable(ring, dim, tab)

    def bracket_vec(self, x, y) -> tuple:
        return _bilinear(self.ring, self.table, _terms(x, self.dim), y)

    def row_bracket(self, i: int, v) -> tuple:
        """[e_i, v] without building e_i."""
        return _bilinear(self.ring, self.table, ((i, None),), v)


def check_lie(A: StructureAlgebra, L: BracketTable) -> Check:
    """Alternating plus Jacobi on all basis triples."""
    if L.dim != A.dim or L.ring != A.ring:
        raise ShapeError("bracket does not match the algebra")
    R = A.ring
    for i in range(A.dim):
        if not vec_is_zero(R, L.table[i][i]):
            return Check(False, ("alternating", (i,)))
        for j in range(A.dim):
            if L.table[i][j] != tuple(R.neg(x) for x in L.table[j][i]):
                return Check(False, ("antisymmetry", (i, j)))
    # the table is antisymmetric here, so [[e_i,e_j],e_k] = -[e_k,[e_i,e_j]]
    # and the Jacobi sum is zero exactly when this row-product sum is
    for i, j, k in itertools.combinations(range(A.dim), 3):
        total = vec_add(R, vec_add(R,
                        L.row_bracket(k, L.table[i][j]),
                        L.row_bracket(i, L.table[j][k])),
                        L.row_bracket(j, L.table[k][i]))
        if not vec_is_zero(R, total):
            return Check(False, ("jacobi", (i, j, k)))
    return Check(True)


def require_lie(A: StructureAlgebra, L: BracketTable):
    chk = check_lie(A, L)
    if not chk:
        raise NotLieError(f"not a Lie bracket: {chk.witness}")


def _bracket_table(A: StructureAlgebra, cols) -> BracketTable:
    """[e_i, e_j] = e_i*F(e_j) - e_j*F(e_i) with cols[j] = F(e_j).  The formula
    is alternating for every F, so only i < j is computed."""
    R, d = A.ring, A.dim
    table = [[zero_vec(R, d)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            g = vec_sub(R, A.row_mul(i, cols[j]), A.row_mul(j, cols[i]))
            table[i][j], table[j][i] = g, tuple(R.neg(x) for x in g)
    return BracketTable(R, d, tuple(tuple(row) for row in table))


def raw_bracket(A: StructureAlgebra, F: Matrix) -> BracketTable:
    """[x,y] = x*F(y) - y*F(x) for an arbitrary endomorphism F.

    No averaging requirement, but the result must still pass the Lie axioms
    or this raises.
    """
    _require_operator(A, F)
    L = _bracket_table(A, [F.col(j) for j in range(A.dim)])
    require_lie(A, L)
    return L


class AveragingOperator(Record):
    """An operator checked to be averaging on ``algebra``; built only by
    ``averaging_operator``.  The analyses take an ``Operator``: this value,
    or a bare matrix they check through ``averaging_operator``.

    The induced Lie bracket ``bracket`` is built on first use, together with
    its one ``check_lie`` cross-check of the paper's starting theorem (the
    bracket of an averaging operator is a Lie bracket); failure raises
    ``InternalInvariantError``.  Callers that never read it pay for neither.
    The built bracket is kept in the private slot ``_bracket``, outside
    equality, hash and repr.
    """

    __slots__ = ("algebra", "matrix", "_bracket")

    @property
    def bracket(self) -> BracketTable:
        try:
            return self._bracket
        except AttributeError:
            pass
        A = self.algebra
        L = _bracket_table(A, [self.matrix.col(j) for j in range(A.dim)])
        lie = check_lie(A, L)
        if not lie:
            raise InternalInvariantError(
                f"the bracket of an averaging operator fails the Lie axioms: {lie.witness}")
        set_field(self, "_bracket", L)
        return L


Operator = Union[Matrix, AveragingOperator]


def averaging_operator(A: StructureAlgebra, F: Operator) -> AveragingOperator:
    """Check F once and carry the result.

    Raises ``NotAveragingError`` (with the failing basis pair as
    ``witness``) when F is not averaging.  An ``AveragingOperator`` for A is
    returned as it is; one checked on another algebra is a ``ShapeError``.
    """
    if isinstance(F, AveragingOperator):
        if F.algebra != A:
            raise ShapeError("operator was checked on a different algebra")
        return F
    avg = is_averaging(A, F)
    if not avg:
        raise NotAveragingError(
            f"operator is not averaging (witness pair {avg.witness}); "
            "use raw_bracket for arbitrary endomorphisms", avg.witness)
    return AveragingOperator(A, F)


def induced_bracket(A: StructureAlgebra, F: Operator) -> BracketTable:
    """The bracket of an averaging operator; refuses non-averaging input."""
    return averaging_operator(A, F).bracket


# ---------------------------------------------------------------------------
# endomorphism- and averaging-induced brackets

def endo_induced_check(A: StructureAlgebra, L: BracketTable) -> Check:
    """[x,y] = x[1,y] + y[x,1] on basis pairs (both sides bilinear); L must
    pass ``check_lie``."""
    one_e = [L.bracket_vec(A.unit, A.basis_vec(j)) for j in range(A.dim)]  # [1, e_j]
    for i in range(A.dim):
        e_one = L.row_bracket(i, A.unit)  # [e_i, 1]
        for j in range(A.dim):
            rhs = vec_add(A.ring, A.row_mul(i, one_e[j]), A.row_mul(j, e_one))
            if L.table[i][j] != rhs:
                return Check(False, (i, j))
    return Check(True)


def gamma_subalgebra(A: StructureAlgebra, L: BracketTable) -> Subspace:
    """{a : [a*x, y] = a*[x, y]}, the linear conditions solved exactly; L must
    pass ``check_lie``."""
    R = A.ring
    rows = []
    for i in range(A.dim):
        for j in range(A.dim):
            # coefficient of a_m in ([a e_i, e_j] - a [e_i, e_j])_k
            for k in range(A.dim):
                row = []
                for m in range(A.dim):
                    acc = R.zero
                    for s in range(A.dim):
                        a, b = A.mul[m][i][s], L.table[s][j][k]
                        if a and b:
                            acc = R.add(acc, R.mul(a, b))
                        a, b = L.table[i][j][s], A.mul[m][s][k]
                        if a and b:
                            acc = R.sub(acc, R.mul(a, b))
                    row.append(acc)
                rows.append(tuple(row))
    return nullspace(Matrix(R, len(rows), A.dim, tuple(rows)))


class NotEndoInduced(Record):
    __slots__ = ("witness",)


class InduceNoSolution(Record):
    __slots__ = ()


class Induced(Record):
    __slots__ = ("t", "operator")  # tuple, Matrix


class InduceDiagnostic(Record):
    """The linear system had a solution but the candidate operator failed
    re-verification; kept distinct so the gap stays visible."""

    __slots__ = ("t", "operator", "reason")  # tuple, Matrix, str


InduceResult = Union[NotEndoInduced, InduceNoSolution, Induced, InduceDiagnostic]


def _complete_basis(ring: Ring, vectors, dim: int):
    """Greedily append standard basis vectors until the span is everything."""
    chosen = []
    current = Subspace.span(ring, dim, vectors)
    for i in range(dim):
        if current.dim == dim:
            break
        e = tuple(ring.one if j == i else ring.zero for j in range(dim))
        grown = Subspace.span(ring, dim, list(vectors) + chosen + [e])
        if grown.dim > current.dim:
            chosen.append(e)
            current = grown
    return chosen


def induced_by_averaging(A: StructureAlgebra, L: BracketTable) -> InduceResult:
    """Decide whether L is the bracket of some averaging operator.

    Steps: the endomorphism criterion; the invariance subalgebra and a basis
    completion; the stacked linear system for the Gamma-coordinates of t;
    then a full re-verification of the candidate operator L_t.
    """
    if not A.ring.is_field:
        raise NotAFieldError("the averaging-induced decision needs field scalars")
    require_lie(A, L)
    endo = endo_induced_check(A, L)
    if not endo:
        return NotEndoInduced(endo.witness)
    R = A.ring
    n = A.dim
    gamma = gamma_subalgebra(A, L)
    eps = list(gamma.basis)
    p = len(eps)
    delta = _complete_basis(R, eps, n)
    q = len(delta)
    if p + q != n:
        raise InternalInvariantError("basis completion failed")
    if q == 0:
        x = ()
    else:
        basis_mtx = Matrix.from_cols(R, eps + delta)
        inv = invert(basis_mtx)
        stacked_rows = []
        stacked_rhs = []
        for dj in delta:
            # delta-coordinates of eps_i * delta_j fill the system matrix
            bcols = []
            for ei in eps:
                coords = inv.apply(A.mul_vec(ei, dj))
                bcols.append(coords[p:])
            one_dj = inv.apply(L.bracket_vec(A.unit, dj))
            d_vec = tuple(R.neg(c) for c in one_dj[p:])
            for k in range(q):
                stacked_rows.append(tuple(bc[k] for bc in bcols))
                stacked_rhs.append(d_vec[k])
        res = solve_linear(Matrix(R, len(stacked_rows), p, tuple(stacked_rows)),
                           tuple(stacked_rhs))
        if isinstance(res, NoSolution):
            return InduceNoSolution()
        x = res.particular
    t = zero_vec(R, n)
    for xi, ei in zip(x, eps):
        t = vec_add(R, t, vec_scale(R, xi, ei))
    cols = [vec_add(R, L.bracket_vec(A.unit, A.basis_vec(i)),
                    A.row_mul(i, t)) for i in range(n)]
    op = Matrix.from_cols(R, cols)
    avg = is_averaging(A, op)
    if not avg:
        return InduceDiagnostic(t, op, f"candidate not averaging at pair {avg.witness}")
    # L passed check_lie on entry, so equal tables make the candidate's
    # bracket a Lie bracket without a second check
    if _bracket_table(A, cols).table != L.table:
        return InduceDiagnostic(t, op, "candidate does not reproduce the bracket")
    return Induced(t, op)


# ---------------------------------------------------------------------------
# series, nilpotency, radical

class SeriesResult(Record):
    """``stages`` is the Subspace chain, stage 0 first, truncated at
    stabilization."""

    __slots__ = ("stages", "reaches_zero")

    def stage(self, k: int) -> Subspace:
        return self.stages[min(k, len(self.stages) - 1)]


def _series(A: StructureAlgebra, L: BracketTable, lower: bool) -> SeriesResult:
    """Stage 0 is A; stage k+1 spans the brackets of stage k with itself, or
    with A when ``lower``.  Stops at a repeated or a zero stage."""
    full = Subspace.full(A.ring, A.dim)
    stages = [full]
    while True:
        other = full if lower else stages[-1]
        nxt = Subspace.span(A.ring, A.dim,
                            [L.bracket_vec(x, y) for x in stages[-1].basis for y in other.basis])
        if nxt == stages[-1]:
            break
        stages.append(nxt)
        if nxt.is_zero():
            break
    return SeriesResult(tuple(stages), stages[-1].is_zero())


def derived_series(A: StructureAlgebra, L: BracketTable) -> SeriesResult:
    """L^(k+1) = [L^(k), L^(k)] over a field; L must pass ``check_lie``."""
    return _series(A, L, lower=False)


def lower_central_series(A: StructureAlgebra, L: BracketTable) -> SeriesResult:
    """L_(k+1) = [L_k, A] over a field; L must pass ``check_lie``."""
    return _series(A, L, lower=True)


class Nilpotent(Record):
    __slots__ = ("k",)  # least k with image^k inside the bracket annihilator


class NotNilpotent(Record):
    __slots__ = ("stable",)  # the stabilized image power (Subspace or Submodule)


def _span(R: Ring, dim: int, vectors):
    """Subspace over a field, canonical Submodule over composite Z/n; either
    way, equal values are equal spans."""
    return (Subspace if R.is_field else Submodule).span(R, dim, vectors)


def _kernel(M: Matrix):
    """ker M as a Subspace over a field, a canonical Submodule over composite Z/n."""
    return nullspace(M) if M.ring.is_field else submodule_kernel(M.ring, M)


def nilpotency_check(A: StructureAlgebra, F: Operator):
    """Iterate powers of the operator image against the bracket annihilator.

    The image of an averaging operator is closed under multiplication, so
    the powers descend; the check returns the least power contained in
    {a : a*[x,y] = 0 for all x, y} or the stabilized power if none is.
    Works over fields via subspaces and over Z/n via canonical submodules.
    """
    op = averaging_operator(A, F)
    R, d = A.ring, A.dim
    ann_rows = []
    for i in range(d):
        for j in range(i + 1, d):
            # condition a*g = 0, linear in a: row k holds coordinate k of e_m*g
            g = op.bracket.table[i][j]
            ann_rows.extend(zip(*[A.row_mul(m, g) for m in range(d)]))
    ann = _kernel(Matrix(R, len(ann_rows), d, tuple(ann_rows)))
    image = _span(R, d, [op.matrix.col(j) for j in range(d)])
    power = image
    k = 1
    while True:
        if all(ann.contains_vector(g) for g in power.basis):
            return Nilpotent(k)
        nxt = _span(R, d, [A.mul_vec(u, v) for u in power.basis for v in image.basis])
        if nxt == power:
            return NotNilpotent(power)
        power = nxt
        k += 1


class DomainCertificate(Record):
    """Why check_domain accepted.

    Over Q, A = Q[a] for the primitive element ``element``, whose
    characteristic polynomial ``poly`` is irreducible by ``reason``:
    "degree sieve" (its factor degrees mod ``primes`` admit no proper
    factor) or "no rational root" (degree at most 3); "dimension 1" needs
    neither.  Over Z/p the reason is "frobenius".
    """

    __slots__ = ("reason", "element", "poly", "primes")
    _defaults = (None, None, ())


# primes whose factor-degree patterns the sieve intersects
_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _mult_matrix(A: StructureAlgebra, a) -> Matrix:
    """The matrix of x -> a*x.  Column i is a*e_i = e_i*a, which reads row i
    only: StructureAlgebra is commutative by contract."""
    return Matrix.from_cols(A.ring, [A.row_mul(i, a) for i in range(A.dim)])


def _zero_divisor(A: StructureAlgebra, w, why: str) -> NotADomainError:
    """The refutation naming w as a zero divisor, with a nonzero partner
    from the kernel of multiplication by w."""
    R = A.ring

    def show(v):
        return "(" + ", ".join(R.render(x) for x in v) + ")"

    ker = nullspace(_mult_matrix(A, w))
    if vec_is_zero(R, w) or ker.is_zero():
        raise InternalInvariantError(f"{show(w)} ({why}) is not a zero divisor")
    z = ker.basis[0]
    return NotADomainError(f"{show(w)} is a zero divisor ({why}): "
                           f"its product with {show(z)} is 0", w, z)


def check_domain(A: StructureAlgebra) -> DomainCertificate:
    """Decide exactly whether A is a domain, that is, a field.

    A must be a commutative associative unital algebra (``verify_algebra``)
    over Q or Z/p.  Three outcomes: a ``DomainCertificate`` when A is a
    field; ``NotADomainError`` naming a nonzero zero divisor and its
    partner; ``DomainUndecidedError`` when neither is found.  The last
    happens over Q only, when the characteristic polynomial of the
    primitive element has degree above 3, no rational root, and no sieve
    prime proves it irreducible: Q[t]/(t^4 + 1), a field, and
    Q[t]/((t^2 - 2)(t^2 - 3)), which is not, both end there.

    Over Q: the radical of the trace form (a, b) -> Tr(L_ab) is the
    nilradical; when it is zero, A = Q[t]/(chi_a) for an element a whose
    characteristic polynomial chi_a is squarefree, and A is a field exactly
    when chi_a is irreducible.  Over Z/p: A is a field exactly when the
    Frobenius map x -> x^p is injective and fixes only the line of 1.
    """
    R = A.ring
    if not R.is_field:
        raise NotAFieldError("domain check needs field scalars")
    if A.dim == 0:
        raise NotADomainError("the zero ring is not a domain")
    if R == QQ:
        return _check_domain_q(A)
    return _check_domain_zp(A)


def _check_domain_q(A: StructureAlgebra) -> DomainCertificate:
    R, d = A.ring, A.dim
    traces = [sum((A.mul[s][k][k] for k in range(d)), R.zero) for s in range(d)]
    gram = Matrix(R, d, d, tuple(tuple(vec_dot(R, A.mul[i][j], traces) for j in range(d))
                                 for i in range(d)))
    radical = nullspace(gram)
    if not radical.is_zero():
        raise _zero_divisor(A, radical.basis[0], "nilpotent")
    if d == 1:
        return DomainCertificate("dimension 1")
    a, chi = _primitive_element(A)
    primes, sums = _degree_sieve(chi)
    if sums == 1 | 1 << d:
        return DomainCertificate("degree sieve", a, chi, primes)
    # a rational root r of chi makes a - r a zero divisor; none exists unless
    # every prime the sieve used sees a linear factor
    if sums & 2:
        roots = rational_roots(chi)
        if roots:
            raise _zero_divisor(A, vec_sub(R, a, vec_scale(R, roots[0], A.unit)),
                                f"the primitive element minus its eigenvalue {roots[0]}")
    if d <= 3:
        return DomainCertificate("no rational root", a, chi)
    raise DomainUndecidedError(
        "cannot decide whether the algebra is a domain: the characteristic "
        f"polynomial {[R.render(x) for x in chi]} of its primitive element has no "
        "rational root and no sieve prime proves it irreducible")


def _primitive_element(A: StructureAlgebra):
    """(a, chi_a) with chi_a squarefree, so 1, a, ..., a^(d-1) is a basis of
    the reduced algebra A.  Basis vectors are tried first, then sum c^i e_i
    for c = 1, 2, ...; each of the d(d-1)/2 pairs of embeddings of A agrees
    on at most d - 1 of the latter, which bounds the search.  A candidate
    with chi_a(0) = 0 is singular and refutes the domain on the way."""
    R, d = A.ring, A.dim
    candidates = itertools.chain(
        (A.basis_vec(i) for i in range(d)),
        (tuple(R.of(c ** i) for i in range(d)) for c in range(1, d * (d - 1) ** 2 // 2 + 2)))
    for a in candidates:
        if _proportionality(R, a, A.unit) is not None:
            continue  # a scalar generates only Q
        chi = char_poly(_mult_matrix(A, a))
        if not chi[0]:
            raise _zero_divisor(A, a, "singular")
        if len(poly_gcd(R, chi, poly_derivative(R, chi))) == 1:
            return a, chi
    raise InternalInvariantError("a reduced algebra has no primitive element")


def _degree_sieve(chi):
    """(primes, sums): intersect, over the primes p at which chi stays
    squarefree, the subset sums of its factor degrees mod p, as a bit mask.

    The degree of every factor of chi over Q is in the intersection, so
    {0, deg chi} proves chi irreducible (Musser 1978).  Stops once it does.
    """
    d = len(chi) - 1
    den = lcm(*(c.denominator for c in chi))
    sums = (1 << d + 1) - 1
    used = []
    for p in _SIEVE_PRIMES:
        if den % p == 0:
            continue
        Fp = ZMod(p)
        f = tuple(Fp.of(c) for c in chi)
        if len(poly_gcd(Fp, f, poly_derivative(Fp, f))) != 1:
            continue  # p divides the discriminant
        mask = 1
        for k, g in distinct_degree_factors(Fp, f):
            for _ in range((len(g) - 1) // k):
                mask |= mask << k
        sums &= mask
        used.append(p)
        if sums == 1 | 1 << d:
            break
    return tuple(used), sums


def _check_domain_zp(A: StructureAlgebra) -> DomainCertificate:
    # x -> x^p is linear; it is injective exactly when A is reduced, and then
    # its fixed space is F_p^r for A = F_(p^k1) x ... x F_(p^kr)
    R, d = A.ring, A.dim
    frob = Matrix.from_cols(R, [A.power_vec(A.basis_vec(i), R.n) for i in range(d)])
    kernel = nullspace(frob)
    if not kernel.is_zero():
        raise _zero_divisor(A, kernel.basis[0], "nilpotent")
    fixed = nullspace(frob.sub(Matrix.identity(R, d)))
    b = next((v for v in fixed.basis if _proportionality(R, v, A.unit) is None), None)
    if b is None:
        return DomainCertificate("frobenius")
    # b^p = b puts every eigenvalue c of b in F_p, and b - c is nonzero and
    # singular because b is not a scalar
    c = poly_root_mod_p(R, char_poly(_mult_matrix(A, b)))
    raise _zero_divisor(A, vec_sub(R, b, vec_scale(R, c, A.unit)),
                        f"a Frobenius-fixed element minus its eigenvalue {c}")


def nilpotent_radical_domain(A: StructureAlgebra, F: Operator) -> Subspace:
    """Over a domain: the whole space when ker F = 0, else ker F."""
    check_domain(A)
    ker = nullspace(averaging_operator(A, F).matrix)
    if ker.is_zero():
        return Subspace.full(A.ring, A.dim)
    return ker


def ad_eigen(A: StructureAlgebra, F: Operator, a) -> tuple:
    """Eigenvalues with eigenspaces of x -> a*F(x) - x*F(a), over a domain.

    Two independent paths must agree: the structural case split on ker F and
    F(a), and the characteristic-polynomial route with nullspace
    eigenspaces.  Disagreement raises InternalInvariantError.
    """
    if A.ring != QQ:
        raise NotAFieldError("eigen analysis is implemented over Q")
    check_domain(A)
    op = averaging_operator(A, F)
    F = op.matrix
    R = A.ring
    a = tuple(R.of(x) for x in a)
    fa = F.apply(a)
    # the bracket passed check_lie, so ad_a(e_i) = [a, e_i] = -[e_i, a]
    ad = Matrix.from_cols(R, [tuple(R.neg(x) for x in op.bracket.row_bracket(i, a))
                              for i in range(A.dim)])
    # structural path: over a domain the only possible eigenvalues are 0 and,
    # when ker F is nonzero and F(a) is a nonzero scalar k, the value -k
    ker = nullspace(F)
    structural = {R.zero: nullspace(ad)}
    k = None if vec_is_zero(R, a) or ker.is_zero() else _proportionality(R, fa, A.unit)
    if k:
        structural[R.neg(k)] = ker
    # direct path
    roots = set(rational_roots(char_poly(ad)))
    direct = {}
    for r in roots:
        space = nullspace(ad.sub(Matrix.identity(R, A.dim).scale(r)))
        if not space.is_zero():
            direct[r] = space
    if structural != direct:
        raise InternalInvariantError(
            f"eigen paths disagree: structural {sorted(structural)} vs direct {sorted(direct)}")
    return tuple(sorted(direct.items()))


def _proportionality(R: Ring, v, w):
    """k with v = k*w, or None."""
    idx = next((i for i, x in enumerate(w) if x), None)
    if idx is None:
        return None
    k = R.mul(v[idx], R.inv(w[idx]))
    if tuple(vec_scale(R, k, w)) == tuple(v):
        return k
    return None


class KernelBracketResult(Record):
    """``kernel`` and ``brackets`` are both Subspaces or both Submodules."""

    __slots__ = ("equal", "kernel", "brackets")


def kernel_equals_brackets(A: StructureAlgebra, F: Operator) -> KernelBracketResult:
    """Compare ker F with the span of all basis brackets, exactly.

    Over a field both sides are subspaces; over Z/n both sides are canonical
    submodules, so equality is equality of canonical forms.
    """
    op = averaging_operator(A, F)
    ker = _kernel(op.matrix)
    spn = _span(A.ring, A.dim, [op.bracket.table[i][j]
                                for i in range(A.dim) for j in range(i + 1, A.dim)])
    return KernelBracketResult(ker == spn, ker, spn)


class LieAnalysis(Record):
    """Structure report for the bracket of one averaging operator: a
    BracketTable, two SeriesResults (None over non-field scalars), a
    Nilpotent or NotNilpotent, and a KernelBracketResult."""

    __slots__ = ("bracket", "derived", "lower_central", "nilpotency",
                 "kernel_comparison")


def lie_analysis(A: StructureAlgebra, F: Operator) -> LieAnalysis:
    """Bracket, series, nilpotency, and kernel comparison in one pass."""
    op = averaging_operator(A, F)
    L = op.bracket
    if A.ring.is_field:
        ds = derived_series(A, L)
        lc = lower_central_series(A, L)
    else:
        ds = lc = None
    return LieAnalysis(L, ds, lc, nilpotency_check(A, op), kernel_equals_brackets(A, op))


# ---------------------------------------------------------------------------
# quotients and primary algebras

def quotient_by_averaging_ideal(A: StructureAlgebra, F: Matrix, ideal: Subspace):
    """Quotient algebra and induced operator by an F-invariant ideal.

    The ideal test multiplies each generator u by every e_i as e_i*u, which
    equals u*e_i because StructureAlgebra is commutative by contract."""
    if not A.ring.is_field:
        raise NotAFieldError("quotients are implemented over field scalars")
    _require_operator(A, F)
    if ideal.ambient_dim != A.dim or ideal.ring != A.ring:
        raise ShapeError("ideal does not live in this algebra")
    R = A.ring
    for u in ideal.basis:
        for i in range(A.dim):
            if not ideal.contains_vector(A.row_mul(i, u)):
                raise NotAnAveragingIdealError(
                    f"not an ideal: generator times basis element {i} escapes")
        if not ideal.contains_vector(F.apply(u)):
            raise NotAnAveragingIdealError("ideal is not invariant under the operator")
    if ideal.is_full():
        raise ValueError("quotient by the whole algebra is the zero ring, not unital")
    comp = _complete_basis(R, list(ideal.basis), A.dim)
    p = ideal.dim
    q = len(comp)
    basis_mtx = Matrix.from_cols(R, list(ideal.basis) + comp)
    inv = invert(basis_mtx)

    def project(v):
        return inv.apply(v)[p:]

    unit2 = project(A.unit)
    mul2 = tuple(tuple(tuple(project(A.mul_vec(comp[i], comp[j])))
                       for j in range(q)) for i in range(q))
    A2 = StructureAlgebra.make(R, unit2, mul2)
    F2 = Matrix.from_cols(R, [project(F.apply(comp[j])) for j in range(q)])
    report = verify_algebra(A2)
    if not report.ok:
        raise InternalInvariantError(f"quotient failed verification: {report.failure}")
    if is_averaging(A, F) and not is_averaging(A2, F2):
        raise InternalInvariantError("quotient of an averaging operator is not averaging")
    return A2, F2


def primary_from_poly(coeffs) -> tuple:
    """Q[y]/(p) with the class-of-y multiplication operator, p monic.

    The operator realizes the generator action of the one-generator free
    object's quotients; instances have no proper averaging subalgebras and
    serve as a family of verified test algebras.
    """
    coeffs = [QQ.of(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree at least 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    d = len(coeffs) - 1
    # powers of y modulo p; the multiplication table needs index 2d-2 and
    # the operator column for the top basis vector needs index d
    powers = [tuple(QQ.one if i == k else QQ.zero for i in range(d)) for k in range(d)]
    reduction = tuple(-c for c in coeffs[:-1])  # y^d = -(c_0 + ... + c_{d-1} y^{d-1})
    while len(powers) <= max(2 * d - 2, d):
        prev = powers[-1]
        shifted = [QQ.zero] + list(prev[:-1])
        lead = prev[-1]
        powers.append(tuple(QQ.add(s, QQ.mul(lead, r))
                            for s, r in zip(shifted, reduction)))
    mul = tuple(tuple(powers[i + j] for j in range(d)) for i in range(d))
    unit = tuple(QQ.one if i == 0 else QQ.zero for i in range(d))
    A = StructureAlgebra.make(QQ, unit, mul)
    F = Matrix.from_cols(QQ, [powers[j + 1] for j in range(d)])
    require_verified(A)
    avg = is_averaging(A, F)
    if not avg:
        raise InternalInvariantError("multiplication operator failed the averaging check")
    return A, F


# ---------------------------------------------------------------------------
# JSON wire formats

def algebra_to_json(A: StructureAlgebra) -> dict:
    R = A.ring
    return {
        "scalar": R.name,
        "dim": A.dim,
        "unit": [R.render(x) for x in A.unit],
        "mul": [[[R.render(x) for x in cell] for cell in row] for row in A.mul],
    }


def _parse_array(ring: Ring, v, depth: int) -> list:
    """Scalar literals in JSON arrays nested ``depth`` deep.  Anything else
    where an array belongs, a string in particular, is refused instead of
    being read one character at a time."""
    if not isinstance(v, list):
        raise ValueError(f"expected a JSON array, got {v!r}")
    if depth == 1:
        return [ring.parse(s) for s in v]
    return [_parse_array(ring, x, depth - 1) for x in v]


def algebra_from_json(doc: dict) -> StructureAlgebra:
    try:
        ring = ring_from_name(doc["scalar"])
        dim = doc["dim"]
        unit = _parse_array(ring, doc["unit"], 1)
        mul = _parse_array(ring, doc["mul"], 3)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algebra document: {exc}") from None
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError("dim must be a JSON integer")
    if len(unit) != dim:
        raise ValueError("unit vector length does not match dim")
    A = StructureAlgebra.make(ring, unit, mul)
    return A


def operator_to_json(F: Matrix) -> dict:
    R = F.ring
    return {"matrix": [[R.render(x) for x in row] for row in F.entries]}


def operator_from_json(ring: Ring, doc: dict) -> Matrix:
    try:
        rows = _parse_array(ring, doc["matrix"], 2)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from None
    return Matrix.from_rows(ring, rows)


def bracket_to_json(L: BracketTable) -> dict:
    R = L.ring
    return {"table": [[[R.render(x) for x in cell] for cell in row] for row in L.table]}


def bracket_from_json(ring: Ring, doc: dict) -> BracketTable:
    try:
        table = _parse_array(ring, doc["table"], 3)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed bracket document: {exc}") from None
    return BracketTable.make(ring, table)
