"""Finite-dimensional commutative unital algebras and their averaging operators.

Algebras are given by structure constants over an exact scalar ring, and a
bracket by a second table of the same type (``_Table``) on the same basis:
[x, y] = x*F(y) - y*F(x) is just another product.  On top of the basic
verification and averaging checks, this module carries the induced Lie
bracket and its structure theory: whether a bracket comes from a module
endomorphism, whether it comes from an averaging operator (with an explicit
inducing operator when it does), derived and lower central series,
nilpotency via image powers, the nilpotent radical over a domain, the
eigenstructure of inner derivations, and kernel-versus-bracket comparisons.

Identity checks quantified over the whole algebra reduce to basis pairs or
triples: every identity checked here is multilinear in its algebra
arguments, so holding on a basis is holding everywhere.  Each is decided on
one basis tuple per orbit of its symmetries, scanned in the order of the
full product so that the first failure found is the one the full scan
would report.  The symmetries used are the commutativity of
``StructureAlgebra`` and the antisymmetry of a Lie bracket.  Tuples whose
outcome a law already settles are skipped: once the unit law holds for a
unit that is a basis vector, the associativity triples holding it.
``is_averaging`` pairs the basis with generators of im F instead, as its
identity is linear in F(y), and takes a refusal's witness from the orbit
scan.  Every check forms its products with one vector v in one pass of the
product kernel: the row products e_i * v for all i (read off column j of
the table when v = c*e_j), and the pairwise products x * v of the other
vectors x the scan pairs with v (F(e_i) * b for a generator b of im F in
``is_averaging``, the Jacobi terms [e_m, [e_i, e_j]] of the Lie scan, the
products of a lower central stage or of an image power with the image).
Formed up front, they leave the scan's order and first failure unchanged.

Each invariant is checked where a table enters and then carried by the
value's type: ``StructureAlgebra.make`` refuses a table that fails the laws
(``verify_algebra``) with ``NotAnAlgebraError``, and ``BracketTable.make``
and ``raw_bracket`` one that fails the Lie scan with ``NotLieError``.  So no
function checks either again, and no check marks its argument:
``verify_algebra``, ``check_lie`` and ``check_domain`` decide on every
call.  The paper's starting theorem, that an averaging operator F induces
the Lie bracket [x, y] = x*F(y) - y*F(x), holds by hypothesis: it is
tested, not re-run, so an operator's bracket is built unchecked.  So do its
corollaries, which ``lie_analysis`` reads its series off: every bracket
lies in ker F, as F([x, y]) = F(x)F(y) - F(y)F(x) = 0; for u, v in ker F,
[u, v] = 0 and [u, y] = u*F(y); and if 1 = F(y0), each u in ker F is [u, y0].
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Union

from ._record import Record, set_field
from .exactlin import (
    Matrix,
    NotAFieldError,
    QQ,
    Ring,
    ShapeError,
    Submodule,
    Subspace,
    _apply_cols,
    _factor_q,
    _hnf,
    _modulus,
    _particular,
    _squarefree,
    char_poly,
    nullspace,
    poly_divmod,
    poly_root_mod_p,
    rational_roots,
    ring_from_name,
    rref,
    submodule_kernel,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
    zero_vec,
)


class NotAnAlgebraError(ValueError):
    """The table fails a law of a commutative associative unital algebra;
    ``failure`` is (law, indices) of the first failure, as in
    ``AlgebraReport``."""

    def __init__(self, message, failure=None):
        super().__init__(message)
        self.failure = failure


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


class NotAnAveragingIdealError(ValueError):
    pass


class InternalInvariantError(RuntimeError):
    """A fact the code relies on failed on the values it computed."""


class Check(Record):
    """Outcome of an exact identity check; witness (a tuple, or None when
    ``ok``) locates the first failure.  A pass of ``is_averaging`` also
    carries what it formed, for the operator's analyses, in private slots:
    the products ``_products[j][i]`` = e_i*F(e_j) of the columns j its
    step 1 read (all of them when F is A-linear), and the span ``_image`` of
    im F when it formed one."""

    __slots__ = ("ok", "witness", "_products", "_image")
    _defaults = (None,)

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# structure algebras

def _bilinear(R: Ring, cells, groups, y) -> list:
    """One product per term list in ``groups``: sum x_i y_j table[i][j] over
    the pairs (i, x_i) of the list, where ``cells`` is the table's sparse
    form from ``_sparse_cells``.  This is the one product kernel, behind
    ``_Table.products`` and ``row_products``, for the products of an algebra
    and the brackets of a bracket table alike.  It reads the nonzero y_j
    once for all groups, and the nonzero (k, c) of each cell.  x_i = None
    stands for 1, so the group ((i, None),) gives e_i * y from row i only.
    Each update is reduced at once with one ``% m``: a cell touches only its
    nonzero k, and x_i y_j is reduced once per (i, j), so the values stay
    small for a large modulus."""
    d = len(cells)
    if len(y) != d:
        raise ShapeError("vector length mismatch")
    m, zero = _modulus(R), R.zero
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    outs = []
    for terms in groups:
        out = [zero] * d
        for i, xi in terms:
            row = cells[i]
            for j, yj in ys:
                c = yj if xi is None else xi * yj % m
                for k, ck in row[j]:
                    out[k] = (out[k] + c * ck) % m
        outs.append(tuple(out))
    return outs


def _sparse_cells(table) -> tuple:
    """Each cell of a structure-constant table as its nonzero (k, c) pairs."""
    return tuple(tuple(tuple((k, c) for k, c in enumerate(cell) if c) for cell in row)
                 for row in table)


def _terms(x, dim: int) -> list:
    """The nonzero coordinates (i, x_i) of a vector x of length dim."""
    if len(x) != dim:
        raise ShapeError("vector length mismatch")
    return [(i, xi) for i, xi in enumerate(x) if xi]


def _by_cols(R: Ring, rows: int, cols) -> Matrix:
    # Matrix.from_cols for canonical columns: one transpose, no second read
    return Matrix(R, rows, len(cols), tuple(zip(*cols)))


class _Table(Record):
    """A bilinear map on ring^dim by its table of structure constants: the
    products of ``StructureAlgebra`` and the brackets of ``BracketTable``.
    The table's sparse form is built once, by the constructor unless the
    caller formed it with the table, and kept in the private slot
    ``_cells`` with the row groups ``_rows``; the two kernel methods read
    it.  ``_table`` references the table itself, for ``row_products``.
    Private slots are outside equality, hash and repr."""

    __slots__ = ("ring", "dim", "_cells", "_rows", "_table")

    def __init__(self, ring: Ring, dim: int, table: tuple, cells=None):
        set_field(self, "ring", ring)
        set_field(self, "dim", dim)
        set_field(self, "_table", table)
        set_field(self, "_cells", _sparse_cells(table) if cells is None else cells)
        # the groups of _bilinear that give every row product e_i * v
        set_field(self, "_rows", tuple(((i, None),) for i in range(dim)))

    @staticmethod
    def _read(ring: Ring, table, what: str, dim=None) -> tuple:
        """The reader of ``make``: the table's entries through ``ring.of``,
        and a ``ShapeError`` unless it is dim x dim x dim (dim defaults to
        its length)."""
        tab = tuple(tuple(tuple(ring.of(x) for x in cell) for cell in row) for row in table)
        dim = len(tab) if dim is None else dim
        if len(tab) != dim or any(len(row) != dim for row in tab) or any(
                len(cell) != dim for row in tab for cell in row):
            raise ShapeError(f"{what} table must be dim x dim x dim")
        return tab

    def products(self, groups, v) -> list:
        """One product with v per group of ``_bilinear``, in one pass: the
        group ``_terms(x, dim)`` gives x * v, and the rows ``_rows`` give
        every e_i * v."""
        return _bilinear(self.ring, self._cells, groups, v)

    def row_products(self, v) -> list:
        """[e_0 * v, ..., e_(d-1) * v] in one pass.  For v = c*e_j they are
        read off column j of the table, not formed: the cells e_i * e_j =
        table[i][j] themselves when c = 1, else each scaled by c."""
        nz = [(j, c) for j, c in enumerate(v) if c]
        if len(nz) != 1 or len(v) != self.dim:
            return _bilinear(self.ring, self._cells, self._rows, v)
        (j, c), = nz
        if c == 1:
            return [row[j] for row in self._table]
        m = _modulus(self.ring)
        return [tuple([c * x % m for x in row[j]]) for row in self._table]


class StructureAlgebra(_Table):
    """Commutative unital algebra by structure constants.

    ``mul[i][j]`` is the coordinate vector of e_i * e_j; ``unit`` the
    coordinates of the identity element.  ``make`` reads the entries through
    the ring, checks the shape and runs ``require_verified``, so its value
    satisfies the laws; the direct constructor takes a table that holds
    canonical values and satisfies the laws.  The identity checks in this
    module compute a product once per unordered pair of basis vectors, as
    the table is commutative.
    """

    __slots__ = ("unit", "mul")

    def __init__(self, ring: Ring, dim: int, unit: tuple, mul: tuple):
        _Table.__init__(self, ring, dim, mul)
        set_field(self, "unit", unit)
        set_field(self, "mul", mul)

    @staticmethod
    def make(ring: Ring, unit, mul) -> "StructureAlgebra":
        unit = tuple(ring.of(x) for x in unit)
        tab = _Table._read(ring, mul, "structure constant", len(unit))
        A = StructureAlgebra(ring, len(unit), unit, tab)
        require_verified(A)
        return A

    def basis_vec(self, i: int) -> tuple:
        if not 0 <= i < self.dim:
            raise ShapeError(f"basis index {i} outside range({self.dim})")
        zero = zero_vec(self.ring, self.dim - 1)
        return zero[:i] + (self.ring.one,) + zero[i:]

    # on this class, not on _Table: the benchmark's tracer wraps it here
    def mul_vec(self, a, b) -> tuple:
        return _bilinear(self.ring, self._cells, (_terms(a, self.dim),), b)[0]

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
    ``failure`` names the first failing law in that order of priority.
    Every call scans the table, commutativity by one comparison with its
    transpose; the pairs are scanned only to name the first failure.

    On a commutative table (e_a e_b) e_c = e_c (e_a e_b) is one row product
    P(e_a e_b, c) that depends only on the cell e_a e_b and c, and
    e_i (e_j e_k) is P(e_j e_k, i), so P is built once per distinct cell,
    all c in one ``row_products`` (a monomial table repeats its cells), and
    the triples only compare it.  The associator is then odd under
    i <-> k and sums to 0 over its three middles, so triples led by their
    least index decide, first failure too.  When the unit law holds and the
    unit is a basis vector e_z, every triple holding z associates, so z
    leaves the index set of P and of the scan; the first failure is still
    the full scan's.  A table that is not commutative gets the scan of
    every ordered triple, so ``associative`` stays exact there too."""
    d = range(A.dim)
    e = [A.basis_vec(i) for i in d]
    comm = None if A.mul == tuple(zip(*A.mul)) else next(
        ((i, j) for i in d for j in d if A.mul[i][j] != A.mul[j][i]), None)
    # u e_i = e_i u on a commutative table, so one pass gives them all
    ue = A.row_products(A.unit) if comm is None else [A.mul_vec(A.unit, x) for x in e]
    unit = next(((i,) for i in d if ue[i] != e[i]), None)
    if comm is None:
        # with commutativity and the unit law, (e_i e_j) e_k = e_i (e_j e_k)
        # whenever one of the three is 1
        z = tuple(A.unit) if unit is None else None
        idx = [i for i in d if e[i] != z]
        M = A.mul
        P = {c: A.row_products(c) for c in {M[a][b] for a in idx for b in idx}}
        assoc = next(((i, j, k) for n, i in enumerate(idx) for j in idx[n:] for k in idx[n:]
                      if P[M[i][j]][k] != P[M[j][k]][i]), None)
    else:
        # (e_i e_j) e_k against e_i (e_j e_k), which reads row i only
        assoc = next(((i, j, k) for i, j, k in itertools.product(d, repeat=3)
                      if A.mul_vec(A.mul[i][j], e[k]) != A.mul_vec(e[i], A.mul[j][k])), None)
    failure = next(((law, w) for law, w in (("commutativity", comm), ("unit", unit),
                                            ("associativity", assoc)) if w), None)
    return AlgebraReport(comm is None, assoc is None, unit is None, failure)


def require_verified(A: StructureAlgebra):
    """Run ``verify_algebra``; raise ``NotAnAlgebraError`` if a law fails."""
    report = verify_algebra(A)
    if not report.ok:
        raise NotAnAlgebraError(f"not a commutative unital algebra: {report.failure}",
                                report.failure)


def _require_operator(A: StructureAlgebra, F: Matrix):
    if F.ring != A.ring:
        raise ShapeError("operator ring does not match the algebra")
    if F.rows != A.dim or F.cols != A.dim:
        raise ShapeError("operator must be a dim x dim matrix")


# ---------------------------------------------------------------------------
# averaging operator checks and calculus

def is_averaging(A: StructureAlgebra, F: Matrix) -> Check:
    """F(x*F(y)) = F(x)*F(y), decided on generators of im F.  The identity
    is linear in b = F(y), so it holds exactly when F(x*b) = F(x)*b for x in
    a basis of A and b in any generating set of im F; only bilinearity and
    the commutativity of A are used.

    1. One ``row_products(F(e_j))`` pass per column j gives e_k*F(e_j) for
       every k, compared with F(e_j*e_k), F applied once per distinct cell;
       the first mismatch ends the step.  If all d passes agree, F is
       A-linear, F(a*x) = a*F(x), so F(x*F(y)) = F(y)*F(x): F is averaging.
       The passes made are the products e_i*F(e_j) of their columns, and a
       pass carries them in ``_products``.
    2. Otherwise im F is spanned once (``_span``).  If im F = A, the
       identity needs F(x*b) = F(x)*b for every b, step 1's condition, so F
       is refused.
    3. Otherwise one ``products`` pass per basis vector b of the span forms
       e_i*b and F(e_i)*b for every i, and F(e_i*b) = F(e_i)*b is checked:
       d*rank checks instead of d^2.  A pass carries the span in ``_image``.

    A refusal takes its witness from the scan of every basis pair in order
    (``_first_failing_pair``), so it is the first failure of the full scan."""
    _require_operator(A, F)
    d, m, zero = A.dim, _modulus(A.ring), A.ring.zero
    cols = list(zip(*F.entries))
    terms = [_terms(c, d) for c in cols]
    products, a_linear = _a_linear_passes(A, cols, terms)
    if a_linear:
        chk = Check(True)
        set_field(chk, "_products", products)
        return chk
    # equal columns span alike, so each is reduced once
    image = _span(A.ring, d, list(dict.fromkeys(cols)))
    if not _is_full(image, d):
        groups = (*A._rows, *terms)
        passes = (A.products(groups, b) for b in image.basis)
        if all(_apply_cols(terms, p[i], m, zero, d) == p[d + i] for p in passes for i in range(d)):
            chk = Check(True)
            set_field(chk, "_products", products)
            set_field(chk, "_image", image)
            return chk
    return Check(False, _first_failing_pair(A, cols, terms))


def _a_linear_passes(A: StructureAlgebra, cols, terms) -> tuple:
    """Step 1 of ``is_averaging``: (P, whether F is A-linear), with P[j] =
    ``row_products(F(e_j))`` for the columns up to the first mismatch of
    e_k*F(e_j) with F(e_j*e_k), that column included."""
    d, m, zero = A.dim, _modulus(A.ring), A.ring.zero
    f_cell, products = {}, []
    for c, cells in zip(cols, A.mul):
        products.append(A.row_products(c))
        for cell, p in zip(cells, products[-1]):
            fc = f_cell.get(cell)
            if fc is None:
                fc = f_cell[cell] = _apply_cols(terms, cell, m, zero, d)
            if fc != p:
                return products, False
    return products, True


def _first_failing_pair(A: StructureAlgebra, cols, terms) -> tuple:
    # the scan of every basis pair in order: one kernel pass per column j
    # forms e_i*F(e_j) for every i and F(e_i)*F(e_j) for i <= j only, as a
    # pair i > j reads the pass of column i, A being commutative
    d, m, zero = A.dim, _modulus(A.ring), A.ring.zero
    # passes[j][i] = e_i*F(e_j), passes[j][d + i] = F(e_i)*F(e_j) for i <= j
    passes = [A.products((*A._rows, *terms[:j + 1]), c) for j, c in enumerate(cols)]
    for i in range(d):
        for j in range(d):
            rhs = passes[i][d + j] if j < i else passes[j][d + i]
            if _apply_cols(terms, passes[j][i], m, zero, d) != rhs:
                return (i, j)
    raise InternalInvariantError("is_averaging refused an operator the pair scan accepts")


def _is_full(span, dim: int) -> bool:
    """Whether a ``_span`` is all of ring^dim: a canonical basis of dim rows
    has its pivots on the diagonal, and they are units, so 1, exactly when
    it spans everything."""
    return len(span.basis) == dim and all(b[i] == 1 for i, b in enumerate(span.basis))


def is_unitary(A: StructureAlgebra, F: Matrix) -> bool:
    _require_operator(A, F)
    return F.apply(A.unit) == tuple(A.unit)


def is_reynolds_averaging(A: StructureAlgebra, F: Operator) -> Check:
    """F(F(x)F(y)) = F(x)F(y) for an averaging F, on basis pairs.  The
    averaging identity gives F(e_i)F(e_j) = F(p) for the product
    p = e_i*F(e_j) that the operator's check formed, so the identity at
    (i, j) reads F(F(p)) = F(p).  Both sides are symmetric in the pair, and
    a failure at (i, j) with j < i is met first at (j, i), so only i <= j is
    checked."""
    op = averaging_operator(A, F)
    P = _column_products(op)
    for i, j in itertools.combinations_with_replacement(range(A.dim), 2):
        fp = op.matrix.apply(P[j][i])
        if op.matrix.apply(fp) != fp:
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
    """F+G; averaging under the cross compatibility identity
    F(x*G(y)) + G(x*F(y)) = F(x)G(y) + G(x)F(y).  By bilinearity that
    identity at a basis pair is the averaging identity of F+G less those of
    F and G, so for averaging F and G it is decided by ``is_averaging`` of
    F+G, with the same witness pair."""
    avg_f, avg_g = is_averaging(A, F), is_averaging(A, G)
    H = F.add(G)
    cross = is_averaging(A, H) if avg_f and avg_g else Check(True)
    cert = Certificate(
        "operands are averaging and satisfy the cross compatibility identity",
        avg_f.ok and avg_g.ok and cross.ok, avg_f.witness or avg_g.witness or cross.witness)
    return H, cert


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

class BracketTable(_Table):
    """Bracket structure constants: table[i][j] = coordinates of [e_i, e_j].
    ``products(groups, v)`` gives the brackets [x, v] and ``row_products(v)``
    every [e_i, v], as the products of ``StructureAlgebra``.  ``make`` reads
    the entries through the ring, checks the shape and runs the Lie scan, so
    its value is a Lie bracket; the direct constructor takes a table that
    holds canonical values and is a Lie bracket."""

    __slots__ = ("table",)

    def __init__(self, ring: Ring, dim: int, table: tuple, cells=None):
        _Table.__init__(self, ring, dim, table, cells)
        set_field(self, "table", table)

    @staticmethod
    def make(ring: Ring, table) -> "BracketTable":
        tab = _Table._read(ring, table, "bracket")
        return _require_lie(BracketTable(ring, len(tab), tab))


def _lie_failure(L: BracketTable):
    """The first failure of alternation, antisymmetry or Jacobi on the basis,
    as (law, indices), or None.  Once the table is antisymmetric, one
    ``row_products`` per cell [e_i, e_j], i < j, gives every
    [e_m, [e_i, e_j]], and the triples i < j < k are scanned in order over
    these C(d, 2) passes, so the witness is the full scan's."""
    R, d, m = L.ring, L.dim, _modulus(L.ring)
    for i in range(d):
        if any(L.table[i][i]):
            return ("alternating", (i,))
        # the relation is symmetric in (i, j) and holds on the zero diagonal,
        # so the pairs j <= i passed with row j
        for j in range(i + 1, d):
            if L.table[i][j] != tuple([-x % m for x in L.table[j][i]]):
                return ("antisymmetry", (i, j))
    # the table is antisymmetric here, so [[e_i,e_j],e_k] = -[e_k,[e_i,e_j]]
    # and the Jacobi sum is zero exactly when the row-product sum
    # [e_k,[e_i,e_j]] + [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] is, whose last
    # term is -[e_j,[e_i,e_k]]; rb[i, j][m] = [e_m, [e_i, e_j]]
    rb = {(i, j): L.row_products(L.table[i][j]) for i, j in itertools.combinations(range(d), 2)}
    for i, j, k in itertools.combinations(range(d), 3):
        if any(vec_sub(R, vec_add(R, rb[i, j][k], rb[j, k][i]), rb[i, k][j])):
            return ("jacobi", (i, j, k))
    return None


def _require_lie(L: BracketTable) -> BracketTable:
    witness = _lie_failure(L)
    if witness:
        raise NotLieError(f"not a Lie bracket: {witness}")
    return L


def _require_bracket(A: StructureAlgebra, L: BracketTable):
    if L.dim != A.dim or L.ring != A.ring:
        raise ShapeError("bracket does not match the algebra")


def check_lie(A: StructureAlgebra, L: BracketTable) -> Check:
    """The Lie scan of ``make`` on a bracket of A's dim and ring, every call."""
    _require_bracket(A, L)
    witness = _lie_failure(L)
    return Check(witness is None, witness)


def _bracket_table(A: StructureAlgebra, products) -> BracketTable:
    """[e_i, e_j] = e_i*F(e_j) - e_j*F(e_i) with products[j][i] = e_i*F(e_j).
    The formula is alternating for every F, so only i < j is computed, and
    the diagonal of ``products`` is never read.  A cell whose two products
    are equal is the zero vector, found by one comparison; every cell of a
    multiplication operator's bracket is one.  The sparse cells of the
    bracket are read off the nonzeros as they are formed."""
    R, d, m = A.ring, A.dim, _modulus(A.ring)
    zero = zero_vec(R, d)
    table = [[zero] * d for _ in range(d)]
    cells = [[()] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if products[j][i] != products[i][j]:
                g = [(x - y) % m for x, y in zip(products[j][i], products[i][j])]
                h = [-x % m for x in g]
                table[i][j], table[j][i] = tuple(g), tuple(h)
                cells[i][j] = tuple([(k, x) for k, x in enumerate(g) if x])
                cells[j][i] = tuple([(k, x) for k, x in enumerate(h) if x])
    return BracketTable(R, d, tuple(tuple(row) for row in table),
                        tuple(tuple(row) for row in cells))


def raw_bracket(A: StructureAlgebra, F: Matrix) -> BracketTable:
    """[x,y] = x*F(y) - y*F(x) for an arbitrary endomorphism F.

    No averaging requirement, but the result must still pass the Lie axioms
    or this raises ``NotLieError``.
    """
    _require_operator(A, F)
    return _require_lie(_bracket_table(A, [A.row_products(c) for c in zip(*F.entries)]))


class AveragingOperator(Record):
    """An operator checked to be averaging on ``algebra``; built only by
    ``averaging_operator``.  The analyses take an ``Operator``: this value,
    or a bare matrix they check through ``averaging_operator``.

    The induced bracket ``bracket`` is built on first use; callers that
    never read it do not pay for it.  It is a Lie bracket by the paper's
    starting theorem, whose hypotheses the algebra and the operator carry,
    so it is built with no Lie scan (``tests/test_bracket_theorem.py`` tests
    the theorem).  It is the difference of two products e_i*F(e_j), read by
    ``_column_products``: those ``is_averaging`` formed ride along in the
    private slot ``_products`` (all of them when F is A-linear), and the
    rest are built on first read, one ``row_products`` per column, and kept
    there, so no product is computed twice.  When ``is_averaging`` spanned
    im F, the span rides along in ``_image`` for the analyses that read it
    (``_image``).  The built bracket is kept in the private slot
    ``_bracket``.  Private slots are outside equality, hash and repr.
    """

    __slots__ = ("algebra", "matrix", "_products", "_image", "_bracket")

    @property
    def bracket(self) -> BracketTable:
        try:
            return self._bracket
        except AttributeError:
            pass
        L = _bracket_table(self.algebra, _column_products(self))
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
    op = AveragingOperator(A, F)
    set_field(op, "_products", avg._products)
    if hasattr(avg, "_image"):
        set_field(op, "_image", avg._image)
    return op


def _column_products(op: AveragingOperator) -> list:
    """P[j][i] = e_i*F(e_j): the rows ``is_averaging`` carried, the rest
    built here on first read, one ``row_products`` per column, and kept in
    ``_products``."""
    P = op._products
    if len(P) < op.matrix.cols:
        P = P + [op.algebra.row_products(c) for c in list(zip(*op.matrix.entries))[len(P):]]
        set_field(op, "_products", P)
    return P


def induced_bracket(A: StructureAlgebra, F: Operator) -> BracketTable:
    """The bracket of an averaging operator; refuses non-averaging input."""
    return averaging_operator(A, F).bracket


# ---------------------------------------------------------------------------
# endomorphism- and averaging-induced brackets

def endo_induced_check(A: StructureAlgebra, L: BracketTable) -> Check:
    """[x,y] = x[1,y] + y[x,1] on basis pairs (both sides bilinear).  L is a
    Lie bracket, so both sides are antisymmetric in the pair and vanish on
    the diagonal; only i < j is checked, and [1, e_j] is -[e_j, 1]."""
    return _endo_check(A, L, L.row_products(A.unit))


def _endo_check(A: StructureAlgebra, L: BracketTable, cols) -> Check:
    # endo_induced_check, given the columns cols[i] = [e_i, 1] of E = [., 1]
    rows = [A.row_products(x) for x in cols]  # rows[i][j] = e_j*[e_i, 1]
    for i, j in itertools.combinations(range(A.dim), 2):
        if L.table[i][j] != vec_sub(A.ring, rows[i][j], rows[j][i]):
            return Check(False, (i, j))
    return Check(True)


def gamma_subalgebra(A: StructureAlgebra, L: BracketTable) -> Subspace:
    """Gamma = {a : [a*x, y] = a*[x, y]}, the linear conditions solved exactly.

    L must match A (else ``ShapeError``) and pass ``endo_induced_check``
    (else ``ValueError`` naming the failing pair).  Then
    [x, y] = x*D(y) - y*D(x) with D = [1, .], so
    [a*x, y] - a*[x, y] = y*(a*D(x) - D(a*x)), and y = 1 shows
    Gamma = {a : D(a*e_i) = a*D(e_i) for every i}.  At x = 1 that reads
    D(a) = a*D(1) = a*[1, 1] = 0: Gamma lies in ker D and holds 1.
    """
    _require_bracket(A, L)
    E_cols = L.row_products(A.unit)
    endo = _endo_check(A, L, E_cols)
    if not endo:
        raise ValueError(f"bracket is not endomorphism-induced (witness pair {endo.witness})")
    return _gamma(A, _by_cols(A.ring, A.dim, E_cols))


def _gamma(A: StructureAlgebra, E: Matrix) -> Subspace:
    """Gamma for E = [., 1] = -D, solved inside ker E: x = 1 in
    D(a*x) = a*D(x) gives D(a) = a*D(1) = a*[1, 1] = 0, so Gamma lies in
    ker E and holds 1.  The conditions are linear, so Gamma is the line of 1
    plus the solutions among the other vectors w of a basis of ker E that
    holds 1; block i of the condition column of w is E(w*e_i) - w*E(e_i),
    column i of E M - M E for M the multiplication by w.  In the reduced
    basis of ker E one vector is nonzero at the first p with 1_p nonzero, as
    1 is in ker E; 1 and the vectors zero at p are a basis of ker E."""
    R, d, m = A.ring, A.dim, _modulus(A.ring)
    p = next((j for j, x in enumerate(A.unit) if x), 0)
    others = [v for v in nullspace(E).basis if not v[p]]
    mults = [_mult_matrix(A, w) for w in others]
    cols = [sum(E.mul(M).sub(M.mul(E)).entries, ()) for M in mults]
    rows = tuple(row for row in zip(*cols) if any(row))
    sols = nullspace(Matrix(R, len(rows), len(others), rows)).basis
    terms = [_terms(w, d) for w in others]
    gamma = [A.unit, *(_apply_cols(terms, x, m, R.zero, d) for x in sols)]
    return Subspace(R, d, _hnf(R, d, gamma))


class NotEndoInduced(Record):
    __slots__ = ("witness",)


class InduceNoSolution(Record):
    __slots__ = ()


class Induced(Record):
    __slots__ = ("t", "operator")  # tuple, Matrix


InduceResult = Union[NotEndoInduced, InduceNoSolution, Induced]


def _complement(ring: Ring, basis, dim: int):
    """(delta, project) for independent vectors ``basis``: delta is the greedy
    completion by standard basis vectors, and project(v) gives the
    delta-coordinates of v in the basis [basis | delta].

    One rref of [basis | I]: the basis columns take the first pivots, and a
    pivot in the I-block is a column outside the span of those before it.
    The reduced I-block is the row transform E, and E [basis | delta] is the
    identity, so E is the inverse of [basis | delta] and its last rows give
    the delta-coordinates.
    """
    p = len(basis)
    ident = Matrix.identity(ring, dim).entries
    red, pivots = rref(_by_cols(ring, dim, list(basis) + list(ident)))
    tail = [row[p:] for row in red.entries[p:]]
    return ([ident[c - p] for c in pivots[p:]],
            lambda v: tuple(vec_dot(ring, row, v) for row in tail))


def induced_by_averaging(A: StructureAlgebra, L: BracketTable) -> InduceResult:
    """Decide whether L is the bracket of some averaging operator.

    An L of another dim or ring raises ``ShapeError``.  Steps, on the columns
    [e_i, 1] = -D(e_i) of E = [., 1], built once: the endomorphism
    criterion, [x, y] = x*D(y) - y*D(x) with D = [1, .]; Gamma, solved
    inside ker E as in ``gamma_subalgebra``; one rref that completes its
    basis by delta_1, delta_2, ... and inverts the completed basis
    (``_complement``); one rref of the stacked system for the
    Gamma-coordinates of t.  A solution gives F = D + t*(.), returned
    unchecked, as it is averaging and induces L:

    - D(1) = [1, 1] = 0.
    - Gamma = {a : D(a*x) = a*D(x) for all x} is a subalgebra, and D
      vanishes on it, as D(y) = y*D(1) = 0 for y in Gamma.
    - F(x*F(y)) - F(x)*F(y) = D(x*F(y)) - D(x)*F(y), as the t-terms cancel,
      so F is averaging exactly when im F lies in Gamma.
    - t = F(1) must lie in Gamma, so the system solves for its
      Gamma-coordinates.  Then F(y) = t*y lies in Gamma for y in Gamma, so
      im F lies in Gamma exactly when each F(delta_j) does: the equations
      of the system.
    - On a commutative table the t-terms of x*F(y) - y*F(x) cancel, so the
      bracket of F is x*D(y) - y*D(x) = L.
    """
    if not A.ring.is_field:
        raise NotAFieldError("the averaging-induced decision needs field scalars")
    _require_bracket(A, L)
    E_cols = L.row_products(A.unit)
    endo = _endo_check(A, L, E_cols)
    if not endo:
        return NotEndoInduced(endo.witness)
    R, n = A.ring, A.dim
    E = _by_cols(R, n, E_cols)
    eps = _gamma(A, E).basis
    delta, project = _complement(R, eps, n)
    eps_terms = [_terms(ei, n) for ei in eps]
    rows, rhs = [], []
    for dj in delta:
        # delta-coordinates of eps_i * delta_j fill the system matrix, those
        # of -D(delta_j) = [delta_j, 1] the right-hand side
        coords = [project(p) for p in A.products(eps_terms, dj)]
        rows.extend(tuple(c[k] for c in coords) for k in range(len(delta)))
        rhs.extend(project(E.apply(dj)))
    x = _particular(Matrix(R, len(rows), len(eps), tuple(rows)), tuple(rhs))
    if x is None:
        return InduceNoSolution()
    t = _apply_cols(eps_terms, x, _modulus(R), R.zero, n)  # sum x_i eps_i
    cols = [vec_sub(R, p, c) for p, c in zip(A.row_products(t), E_cols)]
    return Induced(t, _by_cols(R, n, cols))


# ---------------------------------------------------------------------------
# series, nilpotency, radical

class SeriesResult(Record):
    """``stages`` is the Subspace chain, stage 0 first, truncated at
    stabilization."""

    __slots__ = ("stages", "reaches_zero")

    def stage(self, k: int) -> Subspace:
        return self.stages[min(k, len(self.stages) - 1)]


def _series(A: StructureAlgebra, nxt, step) -> SeriesResult:
    """Stage 0 is A, stage 1 ``nxt``, and stage k+1 the span of the vectors
    ``step(basis)`` for the basis of stage k (stage 1 again when ``step`` is
    None).  Stops at a repeated or a zero stage."""
    R, d = A.ring, A.dim
    stages = [Subspace.full(R, d)]
    while nxt != stages[-1]:
        stages.append(nxt)
        if nxt.is_zero() or step is None:
            break
        nxt = Subspace(R, d, _hnf(R, d, step(nxt.basis)))
    return SeriesResult(tuple(stages), stages[-1].is_zero())


def derived_series(A: StructureAlgebra, L: BracketTable) -> SeriesResult:
    """L^(k+1) = [L^(k), L^(k)] over a field.  L is alternating, so a stage
    is spanned by the brackets of its basis pairs x < y: one kernel pass per
    y forms [x, y] for the x before it."""
    def brackets(basis):
        terms = [_terms(x, A.dim) for x in basis]
        return [g for b in range(1, len(basis)) for g in L.products(terms[:b], basis[b])]
    return _series(A, Subspace.span(A.ring, A.dim, _bracket_cells(L)), brackets)


def lower_central_series(A: StructureAlgebra, L: BracketTable) -> SeriesResult:
    """L_(k+1) = [L_k, A] over a field.  A stage is spanned by
    [e_j, x] = -[x, e_j] for x in its basis: one kernel pass per x."""
    return _series(A, Subspace.span(A.ring, A.dim, _bracket_cells(L)),
                   lambda basis: [g for x in basis for g in L.row_products(x)])


class Nilpotent(Record):
    __slots__ = ("k",)  # least k with image^k inside the bracket annihilator


class NotNilpotent(Record):
    __slots__ = ("stable",)  # the stabilized image power (Subspace or Submodule)


def _span(R: Ring, dim: int, vectors):
    """The span of canonical ``vectors``: a Subspace over a field, a
    canonical Submodule over composite Z/n; either way, equal values are
    equal spans.  No vectors span 0 with no elimination."""
    basis = _hnf(R, dim, vectors) if vectors else ()
    return (Subspace if R.is_field else Submodule)(R, dim, basis)


def _bracket_cells(L: BracketTable) -> list:
    """The cells [e_i, e_j] with i < j: they span all brackets, since L is
    alternating."""
    return [L.table[i][j] for i, j in itertools.combinations(range(L.dim), 2)]


def _bracket_span(L: BracketTable):
    return _span(L.ring, L.dim, _bracket_cells(L))


def _spans(op: AveragingOperator) -> tuple:
    """(B, im F, whether 1 is in im F).  A bracket with no nonzero cell (a
    multiplication operator's) gives B = 0 with no elimination, and the
    flag False: B = 0 settles the rest.  Otherwise the test runs once, exact
    over every ring, and B is the span C of the d brackets [e_i, 1] if C
    fills (``kernel_equals_brackets``), else the span of the cells."""
    A, L, image = op.algebra, op.bracket, _image(op)
    if not any(map(any, L._cells)):
        return _span(A.ring, A.dim, ()), image, False
    if _is_full(image, A.dim) or image.contains_vector(A.unit):
        C = _span(A.ring, A.dim, L.row_products(A.unit))
        return (C if _fills(A.ring, A.dim, C, image) else _bracket_span(L)), image, True
    return _bracket_span(L), image, False


def _kernel(M: Matrix):
    """ker M as a Subspace over a field, a canonical Submodule over composite Z/n."""
    return nullspace(M) if M.ring.is_field else submodule_kernel(M.ring, M)


def nilpotency_check(A: StructureAlgebra, F: Operator):
    """Iterate powers of the operator image against the bracket annihilator.

    The image of an averaging operator is closed under multiplication, so
    the powers descend; the check returns the least power contained in
    {a : a*[x,y] = 0 for all x, y} or the stabilized power if none is.
    A power is contained when its basis times the brackets' basis is 0.
    Works over fields via subspaces and over Z/n via canonical submodules.
    """
    return _nilpotency(A, *_spans(averaging_operator(A, F)))


def _image(op: AveragingOperator):
    """The span of im F: carried from ``is_averaging`` when it spanned the
    columns, else spanned here, the columns read in one transpose."""
    try:
        return op._image
    except AttributeError:
        F = op.matrix
        return _span(F.ring, F.rows, list(zip(*F.entries)))


def _nilpotency(A: StructureAlgebra, brackets, image, unital: bool):
    # nilpotency_check, given ``_spans``; the product is bilinear and each
    # basis generates its span as a module, so basis pairs decide the
    # containment.  One kernel pass per basis vector u of the power forms
    # g*u for the bracket generators g and v*u for the image generators v
    # (u*v, as A is commutative).  If 1 is in im F, every power is im F,
    # which holds 1, so none kills B != 0
    R, d = A.ring, A.dim
    if brackets.is_zero():
        return Nilpotent(1)  # every power annihilates the zero span
    if unital:
        return NotNilpotent(image)
    groups = [_terms(x, d) for x in (*brackets.basis, *image.basis)]
    nb = len(brackets.basis)
    power = image
    k = 1
    while True:
        passes = [A.products(groups, u) for u in power.basis]
        if all(not any(g) for p in passes for g in p[:nb]):
            return Nilpotent(k)
        nxt = _span(R, d, [v for p in passes for v in p[nb:]])
        if nxt == power:
            return NotNilpotent(power)
        power = nxt
        k += 1


class DomainCertificate(Record):
    """Why check_domain accepted.

    Over Q, A = Q[a] for the primitive element ``element``, whose
    characteristic polynomial ``poly`` is "irreducible": its factorisation
    over Q, lifted from the one mod the prime in ``primes``, has one
    factor.  "dimension 1" needs no element; over Z/p the reason is
    "frobenius".
    """

    __slots__ = ("reason", "element", "poly", "primes")
    _defaults = (None, None, ())


def _mult_matrix(A: StructureAlgebra, a) -> Matrix:
    """The matrix of x -> a*x.  Column i is a*e_i = e_i*a, which reads row i
    only, as A is commutative."""
    return _by_cols(A.ring, A.dim, A.row_products(a))


def _zero_divisor(A: StructureAlgebra, w, why: str) -> NotADomainError:
    """The refutation naming w as a zero divisor, with a nonzero partner
    from the kernel of multiplication by w."""
    R = A.ring

    def show(v):
        return "(" + ", ".join(R.render(x) for x in v) + ")"

    ker = nullspace(_mult_matrix(A, w))
    if not any(w) or ker.is_zero():
        raise InternalInvariantError(f"{show(w)} ({why}) is not a zero divisor")
    z = ker.basis[0]
    return NotADomainError(f"{show(w)} is a zero divisor ({why}): "
                           f"its product with {show(z)} is 0", w, z)


def check_domain(A: StructureAlgebra) -> DomainCertificate:
    """Decide exactly whether A is a domain, that is, a field.

    A must be over Q or Z/p.  Two outcomes: a ``DomainCertificate`` when A
    is a field, and otherwise ``NotADomainError`` naming a nonzero zero
    divisor and its partner.  Every call decides, and A is not marked.

    Over Q: A = Q[t]/(chi_a) for an element a whose characteristic
    polynomial chi_a is squarefree, when A is reduced, and A is a field
    exactly when chi_a is irreducible.  The first non-scalar basis vector
    is tried first: a zero constant term refutes, and a squarefree chi_a
    proves A reduced at once.  Only otherwise is the radical of the trace
    form (a, b) -> Tr(L_ab), the nilradical, computed: a nonzero radical
    vector refutes as nilpotent, and a zero radical sends the search on
    to the next candidates.  So a non-reduced A may be refuted by a
    singular basis vector rather than a nilpotent one.  The first
    squarefree chi_a is factored over Q (``exactlin._factor_q``): one
    factor certifies A a field; otherwise g(a) refutes, for g the first
    factor in ascending (degree, coefficients) order, since chi_a is
    squarefree and so the minimal polynomial of a: g(a) is nonzero and
    g(a)·(chi_a/g)(a) = chi_a(a) = 0.  Over Z/p: A is a field exactly when
    the Frobenius map x -> x^p is injective and fixes only the line of 1.
    """
    R = A.ring
    if not R.is_field:
        raise NotAFieldError("domain check needs field scalars")
    if A.dim == 0:
        raise NotADomainError("the zero ring is not a domain")
    return _check_domain_q(A) if R == QQ else _check_domain_zp(A)


def _check_domain_q(A: StructureAlgebra) -> DomainCertificate:
    R, d = A.ring, A.dim
    # a squarefree chi_a makes a primitive and A = Q[t]/(chi_a) reduced, so
    # the trace-form radical is needed only when the first candidate's is not
    candidates = _candidates(A)
    a, chi = next(candidates, (None, None))
    if chi is None or not _squarefree(R, chi):
        traces = [sum(A.mul[s][k][k] for k in range(d)) % _modulus(R) for s in range(d)]
        gram = Matrix(R, d, d, tuple(tuple(vec_dot(R, A.mul[i][j], traces) for j in range(d))
                                     for i in range(d)))
        radical = nullspace(gram)
        if not radical.is_zero():
            raise _zero_divisor(A, radical.basis[0], "nilpotent")
        if d == 1:
            return DomainCertificate("dimension 1")
        a, chi = next(((a, chi) for a, chi in candidates if _squarefree(R, chi)), (None, None))
        if chi is None:
            raise InternalInvariantError("a reduced algebra has no primitive element")
    p, factors = _factor_q(chi)
    if len(factors) == 1:
        return DomainCertificate("irreducible", a, chi, (p,))
    g, w = factors[0], zero_vec(R, d)
    for c in reversed(g):
        w = vec_add(R, A.mul_vec(w, a), vec_scale(R, c, A.unit))
    raise _zero_divisor(A, w, "g(a) for the factor g of chi_a with ascending coefficients "
                        f"({', '.join(map(R.render, g))})")


def _candidates(A: StructureAlgebra):
    """(a, chi_a) for the primitive-element candidates a that are not
    scalars: basis vectors first, then sum c^i e_i for c = 1, 2, ...  In a
    reduced A one of them has chi_a squarefree, so 1, a, ..., a^(d-1) is a
    basis: each of the d(d-1)/2 pairs of embeddings of A agrees on at most
    d - 1 of the sums, which bounds the search.  A candidate with
    chi_a(0) = 0 is singular and refutes the domain on the way."""
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
        yield a, chi


def _check_domain_zp(A: StructureAlgebra) -> DomainCertificate:
    # x -> x^p is linear; it is injective exactly when A is reduced, and then
    # its fixed space is F_p^r for A = F_(p^k1) x ... x F_(p^kr)
    R, d = A.ring, A.dim
    frob = _by_cols(R, d, [A.power_vec(A.basis_vec(i), R.n) for i in range(d)])
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
    """Over a domain (``check_domain``): the whole space when ker F = 0, else ker F."""
    check_domain(A)
    ker = nullspace(averaging_operator(A, F).matrix)
    return Subspace.full(A.ring, A.dim) if ker.is_zero() else ker


def ad_eigen(A: StructureAlgebra, F: Operator, a) -> tuple:
    """Eigenvalues in Q with eigenspaces of ad_a: x -> a*F(x) - x*F(a): 0
    with nullspace(ad_a), and -mu with ker F ∩ ker(M - mu) for each
    rational eigenvalue mu != 0 of the multiplication M by F(a) on ker F.

    Let ad_a(x) = lam*x with lam != 0.  F kills every bracket, so
    lam*F(x) = F(a)F(x) - F(x)F(a) = 0: x lies in ker F, and
    ad_a(x) = -x*F(a) there.  ker F is stable under im F, as
    F(u*F(y)) = F(u)F(y) = 0 for u in ker F, so M maps ker F to itself and
    the -mu are the nonzero eigenvalues.  No root is needed when ker F = 0
    (0 alone) or F(a) = k*1 (-k with ker F if k != 0), the only cases over
    a domain, where F(a)*x = mu*x with x != 0 gives F(a) = mu*1; otherwise
    the mu are roots of M's characteristic polynomial.  0 is always an
    eigenvalue: ad_a(a) = 0, and ad_0 = 0.  ad_a is read off the products
    P[j][i] = e_i*F(e_j) of the averaging check, with no bracket table:
    ad_a(e_i) = sum_k a_k*(P[i][k] - P[k][i]), and a pair with equal
    products (every pair, for a multiplication operator) adds 0.
    """
    if A.ring != QQ:
        raise NotAFieldError("eigen analysis is implemented over Q")
    op = averaging_operator(A, F)
    R, m, d, P = A.ring, _modulus(A.ring), A.dim, _column_products(op)
    a = tuple(R.of(x) for x in a)
    cols = [[R.zero] * d for _ in range(d)]
    for i, (k, ak) in itertools.product(range(d), _terms(a, d)):
        if P[i][k] != P[k][i]:
            cols[i] = [(c + ak * (x - y)) % m for c, x, y in zip(cols[i], P[i][k], P[k][i])]
    pairs = [(R.zero, nullspace(_by_cols(R, d, cols)))]
    ker = nullspace(op.matrix)
    fa = None if ker.is_zero() else op.matrix.apply(a)
    k = None if fa is None else _proportionality(R, fa, A.unit)
    if k:
        pairs.append((-k % m, ker))
    elif fa is not None and k is None:
        M = _mult_matrix(A, fa)
        for mu in set(rational_roots(char_poly(M))) - {R.zero}:
            shifted = M.sub(Matrix.identity(R, d).scale(mu)).entries
            space = nullspace(Matrix(R, 2 * d, d, op.matrix.entries + shifted))
            if not space.is_zero():
                pairs.append((-mu % m, space))
    return tuple(sorted(pairs))


def _proportionality(R: Ring, v, w):
    """k with v = k*w, or None."""
    idx = next((i for i, x in enumerate(w) if x), None)
    if idx is None:
        return None
    k = v[idx] * R.inv(w[idx]) % _modulus(R)
    return k if vec_scale(R, k, w) == tuple(v) else None


class KernelBracketResult(Record):
    """``kernel`` and ``brackets`` are both Subspaces or both Submodules."""

    __slots__ = ("equal", "kernel", "brackets")


def kernel_equals_brackets(A: StructureAlgebra, F: Operator) -> KernelBracketResult:
    """Compare ker F with the span B of all basis brackets, exactly.

    Over a field both sides are subspaces; over Z/n both sides are canonical
    submodules, so equal values are equal spans.  B lies in ker F (module
    docstring) and |ker F|*|im F| = |A|, so B = ker F exactly when
    dim B + dim im F = d over a field, |B|*|im F| = n^d over Z/n, a Howell
    form's order being the product of n/g over its pivots g (``_fills``).
    So only an unequal comparison solves for ker F; an equal one is
    (True, B, B).  If 1 = F(y0) is in im F, each u in ker F is a bracket,
    [u, y0] = u*F(y0) - y0*F(u) = u, so B = ker F; and the span C of the d
    brackets [e_i, 1] lies in B, so C = B when it fills: |C|*|im F| = |A|.
    """
    op = averaging_operator(A, F)
    return _kernel_comparison(op, *_spans(op)[:2])


def _fills(R: Ring, d: int, span, image) -> bool:
    """|span|*|im F| = |A|: the sizes of two canonical spans."""
    rows = (*span.basis, *image.basis)
    return (len(rows) == d if R.is_field else
            prod(R.n // next(filter(None, b)) for b in rows) == R.n ** d)


def _kernel_comparison(op: AveragingOperator, brackets, image) -> KernelBracketResult:
    if _fills(op.matrix.ring, op.matrix.rows, brackets, image):
        return KernelBracketResult(True, brackets, brackets)
    return KernelBracketResult(False, _kernel(op.matrix), brackets)


class LieAnalysis(Record):
    """Structure report for the bracket of one averaging operator: a
    BracketTable, two SeriesResults (None over non-field scalars), a
    Nilpotent or NotNilpotent, and a KernelBracketResult."""

    __slots__ = ("bracket", "derived", "lower_central", "nilpotency",
                 "kernel_comparison")


def lie_analysis(A: StructureAlgebra, F: Operator) -> LieAnalysis:
    """Bracket, series, nilpotency, and kernel comparison in one pass; all
    four share the span B of the brackets (``_spans``), which over a field
    is stage 1 of both series, and the span of im F.  The series form no
    bracket (see the module docstring): B lies in ker F, so [B, B] = 0, and
    each lower central stage after B spans the products of the one before
    with im F: B itself if 1 is in im F (B = ker F is stable under im F,
    and 1*B = B), so then no stage is formed.  The kernel comparison reads
    B = ker F off the sizes of B and im F."""
    op = averaging_operator(A, F)
    brackets, image, unital = _spans(op)
    ds = lc = None
    if A.ring.is_field:
        groups = [_terms(v, A.dim) for v in image.basis]
        lc = _series(A, brackets, None if unital else
                     lambda us: [p for u in us for p in A.products(groups, u)])
        # A, B, 0; or A, 0 (A for d = 0) as the lower central series when B = 0
        zero = Subspace(A.ring, A.dim, ())
        ds = lc if brackets.is_zero() else SeriesResult((*lc.stages[:2], zero), True)
    return LieAnalysis(op.bracket, ds, lc, _nilpotency(A, brackets, image, unital),
                       _kernel_comparison(op, brackets, image))


# ---------------------------------------------------------------------------
# quotients and primary algebras

def quotient_by_averaging_ideal(A: StructureAlgebra, F: Matrix, ideal: Subspace):
    """Quotient algebra and induced operator by an F-invariant ideal.

    The ideal test multiplies each generator u by every e_i as e_i*u,
    which equals u*e_i because A is commutative.  The quotient of an algebra
    by an ideal is an algebra, and an F-invariant ideal makes F well defined
    on the classes, where the averaging identity holds on representatives;
    so neither result is checked again, and the quotient's canonical table
    goes to the direct constructor."""
    if not A.ring.is_field:
        raise NotAFieldError("quotients are implemented over field scalars")
    _require_operator(A, F)
    if ideal.ambient_dim != A.dim or ideal.ring != A.ring:
        raise ShapeError("ideal does not live in this algebra")
    R = A.ring
    for u in ideal.basis:
        for i, p in enumerate(A.row_products(u)):
            if not ideal.contains_vector(p):
                raise NotAnAveragingIdealError(
                    f"not an ideal: generator times basis element {i} escapes")
        if not ideal.contains_vector(F.apply(u)):
            raise NotAnAveragingIdealError("ideal is not invariant under the operator")
    if ideal.is_full():
        raise ValueError("quotient by the whole algebra is the zero ring, not unital")
    comp, project = _complement(R, ideal.basis, A.dim)
    q = len(comp)
    unit2 = project(A.unit)
    comp_terms = [_terms(c, A.dim) for c in comp]
    prods = [A.products(comp_terms, c) for c in comp]  # prods[j][i] = comp_i comp_j
    mul2 = tuple(tuple(tuple(project(prods[j][i])) for j in range(q)) for i in range(q))
    return (StructureAlgebra(R, q, unit2, mul2),
            _by_cols(R, q, [project(F.apply(comp[j])) for j in range(q)]))


def primary_from_poly(coeffs) -> tuple:
    """Q[y]/(p) with the class-of-y multiplication operator, p monic.

    The operator realizes the generator action of the one-generator free
    object's quotients; instances have no proper averaging subalgebras and
    serve as a family of verified test algebras.  Multiplication by y is
    averaging on a commutative algebra, as y*x*y*z = (y*x)*(y*z), so only
    the algebra is verified.
    """
    coeffs = [QQ.of(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree at least 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    d = len(coeffs) - 1
    # y^k mod p, padded to length d; the multiplication table needs k up to
    # 2d-2 and the operator column for the top basis vector needs k = d
    rems = (poly_divmod(QQ, (QQ.zero,) * k + (QQ.one,), coeffs)[1]
            for k in range(max(2 * d - 1, d + 1)))
    powers = [r + (QQ.zero,) * (d - len(r)) for r in rems]
    mul = tuple(tuple(powers[i + j] for j in range(d)) for i in range(d))
    unit = tuple(QQ.one if i == 0 else QQ.zero for i in range(d))
    F = Matrix.from_cols(QQ, [powers[j + 1] for j in range(d)])
    return StructureAlgebra.make(QQ, unit, mul), F


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
    return StructureAlgebra.make(ring, unit, mul)


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
