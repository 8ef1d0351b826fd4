"""Shared random instance builders for the test suites.

Everything takes an explicit random.Random so suites stay reproducible;
the builders only produce verified instances (algebra axioms hold, the
operators are averaging by construction for the families that promise it).
"""

import itertools
import re
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from math import comb, gcd, isqrt

from avgalg._record import Record
from avgalg import findim as FD
from avgalg.exactlin import (
    Matrix, NoSolution, QQ, RingError, ShapeError, Submodule, Subspace, ZMod, _berlekamp, _hnf,
    _modulus, _pivot_unit, _prime_field, char_poly, nullspace, poly_eval, poly_mul,
    rational_roots, rref, solve_linear, vec_add, vec_dot, zero_vec)
from avgalg import terms as T
from avgalg.freeavg import (
    FAElement, FreePoly, Mode, NotInKernelError, X_ONE, Y_ONE_GEN, mono, x_gen, y_gen)
from avgalg.findim import (
    AlgebraReport, BracketTable, Check, Nilpotent, NotLieError, NotNilpotent, SeriesResult,
    StructureAlgebra, averaging_operator, induced_bracket, primary_from_poly, raw_bracket)


def rand_fraction(rng, lo=-4, hi=4, max_den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


# ---------------------------------------------------------------------------
# reference scalar arithmetic: the rings carry none, and avgalg reduces each
# sum and product with % m; the references and builders here compute with
# + - * and put each result in canonical form themselves, through neither the
# ring nor exactlin._modulus, so a defect in the reducer shows as a
# disagreement

def ref_canon(ring, c):
    """c in ring's canonical form: over Z/n a residue in [0, n), over the
    all-Fraction ring a Fraction, over Q an int when c is integral."""
    if isinstance(ring, ZMod):
        return c % ring.n
    if isinstance(ring, FractionRationals):
        return Fraction(c)
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def ref_add(ring, a, b):
    return ref_canon(ring, a + b)


def ref_sub(ring, a, b):
    return ref_canon(ring, a - b)


def ref_mul(ring, a, b):
    return ref_canon(ring, a * b)


def ref_neg(ring, a):
    return ref_canon(ring, -a)


# ---------------------------------------------------------------------------
# free polynomials

def x_var(i: int, ring=QQ) -> FreePoly:
    """The generator x_i as a polynomial."""
    return FreePoly(ring, {((x_gen(i), 1),): ring.one})


def y_of(m=X_ONE, ring=QQ) -> FreePoly:
    """The generator y[m] of the x-monomial m as a polynomial."""
    return FreePoly(ring, {((y_gen(m), 1),): ring.one})


def poly_from_dict(ring, d) -> FreePoly:
    """The polynomial of a {monomial: coefficient} dict with no zeros."""
    return FreePoly(ring, d)


def fa_from_dict(ring, dim: int, d) -> FAElement:
    """The element of a {(i, sym): coefficient} dict with no zeros."""
    return FAElement(ring, dim, d)


def fa_one(A) -> FAElement:
    """The unit of the free averaging algebra on A: A's unit with empty
    symmetric parts."""
    return FAElement(A.ring, A.dim, {(k, ()): c for k, c in enumerate(A.unit) if c})


def rand_xmono(rng, x_count=3, max_deg=2):
    exps = {}
    for _ in range(rng.randint(0, max_deg)):
        i = rng.randint(1, x_count)
        exps[i] = exps.get(i, 0) + 1
    return tuple(sorted(exps.items()))


def rand_free_monomial(rng, x_count=3, max_deg=2, y_factors=1):
    m = FreePoly.one(QQ)
    for i, e in rand_xmono(rng, x_count, max_deg):
        for _ in range(e):
            m = m.mul(x_var(i))
    for _ in range(rng.randint(0, y_factors)):
        m = m.mul(y_of(rand_xmono(rng, x_count, max_deg)))
    return m


def rand_free_poly(rng, x_count=3, max_terms=3, max_deg=2, y_factors=1):
    p = FreePoly.zero(QQ)
    for _ in range(rng.randint(1, max_terms)):
        c = rand_fraction(rng)
        if c == 0:
            c = Fraction(1)
        p = p.add(rand_free_monomial(rng, x_count, max_deg, y_factors).scale(c))
    return p


# ---------------------------------------------------------------------------
# reference order: the generator key and graded-lex comparator freeavg used
# before generators became their own sort keys

def ref_gen_key(g):
    """x-generators by index, then y[u] by degree of u and x1-heavy first."""
    if g[0] == "x":
        return (0, (g[1],))
    u = g[-1]
    return (1, (sum(e for _, e in u), tuple((i, -e) for i, e in u)))


def ref_mono_cmp(a, b) -> int:
    """Graded-lex: higher degree first, then the larger exponent on the
    earliest generator where the monomials differ; -1 when a comes first."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da > db else 1
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        ga = a[ia][0] if ia < len(a) else None
        gb = b[ib][0] if ib < len(b) else None
        if ga == gb:
            ea, eb = a[ia][1], b[ib][1]
            if ea != eb:
                return -1 if ea > eb else 1
            ia += 1
            ib += 1
        elif gb is None or (ga is not None and ref_gen_key(ga) < ref_gen_key(gb)):
            return -1
        else:
            return 1
    return 0


# ---------------------------------------------------------------------------
# finite-dimensional algebras

def dim2_algebra(alpha, beta):
    """Q[w]/(w^2 - beta*w - alpha); any alpha, beta give a commutative
    associative unital algebra in dimension 2."""
    return StructureAlgebra.make(QQ, (1, 0), [
        [[1, 0], [0, 1]],
        [[0, 1], [alpha, beta]],
    ])


def rand_dim2_algebra(rng):
    return dim2_algebra(rand_fraction(rng), rand_fraction(rng))


def rand_monic(rng, deg):
    return [rand_fraction(rng, -3, 3, 2) for _ in range(deg)] + [Fraction(1)]


def product_algebra(A, B):
    """Componentwise product on the direct sum of the underlying spaces."""
    R = A.ring
    n, m = A.dim, B.dim
    dim = n + m

    def embed_a(v):
        return tuple(v) + (R.zero,) * m

    def embed_b(v):
        return (R.zero,) * n + tuple(v)

    zero = (R.zero,) * dim
    mul = [[zero] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            mul[i][j] = embed_a(A.mul[i][j])
    for i in range(m):
        for j in range(m):
            mul[n + i][n + j] = embed_b(B.mul[i][j])
    unit = tuple(A.unit) + tuple(B.unit)
    return StructureAlgebra.make(R, unit, mul)


def rand_algebra(rng, max_dim=4):
    """A verified commutative unital algebra of dimension at most max_dim."""
    roll = rng.randint(0, 2)
    if roll == 0:
        A, _ = primary_from_poly(rand_monic(rng, rng.randint(1, max_dim)))
        return A
    if roll == 1:
        return rand_dim2_algebra(rng)
    left, _ = primary_from_poly(rand_monic(rng, rng.randint(1, max_dim - 1)))
    right = dim2_algebra(rand_fraction(rng), rand_fraction(rng))
    if left.dim + right.dim > max_dim:
        right, _ = primary_from_poly(rand_monic(rng, max_dim - left.dim))
    return product_algebra(left, right)


def rand_int_algebra(rng, ring, max_dim=4):
    """A primary algebra or a product of two, with integer structure
    constants read over ``ring``; the laws hold over Z, so over every Z/n."""
    def primary(deg):
        A, _ = primary_from_poly([rng.randint(-3, 3) for _ in range(deg)] + [1])
        return StructureAlgebra.make(ring, A.unit, A.mul)

    dim = rng.randint(1, max_dim)
    if dim == 1 or rng.randint(0, 1):
        return primary(dim)
    k = rng.randint(1, dim - 1)
    return product_algebra(primary(k), primary(dim - k))


def cyclic_algebra(ring, d):
    """ring[y]/(y^d - 1) on the basis 1, y, ..., y^(d-1)."""
    e = [tuple(ring.one if k == i else ring.zero for k in range(d)) for i in range(d)]
    return StructureAlgebra.make(ring, e[0], [[e[(i + j) % d] for j in range(d)]
                                              for i in range(d)])


def ref_gamma_subalgebra(A, L):
    """Gamma = {a : [a*x, y] = a*[x, y]} for any Lie bracket, as five loops
    over the structure constants: the reference for gamma_subalgebra, which
    takes the shorter form that holds for endomorphism-induced brackets."""
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
                            acc = ref_add(R, acc, ref_mul(R, a, b))
                        a, b = L.table[i][j][s], A.mul[m][s][k]
                        if a and b:
                            acc = ref_sub(R, acc, ref_mul(R, a, b))
                    row.append(acc)
                rows.append(tuple(row))
    return nullspace(Matrix(R, len(rows), A.dim, tuple(rows)))


# ---------------------------------------------------------------------------
# reference Z/n submodules: the integer Hermite normal form of the generators
# stacked over n·I, reduced mod n, as exactlin computed them before the Howell
# form came from its one elimination loop; entries are read with int(x) % n,
# so callers pass ints

def ref_hnf_full(rows, split: int):
    """Euclidean row elimination on the first ``split`` columns, the one
    integer echelon loop: the pivot rows in column order, then every other
    row, now zero in those columns.  Trailing columns (a transform carried
    along) are updated in step, and no row is dropped."""
    rows = [list(r) for r in rows]
    ncols_total = len(rows[0]) if rows else 0
    done_rows = []
    col = 0
    while col < split and rows:
        sel = [r for r in rows if r[col] != 0]
        if not sel:
            col += 1
            continue
        while True:
            sel.sort(key=lambda r: abs(r[col]))
            pivot_row = sel[0]
            reduced = True
            for r in sel[1:]:
                q = r[col] // pivot_row[col]
                for j in range(ncols_total):
                    r[j] -= q * pivot_row[j]
                if r[col] != 0:
                    reduced = False
            sel = [pivot_row] + [r for r in sel[1:] if r[col] != 0]
            if reduced or len(sel) == 1:
                break
        if pivot_row[col] < 0:
            for j in range(ncols_total):
                pivot_row[j] = -pivot_row[j]
        done_rows.append(pivot_row)
        rows = [r for r in rows if r is not pivot_row]
        col += 1
    return done_rows + rows


def ref_hnf(rows):
    """Integer row Hermite normal form as a list of nonzero rows: the
    elimination over every column, pivots positive, then the entries above
    each pivot reduced into [0, pivot)."""
    out = [r for r in ref_hnf_full(rows, len(rows[0]) if rows else 0) if any(r)]
    for i in range(len(out)):
        pc = next(j for j, x in enumerate(out[i]) if x != 0)
        for k in range(i):
            q = out[k][pc] // out[i][pc]
            if q:
                for j in range(len(out[i])):
                    out[k][j] -= q * out[i][j]
    return out


def ref_submodule_span(ring, ambient_dim: int, vectors) -> Submodule:
    n = ring.n
    rows = [[int(x) % n for x in v] for v in vectors]
    for v in rows:
        if len(v) != ambient_dim:
            raise ShapeError("vector length mismatch")
    for i in range(ambient_dim):
        rows.append([n if j == i else 0 for j in range(ambient_dim)])
    hnf = ref_hnf(rows)
    canon = [tuple(x % n for x in r) for r in hnf]
    canon = [r for r in canon if any(x != 0 for x in r)]
    return Submodule(ring, ambient_dim, tuple(canon))


def ref_submodule_kernel(ring, m: Matrix) -> Submodule:
    """Generators of {x in (Z/n)^cols : m·x = 0 mod n}.

    The rows of m are first reduced to the r <= cols canonical rows of
    their span, which has the same solution set because each row set is a
    Z/n-combination of the other.  The kernel is the projection of the
    integer kernel of [basis | n·I_r] to the x-coordinates.
    """
    n, q = ring.n, m.cols
    basis = ref_submodule_span(ring, q, m.entries).basis
    r = len(basis)
    ext = [list(b) + [n if k == i else 0 for k in range(r)] for i, b in enumerate(basis)]
    gens = [g[:q] for g in ref_int_kernel(ext, q + r)]
    return ref_submodule_span(ring, q, gens)


def ref_int_kernel(rows, q: int):
    """Basis of the integer nullspace {x : rows·x = 0} of an integer matrix
    with q columns (every x when there are no rows)."""
    p = len(rows)
    # row-reduce the transpose, carrying the transform: U·A^T = H;
    # rows of U mapped to zero rows of H span the kernel of A
    work = [[rows[i][j] for i in range(p)] + [1 if k == j else 0 for k in range(q)]
            for j in range(q)]
    return [row[p:] for row in ref_hnf_full(work, p) if not any(row[:p])]


# ---------------------------------------------------------------------------
# reference identity checks: findim's checks as full scans over every
# ordered basis tuple, before they were decided once per symmetry orbit;
# differential tests compare results and witnesses

def ref_verify_algebra(A):
    d = range(A.dim)
    e = [A.basis_vec(i) for i in d]
    comm = next(((i, j) for i in d for j in d if A.mul[i][j] != A.mul[j][i]), None)
    unit = next(((i,) for i in d if A.mul_vec(A.unit, e[i]) != e[i]), None)
    # (e_i e_j) e_k against e_i (e_j e_k), which reads row i only
    assoc = next(((i, j, k) for i, j, k in itertools.product(d, repeat=3)
                  if A.mul_vec(A.mul[i][j], e[k]) != A.mul_vec(e[i], A.mul[j][k])), None)
    failure = next(((law, w) for law, w in (("commutativity", comm), ("unit", unit),
                                            ("associativity", assoc)) if w), None)
    return AlgebraReport(comm is None, assoc is None, unit is None, failure)


def ref_is_averaging(A, F):
    cols = [F.col(j) for j in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = F.apply(A.mul_vec(A.basis_vec(i), cols[j]))
            rhs = A.mul_vec(cols[i], cols[j])
            if lhs != rhs:
                return Check(False, (i, j))
    return Check(True)


def ref_is_reynolds_averaging(A, F):
    F = averaging_operator(A, F).matrix
    cols = [F.col(j) for j in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.mul_vec(cols[i], cols[j])
            if F.apply(prod) != prod:
                return Check(False, (i, j))
    return Check(True)


# op_add before it read the cross identity off is_averaging of F+G: the
# cross compatibility identity scanned at every basis pair, verbatim apart
# from the name and the module prefixes
def ref_op_add(A, F, G):
    """F+G; averaging under the cross compatibility identity."""
    avg_f, avg_g = FD.is_averaging(A, F), FD.is_averaging(A, G)
    R, n = A.ring, A.dim
    d = range(n)
    fc, gc = list(zip(*F.entries)), list(zip(*G.entries))
    # one pass per column: fp[j] = e_i*F(e_j) for every i, then G(e_i)*F(e_j);
    # gp[j] = e_i*G(e_j), then F(e_i)*G(e_j)
    f_rows = (*A._rows, *(FD._terms(c, n) for c in fc))
    g_rows = (*A._rows, *(FD._terms(c, n) for c in gc))
    fp = [A.products(g_rows, c) for c in fc]
    gp = [A.products(f_rows, c) for c in gc]
    compat_witness = next((
        (i, j) for i in d for j in d
        if vec_add(R, F.apply(gp[j][i]), G.apply(fp[j][i]))
        != vec_add(R, gp[j][n + i], fp[j][n + i])), None)
    holds = avg_f.ok and avg_g.ok and compat_witness is None
    cert = FD.Certificate(
        "operands are averaging and satisfy the cross compatibility identity",
        holds, avg_f.witness or avg_g.witness or compat_witness)
    return F.add(G), cert


# ad_eigen and induced_by_averaging before they returned the theorem's answer
# alone: each re-derived it (the characteristic polynomial's roots with one
# nullspace per root; is_averaging and the bracket of the candidate) and
# reported a disagreement, verbatim apart from the names, the module
# prefixes and the candidate's bracket, now formed from dense
# products by ``ref_bracket_table``
def ref_ad_eigen(A, F, a) -> tuple:
    """Eigenvalues with eigenspaces of x -> a*F(x) - x*F(a), over a domain.

    Two independent paths must agree: the structural case split on ker F and
    F(a), and the characteristic-polynomial route with nullspace
    eigenspaces.  Disagreement raises InternalInvariantError.
    """
    if A.ring != QQ:
        raise FD.NotAFieldError("eigen analysis is implemented over Q")
    FD.check_domain(A)
    op = averaging_operator(A, F)
    F = op.matrix
    R, m = A.ring, _modulus(A.ring)
    a = tuple(R.of(x) for x in a)
    fa = F.apply(a)
    # the bracket is alternating, so ad_a(e_i) = [a, e_i] = -[e_i, a]
    ad = Matrix.from_cols(R, [[-x % m for x in g] for g in op.bracket.row_products(a)])
    # structural path: over a domain the only possible eigenvalues are 0 and,
    # when ker F is nonzero and F(a) is a nonzero scalar k, the value -k
    ker = nullspace(F)
    structural = {R.zero: nullspace(ad)}
    k = None if not any(a) or ker.is_zero() else FD._proportionality(R, fa, A.unit)
    if k:
        structural[-k % m] = ker
    # direct path
    roots = set(rational_roots(char_poly(ad)))
    direct = {}
    for r in roots:
        # at r = 0 the matrix is ad itself, whose kernel the structural path holds
        space = nullspace(ad.add(Matrix.identity(R, A.dim).scale(-r))) if r else structural[R.zero]
        if not space.is_zero():
            direct[r] = space
    if structural != direct:
        raise FD.InternalInvariantError(
            f"eigen paths disagree: structural {sorted(structural)} vs direct {sorted(direct)}")
    return tuple(sorted(direct.items()))


class InduceDiagnostic(Record):
    """The linear system had a solution but the candidate operator failed
    re-verification; kept distinct so the gap stays visible."""

    __slots__ = ("t", "operator", "reason")  # tuple, Matrix, str


def ref_induced_by_averaging(A, L):
    if not A.ring.is_field:
        raise FD.NotAFieldError("the averaging-induced decision needs field scalars")
    endo = FD.endo_induced_check(A, L)
    if not endo:
        return FD.NotEndoInduced(endo.witness)
    R = A.ring
    n = A.dim
    E = Matrix.from_cols(R, L.row_products(A.unit))  # [., 1] = -D
    eps = ref_gamma_subalgebra(A, L).basis  # the five-loop reference, not FD._gamma
    delta, project = FD._complement(R, eps, n)
    eps_terms = [FD._terms(ei, n) for ei in eps]
    rows, rhs = [], []
    for dj in delta:
        # delta-coordinates of eps_i * delta_j fill the system matrix, those
        # of -D(delta_j) = [delta_j, 1] the right-hand side
        coords = [project(p) for p in A.products(eps_terms, dj)]
        rows.extend(tuple(c[k] for c in coords) for k in range(len(delta)))
        rhs.extend(project(E.apply(dj)))
    res = solve_linear(Matrix(R, len(rows), len(eps), tuple(rows)), tuple(rhs))
    if isinstance(res, NoSolution):
        return FD.InduceNoSolution()
    t = FD._apply_cols(eps_terms, res.particular, _modulus(R), R.zero, n)  # sum x_i eps_i
    cols = [FD.vec_sub(R, p, c) for p, c in zip(A.row_products(t), zip(*E.entries))]
    op = Matrix.from_cols(R, cols)
    avg = FD.is_averaging(A, op)
    if not avg:
        return InduceDiagnostic(t, op, f"candidate not averaging at pair {avg.witness}")
    # L is a Lie bracket, so equal tables make the candidate's bracket one
    # without a second check
    e = [A.basis_vec(i) for i in range(n)]
    products = [[dense_product(R, A.mul, ei, op.col(j)) for ei in e] for j in range(n)]
    if ref_bracket_table(A, products).table != L.table:
        return InduceDiagnostic(t, op, "candidate does not reproduce the bracket")
    return FD.Induced(t, op)


def eigen_by_char_poly(A, F, a) -> tuple:
    """The eigenvalues in Q of ad_a: x -> a*F(x) - x*F(a) as the rational
    roots of its characteristic polynomial, each with the nullspace of
    ad_a - r as its eigenspace, sorted: the direct path, which uses no
    theorem.  ad_a is formed by dense products, not by the bracket table."""
    R, d = A.ring, A.dim
    a = tuple(R.of(x) for x in a)
    fa = dense_apply(F, a)
    cols = [tuple(ref_sub(R, x, y) for x, y in zip(dense_product(R, A.mul, a, dense_apply(F, e)),
                                                     dense_product(R, A.mul, e, fa)))
            for e in (A.basis_vec(i) for i in range(d))]
    ad = Matrix.from_cols(R, cols)
    pairs = ((r, nullspace(ad.sub(Matrix.identity(R, d).scale(r))))
             for r in set(rational_roots(char_poly(ad))))
    return tuple(sorted((r, space) for r, space in pairs if not space.is_zero()))


def ref_check_lie(A, L):
    R = A.ring
    for i in range(A.dim):
        if any(L.table[i][i]):
            return Check(False, ("alternating", (i,)))
        for j in range(A.dim):
            if L.table[i][j] != tuple(ref_neg(R, x) for x in L.table[j][i]):
                return Check(False, ("antisymmetry", (i, j)))
    for i, j, k in itertools.combinations(range(A.dim), 3):
        total = vec_add(R, vec_add(R,
                        L.products([((k, None),)], L.table[i][j])[0],
                        L.products([((i, None),)], L.table[j][k])[0]),
                        L.products([((j, None),)], L.table[k][i])[0])
        if any(total):
            return Check(False, ("jacobi", (i, j, k)))
    return Check(True)


def ref_endo_induced_check(A, L):
    one_e = [L.products([FD._terms(A.unit, A.dim)], A.basis_vec(j))[0]
             for j in range(A.dim)]  # [1, e_j]
    for i in range(A.dim):
        e_one = L.products([((i, None),)], A.unit)[0]  # [e_i, 1]
        for j in range(A.dim):
            rhs = vec_add(A.ring, A.mul_vec(A.basis_vec(i), one_e[j]),
                          A.mul_vec(A.basis_vec(j), e_one))
            if L.table[i][j] != rhs:
                return Check(False, (i, j))
    return Check(True)


def ref_series(A, L, lower):
    full = Subspace.full(A.ring, A.dim)
    stages = [full]
    while True:
        other = full if lower else stages[-1]
        nxt = Subspace.span(A.ring, A.dim,
                            [L.products([FD._terms(x, A.dim)], y)[0]
                             for x in stages[-1].basis for y in other.basis])
        if nxt == stages[-1]:
            break
        stages.append(nxt)
        if nxt.is_zero():
            break
    return SeriesResult(tuple(stages), stages[-1].is_zero())


def ref_nilpotency_check(A, F):
    op = averaging_operator(A, F)
    R, d = A.ring, A.dim
    ann_rows = []
    for i in range(d):
        for j in range(i + 1, d):
            g = op.bracket.table[i][j]
            ann_rows.extend(zip(*[A.mul_vec(A.basis_vec(m), g) for m in range(d)]))
    ann = FD._kernel(Matrix(R, len(ann_rows), d, tuple(ann_rows)))
    image = FD._span(R, d, [op.matrix.col(j) for j in range(d)])
    power = image
    k = 1
    while True:
        if all(ann.contains_vector(g) for g in power.basis):
            return Nilpotent(k)
        nxt = FD._span(R, d, [A.mul_vec(u, v) for u in power.basis for v in image.basis])
        if nxt == power:
            return NotNilpotent(power)
        power = nxt
        k += 1


# ---------------------------------------------------------------------------
# averaging operators

def mult_operator(A, a):
    """Multiplication by a fixed element; always averaging."""
    a = tuple(A.ring.of(x) for x in a)
    return Matrix.from_cols(A.ring, [A.mul_vec(a, A.basis_vec(i))
                                     for i in range(A.dim)])


def functional_operator(A, lam):
    """x maps to lam(x) times the unit; averaging for any linear lam."""
    R = A.ring
    lam = tuple(R.of(x) for x in lam)
    return Matrix.from_cols(R, [tuple(ref_mul(R, lam[i], u) for u in A.unit)
                                for i in range(A.dim)])


def rand_lie_bracket(rng, A, kind):
    """A Lie bracket on A: induced by a random averaging operator, by a
    random endomorphism, or ("neither") [e_a, e_b] = c e_a on two random
    basis vectors, a Lie bracket that ignores the multiplication."""
    R, d = A.ring, A.dim

    def rand_rows():
        # half the entries zero: a sparse endomorphism is Lie more often
        return [[rng.randint(-2, 2) * rng.randint(0, 1) for _ in range(d)] for _ in range(d)]

    if kind == "averaging":
        return induced_bracket(A, functional_operator(A, rand_rows()[0]))
    if kind == "endomorphism":
        for _ in range(20):
            try:
                return raw_bracket(A, Matrix.from_rows(R, rand_rows()))
            except NotLieError:
                pass
        return raw_bracket(A, Matrix.zero(R, d, d))
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    if d > 1:
        a, b = rng.sample(range(d), 2)
        c = rng.randint(1, 3)
        table[a][b][a], table[b][a][a] = c, -c
    return BracketTable.make(R, table)


def rand_element(rng, A):
    return tuple(rand_fraction(rng) for _ in range(A.dim))


def rand_averaging(rng, A):
    """A random operator from the two always-averaging families."""
    if rng.randint(0, 1):
        return mult_operator(A, rand_element(rng, A))
    return functional_operator(A, rand_element(rng, A))


def rand_sum_operator(rng, ring):
    """F_1 + F_2 on A_1 x A_2, each F_i a multiplication or a functional
    operator on its factor, so averaging.  Its image is im F_1 x im F_2, so
    the image powers have generators from both factors, and a power can kill
    the brackets of one factor but not those of the other."""
    factors = [rand_int_algebra(rng, ring, max_dim=3) for _ in range(2)]
    n, m = factors[0].dim, factors[1].dim
    blocks = [rng.choice([mult_operator, functional_operator])(
        B, [rng.randint(-2, 2) for _ in range(B.dim)]) for B in factors]
    cols = [blocks[0].col(j) + (ring.zero,) * m for j in range(n)] + \
        [(ring.zero,) * n + blocks[1].col(j) for j in range(m)]
    return product_algebra(*factors), Matrix.from_cols(ring, cols)


def conjugation_hom(alpha, beta):
    """On Q[w]/(w^2 - beta*w - alpha): the algebra map w -> beta - w."""
    return Matrix.from_cols(QQ, [(1, 0), (beta, -1)])


def unitary_pair(rng):
    """(A, F) with A = B x B and F(b, c) = (b, phi(b)) for a hom phi of B.

    F is unitary averaging; its kernel is 0 x B and equals the bracket span.
    """
    alpha, beta = rand_fraction(rng), rand_fraction(rng)
    B = dim2_algebra(alpha, beta)
    phi = Matrix.identity(QQ, 2) if rng.randint(0, 1) else conjugation_hom(alpha, beta)
    A = product_algebra(B, B)
    cols = []
    for i in range(2):
        cols.append(tuple(QQ.of(1) if j == i else QQ.of(0) for j in range(2))
                    + tuple(phi.col(i)))
    cols += [(QQ.zero,) * 4, (QQ.zero,) * 4]
    F = Matrix.from_cols(QQ, cols)
    return A, F


# ---------------------------------------------------------------------------
# change of basis: every findim verdict is invariant under x -> P^-1 x, and
# the transforms below use dense arithmetic through ring.of only, so they
# share no kernel with the code they check

def rand_gl(rng, ring, d, steps=None):
    """(P, P^-1) for a random P in GL_d(ring), as Matrices.

    P is a product of elementary operations: add c times one column to
    another, swap two columns, scale one by a unit (over Z/n, a residue
    prime to n).  Each is applied to P and, inverted, to the rows of P^-1,
    so the inverse is exact without an elimination."""
    P = [[ring.one if i == j else ring.zero for j in range(d)] for i in range(d)]
    Q = [row[:] for row in P]
    units = None if ring == QQ else [u for u in range(1, ring.n) if gcd(u, ring.n) == 1]
    for _ in range(3 * d if steps is None else steps):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        roll = rng.randrange(3) if d > 1 else 2
        if roll == 0:
            # P (I + c e_ij) adds c col i to col j; (I - c e_ij) P^-1 subtracts c row j from row i
            c = ring.of(rng.choice((-2, -1, 1, 2, 3)))
            for row in P:
                row[j] = ref_add(ring, row[j], ref_mul(ring, c, row[i]))
            Q[i] = [ref_sub(ring, a, ref_mul(ring, c, b)) for a, b in zip(Q[i], Q[j])]
        elif roll == 1:
            for row in P:
                row[i], row[j] = row[j], row[i]
            Q[i], Q[j] = Q[j], Q[i]
        else:
            u = rng.choice(units) if units else \
                QQ.of(Fraction(rng.choice((-3, -1, 2, 3)), rng.choice((1, 2))))
            for row in P:
                row[i] = ref_mul(ring, row[i], u)
            Q[i] = [ref_mul(ring, ring.inv(u), x) for x in Q[i]]
    return Matrix.from_rows(ring, P), Matrix.from_rows(ring, Q)


def dense_apply(M, v):
    """M v, one sum per entry read through the ring."""
    return tuple(M.ring.of(sum(a * b for a, b in zip(row, v))) for row in M.entries)


def dense_product(ring, table, x, y):
    """sum x_i y_j table[i][j], one sum per coordinate read through the ring."""
    d = len(x)
    return tuple(ring.of(sum(x[i] * y[j] * table[i][j][k] for i in range(d) for j in range(d)))
                 for k in range(d))


def _carried_table(table, P, Pinv):
    # cell (a, b) of the table on the basis P e_0, ..., P e_(d-1)
    cols = [P.col(a) for a in range(P.cols)]
    return [[dense_apply(Pinv, dense_product(P.ring, table, x, y)) for y in cols] for x in cols]


def change_algebra(A, P, Pinv):
    """A on the basis of the columns of P: unit P^-1 u, table P^-1 m(P., P.).
    The direct constructor keeps a table that fails the laws, so that its
    verdicts can be compared too; the carried values are canonical."""
    table = _carried_table(A.mul, P, Pinv)
    return StructureAlgebra(A.ring, A.dim, dense_apply(Pinv, A.unit), tuple(map(tuple, table)))


def change_bracket(L, P, Pinv):
    """L on the basis of the columns of P, by the direct constructor, which
    keeps a table that fails the Lie axioms, so that its verdicts can be
    compared too; the carried values are canonical."""
    return BracketTable(L.ring, L.dim, tuple(map(tuple, _carried_table(L.table, P, Pinv))))


def change_operator(F, P, Pinv):
    """P^-1 F P."""
    cols = [dense_apply(Pinv, dense_apply(F, P.col(j))) for j in range(P.cols)]
    return Matrix.from_cols(F.ring, cols)


def change_span(S, Pinv):
    """The Subspace or Submodule S carried to the new coordinates, P^-1 S."""
    return type(S).span(S.ring, S.ambient_dim, [dense_apply(Pinv, v) for v in S.basis])


# ---------------------------------------------------------------------------
# reference free averaging algebra on A: freeavg's fa_mul, fa_f, induced
# homomorphism and universal lift as dense loops over every structure
# constant, unit entry and matrix entry, zeros included, with the ref_
# arithmetic; equal keys are summed and the zero sums dropped at the end

def ref_fa_sum(ring, dim: int, pairs) -> FAElement:
    d = {}
    for key, c in pairs:
        d[key] = ref_add(ring, d.get(key, ring.zero), c)
    return FAElement(ring, dim, {key: c for key, c in d.items() if c})


def ref_fa_mul(a: FAElement, b: FAElement, A) -> FAElement:
    R = A.ring
    return ref_fa_sum(R, A.dim, (
        ((k, tuple(sorted(s + t))), ref_mul(R, ref_mul(R, c1, c2), A.mul[i][j][k]))
        for (i, s), c1 in a.coeffs.items() for (j, t), c2 in b.coeffs.items()
        for k in range(A.dim)))


def ref_fa_f(a: FAElement, A) -> FAElement:
    R = A.ring
    return ref_fa_sum(R, A.dim, (((k, tuple(sorted(s + (i,)))), ref_mul(R, A.unit[k], c))
                                 for (i, s), c in a.coeffs.items() for k in range(A.dim)))


def ref_fa_induced_hom(theta: Matrix, a: FAElement, A, B) -> FAElement:
    """theta(e_i) (x) theta(e_s1) . theta(e_s2) ... summed over every tuple
    of target indices."""
    R = A.ring
    pairs = []
    for (i, s), c in a.coeffs.items():
        for ks in itertools.product(range(B.dim), repeat=len(s) + 1):
            coeff = c
            for k, j in zip(ks, (i, *s)):
                coeff = ref_mul(R, coeff, theta.entries[k][j])
            pairs.append(((ks[0], tuple(sorted(ks[1:]))), coeff))
    return ref_fa_sum(R, B.dim, pairs)


def ref_dense_apply(M: Matrix, v) -> tuple:
    R = M.ring
    out = []
    for row in M.entries:
        acc = R.zero
        for a, x in zip(row, v):
            acc = ref_add(R, acc, ref_mul(R, a, x))
        out.append(acc)
    return tuple(out)


def ref_dense_product(B, x, y) -> tuple:
    R, d = B.ring, B.dim
    out = [R.zero] * d
    for i, j, k in itertools.product(range(d), repeat=3):
        out[k] = ref_add(R, out[k], ref_mul(R, ref_mul(R, x[i], y[j]), B.mul[i][j][k]))
    return tuple(out)


def ref_fa_universal_lift(phi: Matrix, g: Matrix, a: FAElement, A, B) -> tuple:
    R = A.ring
    out = (R.zero,) * B.dim
    for (i, s), c in a.coeffs.items():
        acc = phi.col(i)
        for j in s:
            acc = ref_dense_product(B, acc, ref_dense_apply(g, phi.col(j)))
        out = tuple(ref_add(R, o, ref_mul(R, c, x)) for o, x in zip(out, acc))
    return out


# ---------------------------------------------------------------------------
# concrete term evaluation in a finite-dimensional averaging algebra

# the step templates of the decide benchmark's claims: each wraps {x}, with
# {leaf} the other variable and {k} a positive scalar
DECIDE_STEPS = ("f({x})", "({x})^2", "({x} + {leaf})", "({x})*{leaf}", "{k}*({x})")

def variables_of(t: T.Term) -> tuple:
    """Variable names occurring in t, deduplicated, sorted by index."""
    indices = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, T.Var):
            indices.add(node.index)
        elif isinstance(node, (T.Add, T.Sub, T.Mul)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (T.ScalarMul, T.F)):
            stack.append(node.arg)
        elif isinstance(node, T.Pow):
            stack.append(node.base)
    return tuple(f"v{i}" for i in sorted(indices))


def eval_term_concrete(term, A, F, env):
    """Evaluate a syntax tree in A with operator F; env maps var index to
    a coordinate vector."""
    from avgalg import terms as T
    from avgalg.exactlin import vec_add, vec_scale, vec_sub, zero_vec

    R = A.ring
    if isinstance(term, T.Var):
        return env[term.index]
    if isinstance(term, T.One):
        return tuple(A.unit)
    if isinstance(term, T.Zero):
        return zero_vec(R, A.dim)
    if isinstance(term, T.Add):
        return vec_add(R, eval_term_concrete(term.left, A, F, env),
                       eval_term_concrete(term.right, A, F, env))
    if isinstance(term, T.Sub):
        return vec_sub(R, eval_term_concrete(term.left, A, F, env),
                       eval_term_concrete(term.right, A, F, env))
    if isinstance(term, T.Mul):
        return A.mul_vec(eval_term_concrete(term.left, A, F, env),
                         eval_term_concrete(term.right, A, F, env))
    if isinstance(term, T.ScalarMul):
        return vec_scale(R, R.of(term.coeff),
                         eval_term_concrete(term.arg, A, F, env))
    if isinstance(term, T.F):
        return F.apply(eval_term_concrete(term.arg, A, F, env))
    if isinstance(term, T.Pow):
        base = acc = eval_term_concrete(term.base, A, F, env)
        for _ in range(term.n - 1):
            acc = A.mul_vec(acc, base)
        return acc
    raise TypeError(f"not a term node: {term!r}")


# ---------------------------------------------------------------------------
# reference free-object operations: freeavg's operator, quotient reductions,
# products and evaluation as they were before each mode had one map per
# monomial, every image and product rebuilt through mono() and every sum
# formed by a plain dict loop, so that none of them runs freeavg's kernels
# (mono_mul, _combine and the arithmetic on coefficient dicts); differential
# tests compare coefficients

def ref_y_gen(m=()):
    """y[m] with its sort key (degree, then (index, -exponent) per
    variable), as y_gen built it before one pass built both."""
    m = tuple(m)
    return ("y", (sum(e for _, e in m), tuple((i, -e) for i, e in m)), m)


def ref_sum(ring, pairs) -> FreePoly:
    """The polynomial of (monomial, coefficient) pairs, the coefficients of
    equal monomials summed and the zero sums dropped."""
    d = {}
    for m, c in pairs:
        d[m] = ref_add(ring, d.get(m, ring.zero), c)
    return FreePoly(ring, {m: c for m, c in d.items() if c})


def ref_mono_x_part(m):
    """The x-part as an x-monomial (an element of the monic x-monomials)."""
    return tuple((g[1], e) for g, e in m if g[0] == "x")


def ref_mono_y_part(m):
    return tuple((g, e) for g, e in m if g[0] == "y")


def ref_f_image(m):
    """y[u]*v for the monomial m with x-part u and y-part v."""
    return mono((ref_y_gen(ref_mono_x_part(m)), 1), *ref_mono_y_part(m))


def ref_f_free(p: FreePoly) -> FreePoly:
    """Split each monomial into x-part u and y-part v; map it to y[u]*v."""
    return ref_sum(p.ring, ((ref_f_image(m), c) for m, c in p.coeffs.items()))


def ref_reduce_unitary(p: FreePoly) -> FreePoly:
    """Substitute y[1] by 1 in every monomial."""
    return ref_sum(p.ring, ((tuple((g, e) for g, e in m if g != Y_ONE_GEN), c)
                            for m, c in p.coeffs.items()))


def ref_reynolds_reduce_mono(m):
    # a drops to max(0, 2 - b) when a + b >= 3, that is to min(a, max(0, 2 - b))
    rest = tuple((g, e) for g, e in m if g != Y_ONE_GEN)
    b = sum(e for g, e in rest if g[0] == "y")
    return mono(*rest, (Y_ONE_GEN, min(dict(m).get(Y_ONE_GEN, 0), max(0, 2 - b))))


def ref_reduce_reynolds(p: FreePoly) -> FreePoly:
    """Canonical form mod the relation y*y'*y[1] = y*y'.

    Per monomial, with a the exponent of y[1] and b the total degree of the
    other y-generators, decrement a while a >= 1 and a + b >= 3.
    """
    return ref_sum(p.ring, ((ref_reynolds_reduce_mono(m), c) for m, c in p.coeffs.items()))


def ref_f_mode(mode: Mode, p: FreePoly) -> FreePoly:
    if mode is Mode.PLAIN:
        return ref_f_free(p)
    if mode is Mode.UNITARY:
        return ref_reduce_unitary(ref_f_free(p))
    return ref_reduce_reynolds(ref_f_free(p))


def ref_mul_mode(mode: Mode, p: FreePoly, q: FreePoly) -> FreePoly:
    # every monomial product is one mono() of the two monomials' pairs;
    # unitary normal forms are y[1]-free, so their product needs no reduction
    R = p.ring
    prod = ref_sum(R, ((mono(*m1, *m2), ref_mul(R, c1, c2))
                       for m1, c1 in p.coeffs.items() for m2, c2 in q.coeffs.items()))
    return ref_reduce_reynolds(prod) if mode is Mode.REYNOLDS else prod


def ref_eval_term(t: T.Term, mode: Mode, ring=QQ) -> FreePoly:
    """eval_term on ref_f_mode and ref_mul_mode, by recursion."""
    tp = type(t)
    if tp is T.Var:
        return x_var(t.index, ring)
    if tp is T.One:
        return FreePoly.one(ring)
    if tp is T.Zero:
        return FreePoly.zero(ring)
    if tp is T.F:
        return ref_f_mode(mode, ref_eval_term(t.arg, mode, ring))
    if tp is T.ScalarMul:
        c = ring.of(t.coeff)
        arg = ref_eval_term(t.arg, mode, ring)
        return ref_sum(ring, ((m, ref_mul(ring, c, v)) for m, v in arg.coeffs.items()))
    if tp is T.Pow:
        base = ref_eval_term(t.base, mode, ring)
        acc = base
        for _ in range(t.n - 1):
            acc = ref_mul_mode(mode, acc, base)
        return acc
    left, right = ref_eval_term(t.left, mode, ring), ref_eval_term(t.right, mode, ring)
    if tp is T.Mul:
        return ref_mul_mode(mode, left, right)
    sign = ring.one if tp is T.Add else ref_neg(ring, ring.one)
    return ref_sum(ring, itertools.chain(
        left.coeffs.items(), ((m, ref_mul(ring, sign, v)) for m, v in right.coeffs.items())))


# freeavg's monomial product and plain operator image as they were before the
# product became one merge and y[u] was built in one pass over the x-part,
# verbatim apart from ref_y_gen standing for y_gen

REF_Y_FIRST = (("y",),)  # a bisect probe: after every x entry, before every y entry


def ref_mono_mul(a, b):
    d = dict(a)
    for g, e in b:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(d.items()))


def ref_f_plain(m):
    """y[u]*v for the monomial m with x-part u and y-part v: one ordered
    insert of y[u] into the sorted v."""
    k = bisect_left(m, REF_Y_FIRST)
    g = ref_y_gen(tuple((h[1], e) for h, e in m[:k]))
    j = bisect_left(m, (g,), k)
    if j < len(m) and m[j][0] == g:
        return m[k:j] + ((g, m[j][1] + 1),) + m[j + 1:]
    return m[k:j] + ((g, 1),) + m[j:]


def ref_bracket_decompose(w: FreePoly) -> list:
    """Write a kernel element as a sum of brackets.

    Returns pairs (p_i, q_i) with w equal to the sum of bracket_free(p_i,
    q_i).  Monomials are grouped by their operator image; inside a group the
    coefficients sum to zero, and each difference against the group's last
    monomial is a single bracket.
    """
    if not ref_f_free(w).is_zero():
        raise NotInKernelError("element is not in the kernel of the operator")
    R = w.ring
    groups = {}
    for m, c in w.terms:
        # w.terms is canonical, so every group is in canonical order too
        groups.setdefault(ref_f_image(m), []).append((m, c))
    pairs = []
    for members in groups.values():
        last_m, _ = members[-1]
        for m, c in members[:-1]:
            pairs.append(ref_difference_bracket(R, c, m, last_m))
    return pairs


def ref_difference_bracket(R, r, wa, wb):
    # r*(wa - wb) as one bracket, where f(wa) = f(wb) and wa != wb
    va = ref_mono_y_part(wa)
    if not va:
        # wa is a pure x-monomial; swap roles and flip the coefficient
        r, wa, wb, va = ref_neg(R, r), wb, wa, ref_mono_y_part(wb)
    ua = ref_mono_x_part(wa)
    ub = ref_mono_x_part(wb)
    da = dict(va)
    shared = ref_y_gen(ub)
    if da.get(shared, 0) < 1:
        raise NotInKernelError("monomials do not share an operator image")
    da[shared] -= 1
    q_mono = mono(*((x_gen(i), e) for i, e in ub), *da.items())
    p_mono = mono(*((x_gen(i), e) for i, e in ua))
    return (FreePoly.monomial(p_mono, r, R), FreePoly.monomial(q_mono, R.one, R))


# ---------------------------------------------------------------------------
# free-object sampling used by both the module suite and the acceptance gate

def mono_of_xmono(xm):
    p = FreePoly.one(QQ)
    for i, e in xm:
        for _ in range(e):
            p = p.mul(x_var(i))
    return p


def kernel_sample(rng, x_count=3):
    """Random kernel elements of total degree at most 4 in at most x_count
    variables: bracket combinations plus image-collision differences."""
    from avgalg.freeavg import bracket_free

    w = FreePoly.zero(QQ)
    for _ in range(rng.randint(1, 2)):
        w = w.add(bracket_free(
            rand_free_poly(rng, x_count=x_count, max_terms=2, max_deg=1, y_factors=1),
            rand_free_poly(rng, x_count=x_count, max_terms=2, max_deg=1, y_factors=1)))
    for _ in range(rng.randint(0, 2)):
        u = rand_xmono(rng, x_count, 2)
        s = rand_xmono(rng, x_count, 2)
        v = y_of(rand_xmono(rng, x_count, 1)) if rng.randint(0, 1) \
            else FreePoly.one(QQ)
        c = Fraction(rng.randint(1, 5))
        # u*y[s]*v and s*y[u]*v share the image y[u]*y[s]*v, so their
        # difference lies in the kernel without being literally a bracket
        left = mono_of_xmono(u).mul(y_of(s)).mul(v).scale(c)
        right = mono_of_xmono(s).mul(y_of(u)).mul(v).scale(c)
        w = w.add(left.sub(right))
    return w


def reynolds_step_at(p, which):
    """Apply one normal-form rewrite step to the which-th reducible term."""
    from avgalg.freeavg import y_gen

    terms = list(p.terms)
    reducible = []
    for idx, (m, _) in enumerate(terms):
        a = 0
        b = 0
        for g, e in m:
            if g == y_gen(()):
                a = e
            elif g[0] == "y":
                b += e
        if a >= 1 and a + b >= 3:
            reducible.append(idx)
    if not reducible:
        return None
    idx = reducible[which % len(reducible)]
    m, c = terms[idx]
    lowered = tuple((g, e - 1) if g == y_gen(()) else (g, e) for g, e in m)
    lowered = tuple((g, e) for g, e in lowered if e > 0)
    rest = FreePoly(p.ring, {m: c for i, (m, c) in enumerate(terms) if i != idx})
    return rest.add(FreePoly.monomial(lowered, c, p.ring))


# ---------------------------------------------------------------------------
# reference ring: exactlin.Rationals as it was before integral scalars became
# plain ints, every element a Fraction, and like it with no arithmetic of its
# own; differential tests run both

class FractionRationals(Record):
    """The field Q; elements are ``fractions.Fraction`` values.

    ``Fraction`` already stores lowest terms with positive denominator, which
    is exactly the canonical form required here.
    """

    __slots__ = ("name", "is_field")
    _defaults = ("Q", True)
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v) -> Fraction:
        return v if type(v) is Fraction else Fraction(v)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def parse(self, text: str) -> Fraction:
        if not isinstance(text, str):
            raise RingError(f"rational literal must be a string, got {text!r}")
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise RingError(f"bad rational literal {text!r}: {exc}") from None

    def __rmod__(self, a):
        # a % FRACTION_QQ is a in this ring's form, as in exactlin.Rationals
        return Fraction(a)

    def render(self, a) -> str:
        return str(a)


FRACTION_QQ = FractionRationals()


def scalars_of(x):
    """The numbers in a value, found through records, tuples and lists;
    bools are not numbers here."""
    todo = [x]
    while todo:
        v = todo.pop()
        if isinstance(v, Record):
            todo.extend(v._astuple(v))
        elif isinstance(v, (tuple, list)):
            todo.extend(v)
        elif type(v) in (int, Fraction, float):
            yield v


def assert_canonical_q(x):
    """Every number in x is an int or a Fraction with denominator above 1."""
    for v in scalars_of(x):
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


# ---------------------------------------------------------------------------
# reference parser and printer: terms._parse and terms.render as they were
# before the nodes stored their fields through slot setters and the parser
# skipped the empty literal walk, verbatim apart from the ref_ names and the
# node classes read through T; differential tests compare trees, sharing,
# strings and syntax errors

# one token: a numeric literal with the "-" glued to it, a variable, or any
# other single character; the whitespace before it is skipped
REF_TOKEN = re.compile(r"\s*(-?[0-9]+|v[0-9]*|\S)")


def ref_error(text: str, k: int, message: str, end: bool = False) -> T.TermSyntaxError:
    # at the start (or end) of token k, or at the end of text past the last one
    m = next(itertools.islice(REF_TOKEN.finditer(text), k, None), None)
    return T.TermSyntaxError(message, text, len(text) if m is None
                             else m.end(1) if end else m.start(1))


def ref_int(text: str, k: int, digits: str, unsigned: str = "") -> int:
    """The digits of token k; with an ``unsigned`` message, a token that does
    not start with an ASCII digit is that syntax error."""
    if unsigned and not "0" <= digits[:1] <= "9":
        raise ref_error(text, k, unsigned)
    try:
        return int(digits)
    except ValueError:  # beyond sys.get_int_max_str_digits() on Python 3.11+
        raise ref_error(text, k, "too many digits") from None


# the field types a hash-consing key holds by value, not by id
REF_SCALARS = frozenset((int, Fraction, type(None)))


def ref_parse(text: str, equation: bool):
    """The term (or equation) of text, read in one pass over its tokens.

    Every "(" and "f(" pushes the state of the enclosing term onto ``stack``
    instead of recursing.  That state: ``total``, the sum so far, joined to
    the next product by ``op``; ``neg``, a leading "-" on the product;
    ``scaled``, its (plain factors, literal) pairs so far, and ``run``, its
    plain factors after the last literal; ``minus``, the atom-level "-"
    signs pending on the current factor.

    Nodes are hash-consed: ``node`` returns the one node of this parse with
    the given class and fields, and all constants are ``one`` and ``zero``,
    so equal subterms are one object.
    """
    # keyed by the class, the id of each child (hash-consed itself, so its
    # id stands for its structure) and the Var index, ScalarMul coefficient
    # or Pow exponent; the table keeps every node alive, so no id is reused
    table = {}
    one, zero = T.One(), T.Zero()

    def node(cls, x, y=None):
        key = (cls, x if type(x) in REF_SCALARS else id(x), y if type(y) in REF_SCALARS else id(y))
        made = table.get(key)
        if made is None:
            made = table[key] = cls(x) if y is None else cls(x, y)
        return made

    toks = REF_TOKEN.findall(text)
    toks.append("")  # end of input
    i = 0
    stack = []
    lhs = None
    closer = ""  # "(" or "f" inside a group
    total = op = run = None
    neg = False
    scaled = []
    minus = 0
    start = True  # at the first atom of a signed product
    while True:
        tok = toks[i]
        i += 1
        if tok == "-":
            if start:
                neg = True
                start = False
            else:
                minus += 1
            continue
        start = False
        if tok == "(" or tok == "f":
            if tok == "f":
                if toks[i] != "(":
                    raise ref_error(text, i, "expected '('")
                i += 1
            stack.append((closer, total, op, neg, scaled, run, minus))
            closer, total, op, neg, scaled, run, minus = tok, None, None, False, [], None, 0
            start = True
            continue
        if tok[:1] == "v":
            if tok == "v":
                raise ref_error(text, i - 1, "expected digits", end=True)
            index = ref_int(text, i - 1, tok[1:])
            if index < 1:
                raise ref_error(text, i - 1, "variable index must be positive", end=True)
            value = node(T.Var, index)
        elif "0" <= tok[-1:] <= "9":
            num = ref_int(text, i - 1, tok)
            if toks[i] == "/":
                den = ref_int(text, i + 1, toks[i + 1], "expected denominator digits")
                if not den:
                    raise ref_error(text, i + 1, "zero denominator")
                value = Fraction(num, den)
                i += 2
            # unsigned "1" and "0" are the constants, also spelled "01" or
            # "00"; "1/1" and "0/1" stay literals so that unit and zero
            # ScalarMul coefficients have a spelling
            elif num == 1 and tok[0] != "-":
                value = one
            elif num == 0 and tok[0] != "-":
                value = zero
            else:
                value = Fraction(num)
        elif tok:
            raise ref_error(text, i - 1, f"unexpected character {tok!r}")
        else:
            raise ref_error(text, i - 1, "unexpected end of input")

        # value is a complete atom (a Fraction for a literal); fold it into
        # the factor, the product and the sum, closing groups as they end
        while True:
            # atom := "-" factor, so each pending "-" admits one more "^n"
            while True:
                if toks[i] == "^":
                    n = ref_int(text, i + 1, toks[i + 1], "expected digits")
                    i += 2
                    if type(value) is Fraction:
                        big = max(abs(value.numerator), value.denominator)
                        if n > 1 and big > 1 and n * big.bit_length() > T._MAX_LITERAL_BITS:
                            raise ref_error(text, i - 1, "literal power too large")
                        value **= n
                    elif n == 0:
                        value = one
                    elif n > 1:
                        value = node(T.Pow, value, n)
                if not minus:
                    break
                minus -= 1
                value = -value if type(value) is Fraction else node(T.Sub, zero, value)
            if type(value) is Fraction:
                scaled.append((run, value))
                run = None
            else:
                run = value if run is None else node(T.Mul, run, value)
            tok = toks[i]
            if tok == "*":
                i += 1
                break
            # the product is complete: a*2*b*c is Mul(a, ScalarMul(2, Mul(b, c)))
            prod = one if run is None else run
            for left, c in reversed(scaled):
                prod = node(T.ScalarMul, c, prod)
                if left is not None:
                    prod = node(T.Mul, left, prod)
            if neg:
                prod = node(T.Sub, zero, prod)
            scaled, run, neg = [], None, False
            total = prod if op is None else node(op, total, prod)
            if tok == "+" or tok[:1] == "-":
                op = T.Add if tok == "+" else T.Sub
                if len(tok) > 1:
                    toks[i] = tok[1:]  # after an operand "-2" is "-" then "2"
                else:
                    i += 1
                start = True
                break
            if closer:
                if tok != ")":
                    raise ref_error(text, i, "expected ')'")
                i += 1
                value = total if closer == "(" else node(T.F, total)
                closer, total, op, neg, scaled, run, minus = stack.pop()
                continue
            if equation and lhs is None:
                if tok != "=":
                    raise ref_error(text, i, "expected '='")
                lhs, total, op = total, None, None
                i += 1
                start = True
                break
            if tok:
                raise ref_error(text, i, "trailing input")
            return total if lhs is None else T.Equation(lhs, total)


def ref_lit(r: Fraction) -> str:
    # "1" and "0" would read back as the constants, so force fraction form
    s = QQ.render(r)
    if s in ("1", "0"):
        s += "/1"
    return s


# the separator of each binary node, bare and before a parenthesized right
# operand, and the operand types it parenthesizes on the left and the right
REF_BINARY_FORMS = {
    T.Add: (" + ", " + (", (), (T.Add, T.Sub)),
    T.Sub: (" - ", " - (", (), (T.Add, T.Sub)),
    T.Mul: ("*", "*(", (T.Add, T.Sub, T.ScalarMul), (T.Add, T.Sub, T.Mul, T.ScalarMul, T.Pow)),
}


def ref_render(t: T.Term) -> str:
    """Concrete syntax for t.

    A Pow prints as the left-nested Mul chain of its copies, so for Pow-free
    t, parse(render(t)) is structurally t, and for every t,
    render(parse(render(t))) == render(t).
    """
    # pre-order over an explicit stack of nodes and literal strings, each
    # node's pieces pushed right to left so that they pop in output order; a
    # Pow's base is rendered once, then its output is taken back and repeated
    out = []
    todo = [t]
    while todo:
        node = todo.pop()
        tp = type(node)
        if tp is str:
            out.append(node)
        elif tp is T.Var:
            out.append(f"v{node.index}")
        elif tp in REF_BINARY_FORMS:
            sep, sep_paren, paren_left, paren_right = REF_BINARY_FORMS[tp]
            left, right = node.left, node.right
            todo += (")", right, sep_paren) if type(right) in paren_right else (right, sep)
            todo += (")", left, "(") if type(left) in paren_left else (left,)
        elif tp is T.F:
            todo += (")", node.arg, "f(")
        elif tp is T.Pow:
            todo += ((len(out), node), node.base)
        elif tp is tuple:
            start, node = node
            base = "".join(out[start:])
            del out[start:]
            _, _, paren_left, paren_right = REF_BINARY_FORMS[T.Mul]
            first = f"({base})" if type(node.base) in paren_left else base
            rest = f"*({base})" if type(node.base) in paren_right else f"*{base}"
            out.append(first + rest * (node.n - 1))
        elif tp is T.ScalarMul:
            arg, lit = node.arg, ref_lit(node.coeff)
            if type(arg) is T.One:
                out.append(lit)
            elif type(arg) in (T.Add, T.Sub):
                todo += (")", arg, lit + "*(")
            else:
                todo += (arg, lit + "*")
        elif tp is T.One:
            out.append("1")
        elif tp is T.Zero:
            out.append("0")
        else:
            raise TypeError(f"not a Term: {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# reference polynomials over a field: exactlin's routines as they were when
# every coefficient step called the ring's add, sub, mul and inv (now the
# ref_ arithmetic above and the ring's inv); differential tests compare
# them with the plain-int routines

def ref_poly_trim(f) -> tuple:
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def ref_poly_sub(ring, f, g) -> tuple:
    n = max(len(f), len(g))
    f = tuple(f) + (ring.zero,) * (n - len(f))
    g = tuple(g) + (ring.zero,) * (n - len(g))
    return ref_poly_trim(ref_sub(ring, a, b) for a, b in zip(f, g))


def ref_poly_mul(ring, f, g) -> tuple:
    if not f or not g:
        return ()
    out = [ring.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = ref_add(ring, out[i + j], ref_mul(ring, a, b))
    return ref_poly_trim(out)


def ref_poly_divmod(ring, f, g) -> tuple:
    """(quotient, remainder) of f by a nonzero g."""
    g = ref_poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(ref_poly_trim(f))
    q = [ring.zero] * max(len(r) - len(g) + 1, 0)
    inv = ring.inv(g[-1])
    while len(r) >= len(g):
        c = ref_mul(ring, r[-1], inv)
        shift = len(r) - len(g)
        q[shift] = c
        for i, b in enumerate(g):
            if b:
                r[shift + i] = ref_sub(ring, r[shift + i], ref_mul(ring, c, b))
        while r and not r[-1]:
            r.pop()
    return tuple(q), tuple(r)


def ref_poly_gcd(ring, f, g) -> tuple:
    """Monic greatest common divisor; () when f and g are both zero."""
    f, g = ref_poly_trim(f), ref_poly_trim(g)
    while g:
        f, g = g, ref_poly_divmod(ring, f, g)[1]
    if not f:
        return ()
    inv = ring.inv(f[-1])
    return tuple(ref_mul(ring, inv, c) for c in f)


def ref_poly_derivative(ring, f) -> tuple:
    return ref_poly_trim(ref_mul(ring, ring.of(i), c) for i, c in enumerate(f) if i)


def ref_poly_powmod(ring, f, e: int, m) -> tuple:
    """f^e mod m by square-and-multiply."""
    result = ref_poly_divmod(ring, (ring.one,), m)[1]
    base = ref_poly_divmod(ring, f, m)[1]
    while e:
        if e & 1:
            result = ref_poly_divmod(ring, ref_poly_mul(ring, result, base), m)[1]
        e >>= 1
        if e:
            base = ref_poly_divmod(ring, ref_poly_mul(ring, base, base), m)[1]
    return result


def ref_distinct_degree_factors(ring, f) -> tuple:
    """Distinct-degree factorisation of a monic squarefree f over Z/p.

    Returns ``((k, g_k), ...)``, ascending in k, where g_k is the product of
    the irreducible factors of f of degree k and is not 1; the g_k multiply
    to f.  The degree-k factors are those of gcd(f, t^(p^k) - t) once the
    lower degrees are divided out.
    """
    p = _prime_field(ring)
    t = (ring.zero, ring.one)
    out = []
    rest = ref_poly_trim(f)
    h = t  # t^(p^k) mod rest
    k = 0
    while len(rest) - 1 >= 2 * (k + 1):
        k += 1
        h = ref_poly_powmod(ring, h, p, rest)
        g = ref_poly_gcd(ring, rest, ref_poly_sub(ring, h, t))
        if len(g) > 1:
            out.append((k, g))
            rest = ref_poly_divmod(ring, rest, g)[0]
            h = ref_poly_divmod(ring, h, rest)[1]
    if len(rest) > 1:
        out.append((len(rest) - 1, rest))
    return tuple(out)


def berlekamp_by_degree(F, f) -> tuple:
    """``exactlin._berlekamp``'s factors of a monic squarefree f over Z/p as a
    distinct-degree factorisation ((k, g_k), ...), ascending in k: g_k is
    the product of the factors of degree k."""
    by_degree = {}
    for q in _berlekamp(F, f):
        k = len(q) - 1
        by_degree[k] = poly_mul(F, by_degree.get(k, (F.one,)), q)
    return tuple(sorted(by_degree.items()))


def ref_poly_root_mod_p(ring, f):
    """A root in Z/p of a nonzero f, or None when it has none.

    g = gcd(f, t^p - t) is the product of the distinct linear factors of f;
    g is split by gcd(g, (t + s)^((p-1)/2) - 1) for s = 0, 1, ... until one
    factor is linear (Cantor-Zassenhaus with deterministic shifts).  Some
    shift separates any two roots, so the search ends.
    """
    p = _prime_field(ring)
    t = (ring.zero, ring.one)
    g = ref_poly_gcd(ring, f, ref_poly_sub(ring, ref_poly_powmod(ring, t, p, f), t))
    while len(g) > 2:
        for s in range(p):
            if not poly_eval(ring, g, ref_neg(ring, s)):
                return ref_neg(ring, s)
            h = ref_poly_powmod(ring, (s, ring.one), (p - 1) // 2, g)
            split = ref_poly_gcd(ring, g, ref_poly_sub(ring, h, (ring.one,)))
            if 1 < len(split) < len(g):
                g = split
                break
        else:
            raise RuntimeError("no shift splits the linear factors")
    return ref_neg(ring, g[0]) if len(g) == 2 else None


def ref_squarefree(R, f) -> bool:
    return len(ref_poly_gcd(R, f, ref_poly_derivative(R, f))) == 1


def ref_factor_monic(f) -> tuple:
    """The monic irreducible factors of a monic integer f, repeated by
    multiplicity and ascending in (degree, coefficients), by trial division.

    Meant for degree at most 4 and coefficients of size at most 9.  Every
    monic candidate of degree m <= deg f / 2 is tried, in ascending m, whose
    j-th coefficient has size at most binom(m, j)·|f|_2, the Mignotte bound
    on a factor of f over Z; a candidate divides out as often as it divides.
    What is left has no factor of at most half its degree, so it is
    irreducible.  The standard library only."""
    f, out = tuple(f), []
    norm = isqrt(sum(c * c for c in f)) + 1
    for m in range(1, (len(f) - 1) // 2 + 1):
        ranges = [range(-comb(m, j) * norm, comb(m, j) * norm + 1) for j in range(m)]
        for low in itertools.product(*ranges):
            h = low + (1,)
            q = _exact_quotient(f, h)
            while q is not None:
                out.append(h)
                f, q = q, _exact_quotient(q, h)
    if len(f) > 1:
        out.append(f)
    return tuple(sorted(out, key=lambda h: (len(h), h)))


def _exact_quotient(f, h):
    """f / h for integer f and monic integer h dividing it, else None."""
    if len(f) < len(h):
        return None
    r, q = list(f), [0] * (len(f) - len(h) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(h) - 1]
        for i, b in enumerate(h):
            r[k + i] -= q[k] * b
    return None if any(r) else tuple(q)


# ---------------------------------------------------------------------------
# reference kernels: exactlin's vector helpers, Matrix.apply and echelon loop,
# and findim's product kernel and bracket builder as they were before each
# reduced its updates with one inline % m, every step a call of the ref_
# arithmetic above;
# verbatim apart from the ref_ names, apply as a function that builds its
# column form on every call, and the bracket's sparse cells built by the
# BracketTable constructor from the finished table

def ref_vec_add(ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    return tuple(ref_add(ring, a, b) for a, b in zip(u, v))


def ref_vec_sub(ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    return tuple(ref_sub(ring, a, b) for a, b in zip(u, v))


def ref_vec_scale(ring, c, v):
    return tuple(ref_mul(ring, c, a) for a in v)


def ref_vec_dot(ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    acc = ring.zero
    for a, b in zip(u, v):
        if a and b:
            acc = ref_add(ring, acc, ref_mul(ring, a, b))
    return acc


def ref_apply(m: Matrix, v) -> tuple:
    if len(v) != m.cols:
        raise ShapeError("vector length mismatch")
    col_terms = tuple(tuple((i, row[j]) for i, row in enumerate(m.entries) if row[j])
                      for j in range(m.cols))
    R = m.ring
    out = [R.zero] * m.rows
    for j, x in enumerate(v):
        if x:
            for i, a in col_terms[j]:
                out[i] = ref_add(R, out[i], ref_mul(R, a, x))
    return tuple(out)


def ref_sub_multiple(R, row, q, p) -> list:
    return [ref_sub(R, x, ref_mul(R, q, y)) if y else x for x, y in zip(row, p)]


def ref_hnf_loop(R, rows, split: int):
    n = 0 if R.is_field else R.n
    todo = [list(r) for r in rows]
    done, pivots = [], []
    for c in range(split):
        if not todo:
            break
        sel = [r for r in todo if r[c]]
        if not sel:
            continue
        if n:
            while len(sel) > 1:
                sel.sort(key=lambda r: r[c])
                p = sel[0]
                for r in sel[1:]:
                    q = r[c] // p[c]
                    r[:] = [(x - q * y) % n if y else x for x, y in zip(r, p)]
                sel = [r for r in sel if r[c]]
        pr = sel[0]
        todo = [r for r in todo if r is not pr]
        if n:
            u = _pivot_unit(pr[c], n)
            p = [u * x % n for x in pr]
            g = p[c]
            ann = [n // g * x % n for x in p]
            if any(ann):
                todo.append(ann)
        else:
            inv = R.inv(pr[c])
            p = [ref_mul(R, inv, x) if x else x for x in pr]
            g = 1
            todo = [ref_sub_multiple(R, r, r[c], p) if r[c] else r for r in todo]
        for i, r in enumerate(done):
            if r[c]:
                done[i] = ref_sub_multiple(R, r, r[c] if g == 1 else r[c] // g, p)
        done.append(p)
        pivots.append(c)
    return done + todo, tuple(pivots)


def ref_bilinear(R, cells, groups, y) -> list:
    d = len(cells)
    if len(y) != d:
        raise ShapeError("vector length mismatch")
    add, mul, zero = partial(ref_add, R), partial(ref_mul, R), R.zero
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    outs = []
    for terms in groups:
        out = [zero] * d
        for i, xi in terms:
            row = cells[i]
            for j, yj in ys:
                c = yj if xi is None else mul(xi, yj)
                for k, ck in row[j]:
                    out[k] = add(out[k], mul(c, ck))
        outs.append(tuple(out))
    return outs


def ref_bracket_table(A, products) -> BracketTable:
    R, d = A.ring, A.dim
    zero = zero_vec(R, d)
    table = [[zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if products[j][i] != products[i][j]:
                g = ref_vec_sub(R, products[j][i], products[i][j])
                table[i][j], table[j][i] = g, tuple(ref_neg(R, x) for x in g)
    return BracketTable(R, d, tuple(tuple(row) for row in table))


# ---------------------------------------------------------------------------
# reference kernel and characteristic polynomial: exactlin's nullspace as it
# was when it read the null vectors off rref(m) and put them in canonical
# form with a second elimination, and char_poly as it was when every dot
# product was a vec_dot call on copied rows; verbatim apart from the ref_
# names

def ref_nullspace(m: Matrix) -> Subspace:
    """Exact basis of {x : m·x = 0} over a field."""
    R, mod = m.ring, _modulus(m.ring)
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for fc in free:
        v = [R.zero] * m.cols
        v[fc] = R.one
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc] % mod
        vectors.append(v)
    return Subspace(R, m.cols, _hnf(R, m.cols, vectors))


def ref_char_poly(m: Matrix) -> tuple:
    """Coefficients of det(tI - m), ascending, ending in the leading 1.

    Berkowitz's division-free algorithm: only ring additions and
    multiplications occur, so no intermediate denominators appear over Q and
    the routine is valid over any commutative coefficient ring.
    """
    if m.rows != m.cols:
        raise ShapeError("characteristic polynomial needs a square matrix")
    R, mod = m.ring, _modulus(m.ring)
    n = m.rows
    if n == 0:
        return (R.one,)
    A = [list(row) for row in m.entries]
    # descending coefficients for leading principal blocks, grown one row/col
    # at a time through lower-triangular Toeplitz transforms
    poly = [R.one, -A[0][0] % mod]
    for size in range(2, n + 1):
        k = size - 1
        M = [row[:k] for row in A[:k]]
        neg_row = [-A[k][j] % mod for j in range(k)]
        col = [A[i][k] for i in range(k)]
        items = [R.one, -A[k][k] % mod]
        vec = col
        for _ in range(size - 1):
            items.append(vec_dot(R, neg_row, vec))
            vec = [vec_dot(R, row, vec) for row in M]
        new = []
        for i in range(size + 1):
            acc = R.zero
            for j in range(0, min(i, size - 1) + 1):
                acc = (acc + items[i - j] * poly[j]) % mod
            new.append(acc)
        poly = new
    return tuple(reversed(poly))
