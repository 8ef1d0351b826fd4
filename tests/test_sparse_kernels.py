"""The zero-skipping kernels agree with dense references that skip nothing.

Entries are drawn mostly zero, like the structure constants and operator
matrices of the shipped algebras, so the skipped branches are exercised.
The sparse forms behind the kernels (the cells of ``StructureAlgebra`` and
``BracketTable``, the columns of ``Matrix``) are private state: values are
built through the reader of ``make`` (a random table fails the laws and
the Lie axioms that ``make`` checks) and through the bare constructors,
and matrices are applied before and after their column form is filled.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgalg.findim as FD
from avgalg.exactlin import QQ, Matrix, ZMod, rref, vec_dot
from avgalg.findim import BracketTable, StructureAlgebra, _Table, _terms, induced_bracket
from support import cyclic_algebra, functional_operator, ref_add, ref_mul, ref_sub

RINGS = [QQ, ZMod(2), ZMod(5), ZMod(6), ZMod(12)]
FIELDS = [QQ, ZMod(2), ZMod(5), ZMod(7)]
SPARSE = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])


def _values(ring, count):
    raw = st.lists(SPARSE, min_size=count, max_size=count)
    if ring == QQ:
        return raw.map(lambda xs: tuple(QQ.of(x) for x in xs))
    # Z/n takes integer literals only; 1/2 may not be a unit mod n
    return raw.map(lambda xs: tuple(ring.of(int(x)) for x in xs))


@st.composite
def ring_and_table(draw):
    ring = draw(st.sampled_from(RINGS))
    d = draw(st.integers(1, 6))
    flat = draw(_values(ring, d * d * d))
    table = tuple(tuple(flat[(i * d + j) * d:(i * d + j + 1) * d] for j in range(d))
                  for i in range(d))
    return ring, d, table, draw(_values(ring, d)), draw(_values(ring, d))


def _algebra(ring, d, table, made):
    unit = (ring.one,) + (ring.zero,) * (d - 1)
    if made:
        table = _Table._read(ring, table, "structure constant", d)
    return StructureAlgebra(ring, d, unit, table)


def _bracket(ring, d, table, made):
    if made:
        table = _Table._read(ring, table, "bracket", d)
    return BracketTable(ring, d, table)


# the three ways to build a Matrix from its entries
BUILDERS = {
    "Matrix": lambda ring, entries: Matrix(ring, len(entries), len(entries[0]), entries),
    "from_rows": Matrix.from_rows,
    "from_cols": lambda ring, entries: Matrix.from_cols(ring, list(zip(*entries))),
}


@st.composite
def ring_and_matrix(draw, rings=RINGS):
    ring = draw(st.sampled_from(rings))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    flat = draw(_values(ring, rows * cols))
    entries = tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))
    return ring, Matrix(ring, rows, cols, entries), draw(_values(ring, cols))


def dense_bilinear(ring, d, table, x, y):
    out = [ring.zero] * d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                term = ref_mul(ring, ref_mul(ring, x[i], y[j]), table[i][j][k])
                out[k] = ref_add(ring, out[k], term)
    return tuple(out)


def dense_dot(ring, u, v):
    acc = ring.zero
    for a, b in zip(u, v):
        acc = ref_add(ring, acc, ref_mul(ring, a, b))
    return acc


def dense_rref(m):
    R = m.ring
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = None
        for i in range(r, m.rows):
            if rows[i][c] != R.zero:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = R.inv(rows[r][c])
        rows[r] = [ref_mul(R, inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r:
                f = rows[i][c]
                rows[i] = [ref_sub(R, x, ref_mul(R, f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


@given(ring_and_table(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_mul_vec_matches_dense(case, made):
    ring, d, table, x, y = case
    A = _algebra(ring, d, table, made)
    assert A.mul_vec(x, y) == dense_bilinear(ring, d, table, x, y)


@given(ring_and_table(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_bracket_vec_matches_dense(case, made):
    ring, d, table, x, y = case
    L = _bracket(ring, d, table, made)
    assert L.products([_terms(x, d)], y)[0] == dense_bilinear(ring, d, table, x, y)


@given(ring_and_table(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_row_product_matches_basis_product(case, made, data):
    ring, d, table, _, y = case
    i = data.draw(st.integers(0, d - 1))
    A = _algebra(ring, d, table, made)
    L = _bracket(ring, d, table, made)
    e_i = A.basis_vec(i)
    assert A.row_products(y)[i] == A.mul_vec(e_i, y) == dense_bilinear(ring, d, table, e_i, y)
    assert L.row_products(y)[i] == L.products([_terms(e_i, d)], y)[0]


# c in an operand c*e_j, which row_products reads off column j of the table:
# 1, units other than 1, zero divisors of Z/6 and Z/12, residues written as
# c + n, and Fractions over Q
SCALARS = {
    QQ: [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)],
    ZMod(2): [1, 3],
    ZMod(5): [1, 2, 4, 6, 8],
    ZMod(6): [1, 5, 2, 3, 4, 7, 9],
    ZMod(12): [1, 5, 7, 2, 3, 6, 13, 18],
}


def basis_multiple(ring, d, j, c):
    return tuple(c if k == j else ring.zero for k in range(d))


def dense_rows(ring, d, table, v):
    """[e_0 * v, ..., e_(d-1) * v] by the dense reference."""
    return [dense_bilinear(ring, d, table, basis_multiple(ring, d, i, ring.one), v)
            for i in range(d)]


@given(ring_and_table(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_row_products_of_a_basis_multiple_match_dense(case, made, data):
    # random tables are neither commutative nor antisymmetric, so column j
    # and row j differ on most draws
    ring, d, table, _, _ = case
    j = data.draw(st.integers(0, d - 1))
    v = basis_multiple(ring, d, j, data.draw(st.sampled_from(SCALARS[ring])))
    for T in (_algebra(ring, d, table, made), _bracket(ring, d, table, made)):
        assert T.row_products(v) == dense_rows(ring, d, table, v)


def test_row_products_read_column_j_of_a_non_commutative_table():
    # by the bare constructors, over Z/12: e_0 e_1 = 5 e_1 while
    # e_1 e_0 = 2 e_0 + 3 e_1, so column 1 is not row 1, nor column 0 row 0
    R = ZMod(12)
    table = (((1, 0), (0, 5)), ((2, 3), (1, 0)))
    expected = {
        (0, 1): [(0, 5), (1, 0)],
        (0, 7): [(0, 11), (7, 0)],
        (0, 13): [(0, 5), (1, 0)],
        (0, 6): [(0, 6), (6, 0)],
        (4, 0): [(4, 0), (8, 0)],
    }
    for T in (StructureAlgebra(R, 2, (1, 0), table), BracketTable(R, 2, table)):
        for v, rows in expected.items():
            assert T.row_products(v) == rows == dense_rows(R, 2, table, v)


@pytest.mark.parametrize("ring", [QQ, ZMod(5), ZMod(6), ZMod(12)])
def test_row_products_of_a_basis_multiple_on_made_tables(ring):
    # an algebra and a Lie bracket through make, which check their laws
    A = cyclic_algebra(ring, 4)
    L = BracketTable.make(ring, induced_bracket(A, functional_operator(A, (1, 2, 0, 3))).table)
    for T, table in ((A, A.mul), (L, L.table)):
        for j in range(4):
            for c in SCALARS[ring]:
                v = basis_multiple(ring, 4, j, c)
                assert T.row_products(v) == dense_rows(ring, 4, table, v)


def test_row_products_of_a_basis_vector_call_no_kernel(monkeypatch):
    # e_j is read off the table; an operand with two nonzeros is formed by
    # one kernel pass
    A = cyclic_algebra(ZMod(5), 4)
    L = induced_bracket(A, functional_operator(A, (1, 2, 0, 3)))
    calls = []
    kernel = FD._bilinear
    monkeypatch.setattr(FD, "_bilinear", lambda *args: calls.append(args) or kernel(*args))
    for T in (A, L):
        calls.clear()
        for j in range(4):
            T.row_products(A.basis_vec(j))
            T.row_products(basis_multiple(A.ring, 4, j, 3))
        assert calls == []
        T.row_products((1, 0, 2, 0))
        assert len(calls) == 1


@given(ring_and_matrix())
@settings(max_examples=150, deadline=None)
def test_vec_dot_and_apply_match_dense(case):
    ring, m, v = case
    assert vec_dot(ring, m.entries[0], v) == dense_dot(ring, m.entries[0], v)
    assert m.apply(v) == tuple(dense_dot(ring, row, v) for row in m.entries)


@given(ring_and_matrix(), st.sampled_from(sorted(BUILDERS)), st.data())
@settings(max_examples=150, deadline=None)
def test_apply_before_and_after_the_column_form(case, builder, data):
    ring, m, v = case
    m, fresh = (BUILDERS[builder](ring, m.entries) for _ in range(2))
    w = data.draw(_values(ring, m.cols))
    # the first apply fills the column form, the others read it
    for u in (v, w, v):
        assert m.apply(u) == tuple(dense_dot(ring, row, u) for row in m.entries)
    # equal to a matrix that was never applied, and to one that was
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert "_col_terms" not in repr(m)
    assert fresh.apply(w) == m.apply(w)
    assert m == fresh and hash(m) == hash(fresh)


@given(ring_and_table())
@settings(max_examples=60, deadline=None)
def test_sparse_cells_stay_outside_equality_hash_and_repr(case):
    ring, d, table, _, _ = case
    for build in (_algebra, _bracket):
        made, bare = build(ring, d, table, True), build(ring, d, table, False)
        assert made == bare and hash(made) == hash(bare) and repr(made) == repr(bare)
        assert "_cells" not in repr(made)


@given(ring_and_matrix(FIELDS))
@settings(max_examples=150, deadline=None)
def test_rref_matches_dense(case):
    _, m, _ = case
    red, pivots = rref(m)
    assert (red.entries, pivots) == dense_rref(m)
