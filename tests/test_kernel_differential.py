"""The inline-reduction kernels agree with the ring-method references.

``findim``'s product kernel and bracket builder and ``exactlin``'s
``Matrix`` arithmetic, echelon loop and vector helpers compute with Python's
own ``+ - *`` on ring values and reduce each updated entry with one ``% m``.
``tests/support.py`` keeps them as they were when every step called the
ring's methods, ``nullspace`` as it was when it took two eliminations, and
``char_poly`` as it was when every dot product was a ``vec_dot`` call.  Random tables, matrices and vectors, mostly zero, are
compared over Q (denominators up to 4), over Z/p for small primes and one
prime near 10^18, over Z/4, Z/6, Z/9 and Z/12, and over the all-Fraction
reference ring.  Equal values are not enough over Q, where 2 == Fraction(2),
so every result is also checked to be in its ring's canonical form.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg import exactlin
from avgalg import findim as FD
from avgalg.exactlin import (
    Matrix,
    QQ,
    ZMod,
    _hnf_full,
    _modulus,
    _sub_multiple,
    char_poly,
    nullspace,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from support import (
    FRACTION_QQ,
    assert_canonical_q,
    ref_apply,
    ref_bilinear,
    ref_bracket_table,
    ref_char_poly,
    ref_hnf_loop,
    ref_nullspace,
    ref_sub_multiple,
    ref_vec_add,
    ref_vec_dot,
    ref_vec_scale,
    ref_vec_sub,
    scalars_of,
)

BIG_PRIME = 10**18 + 3
RINGS = [QQ, ZMod(2), ZMod(5), ZMod(7), ZMod(BIG_PRIME), ZMod(4), ZMod(6), ZMod(9),
         ZMod(12), FRACTION_QQ]
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def entries(ring):
    """Ring values in canonical form, zero about half the time."""
    if ring is QQ or ring is FRACTION_QQ:
        values = RATIONALS
    elif ring.n == BIG_PRIME:
        values = st.integers(0, BIG_PRIME - 1)
    else:
        values = st.integers(-2 * ring.n, 2 * ring.n)
    return st.one_of(st.just(0), values).map(ring.of)


def vectors(ring, d):
    return st.lists(entries(ring), min_size=d, max_size=d).map(tuple)


def assert_canonical(ring, x):
    """Q: an int, or a Fraction with denominator above 1; the Fraction
    ring: a Fraction; Z/n: an int in [0, n)."""
    if ring is QQ:
        assert_canonical_q(x)
    elif ring is FRACTION_QQ:
        assert all(type(v) is Fraction for v in scalars_of(x)), x
    else:
        assert all(type(v) is int and 0 <= v < ring.n for v in scalars_of(x)), x


def assert_same(ring, new, ref):
    assert new == ref
    assert_canonical(ring, new)


@st.composite
def kernel_inputs(draw):
    """A ring, a d x d x d table, groups of the product kernel and a vector."""
    ring = draw(st.sampled_from(RINGS))
    d = draw(st.integers(1, 5))
    table = tuple(tuple(draw(vectors(ring, d)) for _ in range(d)) for _ in range(d))
    row_group = st.integers(0, d - 1).map(lambda i: ((i, None),))
    term_group = vectors(ring, d).map(lambda x: FD._terms(x, d))
    groups = draw(st.lists(st.one_of(row_group, term_group), max_size=4))
    return ring, table, groups, draw(vectors(ring, d))


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_product_kernel_matches_the_reference(inputs):
    ring, table, groups, y = inputs
    cells = FD._sparse_cells(table)
    assert_same(ring, FD._bilinear(ring, cells, groups, y),
                ref_bilinear(ring, cells, groups, y))


@st.composite
def matrix_inputs(draw):
    """A ring, a matrix, a vector to apply it to, two vectors and a scalar."""
    ring = draw(st.sampled_from(RINGS))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries_ = tuple(draw(vectors(ring, cols)) for _ in range(rows))
    return (ring, Matrix(ring, rows, cols, entries_), draw(vectors(ring, cols)),
            draw(vectors(ring, rows)), draw(vectors(ring, rows)), draw(entries(ring)))


@settings(max_examples=300, deadline=None)
@given(matrix_inputs())
def test_apply_and_vector_helpers_match_the_reference(inputs):
    ring, m, v, u, w, c = inputs
    assert_same(ring, m.apply(v), ref_apply(m, v))
    assert_same(ring, vec_add(ring, u, w), ref_vec_add(ring, u, w))
    assert_same(ring, vec_sub(ring, u, w), ref_vec_sub(ring, u, w))
    assert_same(ring, vec_scale(ring, c, u), ref_vec_scale(ring, c, u))
    assert_same(ring, vec_dot(ring, u, w), ref_vec_dot(ring, u, w))
    assert_same(ring, _sub_multiple(_modulus(ring), list(u), c, w),
                ref_sub_multiple(ring, list(u), c, w))


@settings(max_examples=300, deadline=None)
@given(matrix_inputs(), st.data())
def test_matrix_arithmetic_matches_the_reference(inputs, data):
    ring, m, c = inputs[0], inputs[1], inputs[5]
    other = Matrix(ring, m.rows, m.cols,
                   tuple(data.draw(vectors(ring, m.cols)) for _ in range(m.rows)))
    k = data.draw(st.integers(1, 4))
    right = Matrix(ring, m.cols, k, tuple(data.draw(vectors(ring, k)) for _ in range(m.cols)))
    pairs = list(zip(m.entries, other.entries))
    assert_same(ring, m.add(other).entries, tuple(ref_vec_add(ring, r, s) for r, s in pairs))
    assert_same(ring, m.sub(other).entries, tuple(ref_vec_sub(ring, r, s) for r, s in pairs))
    assert_same(ring, m.scale(c).entries, tuple(ref_vec_scale(ring, c, r) for r in m.entries))
    assert_same(ring, m.mul(right).entries,
                tuple(tuple(ref_vec_dot(ring, r, right.col(j)) for j in range(k))
                      for r in m.entries))


@settings(max_examples=300, deadline=None)
@given(matrix_inputs(), st.data())
def test_echelon_loop_matches_the_reference(inputs, data):
    ring, m = inputs[:2]
    split = data.draw(st.integers(0, m.cols))
    rows, pivots = _hnf_full(ring, m.entries, split)
    assert (rows, pivots) == ref_hnf_loop(ring, m.entries, split)
    assert_canonical(ring, rows)


@st.composite
def bracket_inputs(draw):
    """A ring and products[j][i] for a d-dimensional algebra, some pairs
    equal so that their bracket cell is zero."""
    ring = draw(st.sampled_from(RINGS))
    d = draw(st.integers(1, 5))
    products = [[draw(vectors(ring, d)) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if draw(st.booleans()):
                products[i][j] = products[j][i]
    return ring, d, products


@settings(max_examples=300, deadline=None)
@given(bracket_inputs())
def test_bracket_table_matches_the_reference(inputs):
    ring, d, products = inputs
    # _bracket_table reads only the ring and the dimension of the algebra
    A = FD.StructureAlgebra(ring, d, (ring.one,) + (ring.zero,) * (d - 1), ())
    L, ref = FD._bracket_table(A, products), ref_bracket_table(A, products)
    assert L == ref and L._cells == ref._cells
    assert_canonical(ring, L.table)
    assert_canonical(ring, [c for row in L._cells for cell in row for _, c in cell])


FIELDS = [ring for ring in RINGS if ring.is_field]


@st.composite
def matrices(draw, rings, square=False):
    """A ring and a matrix over it, 0 rows or 0 columns included."""
    ring = draw(st.sampled_from(rings))
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(0, 6))
    return ring, Matrix(ring, rows, cols, tuple(draw(vectors(ring, cols)) for _ in range(rows)))


def assert_reduced_echelon(ring, basis):
    """Nonzero rows whose leading entries are 1, in increasing columns, and
    zero in every other row."""
    leads = [next(j for j, x in enumerate(b) if x) for b in basis]
    assert leads == sorted(set(leads))
    for i, j in enumerate(leads):
        assert basis[i][j] == ring.one
        assert all(not other[j] for k, other in enumerate(basis) if k != i)


@settings(max_examples=400, deadline=None)
@given(matrices(FIELDS))
def test_nullspace_matches_the_reference(inputs):
    ring, m = inputs
    ker = nullspace(m)
    assert ker == ref_nullspace(m)
    assert_canonical(ring, ker.basis)
    assert_reduced_echelon(ring, ker.basis)
    for v in ker.basis:
        assert not any(ref_apply(m, v))


@settings(max_examples=300, deadline=None)
@given(matrices(RINGS, square=True))
def test_char_poly_matches_the_reference(inputs):
    ring, m = inputs
    assert_same(ring, char_poly(m), ref_char_poly(m))


def test_nullspace_is_one_elimination(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _hnf_full(*args)

    monkeypatch.setattr(exactlin, "_hnf_full", counted)
    for ring in (QQ, ZMod(5)):
        m = Matrix.from_rows(ring, [[1, 2, 0, 3], [2, 4, 1, 1], [3, 6, 1, 4]])
        calls.clear()
        assert nullspace(m).dim == 2
        assert len(calls) == 1
