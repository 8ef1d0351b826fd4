"""Differential tests: exactlin's Q (int when integral, else Fraction) against
the all-Fraction reference ring in support.py.

Each case runs one operation on the same random input over both rings and
asserts equal results, and that every number in the QQ result is an int or
a Fraction with denominator above 1.
"""

import operator
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg._record import Record
from avgalg.exactlin import (
    Matrix,
    QQ,
    Rationals,
    char_poly,
    nullspace,
    rref,
    solve_linear,
)
from avgalg.findim import (
    BracketTable,
    NotLieError,
    StructureAlgebra,
    induced_bracket,
    induced_by_averaging,
    is_averaging,
    lie_analysis,
    raw_bracket,
)
from support import (
    FRACTION_QQ,
    FractionRationals,
    assert_canonical_q,
    rand_algebra,
    rand_averaging,
)

# small rationals, integral and not (denominators up to 4)
scalars = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def matrices(draw, max_rows=4, max_cols=5, square=False):
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    return [[draw(scalars) for _ in range(cols)] for _ in range(rows)]


def plain(x):
    """x with every ring replaced by its name, so that results over the two
    rings compare as equal exactly when their scalars do."""
    if isinstance(x, (Rationals, FractionRationals)):
        return x.name
    if isinstance(x, Record):
        return (type(x).__name__,) + tuple(plain(f) for f in x._astuple(x))
    if isinstance(x, (tuple, list)):
        return tuple(plain(v) for v in x)
    return x


def assert_same(new, ref):
    assert plain(new) == plain(ref)
    assert_canonical_q(new)


def both(rows):
    return Matrix.from_rows(QQ, rows), Matrix.from_rows(FRACTION_QQ, rows)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_and_nullspace_match_the_fraction_ring(rows):
    m, ref = both(rows)
    assert_same(rref(m), rref(ref))
    assert_same(nullspace(m), nullspace(ref))


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_char_poly_matches_the_fraction_ring(rows):
    m, ref = both(rows)
    assert_same(char_poly(m), char_poly(ref))


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_linear_matches_the_fraction_ring(rows, data):
    m, ref = both(rows)
    if data.draw(st.booleans()):
        # a consistent system: b is m times a random x
        x = [data.draw(scalars) for _ in range(m.cols)]
        b = m.apply(tuple(QQ.of(c) for c in x))
    else:
        b = [data.draw(scalars) for _ in range(m.rows)]
    assert_same(solve_linear(m, b), solve_linear(ref, b))


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_matrix_arithmetic_matches_the_fraction_ring(rows, data):
    m, ref = both(rows)
    other = both([[data.draw(scalars) for _ in row] for row in rows])
    k = data.draw(st.integers(1, 4))
    right = both([[data.draw(scalars) for _ in range(k)] for _ in range(m.cols)])
    c = data.draw(scalars)
    assert_same(m.add(other[0]), ref.add(other[1]))
    assert_same(m.sub(other[0]), ref.sub(other[1]))
    assert_same(m.scale(c), ref.scale(c))
    assert_same(m.mul(right[0]), ref.mul(right[1]))


def over_fraction_ring(A, F):
    return (StructureAlgebra.make(FRACTION_QQ, A.unit, A.mul),
            Matrix.from_rows(FRACTION_QQ, F.entries))


def rand_matrix(rng, dim):
    return Matrix.from_rows(QQ, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(dim)] for _ in range(dim)])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_algebra_checks_match_the_fraction_ring(rng):
    A = rand_algebra(rng)
    # an averaging operator, and an arbitrary matrix, which is averaging in
    # dimension 1 and seldom beyond
    for F in (rand_averaging(rng, A), rand_matrix(rng, A.dim)):
        A_ref, F_ref = over_fraction_ring(A, F)
        assert_same(is_averaging(A, F), is_averaging(A_ref, F_ref))
        if is_averaging(A, F):
            assert_same(lie_analysis(A, F), lie_analysis(A_ref, F_ref))
            L, L_ref = induced_bracket(A, F), induced_bracket(A_ref, F_ref)
            assert_same(induced_by_averaging(A, L), induced_by_averaging(A_ref, L_ref))


# the componentwise product on Q^3
Q3_UNIT = (1, 1, 1)
Q3_MUL = [[[int(i == j == k) for k in range(3)] for j in range(3)] for i in range(3)]


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_induced_by_averaging_on_endomorphism_brackets_matches(rng):
    # x*G(y) - y*G(x) for a sparse random G on Q^3: Lie for about 40 % of
    # the G, and then averaging-induced or not in about a 2:1 ratio
    A = StructureAlgebra.make(QQ, Q3_UNIT, Q3_MUL)
    G = Matrix.from_rows(QQ, [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                               if rng.randint(0, 1) else 0 for _ in range(3)]
                              for _ in range(3)])
    try:
        L = raw_bracket(A, G)
    except NotLieError:
        return
    A_ref, G_ref = over_fraction_ring(A, G)
    assert_same(induced_by_averaging(A, L),
                induced_by_averaging(A_ref, raw_bracket(A_ref, G_ref)))


def test_bracket_no_endomorphism_induces_matches():
    # [e0, e1] = e0, [e0, e2] = e1, [e1, e2] = e2 on Q^3 (corpus/bracket3.json)
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), v in {(0, 1): [1, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, 1]}.items():
        table[i][j], table[j][i] = v, [-x for x in v]
    results = [induced_by_averaging(StructureAlgebra.make(R, Q3_UNIT, Q3_MUL),
                                    BracketTable.make(R, table))
               for R in (QQ, FRACTION_QQ)]
    assert type(results[0]).__name__ == "NotEndoInduced"
    assert_same(*results)


def test_the_rings_differ_only_in_representation():
    rng = random.Random(7)
    for _ in range(2000):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for op in (operator.add, operator.sub, operator.mul):
            assert_same(op(QQ.of(a), QQ.of(b)) % QQ, op(a, b))
        if b:
            assert_same(QQ.inv(QQ.of(b)), FRACTION_QQ.inv(b))
        text = f"{a.numerator}/{a.denominator}"
        assert_same(QQ.parse(text), FRACTION_QQ.parse(text))
        assert QQ.render(QQ.of(a)) == FRACTION_QQ.render(a)
