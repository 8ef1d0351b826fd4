"""Every findim verdict survives an invertible change of basis.

The algebra on the basis of the columns of P has the unit P^-1 u and the
table P^-1 m(P., P.), and an operator F becomes P^-1 F P (``rand_gl`` and
the ``change_*`` transforms in ``support``).  The verdicts must agree on
both sides: the laws, averaging, Reynolds, Lie, the bracket, nilpotency
type and k, the series, kernel = brackets, induced or not, and the outcome
of ``check_domain``.  Subspace and submodule outputs are carried across by
P^-1 and compared exactly.  A witness names basis indices, so it depends on
the basis: each is checked for validity in its own basis, by dense
arithmetic, not for equality.

The algebras of the other suites have monomial bases, where each column of
an operator and each cell of a table has few nonzero entries; the changed
bases make them dense, so these tests run the sparse kernels on inputs that
do not favour them, and the unit is rarely a basis vector.
"""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import Matrix, QQ, ZMod
from avgalg.findim import (
    BracketTable,
    Induced,
    NotADomainError,
    NotEndoInduced,
    NotLieError,
    NotNilpotent,
    algebra_from_json,
    bracket_from_json,
    check_domain,
    check_lie,
    induced_by_averaging,
    is_averaging,
    is_reynolds_averaging,
    lie_analysis,
    operator_from_json,
    primary_from_poly,
    StructureAlgebra,
    _Table,
    verify_algebra,
)
from support import (
    change_algebra, change_bracket, change_operator, change_span, dense_apply, dense_product,
    functional_operator, mult_operator, rand_gl, rand_int_algebra, rand_lie_bracket)

FIELDS = [QQ, ZMod(2), ZMod(5), ZMod(7)]
RINGS = FIELDS + [ZMod(6), ZMod(8), ZMod(9), ZMod(12)]
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def e(T, i):
    """Basis vector i of an algebra or a bracket table."""
    return tuple(int(k == i) for k in range(T.dim))


def mul(A, x, y):
    return dense_product(A.ring, A.mul, x, y)


def add(R, *vs):
    return tuple(R.of(sum(xs)) for xs in zip(*vs))


def neg(R, v):
    return tuple(R.of(-x) for x in v)


def rand_operator(rng, A, kind):
    """An averaging operator (multiplication or functional), or a random
    matrix with about half its entries zero."""
    vals = [rng.randint(-2, 2) for _ in range(A.dim)]
    if kind == "mult":
        return mult_operator(A, vals)
    if kind == "functional":
        return functional_operator(A, vals)
    return Matrix.from_rows(A.ring, [[rng.randint(-2, 2) * rng.randint(0, 1)
                                      for _ in range(A.dim)] for _ in range(A.dim)])


def dense_bracket(A, F):
    """[x, y] = x F(y) - y F(x) on basis pairs, Lie or not."""
    d, R = A.dim, A.ring
    cols = [F.col(j) for j in range(d)]
    return [[add(R, mul(A, e(A, i), cols[j]), neg(R, mul(A, e(A, j), cols[i])))
             for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------------
# witness validity, by dense arithmetic in the witness's own basis

def law_fails(A, failure):
    law, w = failure
    if law == "commutativity":
        i, j = w
        return A.mul[i][j] != A.mul[j][i]
    if law == "unit":
        (i,) = w
        return mul(A, A.unit, e(A, i)) != e(A, i)
    i, j, k = w
    return mul(A, A.mul[i][j], e(A, k)) != mul(A, e(A, i), A.mul[j][k])


def averaging_fails(A, F, w):
    i, j = w
    fi, fj = F.col(i), F.col(j)
    return dense_apply(F, mul(A, e(A, i), fj)) != mul(A, fi, fj)


def reynolds_fails(A, F, w):
    prod = mul(A, F.col(w[0]), F.col(w[1]))
    return dense_apply(F, prod) != prod


def lie_fails(L, witness):
    R, t = L.ring, L.table
    kind, w = witness
    if kind == "alternating":
        return any(t[w[0]][w[0]])
    if kind == "antisymmetry":
        i, j = w
        return t[i][j] != neg(R, t[j][i])
    i, j, k = w
    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    terms = [dense_product(R, t, t[a][b], e(L, c))
             for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
    return any(add(R, *terms))


def endo_fails(A, L, w):
    # [x, y] = x [1, y] + y [x, 1] at (e_i, e_j)
    R, (i, j) = A.ring, w
    one_e = dense_product(R, L.table, A.unit, e(A, j))
    e_one = dense_product(R, L.table, e(A, i), A.unit)
    return L.table[i][j] != add(R, mul(A, e(A, i), one_e), mul(A, e(A, j), e_one))


def zero_divisor_holds(A, err):
    w, z = err.witness, err.partner
    return any(w) and any(z) and not any(mul(A, w, z))


# ---------------------------------------------------------------------------
# the comparisons: A, F, L on one basis against A2, F2, L2 on the other

def compare_laws(A, A2):
    reports = verify_algebra(A), verify_algebra(A2)
    assert len({(r.commutative, r.associative, r.unital) for r in reports}) == 1
    for B, r in zip((A, A2), reports):
        assert r.failure is None or law_fails(B, r.failure)
    return reports[0].ok


def compare_operator(A, F, A2, F2, P, Pinv):
    """Averaging; for an averaging F also Reynolds, the bracket carried
    across, Lie, and every verdict of ``lie_analysis``."""
    avg, avg2 = is_averaging(A, F), is_averaging(A2, F2)
    assert avg.ok == avg2.ok
    if not avg.ok:
        assert averaging_fails(A, F, avg.witness) and averaging_fails(A2, F2, avg2.witness)
        return
    rey, rey2 = is_reynolds_averaging(A, F), is_reynolds_averaging(A2, F2)
    assert rey.ok == rey2.ok
    if not rey.ok:
        assert reynolds_fails(A, F, rey.witness) and reynolds_fails(A2, F2, rey2.witness)
    an, an2 = lie_analysis(A, F), lie_analysis(A2, F2)
    assert an2.bracket == change_bracket(an.bracket, P, Pinv)
    assert check_lie(A, an.bracket).ok and check_lie(A2, an2.bracket).ok
    kc, kc2 = an.kernel_comparison, an2.kernel_comparison
    assert kc.equal == kc2.equal
    assert (kc2.kernel, kc2.brackets) == (change_span(kc.kernel, Pinv),
                                          change_span(kc.brackets, Pinv))
    assert type(an.nilpotency) is type(an2.nilpotency)
    if isinstance(an.nilpotency, NotNilpotent):
        assert an2.nilpotency.stable == change_span(an.nilpotency.stable, Pinv)
    else:
        assert an.nilpotency.k == an2.nilpotency.k
    for s, s2 in ((an.derived, an2.derived), (an.lower_central, an2.lower_central)):
        assert (s is None) == (s2 is None) == (not A.ring.is_field)
        if s is not None:
            assert [x.dim for x in s.stages] == [x.dim for x in s2.stages]
            assert s.reaches_zero == s2.reaches_zero
            assert list(s2.stages) == [change_span(x, Pinv) for x in s.stages]


def compare_bracket(A, L, A2, L2):
    """Lie; for a Lie bracket over a field also induced or not."""
    lie, lie2 = check_lie(A, L), check_lie(A2, L2)
    assert lie.ok == lie2.ok
    if not lie.ok:
        assert lie_fails(L, lie.witness) and lie_fails(L2, lie2.witness)
        return
    if not A.ring.is_field:
        return
    res, res2 = induced_by_averaging(A, L), induced_by_averaging(A2, L2)
    assert type(res) is type(res2)
    if isinstance(res, NotEndoInduced):
        assert endo_fails(A, L, res.witness) and endo_fails(A2, L2, res2.witness)
    if isinstance(res, Induced):
        for B, M, r in ((A, L, res), (A2, L2, res2)):
            assert all(not averaging_fails(B, r.operator, (i, j))
                       for i in range(B.dim) for j in range(B.dim))
            assert dense_bracket(B, r.operator) == [list(row) for row in M.table]


def domain_outcome(A):
    try:
        return type(check_domain(A))
    except NotADomainError as err:
        assert zero_divisor_holds(A, err)
        return NotADomainError


# ---------------------------------------------------------------------------
# the tests

def _changed(rng, A):
    P, Pinv = rand_gl(rng, A.ring, A.dim)
    return change_algebra(A, P, Pinv), P, Pinv


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS), st.sampled_from(["mult", "functional", "random"]),
       st.randoms(use_true_random=False))
def test_operator_verdicts_survive_a_change_of_basis(ring, kind, rng):
    A = rand_int_algebra(rng, ring)
    F = rand_operator(rng, A, kind)
    A2, P, Pinv = _changed(rng, A)
    assert compare_laws(A, A2)
    compare_operator(A, F, A2, change_operator(F, P, Pinv), P, Pinv)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS),
       st.sampled_from(["averaging", "endomorphism", "neither", "raw", "moved"]),
       st.randoms(use_true_random=False))
def test_bracket_verdicts_survive_a_change_of_basis(ring, kind, rng):
    # "raw" is x F(y) - y F(x) for a random F, Lie or not; "moved" is an
    # averaging bracket with one entry moved, so it fails antisymmetry or,
    # on the diagonal, alternation.  make refuses a table that is not Lie,
    # so both are read as make reads them and built by the direct constructor
    A = rand_int_algebra(rng, ring)
    if kind == "raw":
        table = dense_bracket(A, rand_operator(rng, A, "random"))
    elif kind == "moved":
        lie = rand_lie_bracket(rng, A, "averaging")
        table = [[list(cell) for cell in row] for row in lie.table]
        table[rng.randrange(A.dim)][rng.randrange(A.dim)][rng.randrange(A.dim)] += 1
    if kind in ("raw", "moved"):
        L = BracketTable(ring, A.dim, _Table._read(ring, table, "bracket"))
        lie = check_lie(A, L)
        if not lie:
            with pytest.raises(NotLieError) as exc:
                BracketTable.make(ring, table)
            assert str(exc.value) == f"not a Lie bracket: {lie.witness}"
    else:
        L = rand_lie_bracket(rng, A, kind)
    A2, P, Pinv = _changed(rng, A)
    compare_bracket(A, L, A2, change_bracket(L, P, Pinv))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS), st.booleans(), st.randoms(use_true_random=False))
def test_law_verdicts_survive_a_change_of_basis(ring, symmetric, rng):
    # one table entry moved, and its mirror with it when symmetric, breaks
    # some laws; each report's first failure must hold in its own basis
    A = rand_int_algebra(rng, ring)
    table = [[list(cell) for cell in row] for row in A.mul]
    i, j, k = (rng.randrange(A.dim) for _ in range(3))
    table[i][j][k] = ring.of(table[i][j][k] + 1)
    if symmetric:
        table[j][i][k] = table[i][j][k]
    # a table that fails a law, which make refuses
    B = StructureAlgebra(ring, A.dim, A.unit, tuple(tuple(map(tuple, row)) for row in table))
    B2, _, _ = _changed(rng, B)
    compare_laws(B, B2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, ZMod(2), ZMod(3), ZMod(5), ZMod(7)]), st.integers(1, 4),
       st.randoms(use_true_random=False))
def test_domain_outcome_survives_a_change_of_basis(ring, d, rng):
    # ring[y]/(f) for a random monic integer f: a field, a product or a
    # non-reduced algebra, by the factorisation of f
    A0, _ = primary_from_poly([rng.randint(-3, 3) for _ in range(d)] + [1])
    A = StructureAlgebra.make(ring, A0.unit, A0.mul)
    A2, _, _ = _changed(rng, A)
    assert domain_outcome(A) is domain_outcome(A2)


def test_a_product_with_no_rational_root_is_refuted_on_every_basis():
    # Q[y]/((y^2 - 2)(y^2 - y + 1)): y has no rational eigenvalue, and every
    # prime sees factors of degree at most 2 at it; the factorisation over Q
    # refutes it in the monomial basis as on a changed one
    A, _ = primary_from_poly([-2, 2, -1, -1, 1])
    A2, _, _ = _changed(random.Random(91357), A)
    assert domain_outcome(A) is domain_outcome(A2) is NotADomainError


def _corpus(name):
    return json.loads((CORPUS / f"{name}.json").read_text())


@pytest.mark.parametrize("algebra, other, kind", [
    ("qi", "im", "operator"), ("qi", "conj", "operator"), ("z6", "double", "operator"),
    ("qi", "qi_bracket_i", "bracket"), ("r3", "bracket3", "bracket")])
@pytest.mark.parametrize("seed", range(4))
def test_corpus_verdicts_survive_a_change_of_basis(algebra, other, kind, seed):
    A = algebra_from_json(_corpus(algebra))
    A2, P, Pinv = _changed(random.Random(seed), A)
    assert compare_laws(A, A2)
    if kind == "operator":
        F = operator_from_json(A.ring, _corpus(other))
        compare_operator(A, F, A2, change_operator(F, P, Pinv), P, Pinv)
    else:
        L = bracket_from_json(A.ring, _corpus(other))
        compare_bracket(A, L, A2, change_bracket(L, P, Pinv))
    if A.ring.is_field:
        assert domain_outcome(A) is domain_outcome(A2)
