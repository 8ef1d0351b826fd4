"""Answers that a theorem gives agree with the re-derivations they replaced.

``ad_eigen`` returns the structural eigenvalues: 0 with ker ad_a, -k with
ker F when F(a) = k*1, and otherwise -mu with ker F ∩ ker(F(a) - mu) for
the rational eigenvalues mu != 0 of multiplication by F(a), which occur
only on algebras that are not domains.  ``induced_by_averaging`` returns
D + t*(.) as soon as its linear system is solved, because a solution is
averaging and induces L (both proofs are in the docstrings).
``tests/support.py`` keeps both functions as they were, re-deriving the
answer and reporting a disagreement (``ref_ad_eigen``, on domains only,
``ref_induced_by_averaging``, which takes Gamma from
``ref_gamma_subalgebra``); off domains ``ad_eigen`` is compared with
``eigen_by_char_poly``, which uses no theorem.  Results and refusals must
be equal: on Q fields from ``primary_from_poly``, the same fields on a
random basis (``rand_gl``), multiplication, functional and sum operators,
and algebras that are not domains.  An ``Induced`` operator is also checked
by dense arithmetic to be averaging and to induce L.
``gamma_subalgebra`` solves its conditions inside ker [., 1] only, and must
equal the five-loop reference ``ref_gamma_subalgebra``.

When 1 is in im F, ``lie_analysis``, ``nilpotency_check`` and
``kernel_equals_brackets`` read the bracket span off ker F (from the d
brackets [e_i, 1] when they fill it), the lower central series as A, B and
the nilpotency verdict from 1 in im F.  All three must equal ``ref_series``,
``ref_nilpotency_check`` and ker F solved against the span of every bracket
cell, with 1 in im F or not, and with [e_i, 1] filling ker F or not.

``primary_from_poly`` and ``quotient_by_averaging_ideal`` no longer verify
what they build: the first is compared with multiplication by y, the second
with a quotient computed here by dense elimination over Fractions, and both
results must pass the laws and the averaging check.
"""

import random
from fractions import Fraction
from functools import partial
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import QQ, Matrix, Submodule, Subspace, ZMod, nullspace, submodule_kernel
from avgalg.findim import (
    BracketTable,
    DomainCertificate,
    Induced,
    InduceNoSolution,
    InternalInvariantError,
    KernelBracketResult,
    NotEndoInduced,
    ad_eigen,
    check_domain,
    endo_induced_check,
    gamma_subalgebra,
    induced_bracket,
    induced_by_averaging,
    is_averaging,
    kernel_equals_brackets,
    lie_analysis,
    nilpotency_check,
    primary_from_poly,
    quotient_by_averaging_ideal,
    verify_algebra,
)
from support import (
    change_algebra,
    change_bracket,
    change_operator,
    dense_apply,
    dense_product,
    eigen_by_char_poly,
    functional_operator,
    mult_operator,
    product_algebra,
    rand_algebra,
    rand_element,
    rand_gl,
    rand_int_algebra,
    rand_lie_bracket,
    rand_monic,
    rand_sum_operator,
    ref_ad_eigen,
    ref_bracket_table,
    ref_gamma_subalgebra,
    ref_induced_by_averaging,
    ref_is_averaging,
    ref_nilpotency_check,
    ref_series,
)

FIELDS = [QQ, ZMod(2), ZMod(5), ZMod(7)]


def _outcome(fn, *args):
    """The result, or the refusal as its class name and message."""
    try:
        return fn(*args)
    except (ValueError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# ad_eigen

def _sum_on_product(left, right, f_left, f_right):
    """(A, F): the product algebra with F acting on each factor by its own
    operator, so each factor is an F-invariant ideal."""
    n, m = left.dim, right.dim
    cols = [f_left.col(j) + (0,) * m for j in range(n)] + \
        [(0,) * n + f_right.col(j) for j in range(m)]
    return product_algebra(left, right), Matrix.from_cols(left.ring, cols)


def _rand_operator(rng, A):
    """A multiplication or a functional operator with random entries."""
    return rng.choice([mult_operator, functional_operator])(A, rand_element(rng, A))


def _eigen_input(rng):
    """(A, F, a) over Q: a field y^d - c with |c| prime (Eisenstein), a
    random primary algebra (a field, not reduced, or a product), or a product
    of two with a sum operator; otherwise F is a multiplication or a
    functional operator.  a is random, and zero now and then.  A third of the
    draws are on a random basis, and one in twenty is over Z/5."""
    roll = rng.randint(0, 19)
    if roll == 0:
        A = rand_int_algebra(rng, ZMod(5))
        return A, functional_operator(A, [1] * A.dim), (1,) * A.dim
    if roll <= 10:
        d = rng.randint(1, 4)
        A, _ = primary_from_poly([rng.choice([-5, -3, -2, 2, 3, 5])] + [0] * (d - 1) + [1])
        F = _rand_operator(rng, A)
    elif roll <= 15:
        A, _ = primary_from_poly(rand_monic(rng, rng.randint(1, 4)))
        F = _rand_operator(rng, A)
    else:
        left, right = rand_algebra(rng, 2), rand_algebra(rng, 2)
        A, F = _sum_on_product(left, right, _rand_operator(rng, left),
                               _rand_operator(rng, right))
    a = (0,) * A.dim if rng.randint(0, 9) == 0 else rand_element(rng, A)
    if rng.randint(0, 2) == 0:
        P, Pinv = rand_gl(rng, QQ, A.dim)
        A, F, a = change_algebra(A, P, Pinv), change_operator(F, P, Pinv), dense_apply(Pinv, a)
    return A, F, a


def _eigen_reference(A, F, a):
    """The two-path reference on a domain, which it requires, and the
    characteristic polynomial route on an algebra that is not one."""
    out = _outcome(ref_ad_eigen, A, F, a)
    return _outcome(eigen_by_char_poly, A, F, a) if out[0] == "NotADomainError" else out


def _eigen_case(A, F, a, out) -> str:
    """Which case of ``ad_eigen`` gave ``out``, read by dense arithmetic: a
    refusal, 0 alone, or a nonzero eigenvalue, on a domain or not, with F(a)
    a scalar or not."""
    if isinstance(out[0], str):
        return out[0]
    if len(out) == 1:
        return "0 alone"
    domain = isinstance(_outcome(check_domain, A), DomainCertificate)
    scalar = not nullspace(Matrix.from_cols(QQ, [A.unit, dense_apply(F, a)])).is_zero()
    return (f"{'domain' if domain else 'non-domain'}, "
            f"F(a) {'a scalar' if scalar else 'not a scalar'}, nonzero eigenvalue")


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ad_eigen_matches_the_two_path_reference(rng):
    A, F, a = _eigen_input(rng)
    assert _outcome(ad_eigen, A, F, a) == _eigen_reference(A, F, a)


def test_ad_eigen_draws_reach_every_branch():
    # 0 alone, the -k eigenspace on domains and off them, the -mu
    # eigenspaces of an F(a) that is not a scalar, and the refusal (not
    # over Q) all occur, so the comparison sees each, and an F(a) that is
    # not a scalar gives a nonzero eigenvalue on no domain; t^4 + 1 is a
    # field and (t^2 - 2)(t^2 - 3) is not, though both split mod every prime
    rng = random.Random(31)
    inputs = [_eigen_input(rng) for _ in range(300)]
    for coeffs in ([1, 0, 0, 0, 1], [6, 0, -5, 0, 1]):
        A, F = primary_from_poly(coeffs)
        inputs.append((A, F, (0, 1, 0, 0)))
    seen = set()
    for A, F, a in inputs:
        out = _outcome(ad_eigen, A, F, a)
        assert out == _eigen_reference(A, F, a)
        seen.add(_eigen_case(A, F, a, out))
    assert seen == {"NotAFieldError", "0 alone",
                    "domain, F(a) a scalar, nonzero eigenvalue",
                    "non-domain, F(a) a scalar, nonzero eigenvalue",
                    "non-domain, F(a) not a scalar, nonzero eigenvalue"}


# ---------------------------------------------------------------------------
# induced_by_averaging

def _induce_input(rng, ring):
    """(A, L): a verified algebra (on a random basis now and then) with the
    bracket of a functional, a multiplication or a sum operator, of an
    endomorphism, or a Lie bracket of neither kind."""
    kind = rng.choice(["functional", "mult", "sum", "endomorphism", "neither"])
    if kind == "sum":
        A, F = rand_sum_operator(rng, ring)
        L = induced_bracket(A, F)
    else:
        A = rand_algebra(rng) if ring == QQ and rng.randint(0, 1) else rand_int_algebra(rng, ring)
        if kind == "mult":
            L = induced_bracket(A, mult_operator(A, [rng.randint(-2, 2) for _ in range(A.dim)]))
        else:
            L = rand_lie_bracket(rng, A, "averaging" if kind == "functional" else kind)
    if rng.randint(0, 2) == 0:
        P, Pinv = rand_gl(rng, ring, A.dim)
        A, L = change_algebra(A, P, Pinv), change_bracket(L, P, Pinv)
    return A, L


def _induces(A, L, op) -> bool:
    """op is averaging and x*op(y) - y*op(x) is L, by dense arithmetic."""
    R, d = A.ring, A.dim
    cols = [op.col(j) for j in range(d)]
    e = [A.basis_vec(i) for i in range(d)]
    bracket = [[tuple(R.of(x - y) for x, y in zip(dense_product(R, A.mul, e[i], cols[j]),
                                                   dense_product(R, A.mul, e[j], cols[i])))
                for j in range(d)] for i in range(d)]
    return ref_is_averaging(A, op).ok and bracket == [list(row) for row in L.table]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS + [ZMod(6)]), st.randoms(use_true_random=False))
def test_induced_by_averaging_matches_the_rechecking_reference(ring, rng):
    A, L = _induce_input(rng, ring)
    res = _outcome(induced_by_averaging, A, L)
    assert res == _outcome(ref_induced_by_averaging, A, L)
    if isinstance(res, Induced):
        assert _induces(A, L, res.operator)


def test_induce_draws_reach_every_outcome():
    rng = random.Random(31)
    seen = set()
    for k in range(300):
        A, L = _induce_input(rng, FIELDS[k % len(FIELDS)])
        res = induced_by_averaging(A, L)
        assert res == ref_induced_by_averaging(A, L)
        seen.add(type(res))
    assert seen == {Induced, NotEndoInduced, InduceNoSolution}


# ---------------------------------------------------------------------------
# gamma_subalgebra

GAMMA_FIELDS = [QQ, ZMod(2), ZMod(3), ZMod(5), ZMod(7)]


def _gamma_case(A, L, gamma) -> str:
    """Where Gamma sits in ker E, E = [., 1]: Gamma always lies in ker E and
    holds 1."""
    ker = nullspace(Matrix.from_cols(A.ring, L.row_products(A.unit)))
    assert gamma.contains_vector(A.unit)
    assert all(ker.contains_vector(v) for v in gamma.basis)
    if ker.dim == 1:
        return "line of 1"
    return "inside ker E" if gamma.dim < ker.dim else "ker E"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GAMMA_FIELDS), st.randoms(use_true_random=False))
def test_gamma_matches_the_five_loop_reference(ring, rng):
    # gamma_subalgebra is specified for brackets that pass the endomorphism
    # criterion, and the five loops hold for every bracket
    A, L = _induce_input(rng, ring)
    if endo_induced_check(A, L).ok:
        gamma = gamma_subalgebra(A, L)
        assert gamma == ref_gamma_subalgebra(A, L)
        _gamma_case(A, L, gamma)


def test_gamma_draws_reach_every_case():
    rng = random.Random(31)
    seen = set()
    for k in range(300):
        A, L = _induce_input(rng, GAMMA_FIELDS[k % len(GAMMA_FIELDS)])
        if endo_induced_check(A, L).ok:
            gamma = gamma_subalgebra(A, L)
            assert gamma == ref_gamma_subalgebra(A, L)
            seen.add(_gamma_case(A, L, gamma))
    assert seen == {"line of 1", "inside ker E", "ker E"}


def test_gamma_of_the_zero_bracket_is_the_algebra():
    for ring in GAMMA_FIELDS:
        A = rand_int_algebra(random.Random(7), ring)
        L = BracketTable.make(ring, [[[0] * A.dim] * A.dim] * A.dim)
        gamma = gamma_subalgebra(A, L)
        assert gamma.is_full() and gamma == ref_gamma_subalgebra(A, L)


def test_gamma_of_the_imaginary_part_is_the_line_of_one():
    # Q(i) with F(a + b*i) = b: [1, i] = 1, so E = [., 1] has rank 1
    A = primary_from_poly([1, 0, 1])[0]
    L = induced_bracket(A, Matrix.from_cols(QQ, [(0, 0), (1, 0)]))
    gamma = gamma_subalgebra(A, L)
    assert gamma.basis == ((1, 0),) and gamma == ref_gamma_subalgebra(A, L)
    assert _gamma_case(A, L, gamma) == "line of 1"


# ---------------------------------------------------------------------------
# primary_from_poly and quotient_by_averaging_ideal

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_primary_operator_is_multiplication_by_y(deg, rng):
    # the class of y is e_1, or -c_0 in degree 1
    coeffs = rand_monic(rng, deg)
    A, F = primary_from_poly(coeffs)
    y = (-coeffs[0],) if deg == 1 else A.basis_vec(1)
    assert F == mult_operator(A, y)
    assert is_averaging(A, F).ok


def _inverse(cols):
    """The inverse of the invertible matrix with these Fraction columns, by
    Gauss-Jordan elimination, as a list of rows."""
    d = len(cols)
    rows = [[Fraction(cols[j][i]) for j in range(d)] + [Fraction(int(i == k)) for k in range(d)]
            for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[d:] for row in rows]


def _quotient_reference(A, F, ideal):
    """(unit, table, operator columns) of A/I on the classes of the standard
    basis vectors that complete a basis of I greedily, by Fractions."""
    d = A.dim
    basis = [list(v) for v in ideal.basis]
    comp = []
    for i in range(d):
        e = A.basis_vec(i)
        if Subspace.span(QQ, d, basis + comp + [e]).dim > len(basis) + len(comp):
            comp.append(e)
    inv = _inverse(basis + comp)

    def project(v):
        return tuple(sum(r * x for r, x in zip(row, v)) for row in inv[len(basis):])

    table = tuple(tuple(project(dense_product(QQ, A.mul, x, y)) for y in comp) for x in comp)
    return project(A.unit), table, tuple(project(dense_apply(F, c)) for c in comp)


def _quotient_input(rng):
    """(A, F, I) over Q with I an F-invariant ideal: a principal ideal under
    a multiplication operator, or one factor of a product under a sum of
    multiplication and functional operators; a third of the first kind on a
    random basis."""
    if rng.randint(0, 1):
        left, right = rand_algebra(rng, 2), rand_algebra(rng, 2)
        A, F = _sum_on_product(left, right, _rand_operator(rng, left),
                               _rand_operator(rng, right))
        factor = range(left.dim) if rng.randint(0, 1) else range(left.dim, A.dim)
        return A, F, Subspace.span(QQ, A.dim, [A.basis_vec(i) for i in factor])
    A = rand_algebra(rng)
    F = mult_operator(A, rand_element(rng, A))
    gens = A.row_products(tuple(QQ.of(x) for x in rand_element(rng, A)))
    if rng.randint(0, 2) == 0:
        P, Pinv = rand_gl(rng, QQ, A.dim)
        A, F = change_algebra(A, P, Pinv), change_operator(F, P, Pinv)
        gens = [dense_apply(Pinv, v) for v in gens]
    return A, F, Subspace.span(QQ, A.dim, gens)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_quotient_matches_the_dense_reference(rng):
    A, F, ideal = _quotient_input(rng)
    if ideal.is_full():
        return
    A2, F2 = quotient_by_averaging_ideal(A, F, ideal)
    assert (A2.unit, A2.mul, tuple(zip(*F2.entries))) == _quotient_reference(A, F, ideal)
    assert verify_algebra(A2).ok and is_averaging(A2, F2).ok


def test_quotient_of_a_product_by_a_factor_is_the_other_factor():
    # Q[y]/(y^2 - 2) x Q[y]/(y^2 - 3) by the second factor, with a sum of a
    # functional and a multiplication operator: the first factor and its
    # functional operator
    left, _ = primary_from_poly([-2, 0, 1])
    right, _ = primary_from_poly([-3, 0, 1])
    lam = functional_operator(left, (1, 2))
    A, F = _sum_on_product(left, right, lam, mult_operator(right, (0, 1)))
    A2, F2 = quotient_by_averaging_ideal(A, F, Subspace.span(QQ, 4, [(0, 0, 1, 0), (0, 0, 0, 1)]))
    assert (A2.unit, A2.mul, F2) == (left.unit, left.mul, lam)


# ---------------------------------------------------------------------------
# lie_analysis, nilpotency_check and kernel_equals_brackets

LIE_RINGS = [QQ, ZMod(2), ZMod(5), ZMod(4), ZMod(6)]


def _lie_input(rng, ring):
    """(A, F) on an integer algebra: a multiplication operator, a functional
    operator with lam(1) a unit, 0 or (off fields) a zero divisor z, every
    lam_i then a multiple of z, a sum operator, or F = 0; a third on a
    random basis."""
    kind = rng.choice(["mult", "functional", "sum", "zero"])
    if kind == "sum":
        A, F = rand_sum_operator(rng, ring)
    else:
        A = rand_int_algebra(rng, ring)
        d = A.dim
        lam = [rng.randint(-3, 3) for _ in range(d)]
        if kind == "mult":
            F = mult_operator(A, lam)
        elif kind == "zero":
            F = Matrix.zero(ring, d, d)
        else:
            units = [-1, 1, 2, Fraction(1, 2)] if ring == QQ else \
                [u for u in range(1, ring.n) if gcd(u, ring.n) == 1]
            roll = rng.randint(0, 2)
            # unit[0] = 1 on these algebras, so lam_0 sets lam(1)
            assert A.unit[0] == 1
            lam[0] = (0 if roll == 1 else rng.choice(units)) - \
                sum(x * u for x, u in zip(lam[1:], A.unit[1:]))
            if roll == 2 and not ring.is_field:
                z = rng.choice([z for z in range(2, ring.n) if gcd(z, ring.n) > 1])
                lam = [z * x for x in lam]
            F = functional_operator(A, lam)
    if rng.randint(0, 2) == 0:
        P, Pinv = rand_gl(rng, ring, A.dim)
        A, F = change_algebra(A, P, Pinv), change_operator(F, P, Pinv)
    return A, F


def _lie_reference(A, F):
    """(case, bracket, derived, lower central, nilpotency, kernel
    comparison) by dense arithmetic and the references: the bracket from
    dense products, ``ref_series`` over a field (None otherwise),
    ``ref_nilpotency_check``, and ker F solved against the span B of every
    bracket cell.  The case says whether 1 is in im F and, if it is,
    whether the brackets [e_i, 1] span ker F."""
    R, d = A.ring, A.dim
    e = [A.basis_vec(i) for i in range(d)]
    L = ref_bracket_table(A, [[dense_product(R, A.mul, e[i], F.col(j)) for i in range(d)]
                              for j in range(d)])
    span, kernel = (Subspace.span, nullspace) if R.is_field else \
        (Submodule.span, partial(submodule_kernel, R))
    ker, B = kernel(F), span(R, d, [L.table[i][j] for i in range(d) for j in range(d)])
    if not span(R, d, [F.col(j) for j in range(d)]).contains_vector(A.unit):
        case = "1 not in im F"
    else:
        ones = [dense_product(R, L.table, x, A.unit) for x in e]
        case = "1 in im F, " + ("[e_i, 1] span ker F" if span(R, d, ones) == ker else
                                "[e_i, 1] fall short")
    series = (ref_series(A, L, False), ref_series(A, L, True)) if R.is_field else (None, None)
    return (case, L, *series, ref_nilpotency_check(A, F), KernelBracketResult(ker == B, ker, B))


def _lie_answers(A, F):
    """The reference's case, after checking that the three analyses equal it."""
    case, *want = _lie_reference(A, F)
    an = lie_analysis(A, F)
    got = [an.bracket, an.derived, an.lower_central, an.nilpotency, an.kernel_comparison]
    assert got == want and repr(got) == repr(want)
    assert nilpotency_check(A, F) == want[3] and kernel_equals_brackets(A, F) == want[4]
    return case


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LIE_RINGS), st.randoms(use_true_random=False))
def test_lie_analysis_matches_the_references(ring, rng):
    _lie_answers(*_lie_input(rng, ring))


def test_lie_analysis_draws_reach_every_case():
    # when 1 = F(y0), every u in ker F is the bracket [u, y0], so the
    # analyses read B = ker F, take it from the brackets [e_i, 1] when they
    # fill it, and read the series and the nilpotency verdict off it; each
    # of these, and the general path, must meet its reference
    rng = random.Random(39)
    seen = set()
    for k in range(500):
        seen.add(_lie_answers(*_lie_input(rng, LIE_RINGS[k % len(LIE_RINGS)])))
    assert seen == {"1 not in im F", "1 in im F, [e_i, 1] span ker F",
                    "1 in im F, [e_i, 1] fall short"}
