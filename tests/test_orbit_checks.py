"""The identity checks decided once per symmetry orbit agree with full scans.

Each check in ``findim`` visits one basis tuple per orbit of its symmetries;
``tests/support.py`` keeps the scans over every ordered tuple as references.
Results and witnesses must be equal on random commutative tables, on tables
where the identity holds and where it fails, and on non-commutative tables
for the two checks that take them (``verify_algebra``, ``check_lie``).  The work counts are pinned as equalities at the end.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgalg.findim as FD
from avgalg.exactlin import QQ, Matrix, Submodule, Subspace, ZMod
from avgalg.freeavg import NotAHomomorphismError, check_algebra_hom
from avgalg.findim import (
    AlgebraReport,
    BracketTable,
    Nilpotent,
    NotAveragingError,
    NotNilpotent,
    StructureAlgebra,
    _Table,
    check_lie,
    derived_series,
    endo_induced_check,
    induced_bracket,
    is_averaging,
    is_reynolds_averaging,
    lie_analysis,
    lower_central_series,
    nilpotency_check,
    primary_from_poly,
    verify_algebra,
)
from support import (
    change_algebra,
    change_operator,
    cyclic_algebra,
    dense_apply,
    dense_product,
    functional_operator,
    mult_operator,
    product_algebra,
    rand_gl,
    rand_int_algebra,
    rand_lie_bracket,
    rand_sum_operator,
    ref_add,
    ref_check_lie,
    ref_endo_induced_check,
    ref_is_averaging,
    ref_is_reynolds_averaging,
    ref_mul,
    ref_neg,
    ref_nilpotency_check,
    ref_series,
    ref_sub,
    ref_submodule_span,
    ref_verify_algebra,
)

RINGS = [QQ, ZMod(2), ZMod(6)]
FIELDS = [QQ, ZMod(2), ZMod(3)]
# composite moduli with non-unit pivots of every kind: p^2, p^3, p^2 q
COMPOSITE = [ZMod(4), ZMod(8), ZMod(9), ZMod(12)]


def _scalar(rng, ring):
    """Mostly zero, like the structure constants of the shipped algebras."""
    if rng.randint(0, 2):
        return ring.zero
    if ring == QQ and rng.randint(0, 3) == 0:
        return QQ.of(Fraction(rng.randint(-3, 3), 2))
    return ring.of(rng.randint(-2, 2))


def _rand_table(rng, ring, d, commutative):
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if commutative and j < i:
                table[i][j] = table[j][i]
            else:
                table[i][j] = tuple(_scalar(rng, ring) for _ in range(d))
    return tuple(tuple(row) for row in table)


def _perturbed(rng, ring, table, commutative, at=None):
    """table with one cell, random or the one at (i, j) = ``at``, changed in
    one coordinate (and its mirror cell when ``commutative``), so a check
    that held can fail late in the scan."""
    d = len(table)
    i, j = at or (rng.randrange(d), rng.randrange(d))
    k = rng.randrange(d)
    rows = [[list(cell) for cell in row] for row in table]
    rows[i][j][k] = ref_add(ring, rows[i][j][k], ring.one)
    if commutative and i != j:
        rows[j][i][k] = rows[i][j][k]
    return tuple(tuple(tuple(cell) for cell in row) for row in rows)


def _rand_commutative_algebra(rng, ring):
    """A verified algebra, one with a cell perturbed, or a random symmetric
    table with e_0 as a true unit (so that the associativity witness is
    reported) or with a random unit vector."""
    roll = rng.randint(0, 3)
    if roll < 2:
        A = rand_int_algebra(rng, ring)
        return A if roll == 0 else \
            StructureAlgebra(ring, A.dim, A.unit, _perturbed(rng, ring, A.mul, True))
    d = rng.randint(1, 4)
    e = [tuple(ring.one if k == i else ring.zero for k in range(d)) for i in range(d)]
    table = [list(row) for row in _rand_table(rng, ring, d, True)]
    if roll == 2:
        for j in range(d):
            table[0][j] = table[j][0] = e[j]
        return StructureAlgebra(ring, d, e[0], tuple(tuple(row) for row in table))
    return StructureAlgebra(ring, d, tuple(_scalar(rng, ring) for _ in range(d)),
                            tuple(tuple(row) for row in table))


def _permuted(ring, A, perm):
    """A with basis vector e_i renamed e_perm[i]."""
    d = A.dim

    def move(v):
        out = [ring.zero] * d
        for i, x in enumerate(v):
            out[perm[i]] = x
        return tuple(out)

    mul = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            mul[perm[i]][perm[j]] = move(A.mul[i][j])
    return StructureAlgebra(ring, d, move(A.unit), tuple(tuple(row) for row in mul))


def _unit_at_random_index(rng, ring):
    """(A, z): a commutative table whose unit is the basis vector e_z, z
    random.  Either a primary algebra with its basis shuffled, so the laws
    hold, or a random symmetric table with e_z as a true unit, so that
    associativity mostly fails."""
    d = rng.randint(1, 5)
    if rng.randint(0, 1):
        P, _ = primary_from_poly([rng.randint(-3, 3) for _ in range(d)] + [1])
        perm = rng.sample(range(d), d)
        return _permuted(ring, StructureAlgebra.make(ring, P.unit, P.mul), perm), perm[0]
    z = rng.randrange(d)
    e = [tuple(ring.one if k == i else ring.zero for k in range(d)) for i in range(d)]
    table = [list(row) for row in _rand_table(rng, ring, d, True)]
    for j in range(d):
        table[z][j] = table[j][z] = e[j]
    return StructureAlgebra(ring, d, e[z], tuple(tuple(row) for row in table)), z


def _rand_operator(rng, A):
    """An averaging operator, one with an entry perturbed, or a random one."""
    R, d = A.ring, A.dim
    roll = rng.randint(0, 3)
    if roll == 0:
        return mult_operator(A, [rng.randint(-2, 2) for _ in range(d)])
    F = functional_operator(A, [rng.randint(-2, 2) for _ in range(d)])
    if roll == 1:
        return F
    if roll == 2:
        rows = [list(row) for row in F.entries]
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i][j] = ref_add(R, rows[i][j], R.one)
        return Matrix.from_rows(R, rows)
    return Matrix.from_rows(R, [[_scalar(rng, R) for _ in range(d)] for _ in range(d)])


def _rand_bracket_table(rng, ring, d):
    """A table that fails the Lie axioms at a random place: any table, one
    with a zero diagonal, or an antisymmetric one, read as ``make`` reads
    it and built by the direct constructor, as ``make`` refuses it."""
    table = [[list(_scalar(rng, ring) for _ in range(d)) for _ in range(d)] for _ in range(d)]
    roll = rng.randint(0, 2)
    for i in range(d):
        if roll:
            table[i][i] = [ring.zero] * d
        if roll == 2:
            for j in range(i):
                table[i][j] = [ref_neg(ring, x) for x in table[j][i]]
    return BracketTable(ring, d, _Table._read(ring, table, "bracket"))


def _outcome(check, *args):
    """The result, or the refusal with its witness."""
    try:
        return check(*args)
    except NotAveragingError as exc:
        return ("not averaging", exc.witness)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.booleans(), st.randoms(use_true_random=False))
def test_verify_algebra_matches_the_full_scan(ring, commutative, rng):
    if commutative:
        A = _rand_commutative_algebra(rng, ring)
    else:
        base = rand_int_algebra(rng, ring)
        table = _perturbed(rng, ring, base.mul, False) if rng.randint(0, 1) else \
            _rand_table(rng, ring, base.dim, False)
        A = StructureAlgebra(ring, base.dim, base.unit, table)
    assert verify_algebra(A) == ref_verify_algebra(A)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_verify_algebra_skips_the_unit_exactly(ring, rng):
    # the unit is e_z; a cell off row and column z bumped can break
    # associativity only, a cell in row z bumped breaks the unit law (so
    # the triples holding z must be scanned again), and both can break both
    A, z = _unit_at_random_index(rng, ring)
    table, roll = A.mul, rng.randint(0, 3)
    others = [i for i in range(A.dim) if i != z]
    if roll & 1 and others:
        table = _perturbed(rng, ring, table, True, (rng.choice(others), rng.choice(others)))
    if roll & 2:
        table = _perturbed(rng, ring, table, True, (z, rng.randrange(A.dim)))
    A = StructureAlgebra(ring, A.dim, A.unit, table)
    assert verify_algebra(A) == ref_verify_algebra(A)


def test_verify_algebra_reports_an_unsorted_first_failure():
    # e_3 is the unit, e_0 e_2 = e_1 and e_1 e_1 = e_1, all other products of
    # e_0, e_1, e_2 are 0: (e_0 e_2) e_1 = e_1 but e_0 (e_2 e_1) = 0, and every
    # triple before (0, 2, 1) associates, (0, 1, 2) included
    z, e = (0,) * 4, [tuple(int(k == i) for k in range(4)) for i in range(4)]
    mul = [[z] * 4 for _ in range(4)]
    for i in range(4):
        mul[i][3] = mul[3][i] = e[i]
    mul[0][2] = mul[2][0] = e[1]
    mul[1][1] = e[1]
    A = StructureAlgebra(QQ, 4, e[3], tuple(tuple(row) for row in mul))
    got = verify_algebra(A)
    assert got == ref_verify_algebra(A)
    assert got == AlgebraReport(True, False, True, ("associativity", (0, 2, 1)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_is_averaging_matches_the_full_scan(ring, rng):
    A = _rand_commutative_algebra(rng, ring)
    F = _rand_operator(rng, A)
    assert is_averaging(A, F) == ref_is_averaging(A, F)


def _generator_input(rng, ring):
    """(A, F) for ``is_averaging``'s generator steps: a verified algebra with
    an operator of ``_rand_operator`` or a sum operator on a product, either
    with one entry bumped half the time and a third of them carried by
    ``rand_gl``; or a commutative table of ``_rand_commutative_algebra``,
    which keeps the tables that fail the laws."""
    roll = rng.randrange(4)
    if roll == 3:
        A = _rand_commutative_algebra(rng, ring)
        return A, _rand_operator(rng, A)
    if roll == 2:
        A, F = rand_sum_operator(rng, ring)
    else:
        A = rand_int_algebra(rng, ring)
        F = _rand_operator(rng, A)
    if rng.randint(0, 1):
        rows = [list(row) for row in F.entries]
        i, j = rng.randrange(A.dim), rng.randrange(A.dim)
        rows[i][j] = ref_add(ring, rows[i][j], ring.one)
        F = Matrix.from_rows(ring, rows)
    if rng.randrange(3) == 0:
        P, Pinv = rand_gl(rng, ring, A.dim)
        A, F = change_algebra(A, P, Pinv), change_operator(F, P, Pinv)
    return A, F


def _generator_outcome(A, F, ok) -> str:
    """Which of ``is_averaging``'s steps decides (A, F), found by dense
    reference arithmetic: F is A-linear when F(e_j e_k) = e_k F(e_j) for
    every j, k, and a refusal is surjective when im F is all of A."""
    R, d = A.ring, A.dim
    cols = [F.col(j) for j in range(d)]
    if all(dense_apply(F, A.mul[j][k]) == dense_product(R, A.mul, A.basis_vec(k), cols[j])
           for j in range(d) for k in range(d)):
        return "A-linear pass"
    ident = [A.basis_vec(i) for i in range(d)]
    span = (Subspace.span if R == QQ else ref_submodule_span)
    full = span(R, d, cols) == span(R, d, ident)
    return ("surjective" if full else "rank-deficient") + (" pass" if ok else " refusal")


def test_is_averaging_on_generators_reaches_every_step():
    # the verdict and the witness are the full scan's on every draw, and the
    # draws reach each way the check decides
    rng = random.Random(36)
    seen = set()
    for k in range(400):
        ring = [QQ, ZMod(2), ZMod(5), ZMod(4), ZMod(6)][k % 5]
        A, F = _generator_input(rng, ring)
        got = is_averaging(A, F)
        assert got == ref_is_averaging(A, F)
        seen.add(_generator_outcome(A, F, got.ok))
    assert seen == {"A-linear pass", "surjective refusal", "rank-deficient pass",
                    "rank-deficient refusal"}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_is_reynolds_averaging_matches_the_full_scan(ring, rng):
    A = rand_int_algebra(rng, ring)
    F = _rand_operator(rng, A)
    if rng.randint(0, 1):
        # lam(1) = 1 makes the functional operator Reynolds; every unit of
        # rand_int_algebra has first coordinate 1
        lam = [ring.one] + [ring.of(rng.randint(-2, 2)) for _ in range(A.dim - 1)]
        for u, x in zip(A.unit[1:], lam[1:]):
            lam[0] = ref_sub(ring, lam[0], ref_mul(ring, u, x))
        F = functional_operator(A, lam)
    assert _outcome(is_reynolds_averaging, A, F) == _outcome(ref_is_reynolds_averaging, A, F)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.booleans(), st.randoms(use_true_random=False))
def test_check_lie_matches_the_full_scan(ring, commutative, rng):
    A = rand_int_algebra(rng, ring)
    if rng.randint(0, 1):
        L = rand_lie_bracket(rng, A, rng.choice(["averaging", "endomorphism", "neither"]))
    else:
        L = _rand_bracket_table(rng, ring, A.dim)
    if not commutative:
        A = StructureAlgebra(ring, A.dim, A.unit, _rand_table(rng, ring, A.dim, False))
    assert check_lie(A, L) == ref_check_lie(A, L)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_endo_induced_check_matches_the_full_scan(ring, rng):
    if rng.randint(0, 1):
        A = rand_int_algebra(rng, ring)
        L = rand_lie_bracket(rng, A, rng.choice(["averaging", "endomorphism", "neither"]))
    else:
        A = _rand_commutative_algebra(rng, ring)
        L = rand_lie_bracket(rng, A, rng.choice(["endomorphism", "neither"]))
    assert check_lie(A, L).ok
    assert endo_induced_check(A, L) == ref_endo_induced_check(A, L)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.randoms(use_true_random=False))
def test_series_match_the_full_scan(ring, rng):
    A = rand_int_algebra(rng, ring, max_dim=5)
    L = rand_lie_bracket(rng, A, rng.choice(["averaging", "endomorphism", "neither"]))
    assert derived_series(A, L) == ref_series(A, L, lower=False)
    assert lower_central_series(A, L) == ref_series(A, L, lower=True)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(RINGS + COMPOSITE), st.randoms(use_true_random=False))
def test_nilpotency_check_matches_the_full_scan(ring, rng):
    if rng.randint(0, 2):
        A = rand_int_algebra(rng, ring, max_dim=5)
        F = _rand_operator(rng, A)
    else:
        A, F = rand_sum_operator(rng, ring)
    assert _outcome(nilpotency_check, A, F) == _outcome(ref_nilpotency_check, A, F)


def test_nilpotency_annihilates_the_whole_bracket_span():
    # Z/2[y]/(y^3) x Z/2[w]/(w^2 + w + 1) with F(y) = y^2, F(1_w) = 1_w and
    # F = 0 on 1_y, y^2, w: the brackets span <y^2, w>, and the stable image
    # power <1_w> kills y^2 but not w, so a check that read only the first
    # basis vector of the span would call F nilpotent
    R = ZMod(2)

    def primary(coeffs):
        A, _ = primary_from_poly(coeffs)
        return StructureAlgebra.make(R, A.unit, A.mul)

    A = product_algebra(primary([0, 0, 0, 1]), primary([1, 1, 1]))
    F = Matrix.from_cols(R, [(0,) * 5, (0, 0, 1, 0, 0), (0,) * 5, (0, 0, 0, 1, 0), (0,) * 5])
    L = induced_bracket(A, F)
    assert Subspace.span(R, 5, [g for row in L.table for g in row]).basis == (
        (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))
    got = nilpotency_check(A, F)
    assert got == ref_nilpotency_check(A, F)
    assert got == NotNilpotent(Subspace.span(R, 5, [(0, 0, 0, 1, 0)]))


def test_nilpotency_over_composite_moduli():
    # F(x) = lam(x) * 1 on Z/n[y]/(y^2 - 1) has image lam(A) * 1, and its one
    # bracket [1, y] = lam(y) * 1 - lam(1) * y
    A8 = cyclic_algebra(ZMod(8), 2)
    # the image 6 * 1 (generated by 2 * 1) does not kill [1, y] = 6 - 6y,
    # since 2 * 6 = 4 mod 8, but its square 4 * 1 does
    F = functional_operator(A8, (6, 6))
    assert nilpotency_check(A8, F) == ref_nilpotency_check(A8, F) == Nilpotent(2)
    # image 2 * 1 squares to 4 * 1, which is idempotent mod 12 and does not
    # kill [1, y] = 2 - 2y
    A12 = cyclic_algebra(ZMod(12), 2)
    F = functional_operator(A12, (2, 2))
    assert nilpotency_check(A12, F) == ref_nilpotency_check(A12, F) == \
        NotNilpotent(Submodule.span(ZMod(12), 2, [(4, 0)]))


# ---------------------------------------------------------------------------
# work counts

# (class, prefix of its count names, product methods): both tables share
# products and row_products, so a bracket table's counts are bracket_<name>
PRODUCTS = ((StructureAlgebra, "", ("row_products", "mul_vec", "products")),
            (BracketTable, "bracket_", ("row_products", "products")))


def only(**nonzero):
    """The counts of the ``calls`` fixture: ``nonzero``, every other 0."""
    return {prefix + name: nonzero.get(prefix + name, 0)
            for _, prefix, names in PRODUCTS for name in names}


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of the product methods of both table classes."""
    counts = {}
    for cls, prefix, names in PRODUCTS:
        for name in names:
            def counted(*args, _name=prefix + name, _method=getattr(cls, name)):
                counts[_name] += 1
                return _method(*args)

            counts[prefix + name] = 0
            monkeypatch.setattr(cls, name, counted)
    return counts


def test_verify_algebra_builds_each_triple_product_once(calls):
    # one row_products gives every e_i * 1 for the unit law; the unit is
    # e_0, so the associativity index set is the other d - 1 = 5, with
    # 5 * 6 / 2 = 15 pairs a <= b (15 * 6 = 90 row products, against
    # d^2 (d + 1) / 2 = 126 with e_0 kept and 2 d^3 = 432 for the scan).
    # The row products of a pair depend only on its cell e_a e_b = e_(a+b
    # mod 6), and a + b runs over 2..10, so the 15 cells are the 6 distinct
    # e_0..e_5, one row_products each: 1 + 6 = 7 calls, not 1 + 15 = 16.
    # make runs the same check on A first, so 7 + 7 = 14 calls in all
    A = cyclic_algebra(ZMod(5), 6)
    assert verify_algebra(A).ok
    assert calls == only(row_products=7 + 7)


def test_verify_algebra_scans_on_every_call(calls):
    # make has checked the laws of A, but verify_algebra itself reports from
    # a full scan each time
    A = cyclic_algebra(ZMod(5), 6)
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        assert verify_algebra(A).ok
        assert calls == only(row_products=7)


def test_is_averaging_multiplies_each_unordered_pair_once(calls, monkeypatch):
    # Multiplication by e_1 is A-linear, so step 1 decides: one row_products
    # pass per column j (6 calls) gives e_i * F(e_j) for the 6 rows i, 36
    # products, and no products pass follows.  Column j of F is
    # e_1 * e_j = e_(j+1 mod 6), a basis vector, so each pass reads column
    # j + 1 of the table and the kernel forms none of the 36: no _bilinear
    # call (forming them would take six groups of 6).  The full pair scan
    # would form 6 * 6 + 21 = 57 (F(e_i) * F(e_j) once per unordered pair),
    # and every ordered pair 6 * 6 + 36 = 72
    A = cyclic_algebra(ZMod(5), 6)
    F = mult_operator(A, A.basis_vec(1))
    groups = []
    kernel = FD._bilinear
    monkeypatch.setattr(FD, "_bilinear", lambda R, cells, gs, y: groups.append(len(gs))
                        or kernel(R, cells, gs, y))
    calls.update(dict.fromkeys(calls, 0))
    assert is_averaging(A, F).ok
    assert calls == only(row_products=6)
    assert groups == []


def test_bracket_subtracts_the_products_is_averaging_formed(calls):
    # F = lam(x) * 1 with lam(e_0) = 1: step 1's pass of column 0 gives
    # e_k * F(e_0) = e_k, which meets F(e_0 * e_k) = lam_k * 1 at k = 0 but
    # not at k = 1, so it stops after 1 row_products.  im F is the line of 1,
    # rank 1 < 6, so step 3 makes 1 products pass for its one generator.
    # The operator carries the pass of column 0, e_i * F(e_0) for every i,
    # so the bracket builds the other 5 columns' e_i * F(e_j) on first read,
    # one row_products each, and [e_i, e_j] = e_i F(e_j) - e_j F(e_i)
    # subtracts two, so the 15 cells i < j make no row product of their own
    # (2 * 15 = 30 if each cell formed its own), and the bracket is not
    # checked against the Lie axioms.  The counts start after make has
    # verified A
    A = cyclic_algebra(ZMod(5), 6)
    F = functional_operator(A, (1, 2, 0, 3, 0, 1))
    calls.update(dict.fromkeys(calls, 0))
    op = FD.averaging_operator(A, F)
    assert calls == only(row_products=1, products=1)
    calls.update(dict.fromkeys(calls, 0))
    L = op.bracket
    assert calls == only(row_products=5)
    assert L == FD.raw_bracket(A, F)


def test_series_compute_no_bracket_for_stage_zero(calls):
    # lam(x) * 1 on Q[y]/(y^3 - 1) with lam = (1, 1, 0): stage 1 is ker lam,
    # read off the table; the derived stage 2 brackets its one basis pair
    # x_0 < x_1 in the one pass of x_1 (x_0 has no basis vector before it),
    # and the lower central stage 2 brackets both basis vectors with
    # e_0..e_2, one row_products per basis vector
    A = cyclic_algebra(QQ, 3)
    L = induced_bracket(A, functional_operator(A, (1, 1, 0)))
    calls.update(dict.fromkeys(calls, 0))
    assert [s.dim for s in derived_series(A, L).stages] == [3, 2, 0]
    assert calls == only(bracket_products=1)
    calls["bracket_products"] = 0
    assert [s.dim for s in lower_central_series(A, L).stages] == [3, 2]
    assert calls == only(bracket_row_products=2)


def test_lie_analysis_reads_the_series_off_the_theorem(calls):
    # F = lam(x) * 1 on Z/5[y]/(y^6 - 1) with lam = (1, 2, 0, 3, 0, 1), and
    # the same lam times the idempotent e = (1, 0) on the product with Z/5:
    # im F is the line of 1, or of e, and the brackets span B = ker lam in
    # the first factor, of dimension 5.  Every bracket lies in ker F, so
    # the derived series A, B, 0 takes no product at all.  F(1) = 1 in the
    # first case, so B = ker F, which is spanned by the brackets
    # [e_i, 1] = e_i - lam_i * 1, i = 1..5: 1 bracket_row_products, and
    # their span has dimension 5 = 6 - dim im F, so it fills.  B * im F = B
    # there, so the lower central series is A, B and no power of im F is
    # formed: no products.
    # 1 is not in the line of e, so on the product nothing is read off:
    # [u, y] = u * F(y) for u in B, so the lower central stage 2 is one
    # products pass per basis vector u of B against the one image
    # generator e, 5 calls, and it equals B; the nilpotency check makes 1
    # more for the image power e, and B is spanned from the cells.  Either
    # way the generic series form brackets instead: 4 bracket_products
    # (derived, the basis vectors after the first) and 5
    # bracket_row_products (lower central)
    Z5, lam = ZMod(5), (1, 2, 0, 3, 0, 1)
    left = cyclic_algebra(Z5, 6)
    on_left = functional_operator(left, lam)
    on_e = Matrix.from_cols(Z5, [on_left.col(j) + (0,) for j in range(6)] + [(0,) * 7])
    for A, F, want, dims in [
            (left, on_left, only(bracket_row_products=1), [6, 5]),
            (product_algebra(left, cyclic_algebra(Z5, 1)), on_e, only(products=6), [7, 5])]:
        op = FD.averaging_operator(A, F)
        op.bracket  # built before the count starts, as in every analysis
        calls.update(dict.fromkeys(calls, 0))
        an = lie_analysis(A, op)
        assert calls == want
        assert [s.dim for s in an.derived.stages] == dims + [0]
        assert [s.dim for s in an.lower_central.stages] == dims
        calls.update(dict.fromkeys(calls, 0))
        assert (an.derived, an.lower_central) == (derived_series(A, op.bracket),
                                                  lower_central_series(A, op.bracket))
        assert calls == only(bracket_products=4, bracket_row_products=5)


@pytest.fixture
def kernels(monkeypatch):
    """Counts the kernel solves findim dispatches to."""
    counts = {}
    for name in ("nullspace", "submodule_kernel"):
        def counted(*args, _name=name, _func=getattr(FD, name)):
            counts[_name] += 1
            return _func(*args)

        counts[name] = 0
        monkeypatch.setattr(FD, name, counted)
    return counts


@pytest.mark.parametrize("ring, d, lam", [(QQ, 3, (1, 1, 0)), (ZMod(8), 2, (6, 6))])
def test_nilpotency_check_solves_no_kernel(kernels, ring, d, lam):
    # the annihilator of the brackets is tested by products, never solved
    # for; the reference solves for it once, which shows the counters work
    A = cyclic_algebra(ring, d)
    F = functional_operator(A, lam)
    want = ref_nilpotency_check(A, F)
    assert kernels == {"nullspace": int(ring.is_field), "submodule_kernel": int(not ring.is_field)}
    kernels.update(dict.fromkeys(kernels, 0))
    assert nilpotency_check(A, F) == want
    assert kernels == {"nullspace": 0, "submodule_kernel": 0}


def test_lie_analysis_solves_a_kernel_over_z6_only_when_unequal(kernels):
    # the kernel comparison reads B = ker F off |B|*|im F| = 6^4, and only an
    # unequal one solves for ker F; the series are skipped over composite Z/n
    # and the nilpotency check solves nothing.  For F(x) = lam(x)*1 with
    # lam = (1, 2, 3, 0) on Z/6[y]/(y^4 - 1), im F = Z/6*1 (lam_0 = 1), of
    # order 6, and the brackets [1, y^j] = lam_j*1 - y^j span ker F, of order
    # 6^3, so 0 kernels
    A = cyclic_algebra(ZMod(6), 4)
    an = lie_analysis(A, functional_operator(A, (1, 2, 3, 0)))
    assert isinstance(an.nilpotency, NotNilpotent) and an.kernel_comparison.equal
    assert kernels == {"nullspace": 0, "submodule_kernel": 0}
    # F(x) = 2x has the zero bracket and im F = 2A, of order 3^4, so
    # 1 * 3^4 != 6^4: 1 kernel, ker F = 3A
    an = lie_analysis(A, mult_operator(A, (2, 0, 0, 0)))
    assert not an.kernel_comparison.equal
    assert an.kernel_comparison.kernel == Submodule.span(ZMod(6), 4, [(3, 0, 0, 0), (0, 3, 0, 0),
                                                                      (0, 0, 3, 0), (0, 0, 0, 3)])
    assert kernels == {"nullspace": 0, "submodule_kernel": 1}


def test_lie_analysis_spans_no_image_power_for_a_zero_bracket(monkeypatch):
    # multiplication by y^2 on Z/6[y]/(y^5 - 1) has the zero bracket, so the
    # spans are those of the brackets and of im F, both for the kernel
    # comparison (y is a unit, so im F = A and |0|*|A| = 6^5: equal); every
    # image power kills the zero span, so the nilpotency check spans no
    # power (3 spans if it spanned one)
    A = cyclic_algebra(ZMod(6), 5)
    F = mult_operator(A, A.basis_vec(2))
    spans = []
    span = FD._span
    monkeypatch.setattr(FD, "_span", lambda *args: spans.append(args) or span(*args))
    an = lie_analysis(A, F)
    assert an.nilpotency == Nilpotent(1) and an.kernel_comparison.equal
    assert len(spans) == 2
    monkeypatch.undo()
    assert ref_nilpotency_check(A, F) == Nilpotent(1)


def test_nilpotency_multiplies_each_power_generator_by_each_bracket_generator(calls):
    # F(x) = 4 x_0 * 1 on Z/8[y]/(y^4 - 1): the image has the one generator
    # 4 * 1, the brackets [1, y^j] = -4 y^j the three generators 4 y^j, and
    # 4 * 4 = 0 mod 8, so Nilpotent(1) after one kernel pass for the one
    # power generator, which forms its 3 products with the bracket
    # generators and its 1 with the image generator
    A = cyclic_algebra(ZMod(8), 4)
    op = FD.averaging_operator(A, functional_operator(A, (4, 0, 0, 0)))
    assert op.bracket.dim == 4  # built and checked before the count starts
    calls.update(dict.fromkeys(calls, 0))
    assert nilpotency_check(A, op) == Nilpotent(1)
    assert calls == only(products=1)


def test_check_lie_makes_one_pass_per_bracket_cell(calls):
    # the bracket of lam(x) * 1 on Z/5[y]/(y^6 - 1) is a Lie bracket: one
    # row_products per cell [e_i, e_j], i < j, gives every [e_m, [e_i, e_j]],
    # so C(6, 2) = 15 passes serve the C(6, 3) = 20 Jacobi triples, where
    # three single-row brackets per triple would make 60
    A = cyclic_algebra(ZMod(5), 6)
    L = induced_bracket(A, functional_operator(A, (1, 2, 0, 3, 0, 1)))
    calls.update(dict.fromkeys(calls, 0))
    assert check_lie(A, L).ok
    assert calls == only(bracket_row_products=15)


def test_check_algebra_hom_makes_one_pass_per_column(calls):
    # theta(e_i) * theta(e_j) for every i comes from the one products pass
    # of column j: d = 6 calls, where one mul_vec per ordered pair made 36.
    # y -> y^5 is an automorphism of Z/5[y]/(y^6 - 1).  The 7 row_products
    # calls are make's check of A (test_verify_algebra_builds_each_triple_
    # product_once derives them)
    A = cyclic_algebra(ZMod(5), 6)
    theta = Matrix.from_cols(A.ring, [A.basis_vec(5 * i % 6) for i in range(6)])
    check_algebra_hom(theta, A, A)
    assert calls == only(row_products=7, products=6)


def test_check_algebra_hom_names_the_first_failing_pair(calls):
    # swapping y and y^2 is linear but not multiplicative; the error names
    # the first pair of the row-major scan with one mul_vec per pair,
    # (1, 1): theta(y * y) = y, theta(y) * theta(y) = y^4
    A = cyclic_algebra(ZMod(5), 6)
    theta = Matrix.from_cols(A.ring, [A.basis_vec(k) for k in (0, 2, 1, 3, 4, 5)])
    cols = [theta.col(j) for j in range(6)]
    first = next((i, j) for i in range(6) for j in range(6)
                 if theta.apply(A.mul[i][j]) != A.mul_vec(cols[i], cols[j]))
    assert first == (1, 1)
    calls.update(dict.fromkeys(calls, 0))
    with pytest.raises(NotAHomomorphismError, match=r"at \(1, 1\)$"):
        check_algebra_hom(theta, A, A)
    assert calls == only(products=6)
