import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgalg.exactlin as EL
import avgalg.findim as FD
from avgalg.cli import main
from avgalg.exactlin import (
    Matrix,
    QQ,
    ShapeError,
    Subspace,
    ZMod,
    nullspace,
    poly_mul,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)
from avgalg.findim import (
    AveragingOperator,
    BracketTable,
    Certificate,
    Check,
    DomainCertificate,
    Induced,
    InduceNoSolution,
    Nilpotent,
    NotADomainError,
    NotAnAlgebraError,
    NotAnAveragingIdealError,
    NotAveragingError,
    NotEndoInduced,
    NotLieError,
    NotNilpotent,
    StructureAlgebra,
    ad_eigen,
    algebra_from_json,
    algebra_to_json,
    averaging_operator,
    bracket_from_json,
    bracket_to_json,
    check_domain,
    check_lie,
    derived_series,
    endo_induced_check,
    gamma_subalgebra,
    induced_bracket,
    induced_by_averaging,
    is_averaging,
    is_reynolds_averaging,
    is_unitary,
    kernel_equals_brackets,
    lie_analysis,
    lower_central_series,
    nilpotency_check,
    nilpotent_radical_domain,
    op_add,
    op_compose,
    op_poly_apply,
    op_scale,
    operator_from_json,
    operator_to_json,
    primary_from_poly,
    quotient_by_averaging_ideal,
    raw_bracket,
    require_verified,
    verify_algebra,
)
from support import (
    dim2_algebra,
    eigen_by_char_poly,
    functional_operator,
    mult_operator,
    product_algebra,
    rand_algebra,
    rand_averaging,
    rand_dim2_algebra,
    rand_element,
    rand_fraction,
    rand_int_algebra,
    rand_lie_bracket,
    rand_monic,
    ref_gamma_subalgebra,
    unitary_pair,
)


def qi():
    """Dimension-2 extension with a square root of -1; basis (1, i)."""
    return StructureAlgebra.make(QQ, (1, 0),
                                 [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])


def unchecked(unit, mul):
    """A table over Q by the direct constructor, which checks no law."""
    return StructureAlgebra(QQ, len(unit), tuple(unit),
                            tuple(tuple(tuple(cell) for cell in row) for row in mul))


def unchecked_bracket(table):
    """A bracket over Q read as ``make`` reads it, by the direct constructor,
    which checks no Lie axiom."""
    return BracketTable(QQ, len(table), FD._Table._read(QQ, table, "bracket"))


def assert_make_refuses(table, witness):
    """``make`` and the JSON loader refuse the table with the Lie scan's
    first failure."""
    for build in (lambda: BracketTable.make(QQ, table),
                  lambda: bracket_from_json(QQ, bracket_to_json(unchecked_bracket(table)))):
        with pytest.raises(NotLieError) as exc:
            build()
        assert str(exc.value) == f"not a Lie bracket: {witness}"


def imaginary_part(A):
    # sends 1 to 0 and i to 1
    return Matrix.from_cols(QQ, [(0, 0), (1, 0)])


def conjugation():
    # a + bi to a - bi: an algebra map on Q(i), not averaging
    return Matrix.from_cols(QQ, [(1, 0), (0, -1)])


def q3():
    return StructureAlgebra.make(
        QQ, (1, 1, 1),
        [[[1 if i == j == k else 0 for k in range(3)] for j in range(3)]
         for i in range(3)])


# e0 = 1, e1^2 = e2, e2^2 = e1, e1 e2 = e1: commutative and unital, but
# (e1 e1) e2 = e1 while e1 (e1 e2) = e2
NONASSOCIATIVE = ((1, 0, 0), [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 1], [0, 1, 0], [0, 1, 0]],
])

# one table failing each law of a commutative unital algebra; the second is
# Q(i) with i as its unit
FAILING_TABLES = {
    "commutativity": ((1, 0), [[[1, 0], [0, 1]], [[1, 1], [0, 0]]]),
    "unit": ((0, 1), [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]),
    "associativity": NONASSOCIATIVE,
}


class TestStructureAlgebra:
    def test_verify_accepts_good_algebra(self):
        report = verify_algebra(qi())
        assert report.ok and report.failure is None

    def test_mul_vec_matches_table(self):
        A = qi()
        i_sq = A.mul_vec((0, 1), (0, 1))
        assert i_sq == (QQ.of(-1), QQ.of(0))

    def test_noncommutative_table_reported(self):
        A = unchecked(*FAILING_TABLES["commutativity"])
        report = verify_algebra(A)
        assert not report.commutative
        assert report.failure[0] == "commutativity"

    def test_bad_unit_reported(self):
        A = unchecked(*FAILING_TABLES["unit"])
        report = verify_algebra(A)
        assert not report.unital
        with pytest.raises(ValueError):
            require_verified(A)

    def test_nonassociative_table_reported(self):
        A = unchecked((1, 0, 0), [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [1, 0, 0], [0, 0, 0]],
        ])
        report = verify_algebra(A)
        assert not report.ok

    def test_shape_validation(self):
        with pytest.raises(Exception):
            StructureAlgebra.make(QQ, (1, 0), [[[1, 0]]])

    def test_basis_vec_is_refused_outside_the_basis(self):
        # 0 is no basis vector, and a slice past the end is no vector of A
        A = q3()
        assert [A.basis_vec(i) for i in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for i in (3, 7, -1):
            with pytest.raises(ShapeError, match=rf"^basis index {i} outside range\(3\)$"):
                A.basis_vec(i)

    def test_random_builders_are_verified(self):
        rng = random.Random(11)
        for _ in range(15):
            require_verified(rand_algebra(rng))


class TestAveragingChecks:
    def test_imaginary_part_is_averaging_not_unitary(self):
        A = qi()
        F = imaginary_part(A)
        assert is_averaging(A, F).ok
        assert not is_unitary(A, F)
        assert not is_reynolds_averaging(A, F).ok

    def test_conjugation_is_not_averaging(self):
        A = qi()
        conj = Matrix.from_cols(QQ, [(1, 0), (0, -1)])
        chk = is_averaging(A, conj)
        assert not chk.ok and chk.witness == (0, 1)

    def test_reynolds_requires_averaging(self):
        with pytest.raises(NotAveragingError):
            is_reynolds_averaging(qi(), Matrix.from_cols(QQ, [(1, 0), (0, -1)]))

    def test_multiplication_operators_average(self):
        rng = random.Random(22)
        for _ in range(20):
            A = rand_algebra(rng)
            F = mult_operator(A, rand_element(rng, A))
            assert is_averaging(A, F).ok

    def test_functional_operators_average(self):
        rng = random.Random(33)
        for _ in range(20):
            A = rand_algebra(rng)
            F = functional_operator(A, rand_element(rng, A))
            assert is_averaging(A, F).ok

    def test_unitary_family(self):
        rng = random.Random(44)
        for _ in range(10):
            A, F = unitary_pair(rng)
            assert is_averaging(A, F).ok
            assert is_unitary(A, F)

    def test_idempotent_multiplication_is_reynolds(self):
        A = product_algebra(dim2_algebra(0, 1), dim2_algebra(0, 1))
        # (1, 0) componentwise is idempotent
        e = (QQ.of(1), QQ.of(0), QQ.of(0), QQ.of(0))
        F = mult_operator(A, e)
        assert is_reynolds_averaging(A, F).ok


class TestOperatorCalculus:
    def test_scale_preserves_averaging(self):
        rng = random.Random(55)
        for _ in range(15):
            A = rand_algebra(rng)
            F = rand_averaging(rng, A)
            r = rand_fraction(rng)
            G, cert = op_scale(A, r, F)
            assert cert.holds
            assert is_averaging(A, G).ok

    def test_poly_apply_preserves_averaging(self):
        rng = random.Random(66)
        for _ in range(15):
            A = rand_algebra(rng)
            F = rand_averaging(rng, A)
            coeffs = [0] + [rand_fraction(rng) for _ in range(3)]
            G, cert = op_poly_apply(A, coeffs, F)
            assert cert.holds
            assert is_averaging(A, G).ok

    def test_poly_apply_rejects_constant_term(self):
        A = qi()
        with pytest.raises(ValueError):
            op_poly_apply(A, [1, 1], imaginary_part(A))

    def test_add_certificate_fails_for_identity_shift(self):
        A = qi()
        F = imaginary_part(A)
        G = Matrix.identity(QQ, 2)
        assert is_averaging(A, G).ok
        H, cert = op_add(A, F, G)
        assert not cert.holds
        assert cert.witness == (0, 1)
        chk = is_averaging(A, H)
        assert not chk.ok and chk.witness == (0, 1)

    def test_add_holds_when_compatible(self):
        # adding an operator to itself always satisfies the cross identity
        A = qi()
        F = imaginary_part(A)
        H, cert = op_add(A, F, F)
        assert cert.holds
        assert is_averaging(A, H).ok

    def test_compose_commuting_multiplications(self):
        rng = random.Random(77)
        A = rand_algebra(rng)
        F = mult_operator(A, rand_element(rng, A))
        G = mult_operator(A, rand_element(rng, A))
        H, cert = op_compose(A, F, G)
        assert cert.holds
        assert is_averaging(A, H).ok

    def test_compose_names_the_failing_operand(self):
        # F averaging and G not: the certificate's witness is G's pair, in
        # either order, though the two do not commute either
        A = qi()
        F, G = imaginary_part(A), conjugation()
        witness = is_averaging(A, G).witness
        assert witness == (0, 1) and F.mul(G) != G.mul(F)
        for pair in ((F, G), (G, F)):
            assert op_compose(A, *pair)[1] == Certificate(
                "operands are averaging and commute", False, witness)


class TestBrackets:
    def test_imaginary_part_bracket(self):
        A = qi()
        L = induced_bracket(A, imaginary_part(A))
        assert L.table[0][1] == (QQ.of(1), QQ.of(0))
        assert L.table[1][0] == (QQ.of(-1), QQ.of(0))

    def test_induced_refuses_non_averaging(self):
        A = qi()
        conj = Matrix.from_cols(QQ, [(1, 0), (0, -1)])
        with pytest.raises(NotAveragingError) as exc:
            induced_bracket(A, conj)
        assert "raw_bracket" in str(exc.value)

    def test_raw_bracket_accepts_non_averaging(self):
        A = qi()
        conj = Matrix.from_cols(QQ, [(1, 0), (0, -1)])
        L = raw_bracket(A, conj)
        assert check_lie(A, L).ok

    def test_lie_axioms_on_random_averaging(self):
        rng = random.Random(88)
        for _ in range(20):
            A = rand_algebra(rng)
            L = induced_bracket(A, rand_averaging(rng, A))
            assert check_lie(A, L).ok

    def test_jacobi_witness_matches_right_factor_reference(self):
        def reference(A, L):
            # [[e_i,e_j],e_k] + cyclic, with e_k built as the right factor
            e = A.basis_vec
            for i, j, k in itertools.combinations(range(A.dim), 3):
                total = map(sum, zip(L.products([FD._terms(L.table[i][j], L.dim)], e(k))[0],
                                     L.products([FD._terms(L.table[j][k], L.dim)], e(i))[0],
                                     L.products([FD._terms(L.table[k][i], L.dim)], e(j))[0]))
                if any(total):
                    return ("jacobi", (i, j, k))
            return None

        rng = random.Random(89)
        seen = set()
        for _ in range(80):
            A = rand_algebra(rng)
            L = induced_bracket(A, rand_averaging(rng, A))
            tables = [L]
            if A.dim > 1:
                # one antisymmetric change to a Lie bracket can break Jacobi
                table = [[list(cell) for cell in row] for row in L.table]
                a, b = rng.sample(range(A.dim), 2)
                k = rng.randrange(A.dim)
                table[a][b][k] += 1
                table[b][a][k] -= 1
                tables.append(unchecked_bracket(table))
            for T in tables:
                got = check_lie(A, T)
                assert (got.ok, got.witness) == (reference(A, T) is None, reference(A, T))
                seen.add(got.witness)
                if not got:
                    assert_make_refuses(T.table, got.witness)
        assert None in seen and len(seen) >= 3

    def test_check_lie_rejects_non_antisymmetric(self):
        A = qi()
        table = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        chk = check_lie(A, unchecked_bracket(table))
        assert chk == Check(False, ("antisymmetry", (0, 1)))
        assert_make_refuses(table, chk.witness)

    def test_check_lie_rejects_nonzero_diagonal(self):
        A = qi()
        table = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        chk = check_lie(A, unchecked_bracket(table))
        assert chk == Check(False, ("alternating", (0,)))
        assert_make_refuses(table, chk.witness)


class TestEndoAndGamma:
    def test_gamma_on_imaginary_part(self):
        A = qi()
        L = induced_bracket(A, imaginary_part(A))
        assert gamma_subalgebra(A, L).basis == ((QQ.of(1), QQ.of(0)),)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([QQ, ZMod(2), ZMod(3), ZMod(7)]),
           st.sampled_from(["averaging", "endomorphism", "neither"]),
           st.randoms(use_true_random=False))
    def test_gamma_matches_the_dense_reference(self, ring, kind, rng):
        # gamma_subalgebra is specified for brackets that pass the
        # endomorphism criterion; the solver must refuse every other bracket
        # before it reaches Gamma
        A = rand_int_algebra(rng, ring)
        L = rand_lie_bracket(rng, A, kind)
        assert check_lie(A, L).ok
        if endo_induced_check(A, L).ok:
            assert gamma_subalgebra(A, L) == ref_gamma_subalgebra(A, L)
        else:
            assert isinstance(induced_by_averaging(A, L), NotEndoInduced)
            with pytest.raises(ValueError, match="not endomorphism-induced"):
                gamma_subalgebra(A, L)

    def test_gamma_refuses_a_bracket_that_is_not_endomorphism_induced(self):
        # [e_a, e_b] = c e_a ignores the multiplication, and Gamma solved
        # inside ker E is Gamma only for a bracket that passes the
        # endomorphism criterion: 126 of these 300 draws fail it
        refused = 0
        for ring in (QQ, ZMod(3), ZMod(5)):
            rng = random.Random(5)
            for _ in range(100):
                A = rand_int_algebra(rng, ring)
                L = rand_lie_bracket(rng, A, "neither")
                endo = endo_induced_check(A, L)
                if endo:
                    assert gamma_subalgebra(A, L) == ref_gamma_subalgebra(A, L)
                    continue
                with pytest.raises(ValueError) as exc:
                    gamma_subalgebra(A, L)
                assert type(exc.value) is ValueError
                assert str(exc.value) == ("bracket is not endomorphism-induced "
                                          f"(witness pair {endo.witness})")
                refused += 1
        assert refused == 126

    def test_gamma_makes_one_row_product_per_other_kernel_vector(self, monkeypatch):
        # The endomorphism check takes one row_products call per column
        # [e_i, 1] of E = [., 1], 6 on a 6-dimensional algebra.  Gamma lies
        # in ker E and holds 1, so only the vectors w of a basis of ker E
        # other than 1 carry conditions, each read off the multiplication by
        # w: one row_products call per w, and no mul_vec.  On
        # Q[y]/(y^6 - 3) a functional operator's E has rank 5, so ker E is
        # the line of 1 and Gamma takes no row product; the zero bracket of a
        # multiplication operator has E = 0 and ker E = A, so Gamma takes one
        # row product for each of the 5 vectors besides 1
        A, _ = primary_from_poly([-3, 0, 0, 0, 0, 0, 1])
        calls = []
        for name in ("mul_vec", "row_products"):
            def counted(self, *args, _name=name, _method=getattr(StructureAlgebra, name)):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(StructureAlgebra, name, counted)
        for F, count, dim in ((functional_operator(A, [1, 2, 0, -1, 0, 3]), 0, 1),
                              (mult_operator(A, [0, 1, 0, 2, 0, 0]), 5, 6)):
            L = induced_bracket(A, F)
            calls.clear()
            gamma = gamma_subalgebra(A, L)
            assert calls == ["row_products"] * (6 + count)
            assert gamma == ref_gamma_subalgebra(A, L) and gamma.dim == dim

    def test_random_brackets_cover_all_three_kinds(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(60):
            A = rand_int_algebra(rng, QQ)
            for kind in ("averaging", "endomorphism", "neither"):
                L = rand_lie_bracket(rng, A, kind)
                res = induced_by_averaging(A, L)
                seen.add((kind, type(res).__name__))
        assert {("averaging", "Induced"), ("endomorphism", "InduceNoSolution"),
                ("neither", "NotEndoInduced")} <= seen

    def test_endo_check_passes_for_endo_brackets(self):
        rng = random.Random(99)
        for _ in range(20):
            A = rand_algebra(rng)
            G = Matrix.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(A.dim)]
                                      for _ in range(A.dim)])
            try:
                L = raw_bracket(A, G)
            except NotLieError:
                continue
            assert endo_induced_check(A, L).ok

    def test_componentwise_example_fails_endo_check(self):
        A = q3()
        tab = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        tab[0][1], tab[1][0] = [1, 0, 0], [-1, 0, 0]
        tab[0][2], tab[2][0] = [0, 1, 0], [0, -1, 0]
        tab[1][2], tab[2][1] = [0, 0, 1], [0, 0, -1]
        L = BracketTable.make(QQ, tab)
        assert check_lie(A, L).ok
        chk = endo_induced_check(A, L)
        assert not chk.ok and chk.witness == (0, 1)


class TestInducedByAveraging:
    def test_qi_bracket_solves_exactly(self):
        A = qi()
        L = BracketTable.make(QQ, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
        res = induced_by_averaging(A, L)
        assert isinstance(res, Induced)
        assert res.t == (QQ.of(-1), QQ.of(0))
        assert res.operator.entries == ((QQ.of(-1), QQ.of(0)),
                                        (QQ.of(0), QQ.of(0)))

    def test_zero_bracket_gives_zero_operator(self):
        A = qi()
        L = BracketTable.make(QQ, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
        res = induced_by_averaging(A, L)
        assert isinstance(res, Induced)
        assert res.t == (QQ.zero, QQ.zero)
        assert all(x == QQ.zero for row in res.operator.entries for x in row)

    def test_componentwise_example_not_induced(self):
        A = q3()
        tab = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        tab[0][1], tab[1][0] = [1, 0, 0], [-1, 0, 0]
        tab[0][2], tab[2][0] = [0, 1, 0], [0, -1, 0]
        tab[1][2], tab[2][1] = [0, 0, 1], [0, 0, -1]
        res = induced_by_averaging(A, BracketTable.make(QQ, tab))
        assert isinstance(res, NotEndoInduced)
        assert res.witness == (0, 1)

    def test_endo_induced_but_no_averaging_solution(self):
        A = q3()
        G = Matrix.from_rows(QQ, [[-2, 1, -1], [2, 0, 1], [-2, -1, 0]])
        L = raw_bracket(A, G)
        assert endo_induced_check(A, L).ok
        res = induced_by_averaging(A, L)
        assert isinstance(res, InduceNoSolution)

    def test_functional_operator_at_dimension_12(self):
        # Q[y]/(y^12 - 3) with F(x) = x_0 * 1, the functional e_0*
        A, _ = primary_from_poly([-3] + [0] * 11 + [1])
        L = induced_bracket(A, functional_operator(A, [1] + [0] * 11))
        res = induced_by_averaging(A, L)
        assert isinstance(res, Induced)
        assert raw_bracket(A, res.operator).table == L.table

    def test_random_dim2_always_induced(self):
        rng = random.Random(111)
        for _ in range(30):
            A = rand_dim2_algebra(rng)
            c = (rand_fraction(rng), rand_fraction(rng))
            L = BracketTable.make(QQ, [
                [[0, 0], list(c)],
                [[-c[0], -c[1]], [0, 0]],
            ])
            res = induced_by_averaging(A, L)
            assert isinstance(res, Induced)
            assert raw_bracket(A, res.operator).table == L.table
            assert is_averaging(A, res.operator).ok

    def test_each_pass_is_made_once(self, monkeypatch):
        # Q[y]/(y^6 - 3) with a functional operator's bracket: the columns
        # [e_i, 1] are one row_products call, shared by the endomorphism
        # check, Gamma and the operator; the one rref of the system gives the
        # solution, so the only nullspaces are Gamma's two: ker E (6 x 6) and
        # its conditions, none here, as ker E is the line of 1
        A, _ = primary_from_poly([-3, 0, 0, 0, 0, 0, 1])
        L = induced_bracket(A, functional_operator(A, [1, 2, 0, -1, 0, 3]))
        rows, shapes = [], []
        real_rows = BracketTable.row_products
        monkeypatch.setattr(BracketTable, "row_products",
                            lambda self, v: rows.append(v) or real_rows(self, v))
        for module in (FD, EL):
            monkeypatch.setattr(module, "nullspace",
                                lambda m: shapes.append((m.rows, m.cols)) or nullspace(m))
        res = induced_by_averaging(A, L)
        assert rows == [A.unit]
        assert shapes == [(6, 6), (0, 0)]
        assert isinstance(res, Induced) and raw_bracket(A, res.operator).table == L.table


class TestSeries:
    def test_derived_series_on_imaginary_part(self):
        A = qi()
        L = induced_bracket(A, imaginary_part(A))
        ds = derived_series(A, L)
        assert [s.dim for s in ds.stages] == [2, 1, 0]
        assert ds.reaches_zero
        assert ds.stage(2).is_zero()

    def test_lower_central_stalls_on_imaginary_part(self):
        A = qi()
        L = induced_bracket(A, imaginary_part(A))
        lc = lower_central_series(A, L)
        assert [s.dim for s in lc.stages] == [2, 1]
        assert not lc.reaches_zero

    def test_derived_series_length_two_for_averaging(self):
        rng = random.Random(222)
        for _ in range(20):
            A = rand_algebra(rng)
            L = induced_bracket(A, rand_averaging(rng, A))
            ds = derived_series(A, L)
            assert ds.stage(2).is_zero()


class TestNilpotency:
    def test_imaginary_part_not_nilpotent(self):
        A = qi()
        res = nilpotency_check(A, imaginary_part(A))
        assert isinstance(res, NotNilpotent)
        assert res.stable.basis == ((QQ.of(1), QQ.of(0)),)

    def test_zero_operator_nilpotent_at_one(self):
        A = qi()
        res = nilpotency_check(A, Matrix.zero(QQ, 2, 2))
        assert res == Nilpotent(1)

    def test_multiplication_operators_nilpotent_at_one(self):
        # their brackets vanish identically, so the annihilator is everything
        rng = random.Random(333)
        for _ in range(10):
            A = rand_algebra(rng)
            res = nilpotency_check(A, mult_operator(A, rand_element(rng, A)))
            assert res == Nilpotent(1)

    def test_zmod6_doubling_nilpotent(self):
        Z6 = ZMod(6)
        A = StructureAlgebra.make(Z6, (1,), [[[1]]])
        res = nilpotency_check(A, Matrix.from_rows(Z6, [[2]]))
        assert res == Nilpotent(1)

    def test_requires_averaging(self):
        A = qi()
        with pytest.raises(NotAveragingError):
            nilpotency_check(A, Matrix.from_cols(QQ, [(1, 0), (0, -1)]))


class TestDomainAndRadical:
    def test_field_extensions_pass_domain_check(self):
        check_domain(qi())
        A, _ = primary_from_poly([-2, 0, 1])
        check_domain(A)

    @staticmethod
    def assert_refuted(A):
        """check_domain names a nonzero zero divisor w with a nonzero partner."""
        with pytest.raises(NotADomainError) as info:
            check_domain(A)
        w, z = info.value.witness, info.value.partner
        assert any(w) and any(z)
        assert not nullspace(mult_operator(A, w)).is_zero()
        assert not any(A.mul_vec(w, z))
        return w

    def test_componentwise_fails_domain_check(self):
        self.assert_refuted(q3())

    def test_dual_numbers_fail_domain_check(self):
        # t is nilpotent in Q[t]/(t^2)
        assert self.assert_refuted(primary_from_poly([0, 0, 1])[0]) == (0, 1)

    def test_product_of_quadratic_fields_never_passes(self):
        # Q[t]/((t^2 - 2)(t^2 - 3)): every prime sees a factor of degree 2,
        # and there is no rational eigenvalue; the factor t^2 - 3 refutes
        A, F = primary_from_poly([6, 0, -5, 0, 1])
        assert self.assert_refuted(A) == (-3, 0, 1, 0)
        with pytest.raises(NotADomainError):
            nilpotent_radical_domain(A, F)

    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize("c", [2, 3, 5, -2, -3, -5])
    def test_eisenstein_fields_pass(self, d, c):
        A, _ = primary_from_poly([c] + [0] * (d - 1) + [1])
        cert = check_domain(A)
        chi = (c,) + (0,) * (d - 1) + (1,)
        assert cert == DomainCertificate("irreducible", A.basis_vec(1), chi, cert.primes)
        # the one prime of the factorisation divides neither d nor c
        assert len(cert.primes) == 1 and (d * c) % cert.primes[0]

    @pytest.mark.parametrize("coeffs", [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1],
                                        [576, 0, -960, 0, 352, 0, -40, 0, 1]])
    def test_fields_that_split_mod_every_prime_pass(self, coeffs):
        # t^4 + 1, the minimal polynomial of sqrt(2) + sqrt(3) and that of
        # sqrt(2) + sqrt(3) + sqrt(5) are irreducible but have factors of
        # degree at most 2 modulo every prime
        A, _ = primary_from_poly(coeffs)
        assert check_domain(A).reason == "irreducible"

    def test_small_degrees_pass(self):
        for A in (qi(), primary_from_poly([-2, 0, 0, 1])[0]):
            assert check_domain(A).reason == "irreducible"
        line, _ = primary_from_poly([-7, 1])
        assert check_domain(line) == DomainCertificate("dimension 1")

    def test_zero_ring_is_not_a_domain(self):
        with pytest.raises(NotADomainError):
            check_domain(StructureAlgebra.make(QQ, (), []))

    def test_gaussian_integers_mod_p(self):
        # t^2 + 1 is irreducible mod 3 and factors as (t - 2)(t + 2) mod 5
        def gaussian(p):
            R = ZMod(p)
            return StructureAlgebra.make(R, (1, 0), [[[1, 0], [0, 1]], [[0, 1], [p - 1, 0]]])

        assert check_domain(gaussian(3)) == DomainCertificate("frobenius")
        self.assert_refuted(gaussian(5))

    def test_nilpotent_mod_p(self):
        R = ZMod(7)
        A = StructureAlgebra.make(R, (1, 0), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
        assert self.assert_refuted(A) == (0, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3))
    def test_products_of_polynomials_never_pass(self, seed, dg, dh):
        rng = random.Random(seed)
        g, h = rand_monic(rng, dg), rand_monic(rng, dh)
        A, _ = primary_from_poly(poly_mul(QQ, g, h))
        self.assert_refuted(A)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32))
    def test_product_algebras_never_pass(self, seed):
        rng = random.Random(seed)
        self.assert_refuted(product_algebra(rand_algebra(rng, 3), rand_algebra(rng, 3)))

    def test_radical_is_kernel_when_nonzero(self):
        A = qi()
        rad = nilpotent_radical_domain(A, imaginary_part(A))
        assert rad.basis == ((QQ.of(1), QQ.of(0)),)

    def test_radical_is_everything_for_injective(self):
        A = qi()
        rad = nilpotent_radical_domain(A, mult_operator(A, (0, 1)))
        assert rad.is_full()


class TestAdEigen:
    def test_imaginary_part_at_i(self):
        A = qi()
        pairs = ad_eigen(A, imaginary_part(A), (0, 1))
        assert [str(k) for k, _ in pairs] == ["-1", "0"]
        spaces = dict(pairs)
        assert spaces[QQ.of(-1)] == nullspace(imaginary_part(A))
        assert spaces[QQ.of(0)].basis == ((QQ.of(0), QQ.of(1)),)

    def test_zero_element_gives_full_zero_space(self):
        A = qi()
        pairs = ad_eigen(A, imaginary_part(A), (0, 0))
        assert len(pairs) == 1
        assert pairs[0][0] == QQ.zero and pairs[0][1].is_full()

    def test_multiplication_operator_has_zero_ad(self):
        A, F = primary_from_poly([-2, 0, 1])
        pairs = ad_eigen(A, F, (1, 2))
        assert len(pairs) == 1 and pairs[0][1].is_full()

    def test_functional_operators_cross_check(self):
        rng = random.Random(444)
        for coeffs in ([-2, 0, 1], [-2, 0, 0, 1]):
            A, _ = primary_from_poly(coeffs)
            for _ in range(10):
                lam = rand_element(rng, A)
                F = functional_operator(A, lam)
                a = rand_element(rng, A)
                pairs = ad_eigen(A, F, a)
                assert pairs == eigen_by_char_poly(A, F, a)
                k = F.apply(a)[0]
                if any(x != QQ.zero for x in a) and k != QQ.zero \
                        and not nullspace(F).is_zero():
                    assert -k in dict(pairs)
                    assert dict(pairs)[-k] == nullspace(F)

    def test_kernel_of_ad_is_computed_once(self, monkeypatch):
        # at a = i the eigenvalues are 0, with ker ad, and -1, with ker F
        A, a = qi(), (QQ.of(0), QQ.of(1))
        L = induced_bracket(A, imaginary_part(A))
        ad = Matrix.from_cols(QQ, [L.products([FD._terms(a, A.dim)], A.basis_vec(i))[0]
                                   for i in range(A.dim)])
        seen = []
        monkeypatch.setattr(FD, "nullspace", lambda m: seen.append(m) or nullspace(m))
        ad_eigen(A, imaginary_part(A), a)
        assert sum(m == ad for m in seen) == 1

    @pytest.mark.parametrize("make", [functional_operator, mult_operator])
    def test_a_bare_matrix_builds_no_bracket_table(self, make, monkeypatch):
        # ad_a is read off the products of the averaging check
        A, _ = primary_from_poly([-3, 0, 0, 0, 1])
        F, a = make(A, [1, 2, 0, -1]), (2, 0, 1, 1)
        tables = []
        real = FD._bracket_table
        monkeypatch.setattr(FD, "_bracket_table", lambda *args: tables.append(1) or real(*args))
        assert ad_eigen(A, F, a) == eigen_by_char_poly(A, F, a)
        assert tables == []


class TestKernelBrackets:
    def test_zmod6_doubling_differs(self):
        Z6 = ZMod(6)
        A = StructureAlgebra.make(Z6, (1,), [[[1]]])
        res = kernel_equals_brackets(A, Matrix.from_rows(Z6, [[2]]))
        assert not res.equal
        assert res.kernel.basis == ((3,),)
        assert res.brackets.basis == ()

    def test_unitary_operators_match(self):
        rng = random.Random(555)
        for _ in range(10):
            A, F = unitary_pair(rng)
            res = kernel_equals_brackets(A, F)
            assert res.equal

    def test_injective_multiplication_trivially_matches(self):
        A = qi()
        res = kernel_equals_brackets(A, mult_operator(A, (2, 3)))
        assert res.equal and res.kernel.is_zero() and res.brackets.is_zero()


def _greedy_completion(R, vectors, dim):
    # the definition: add e_i whenever it grows the span, one span at a time
    chosen = []
    for i in range(dim):
        e = tuple(R.one if j == i else R.zero for j in range(dim))
        before = Subspace.span(R, dim, list(vectors) + chosen).dim
        if Subspace.span(R, dim, list(vectors) + chosen + [e]).dim > before:
            chosen.append(e)
    return chosen


@pytest.mark.parametrize("ring", [QQ, ZMod(5), ZMod(2)], ids=lambda R: R.name)
def test_complete_basis_is_the_greedy_completion(ring):
    rng = random.Random(11)
    for _ in range(150):
        dim = rng.randint(1, 5)
        vectors = [tuple(ring.of(rng.randint(-2, 2)) for _ in range(dim))
                   for _ in range(rng.randint(0, dim))]
        basis = list(Subspace.span(ring, dim, vectors).basis)
        got, _ = FD._complement(ring, basis, dim)
        assert got == _greedy_completion(ring, basis, dim)
        assert Subspace.span(ring, dim, basis + got).dim == dim


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, ZMod(5), ZMod(2)]), st.randoms(use_true_random=False))
def test_complement_projects_onto_the_completion(ring, rng):
    # an independent basis that is not in echelon form
    dim = rng.randint(1, 5)
    basis = []
    for _ in range(rng.randint(0, 2 * dim)):
        v = tuple(ring.of(rng.randint(-2, 2)) for _ in range(dim))
        if Subspace.span(ring, dim, basis + [v]).dim > len(basis):
            basis.append(v)
    delta, project = FD._complement(ring, basis, dim)
    assert len(basis) + len(delta) == dim

    def combine(coords, vectors):
        out = zero_vec(ring, dim)
        for c, u in zip(coords, vectors):
            out = vec_add(ring, out, vec_scale(ring, c, u))
        return out

    # [basis | delta] applied to coordinates gives v, whose delta part
    # project reads back
    coords = [ring.of(rng.randint(-3, 3)) for _ in range(dim)]
    v = combine(coords, basis + delta)
    assert project(v) == tuple(coords[len(basis):])
    # and any v minus its delta part lies in the span of the basis
    v = tuple(ring.of(rng.randint(-3, 3)) for _ in range(dim))
    rest = vec_sub(ring, v, combine(project(v), delta))
    assert Subspace.span(ring, dim, basis).contains_vector(rest)


class TestQuotient:
    def test_idempotent_generated_ideal(self):
        # A = Q[y]/(y^2 - y), F = multiplication by y, ideal (y)
        A = StructureAlgebra.make(QQ, (1, 0),
                                  [[[1, 0], [0, 1]], [[0, 1], [0, 1]]])
        F = mult_operator(A, (0, 1))
        A2, F2 = quotient_by_averaging_ideal(A, F, Subspace.span(QQ, 2, [(0, 1)]))
        assert A2.dim == 1
        assert A2.unit == (QQ.of(1),)
        assert all(x == QQ.zero for row in F2.entries for x in row)

    def test_rejects_non_ideal(self):
        A = qi()
        with pytest.raises(NotAnAveragingIdealError):
            quotient_by_averaging_ideal(A, imaginary_part(A),
                                        Subspace.span(QQ, 2, [(1, 0)]))

    def test_rejects_non_invariant_ideal(self):
        # componentwise: span of (1, 0, 0) is an ideal; choose an operator
        # moving it out
        A = q3()
        F = mult_operator(A, (1, 1, 1))
        perm = Matrix.from_cols(QQ, [(0, 1, 0), (1, 0, 0), (0, 0, 1)])
        with pytest.raises(NotAnAveragingIdealError):
            quotient_by_averaging_ideal(A, perm, Subspace.span(QQ, 3, [(1, 0, 0)]))
        A2, F2 = quotient_by_averaging_ideal(A, F, Subspace.span(QQ, 3, [(1, 0, 0)]))
        assert A2.dim == 2

    def test_rejects_full_ideal(self):
        A = qi()
        with pytest.raises(ValueError):
            quotient_by_averaging_ideal(A, imaginary_part(A), Subspace.full(QQ, 2))

    @pytest.mark.parametrize("ideal", [Subspace.span(ZMod(5), 2, []), Subspace.span(QQ, 3, [])],
                             ids=["other_ring", "other_dim"])
    def test_rejects_an_ideal_of_another_space(self, ideal):
        A = qi()
        with pytest.raises(ShapeError, match="^ideal does not live in this algebra$"):
            quotient_by_averaging_ideal(A, imaginary_part(A), ideal)


class TestPrimary:
    def test_cubic_powers(self):
        A, F = primary_from_poly([-2, 0, 0, 1])
        assert A.dim == 3
        assert F.col(0) == (QQ.of(0), QQ.of(1), QQ.of(0))
        assert F.col(2) == (QQ.of(2), QQ.of(0), QQ.of(0))
        assert is_averaging(A, F).ok

    def test_degree_one_gives_zero_operator(self):
        A, F = primary_from_poly([0, 1])
        assert A.dim == 1
        assert F.entries == ((QQ.zero,),)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            primary_from_poly([1, 2])

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            primary_from_poly([5])


class TestJson:
    def test_algebra_roundtrip(self):
        A = qi()
        doc = algebra_to_json(A)
        assert algebra_from_json(doc) == A

    def test_operator_roundtrip(self):
        F = imaginary_part(qi())
        assert operator_from_json(QQ, operator_to_json(F)) == F

    def test_bracket_roundtrip(self):
        A = qi()
        L = induced_bracket(A, imaginary_part(A))
        assert bracket_from_json(QQ, bracket_to_json(L)) == L

    def test_zmod_documents(self):
        Z6 = ZMod(6)
        A = StructureAlgebra.make(Z6, (1,), [[[1]]])
        doc = algebra_to_json(A)
        assert doc["scalar"] == "Zmod:6"
        assert algebra_from_json(doc) == A

    def test_malformed_documents_raise(self):
        with pytest.raises(ValueError):
            algebra_from_json({"scalar": "Q", "dim": 2, "unit": ["1"],
                               "mul": []})
        with pytest.raises(ValueError):
            algebra_from_json({"dim": 1})
        with pytest.raises(ValueError):
            operator_from_json(QQ, {"rows": []})

    def test_boolean_dim_is_refused(self):
        # true == 1 in Python, so a one-entry unit would match it
        doc = {"scalar": "Q", "dim": True, "unit": ["1"], "mul": [[["1"]]]}
        with pytest.raises(ValueError, match="^dim must be a JSON integer$"):
            algebra_from_json(doc)
        assert algebra_from_json(dict(doc, dim=1)).dim == 1


class TestLieAnalysis:
    def test_field_report(self):
        A = qi()
        an = lie_analysis(A, imaginary_part(A))
        assert an.derived.reaches_zero
        assert not an.lower_central.reaches_zero
        assert isinstance(an.nilpotency, NotNilpotent)
        assert an.kernel_comparison.equal

    def test_zmod_report_skips_series(self):
        Z6 = ZMod(6)
        A = StructureAlgebra.make(Z6, (1,), [[[1]]])
        an = lie_analysis(A, Matrix.from_rows(Z6, [[2]]))
        assert an.derived is None and an.lower_central is None
        assert an.nilpotency == Nilpotent(1)
        assert not an.kernel_comparison.equal

    def test_brackets_spanned_once(self, monkeypatch):
        # Z/6[y]/(y^6 - 1), where each span is one Submodule.span.  With
        # lam = (1, 2, 0, 3, 0, 1), F(1) = lam(1) * 1 = 1, so B = ker F, and
        # the brackets [e_i, 1] = e_i - lam_i * 1, i = 1..5, have Howell
        # order 6^5; im F = Z/6 * 1 has order 6, so they fill 6^6 and no
        # cell is spanned.  With every lam_i even, im F = 2Z/6 * 1 does not
        # hold 1, and the cells are spanned once
        Z6, d = ZMod(6), 6
        mul = [[[int(k == (i + j) % d) for k in range(d)] for j in range(d)] for i in range(d)]
        A = StructureAlgebra.make(Z6, [1] + [0] * (d - 1), mul)
        calls = []
        span = FD._bracket_span
        monkeypatch.setattr(FD, "_bracket_span", lambda L: calls.append(L) or span(L))
        for lam, spans in [((1, 2, 0, 3, 0, 1), 0), ((2, 4, 0, 2, 0, 4), 1)]:
            F = functional_operator(A, lam)
            calls.clear()
            an = lie_analysis(A, F)
            assert len(calls) == spans
            assert an.nilpotency == nilpotency_check(A, F)
            assert an.kernel_comparison == kernel_equals_brackets(A, F)

    def test_series_take_stage_one_from_the_bracket_span(self):
        # over a field the span of the brackets is stage 1 of both series, so
        # lie_analysis spans the brackets once for the kernel comparison: here
        # 1 = F(i) is in im F, so the span of [1, 1] = 0 and [i, 1] = -1
        A = qi()
        an = lie_analysis(A, imaginary_part(A))
        assert an.derived.stages[1] is an.kernel_comparison.brackets
        assert an.lower_central.stages[1] is an.kernel_comparison.brackets
        L = an.bracket
        assert (an.derived, an.lower_central) == (derived_series(A, L),
                                                  lower_central_series(A, L))


class TestAveragingOperator:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Calls of findim.is_averaging and of the Lie scan behind
        BracketTable.make and check_lie since the last reset."""
        counts = {"is_averaging": 0, "_lie_failure": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(FD, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(FD, name, counted)
        return counts

    def test_carries_matrix_and_bracket(self):
        A, F = qi(), imaginary_part(qi())
        op = averaging_operator(A, F)
        assert isinstance(op, AveragingOperator)
        assert op.algebra == A and op.matrix == F
        assert op.bracket == raw_bracket(A, F)
        assert averaging_operator(A, op) is op

    def test_witness_on_failure(self):
        with pytest.raises(NotAveragingError) as exc:
            averaging_operator(qi(), conjugation())
        assert exc.value.witness == (0, 1)
        assert "raw_bracket" in str(exc.value)

    def test_lie_analysis_checks_once(self, checks):
        # the bracket of an averaging operator is Lie by the paper's theorem,
        # which tests/test_bracket_theorem.py tests, so it is not re-checked
        A = qi()
        lie_analysis(A, imaginary_part(A))
        assert checks == {"is_averaging": 1, "_lie_failure": 0}

    def test_induced_by_averaging_checks_bracket_once(self, checks):
        # the input bracket comes from outside, so make checks it, and
        # induced_by_averaging does not check it again
        L = BracketTable.make(QQ, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
        assert checks["_lie_failure"] == 1
        assert isinstance(induced_by_averaging(qi(), L), Induced)
        assert checks == {"is_averaging": 0, "_lie_failure": 1}

    def test_cli_lie_analyze_checks_once(self, checks, monkeypatch, capsys):
        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert main(["lie-analyze", "corpus/qi.json", "corpus/im.json"]) == 0
        assert capsys.readouterr().out.startswith("averaging: yes")
        assert checks["is_averaging"] == 1

    def test_checked_operator_is_not_rechecked(self, checks):
        A = qi()
        op = averaging_operator(A, imaginary_part(A))
        checks.update(is_averaging=0, _lie_failure=0)
        assert isinstance(nilpotency_check(A, op), NotNilpotent)
        assert kernel_equals_brackets(A, op).equal
        # the bracket is built on its first use, once for both, and not checked
        assert checks == {"is_averaging": 0, "_lie_failure": 0}

    def test_bracket_is_built_on_first_use(self, checks):
        A = qi()
        op = averaging_operator(A, imaginary_part(A))
        assert checks == {"is_averaging": 1, "_lie_failure": 0}
        assert op.bracket == raw_bracket(A, imaginary_part(A))
        checks.update(_lie_failure=0)
        assert op.bracket is op.bracket
        assert checks["_lie_failure"] == 0

    def test_operator_only_callers_skip_the_bracket(self, checks, monkeypatch, capsys):
        A = qi()
        assert is_reynolds_averaging(A, imaginary_part(A)).ok is False
        assert nilpotent_radical_domain(A, imaginary_part(A)).dim == 1
        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert main(["verify", "corpus/qi.json", "corpus/im.json"]) == 0
        assert capsys.readouterr().out.startswith("algebra: ok")
        assert checks["_lie_failure"] == 0

    def test_ad_eigen_checks_bracket_once(self, checks):
        A = qi()
        ad_eigen(A, imaginary_part(A), (0, 1))
        assert checks == {"is_averaging": 1, "_lie_failure": 0}

    def test_operator_of_another_algebra_is_refused(self):
        op = averaging_operator(qi(), imaginary_part(qi()))
        split = StructureAlgebra.make(QQ, (1, 0), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
        with pytest.raises(ShapeError):
            averaging_operator(split, op)
        with pytest.raises(ShapeError):
            kernel_equals_brackets(split, op)


# every function that relies on the laws of a commutative associative unital
# algebra, applied to Q(i) and its imaginary part
LAW_DEPENDENT = {
    "averaging_operator": lambda A, F: averaging_operator(A, F),
    "lie_analysis": lambda A, F: lie_analysis(A, F),
    "kernel_equals_brackets": lambda A, F: kernel_equals_brackets(A, F),
    "nilpotency_check": lambda A, F: nilpotency_check(A, F),
    "induced_bracket": lambda A, F: induced_bracket(A, F),
    "ad_eigen": lambda A, F: ad_eigen(A, F, (1, 1)),
    "is_reynolds_averaging": lambda A, F: is_reynolds_averaging(A, F),
    "nilpotent_radical_domain": lambda A, F: nilpotent_radical_domain(A, F),
    "induced_by_averaging": lambda A, F: induced_by_averaging(A, induced_bracket(A, F)),
    "gamma_subalgebra": lambda A, F: gamma_subalgebra(A, induced_bracket(A, F)),
    "check_domain": lambda A, F: check_domain(A),
    "quotient_by_averaging_ideal":
        lambda A, F: quotient_by_averaging_ideal(A, F, Subspace.span(QQ, 2, [])),
}


class TestLawsAreCarried:
    """``make`` verifies the laws of the table it reads, so every algebra
    satisfies them and no function checks them again."""

    @pytest.fixture
    def verifications(self, monkeypatch):
        """Calls of findim.verify_algebra since the last reset."""
        calls = []
        original = FD.verify_algebra

        def counted(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(FD, "verify_algebra", counted)
        return calls

    @pytest.mark.parametrize("law", sorted(FAILING_TABLES))
    def test_make_refuses_a_table_that_fails_a_law(self, law):
        unit, mul = FAILING_TABLES[law]
        report = verify_algebra(unchecked(unit, mul))
        assert report.failure[0] == law
        for build in (lambda: StructureAlgebra.make(QQ, unit, mul),
                      lambda: algebra_from_json(algebra_to_json(unchecked(unit, mul)))):
            with pytest.raises(NotAnAlgebraError) as exc:
                build()
            assert isinstance(exc.value, ValueError)
            assert exc.value.failure == report.failure
            assert str(exc.value) == f"not a commutative unital algebra: {report.failure}"

    def test_law_dependent_functions_do_not_verify(self, verifications):
        A = qi()
        F = imaginary_part(A)
        assert verifications == [A]  # the one check, in make, and never again
        for call in LAW_DEPENDENT.values():
            call(A, F)
        assert verifications == [A]

    def test_law_free_checks_accept_any_table(self):
        A = unchecked(*NONASSOCIATIVE)
        F = functional_operator(A, (1, 0, 0))
        assert is_averaging(A, F).ok and is_unitary(A, F)
        L = raw_bracket(A, F)
        assert check_lie(A, L).ok and endo_induced_check(A, L).ok
        # [x, y] = x_0 y - y_0 x spans <e1, e2>, and [<e1, e2>, A] = <e1, e2>
        assert [s.dim for s in derived_series(A, L).stages] == [3, 2, 0]
        assert [s.dim for s in lower_central_series(A, L).stages] == [3, 2]

    def test_require_verified_carries_the_failure(self):
        with pytest.raises(NotAnAlgebraError) as exc:
            require_verified(unchecked(*NONASSOCIATIVE))
        assert exc.value.failure == ("associativity", (1, 1, 2))
        assert str(exc.value) == \
            "not a commutative unital algebra: ('associativity', (1, 1, 2))"

    def test_a_verified_algebra_is_not_verified_again(self, verifications):
        A = qi()
        assert verify_algebra(A).ok
        del verifications[:]
        lie_analysis(A, imaginary_part(A))
        gamma_subalgebra(A, induced_bracket(A, imaginary_part(A)))
        assert verifications == []

    def test_a_failing_algebra_is_refused_every_time(self, verifications):
        for _ in range(2):
            with pytest.raises(NotAnAlgebraError):
                StructureAlgebra.make(QQ, *NONASSOCIATIVE)
        assert len(verifications) == 2

    def test_make_and_the_loader_verify_every_table(self, verifications):
        A = qi()
        copies = [StructureAlgebra.make(QQ, A.unit, A.mul),
                  algebra_from_json(algebra_to_json(A))]
        # the direct constructor takes a table that satisfies the laws as it is
        copies.append(StructureAlgebra(QQ, A.dim, A.unit, A.mul))
        assert verifications == [A, *copies[:2]]
        for B in copies:
            assert B == A and hash(B) == hash(A) and repr(B) == repr(A)


class TestVerdictsAreCarried:
    """``BracketTable.make`` runs the Lie scan on the table it reads, so every
    bracket is a Lie bracket, as every algebra satisfies the laws.  No check
    marks its argument: the public checks decide on every call, and only
    ``nilpotent_radical_domain`` decides the domain, once per call."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """Calls of findim.check_domain, of the Lie scan behind
        BracketTable.make and check_lie, and of the decision over Q behind
        check_domain, since the last reset."""
        counts = {"check_domain": 0, "_lie_failure": 0, "_check_domain_q": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(FD, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(FD, name, counted)
        return counts

    @staticmethod
    def state(value):
        """Every slot of a record that is set, private slots included."""
        names = (n for cls in type(value).__mro__ for n in getattr(cls, "__slots__", ()))
        return {n: getattr(value, n) for n in names if hasattr(value, n)}

    def test_the_domain_is_decided_once(self, checks):
        # ad_eigen needs no domain, and the radical decides it on its call
        A = qi()
        F = imaginary_part(A)
        assert ad_eigen(A, F, (0, 1)) == ad_eigen(A, F, (0, 1))
        assert checks["check_domain"] == 0
        assert nilpotent_radical_domain(A, F) == Subspace.span(QQ, 2, [(1, 0)])
        assert checks == {"check_domain": 1, "_lie_failure": 0, "_check_domain_q": 1}

    @pytest.mark.parametrize("coeffs, error", [([-1, 0, 1], NotADomainError),
                                               ([6, 0, -5, 0, 1], NotADomainError)])
    def test_a_refused_domain_is_refused_every_time(self, checks, coeffs, error):
        # Q[t]/(t^2 - 1) and Q[t]/((t^2 - 2)(t^2 - 3)) are not domains, the
        # one refuted by a linear factor and the other by a quadratic one:
        # the refusal is not carried, and ad_eigen answers on both
        A, F = primary_from_poly(coeffs)
        for k in range(1, 4):
            with pytest.raises(error):
                nilpotent_radical_domain(A, F)
            assert checks["check_domain"] == checks["_check_domain_q"] == k
            assert ad_eigen(A, F, A.unit) == eigen_by_char_poly(A, F, A.unit)
            assert checks["check_domain"] == k

    def test_public_checks_decide_on_every_call(self, checks):
        # and neither writes to its argument: every slot, private ones
        # included, is as it was
        A = qi()
        L = induced_bracket(A, imaginary_part(A))
        before = [self.state(A), self.state(L)]
        assert check_domain(A) == check_domain(A)
        assert check_lie(A, L) == check_lie(A, L) == Check(True)
        assert checks["_check_domain_q"] == checks["_lie_failure"] == 2
        assert [self.state(A), self.state(L)] == before
        split, _ = primary_from_poly([-1, 0, 1])
        for _ in range(2):
            with pytest.raises(NotADomainError):
                check_domain(split)
        assert checks["_check_domain_q"] == 4

    def test_an_operator_bracket_is_not_checked_again(self, checks):
        A = qi()
        L = induced_bracket(A, imaginary_part(A))
        assert isinstance(induced_by_averaging(A, L), Induced)
        assert checks["_lie_failure"] == 0
        fresh = BracketTable.make(QQ, L.table)
        assert checks["_lie_failure"] == 1
        for _ in range(2):
            assert induced_by_averaging(A, fresh) == induced_by_averaging(A, L)
        assert checks["_lie_failure"] == 1

    def test_a_bracket_must_match_the_algebra(self):
        L = induced_bracket(qi(), imaginary_part(qi()))
        # dim 3 over Q, and dim 2 over Z/5
        other_ring = StructureAlgebra.make(ZMod(5), (1, 0),
                                           [[[1, 0], [0, 1]], [[0, 1], [4, 0]]])
        for A in (q3(), other_ring):
            for check in (check_lie, induced_by_averaging, gamma_subalgebra):
                with pytest.raises(ShapeError, match="^bracket does not match the algebra$"):
                    check(A, L)

    def test_a_non_lie_bracket_is_refused_every_time(self, checks):
        # [e_0, e_0] = e_1 is not alternating: make refuses the table on every
        # call, and check_lie refuses it, built without make, on every call
        A = qi()
        table = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
        for k in range(1, 5):
            if k % 2:
                with pytest.raises(NotLieError) as exc:
                    BracketTable.make(QQ, table)
                assert str(exc.value) == "not a Lie bracket: ('alternating', (0,))"
            else:
                assert check_lie(A, unchecked_bracket(table)) == \
                    Check(False, ("alternating", (0,)))
            assert checks["_lie_failure"] == k
