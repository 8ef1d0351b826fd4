"""End-to-end acceptance gate.

Each test below is one pass/fail line under ``pytest -v``.  Every assertion
is exact (rational or modular arithmetic, zero tolerance); the gates that
carry a wall-clock budget enforce it with a final elapsed-time assertion.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from avgalg.decide import Fails, Holds, implies_one
from avgalg.exactlin import Matrix, QQ, ZMod, nullspace
from avgalg.freeavg import (
    FAElement,
    FreePoly,
    Mode,
    bracket_free,
    chain_witness,
    fa_f,
    fa_induced_hom,
    fa_mul,
    f_mode,
    monomial_ideal_contains,
    mul_mode,
    reduce_reynolds,
    reduce_unitary,
)
from avgalg.findim import (
    BracketTable,
    Induced,
    NotEndoInduced,
    StructureAlgebra,
    ad_eigen,
    algebra_from_json,
    check_lie,
    derived_series,
    induced_bracket,
    induced_by_averaging,
    is_averaging,
    kernel_equals_brackets,
    op_add,
    op_poly_apply,
    op_scale,
    operator_from_json,
    primary_from_poly,
    raw_bracket,
)
from avgalg.terms import IdentitySet, parse_equation
from support import (
    eigen_by_char_poly,
    fa_from_dict,
    functional_operator,
    kernel_sample,
    mult_operator,
    rand_algebra,
    rand_averaging,
    rand_dim2_algebra,
    rand_element,
    rand_fraction,
    rand_free_monomial,
    rand_free_poly,
    reynolds_step_at,
    unitary_pair,
    y_of,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

REYNOLDS_LAW = "f(f(v1)*f(v2)) = f(v1)*f(v2)"


def qi():
    return StructureAlgebra.make(QQ, (1, 0),
                                 [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])


def imaginary_part():
    return Matrix.from_cols(QQ, [(0, 0), (1, 0)])


def test_criterion_01_decision_examples():
    # budget: 1 s
    start = time.perf_counter()
    claim = parse_equation(REYNOLDS_LAW)
    assert isinstance(implies_one(IdentitySet.UNITARY_AVERAGING, claim), Holds)
    verdict = implies_one(IdentitySet.AVERAGING, claim)
    assert isinstance(verdict, Fails)
    assert verdict.witness.render() == "y[1]*y[x1]*y[x2] - y[x1]*y[x2]"
    assert time.perf_counter() - start < 1.0


def test_criterion_02_free_object_law_suite():
    # budget: 30 s for all three modes together
    start = time.perf_counter()
    rng = random.Random(20101)
    reducer = {
        Mode.PLAIN: lambda p: p,
        Mode.UNITARY: reduce_unitary,
        Mode.REYNOLDS: reduce_reynolds,
    }
    for mode in (Mode.PLAIN, Mode.UNITARY, Mode.REYNOLDS):
        for _ in range(500):
            p = reducer[mode](rand_free_poly(rng))
            q = reducer[mode](rand_free_poly(rng))
            fp = f_mode(mode, p)
            fq = f_mode(mode, q)
            assert f_mode(mode, mul_mode(mode, p, fq)) == mul_mode(mode, fp, fq)
            if mode is not Mode.PLAIN:
                prod = mul_mode(mode, fp, fq)
                assert f_mode(mode, prod) == prod
    assert time.perf_counter() - start < 30.0


def test_criterion_03_reynolds_confluence():
    # budget: 5 s
    start = time.perf_counter()
    rng = random.Random(20102)
    for _ in range(200):
        m = rand_free_monomial(rng, y_factors=3)
        for _ in range(rng.randint(0, 3)):
            m = m.mul(y_of())
        target = reduce_reynolds(m)
        for _ in range(10):
            cur = m
            while True:
                nxt = reynolds_step_at(cur, rng.randint(0, 10))
                if nxt is None:
                    break
                cur = nxt
            assert cur == target
    assert time.perf_counter() - start < 5.0


def test_criterion_04_kernel_decomposition():
    # budget: 10 s
    from avgalg.freeavg import bracket_decompose, f_free

    start = time.perf_counter()
    rng = random.Random(20103)
    done = 0
    while done < 100:
        w = kernel_sample(rng)
        if w.is_zero():
            continue
        assert f_free(w).is_zero()
        total = FreePoly.zero(QQ)
        for p, q in bracket_decompose(w):
            total = total.add(bracket_free(p, q))
        assert total == w
        done += 1
    assert time.perf_counter() - start < 10.0


def test_criterion_05_operator_calculus():
    rng = random.Random(20104)
    for _ in range(50):
        A = rand_algebra(rng)
        F = rand_averaging(rng, A)
        scaled, cert = op_scale(A, rand_fraction(rng), F)
        assert cert.holds and is_averaging(A, scaled).ok
        coeffs = [Fraction(0)] + [rand_fraction(rng) for _ in range(3)]
        applied, cert = op_poly_apply(A, coeffs, F)
        assert cert.holds and is_averaging(A, applied).ok
    # the shipped counterexample: adding the identity breaks the identity
    A = algebra_from_json(json.loads((CORPUS / "qi.json").read_text()))
    F = operator_from_json(A.ring, json.loads((CORPUS / "im.json").read_text()))
    with pytest.raises(ValueError):
        op_poly_apply(A, [1, 1], F)
    shifted, cert = op_add(A, F, Matrix.identity(QQ, 2))
    assert not cert.holds
    assert not is_averaging(A, shifted).ok


def test_criterion_06_induced_lie_suite():
    rng = random.Random(20105)
    for _ in range(50):
        A = rand_algebra(rng)
        F = rand_averaging(rng, A)
        L = induced_bracket(A, F)
        assert check_lie(A, L).ok
        series = derived_series(A, L)
        assert series.stage(2).is_zero()


def test_criterion_07_bracket_solver():
    # budget: 30 s
    start = time.perf_counter()
    A3 = StructureAlgebra.make(QQ, (1, 1, 1), [
        [[1 if i == j == k else 0 for k in range(3)] for j in range(3)]
        for i in range(3)
    ])
    tab = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    tab[0][1], tab[1][0] = [1, 0, 0], [-1, 0, 0]
    tab[0][2], tab[2][0] = [0, 1, 0], [0, -1, 0]
    tab[1][2], tab[2][1] = [0, 0, 1], [0, 0, -1]
    res = induced_by_averaging(A3, BracketTable.make(QQ, tab))
    assert isinstance(res, NotEndoInduced)

    rng = random.Random(20106)
    for _ in range(200):
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
    assert time.perf_counter() - start < 30.0


def test_criterion_08_eigen_cross_check():
    # ad_eigen returns the structural answer; each call is compared with the
    # direct path, the rational roots of the characteristic polynomial of ad
    # with one nullspace per root, computed here
    rng = random.Random(20107)
    quadratics = [qi(), primary_from_poly([-2, 0, 1])[0]]
    cubic = primary_from_poly([-2, 0, 0, 1])[0]
    for A in quadratics + [cubic]:
        for k in range(20):
            if k % 2 == 0:
                F = mult_operator(A, rand_element(rng, A))
            else:
                F = functional_operator(A, rand_element(rng, A))
            a = rand_element(rng, A)
            assert ad_eigen(A, F, a) == eigen_by_char_poly(A, F, a)
    pairs = ad_eigen(qi(), imaginary_part(), (0, 1))
    spaces = dict(pairs)
    assert set(spaces) == {QQ.of(0), QQ.of(-1)}
    assert spaces[QQ.of(-1)] == nullspace(imaginary_part())


def test_criterion_09_kernel_equals_brackets():
    Z6 = ZMod(6)
    A = StructureAlgebra.make(Z6, (1,), [[[1]]])
    res = kernel_equals_brackets(A, Matrix.from_rows(Z6, [[2]]))
    assert not res.equal
    rng = random.Random(20108)
    for _ in range(50):
        A, F = unitary_pair(rng)
        assert kernel_equals_brackets(A, F).equal


def test_criterion_10_chain_witness():
    stages = chain_witness(1, 10)
    assert len(stages) == 10
    for a, b in zip(stages, stages[1:]):
        gens_a = [g.terms[0][0] for g in a]
        gens_b = [g.terms[0][0] for g in b]
        # containment: every generator of the smaller stage divides out
        for g in gens_a:
            assert monomial_ideal_contains(gens_b, g)
        # strictness: the new generator escapes the smaller stage
        assert not monomial_ideal_contains(gens_a, gens_b[-1])


def test_criterion_11_free_on_algebra():
    A, _ = primary_from_poly([-2, 0, 1])
    rng = random.Random(20109)

    def rand_fa(alg, max_deg=2):
        out = fa_from_dict(QQ, alg.dim, {})
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, alg.dim - 1)
            sym = tuple(sorted(rng.randint(0, alg.dim - 1)
                               for _ in range(rng.randint(0, max_deg))))
            out = out.add(
                FAElement.basis(QQ, alg.dim, i, sym).scale(rand_fraction(rng)))
        return out

    for _ in range(100):
        a = rand_fa(A)
        b = rand_fa(A)
        lhs = fa_f(fa_mul(a, fa_f(b, A), A), A)
        rhs = fa_mul(fa_f(a, A), fa_f(b, A), A)
        assert lhs == rhs

    Q1 = StructureAlgebra.make(QQ, (1,), [[[1]]])
    B = qi()
    incl = Matrix.from_cols(QQ, [(1, 0)])
    for _ in range(100):
        a = rand_fa(Q1)
        lhs = fa_induced_hom(incl, fa_f(a, Q1), Q1, B)
        rhs = fa_f(fa_induced_hom(incl, a, Q1, B), B)
        assert lhs == rhs
