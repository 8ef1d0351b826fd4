import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import QQ, ZMod
from avgalg import terms as T
from avgalg.findim import StructureAlgebra
import avgalg.freeavg as FA
from avgalg.freeavg import (
    MAX_CHAIN,
    ChainError,
    FAElement,
    FreePoly,
    Mode,
    NotInKernelError,
    bracket_decompose,
    bracket_free,
    _glex_key,
    chain_witness,
    eval_term,
    f_free,
    f_mode,
    fa_mul,
    monomial_ideal_contains,
    mul_mode,
    reduce_reynolds,
    reduce_unitary,
)
from support import (
    kernel_sample,
    poly_from_dict,
    rand_free_monomial,
    rand_free_poly,
    ref_gen_key,
    ref_mono_cmp,
    reynolds_step_at,
    x_var,
    y_of,
)

X1 = x_var(1)
X2 = x_var(2)
X3 = x_var(3)
Y = y_of


def test_f_on_variables():
    assert f_free(X1).render() == "y[x1]"
    assert f_free(X1.mul(X2)).render() == "y[x1*x2]"


def test_f_splits_x_and_y_parts():
    # f(u * v) = y_u * v with u the x-part and v the y-part
    p = X1.mul(X2).mul(Y(((3, 1),)))
    assert f_free(p).render() == "y[x3]*y[x1*x2]"


def test_f_of_pure_y_uses_empty_monomial():
    assert f_free(Y(((1, 1),))).render() == "y[1]*y[x1]"
    assert f_free(FreePoly.one()).render() == "y[1]"


def test_f_is_linear():
    rng = random.Random(101)
    for _ in range(50):
        p = rand_free_poly(rng)
        q = rand_free_poly(rng)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert f_free(p.add(q)) == f_free(p).add(f_free(q))
        assert f_free(p.scale(c)) == f_free(p).scale(c)


def test_display_order_is_graded():
    p = FreePoly.one().add(X2).add(X1.mul(X2)).add(X1.mul(X1))
    assert p.render() == "x1^2 + x1*x2 + x2 + 1"


def test_term_order_matches_reference_comparator():
    rng = random.Random(1212)
    ref = cmp_to_key(ref_mono_cmp)
    pool, equal_degree_y, mixed = set(), 0, 0
    for _ in range(150):
        p = kernel_sample(rng) if rng.randint(0, 1) else rand_free_poly(rng, y_factors=2)
        monos = [m for m, _ in p.terms]
        assert monos == sorted(monos, key=ref)
        for m in monos:
            assert [g for g, _ in m] == sorted((g for g, _ in m), key=ref_gen_key)
            ys = [g for g, _ in m if g[0] == "y"]
            equal_degree_y += len(ys) > len({ref_gen_key(g)[1][0] for g in ys})
            mixed += 0 < len(ys) < len(m)
        gens = {g for m in monos for g, _ in m}
        assert sorted(gens) == sorted(gens, key=ref_gen_key)
        pool.update(monos)
    # every pair of sampled monomials, not only neighbours inside one polynomial
    ordered = poly_from_dict(QQ, dict.fromkeys(pool, QQ.one)).terms
    assert [m for m, _ in ordered] == sorted(pool, key=ref)
    assert equal_degree_y and mixed


def test_zmod_sums_to_modulus_are_dropped():
    R = ZMod(6)
    x1, x2 = x_var(1, R), x_var(2, R)
    two, four = FreePoly.constant(2, R), FreePoly.constant(4, R)
    assert x1.scale(2).add(x2).add(x1.scale(4)) == x2
    # (x1 + 2)(x1 + 4) = x1^2 + 6*x1 + 8 = x1^2 + 2 over Z/6
    prod = x1.add(two).mul(x1.add(four))
    assert prod == x1.mul(x1).add(two)
    assert len(prod.terms) == 2
    # Z/6[w]/(w^2): (2 + 4w)(1 + w) = 2 + 6w + 4w^2 = 2
    A = StructureAlgebra.make(R, (1, 0), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    e0, e1 = FAElement.basis(R, 2, 0), FAElement.basis(R, 2, 1)
    a = e0.scale(2).add(e1.scale(4))
    assert fa_mul(a, e0.add(e1), A) == e0.scale(2)


def test_averaging_identity_every_mode():
    rng = random.Random(202)
    for mode in Mode:
        for _ in range(60):
            p = rand_free_poly(rng)
            q = rand_free_poly(rng)
            lhs = f_mode(mode, mul_mode(mode, p, f_mode(mode, q)))
            rhs = mul_mode(mode, f_mode(mode, p), f_mode(mode, q))
            assert lhs == rhs, (mode, p.render(), q.render())


def test_unitary_satisfies_reynolds_law():
    rng = random.Random(303)
    for _ in range(60):
        p = reduce_unitary(rand_free_poly(rng))
        q = reduce_unitary(rand_free_poly(rng))
        prod = mul_mode(Mode.UNITARY, f_mode(Mode.UNITARY, p), f_mode(Mode.UNITARY, q))
        assert f_mode(Mode.UNITARY, prod) == prod


def test_reynolds_mode_satisfies_its_law():
    rng = random.Random(404)
    for _ in range(60):
        p = reduce_reynolds(rand_free_poly(rng))
        q = reduce_reynolds(rand_free_poly(rng))
        prod = mul_mode(Mode.REYNOLDS, f_mode(Mode.REYNOLDS, p), f_mode(Mode.REYNOLDS, q))
        assert f_mode(Mode.REYNOLDS, prod) == prod


def test_plain_mode_violates_reynolds_law():
    p, q = X1, X2
    prod = f_free(p).mul(f_free(q))
    diff = f_free(prod).sub(prod)
    assert diff.render() == "y[1]*y[x1]*y[x2] - y[x1]*y[x2]"


def test_unitary_reduction_substitutes_one():
    w = Y().mul(Y(((1, 1),))).scale(3).add(Y().mul(Y()))
    assert reduce_unitary(w).render() == "3*y[x1] + 1"


def test_unitary_unit_is_fixed():
    assert f_mode(Mode.UNITARY, FreePoly.one()) == FreePoly.one()


def test_reynolds_reduction_examples():
    y0 = Y()
    y1 = Y(((1, 1),))
    assert reduce_reynolds(y0.mul(y0).mul(y0)) == y0.mul(y0)
    assert reduce_reynolds(y0.mul(y1).mul(y1)) == y1.mul(y1)
    # a + b <= 2 is already normal
    low = X1.mul(y0).mul(y1)
    assert reduce_reynolds(low) == low
    assert reduce_reynolds(y0.mul(y0)) == y0.mul(y0)


def test_reynolds_reduction_idempotent():
    rng = random.Random(505)
    for _ in range(100):
        p = rand_free_poly(rng, y_factors=3)
        once = reduce_reynolds(p)
        assert reduce_reynolds(once) == once


def test_reynolds_random_strategies_confluent():
    rng = random.Random(606)
    for _ in range(80):
        m = rand_free_monomial(rng, y_factors=3)
        extra = rng.randint(0, 3)
        for _ in range(extra):
            m = m.mul(Y())
        target = reduce_reynolds(m)
        for _ in range(5):
            cur = m
            while True:
                nxt = reynolds_step_at(cur, rng.randint(0, 10))
                if nxt is None:
                    break
                cur = nxt
            assert cur == target


def test_bracket_examples():
    assert bracket_free(X1, X2).render() == "x1*y[x2] - x2*y[x1]"
    assert bracket_free(FreePoly.one(), X1).render() == "-x1*y[1] + y[x1]"


def test_bracket_lands_in_kernel():
    rng = random.Random(707)
    for _ in range(40):
        p = rand_free_poly(rng)
        q = rand_free_poly(rng)
        assert f_free(bracket_free(p, q)).is_zero()


def test_bracket_antisymmetry():
    rng = random.Random(808)
    for _ in range(40):
        p = rand_free_poly(rng)
        q = rand_free_poly(rng)
        assert bracket_free(p, q) == bracket_free(q, p).neg()


def test_decompose_basic_bracket():
    w = bracket_free(X1, X2)
    pairs = bracket_decompose(w)
    total = FreePoly.zero()
    for p, q in pairs:
        total = total.add(bracket_free(p, q))
    assert total == w


def test_decompose_rejects_nonkernel():
    with pytest.raises(NotInKernelError):
        bracket_decompose(X1)


def test_decompose_random_kernel_elements():
    rng = random.Random(909)
    done = 0
    while done < 40:
        w = kernel_sample(rng)
        if w.is_zero():
            continue
        assert f_free(w).is_zero()
        pairs = bracket_decompose(w)
        total = FreePoly.zero()
        for p, q in pairs:
            total = total.add(bracket_free(p, q))
        assert total == w
        done += 1


def test_chain_is_strictly_increasing():
    stages = chain_witness(1, 6)
    assert len(stages) == 6
    for k, stage in enumerate(stages):
        assert [g.render() for g in stage] == \
            [f"y[x1]" if i == 0 else f"y[x1^{i + 1}]" for i in range(k + 1)]


def test_chain_multivariable():
    stages = chain_witness(2, 4)
    assert len(stages) == 4
    # each stage adds one generator the previous stage cannot divide
    for a, b in zip(stages, stages[1:]):
        gens_a = [g.terms[0][0] for g in a]
        new = b[-1].terms[0][0]
        assert not monomial_ideal_contains(gens_a, new)


def test_chain_rejects_bad_arguments():
    with pytest.raises(ChainError):
        chain_witness(0, 3)
    with pytest.raises(ChainError):
        chain_witness(1, 0)
    with pytest.raises(ChainError, match="between 1 and 1000"):
        chain_witness(1, MAX_CHAIN + 1)


def test_chain_checks_one_new_generator_per_stage(monkeypatch):
    # each stage extends the one before with the same objects, so inclusion
    # holds by construction; strictness is one membership test per stage,
    # of the new generator in the stage before: n - 1 = 7 tests against 1,
    # 2, ..., 7 generators, where testing both inclusions of stages i and
    # i + 1 took 2 i + 1, n^2 - 1 = 63 in all
    tested = []
    contains = FA.monomial_ideal_contains
    monkeypatch.setattr(FA, "monomial_ideal_contains",
                        lambda gens, m: tested.append(len(gens)) or contains(gens, m))
    stages = chain_witness(1, 8)
    assert tested == list(range(1, 8))
    for a, b in zip(stages, stages[1:]):
        assert all(g is h for g, h in zip(a, b)) and len(b) == len(a) + 1


def test_eval_term_matches_hand_reduction():
    t = T.parse_term("f(v1*f(v2)) - f(v1)*f(v2)")
    assert eval_term(t, Mode.PLAIN).is_zero()


def test_eval_zmod_coefficients():
    ring = ZMod(7)
    t = T.parse_term("3*f(v1) + 4*f(v1)")
    out = eval_term(t, Mode.PLAIN, ring)
    assert out.is_zero()


def _power_bases(integral):
    # small terms whose powers stay small; over Z/6 only integral literals
    coeffs = (st.integers(-3, 3) if integral else
              st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    leaves = st.one_of(st.just(T.One()), st.builds(T.Var, st.integers(1, 2)))

    def extend(children):
        return st.one_of(
            st.builds(T.Add, children, children),
            st.builds(T.Sub, children, children),
            st.builds(T.Mul, children, children),
            st.builds(T.ScalarMul, coeffs.map(Fraction), children),
            st.builds(T.F, children),
        )

    return st.recursive(leaves, extend, max_leaves=3)


@pytest.mark.parametrize("ring", [QQ, ZMod(6)], ids=["Q", "Z6"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_power_equals_its_product_chain(ring, mode, data):
    # Pow(b, n) by squaring against the left-nested Mul chain the parser
    # used to build for b^n
    base = data.draw(_power_bases(ring is not QQ))
    n = data.draw(st.integers(2, 9))
    chain = base
    for _ in range(n - 1):
        chain = T.Mul(chain, base)
    assert eval_term(T.Pow(base, n), mode, ring) == eval_term(chain, mode, ring)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_coefficient_order_is_not_part_of_the_value(rng):
    p = rand_free_poly(rng, y_factors=2).mul(rand_free_poly(rng))
    items = list(p.coeffs.items())
    rng.shuffle(items)
    q = poly_from_dict(QQ, dict(items))
    assert q == p and hash(q) == hash(p)
    assert q.terms == p.terms == tuple(sorted(items, key=_glex_key))
    assert q.terms is q.terms  # sorted once, on first read
    assert q.render() == p.render()
