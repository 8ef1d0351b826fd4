import random

import pytest

import avgalg.freeavg as FA
from avgalg.exactlin import Matrix, QQ, ShapeError, ZMod
from avgalg.freeavg import (
    FAElement,
    NotAHomomorphismError,
    check_algebra_hom,
    fa_f,
    fa_induced_hom,
    fa_injective,
    fa_mul,
    fa_universal_lift,
)
from avgalg.findim import Check, NotAveragingError, StructureAlgebra, is_averaging
from support import dim2_algebra, fa_from_dict, fa_one, mult_operator, rand_fraction


def sqrt2_algebra():
    return dim2_algebra(2, 0)  # w^2 = 2


def qi():
    return StructureAlgebra.make(QQ, (1, 0),
                                 [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])


def rationals_algebra():
    return StructureAlgebra.make(QQ, (1,), [[[1]]])


def rand_fa(rng, A, max_terms=3, max_deg=2):
    out = fa_from_dict(QQ, A.dim, {})
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, A.dim - 1)
        sym = tuple(sorted(rng.randint(0, A.dim - 1)
                           for _ in range(rng.randint(0, max_deg))))
        out = out.add(FAElement.basis(QQ, A.dim, i, sym).scale(rand_fraction(rng)))
    return out


def test_one_is_neutral():
    A = sqrt2_algebra()
    rng = random.Random(1)
    for _ in range(20):
        a = rand_fa(rng, A)
        assert fa_mul(fa_one(A), a, A) == a
        assert fa_mul(a, fa_one(A), A) == a


def test_mul_commutative_associative():
    A = sqrt2_algebra()
    rng = random.Random(2)
    for _ in range(25):
        a, b, c = (rand_fa(rng, A, max_terms=2, max_deg=1) for _ in range(3))
        assert fa_mul(a, b, A) == fa_mul(b, a, A)
        assert fa_mul(fa_mul(a, b, A), c, A) == fa_mul(a, fa_mul(b, c, A), A)


def test_averaging_identity_holds():
    A = sqrt2_algebra()
    rng = random.Random(3)
    for _ in range(40):
        a = rand_fa(rng, A)
        b = rand_fa(rng, A)
        lhs = fa_f(fa_mul(a, fa_f(b, A), A), A)
        rhs = fa_mul(fa_f(a, A), fa_f(b, A), A)
        assert lhs == rhs


def test_f_moves_left_factor():
    A = sqrt2_algebra()
    a = FAElement.basis(QQ, 2, 1, (0,))
    img = fa_f(a, A)
    assert img == FAElement.basis(QQ, 2, 0, (0, 1))


def test_hom_check_accepts_inclusion():
    Q1 = rationals_algebra()
    B = qi()
    incl = Matrix.from_cols(QQ, [(1, 0)])
    check_algebra_hom(incl, Q1, B)


def test_hom_check_rejects_non_hom():
    Q1 = rationals_algebra()
    B = qi()
    bad = Matrix.from_cols(QQ, [(0, 1)])  # sends 1 to i
    with pytest.raises(NotAHomomorphismError):
        check_algebra_hom(bad, Q1, B)


def test_induced_hom_commutes_with_f():
    Q1 = rationals_algebra()
    B = qi()
    incl = Matrix.from_cols(QQ, [(1, 0)])
    rng = random.Random(4)
    for _ in range(40):
        a = rand_fa(rng, Q1)
        lhs = fa_induced_hom(incl, fa_f(a, Q1), Q1, B)
        rhs = fa_f(fa_induced_hom(incl, a, Q1, B), B)
        assert lhs == rhs


def test_induced_hom_multiplicative():
    A = sqrt2_algebra()
    # conjugation w -> -w is a self-map of Q[w]/(w^2 - 2)
    conj = Matrix.from_cols(QQ, [(1, 0), (0, -1)])
    rng = random.Random(5)
    for _ in range(25):
        a = rand_fa(rng, A, max_terms=2, max_deg=1)
        b = rand_fa(rng, A, max_terms=2, max_deg=1)
        lhs = fa_induced_hom(conj, fa_mul(a, b, A), A, A)
        rhs = fa_mul(fa_induced_hom(conj, a, A, A),
                     fa_induced_hom(conj, b, A, A), A)
        assert lhs == rhs


def test_universal_lift_intertwines():
    # phi = identity on Q[w]/(w^2 - 2), g = multiplication by w
    A = sqrt2_algebra()
    phi = Matrix.identity(QQ, 2)
    g = mult_operator(A, (0, 1))
    assert is_averaging(A, g).ok
    rng = random.Random(6)
    for _ in range(40):
        a = rand_fa(rng, A)
        lhs = fa_universal_lift(phi, g, fa_f(a, A), A, A)
        rhs = g.apply(fa_universal_lift(phi, g, a, A, A))
        assert tuple(lhs) == tuple(rhs)


def test_universal_lift_extends_phi():
    A = sqrt2_algebra()
    phi = Matrix.identity(QQ, 2)
    g = mult_operator(A, (0, 1))
    for i in range(2):
        a = FAElement.basis(QQ, 2, i)
        assert fa_universal_lift(phi, g, a, A, A) == phi.col(i)


def test_universal_lift_refuses_a_non_averaging_g():
    # g = [[0, 1], [1, 1]] fails F(x F(y)) = F(x) F(y) at (0, 0); the lift
    # used to go ahead, and lift(F(a)) != g(lift(a)) for 8 of these 10 a
    A = sqrt2_algebra()
    phi, g = Matrix.identity(QQ, 2), Matrix.from_rows(QQ, [[0, 1], [1, 1]])
    assert is_averaging(A, g).witness == (0, 0)
    for s in [(), (0,), (1,), (0, 1), (1, 1)]:
        for i in range(2):
            with pytest.raises(NotAveragingError):
                fa_universal_lift(phi, g, FAElement.basis(QQ, 2, i, s), A, A)


def test_universal_lift_refuses_a_g_over_another_ring():
    # g over Z/5 on an algebra over Q: e_0 (x) e_1 used to lift to (1, 0)
    A = sqrt2_algebra()
    g = Matrix.from_rows(ZMod(5), [[0, 1], [1, 0]])
    with pytest.raises(ShapeError):
        fa_universal_lift(Matrix.identity(QQ, 2), g, FAElement.basis(QQ, 2, 0, (1,)), A, A)


def test_injective_for_inclusion():
    Q1 = rationals_algebra()
    B = qi()
    incl = Matrix.from_cols(QQ, [(1, 0)])
    assert fa_injective(incl, Q1, B) == Check(True)


def collapse(ring):
    """Projection of ring x ring onto its first factor, a hom with a kernel."""
    A = StructureAlgebra.make(ring, (1, 1), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    B = StructureAlgebra.make(ring, (1,), [[[1]]])
    return Matrix.from_rows(ring, [[1, 0]]), A, B


@pytest.mark.parametrize("ring", [QQ, ZMod(5), ZMod(6)], ids=lambda R: R.name)
def test_injective_fails_for_collapse(ring):
    # the witness v spans ker theta, and the induced map sends v (x) 1 to 0
    proj, A, B = collapse(ring)
    res = fa_injective(proj, A, B)
    assert not res.ok and res.witness == (ring.zero, ring.one)
    v = fa_from_dict(ring, 2, {(1, ()): ring.one})
    assert fa_induced_hom(proj, v, A, B) == fa_from_dict(ring, 1, {})


def test_injective_over_composite_modulus():
    # the diagonal Z/6 -> Z/6 x Z/6 is injective: its kernel submodule is 0
    Z6 = ZMod(6)
    _, A, B = collapse(Z6)
    assert fa_injective(Matrix.from_cols(Z6, [(1, 1)]), B, A) == Check(True)


def test_injective_checks_the_homomorphism_once(monkeypatch):
    calls = []
    original = FA.check_algebra_hom

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(FA, "check_algebra_hom", counted)
    A = qi()
    assert fa_injective(Matrix.identity(QQ, 2), A, A).ok
    assert len(calls) == 1
