"""decide against concrete models, on the claim shapes of the decide benchmark.

A ``Holds`` under a hypothesis set says that the claim holds in every
averaging algebra that satisfies the set.  So in each concrete model of the
set, both sides must agree under every assignment of the variables.  The
models live on A = Q[y]/(y^3 - 2): multiplication by an element a, the map
x -> lam(x)*1 with lam(1) = 1, and scalings of these.  The hypotheses a
model satisfies are read off ``is_averaging``, ``is_unitary`` and
``is_reynolds_averaging``, never assumed.

The claims are built as the benchmark builds them, from its five step
templates (``support.DECIDE_STEPS``): s wraps a variable in three to five
distinct steps, t in one, and the other variable is the leaf of every "+"
and "*" step.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.decide import Fails, Holds, implies_one
from avgalg.findim import is_averaging, is_reynolds_averaging, is_unitary, primary_from_poly
from avgalg.terms import IdentitySet, parse_equation
from support import DECIDE_STEPS, eval_term_concrete, functional_operator, mult_operator

AVERAGING_CLAIM = "f(({s})*f({t})) = f({s})*f({t})"
REYNOLDS_CLAIM = "f(f({s})*f({t})) = f({s})*f({t})"

A, _ = primary_from_poly([-2, 0, 0, 1])  # basis 1, y, y^2
Y = (0, 1, 0)  # y^3 = 2 differs from y^2


def hypotheses_of(F) -> set:
    """The hypothesis sets the model (A, F) satisfies, by findim's checks."""
    assert is_averaging(A, F)
    held = {IdentitySet.AVERAGING}
    if is_unitary(A, F):
        held.add(IdentitySet.UNITARY_AVERAGING)
    if is_reynolds_averaging(A, F):
        held.add(IdentitySet.REYNOLDS_AVERAGING)
    return held


def test_the_fixed_models_cover_every_hypothesis_set():
    every = set(IdentitySet)
    assert hypotheses_of(mult_operator(A, (1, 0, 0))) == every
    assert hypotheses_of(functional_operator(A, (1, 2, -1))) == every
    assert hypotheses_of(mult_operator(A, (0, 0, 0))) == {
        IdentitySet.AVERAGING, IdentitySet.REYNOLDS_AVERAGING}
    assert hypotheses_of(mult_operator(A, Y)) == {IdentitySet.AVERAGING}
    assert hypotheses_of(functional_operator(A, (3, 6, -3))) == {IdentitySet.AVERAGING}


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
elements = st.tuples(fractions, fractions, fractions)


@st.composite
def claim_texts(draw):
    x, leaf = draw(st.permutations(["v1", "v2"]))
    steps = draw(st.permutations(DECIDE_STEPS))[:draw(st.integers(3, 5))]
    s = x
    for step in steps:
        s = step.format(x=s, leaf=leaf, k=draw(st.sampled_from([2, 3])))
    k = draw(st.sampled_from([2, 3]))
    t = draw(st.sampled_from(DECIDE_STEPS)).format(x=x, leaf=leaf, k=k)
    return [tmpl.format(s=s, t=t) for tmpl in (AVERAGING_CLAIM, REYNOLDS_CLAIM)]


@st.composite
def models(draw):
    """Multiplication by y and the identity, then multiplication by a random
    a, x -> lam(x)*1 for a random lam with lam(1) = 1, and a random scaling
    of each."""
    a = draw(elements)
    lam = (1,) + draw(st.tuples(fractions, fractions))
    c = draw(st.sampled_from([Fraction(2), Fraction(-1, 2), Fraction(0)]))
    return [mult_operator(A, Y), mult_operator(A, (1, 0, 0)),
            mult_operator(A, a), mult_operator(A, tuple(c * x for x in a)),
            functional_operator(A, lam), functional_operator(A, tuple(c * x for x in lam))]


def sides_at(eq, F, env):
    return (eval_term_concrete(eq.lhs, A, F, env), eval_term_concrete(eq.rhs, A, F, env))


@settings(max_examples=40, deadline=None)
@given(claim_texts(), models(), st.lists(st.tuples(elements, elements), min_size=2, max_size=2))
def test_every_holds_is_true_in_the_models_of_its_hypotheses(texts, operators, assignments):
    for text in texts:
        eq = parse_equation(text)
        verdicts = {h: implies_one(h, eq) for h in IdentitySet}
        for F in operators:
            held = hypotheses_of(F)
            for h, verdict in verdicts.items():
                if h in held and isinstance(verdict, Holds):
                    for v1, v2 in assignments:
                        lhs, rhs = sides_at(eq, F, {1: v1, 2: v2})
                        assert lhs == rhs, (text, h, F, v1, v2)


# under multiplication by y, none of the 12,500 terms s or t that the step
# templates build (both variable orders, both scalars) is zero at this
# assignment
GENERIC = ((1, 1, 0), (0, Fraction(1, 3), 1))


@settings(max_examples=30, deadline=None)
@given(claim_texts(), st.lists(st.tuples(elements, elements), min_size=2, max_size=2))
def test_multiplication_by_y_refutes_the_reynolds_claim(texts, assignments):
    # y^3 != y^2, so F(x) = y*x is averaging but not Reynolds; the claim's
    # sides differ by (F(1) - 1)*F(s)*F(t) = (y - 1)*y^2*s*t, which in the
    # field A is nonzero exactly when s and t are
    eq = parse_equation(texts[1])
    F = mult_operator(A, Y)
    assert hypotheses_of(F) == {IdentitySet.AVERAGING}
    assert isinstance(implies_one(IdentitySet.AVERAGING, eq), Fails)
    s, t = eq.rhs.left.arg, eq.rhs.right.arg
    refuted = []
    for v1, v2 in [GENERIC, *assignments]:
        env = {1: v1, 2: v2}
        lhs, rhs = sides_at(eq, F, env)
        nonzero = all(any(eval_term_concrete(u, A, F, env)) for u in (s, t))
        assert (lhs != rhs) == nonzero, (texts[1], v1, v2)
        refuted.append(lhs != rhs)
    assert refuted[0], texts[1]
