"""The per-mode monomial maps of freeavg against the two-pass reference.

Each mode's operator and Reynolds products are one pass over the monomials;
tests/support.py keeps the earlier operator-then-reduce passes as ``ref_*``.
Both must give equal coefficients on every input, normal form or not.  The
references form every monomial product with ``mono`` and every sum with a
plain dict loop, so they share no kernel with what they check; the merge
``mono_mul`` and the one-pass ``_f_plain`` are also compared with their
dict-and-sort and ``y_gen`` predecessors, kept verbatim in support.py.

A parse shares equal subterms, and ``eval_term`` evaluates each distinct
node object once; ``implies_one`` must still give the verdict and witness
of the tree reference ``ref_eval_term`` applied to each side.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg import freeavg
from avgalg import terms as T
from avgalg.decide import MODE_OF, Fails, Holds, implies_one
from avgalg.exactlin import QQ, ZMod
from avgalg.freeavg import (
    FreePoly,
    Mode,
    NotInKernelError,
    Y_ONE_GEN,
    bracket_decompose,
    eval_term,
    f_free,
    f_mode,
    mono,
    mul_mode,
    reduce_reynolds,
    reduce_unitary,
    x_gen,
    y_gen,
)
from avgalg.terms import IdentitySet, parse_equation, parse_term
from support import (
    DECIDE_STEPS,
    kernel_sample,
    ref_bracket_decompose,
    ref_eval_term,
    ref_f_free,
    ref_f_mode,
    ref_f_plain,
    ref_mono_mul,
    ref_mul,
    ref_mul_mode,
    ref_neg,
    ref_reduce_reynolds,
    ref_reduce_unitary,
    ref_sum,
    ref_y_gen,
)

MODES = list(Mode)
RINGS = [QQ, ZMod(4)]

xmonos = st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2).map(
    lambda d: tuple(sorted(d.items())))


@st.composite
def monomials(draw):
    """Any monomial: an x-part, y-generators of any x-monomial, and y[1]^k
    with k up to 4, so inputs need not be normal forms of any mode."""
    pairs = [(x_gen(i), e) for i, e in draw(xmonos)]
    pairs += [(y_gen(u), draw(st.integers(1, 2)))
              for u in draw(st.lists(xmonos, max_size=3))]
    k = draw(st.integers(0, 4))
    if k:
        pairs.append((Y_ONE_GEN, k))
    return mono(*pairs)


@st.composite
def polys(draw, ring):
    p = FreePoly.zero(ring)
    for m in draw(st.lists(monomials(), max_size=5)):
        c = ring.of(draw(st.integers(-3, 3).filter(bool)))
        p = p.add(FreePoly.monomial(m, c, ring))
    return p


@st.composite
def ring_and_polys(draw, count):
    ring = draw(st.sampled_from(RINGS))
    return (ring, *(draw(polys(ring)) for _ in range(count)))


@settings(max_examples=300, deadline=None)
@given(ring_and_polys(1))
def test_operator_and_reductions_match_the_reference(args):
    _, p = args
    assert f_free(p).coeffs == ref_f_free(p).coeffs
    assert reduce_unitary(p).coeffs == ref_reduce_unitary(p).coeffs
    assert reduce_reynolds(p).coeffs == ref_reduce_reynolds(p).coeffs
    for mode in MODES:
        assert f_mode(mode, p).coeffs == ref_f_mode(mode, p).coeffs


@settings(max_examples=200, deadline=None)
@given(ring_and_polys(2))
def test_mul_mode_matches_the_reference(args):
    _, p, q = args
    for mode in MODES:
        assert mul_mode(mode, p, q).coeffs == ref_mul_mode(mode, p, q).coeffs


@settings(max_examples=150, deadline=None)
@given(ring_and_polys(2), st.integers(-3, 3))
def test_sparse_arithmetic_matches_plain_dict_sums(args, k):
    R, p, q = args
    c = R.of(k)
    items, negated = list(p.coeffs.items()), [(m, ref_neg(R, v)) for m, v in q.coeffs.items()]
    assert p.add(q).coeffs == ref_sum(R, items + list(q.coeffs.items())).coeffs
    assert p.sub(q).coeffs == ref_sum(R, items + negated).coeffs
    assert q.neg().coeffs == ref_sum(R, negated).coeffs
    assert p.scale(c).coeffs == ref_sum(R, [(m, ref_mul(R, c, v)) for m, v in items]).coeffs


@st.composite
def shared_monomial_pairs(draw):
    """Two normal monomials over one small pool of generators, y[1] among
    them, so that they often share generators."""
    pool = [x_gen(1), x_gen(2), x_gen(3), Y_ONE_GEN]
    pool += [y_gen(u) for u in draw(st.lists(xmonos, min_size=1, max_size=3))]

    def one():
        gens = draw(st.lists(st.sampled_from(pool), max_size=5))
        return mono(*((g, draw(st.integers(1, 3))) for g in gens))

    return one(), one()


@settings(max_examples=300, deadline=None)
@given(shared_monomial_pairs())
def test_mono_mul_matches_the_dict_and_sort_reference(pair):
    a, b = pair
    assert freeavg.mono_mul(a, b) == ref_mono_mul(a, b) == mono(*a, *b)
    assert freeavg.mono_mul(b, a) == ref_mono_mul(a, b)


@settings(max_examples=200, deadline=None)
@given(shared_monomial_pairs())
def test_f_plain_matches_the_y_gen_reference(pair):
    for m in pair:
        assert freeavg._f_plain(m) == ref_f_plain(m)


@settings(max_examples=100, deadline=None)
@given(xmonos)
def test_y_gen_matches_the_reference_key(u):
    assert y_gen(u) == ref_y_gen(u)
    assert y_gen() == Y_ONE_GEN == ref_y_gen()


# the claim shapes of the decide benchmark on s and t, each a variable
# wrapped in DECIDE_STEPS, inner first, with the other variable as the leaf
CLAIM_SIDES = ("f(({s})*f({t}))", "f(f({s})*f({t}))", "f({s})*f({t})")


@st.composite
def built_s_and_t(draw):
    x, leaf = draw(st.permutations(["v1", "v2"]))
    s = x
    for step in draw(st.lists(st.sampled_from(DECIDE_STEPS), min_size=1, max_size=5)):
        s = step.format(x=s, leaf=leaf, k=draw(st.sampled_from([2, 3])))
    t = draw(st.sampled_from(DECIDE_STEPS)).format(x=x, leaf=leaf, k=2)
    return s, t


@st.composite
def built_terms(draw):
    s, t = draw(built_s_and_t())
    return parse_term(draw(st.sampled_from(CLAIM_SIDES)).format(s=s, t=t))


@settings(max_examples=60, deadline=None)
@given(built_terms(), st.sampled_from(MODES))
def test_eval_term_matches_the_reference_evaluator(t, mode):
    assert eval_term(t, mode).coeffs == ref_eval_term(t, mode).coeffs


# ---------------------------------------------------------------------------
# shared subterms: a recipe is a DAG of steps over v1 and v2, each step on
# earlier recipes, so one subterm can occur many times; it is written out as
# text with every operand parenthesized, and built as a tree of fresh nodes

COEFFS = (Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2))


@st.composite
def recipe_pools(draw, steps=6):
    pool = [("v", 1), ("v", 2)]
    for _ in range(draw(st.integers(1, steps))):
        kind = draw(st.sampled_from(("f", "add", "sub", "mul", "pow", "scale")))
        a = draw(st.sampled_from(pool))
        if kind in ("add", "sub", "mul"):
            pool.append((kind, a, draw(st.sampled_from(pool))))
        elif kind == "pow":
            pool.append((kind, a, draw(st.integers(2, 3))))
        elif kind == "scale":
            pool.append((kind, draw(st.sampled_from(COEFFS)), a))
        else:
            pool.append((kind, a))
    return pool


def recipe_text(r):
    kind = r[0]
    if kind == "v":
        return f"v{r[1]}"
    if kind == "f":
        return f"f({recipe_text(r[1])})"
    if kind == "pow":
        return f"({recipe_text(r[1])})^{r[2]}"
    if kind == "scale":
        return f"{r[1]}*({recipe_text(r[2])})"
    sep = {"add": " + ", "sub": " - ", "mul": "*"}[kind]
    return f"({recipe_text(r[1])}){sep}({recipe_text(r[2])})"


def recipe_tree(r):
    """The term of r with a new node at every occurrence: nothing shared."""
    kind = r[0]
    if kind == "v":
        return T.Var(r[1])
    if kind == "f":
        return T.F(recipe_tree(r[1]))
    if kind == "pow":
        return T.Pow(recipe_tree(r[1]), r[2])
    if kind == "scale":
        return T.ScalarMul(r[1], recipe_tree(r[2]))
    cls = {"add": T.Add, "sub": T.Sub, "mul": T.Mul}[kind]
    return cls(recipe_tree(r[1]), recipe_tree(r[2]))


def node_ids_and_subterms(t):
    """The distinct node objects of t and its distinct subterms, counted."""
    ids, subterms, todo = set(), set(), [t]
    while todo:
        node = todo.pop()
        ids.add(id(node))
        subterms.add(node)
        todo += [x for x in node._astuple(node) if isinstance(x, T.Term)]
    return len(ids), len(subterms)


@settings(max_examples=150, deadline=None)
@given(recipe_pools(), st.data())
def test_a_parse_shares_exactly_its_equal_subterms(pool, data):
    r = data.draw(st.sampled_from(pool[2:]))
    t = parse_term(recipe_text(r))
    assert t == recipe_tree(r)
    distinct_nodes, distinct_subterms = node_ids_and_subterms(t)
    assert distinct_nodes == distinct_subterms


def expected_verdict(eq, hypothesis, ring):
    mode = MODE_OF[hypothesis]
    diff = ref_eval_term(eq.lhs, mode, ring).sub(ref_eval_term(eq.rhs, mode, ring))
    return Holds() if diff.is_zero() else Fails(diff)


HYPOTHESES = list(IdentitySet)
SHARING_RINGS = [QQ, ZMod(5)]


@st.composite
def built_claims(draw):
    """The two claim shapes of the decide benchmark on built s and t."""
    s, t = draw(built_s_and_t())
    lhs = draw(st.sampled_from(CLAIM_SIDES[:2]))
    return f"{lhs} = {CLAIM_SIDES[2]}".format(s=s, t=t)


@settings(max_examples=60, deadline=None)
@given(built_claims(), st.sampled_from(HYPOTHESES), st.sampled_from(SHARING_RINGS))
def test_implies_one_on_benchmark_claims_matches_the_tree_reference(text, hypothesis, ring):
    eq = parse_equation(text)
    assert implies_one(hypothesis, eq, ring) == expected_verdict(eq, hypothesis, ring)


@settings(max_examples=100, deadline=None)
@given(recipe_pools(steps=5), st.data(), st.sampled_from(HYPOTHESES),
       st.sampled_from(SHARING_RINGS))
def test_implies_one_on_shared_subterms_matches_the_tree_reference(pool, data, hypothesis, ring):
    lhs, rhs = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    eq = parse_equation(f"{recipe_text(lhs)} = {recipe_text(rhs)}")
    assert eq == T.Equation(recipe_tree(lhs), recipe_tree(rhs))
    assert implies_one(hypothesis, eq, ring) == expected_verdict(eq, hypothesis, ring)


def pair_coeffs(pairs):
    return [(p.coeffs, q.coeffs) for p, q in pairs]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_bracket_decompose_is_unchanged(rng):
    w = kernel_sample(rng)
    assert pair_coeffs(bracket_decompose(w)) == pair_coeffs(ref_bracket_decompose(w))


@settings(max_examples=100, deadline=None)
@given(ring_and_polys(1))
def test_bracket_decompose_rejects_as_the_reference(args):
    _, p = args
    try:
        expected = pair_coeffs(ref_bracket_decompose(p))
    except NotInKernelError:
        with pytest.raises(NotInKernelError):
            bracket_decompose(p)
    else:
        assert pair_coeffs(bracket_decompose(p)) == expected


# ---------------------------------------------------------------------------
# work counts: every pass over a polynomial sums into one _combine call

@pytest.fixture
def combine_calls(monkeypatch):
    calls = []
    inner = freeavg._combine

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(freeavg, "_combine", counted)
    return calls


def sample_poly():
    # x1*y[1]^2 + 2*x2*y[x1] + y[x1]*y[x2]^2 - y[1]: y[1] in and out of normal form
    y1, yx1, yx2 = Y_ONE_GEN, y_gen(((1, 1),)), y_gen(((2, 1),))
    return FreePoly(QQ, {
        mono((x_gen(1), 1), (y1, 2)): 1,
        mono((x_gen(2), 1), (yx1, 1)): 2,
        mono((yx1, 1), (yx2, 2)): 1,
        mono((y1, 1)): -1,
    })


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_f_mode_is_one_pass(combine_calls, mode):
    f_mode(mode, sample_poly())
    assert len(combine_calls) == 1


def test_reynolds_product_is_one_pass(combine_calls):
    p = sample_poly()
    mul_mode(Mode.REYNOLDS, p, p)
    assert len(combine_calls) == 1


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_eval_term_pass_count(combine_calls, mode):
    # F, then the product, then F: one pass each
    eval_term(parse_term("f(f(v1)*v2)"), mode)
    assert len(combine_calls) == 3


# the right side is the argument of the left side's outer f
SHARED_CLAIM = "f(f(v1^2 + v2)*f(2*v1)) = f(v1^2 + v2)*f(2*v1)"


def test_a_parse_shares_the_subterm_of_both_sides():
    eq = parse_equation(SHARED_CLAIM)
    assert eq.lhs.arg is eq.rhs


@pytest.mark.parametrize("hypothesis", HYPOTHESES, ids=[h.value for h in HYPOTHESES])
def test_implies_one_evaluates_a_shared_subterm_once(combine_calls, hypothesis):
    # the right side f(v1^2 + v2)*f(2*v1) takes six passes: the square, the
    # sum, its f, the scaling by 2, its f and the product; the left side is
    # f of that same object, one more pass, and lhs - rhs one more: 8 (the
    # two sides evaluated apart took 7 + 6, and their difference 1: 14)
    implies_one(hypothesis, parse_equation(SHARED_CLAIM))
    assert len(combine_calls) == 8
