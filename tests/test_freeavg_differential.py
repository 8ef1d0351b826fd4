"""The per-mode monomial maps of freeavg against the two-pass reference.

Each mode's operator and Reynolds products are one pass over the monomials;
tests/support.py keeps the earlier operator-then-reduce passes as ``ref_*``.
Both must give equal coefficients on every input, normal form or not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg import freeavg
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
from avgalg.terms import parse_term
from support import (
    kernel_sample,
    ref_bracket_decompose,
    ref_eval_term,
    ref_f_free,
    ref_f_mode,
    ref_mul_mode,
    ref_reduce_reynolds,
    ref_reduce_unitary,
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


# the step templates and claim shapes of the decide benchmark: a variable
# wrapped in steps, inner first, with the other variable as the leaf
STEPS = ("f({x})", "({x})^2", "({x} + {leaf})", "({x})*{leaf}", "{k}*({x})")
CLAIM_SIDES = ("f(({s})*f({t}))", "f(f({s})*f({t}))", "f({s})*f({t})")


@st.composite
def built_terms(draw):
    x, leaf = draw(st.permutations(["v1", "v2"]))
    s = x
    for step in draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=5)):
        s = step.format(x=s, leaf=leaf, k=draw(st.sampled_from([2, 3])))
    t = draw(st.sampled_from(STEPS)).format(x=x, leaf=leaf, k=2)
    return parse_term(draw(st.sampled_from(CLAIM_SIDES)).format(s=s, t=t))


@settings(max_examples=60, deadline=None)
@given(built_terms(), st.sampled_from(MODES))
def test_eval_term_matches_the_reference_evaluator(t, mode):
    assert eval_term(t, mode).coeffs == ref_eval_term(t, mode).coeffs


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
