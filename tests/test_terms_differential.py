"""The parser and printer of terms against their verbatim references.

tests/support.py keeps the parser and printer as they were before the term
nodes stored their fields through slot setters, as ``ref_parse`` and
``ref_render``.  On random text, well formed or not, both parsers must give
equal trees in which the same subterms are one object, or the same
``TermSyntaxError`` offset and message; both printers must give the same
string, byte for byte.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgalg import terms as T
from avgalg.terms import TermSyntaxError, parse_equation, parse_term, render
from support import ref_parse, ref_render

# the grammar's quirks: a glued "-" after an operand, a leading negative
# literal, a literal scaling the rest of its product, the constants spelled
# with leading zeros, the unit literal, and an atom "-" admitting one "^"
QUIRKS = [
    "v1 -2", "v1 - -2", "- 2", "v1*- 2", "-2", "-2*v1", "-01", "v1*2*v2*v3",
    "2*3", "v1*2*v2*3/4*v3", "00", "01", "001", "1/1", "1/1*v1", "0/1",
    "-v1^2^3", "v1*-v1^2^3", "--v1^2^3^4", "2^3*v1", "v1^0", "v1^1",
    "f(v1)^2 = -3/4*v2 -1", "f(f(v1)*v2) = f(v1)*v2", "(v1 + v2)^2*(v1 + v2)",
    "1/0", "v0", "v", "v1(v2)", "(v1", "f v1", "v1 @ v2", "v1 v2", "v1 + ",
    "v²", "1/١", "v1^²", "v1 = v2 = v3", "", "2^777777777777", "-1^777777777777",
]

# pieces of text, glued with or without whitespace: mostly malformed text,
# with well-formed runs among it
PIECES = ["v1", "v2", "v10", "v", "v0", "f(", "f", "(", ")", "+", "-", "*", "^",
          "2", "3", "0", "1", "00", "01", "1/1", "2/3", "0/1", "/", "=", "@",
          "²", "7" * 12]

soup = st.lists(st.tuples(st.sampled_from(["", "", " ", "  ", "\t"]),
                          st.sampled_from(PIECES)), max_size=24).map(
    lambda pairs: "".join(space + piece for space, piece in pairs))


def built_terms():
    leaves = st.one_of(st.just(T.One()), st.just(T.Zero()),
                       st.builds(T.Var, st.integers(1, 3)))
    coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def extend(children):
        return st.one_of(
            st.builds(T.Add, children, children),
            st.builds(T.Sub, children, children),
            st.builds(T.Mul, children, children),
            st.builds(T.ScalarMul, coeffs, children),
            st.builds(T.F, children),
            st.builds(T.Pow, children, st.integers(2, 3)),
        )

    return st.recursive(leaves, extend, max_leaves=16)


TERMS = built_terms()


@st.composite
def rendered(draw):
    """The text of one or two built terms, its spaces thinned at random."""
    text = ref_render(draw(TERMS))
    if draw(st.booleans()):
        text += " = " + ref_render(draw(TERMS))
    drops = draw(st.lists(st.integers(0, len(text)), max_size=4))
    return "".join(ch for k, ch in enumerate(text) if not (ch == " " and k in drops))


texts = st.one_of(soup, rendered(), st.sampled_from(QUIRKS))


def outcome(parse, text):
    try:
        return parse(text)
    except TermSyntaxError as exc:
        return exc.offset, str(exc)


def sides(x):
    return (x.lhs, x.rhs) if isinstance(x, T.Equation) else (x,)


def same_sharing(a, b) -> bool:
    """Whether two equal trees pair their node objects one to one: a node
    object occurs twice in a exactly where one node object occurs twice in
    b."""
    forward, back = {}, {}
    todo = list(zip(sides(a), sides(b)))
    while todo:
        x, y = todo.pop()
        if forward.setdefault(id(x), id(y)) != id(y) or back.setdefault(id(y), id(x)) != id(x):
            return False
        todo += [(u, v) for u, v in zip(x._astuple(x), y._astuple(y)) if isinstance(u, T.Term)]
    return True


def check_parse(text, equation):
    got = outcome(parse_equation if equation else parse_term, text)
    want = outcome(lambda t: ref_parse(t, equation), text)
    if type(want) is tuple:
        assert got == want
        return
    assert type(got) is type(want) and got == want
    assert same_sharing(got, want)
    for g, w in zip(sides(got), sides(want)):
        assert render(g) == ref_render(w)


@pytest.mark.parametrize("text", QUIRKS)
@pytest.mark.parametrize("equation", [False, True], ids=["term", "equation"])
def test_quirks_parse_as_the_reference(text, equation):
    check_parse(text, equation)


@settings(max_examples=600, deadline=None)
@given(texts, st.booleans())
@example("v1 -2*v1*3 + -v2^2^3", False)
def test_parse_matches_the_reference(text, equation):
    check_parse(text, equation)


@settings(max_examples=300, deadline=None)
@given(TERMS)
def test_render_matches_the_reference(t):
    assert render(t) == ref_render(t)


def test_a_parse_shares_what_the_reference_shares():
    text = "f(f(v1^2 + v2)*f(2*v1)) = f(v1^2 + v2)*f(2*v1)"
    got, want = parse_equation(text), ref_parse(text, True)
    assert got.lhs.arg is got.rhs and want.lhs.arg is want.rhs
    assert same_sharing(got, want)
    # a tree of fresh nodes is equal but shares nothing
    assert not same_sharing(got, T.Equation(parse_term(render(got.lhs)), got.rhs))
