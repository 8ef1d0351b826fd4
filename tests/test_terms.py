import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import _MAX_LITERAL_BITS, _MAX_LITERAL_DIGITS
from avgalg.terms import (
    Add,
    Equation,
    F,
    IdentitySet,
    Mul,
    One,
    Pow,
    ScalarMul,
    Sub,
    Term,
    TermSyntaxError,
    Var,
    Zero,
    parse_equation,
    parse_term,
    render,
)
from support import variables_of


class TestParse:
    def test_averaging_identity(self):
        t = parse_term("f(v1*f(v2)) - f(v1)*f(v2)")
        assert t == Sub(F(Mul(Var(1), F(Var(2)))), Mul(F(Var(1)), F(Var(2))))

    def test_constants(self):
        assert parse_term("1") == One()
        assert parse_term("0") == Zero()

    def test_reynolds_family_member_roundtrips(self):
        s = "2*f(v1*f(v1)) - f(f(v1)^2) - f(v1)^2"
        t = parse_term(s)
        # a power renders as the product it stands for
        assert parse_term(render(t)) == parse_term("2*f(v1*f(v1)) - f(f(v1)*f(v1)) - f(v1)*f(v1)")
        assert render(parse_term(render(t))) == render(t)

    def test_power_sugar(self):
        assert parse_term("v1^3") == Pow(Var(1), 3)
        assert parse_term("f(v1)^2") == Pow(F(Var(1)), 2)
        assert parse_term("v1^1") == Var(1)
        assert parse_term("v1^0") == One()
        assert parse_term("2^3*v1") == ScalarMul(Fraction(8), Var(1))
        with pytest.raises(ValueError):
            Pow(Var(1), 1)  # "v1^1" and "v1^0" are v1 and One, never a Pow

    def test_power_binds_tighter_than_star(self):
        assert parse_term("v1*v2^2") == Mul(Var(1), Pow(Var(2), 2))

    def test_scalar_literals(self):
        assert parse_term("1/2*v1") == ScalarMul(Fraction(1, 2), Var(1))
        assert parse_term("2") == ScalarMul(Fraction(2), One())
        assert parse_term("-2*v1") == ScalarMul(Fraction(-2), Var(1))
        assert parse_term("1/1*v1") == ScalarMul(Fraction(1), Var(1))

    def test_unary_minus_sugar(self):
        assert parse_term("-f(v1)") == Sub(Zero(), F(Var(1)))
        assert parse_term("v1 + -v2") == Add(Var(1), Sub(Zero(), Var(2)))

    def test_left_associativity(self):
        assert parse_term("v1 - v2 - v3") == Sub(Sub(Var(1), Var(2)), Var(3))
        assert parse_term("v1*v2*v3") == Mul(Mul(Var(1), Var(2)), Var(3))

    def test_equation(self):
        eq = parse_equation("f(v1) = v1")
        assert eq == Equation(F(Var(1)), Var(1))

    def test_leading_zeros_spell_the_constants(self):
        assert parse_term("01") == One()
        assert parse_term("00") == Zero()
        assert parse_term("001") == One()
        assert parse_term("-01") == ScalarMul(Fraction(-1), One())

    def test_glued_minus_is_a_literal_only_where_an_operand_starts(self):
        two = ScalarMul(Fraction(2), One())
        assert parse_term("-2") == ScalarMul(Fraction(-2), One())
        assert parse_term("v1 -2") == Sub(Var(1), two)
        assert parse_term("v1 - -2") == Sub(Var(1), ScalarMul(Fraction(-2), One()))
        assert parse_term("- 2") == Sub(Zero(), two)
        assert parse_term("v1*- 2") == Mul(Var(1), ScalarMul(Fraction(-2), One()))

    def test_each_atom_minus_admits_one_more_power(self):
        neg = Sub(Zero(), Pow(Var(1), 2))
        assert parse_term("v1*-v1^2^3") == Mul(Var(1), Pow(neg, 3))
        with pytest.raises(TermSyntaxError, match="trailing input") as info:
            parse_term("-v1^2^3")
        assert info.value.offset == 5

    def test_literal_scales_the_rest_of_its_product(self):
        assert parse_term("v1*2*v2*v3") == Mul(
            Var(1), ScalarMul(Fraction(2), Mul(Var(2), Var(3))))
        assert parse_term("2*3") == ScalarMul(Fraction(2), ScalarMul(Fraction(3), One()))
        assert parse_term("v1*2*v2*3/4*v3") == Mul(Var(1), ScalarMul(
            Fraction(2), Mul(Var(2), ScalarMul(Fraction(3, 4), Var(3)))))

    def test_identity_set_tags(self):
        assert IdentitySet("unitary") is IdentitySet.UNITARY_AVERAGING


class TestErrors:
    def test_zero_denominator(self):
        with pytest.raises(TermSyntaxError, match="zero denominator"):
            parse_term("1/0")

    def test_unknown_character_offset(self):
        with pytest.raises(TermSyntaxError) as info:
            parse_term("v1 @ v2")
        assert info.value.offset == 3

    def test_missing_equals(self):
        with pytest.raises(TermSyntaxError, match="expected '='"):
            parse_equation("v1 + v2")

    def test_trailing_input(self):
        with pytest.raises(TermSyntaxError, match="trailing"):
            parse_term("v1 v2")

    def test_bad_variable(self):
        with pytest.raises(TermSyntaxError):
            parse_term("v0")
        with pytest.raises(TermSyntaxError):
            parse_term("v")

    def test_juxtaposition_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_term("v1(v2)")

    @pytest.mark.parametrize("text, offset, message", [
        ("v\u00b2", 1, "expected digits"),
        ("v\u0661", 1, "expected digits"),
        ("\u00b2", 0, "unexpected character"),
        ("v1^\u00b2", 3, "expected digits"),
        ("1/\u0661", 2, "expected denominator digits"),
    ])
    def test_only_ascii_digits(self, text, offset, message):
        with pytest.raises(TermSyntaxError, match=message) as info:
            parse_term(text)
        assert info.value.offset == len(text[:offset].encode("utf-8"))

    @pytest.mark.parametrize("prefix", ["v1 + ", "v1 + v", "v1^", "v1 -"])
    def test_5000_digit_run(self, prefix):
        # past the default int conversion limit of Python 3.11+ (4300
        # digits), read in chunks, so accepted whatever the limit; a variable
        # index is bounded at 600 digits, which str prints under any limit
        n = (10 ** 5000 - 1) // 9 * 7
        if prefix == "v1 + v":
            with pytest.raises(TermSyntaxError, match="too many digits") as info:
                parse_term(prefix + "7" * 5000)
            assert info.value.offset == len("v1 + ")
            return
        assert parse_term(prefix + "7" * 5000) == {
            "v1 + ": Add(Var(1), ScalarMul(Fraction(n), One())),
            "v1^": Pow(Var(1), n),
            "v1 -": Sub(Var(1), ScalarMul(Fraction(n), One()))}[prefix]

    def test_variable_index_bound(self):
        # 600 digits is the longest index: its str needs no more than the
        # least int string limit (640)
        n = (10 ** 600 - 1) // 9 * 7
        assert parse_term("v" + "7" * 600) == Var(n)
        with pytest.raises(TermSyntaxError, match="too many digits") as info:
            parse_term("v1 + v" + "7" * 601)
        assert info.value.offset == len("v1 + ")

    @pytest.mark.parametrize("prefix", ["v1 + ", "v1 + v", "v1^", "v1 -"])
    def test_digit_run_past_the_literal_bound(self, prefix):
        # a syntax error at the number, before any of it is read
        text = prefix + "7" * (_MAX_LITERAL_DIGITS + 1)
        with pytest.raises(TermSyntaxError, match="too many digits") as info:
            parse_term(text)
        assert info.value.offset == len(prefix.rstrip("v-"))

    @pytest.mark.parametrize("text, offset", [
        ("2^777777777777", 2), ("v1*-2/3^9999999", 8), ("v1*- 2^1000^2000", 12)])
    def test_literal_power_past_the_bound(self, text, offset):
        # a literal power is folded into one number; one past 2^20 bits is
        # refused at its exponent before any of it is computed
        with pytest.raises(TermSyntaxError, match="literal power too large") as info:
            parse_term(text)
        assert info.value.offset == offset

    def test_literal_power_within_the_bound(self):
        assert parse_term("2^524287") == ScalarMul(Fraction(2) ** 524287, One())
        assert parse_term("-1^777777777777") == ScalarMul(Fraction(-1), One())
        assert parse_term("1/1^777777777777*v1") == ScalarMul(Fraction(1), Var(1))

    def test_exponent_is_kept_not_expanded(self):
        # 4,000 digits: inside the default int conversion limit of Python 3.11+ (4,300)
        assert parse_term("v1^" + "7" * 4000) == Pow(Var(1), (10 ** 4000 - 1) // 9 * 7)


class TestVariables:
    def test_nested(self):
        assert variables_of(parse_term("f(v1*f(v2))")) == ("v1", "v2")

    def test_ground(self):
        assert variables_of(parse_term("1")) == ()

    def test_sorted_by_index(self):
        assert variables_of(parse_term("v3 + v1*v3")) == ("v1", "v3")
        assert variables_of(parse_term("v10 + v2")) == ("v2", "v10")


class TestRender:
    def test_examples(self):
        assert render(F(Var(1))) == "f(v1)"
        assert render(Sub(One(), Zero())) == "1 - 0"
        assert render(ScalarMul(Fraction(1, 2), Var(1))) == "1/2*v1"

    def test_unit_coefficient_survives(self):
        t = ScalarMul(Fraction(1), Var(2))
        assert parse_term(render(t)) == t

    def test_power_is_written_out_up_to_the_literal_bound(self):
        # v1^n is "v1" and n - 1 times "*v1", 3n - 1 characters; past
        # _MAX_LITERAL_BITS characters it is refused before it is built
        n = (_MAX_LITERAL_BITS + 1) // 3
        assert len(render(Pow(Var(1), n))) == 3 * n - 1 <= _MAX_LITERAL_BITS
        for t in (Pow(Var(1), n + 1), Mul(Var(2), Pow(F(Var(1)), 10 ** 20))):
            with pytest.raises(ValueError, match="too long to write out"):
                render(t)


    def test_powers_share_one_bound(self):
        # the outermost powers of a term count together, each nested power
        # once, inside the copies of the power that holds it
        n = (_MAX_LITERAL_BITS + 1) // 3
        half = Pow(Var(1), n // 2)
        # a Pow right of "*" is parenthesized: 3 characters between the two
        assert len(render(Mul(half, half))) == 2 * (3 * (n // 2) - 1) + 3
        with pytest.raises(ValueError, match="too long to write out"):
            render(Mul(half, Pow(Var(2), n - n // 2 + 2)))
        # (v1^2)^k is "v1*v1" and k - 1 times "*(v1*v1)", 5 + 8(k - 1)
        # characters, the inner power's 5 inside them
        k = (_MAX_LITERAL_BITS + 3) // 8
        assert len(render(Pow(Pow(Var(1), 2), k))) == 8 * k - 3 <= _MAX_LITERAL_BITS
        with pytest.raises(ValueError, match="too long to write out"):
            render(Mul(Pow(Pow(Var(1), 2), k), Pow(Var(1), 2)))


def _terms(powers=False):
    leaves = st.one_of(
        st.just(One()),
        st.just(Zero()),
        st.builds(Var, st.integers(min_value=1, max_value=4)),
    )
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(ScalarMul, coeffs, children),
            st.builds(F, children),
            *([st.builds(Pow, children, st.integers(2, 3))] if powers else []),
        )

    return st.recursive(leaves, extend, max_leaves=12 if powers else 32)


def _copy(t, expand=True):
    """A new copy of t; with ``expand``, every Pow in it is written out as the
    left-nested Mul chain of its copies."""
    if expand and isinstance(t, Pow):
        base = out = _copy(t.base)
        for _ in range(t.n - 1):
            out = Mul(out, base)
        return out
    return type(t)(*(_copy(x, expand) if isinstance(x, Term) else x for x in t._astuple(t)))


class TestProperties:
    @given(_terms())
    @settings(max_examples=400, deadline=None)
    def test_roundtrip(self, t):
        assert parse_term(render(t)) == t

    @given(st.text(alphabet="vf0123456789+-*/^()= .x\u00b2\u0661\u3000", max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_parser_total(self, text):
        try:
            parse_term(text)
        except TermSyntaxError as exc:
            assert isinstance(exc.offset, int)
            assert 0 <= exc.offset <= len(text.encode("utf-8"))

    @given(_terms(), _terms())
    @settings(max_examples=300, deadline=None)
    def test_equality_and_hash_are_the_structural_ones(self, s, t):
        # the recursive definitions that the explicit-stack walks replace
        def tree(u):
            return (type(u), tuple(tree(x) if isinstance(x, Term) else x
                                   for x in u._astuple(u)))

        def fields(u):  # a record hashes as the tuple of its fields
            return tuple(fields(x) if isinstance(x, Term) else x for x in u._astuple(u))

        assert (s == t) == (tree(s) == tree(t))
        assert (s != t) == (tree(s) != tree(t))
        assert hash(s) == hash(fields(s))
        copy = parse_term(render(s))
        assert copy is not s and copy == s and hash(copy) == hash(s)

    @given(_terms(powers=True), _terms(powers=True))
    @settings(max_examples=200, deadline=None)
    def test_powers_render_as_their_products(self, s, t):
        text = render(s)
        assert parse_term(text) == _copy(s)
        assert render(parse_term(text)) == text
        # Pow joins the explicit-stack equality and hash walks
        copy = _copy(s, expand=False)
        assert copy is not s and copy == s and hash(copy) == hash(s)
        assert (s == t) == (repr(s) == repr(t))


def test_deep_terms_compare_and_hash_without_recursion():
    # 5,000 levels under a recursion limit of 150: an equality or hash that
    # recursed once per level would fail here
    code = """
import sys
from avgalg.terms import Equation, parse_term
sys.setrecursionlimit(150)
deep = 5000
shapes = [
    lambda leaf: "f(" * deep + leaf + ")" * deep,
    lambda leaf: "v1*(" * deep + leaf + ")" * deep,
    lambda leaf: "-" * deep + leaf,
    lambda leaf: " + ".join(["v1"] * deep + [leaf]),
    lambda leaf: "(" + leaf + ")" + "^" + str(deep),
]
for shape in shapes:
    t, same, other = (parse_term(shape(leaf)) for leaf in ("v2", "v2", "v3"))
    assert t == same and not t != same and hash(t) == hash(same)
    assert t != other and not t == other
    assert len({t, same, other}) == 2 and {t: 1}[same] == 1
    assert hash(Equation(t, other)) == hash(Equation(same, other))
"""
    root = pathlib.Path(__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stderr == ""
