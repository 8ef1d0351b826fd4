import functools
import itertools
import json
import pathlib
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgalg.findim as FD
from avgalg.terms import TermSyntaxError, parse_term
from avgalg.exactlin import (
    _hnf_full,
    _is_prime,
    _pivot_unit,
    Matrix,
    NoSolution,
    NotAFieldError,
    QQ,
    Rationals,
    RingError,
    ShapeError,
    Solution,
    Submodule,
    Subspace,
    ZMod,
    _berlekamp,
    _modulus,
    char_poly,
    nullspace,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_root_mod_p,
    poly_sub,
    poly_trim,
    rational_roots,
    ring_from_name,
    rref,
    solve_linear,
    submodule_kernel,
)
from support import (
    assert_canonical_q, berlekamp_by_degree, rand_algebra, rand_averaging, ref_submodule_kernel,
    ref_submodule_span)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def mat(rows, ring=QQ):
    return Matrix.from_rows(ring, rows)


class TestRings:
    def test_rational_canonical(self):
        assert QQ.parse("4/6") == Fraction(2, 3)
        assert QQ.render(Fraction(-3, 1)) == "-3"
        assert QQ.render(Fraction(1, 2)) == "1/2"

    def test_integral_rationals_are_ints(self):
        # the canonical element of Q: an int when integral, else a Fraction
        for value in (QQ.zero, QQ.one, QQ.of(Fraction(4, 2)), QQ.of(3), QQ.of(True),
                      QQ.parse(" -6/3 "), QQ.parse("0/5"), QQ.inv(-1), QQ.inv(Fraction(1, 3)),
                      (Fraction(1, 2) + Fraction(1, 2)) % QQ,
                      (Fraction(1, 2) - Fraction(-1, 2)) % QQ,
                      Fraction(2, 3) * Fraction(3, 2) % QQ, Fraction(1, 2) * 4 % QQ):
            assert type(value) is int, repr(value)
        for value in (QQ.of(0.5), QQ.parse("4/6"), QQ.inv(2), (1 + Fraction(1, 2)) % QQ,
                      Fraction(2, 3) * 2 % QQ):
            assert type(value) is Fraction and value.denominator != 1, repr(value)
        assert QQ.of(7) == Fraction(7) and hash(QQ.of(7)) == hash(Fraction(7))

    def test_rational_render_ignores_the_digit_limit(self):
        # Python 3.11+ refuses str() of ints past a digit limit (4300 by
        # default); render splits the number into chunks below any limit
        big = 7 ** 20000 + 1  # 16,902 digits
        text = QQ.render(-big)
        assert len(text) == 16903 and text[0] == "-"
        assert int(text[1:5]) == big // 10 ** 16898
        # the whole of it, read back in chunks of 1,000 digits
        back = 0
        for k in range(1, len(text), 1000):
            chunk = text[k:k + 1000]
            back = back * 10 ** len(chunk) + int(chunk)
        assert back == big
        assert QQ.render(Fraction(1, big)) == "1/" + text[1:]
        assert QQ.render(10 ** 600) == "1" + "0" * 600

    def test_literals_read_one_grammar_whatever_their_length(self):
        # QQ.parse and ZMod.parse read Python 3.11's Fraction grammar at any
        # length: underscores group digits, no space stands around "/".  The
        # term parser reads its digit runs the same way.  On Python 3.11+
        # int() refuses a string past sys.get_int_max_str_digits() (at least
        # 640 when on, 0 for off); the readers take long literals in chunks,
        # so their results depend on neither that limit nor the length
        rng = random.Random(29)
        cases = []  # (text, value over Q or None, residue mod 7 or None)
        for k in (7, 599, 600, 640, 1201, 4300, 4301, 5000):
            d = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(k - 1))
            h = k // 2
            n, a, b = (functools.reduce(lambda v, c: 10 * v + int(c), t, 0)
                       for t in (d, d[:h], d[h:]))
            cases += [(d, n, n % 7), ("-" + d, -n, -n % 7), ("+" + d, n, n % 7),
                      (d[:h] + "_" + d[h:], n, n % 7), (d + "__1", None, None),
                      (d[:h] + "/" + d[h:], Fraction(a, b), None),
                      (d[:h] + " / " + d[h:], None, None), (d[:h] + " /" + d[h:], None, None),
                      (f" -{d[:-3]}.{d[-3:]}e-7 ", Fraction(-n, 10 ** 10), None),
                      (f".{d}E+1_2", Fraction(n * 10 ** 12, 10 ** k), None),
                      (d + ".", n, None), (d + "/0", None, None), (d + "/-3", None, None)]

        def outcome(read, text):
            try:
                return read(text)
            except (RingError, TermSyntaxError):
                return None

        def check():
            for text, q, r in cases:
                assert (outcome(QQ.parse, text), outcome(ZMod(7).parse, text)) == (q, r), text
                if text.isdecimal():
                    assert parse_term(text + "*v1").coeff == q

        check()
        if hasattr(sys, "set_int_max_str_digits"):
            before = sys.get_int_max_str_digits()
            try:
                for limit in (640, 0):
                    sys.set_int_max_str_digits(limit)
                    check()
            finally:
                sys.set_int_max_str_digits(before)

    def test_zmod_canonical(self):
        z6 = ZMod(6)
        assert z6.of(-1) == 5
        assert (4 + 5) % _modulus(z6) == 3
        assert not z6.is_field
        assert ZMod(7).is_field

    def test_zmod_of_maps_ints_bools_and_fractions(self):
        # ints take the fast path; bools and Fractions the general one
        z6 = ZMod(6)
        for value, want in [(-1, 5), (-13, 5), (6, 0), (13, 1), (10 ** 30 + 1, 5),
                            (True, 1), (False, 0), (Fraction(-4, 2), 4),
                            (Fraction(7), 1), (Fraction(1, 5), 5), (Fraction(-7, 5), 1)]:
            got = z6.of(value)
            assert got == want and type(got) is int, (value, got)

    def test_zmod_inverse(self):
        z7 = ZMod(7)
        assert z7.inv(3) * 3 % z7.n == 1
        with pytest.raises(RingError):
            ZMod(6).inv(2)

    def test_zmod_fraction_embedding(self):
        # 1/2 is 4 mod 7, no unit denominator mod 6
        assert ZMod(7).of(Fraction(1, 2)) == 4
        with pytest.raises(RingError):
            ZMod(6).of(Fraction(1, 2))

    def test_zmod_reads_a_float_exactly(self):
        # 0.5 is 1/2, so 3 mod 5, as Fraction(1, 2) is; it used to truncate to 0
        assert ZMod(5).of(0.5) == 3
        assert ZMod(5).of(2.7) == ZMod(5).of(Fraction(2.7)) != 2
        with pytest.raises(RingError):
            ZMod(4).of(0.5)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 10**18 + 3, 4, 6, 9, 12]),
           st.one_of(st.integers(-10**20, 10**20),
                     st.fractions(max_denominator=60),
                     st.builds(lambda k, e: k / 2**e, st.integers(-2**20, 2**20),
                               st.integers(0, 12))))
    def test_zmod_reads_every_number_as_q_does(self, n, v):
        # ints, Fractions and dyadic floats, the last exact as floats
        R = ZMod(n)
        try:
            want = R.of(QQ.of(v))
        except RingError:
            with pytest.raises(RingError):
                R.of(v)
            return
        got = R.of(v)
        assert got == want and type(got) is int

    def test_rings_carry_no_arithmetic(self):
        for ring in (Rationals, ZMod):
            assert not any(hasattr(ring, op) for op in ("add", "sub", "mul", "neg"))
        assert Rationals.__rmod__ is Rationals.of

    def test_scalars_are_constants(self):
        assert QQ.zero is QQ.zero
        assert QQ.one is QQ.one
        assert ZMod(6).one == 1
        assert ZMod(2).one == 1
        x = Fraction(3, 4)
        assert QQ.of(x) is x

    @pytest.mark.parametrize("ring", [QQ, ZMod(6)], ids=["Q", "Zmod:6"])
    @pytest.mark.parametrize("value", [1, 0.5, None, ["1"]])
    def test_parse_accepts_strings_only(self, ring, value):
        with pytest.raises(RingError):
            ring.parse(value)

    @pytest.mark.parametrize("text", ["1e999999999", "1e-999999999", " 1E+0_999_999 ",
                                      "1e315652", "1" * 400_000])
    def test_rational_literal_past_the_bound_is_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(RingError, match="too large"):
            QQ.parse(text)
        assert time.perf_counter() - start < 1.0

    def test_rational_literals_within_the_bound_parse(self):
        assert QQ.parse("1e3") == 1000
        assert QQ.parse("0.5") == Fraction(1, 2)
        assert QQ.parse("-1/2") == Fraction(-1, 2)
        assert QQ.parse("1e400") == 10 ** 400
        assert QQ.parse("1e-400") == Fraction(1, 10 ** 400)
        # the largest exponent of 10 the bound admits is within 2^20 bits
        assert QQ.parse("1e315651").bit_length() <= 1 << 20

    def test_residue_literal_past_the_bound_is_refused(self):
        with pytest.raises(RingError, match="too large"):
            ZMod(6).parse("1" * 400_000)

    def test_ring_names_roundtrip(self):
        assert ring_from_name("Q") is QQ
        assert ring_from_name("Zmod:6") == ZMod(6)
        with pytest.raises(RingError):
            ring_from_name("R")

    @pytest.mark.parametrize("name", [
        5, None, ["Q"], "Zmod:1_3", "Zmod: 13", "Zmod:+13", "Zmod:13 ", "Zmod:",
        "Zmod:\u0661\u0663", "Zmod:0", "Zmod:1", "zmod:13"])
    def test_ring_name_is_q_or_ascii_decimal_modulus(self, name):
        with pytest.raises(RingError):
            ring_from_name(name)


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        assert all(_is_prime(n) == _trial_division_prime(n) for n in range(100_000))

    def test_pseudoprimes_are_composite(self):
        # 561 is a Carmichael number; 3215031751 = 151 * 751 * 28351 is a
        # strong pseudoprime to the bases 2, 3, 5 and 7
        assert not _is_prime(561)
        assert not _is_prime(3215031751)
        assert not ZMod(3215031751).is_field

    def test_large_prime_modulus_is_fast(self):
        start = time.perf_counter()
        assert ZMod(10 ** 18 + 3).is_field
        assert not ZMod(10 ** 18 + 1).is_field
        assert time.perf_counter() - start < 1.0

    def test_modulus_above_the_proven_bound_is_refused(self):
        assert ZMod(3317044064679887385961979).n  # just below the bound
        for n in (3317044064679887385961981, 10 ** 30):
            with pytest.raises(RingError, match="too large"):
                ZMod(n)


class TestRref:
    def test_identity_already_reduced(self):
        m = Matrix.identity(QQ, 2)
        red, pivots = rref(m)
        assert red == m
        assert pivots == (0, 1)

    def test_rank_one(self):
        red, pivots = rref(mat([[2, 4], [1, 2]]))
        assert red.entries == ((1, 2), (0, 0))
        assert pivots == (0,)

    def test_zero_matrix(self):
        m = Matrix.zero(QQ, 2, 3)
        red, pivots = rref(m)
        assert red == m
        assert pivots == ()

    def test_non_field_rejected(self):
        with pytest.raises(NotAFieldError):
            rref(Matrix.from_rows(ZMod(6), [[2, 4]]))

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_rowspace_preserved(self, rows):
        m = mat(rows)
        red, _ = rref(m)
        again, _ = rref(red)
        assert again == red
        assert Subspace.span(QQ, 3, m.entries) == Subspace.span(QQ, 3, red.entries)


class TestMatrices:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_operands_over_two_rings_are_refused(self, op):
        # the result used to carry the left operand's ring: I + [[0, 1], [1, 0]]
        # over Z/5 came back as the Q matrix ((1, 1), (1, 1))
        left, right = Matrix.identity(QQ, 2), mat([[0, 1], [1, 0]], ZMod(5))
        with pytest.raises(ShapeError, match="mixed coefficient rings"):
            getattr(left, op)(right)
        with pytest.raises(ShapeError, match="mixed coefficient rings"):
            getattr(right, op)(left)
        assert getattr(right, op)(mat([[1, 0], [0, 1]], ZMod(5))).ring == ZMod(5)

    @pytest.mark.parametrize("cols", [[(1, 2), (3, 4, 5)], [(1, 2, 3), (4, 5)]])
    def test_ragged_columns_are_refused(self, cols):
        # a longer later column lost its last entries, and a shorter one
        # raised IndexError
        with pytest.raises(ShapeError, match="column length mismatch"):
            Matrix.from_cols(QQ, cols)


class TestSolve:
    def test_identity_system(self):
        res = solve_linear(Matrix.identity(QQ, 3), [1, 2, 3])
        assert isinstance(res, Solution)
        assert res.particular == (1, 2, 3)
        assert res.nullspace.is_zero()

    def test_underdetermined(self):
        res = solve_linear(mat([[1, 1]]), [2])
        assert isinstance(res, Solution)
        assert res.particular == (2, 0)
        assert res.nullspace == Subspace.span(QQ, 2, [(1, -1)])

    def test_inconsistent(self):
        assert isinstance(solve_linear(mat([[1], [1]]), [1, 2]), NoSolution)

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=2, max_size=3),
           st.lists(st.integers(-5, 5), min_size=2, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_solution_exact(self, rows, b):
        if len(b) != len(rows):
            b = (b + [0] * len(rows))[:len(rows)]
        a = mat(rows)
        res = solve_linear(a, b)
        if isinstance(res, Solution):
            assert a.apply(res.particular) == tuple(Fraction(x) for x in b)
            for v in res.nullspace.basis:
                assert all(x == 0 for x in a.apply(v))


class TestSubspaces:
    def test_nullspace_identity(self):
        assert nullspace(Matrix.identity(QQ, 3)).is_zero()

    def test_nullspace_zero_matrix(self):
        assert nullspace(Matrix.zero(QQ, 2, 2)) == Subspace.full(QQ, 2)

    def test_nullspace_row(self):
        ker = nullspace(mat([[1, 2]]))
        assert ker == Subspace.span(QQ, 2, [(-2, 1)])
        assert ker.contains_vector((-2, 1))

    def test_sum_with_zero(self):
        u = Subspace.span(QQ, 3, [(1, 0, 2), (0, 1, 1)])
        assert Subspace.span(QQ, 3, u.basis + Subspace(QQ, 3, ()).basis) == u

    def test_containment(self):
        plane = Subspace.span(QQ, 3, [(1, 0, 0), (0, 1, 0)])
        line = Subspace.span(QQ, 3, [(1, 1, 0)])
        assert all(plane.contains_vector(b) for b in line.basis)
        assert not all(line.contains_vector(b) for b in plane.basis)

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=0, max_size=3),
           st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=0, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_dimension_formula(self, us, vs):
        # dim(u + v) + dim(u ∩ v) = dim u + dim v, with u ∩ v read off the
        # kernel of [U | -V]: c·U = d·V for each kernel vector (c, d)
        u = Subspace.span(QQ, 3, us)
        v = Subspace.span(QQ, 3, vs)
        s = Subspace.span(QQ, 3, u.basis + v.basis)
        ker = nullspace(Matrix.from_cols(QQ, u.basis + tuple(
            tuple(-x for x in b) for b in v.basis)))
        meet = [tuple(sum(c * b[i] for c, b in zip(w, u.basis)) for i in range(3))
                for w in ker.basis]
        assert s.dim + Subspace.span(QQ, 3, meet).dim == u.dim + v.dim
        assert all(s.contains_vector(b) for b in u.basis + v.basis)
        assert all(u.contains_vector(w) and v.contains_vector(w) for w in meet)


class TestCharPoly:
    def test_identity(self):
        # (t - 1)^2 = 1 - 2t + t^2
        assert char_poly(Matrix.identity(QQ, 2)) == (1, -2, 1)
        assert char_poly(Matrix.identity(QQ, 3)) == (-1, 3, -3, 1)

    def test_nilpotent(self):
        assert char_poly(mat([[0, 1], [0, 0]])) == (0, 0, 1)

    def test_companion(self):
        # multiplication-by-t matrix of Q[t]/(t^3 - 2)
        m = mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
        assert char_poly(m) == (-2, 0, 0, 1)

    def test_over_prime_field(self):
        z7 = ZMod(7)
        assert char_poly(Matrix.identity(z7, 2)) == (1, 5, 1)

    def test_ad_matrix_of_complex_example(self):
        # ad(a)(x) = a·F(x) − x·F(a) on Q[i] with F = imaginary part, a = i:
        # ad(1) = i·0 − 1·1 = −1, ad(i) = i·1 − i·1 = 0
        ad = mat([[-1, 0], [0, 0]])
        assert rational_roots(char_poly(ad)) == (Fraction(-1), Fraction(0))


class TestRationalRoots:
    def test_repeated_and_negative(self):
        # (t - 1)^2 (t + 2) = t^3 - 3t + 2
        assert rational_roots((2, -3, 0, 1)) == (-2, 1, 1)

    def test_no_rational_roots(self):
        assert rational_roots((1, 0, 1)) == ()
        assert rational_roots((-2, 0, 1)) == ()

    def test_zero_roots_and_fractions(self):
        # t^2 (2t - 1)
        assert rational_roots((0, 0, -1, 2)) == (0, 0, Fraction(1, 2))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots((0, 0))

    def test_random_eigen_consistency(self):
        import random
        rng = random.Random(20260822)
        for _ in range(100):
            m = mat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            p = char_poly(m)
            for k in set(rational_roots(p)):
                assert poly_eval(QQ, p, k) == 0
                shifted = m.sub(Matrix.identity(QQ, 3).scale(k))
                assert not nullspace(shifted).is_zero()


SMALL_PRIMES = [2, 3, 5, 7, 11]


@st.composite
def poly_mod_p(draw, max_deg=7):
    """(ring, monic f) over Z/p."""
    F = ZMod(draw(st.sampled_from(SMALL_PRIMES)))
    deg = draw(st.integers(1, max_deg))
    low = draw(st.lists(st.integers(0, F.n - 1), min_size=deg, max_size=deg))
    return F, tuple(low) + (F.one,)


class TestPolynomials:
    @settings(max_examples=60, deadline=None)
    @given(poly_mod_p(), poly_mod_p())
    def test_divmod_identity(self, ff, gg):
        F, f = ff
        g = tuple(F.of(c) for c in gg[1])
        q, r = poly_divmod(F, f, g)
        assert len(r) < len(g)
        assert poly_sub(F, f, poly_mul(F, q, g)) == r

    def test_gcd_over_q(self):
        # (t - 1)^2 (t + 2) and its derivative 3(t - 1)(t + 1) share t - 1
        f = tuple(QQ.of(c) for c in (2, -3, 0, 1))
        assert poly_gcd(QQ, f, poly_derivative(QQ, f)) == (-1, 1)
        assert poly_trim((1, 0, 0)) == (1,) and poly_trim((0, 0)) == ()

    def test_distinct_degree_factors_known(self):
        F3 = ZMod(3)
        # t^4 + 1 = (t^2 + t + 2)(t^2 + 2t + 2) mod 3
        assert sorted(_berlekamp(F3, (1, 0, 0, 0, 1))) == [(2, 1, 1), (2, 2, 1)]
        assert berlekamp_by_degree(F3, (1, 0, 0, 0, 1)) == ((2, (1, 0, 0, 0, 1)),)
        # t^3 - t = t (t - 1)(t + 1), times the irreducible t^2 + 1
        f = poly_mul(F3, (0, 2, 0, 1), (1, 0, 1))
        assert sorted(_berlekamp(F3, f)) == [(0, 1), (1, 0, 1), (1, 1), (2, 1)]
        assert berlekamp_by_degree(F3, f) == ((1, (0, 2, 0, 1)), (2, (1, 0, 1)))

    @settings(max_examples=100, deadline=None)
    @given(poly_mod_p())
    def test_distinct_degree_pattern_matches_brute_force(self, ff):
        F, f = ff
        if len(poly_gcd(F, f, poly_derivative(F, f))) != 1:
            return  # squarefree input only
        # Berlekamp's factors are monic and have no monic factor of positive
        # degree at most half their own, found by trial division
        for q in _berlekamp(F, f):
            assert q[-1] == 1
            for m in range(1, (len(q) - 1) // 2 + 1):
                for low in itertools.product(range(F.n), repeat=m):
                    assert poly_divmod(F, q, low + (1,))[1]
        ddf = berlekamp_by_degree(F, f)
        product = (F.one,)
        for k, g in ddf:
            assert (len(g) - 1) % k == 0
            product = poly_mul(F, product, g)
        assert product == f
        assert sum(len(g) - 1 for _, g in ddf) == len(f) - 1
        linear = dict(ddf).get(1, (F.one,))
        roots = [c for c in range(F.n) if not poly_eval(F, f, c)]
        assert len(linear) - 1 == len(roots)

    @settings(max_examples=100, deadline=None)
    @given(poly_mod_p())
    def test_root_mod_p_matches_brute_force(self, ff):
        F, f = ff
        root = poly_root_mod_p(F, f)
        if any(not poly_eval(F, f, c) for c in range(F.n)):
            assert root is not None and not poly_eval(F, f, root)
        else:
            assert root is None

    def test_root_mod_large_prime(self):
        F = ZMod(1_000_003)
        # (t - 123456)(t - 7)(t^2 + 1); -1 is not a square mod 1000003
        f = poly_mul(F, poly_mul(F, (-123456 % F.n, 1), (-7 % F.n, 1)), (1, 0, 1))
        assert poly_root_mod_p(F, f) in (7, 123456)
        assert poly_root_mod_p(F, (1, 0, 1)) is None

    def test_ddf_needs_prime_field(self):
        with pytest.raises(NotAFieldError):
            berlekamp_by_degree(ZMod(6), (1, 0, 1))
        with pytest.raises(NotAFieldError):
            poly_root_mod_p(ZMod(6), (1, 0, 1))


class TestSubmodules:
    def test_span_canonical(self):
        z6 = ZMod(6)
        a = Submodule.span(z6, 1, [(2,), (3,)])
        assert a == Submodule.span(z6, 1, [(1,)])
        assert a.contains_vector((5,))

    def test_span_canonical_z4_reproducer(self):
        # one set of 16 elements; the bases used to differ in the first row
        z4 = ZMod(4)
        a = Submodule.span(z4, 3, [(3, 3, 3), (1, 2, 0), (3, 1, 3)])
        b = Submodule.span(z4, 3, [(3, 1, 3), (2, 1, 1), (0, 2, 0)])
        assert a.basis == ((1, 0, 0), (0, 1, 1), (0, 0, 2))
        assert b.basis == a.basis

    def test_span_canonical_brute_force(self):
        # the canonical basis is a function of the element set alone
        rng = random.Random(0xA11)
        for n in (4, 6, 8, 9, 12):
            ring = ZMod(n)
            for d in (1, 2, 3):
                seen = {}
                for _ in range(40):
                    gens = [tuple(rng.randrange(n) for _ in range(d))
                            for _ in range(rng.randint(1, 3))]
                    elements = _brute_span(n, d, gens)
                    # regenerate the same set from a sample of its elements
                    pool = sorted(elements)
                    other = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
                    if _brute_span(n, d, other) == elements:
                        cases = (gens, other)
                    else:
                        cases = (gens,)
                    for g in cases:
                        basis = Submodule.span(ring, d, g).basis
                        assert seen.setdefault(elements, basis) == basis, (n, g)
                        assert _brute_span(n, d, basis) == elements

    def test_kernel_of_doubling_mod6(self):
        z6 = ZMod(6)
        ker = submodule_kernel(z6, Matrix.from_rows(z6, [[2]]))
        assert ker == Submodule.span(z6, 1, [(3,)])
        assert ker.contains_vector((3,))
        assert not ker.contains_vector((2,))

    def test_random_kernels_match_brute_force(self):
        # submodule_kernel is the one caller of the elimination with a
        # carried transform; its span must be exactly the solution set, also
        # for tall matrices, whose rows it first reduces to their canonical span
        rng = random.Random(0x4E7)
        for n in (4, 6, 8, 9, 12):
            ring = ZMod(n)
            cases = []
            for _ in range(12):
                rows, cols = rng.randint(1, 6), rng.randint(1, 3)
                cases.append(([[rng.randrange(n) for _ in range(cols)]
                               for _ in range(rows)], None))
            cols = rng.randint(1, 3)
            cases.append(([[0] * cols for _ in range(rng.randint(1, 6))], None))
            # one row repeated and one the sum of two others: same kernel
            # as the matrix without them
            base = [[rng.randrange(n) for _ in range(cols)] for _ in range(3)]
            extra = [base[0], [(x + y) % n for x, y in zip(base[1], base[2])]]
            cases.append((base + extra, base))
            for entries, dedup in cases:
                m = Matrix.from_rows(ring, entries)
                cols = m.cols
                ker = submodule_kernel(ring, m)
                solutions = frozenset(
                    x for x in itertools.product(range(n), repeat=cols) if not any(m.apply(x)))
                assert _brute_span(n, cols, ker.basis) == solutions, (n, m.entries)
                assert ker == Submodule.span(ring, cols, sorted(solutions))
                if dedup is not None:
                    assert ker == submodule_kernel(ring, Matrix.from_rows(ring, dedup))
            full = Submodule.span(ring, 2, [(1, 0), (0, 1)])
            assert submodule_kernel(ring, Matrix(ring, 0, 2, ())) == full

    def test_kernel_matches_brute_force(self):
        z6 = ZMod(6)
        m = Matrix.from_rows(z6, [[2, 4], [3, 3]])
        ker = submodule_kernel(z6, m)
        for x in range(6):
            for y in range(6):
                expected = all(v == 0 for v in m.apply((x, y)))
                assert ker.contains_vector((x, y)) == expected

    def test_entries_are_read_through_the_ring(self):
        # 1/2 is 5 mod 9, a unit; mod 6 it does not exist
        z9 = ZMod(9)
        assert Submodule.span(z9, 1, [(Fraction(1, 2),)]) == Submodule.span(z9, 1, [(1,)])
        assert Submodule.span(z9, 1, [(3,)]).contains_vector((Fraction(3, 2),))
        with pytest.raises(RingError):
            Submodule.span(ZMod(6), 1, [(Fraction(1, 2),)])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_span_and_kernel_match_the_integer_hnf(self, data):
        # the Howell form from the one elimination loop against the integer
        # Hermite normal form over n·I that it replaced, beyond brute force
        n = data.draw(st.sampled_from((4, 6, 8, 9, 12, 16, 18, 27, 36)))
        d = data.draw(st.integers(1, 6))
        entry = st.integers(0, n - 1) | st.sampled_from([k for k in range(n) if gcd(k, n) > 1])
        rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=7))
        ring = ZMod(n)
        assert Submodule.span(ring, d, rows) == ref_submodule_span(ring, d, rows)
        m = Matrix(ring, len(rows), d, tuple(tuple(r) for r in rows))
        assert submodule_kernel(ring, m) == ref_submodule_kernel(ring, m)

    def test_pivot_is_scaled_by_a_unit_to_the_gcd_below_200(self):
        # the carried column records the scaling unit; the lift search of
        # _pivot_unit runs where the inverse of a/g mod n/g is no unit mod n
        searched = 0
        for n in range(2, 200):
            ring = ZMod(n)
            for a in range(1, n):
                g = gcd(a, n)
                rows, pivots = _hnf_full(ring, [[a, 1]], 1)
                row = rows[0]
                assert pivots == (0,) and row[0] == g and gcd(row[1], n) == 1, (a, n)
                if g > 1:
                    assert row[1] == _pivot_unit(a, n)
                    searched += gcd(pow(a // g, -1, n // g), n) != 1
        assert searched > 0


def _brute_span(n, d, gens):
    """All Z/n-combinations of gens, by closure under adding a generator."""
    zero = (0,) * d
    found = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((x + y) % n for x, y in zip(v, g))
                if w not in found:
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(found)


class TestCanonicalQ:
    """Every Q scalar that leaves exactlin or findim is an int when it is
    integral and never a float."""

    def corpus(self, name):
        return json.loads((CORPUS / name).read_text())

    def test_corpus_documents(self):
        qi = FD.algebra_from_json(self.corpus("qi.json"))
        r3 = FD.algebra_from_json(self.corpus("r3.json"))
        assert_canonical_q([qi, r3])
        for name in ("im.json", "conj.json"):
            assert_canonical_q(FD.operator_from_json(QQ, self.corpus(name)))
        for name in ("qi_bracket_i.json", "bracket3.json"):
            assert_canonical_q(FD.bracket_from_json(QQ, self.corpus(name)))
        assert type(qi.unit[0]) is int and type(qi.mul[1][1][0]) is int

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_linear_algebra_outputs(self, rows):
        m = mat(rows)
        assert_canonical_q([m, rref(m), nullspace(m), char_poly(m),
                            Subspace.span(QQ, 3, [m.col(j) for j in range(3)])])
        assert_canonical_q(rational_roots(char_poly(m)))

    def test_lie_analysis_and_eigen_keys(self):
        qi = FD.algebra_from_json(self.corpus("qi.json"))
        im = FD.operator_from_json(QQ, self.corpus("im.json"))
        assert_canonical_q(FD.lie_analysis(qi, im))
        # F(a) = k for a = k*i, and -k is an eigenvalue: integral or not
        for k in (Fraction(2), Fraction(3, 2), Fraction(-4, 2)):
            pairs = FD.ad_eigen(qi, im, (0, k))
            assert -QQ.of(k) in dict(pairs)
            assert_canonical_q(pairs)
        rng = random.Random(5)
        for _ in range(20):
            A = rand_algebra(rng)
            F = rand_averaging(rng, A)
            assert_canonical_q([A, F, FD.lie_analysis(A, F),
                                FD.induced_by_averaging(A, FD.induced_bracket(A, F))])

    def test_rational_roots_are_canonical(self):
        roots = rational_roots([Fraction(-3, 2), Fraction(1, 2), 1])  # (t - 1)(t + 3/2)
        assert roots == (Fraction(-3, 2), 1)
        assert_canonical_q(roots)
        assert type(rational_roots([0, 0, 1])[0]) is int
