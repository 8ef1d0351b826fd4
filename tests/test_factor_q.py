"""The factorisation over Q behind ``check_domain`` and ``rational_roots``.

``exactlin._factor_q`` factors a monic squarefree polynomial over Q by
Berlekamp's algorithm mod a prime, Hensel lifting and Zassenhaus
recombination.  It is compared with the trial division of
``support.ref_factor_monic`` on small integer polynomials, checked on
products of random rational factors, and run on polynomials that are
irreducible over Q but split modulo every prime, where the recombination
must reject every proper subset of the factors mod p.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avgalg.exactlin import QQ, _factor_q, _squarefree, poly_divmod, poly_mul, rational_roots
from support import assert_canonical_q, ref_factor_monic


def _product(factors):
    out = (1,)
    for h in factors:
        out = poly_mul(QQ, out, h)
    return out


def _divides(h, g):
    return not poly_divmod(QQ, g, h)[1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
def test_factors_match_trial_division(low):
    f = tuple(low) + (1,)
    assume(_squarefree(QQ, f))
    assert _factor_q(f)[1] == ref_factor_monic(f)


@st.composite
def rational_monic(draw):
    """A monic polynomial over Q of degree 1 to 3; its constant term is 0
    now and then, a root at 0."""
    deg = draw(st.integers(1, 3))
    low = draw(st.lists(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
                        min_size=deg, max_size=deg))
    return tuple(QQ.of(c) for c in low) + (1,)


@settings(max_examples=150, deadline=None)
@given(st.lists(rational_monic(), min_size=1, max_size=4))
def test_products_of_rational_factors(drawn):
    f = _product(drawn)
    assume(_squarefree(QQ, f))
    factors = _factor_q(f)[1]
    assert factors == tuple(sorted(factors, key=lambda h: (len(h), h)))
    assert all(h[-1] == 1 for h in factors) and _product(factors) == f
    assert_canonical_q([c for h in factors for c in h])
    # each drawn factor is the product of the factors that divide it, and a
    # linear one is a factor itself
    for g in drawn:
        assert _product([h for h in factors if _divides(h, g)]) == g
        assert len(g) > 2 or g in factors


@pytest.mark.parametrize("f", [
    (1, 0, 0, 0, 1),                        # t^4 + 1
    (1, 0, -10, 0, 1),                      # of sqrt(2) + sqrt(3)
    (576, 0, -960, 0, 352, 0, -40, 0, 1),   # of sqrt(2) + sqrt(3) + sqrt(5)
])
def test_irreducible_polynomials_that_split_mod_every_prime(f):
    assert _factor_q(f)[1] == (f,)
    if len(f) <= 5:
        assert ref_factor_monic(f) == (f,)


def test_a_product_of_quadratics_that_split_mod_every_prime():
    assert _factor_q((6, 0, -5, 0, 1))[1] == ((-3, 0, 1), (-2, 0, 1))


def test_rational_roots_of_large_constants():
    # read off a factorisation: a divisor search up to the square root of
    # the constant term could never finish these
    assert rational_roots((10**30 + 1, 0, 1)) == ()
    assert rational_roots((-10**30, 0, 1)) == (-10**15, 10**15)


def test_rational_roots_are_the_linear_factors_by_multiplicity():
    rng = random.Random(20261020)
    for _ in range(100):
        roots = sorted(QQ.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                       for _ in range(rng.randint(1, 4)))
        # times t^2 + k, k > 0, which has no rational root, and a scalar
        f = _product([(-r % QQ, 1) for r in roots] + [(rng.randint(1, 5), 0, 1), (3,)])
        assert rational_roots(f) == tuple(roots)
