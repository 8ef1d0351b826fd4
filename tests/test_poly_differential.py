"""The plain-int polynomial routines agree with the ring-method references.

``exactlin``'s polynomials over Z/p compute on ints with an inline ``% p``,
and over Q on ints and Fractions reduced by ``% QQ``.  ``tests/support.py``
keeps the routines as they were when every coefficient step called the
ring's methods.  Random monic polynomials of degree at most 8, with
integer coefficients up to 10^6 in size and some rational ones, are
compared over Q and at each prime below 100: the squarefree verdict, the
factors of each degree that Berlekamp's algorithm finds against the
reference distinct-degree factorisation, and the root found mod p.

Each test compares a division first: the Euclidean loops behind the
other routines end only because every division lowers the degree, so a
division that does not would make them run forever instead of failing.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import (
    QQ,
    ZMod,
    _squarefree,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_powmod,
    poly_root_mod_p,
    poly_sub,
)
from support import (
    berlekamp_by_degree,
    ref_distinct_degree_factors,
    ref_poly_divmod,
    ref_poly_gcd,
    ref_poly_mul,
    ref_poly_powmod,
    ref_poly_root_mod_p,
    ref_poly_sub,
    ref_squarefree,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
          53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

COEFFS = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(-3, 3),  # small ones make repeated factors mod p likely
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(2, 30)),
).map(QQ.of)


@st.composite
def monic_q(draw, max_deg=8):
    """A monic polynomial over Q, ascending coefficients in canonical form."""
    deg = draw(st.integers(1, max_deg))
    return tuple(draw(st.lists(COEFFS, min_size=deg, max_size=deg))) + (1,)


def _check_division(ring, f):
    """The division of 1 + t + ... + t^(2 deg f + 1) by f agrees with the reference."""
    ones = (1,) * (2 * len(f))
    assert poly_divmod(ring, ones, f) == ref_poly_divmod(ring, ones, f)


def _reduced(Fp, chi):
    """chi mod p, through ZMod.of."""
    return tuple(Fp.of(c) for c in chi)


@settings(max_examples=150, deadline=None)
@given(monic_q())
def test_division_and_squarefree_match_the_reference(chi):
    _check_division(QQ, chi)
    for p in PRIMES:
        if all(Fraction(c).denominator % p for c in chi):
            _check_division(ZMod(p), _reduced(ZMod(p), chi))
    assert _squarefree(QQ, chi) == ref_squarefree(QQ, chi)


@settings(max_examples=100, deadline=None)
@given(monic_q())
def test_factor_degrees_and_roots_match_the_reference_at_every_sieve_prime(chi):
    for p in PRIMES:
        if any(Fraction(c).denominator % p == 0 for c in chi):
            continue
        Fp = ZMod(p)
        f = _reduced(Fp, chi)
        _check_division(Fp, f)
        squarefree = _squarefree(Fp, f)
        assert squarefree == ref_squarefree(Fp, f)
        if squarefree:
            assert berlekamp_by_degree(Fp, f) == ref_distinct_degree_factors(Fp, f)
        assert poly_root_mod_p(Fp, f) == ref_poly_root_mod_p(Fp, f)


@st.composite
def ring_and_pair(draw):
    """The field of a prime below 100 or Q, and two polynomials over it whose leading
    coefficients need not be 1."""
    ring = draw(st.sampled_from([QQ] + [ZMod(p) for p in PRIMES]))
    polys = []
    for _ in range(2):
        deg = draw(st.integers(0, 8))
        coeffs = draw(st.lists(COEFFS, min_size=deg + 1, max_size=deg + 1))
        if ring != QQ:
            coeffs = [ring.of(Fraction(c).numerator) for c in coeffs]
        polys.append(tuple(coeffs))
    return ring, polys[0], polys[1]


@settings(max_examples=300, deadline=None)
@given(ring_and_pair(), st.integers(0, 40))
def test_arithmetic_matches_the_reference(rfg, e):
    ring, f, g = rfg
    if any(g):
        assert poly_divmod(ring, f, g) == ref_poly_divmod(ring, f, g)
        assert poly_powmod(ring, f, e, g) == ref_poly_powmod(ring, f, e, g)
    assert poly_sub(ring, f, g) == ref_poly_sub(ring, f, g)
    assert poly_mul(ring, f, g) == ref_poly_mul(ring, f, g)
    assert poly_gcd(ring, f, g) == ref_poly_gcd(ring, f, g)
