"""The free averaging algebra on A over Z/n agrees with dense references.

``fa_mul``, ``fa_f``, ``fa_induced_hom`` and ``fa_universal_lift`` multiply
coefficients and reduce each product with one ``% n``; ``tests/support.py``
keeps them as dense loops over every structure constant and matrix entry
with its own arithmetic.  Over Q a missing reduction leaves the coefficients
equal, so these run over Z/5 and Z/6, where it leaves them outside [0, n).
A is a random primary algebra or a product of two with integer structure
constants; B is A on a random basis P, so that theta = P^-1 is a dense
isomorphism A -> B, and B's table and unit are dense where A's unit is a
0/1 vector.  ``fa_mul`` and ``fa_f`` run on both; the averaging operator on
B is a multiplication.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import ZMod
from avgalg.freeavg import fa_f, fa_induced_hom, fa_mul, fa_universal_lift
from support import (
    change_algebra,
    fa_from_dict,
    mult_operator,
    rand_gl,
    rand_int_algebra,
    ref_fa_f,
    ref_fa_induced_hom,
    ref_fa_mul,
    ref_fa_universal_lift,
    scalars_of,
)

RINGS = [ZMod(5), ZMod(6)]


def rand_element(rng, ring, dim, max_terms=3, max_deg=2):
    """A sum of up to max_terms basis elements (i, sym), coefficients in
    [1, n)."""
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        sym = tuple(sorted(rng.randrange(dim) for _ in range(rng.randint(0, max_deg))))
        coeffs[rng.randrange(dim), sym] = rng.randrange(1, ring.n)
    return fa_from_dict(ring, dim, coeffs)


def assert_residues(ring, x):
    assert all(0 <= v < ring.n for v in scalars_of(x)), x


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_free_algebra_on_a_matches_the_dense_reference(ring, rng):
    A = rand_int_algebra(rng, ring, max_dim=3)
    P, Pinv = rand_gl(rng, ring, A.dim)
    B = change_algebra(A, P, Pinv)
    for C in (A, B):
        a, b = rand_element(rng, ring, C.dim), rand_element(rng, ring, C.dim)
        prod, image = fa_mul(a, b, C), fa_f(a, C)
        assert prod == ref_fa_mul(a, b, C)
        assert image == ref_fa_f(a, C)
        assert_residues(ring, (tuple(prod.coeffs.values()), tuple(image.coeffs.values())))
    a = rand_element(rng, ring, A.dim)
    moved = fa_induced_hom(Pinv, a, A, B)
    assert moved == ref_fa_induced_hom(Pinv, a, A, B)
    g = mult_operator(B, [rng.randrange(ring.n) for _ in range(B.dim)])
    lift = fa_universal_lift(Pinv, g, a, A, B)
    assert lift == ref_fa_universal_lift(Pinv, g, a, A, B)
    assert_residues(ring, (tuple(moved.coeffs.values()), lift))
