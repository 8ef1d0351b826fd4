"""Identity checks read off the averaging check agree with their full scans.

For an averaging F, F(e_i)F(e_j) = F(p) with p = e_i*F(e_j), so
``is_reynolds_averaging`` reads the Reynolds identity at (i, j) as
F(F(p)) = F(p) on the products the operator's check formed.  At a basis
pair the cross compatibility identity of F and G is the averaging identity
of F + G less those of F and G, so ``op_add`` decides it with
``is_averaging`` of F + G.  ``tests/support.py`` keeps the scans they
replace (``ref_is_reynolds_averaging``, ``ref_op_add``); results,
certificates and witnesses must be equal, over Q, Z/p and composite Z/n,
on algebras and on commutative tables that fail the other laws.  ``primary_from_poly`` is
compared with y^k mod p computed here by long division on Fractions.
"""

import json
import pathlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import QQ, Matrix, ZMod
from avgalg.findim import (
    NotAveragingError,
    StructureAlgebra,
    is_averaging,
    is_reynolds_averaging,
    op_add,
    primary_from_poly,
)
from support import (
    assert_canonical_q,
    functional_operator,
    mult_operator,
    rand_algebra,
    rand_averaging,
    rand_int_algebra,
    rand_monic,
    rand_sum_operator,
    ref_add,
    ref_is_reynolds_averaging,
    ref_op_add,
)

RINGS = [QQ, ZMod(2), ZMod(3), ZMod(5), ZMod(4), ZMod(6), ZMod(9)]
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _scalar(rng, ring):
    """Mostly zero, like the structure constants of the shipped algebras."""
    if rng.randint(0, 2):
        return ring.zero
    if ring == QQ and rng.randint(0, 3) == 0:
        return QQ.of(Fraction(rng.randint(-3, 3), 2))
    return ring.of(rng.randint(-2, 2))


def _rand_table_algebra(rng, ring):
    """A random commutative table with a random unit vector, by the direct
    constructor: the other laws need not hold.  Every algebra is
    commutative, and ``is_averaging`` relies on it."""
    d = rng.randint(1, 4)
    mul = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            mul[i][j] = mul[j][i] if j < i else tuple(_scalar(rng, ring) for _ in range(d))
    return StructureAlgebra(ring, d, tuple(_scalar(rng, ring) for _ in range(d)),
                            tuple(tuple(row) for row in mul))


def _averaging(rng, A):
    """A multiplication or a functional operator with small integer entries."""
    family = rng.choice([mult_operator, functional_operator])
    return family(A, [rng.randint(-2, 2) for _ in range(A.dim)])


def _rand_operator(rng, A):
    """Averaging, averaging with one entry changed, zero, or random."""
    R, d = A.ring, A.dim
    roll = rng.randint(0, 3)
    if roll == 0:
        return _averaging(rng, A)
    if roll == 1:
        rows = [list(row) for row in _averaging(rng, A).entries]
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i][j] = ref_add(R, rows[i][j], R.one)
        return Matrix.from_rows(R, rows)
    if roll == 2:
        return Matrix.zero(R, d, d)
    return Matrix.from_rows(R, [[_scalar(rng, R) for _ in range(d)] for _ in range(d)])


def _operands(rng, ring):
    """(A, F, G): random tables with random operators, averaging pairs on a
    verified algebra (where the cross identity decides), a sum operator,
    and G = F."""
    roll = rng.randint(0, 3)
    if roll == 0:
        A = _rand_table_algebra(rng, ring)
        F = _rand_operator(rng, A)
        return A, F, F if rng.randint(0, 3) == 0 else _rand_operator(rng, A)
    if roll == 1 and ring == QQ:
        A = rand_algebra(rng)
        return A, rand_averaging(rng, A), rand_averaging(rng, A)
    if roll == 1:
        A = rand_int_algebra(rng, ring)
        return A, _averaging(rng, A), _averaging(rng, A)
    if roll == 2:
        A, F = rand_sum_operator(rng, ring)
        return A, F, _rand_operator(rng, A)
    A = rand_int_algebra(rng, ring)
    F = _rand_operator(rng, A)
    return A, F, F


def _outcome(check, *args):
    """The result, or the refusal with its witness."""
    try:
        return check(*args)
    except NotAveragingError as exc:
        return ("not averaging", exc.witness)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_op_add_matches_the_full_scan(ring, rng):
    A, F, G = _operands(rng, ring)
    H, cert = op_add(A, F, G)
    assert (H, cert) == ref_op_add(A, F, G)
    assert cert.holds == bool(is_averaging(A, F) and is_averaging(A, G) and is_averaging(A, H))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_is_reynolds_averaging_matches_the_full_scan(ring, rng):
    roll = rng.randint(0, 2)
    if roll == 0:
        A, F = rand_sum_operator(rng, ring)
    else:
        A = rand_algebra(rng) if ring == QQ and rng.randint(0, 1) else rand_int_algebra(rng, ring)
        F = _rand_operator(rng, A) if roll == 1 else _averaging(rng, A)
    if rng.randint(0, 9) == 0:
        # a commutative table off the other laws: the Reynolds read relies on
        # the averaging identity alone
        A = _rand_table_algebra(rng, ring)
        F = _rand_operator(rng, A)
    assert _outcome(is_reynolds_averaging, A, F) == _outcome(ref_is_reynolds_averaging, A, F)


def test_both_reads_meet_failures_and_passes():
    # the cross witness, a Reynolds failure and a Reynolds pass all occur on
    # the draws above, so the differential tests compare every branch
    rng = random.Random(30)
    cross = reynolds = 0
    for _ in range(200):
        A = rand_algebra(rng)
        F, G = rand_averaging(rng, A), rand_averaging(rng, A)
        cert = op_add(A, F, G)[1]
        cross += not cert.holds
        assert cert == ref_op_add(A, F, G)[1]
        reynolds += is_reynolds_averaging(A, F).ok
        assert is_reynolds_averaging(A, F) == ref_is_reynolds_averaging(A, F)
    assert 0 < cross < 200 and 0 < reynolds < 200


def _power_mod(coeffs, k):
    """y^k modulo the monic p with ascending ``coeffs``, by long division on
    Fractions, as d coordinates in the basis 1, y, ..., y^(d-1)."""
    d = len(coeffs) - 1
    r = [Fraction(0)] * k + [Fraction(1)]
    for top in range(k, d - 1, -1):
        c = r[top]
        for i, a in enumerate(coeffs):
            r[top - d + i] -= c * Fraction(a)
    r = r[:d]
    return tuple(r + [Fraction(0)] * (d - len(r)))


def _check_primary(coeffs):
    A, F = primary_from_poly(coeffs)
    d = len(coeffs) - 1
    assert A.dim == d and A.ring == QQ
    assert A.unit == _power_mod(coeffs, 0)
    for i in range(d):
        for j in range(d):
            assert A.mul[i][j] == _power_mod(coeffs, i + j)
        assert F.col(i) == _power_mod(coeffs, i + 1)
    assert_canonical_q((A.unit, A.mul, F.entries))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_primary_from_poly_matches_long_division(deg, rng):
    _check_primary(rand_monic(rng, deg))


def test_primary_cubic_golden_matches_long_division():
    cases = json.loads((ROOT / "corpus" / "manifest.json").read_text())["cases"]
    argv = next(c["argv"] for c in cases if c["name"] == "primary_cubic")
    _check_primary([Fraction(c) for c in argv[argv.index("--") + 1:]])
