"""The paper's starting theorem: the bracket [x, y] = x*F(y) - y*F(x) of an
averaging operator F on a commutative associative unital algebra is a Lie
bracket.

``AveragingOperator.bracket`` relies on the theorem instead of checking each
bracket it builds, so these tests run ``check_lie`` on the brackets it
builds: for random operators over Q, Z/p and composite Z/n, and for every
averaging operator on every Z/n[y]/(f) of a small slice.

``lie_analysis`` reads both series off two corollaries of the theorem:
every bracket lies in ker F, and [u, y] = u*F(y) for u in ker F.  The last
test checks the first corollary and compares the series with the
reference that forms every bracket of every stage.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import QQ, Matrix, ZMod
from avgalg.findim import (
    NotAveragingError,
    StructureAlgebra,
    averaging_operator,
    check_lie,
    lie_analysis,
)
from support import (
    change_algebra,
    change_operator,
    dense_apply,
    functional_operator,
    mult_operator,
    rand_algebra,
    rand_averaging,
    rand_gl,
    rand_int_algebra,
    rand_sum_operator,
    ref_mul,
    ref_series,
    ref_sub,
)

RINGS = [QQ, ZMod(2), ZMod(3), ZMod(5), ZMod(4), ZMod(6), ZMod(9), ZMod(12)]


def _kron(R, u, v):
    return tuple(ref_mul(R, a, b) for a in u for b in v)


def _tensor(A, B):
    """A (x) B on the basis e_i (x) e_k, numbered i * B.dim + k."""
    R = A.ring
    pairs = list(itertools.product(range(A.dim), range(B.dim)))
    return StructureAlgebra.make(R, _kron(R, A.unit, B.unit), [
        [_kron(R, A.mul[i][j], B.mul[k][m]) for j, m in pairs] for i, k in pairs])


def _rand_operator(rng, A):
    """A multiplication or a functional operator, so averaging."""
    if A.ring == QQ:
        return rand_averaging(rng, A)
    family = rng.choice([mult_operator, functional_operator])
    return family(A, [rng.randrange(A.ring.n) for _ in range(A.dim)])


def _rand_tensor_operator(rng, ring):
    """G (x) H on A (x) B for averaging G and H, which is averaging: on pure
    tensors both sides of the identity factor.  Unlike the bracket of G or
    H alone, which is zero or [x, y] = lam(y) x - lam(x) y, this bracket
    mixes the products of both factors."""
    A, B = rand_int_algebra(rng, ring, max_dim=3), rand_int_algebra(rng, ring, max_dim=2)
    G, H = _rand_operator(rng, A), _rand_operator(rng, B)
    return _tensor(A, B), Matrix.from_cols(ring, [_kron(ring, G.col(i), H.col(k))
                                                  for i in range(A.dim) for k in range(B.dim)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_the_bracket_of_a_random_averaging_operator_is_lie(ring, rng):
    roll = rng.randint(0, 2)
    if roll == 0:
        A = rand_int_algebra(rng, ring, max_dim=6)
        F = _rand_operator(rng, A)
    elif roll == 1:
        A, F = rand_sum_operator(rng, ring)
    else:
        A, F = _rand_tensor_operator(rng, ring)
    assert A.dim <= 6
    assert check_lie(A, averaging_operator(A, F).bracket).ok


def _monogenic(ring, f):
    """ring[y]/(f) on the basis 1, y, ..., y^(d-1), for f monic of degree d,
    coefficients ascending."""
    d = len(f) - 1
    powers = [tuple(ring.one if k == i else ring.zero for k in range(d)) for i in range(d)]
    while len(powers) < 2 * d - 1:
        # y * y^m, with y^d = -(f_0 + f_1 y + ... + f_(d-1) y^(d-1))
        prev = powers[-1]
        powers.append(tuple(ref_sub(ring, prev[k - 1] if k else ring.zero,
                                    ref_mul(ring, prev[-1], f[k]))
                            for k in range(d)))
    return StructureAlgebra.make(ring, powers[0],
                                 [[powers[i + j] for j in range(d)] for i in range(d)])


# (n, d): every monic f of degree d over Z/n, and every d x d matrix over Z/n
SLICE = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2), (4, 2), (6, 2)]


@pytest.mark.parametrize("n, d", SLICE)
def test_every_averaging_bracket_on_small_monogenic_algebras_is_lie(n, d):
    R = ZMod(n)
    nonzero = 0
    for f in itertools.product(range(n), repeat=d):
        A = _monogenic(R, f + (1,))
        for entries in itertools.product(range(n), repeat=d * d):
            F = Matrix.from_rows(R, [entries[r * d:(r + 1) * d] for r in range(d)])
            try:
                L = averaging_operator(A, F).bracket
            except NotAveragingError:
                continue
            assert check_lie(A, L).ok, (f, entries)
            nonzero += any(any(cell) for row in L.table for cell in row)
    # the slice reaches brackets that are not zero from d = 2 on
    assert nonzero or d == 1


def _rand_nilpotent_tensor_operator(rng, ring):
    """G (x) H for G the multiplication by a nilpotent a on R[t]/(t^k) and H
    the functional operator of lam on B.  Its image is aA (x) 1, and its
    brackets span aA (x) ker lam, so each lower central stage is a times the
    one before, down to a^k = 0: series of up to four stages, which the
    other operators here rarely reach."""
    k = rng.randint(2, 3)
    A = _monogenic(ring, (ring.zero,) * k + (ring.one,))
    G = mult_operator(A, [0] + [rng.randint(-2, 2) for _ in range(k - 1)])
    B = rand_int_algebra(rng, ring, max_dim=2)
    H = functional_operator(B, [rng.randint(-2, 2) for _ in range(B.dim)])
    return _tensor(A, B), Matrix.from_cols(ring, [_kron(ring, G.col(i), H.col(m))
                                                  for i in range(A.dim) for m in range(B.dim)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_the_series_of_lie_analysis_are_the_brackets_series(ring, rng):
    roll = rng.randint(0, 4)
    if roll == 0 and ring == QQ:
        A = rand_algebra(rng)
        F = rand_averaging(rng, A)
    elif roll == 1:
        A, F = rand_sum_operator(rng, ring)
    elif roll == 2:
        A, F = _rand_tensor_operator(rng, ring)
    elif roll == 3:
        A, F = _rand_nilpotent_tensor_operator(rng, ring)
    else:
        A = rand_int_algebra(rng, ring, max_dim=5)
        F = _rand_operator(rng, A)
    if rng.randint(0, 1):
        # a dense copy on a random basis, where no cell is a basis vector
        P, Pinv = rand_gl(rng, ring, A.dim)
        A, F = change_algebra(A, P, Pinv), change_operator(F, P, Pinv)
    L = averaging_operator(A, F).bracket
    # every bracket lies in ker F, over composite Z/n too
    assert not any(any(dense_apply(F, cell)) for row in L.table for cell in row)
    an = lie_analysis(A, F)
    if ring.is_field:
        assert an.derived == ref_series(A, L, lower=False)
        assert an.lower_central == ref_series(A, L, lower=True)
    else:
        assert an.derived is None and an.lower_central is None
