"""The kernel comparison read off two sizes agrees with solving for ker F.

Every bracket of an averaging operator F lies in ker F, and
|ker F|*|im F| = |A|, so the bracket span B equals ker F exactly when
dim B + dim im F = d over a field, or |B|*|im F| = n^d over Z/n, where a
Howell form's order is the product of n/g over its pivots g.
``kernel_equals_brackets`` and ``lie_analysis`` read the comparison off
those sizes and solve for ker F only when they differ.  The reference here
solves for ker F on every input and compares canonical forms.  Results must
be equal, repr included, over Q, Z/p and composite Z/n, for multiplication,
functional and sum operators, on a random basis now and then, and the
draws must meet both outcomes on every kind of ring.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from avgalg.exactlin import QQ, Matrix, Submodule, Subspace, ZMod, nullspace, submodule_kernel
from avgalg.findim import (
    KernelBracketResult,
    StructureAlgebra,
    induced_bracket,
    kernel_equals_brackets,
    lie_analysis,
)
from support import (
    change_algebra,
    change_operator,
    cyclic_algebra,
    functional_operator,
    mult_operator,
    rand_algebra,
    rand_averaging,
    rand_gl,
    rand_int_algebra,
    rand_sum_operator,
)

RINGS = [QQ, ZMod(2), ZMod(3), ZMod(5), ZMod(4), ZMod(6), ZMod(8), ZMod(9), ZMod(12)]


def ref_kernel_comparison(A, F) -> KernelBracketResult:
    """ker F solved for, against the span of every bracket cell."""
    R, d = A.ring, A.dim
    L = induced_bracket(A, F)
    cells = [L.table[i][j] for i in range(d) for j in range(d)]
    if R.is_field:
        ker, spn = nullspace(F), Subspace.span(R, d, cells)
    else:
        ker, spn = submodule_kernel(R, F), Submodule.span(R, d, cells)
    return KernelBracketResult(ker == spn, ker, spn)


def _input(rng, ring):
    """(A, F): a multiplication or a functional operator with small integer
    entries, a sum operator on a product, or over Q a random averaging
    operator with fractional entries; a third on a random basis."""
    roll = rng.randint(0, 3)
    if roll == 0:
        A, F = rand_sum_operator(rng, ring)
    elif roll == 1 and ring == QQ:
        A = rand_algebra(rng)
        F = rand_averaging(rng, A)
    else:
        A = rand_int_algebra(rng, ring)
        F = rng.choice([mult_operator, functional_operator])(
            A, [rng.randint(-3, 3) for _ in range(A.dim)])
    if rng.randint(0, 2) == 0:
        P, Pinv = rand_gl(rng, ring, A.dim)
        A, F = change_algebra(A, P, Pinv), change_operator(F, P, Pinv)
    return A, F


def _check(A, F) -> KernelBracketResult:
    want = ref_kernel_comparison(A, F)
    for got in (kernel_equals_brackets(A, F), lie_analysis(A, F).kernel_comparison):
        assert got == want and repr(got) == repr(want)
    return want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_kernel_comparison_matches_the_solved_kernel(ring, rng):
    _check(*_input(rng, ring))


def test_draws_meet_both_outcomes_on_every_kind_of_ring():
    rng = random.Random(32)
    seen = set()
    for k in range(400):
        ring = RINGS[k % len(RINGS)]
        kind = "Q" if ring == QQ else "Z/p" if ring.is_field else "Z/n"
        seen.add((kind, _check(*_input(rng, ring)).equal))
    assert seen == {(kind, equal) for kind in ("Q", "Z/p", "Z/n") for equal in (True, False)}


def test_orders_are_not_basis_lengths_over_composite_moduli():
    # F(x) = 2x on Z/4[y]/(y^2 - 1) has the zero bracket and im F = 2A, whose
    # Howell form has two rows, as many as A's: only the orders, 1*2*2 against
    # 4^2, tell that ker F = 2A is not 0
    A = cyclic_algebra(ZMod(4), 2)
    res = _check(A, mult_operator(A, (2, 0)))
    assert not res.equal and res.kernel == Submodule.span(ZMod(4), 2, [(2, 0), (0, 2)])
    # F(x) = 2x on Z/6: im F = 2A of order 3^2 and ker F = 3A of order 2^2
    A = cyclic_algebra(ZMod(6), 2)
    assert not _check(A, mult_operator(A, (2, 0))).equal
    # F(x) = x_0*1 on Z/4[y]/(y^2 - 1): im F = Z/4*1 and B = ker F = Z/4*y,
    # 4*4 = 4^2
    A = cyclic_algebra(ZMod(4), 2)
    assert _check(A, functional_operator(A, (1, 0))).equal


def test_sizes_over_a_field_are_dimensions():
    # over Q, F = 0 on Q^1: B = 0 and im F = 0, 0 + 0 != 1, so ker F = Q;
    # F = 1: 0 + 1 = 1, equal; the zero algebra compares equal
    A = cyclic_algebra(QQ, 1)
    assert _check(A, Matrix.from_rows(QQ, [[0]])).kernel.dim == 1
    assert _check(A, Matrix.from_rows(QQ, [[1]])).equal
    assert _check(StructureAlgebra.make(QQ, (), []), Matrix(QQ, 0, 0, ())).equal
