"""Exact references for the benchmark, written without avgalg.

Every answer the benchmark checks is derived here from a closed form or
recomputed from plain structure constants.  Nothing in this module imports
the package under test, so a mismatch is charged to the program.

Scalars are ``Fraction`` for Q and ints in [0, n) for Z/n; ``mod`` is None
for Q.  An algebra is its table ``mul[i][j] = coordinates of e_i * e_j``
with e_0 the unit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def norm(x, mod):
    return Fraction(x) if mod is None else int(x) % mod


def is_unit(x, mod) -> bool:
    if mod is None:
        return x != 0
    return gcd(int(x), mod) == 1


# ---------------------------------------------------------------------------
# algebras by structure constants

def quotient_table(coeffs):
    """Q[y]/(p) for monic p with ascending ``coeffs``, basis 1, y, ..., y^(d-1).

    Returns (mul, powers) where powers[k] are the coordinates of y^k for
    k <= 2d - 1."""
    c = [Fraction(x) for x in coeffs]
    d = len(c) - 1
    powers = []
    cur = [Fraction(0)] * d
    cur[0] = Fraction(1)
    for _ in range(2 * d):
        powers.append(tuple(cur))
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        cur = [x - top * ci for x, ci in zip(cur, c[:-1])]
    mul = [[powers[i + j] for j in range(d)] for i in range(d)]
    return mul, powers


def cyclic_table(d: int):
    """Z/n[y]/(y^d - 1): e_i * e_j = e_(i+j mod d)."""
    return [[tuple(1 if k == (i + j) % d else 0 for k in range(d))
             for j in range(d)] for i in range(d)]


def mul_vec(mul, a, b, mod):
    d = len(a)
    out = [norm(0, mod)] * d
    for i in range(d):
        if a[i] == 0:
            continue
        for j in range(d):
            if b[j] == 0:
                continue
            c = a[i] * b[j]
            for k, m in enumerate(mul[i][j]):
                if m:
                    out[k] += c * m
    return tuple(norm(x, mod) for x in out)


def apply(mat, v, mod):
    """mat given by rows."""
    return tuple(norm(sum(r * x for r, x in zip(row, v)), mod) for row in mat)


def columns(mat):
    return [tuple(row[j] for row in mat) for j in range(len(mat))]


def basis(d, i, mod):
    return tuple(norm(1 if k == i else 0, mod) for k in range(d))


def bracket_of(mul, mat, mod):
    """Structure constants of [x, y] = x*F(y) - y*F(x) on basis pairs."""
    d = len(mat)
    cols = columns(mat)
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            u = mul_vec(mul, basis(d, i, mod), cols[j], mod)
            v = mul_vec(mul, basis(d, j, mod), cols[i], mod)
            row.append(tuple(norm(x - y, mod) for x, y in zip(u, v)))
        table.append(tuple(row))
    return tuple(table)


def is_averaging(mul, mat, mod) -> bool:
    """F(e_i * F(e_j)) = F(e_i) * F(e_j) on all basis pairs."""
    d = len(mat)
    cols = columns(mat)
    return all(apply(mat, mul_vec(mul, basis(d, i, mod), cols[j], mod), mod)
               == mul_vec(mul, cols[i], cols[j], mod)
               for i in range(d) for j in range(d))


# ---------------------------------------------------------------------------
# the two operator families and their closed forms

def mult_by_power(mul, k, mod):
    """Rows of x -> y^k * x, with y = e_1."""
    d = len(mul)
    gen = basis(d, 1, mod)
    elt = basis(d, 0, mod)
    for _ in range(k):
        elt = mul_vec(mul, elt, gen, mod)
    cols = [mul_vec(mul, elt, basis(d, j, mod), mod) for j in range(d)]
    return tuple(tuple(c[i] for c in cols) for i in range(d))


def functional(lam, mod):
    """Rows of x -> lam(x) * 1."""
    d = len(lam)
    zero = norm(0, mod)
    return (tuple(norm(x, mod) for x in lam),) + tuple((zero,) * d for _ in range(d - 1))


def functional_bracket(lam, mod):
    """[e_i, e_j] = lam_j e_i - lam_i e_j."""
    d = len(lam)
    return tuple(tuple(
        tuple(norm((lam[j] if k == i else 0) - (lam[i] if k == j else 0), mod)
              for k in range(d))
        for j in range(d)) for i in range(d))


def zero_bracket(d, mod):
    zero = norm(0, mod)
    return tuple(tuple((zero,) * d for _ in range(d)) for _ in range(d))


def expected_analysis(family: str, d: int, field: bool) -> dict:
    """What lie-analyze must report for an invertible multiplication
    operator ("mult") or a functional with lam(1) a unit ("functional").

    Multiplication has the zero bracket: series [d, 0], nilpotent at power 1,
    kernel 0 = bracket span.  The functional's bracket spans ker lam, which
    is abelian, so the derived series is [d, d-1, 0] and the lower central
    series stops at [d, d-1]; the image is span(1), never inside the bracket
    annihilator; and lam(1) a unit makes every x in ker lam equal to
    lam(1)^-1 times a sum of brackets, so ker F = bracket span.
    """
    out = {"averaging": True, "kernel_equals_brackets": True}
    if family == "mult":
        out.update(derived=([d, 0], True), lower_central=([d, 0], True),
                   nilpotency=("Nilpotent", 1))
    else:
        out.update(derived=([d, d - 1, 0], True), lower_central=([d, d - 1], False),
                   nilpotency=("NotNilpotent", None))
    if not field:
        out["derived"] = out["lower_central"] = None
    return out


def expected_eigen(family: str, lam, a):
    """ad_a(x) = a*F(x) - x*F(a).  For F = mult by y it is 0, so the only
    eigenvalue is 0 on everything.  For F = lam(.)*1 it is
    x -> lam(x) a - lam(a) x: eigenvalue 0 on span(a) and -lam(a) on ker lam,
    provided lam(a) != 0.  Returns {eigenvalue: (dim, membership test)}."""
    d = len(a)
    if family == "mult":
        return {Fraction(0): (d, lambda v: True)}
    la = sum(Fraction(x) * y for x, y in zip(lam, a))
    if la == 0:
        raise ValueError("the eigen point must have lam(a) != 0")
    return {Fraction(0): (1, lambda v: rank([v, a], None) == 1),
            -la: (d - 1, lambda v: sum(Fraction(x) * y for x, y in zip(lam, v)) == 0)}


# ---------------------------------------------------------------------------
# linear algebra over Q and Z/p, for ranks only

def rank(vectors, mod) -> int:
    rows = [[norm(x, mod) for x in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c] if mod is None else pow(rows[r][c], -1, mod)
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [norm(x - f * y, mod) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# brute force over tiny Z/n modules, for the benchmark's own tests

def all_vectors(d, mod):
    out = [()]
    for _ in range(d):
        out = [v + (x,) for v in out for x in range(mod)]
    return out


def generated(gens, d, mod) -> frozenset:
    """The Z/n-submodule generated by gens, by closure under addition."""
    zero = (0,) * d
    seen = {zero}
    frontier = [zero]
    gens = [tuple(int(x) % mod for x in g) for g in gens]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((x + y) % mod for x, y in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def kernel(mat, mod) -> frozenset:
    d = len(mat[0])
    return frozenset(v for v in all_vectors(d, mod)
                     if all(x == 0 for x in apply(mat, v, mod)))
