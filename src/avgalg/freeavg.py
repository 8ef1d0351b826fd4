"""Free averaging algebras and their unitary and Reynolds quotients.

The free averaging algebra on variables x1, x2, ... is the polynomial ring
on those variables together with one auxiliary generator y[u] for every monic
x-monomial u (y[1] for the empty monomial), equipped with the operator that
sends a monomial with x-part u and y-part v to y[u]*v.  The auxiliary
generators are created lazily, keyed by their x-monomial, so the infinite
generator family is never materialized.

Also here: the free averaging algebra on a finite-dimensional commutative
algebra A, carried by pairs (basis index, symmetric monomial over basis
indices), with its operator, induced homomorphisms, and the universal lift
into a concrete averaging algebra.
"""

from __future__ import annotations

import itertools
from enum import Enum

from . import terms as T
from ._record import Record, set_field
from .exactlin import Matrix, QQ, Ring, ShapeError, Subspace, vec_add, vec_scale

# ---------------------------------------------------------------------------
# x-monomials: ((var_index, exponent), ...) sorted by index, no zero exponents

X_ONE = ()


def xmono_deg(m) -> int:
    return sum(e for _, e in m)


def xmono_render(m) -> str:
    if not m:
        return "1"
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in m)


def _xmono_key(m):
    # ascending degree, then x1-heavy monomials first within a degree
    return (xmono_deg(m), tuple((i, -e) for i, e in m))


# ---------------------------------------------------------------------------
# generators and monomials of the free algebra
#
# every generator is its own sort key: ("x", index) or ("y", _xmono_key(u), u)
# for y[u], so plain tuple comparison puts all x-generators before all
# y-generators, x by index and y by their index monomials

def x_gen(i: int):
    return ("x", i)


def y_gen(m=X_ONE):
    m = tuple(m)
    return ("y", _xmono_key(m), m)


Y_ONE_GEN = y_gen()  # the distinguished generator y[1]


def gen_render(g) -> str:
    if g[0] == "x":
        return f"x{g[1]}"
    return f"y[{xmono_render(g[2])}]"


# monomial: ((gen, exponent), ...) sorted by generator, no zero exponents

M_ONE = ()


def mono(*pairs):
    d = {}
    for g, e in pairs:
        d[g] = d.get(g, 0) + e
    return tuple(sorted((g, e) for g, e in d.items() if e))


def mono_mul(a, b):
    d = dict(a)
    for g, e in b:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(d.items()))


def mono_deg(m) -> int:
    return sum(e for _, e in m)


def mono_divides(a, b) -> bool:
    db = dict(b)
    return all(db.get(g, 0) >= e for g, e in a)


def mono_x_part(m):
    """The x-part as an x-monomial (an element of the monic x-monomials)."""
    return tuple((g[1], e) for g, e in m if g[0] == "x")


def mono_y_part(m):
    return tuple((g, e) for g, e in m if g[0] == "y")


def mono_render(m) -> str:
    if not m:
        return "1"
    return "*".join(gen_render(g) if e == 1 else f"{gen_render(g)}^{e}" for g, e in m)


def _glex_key(term):
    # graded-lex descending: higher degree first, then the larger exponent on
    # the earliest generator where two monomials differ
    m = term[0]
    return (-mono_deg(m), tuple((g, -e) for g, e in m))


def _combine(R: Ring, pairs) -> dict:
    """Sum the coefficients of equal keys, dropping the keys that sum to zero.

    The one accumulation loop behind FreePoly and FAElement arithmetic.
    """
    d = {}
    for k, c in pairs:
        if k in d:
            c = R.add(d.pop(k), c)
        if c:
            d[k] = c
    return d


# ---------------------------------------------------------------------------
# polynomials

class FreePoly(Record):
    """Sparse polynomial over the x/y generators; immutable and canonical.

    ``terms`` holds (monomial, coefficient) pairs sorted graded-lex
    descending with no zero coefficients, so equality is structural.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: tuple):
        set_field(self, "ring", ring)
        set_field(self, "terms", terms)

    @staticmethod
    def from_dict(ring: Ring, d) -> "FreePoly":
        """The polynomial of a {monomial: coefficient} dict with no zeros."""
        return FreePoly(ring, tuple(sorted(d.items(), key=_glex_key)))

    @staticmethod
    def _sum(ring: Ring, pairs) -> "FreePoly":
        return FreePoly.from_dict(ring, _combine(ring, pairs))

    @staticmethod
    def zero(ring: Ring = QQ) -> "FreePoly":
        return FreePoly(ring, ())

    @staticmethod
    def one(ring: Ring = QQ) -> "FreePoly":
        return FreePoly(ring, ((M_ONE, ring.one),))

    @staticmethod
    def constant(c, ring: Ring = QQ) -> "FreePoly":
        return FreePoly.monomial(M_ONE, c, ring)

    @staticmethod
    def gen(g, ring: Ring = QQ) -> "FreePoly":
        return FreePoly.monomial(((g, 1),), ring.one, ring)

    @staticmethod
    def x_var(i: int, ring: Ring = QQ) -> "FreePoly":
        return FreePoly.gen(x_gen(i), ring)

    @staticmethod
    def y_of(m=X_ONE, ring: Ring = QQ) -> "FreePoly":
        return FreePoly.gen(y_gen(m), ring)

    @staticmethod
    def monomial(m, c, ring: Ring = QQ) -> "FreePoly":
        c = ring.of(c)
        return FreePoly(ring, ((m, c),) if c else ())

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "FreePoly") -> "FreePoly":
        return FreePoly._sum(self._same_ring(other), self.terms + other.terms)

    def neg(self) -> "FreePoly":
        R = self.ring
        return FreePoly(R, tuple((m, R.neg(c)) for m, c in self.terms))

    def sub(self, other: "FreePoly") -> "FreePoly":
        return self.add(other.neg())

    def scale(self, c) -> "FreePoly":
        R = self.ring
        c = R.of(c)
        return FreePoly._sum(R, ((m, R.mul(c, k)) for m, k in self.terms))

    def mul(self, other: "FreePoly") -> "FreePoly":
        R = self._same_ring(other)
        return FreePoly._sum(R, ((mono_mul(m1, m2), R.mul(c1, c2))
                                 for m1, c1 in self.terms for m2, c2 in other.terms))

    def _same_ring(self, other: "FreePoly") -> Ring:
        if self.ring != other.ring:
            raise ShapeError("mixed coefficient rings")
        return self.ring

    def render(self) -> str:
        if not self.terms:
            return "0"
        R = self.ring
        parts = []
        for i, (m, c) in enumerate(self.terms):
            neg = isinstance(self.ring, type(QQ)) and c < 0
            mag = R.neg(c) if neg else c
            body = mono_render(m)
            if m == M_ONE:
                piece = R.render(mag)
            elif mag == R.one:
                piece = body
            else:
                piece = f"{R.render(mag)}*{body}"
            if i == 0:
                parts.append(f"-{piece}" if neg else piece)
            else:
                parts.append(f"- {piece}" if neg else f"+ {piece}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# the averaging operator and the two quotient normal forms

def _f_image(m):
    """y[u]*v for the monomial m with x-part u and y-part v."""
    return mono((y_gen(mono_x_part(m)), 1), *mono_y_part(m))


def f_free(p: FreePoly) -> FreePoly:
    """Split each monomial into x-part u and y-part v; map it to y[u]*v."""
    return FreePoly._sum(p.ring, ((_f_image(m), c) for m, c in p.terms))


def reduce_unitary(p: FreePoly) -> FreePoly:
    """Substitute y[1] by 1 in every monomial."""
    return FreePoly._sum(p.ring, ((tuple((g, e) for g, e in m if g != Y_ONE_GEN), c)
                                  for m, c in p.terms))


def _reynolds_reduce_mono(m):
    a = dict(m).get(Y_ONE_GEN, 0)
    b = sum(e for g, e in m if g[0] == "y" and g != Y_ONE_GEN)
    while a >= 1 and a + b >= 3:
        a -= 1
    rest = tuple((g, e) for g, e in m if g != Y_ONE_GEN)
    return mono(*rest, (Y_ONE_GEN, a))


def reduce_reynolds(p: FreePoly) -> FreePoly:
    """Canonical form mod the relation y*y'*y[1] = y*y'.

    Per monomial, with a the exponent of y[1] and b the total degree of the
    other y-generators, decrement a while a >= 1 and a + b >= 3.
    """
    return FreePoly._sum(p.ring, ((_reynolds_reduce_mono(m), c) for m, c in p.terms))


class Mode(Enum):
    PLAIN = "plain"
    UNITARY = "unitary"
    REYNOLDS = "reynolds"


def f_mode(mode: Mode, p: FreePoly) -> FreePoly:
    if mode is Mode.PLAIN:
        return f_free(p)
    if mode is Mode.UNITARY:
        return reduce_unitary(f_free(p))
    return reduce_reynolds(f_free(p))


def mul_mode(mode: Mode, p: FreePoly, q: FreePoly) -> FreePoly:
    # unitary normal forms are y[1]-free, so their product needs no reduction
    if mode is Mode.REYNOLDS:
        return reduce_reynolds(p.mul(q))
    return p.mul(q)


# ---------------------------------------------------------------------------
# evaluation of terms

class EvalError(ValueError):
    pass


def generic_assignment(t: T.Term, ring: Ring = QQ):
    """v_i maps to x_i for every variable of t, in index order."""
    return {name: FreePoly.x_var(int(name[1:]), ring) for name in T.variables_of(t)}


def eval_term(t: T.Term, mode: Mode, assignment, ring: Ring = QQ) -> FreePoly:
    """Evaluate t in the free object of the mode; result is in normal form."""
    if isinstance(t, T.Var):
        key = f"v{t.index}"
        if key not in assignment:
            raise EvalError(f"unassigned variable {key}")
        return assignment[key]
    if isinstance(t, T.One):
        return FreePoly.one(ring)
    if isinstance(t, T.Zero):
        return FreePoly.zero(ring)
    if isinstance(t, T.Add):
        return eval_term(t.left, mode, assignment, ring).add(
            eval_term(t.right, mode, assignment, ring))
    if isinstance(t, T.Sub):
        return eval_term(t.left, mode, assignment, ring).sub(
            eval_term(t.right, mode, assignment, ring))
    if isinstance(t, T.Mul):
        return mul_mode(mode,
                        eval_term(t.left, mode, assignment, ring),
                        eval_term(t.right, mode, assignment, ring))
    if isinstance(t, T.ScalarMul):
        return eval_term(t.arg, mode, assignment, ring).scale(ring.of(t.coeff))
    if isinstance(t, T.F):
        return f_mode(mode, eval_term(t.arg, mode, assignment, ring))
    raise EvalError(f"not a term node: {t!r}")


# ---------------------------------------------------------------------------
# brackets and the constructive kernel decomposition

def bracket_free(p: FreePoly, q: FreePoly) -> FreePoly:
    """p*f(q) - q*f(p) in the free algebra."""
    return p.mul(f_free(q)).sub(q.mul(f_free(p)))


class NotInKernelError(ValueError):
    pass


def bracket_decompose(w: FreePoly) -> list:
    """Write a kernel element as a sum of brackets.

    Returns pairs (p_i, q_i) with w equal to the sum of bracket_free(p_i,
    q_i).  Monomials are grouped by their operator image; inside a group the
    coefficients sum to zero, and each difference against the group's last
    monomial is a single bracket.
    """
    if not f_free(w).is_zero():
        raise NotInKernelError("element is not in the kernel of the operator")
    R = w.ring
    groups = {}
    for m, c in w.terms:
        # w.terms is canonical, so every group is in canonical order too
        groups.setdefault(_f_image(m), []).append((m, c))
    pairs = []
    for members in groups.values():
        last_m, _ = members[-1]
        for m, c in members[:-1]:
            pairs.append(_difference_bracket(R, c, m, last_m))
    return pairs


def _difference_bracket(R: Ring, r, wa, wb):
    # r*(wa - wb) as one bracket, where f(wa) = f(wb) and wa != wb
    va = mono_y_part(wa)
    if not va:
        # wa is a pure x-monomial; swap roles and flip the coefficient
        r, wa, wb, va = R.neg(r), wb, wa, mono_y_part(wb)
    ua = mono_x_part(wa)
    ub = mono_x_part(wb)
    da = dict(va)
    shared = y_gen(ub)
    if da.get(shared, 0) < 1:
        raise NotInKernelError("monomials do not share an operator image")
    da[shared] -= 1
    q_mono = mono(*((x_gen(i), e) for i, e in ub), *da.items())
    p_mono = mono(*((x_gen(i), e) for i, e in ua))
    return (FreePoly.monomial(p_mono, r, R), FreePoly.monomial(q_mono, R.one, R))


# ---------------------------------------------------------------------------
# ascending chain of monomial averaging ideals

class ChainError(ValueError):
    pass


def monomial_ideal_contains(gens, m) -> bool:
    """Membership of a monomial in the monomial ideal spanned by gens.

    The generators used here are pure y-monomials, and the operator maps any
    multiple of such a generator to another multiple, so the plain monomial
    ideal is already closed under the operator.
    """
    return any(mono_divides(g, m) for g in gens)


def chain_witness(x_count: int, n: int, ring: Ring = QQ) -> list:
    """n strictly increasing monomial averaging ideals, as generator lists.

    Stage i is generated by y[x1], y[x1^2], ..., y[x1^i].  Strictness of
    every inclusion is verified by the divisibility test.  Needs at least one
    variable: on no variables every ascending chain stabilizes.
    """
    if x_count < 1:
        raise ChainError("no strictly ascending chain exists without variables")
    if n < 1:
        raise ChainError("chain length must be at least 1")
    stages = []
    for i in range(1, n + 1):
        stages.append(tuple(mono((y_gen(((1, j),)), 1)) for j in range(1, i + 1)))
    for a, b in zip(stages, stages[1:]):
        if not all(monomial_ideal_contains(b, g) for g in a):
            raise ChainError("chain inclusion failed")
        if all(monomial_ideal_contains(a, g) for g in b):
            raise ChainError("chain inclusion is not strict")
    return [tuple(FreePoly.monomial(m, ring.one, ring) for m in stage)
            for stage in stages]


# ---------------------------------------------------------------------------
# the free averaging algebra on a finite-dimensional algebra
#
# elements: sums of coefficient * (basis index i, symmetric monomial s),
# standing for e_i tensor (e_{s1} . e_{s2} ... ), s a sorted index multiset

class FAElement(Record):
    """``terms`` is (((i, sym), coeff), ...) sorted, no zero coefficients."""

    __slots__ = ("ring", "dim", "terms")

    def __init__(self, ring: Ring, dim: int, terms: tuple):
        set_field(self, "ring", ring)
        set_field(self, "dim", dim)
        set_field(self, "terms", terms)

    @staticmethod
    def from_dict(ring: Ring, dim: int, d) -> "FAElement":
        """The element of a {(i, sym): coefficient} dict with no zeros."""
        return FAElement(ring, dim, tuple(sorted(d.items())))

    @staticmethod
    def _sum(ring: Ring, dim: int, pairs) -> "FAElement":
        return FAElement.from_dict(ring, dim, _combine(ring, pairs))

    @staticmethod
    def basis(ring: Ring, dim: int, i: int, sym=()) -> "FAElement":
        if not (0 <= i < dim) or any(not 0 <= j < dim for j in sym):
            raise ShapeError("basis index out of range")
        return FAElement(ring, dim, (((i, tuple(sorted(sym))), ring.one),))

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "FAElement") -> "FAElement":
        return FAElement._sum(self.ring, self.dim, self.terms + other.terms)

    def neg(self) -> "FAElement":
        R = self.ring
        return FAElement(R, self.dim, tuple((k, R.neg(c)) for k, c in self.terms))

    def sub(self, other: "FAElement") -> "FAElement":
        return self.add(other.neg())

    def scale(self, c) -> "FAElement":
        R = self.ring
        c = R.of(c)
        return FAElement._sum(R, self.dim, ((k, R.mul(c, v)) for k, v in self.terms))


def _alg_check(a: FAElement, A):
    if a.dim != A.dim or a.ring != A.ring:
        raise ShapeError("element does not live over this algebra")


def fa_one(A) -> "FAElement":
    return FAElement._sum(A.ring, A.dim, (((k, ()), c) for k, c in enumerate(A.unit)))


def fa_mul(a: FAElement, b: FAElement, A) -> FAElement:
    """Structure constants act on the left factors; symmetric parts merge."""
    _alg_check(a, A)
    _alg_check(b, A)
    R = A.ring
    pairs = []
    for (i, s), c1 in a.terms:
        for (j, t), c2 in b.terms:
            sym, c = tuple(sorted(s + t)), R.mul(c1, c2)
            pairs += (((k, sym), R.mul(c, x)) for k, x in enumerate(A.mul[i][j]) if x)
    return FAElement._sum(R, A.dim, pairs)


def fa_f(a: FAElement, A) -> FAElement:
    """Move each left factor into the symmetric monomial; left slot becomes 1."""
    _alg_check(a, A)
    R = A.ring
    return FAElement._sum(R, A.dim, (((k, tuple(sorted(s + (i,)))), R.mul(u, c))
                                     for (i, s), c in a.terms
                                     for k, u in enumerate(A.unit) if u))


class NotAHomomorphismError(ValueError):
    pass


def check_algebra_hom(theta: Matrix, A, B):
    """Verify theta maps the unit to the unit and products to products."""
    R = A.ring
    if theta.ring != R or B.ring != R:
        raise ShapeError("mixed coefficient rings")
    if theta.rows != B.dim or theta.cols != A.dim:
        raise ShapeError("homomorphism matrix has the wrong shape")
    if theta.apply(A.unit) != tuple(B.unit):
        raise NotAHomomorphismError("unit is not preserved")
    cols = [theta.col(j) for j in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = theta.apply(A.mul[i][j])
            rhs = B.mul_vec(cols[i], cols[j])
            if lhs != tuple(rhs):
                raise NotAHomomorphismError(f"product not preserved at ({i}, {j})")


def fa_induced_hom(theta: Matrix, a: FAElement, A, B) -> FAElement:
    """Apply theta to the left factor and to every symmetric slot."""
    check_algebra_hom(theta, A, B)
    _alg_check(a, A)
    R = A.ring
    cols = [theta.col(j) for j in range(A.dim)]
    pairs = []
    for (i, s), c in a.terms:
        # expand theta(e_i) (x) theta(e_{s1}) . theta(e_{s2}) ... multilinearly
        partial = _combine(R, (((k, ()), R.mul(c, x)) for k, x in enumerate(cols[i])))
        for slot in s:
            partial = _combine(R, (((k, tuple(sorted(sym + (b,)))), R.mul(coeff, w))
                                   for (k, sym), coeff in partial.items()
                                   for b, w in enumerate(cols[slot]) if w))
        pairs += partial.items()
    return FAElement._sum(R, B.dim, pairs)


def fa_universal_lift(phi: Matrix, g: Matrix, a: FAElement, A, B) -> tuple:
    """Evaluate the unique averaging-homomorphism extension of phi.

    phi is an algebra homomorphism A to B and g an averaging operator on B;
    a left factor maps through phi and every symmetric slot through g(phi(.)),
    all multiplied out in B.  Returns a coordinate vector in B.
    """
    check_algebra_hom(phi, A, B)
    _alg_check(a, A)
    R = A.ring
    out = (R.zero,) * B.dim
    for (i, s), c in a.terms:
        acc = phi.col(i)
        for slot in s:
            acc = B.mul_vec(acc, g.apply(phi.col(slot)))
        out = vec_add(R, out, vec_scale(R, c, acc))
    return out


def fa_component_basis(dim: int, d: int):
    """Basis keys (i, sym) of the degree-at-most-d component."""
    keys = []
    for size in range(d + 1):
        for sym in itertools.combinations_with_replacement(range(dim), size):
            for i in range(dim):
                keys.append((i, sym))
    return keys


def fa_truncated_injectivity(theta: Matrix, A, B, d: int = 2) -> bool:
    """Full rank of the induced map on the degree-at-most-d component.

    A stand-in for injectivity of the induced homomorphism: only the finite
    degree-truncated piece is checked.
    """
    check_algebra_hom(theta, A, B)
    src = fa_component_basis(A.dim, d)
    dst = {k: pos for pos, k in enumerate(fa_component_basis(B.dim, d))}
    R = A.ring
    rows = []
    for key in src:
        img = fa_induced_hom(theta, FAElement.basis(R, A.dim, key[0], key[1]), A, B)
        row = [R.zero] * len(dst)
        for k, c in img.terms:
            row[dst[k]] = c
        rows.append(tuple(row))
    return Subspace.span(R, len(dst), rows).dim == len(src)
