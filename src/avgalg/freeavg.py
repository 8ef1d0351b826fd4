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
from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key

from .exactlin import Matrix, QQ, Ring, ShapeError, Subspace, vec_add, vec_scale

from . import terms as T

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
# generator encoding: ("x", index) or ("y", XMono); all x-generators sort
# before all y-generators, x by index, y by their index monomials

def x_gen(i: int):
    return ("x", i)


def y_gen(m=X_ONE):
    return ("y", tuple(m))


Y_ONE_GEN = y_gen()  # the distinguished generator y[1]


def _gen_key(g):
    if g[0] == "x":
        return (0, (g[1],))
    return (1, _xmono_key(g[1]))


def gen_render(g) -> str:
    if g[0] == "x":
        return f"x{g[1]}"
    return f"y[{xmono_render(g[1])}]"


# monomial: ((gen, exponent), ...) sorted by _gen_key, no zero exponents

M_ONE = ()


def mono(*pairs):
    d = {}
    for g, e in pairs:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(((g, e) for g, e in d.items() if e), key=lambda p: _gen_key(p[0])))


def mono_mul(a, b):
    d = dict(a)
    for g, e in b:
        d[g] = d.get(g, 0) + e
    return mono(*d.items())


def mono_deg(m) -> int:
    return sum(e for _, e in m)


def mono_divides(a, b) -> bool:
    db = dict(b)
    return all(db.get(g, 0) >= e for g, e in a)


def mono_x_part(m):
    """The x-part as an x-monomial (an element of the monic x-monomials)."""
    return tuple(sorted((g[1], e) for g, e in m if g[0] == "x"))


def mono_y_part(m):
    return tuple((g, e) for g, e in m if g[0] == "y")


def mono_render(m) -> str:
    if not m:
        return "1"
    return "*".join(gen_render(g) if e == 1 else f"{gen_render(g)}^{e}" for g, e in m)


def _mono_cmp(a, b) -> int:
    # graded-lex: higher degree first, then the monomial with the larger
    # exponent on the earliest generator where they differ
    da, db = mono_deg(a), mono_deg(b)
    if da != db:
        return -1 if da > db else 1
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        ga = a[ia][0] if ia < len(a) else None
        gb = b[ib][0] if ib < len(b) else None
        if ga == gb:
            ea, eb = a[ia][1], b[ib][1]
            if ea != eb:
                return -1 if ea > eb else 1
            ia += 1
            ib += 1
        elif gb is None or (ga is not None and _gen_key(ga) < _gen_key(gb)):
            return -1  # a has the earlier generator: a is lex-greater
        else:
            return 1
    return 0


_MONO_SORT_KEY = cmp_to_key(_mono_cmp)


# ---------------------------------------------------------------------------
# polynomials

@dataclass(frozen=True)
class FreePoly:
    """Sparse polynomial over the x/y generators; immutable and canonical.

    ``terms`` holds (monomial, coefficient) pairs sorted graded-lex
    descending with no zero coefficients, so equality is structural.
    """

    ring: Ring
    terms: tuple

    @staticmethod
    def from_dict(ring: Ring, d) -> "FreePoly":
        items = [(m, c) for m, c in d.items() if c != ring.zero]
        items.sort(key=lambda t: _MONO_SORT_KEY(t[0]))
        return FreePoly(ring, tuple(items))

    @staticmethod
    def zero(ring: Ring = QQ) -> "FreePoly":
        return FreePoly(ring, ())

    @staticmethod
    def one(ring: Ring = QQ) -> "FreePoly":
        return FreePoly(ring, ((M_ONE, ring.one),))

    @staticmethod
    def constant(c, ring: Ring = QQ) -> "FreePoly":
        c = ring.of(c)
        if c == ring.zero:
            return FreePoly.zero(ring)
        return FreePoly(ring, ((M_ONE, c),))

    @staticmethod
    def gen(g, ring: Ring = QQ) -> "FreePoly":
        return FreePoly(ring, ((mono((g, 1)), ring.one),))

    @staticmethod
    def x_var(i: int, ring: Ring = QQ) -> "FreePoly":
        return FreePoly.gen(x_gen(i), ring)

    @staticmethod
    def y_of(m=X_ONE, ring: Ring = QQ) -> "FreePoly":
        return FreePoly.gen(y_gen(m), ring)

    @staticmethod
    def monomial(m, c, ring: Ring = QQ) -> "FreePoly":
        c = ring.of(c)
        if c == ring.zero:
            return FreePoly.zero(ring)
        return FreePoly(ring, ((m, c),))

    def is_zero(self) -> bool:
        return not self.terms

    def _dict(self):
        return dict(self.terms)

    def add(self, other: "FreePoly") -> "FreePoly":
        R = self._same_ring(other)
        d = self._dict()
        for m, c in other.terms:
            s = R.add(d.get(m, R.zero), c)
            if s == R.zero:
                d.pop(m, None)
            else:
                d[m] = s
        return FreePoly.from_dict(R, d)

    def neg(self) -> "FreePoly":
        R = self.ring
        return FreePoly(R, tuple((m, R.neg(c)) for m, c in self.terms))

    def sub(self, other: "FreePoly") -> "FreePoly":
        return self.add(other.neg())

    def scale(self, c) -> "FreePoly":
        R = self.ring
        c = R.of(c)
        return FreePoly.from_dict(R, {m: R.mul(c, k) for m, k in self.terms})

    def mul(self, other: "FreePoly") -> "FreePoly":
        R = self._same_ring(other)
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                s = R.add(d.get(m, R.zero), R.mul(c1, c2))
                if s == R.zero:
                    d.pop(m, None)
                else:
                    d[m] = s
        return FreePoly.from_dict(R, d)

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

def f_free(p: FreePoly) -> FreePoly:
    """Split each monomial into x-part u and y-part v; map it to y[u]*v."""
    R = p.ring
    d = {}
    for m, c in p.terms:
        image = mono_mul(mono((y_gen(mono_x_part(m)), 1)), mono_y_part(m))
        s = R.add(d.get(image, R.zero), c)
        if s == R.zero:
            d.pop(image, None)
        else:
            d[image] = s
    return FreePoly.from_dict(R, d)


def reduce_unitary(p: FreePoly) -> FreePoly:
    """Substitute y[1] by 1 in every monomial."""
    R = p.ring
    d = {}
    for m, c in p.terms:
        stripped = tuple((g, e) for g, e in m if g != Y_ONE_GEN)
        s = R.add(d.get(stripped, R.zero), c)
        if s == R.zero:
            d.pop(stripped, None)
        else:
            d[stripped] = s
    return FreePoly.from_dict(R, d)


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
    R = p.ring
    d = {}
    for m, c in p.terms:
        nm = _reynolds_reduce_mono(m)
        s = R.add(d.get(nm, R.zero), c)
        if s == R.zero:
            d.pop(nm, None)
        else:
            d[nm] = s
    return FreePoly.from_dict(R, d)


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
        image = mono_mul(mono((y_gen(mono_x_part(m)), 1)), mono_y_part(m))
        groups.setdefault(image, []).append((m, c))
    pairs = []
    for members in groups.values():
        # canonical order inside the group keeps witnesses reproducible
        members = sorted(members, key=lambda t: _MONO_SORT_KEY(t[0]))
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
    q_mono = mono_mul(mono(*((x_gen(i), e) for i, e in ub)), mono(*da.items()))
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

@dataclass(frozen=True)
class FAElement:
    ring: Ring
    dim: int
    terms: tuple  # (((i, sym), coeff), ...) sorted, no zero coefficients

    @staticmethod
    def from_dict(ring: Ring, dim: int, d) -> "FAElement":
        items = [(k, c) for k, c in sorted(d.items()) if c != ring.zero]
        return FAElement(ring, dim, tuple(items))

    @staticmethod
    def basis(ring: Ring, dim: int, i: int, sym=()) -> "FAElement":
        if not (0 <= i < dim) or any(not 0 <= j < dim for j in sym):
            raise ShapeError("basis index out of range")
        return FAElement(ring, dim, (((i, tuple(sorted(sym))), ring.one),))

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "FAElement") -> "FAElement":
        R = self.ring
        d = dict(self.terms)
        for k, c in other.terms:
            s = R.add(d.get(k, R.zero), c)
            if s == R.zero:
                d.pop(k, None)
            else:
                d[k] = s
        return FAElement.from_dict(R, self.dim, d)

    def neg(self) -> "FAElement":
        R = self.ring
        return FAElement(R, self.dim, tuple((k, R.neg(c)) for k, c in self.terms))

    def sub(self, other: "FAElement") -> "FAElement":
        return self.add(other.neg())

    def scale(self, c) -> "FAElement":
        R = self.ring
        c = R.of(c)
        return FAElement.from_dict(R, self.dim, {k: R.mul(c, v) for k, v in self.terms})


def _alg_check(a: FAElement, A):
    if a.dim != A.dim or a.ring != A.ring:
        raise ShapeError("element does not live over this algebra")


def fa_one(A) -> "FAElement":
    d = {(k, ()): c for k, c in enumerate(A.unit) if c != A.ring.zero}
    return FAElement.from_dict(A.ring, A.dim, d)


def fa_mul(a: FAElement, b: FAElement, A) -> FAElement:
    """Structure constants act on the left factors; symmetric parts merge."""
    _alg_check(a, A)
    _alg_check(b, A)
    R = A.ring
    d = {}
    for (i, s), c1 in a.terms:
        for (j, t), c2 in b.terms:
            sym = tuple(sorted(s + t))
            c = R.mul(c1, c2)
            for k in range(A.dim):
                coeff = R.mul(c, A.mul[i][j][k])
                if coeff == R.zero:
                    continue
                key = (k, sym)
                v = R.add(d.get(key, R.zero), coeff)
                if v == R.zero:
                    d.pop(key, None)
                else:
                    d[key] = v
    return FAElement.from_dict(R, A.dim, d)


def fa_f(a: FAElement, A) -> FAElement:
    """Move each left factor into the symmetric monomial; left slot becomes 1."""
    _alg_check(a, A)
    R = A.ring
    d = {}
    for (i, s), c in a.terms:
        sym = tuple(sorted(s + (i,)))
        for k, u in enumerate(A.unit):
            if u == R.zero:
                continue
            key = (k, sym)
            v = R.add(d.get(key, R.zero), R.mul(u, c))
            if v == R.zero:
                d.pop(key, None)
            else:
                d[key] = v
    return FAElement.from_dict(R, A.dim, d)


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
    d = {}
    for (i, s), c in a.terms:
        # expand theta(e_i) (x) theta(e_{s1}) . theta(e_{s2}) ... multilinearly
        partial = {(k, ()): R.mul(c, cols[i][k])
                   for k in range(B.dim) if cols[i][k] != R.zero}
        for slot in s:
            nxt = {}
            for (k, sym), coeff in partial.items():
                for b_idx in range(B.dim):
                    w = cols[slot][b_idx]
                    if w == R.zero:
                        continue
                    key = (k, tuple(sorted(sym + (b_idx,))))
                    v = R.add(nxt.get(key, R.zero), R.mul(coeff, w))
                    if v == R.zero:
                        nxt.pop(key, None)
                    else:
                        nxt[key] = v
            partial = nxt
        for key, v in partial.items():
            s2 = R.add(d.get(key, R.zero), v)
            if s2 == R.zero:
                d.pop(key, None)
            else:
                d[key] = s2
    return FAElement.from_dict(R, B.dim, d)


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
