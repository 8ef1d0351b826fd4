"""Free averaging algebras and their unitary and Reynolds quotients.

The free averaging algebra on variables x1, x2, ... is the polynomial ring
on those variables together with one auxiliary generator y[u] for every monic
x-monomial u (y[1] for the empty monomial), equipped with the operator that
sends a monomial with x-part u and y-part v to y[u]*v.  The auxiliary
generators are created lazily, keyed by their x-monomial, so the infinite
generator family is never materialized.

Each Mode has one map from a monomial m to the normal form of F(m): y[u]*v,
with y[1] dropped (unitary) or Reynolds-reduced; ``f_mode`` applies it in one
pass, and a Reynolds product reduces each monomial as it is formed.  The maps
read the sorted layout of m: x-generators sort first, so u is a prefix, read
once to build y[u]; y[u] enters the sorted y-part by one ordered insert; and
y[1], the least y-generator, can only sit right after the x-part.  A product
of monomials is one merge, and the dict arithmetic feeds ``_combine`` through
C-level iterators, with no Python generator frame per monomial.

Also here: the free averaging algebra on a finite-dimensional commutative
algebra A, carried by pairs (basis index, symmetric monomial over basis
indices), with its operator, induced homomorphisms, and the universal lift
into a concrete averaging algebra.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from enum import Enum
from operator import mul, neg

from . import terms as T
from ._record import Record, set_field
from .exactlin import Matrix, QQ, Ring, ShapeError, _decimal_str, _modulus, vec_add, vec_scale
from .findim import Check, _kernel, averaging_operator

# ---------------------------------------------------------------------------
# x-monomials: ((var_index, exponent), ...) sorted by index, no zero exponents

X_ONE = ()


def xmono_render(m) -> str:
    if not m:
        return "1"
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{_decimal_str(e)}" for i, e in m)


# ---------------------------------------------------------------------------
# generators and monomials of the free algebra
#
# every generator is its own sort key: ("x", index) or ("y", key, u) for y[u],
# key the degree of u and then (index, -exponent) per variable, so plain tuple
# comparison puts all x-generators before all y-generators, x by index and y
# by ascending degree of u, x1-heavy first within a degree

def x_gen(i: int):
    return ("x", i)


def y_gen(m=X_ONE):
    pairs = [(x_gen(i), e) for i, e in m]
    return _y_of_prefix(pairs, len(pairs))


def _y_of_prefix(m, k):
    """y[u] for the x-part u = m[:k] of a monomial m, built with its sort key
    in one pass."""
    u, key, deg = [], [], 0
    for (_, i), e in m[:k]:
        u.append((i, e))
        key.append((i, -e))
        deg += e
    return ("y", (deg, tuple(key)), tuple(u))


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
    """The product of two monomials: one merge of their sorted pairs."""
    out = []
    i, j, la, lb = 0, 0, len(a), len(b)
    while i < la and j < lb:
        (g, e), (h, f) = a[i], b[j]
        if g == h:
            out.append((g, e + f))
            i, j = i + 1, j + 1
        elif g < h:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def mono_divides(a, b) -> bool:
    db = dict(b)
    return all(db.get(g, 0) >= e for g, e in a)


def mono_render(m) -> str:
    if not m:
        return "1"
    return "*".join(gen_render(g) + ("" if e == 1 else "^" + _decimal_str(e)) for g, e in m)


def _glex_key(term):
    # graded-lex descending: higher degree first, then the larger exponent on
    # the earliest generator where two monomials differ
    m = term[0]
    return (-sum(e for _, e in m), tuple((g, -e) for g, e in m))


def _combine(m, pairs, d=None) -> dict:
    """Sum the canonical coefficients of equal keys into d (a new dict by
    default), each sum reduced with one ``% m`` (``m = _modulus(ring)``, not
    the ring), and drop the keys that sum to zero.

    The one accumulation loop behind FreePoly and FAElement arithmetic.
    """
    if d is None:
        d = {}
    for k, c in pairs:
        if k in d:
            c = (d.pop(k) + c) % m
        if c:
            d[k] = c
    return d


# arithmetic on coefficient dicts, reduced by m: each returns a new dict and
# leaves its arguments unchanged, so one dict can feed any number of later
# operations; they map m.__rmod__, the function x -> x % m, over the products

def _add(m, a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    return _combine(m, b.items(), a.copy())


def _sub(m, a: dict, b: dict) -> dict:
    return _combine(m, zip(b, map(m.__rmod__, map(neg, b.values()))), a.copy())


def _scale(m, c, a: dict) -> dict:
    return _combine(m, zip(a, map(m.__rmod__, map(mul, itertools.repeat(c), a.values()))))


# ---------------------------------------------------------------------------
# sparse sums and polynomials

class _Sparse(Record):
    """A sparse sum over ``ring``, the one design of FreePoly and FAElement.

    ``coeffs``, the last field, maps each key to its nonzero coefficient.
    Equality and hash are over the fields and ignore the order of that dict.
    ``terms`` is the canonical form, the (key, coefficient) pairs sorted by
    ``_order``, computed on first read and kept in the private slot
    ``_terms``.
    """

    __slots__ = ("_terms",)
    _order = None  # the sort key of terms; None sorts by the keys

    def __hash__(self):
        return hash(tuple(frozenset(x.items()) if type(x) is dict else x
                          for x in self._astuple(self)))

    @property
    def terms(self) -> tuple:
        try:
            return self._terms
        except AttributeError:
            pass
        terms = tuple(sorted(self.coeffs.items(), key=self._order))
        set_field(self, "_terms", terms)
        return terms

    def _new(self, coeffs: dict):
        # the value with every other field of self and these coefficients
        return type(self)(*self._astuple(self)[:-1], coeffs)

    def _sum(self, pairs):
        return self._new(_combine(_modulus(self.ring), pairs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other):
        return self._new(_add(_modulus(self._same_ring(other)), self.coeffs, other.coeffs))

    def neg(self):
        return self._new(_sub(_modulus(self.ring), {}, self.coeffs))

    def sub(self, other):
        return self._new(_sub(_modulus(self._same_ring(other)), self.coeffs, other.coeffs))

    def scale(self, c):
        return self._new(_scale(_modulus(self.ring), self.ring.of(c), self.coeffs))

    def _same_ring(self, other) -> Ring:
        if self.ring != other.ring:
            raise ShapeError("mixed coefficient rings")
        return self.ring


class FreePoly(_Sparse):
    """Sparse polynomial over the x/y generators; immutable.

    ``coeffs`` maps each monomial to its coefficient; ``terms`` sorts them
    graded-lex descending.
    """

    __slots__ = ("ring", "coeffs")
    _order = staticmethod(_glex_key)
    add = _Sparse.add  # bound on the class itself, where a profiler wraps it

    def __init__(self, ring: Ring, coeffs: dict):
        set_field(self, "ring", ring)
        set_field(self, "coeffs", coeffs)

    @staticmethod
    def zero(ring: Ring = QQ) -> "FreePoly":
        return FreePoly(ring, {})

    @staticmethod
    def one(ring: Ring = QQ) -> "FreePoly":
        return FreePoly(ring, {M_ONE: ring.one})

    @staticmethod
    def constant(c, ring: Ring = QQ) -> "FreePoly":
        return FreePoly.monomial(M_ONE, c, ring)

    @staticmethod
    def monomial(m, c, ring: Ring = QQ) -> "FreePoly":
        c = ring.of(c)
        return FreePoly(ring, {m: c} if c else {})

    def mul(self, other: "FreePoly") -> "FreePoly":
        return mul_mode(Mode.PLAIN, self, other)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        R = self.ring
        signed = isinstance(R, type(QQ))
        parts = []
        for m, c in self.terms:
            neg = signed and c < 0
            mag = -c if neg else c  # over Q, -c of a canonical c is canonical
            if m == M_ONE:
                piece = R.render(mag)
            elif mag == R.one:
                piece = mono_render(m)
            else:
                piece = f"{R.render(mag)}*{mono_render(m)}"
            parts.append(f"- {piece}" if neg else f"+ {piece}")
        # the first term's sign is glued to it, and a "+" there is dropped
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# the averaging operator and the two quotient normal forms, as one map per
# mode on monomials (see the module docstring)

_Y_FIRST = (("y",),)  # a bisect probe: after every x entry, before every y entry


def _f_plain(m):
    """y[u]*v for the monomial m with x-part u and y-part v: one ordered
    insert of y[u] into the sorted v."""
    k = bisect_left(m, _Y_FIRST)
    g = _y_of_prefix(m, k) if k else Y_ONE_GEN
    j = bisect_left(m, (g,), k)
    if j < len(m) and m[j][0] == g:
        return m[k:j] + ((g, m[j][1] + 1),) + m[j + 1:]
    return m[k:j] + ((g, 1),) + m[j:]


def _f_unitary(m):
    # the plain image is a y-monomial, so a y[1] in it leads it
    r = _f_plain(m)
    return r[1:] if r[0][0] == Y_ONE_GEN else r


def _reynolds_mono(m):
    # with a the exponent of y[1] and b the total degree of the other
    # y-generators, a drops to min(a, max(0, 2 - b))
    k = bisect_left(m, _Y_FIRST)
    if k == len(m) or m[k][0] != Y_ONE_GEN:
        return m
    keep = 2 - sum(e for _, e in m[k + 1:])
    if m[k][1] <= keep:
        return m
    return m[:k] + (((Y_ONE_GEN, keep),) if keep > 0 else ()) + m[k + 1:]


def f_free(p: FreePoly) -> FreePoly:
    """Split each monomial into x-part u and y-part v; map it to y[u]*v."""
    return p._sum((_f_plain(m), c) for m, c in p.coeffs.items())


def reduce_unitary(p: FreePoly) -> FreePoly:
    """Substitute y[1] by 1 in every monomial."""
    return p._sum((tuple((g, e) for g, e in m if g != Y_ONE_GEN), c)
                  for m, c in p.coeffs.items())


def reduce_reynolds(p: FreePoly) -> FreePoly:
    """Canonical form mod the relation y*y'*y[1] = y*y'.

    Per monomial, with a the exponent of y[1] and b the total degree of the
    other y-generators, decrement a while a >= 1 and a + b >= 3.
    """
    return p._sum((_reynolds_mono(m), c) for m, c in p.coeffs.items())


class Mode(Enum):
    PLAIN = "plain"
    UNITARY = "unitary"
    REYNOLDS = "reynolds"


_F_MONO = {Mode.PLAIN: _f_plain, Mode.UNITARY: _f_unitary,
           Mode.REYNOLDS: lambda m: _reynolds_mono(_f_plain(m))}


def _image(mode: Mode, m, a: dict) -> dict:
    # the operator of the mode's free object on a coefficient dict
    return _combine(m, zip(map(_F_MONO[mode], a), a.values()))


def _product(mode: Mode, m, a: dict, b: dict) -> dict:
    # unitary normal forms are y[1]-free, so their product needs no
    # reduction; a Reynolds product reduces each monomial as it is formed
    monos = itertools.starmap(mono_mul, itertools.product(a, b))
    if mode is Mode.REYNOLDS:
        monos = map(_reynolds_mono, monos)
    coeffs = itertools.starmap(mul, itertools.product(a.values(), b.values()))
    return _combine(m, zip(monos, map(m.__rmod__, coeffs)))


def f_mode(mode: Mode, p: FreePoly) -> FreePoly:
    """The operator of the mode's free object, one pass over the monomials."""
    return FreePoly(p.ring, _image(mode, _modulus(p.ring), p.coeffs))


def mul_mode(mode: Mode, p: FreePoly, q: FreePoly) -> FreePoly:
    """The product in the mode's free object of two normal forms."""
    return FreePoly(p.ring, _product(mode, _modulus(p._same_ring(q)), p.coeffs, q.coeffs))


# ---------------------------------------------------------------------------
# evaluation of terms

class EvalError(ValueError):
    pass


def eval_term(t: T.Term, mode: Mode, ring: Ring = QQ) -> FreePoly:
    """Evaluate t at the generic point, v_i sent to x_i, in the free object
    of the mode; the result is in normal form.

    A node object that occurs more than once in t (a parse shares equal
    subterms) is evaluated once.
    """
    # post-order over an explicit stack: a node is pushed again as (node,)
    # beneath its children, and popping that computes it from their values;
    # values are coefficient dicts keyed by node id, and t keeps every node
    # alive, so no id is reused during the call
    R, m = ring, _modulus(ring)
    values = {}
    todo = [t]
    while todo:
        node = todo.pop()
        tp = type(node)
        if tp is tuple:
            node, = node
            tp = type(node)
            if tp is T.F:
                value = _image(mode, m, values[id(node.arg)])
            elif tp is T.Mul:
                value = _product(mode, m, values[id(node.left)], values[id(node.right)])
            elif tp is T.Add:
                value = _add(m, values[id(node.left)], values[id(node.right)])
            elif tp is T.Sub:
                value = _sub(m, values[id(node.left)], values[id(node.right)])
            elif tp is T.ScalarMul:
                value = _scale(m, R.of(node.coeff), values[id(node.arg)])
            else:
                # left-to-right binary powering; each normal form is a ring
                # quotient, so reducing every partial product gives the
                # normal form
                p = value = values[id(node.base)]
                for bit in bin(node.n)[3:]:
                    value = _product(mode, m, value, value)
                    if bit == "1":
                        value = _product(mode, m, value, p)
            values[id(node)] = value
        elif id(node) in values:
            pass
        elif tp is T.Mul or tp is T.Add or tp is T.Sub:
            todo += ((node,), node.right, node.left)
        elif tp is T.F or tp is T.ScalarMul:
            todo += ((node,), node.arg)
        elif tp is T.Pow:
            todo += ((node,), node.base)
        elif tp is T.Var:
            values[id(node)] = {((x_gen(node.index), 1),): R.one}
        elif tp is T.One:
            values[id(node)] = {M_ONE: R.one}
        elif tp is T.Zero:
            values[id(node)] = {}
        else:
            raise EvalError(f"not a term node: {node!r}")
    return FreePoly(R, values[id(t)])


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
        groups.setdefault(_f_plain(m), []).append((m, c))
    pairs = []
    for members in groups.values():
        last_m, _ = members[-1]
        for m, c in members[:-1]:
            pairs.append(_difference_bracket(R, c, m, last_m))
    return pairs


def _difference_bracket(R: Ring, r, wa, wb):
    # r*(wa - wb) as one bracket, where f(wa) = f(wb) and wa != wb: with
    # wa = ua*va and wb = ub*vb split into x-part and y-part, it is
    # [ua, ub*(va / y[ub])]
    # wa is never a pure x-monomial u: f(u'*v') = y[u']*v' is f(u) = y[u] only
    # for u' = u and v' = 1, so u is alone in its group of bracket_decompose
    ka = bisect_left(wa, _Y_FIRST)
    kb = bisect_left(wb, _Y_FIRST)
    shared = _y_of_prefix(wb, kb)
    j = bisect_left(wa, (shared,), ka)
    if j == len(wa) or wa[j][0] != shared:
        raise NotInKernelError("monomials do not share an operator image")
    e = wa[j][1] - 1
    q_mono = wb[:kb] + wa[ka:j] + (((shared, e),) if e else ()) + wa[j + 1:]
    return (FreePoly.monomial(wa[:ka], r, R), FreePoly.monomial(q_mono, R.one, R))


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


MAX_CHAIN = 1000  # n stages hold n (n + 1) / 2 generators, and the CLI prints them all


def chain_witness(x_count: int, n: int, ring: Ring = QQ) -> list:
    """n strictly increasing monomial averaging ideals, as generator lists.

    Stage i is generated by y[x1], y[x1^2], ..., y[x1^i], and every stage
    shares the generator objects of the one before, so each inclusion holds
    by construction.  Strictness is verified once per stage by the
    divisibility test: the new generator y[x1^(i+1)] is not in stage i.
    Needs at least one variable: on no variables every ascending chain
    stabilizes.  n is at most ``MAX_CHAIN``.
    """
    if x_count < 1:
        raise ChainError("no strictly ascending chain exists without variables")
    if not 1 <= n <= MAX_CHAIN:
        raise ChainError(f"chain length must be between 1 and {MAX_CHAIN}")
    gens = [mono((y_gen(((1, j),)), 1)) for j in range(1, n + 1)]
    for i in range(1, n):
        if monomial_ideal_contains(gens[:i], gens[i]):
            raise ChainError("chain inclusion is not strict")
    polys = [FreePoly.monomial(m, ring.one, ring) for m in gens]
    return [tuple(polys[:i]) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# the free averaging algebra on a finite-dimensional algebra
#
# elements: sums of coefficient * (basis index i, symmetric monomial s),
# standing for e_i tensor (e_{s1} . e_{s2} ... ), s a sorted index multiset

class FAElement(_Sparse):
    """``coeffs`` maps each key (i, sym) to its coefficient; ``terms`` sorts
    them by key."""

    __slots__ = ("ring", "dim", "coeffs")

    def __init__(self, ring: Ring, dim: int, coeffs: dict):
        set_field(self, "ring", ring)
        set_field(self, "dim", dim)
        set_field(self, "coeffs", coeffs)

    @staticmethod
    def basis(ring: Ring, dim: int, i: int, sym=()) -> "FAElement":
        if not (0 <= i < dim) or any(not 0 <= j < dim for j in sym):
            raise ShapeError("basis index out of range")
        return FAElement(ring, dim, {(i, tuple(sorted(sym))): ring.one})


def _alg_check(a: FAElement, A):
    if a.dim != A.dim or a.ring != A.ring:
        raise ShapeError("element does not live over this algebra")


def fa_mul(a: FAElement, b: FAElement, A) -> FAElement:
    """Structure constants act on the left factors; symmetric parts merge."""
    _alg_check(a, A)
    _alg_check(b, A)
    m = _modulus(A.ring)
    pairs = []
    for (i, s), c1 in a.coeffs.items():
        for (j, t), c2 in b.coeffs.items():
            sym, c = tuple(sorted(s + t)), c1 * c2 % m
            pairs += (((k, sym), c * x % m) for k, x in enumerate(A.mul[i][j]) if x)
    return a._sum(pairs)


def fa_f(a: FAElement, A) -> FAElement:
    """Move each left factor into the symmetric monomial; left slot becomes 1."""
    _alg_check(a, A)
    m = _modulus(A.ring)
    return a._sum(((k, tuple(sorted(s + (i,)))), u * c % m)
                  for (i, s), c in a.coeffs.items() for k, u in enumerate(A.unit) if u)


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
    # the one products pass of column j forms theta(e_i)*theta(e_j) for
    # every i; the pairs are scanned in order over them, so the error names
    # the first failing pair
    cols = [theta.col(j) for j in range(A.dim)]
    terms = [[(k, x) for k, x in enumerate(c) if x] for c in cols]
    prods = [B.products(terms, c) for c in cols]
    for i, j in itertools.product(range(A.dim), repeat=2):
        if theta.apply(A.mul[i][j]) != prods[j][i]:
            raise NotAHomomorphismError(f"product not preserved at ({i}, {j})")


def fa_induced_hom(theta: Matrix, a: FAElement, A, B) -> FAElement:
    """Apply theta to the left factor and to every symmetric slot."""
    check_algebra_hom(theta, A, B)
    _alg_check(a, A)
    m = _modulus(A.ring)
    cols = [theta.col(j) for j in range(A.dim)]
    pairs = []
    for (i, s), c in a.coeffs.items():
        # expand theta(e_i) (x) theta(e_{s1}) . theta(e_{s2}) ... multilinearly
        partial = _combine(m, (((k, ()), c * x % m) for k, x in enumerate(cols[i])))
        for slot in s:
            partial = _combine(m, (((k, tuple(sorted(sym + (b,)))), coeff * w % m)
                                   for (k, sym), coeff in partial.items()
                                   for b, w in enumerate(cols[slot]) if w))
        pairs += partial.items()
    return FAElement(A.ring, B.dim, _combine(m, pairs))


def fa_universal_lift(phi: Matrix, g: Matrix, a: FAElement, A, B) -> tuple:
    """Evaluate the unique averaging-homomorphism extension of phi.

    phi is an algebra homomorphism A to B and g an averaging operator on B,
    both checked (``findim.averaging_operator`` for g); a left factor maps
    through phi and every symmetric slot through g(phi(.)), all multiplied
    out in B.  Returns a coordinate vector in B.
    """
    check_algebra_hom(phi, A, B)
    g = averaging_operator(B, g).matrix
    _alg_check(a, A)
    R = A.ring
    out = (R.zero,) * B.dim
    for (i, s), c in a.coeffs.items():
        acc = phi.col(i)
        for slot in s:
            acc = B.mul_vec(acc, g.apply(phi.col(slot)))
        out = vec_add(R, out, vec_scale(R, c, acc))
    return out


def fa_injective(theta: Matrix, A, B) -> Check:
    """Whether the homomorphism F_A -> F_B induced by theta is injective.

    The induced map is theta (x) S(theta).  It is injective exactly when
    theta is: over a field directly, and over Z/n because a monomorphism of
    free Z/n-modules splits (Z/n is self-injective), so theta (x) S(theta)
    has a left inverse.  So one kernel of theta decides, and a failing
    Check's witness is a nonzero v in ker theta: v (x) 1 is in the kernel of
    the induced map.
    """
    check_algebra_hom(theta, A, B)
    ker = _kernel(theta)
    return Check(True) if ker.is_zero() else Check(False, ker.basis[0])
