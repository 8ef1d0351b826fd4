"""Exact scalar rings and exact linear algebra.

Two coefficient rings are supported: arbitrary-precision rationals and
integers mod n.  Ring elements are plain Python values (``Fraction`` for the
rationals, canonical ``int`` in ``[0, n)`` for residues); the ring object
carries the operations, so every function here takes or infers a ring.

Canonical ring elements are falsy exactly when they are zero (``bool(x)``
is ``x != 0`` for ``int`` and ``Fraction``).  The kernels here and in
``findim`` rely on this: they test ``if x``/``if not x`` and skip zero terms
instead of multiplying by them.

All matrix/subspace values are immutable after construction and all
operations are pure functions, so everything in this module is safe to share
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from ._record import Record, set_field


class RingError(ValueError):
    """An operation was asked of a ring that cannot support it."""


class NotAFieldError(RingError):
    """A field-only operation was invoked over a non-field ring."""


class ShapeError(ValueError):
    """Incompatible matrix/vector dimensions."""


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# this bound (Sorenson & Webster, Math. Comp. 86, 2017; arXiv 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for n below _MR_LIMIT; larger n raise RingError."""
    if n >= _MR_LIMIT:
        raise RingError(f"modulus {n} is too large: primality is decided "
                        f"exactly only below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals(Record):
    """The field Q; elements are ``fractions.Fraction`` values.

    ``Fraction`` already stores lowest terms with positive denominator, which
    is exactly the canonical form required here.
    """

    __slots__ = ("name", "is_field")
    _defaults = ("Q", True)
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v) -> Fraction:
        return v if type(v) is Fraction else Fraction(v)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def parse(self, text: str) -> Fraction:
        if not isinstance(text, str):
            raise RingError(f"rational literal must be a string, got {text!r}")
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise RingError(f"bad rational literal {text!r}: {exc}") from None

    def render(self, a) -> str:
        return str(a)


class ZMod(Record):
    """The ring Z/nZ; elements are ints in ``[0, n)``.

    A field exactly when n is prime; field-only operations check
    ``is_field`` and raise ``NotAFieldError`` otherwise instead of silently
    producing wrong answers.  ``name`` and ``is_field`` are computed from n.
    """

    __slots__ = ("n", "name", "is_field")

    def __init__(self, n: int):
        if n < 2:
            raise RingError(f"modulus must be >= 2, got {n}")
        set_field(self, "n", n)
        set_field(self, "name", f"Zmod:{n}")
        set_field(self, "is_field", _is_prime(n))

    zero = 0
    one = 1  # n >= 2, so 1 is already reduced

    def of(self, v) -> int:
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return v.numerator % self.n
            # p/q maps to p * q^{-1} when q is a unit mod n
            return self.mul(v.numerator % self.n, self.inv(v.denominator % self.n))
        return int(v) % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def inv(self, a):
        a %= self.n
        g = gcd(a, self.n)
        if g != 1:
            raise RingError(f"{a} is not a unit mod {self.n}")
        return pow(a, -1, self.n)

    def parse(self, text: str) -> int:
        if not isinstance(text, str):
            raise RingError(f"residue literal must be a string, got {text!r}")
        try:
            return int(text.strip(), 10) % self.n
        except ValueError as exc:
            raise RingError(f"bad residue literal {text!r}: {exc}") from None

    def render(self, a) -> str:
        return str(a % self.n)


QQ = Rationals()

Ring = Union[Rationals, ZMod]


def ring_from_name(name: str) -> Ring:
    """Inverse of ``ring.name``: "Q", or "Zmod:<n>" with n in ASCII decimal
    digits; anything else, a non-string included, is a RingError."""
    if name == "Q":
        return QQ
    digits = name[5:] if isinstance(name, str) and name.startswith("Zmod:") else ""
    if digits.isascii() and digits.isdigit():
        return ZMod(int(digits))
    raise RingError(f"unknown scalar ring {name!r}")


# ---------------------------------------------------------------------------
# vectors (plain tuples; ring passed explicitly)

def zero_vec(ring: Ring, n: int) -> tuple:
    return (ring.zero,) * n


def vec_add(ring: Ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    return tuple(ring.add(a, b) for a, b in zip(u, v))


def vec_sub(ring: Ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    return tuple(ring.sub(a, b) for a, b in zip(u, v))


def vec_scale(ring: Ring, c, v):
    return tuple(ring.mul(c, a) for a in v)


def vec_dot(ring: Ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    acc = ring.zero
    for a, b in zip(u, v):
        if a and b:
            acc = ring.add(acc, ring.mul(a, b))
    return acc


def vec_is_zero(ring: Ring, v) -> bool:
    return not any(v)


# ---------------------------------------------------------------------------
# matrices

class Matrix(Record):
    """Immutable row-major matrix over an explicit ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: tuple):
        if len(entries) != rows:
            raise ShapeError("row count mismatch")
        for row in entries:
            if len(row) != cols:
                raise ShapeError("column count mismatch")
        set_field(self, "ring", ring)
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

    @staticmethod
    def from_rows(ring: Ring, rows) -> "Matrix":
        tup = tuple(tuple(ring.of(x) for x in row) for row in rows)
        ncols = len(tup[0]) if tup else 0
        return Matrix(ring, len(tup), ncols, tup)

    @staticmethod
    def from_cols(ring: Ring, cols) -> "Matrix":
        cols = [tuple(ring.of(x) for x in c) for c in cols]
        nrows = len(cols[0]) if cols else 0
        return Matrix(ring, nrows, len(cols),
                      tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        return Matrix(ring, n, n, tuple(
            tuple(ring.one if i == j else ring.zero for j in range(n))
            for i in range(n)))

    @staticmethod
    def zero(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, tuple((ring.zero,) * cols for _ in range(rows)))

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix shape mismatch")
        R = self.ring
        return Matrix(R, self.rows, self.cols, tuple(
            tuple(R.add(a, b) for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix shape mismatch")
        R = self.ring
        return Matrix(R, self.rows, self.cols, tuple(
            tuple(R.sub(a, b) for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c) -> "Matrix":
        R = self.ring
        c = R.of(c)
        return Matrix(R, self.rows, self.cols, tuple(
            tuple(R.mul(c, a) for a in row) for row in self.entries))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError("matrix product shape mismatch")
        R = self.ring
        ocols = [other.col(j) for j in range(other.cols)]
        return Matrix(R, self.rows, other.cols, tuple(
            tuple(vec_dot(R, row, c) for c in ocols) for row in self.entries))

    def apply(self, v) -> tuple:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        return tuple(vec_dot(self.ring, row, v) for row in self.entries)

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ShapeError("column count mismatch")
        return Matrix(self.ring, self.rows + other.rows, self.cols,
                      self.entries + other.entries)


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns ``(reduced, pivots)`` where pivots is the tuple of pivot column
    indices.  Field scalars only: for Zmod n, n must be prime.
    """
    R = m.ring
    if not R.is_field:
        raise NotAFieldError(f"rref needs a field, got {R.name}")
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = R.inv(rows[r][c])
        rows[r] = [R.mul(inv, x) if x else x for x in rows[r]]
        for i in range(m.rows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [R.sub(x, R.mul(f, y)) if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    reduced = Matrix(R, m.rows, m.cols, tuple(tuple(row) for row in rows))
    return reduced, tuple(pivots)


class Subspace(Record):
    """Subspace of ring^n, canonicalized by its reduced echelon basis.

    Canonical form makes equality structural: two Subspace values are equal
    exactly when they describe the same subspace.  ``basis`` is a tuple of
    coordinate tuples, reduced echelon, with no zero rows.
    """

    __slots__ = ("ring", "ambient_dim", "basis")

    def __init__(self, ring: Ring, ambient_dim: int, basis: tuple):
        set_field(self, "ring", ring)
        set_field(self, "ambient_dim", ambient_dim)
        set_field(self, "basis", basis)

    @staticmethod
    def span(ring: Ring, ambient_dim: int, vectors) -> "Subspace":
        vectors = [tuple(ring.of(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ShapeError("vector length mismatch")
        if not vectors:
            return Subspace(ring, ambient_dim, ())
        red, pivots = rref(Matrix(ring, len(vectors), ambient_dim, tuple(vectors)))
        return Subspace(ring, ambient_dim, red.entries[:len(pivots)])

    @staticmethod
    def full(ring: Ring, n: int) -> "Subspace":
        return Subspace(ring, n, Matrix.identity(ring, n).entries)

    @staticmethod
    def zero_space(ring: Ring, n: int) -> "Subspace":
        return Subspace(ring, n, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains_vector(self, v) -> bool:
        R = self.ring
        v = list(R.of(x) for x in v)
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        for b in self.basis:
            lead = next(j for j, x in enumerate(b) if x)
            f = v[lead]
            if f:
                v = [R.sub(x, R.mul(f, y)) if y else x for x, y in zip(v, b)]
        return not any(v)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    return Subspace.span(u.ring, u.ambient_dim, u.basis + v.basis)


def subspace_contains(u: Subspace, v: Subspace) -> bool:
    """Whether v is contained in u."""
    if u.ambient_dim != v.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    return all(u.contains_vector(b) for b in v.basis)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    if u.is_zero() or v.is_zero():
        return Subspace.zero_space(u.ring, u.ambient_dim)
    R = u.ring
    # coefficients (c, d) with c·U = d·V give intersection vectors c·U
    rows = []
    for i in range(u.ambient_dim):
        rows.append(tuple(b[i] for b in u.basis) + tuple(R.neg(b[i]) for b in v.basis))
    ker = nullspace(Matrix(R, u.ambient_dim, u.dim + v.dim, tuple(rows)))
    vectors = []
    for w in ker.basis:
        c = w[:u.dim]
        vec = zero_vec(R, u.ambient_dim)
        for coeff, b in zip(c, u.basis):
            vec = vec_add(R, vec, vec_scale(R, coeff, b))
        vectors.append(vec)
    return Subspace.span(R, u.ambient_dim, vectors)


class NoSolution(Record):
    __slots__ = ()


class Solution(Record):
    __slots__ = ("particular", "nullspace")  # tuple, Subspace


def solve_linear(a: Matrix, b) -> Union[NoSolution, Solution]:
    """Solve a·x = b exactly over a field.

    Returns ``Solution(particular, nullspace)`` spanning all solutions, or
    ``NoSolution``.
    """
    R = a.ring
    b = tuple(R.of(x) for x in b)
    if len(b) != a.rows:
        raise ShapeError("right-hand side length mismatch")
    aug = Matrix(R, a.rows, a.cols + 1,
                 tuple(row + (bb,) for row, bb in zip(a.entries, b)))
    red, pivots = rref(aug)
    if a.cols in pivots:
        return NoSolution()
    particular = [R.zero] * a.cols
    for r, c in enumerate(pivots):
        particular[c] = red.entries[r][a.cols]
    return Solution(tuple(particular), nullspace(a))


def nullspace(m: Matrix) -> Subspace:
    """Exact basis of {x : m·x = 0} over a field."""
    R = m.ring
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for fc in free:
        v = [R.zero] * m.cols
        v[fc] = R.one
        for r, pc in enumerate(pivots):
            v[pc] = R.neg(red.entries[r][fc])
        vectors.append(tuple(v))
    return Subspace.span(R, m.cols, vectors)


def column_space(m: Matrix) -> Subspace:
    return Subspace.span(m.ring, m.rows, [m.col(j) for j in range(m.cols)])


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix over a field; ShapeError when singular."""
    if m.rows != m.cols:
        raise ShapeError("only square matrices invert")
    n = m.rows
    identity = Matrix.identity(m.ring, n).entries
    aug = Matrix(m.ring, n, 2 * n,
                 tuple(row + identity[i] for i, row in enumerate(m.entries)))
    red, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise ShapeError("matrix is singular")
    return Matrix(m.ring, n, n, tuple(row[n:] for row in red.entries))


# ---------------------------------------------------------------------------
# characteristic polynomial and rational roots

def char_poly(m: Matrix) -> tuple:
    """Coefficients of det(tI - m), ascending, ending in the leading 1.

    Berkowitz's division-free algorithm: only ring additions and
    multiplications occur, so no intermediate denominators appear over Q and
    the routine is valid over any commutative coefficient ring.
    """
    if m.rows != m.cols:
        raise ShapeError("characteristic polynomial needs a square matrix")
    R = m.ring
    n = m.rows
    if n == 0:
        return (R.one,)
    A = [list(row) for row in m.entries]
    # descending coefficients for leading principal blocks, grown one row/col
    # at a time through lower-triangular Toeplitz transforms
    poly = [R.one, R.neg(A[0][0])]
    for size in range(2, n + 1):
        k = size - 1
        M = [row[:k] for row in A[:k]]
        neg_row = [R.neg(A[k][j]) for j in range(k)]
        col = [A[i][k] for i in range(k)]
        items = [R.one, R.neg(A[k][k])]
        vec = col
        for _ in range(size - 1):
            items.append(vec_dot(R, tuple(neg_row), tuple(vec)))
            vec = [vec_dot(R, tuple(row), tuple(vec)) for row in M]
        new = []
        for i in range(size + 1):
            acc = R.zero
            for j in range(0, min(i, size - 1) + 1):
                acc = R.add(acc, R.mul(items[i - j], poly[j]))
            new.append(acc)
        poly = new
    return tuple(reversed(poly))


def poly_eval(ring: Ring, coeffs, x):
    """Evaluate ascending-coefficient polynomial at x (Horner)."""
    acc = ring.zero
    for c in reversed(coeffs):
        acc = ring.add(ring.mul(acc, x), c)
    return acc


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs) -> tuple:
    """All rational roots of the polynomial, repeated by multiplicity.

    ``coeffs`` are ascending rational coefficients.  Candidates come from a
    divisor search on the primitive integer form; each found root is deflated
    out so multiplicities are exact.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every rational as a root")
    roots = []
    # factor out t^m first: each low zero coefficient is one root at 0
    while coeffs[0] == 0:
        roots.append(Fraction(0))
        coeffs.pop(0)
    if len(coeffs) > 1:
        denom_lcm = 1
        for c in coeffs:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in coeffs]
        content = 0
        for v in ints:
            content = gcd(content, v)
        ints = [v // content for v in ints]
        candidates = set()
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
        for cand in sorted(candidates):
            while len(coeffs) > 1 and poly_eval(QQ, coeffs, cand) == 0:
                roots.append(cand)
                # synthetic division by (t - cand)
                desc = list(reversed(coeffs))
                out = [desc[0]]
                for c in desc[1:-1]:
                    out.append(c + cand * out[-1])
                coeffs = list(reversed(out))
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# univariate polynomials over a field
#
# Ascending coefficient tuples without trailing zeros: the zero polynomial is
# () and deg f is len(f) - 1.  Over Z/p they give the distinct-degree
# factorisation and the roots that findim's domain decision needs.

def poly_trim(f) -> tuple:
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def poly_sub(ring: Ring, f, g) -> tuple:
    n = max(len(f), len(g))
    f = tuple(f) + (ring.zero,) * (n - len(f))
    g = tuple(g) + (ring.zero,) * (n - len(g))
    return poly_trim(ring.sub(a, b) for a, b in zip(f, g))


def poly_mul(ring: Ring, f, g) -> tuple:
    if not f or not g:
        return ()
    out = [ring.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return poly_trim(out)


def poly_divmod(ring: Ring, f, g) -> tuple:
    """(quotient, remainder) of f by a nonzero g."""
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(poly_trim(f))
    q = [ring.zero] * max(len(r) - len(g) + 1, 0)
    inv = ring.inv(g[-1])
    while len(r) >= len(g):
        c = ring.mul(r[-1], inv)
        shift = len(r) - len(g)
        q[shift] = c
        for i, b in enumerate(g):
            if b:
                r[shift + i] = ring.sub(r[shift + i], ring.mul(c, b))
        while r and not r[-1]:
            r.pop()
    return tuple(q), tuple(r)


def poly_gcd(ring: Ring, f, g) -> tuple:
    """Monic greatest common divisor; () when f and g are both zero."""
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_divmod(ring, f, g)[1]
    if not f:
        return ()
    inv = ring.inv(f[-1])
    return tuple(ring.mul(inv, c) for c in f)


def poly_derivative(ring: Ring, f) -> tuple:
    return poly_trim(ring.mul(ring.of(i), c) for i, c in enumerate(f) if i)


def poly_powmod(ring: Ring, f, e: int, m) -> tuple:
    """f^e mod m by square-and-multiply."""
    result = poly_divmod(ring, (ring.one,), m)[1]
    base = poly_divmod(ring, f, m)[1]
    while e:
        if e & 1:
            result = poly_divmod(ring, poly_mul(ring, result, base), m)[1]
        e >>= 1
        if e:
            base = poly_divmod(ring, poly_mul(ring, base, base), m)[1]
    return result


def _prime_field(ring: Ring) -> int:
    if not isinstance(ring, ZMod) or not ring.is_field:
        raise NotAFieldError(f"needs Z/p scalars, got {ring.name}")
    return ring.n


def distinct_degree_factors(ring: ZMod, f) -> tuple:
    """Distinct-degree factorisation of a monic squarefree f over Z/p.

    Returns ``((k, g_k), ...)``, ascending in k, where g_k is the product of
    the irreducible factors of f of degree k and is not 1; the g_k multiply
    to f.  The degree-k factors are those of gcd(f, t^(p^k) - t) once the
    lower degrees are divided out.
    """
    p = _prime_field(ring)
    t = (ring.zero, ring.one)
    out = []
    rest = poly_trim(f)
    h = t  # t^(p^k) mod rest
    k = 0
    while len(rest) - 1 >= 2 * (k + 1):
        k += 1
        h = poly_powmod(ring, h, p, rest)
        g = poly_gcd(ring, rest, poly_sub(ring, h, t))
        if len(g) > 1:
            out.append((k, g))
            rest = poly_divmod(ring, rest, g)[0]
            h = poly_divmod(ring, h, rest)[1]
    if len(rest) > 1:
        out.append((len(rest) - 1, rest))
    return tuple(out)


def poly_root_mod_p(ring: ZMod, f):
    """A root in Z/p of a nonzero f, or None when it has none.

    g = gcd(f, t^p - t) is the product of the distinct linear factors of f;
    g is split by gcd(g, (t + s)^((p-1)/2) - 1) for s = 0, 1, ... until one
    factor is linear (Cantor-Zassenhaus with deterministic shifts).  Some
    shift separates any two roots, so the search ends.
    """
    p = _prime_field(ring)
    t = (ring.zero, ring.one)
    g = poly_gcd(ring, f, poly_sub(ring, poly_powmod(ring, t, p, f), t))
    while len(g) > 2:
        for s in range(p):
            if not poly_eval(ring, g, ring.neg(s)):
                return ring.neg(s)
            h = poly_powmod(ring, (s, ring.one), (p - 1) // 2, g)
            split = poly_gcd(ring, g, poly_sub(ring, h, (ring.one,)))
            if 1 < len(split) < len(g):
                g = split
                break
        else:
            raise RuntimeError("no shift splits the linear factors")
    return ring.neg(g[0]) if len(g) == 2 else None


# ---------------------------------------------------------------------------
# submodules of (Z/n)^d for composite n
#
# Over Z/n with n composite there is no echelon form, but finitely generated
# submodules of (Z/n)^d still have a canonical matrix form (Howell form),
# computable through the integer Hermite normal form of the generators
# stacked over n·I.  That suffices for equality and membership questions.

def _hnf_full(rows, split: int):
    """Euclidean row elimination on the first ``split`` columns, the one
    integer echelon loop: the pivot rows in column order, then every other
    row, now zero in those columns.  Trailing columns (a transform carried
    along) are updated in step, and no row is dropped."""
    rows = [list(r) for r in rows]
    ncols_total = len(rows[0]) if rows else 0
    done_rows = []
    col = 0
    while col < split and rows:
        sel = [r for r in rows if r[col] != 0]
        if not sel:
            col += 1
            continue
        while True:
            sel.sort(key=lambda r: abs(r[col]))
            pivot_row = sel[0]
            reduced = True
            for r in sel[1:]:
                q = r[col] // pivot_row[col]
                for j in range(ncols_total):
                    r[j] -= q * pivot_row[j]
                if r[col] != 0:
                    reduced = False
            sel = [pivot_row] + [r for r in sel[1:] if r[col] != 0]
            if reduced or len(sel) == 1:
                break
        if pivot_row[col] < 0:
            for j in range(ncols_total):
                pivot_row[j] = -pivot_row[j]
        done_rows.append(pivot_row)
        rows = [r for r in rows if r is not pivot_row]
        col += 1
    return done_rows + rows


def _hnf(rows):
    """Integer row Hermite normal form as a list of nonzero rows: the
    elimination over every column, pivots positive, then the entries above
    each pivot reduced into [0, pivot)."""
    out = [r for r in _hnf_full(rows, len(rows[0]) if rows else 0) if any(r)]
    for i in range(len(out)):
        pc = next(j for j, x in enumerate(out[i]) if x != 0)
        for k in range(i):
            q = out[k][pc] // out[i][pc]
            if q:
                for j in range(len(out[i])):
                    out[k][j] -= q * out[i][j]
    return out


class Submodule(Record):
    """Finitely generated submodule of (Z/n)^d in canonical (Howell) form.

    Equality of canonical forms is equality of submodules.  ``basis`` holds
    the canonical generator rows, entries in [0, n).
    """

    __slots__ = ("ring", "ambient_dim", "basis")

    def __init__(self, ring: ZMod, ambient_dim: int, basis: tuple):
        set_field(self, "ring", ring)
        set_field(self, "ambient_dim", ambient_dim)
        set_field(self, "basis", basis)

    @staticmethod
    def span(ring: ZMod, ambient_dim: int, vectors) -> "Submodule":
        n = ring.n
        rows = [[int(x) % n for x in v] for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ShapeError("vector length mismatch")
        for i in range(ambient_dim):
            rows.append([n if j == i else 0 for j in range(ambient_dim)])
        hnf = _hnf(rows)
        canon = [tuple(x % n for x in r) for r in hnf]
        canon = [r for r in canon if any(x != 0 for x in r)]
        return Submodule(ring, ambient_dim, tuple(canon))

    def contains_vector(self, v) -> bool:
        n = self.ring.n
        v = [int(x) % n for x in v]
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        # pivot entries divide n, so divisibility decides reducibility
        for b in self.basis:
            lead = next(j for j, x in enumerate(b) if x != 0)
            if v[lead] % b[lead] != 0:
                return False
            q = v[lead] // b[lead]
            v = [(x - q * y) % n for x, y in zip(v, b)]
        return all(x == 0 for x in v)

    def is_zero(self) -> bool:
        return not self.basis


def submodule_kernel(ring: ZMod, m: Matrix) -> Submodule:
    """Generators of {x in (Z/n)^cols : m·x = 0 mod n}.

    Computed as the projection of the integer kernel of [m | n·I] to the
    x-coordinates.
    """
    n = ring.n
    p, q = m.rows, m.cols
    if p == 0:
        return Submodule.span(ring, q,
                              [[1 if j == i else 0 for j in range(q)] for i in range(q)])
    ext = [[int(m.entries[i][j]) for j in range(q)] +
           [n if k == i else 0 for k in range(p)] for i in range(p)]
    gens = [g[:q] for g in _int_kernel(ext)]
    return Submodule.span(ring, q, gens)


def _int_kernel(rows):
    """Basis of the integer nullspace {x : rows·x = 0} of an integer matrix."""
    if not rows:
        return []
    p = len(rows)
    q = len(rows[0])
    # row-reduce the transpose, carrying the transform: U·A^T = H;
    # rows of U mapped to zero rows of H span the kernel of A
    at = [[rows[i][j] for i in range(p)] for j in range(q)]
    u = [[1 if i == j else 0 for j in range(q)] for i in range(q)]
    work = [at[i] + u[i] for i in range(q)]
    hn = _hnf_full(work, p)
    out = []
    for row in hn:
        if all(x == 0 for x in row[:p]):
            out.append(row[p:])
    return out
