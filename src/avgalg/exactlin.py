"""Exact scalar rings and exact linear algebra.

Two coefficient rings are supported: arbitrary-precision rationals and
integers mod n.  Ring elements are plain Python values in one canonical form
per ring: a rational is an ``int`` when it is integral and a ``Fraction``
(denominator above 1) otherwise, a residue is an ``int`` in ``[0, n)``.  The
ring object carries no arithmetic: it reads values (``of``, ``parse``),
inverts (``inv``), renders and names its zero and one, so every function
here takes or infers a ring.  Every sum and product, here and in ``findim``
and ``freeavg``, is Python's own ``+ - *`` on the ring values followed by
one inline ``% m``, where ``m = _modulus(ring)`` is n over Z/n and the ring
itself over Q (``Rationals.__rmod__`` is ``of``, which puts a rational in
canonical form).

Canonical ring elements are falsy exactly when they are zero (``bool(x)``
is ``x != 0`` for ``int`` and ``Fraction``).  The kernels here and in
``findim`` rely on this: they test ``if x``/``if not x`` and skip zero terms
instead of multiplying by them.  Values are read through ``ring.of`` once,
where they enter: ``Matrix.from_rows``/``from_cols``, the public ``span``s
and, in ``findim``, the ``make`` readers.  A value built by a direct
constructor holds canonical values, and ``rref``, ``Matrix.apply`` and
``_hnf`` take them as they are.

All matrix/subspace values are immutable after construction and all
operations are pure functions, so everything in this module is safe to share
across threads.  The one derived state, a ``Matrix``'s column-sparse form,
is computed from the entries on the first ``apply`` and kept in a private
slot; filling it is idempotent, so a race at most computes it twice.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, count, zip_longest
from math import comb, gcd, isqrt, lcm, log10
from operator import mul
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


# Python 3.11+ refuses str() of an int past sys.get_int_max_str_digits()
# decimal digits, and int() of a longer string; that limit is at least 640
# when it is on, so numbers are written and read in chunks of _CHUNK_DIGITS
# digits, below any limit
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal_str(n: int) -> str:
    """``str(n)`` for an int of any size, whatever the interpreter's
    integer string conversion limit."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
    return sign + str(n) + "".join(reversed(chunks))


# the one grammar of QQ.parse and ZMod.parse, whatever a literal's length:
# Python 3.11's Fraction grammar, a sign and digits, then a denominator or a
# fractional part and an exponent, with digits grouped by single underscores
# and no space around "/"; an integer is its first two groups.  re compiles
# it on first use
_LITERAL = (r"([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)|"
            r"(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)")


def _decimal_int(text: str) -> int:
    """The int of an optional sign and decimal digits, of any length, read
    in chunks as ``_decimal_str`` writes them, whatever the interpreter's
    limit."""
    digits, n = text.lstrip("+-"), 0
    for k in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[k:k + _CHUNK_DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if text[:1] == "-" else n


def _literal(text: str, integral: bool) -> Fraction:
    """The value of ``text`` in the grammar ``_LITERAL``, or only in its
    sign-and-digits form when ``integral``."""
    m = re.fullmatch(_LITERAL, text)
    if m is None or integral and m.end(2) < len(text):
        raise ValueError(f"not {'an integer' if integral else 'a rational'} literal")
    sign, num, den, frac, exp = (g.replace("_", "") for g in m.groups(""))
    den = _decimal_int(den) if den else 10 ** len(frac)
    return Fraction(_decimal_int(sign + num + frac), den) * Fraction(10) ** _decimal_int(exp)


# the size bound, in bits, of a literal's value, here and for a folded power
# in terms.  Fraction builds 10^e exactly for an exponent e, and before
# Python 3.11 int() reads a long digit string in quadratic time, so a literal
# is measured before it is read: k characters before its exponent e give a
# numerator and a denominator of at most k + |e| decimal digits
_MAX_LITERAL_BITS = 1 << 20
_MAX_LITERAL_DIGITS = int(_MAX_LITERAL_BITS * log10(2))


def _check_literal_size(text: str) -> None:
    head, _, exp = text.lower().partition("e")
    # seven significant digits of the exponent are past the bound already
    exp = exp.lstrip("+-").replace("_", "").lstrip("0")[:7]
    if len(head) + (int(exp) if exp.isdecimal() else 0) > _MAX_LITERAL_DIGITS:
        raise RingError(f"literal {text[:30]!r}{'...' * (len(text) > 30)} is too large: "
                        f"more than {_MAX_LITERAL_DIGITS} digits with its exponent")


class Rationals(Record):
    """The field Q; an element is an ``int`` when it is integral and a
    ``fractions.Fraction`` (lowest terms, positive denominator) otherwise.

    The ring carries no arithmetic: callers compute with ``+ - *`` and put
    the result in canonical form with ``% QQ``, which is ``of``.  So
    integral scalars, the bulk of the paper's examples, take Python's int
    arithmetic and never build a ``Fraction``.  ``int`` and ``Fraction``
    compare and hash equal, so this choice does not show in equality,
    hashing or rendering.  ``/`` on two ints gives a float, so nothing
    divides ring values with it.
    """

    __slots__ = ("name", "is_field")
    _defaults = ("Q", True)
    zero = 0
    one = 1

    def of(self, v) -> int | Fraction:
        if type(v) is int:
            return v
        v = v if type(v) is Fraction else Fraction(v)
        return v.numerator if v.denominator == 1 else v

    # a % QQ is a in canonical form, as a % n is a residue, so the kernels
    # reduce with one inline % over either ring
    __rmod__ = of

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        c = Fraction(1, a)
        return c.numerator if c.denominator == 1 else c

    def parse(self, text: str) -> int | Fraction:
        if not isinstance(text, str):
            raise RingError(f"rational literal must be a string, got {text!r}")
        _check_literal_size(text.strip())
        try:
            return self.of(_literal(text.strip(), False))
        except (ValueError, ZeroDivisionError) as exc:
            raise RingError(f"bad rational literal {text!r}: {exc}") from None

    def render(self, a) -> str:
        if a.denominator == 1:
            return _decimal_str(a.numerator)
        return f"{_decimal_str(a.numerator)}/{_decimal_str(a.denominator)}"


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
        if type(v) is int:
            return v % self.n
        # any other number is read exactly, as over Q, and p/q maps to
        # p * q^{-1} when q is a unit mod n
        v = v if type(v) is Fraction else Fraction(v)
        return v.numerator * self.inv(v.denominator) % self.n

    def inv(self, a):
        a %= self.n
        g = gcd(a, self.n)
        if g != 1:
            raise RingError(f"{a} is not a unit mod {self.n}")
        return pow(a, -1, self.n)

    def parse(self, text: str) -> int:
        if not isinstance(text, str):
            raise RingError(f"residue literal must be a string, got {text!r}")
        _check_literal_size(text.strip())
        try:
            return _literal(text.strip(), True).numerator % self.n
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


def _modulus(ring: Ring):
    """m such that x % m is x in ``ring``'s canonical form: n over Z/n, the
    ring itself over Q.  ZMod has no subclasses, and a type test is cheaper
    than isinstance on the rationals, where this runs once per kernel call."""
    return ring.n if type(ring) is ZMod else ring


# ---------------------------------------------------------------------------
# vectors (plain tuples; ring passed explicitly)

def zero_vec(ring: Ring, n: int) -> tuple:
    return (ring.zero,) * n


def vec_add(ring: Ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    m = _modulus(ring)
    return tuple([(a + b) % m for a, b in zip(u, v)])


def vec_sub(ring: Ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    m = _modulus(ring)
    return tuple([(a - b) % m for a, b in zip(u, v)])


def vec_scale(ring: Ring, c, v):
    m = _modulus(ring)
    return tuple([c * a % m for a in v])


def vec_dot(ring: Ring, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    m = _modulus(ring)
    acc = ring.zero
    for a, b in zip(u, v):
        if a and b:
            acc = (acc + a * b) % m
    return acc


# ---------------------------------------------------------------------------
# matrices

class Matrix(Record):
    """Immutable row-major matrix over an explicit ring.  ``apply`` reads the
    nonzero (row, entry) pairs of each column (Gustavson, ACM TOMS 4, 1978),
    built on first use into the private slot ``_col_terms``."""

    __slots__ = ("ring", "rows", "cols", "entries", "_col_terms")

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
        if any(len(c) != nrows for c in cols):
            raise ShapeError("column length mismatch")
        return Matrix(ring, nrows, len(cols),
                      tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        zero = (ring.zero,) * n
        return Matrix(ring, n, n, tuple(zero[:i] + (ring.one,) + zero[i + 1:] for i in range(n)))

    @staticmethod
    def zero(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, tuple((ring.zero,) * cols for _ in range(rows)))

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def _same_ring(self, other: "Matrix") -> Ring:
        if self.ring != other.ring:
            raise ShapeError("mixed coefficient rings")
        return self.ring

    def add(self, other: "Matrix") -> "Matrix":
        R = self._same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix shape mismatch")
        m = _modulus(R)
        return Matrix(R, self.rows, self.cols, tuple(
            tuple([(a + b) % m for a, b in zip(r1, r2)])
            for r1, r2 in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(-1))

    def scale(self, c) -> "Matrix":
        R, m = self.ring, _modulus(self.ring)
        c = R.of(c)
        return Matrix(R, self.rows, self.cols, tuple(
            tuple([c * a % m for a in row]) for row in self.entries))

    def mul(self, other: "Matrix") -> "Matrix":
        R = self._same_ring(other)
        if self.cols != other.rows:
            raise ShapeError("matrix product shape mismatch")
        ocols = [other.col(j) for j in range(other.cols)]
        return Matrix(R, self.rows, other.cols, tuple(
            tuple(vec_dot(R, row, c) for c in ocols) for row in self.entries))

    def apply(self, v) -> tuple:
        """Matrix times column vector, reading only the nonzero entries of
        the columns where v is nonzero."""
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        try:
            col_terms = self._col_terms
        except AttributeError:
            col_terms = tuple(tuple((i, row[j]) for i, row in enumerate(self.entries) if row[j])
                              for j in range(self.cols))
            set_field(self, "_col_terms", col_terms)
        return _apply_cols(col_terms, v, _modulus(self.ring), self.ring.zero, self.rows)


def _apply_cols(col_terms, v, m, zero, rows: int) -> tuple:
    """The sum of v_j times column j over the nonzero v_j, each column by
    its nonzero (row, entry) pairs: ``Matrix.apply`` for callers that hold
    a matrix's column terms already."""
    out = [zero] * rows
    for j, x in enumerate(v):
        if x:
            for i, a in col_terms[j]:
                out[i] = (out[i] + a * x) % m
    return tuple(out)


# ---------------------------------------------------------------------------
# echelon forms: one elimination for every scalar ring
#
# Over a field the canonical basis of a span is its reduced row echelon form.
# Over Z/n with n composite there is no echelon form in that sense, but a
# finitely generated submodule of (Z/n)^d still has a canonical basis, its
# Howell form (Howell, Linear Multilinear Algebra 19, 1986), and the same
# loop computes it on the residues (Storjohann & Mulders, "Fast algorithms
# for linear algebra modulo N", ESA 1998).  Either way equal spans have
# equal bases, which settles equality and membership questions.

def _pivot_unit(a: int, n: int) -> int:
    """A unit u of Z/n with u·a = gcd(a, n) mod n, for 0 < a < n.

    With g = gcd(a, n), the inverse of a/g mod n/g does this mod n; it need
    not be a unit mod n, but one of its lifts u + k·(n/g), 0 <= k < g, is.
    """
    g = gcd(a, n)
    step = n // g
    u = pow(a // g, -1, step)
    while gcd(u, n) != 1:
        u += step
    return u


def _sub_multiple(m, row, q, p) -> list:
    """row - q·p reduced by m (``_modulus``), reading only the nonzero
    entries of p."""
    return [(x - q * y) % m if y else x for x, y in zip(row, p)]


def _hnf_full(R: Ring, rows, split: int):
    """The one echelon loop, over every scalar ring.

    Column by column over the first ``split`` columns, the rows still to be
    processed that are nonzero in the column give one pivot row:

    - over a field, the first of them, scaled to pivot 1, and its column is
      cleared in every other row, above and below;
    - over Z/n with n composite, Euclidean steps on the representatives in
      [0, n) leave one of them nonzero in the column; a unit scales that
      entry to g = gcd(entry, n), the entries above it are reduced into
      [0, g), and (n/g)·row, zero in the column, goes back among the rows
      still to be processed.  So at every column the rows still to be
      processed span all of the span that is zero in the columns before it
      (the Howell property).

    Returns ``(rows, pivots)``: the pivot rows in column order, then the
    rows left, zero in the first ``split`` columns; ``pivots`` holds the
    pivot columns.  Trailing columns (a transform carried along) are updated
    in step.
    """
    n, m = (0 if R.is_field else R.n), _modulus(R)
    todo = [list(r) for r in rows]
    done, pivots = [], []
    for c in range(split):
        if not todo:
            break
        sel = [r for r in todo if r[c]]
        if not sel:
            continue
        if n:
            while len(sel) > 1:
                sel.sort(key=lambda r: r[c])
                p = sel[0]
                for r in sel[1:]:
                    q = r[c] // p[c]
                    r[:] = [(x - q * y) % n if y else x for x, y in zip(r, p)]
                sel = [r for r in sel if r[c]]
        pr = sel[0]
        todo = [r for r in todo if r is not pr]
        if n:
            u = _pivot_unit(pr[c], n)
            p = [u * x % n for x in pr]
            g = p[c]
            ann = [n // g * x % n for x in p]
            if any(ann):
                todo.append(ann)
        else:
            inv = R.inv(pr[c])
            p = [inv * x % m if x else x for x in pr]
            g = 1
            todo = [_sub_multiple(m, r, r[c], p) if r[c] else r for r in todo]
        for i, r in enumerate(done):
            if r[c]:
                done[i] = _sub_multiple(m, r, r[c] if g == 1 else r[c] // g, p)
        done.append(p)
        pivots.append(c)
    return done + todo, tuple(pivots)


def _hnf(R: Ring, dim: int, rows) -> tuple:
    """The canonical basis of the span of ``rows`` in R^dim, whose entries
    are canonical: the pivot rows of ``_hnf_full``, that is the reduced row
    echelon basis over a field and the Howell form over Z/n."""
    if any(len(v) != dim for v in rows):
        raise ShapeError("vector length mismatch")
    out, pivots = _hnf_full(R, rows, dim)
    return tuple(tuple(r) for r in out[:len(pivots)])


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns ``(reduced, pivots)`` where pivots is the tuple of pivot column
    indices.  Field scalars only: for Zmod n, n must be prime.
    """
    R = m.ring
    if not R.is_field:
        raise NotAFieldError(f"rref needs a field, got {R.name}")
    rows, pivots = _hnf_full(R, m.entries, m.cols)
    return Matrix(R, m.rows, m.cols, tuple(tuple(r) for r in rows)), pivots


class Subspace(Record):
    """Subspace of ring^n over a field, canonicalized by its reduced echelon
    basis.

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
        if not ring.is_field:
            raise NotAFieldError(f"a subspace needs a field, got {ring.name}")
        rows = [[ring.of(x) for x in v] for v in vectors]
        return Subspace(ring, ambient_dim, _hnf(ring, ambient_dim, rows))

    @staticmethod
    def full(ring: Ring, n: int) -> "Subspace":
        return Subspace(ring, n, Matrix.identity(ring, n).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains_vector(self, v) -> bool:
        """Whether v lies in the span, by reducing it with the basis rows in
        pivot order.  Also the membership test of ``Submodule``: a pivot is 1
        over a field and divides n over Z/n, and by the Howell property v
        lies in the span exactly when each leading entry met is a multiple
        of its pivot."""
        R = self.ring
        v = [R.of(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        m = _modulus(R)
        for b in self.basis:
            lead = b.index(next(filter(None, b)))
            q, r = (v[lead], 0) if b[lead] == 1 else divmod(v[lead], b[lead])
            if r:
                return False
            if q:
                v = _sub_multiple(m, v, q, b)
        return not any(v)


class NoSolution(Record):
    __slots__ = ()


class Solution(Record):
    __slots__ = ("particular", "nullspace")  # tuple, Subspace


def solve_linear(a: Matrix, b) -> Union[NoSolution, Solution]:
    """Solve a·x = b exactly over a field.

    Returns ``Solution(particular, nullspace)`` spanning all solutions, or
    ``NoSolution``.
    """
    b = tuple(a.ring.of(x) for x in b)
    if len(b) != a.rows:
        raise ShapeError("right-hand side length mismatch")
    particular = _particular(a, b)
    return NoSolution() if particular is None else Solution(particular, nullspace(a))


def _particular(a: Matrix, b: tuple):
    """The solution of a·x = b (canonical b) that is 0 at the free columns,
    read off one rref of [a | b], or None when there is none."""
    red, pivots = rref(Matrix(a.ring, a.rows, a.cols + 1,
                              tuple(row + (bb,) for row, bb in zip(a.entries, b))))
    if a.cols in pivots:
        return None
    x = [a.ring.zero] * a.cols
    for row, c in zip(red.entries, pivots):
        x[c] = row[a.cols]
    return tuple(x)


def nullspace(m: Matrix) -> Subspace:
    """Exact basis of {x : m·x = 0} over a field, in canonical form.

    One elimination of m with its columns reversed: the null vector of its
    free column f is 1 at column n-1-f of m, 0 at the other free columns and
    nonzero elsewhere only right of n-1-f, at pivots.  So in descending f
    these vectors are already the reduced row echelon basis of the kernel."""
    R, mod, n = m.ring, _modulus(m.ring), m.cols
    if not R.is_field:
        raise NotAFieldError(f"rref needs a field, got {R.name}")
    rows, pivots = _hnf_full(R, [row[::-1] for row in m.entries], n)
    basis = []
    for f in sorted(set(range(n)).difference(pivots), reverse=True):
        v = [R.zero] * n
        v[n - 1 - f] = R.one
        for row, pc in zip(rows, pivots):
            if row[f]:
                v[n - 1 - pc] = -row[f] % mod
        basis.append(tuple(v))
    return Subspace(R, n, tuple(basis))


# ---------------------------------------------------------------------------
# characteristic polynomial

def char_poly(m: Matrix) -> tuple:
    """Coefficients of det(tI - m), ascending, ending in the leading 1.

    Berkowitz's division-free algorithm: only ring additions and
    multiplications occur, so no intermediate denominators appear over Q and
    the routine is valid over any commutative coefficient ring.
    """
    if m.rows != m.cols:
        raise ShapeError("characteristic polynomial needs a square matrix")
    R, mod = m.ring, _modulus(m.ring)
    n = m.rows
    if n == 0:
        return (R.one,)
    A = m.entries
    # descending coefficients for leading principal blocks, grown one row/col
    # at a time through lower-triangular Toeplitz transforms; every dot
    # product and convolution term is one sum reduced once, and map stops at
    # its shorter argument, so a full row of A dots with the leading k
    poly = [R.one, -A[0][0] % mod]
    for k in range(1, n):
        items = [R.one, -A[k][k] % mod]
        vec = [A[i][k] for i in range(k)]
        for _ in range(k):
            items.append(-sum(map(mul, A[k], vec)) % mod)
            vec = [sum(map(mul, row, vec)) % mod for row in A[:k]]
        poly = [sum(map(mul, items[i::-1], poly)) % mod for i in range(k + 2)]
    return tuple(reversed(poly))


def poly_eval(ring: Ring, coeffs, x):
    """Evaluate ascending-coefficient polynomial at x (Horner)."""
    m, acc = _modulus(ring), ring.zero
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


# ---------------------------------------------------------------------------
# univariate polynomials over a field
#
# Ascending coefficient tuples without trailing zeros: the zero polynomial is
# () and deg f is len(f) - 1.  Over Z/p they give the roots that findim's
# domain decision needs, and with ``nullspace`` the factorisation over Q
# below, which decides it over Q.  Like the linear algebra above, each
# routine computes on lists of coefficients with Python's own + - * and
# one inline % m (``_modulus``), so no coefficient step calls a ring method:
# % p over Z/p, and % QQ over Q, which keeps exact rational arithmetic in
# canonical form.

def poly_trim(f) -> tuple:
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def poly_sub(ring: Ring, f, g) -> tuple:
    m = _modulus(ring)
    return poly_trim([(a - b) % m for a, b in zip_longest(f, g, fillvalue=0)])


def poly_mul(ring: Ring, f, g) -> tuple:
    if not f or not g:
        return ()
    m = _modulus(ring)
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for k, b in enumerate(g, i):
                if b:
                    out[k] = (out[k] + a * b) % m
    return poly_trim(out)


def poly_divmod(ring: Ring, f, g) -> tuple:
    """(quotient, remainder) of f by a nonzero g."""
    n = len(g) - 1
    while n >= 0 and not g[n]:
        n -= 1
    if n < 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(poly_trim(f))
    if len(r) <= n:
        return (), tuple(r)
    m = _modulus(ring)
    low = g[:n]
    q = [0] * (len(r) - n)
    inv = 1 if g[n] == 1 else ring.inv(g[n])
    for shift in range(len(q) - 1, -1, -1):
        # c makes r - c t^shift g lose its leading term, which is popped
        c = r.pop() * inv % m
        if c:
            q[shift] = c
            for k, b in enumerate(low, shift):
                if b:
                    r[k] = (r[k] - c * b) % m
    return tuple(q), poly_trim(r)


def poly_gcd(ring: Ring, f, g) -> tuple:
    """Monic greatest common divisor; () when f and g are both zero."""
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_divmod(ring, f, g)[1]
    if not f or f[-1] == 1:
        return f
    m, inv = _modulus(ring), ring.inv(f[-1])
    return tuple([inv * c % m for c in f])


def poly_derivative(ring: Ring, f) -> tuple:
    m = _modulus(ring)
    return poly_trim([i * c % m for i, c in enumerate(f) if i])


def poly_powmod(ring: Ring, f, e: int, m) -> tuple:
    """f^e mod m by square-and-multiply, from the leading bit of e down."""
    if not e:
        return poly_divmod(ring, (1,), m)[1]
    base = result = poly_divmod(ring, f, m)[1]
    for bit in bin(e)[3:]:
        result = poly_divmod(ring, poly_mul(ring, result, result), m)[1]
        if bit == "1":
            result = poly_divmod(ring, poly_mul(ring, result, base), m)[1]
    return result


def _prime_field(ring: Ring) -> int:
    if not isinstance(ring, ZMod) or not ring.is_field:
        raise NotAFieldError(f"needs Z/p scalars, got {ring.name}")
    return ring.n


def poly_root_mod_p(ring: ZMod, f):
    """A root in Z/p of a nonzero f, or None when it has none.

    g = gcd(f, t^p - t) is the product of the distinct linear factors of f;
    g is split by gcd(g, (t + s)^((p-1)/2) - 1) for s = 0, 1, ... until one
    factor is linear (Cantor-Zassenhaus with deterministic shifts).  Some
    shift separates any two roots, so the search ends.
    """
    p = _prime_field(ring)
    t = (0, 1)
    g = poly_gcd(ring, f, poly_sub(ring, poly_powmod(ring, t, p, f), t))
    while len(g) > 2:
        for s in range(p):
            if not poly_eval(ring, g, -s % p):
                return -s % p
            h = poly_powmod(ring, (s, 1), (p - 1) // 2, g)
            split = poly_gcd(ring, g, poly_sub(ring, h, (1,)))
            if 1 < len(split) < len(g):
                g = split
                break
        else:
            raise RuntimeError("no shift splits the linear factors")
    return -g[0] % p if len(g) == 2 else None


def _squarefree(ring: Ring, f) -> bool:
    return len(poly_gcd(ring, f, poly_derivative(ring, f))) == 1


# ---------------------------------------------------------------------------
# factorisation over Q (von zur Gathen & Gerhard, Modern Computer Algebra,
# ch. 14-16): Berlekamp mod p, Hensel lifting, Zassenhaus recombination

def _berlekamp(Fp: ZMod, f) -> list:
    """The monic irreducible factors of a monic squarefree f over Z/p: the
    h mod f with h(t^p) = h(t) form an algebra of dimension r, the number of
    factors, and each of its basis vectors but the constant one splits a
    factor q into the gcd(q, h - s), s in Z/p, that are not 1, until there
    are r factors."""
    p, n = Fp.n, len(f) - 1
    tp, power, cols = poly_powmod(Fp, (0, 1), p, f), (1,), []
    for i in range(n):
        # column i is t^(ip) mod f minus t^i
        cols.append([(x - (j == i)) % p for j, x in zip_longest(range(n), power, fillvalue=0)])
        power = poly_divmod(Fp, poly_mul(Fp, power, tp), f)[1]
    fixed = nullspace(Matrix(Fp, n, n, tuple(zip(*cols))))
    factors = [tuple(f)]
    for h in map(poly_trim, fixed.basis[1:]):
        for q in factors[:]:
            if len(factors) == fixed.dim:
                return factors
            if len(q) > 2:
                factors.remove(q)
                factors += [g for g in (poly_gcd(Fp, q, poly_sub(Fp, h, (s,)))
                                        for s in range(p)) if len(g) > 1]
    return factors


def _hensel(g, a, b, Fp: ZMod, M: int) -> tuple:
    """The monic lift mod M, a power of p, of a monic factor a of g mod p
    prime to its cofactor b: linear lifting.  Where a divides g mod m, the
    remainder r of g by a mod m·p is 0 mod m, and a + m·a1 divides g mod
    m·p for a1 = t·r/m mod a and p, t·b = 1 mod a, because g/a = b mod p.
    t comes from the extended Euclidean algorithm on a and b mod p."""
    p = m = Fp.n
    r0, r1, t0, t = a, poly_divmod(Fp, b, a)[1], (), (1,)
    while len(r1) > 1:
        q, r = poly_divmod(Fp, r0, r1)
        r0, r1, t0, t = r1, r, t, poly_sub(Fp, t0, poly_mul(Fp, q, t))
    t = poly_mul(Fp, (Fp.inv(r1[0]),), t)
    while m < M:
        r = poly_divmod(m * p, g, a)[1]
        a1 = poly_divmod(Fp, poly_mul(Fp, t, [c // m for c in r]), a)[1]
        a = tuple([x + m * y for x, y in zip_longest(a, a1, fillvalue=0)])
        m *= p
    return a


def _factor_q(f) -> tuple:
    """(p, factors): the monic irreducible factors over Q of a monic
    squarefree f of positive degree n, ascending in (degree, coefficients),
    and the prime p of their factorisation mod p.

    g(t) = c^n f(t/c), for c the lcm of the denominators, is monic over Z.
    Its factors mod the least prime p at which it stays squarefree are
    lifted mod a power M of p past twice binom(n-1, (n-1)//2)·|g|_2, which
    bounds the coefficients of a proper monic factor of g over Z
    (Mignotte), so such a factor is the product of the lifts of its factors
    mod p, read in the symmetric residues; the last lift is g over the
    others.  Subsets of the lifts are tried by size, constant terms first;
    a factor found is divided out with its lifts, and once no subset of at
    most half the lifts left gives one, the rest of g is irreducible, as
    one side of any split of it would.  M may pass the bound below which
    ZMod decides primality, so the plain int M is the polynomial routines'
    ring there: ``_modulus`` keeps it, and they divide only by monic
    polynomials.
    """
    n = len(f) - 1
    c = lcm(*(x.denominator for x in f))
    g = tuple([(x * c ** (n - i)).numerator for i, x in enumerate(f)])
    for p in filter(_is_prime, count(2)):
        Fp, gp = ZMod(p), tuple([x % p for x in g])
        if _squarefree(Fp, gp):
            break
    lifts, factors, size, M = _berlekamp(Fp, gp), [], 1, p
    while M <= 2 * comb(n - 1, (n - 1) // 2) * (isqrt(sum(x * x for x in g)) + 1):
        M *= p
    if len(lifts) > 1:
        lifts = [_hensel(g, a, poly_divmod(Fp, gp, a)[0], Fp, M) for a in lifts[1:]]
        lifts.append(poly_divmod(M, g, reduce(partial(poly_mul, M), lifts))[0])
    while 2 * size <= len(lifts):
        for subset in combinations(lifts, size):
            h = tuple([x - M if 2 * x > M else x for x in reduce(partial(poly_mul, M), subset)])
            if g[0] % h[0] if h[0] else g[0]:
                continue
            quotient, rest = poly_divmod(QQ, g, h)
            if not rest:
                factors.append(h)
                g, lifts = quotient, [a for a in lifts if a not in subset]
                break
        else:
            size += 1
    factors.append(g)
    if c > 1:
        # a factor h of g is c^deg(h) times the factor h(ct)/c^deg(h) of f
        factors = [tuple([QQ.of(Fraction(x, c ** (len(h) - 1 - i))) for i, x in enumerate(h)])
                   for h in factors]
    return p, tuple(sorted(factors, key=lambda h: (len(h), h)))


def rational_roots(coeffs) -> tuple:
    """All rational roots of the polynomial, repeated by multiplicity.

    ``coeffs`` are ascending rational coefficients.  The roots are those of
    the linear factors of the squarefree part f / gcd(f, f') (``_factor_q``);
    each is deflated out of f while it divides, so multiplicities are exact.
    """
    f = poly_trim([QQ.of(x) for x in coeffs])
    if not f:
        raise ValueError("zero polynomial has every rational as a root")
    f = poly_gcd(QQ, f, ())  # f, made monic
    part = poly_divmod(QQ, f, poly_gcd(QQ, f, poly_derivative(QQ, f)))[0]
    roots = []
    for h in _factor_q(part)[1] if len(f) > 1 else ():
        while len(h) == 2 and not poly_eval(QQ, f, -h[0]):
            roots.append(-h[0])
            f = poly_divmod(QQ, f, h)[0]
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# submodules of (Z/n)^d for composite n
#
# Their canonical bases come from the same elimination as subspaces, through
# ``_hnf``; a kernel runs the transposed system through ``_hnf_full``.

class Submodule(Record):
    """Finitely generated submodule of (Z/n)^d in canonical (Howell) form.

    Equality of canonical forms is equality of submodules.  ``basis`` holds
    the Howell form rows, entries in [0, n): their pivot columns increase,
    each pivot is a proper divisor of n and the entries above it lie in
    [0, pivot).  Its length is not a dimension, so this is not a Subspace.
    """

    __slots__ = ("ring", "ambient_dim", "basis")

    __init__ = Subspace.__init__
    contains_vector = Subspace.contains_vector
    is_zero = Subspace.is_zero

    @staticmethod
    def span(ring: ZMod, ambient_dim: int, vectors) -> "Submodule":
        rows = [[ring.of(x) for x in v] for v in vectors]
        return Submodule(ring, ambient_dim, _hnf(ring, ambient_dim, rows))


def submodule_kernel(ring: ZMod, m: Matrix) -> Submodule:
    """Generators of {x in (Z/n)^cols : m·x = 0 mod n}.

    The rows of m are first reduced to the r <= cols canonical rows of
    their span, which has the same solution set because each row set is a
    Z/n-combination of the other.  Row j of the transposed system is column
    j of that basis followed by e_j, so a combination x of its rows reads
    (m·x, x).  ``_hnf_full`` on the first r columns leaves the rows that
    span every such combination with m·x = 0 (the Howell property), and
    their trailing parts span the kernel.
    """
    q = m.cols
    basis = _hnf(ring, q, m.entries)
    r = len(basis)
    work = [[b[j] for b in basis] + [1 if k == j else 0 for k in range(q)] for j in range(q)]
    rows, pivots = _hnf_full(ring, work, r)
    return Submodule(ring, q, _hnf(ring, q, [row[r:] for row in rows[len(pivots):]]))
