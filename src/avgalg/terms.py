"""Terms of a commutative algebra with one extra unary operator symbol f.

Concrete syntax (EBNF):

    equation := term "=" term
    term     := ["-"] product (("+" | "-") ["-"] product)*
    product  := factor ("*" factor)*
    factor   := atom ["^" digits]
    atom     := number | variable | "f" "(" term ")" | "(" term ")" | "-" factor
    variable := "v" digits                  (no space after "v"; index >= 1,
                                             at most 600 digits)
    number   := ["-"] digits ["/" digits]   (no space after the "-")
    digits   := ("0" | "1" | ... | "9")+    (ASCII only)

Whitespace may stand between any two tokens.  "+", "-", "*" are left
associative, "^" binds tighter than "*", and there is no implicit
multiplication.  "b^n" is the n-fold product of b: a Pow node for n >= 2,
b itself for n = 1, One for n = 0, and the folded number for a literal b,
which may have at most ``_MAX_LITERAL_BITS`` bits.
A "-" glued to digits is a negative number where an operand starts, and
the binary minus after an operand: "v1 -2" is v1 - 2.  The optional "-"
before a product (one not glued to digits) is 0 - product.  The
atom-level "-" is 0 - factor, so each one admits one more "^":
"v1*-v1^2^3" is v1*(0 - v1^2)^3.  An unsigned number without "/" whose
value is 1 or 0 ("1", "01", "00") is the constant One or Zero; every other
number is a ScalarMul coefficient of the rest of its product to the right:
"v1*2*v2*v3" is v1*(2*(v2*v3)).

A parse shares equal subterms: within one parse_term or parse_equation
call, two equal subterms are the same node object, so in
"f(f(v1)*v2) = f(v1)*v2" the right side is the argument of the left side's
outer f.  Nothing is shared between parses.  Equality, hashing and render
are structural and do not see the sharing; ``freeavg.eval_term`` uses it to
evaluate each distinct subterm once.  Nodes store their fields through
their slot descriptors' setters, cheaper than ``set_field``.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from fractions import Fraction

from ._record import Record, set_field
from .exactlin import QQ, _CHUNK_DIGITS, _MAX_LITERAL_BITS, _MAX_LITERAL_DIGITS, _decimal_int


class Term(Record):
    """Base class of the term nodes below, immutable records compared
    structurally.

    Equality and hashing give the ``Record`` results but walk an explicit
    stack instead of recursing into subterms, so a term of any depth can be
    compared, hashed and kept in a set or dict.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            for x, y in zip(a._astuple(a), b._astuple(b)):
                if isinstance(x, Term):
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        # post-order; a tuple's hash depends only on its items' hashes, so
        # a node's fields with each subterm replaced by a _Hashed of its hash
        # give the Record hash
        hashes = {}
        todo = [self]
        while todo:
            node = todo[-1]
            fields = node._astuple(node)
            pending = [x for x in fields if isinstance(x, Term) and id(x) not in hashes]
            if pending:
                todo += pending
                continue
            todo.pop()
            hashes[id(node)] = hash(tuple(_Hashed(hashes[id(x)]) if isinstance(x, Term)
                                          else x for x in fields))
        return hashes[id(self)]


class _Hashed:
    """A stand-in whose hash is a given hash value; an int would not do, as
    ``hash`` reduces ints modulo 2**61 - 1."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


class Var(Term):
    __slots__ = ("index",)  # >= 1; prints as v<index>

    def __init__(self, index: int):
        _set_index(self, index)


class One(Term):
    __slots__ = ()


class Zero(Term):
    __slots__ = ()


class _Binary(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set_left(self, left)
        _set_right(self, right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class ScalarMul(Term):
    __slots__ = ("coeff", "arg")

    def __init__(self, coeff: Fraction, arg: Term):
        _set_coeff(self, coeff)
        _set_scaled_arg(self, arg)


class F(Term):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        _set_f_arg(self, arg)


class Pow(Term):
    """The n-fold product of ``base``, n >= 2; it renders as that product."""

    __slots__ = ("base", "n")

    def __init__(self, base: Term, n: int):
        if n < 2:
            raise ValueError(f"a Pow exponent is at least 2, got {n}")
        _set_base(self, base)
        _set_n(self, n)


# the slot setters that the node classes above store their fields through
_set_index, _set_f_arg = Var.index.__set__, F.arg.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_coeff, _set_scaled_arg = ScalarMul.coeff.__set__, ScalarMul.arg.__set__
_set_base, _set_n = Pow.base.__set__, Pow.n.__set__


class Equation(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class IdentitySet(Enum):
    """The three hypothesis sets the decision procedure accepts."""

    AVERAGING = "averaging"
    UNITARY_AVERAGING = "unitary"
    REYNOLDS_AVERAGING = "reynolds"


class TermSyntaxError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        # pos is a character index; report the byte offset into the UTF-8 text
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"syntax error at byte {self.offset}: {message}")


# one token: a numeric literal with the "-" glued to it, a variable, or any
# other single character; the whitespace before it is skipped
_TOKEN = re.compile(r"\s*(-?[0-9]+|v[0-9]*|\S)")


def _error(text: str, k: int, message: str, end: bool = False) -> TermSyntaxError:
    # at the start (or end) of token k, or at the end of text past the last one
    m = next(itertools.islice(_TOKEN.finditer(text), k, None), None)
    return TermSyntaxError(message, text, len(text) if m is None
                           else m.end(1) if end else m.start(1))


def _int(text: str, k: int, digits: str, unsigned: str = "") -> int:
    """The digits of token k; with an ``unsigned`` message, a token that does
    not start with an ASCII digit is that syntax error.  A run of digits
    past the literal bound is too many, whatever the interpreter's int
    conversion limit."""
    if unsigned and not "0" <= digits[:1] <= "9":
        raise _error(text, k, unsigned)
    if len(digits) > _MAX_LITERAL_DIGITS:
        raise _error(text, k, "too many digits")
    return int(digits) if len(digits) < _CHUNK_DIGITS else _decimal_int(digits)


# the field types a hash-consing key holds by value, not by id
_SCALARS = frozenset((int, Fraction, type(None)))


def _parse(text: str, equation: bool):
    """The term (or equation) of text, read in one pass over its tokens.

    Every "(" and "f(" pushes the state of the enclosing term onto ``stack``
    instead of recursing.  That state: ``total``, the sum so far, joined to
    the next product by ``op``; ``neg``, a leading "-" on the product;
    ``scaled``, its (plain factors, literal) pairs so far, and ``run``, its
    plain factors after the last literal; ``minus``, the atom-level "-"
    signs pending on the current factor.

    Nodes are hash-consed: ``node`` returns the one node of this parse with
    the given class and fields, and all constants are ``one`` and ``zero``,
    so equal subterms are one object.
    """
    # keyed by the class, the id of each child (hash-consed itself, so its
    # id stands for its structure) and the Var index, ScalarMul coefficient
    # or Pow exponent; the table keeps every node alive, so no id is reused
    table = {}
    one, zero = One(), Zero()

    def node(cls, x, y=None):
        key = (cls, x if type(x) in _SCALARS else id(x), y if type(y) in _SCALARS else id(y))
        made = table.get(key)
        if made is None:
            made = table[key] = cls(x) if y is None else cls(x, y)
        return made

    toks = _TOKEN.findall(text)
    toks.append("")  # end of input
    i = 0
    stack = []
    lhs = None
    closer = ""  # "(" or "f" inside a group
    total = op = run = None
    neg = False
    scaled = []
    minus = 0
    start = True  # at the first atom of a signed product
    while True:
        tok = toks[i]
        i += 1
        if tok == "-":
            if start:
                neg = True
                start = False
            else:
                minus += 1
            continue
        start = False
        if tok == "(" or tok == "f":
            if tok == "f":
                if toks[i] != "(":
                    raise _error(text, i, "expected '('")
                i += 1
            stack.append((closer, total, op, neg, scaled, run, minus))
            closer, total, op, neg, scaled, run, minus = tok, None, None, False, [], None, 0
            start = True
            continue
        if tok[:1] == "v":
            if tok == "v":
                raise _error(text, i - 1, "expected digits", end=True)
            # str prints an index of at most _CHUNK_DIGITS digits under every
            # int string limit (640 digits is the least), so a longer one is
            # refused here rather than when it is printed
            if len(tok) > _CHUNK_DIGITS + 1:
                raise _error(text, i - 1, "too many digits")
            index = int(tok[1:])
            if index < 1:
                raise _error(text, i - 1, "variable index must be positive", end=True)
            value = node(Var, index)
        elif "0" <= tok[-1:] <= "9":
            num = _int(text, i - 1, tok)
            if toks[i] == "/":
                den = _int(text, i + 1, toks[i + 1], "expected denominator digits")
                if not den:
                    raise _error(text, i + 1, "zero denominator")
                value = Fraction(num, den)
                i += 2
            # unsigned "1" and "0" are the constants, also spelled "01" or
            # "00"; "1/1" and "0/1" stay literals so that unit and zero
            # ScalarMul coefficients have a spelling
            elif num == 1 and tok[0] != "-":
                value = one
            elif num == 0 and tok[0] != "-":
                value = zero
            else:
                value = Fraction(num)
        elif tok:
            raise _error(text, i - 1, f"unexpected character {tok!r}")
        else:
            raise _error(text, i - 1, "unexpected end of input")

        # value is a complete atom (a Fraction for a literal); fold it into
        # the factor, the product and the sum, closing groups as they end
        while True:
            # atom := "-" factor, so each pending "-" admits one more "^n"
            while True:
                if toks[i] == "^":
                    n = _int(text, i + 1, toks[i + 1], "expected digits")
                    i += 2
                    if type(value) is Fraction:
                        # the power's size, estimated as n times the bit
                        # length of the base, is bounded: 2^20 bits fold in
                        # milliseconds, "2^777777777777" would run for hours
                        big = max(abs(value.numerator), value.denominator)
                        if n > 1 and big > 1 and n * big.bit_length() > _MAX_LITERAL_BITS:
                            raise _error(text, i - 1, "literal power too large")
                        value **= n
                    elif n == 0:
                        value = one
                    elif n > 1:
                        value = node(Pow, value, n)
                if not minus:
                    break
                minus -= 1
                value = -value if type(value) is Fraction else node(Sub, zero, value)
            if type(value) is Fraction:
                scaled.append((run, value))
                run = None
            else:
                run = value if run is None else node(Mul, run, value)
            tok = toks[i]
            if tok == "*":
                i += 1
                break
            # the product is complete: a*2*b*c is Mul(a, ScalarMul(2, Mul(b, c)))
            prod, run = (one if run is None else run), None
            if scaled:
                for left, c in reversed(scaled):
                    prod = node(ScalarMul, c, prod)
                    if left is not None:
                        prod = node(Mul, left, prod)
                scaled = []
            if neg:
                prod, neg = node(Sub, zero, prod), False
            total = prod if op is None else node(op, total, prod)
            if tok == "+" or tok[:1] == "-":
                op = Add if tok == "+" else Sub
                if len(tok) > 1:
                    toks[i] = tok[1:]  # after an operand "-2" is "-" then "2"
                else:
                    i += 1
                start = True
                break
            if closer:
                if tok != ")":
                    raise _error(text, i, "expected ')'")
                i += 1
                value = total if closer == "(" else node(F, total)
                closer, total, op, neg, scaled, run, minus = stack.pop()
                continue
            if equation and lhs is None:
                if tok != "=":
                    raise _error(text, i, "expected '='")
                lhs, total, op = total, None, None
                i += 1
                start = True
                break
            if tok:
                raise _error(text, i, "trailing input")
            return total if lhs is None else Equation(lhs, total)


def parse_term(text: str) -> Term:
    return _parse(text, False)


def parse_equation(text: str) -> Equation:
    return _parse(text, True)


def _lit(r: Fraction) -> str:
    # "1" and "0" would read back as the constants, so force fraction form
    s = QQ.render(r)
    if s in ("1", "0"):
        s += "/1"
    return s


# the separator of each binary node, bare and before a parenthesized right
# operand, and the operand types it parenthesizes on the left and the right
_BINARY_FORMS = {
    Add: (" + ", " + (", (), (Add, Sub)),
    Sub: (" - ", " - (", (), (Add, Sub)),
    Mul: ("*", "*(", (Add, Sub, ScalarMul), (Add, Sub, Mul, ScalarMul, Pow)),
}


def render(t: Term) -> str:
    """Concrete syntax for t.

    A Pow prints as the left-nested Mul chain of its copies, so for Pow-free
    t, parse(render(t)) is structurally t, and for every t,
    render(parse(render(t))) == render(t).  Powers that would take more than
    ``_MAX_LITERAL_BITS`` characters in all, written out, are a ``ValueError``.
    """
    # pre-order over an explicit stack of nodes and literal strings, each
    # node's pieces pushed right to left so that they pop in output order; a
    # Pow's base is rendered once, then its output is taken back and repeated;
    # spent is the written-out length of the outermost powers so far
    out = []
    todo = [t]
    spent = 0
    while todo:
        node = todo.pop()
        tp = type(node)
        if tp is str:
            out.append(node)
        elif tp is Var:
            out.append(f"v{node.index}")
        elif tp in _BINARY_FORMS:
            sep, sep_paren, paren_left, paren_right = _BINARY_FORMS[tp]
            left, right = node.left, node.right
            todo += (")", right, sep_paren) if type(right) in paren_right else (right, sep)
            todo += (")", left, "(") if type(left) in paren_left else (left,)
        elif tp is F:
            todo += (")", node.arg, "f(")
        elif tp is Pow:
            todo += ((len(out), spent, node), node.base)
        elif tp is tuple:
            start, spent, node = node
            base = "".join(out[start:])
            del out[start:]
            _, _, paren_left, paren_right = _BINARY_FORMS[Mul]
            first = f"({base})" if type(node.base) in paren_left else base
            rest = f"*({base})" if type(node.base) in paren_right else f"*{base}"
            spent += len(first) + len(rest) * (node.n - 1)
            if spent > _MAX_LITERAL_BITS:
                raise ValueError("the powers are too long to write out")
            out.append(first + rest * (node.n - 1))
        elif tp is ScalarMul:
            arg, lit = node.arg, _lit(node.coeff)
            if type(arg) is One:
                out.append(lit)
            elif type(arg) in (Add, Sub):
                todo += (")", arg, lit + "*(")
            else:
                todo += (arg, lit + "*")
        elif tp is One:
            out.append("1")
        elif tp is Zero:
            out.append("0")
        else:
            raise TypeError(f"not a Term: {node!r}")
    return "".join(out)
