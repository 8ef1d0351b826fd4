"""Terms of a commutative algebra with one extra unary operator symbol f.

Concrete syntax (EBNF):

    equation := term "=" term
    term     := ["-"] product (("+"|"-") ["-"] product)*
    product  := factor ("*" factor)*
    factor   := atom ["^" natural]
    atom     := rational | "1" | "0" | variable | "f" "(" term ")" | "(" term ")"
    variable := "v" digits
    rational := ["-"] digits ["/" digits]

"+", "-", "*" are left associative, "^" binds tighter than "*" and is sugar
for repeated multiplication, unary minus is sugar for 0 - t, and there is no
implicit multiplication.  Bare "1" and "0" are the constants; other numeric
literals become ScalarMul coefficients.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from ._record import Record, set_field


class Term(Record):
    """Base class of the term nodes below, immutable records compared
    structurally."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("index",)  # >= 1; prints as v<index>

    def __init__(self, index: int):
        set_field(self, "index", index)


class One(Term):
    __slots__ = ()


class Zero(Term):
    __slots__ = ()


class _Binary(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        set_field(self, "left", left)
        set_field(self, "right", right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class ScalarMul(Term):
    __slots__ = ("coeff", "arg")

    def __init__(self, coeff: Fraction, arg: Term):
        set_field(self, "coeff", coeff)
        set_field(self, "arg", arg)


class F(Term):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        set_field(self, "arg", arg)


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


class _RatLit:
    """Parser-internal marker for a numeric literal inside a product."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise TermSyntaxError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_digit_after_minus(self) -> bool:
        # true when the "-" at the cursor starts a signed numeric literal
        nxt = self.pos + 1
        return nxt < len(self.text) and self.text[nxt].isdigit()

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start:self.pos], 10)

    def term(self) -> Term:
        node = self.signed_product()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = Add(node, self.signed_product())
            elif ch == "-":
                self.pos += 1
                node = Sub(node, self.signed_product())
            else:
                return node

    def signed_product(self) -> Term:
        self.skip_ws()
        if self.peek() == "-" and not self.at_digit_after_minus():
            self.pos += 1
            return Sub(Zero(), self.product())
        return self.product()

    def product(self) -> Term:
        items = [self.factor()]
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                items.append(self.factor())
            else:
                break
        return self.build_product(items)

    def build_product(self, items) -> Term:
        # a numeric literal multiplies everything to its right, so the
        # leftmost literal splits the chain; plain factors fold left to right
        for i, item in enumerate(items):
            if isinstance(item, _RatLit):
                if len(items) == i + 1:
                    scaled: Term = ScalarMul(item.value, One())
                else:
                    scaled = ScalarMul(item.value, self.build_product(items[i + 1:]))
                if i == 0:
                    return scaled
                left = items[0]
                for t in items[1:i]:
                    left = Mul(left, t)
                return Mul(left, scaled)
        node = items[0]
        for t in items[1:]:
            node = Mul(node, t)
        return node

    def factor(self):
        base = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            n = self.digits()
            if isinstance(base, _RatLit):
                return _RatLit(base.value ** n)
            if n == 0:
                return One()
            node = base
            for _ in range(n - 1):
                node = Mul(node, base)
            return node
        return base

    def atom(self):
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            node = self.term()
            self.expect(")")
            return node
        if ch == "f":
            self.pos += 1
            self.expect("(")
            node = self.term()
            self.expect(")")
            return F(node)
        if ch == "v":
            self.pos += 1
            idx = self.digits()
            if idx < 1:
                self.error("variable index must be positive")
            return Var(idx)
        if ch == "-" and self.at_digit_after_minus():
            self.pos += 1
            return self.rational(negative=True)
        if ch == "-":
            self.pos += 1
            inner = self.factor()
            if isinstance(inner, _RatLit):
                return _RatLit(-inner.value)
            return Sub(Zero(), inner)
        if ch.isdigit():
            return self.rational(negative=False)
        self.error(f"unexpected character {ch!r}")

    def rational(self, negative: bool):
        num = self.digits()
        den = 1
        had_slash = False
        save = self.pos
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            den_pos = self.pos
            if not self.peek().isdigit():
                self.error("expected denominator digits")
            den = self.digits()
            if den == 0:
                self.pos = den_pos
                self.error("zero denominator")
            had_slash = True
        else:
            self.pos = save
        # bare "1" and "0" are the constants; "1/1" and "0/1" stay literals
        # so that unit and zero ScalarMul coefficients have a spelling
        if not had_slash and not negative:
            if num == 1:
                return One()
            if num == 0:
                return Zero()
        value = Fraction(num, den)
        if negative:
            value = -value
        return _RatLit(value)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    node = p.term()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return node


def parse_equation(text: str) -> Equation:
    p = _Parser(text)
    lhs = p.term()
    p.skip_ws()
    if p.peek() != "=":
        p.error("expected '='")
    p.pos += 1
    rhs = p.term()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return Equation(lhs, rhs)


def variables_of(t: Term) -> tuple:
    """Variable names occurring in t, deduplicated, sorted by index."""
    indices = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            indices.add(node.index)
        elif isinstance(node, (Add, Sub, Mul)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (ScalarMul, F)):
            stack.append(node.arg)
    return tuple(f"v{i}" for i in sorted(indices))


def _lit(r: Fraction) -> str:
    # "1" and "0" would read back as the constants, so force fraction form
    s = str(r)
    if s in ("1", "0"):
        s += "/1"
    return s


def render(t: Term) -> str:
    """Concrete syntax for t; parse(render(t)) is structurally t."""
    if isinstance(t, Var):
        return f"v{t.index}"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, F):
        return f"f({render(t.arg)})"
    if isinstance(t, Add):
        right = render(t.right)
        if isinstance(t.right, (Add, Sub)):
            right = f"({right})"
        return f"{render(t.left)} + {right}"
    if isinstance(t, Sub):
        right = render(t.right)
        if isinstance(t.right, (Add, Sub)):
            right = f"({right})"
        return f"{render(t.left)} - {right}"
    if isinstance(t, Mul):
        left = render(t.left)
        if isinstance(t.left, (Add, Sub, ScalarMul)):
            left = f"({left})"
        right = render(t.right)
        if isinstance(t.right, (Add, Sub, Mul, ScalarMul)):
            right = f"({right})"
        return f"{left}*{right}"
    if isinstance(t, ScalarMul):
        if isinstance(t.arg, One):
            return _lit(t.coeff)
        arg = render(t.arg)
        if isinstance(t.arg, (Add, Sub)):
            arg = f"({arg})"
        return f"{_lit(t.coeff)}*{arg}"
    raise TypeError(f"not a Term: {t!r}")
