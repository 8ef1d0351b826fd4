"""Print what exactlin and findim return on seeded random inputs.

For seeds 1-3 and each scalar ring Q, Z/2, Z/3, Z/5, Z/7, Z/4, Z/6, Z/9 and
Z/12, the script draws small matrices and monogenic algebras R[y]/(f), one
of them a field over Q, with three operators each (multiplication by an
element, a functional x -> lam(x)·1, and an arbitrary matrix).  It prints
one line per call of rref, nullspace, submodule_kernel, solve_linear,
char_poly, lie_analysis, ad_eigen, induced_by_averaging, check_domain and
kernel_equals_brackets.
A result is printed as its repr, so an int and an equal Fraction differ; a
refusal as its exception type and arguments, witnesses included.  Last come
the three literal readers, QQ.parse, ZMod(7).parse and parse_term, on
seeded digit strings of 599 to 5,000 digits, around the int string
conversion limits of Python 3.11+ (640 at least, 4,300 by default), and
on a few short literals that test their grammar (underscores, spaces
around "/").  A number read is printed by its digit count and its
residues, so the lines print under any limit, and the dump is the same
under every limit:

    PYTHONINTMAXSTRDIGITS=640 PYTHONPATH=src python3 tools/seeded_dump.py

Two trees, or two interpreters, compute the same values on these inputs
exactly when their dumps are byte-identical:

    PYTHONPATH=src python3 tools/seeded_dump.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/seeded_dump.py > old.txt
    diff old.txt new.txt

The dump's sha256 is committed as tools/seeded_dump.sha256, and CI fails
when the dump's digest differs from it; a change to an exact result
updates that file in the same commit:

    PYTHONPATH=src python3 tools/seeded_dump.py | sha256sum

Standard library only; the package is imported from PYTHONPATH.
"""

import random
import sys
from fractions import Fraction

from avgalg import exactlin as EL
from avgalg import findim as FD
from avgalg.terms import parse_term

SEEDS = (1, 2, 3)
MODULI = (2, 3, 5, 7, 4, 6, 9, 12)
LITERAL_DIGITS = (599, 600, 640, 4300, 4301, 5000)


def call(out, name, fn, *args):
    """One line: the call's name and its result, or the refusal."""
    try:
        result = repr(fn(*args))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        result = refusal(exc)
    out.write(f"  {name}: {result}\n")


def refusal(exc) -> str:
    """The exception's type, message and witness attributes."""
    return f"{type(exc).__name__}{exc.args!r} {sorted(vars(exc).items())!r}"


def scalar(rng, ring):
    """Zero about half the time, else a small value: over Q a fraction with
    denominator up to 3."""
    if rng.random() < 0.5:
        return ring.zero
    if ring is EL.QQ:
        return ring.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return ring.of(rng.randrange(ring.n))


def matrix(rng, ring, rows, cols):
    return EL.Matrix(ring, rows, cols,
                     tuple(tuple(scalar(rng, ring) for _ in range(cols)) for _ in range(rows)))


def monogenic(ring, f):
    """R[y]/(f) for monic f (ascending coefficients) in the basis of powers
    of y."""
    d, m = len(f) - 1, EL._modulus(ring)
    powers = [tuple(ring.one if i == k else ring.zero for i in range(d)) for k in range(d)]
    while len(powers) < 2 * d - 1:
        prev = powers[-1]
        shifted = (ring.zero,) + prev[:-1]
        powers.append(tuple((s - prev[-1] * c) % m for s, c in zip(shifted, f)))
    mul = tuple(tuple(powers[i + j] for j in range(d)) for i in range(d))
    return FD.StructureAlgebra.make(ring, powers[0], mul)


def dump_linear(out, rng, ring):
    for _ in range(3):
        m = matrix(rng, ring, rng.randint(0, 5), rng.randint(0, 5))
        out.write(f" matrix {m.entries!r}\n")
        call(out, "rref", EL.rref, m)
        call(out, "nullspace", EL.nullspace, m)
        call(out, "solve_linear", EL.solve_linear, m,
             tuple(scalar(rng, ring) for _ in range(m.rows)))
        if ring is not EL.QQ:
            call(out, "submodule_kernel", EL.submodule_kernel, ring, m)
    for _ in range(2):
        d = rng.randint(0, 5)
        m = matrix(rng, ring, d, d)
        out.write(f" square {m.entries!r}\n")
        call(out, "char_poly", EL.char_poly, m)


def dump_findim(out, rng, ring):
    for k in range(3):
        d = rng.randint(1, 4)
        f = tuple(scalar(rng, ring) for _ in range(d)) + (ring.one,)
        if k == 0 and ring is EL.QQ:
            # y^d - c with |c| prime is Eisenstein: a field, where ad_eigen runs
            f = (rng.choice((-3, -2, 2, 3, 5)),) + (0,) * (d - 1) + (1,)
        A = monogenic(ring, f)
        out.write(f" algebra y^{d} + ... with coefficients {f!r}\n")
        call(out, "check_domain", FD.check_domain, A)
        a = tuple(scalar(rng, ring) for _ in range(d))
        lam = [scalar(rng, ring) for _ in range(d)]
        operators = {
            "multiplication": EL.Matrix.from_cols(ring, A.row_products(a)),
            "functional": EL.Matrix.from_rows(
                ring, [lam] + [[ring.zero] * d for _ in range(d - 1)]),
            "arbitrary": matrix(rng, ring, d, d),
        }
        for name, F in operators.items():
            out.write(f"  operator {name} {F.entries!r}\n")
            call(out, "kernel_equals_brackets", FD.kernel_equals_brackets, A, F)
            call(out, "lie_analysis", FD.lie_analysis, A, F)
            call(out, "ad_eigen", FD.ad_eigen, A, F,
                 tuple(scalar(rng, ring) for _ in range(d)))
            try:
                L = FD.raw_bracket(A, F)
            except (ArithmeticError, ValueError) as exc:
                out.write(f"  raw_bracket: {refusal(exc)}\n")
                continue
            call(out, "induced_by_averaging", FD.induced_by_averaging, A, L)


def number(v) -> str:
    """An int or a Fraction by the digit counts of its numerator and
    denominator and their residues mod 10^9 + 7, printed without str() of
    a long int; two readings that differ in any of these differ in the
    dump."""
    v = Fraction(v)
    parts = (abs(v.numerator), v.denominator)
    return (f"{'-' * (v < 0)}{'/'.join(str(len(EL._decimal_str(x))) for x in parts)} digits, "
            f"{'/'.join(str(x % 1000000007) for x in parts)} mod 10^9 + 7")


def dump_literals(out):
    rng = random.Random("literals")
    for k in LITERAL_DIGITS:
        digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(k - 1))
        out.write(f"literal of {k} digits\n")
        call(out, "QQ.parse", lambda: number(EL.QQ.parse(digits)))
        call(out, "QQ.parse over 7", lambda: number(EL.QQ.parse(f"-{digits}/7")))
        call(out, "ZMod(7).parse", EL.ZMod(7).parse, digits)
        call(out, "parse_term", lambda: number(parse_term(f"{digits}*v1").coeff))
    # the grammar is the same at every length and on every interpreter
    out.write("literal grammar\n")
    for text in ("1_000", "1__0", "1 / 3", "1/ 3", "-1_0/3_0", ".5e-1_0", "7."):
        call(out, f"QQ.parse {text!r}", EL.QQ.parse, text)
        call(out, f"ZMod(7).parse {text!r}", EL.ZMod(7).parse, text)


def main(out=sys.stdout) -> None:
    rings = [EL.QQ] + [EL.ZMod(n) for n in MODULI]
    for seed in SEEDS:
        for ring in rings:
            out.write(f"seed {seed} ring {ring.name}\n")
            rng = random.Random(f"{seed} {ring.name}")
            dump_linear(out, rng, ring)
            dump_findim(out, rng, ring)
    dump_literals(out)


if __name__ == "__main__":
    main()
