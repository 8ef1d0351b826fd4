"""The benchmark's closed-form references, proven by brute force on tiny cases.

Run with ``python3 -m unittest discover -s perfbench/tests`` from the checkout
root.  Nothing here imports avgalg: these tests vouch for the references, so a
mismatch in a benchmark run is charged to the program.
"""

import itertools
import random
import re
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

TINY = [(n, d) for n in (2, 3, 4, 5, 6, 8, 9, 12) for d in (2, 3, 4, 5)
        if n ** d <= 10_000]


def bracket_span(table, mat, mod):
    d = len(mat)
    br = ref.bracket_of(table, mat, mod)
    return [br[i][j] for i in range(d) for j in range(i + 1, d)]


class ZnClosedForms(unittest.TestCase):
    def test_functional_kernel_is_the_bracket_span(self):
        rng = random.Random(7)
        for n, d in TINY:
            table = ref.cyclic_table(d)
            for _ in range(3):
                lam = workloads._random_lam(rng, d, n)
                F = ref.functional(lam, n)
                self.assertTrue(ref.is_averaging(table, F, n))
                self.assertEqual(ref.bracket_of(table, F, n), ref.functional_bracket(lam, n))
                self.assertEqual(ref.kernel(F, n),
                                 ref.generated(bracket_span(table, F, n), d, n), (n, d, lam))

    def test_multiplication_has_zero_bracket_and_kernel(self):
        for n, d in TINY:
            table = ref.cyclic_table(d)
            for k in range(1, d):
                F = ref.mult_by_power(table, k, n)
                self.assertTrue(ref.is_averaging(table, F, n))
                self.assertEqual(ref.bracket_of(table, F, n), ref.zero_bracket(d, n))
                self.assertEqual(ref.kernel(F, n), frozenset({(0,) * d}))

    def test_hnf_reproducer_spans_are_one_set(self):
        # over Z/4, Submodule.span gave these two spans different bases when
        # this test was written (see NOTES.md, "Known defect")
        a = ref.generated([(3, 3, 3), (1, 2, 0), (3, 1, 3)], 3, 4)
        b = ref.generated([(3, 1, 3), (2, 1, 1), (0, 2, 0)], 3, 4)
        self.assertEqual(a, b)


def series_dims(lam, mod):
    """Derived and lower central dims of the functional's bracket, by ranks."""
    d = len(lam)
    br = ref.functional_bracket(lam, mod)

    def brk(x, y):
        out = [ref.norm(0, mod)] * d
        for i, j in itertools.product(range(d), repeat=2):
            if x[i] and y[j]:
                out = [ref.norm(o + x[i] * y[j] * c, mod) for o, c in zip(out, br[i][j])]
        return tuple(out)

    full = [ref.basis(d, i, mod) for i in range(d)]
    derived, lower = [full], [full]
    for series, right in ((derived, None), (lower, full)):
        while True:
            cur = series[-1]
            nxt = [brk(x, y) for x in cur for y in (right or cur)]
            nxt = [v for v in nxt if any(v)]
            r = ref.rank(nxt, mod)
            if r == ref.rank(cur, mod):
                break
            series.append(nxt)
            if r == 0:
                break
    return ([ref.rank(s, mod) if s else 0 for s in derived],
            [ref.rank(s, mod) if s else 0 for s in lower])


class FieldClosedForms(unittest.TestCase):
    def test_series_over_q_and_z_p(self):
        rng = random.Random(3)
        for mod in (None, 3, 5, 7):
            for d in (2, 3, 4, 5):
                lam = workloads._random_lam(rng, d, mod)
                derived, lower = series_dims(lam, mod)
                exp = ref.expected_analysis("functional", d, True)
                self.assertEqual(derived, exp["derived"][0], (mod, d, lam))
                self.assertEqual(lower, exp["lower_central"][0], (mod, d, lam))

    def test_quotient_table_is_polynomial_multiplication(self):
        rng = random.Random(5)
        for d in (2, 3, 4, 5):
            p = [rng.randint(-3, 3) for _ in range(d)] + [1]
            table, _ = ref.quotient_table(p)
            for i, j in itertools.product(range(d), repeat=2):
                prod = [Fraction(0)] * (i + j + 1)
                prod[i + j] = Fraction(1)
                for top in range(len(prod) - 1, d - 1, -1):  # long division by p
                    c = prod[top]
                    for k in range(d + 1):
                        prod[top - d + k] -= c * p[k]
                self.assertEqual(tuple(prod[:d] + [0] * (d - len(prod))), table[i][j])

    def test_eigen_closed_form(self):
        rng = random.Random(11)
        for d in (2, 3, 4, 5):
            p = [2] + [rng.choice([-2, 0, 2]) for _ in range(d - 1)] + [1]
            table, _ = ref.quotient_table(p)
            lam = workloads._random_lam(rng, d, None)
            a = tuple(Fraction(rng.randint(1, 3)) for _ in range(d))
            if sum(x * y for x, y in zip(lam, a)) == 0:
                continue
            # explicit bases of the claimed eigenspaces
            ker_lam = [tuple(Fraction(1 if k == i else 0) - (lam[i] / lam[0] if k == 0 else 0)
                             for k in range(d)) for i in range(1, d)]
            for family, F in (("mult", ref.mult_by_power(table, 1, None)),
                              ("functional", ref.functional(lam, None))):
                fa = ref.apply(F, a, None)

                def ad(x):
                    u = ref.mul_vec(table, a, ref.apply(F, x, None), None)
                    v = ref.mul_vec(table, x, fa, None)
                    return tuple(s - t for s, t in zip(u, v))

                spaces = ref.expected_eigen(family, lam, a)
                self.assertEqual(sum(dim for dim, _ in spaces.values()), d)
                for mu, (dim, member) in spaces.items():
                    if family == "mult":
                        vecs = [ref.basis(d, i, None) for i in range(d)]
                    else:
                        vecs = [a] if mu == 0 else ker_lam
                    self.assertEqual(ref.rank(vecs, None), dim)
                    for v in vecs:
                        self.assertTrue(member(v))
                        self.assertEqual(ad(v), tuple(mu * x for x in v))


TOKEN = re.compile(r"\s*(\d+|v\d+|f|[()+*^=])")


def evaluate(text, env, mul, F):
    """Evaluate a claim side of the benchmark's term syntax in a concrete
    algebra: vectors with multiplication ``mul`` and operator ``F``."""
    toks = TOKEN.findall(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = prod()
        while peek() == "+":
            take()
            v = tuple(x + y for x, y in zip(v, prod()))
        return v

    def prod():
        v = power()
        while peek() == "*":
            take()
            v = mul(v, power())
        return v

    def power():
        v = atom()
        if peek() == "^":
            take()
            base = v
            for _ in range(int(take()) - 1):
                v = mul(v, base)
        return v

    def atom():
        t = take()
        if t == "(":
            v = expr()
            take()
            return v
        if t == "f":
            take()
            v = F(expr())
            take()
            return v
        if t.isdigit():
            take()  # the '*' after a scalar
            return tuple(int(t) * x for x in power())
        return env[t]

    return expr()


class DecideByConstruction(unittest.TestCase):
    def test_verdicts_in_concrete_models(self):
        """In Q[y]/(y^2 - 2) with F(x) = lam(x)*1: lam(1) = 2 gives an averaging
        operator that is not unitary, lam(1) = 1 a unitary Reynolds one.  A
        claim the benchmark expects to fail must fail in the first model; one
        it expects to hold must hold in the model of its hypothesis."""
        table, _ = ref.quotient_table([-2, 0, 1])
        rng = random.Random(2)
        models = {}
        for name, lam in (("averaging", (2, 1)), ("unitary", (1, 3))):
            F = ref.functional(lam, None)
            self.assertTrue(ref.is_averaging(table, F, None))
            models[name] = F
        models["reynolds"] = models["unitary"]
        for text, hyp, verdict in workloads.decide_claims(seed=4, count=40):
            F = models[hyp]
            env = {v: tuple(Fraction(rng.randint(1, 4)) for _ in range(2)) for v in ("v1", "v2")}
            lhs, rhs = text.split("=")
            sides = [evaluate(s, env, lambda x, y: ref.mul_vec(table, x, y, None),
                              lambda x: ref.apply(F, x, None)) for s in (lhs, rhs)]
            self.assertEqual(sides[0] == sides[1], verdict == "holds", (text, hyp))


if __name__ == "__main__":
    unittest.main()
