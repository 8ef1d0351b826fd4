"""The four workloads: seeded inputs, one operation each, and its check.

A workload is a list of ``Op`` values, one round.  The runner replays the
round in a fresh seeded order until its time is up, so every run covers the
same size mix and the seed only draws the concrete inputs.  Each ``check``
compares one result with ``reference`` and returns the mismatching fields as
``{field: (expected, actual)}``; an empty dict means correct.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref

# d per round for the Q workload, each with Q_PER_DIM seeded polynomials;
# a d=6 operation takes 0.1-0.2 s.  Equal counts per d put the median input
# in the d=5 group and the tail in the d=6 group.
Q_DIMS = (4, 5, 6)
Q_PER_DIM = 3
# moduli per round for Z/n: primes take the rref path, composites the
# Submodule/_hnf path
ZN_MODULI = (3, 5, 7, 11, 4, 6, 9, 12)
ZN_DIMS = (3, 4, 5, 6)
CLI_TIMEOUT_S = 60


class Op:
    __slots__ = ("instance", "run", "check", "known")

    def __init__(self, instance, run, check, known=None):
        self.instance = instance  # JSON-ready description of the input
        self.run = run            # () -> result; the timed part
        self.check = check        # result -> {field: (expected, actual)}
        # (fields, reason): a mismatch in exactly these fields is the named,
        # documented program defect; it is still counted as a failure
        self.known = known


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def _show(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_show(y) for y in x]
    return x


def _diff(expected: dict, actual: dict) -> dict:
    return {k: (_show(expected[k]), _show(actual.get(k)))
            for k in expected if expected[k] != actual.get(k)}


# ---------------------------------------------------------------------------
# findim: analyze / induce / eigen

def _series(s):
    return None if s is None else ([st.dim for st in s.stages], s.reaches_zero)


def _analyze_op(FD, A, F, instance, family, field, bracket, known=None):
    d = A.dim

    def run():
        report = FD.verify_algebra(A)
        avg = FD.is_averaging(A, F)
        return report.ok, avg.ok, FD.lie_analysis(A, F)

    def check(result):
        ok, avg, an = result
        nil = an.nilpotency
        actual = {
            "averaging": ok and avg,
            "bracket": an.bracket.table,
            "derived": _series(an.derived),
            "lower_central": _series(an.lower_central),
            "nilpotency": (type(nil).__name__, getattr(nil, "k", None)),
            "kernel_equals_brackets": an.kernel_comparison.equal,
        }
        expected = dict(ref.expected_analysis(family, d, field), bracket=bracket)
        return _diff(expected, actual)

    return Op(dict(instance, kind="analyze"), run, check, known)


def _induce_op(FD, A, L, instance, table, bracket):
    def run():
        return FD.induced_by_averaging(A, L)

    def check(res):
        if type(res).__name__ != "Induced":
            return {"outcome": ("Induced", type(res).__name__)}
        rows = res.operator.entries
        actual = {"averaging": ref.is_averaging(table, rows, None),
                  "bracket": ref.bracket_of(table, rows, None)}
        return _diff({"averaging": True, "bracket": bracket}, actual)

    return Op(dict(instance, kind="induce"), run, check)


def _eigen_op(FD, A, F, instance, family, lam, a):
    def run():
        return FD.ad_eigen(A, F, a)

    def check(res):
        expected = ref.expected_eigen(family, lam, a)
        got = dict(res)
        if set(got) != set(expected):
            return {"eigenvalues": (_show(sorted(expected)), _show(sorted(got)))}
        bad = {}
        for mu, (dim, member) in expected.items():
            vecs = got[mu].basis
            if len(vecs) != dim or ref.rank(vecs, None) != dim or not all(map(member, vecs)):
                bad[f"eigenspace {mu}"] = (f"dim {dim}", _show(vecs))
        return bad

    return Op(dict(instance, kind="eigen", a=_show(a)), run, check)


def _random_lam(rng, d, mod):
    """A functional with lam(1) a unit."""
    if mod is None:
        # signs only: entries of one size keep the cost of an input steady
        return [Fraction(rng.choice([-1, 1])) for _ in range(d)]
    units = [u for u in range(1, mod) if ref.is_unit(u, mod)]
    return [rng.choice(units)] + [rng.randrange(mod) for _ in range(d - 1)]


def _quotient(FD, coeffs):
    """primary_from_poly, checked against the reference structure constants."""
    A, F = FD.primary_from_poly(coeffs)
    table, powers = ref.quotient_table(coeffs)
    if [list(r) for r in A.mul] != table or F.entries != ref.mult_by_power(table, 1, None) \
            or tuple(A.unit) != powers[0]:
        raise RuntimeError(f"primary_from_poly({coeffs}) disagrees with the reference table")
    return A, F, table


def findim_q(avg, seed: int, root: Path):
    FD, EL = avg.findim, avg.exactlin
    QQ = EL.QQ
    rng = random.Random(seed)
    ops = []
    # y^d - c with |c| prime is Eisenstein, so Q[y]/(p) is a field and every
    # operation, ad_eigen included, applies to it; distinct c per d keep the
    # inputs distinct
    for d, c in [(d, c) for d in Q_DIMS for c in rng.sample([-5, -3, -2, 2, 3, 5], Q_PER_DIM)]:
        coeffs = [c] + [0] * (d - 1) + [1]
        A, Fm, table = _quotient(FD, coeffs)
        lam = _random_lam(rng, d, None)
        Ff = EL.Matrix.from_rows(QQ, ref.functional(lam, None))
        while True:
            a = tuple(Fraction(rng.choice([-1, 1])) for _ in range(d))
            if sum(x * y for x, y in zip(lam, a)) != 0:
                break
        mult = {"ring": "Q", "d": d, "p": coeffs, "family": "mult", "lam": None}
        func = dict(mult, family="functional", lam=_show(lam))
        bracket = ref.functional_bracket(lam, None)
        # five operations per algebra (the zero bracket of multiplication is
        # not induced) put the median and the tail inside a group of like
        # inputs rather than between two groups
        ops += [_analyze_op(FD, A, Fm, mult, "mult", True, ref.zero_bracket(d, None)),
                _eigen_op(FD, A, Fm, mult, "mult", lam, a),
                _analyze_op(FD, A, Ff, func, "functional", True, bracket),
                _induce_op(FD, A, FD.BracketTable.make(QQ, bracket), func, table, bracket),
                _eigen_op(FD, A, Ff, func, "functional", lam, a)]
    return ops


HNF_DEFECT = (("kernel_equals_brackets",),
              "Submodule bases are not canonical (_hnf reduces above pivots "
              "from the last pivot up), so == gives false negatives")


def findim_zn(avg, seed: int, root: Path):
    FD, EL = avg.findim, avg.exactlin
    rng = random.Random(seed)
    ops = []
    for n in ZN_MODULI:
        R = EL.ZMod(n)
        field = _is_prime(n)
        for d in ZN_DIMS:
            table = ref.cyclic_table(d)
            A = FD.StructureAlgebra.make(R, ref.basis(d, 0, n), table)
            k = rng.randrange(1, d)
            lam = _random_lam(rng, d, n)
            for family, rows, bracket, extra in (
                    ("mult", ref.mult_by_power(table, k, n), ref.zero_bracket(d, n), {"k": k}),
                    ("functional", ref.functional(lam, n), ref.functional_bracket(lam, n),
                     {"lam": lam})):
                F = EL.Matrix.from_rows(R, rows)
                inst = dict({"ring": f"Z/{n}", "d": d, "algebra": "y^d - 1",
                             "family": family}, **extra)
                ops.append(_analyze_op(FD, A, F, inst, family, field, bracket,
                                       None if field else HNF_DEFECT))
    return ops


# ---------------------------------------------------------------------------
# decide

_STEPS = ("f({x})", "({x})^2", "({x} + {leaf})", "({x})*{leaf}", "{k}*({x})")
AVERAGING_CLAIM = "f(({s})*f({t})) = f({s})*f({t})"
REYNOLDS_CLAIM = "f(f({s})*f({t})) = f({s})*f({t})"
# s runs once through every ordered choice of 3, 4 or 5 distinct steps
S_STEPS = [seq for depth in (3, 4, 5) for seq in itertools.permutations(_STEPS, depth)]


def build_term(rng, steps) -> str:
    """A variable wrapped in ``steps``, inner first.  The added or multiplied
    leaf is always the other variable, so which variable starts does not
    change the cost."""
    x, leaf = rng.sample(["v1", "v2"], 2)
    for step in steps:
        x = step.format(x=x, leaf=leaf, k=rng.choice([2, 3]))
    return x


def decide_claims(seed: int, count: int = len(S_STEPS)):
    """(text, hypothesis value, expected verdict) triples for ``count`` pairs.

    Only +, *, f, ^2 and positive scalars occur, so no term is zero.  Every
    seed uses each step sequence for s once, which keeps the cost of a round,
    and of its slowest claims, the same across seeds; the seed draws the
    order, t (one step), the scalars and which variable starts.

    f(s*f(t)) = f(s)*f(t) is an averaging instance and holds everywhere;
    f(f(s)*f(t)) = f(s)*f(t) is a Reynolds instance: it holds under unitary
    and reynolds, and under plain averaging its difference is
    (f(1) - 1)*f(s)*f(t), which is nonzero."""
    rng = random.Random(seed)
    seqs = list(S_STEPS)
    rng.shuffle(seqs)
    out = []
    for seq in seqs[:count]:
        s = build_term(rng, seq)
        t = build_term(rng, [rng.choice(_STEPS)])
        for tmpl, reynolds in ((AVERAGING_CLAIM, False), (REYNOLDS_CLAIM, True)):
            text = tmpl.format(s=s, t=t)
            for hyp in ("averaging", "unitary", "reynolds"):
                out.append((text, hyp, "fails" if reynolds and hyp == "averaging" else "holds"))
    return out


def decide(avg, seed: int, root: Path):
    D, T, EL = avg.decide, avg.terms, avg.exactlin
    ops = []
    for text, hyp, verdict in decide_claims(seed):
        hypothesis = T.IdentitySet(hyp)

        def run(text=text, hypothesis=hypothesis):
            # what `avg decide` does per claim: parse, decide, render
            eq = T.parse_equation(text)
            v = D.implies_one(hypothesis, eq, EL.QQ)
            shown = f"{T.render(eq.lhs)} = {T.render(eq.rhs)}"
            witness = v.witness.render() if isinstance(v, D.Fails) else None
            return v, shown, witness

        def check(res, verdict=verdict):
            v, _, witness = res
            got = "fails" if isinstance(v, D.Fails) else "holds"
            if got != verdict:
                return {"verdict": (verdict, got)}
            if got == "fails" and (v.witness.is_zero() or witness in ("", "0")):
                return {"witness": ("nonzero", witness)}
            return {}

        ops.append(Op({"claim": text, "hypothesis": hyp}, run, check))
    return ops


# ---------------------------------------------------------------------------
# cli

def cli_cases(root: Path):
    """(name, argv, exit code, golden bytes or None for the --json variant)."""
    manifest = json.loads((root / "corpus" / "manifest.json").read_text())
    out = []
    for case in manifest["cases"]:
        argv = case["argv"]
        golden = (root / "corpus" / case["golden"]).read_bytes()
        out.append((case["name"], argv, case["exit"], golden))
        out.append((case["name"] + "--json", [argv[0], "--json"] + argv[1:], case["exit"], None))
    return out


def cli(avg, seed: int, root: Path, traced: bool = False):
    from run import child_env
    env = child_env()
    env.pop("AVG_SCALAR_DEFAULT", None)
    ops = []
    for name, argv, code, golden in cli_cases(root):
        prefix = ([sys.executable, str(root / "perfbench" / "trace_cli.py")] if traced
                  else [sys.executable, "-m", "avgalg.cli"])

        def run(cmd=prefix + argv):
            return subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)

        def check(proc, code=code, golden=golden):
            bad = {}
            if proc.returncode != code:
                bad["exit"] = (code, proc.returncode)
            if golden is not None:
                if proc.stdout != golden:
                    bad["stdout"] = (golden.decode(), proc.stdout.decode(errors="replace"))
            else:
                try:
                    json.loads(proc.stdout)
                except ValueError as exc:
                    bad["json"] = ("parses", str(exc))
            return bad

        ops.append(Op({"case": name}, run, check))
    return ops


WORKLOADS = {"findim_q": findim_q, "findim_zn": findim_zn, "decide": decide, "cli": cli}
