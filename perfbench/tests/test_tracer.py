"""The tracer sees every call, whichever binding the caller used.

Run from the checkout root: ``python3 -m unittest discover -s perfbench/tests``.
The counts in SeedCounts are the program's at the commit that added the
benchmark; ROADMAP items 1 and 2 are expected to lower them.
"""

import contextlib
import io
import json
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import avgalg.cli  # noqa: E402
from avgalg import decide as D, exactlin as EL, findim as FD, terms as T  # noqa: E402

import reference as ref  # noqa: E402
from tracer import TARGETS, Tracer, span_name  # noqa: E402


def load(name):
    return json.loads((ROOT / "corpus" / name).read_text())


def qi_im():
    A = FD.algebra_from_json(load("qi.json"))
    return A, FD.operator_from_json(A.ring, load("im.json"))


def functional_y12():
    A, _ = FD.primary_from_poly([1] + [0] * 11 + [1])
    lam = [(i % 3) - 1 for i in range(12)]
    return A, EL.Matrix.from_rows(EL.QQ, ref.functional(lam, None))


def traced(fn):
    tracer = Tracer()
    with tracer.installed():
        fn()
    return tracer.calls


def profiled(fn):
    """Call counts of the traced functions from sys.setprofile, which sees
    every Python call whatever name it went through."""
    codes = {}
    for mod, qual in TARGETS:
        obj = sys.modules[f"avgalg.{mod}"]
        for part in qual.split("."):
            obj = getattr(obj, part)
        codes[obj.__code__] = span_name(mod, qual)
    counts = {}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            name = codes[frame.f_code]
            counts[name] = counts.get(name, 0) + 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def analyze_zn():
    R = EL.ZMod(12)
    table = ref.cyclic_table(4)
    A = FD.StructureAlgebra.make(R, ref.basis(4, 0, 12), table)
    F = EL.Matrix.from_rows(R, ref.functional([5, 3, 0, 8], 12))
    FD.lie_analysis(A, F)


def induce_and_eigen_q():
    A, F = FD.primary_from_poly([2, 0, -2, 1])
    FD.induced_by_averaging(A, FD.induced_bracket(A, F))
    FD.ad_eigen(A, F, (1, 1, 0))


def decide_claims():
    for hyp in T.IdentitySet:
        eq = T.parse_equation("f(f(v1^2 + v2)*f(2*v1)) = f(v1^2 + v2)*f(2*v1)")
        v = D.implies_one(hyp, eq, EL.QQ)
        T.render(eq.lhs)
        if isinstance(v, D.Fails):
            v.witness.render()


def cli_lie_analyze():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            avgalg.cli.main(["lie-analyze", "corpus/qi.json", "corpus/im.json"])
    finally:
        os.chdir(cwd)


class SeedCounts(unittest.TestCase):
    def test_lie_analysis_on_qi_im(self):
        A, F = qi_im()
        calls = traced(lambda: FD.lie_analysis(A, F))
        self.assertEqual(calls["findim.is_averaging"], 3)
        self.assertEqual(calls["findim.check_lie"], 3)

    def test_cli_lie_analyze(self):
        self.assertEqual(traced(cli_lie_analyze)["findim.is_averaging"], 4)

    def test_mul_vec_on_y12_plus_1(self):
        A, F = functional_y12()
        calls = traced(lambda: FD.lie_analysis(A, F))
        self.assertEqual(calls["findim.StructureAlgebra.mul_vec"], 10_921)


class Coverage(unittest.TestCase):
    def test_every_call_is_seen(self):
        A, F = qi_im()
        for fn in (lambda: FD.lie_analysis(A, F), analyze_zn, induce_and_eigen_q,
                   decide_claims, cli_lie_analyze):
            self.assertEqual(traced(fn), profiled(fn))

    def test_counts_repeat(self):
        self.assertEqual(traced(decide_claims), traced(decide_claims))
        self.assertEqual(traced(induce_and_eigen_q), traced(induce_and_eigen_q))

    def test_bindings_restored(self):
        before = {m: dict(vars(sys.modules[f"avgalg.{m}"]))
                  for m in ("exactlin", "findim", "freeavg", "decide", "terms", "cli")}
        before_cls = dict(vars(EL.Subspace)), dict(vars(FD.StructureAlgebra))
        traced(decide_claims)
        for m, d in before.items():
            self.assertEqual(d, dict(vars(sys.modules[f"avgalg.{m}"])))
        self.assertEqual(before_cls, (dict(vars(EL.Subspace)), dict(vars(FD.StructureAlgebra))))


if __name__ == "__main__":
    unittest.main()
