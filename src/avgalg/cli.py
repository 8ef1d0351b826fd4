"""Command line front end.

Subcommands map one-to-one onto library operations: decide, eval, verify,
lie-induce, lie-analyze, chain, primary.  Every subcommand takes --json for
machine-readable output.  Exit codes: 0 for success or a positive verdict,
1 for a negative verdict (a failing claim, a non-averaging operator, a
bracket no averaging operator induces), 2 for malformed input, internal
errors or running out of memory.  A verdict is not re-derived before it is
printed: lie-induce prints the operator its linear system gives, which
``findim.induced_by_averaging`` proves averaging and inducing the bracket.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decide as D
from . import findim as FD
from . import freeavg as FA
from . import terms as T
from .exactlin import QQ, ring_from_name


def _scalar_default():
    return ring_from_name(os.environ.get("AVG_SCALAR_DEFAULT", "Q"))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_algebra(path: str) -> FD.StructureAlgebra:
    try:
        return FD.algebra_from_json(_load_json(path))
    except FD.NotAnAlgebraError as exc:
        raise FD.NotAnAlgebraError(f"{path}: {exc}", exc.failure) from None


def _emit(doc: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def cmd_decide(args) -> int:
    ring = _scalar_default()
    hypothesis = T.IdentitySet(args.hypothesis)
    texts = list(args.claim or [])
    if args.claims_file:
        with open(args.claims_file, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    texts.append(line)
    if not texts:
        raise ValueError("no claims given; use --claim or --claims-file")
    claims = [T.parse_equation(s) for s in texts]
    verdicts = D.implies(hypothesis, claims, ring)
    results = []
    lines = []
    any_fails = False
    for eq, v in zip(claims, verdicts):
        shown = f"{T.render(eq.lhs)} = {T.render(eq.rhs)}"
        if isinstance(v, D.Holds):
            results.append({"claim": shown, "verdict": "holds"})
            lines.append(f"HOLDS  {shown}")
        else:
            any_fails = True
            witness = v.witness.render()
            results.append({"claim": shown, "verdict": "fails", "witness": witness})
            lines.append(f"FAILS  {shown}")
            lines.append(f"  witness: {witness}")
    _emit({"hypothesis": hypothesis.value, "results": results},
          args.json, "\n".join(lines))
    return 1 if any_fails else 0


def cmd_eval(args) -> int:
    ring = _scalar_default()
    mode = FA.Mode(args.mode)
    term = T.parse_term(args.term)
    normal = FA.eval_term(term, mode, ring).render()
    # the input is rendered for the JSON document only: a power renders as
    # the product it stands for, which can dwarf its normal form
    doc = args.json and {"mode": mode.value, "input": T.render(term), "normal_form": normal}
    _emit(doc, args.json, normal)
    return 0


def cmd_verify(args) -> int:
    A = _load_algebra(args.algebra)
    F = FD.operator_from_json(A.ring, _load_json(args.operator))
    try:
        op, witness = FD.averaging_operator(A, F), None
    except FD.NotAveragingError as exc:
        op, witness = None, exc.witness
    unitary = FD.is_unitary(A, F)
    reynolds = None if op is None else FD.is_reynolds_averaging(A, op)
    doc = {
        "scalar": A.ring.name,
        "dim": A.dim,
        "averaging": op is not None,
        "averaging_witness": list(witness) if witness else None,
        "unitary": unitary,
        "reynolds": None if reynolds is None else reynolds.ok,
    }
    lines = [f"algebra: ok (dim {A.dim} over {A.ring.name})",
             f"averaging: {'yes' if op is not None else 'no'}"]
    if witness:
        lines.append(f"  witness basis pair: {witness}")
    lines.append(f"unitary: {'yes' if unitary else 'no'}")
    lines.append("reynolds: n/a" if reynolds is None
                 else f"reynolds: {'yes' if reynolds.ok else 'no'}")
    _emit(doc, args.json, "\n".join(lines))
    return 0 if op is not None else 1


def cmd_lie_induce(args) -> int:
    A = _load_algebra(args.algebra)
    L = FD.bracket_from_json(A.ring, _load_json(args.bracket))
    res = FD.induced_by_averaging(A, L)
    if isinstance(res, FD.Induced):
        R = A.ring
        doc = {"outcome": "induced",
               "t": [R.render(x) for x in res.t],
               "operator": FD.operator_to_json(res.operator)}
        human = ("INDUCED\n"
                 f"t = ({', '.join(R.render(x) for x in res.t)})\n"
                 "operator matrix:\n"
                 + "\n".join("  " + "  ".join(R.render(x) for x in row)
                             for row in res.operator.entries))
        _emit(doc, args.json, human)
        return 0
    if isinstance(res, FD.NotEndoInduced):
        _emit({"outcome": "not_endo_induced", "witness": list(res.witness)},
              args.json,
              f"NOT INDUCED: fails the endomorphism criterion at basis pair {res.witness}")
        return 1
    _emit({"outcome": "no_solution"}, args.json,
          "NOT INDUCED: the linear system for t has no solution")
    return 1


def cmd_lie_analyze(args) -> int:
    A = _load_algebra(args.algebra)
    F = FD.operator_from_json(A.ring, _load_json(args.operator))
    try:
        op = FD.averaging_operator(A, F)
    except FD.NotAveragingError as exc:
        _emit({"averaging": False, "witness": list(exc.witness)}, args.json,
              f"NOT AVERAGING: fails at basis pair {exc.witness}")
        return 1
    an = FD.lie_analysis(A, op)
    R = A.ring

    def series_doc(s):
        if s is None:
            return None
        return {"dims": [st.dim for st in s.stages], "reaches_zero": s.reaches_zero}

    nil = an.nilpotency
    doc = {
        "averaging": True,
        "bracket": FD.bracket_to_json(an.bracket),
        "derived": series_doc(an.derived),
        "lower_central": series_doc(an.lower_central),
        "nilpotency": ({"nilpotent": True, "k": nil.k}
                       if isinstance(nil, FD.Nilpotent) else {"nilpotent": False}),
        "kernel_equals_brackets": an.kernel_comparison.equal,
    }
    lines = ["averaging: yes"]
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            cell = an.bracket.table[i][j]
            lines.append(f"[e{i},e{j}] = ({', '.join(R.render(x) for x in cell)})")
    if an.derived is not None:
        for name, s in (("derived series", an.derived), ("lower central", an.lower_central)):
            lines.append(f"{name} dims: {' '.join(str(st.dim) for st in s.stages)}"
                         f" (reaches zero: {'yes' if s.reaches_zero else 'no'})")
    lines.append(f"image-power nilpotency: "
                 + (f"nilpotent at power {nil.k}" if isinstance(nil, FD.Nilpotent)
                    else "not nilpotent"))
    lines.append(f"kernel equals bracket span: "
                 f"{'yes' if an.kernel_comparison.equal else 'no'}")
    _emit(doc, args.json, "\n".join(lines))
    return 0


def cmd_chain(args) -> int:
    ring = _scalar_default()
    stages = FA.chain_witness(args.x_count, args.n, ring)
    # each stage extends the one before, so the last renders every generator
    names = [g.render() for g in stages[-1]]
    doc = {"x_count": args.x_count, "n": args.n,
           "stages": [names[:k] for k in range(1, args.n + 1)]}
    lines = [f"stage {k}: {', '.join(names[:k])}" for k in range(1, args.n + 1)]
    _emit(doc, args.json, "\n".join(lines))
    return 0


def cmd_primary(args) -> int:
    A, F = FD.primary_from_poly([QQ.parse(c) for c in args.coeff])
    doc = {"algebra": FD.algebra_to_json(A), "operator": FD.operator_to_json(F)}
    lines = [f"dim: {A.dim}", f"scalar: {A.ring.name}", "operator matrix:"]
    lines += ["  " + "  ".join(A.ring.render(x) for x in row) for row in F.entries]
    _emit(doc, args.json, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="avg",
        description="Averaging algebras: free objects, decision procedure, "
                    "and induced Lie structure.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide implications against a hypothesis set")
    p.add_argument("--hypothesis", required=True,
                   choices=[s.value for s in T.IdentitySet])
    p.add_argument("--claim", action="append", metavar="EQUATION")
    p.add_argument("--claims-file", metavar="PATH")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("eval", help="normal form of a term in a free object")
    p.add_argument("--mode", required=True, choices=[m.value for m in FA.Mode])
    p.add_argument("term")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="check an operator against the identity sets")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lie-induce",
                       help="find an averaging operator inducing a bracket")
    p.add_argument("algebra")
    p.add_argument("bracket")
    p.set_defaults(fn=cmd_lie_induce)

    p = sub.add_parser("lie-analyze",
                       help="structure report for an averaging operator")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.set_defaults(fn=cmd_lie_analyze)

    p = sub.add_parser("chain", help="strictly increasing averaging ideal chain")
    p.add_argument("x_count", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("primary",
                       help="quotient of Q[y] by a monic polynomial, "
                            "with its generator operator")
    p.add_argument("coeff", nargs="+",
                   help="ascending coefficients, rationals allowed")
    p.set_defaults(fn=cmd_primary)
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    # every avgalg error but InternalInvariantError is a ValueError, and so is
    # json.JSONDecodeError (tests/test_cli.py checks this stays true)
    except (ValueError, OSError, FD.InternalInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # json.load recurses once per nesting level of a JSON input file
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        # an input whose normal form outgrows memory; not a verdict
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
