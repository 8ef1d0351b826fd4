import decimal
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import time

import pytest

import avgalg
from avgalg import terms
from avgalg.cli import main
from avgalg.findim import InternalInvariantError

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "corpus" / "manifest.json").read_text())


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda c: c["name"])
def test_corpus_matches_golden(case, capsys):
    code = main(case["argv"])
    out = capsys.readouterr().out
    golden = (ROOT / "corpus" / case["golden"]).read_text()
    assert out == golden
    assert code == case["exit"]


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda c: c["name"])
def test_corpus_json_variant_parses(case, capsys):
    # insert the flag before any "--" separator in the argv
    code = main([case["argv"][0], "--json"] + case["argv"][1:])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == case["exit"]
    command = case["argv"][0]
    if command == "decide":
        assert set(doc) == {"hypothesis", "results"}
        for entry in doc["results"]:
            assert entry["verdict"] in ("holds", "fails")
            if entry["verdict"] == "fails":
                assert entry["witness"]
    elif command == "eval":
        assert set(doc) == {"mode", "input", "normal_form"}
    elif command == "verify":
        assert {"averaging", "unitary", "reynolds"} <= set(doc)
    elif command == "lie-induce":
        assert doc["outcome"] in ("induced", "not_endo_induced", "no_solution")
        if doc["outcome"] == "induced":
            assert "t" in doc and "operator" in doc
    elif command == "lie-analyze":
        assert {"averaging", "bracket", "nilpotency",
                "kernel_equals_brackets"} <= set(doc)
    elif command == "chain":
        assert len(doc["stages"]) == doc["n"]
    elif command == "primary":
        assert set(doc) == {"algebra", "operator"}


def test_main_catches_every_avgalg_error():
    # main catches (ValueError, OSError, InternalInvariantError); that stays
    # complete while every other error class in avgalg is a ValueError
    errors = set()
    for info in pkgutil.iter_modules(avgalg.__path__):
        mod = importlib.import_module(f"avgalg.{info.name}")
        errors.update(obj for obj in vars(mod).values()
                      if isinstance(obj, type) and issubclass(obj, Exception)
                      and obj.__module__.startswith("avgalg."))
    assert len(errors) >= 10
    for exc in errors:
        assert issubclass(exc, (ValueError, InternalInvariantError)), exc
    assert issubclass(json.JSONDecodeError, ValueError)


def test_parse_error_exits_two(capsys):
    code = main(["decide", "--hypothesis", "averaging", "--claim", "f(v1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_eval_reports_syntax_position(capsys):
    code = main(["eval", "--mode", "plain", "v1 @ v2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "byte 3" in err


def test_missing_file_exits_two(capsys):
    code = main(["verify", "corpus/does_not_exist.json", "corpus/im.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_algebra_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scalar": "Q", "dim": 2, "unit": ["1"], "mul": []}')
    code = main(["verify", str(bad), "corpus/im.json"])
    assert code == 2


def test_unverified_algebra_exits_two(tmp_path, capsys):
    doc = {"scalar": "Q", "dim": 2, "unit": ["0", "1"],
           "mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]]}
    bad = tmp_path / "nonunital.json"
    bad.write_text(json.dumps(doc))
    code = main(["verify", str(bad), "corpus/im.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {bad}: not a commutative unital algebra: ('unit', (0,))\n"


@pytest.mark.parametrize("argv", [["verify", "corpus/im.json"],
                                  ["lie-analyze", "corpus/im.json"],
                                  ["lie-analyze", "--json", "corpus/im.json"]])
def test_noncommutative_algebra_exits_two(argv, tmp_path, capsys):
    # e_0 e_1 = e_1 but e_1 e_0 = 2 e_1: the loader refuses the table, with
    # its path, before the operator is read
    doc = {"scalar": "Q", "dim": 2, "unit": ["1", "0"],
           "mul": [[["1", "0"], ["0", "1"]], [["0", "2"], ["0", "0"]]]}
    bad = tmp_path / "noncommutative.json"
    bad.write_text(json.dumps(doc))
    code = main([argv[0], *argv[1:-1], str(bad), argv[-1]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == \
        f"error: {bad}: not a commutative unital algebra: ('commutativity', (0, 1))\n"


def test_bad_subcommand_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--hypothesis", "bogus", "--claim", "f(v1) = f(v1)"])
    assert exc.value.code == 2


def test_decide_requires_claims(capsys):
    code = main(["decide", "--hypothesis", "averaging"])
    assert code == 2
    assert "no claims" in capsys.readouterr().err


def test_bad_primary_coefficient_exits_two(capsys):
    code = main(["primary", "1/0", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad rational literal '1/0'")
    assert "Traceback" not in err


def test_huge_primary_coefficient_exits_two_at_once(capsys):
    # Fraction would build 10^999999999 exactly, for hours
    start = time.perf_counter()
    code = main(["primary", "--", "1e999999999", "1"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: literal '1e999999999' is too large")
    assert "Traceback" not in err
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["decide", "--hypothesis", "averaging",
     "--claim", "v1^99999999999999999999 = v1^99999999999999999999"],
    ["eval", "--json", "--mode", "plain", "v1^99999999999999999999"],
    ["decide", "--hypothesis", "averaging", "--claim", "v1^3000000 = v1^3000000"],
])
def test_power_too_long_to_write_out_exits_two(argv, capsys):
    # the claim or the --json input is written out as its product; one past
    # the literal bound is malformed input, refused before it is built
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_short_power_is_written_out(capsys):
    assert main(["eval", "--json", "--mode", "plain", "v1^3"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == "v1*v1*v1"


def test_scalar_default_env(monkeypatch, capsys):
    monkeypatch.setenv("AVG_SCALAR_DEFAULT", "Zmod:5")
    code = main(["eval", "--mode", "plain", "5*f(v1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "0"


def test_bad_scalar_default_env(monkeypatch, capsys):
    monkeypatch.setenv("AVG_SCALAR_DEFAULT", "Zmod:notanumber")
    code = main(["eval", "--mode", "plain", "f(v1)"])
    assert code == 2


def test_chain_json_matches_library(capsys):
    main(["chain", "2", "3", "--json"])
    doc = json.loads(capsys.readouterr().out)
    from avgalg.freeavg import chain_witness
    stages = chain_witness(2, 3)
    assert doc["stages"] == [[g.render() for g in st] for st in stages]


def test_chain_length_is_bounded(capsys):
    # n stages hold n (n + 1) / 2 generators: a length past 1,000 is refused
    # with exit 2 before any is built (the unbounded program ran out of
    # memory on 100,000; 1,001 is as refused and harmless without the
    # bound), and 1,000 runs in well under a second
    assert main(["chain", "1", "1001"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: chain length must be between 1 and 1000\n"
    assert captured.out == ""
    start = time.perf_counter()
    assert main(["chain", "1", "1000"]) == 0
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1000 and lines[1] == "stage 2: y[x1], y[x1^2]"
    assert lines[-1].startswith("stage 1000: y[x1], ") and lines[-1].endswith(", y[x1^1000]")
    assert lines[-1].count("y[") == 1000
    assert elapsed < 10, elapsed


def test_numeric_json_scalar_exits_two(tmp_path, capsys):
    doc = json.loads((ROOT / "corpus" / "qi.json").read_text())
    doc["unit"] = [1, 0]
    bad = tmp_path / "numeric_unit.json"
    bad.write_text(json.dumps(doc))
    code = main(["lie-analyze", str(bad), "corpus/im.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "must be a string" in err


def _qi_doc(**changes):
    doc = json.loads((ROOT / "corpus" / "qi.json").read_text())
    doc.update(changes)
    return doc


QI_MUL = _qi_doc()["mul"]


@pytest.mark.parametrize("doc", [
    _qi_doc(scalar=5), _qi_doc(scalar=None), _qi_doc(scalar=["Q"]),
    _qi_doc(unit="10"),
    _qi_doc(mul=[["10", QI_MUL[0][1]], QI_MUL[1]]),
    _qi_doc(mul="0110"),
    _qi_doc(scalar="Zmod:1_3", unit=["1", "0"]),
    _qi_doc(scalar="Zmod:3317044064679887385961981"),
    _qi_doc(dim=2.7), _qi_doc(dim="2"), _qi_doc(dim=True),
], ids=["scalar_int", "scalar_null", "scalar_list", "unit_string", "mul_cell_string",
        "mul_string", "modulus_underscore", "modulus_above_bound",
        "dim_float", "dim_string", "dim_bool"])
def test_malformed_wire_format_exits_two(doc, tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["verify", str(path), "corpus/im.json"])
    err = capsys.readouterr().err
    assert (code, err.startswith("error:"), "Traceback" in err) == (2, True, False)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("doc,kind", [
    ({"matrix": ["01", "00"]}, "operator"), ({"matrix": "0100"}, "operator"),
    ({"table": [["00", "00"], ["00", "00"]]}, "bracket"),
])
def test_string_vectors_in_operator_and_bracket_exit_two(doc, kind, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    command = "verify" if kind == "operator" else "lie-induce"
    code = main([command, "corpus/qi.json", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "JSON array" in err


def test_large_prime_modulus_verifies_quickly(tmp_path, capsys):
    # 10^18 + 3 is prime; Z/p[t]/(t^2) with multiplication by t is averaging
    p = 10 ** 18 + 3
    doc = {"scalar": f"Zmod:{p}", "dim": 2, "unit": ["1", "0"],
           "mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]}
    alg, op = tmp_path / "alg.json", tmp_path / "op.json"
    alg.write_text(json.dumps(doc))
    op.write_text(json.dumps({"matrix": [["0", "0"], ["1", "0"]]}))
    start = time.perf_counter()
    code = main(["verify", str(alg), str(op)])
    out = capsys.readouterr().out
    assert time.perf_counter() - start < 1.0
    assert code == 0 and f"over Zmod:{p}" in out and "averaging: yes" in out


def test_large_prime_scalar_default_is_fast(monkeypatch, capsys):
    monkeypatch.setenv("AVG_SCALAR_DEFAULT", "Zmod:1000000000000000003")
    start = time.perf_counter()
    assert main(["eval", "--mode", "plain", "1000000000000000004*f(v1)"]) == 0
    assert capsys.readouterr().out.strip() == "y[x1]"  # the coefficient is 1 mod p
    assert time.perf_counter() - start < 1.0


def test_internal_invariant_error_exits_two(monkeypatch, capsys):
    import avgalg.findim as FD

    def broken(*args):
        raise FD.InternalInvariantError("kernel paths disagree")

    # lie_analysis calls the nilpotency check on every input; it no longer
    # calls kernel_equals_brackets, whose comparison it shares
    monkeypatch.setattr(FD, "_nilpotency", broken)
    code = main(["lie-analyze", "corpus/qi.json", "corpus/im.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: kernel paths disagree\n"
    assert captured.out == ""


def test_memory_error_exits_two(monkeypatch, capsys):
    # a subcommand that runs out of memory is an error, not a verdict and
    # not a traceback
    import avgalg.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_eval", exhausted)
    code = main(["eval", "--mode", "plain", "v1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


def test_lie_analyze_refuses_non_averaging(capsys):
    # conjugation on Q(i) fails the averaging identity at (e0, e1); the
    # witness comes from the single check in findim.averaging_operator
    code = main(["lie-analyze", "corpus/qi.json", "corpus/conj.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "NOT AVERAGING: fails at basis pair (0, 1)\n"
    assert captured.err == ""
    code = main(["lie-analyze", "--json", "corpus/qi.json", "corpus/conj.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"averaging": False, "witness": [0, 1]}
    assert captured.err == ""


def test_lie_induce_without_solution_exits_one(tmp_path, capsys):
    # componentwise Q^3 with the bracket of the endomorphism G: it passes the
    # endomorphism criterion, but the linear system for t has no solution
    import avgalg.findim as FD
    from avgalg.exactlin import QQ, Matrix
    A = FD.StructureAlgebra.make(QQ, (1, 1, 1), [
        [[int(i == j == k) for k in range(3)] for j in range(3)] for i in range(3)])
    G = Matrix.from_rows(QQ, [[-2, 1, -1], [2, 0, 1], [-2, -1, 0]])
    alg, bracket = tmp_path / "q3.json", tmp_path / "bracket.json"
    alg.write_text(json.dumps(FD.algebra_to_json(A)))
    bracket.write_text(json.dumps(FD.bracket_to_json(FD.raw_bracket(A, G))))
    code = main(["lie-induce", str(alg), str(bracket)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "NOT INDUCED: the linear system for t has no solution\n"
    assert captured.err == ""
    code = main(["lie-induce", "--json", str(alg), str(bracket)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"outcome": "no_solution"}


def test_lie_induce_refuses_a_bracket_that_is_not_lie(tmp_path, capsys):
    # [e_0, e_0] = e_1 is not alternating.  The loader checks the Lie axioms
    # before the bracket meets the algebra, so a table that is also of the
    # wrong dimension for Q(i) is refused as not Lie; a Lie table of the
    # wrong dimension is refused as a mismatch
    def table(d, cell00):
        return [[cell00 if i == j == 0 else ["0"] * d for j in range(d)] for i in range(d)]

    cases = [(table(2, ["0", "1"]), "not a Lie bracket: ('alternating', (0,))"),
             (table(3, ["0", "1", "0"]), "not a Lie bracket: ('alternating', (0,))"),
             (table(3, ["0"] * 3), "bracket does not match the algebra")]
    path = tmp_path / "bracket.json"
    for doc, message in cases:
        path.write_text(json.dumps({"table": doc}))
        for flag in ([], ["--json"]):
            code = main(["lie-induce", *flag, "corpus/qi.json", str(path)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_verify_refuses_a_boolean_dim(tmp_path, capsys):
    # true == 1 in Python, so a one-entry unit and a 1 x 1 operator would
    # match it
    alg, op = tmp_path / "alg.json", tmp_path / "op.json"
    alg.write_text(json.dumps({"scalar": "Q", "dim": True, "unit": ["1"], "mul": [[["1"]]]}))
    op.write_text(json.dumps({"matrix": [["1"]]}))
    for flag in ([], ["--json"]):
        code = main(["verify", *flag, str(alg), str(op)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", "error: dim must be a JSON integer\n")


DEEP = {
    "power_2000": (["eval", "--mode", "plain", "v1^2000"], 0, "x1^2000\n"),
    "claim_power_999": (["decide", "--hypothesis", "averaging", "--claim", "v1^999 = v1^999"],
                        0, "HOLDS  " + "*".join(["v1"] * 999) + " = "
                        + "*".join(["v1"] * 999) + "\n"),
    "nested_f_600": (["eval", "--mode", "plain", "f(" * 600 + "v1" + ")" * 600],
                     0, "y[1]^599*y[x1]\n"),
    "nested_parens_2000": (["eval", "--mode", "plain", "(" * 2000 + "v1" + ")" * 2000],
                           0, "x1\n"),
}


@pytest.mark.parametrize("argv, code, out", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_computes_answers(argv, code, out, capsys):
    # parsing, evaluation and rendering keep their own stacks, so nesting
    # depth is not bounded by the interpreter's recursion limit
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ""


def test_term_path_does_not_recurse():
    # 5,000 levels under a recursion limit of 150: a function on the term
    # path that recursed once per level would fail here
    deep = 5000
    cases = [
        ("f(" * deep + "v1" + ")" * deep, f"y[1]^{deep - 1}*y[x1]"),
        ("(" * deep + "v1" + ")" * deep, "x1"),
        (f"v1^{deep}", f"x1^{deep}"),
        ("-" * deep + "v1", "x1"),
        ("*".join(["2"] * deep), str(2 ** deep)),
    ]
    code = f"""
import contextlib, io, json, sys
from avgalg import terms
from avgalg.cli import main
sys.setrecursionlimit(150)
for term, normal in {cases!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--json", "--mode", "plain", "--", term]) == 0
    doc = json.loads(out.getvalue())
    assert doc["normal_form"] == normal, doc["normal_form"][:80]
    assert terms.render(terms.parse_term(doc["input"])) == doc["input"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["decide", "--hypothesis", "averaging",
                 "--claim", {cases[0][0]!r} + " = " + {cases[0][0]!r}]) == 0
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stderr == ""


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    # json.load recurses per nesting level; the CLI reports it as bad input
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code = main(["verify", str(path), "corpus/conj.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: input nested too deeply\n"
    assert captured.out == ""


def test_big_normal_form_prints_whatever_the_digit_limit():
    # 2^3000 has 904 digits, past the smallest limit Python 3.11+ accepts for
    # str() of an int (640); Python 3.10 has no limit and ignores the option
    expected = str(decimal.Context(prec=1000).power(decimal.Decimal(2), 3000))
    assert len(expected) == 904
    for flags, read in (([], lambda out: out),
                        (["--json"], lambda out: json.loads(out)["normal_form"] + "\n")):
        run = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "avgalg.cli",
             "eval", *flags, "--mode", "plain", "2^3000"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        assert read(run.stdout) == expected + "\n"
        if flags:
            assert json.loads(run.stdout)["input"] == expected


@pytest.mark.parametrize("limit", [4300, 0])
def test_long_variable_index_exits_two_whatever_the_digit_limit(limit, capsys):
    # an index past 600 digits is a syntax error at parse, under the default
    # int string limit and with none alike (Python 3.10 has no limit); 600
    # digits, the longest index, prints under the least limit, 640
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = set_limit and sys.get_int_max_str_digits()
    if set_limit:
        set_limit(limit)
    try:
        code = main(["eval", "--mode", "plain", "v" + "7" * 5000])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: syntax error at byte 0: too many digits\n"
        assert main(["eval", "--mode", "plain", "v" + "7" * 600]) == 0
        assert capsys.readouterr().out == "x" + "7" * 600 + "\n"
    finally:
        if set_limit:
            set_limit(old)


@pytest.mark.parametrize("limit", [4300, 640, 0])
def test_long_exponent_prints_whatever_the_digit_limit(limit, capsys):
    # the normal form's exponents are written in chunks below every limit, so
    # x1^(5,000 sevens) prints the same 5,004 bytes under the default limit,
    # the least one and none (Python 3.10 has no limit)
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = set_limit and sys.get_int_max_str_digits()
    if set_limit:
        set_limit(limit)
    try:
        code = main(["eval", "--mode", "plain", "v1^" + "7" * 5000])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == "x1^" + "7" * 5000 + "\n"
    finally:
        if set_limit:
            set_limit(old)


def test_written_out_powers_share_one_bound(capsys):
    # v1^349525 writes out as 3 * 349525 - 1 characters, just under 2^20, so
    # it prints; eight of them in one product (79 characters of input) would
    # write out 8 MB, and the bound is on all the powers of the term together
    code = main(["eval", "--json", "--mode", "plain", "v1^349525"])
    captured = capsys.readouterr()
    assert code == 0 and len(json.loads(captured.out)["input"]) == 3 * 349525 - 1
    code = main(["eval", "--json", "--mode", "plain", "*".join(["v1^349525"] * 8)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: the powers are too long to write out\n"


def test_large_power_is_evaluated_by_squaring(capsys):
    # ~18 squarings instead of a 200,000-node product, and the input, which
    # renders as that product, is not rendered without --json
    start = time.perf_counter()
    code = main(["eval", "--mode", "plain", "v1^200000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "x1^200000\n"
    assert captured.err == ""
    assert elapsed < 0.2, elapsed


def test_eval_renders_its_input_for_json_only(capsys, monkeypatch):
    rendered = []
    real_render = terms.render
    monkeypatch.setattr(terms, "render", lambda t: rendered.append(t) or real_render(t))
    assert main(["eval", "--mode", "plain", "(v1^1000)^10000"]) == 0
    assert capsys.readouterr().out == "x1^10000000\n"
    assert rendered == []
    assert main(["eval", "--json", "--mode", "plain", "v1^3"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == "v1*v1*v1"
    assert len(rendered) == 1
