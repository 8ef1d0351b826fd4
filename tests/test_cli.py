import importlib
import json
import pathlib
import pkgutil
import time

import pytest

import avgalg
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
        assert doc["outcome"] in ("induced", "not_endo_induced",
                                  "no_solution", "diagnostic")
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
    assert "unit" in err


def test_bad_subcommand_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--hypothesis", "bogus", "--claim", "f(v1) = f(v1)"])
    assert exc.value.code == 2


def test_decide_requires_claims(capsys):
    code = main(["decide", "--hypothesis", "averaging"])
    assert code == 2
    assert "no claims" in capsys.readouterr().err


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

    def broken(A, F):
        raise FD.InternalInvariantError("kernel paths disagree")

    monkeypatch.setattr(FD, "kernel_equals_brackets", broken)
    code = main(["lie-analyze", "corpus/qi.json", "corpus/im.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: kernel paths disagree\n"
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


DEEP = {
    "power_2000": ["eval", "--mode", "plain", "v1^2000"],
    "claim_power_999": ["decide", "--hypothesis", "averaging", "--claim", "v1^999 = v1^999"],
    "nested_f_600": ["eval", "--mode", "plain", "f(" * 600 + "v1" + ")" * 600],
    "nested_parens_2000": ["eval", "--mode", "plain", "(" * 2000 + "v1" + ")" * 2000],
}


@pytest.mark.parametrize("argv", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_exits_two(argv, capsys):
    # exit 1 is the negative-verdict code, so running out of stack must not
    # escape as an uncaught RecursionError
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: expression nested too deeply\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""
