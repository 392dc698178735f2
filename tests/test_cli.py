"""Command-line harness: exit codes, JSON records, CSV schema."""

import json
import os
import subprocess
import sys

import pytest

from cdle.cli import classify_costs, main

from conftest import CORPUS, NEGATIVE, REPO


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus(*stems):
    return [os.path.join(CORPUS, s + ".cdl") for s in stems]


def test_check_full_corpus_exit_zero(capsys):
    code, out, _ = run(capsys, "check", *corpus(*[
        "base", "list", "vec", "reuse", "append", "identity",
        "combinators", "packaged", "examples", "schemes"]))
    assert code == 0
    assert "117/117" in out


def test_check_negative_exit_one_with_code(capsys):
    path = os.path.join(NEGATIVE, "erased_var.cdl")
    code, out, _ = run(capsys, "check", path, "--root", CORPUS, "--json")
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(set(r) <= {"def", "status", "errorCode", "span"} for r in records)
    bad = [r for r in records if r["status"] == "error"]
    assert len(bad) == 1
    assert bad[0]["errorCode"] == "ErasedVarOccursFree"
    assert "span" in bad[0]


def test_check_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "no/such/file.cdl")
    assert code == 2
    assert "error" in err


def test_check_non_utf8_file_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.cdl"
    path.write_bytes(b"x \xff\xfe .")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: not UTF-8")


def test_check_json_deterministic(capsys):
    path = os.path.join(NEGATIVE, "phi_mismatch.cdl")
    code1, out1, _ = run(capsys, "check", path, "--root", CORPUS, "--json")
    code2, out2, _ = run(capsys, "check", path, "--root", CORPUS, "--json")
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("argv", [
    ["erase", "bad"],
    ["normalize", "bad"],
    ["eq", "bad", "bad"],
], ids=["erase", "normalize", "eq"])
def test_ill_typed_module_exit_one(capsys, argv):
    path = os.path.join(NEGATIVE, "erased_var.cdl")
    code, _, err = run(capsys, argv[0], path, *argv[1:], "--root", CORPUS)
    assert code == 1
    assert "error" in err


def test_erase_zero_cost_conversion(capsys):
    code, out, _ = run(capsys, "erase", os.path.join(CORPUS, "reuse.cdl"), "v2l!")
    assert code == 0
    assert out.strip() == "λ xs. xs"


def test_erase_nil_constructor(capsys):
    code, out, _ = run(capsys, "erase", os.path.join(CORPUS, "list.cdl"), "nilL")
    assert code == 0
    assert out.strip() == "λ cN. λ cC. cN"


@pytest.mark.parametrize("cmd", ["erase", "normalize"])
def test_unknown_name_exit_two(capsys, cmd):
    code, _, err = run(capsys, cmd, os.path.join(CORPUS, "list.cdl"), "nosuch")
    assert code == 2
    assert err == "error: no definition named 'nosuch'\n"


def test_eq_shared_erasures(capsys):
    code, out, _ = run(capsys, "eq", os.path.join(CORPUS, "append.cdl"), "appL", "appV")
    assert code == 0
    code, out, _ = run(capsys, "eq", os.path.join(CORPUS, "list.cdl"), "nilL", "nilV")
    assert code == 2  # nilV lives in vec.cdl, not reachable from list.cdl

    code, out, _ = run(capsys, "eq", os.path.join(CORPUS, "vec.cdl"), "nilVC", "nilV")
    assert code == 0
    code, out, _ = run(capsys, "eq", os.path.join(CORPUS, "list.cdl"), "nilL", "consL")
    assert code == 1


def test_normalize_term(capsys):
    code, out, _ = run(capsys, "normalize", "--term", "(λ x. λ y. x) a b")
    assert code == 0
    assert out.splitlines()[0] == "a"
    assert "beta_steps=2" in out


def test_normalize_term_nested_too_deeply_exit_two(capsys):
    code, _, err = run(capsys, "normalize", "--term", "(" * 10_000 + "x" + ")" * 10_000)
    assert code == 2
    assert err.startswith("error: <input>:1:2501: term nested more than 2500 levels deep")


def test_check_lambda_chain_nested_too_deeply_exit_two(capsys, tmp_path):
    path = tmp_path / "deep.cdl"
    path.write_text("x ◂ T = " + "λ x. " * 10_000 + "x.\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}:1:12509: term nested more than 2500 levels deep")


def test_check_duplicate_name_across_modules_exit_two(capsys, tmp_path):
    paths = []
    for stem in ("a", "b"):
        path = tmp_path / f"{stem}.cdl"
        path.write_text("Unit2 ◂ ★ = ∀ X : ★. X ➔ X.\n", encoding="utf-8")
        paths.append(str(path))
    code, _, err = run(capsys, "check", *paths)
    assert code == 2
    assert err == f"error: {paths[1]}: duplicate top-level name 'Unit2'\n"


def test_check_deep_well_typed_term_exit_two(tmp_path):
    """The checker recurses once per nesting level, so a well-typed term
    2,000 levels deep outruns the default recursion limit.  It runs in a
    fresh interpreter: in this one, an earlier ``normalize`` may have
    raised the limit."""
    path = tmp_path / "deep.cdl"
    body = "f (" * 1999 + "f x" + ")" * 1999
    path.write_text(f"c ◂ ∀ A : ★. (A ➔ A) ➔ A ➔ A = Λ A. λ f. λ x. {body}.\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cdle.cli", "check", str(path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}:1:1: definition 'c' is nested too deeply to check\n"


def test_python_dash_m_cdle_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cdle", "check", os.path.join(CORPUS, "base.cdl")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_normalize_definition(capsys):
    code, out, _ = run(capsys, "normalize", os.path.join(CORPUS, "append.cdl"), "appL")
    assert code == 0
    assert out.splitlines()[0] == "λ xs. xs (λ ys. ys) (λ x. λ ih. λ ys. λ cN. λ cC. cC x (ih ys cN cC))"


def test_cost_constant_and_linear(capsys):
    code, out, _ = run(capsys, "cost", "v2l!", "--sizes", "8,64,512", "--root", CORPUS)
    assert code == 0 and "classification: constant" in out
    code, out, _ = run(capsys, "cost", "v2l", "--sizes", "8,16,32,64", "--root", CORPUS)
    assert code == 0 and "classification: linear" in out


def test_cost_csv_schema(capsys):
    code, out, _ = run(capsys, "cost", "l2v!", "--sizes", "4,8", "--csv", "--root", CORPUS)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,n,beta_steps,eta_steps,fuel_exhausted"
    assert lines[1].startswith("l2v!,4,")


def test_cost_large_input_needs_no_fuel(capsys):
    code, out, _ = run(capsys, "cost", "v2l!", "--sizes", "8,4000", "--max-steps", "10000", "--root", CORPUS)
    assert code == 0
    assert "classification: constant" in out


def test_cost_counted_run_fuel_exhausted_exit_one(capsys):
    code, out, _ = run(capsys, "cost", "v2l", "--sizes", "8,2000", "--max-steps", "10000", "--root", CORPUS)
    assert code == 1
    assert out.splitlines()[2].split() == ["2000", "10000", "0", "true"]
    assert "classification: other" in out


def test_cost_zero_cost_constant_up_to_32768(capsys):
    code, out, _ = run(capsys, "cost", "v2l!", "--sizes", "8,4096,32768", "--root", CORPUS)
    assert code == 0
    assert "classification: constant" in out


def test_cost_corpus_not_checked_within_fuel_exit_one(capsys):
    code, _, err = run(capsys, "cost", "v2l", "--sizes", "8,16", "--max-steps", "50", "--root", CORPUS)
    assert code == 1
    assert err.startswith("error: corpus does not typecheck: ")
    assert "ERROR[FuelExhausted]" in err


def test_cost_usage_errors(capsys):
    code, _, err = run(capsys, "cost", "v2l!", "--sizes", "", "--root", CORPUS)
    assert code == 2
    code, _, err = run(capsys, "cost", "nosuch", "--sizes", "8", "--root", CORPUS)
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cost", "v2l!"])  # missing --sizes entirely
    assert exc.value.code == 2


def test_classify_costs_rule():
    assert classify_costs([(8, 5, False), (64, 5, False), (512, 5, False)]) == "constant"
    assert classify_costs([(8, 89, False), (16, 169, False), (32, 329, False), (64, 649, False)]) == "linear"
    assert classify_costs([(8, 10, False), (16, 100, False), (32, 10000, False)]) == "other"
    assert classify_costs([(8, 5, True)]) == "other"
