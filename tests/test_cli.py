"""Command-line harness: exit codes, JSON records, CSV schema."""

import glob
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import cdle.corpus as cdle_corpus
from cdle.cli import classify_costs, main
from cdle.reduction import Fuel, NormalizeOutcome
from cdle.syntax import PVar

from conftest import CLASSIFIER_FAILS, CORPUS, NEGATIVE, NEGATIVE_FILES, REPO
from gen import corpus_mutants


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


def test_nonpositive_max_steps_exit_two(capsys):
    code, out, err = run(capsys, "check", os.path.join(CORPUS, "base.cdl"), "--max-steps", "0")
    assert (code, out, err) == (2, "", "error: --max-steps must be positive\n")


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


@pytest.mark.parametrize("argv", [
    ["erase", "List"],
    ["normalize", "List"],
    ["eq", "List", "nilL"],
], ids=["erase", "normalize", "eq"])
def test_type_name_has_no_erasure_exit_two(capsys, argv):
    code, _, err = run(capsys, argv[0], os.path.join(CORPUS, "list.cdl"), *argv[1:])
    assert code == 2
    assert err == "error: 'List' has no erasure: it is not a term definition with a body\n"


def test_bodyless_parameter_has_no_erasure_exit_two(capsys, tmp_path):
    path = tmp_path / "param.cdl"
    path.write_text("p ◂ ∀ X : ★. X ➔ X.\n", encoding="utf-8")
    code, _, err = run(capsys, "erase", str(path), "p")
    assert code == 2
    assert err == "error: 'p' has no erasure: it is not a term definition with a body\n"


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


def test_normalize_deep_normal_form_exit_two(capsys):
    """The parser and the machine take ``f (f (… x))`` 2,000 levels deep,
    but the recursive printer does not."""
    code, out, err = run(capsys, "normalize", "--term", "f (" * 1999 + "f x" + ")" * 1999)
    assert code == 2 and out == ""
    assert err == "error: normal form nested too deeply to print\n"


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


@pytest.mark.parametrize("case", ["type_lambda", "application"])
def test_check_use_of_a_definition_whose_classifier_fails_exit_one(capsys, tmp_path, case):
    """A use of a definition whose classifier failed is reported as an
    unbound name, not a traceback from instantiating that classifier; a
    redefinition of it in an importing module is still a duplicate."""
    path = tmp_path / "m.cdl"
    path.write_text("\n".join(CLASSIFIER_FAILS[case]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines()[-2] == "g: ERROR[UnboundName] unbound name 'f'"
    importer = tmp_path / "importer.cdl"
    importer.write_text("import m.\nf ◂ U.\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(importer))
    assert (code, out, err) == (2, "", f"error: {importer}: duplicate top-level name 'f'\n")


# A λ or Λ annotation whose type-level β redex substitutes a type for a
# term variable: the checker must sort the annotation before converting it.
ILL_SORTED_ANNOTATIONS = {
    "lam": "bad ◂ Nat ➔ Nat = λ x : (λ s : Nat. s ≃ s) · (Nat ➔ Nat). x.",
    "elam": "bad ◂ ∀ n : Nat. Nat ➔ Nat = Λ n : (λ s : Nat. s ≃ s) · (Nat ➔ Nat). λ x. x.",
}


@pytest.mark.parametrize("form", sorted(ILL_SORTED_ANNOTATIONS))
def test_check_ill_sorted_binder_annotation_exit_one(capsys, tmp_path, form):
    """The annotation is kind-checked before it is compared with the
    domain, so it gets the code any classifier holding it gets, at the
    offending application, instead of a traceback from substitution."""
    text = ILL_SORTED_ANNOTATIONS[form]
    path = tmp_path / "bad.cdl"
    path.write_text(f"import base.\n{text}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), "--root", CORPUS, "--json")
    assert (code, err) == (1, "")
    bad = [json.loads(line) for line in out.splitlines() if '"error"' in line]
    col = text.index("·") + 1
    assert bad == [{"def": "bad", "status": "error", "errorCode": "NotAFunction", "span": f"{path}:2:{col}"}]


def test_check_mutated_corpus_modules_end_with_a_message(capsys, tmp_path):
    """Every input ends in exit 0, 1 or 2 with a message, never a
    traceback.  All mutants go through one path, so each load finds that
    path's last text in the loader's table and must parse it again."""
    path = tmp_path / "mutant.cdl"
    inputs = list(corpus_mutants(CORPUS, random.Random(20261019), 100))
    inputs += [f"import base.\n{text}\n" for text in ILL_SORTED_ANNOTATIONS.values()]
    for text in inputs:
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", str(path), "--root", CORPUS)
        assert code in (0, 1, 2), text
        assert (out if code < 2 else err).strip(), text
        assert "Traceback" not in out + err, text


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


def test_cost_repeated_size_gives_one_row(capsys):
    code, out, _ = run(capsys, "cost", "v2l", "--sizes", "8,8,16", "--root", CORPUS)
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["8", "16"]
    assert lines[-1] == "classification: linear (manifest: linear)"


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


def test_check_names_the_site_that_ran_out_of_fuel(capsys):
    """Each FuelExhausted error names the position where the term being
    normalized is written, and then the construct that asked for it and
    its position: the term may be written in another definition (the
    conversion of ``appV2appL!``'s φ runs out on a term of
    ``appV2appLId``'s type)."""
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.cdl")))
    code, out, _ = run(capsys, "check", *paths, "--max-steps", "60")
    assert code == 1
    fuel = [line for line in out.splitlines() if "ERROR[FuelExhausted]" in line]
    sites = [
        ("v2lId", "ρ target term", "reuse.cdl:18:57", "ρ", "reuse.cdl:19:32"),
        ("l2vId", "ρ target term", "reuse.cdl:29:49", "ρ", "reuse.cdl:30:27"),
        ("v2lPresLen", "ρ target term", "reuse.cdl:37:58", "ρ", "reuse.cdl:38:32"),
        ("appV2appLId", "ρ target term", "append.cdl:31:24", "ρ", "append.cdl:33:5"),
        ("appV2appL!", "conversion", "append.cdl:31:24", "φ", "append.cdl:39:5"),
        ("appL2appV", "ρ pattern", "append.cdl:44:22", "ρ", "append.cdl:50:5"),
    ]
    assert len(fuel) == len(sites)
    for line, (name, what, at, by, by_at) in zip(fuel, sites):
        m = re.fullmatch(
            rf"{re.escape(name)}: ERROR\[FuelExhausted\] {what} ran out of fuel at (.+), asked by the {by} at (.+)", line
        )
        assert m, line
        for pos, want in zip(m.groups(), (at, by_at)):
            assert pos.endswith(os.sep + want), line
            assert os.path.isfile(pos.removesuffix(want[want.index(":"):])), line


def test_check_shows_imports_by_relative_paths_when_given_relative_paths(capsys, monkeypatch):
    """Files named relative to the working directory are shown relative,
    and so are the modules they import: every position in the report is
    under ``corpus/``, whichever file was given or imported first."""
    monkeypatch.chdir(REPO)
    paths = sorted(os.path.join("corpus", os.path.basename(p)) for p in glob.glob(os.path.join(CORPUS, "*.cdl")))
    code, out, _ = run(capsys, "check", *paths, "--max-steps", "60")
    assert code == 1
    positions = re.findall(r" at (\S+):\d+:\d+", out)
    assert len(positions) == 12 and {os.path.join("corpus", f) for f in ("reuse.cdl", "append.cdl")} <= set(positions), positions
    assert all(p.startswith("corpus" + os.sep) and os.path.isfile(p) for p in positions), positions
    assert REPO not in out


def test_cost_usage_errors(capsys):
    code, _, err = run(capsys, "cost", "v2l!", "--sizes", "", "--root", CORPUS)
    assert code == 2
    code, _, err = run(capsys, "cost", "nosuch", "--sizes", "8", "--root", CORPUS)
    assert code == 2
    for name, sizes in [("v2l", "8"), ("v2l", "8,8"), ("v2l!", "8")]:
        code, out, err = run(capsys, "cost", name, "--sizes", sizes, "--root", CORPUS)
        assert (code, out) == (2, "")
        assert err == "error: --sizes needs at least two distinct sizes\n"
    with pytest.raises(SystemExit) as exc:
        main(["cost", "v2l!"])  # missing --sizes entirely
    assert exc.value.code == 2


def test_classify_costs_rule():
    assert classify_costs([(8, 5, False), (64, 5, False), (512, 5, False)]) == "constant"
    assert classify_costs([(8, 89, False), (16, 169, False), (32, 329, False), (64, 649, False)]) == "linear"
    assert classify_costs([(8, 10, False), (16, 100, False), (32, 10000, False)]) == "other"
    assert classify_costs([(8, 5, True)]) == "other"
    assert classify_costs([(8, 5, False)]) == "other"
    assert classify_costs([(8, 5, False), (8, 5, False)]) == "other"
    assert classify_costs([(8, 89, False), (16, 170, False), (32, 329, False)]) == "other"


def test_verify_green_and_byte_stable():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    runs = [
        subprocess.run([sys.executable, "-m", "cdle", "verify"], capture_output=True, text=True, env=env)
        for _ in range(2)
    ]
    assert runs[0].returncode == 0, runs[0].stderr
    out = runs[0].stdout
    assert runs[1].stdout == out
    lines = out.splitlines()
    assert "-- 117/117 definitions checked" in lines
    assert "goldens: 26/26 pass" in lines
    assert sum(line.startswith("  ok  ") for line in lines) == NEGATIVE_FILES
    verdicts = [line for line in lines if line.startswith("classification: ")]
    assert len(verdicts) == 6
    for line in verdicts:
        verdict, manifest = line.removeprefix("classification: ").removesuffix(")").split(" (manifest: ")
        assert verdict == manifest
    assert lines[-1] == "ALL GREEN"


def test_verify_twice_in_one_process(capsys, monkeypatch):
    """``cdle verify`` run twice through ``cli.main`` in one process
    prints the same bytes both times, ending in ALL GREEN.  Each run
    checks ``base.cdl``'s 17 definitions twice: with the corpus, and in
    the negative suite once more after the base-free
    ``intersection_mismatch`` evicts them; every other negative file that
    imports ``base`` replays them from the check before it.  (The first
    run's corpus check may also replay them from a check made before the
    test; the second's cannot, as the first ends on a base-free file.)"""
    import cdle.typecheck

    base, checked = os.path.join(CORPUS, "base.cdl"), []
    real = cdle.typecheck._check_one

    def counting(ck, d):
        checked.append(os.path.abspath(d.span.file) == base)
        return real(ck, d)

    monkeypatch.setattr(cdle.typecheck, "_check_one", counting)
    outs, base_checks = [], []
    for _ in range(2):
        checked.clear()
        code, out, err = run(capsys, "verify")
        assert (code, err) == (0, "")
        outs.append(out)
        base_checks.append(sum(checked))
    assert outs[0] == outs[1] and outs[0].endswith("ALL GREEN\n")
    assert base_checks[0] <= base_checks[1] == 2 * 17


def _corpus_copy(tmp_path, with_negative=True):
    shutil.copytree(CORPUS, tmp_path / "corpus")
    if with_negative:
        shutil.copytree(NEGATIVE, tmp_path / "negative")
    return str(tmp_path / "corpus")


def test_verify_wrong_expected_code_exit_one(capsys, tmp_path):
    root = _corpus_copy(tmp_path)
    path = tmp_path / "negative" / "erased_var.cdl"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("// expect: ErasedVarOccursFree", "// expect: TypeMismatch", 1), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--root", root)
    assert code == 1
    lines = out.splitlines()
    assert "  BAD erased_var: ErasedVarOccursFree (expect: TypeMismatch)" in lines
    assert sum(line.startswith("  ok  ") for line in lines) == NEGATIVE_FILES - 1
    assert lines[-1] == "1 FAILURES"


def test_verify_golden_out_of_fuel_is_a_failure(capsys, tmp_path, checked_corpus):
    """A golden whose comparison runs out of fuel is a failed golden,
    with a line that says so, and verify exits 1; a shared-erasure pair
    that runs out fails the same way."""
    root = _corpus_copy(tmp_path)
    path = tmp_path / "corpus" / "examples.cdl"
    text = path.read_text(encoding="utf-8")
    line = "appV2appLG! ◂ AppV ➔ AppL = elimId -AppV -AppL appV2appLG.  // golden: λ x. x"
    assert line in text
    path.write_text(text.replace(line, line.replace("λ x. x", "(λ x. x x) (λ x. x x)")), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--root", root, "--max-steps", "5000")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "goldens: 25/26 pass" in lines
    assert "  GOLDEN FAIL appV2appLG!: fuel exhausted after 5000 beta / 0 eta steps" in lines
    assert lines[-1] == "1 FAILURES"
    ck, _ = checked_corpus
    results = cdle_corpus.verify_goldens(cdle_corpus.corpus_manifest(CORPUS), ck, Fuel(1))
    pairs = [g for g in results if "=" in g.name]
    assert pairs and any(not g.ok and g.detail.startswith("fuel exhausted after ") for g in pairs)


def test_cost_unit_out_of_fuel_exit_one(capsys, tmp_path):
    """A ``unit`` that does not normalize within fuel ends ``cost`` and
    ``verify`` with exit 1 and a message naming it; the corpus itself
    checks without normalizing ``unit``."""
    root = _corpus_copy(tmp_path)
    path = tmp_path / "corpus" / "base.cdl"
    text = path.read_text(encoding="utf-8")
    line = "unit ◂ Unit = Λ X. λ x. x."
    assert line in text
    path.write_text(text.replace(line, "\n".join([
        "unit0 ◂ Unit = Λ X. λ x. x.",
        "dbl ◂ (Unit ➔ Unit) ➔ Unit ➔ Unit = λ f. λ u. f (f u).",
        "unit ◂ Unit = dbl (dbl (dbl (dbl (dbl (dbl (dbl (dbl (dbl (dbl (λ u. u)))))))))) unit0.",
    ])), encoding="utf-8")
    code, out, err = run(capsys, "cost", "v2l!", "--sizes", "8,16", "--root", root, "--max-steps", "2000")
    assert (code, out, err) == (1, "", "error: fuel exhausted normalizing unit\n")
    code, out, err = run(capsys, "verify", "--root", root, "--max-steps", "2000")
    assert (code, err) == (1, "error: fuel exhausted normalizing unit\n")
    assert "-- 119/119 definitions checked" in out.splitlines()
    code, out, _ = run(capsys, "cost", "v2l!", "--sizes", "8,16", "--root", root, "--max-steps", "4000")
    assert code == 0 and "classification: constant (manifest: constant)" in out


def test_cost_rows_normalizes_unit_once(checked_corpus, monkeypatch):
    """``unit`` is normalized once per ``cost_rows`` call, not once per
    row, and the rows are those of inputs built one by one."""
    ck, _ = checked_corpus
    real = cdle_corpus.normalize
    units = []

    def counting(t, *args, **kwargs):
        units.append(t == PVar("unit"))
        return real(t, *args, **kwargs)

    monkeypatch.setattr(cdle_corpus, "normalize", counting)
    rows = cdle_corpus.cost_rows(ck, "v2l!", [8, 16, 32, 64], Fuel(4000))
    assert sum(units) == 1
    fn = real(ck.pure_env["v2l!"]).result
    for n, beta, eta, exhausted, same in rows:
        out = cdle_corpus.apply_and_count(fn, [cdle_corpus.synth_input_nf(ck, "vec", n)], Fuel(4000))
        assert (beta, eta, exhausted, same) == (out.beta_steps, out.eta_steps, out.fuel_exhausted, True)


def test_verify_counts_a_counted_run_that_changes_its_input(capsys, monkeypatch):
    """Every measured conversion returns its input's erasure; a counted
    run that returns another term is one failure, with its row named."""
    real = cdle_corpus.apply_and_count
    calls = []

    def wrong_first_run(f, args, fuel):
        out = real(f, args, fuel)
        calls.append(f)
        if len(calls) > 1:
            return out
        return NormalizeOutcome(PVar("wrong"), out.beta_steps, out.eta_steps)

    monkeypatch.setattr(cdle_corpus, "apply_and_count", wrong_first_run)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("RESULT")] == ["RESULT FAIL v2l n=8"]
    assert sum(line.startswith("classification: ") for line in lines) == 6
    assert lines[-1] == "1 FAILURES"


def test_verify_unreadable_negative_suite_exit_two(capsys, tmp_path):
    root = _corpus_copy(tmp_path, with_negative=False)
    code, out, err = run(capsys, "verify", "--root", root)
    assert (code, out) == (2, "")
    assert err.startswith("error: negative suite: ")

    (tmp_path / "negative").mkdir()
    (tmp_path / "negative" / "bare.cdl").write_text("x ◂ ★ = ★.\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--root", root)
    assert (code, out) == (2, "")
    assert err == "error: negative suite: bare.cdl: the first line must be '// expect: Code'\n"


def test_verify_bad_corpus_annotation_exit_two(capsys, tmp_path):
    root = _corpus_copy(tmp_path)
    path = tmp_path / "corpus" / "vec.cdl"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("same-erasure: nilL", "same-erasure: consV", 1), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--root", root)
    assert (code, out) == (2, "")
    assert err == f"error: corpus annotations: {root}/vec.cdl:23: same-erasure 'consV' names no earlier definition\n"


def test_verify_annotated_golden_exit_two(capsys, tmp_path):
    root = _corpus_copy(tmp_path)
    path = tmp_path / "corpus" / "reuse.cdl"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("// golden: λ x. x", "// golden: Λ X. λ x. x", 1), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--root", root)
    assert (code, out) == (2, "")
    assert err == (
        f"error: corpus annotations: {root}/reuse.cdl:21: golden 'Λ X. λ x. x' is not a pure term: "
        "Λ X. λ x. x is not a variable, an unannotated λ or an application\n"
    )


def _contract_commands():
    corpus_files = sorted(os.path.relpath(p, REPO) for p in glob.glob(os.path.join(CORPUS, "*.cdl")))
    cmds = [["check", "--json", *corpus_files]]
    cmds += [["check", *corpus_files, "--max-steps", str(n)] for n in (20, 40, 60, 100, 200, 400)]
    for neg in sorted(os.path.relpath(p, REPO) for p in glob.glob(os.path.join(NEGATIVE, "*.cdl"))):
        cmds += [["check", neg, "--root", "corpus"], ["check", "--json", neg, "--root", "corpus"]]
    return cmds


def test_cli_outputs_match_the_recorded_contract(capsys):
    """``check --json`` on the corpus, ``check`` on the corpus at
    ``--max-steps`` 20, 40, 60, 100, 200 and 400, and each negative file
    plain and with ``--json`` (both with ``--root corpus``), run through
    ``cli.main``: exit code, standard output and standard error equal what
    ``tests/cli_outputs.json`` holds, with the checkout's path written
    ``<repo>``.  The file was recorded by running the same commands, with
    absolute paths, through ``cli.main`` at commit 6a10d8f, before
    conversion, ρ's type rewrite and erasure were driven by tables; a
    change to any of these outputs means recording it again the same way
    and saying why."""
    with open(os.path.join(REPO, "tests", "cli_outputs.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert [r["argv"] for r in recorded] == _contract_commands()
    for r in recorded:
        argv = [os.path.join(REPO, a) if a.endswith(".cdl") or a == "corpus" else a for a in r["argv"]]
        code, out, err = run(capsys, *argv)
        got = {"exit": code, "stdout": out.replace(REPO, "<repo>"), "stderr": err.replace(REPO, "<repo>")}
        assert got == {k: r[k] for k in got}, r["argv"]
