"""Corpus manifest invariants and golden erasures."""

import difflib
import shutil

import pytest

from cdle.corpus import COST_CLASSES, corpus_manifest, parse_pure, verify_goldens
from cdle.pretty import pretty
from cdle.reduction import normalize
from cdle.syntax import PLam, PVar, alpha_eq

from conftest import CORPUS
from manifest import REGENERATE, render_manifest

# the definitions the build contract names explicitly, by layer
LAYER_NAMES = {
    1: ["Nat", "zero", "suc", "add", "Unit", "unit", "Bool", "Sigma", "pair", "proj1", "proj2"],
    2: ["ListC", "VecC", "List", "Vec", "nilL", "consL", "nilV", "consV", "elimList", "elimVec", "len"],
    3: ["v2l", "l2v", "AppL", "AppV", "appV2appL", "LenDistAppL", "appL2appV", "v2lPresLen",
        "v2lId", "v2l!", "l2vId", "l2v!", "appV2appLId", "appV2appL!", "appL2appVId", "appL2appV!",
        "appL2appV!wrong"],
    4: ["IdDep", "intrIdDep", "elimIdDep", "Id", "intrId", "elimId"],
    5: ["allArr2arr", "allPi2pi", "arr2allArrP", "pi2allPiP", "id", "copyType", "copyTypeP",
        "subst", "supplyPrem"],
    6: ["v2lG", "l2vG"],
    7: ["appV2appLG", "appV2appLG!", "AssocL", "AssocV", "assocV2assocL", "appL2appVG"],
    8: ["ListF", "VecF", "nilLF", "consLF", "elimListF", "nilVF", "consVF", "elimVecF",
        "imapL", "imapV", "IdMapping", "IIdMapping", "AlgC", "AlgM", "lenAlgM", "vf2lf", "lf2vf"],
}


@pytest.fixture(scope="module")
def manifest():
    return corpus_manifest(CORPUS)


def test_manifest_is_complete_and_ordered(manifest):
    names = [e.name for e in manifest]
    assert len(names) == len(set(names)), "manifest names are unique"
    assert len(names) >= 45
    for layer, expected in LAYER_NAMES.items():
        for n in expected:
            assert n in names, f"layer {layer} definition {n} missing from manifest"
    # dependency order: every annotated and costed name is an entry, and
    # each shared-erasure partner comes before the definition naming it
    position = {n: i for i, n in enumerate(names)}
    for e in manifest:
        assert e.file.endswith(".cdl")
        if e.same_erasure is not None:
            assert position.get(e.same_erasure, len(names)) < position[e.name], e.name
    for name in COST_CLASSES:
        assert name in position, name


def test_manifest_matches_spec_tables(manifest):
    by_name = {e.name: e for e in manifest}
    assert by_name["appV2appL!"].golden_erasure == "λ f. f"
    assert by_name["v2l!"].golden_erasure == "λ x. x"
    assert by_name["v2l!"].cost_class == "constant"
    assert by_name["v2l"].cost_class == "linear"
    assert by_name["l2v!"].cost_class == "constant"
    assert by_name["l2v"].cost_class == "linear"
    assert [e.name for e in manifest if e.golden_erasure] == [
        "nilL", "consL", "nilV", "consV", "v2l!", "l2v!", "appL", "appV", "appV2appL!", "appL2appV!",
        "elimIdDep", "elimId", "v2lG!", "l2vG!", "appV2appLG!", "assocV2assocL!", "appL2appVG!",
        "nilLF", "consLF", "nilVF", "consVF",
    ]
    assert [(e.same_erasure, e.name) for e in manifest if e.same_erasure] == [
        ("nilL", "nilV"), ("consL", "consV"), ("appL", "appV"), ("nilLF", "nilVF"), ("consLF", "consVF"),
    ]
    for name in COST_CLASSES:
        assert by_name[name].cost_class == COST_CLASSES[name][0]


def test_manifest_file_matches_the_corpus():
    """``corpus/MANIFEST.md`` is the rendering of the manifest: every row,
    every parsed classifier and every shared-erasure pair."""
    with open(f"{CORPUS}/MANIFEST.md", encoding="utf-8") as fh:
        recorded = fh.read()
    rendered = render_manifest(CORPUS)
    diff = "".join(difflib.unified_diff(
        recorded.splitlines(True), rendered.splitlines(True), "corpus/MANIFEST.md", "rendered"))
    assert recorded == rendered, f"corpus/MANIFEST.md is stale; regenerate it with\n    {REGENERATE}\n{diff}"


# (file stem, text replaced, replacement, line of the error, message)
BAD_ANNOTATIONS = {
    "unknown_key": ("reuse", "// golden: λ x. x", "// golden: λ x. x; cost: constant", 21, "unknown key 'cost'"),
    "not_directives": ("reuse", "// golden: λ x. x", "// the identity", 21, "not a list of 'key: value' directives"),
    "golden_not_pure": ("reuse", "// golden: λ x. x", "// golden: λ x. (x", 21, "golden 'λ x. (x' is not a pure term"),
    "golden_erased_lambda": ("reuse", "// golden: λ x. x", "// golden: Λ X. λ x. x", 21,
                             "golden 'Λ X. λ x. x' is not a pure term: Λ X. λ x. x is not a variable"),
    "golden_annotated_lambda": ("reuse", "// golden: λ x. x", "// golden: λ x : Nat. x", 21,
                                "golden 'λ x : Nat. x' is not a pure term: λ x : Nat. x is not a variable"),
    "golden_erased_application": ("reuse", "// golden: λ x. x", "// golden: λ x. x -Nat", 21,
                                  "golden 'λ x. x -Nat' is not a pure term: x -Nat is not a variable"),
    "golden_beta": ("reuse", "// golden: λ x. x", "// golden: β", 21, "golden 'β' is not a pure term: β is not a variable"),
    "partner_not_earlier": ("vec", "same-erasure: nilL", "same-erasure: consV", 23,
                            "same-erasure 'consV' names no earlier definition"),
    "misplaced": ("reuse", "{ xs }.", "{ xs }.  // golden: λ x. x", 22, "not a definition's header line"),
}


def annotated_copy(tmp_path, stem, old, new):
    """A copy of the corpus under ``tmp_path`` whose ``stem`` module has
    its first ``old`` replaced by ``new``; returns the copy's root."""
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS, root)
    path = root / f"{stem}.cdl"
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return str(root)


@pytest.mark.parametrize("case", sorted(BAD_ANNOTATIONS))
def test_bad_annotation_names_its_line(tmp_path, case):
    stem, old, new, line, message = BAD_ANNOTATIONS[case]
    root = annotated_copy(tmp_path, stem, old, new)
    with pytest.raises(ValueError) as err:
        corpus_manifest(root)
    assert str(err.value).startswith(f"{root}/{stem}.cdl:{line}: ")
    assert message in str(err.value)


@pytest.mark.parametrize("text", ["Λ X. λ x. x", "λ x : Nat. x", "λ x. x -Nat", "β"])
def test_parse_pure_rejects_annotated_syntax(text):
    """Each of these used to parse and be erased to ``λ x. x`` (or a
    variable); a golden holds only variables, unannotated λs and
    applications."""
    with pytest.raises(ValueError, match="is not a variable, an unannotated λ or an application"):
        parse_pure(text)


def test_every_entry_typechecks(manifest, checked_corpus):
    _, report = checked_corpus
    checked = {r.name for r in report.results if r.ok}
    for e in manifest:
        assert e.name in checked


def test_verify_goldens_all_pass(manifest, checked_corpus):
    ck, _ = checked_corpus
    results = verify_goldens(manifest, ck)
    bad = [r for r in results if not r.ok]
    assert not bad, bad
    # every golden name and every shared pair was exercised
    assert len(results) == 26


def test_mutated_golden_is_reported(manifest, checked_corpus):
    ck, _ = checked_corpus
    twisted = [
        e._replace(golden_erasure="λ f. λ x. f")
        if e.name == "appV2appL!"
        else e
        for e in manifest
    ]
    results = verify_goldens(twisted, ck)
    bad = [r for r in results if not r.ok]
    assert [r.name for r in bad] == ["appV2appL!"]


def test_pair_without_a_checked_body_is_reported(manifest, checked_corpus):
    """A shared-erasure partner that has no erasure (a type) fails its
    pair, as a golden on such a definition fails, instead of raising."""
    ck, _ = checked_corpus
    twisted = [e._replace(same_erasure="Nat") if e.name == "nilV" else e for e in manifest]
    bad = [r for r in verify_goldens(twisted, ck) if not r.ok]
    assert [(r.name, r.detail) for r in bad] == [("Nat=nilV", "definition has no checked body")]


def test_packaged_conversions_are_identities(checked_corpus):
    ck, _ = checked_corpus
    ident = PLam("x", PVar("x"))
    for name in ("v2lG!", "l2vG!", "appV2appLG!", "appL2appVG!", "assocV2assocL!"):
        nf = normalize(ck.pure_env[name]).result
        assert alpha_eq(nf, ident), f"|{name}| is not the identity"


def test_elim_of_any_iddep_value_is_identity(checked_corpus, corpus_defs):
    """Eliminating any IdDep/Id-classified corpus value erases to λ a. a."""
    from cdle.erasure import erase
    from cdle.surface import parse_term
    from cdle.syntax import App, EApp, Term, Var

    ck, _ = checked_corpus
    ident = PLam("a", PVar("a"))
    iddep_entries = []
    for _, d in corpus_defs:
        c = pretty(d.classifier)
        head = c.split("Id ·")[0] if "Id ·" in c else None
        if d.body is None or not isinstance(d.body, Term):
            continue
        # IdDep/Id-valued definitions: classifier tail mentions Id · or IdDep ·
        if ("Id ·" in c or "IdDep ·" in c) and d.name.endswith("G"):
            iddep_entries.append(d.name)
    assert iddep_entries, "expected packaged Id/IdDep values in the corpus"
    elim = ck.pure_env["elimIdDep"]
    from cdle.syntax import PApp

    for name in iddep_entries:
        applied = PApp(elim, ck.pure_env[name])
        nf = normalize(applied).result
        assert alpha_eq(nf, ident), f"elimIdDep {name} is not the identity"


def test_wrong_variant_typechecks_but_fails_identity(checked_corpus):
    ck, report = checked_corpus
    assert any(r.name == "appL2appV!wrong" and r.ok for r in report.results)
    nf = normalize(ck.pure_env["appL2appV!wrong"]).result
    assert not alpha_eq(nf, PLam("x", PVar("x")))
    assert not alpha_eq(nf, parse_pure("λ f. f"))


def test_documented_normal_form_of_append(checked_corpus):
    ck, _ = checked_corpus
    golden = parse_pure("λ xs. xs (λ ys. ys) (λ x, ih, ys, cN, cC. cC x (ih ys cN cC))")
    for name in ("appL", "appV"):
        nf = normalize(ck.pure_env[name]).result
        assert alpha_eq(nf, golden)


def test_checked_corpus_is_frozen_out_of_the_cyclic_collector():
    """``load_checked_corpus`` collects garbage, then freezes what is alive:
    the checker it returns is no longer traced by the collector, and loads
    whose results are dropped leave the frozen set as it was, so repeated
    loads in one process hold no more memory."""
    import gc

    from cdle.corpus import load_checked_corpus

    ck, _ = load_checked_corpus(CORPUS)
    assert not any(o is ck.ctx for o in gc.get_objects())
    del ck
    frozen = []
    for _ in range(3):
        load_checked_corpus(CORPUS)
        frozen.append(gc.get_freeze_count())
    assert frozen[0] > 0 and frozen[0] == frozen[1] == frozen[2], frozen
