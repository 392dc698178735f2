"""The checked corpus: manifest, golden erasures, and cost classes.

The corpus lives under ``corpus/`` as ``.cdl`` modules, layered from the
Church-encoded base types up to the scheme-level identity algebras.  The
manifest enumerates every definition in dependency order and records,
where applicable, a golden erasure (the pure term the definition's
erasure must beta-eta-normalize to) and a cost class measured by the
harness.  Classifier strings for the central definitions are pinned
literally so accidental corpus edits are caught by tests.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from typing import Optional

from .loader import load_program
from .reduction import Fuel, FuelExhaustedError, apply_and_count, beta_eta_eq, normalize
from .syntax import PApp, PLam, PureTerm, PVar, alpha_eq
from .typecheck import Checker, CheckReport, check_defs

CORPUS_FILE_ORDER = [
    "base",
    "list",
    "vec",
    "reuse",
    "append",
    "identity",
    "combinators",
    "packaged",
    "examples",
    "schemes",
]


def default_corpus_root() -> str:
    """The repo corpus directory (next to the package when installed
    editable), falling back to ./corpus."""
    here = os.path.dirname(os.path.abspath(__file__))
    cand = os.path.normpath(os.path.join(here, "..", "..", "corpus"))
    if os.path.isdir(cand):
        return cand
    return os.path.join(os.getcwd(), "corpus")


def corpus_paths(root: Optional[str] = None) -> list[str]:
    root = root or default_corpus_root()
    return [os.path.join(root, f"{stem}.cdl") for stem in CORPUS_FILE_ORDER]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    file: str
    golden_erasure: Optional[str] = None
    cost_class: Optional[str] = None  # "constant" | "linear"
    input_kind: Optional[str] = None  # "list" | "vec" (cost harness input)


IDENTITY_GOLDEN = "λ x. x"

# erasures the development equates to concrete untyped terms
GOLDENS: dict[str, str] = {
    "nilL": "λ cN. λ cC. cN",
    "nilV": "λ cN. λ cC. cN",
    "consL": "λ x. λ xs. λ cN. λ cC. cC x (xs cN cC)",
    "consV": "λ x. λ xs. λ cN. λ cC. cC x (xs cN cC)",
    "appL": "λ xs. xs (λ ys. ys) (λ x. λ ih. λ ys. λ cN. λ cC. cC x (ih ys cN cC))",
    "appV": "λ xs. xs (λ ys. ys) (λ x. λ ih. λ ys. λ cN. λ cC. cC x (ih ys cN cC))",
    "v2l!": IDENTITY_GOLDEN,
    "l2v!": IDENTITY_GOLDEN,
    "appV2appL!": "λ f. f",
    "appL2appV!": "λ f. f",
    "elimIdDep": "λ c. λ a. a",
    "elimId": "λ c. λ a. a",
    "v2lG!": IDENTITY_GOLDEN,
    "l2vG!": IDENTITY_GOLDEN,
    "appV2appLG!": IDENTITY_GOLDEN,
    "appL2appVG!": IDENTITY_GOLDEN,
    "assocV2assocL!": IDENTITY_GOLDEN,
    "nilLF": "λ cN. λ cC. cN",
    "nilVF": "λ cN. λ cC. cN",
    "consLF": "λ x. λ xs. λ cN. λ cC. cC x xs",
    "consVF": "λ x. λ xs. λ cN. λ cC. cC x xs",
}

# pairs of definitions that must share one underlying untyped term
SHARED_ERASURE_PAIRS = [
    ("nilL", "nilV"),
    ("consL", "consV"),
    ("appL", "appV"),
    ("nilLF", "nilVF"),
    ("consLF", "consVF"),
]


def negative_expectations(directory: str) -> dict[str, str]:
    """The error code each ``.cdl`` file in ``directory`` (the negative
    suite) must be rejected with, by file stem, read from the file's
    ``// expect: Code`` first line; raises ValueError for a file without
    one."""
    prefix = "// expect: "
    out: dict[str, str] = {}
    for name in sorted(os.listdir(directory)):
        stem, ext = os.path.splitext(name)
        if ext != ".cdl":
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            first = fh.readline()
        if not first.startswith(prefix):
            raise ValueError(f"{name}: the first line must be '{prefix}Code'")
        out[stem] = first[len(prefix):].strip()
    return out


COST_CLASSES: dict[str, tuple[str, str]] = {
    # name -> (cost class, synthesized input kind)
    "v2l": ("linear", "vec"),
    "v2l!": ("constant", "vec"),
    "l2v": ("linear", "list"),
    "l2v!": ("constant", "list"),
    "v2lG!": ("constant", "vec"),
    "l2vG!": ("constant", "list"),
}

_PINNED_CLASSIFIERS: dict[str, str] = {
    "Nat": "★",
    "zero": "Nat",
    "suc": "Nat ➔ Nat",
    "add": "Nat ➔ Nat ➔ Nat",
    "Unit": "★",
    "unit": "Unit",
    "Bool": "★",
    "tt": "Bool",
    "ff": "Bool",
    "Sigma": "Π A : ★. (A ➔ ★) ➔ ★",
    "pair": "∀ A : ★. ∀ B : A ➔ ★. Π a : A. B a ➔ Sigma · A · B",
    "proj1": "∀ A : ★. ∀ B : A ➔ ★. Sigma · A · B ➔ A",
    "proj2": "∀ A : ★. ∀ B : A ➔ ★. Π p : Sigma · A · B. B (proj1 -A -B p)",
    "List": "★ ➔ ★",
    "nilL": "∀ A : ★. List · A",
    "consL": "∀ A : ★. A ➔ List · A ➔ List · A",
    "elimList": "∀ A : ★. ∀ P : List · A ➔ ★. P (nilL -A) ➔ (∀ xs : List · A. Π x : A. P xs ➔ P (consL -A x xs)) ➔ Π xs : List · A. P xs",
    "len": "∀ A : ★. List · A ➔ Nat",
    "Vec": "★ ➔ Nat ➔ ★",
    "nilV": "∀ A : ★. Vec · A zero",
    "consV": "∀ A : ★. ∀ n : Nat. A ➔ Vec · A n ➔ Vec · A (suc n)",
    "elimVec": "∀ A : ★. ∀ P : Π n : Nat. Vec · A n ➔ ★. P zero (nilV -A) ➔ (∀ n : Nat. ∀ xs : Vec · A n. Π x : A. P n xs ➔ P (suc n) (consV -A -n x xs)) ➔ ∀ n : Nat. Π xs : Vec · A n. P n xs",
    "v2l": "∀ A : ★. ∀ n : Nat. Vec · A n ➔ List · A",
    "v2lId": "∀ A : ★. ∀ n : Nat. Π xs : Vec · A n. (v2l -A -n xs) ≃ xs",
    "v2l!": "∀ A : ★. ∀ n : Nat. Vec · A n ➔ List · A",
    "l2v": "∀ A : ★. Π xs : List · A. Vec · A (len -A xs)",
    "l2vId": "∀ A : ★. Π xs : List · A. (l2v -A xs) ≃ xs",
    "l2v!": "∀ A : ★. Π xs : List · A. Vec · A (len -A xs)",
    "v2lPresLen": "∀ A : ★. ∀ n : Nat. Π xs : Vec · A n. n ≃ (len -A (v2l -A -n xs))",
    "AppL": "★",
    "AppV": "★",
    "appL": "AppL",
    "appV": "AppV",
    "appV2appL": "AppV ➔ AppL",
    "appV2appLId": "Π f : AppV. ∀ A : ★. Π xs : List · A. Π ys : List · A. (appV2appL f -A xs ys) ≃ (f -A -(len -A xs) (l2v! -A xs) -(len -A ys) (l2v! -A ys))",
    "appV2appL!": "AppV ➔ AppL",
    "LenDistAppL": "AppL ➔ ★",
    "appL2appV": "Π f : AppL. LenDistAppL f ➔ AppV",
    "appL2appVId": "Π f : AppL. Π q : LenDistAppL f. ∀ A : ★. ∀ n : Nat. ∀ m : Nat. Π xs : Vec · A n. Π ys : Vec · A m. (appL2appV f q -A -n xs -m ys) ≃ (f -A (v2l! -A -n xs) (v2l! -A -m ys))",
    "appL2appV!": "Π f : AppL. LenDistAppL f ➾ AppV",
    "appL2appV!wrong": "Π f : AppL. LenDistAppL f ➔ AppV",
    "IdDep": "Π A : ★. (A ➔ ★) ➔ ★",
    "intrIdDep": "∀ A : ★. ∀ B : A ➔ ★. Π f : Π a : A. B a. (Π a : A. f a ≃ a) ➔ IdDep · A · B",
    "elimIdDep": "∀ A : ★. ∀ B : A ➔ ★. IdDep · A · B ➔ Π a : A. B a",
    "Id": "★ ➔ ★ ➔ ★",
    "intrId": "∀ A : ★. ∀ B : ★. Π f : A ➔ B. (Π a : A. f a ≃ a) ➔ Id · A · B",
    "elimId": "∀ A : ★. ∀ B : ★. Id · A · B ➔ A ➔ B",
    "id": "∀ A : ★. Id · A · A",
    "copyType": "∀ F : ★ ➔ ★. ∀ G : ★ ➔ ★. (∀ A : ★. Id · (F · A) · (G · A)) ➔ Id · (∀ A : ★. F · A) · (∀ A : ★. G · A)",
    "copyTypeP": "∀ F : ★ ➔ ★. ∀ P : Π A : ★. F · A ➔ ★. ∀ G : ★ ➔ ★. (∀ A : ★. IdDep · (F · A) · (λ xs : F · A. P · A xs ➾ G · A)) ➔ IdDep · (∀ A : ★. F · A) · (λ xs : ∀ A : ★. F · A. (∀ A : ★. P · A (xs -A)) ➾ ∀ A : ★. G · A)",
    "subst": "∀ Y : ★. ∀ I : ★. ∀ X : I ➔ ★. ∀ r : Y ➔ I. ∀ i : I. IdDep · Y · (λ y : Y. X (r y)) ➔ IdDep · Y · (λ y : Y. (r y ≃ i) ➾ X i)",
    "substR": "∀ Y : ★. ∀ I : ★. ∀ X : I ➔ ★. ∀ r : Y ➔ I. ∀ i : I. IdDep · Y · (λ y : Y. X (r y)) ➔ IdDep · Y · (λ y : Y. (i ≃ r y) ➾ X i)",
    "supplyPrem": "∀ Y : ★. ∀ I : ★. ∀ X : I ➔ Y ➔ ★. IdDep · Y · (λ y : Y. ∀ i : I. X i y) ➔ ∀ i : I. IdDep · Y · (X i)",
    "allPi2pi": "∀ I : ★. ∀ X : I ➔ ★. ∀ X' : Π i : I. X i ➔ ★. ∀ Y : ★. ∀ Y' : Y ➔ ★. Π r : Y ➔ I. Π c1 : IdDep · Y · (λ y : Y. X (r y)). (Π y : Y. Id · (X' (r y) (elimIdDep -Y -(λ y' : Y. X (r y')) c1 y)) · (Y' y)) ➔ Id · (∀ i : I. Π x : X i. X' i x) · (Π y : Y. Y' y)",
    "allArr2arr": "∀ I : ★. ∀ X : I ➔ ★. ∀ X' : I ➔ ★. ∀ Y : ★. ∀ Y' : ★. Π r : Y ➔ I. IdDep · Y · (λ y : Y. X (r y)) ➔ (Π y : Y. Id · (X' (r y)) · Y') ➔ Id · (∀ i : I. X i ➔ X' i) · (Y ➔ Y')",
    "pi2allPiP": "∀ Y : ★. ∀ Y' : Y ➔ ★. ∀ P : Π y : Y. Y' y ➔ ★. ∀ I : ★. ∀ X : I ➔ ★. ∀ X' : Π i : I. X i ➔ ★. Π r : Y ➔ I. Π c1 : ∀ i : I. Id · (X i) · Y. Π c1' : ∀ i : I. Π x : X i. i ≃ r (elimId -(X i) -Y (c1 -i) x). (∀ i : I. Π x : X i. IdDep · (Y' (elimId -(X i) -Y (c1 -i) x)) · (λ y' : Y' (elimId -(X i) -Y (c1 -i) x). P (elimId -(X i) -Y (c1 -i) x) y' ➾ X' (r (elimId -(X i) -Y (c1 -i) x)) (ρ (ς (c1' -i x)) - x))) ➔ IdDep · (Π y : Y. Y' y) · (λ f : Π y : Y. Y' y. (Π y : Y. P y (f y)) ➾ ∀ i : I. Π x : X i. X' i x)",
    "arr2allArrP": "∀ Y : ★. ∀ Y' : ★. ∀ P : Y ➔ Y' ➔ ★. ∀ I : ★. ∀ X : I ➔ ★. ∀ X' : I ➔ ★. Π r : Y ➔ I. Π c1 : ∀ i : I. Id · (X i) · Y. (∀ i : I. Π x : X i. i ≃ r (elimId -(X i) -Y (c1 -i) x)) ➔ (∀ i : I. Π x : X i. IdDep · Y' · (λ y' : Y'. P (elimId -(X i) -Y (c1 -i) x) y' ➾ X' (r (elimId -(X i) -Y (c1 -i) x)))) ➔ IdDep · (Y ➔ Y') · (λ f : Y ➔ Y'. (Π y : Y. P y (f y)) ➾ ∀ i : I. X i ➔ X' i)",
    "v2lG": "∀ A : ★. ∀ n : Nat. Id · (Vec · A n) · (List · A)",
    "l2vG": "∀ A : ★. IdDep · (List · A) · (λ xs : List · A. Vec · A (len -A xs))",
    "v2lG!": "∀ A : ★. ∀ n : Nat. Vec · A n ➔ List · A",
    "l2vG!": "∀ A : ★. Π xs : List · A. Vec · A (len -A xs)",
    "v2lPresLenG": "∀ A : ★. ∀ n : Nat. Π xs : Vec · A n. n ≃ (len -A (v2lG! -A -n xs))",
    "appV2appLG": "Id · AppV · AppL",
    "appV2appLG!": "AppV ➔ AppL",
    "AssocL": "AppL ➔ ★",
    "AssocV": "AppV ➔ ★",
    "assocV2assocL": "∀ appV : AppV. Id · (AssocV appV) · (AssocL (appV2appLG! appV))",
    "assocV2assocL!": "∀ appV : AppV. AssocV appV ➔ AssocL (appV2appLG! appV)",
    "appL2appVG": "IdDep · AppL · (λ f : AppL. LenDistAppL f ➾ AppV)",
    "appL2appVG!": "Π f : AppL. LenDistAppL f ➾ AppV",
    "ListF": "★ ➔ ★ ➔ ★",
    "nilLF": "∀ A : ★. ∀ X : ★. ListF · A · X",
    "consLF": "∀ A : ★. ∀ X : ★. A ➔ X ➔ ListF · A · X",
    "elimListF": "∀ A : ★. ∀ X : ★. ∀ P : ListF · A · X ➔ ★. P (nilLF -A -X) ➔ (Π x : A. Π xs : X. P (consLF -A -X x xs)) ➔ Π v : ListF · A · X. P v",
    "VecF": "★ ➔ (Nat ➔ ★) ➔ Nat ➔ ★",
    "nilVF": "∀ A : ★. ∀ X : Nat ➔ ★. VecF · A · X zero",
    "consVF": "∀ A : ★. ∀ X : Nat ➔ ★. ∀ n : Nat. A ➔ X n ➔ VecF · A · X (suc n)",
    "elimVecF": "∀ A : ★. ∀ X : Nat ➔ ★. ∀ P : Π n : Nat. VecF · A · X n ➔ ★. P zero (nilVF -A -X) ➔ (∀ n : Nat. Π x : A. Π xs : X n. P (suc n) (consVF -A -X -n x xs)) ➔ ∀ n : Nat. Π v : VecF · A · X n. P n v",
    "IdMapping": "(★ ➔ ★) ➔ ★",
    "IIdMapping": "Π I : ★. ((I ➔ ★) ➔ I ➔ ★) ➔ ★",
    "AlgC": "(★ ➔ ★) ➔ ★ ➔ ★",
    "AlgM": "(★ ➔ ★) ➔ ★ ➔ ★",
    "lenAlgM": "∀ X : ★. AlgM · (ListF · X) · Nat",
    "vf2lf": "∀ A : ★. ∀ X : Nat ➔ ★. ∀ Y : ★. (∀ n : Nat. Id · (X n) · Y) ➔ ∀ n : Nat. Id · (VecF · A · X n) · (ListF · A · Y)",
    "lf2vf": "∀ A : ★. ∀ Y : ★. ∀ X : Nat ➔ ★. Π r : Y ➔ Nat. IdDep · Y · (λ y : Y. X (r y)) ➔ IdDep · (ListF · A · Y) · (λ v : ListF · A · Y. VecF · A · X (lenAlgM -A -Y r v))",
}


def corpus_manifest(root: Optional[str] = None) -> list[CorpusEntry]:
    """Every corpus definition, in dependency order.  Right after a load
    of the corpus, such as ``load_checked_corpus``, this parses nothing:
    the loader reuses every unchanged module."""
    entries: list[CorpusEntry] = []
    for file, d in load_program(corpus_paths(root)):
        cost = COST_CLASSES.get(d.name)
        entries.append(
            CorpusEntry(
                name=d.name,
                file=file,
                golden_erasure=GOLDENS.get(d.name),
                cost_class=cost[0] if cost else None,
                input_kind=cost[1] if cost else None,
            )
        )
    return entries


def load_checked_corpus(root: Optional[str] = None, fuel: Fuel = Fuel()) -> tuple[Checker, CheckReport]:
    """Load and check the full corpus under ``root`` (default: the repo
    corpus).  Every call checks afresh; a module file unchanged since
    the last load is not parsed again (``loader``).

    The checked corpus is long-lived and no code changes it, so the call
    ends by collecting garbage and freezing every object then alive
    (``gc.freeze``): later full collections, such as one that falls
    inside a cost-table row, do not trace the corpus's ~30k nodes, which
    takes about 10 ms.  A frozen object is still freed by reference
    counting once it is dropped, and nothing unreachable is frozen."""
    out = check_defs(load_program(corpus_paths(root)), Checker(fuel))
    gc.collect()
    gc.freeze()
    return out


@dataclass
class GoldenResult:
    name: str
    ok: bool
    detail: str = ""


def parse_pure(text: str) -> PureTerm:
    """Parse a pure term golden (the term grammar restricted to
    variables, λ, application)."""
    from .erasure import erase
    from .surface import parse_term

    return erase(parse_term(text))


def verify_goldens(manifest: list[CorpusEntry], checker: Checker, fuel: Fuel = Fuel()) -> list[GoldenResult]:
    """Check every golden erasure and every shared-erasure pair."""
    out: list[GoldenResult] = []
    for e in manifest:
        if e.golden_erasure is None:
            continue
        if e.name not in checker.pure_env:
            out.append(GoldenResult(e.name, False, "definition has no checked body"))
            continue
        golden = parse_pure(e.golden_erasure)
        ok = beta_eta_eq(checker.pure_env[e.name], golden, fuel)
        out.append(GoldenResult(e.name, ok, "" if ok else f"erasure differs from {e.golden_erasure}"))
    for a, b in SHARED_ERASURE_PAIRS:
        ok = beta_eta_eq(checker.pure_env[a], checker.pure_env[b], fuel)
        out.append(GoldenResult(f"{a}={b}", ok, "" if ok else "erasures differ"))
    return out


# ---------------------------------------------------------------------------
# cost harness: input synthesis and step-counted runs
# ---------------------------------------------------------------------------


def synth_input_nf(checker: Checker, kind: str, n: int, fuel: Fuel = Fuel()) -> PureTerm:
    """The normal form of a ``kind`` ("list" or "vec") of n unit elements,
    built directly in O(n) as ``λ cN. λ cC. cC u (… (cC u cN))`` (5n + 3
    nodes), where ``u`` is the normal form of ``unit`` under ``fuel``.

    Lists and vectors share one erasure (vector indices are erased), and
    this is the term, binder names included, that normalizing
    ``cons unit (… nil)`` reaches; ``tests/test_cost_oracle.py`` checks
    the two agree.  Raises ``ValueError`` for any other ``kind``."""
    if kind not in ("list", "vec"):
        raise ValueError(f"unknown input kind {kind!r}")
    u = normalize(PVar("unit"), fuel, checker.pure_env).result
    cc = PVar("cC")
    spine: PureTerm = PVar("cN")
    for _ in range(n):
        spine = PApp(PApp(cc, u), spine)
    return PLam("cN", PLam("cC", spine))


def cost_rows(
    checker: Checker, name: str, sizes: list[int], fuel: Fuel = Fuel()
) -> list[tuple[int, int, int, bool, bool]]:
    """Step-count the measured conversion ``name`` on a synthesized input
    of each distinct size: ``(n, beta_steps, eta_steps, fuel_exhausted,
    same)`` rows in increasing ``n``, one per size however often it is
    given.  Every measured conversion returns its input's erasure, so
    ``same`` is False only when the counted run returned a term that is
    not alpha-equal to its input.  Raises ``FuelExhaustedError`` when the
    conversion itself does not normalize within fuel."""
    kind = COST_CLASSES[name][1]
    fn = normalize(checker.pure_env[name], fuel)
    if fn.fuel_exhausted:
        raise FuelExhaustedError(fn.beta_steps, fn.eta_steps)
    rows = []
    for n in sorted(set(sizes)):
        inp = synth_input_nf(checker, kind, n, fuel)
        out = apply_and_count(fn.result, [inp], fuel)
        same = out.fuel_exhausted or alpha_eq(out.result, inp)
        rows.append((n, out.beta_steps, out.eta_steps, out.fuel_exhausted, same))
    return rows
