"""The checked corpus: manifest, golden erasures, and cost classes.

The corpus lives under ``corpus/`` as ``.cdl`` modules, layered from the
Church-encoded base types up to the scheme-level identity algebras.  The
manifest enumerates every definition in dependency order, with what the
definition's header line (the line of its name) says of it in a trailing
comment of ``;``-separated directives: ``golden: <pure term>``, the term
its erasure must beta-eta-normalize to, and ``same-erasure: <earlier
definition>``, a definition that must share its untyped term.  It also
records the cost class the harness measures, from ``COST_CLASSES``.
``corpus/MANIFEST.md`` is rendered from the manifest and the parsed
classifiers, and a test keeps the file equal to that rendering.
"""

from __future__ import annotations

import gc
import os
import re
from typing import NamedTuple, Optional

from .erasure import erase
from .loader import load_program
from .pretty import pretty
from .reduction import Fuel, FuelExhaustedError, apply_and_count, beta_eta_eq, normalize
from .surface import ParseError, parse_term
from .syntax import App, Lam, PApp, PLam, PureTerm, PVar, Var, alpha_eq
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


class CorpusEntry(NamedTuple):
    name: str
    file: str
    golden_erasure: Optional[str] = None
    same_erasure: Optional[str] = None
    cost_class: Optional[str] = None  # "constant" | "linear"


_DIRECTIVE = re.compile(r"\s*([\w-]+):\s*(\S.*?)\s*")


def comment_directives(line: str) -> Optional[dict[str, str]]:
    """The ``key: value`` directives of ``line``'s ``//`` comment,
    separated by ``;``: empty when the line has no comment, None when the
    comment is not such a list or repeats a key."""
    _, sep, comment = line.partition("//")
    if not sep:
        return {}
    parts = [_DIRECTIVE.fullmatch(part) for part in comment.split(";")]
    out = dict(m.groups() for m in parts if m)
    return out if len(out) == len(parts) else None


def negative_expectations(directory: str) -> dict[str, str]:
    """The error code each ``.cdl`` file in ``directory`` (the negative
    suite) must be rejected with, by file stem, read from the file's
    ``// expect: Code`` first line; raises ValueError for a file without
    one."""
    out: dict[str, str] = {}
    for name in sorted(os.listdir(directory)):
        stem, ext = os.path.splitext(name)
        if ext != ".cdl":
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            first = fh.readline()
        directives = comment_directives(first) if first.startswith("//") else None
        if directives is None or list(directives) != ["expect"]:
            raise ValueError(f"{name}: the first line must be '// expect: Code'")
        out[stem] = directives["expect"]
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

# a corpus directive misplaced on a line that is not a header line
_MISPLACED = re.compile(r"//(?:.*;)?\s*(?:golden|same-erasure):")


def corpus_manifest(root: Optional[str] = None) -> list[CorpusEntry]:
    """Every corpus definition, in dependency order, with the directives
    of its header line (module docstring).  Raises ValueError naming
    ``file:line`` for an unknown key, a header comment that is not a list
    of directives, a golden that is not a pure term, a ``same-erasure``
    that names no earlier definition, and a directive on a line that is
    not a header line.  Right after a load of the corpus, such as
    ``load_checked_corpus``, this parses no module: the loader reuses
    every unchanged one."""
    defs = load_program(corpus_paths(root))
    texts: dict[str, list[str]] = {}
    for file, _ in defs:
        if file not in texts:
            with open(file, encoding="utf-8") as fh:
                texts[file] = fh.read().split("\n")
    headers = {(file, d.span.line) for file, d in defs}
    for file, lines in texts.items():
        for lineno, line in enumerate(lines, 1):
            if "//" in line and (file, lineno) not in headers and _MISPLACED.search(line):
                raise ValueError(f"{file}:{lineno}: a directive on a line that is not a definition's header line")
    entries: list[CorpusEntry] = []
    for file, d in defs:
        where = f"{file}:{d.span.line}"
        directives = comment_directives(texts[file][d.span.line - 1])
        if directives is None:
            raise ValueError(f"{where}: the header comment is not a list of 'key: value' directives")
        for key in sorted(directives.keys() - {"golden", "same-erasure"}):
            raise ValueError(f"{where}: unknown key {key!r}")
        golden, same = directives.get("golden"), directives.get("same-erasure")
        if golden is not None:
            try:
                parse_pure(golden)
            except (ParseError, ValueError) as e:
                raise ValueError(f"{where}: golden {golden!r} is not a pure term: {e}") from None
        if same is not None and same not in {e.name for e in entries}:
            raise ValueError(f"{where}: same-erasure {same!r} names no earlier definition")
        cost_class = COST_CLASSES[d.name][0] if d.name in COST_CLASSES else None
        entries.append(CorpusEntry(d.name, file, golden, same, cost_class))
    return entries


def load_checked_corpus(root: Optional[str] = None, fuel: Fuel = Fuel()) -> tuple[Checker, CheckReport]:
    """Load and check the full corpus under ``root`` (default: the repo
    corpus).  A module file unchanged since it was last loaded is not
    parsed again (``loader``), and the check replays each definition
    that an earlier check from an empty checker checked from the same
    parsed module, in the same scope and at the same fuel
    (``check_defs``): so the corpus is checked once per process.

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


class GoldenResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def parse_pure(text: str) -> PureTerm:
    """Parse a pure term golden (the term grammar restricted to
    variables, λ, application).  Raises ``ParseError`` for text that
    does not parse, and ``ValueError`` for a term with anything else."""
    t = parse_term(text)
    stack = [t]
    while stack:
        cur = stack.pop()
        if type(cur) is App:
            stack += (cur.fn, cur.arg)
        elif type(cur) is Lam and cur.ann is None:
            stack.append(cur.body)
        elif type(cur) is not Var:
            raise ValueError(f"{pretty(cur)} is not a variable, an unannotated λ or an application")
    return erase(t)


def verify_goldens(manifest: list[CorpusEntry], checker: Checker, fuel: Fuel = Fuel()) -> list[GoldenResult]:
    """Check every golden erasure, then every shared-erasure pair, in
    manifest order; a check that names a definition without a checked
    body, or whose comparison runs out of fuel, fails."""
    env = checker.pure_env
    checks = [(e.name, [e.name], e.golden_erasure) for e in manifest if e.golden_erasure is not None]
    checks += [(f"{e.same_erasure}={e.name}", [e.same_erasure, e.name], None)
               for e in manifest if e.same_erasure is not None]
    out: list[GoldenResult] = []
    for label, names, golden in checks:
        if any(n not in env for n in names):
            out.append(GoldenResult(label, False, "definition has no checked body"))
            continue
        differ = "erasures differ" if golden is None else f"erasure differs from {golden}"
        try:
            ok = beta_eta_eq(env[names[0]], env[names[1]] if golden is None else parse_pure(golden), fuel)
        except FuelExhaustedError as e:
            ok, differ = False, str(e)
        out.append(GoldenResult(label, ok, "" if ok else differ))
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
    the two agree.  Raises ``ValueError`` for any other ``kind``, and
    ``FuelExhaustedError`` (``what`` is ``"unit"``) when ``unit`` does
    not normalize within ``fuel``."""
    if kind not in ("list", "vec"):
        raise ValueError(f"unknown input kind {kind!r}")
    nf = normalize(PVar("unit"), fuel, checker.pure_env)
    if nf.fuel_exhausted:
        raise FuelExhaustedError(nf.beta_steps, nf.eta_steps, what="unit")
    u = nf.result
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
    conversion itself (``what`` is ``"the conversion"``) or ``unit`` does
    not normalize within fuel."""
    kind = COST_CLASSES[name][1]
    fn = normalize(checker.pure_env[name], fuel)
    if fn.fuel_exhausted:
        raise FuelExhaustedError(fn.beta_steps, fn.eta_steps, what="the conversion")
    # one input of the largest size, so that ``unit`` is normalized once;
    # the input of size n has the same binders over the last n cells
    tails = [synth_input_nf(checker, kind, max(sizes, default=0), fuel).body.body]
    while type(tails[-1]) is PApp:
        tails.append(tails[-1].arg)
    rows = []
    for n in sorted(set(sizes)):
        inp = PLam("cN", PLam("cC", tails[-1 - n]))
        out = apply_and_count(fn.result, [inp], fuel)
        same = out.fuel_exhausted or alpha_eq(out.result, inp)
        rows.append((n, out.beta_steps, out.eta_steps, out.fuel_exhausted, same))
    return rows
