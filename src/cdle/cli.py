"""Command-line harness: parser → checker → normalizer → corpus verification
and the cost-scaling experiment.

Verbs:
    check      typecheck modules (exit 0 iff all definitions pass)
    erase      print the βη-normal erasure of a definition
    normalize  normalize a definition's erasure (or a --term) with step counts
    eq         decide whether two definitions share one erased term
    cost       run the step-counting experiment for a measured conversion
    verify     the whole verdict: corpus, goldens, negative suite, cost classes

Exit codes: 0 success, 1 semantic failure, 2 usage/parse/IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import (
    COST_CLASSES,
    corpus_manifest,
    cost_rows,
    default_corpus_root,
    load_checked_corpus,
    negative_expectations,
    verify_goldens,
)
from .loader import LoadError, load_program
from .pretty import pretty
from .reduction import Fuel, FuelExhaustedError, beta_eta_eq, normalize
from .surface import ParseError, parse_term
from .typecheck import Checker, ModuleError, check_defs
from .erasure import erase

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2


class CliError(Exception):
    """A command's failure: ``main`` prints ``error: message`` to stderr
    and exits with ``code``."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _fuel(args) -> Fuel:
    if args.max_steps <= 0:
        raise CliError("--max-steps must be positive")
    return Fuel(args.max_steps)


def _load_and_check(paths, root, fuel):
    defs = load_program(paths, root=root)
    return check_defs(defs, Checker(fuel))


def cmd_check(args) -> int:
    ck, report = _load_and_check(args.paths, args.root, _fuel(args))
    if args.json:
        for r in report.results:
            rec = {"def": r.name, "status": "ok" if r.ok else "error"}
            if not r.ok:
                rec["errorCode"] = r.code
                if r.span is not None:
                    rec["span"] = str(r.span)
            print(json.dumps(rec, ensure_ascii=False))
    else:
        print(report.render())
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def _erasures(args, *names):
    """Load and check ``args.path``; return the erasures of the term definitions
    ``names`` in it."""
    ck, report = _load_and_check([args.path], args.root, _fuel(args))
    if not report.ok:
        raise CliError("\nerror: ".join(r.line() for r in report.results if not r.ok), EXIT_SEMANTIC)
    for name in names:
        if name not in ck.ctx:
            raise CliError(f"no definition named {name!r}")
        if name not in ck.pure_env:
            raise CliError(f"{name!r} has no erasure: it is not a term definition with a body")
    return [ck.pure_env[name] for name in names]


def _def_nf(args):
    """The normal form of the erasure of ``args.name`` in ``args.path``."""
    [t] = _erasures(args, args.name)
    out = normalize(t, _fuel(args))
    if out.fuel_exhausted:
        raise CliError("fuel exhausted", EXIT_SEMANTIC)
    return out


def _print_term(t) -> None:
    try:
        text = pretty(t)
    except RecursionError:
        raise CliError("normal form nested too deeply to print") from None
    print(text)


def cmd_erase(args) -> int:
    _print_term(_def_nf(args).result)
    return EXIT_OK


def cmd_normalize(args) -> int:
    if args.term is not None:
        out = normalize(erase(parse_term(args.term)), _fuel(args))
        if out.fuel_exhausted:
            print(f"fuel exhausted after {out.beta_steps} beta / {out.eta_steps} eta steps")
            return EXIT_SEMANTIC
    elif args.path is None or args.name is None:
        raise CliError("normalize needs PATH NAME or --term")
    else:
        out = _def_nf(args)
    _print_term(out.result)
    print(f"beta_steps={out.beta_steps} eta_steps={out.eta_steps}")
    return EXIT_OK


def cmd_eq(args) -> int:
    a, b = _erasures(args, args.name1, args.name2)
    try:
        same = beta_eta_eq(a, b, _fuel(args))
    except FuelExhaustedError:
        raise CliError("fuel exhausted", EXIT_SEMANTIC) from None
    print(f"{args.name1} and {args.name2} erase to {'the same' if same else 'different'} terms")
    return EXIT_OK if same else EXIT_SEMANTIC


def classify_costs(rows: list[tuple[int, int, bool]]) -> str:
    """Deterministic classification of (size, beta_steps, exhausted) rows
    by the exact law their step counts follow.

    * any exhausted row, or fewer than two distinct sizes -> "other"
    * all step counts equal        -> "constant"
    * integers a > 0 and b put every row on beta = a·n + b -> "linear"
    * otherwise                    -> "other"
    """
    if any(ex for _, _, ex in rows) or len({n for n, _, _ in rows}) < 2:
        return "other"
    if len({s for _, s, _ in rows}) == 1:
        return "constant"
    (n0, s0, _), (n1, s1, _) = min(rows), max(rows)
    a, rest = divmod(s1 - s0, n1 - n0)
    if a > 0 and rest == 0 and all(s == a * (n - n0) + s0 for n, s, _ in rows):
        return "linear"
    return "other"


def _cost_table(ck, name, sizes, fuel, csv=False) -> bool:
    """Step-count the measured conversion ``name`` at ``sizes``, print its
    rows (as CSV with ``csv``), their classification and a ``RESULT
    FAIL`` line per run whose result is not its input; whether the
    classification matches the manifest and every result is right."""
    try:
        rows = cost_rows(ck, name, sizes, fuel)
    except FuelExhaustedError as e:
        raise CliError(f"fuel exhausted normalizing {e.what}", EXIT_SEMANTIC) from None
    if csv:
        print("name,n,beta_steps,eta_steps,fuel_exhausted")
        for n, b, e, ex, _ in rows:
            print(f"{name},{n},{b},{e},{str(ex).lower()}")
    else:
        print(f"{'n':>8} {'beta':>10} {'eta':>6} {'fuel?':>6}")
        for n, b, e, ex, _ in rows:
            print(f"{n:>8} {b:>10} {e:>6} {str(ex).lower():>6}")
    verdict = classify_costs([(n, b, ex) for n, b, _, ex, _ in rows])
    expected = COST_CLASSES[name][0]
    print(f"classification: {verdict} (manifest: {expected})")
    wrong = [n for n, *_, same in rows if not same]
    for n in wrong:
        print(f"RESULT FAIL {name} n={n}")
    return verdict == expected and not wrong


def cmd_cost(args) -> int:
    if args.name not in COST_CLASSES:
        known = ", ".join(sorted(COST_CLASSES))
        raise CliError(f"{args.name!r} is not a measured conversion (known: {known})")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise CliError("--sizes expects a comma-separated list of integers") from None
    if any(n <= 0 for n in sizes):
        raise CliError("sizes must be positive")
    if len(set(sizes)) < 2:
        raise CliError("--sizes needs at least two distinct sizes")
    fuel = _fuel(args)
    ck, report = load_checked_corpus(args.root, fuel)
    if not report.ok:
        first = next(r for r in report.results if not r.ok)
        raise CliError(f"corpus does not typecheck: {first.line()}", EXIT_SEMANTIC)
    return EXIT_OK if _cost_table(ck, args.name, sizes, fuel, args.csv) else EXIT_SEMANTIC


# input sizes `verify` measures each cost class at
VERIFY_SIZES = {"linear": [8, 16, 32, 64], "constant": [8, 64, 512, 4096]}


def cmd_verify(args) -> int:
    """Check the corpus under ``--root``, its goldens, the negative suite
    in the root's ``negative/`` sibling and every cost class; stops after
    the corpus report when the corpus does not check."""
    fuel = _fuel(args)
    negative = os.path.join(os.path.dirname(os.path.abspath(args.root)), "negative")
    try:
        expected_codes = negative_expectations(negative)
    except (OSError, ValueError) as e:
        raise CliError(f"negative suite: {e}") from None
    try:
        manifest = corpus_manifest(args.root)
    except ValueError as e:
        raise CliError(f"corpus annotations: {e}") from None
    ck, report = load_checked_corpus(args.root, fuel)
    print(report.render())
    if not report.ok:
        print("1 FAILURES")
        return EXIT_SEMANTIC

    goldens = verify_goldens(manifest, ck, fuel)
    bad = [g for g in goldens if not g.ok]
    print(f"goldens: {len(goldens) - len(bad)}/{len(goldens)} pass")
    for g in bad:
        print(f"  GOLDEN FAIL {g.name}: {g.detail}")
    failures = int(bool(bad))

    print("negative suite:")
    for stem, want in expected_codes.items():
        _, rep = _load_and_check([os.path.join(negative, f"{stem}.cdl")], args.root, fuel)
        got = [r.code for r in rep.results if not r.ok]
        ok = got == [want]
        failures += not ok
        shown = ", ".join(got) or "accepted"
        print(f"  ok  {stem}: {shown}" if ok else f"  BAD {stem}: {shown} (expect: {want})")

    for name, (cost_class, _) in COST_CLASSES.items():
        sizes = VERIFY_SIZES[cost_class]
        print(f"cost {name} --sizes {','.join(map(str, sizes))}")
        failures += not _cost_table(ck, name, sizes, fuel)

    print(f"{failures} FAILURES" if failures else "ALL GREEN")
    return EXIT_SEMANTIC if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cdle", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, root_default=None):
        p.add_argument("--max-steps", type=int, default=Fuel().max_steps,
                       help="normalization fuel (default %(default)s)")
        p.add_argument("--root", default=root_default,
                       help="directory for resolving imports")

    p = sub.add_parser("check", help="typecheck modules")
    p.add_argument("paths", nargs="+")
    p.add_argument("--json", action="store_true", help="one JSON record per definition")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("erase", help="print a definition's βη-normal erasure")
    p.add_argument("path")
    p.add_argument("name")
    common(p)
    p.set_defaults(fn=cmd_erase)

    p = sub.add_parser("normalize", help="normalize a definition's erasure or a --term")
    p.add_argument("path", nargs="?")
    p.add_argument("name", nargs="?")
    p.add_argument("--term", help="a pure term to normalize instead of a definition")
    common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("eq", help="decide erasure equality of two definitions")
    p.add_argument("path")
    p.add_argument("name1")
    p.add_argument("name2")
    common(p)
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("cost", help="step-count a conversion on synthesized inputs")
    p.add_argument("name")
    p.add_argument("--sizes", required=True, help="comma-separated input sizes")
    p.add_argument("--csv", action="store_true", help="print the rows as CSV")
    common(p, root_default=default_corpus_root())
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("verify", help="check the corpus, goldens, negative suite and cost classes")
    common(p, root_default=default_corpus_root())
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, LoadError, ModuleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
