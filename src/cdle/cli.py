"""Command-line harness: parser → checker → normalizer → corpus verification
and the cost-scaling experiment.

Verbs:
    check      typecheck modules (exit 0 iff all definitions pass)
    erase      print the βη-normal erasure of a definition
    normalize  normalize a definition's erasure (or a --term) with step counts
    eq         decide whether two definitions share one erased term
    cost       run the step-counting experiment for a measured conversion

Exit codes: 0 success, 1 semantic failure, 2 usage/parse/IO errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import (
    COST_CLASSES,
    cost_rows,
    default_corpus_root,
    load_checked_corpus,
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


def _fuel(args) -> Fuel:
    if args.max_steps <= 0:
        print("error: --max-steps must be positive", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
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


def _checked_def_nf(args, paths, name):
    """Load and check ``paths``; return (normal form of |name|, exit code)."""
    ck, report = _load_and_check(paths, args.root, _fuel(args))
    if not report.ok:
        for r in report.results:
            if not r.ok:
                print(f"error: {r.line()}", file=sys.stderr)
        return None, EXIT_SEMANTIC
    if name not in ck.pure_env:
        print(f"error: no definition named {name!r}", file=sys.stderr)
        return None, EXIT_USAGE
    out = normalize(ck.pure_env[name], _fuel(args))
    if out.fuel_exhausted:
        print("error: fuel exhausted", file=sys.stderr)
        return None, EXIT_SEMANTIC
    return out, EXIT_OK


def cmd_erase(args) -> int:
    out, code = _checked_def_nf(args, [args.path], args.name)
    if code != EXIT_OK:
        return code
    print(pretty(out.result))
    return EXIT_OK


def cmd_normalize(args) -> int:
    if args.term is not None:
        out = normalize(erase(parse_term(args.term)), _fuel(args))
        if out.fuel_exhausted:
            print(f"fuel exhausted after {out.beta_steps} beta / {out.eta_steps} eta steps")
            return EXIT_SEMANTIC
    else:
        if args.path is None or args.name is None:
            print("error: normalize needs PATH NAME or --term", file=sys.stderr)
            return EXIT_USAGE
        out, code = _checked_def_nf(args, [args.path], args.name)
        if code != EXIT_OK:
            return code
    print(pretty(out.result))
    print(f"beta_steps={out.beta_steps} eta_steps={out.eta_steps}")
    return EXIT_OK


def cmd_eq(args) -> int:
    ck, report = _load_and_check([args.path], args.root, _fuel(args))
    if not report.ok:
        print("error: module does not typecheck", file=sys.stderr)
        return EXIT_SEMANTIC
    for n in (args.name1, args.name2):
        if n not in ck.pure_env:
            print(f"error: no definition named {n!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        same = beta_eta_eq(ck.pure_env[args.name1], ck.pure_env[args.name2], _fuel(args))
    except FuelExhaustedError:
        print("error: fuel exhausted", file=sys.stderr)
        return EXIT_SEMANTIC
    print(f"{args.name1} and {args.name2} erase to {'the same' if same else 'different'} terms")
    return EXIT_OK if same else EXIT_SEMANTIC


def classify_costs(rows: list[tuple[int, int, bool]]) -> str:
    """Deterministic classification of (size, beta_steps, exhausted) rows.

    * any exhausted row            -> "other"
    * all step counts equal        -> "constant"
    * all per-size slopes within ±10% of their mean -> "linear"
    * otherwise                    -> "other"
    """
    if any(ex for _, _, ex in rows):
        return "other"
    steps = [s for _, s, _ in rows]
    if all(s == steps[0] for s in steps):
        return "constant"
    if len(rows) < 2:
        return "other"
    slopes = []
    for (n0, s0, _), (n1, s1, _) in zip(rows, rows[1:]):
        if n1 == n0:
            return "other"
        slopes.append((s1 - s0) / (n1 - n0))
    mean = sum(slopes) / len(slopes)
    if mean <= 0:
        return "other"
    if all(abs(sl - mean) <= 0.10 * mean for sl in slopes):
        return "linear"
    return "other"


def cmd_cost(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        print("error: --sizes expects a comma-separated list of integers", file=sys.stderr)
        return EXIT_USAGE
    if not sizes or any(n <= 0 for n in sizes):
        print("error: sizes must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.name not in COST_CLASSES:
        print(
            f"error: {args.name!r} is not a measured conversion "
            f"(known: {', '.join(sorted(COST_CLASSES))})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    expected = COST_CLASSES[args.name][0]
    ck, report = load_checked_corpus(args.root, _fuel(args))
    if not report.ok:
        first = next(r for r in report.results if not r.ok)
        print(f"error: corpus does not typecheck: {first.line()}", file=sys.stderr)
        return EXIT_SEMANTIC
    try:
        rows = cost_rows(ck, args.name, sizes, _fuel(args))
    except FuelExhaustedError:
        print("error: fuel exhausted normalizing the conversion", file=sys.stderr)
        return EXIT_SEMANTIC
    verdict = classify_costs([(n, b, ex) for n, b, _, ex in rows])

    if args.csv:
        print("name,n,beta_steps,eta_steps,fuel_exhausted")
        for n, b, e, ex in rows:
            print(f"{args.name},{n},{b},{e},{str(ex).lower()}")
    else:
        print(f"{'n':>8} {'beta':>10} {'eta':>6} {'fuel?':>6}")
        for n, b, e, ex in rows:
            print(f"{n:>8} {b:>10} {e:>6} {str(ex).lower():>6}")
    print(f"classification: {verdict} (manifest: {expected})")
    return EXIT_OK if verdict == expected else EXIT_SEMANTIC


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
    p.add_argument("--csv", action="store_true", help="emit the CostReport as CSV")
    common(p, root_default=default_corpus_root())
    p.set_defaults(fn=cmd_cost)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, LoadError, ModuleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
