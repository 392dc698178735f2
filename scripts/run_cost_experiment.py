#!/usr/bin/env python3
"""Step-count every measured conversion in ``COST_CLASSES`` on
synthesized inputs, at sizes set by its cost class, and write a CSV,
contrasting the linear-time conversions with their zero-cost variants.

Usage: python scripts/run_cost_experiment.py [--out costs.csv]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cdle.cli import classify_costs
from cdle.corpus import COST_CLASSES, cost_rows, load_checked_corpus

# input sizes per cost class
SIZES = {"linear": [8, 16, 32, 64], "constant": [8, 64, 512, 4096]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="costs.csv")
    args = ap.parse_args()

    ck, report = load_checked_corpus()
    if not report.ok:
        print("corpus does not typecheck", file=sys.stderr)
        return 1

    lines = ["name,n,beta_steps,eta_steps,fuel_exhausted"]
    failures = 0
    for name, (expected, _) in COST_CLASSES.items():
        rows = cost_rows(ck, name, SIZES[expected])
        print(f"\n{name}  (expected: {expected})")
        print(f"  {'n':>6} {'beta':>8} {'eta':>5}")
        for n, beta, eta, exhausted in rows:
            lines.append(f"{name},{n},{beta},{eta},{str(exhausted).lower()}")
            print(f"  {n:>6} {beta:>8} {eta:>5}")
        verdict = classify_costs([(n, beta, ex) for n, beta, _, ex in rows])
        marker = "ok" if verdict == expected else "MISMATCH"
        failures += verdict != expected
        print(f"  classification: {verdict} [{marker}]")

    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"\nwrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
