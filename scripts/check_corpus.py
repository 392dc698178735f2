#!/usr/bin/env python3
"""Check the full corpus, verify every golden erasure, and confirm the
negative suite is rejected with the expected error codes.

Usage: python scripts/check_corpus.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cdle.corpus import (
    corpus_manifest,
    default_corpus_root,
    load_checked_corpus,
    negative_expectations,
    verify_goldens,
)
from cdle.loader import load_program
from cdle.typecheck import check_defs


def main() -> int:
    root = default_corpus_root()
    repo = os.path.dirname(root)
    failures = 0

    t0 = time.time()
    ck, report = load_checked_corpus(root)
    print(report.render())
    print(f"checked in {time.time() - t0:.2f}s")
    failures += not report.ok

    results = verify_goldens(corpus_manifest(root), ck)
    bad = [r for r in results if not r.ok]
    print(f"goldens: {len(results) - len(bad)}/{len(results)} pass")
    for r in bad:
        print(f"  GOLDEN FAIL {r.name}: {r.detail}")
    failures += bool(bad)

    print("negative suite:")
    negative = os.path.join(repo, "negative")
    for stem, want in sorted(negative_expectations(negative).items()):
        path = os.path.join(negative, f"{stem}.cdl")
        _, rep = check_defs(load_program([path], root=root))
        got = [r.code for r in rep.results if not r.ok]
        ok = got == [want]
        failures += not ok
        print(f"  {'ok ' if ok else 'BAD'} {stem}: {got[0] if got else 'accepted?!'}")

    print("ALL GREEN" if not failures else f"{failures} FAILURES")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
