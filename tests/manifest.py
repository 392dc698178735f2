"""``corpus/MANIFEST.md`` rendered from the corpus manifest and the parsed
classifiers.  ``test_corpus.py`` checks the file against this rendering;
after a corpus change, regenerate the file from the repository root with

    PYTHONPATH=src python tests/manifest.py > corpus/MANIFEST.md
"""

import os
import sys
import textwrap

from cdle.corpus import corpus_manifest, corpus_paths
from cdle.loader import load_program
from cdle.pretty import pretty

REGENERATE = "PYTHONPATH=src python tests/manifest.py > corpus/MANIFEST.md"

_HEAD = """\
# Corpus manifest

Every definition in dependency order, with the source module, the
pinned classifier, the golden erasure (where the development equates
the definition to a concrete untyped term), and the cost class
measured by the harness (`cdle cost`).

| # | name | module | golden erasure | cost |
|---:|------|--------|----------------|------|
"""


def render_manifest(root: str) -> str:
    entries = corpus_manifest(root)
    classifiers = {d.name: pretty(d.classifier) for _, d in load_program(corpus_paths(root))}
    rows = [
        f"| {i} | `{e.name}` | {os.path.basename(e.file)} | "
        f"{f'`{e.golden_erasure}`' if e.golden_erasure else ''} | {e.cost_class or ''} |"
        for i, e in enumerate(entries, 1)
    ]
    pairs = ", ".join(f"`{e.same_erasure}`/`{e.name}`" for e in entries if e.same_erasure)
    return (
        _HEAD
        + "".join(row + "\n" for row in rows)
        + "\n## Classifiers\n\n"
        + "".join(f"- `{e.name}` ◂ `{classifiers[e.name]}`\n" for e in entries)
        + "\n## Shared erasures\n\nThese pairs must erase to one underlying untyped term:\n"
        + textwrap.fill(pairs + ".", 72)
        + "\n"
    )


if __name__ == "__main__":
    sys.stdout.write(render_manifest(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus")))
