"""Loading of ``.cdl`` modules with import resolution.

Imports name sibling modules (``import base.`` loads ``<root>/base.cdl``)
and must be acyclic; a program is the concatenation of all loaded
definitions in dependency order, deduplicated by absolute path.
"""

from __future__ import annotations

import os
from typing import Optional

from .surface import RawDef, SourceModule, parse_module


class LoadError(Exception):
    pass


def load_program(paths: list[str], root: Optional[str] = None) -> list[tuple[str, RawDef]]:
    """Parse the given module files (and their imports, depth-first) and
    return the ordered list of (display-path, definition) pairs."""
    loaded: dict[str, SourceModule] = {}
    order: list[str] = []
    visiting: list[str] = []

    def visit(path: str):
        apath = os.path.abspath(path)
        if apath in loaded:
            return
        if apath in visiting:
            cycle = " -> ".join(os.path.basename(p) for p in visiting + [apath])
            raise LoadError(f"import cycle: {cycle}")
        visiting.append(apath)
        try:
            with open(apath, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise LoadError(f"cannot read {path}: {e.strerror}")
        except UnicodeDecodeError as e:
            raise LoadError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})")
        mod = parse_module(text, path)
        base = root if root is not None else os.path.dirname(apath)
        for imp in mod.imports:
            visit(os.path.join(base, imp + ".cdl"))
        visiting.pop()
        loaded[apath] = mod
        order.append(apath)

    for p in paths:
        visit(p)

    out: list[tuple[str, RawDef]] = []
    for apath in order:
        mod = loaded[apath]
        for d in mod.defs:
            out.append((mod.path, d))
    return out
