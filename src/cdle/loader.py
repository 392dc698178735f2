"""Loading of ``.cdl`` modules with import resolution.

Imports name sibling modules (``import base.`` loads ``<root>/base.cdl``)
and must be acyclic; a program is the concatenation of all loaded
definitions in dependency order, deduplicated by absolute path.  A
module is displayed by the path it was reached by: a file given
relative stays relative, and so do the siblings it imports.

Every call reads each file, but parses it only when it changed: the
module table maps each absolute path ever loaded to ``(display path,
text, SourceModule)``, and a file whose display path and text both equal
its entry's reuses the entry's module, so a hit is never stale and spans
name the current call's path; otherwise the file is parsed and its entry
replaced.  Sharing a module between calls is sound because parsed syntax
is immutable (``surface``), and it hands the checker the same ``RawDef``
objects for an unchanged file, which is what lets ``check_defs`` replay
them.
"""

from __future__ import annotations

import os
from typing import Optional

from .surface import RawDef, SourceModule, parse_module


class LoadError(Exception):
    pass


_modules: dict[str, tuple[str, str, SourceModule]] = {}


def load_program(paths: list[str], root: Optional[str] = None) -> list[tuple[str, RawDef]]:
    """Load the given module files (and their imports, depth-first) and
    return the ordered list of (display-path, definition) pairs."""
    loaded: dict[str, SourceModule] = {}
    for p in paths:
        _visit(p, root, loaded, [])
    return [(mod.path, d) for mod in loaded.values() for d in mod.defs]


def _visit(path: str, root: Optional[str], loaded: dict[str, SourceModule], visiting: list[str]):
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
    entry = _modules.get(apath)
    if entry is None or entry[:2] != (path, text):
        entry = _modules[apath] = (path, text, parse_module(text, path))
    # an import is displayed relative to the importer's display path
    base = root if root is not None else os.path.dirname(path)
    for imp in entry[2].imports:
        _visit(os.path.join(base, imp + ".cdl"), root, loaded, visiting)
    visiting.pop()
    loaded[apath] = entry[2]
