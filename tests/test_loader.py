"""The loader's module table: an unchanged file is parsed once, a changed
one again, and the table keeps every file it has loaded."""

import glob
import os
import sys
import threading

import pytest

from cdle import loader
from cdle.corpus import corpus_manifest, corpus_paths
from cdle.loader import load_program
from cdle.surface import ParseError

from conftest import CORPUS, NEGATIVE, NEGATIVE_FILES


@pytest.fixture
def parses(monkeypatch):
    """The display paths ``loader.parse_module`` is called with, in order."""
    calls = []
    real = loader.parse_module

    def counting(text, path):
        calls.append(path)
        return real(text, path)

    monkeypatch.setattr(loader, "parse_module", counting)
    return calls


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_manifest_after_a_corpus_load_parses_nothing(parses):
    load_program(corpus_paths(CORPUS))
    parses.clear()
    manifest = corpus_manifest(CORPUS)
    assert parses == []
    assert len(manifest) == 117


def test_text_rewritten_at_the_same_path_is_parsed_again(parses, tmp_path):
    path = write(tmp_path / "a.cdl", "T ◂ ★ = ∀ X : ★. X ➔ X.\n")
    assert [d.name for _, d in load_program([path])] == ["T"]
    assert [d.name for _, d in load_program([path])] == ["T"]
    assert parses == [path]
    write(tmp_path / "a.cdl", "U ◂ ★ = ∀ X : ★. X ➔ X.\n")
    assert [d.name for _, d in load_program([path])] == ["U"]
    assert parses == [path, path]


def test_another_display_path_gets_spans_that_name_it(parses, tmp_path):
    (tmp_path / "sub").mkdir()
    path = write(tmp_path / "a.cdl", "T ◂ ★ = ∀ X : ★. X ➔ X.\n")
    other = os.path.join(str(tmp_path), "sub", "..", "a.cdl")
    [(file, d)] = load_program([path])
    [(file2, d2)] = load_program([other])
    assert (file, d.span.file, d.classifier.span.file) == (path, path, path)
    assert (file2, d2.span.file, d2.classifier.span.file) == (other, other, other)
    assert parses == [path, other]


def test_a_file_that_failed_to_parse_reloads_once_fixed(parses, tmp_path):
    path = write(tmp_path / "a.cdl", "T ◂ ★ = ∀ X : ★. X ➔.\n")
    with pytest.raises(ParseError):
        load_program([path])
    write(tmp_path / "a.cdl", "T ◂ ★ = ∀ X : ★. X ➔ X.\n")
    assert [d.name for _, d in load_program([path])] == ["T"]
    assert parses == [path, path]


def test_the_table_keeps_every_loaded_file(parses, tmp_path):
    """Each path loaded keeps its entry when other programs are loaded,
    so loading a program again after an edit to one of its files parses
    that file alone."""
    a = write(tmp_path / "a.cdl", "T ◂ ★ = ∀ X : ★. X ➔ X.\n")
    b = write(tmp_path / "b.cdl", "import a.\nU ◂ ★ = T.\n")
    c = write(tmp_path / "c.cdl", "import b.\nV ◂ ★ = U.\n")
    negative = os.path.join(NEGATIVE, "erased_var.cdl")
    load_program([c])
    load_program(corpus_paths(CORPUS))
    load_program([negative], root=CORPUS)
    assert {a, b, c, negative} | set(corpus_paths(CORPUS)) <= set(loader._modules)
    write(tmp_path / "b.cdl", "import a.\nU ◂ ★ = ∀ X : ★. T.\n")
    parses.clear()
    assert [d.name for _, d in load_program([c])] == ["T", "U", "V"]
    assert parses == [b]


def _snapshot(defs):
    return [(file, d.name, d.span, d.classifier, d.body) for file, d in defs]


def test_loading_from_threads_equals_loading_one_by_one():
    paths = sorted(glob.glob(os.path.join(NEGATIVE, "*.cdl")))
    assert len(paths) == NEGATIVE_FILES
    want = {p: _snapshot(load_program([p], root=CORPUS)) for p in paths}
    got: dict = {}
    errors: list = []

    def work(k):
        try:
            for _ in range(3):
                for p in paths[k:] + paths[:k]:
                    got.setdefault(p, []).append(_snapshot(load_program([p], root=CORPUS)))
        except Exception as e:  # reported below, with the thread's index
            errors.append((k, e))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert {p: len(runs) for p, runs in got.items()} == {p: 12 for p in paths}
    for p, runs in got.items():
        assert all(r == want[p] for r in runs), p
