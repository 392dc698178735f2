"""The kernel's classes: syntax nodes and records compare by value, and
importing the kernel loads no class-generating machinery and sets the
recursion limit once."""

import ast
import glob
import os
import subprocess
import sys

import pytest

from cdle.corpus import CorpusEntry
from cdle.reduction import Fuel, NormalizeOutcome
from cdle.syntax import App, EApp, Lam, PApp, PLam, PVar, Span, TVar, Var
from cdle.typecheck import CheckReport

from conftest import REPO


def test_importing_the_kernel_loads_no_dataclasses():
    """A fresh isolated interpreter that imports ``cdle``, ``cdle.corpus``
    and ``cdle.cli`` from this checkout has not loaded ``dataclasses`` or
    ``inspect`` (which ``dataclasses`` pulls in, with ``ast``, ``dis`` and
    ``tokenize``): every command pays for the kernel's imports."""
    src = os.path.join(REPO, "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import cdle, cdle.corpus, cdle.cli\n"
        "print(cdle.__file__)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
    where, loaded = out.splitlines()
    assert where == os.path.join(src, "cdle", "__init__.py")
    assert loaded == "[]"


def test_the_recursion_limit_is_set_once_at_import():
    """Importing ``cdle`` in a fresh isolated interpreter raises the
    recursion limit to at least 5,000, and the kernel sets it in one
    place: a module-level statement of ``__init__.py``, outside any
    function, so no later call changes it."""
    src = os.path.join(REPO, "src")
    code = f"import sys\nsys.path.insert(0, {src!r})\nimport cdle\nprint(sys.getrecursionlimit())\n"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
    assert int(out) >= 5_000
    calls = []
    for path in sorted(glob.glob(os.path.join(src, "cdle", "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        nested = {id(m) for fn in functions for m in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setrecursionlimit"):
                calls.append((os.path.basename(path), id(node) in nested))
    assert calls == [("__init__.py", False)]


def test_nodes_and_records_compare_by_value():
    """Equality and hash ignore spans; two classes never compare equal;
    the repr leaves spans out; ``match`` class patterns bind by keyword
    and by position; and the frozen records compare by value and refuse
    assignment."""
    sp, sp2 = Span("m.cdl", 1, 2), Span("n.cdl", 3, 4)
    f, x = Var("f", sp), Var("x")
    assert Var("x", sp) == Var("x", sp2) == Var("x") and hash(Var("x", sp)) == hash(Var("x"))
    assert App(f, x, sp) == App(Var("f"), Var("x", sp2)) and hash(App(f, x, sp)) == hash(App(Var("f"), x))
    assert Lam("y", x, None, sp) != Lam("y", x, TVar("A"), sp) and Var("x") != Var("y")
    assert PVar("x") != Var("x") and Var("x") != TVar("x")
    assert App(f, x) != EApp(f, x) and PApp(PVar("f"), PVar("x")) != App(f, x)
    assert len({Var("x", sp), Var("x", sp2), TVar("x"), PVar("x")}) == 3

    assert repr(Var("x", sp)) == "Var(name='x')"
    assert repr(Lam("y", f, None, sp)) == "Lam(name='y', body=Var(name='f'), ann=None)"
    assert repr(PVar("x")) == "PVar('x')" and repr(PLam("x", PVar("x"))) == "PLam('x', PVar('x'))"

    match App(f, x, sp):
        case App(fn=Var(name="f", span=s), arg=a, span=s2):
            assert (s, a, s2) == (sp, x, sp)
        case _:
            pytest.fail("keyword pattern did not match")
    match Lam("y", x, None, sp):
        case Lam(n, b, ann, s):
            assert (n, b, ann, s) == ("y", x, None, sp)
        case _:
            pytest.fail("positional pattern did not match")

    records = [
        (NormalizeOutcome(PVar("x"), 1, 0), NormalizeOutcome(PVar("x"), 1, 0), NormalizeOutcome(PVar("x"), 2, 0)),
        (Fuel(5), Fuel(5), Fuel(6)),
        (CorpusEntry("a", "m.cdl", "λ x. x"), CorpusEntry("a", "m.cdl", "λ x. x"), CorpusEntry("a", "m.cdl")),
    ]
    fields = {
        NormalizeOutcome: ("result", "beta_steps", "eta_steps"),
        Fuel: ("max_steps",),
        CorpusEntry: ("name", "file", "golden_erasure", "same_erasure", "cost_class"),
    }
    for a, same, other in records:
        assert a == same and hash(a) == hash(same) and a != other
        for field in fields[type(a)]:
            with pytest.raises(AttributeError):
                setattr(a, field, None)
    assert repr(Fuel(5)) == "Fuel(max_steps=5)" and Fuel() == Fuel(1_000_000)
    with pytest.raises(ValueError):
        Fuel(0)

    first, second = CheckReport(), CheckReport()
    first.results.append("r")
    assert second.results == [] and first != second and CheckReport() == second
