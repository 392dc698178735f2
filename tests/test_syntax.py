"""Kernel syntax laws: alpha-equivalence, substitution, free variables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdle.syntax import (
    App,
    Defn,
    Eq,
    Lam,
    PApp,
    PLam,
    Pi,
    PVar,
    Span,
    Star,
    TAppE,
    TVar,
    Var,
    alpha_eq,
    free_vars,
    pure_size,
    substitute,
    term_free_names,
)
from gen import gen_pure, gen_pure_open


def lam(x, b):
    return PLam(x, b)


def v(x):
    return PVar(x)


def ap(f, a):
    return PApp(f, a)


def test_alpha_eq_examples():
    # renamed identity
    assert alpha_eq(lam("x", v("x")), lam("y", v("y")))
    # distinct projections
    assert not alpha_eq(lam("x", lam("y", v("x"))), lam("a", lam("b", v("b"))))
    # free variables must match by name
    assert not alpha_eq(v("x"), v("y"))
    assert alpha_eq(ap(v("f"), lam("x", v("x"))), ap(v("f"), lam("z", v("z"))))


def test_alpha_eq_deep_terms():
    """32768 nested binders, and an argument spine 32768 deep, compare
    without recursion."""
    depth = 32768

    def chain(prefix, last):
        t = v(f"{prefix}{last}")
        for i in reversed(range(depth)):
            t = lam(f"{prefix}{i}", ap(t, v(f"{prefix}{i}")))
        return t

    assert alpha_eq(chain("x", 0), chain("y", 0))
    assert not alpha_eq(chain("x", 0), chain("y", 1))

    def spine(leaf):
        t = v(leaf)
        for _ in range(depth):
            t = ap(ap(v("c"), lam("x", v("x"))), t)
        return lam("n", t)

    assert alpha_eq(spine("n"), spine("n"))
    assert not alpha_eq(spine("n"), spine("c"))


def test_substitute_examples():
    ident = lam("y", v("y"))
    assert substitute(v("x"), "x", ident) == ident
    # capture is avoided by renaming the binder
    out = substitute(lam("y", v("x")), "x", v("y"))
    assert isinstance(out, PLam)
    assert out.name != "y" and out.body == v("y")
    # (x x)[x := λy.y]
    assert substitute(ap(v("x"), v("x")), "x", ident) == ap(ident, ident)


def test_free_vars_examples():
    assert free_vars(lam("x", v("x"))) == frozenset()
    assert free_vars(lam("x", ap(v("x"), v("y")))) == frozenset({"y"})


def test_free_names_of_deep_terms():
    """32768 nested binders with distinct names: the pure and the
    annotated free-name walks keep each binder in scope for its body
    only, however deep."""
    depth = 32768
    t = ap(ap(v("x0"), v(f"x{depth - 1}")), ap(v(f"x{depth}"), v("y")))
    for i in reversed(range(depth)):
        t = lam(f"x{i}", ap(t, v(f"x{i}")))
    assert free_vars(ap(t, v("x5"))) == {f"x{depth}", "y", "x5"}

    body = App(Var("x0"), Var(f"x{depth}"))
    for i in reversed(range(depth)):
        body = Lam(f"x{i}", App(body, Var(f"x{i}")), None)
    # each domain names the binder outside it, so only the outermost is free
    ty = Eq(Var("x0"), Var("z"))
    for i in reversed(range(depth)):
        ty = Pi(f"x{i}", TAppE(TVar("P"), Var(f"x{max(i - 1, 0)}")), ty)
    assert term_free_names(body) == {f"x{depth}"}
    assert term_free_names(ty) == {"P", "x0", "z"}


def _samples(n, budget=24, seed=7, open_terms=False):
    rng = random.Random(seed)
    g = gen_pure_open if open_terms else gen_pure
    return [g(rng, budget) for _ in range(n)]


def test_alpha_eq_is_equivalence_on_1000_samples():
    # reflexivity on 1000 samples; symmetry/transitivity on renamed copies
    rng = random.Random(99)
    terms = _samples(1000, seed=11)
    for t in terms:
        assert alpha_eq(t, t)
    for t in terms[:300]:
        r1 = _rename_binders(t, "%r1")
        r2 = _rename_binders(t, "%r2")
        assert alpha_eq(t, r1) and alpha_eq(r1, t)  # symmetry
        assert alpha_eq(r1, r2) and alpha_eq(t, r2)  # transitivity witness


def _rename_binders(t, suffix):
    if isinstance(t, PVar):
        return t
    if isinstance(t, PLam):
        fresh = t.name + suffix
        return PLam(fresh, _rename_binders(substitute(t.body, t.name, PVar(fresh)), suffix))
    return PApp(_rename_binders(t.fn, suffix), _rename_binders(t.arg, suffix))


def test_substitute_self_is_identity_sampled():
    for t in _samples(300, seed=5, open_terms=True):
        for x in sorted(free_vars(t)) or ["u"]:
            assert alpha_eq(substitute(t, x, PVar(x)), t)


def test_free_vars_of_substitution_sampled():
    rng = random.Random(17)
    for _ in range(300):
        b = gen_pure_open(rng, 18)
        val = gen_pure_open(rng, 10)
        x = rng.choice(["u", "v", "w"])
        got = free_vars(substitute(b, x, val))
        bound = (free_vars(b) - {x}) | free_vars(val)
        if x in free_vars(b):
            assert got <= bound
        else:
            assert got == free_vars(b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_alpha_reflexive_hypothesis(seed):
    t = gen_pure(random.Random(seed), 20)
    assert alpha_eq(t, t)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_substitution_composition_hypothesis(seed):
    # [v/x]([u/y]t) == [[v/x]u / y]([v/x]t)  when y ∉ FV(v) and x ≠ y
    rng = random.Random(seed)
    t = gen_pure(rng, 16, scope=("x", "y"))
    u = gen_pure(rng, 8, scope=("x",))
    val = gen_pure(rng, 8)  # closed
    lhs = substitute(substitute(t, "y", u), "x", val)
    rhs = substitute(substitute(t, "x", val), "y", substitute(u, "x", val))
    assert alpha_eq(lhs, rhs)


def test_pure_size_counts_nodes():
    assert pure_size(lam("x", ap(v("x"), v("x")))) == 4


def test_nodes_are_slotted_and_compare_without_spans():
    a, b = Var("x", span=Span("a.cdl", 1, 1)), Var("x", span=Span("b.cdl", 2, 5))
    assert a == b and hash(a) == hash(b)
    assert Var("x") != TVar("x") and PVar("x") != Var("x")
    assert Var("x") != Var("y")
    for node in (a, TVar("x"), PVar("x"), PLam("x", PVar("x")), Star(), Defn("d", Star(), None)):
        assert not hasattr(node, "__dict__")
