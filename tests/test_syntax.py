"""Kernel syntax laws: alpha-equivalence, substitution, free variables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdle.syntax
from cdle.syntax import (
    All,
    AllK,
    App,
    Beta,
    DeferredArg,
    Defn,
    EApp,
    ELam,
    Eq,
    Iota,
    IotaPair,
    KPi,
    KPiK,
    Lam,
    PApp,
    PLam,
    Phi,
    Pi,
    Proj,
    PVar,
    Rho,
    Span,
    Star,
    Sym,
    TAppE,
    TAppT,
    TLam,
    Term,
    TVar,
    Type,
    Var,
    alpha_eq,
    fresh_name,
    free_vars,
    promote_skeleton,
    pure_size,
    subst1,
    substitute,
    syntax_alpha_eq,
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


# --- substitution over annotated syntax against the rebuild-everything reference


def reference_subst_syntax(x, env):
    """``subst_syntax`` as it was before it shared unchanged subtrees: it
    rebuilds every node it walks, keeps ``x ↦ x`` entries, and computes
    the replacements' free names up front."""
    if not env:
        return x
    fvs = set()
    for v in env.values():
        fvs |= term_free_names(v)

    def under(binder, sub, env):
        env2 = {k: v for k, v in env.items() if k != binder}
        if not env2:
            return binder, sub
        if binder in fvs:
            fresh = fresh_name(binder)
            env2[binder] = Var(fresh)
            return fresh, go(sub, env2)
        return binder, go(sub, env2)

    def go(cur, env):
        if not env:
            return cur
        if isinstance(cur, DeferredArg):
            hit_types = {
                k for k, v in env.items() if isinstance(v, Type) and not isinstance(v, TVar)
            }
            if hit_types and not hit_types.isdisjoint(term_free_names(cur.expr)):
                return go(promote_skeleton(cur.expr), env)
            return DeferredArg(go(cur.expr, env), cur.span)
        cls = type(cur)
        if cls is Var:
            rep = env.get(cur.name)
            if rep is None:
                return cur
            if isinstance(rep, TVar):
                return Var(rep.name, cur.span)
            if isinstance(rep, Type):
                raise TypeError(f"type used at term position: {cur.name}")
            return rep
        if cls is TVar:
            rep = env.get(cur.name)
            if rep is None:
                return cur
            if isinstance(rep, Term):
                if isinstance(rep, Var):
                    return TVar(rep.name, cur.span)
                raise TypeError(f"term used at type position: {cur.name}")
            return rep
        if cls in (Beta, Star):
            return cur
        if cls in (Lam, ELam, TLam):
            ann = go(cur.ann, env) if cur.ann is not None else None
            n, b = under(cur.name, cur.body, env)
            return cls(n, b, ann, cur.span)
        if cls in (App, EApp, TAppT, TAppE):
            return cls(go(cur.fn, env), go(cur.arg, env), cur.span)
        if cls is Rho:
            guide = cur.guide
            if guide is not None:
                guide = under(guide[0], guide[1], env)
            return Rho(go(cur.proof, env), go(cur.body, env), guide, cur.span)
        if cls is Phi:
            return Phi(go(cur.proof, env), go(cur.main, env), go(cur.target, env), cur.span)
        if cls is Sym:
            return Sym(go(cur.proof, env), cur.span)
        if cls is IotaPair:
            return IotaPair(go(cur.fst, env), go(cur.snd, env), cur.span)
        if cls is Proj:
            return Proj(go(cur.subj, env), cur.idx, cur.span)
        if cls in (Pi, All, AllK, KPi, KPiK):
            d = go(cur.dom, env)
            n, c = under(cur.name, cur.cod, env)
            return cls(n, d, c, cur.span)
        if cls is Iota:
            d = go(cur.fst, env)
            n, c = under(cur.name, cur.snd, env)
            return Iota(n, d, c, cur.span)
        if cls is Eq:
            return Eq(go(cur.lhs, env), go(cur.rhs, env), cur.span)
        raise TypeError(f"unknown syntax node {cls.__name__}")

    return go(x, env)


@pytest.fixture(scope="module")
def corpus_substitutions(corpus_defs):
    """Every ``(target, env, result)`` that ``subst_syntax`` saw while the
    corpus was checked afresh."""
    from cdle.typecheck import check_defs

    calls = []
    real = cdle.syntax.subst_syntax

    def record(x, env):
        out = real(x, env)
        calls.append((x, dict(env), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cdle.syntax, "subst_syntax", record)
        _, report = check_defs(corpus_defs)
    assert report.ok
    return calls


def test_subst_matches_reference_on_corpus_check(corpus_substitutions):
    """Each substitution made while checking the corpus (about 4,000) is
    α-equal to the reference's, and a target with no free name that the
    substitution replaces comes back as is."""
    assert len(corpus_substitutions) > 3000
    shared = 0
    for x, env, out in corpus_substitutions:
        assert syntax_alpha_eq(out, reference_subst_syntax(x, env))
        if not set(env).isdisjoint(term_free_names(x)):
            continue
        assert out is x
        shared += 1
    assert shared > 1000


def _names_in(t):
    """Every name written in annotated syntax ``t``, bound or free."""
    out, stack = set(), [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, str):
            out.add(cur)
        elif isinstance(cur, tuple):
            stack.extend(cur)
        elif cur is not None and type(cur).__module__ == "cdle.syntax":
            stack.extend(getattr(cur, f) for f in type(cur).__slots__ if f != "span")
    return out


def test_subst_of_a_name_by_itself_or_of_a_non_free_name_is_the_target(corpus_defs):
    """``x ↦ x`` (as a term or a type variable) and a name not free in the
    target, bound in it or not, give back the target object."""
    renamed = absent = 0
    for _, d in corpus_defs:
        for t in (d.classifier, d.body):
            if t is None:
                continue
            free = term_free_names(t)
            for name in sorted(free):
                assert subst1(t, name, Var(name)) is t
                assert subst1(t, name, TVar(name)) is t
                renamed += 1
            for name in sorted(_names_in(t) - free) + ["not_free%0"]:
                assert subst1(t, name, Var("y")) is t
                assert subst1(t, name, TVar("Y")) is t
                absent += 1
    assert renamed > 500 and absent > 500


def test_subst_keeps_untouched_siblings():
    """Only the path down to a replaced occurrence is rebuilt."""
    unchanged = Lam("y", App(Var("f"), Var("y")), TVar("A"))
    t = App(App(Var("f"), Var("x")), unchanged)
    out = subst1(t, "x", Var("z"))
    assert out == App(App(Var("f"), Var("z")), unchanged)
    assert out.arg is unchanged and out.fn.fn is t.fn.fn

    dom = TAppE(TVar("P"), Var("w"))
    rhs = App(Var("g"), Var("w"))
    ty = Pi("y", dom, All("u", TVar("A"), Eq(Var("x"), rhs)))
    out = subst1(ty, "x", Var("v"))
    assert out.dom is dom and out.cod.dom is ty.cod.dom and out.cod.cod.rhs is rhs
    assert out.cod.cod.lhs == Var("v")

    # a renamed binder is rebuilt; its domain is kept
    out = subst1(ty, "x", Var("u"))
    assert out.cod.name != "u" and out.cod.dom is ty.cod.dom
    assert out.cod.cod == Eq(Var("u"), rhs)
