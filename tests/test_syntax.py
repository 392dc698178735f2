"""Kernel syntax laws: alpha-equivalence, substitution, free variables."""

import ast
import glob
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdle.syntax
from cdle.erasure import erase
from cdle.syntax import (
    All,
    AllK,
    App,
    Beta,
    GUIDE,
    LAYOUT,
    Bind,
    Defn,
    EApp,
    ELam,
    Eq,
    Iota,
    IotaPair,
    Kind,
    KPi,
    KPiK,
    Lam,
    Node,
    PApp,
    PLam,
    Phi,
    Pi,
    Proj,
    PureTerm,
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
    free_names,
    fresh_name,
    promote_skeleton,
    subst1,
)
from gen import change_leaf, count_leaves, gen_kind, gen_pure, gen_pure_open, gen_term, gen_type, rename_binders
from oracle import pure_size


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
    assert subst1(v("x"), "x", ident) == ident
    # capture is avoided by renaming the binder
    out = subst1(lam("y", v("x")), "x", v("y"))
    assert isinstance(out, PLam)
    assert out.name != "y" and out.body == v("y")
    # (x x)[x := λy.y]
    assert subst1(ap(v("x"), v("x")), "x", ident) == ap(ident, ident)


def test_free_vars_examples():
    assert free_names(lam("x", v("x"))) == frozenset()
    assert free_names(lam("x", ap(v("x"), v("y")))) == frozenset({"y"})


def test_free_names_of_deep_terms():
    """32768 nested binders with distinct names: the pure and the
    annotated free-name walks keep each binder in scope for its body
    only, however deep."""
    depth = 32768
    t = ap(ap(v("x0"), v(f"x{depth - 1}")), ap(v(f"x{depth}"), v("y")))
    for i in reversed(range(depth)):
        t = lam(f"x{i}", ap(t, v(f"x{i}")))
    assert free_names(ap(t, v("x5"))) == {f"x{depth}", "y", "x5"}

    body = App(Var("x0"), Var(f"x{depth}"))
    for i in reversed(range(depth)):
        body = Lam(f"x{i}", App(body, Var(f"x{i}")), None)
    # each domain names the binder outside it, so only the outermost is free
    ty = Eq(Var("x0"), Var("z"))
    for i in reversed(range(depth)):
        ty = Pi(f"x{i}", TAppE(TVar("P"), Var(f"x{max(i - 1, 0)}")), ty)
    assert free_names(body) == {f"x{depth}"}
    assert free_names(ty) == {"P", "x0", "z"}


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
        r1 = rename_binders(t, "%r1")
        r2 = rename_binders(t, "%r2")
        assert alpha_eq(t, r1) and alpha_eq(r1, t)  # symmetry
        assert alpha_eq(r1, r2) and alpha_eq(t, r2)  # transitivity witness


def test_substitute_self_is_identity_sampled():
    for t in _samples(300, seed=5, open_terms=True):
        for x in sorted(free_names(t)) or ["u"]:
            assert alpha_eq(subst1(t, x, PVar(x)), t)


def test_free_vars_of_substitution_sampled():
    rng = random.Random(17)
    for _ in range(300):
        b = gen_pure_open(rng, 18)
        val = gen_pure_open(rng, 10)
        x = rng.choice(["u", "v", "w"])
        got = free_names(subst1(b, x, val))
        bound = (free_names(b) - {x}) | free_names(val)
        if x in free_names(b):
            assert got <= bound
        else:
            assert got == free_names(b)


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
    lhs = subst1(subst1(t, "y", u), "x", val)
    rhs = subst1(subst1(t, "x", val), "y", subst1(u, "x", val))
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
    """``subst_syntax`` as it was before it shared unchanged subtrees,
    extended to pure terms: it rebuilds every node it walks, keeps
    ``x ↦ x`` entries, computes the replacements' free names up front,
    and recurses once per node."""
    if not env:
        return x
    fvs = set()
    for v in env.values():
        fvs |= free_names(v)

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
        cls = type(cur)
        if cls is PVar:
            rep = env.get(cur.name)
            if rep is None:
                return cur
            if isinstance(rep, (Var, TVar)):
                return PVar(rep.name)
            if not isinstance(rep, PureTerm):
                raise TypeError(f"annotated syntax used at pure position: {cur.name}")
            return rep
        if cls is PLam:
            return PLam(*under(cur.name, cur.body, env))
        if cls is PApp:
            return PApp(go(cur.fn, env), go(cur.arg, env))
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
        if cls is EApp and isinstance(cur.arg, (Var, App, Lam)):
            # an erased term skeleton that a non-variable type hits is promoted
            hit_types = {
                k for k, v in env.items() if isinstance(v, Type) and not isinstance(v, TVar)
            }
            if hit_types and not hit_types.isdisjoint(free_names(cur.arg)):
                return EApp(go(cur.fn, env), go(promote_skeleton(cur.arg), env), cur.span)
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


def _binders(x):
    """Every binder in syntax ``x``, pure or annotated: ``(node, name,
    scope)``, in one walk over ``LAYOUT``."""
    out, stack = [], [x]
    while stack:
        cur = stack.pop()
        if type(cur) not in LAYOUT:
            continue
        for child, binder in LAYOUT[type(cur)]:
            sub = getattr(cur, child)
            if sub is None:
                continue
            if binder is GUIDE:
                out.append((cur, *sub))
                sub = sub[1]
            elif binder is not None:
                out.append((cur, getattr(cur, binder), sub))
            stack.append(sub)
    return out


def _binds_a_type(node):
    """Whether ``node``'s binder is a type variable, or None when its
    sort is settled only against an expected classifier."""
    if isinstance(node, (AllK, KPiK)):
        return True
    if isinstance(node, (ELam, TLam)):
        return None if node.ann is None else isinstance(node.ann, Kind)
    return False


@pytest.fixture(scope="module")
def corpus_substitutions(corpus_defs, checked_corpus):
    """``(target, env, result)`` for the scope of every binder in every
    corpus classifier and body, instantiated four ways: at an argument
    the corpus applies somewhere (a type argument for a type variable, a
    fresh variable where the sort is open); at a variable that a binder
    inside the scope would capture; at a term together with the next
    binder of a term telescope, as the checker instantiates spines; and
    at a name that is not free there.  Then the calls ``Checker.pure_of``
    makes, each term body's erasure with the ``pure_env`` entries of the
    globals it names, and into the scope of every binder of those
    erasures, a variable, and an application of it, that a binder inside
    the scope would capture."""
    terms, types = [], []
    for _, d in corpus_defs:
        stack = [d.classifier, d.body]
        while stack:
            cur = stack.pop()
            if isinstance(cur, (App, TAppE)) and isinstance(cur.arg, Term):
                terms.append(cur.arg)
            elif isinstance(cur, TAppT):
                types.append(cur.arg)
            if type(cur) in LAYOUT:
                stack += [getattr(cur, c) for c, b in LAYOUT[type(cur)] if b is not GUIDE]
    calls = []
    for _, d in corpus_defs:
        for node, name, scope in _binders(d.classifier) + _binders(d.body):
            i, sort, inner = len(calls), _binds_a_type(node), _binders(scope)
            value = Var(f"v{i}") if sort is None else (types if sort else terms)[i % len(types if sort else terms)]
            envs = [{name: value}, {name: Var(inner[0][1] if inner else name)}, {"not_free%0": value}]
            if inner and inner[0][0] is scope and _binds_a_type(scope) is False:
                envs.append({name: value, scope.name: terms[(i + 1) % len(terms)]})
            calls += [(scope, env, cdle.syntax.subst_syntax(scope, env)) for env in envs]
    pure_env = checked_corpus[0].pure_env
    for _, d in corpus_defs:
        if not isinstance(d.body, Term):
            continue
        p = erase(d.body)
        envs = [(p, {n: pure_env[n] for n in free_names(p) if n in pure_env})]
        for _, name, scope in _binders(p):
            inner = _binders(scope)
            if inner:
                other = PVar(inner[0][1])
                envs += [(scope, {name: other}), (scope, {name: PApp(other, PVar(name))})]
        calls += [(x, env, cdle.syntax.subst_syntax(x, env)) for x, env in envs]
    return calls


def test_subst_matches_reference_on_corpus_check(corpus_substitutions):
    """Each substitution into a corpus binder's scope (see the fixture)
    is α-equal to the reference's, and a target with no free name that
    the substitution replaces comes back as is."""
    assert len(corpus_substitutions) > 3000
    assert sum(isinstance(x, PureTerm) for x, _, _ in corpus_substitutions) > 300
    shared = 0
    for x, env, out in corpus_substitutions:
        assert alpha_eq(out, reference_subst_syntax(x, env))
        if not set(env).isdisjoint(free_names(x)):
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
            free = free_names(t)
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


def test_subst_promotes_an_erased_term_skeleton_that_a_type_hits():
    """A type that is no variable, replacing a name in an erased term
    skeleton, turns the skeleton into a type; a renaming keeps it a term,
    and so does a binder that shadows the name."""
    from cdle.syntax import subst_syntax

    rep = TAppT(TVar("L"), TVar("N"))
    assert subst_syntax(EApp(Var("f"), Var("X")), {"X": rep}) == EApp(Var("f"), rep)
    assert subst_syntax(EApp(Var("f"), Var("X")), {"X": TVar("Y")}) == EApp(Var("f"), Var("Y"))
    skeleton = EApp(Var("f"), App(Var("X"), Var("n")))
    assert subst_syntax(skeleton, {"X": rep}) == EApp(Var("f"), TAppE(rep, Var("n")))
    assert subst_syntax(skeleton, {"X": TVar("Y")}).arg == App(Var("Y"), Var("n"))
    shadowed = EApp(Var("f"), Lam("X", App(Var("X"), Var("n"))))
    assert subst_syntax(shadowed, {"X": rep}) is shadowed
    for t in (EApp(Var("f"), Var("X")), skeleton, shadowed):
        for env in ({"X": rep}, {"X": TVar("Y")}):
            assert subst_syntax(t, env) == reference_subst_syntax(t, env)


def test_subst_under_nested_capturing_binders_walks_once(monkeypatch):
    """``x ↦ y`` into ``Π y : A. … Π y : A. x ≃ z`` renames all 300
    binders and takes the replacement's free names once, where a walk of
    each binder's body to see whether a name is due there took 301, and
    the result is α-equal to the reference's."""
    calls = []
    real = cdle.syntax.free_names

    def counted(x):
        calls.append(x)
        return real(x)

    depth = 300
    t = Eq(Var("x"), Var("z"))
    for _ in range(depth):
        t = Pi("y", TVar("A"), t)
    monkeypatch.setattr(cdle.syntax, "free_names", counted)
    out = subst1(t, "x", Var("y"))
    assert len(calls) == 1
    monkeypatch.undo()
    assert alpha_eq(out, reference_subst_syntax(t, {"x": Var("y")}))
    for _ in range(depth):
        assert out.name != "y"
        out = out.cod
    assert out == Eq(Var("y"), Var("z"))


def test_subst_renames_a_capturing_binder_only_for_a_name_due_in_its_body():
    """A binder whose name is free in a replacement keeps its name and
    body (the same object) when nothing due occurs in its body, and is
    renamed when a replaced name, or the renamed name of a binder around
    it, does."""
    rep = App(Var("y"), Var("z"))
    kept = Lam("z", Var("w"))
    t = Lam("q", App(Var("x"), kept))
    out = subst1(t, "x", rep)
    assert out.body.fn == rep and out.body.arg is kept

    t = Lam("z", App(Var("x"), Var("z")))
    out = subst1(t, "x", rep)
    assert out.name != "z" and out.body == App(rep, Var(out.name))

    # under y, renamed since x is due there, z is renamed only because
    # the renamed y occurs in its body
    t = Lam("y", App(Var("x"), Lam("z", Var("y"))))
    out = subst1(t, "x", rep)
    inner = out.body.arg
    assert out.name != "y" and inner.name != "z" and inner.body == Var(out.name)
    assert alpha_eq(out, reference_subst_syntax(t, {"x": rep}))
    t = Lam("y", App(Var("x"), Lam("z", Var("w"))))
    assert subst1(t, "x", rep).body.arg is t.body.arg


# --- the layout table, and free names and α-equality against the ladders it replaced


def test_layout_accounts_for_every_node_class_and_field():
    """Each node class of pure and annotated syntax has a layout entry,
    and each of its fields is a child, a binder named in the entry,
    ``span``, or a datum the traversals read themselves; so a new node or
    field cannot slip past free names, substitution and α-equality."""
    data = {(PVar, "name"), (Var, "name"), (TVar, "name"), (Proj, "idx")}
    bases = (PureTerm, Term, Type, Kind)
    classes = {c for c in vars(cdle.syntax).values() if isinstance(c, type) and c not in bases and issubclass(c, bases)}
    assert len(classes) == 26
    assert set(LAYOUT) == classes
    for cls in classes:
        children = [child for child, _ in LAYOUT[cls]]
        binders = [b for _, b in LAYOUT[cls] if b not in (None, GUIDE)]
        for f in cls.__slots__:
            assert f in children or f in binders or f == "span" or (cls, f) in data, (cls.__name__, f)
        assert set(children) | set(binders) <= set(cls.__slots__), cls.__name__
    assert [b for cls in classes for _, b in LAYOUT[cls] if b is GUIDE] == [GUIDE]
    assert ("guide", GUIDE) in LAYOUT[Rho]


def reference_term_free_names(x):
    """``free_names`` as it was before the layout table: one ladder
    over the node classes."""
    out = set()
    bound = {}
    stack = [x]

    def under(name, body):
        bound[name] = bound.get(name, 0) + 1
        stack.append(name)
        stack.append(body)

    while stack:
        cur = stack.pop()
        if type(cur) is str:
            bound[cur] -= 1
            continue
        if isinstance(cur, (PVar, Var, TVar)):
            if not bound.get(cur.name):
                out.add(cur.name)
            continue
        if isinstance(cur, (Beta, Star)):
            continue
        cls = type(cur)
        if cls is PLam:
            under(cur.name, cur.body)
        elif cls in (Lam, ELam, TLam):
            if cur.ann is not None:
                stack.append(cur.ann)
            under(cur.name, cur.body)
        elif cls in (Pi, All, AllK, KPi, KPiK):
            stack.append(cur.dom)
            under(cur.name, cur.cod)
        elif cls is Iota:
            stack.append(cur.fst)
            under(cur.name, cur.snd)
        elif cls in (PApp, App, EApp, TAppT, TAppE):
            stack.append(cur.fn)
            stack.append(cur.arg)
        elif cls is Rho:
            stack.append(cur.proof)
            stack.append(cur.body)
            if cur.guide is not None:
                under(cur.guide[0], cur.guide[1])
        elif cls is Phi:
            stack.append(cur.proof)
            stack.append(cur.main)
            stack.append(cur.target)
        elif cls is Sym:
            stack.append(cur.proof)
        elif cls is IotaPair:
            stack.append(cur.fst)
            stack.append(cur.snd)
        elif cls is Proj:
            stack.append(cur.subj)
        elif cls is Eq:
            stack.append(cur.lhs)
            stack.append(cur.rhs)
        else:
            raise TypeError(f"unknown syntax node {cls.__name__}")
    return frozenset(out)


def reference_syntax_alpha_eq(a, b):
    """``alpha_eq`` as it was before the layout table: a recursive
    ladder over the node classes that copies both binder maps per binder."""

    def go(x, y, envx, envy):
        cx, cy = type(x), type(y)
        if cx is not cy:
            return False
        if cx in (PVar, Var, TVar):
            return envx.get(x.name, ("free", x.name)) == envy.get(y.name, ("free", y.name))
        if cx in (Beta, Star):
            return True
        if cx is PLam:
            return bound(x.name, x.body, y.name, y.body, envx, envy)
        if cx in (Lam, ELam, TLam):
            if (x.ann is None) != (y.ann is None):
                return False
            if x.ann is not None and not go(x.ann, y.ann, envx, envy):
                return False
            return bound(x.name, x.body, y.name, y.body, envx, envy)
        if cx in (Pi, All, AllK, KPi, KPiK):
            return go(x.dom, y.dom, envx, envy) and bound(x.name, x.cod, y.name, y.cod, envx, envy)
        if cx is Iota:
            return go(x.fst, y.fst, envx, envy) and bound(x.name, x.snd, y.name, y.snd, envx, envy)
        if cx in (PApp, App, EApp, TAppT, TAppE):
            return go(x.fn, y.fn, envx, envy) and go(x.arg, y.arg, envx, envy)
        if cx is Rho:
            if (x.guide is None) != (y.guide is None):
                return False
            if x.guide is not None:
                if not bound(x.guide[0], x.guide[1], y.guide[0], y.guide[1], envx, envy):
                    return False
            return go(x.proof, y.proof, envx, envy) and go(x.body, y.body, envx, envy)
        if cx is Phi:
            return (
                go(x.proof, y.proof, envx, envy)
                and go(x.main, y.main, envx, envy)
                and go(x.target, y.target, envx, envy)
            )
        if cx is Sym:
            return go(x.proof, y.proof, envx, envy)
        if cx is IotaPair:
            return go(x.fst, y.fst, envx, envy) and go(x.snd, y.snd, envx, envy)
        if cx is Proj:
            return x.idx == y.idx and go(x.subj, y.subj, envx, envy)
        if cx is Eq:
            return go(x.lhs, y.lhs, envx, envy) and go(x.rhs, y.rhs, envx, envy)
        raise TypeError(f"unknown node {cx.__name__}")

    depth = [0]

    def bound(nx, bx, ny, by, envx, envy):
        depth[0] += 1
        tag = ("bound", depth[0])
        return go(bx, by, {**envx, nx: tag}, {**envy, ny: tag})

    return go(a, b, {}, {})


def _syntax_samples(corpus_defs, checked_corpus):
    items = [t for _, d in corpus_defs for t in (d.classifier, d.body) if t is not None]
    rng = random.Random(1303)
    for _ in range(150):
        items.append(gen_term(rng, 5))
        items.append(gen_type(rng, 5))
        items.append(gen_kind(rng, 4))
    items.extend(checked_corpus[0].pure_env.values())  # the expanded erasures
    return items


def test_free_names_match_reference(corpus_defs, checked_corpus):
    """Every corpus classifier and body, seeded random terms, types and
    kinds, and the corpus erasures, with their binders renamed and with
    one leaf changed."""
    rng = random.Random(1304)
    for x in _syntax_samples(corpus_defs, checked_corpus):
        variants = [x, rename_binders(x, "%r")]
        n = count_leaves(x)
        if n:
            variants.append(change_leaf(x, rng.randrange(n))[0])
        for y in variants:
            assert free_names(y) == reference_term_free_names(y)


def test_syntax_alpha_eq_matches_reference(corpus_defs, checked_corpus):
    """Each sample against itself, a binder-renamed copy (α-equal) and a
    copy with one leaf changed (not α-equal), and neighbouring samples
    against each other: both implementations give the expected answer."""
    rng = random.Random(1305)
    items = _syntax_samples(corpus_defs, checked_corpus)
    renamed = changed = 0
    for i, x in enumerate(items):
        r = rename_binders(x, "%r")
        assert alpha_eq(x, x) and reference_syntax_alpha_eq(x, x)
        assert alpha_eq(x, r) and reference_syntax_alpha_eq(x, r)
        assert alpha_eq(r, x) and reference_syntax_alpha_eq(r, x)
        renamed += r != x
        n = count_leaves(x)
        if n:
            c = change_leaf(x, rng.randrange(n))[0]
            assert not alpha_eq(x, c) and not reference_syntax_alpha_eq(x, c)
            assert not alpha_eq(c, r) and not reference_syntax_alpha_eq(c, r)
            changed += 1
        y = items[i - 1]
        assert alpha_eq(x, y) == reference_syntax_alpha_eq(x, y)
    assert renamed > 500 and changed > 500
    assert not alpha_eq(Proj(Var("p"), 1), Proj(Var("p"), 2))
    assert not alpha_eq(Lam("x", Var("x"), TVar("A")), Lam("x", Var("x")))
    assert not alpha_eq(Rho(Beta(), Beta(), ("x", TVar("A"))), Rho(Beta(), Beta()))


def test_free_names_and_alpha_eq_of_10000_deep_chains():
    """10,000 nested ``Π`` and ``λ`` binders, within the interpreter's
    default recursion limit (the recursive α-equality stopped near 900)."""
    depth = 10_000

    def pi_chain(prefix, last):
        t = Eq(Var(f"{prefix}{last}"), Var("z"))
        for i in reversed(range(depth)):
            t = Pi(f"{prefix}{i}", TAppE(TVar("P"), Var(f"{prefix}{i - 1}" if i else "w")), t)
        return t

    def lam_chain(prefix, last):
        t = App(Var(f"{prefix}{last}"), Var("z"))
        for i in reversed(range(depth)):
            t = Lam(f"{prefix}{i}", App(t, Var(f"{prefix}{i}")), TVar("A"))
        return t

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert free_names(pi_chain("x", 0)) == {"P", "w", "z"}
        assert free_names(pi_chain("x", depth)) == {"P", "w", "z", f"x{depth}"}
        assert free_names(lam_chain("x", depth)) == {"A", "z", f"x{depth}"}
        assert alpha_eq(pi_chain("x", 0), pi_chain("y", 0))
        assert not alpha_eq(pi_chain("x", 0), pi_chain("y", 1))
        assert alpha_eq(lam_chain("x", 7), lam_chain("y", 7))
        assert not alpha_eq(lam_chain("x", 7), lam_chain("y", depth))
    finally:
        sys.setrecursionlimit(limit)


def test_every_syntax_function_has_a_caller_in_the_kernel():
    """No top-level function or class of any ``src/cdle`` module lives
    for the tests alone: each is referred to by some module of
    ``src/cdle`` outside its own body (an import alone does not count).
    The pure-term helpers only the tests need live in ``tests/oracle.py``,
    and ``subst_syntax`` is the one substitution, pure terms included."""
    src = os.path.dirname(cdle.syntax.__file__)
    used: set[str] = set()
    defined: dict[str, str] = {}  # top-level function or class name -> its module
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                defined[stmt.name] = os.path.basename(path)
            used |= names
    assert defined.get("subst_syntax") == "syntax.py" and "substitute_many" not in defined
    assert sorted(f"{defined[n]}: {n}" for n in defined.keys() - used) == []


def test_every_syntax_field_is_read_in_the_kernel():
    """No field of a ``cdle.syntax`` node class is carried for nothing: each
    is read by name somewhere in ``src/cdle``, as an attribute load, a
    keyword of a ``match`` class pattern, or a field string of
    ``LAYOUT``."""
    src = os.path.dirname(cdle.syntax.__file__)
    read = {name for row in LAYOUT.values() for pair in row for name in pair if name not in (None, GUIDE)}
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.MatchClass):
                read.update(n.kwd_attrs)
    bases = (Node, PureTerm, Term, Type, Kind)
    classes = [c for c in vars(cdle.syntax).values() if isinstance(c, type) and issubclass(c, Node) and c not in bases]
    assert len(classes) == 28 and {Bind, Defn, Var, Rho} <= set(classes)
    assert sorted(f"{c.__name__}.{f}" for c in classes for f in c.__slots__ if f not in read) == []
