"""Seeded random generators for well-scoped pure terms and small
annotated syntax values, variants of pure and annotated syntax
(binder-renamed copies, one-leaf changes), and one-token mutants of the
corpus modules, shared by the property suites."""

from __future__ import annotations

import glob
import os
import random

from cdle.surface import lex
from cdle.syntax import Node, PApp, PLam, PVar, PureTerm

VAR_POOL = ["a", "b", "c", "f", "g", "x", "y", "z"]


def gen_pure(rng: random.Random, budget: int, scope: tuple[str, ...] = ()) -> PureTerm:
    """A random well-scoped term of size <= budget (closed when scope is
    empty)."""
    while True:
        if budget <= 1:
            if scope:
                return PVar(rng.choice(scope))
            return PLam("x", PVar("x"))
        r = rng.random()
        if r < 0.32 and scope:
            return PVar(rng.choice(scope))
        if r < 0.62:
            name = rng.choice(VAR_POOL) + str(rng.randrange(4))
            return PLam(name, gen_pure(rng, budget - 1, scope + (name,)))
        left = rng.randrange(1, max(2, budget - 1))
        fn = gen_pure(rng, left, scope)
        arg = gen_pure(rng, budget - 1 - left, scope)
        return PApp(fn, arg)


def gen_pure_open(rng: random.Random, budget: int) -> PureTerm:
    """A term that may mention a few fixed free variables."""
    return gen_pure(rng, budget, scope=("u", "v", "w"))


# --- random annotated syntax (well-formed ASTs, not necessarily typed) ----

from cdle.syntax import (  # noqa: E402
    All,
    AllK,
    App,
    Beta,
    EApp,
    ELam,
    Eq,
    Iota,
    IotaPair,
    KPi,
    KPiK,
    Lam,
    Phi,
    Pi,
    Proj,
    Rho,
    Star,
    Sym,
    TAppE,
    TAppT,
    TLam,
    TVar,
    Var,
    free_names,
    subst1,
)

TYPE_NAMES = ["T", "U", "F", "G", "P"]
TERM_NAMES = ["s", "t", "u", "p", "q"]


def gen_kind(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        return Star()
    if rng.random() < 0.5:
        return KPi(rng.choice(TERM_NAMES), gen_type(rng, depth - 1), gen_kind(rng, depth - 1))
    return KPiK(rng.choice(TYPE_NAMES), gen_kind(rng, depth - 1), gen_kind(rng, depth - 1))


def gen_type(rng: random.Random, depth: int):
    if depth <= 0:
        return TVar(rng.choice(TYPE_NAMES))
    r = rng.random()
    if r < 0.15:
        return TVar(rng.choice(TYPE_NAMES))
    if r < 0.30:
        return Pi(rng.choice(TERM_NAMES), gen_type(rng, depth - 1), gen_type(rng, depth - 1))
    if r < 0.40:
        return All(rng.choice(TERM_NAMES), gen_type(rng, depth - 1), gen_type(rng, depth - 1))
    if r < 0.50:
        return AllK(rng.choice(TYPE_NAMES), gen_kind(rng, depth - 1), gen_type(rng, depth - 1))
    if r < 0.60:
        return Iota(rng.choice(TERM_NAMES), gen_type(rng, depth - 1), gen_type(rng, depth - 1))
    if r < 0.70:
        return Eq(gen_term(rng, depth - 1), gen_term(rng, depth - 1))
    if r < 0.80:
        return TLam(rng.choice(TERM_NAMES), gen_type(rng, depth - 1), gen_type(rng, depth - 1))
    if r < 0.90:
        return TAppT(gen_type(rng, depth - 1), gen_type(rng, depth - 1))
    return TAppE(gen_type(rng, depth - 1), gen_term(rng, depth - 1))


def gen_erased_arg(rng: random.Random, depth: int):
    """An erased argument in one of the shapes the parser can produce."""
    r = rng.random()
    if r < 0.5:
        return Var(rng.choice(TERM_NAMES))
    if r < 0.75:
        ty = gen_type(rng, depth - 1)
        if isinstance(ty, (TVar, TAppE, TLam)):
            # sort-ambiguous shapes would reparse as term skeletons; draw a name
            return Var(rng.choice(TERM_NAMES))
        return ty
    return Beta()


def gen_term(rng: random.Random, depth: int):
    if depth <= 0:
        return Var(rng.choice(TERM_NAMES))
    r = rng.random()
    if r < 0.15:
        return Var(rng.choice(TERM_NAMES))
    if r < 0.25:
        ann = gen_type(rng, depth - 1) if rng.random() < 0.5 else None
        return Lam(rng.choice(TERM_NAMES), gen_term(rng, depth - 1), ann)
    if r < 0.35:
        return ELam(rng.choice(TERM_NAMES), gen_term(rng, depth - 1))
    if r < 0.50:
        return App(gen_term(rng, depth - 1), gen_term(rng, depth - 1))
    if r < 0.60:
        return EApp(gen_term(rng, depth - 1), gen_erased_arg(rng, depth))
    if r < 0.65:
        return Beta()
    if r < 0.72:
        hole = template = None
        if rng.random() < 0.4:
            hole, template = rng.choice(TERM_NAMES), gen_type(rng, depth - 1)
        return Rho(gen_term(rng, depth - 1), gen_term(rng, depth - 1), hole, template)
    if r < 0.80:
        return Phi(gen_term(rng, depth - 1), gen_term(rng, depth - 1), gen_term(rng, depth - 1))
    if r < 0.85:
        return Sym(gen_term(rng, depth - 1))
    if r < 0.93:
        return IotaPair(gen_term(rng, depth - 1), gen_term(rng, depth - 1))
    return Proj(gen_term(rng, depth - 1), rng.choice([1, 2]))


# --- variants of pure and annotated syntax ----------------------------------

# each binder field and the child its name scopes, written out apart from
# LAYOUT so that the helpers below do not share a mistake with the code
# they test
_SCOPES = {
    **dict.fromkeys((PLam, Lam, ELam, TLam), ("name", "body")),
    **dict.fromkeys((Pi, All, AllK, KPi, KPiK), ("name", "cod")),
    Iota: ("name", "snd"),
    Rho: ("hole", "template"),
}
_LEAVES = (PVar, Var, TVar)


def _children(x):
    """The node-valued fields of ``x``, by name."""
    return {f: getattr(x, f) for f in type(x).__slots__ if isinstance(getattr(x, f), Node)}


def _rebuild(cur, fields):
    return type(cur)(**{f: fields.get(f, getattr(cur, f)) for f in type(cur).__slots__})


def rename_binders(x, suffix):
    """``x`` with every binder renamed by appending ``suffix``."""
    return _rename_each(x, lambda name, scope, outer: name + suffix)


def rename_binders_to_bound(x, names, rng: random.Random):
    """``x`` with every binder renamed, without capture, to a name that is
    bound where the binder stands: an enclosing binder's (as renamed) or
    one of ``names``.  ``rng`` picks among those its scope does not
    mention; a binder with none left keeps its name."""

    def choose(name, scope, outer):
        free = free_names(scope)
        options = [n for n in dict.fromkeys((*outer, *names)) if n != name and n not in free]
        return rng.choice(options) if options else name

    return _rename_each(x, choose)


def _rename_each(x, choose, outer=()):
    """``x`` with each binder renamed to ``choose(name, scope, outer)``,
    outermost first, where ``outer`` holds the enclosing binders' new
    names."""
    fields = {}
    binder, scope = _SCOPES.get(type(x), (None, None))
    for child, sub in _children(x).items():
        if child == scope:
            name = getattr(x, binder)
            new = fields[binder] = choose(name, sub, outer)
            fields[child] = _rename_each(subst1(sub, name, Var(new)), choose, outer + (new,))
        else:
            fields[child] = _rename_each(sub, choose, outer)
    return _rebuild(x, fields) if fields else x


def count_leaves(x):
    """The number of ``PVar``/``Var``/``TVar`` leaves of ``x``."""
    n, stack = 0, [x]
    while stack:
        cur = stack.pop()
        if type(cur) in _LEAVES:
            n += 1
        else:
            stack.extend(_children(cur).values())
    return n


def change_leaf(x, k):
    """``x`` with its ``k``-th ``PVar``/``Var``/``TVar`` leaf renamed to a
    name that occurs nowhere; returns it with ``k`` less the leaves it
    passed."""
    if type(x) in _LEAVES:
        return (_rebuild(x, {"name": x.name + "%changed"}) if k == 0 else x), k - 1
    fields = {}
    for child, sub in _children(x).items():
        if k < 0:
            break
        fields[child], k = change_leaf(sub, k)
    return _rebuild(x, fields), k


def corpus_mutants(corpus: str, rng: random.Random, count: int):
    """``count`` seeded one-token mutants of the modules in ``corpus``: a
    token deleted, duplicated, or swapped with another, written out as
    the module's lexemes joined by blanks."""
    sources = []
    for path in sorted(glob.glob(os.path.join(corpus, "*.cdl"))):
        with open(path, encoding="utf-8") as fh:
            sources.append([tok.lexeme for tok in lex(fh.read())[:-1]])
    for _ in range(count):
        toks = list(rng.choice(sources))
        i = rng.randrange(len(toks))
        op = rng.choice(("delete", "duplicate", "swap"))
        if op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        else:
            j = rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
        yield " ".join(toks) + "\n"
