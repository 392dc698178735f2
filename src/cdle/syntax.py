"""Kernel syntax: pure terms, annotated terms, types, kinds, and contexts.

Pure terms are exactly untyped lambda terms (variables, abstractions,
applications) with named binders.  Annotated terms add the erased binders,
the equality constructs (reflexivity, rewrite, cast, symmetry), and
intersection introduction/projection; classifiers are split into a type
layer and a kind layer.

Syntax nodes are slotted dataclasses: they have no ``__dict__``, compare
and hash by value (source spans excluded), and are immutable by
convention rather than frozen, since a frozen dataclass costs more than
twice as much to build.  No code assigns to a node, so nodes are safe to
share between checker instances, and ``subst_syntax`` returns every
subtree it leaves unchanged as the same object instead of a copy: a
substitution rebuilds only the paths down to the occurrences it
replaces.  The one exception is readback in
``reduction._quote``, which names binders by assigning ``name`` to the
``PLam`` and ``PVar`` nodes it built itself, before ``normalize`` returns
them; no other code has seen those nodes yet.

The pure-term operations here (subterms, free variables,
alpha-equivalence, substitution), ``term_free_names`` and
``syntax_alpha_eq`` are iterative, as are erasure, the normalizer and
rho's rewrite of a normal form (``typecheck._rewrite_nf``), because
erased terms can be deep (spines of a few thousand applications occur in
the cost harness).  ``subst_syntax`` and the skeleton coercions recurse
once per nesting level, as do the checker and the printer, so Python's
recursion limit bounds the depth they reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Union


class Span(NamedTuple):
    """Source position, for error reporting only (never compared)."""

    file: str = "<none>"
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Pure terms
# ---------------------------------------------------------------------------


# every syntax node: slotted, compared and hashed by value (see the module docstring)
_node = dataclass(slots=True, unsafe_hash=True)


class PureTerm:
    """Base class for untyped lambda terms (no constants of any kind)."""

    __slots__ = ()


@_node
class PVar(PureTerm):
    name: str

    def __repr__(self) -> str:
        return f"PVar({self.name!r})"


@_node
class PLam(PureTerm):
    name: str
    body: PureTerm

    def __repr__(self) -> str:
        return f"PLam({self.name!r}, {self.body!r})"


@_node
class PApp(PureTerm):
    fn: PureTerm
    arg: PureTerm

    def __repr__(self) -> str:
        return f"PApp({self.fn!r}, {self.arg!r})"


_fresh_counter = itertools.count(1)


def fresh_name(hint: str = "x") -> str:
    """A globally fresh variable name derived from ``hint``."""
    base = hint.rstrip("0123456789")
    if not base:
        base = "x"
    return f"{base}%{next(_fresh_counter)}"


def pure_subterms(t: PureTerm) -> Iterator[PureTerm]:
    """All subterms of ``t``, iteratively (pre-order)."""
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, PLam):
            stack.append(cur.body)
        elif isinstance(cur, PApp):
            stack.append(cur.arg)
            stack.append(cur.fn)


def pure_size(t: PureTerm) -> int:
    return sum(1 for _ in pure_subterms(t))


def free_vars(t: PureTerm) -> frozenset[str]:
    """Exactly the variables occurring free in ``t``, in one iterative
    walk that counts the binders of each name in scope."""
    out: set[str] = set()
    bound: dict[str, int] = {}
    # terms to visit, or a binder's name to leave its scope
    stack: list = [t]
    while stack:
        cur = stack.pop()
        cls = type(cur)
        if cls is PVar:
            if not bound.get(cur.name):
                out.add(cur.name)
        elif cls is PApp:
            stack.append(cur.fn)
            stack.append(cur.arg)
        elif cls is PLam:
            bound[cur.name] = bound.get(cur.name, 0) + 1
            stack.append(cur.name)
            stack.append(cur.body)
        else:
            bound[cur] -= 1
    return frozenset(out)


def alpha_eq(a: PureTerm, b: PureTerm) -> bool:
    """True iff ``a`` and ``b`` are identical up to renaming of bound
    variables.  An equivalence relation on well-scoped terms.

    One iterative walk over both terms at once, so any depth is fine and
    the first mismatch ends it.  Each side maps a bound name to the level
    of its innermost binder; two variables match when both are bound at
    the same level or both are free with the same name."""
    levels_a: dict[str, Optional[int]] = {}
    levels_b: dict[str, Optional[int]] = {}
    depth = 0
    # pairs left to compare; (None, saved) leaves a pair of binders
    stack: list[tuple] = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is None:
            name_a, old_a, name_b, old_b = y
            levels_a[name_a] = old_a
            levels_b[name_b] = old_b
            depth -= 1
            continue
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is PVar:
            level = levels_a.get(x.name)
            if level != levels_b.get(y.name) or (level is None and x.name != y.name):
                return False
        elif cls is PLam:
            stack.append((None, (x.name, levels_a.get(x.name), y.name, levels_b.get(y.name))))
            levels_a[x.name] = levels_b[y.name] = depth
            depth += 1
            stack.append((x.body, y.body))
        else:
            stack.append((x.arg, y.arg))
            stack.append((x.fn, y.fn))
    return True


def substitute(body: PureTerm, name: str, value: PureTerm) -> PureTerm:
    """Capture-avoiding substitution ``body[name := value]``.

    Binders in ``body`` that would capture a free variable of ``value``
    are renamed with globally fresh names.
    """
    return substitute_many(body, {name: value})


def substitute_many(t: PureTerm, env: dict[str, PureTerm]) -> PureTerm:
    """Capture-avoiding simultaneous substitution ``t[env]``: binders of
    ``t`` that would capture a free variable of a replacement are renamed
    with globally fresh names."""
    if not env:
        return t
    all_fvs: frozenset[str] = frozenset().union(*(free_vars(v) for v in env.values()))
    results: list[PureTerm] = []
    work: list[tuple] = [("go", t, env)]
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == "go":
            _, cur, cenv = frame
            if isinstance(cur, PVar):
                results.append(cenv.get(cur.name, cur))
            elif isinstance(cur, PApp):
                work.append(("app",))
                work.append(("go", cur.arg, cenv))
                work.append(("go", cur.fn, cenv))
            else:
                assert isinstance(cur, PLam)
                cenv2 = {k: v for k, v in cenv.items() if k != cur.name}
                if not cenv2:
                    results.append(cur)
                    continue
                binder = cur.name
                if binder in all_fvs:
                    binder2 = fresh_name(binder)
                    cenv2 = dict(cenv2)
                    cenv2[cur.name] = PVar(binder2)
                    binder = binder2
                work.append(("lam", binder))
                work.append(("go", cur.body, cenv2))
        elif tag == "lam":
            results.append(PLam(frame[1], results.pop()))
        else:
            arg = results.pop()
            fn = results.pop()
            results.append(PApp(fn, arg))
    return results[0]


# ---------------------------------------------------------------------------
# Annotated terms
# ---------------------------------------------------------------------------


class Term:
    """Base class for annotated terms."""

    __slots__ = ()


class Type:
    """Base class for type expressions."""

    __slots__ = ()


class Kind:
    """Base class for kind expressions."""

    __slots__ = ()


Classifier = Union[Type, Kind]


def _span_field():
    return field(default=None, compare=False, repr=False)


@_node
class Var(Term):
    name: str
    span: Optional[Span] = _span_field()


@_node
class Lam(Term):
    """Explicit abstraction; annotation optional (checking mode fills it)."""

    name: str
    body: Term
    ann: Optional[Type] = None
    span: Optional[Span] = _span_field()


@_node
class ELam(Term):
    """Erased abstraction; binds a term or a type variable, which is
    resolved against the expected implicit product when checking."""

    name: str
    body: Term
    ann: Optional[Classifier] = None
    span: Optional[Span] = _span_field()


@_node
class App(Term):
    fn: Term
    arg: Term
    span: Optional[Span] = _span_field()


@_node
class EApp(Term):
    """Erased application ``t -a``.

    The argument carries a discriminator: a Term, a Type, or a
    DeferredArg (a bare name or name-application whose sort is resolved
    from the head's classifier during checking).
    """

    fn: Term
    arg: Union[Term, Type, "DeferredArg"]
    span: Optional[Span] = _span_field()


@_node
class DeferredArg:
    """Erased-argument surface form whose term/type sort is not decidable
    at parse time (a name, or a juxtaposed application of names)."""

    expr: Term  # var/app skeleton; promoted to a type when required
    span: Optional[Span] = _span_field()


@_node
class Beta(Term):
    """Reflexivity introduction for the heterogeneous equality type."""

    span: Optional[Span] = _span_field()


@_node
class Rho(Term):
    """Rewrite: ``ρ q - t``, with an optional ``{x . T}`` guide naming a
    hole and a template type."""

    proof: Term
    body: Term
    guide: Optional[tuple[str, Type]] = None
    span: Optional[Span] = _span_field()


@_node
class Phi(Term):
    """Cast: ``φ q - t1 {t2}`` erases to ``|t2|``."""

    proof: Term
    main: Term
    target: Term
    span: Optional[Span] = _span_field()


@_node
class Sym(Term):
    """Equality symmetry ``ς q``."""

    proof: Term
    span: Optional[Span] = _span_field()


@_node
class IotaPair(Term):
    """Intersection introduction ``[t1, t2]``."""

    fst: Term
    snd: Term
    span: Optional[Span] = _span_field()


@_node
class Proj(Term):
    """Intersection projection ``t.1`` / ``t.2``."""

    subj: Term
    idx: int  # 1 or 2
    span: Optional[Span] = _span_field()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@_node
class TVar(Type):
    name: str
    span: Optional[Span] = _span_field()


@_node
class Pi(Type):
    """Explicit product over a term: ``Π x : T. T'``; a domain name of
    ``_`` marks the non-dependent arrow sugar ``T ➔ T'``."""

    name: str
    dom: Type
    cod: Type
    span: Optional[Span] = _span_field()


@_node
class All(Type):
    """Implicit product over a term: ``∀ x : T. T'`` (sugar ``T ➾ T'``)."""

    name: str
    dom: Type
    cod: Type
    span: Optional[Span] = _span_field()


@_node
class AllK(Type):
    """Impredicative quantification over a type: ``∀ X : κ. T``."""

    name: str
    dom: Kind
    cod: Type
    span: Optional[Span] = _span_field()


@_node
class Iota(Type):
    """Dependent intersection ``ι x : T. T'``."""

    name: str
    fst: Type
    snd: Type
    span: Optional[Span] = _span_field()


@_node
class Eq(Type):
    """Heterogeneous equality ``t1 ≃ t2`` between typed terms."""

    lhs: Term
    rhs: Term
    span: Optional[Span] = _span_field()


@_node
class TLam(Type):
    """Type-level abstraction over a term or type variable; the binder
    sort follows the annotation (or the kind it is checked against)."""

    name: str
    body: Type
    ann: Optional[Classifier] = None
    span: Optional[Span] = _span_field()


@_node
class TAppT(Type):
    """Application of a type to a type (written ``T · T'``)."""

    fn: Type
    arg: Type
    span: Optional[Span] = _span_field()


@_node
class TAppE(Type):
    """Application of a type to a term (juxtaposition)."""

    fn: Type
    arg: Term
    span: Optional[Span] = _span_field()


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------


@_node
class Star(Kind):
    span: Optional[Span] = _span_field()


@_node
class KPi(Kind):
    """Kind depending on a term: ``Π x : T. κ`` (sugar ``T ➔ κ``)."""

    name: str
    dom: Type
    cod: Kind
    span: Optional[Span] = _span_field()


@_node
class KPiK(Kind):
    """Kind depending on a type: ``Π X : κ. κ'`` (sugar ``κ ➔ κ'``)."""

    name: str
    dom: Kind
    cod: Kind
    span: Optional[Span] = _span_field()


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


@_node
class TermBind:
    name: str
    type: Type
    erased: bool = False


@_node
class TypeBind:
    name: str
    kind: Kind


@_node
class Defn:
    """Top-level definition; ``body`` is None for parameters (classifier
    assumed, nothing to unfold)."""

    name: str
    classifier: Classifier
    body: Optional[Union[Term, Type]]
    span: Optional[Span] = _span_field()


Entry = Union[TermBind, TypeBind, Defn]


class Context:
    """Bindings and definitions by name.

    Lookup returns the latest entry for a name.  Contexts are persistent:
    ``extend`` returns a new context and leaves this one unchanged, so a
    fully-checked prelude can be shared between concurrent checkers.
    """

    __slots__ = ("_index",)

    def __init__(self, index: Optional[dict[str, Entry]] = None):
        self._index = {} if index is None else index

    def extend(self, entry: Entry) -> "Context":
        idx = dict(self._index)
        idx[entry.name] = entry
        return Context(idx)

    def lookup(self, name: str) -> Optional[Entry]:
        return self._index.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._index


# ---------------------------------------------------------------------------
# Traversals and substitution over annotated syntax
# ---------------------------------------------------------------------------


# The layout of annotated syntax, read by ``term_free_names``,
# ``subst_syntax`` and ``syntax_alpha_eq``: for each node class, its
# child fields in the order they are walked, each with the field holding
# the binder name that scopes it, or None.  Rho's guide is the one
# special child, a ``(hole, template)`` pair whose hole binds in its
# template; its binder entry is GUIDE.  A child that may be None (an
# annotation, a guide) is skipped when it is.  The other fields are
# ``span`` and the data the traversals read themselves: the name of a
# ``Var`` or ``TVar`` leaf and the index of a ``Proj``.
GUIDE = "(hole, template)"
LAYOUT: dict[type, tuple[tuple[str, Optional[str]], ...]] = {
    **dict.fromkeys((Var, TVar, Beta, Star), ()),
    **dict.fromkeys((Lam, ELam, TLam), (("ann", None), ("body", "name"))),
    **dict.fromkeys((App, EApp, TAppT, TAppE), (("fn", None), ("arg", None))),
    **dict.fromkeys((Pi, All, AllK, KPi, KPiK), (("dom", None), ("cod", "name"))),
    Iota: (("fst", None), ("snd", "name")),
    IotaPair: (("fst", None), ("snd", None)),
    Eq: (("lhs", None), ("rhs", None)),
    Rho: (("guide", GUIDE), ("proof", None), ("body", None)),
    Phi: (("proof", None), ("main", None), ("target", None)),
    Sym: (("proof", None),),
    Proj: (("subj", None),),
    DeferredArg: (("expr", None),),
}


def term_free_names(x: Union[Term, Type, Kind, DeferredArg]) -> frozenset[str]:
    """Free names (term and type alike) of an annotated syntax value, in
    one iterative walk that counts the binders of each name in scope."""
    out: set[str] = set()
    bound: dict[str, int] = {}
    # values to visit, a (binder name, scope) pair to visit with the
    # name bound, or a binder's name to leave its scope
    stack: list = [x]
    while stack:
        cur = stack.pop()
        cls = type(cur)
        if cls is Var or cls is TVar:
            if not bound.get(cur.name):
                out.add(cur.name)
        elif cls is tuple:
            bound[cur[0]] = bound.get(cur[0], 0) + 1
            stack.extend(cur)  # visit the scope, then leave it
        elif cls is str:
            bound[cur] -= 1
        else:
            for child, binder in LAYOUT[cls]:
                sub = getattr(cur, child)
                if sub is None:
                    continue
                if binder is None or binder is GUIDE:  # a guide is such a pair
                    stack.append(sub)
                else:
                    stack.append((getattr(cur, binder), sub))
    return frozenset(out)


def subst_syntax(x, env: dict[str, Union[Term, Type]]):
    """Capture-avoiding simultaneous substitution over annotated syntax.

    ``env`` maps names to replacement Terms or Types; a Var hit by a Type
    replacement (or TVar by a Term) indicates a sort error upstream and
    raises.  Entries ``x ↦ x`` are dropped first.

    Sharing: every subtree the substitution leaves unchanged comes back
    as the same object, ``x`` itself included, so instantiating a
    codomain rebuilds only the paths down to the occurrences it replaces.
    This is safe because no code assigns to an annotated node.  A binder
    whose name is free in a replacement is renamed, with a globally fresh
    name, only when a name still due under it occurs free in its body;
    the replacements' free names are computed when the walk first reaches
    a binder.  Recursive: annotated syntax stays shallow (unlike
    erasures).
    """
    top = {k: v for k, v in env.items() if not (type(v) in (Var, TVar) and v.name == k)}
    if not top:
        return x
    fvs: Optional[set[str]] = None

    def under(name: str, body, env):
        # the binder's name and body after substituting ``env`` under it
        nonlocal fvs
        if name in env:
            env = {k: v for k, v in env.items() if k != name}
            if not env:
                return name, body
        if fvs is None:
            fvs = set()
            for v in top.values():
                fvs |= term_free_names(v)
        if name in fvs:
            if env.keys().isdisjoint(term_free_names(body)):
                return name, body
            fresh = fresh_name(name)
            return fresh, go(body, {**env, name: Var(fresh)})
        return name, go(body, env)

    def go(cur, env):
        cls = type(cur)
        if cls is Var:
            rep = env.get(cur.name)
            if rep is None:
                return cur
            if isinstance(rep, TVar):
                # sort-ambiguous occurrence renamed by a type variable
                return Var(rep.name, cur.span)
            if isinstance(rep, Type):
                raise TypeError(f"type used at term position: {cur.name}")
            return rep
        if cls is TVar:
            rep = env.get(cur.name)
            if rep is None:
                return cur
            if isinstance(rep, Term):
                # a deferred name resolved as a term but used in type position
                if isinstance(rep, Var):
                    return TVar(rep.name, cur.span)
                raise TypeError(f"term used at type position: {cur.name}")
            return rep
        if cls is DeferredArg:
            # a type replacement hitting the skeleton resolves its sort
            hit_types = {
                k for k, v in env.items() if isinstance(v, Type) and not isinstance(v, TVar)
            }
            if hit_types and not hit_types.isdisjoint(term_free_names(cur.expr)):
                return go(promote_skeleton(cur.expr), env)
        new = {}  # the fields that change, by name
        for child, binder in LAYOUT[cls]:
            sub = getattr(cur, child)
            if sub is None:
                continue
            if binder is None:
                kind = type(sub)
                if (kind is Var or kind is TVar) and sub.name not in env:
                    continue  # an untouched leaf costs no call
                sub2 = go(sub, env)
                if sub2 is not sub:
                    new[child] = sub2
                continue
            name, scope = sub if binder is GUIDE else (getattr(cur, binder), sub)
            name2, scope2 = under(name, scope, env)
            if name2 is not name or scope2 is not scope:
                if binder is GUIDE:
                    new[child] = (name2, scope2)
                else:
                    new[binder], new[child] = name2, scope2
        if not new:
            return cur
        return cls(*[new[f] if f in new else getattr(cur, f) for f in cls.__slots__])

    return go(x, top)


def subst1(x, name: str, value: Union[Term, Type]):
    """Single-variable substitution over annotated syntax."""
    return subst_syntax(x, {name: value})


def syntax_alpha_eq(a, b) -> bool:
    """Alpha-equivalence of annotated syntax values (terms, types, kinds).

    A deferred erased argument is compared through its skeleton.
    Non-dependent products with distinct unused binder names are equal
    (this is what makes the arrow resugaring of the printer round-trip).
    One iterative walk over both values, with binders compared by level
    as in ``alpha_eq``.
    """
    levels_a: dict[str, Optional[int]] = {}
    levels_b: dict[str, Optional[int]] = {}
    depth = 0
    # (binder_a, x, binder_b, y): compare x with y, first binding the two
    # names at the next level unless they are None; a frame whose x is
    # None leaves a pair of binders, and y holds their previous levels
    stack: list[tuple] = [(None, a, None, b)]
    while stack:
        name_a, x, name_b, y = stack.pop()
        if x is None:
            levels_a[name_a], levels_b[name_b] = y
            depth -= 1
            continue
        if name_a is not None:
            stack.append((name_a, None, name_b, (levels_a.get(name_a), levels_b.get(name_b))))
            levels_a[name_a] = levels_b[name_b] = depth
            depth += 1
        if type(x) is DeferredArg:
            x = x.expr
        if type(y) is DeferredArg:
            y = y.expr
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is Var or cls is TVar:
            level = levels_a.get(x.name)
            if level != levels_b.get(y.name) or (level is None and x.name != y.name):
                return False
            continue
        if cls is Proj and x.idx != y.idx:
            return False
        for child, binder in LAYOUT[cls]:
            sub_a, sub_b = getattr(x, child), getattr(y, child)
            if sub_a is None or sub_b is None:
                if sub_a is not sub_b:
                    return False
            elif binder is None:
                stack.append((None, sub_a, None, sub_b))
            elif binder is GUIDE:
                stack.append((sub_a[0], sub_a[1], sub_b[0], sub_b[1]))
            else:
                stack.append((getattr(x, binder), sub_a, getattr(y, binder), sub_b))
    return True


def promote_skeleton(t: Term) -> Type:
    """Reinterpret a sort-ambiguous var/application/λ skeleton as a type
    (juxtaposed application arguments stay terms)."""
    if isinstance(t, Var):
        return TVar(t.name, t.span)
    if isinstance(t, App):
        return TAppE(promote_skeleton(t.fn), t.arg, t.span)
    if isinstance(t, Lam):
        return TLam(t.name, promote_skeleton(t.body), t.ann, t.span)
    raise TypeError(f"not a promotable skeleton: {t!r}")


def demote_skeleton(ty: Type, span: Optional[Span] = None) -> Term:
    """Reinterpret a type var/application/λ skeleton as a term, the inverse
    of :func:`promote_skeleton`; ``span`` stands in for a missing one."""
    if isinstance(ty, TVar):
        return Var(ty.name, ty.span or span)
    if isinstance(ty, TAppE):
        return App(demote_skeleton(ty.fn, span), ty.arg, ty.span or span)
    if isinstance(ty, TLam) and not isinstance(ty.ann, Kind):
        return Lam(ty.name, demote_skeleton(ty.body, span), ty.ann, ty.span or span)
    raise TypeError(f"not a demotable skeleton: {ty!r}")
