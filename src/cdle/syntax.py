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
alpha-equivalence, substitution) and ``term_free_names`` are iterative,
as are erasure and the normalizer, because erased terms can be deep
(spines of a few thousand applications occur in the cost harness).
``subst_syntax``, ``syntax_alpha_eq`` and the skeleton coercions recurse
once per nesting level, as do the checker (with the rho helpers
``_replace_pure``, ``_freshen_binders`` and ``_inject_pure``) and the
printer, so Python's recursion limit bounds the depth they reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
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


def term_free_names(x: Union[Term, Type, Kind, DeferredArg]) -> frozenset[str]:
    """Free names (term and type alike) of an annotated syntax value, in
    one iterative walk that counts the binders of each name in scope."""
    out: set[str] = set()
    bound: dict[str, int] = {}
    # values to visit, or a binder's name to leave its scope
    stack: list = [x]

    def under(name: str, body) -> None:
        # pushed last, so the body is all that is visited with name bound
        bound[name] = bound.get(name, 0) + 1
        stack.append(name)
        stack.append(body)

    while stack:
        cur = stack.pop()
        if type(cur) is str:
            bound[cur] -= 1
            continue
        if isinstance(cur, DeferredArg):
            stack.append(cur.expr)
            continue
        if isinstance(cur, (Var, TVar)):
            if not bound.get(cur.name):
                out.add(cur.name)
            continue
        if isinstance(cur, (Beta, Star)):
            continue
        cls = type(cur)
        if cls in (Lam, ELam, TLam):
            if cur.ann is not None:
                stack.append(cur.ann)
            under(cur.name, cur.body)
        elif cls in (Pi, All, AllK, KPi, KPiK):
            stack.append(cur.dom)
            under(cur.name, cur.cod)
        elif cls is Iota:
            stack.append(cur.fst)
            under(cur.name, cur.snd)
        elif cls in (App, EApp, TAppT, TAppE):
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
        else:  # pragma: no cover
            raise TypeError(f"unknown syntax node {cls.__name__}")
    return frozenset(out)


# How ``subst_syntax`` walks each node class: as a pair of children,
# as a binder ``(name, dom, under)``, or as an abstraction whose
# annotation may be None; the getter reads an abstraction as
# ``(name, ann, under)``, though it is built as ``(name, under, ann)``.
_PAIR, _BINDER, _ABS = 0, 1, 2
_SHAPES = {
    **{cls: (_PAIR, attrgetter(*cls.__slots__[:2])) for cls in (App, EApp, TAppT, TAppE, IotaPair, Eq)},
    **{cls: (_BINDER, attrgetter(*cls.__slots__[:3])) for cls in (Pi, All, AllK, Iota, KPi, KPiK)},
    **{cls: (_ABS, attrgetter("name", "ann", "body")) for cls in (Lam, ELam, TLam)},
}


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
        shape = _SHAPES.get(cls)
        if shape is not None:
            kind, fields = shape
            if kind == _PAIR:
                a, b = fields(cur)
                a2, b2 = go(a, env), go(b, env)
                return cur if a2 is a and b2 is b else cls(a2, b2, cur.span)
            name, outside, body = fields(cur)
            outside2 = outside if outside is None else go(outside, env)
            name2, body2 = under(name, body, env)
            if outside2 is outside and body2 is body and name2 is name:
                return cur
            if kind == _BINDER:
                return cls(name2, outside2, body2, cur.span)
            return cls(name2, body2, outside2, cur.span)
        if cls is Beta or cls is Star:
            return cur
        if cls is Rho:
            guide = cur.guide
            if guide is not None:
                gn, gt = guide
                gn2, gt2 = under(gn, gt, env)
                if gn2 is not gn or gt2 is not gt:
                    guide = (gn2, gt2)
            proof, body = go(cur.proof, env), go(cur.body, env)
            if proof is cur.proof and body is cur.body and guide is cur.guide:
                return cur
            return Rho(proof, body, guide, cur.span)
        if cls is Phi:
            proof, main, target = go(cur.proof, env), go(cur.main, env), go(cur.target, env)
            if proof is cur.proof and main is cur.main and target is cur.target:
                return cur
            return Phi(proof, main, target, cur.span)
        if cls is Sym:
            proof = go(cur.proof, env)
            return cur if proof is cur.proof else Sym(proof, cur.span)
        if cls is Proj:
            subj = go(cur.subj, env)
            return cur if subj is cur.subj else Proj(subj, cur.idx, cur.span)
        if cls is DeferredArg:
            # a type replacement hitting the skeleton resolves its sort
            hit_types = {
                k for k, v in env.items() if isinstance(v, Type) and not isinstance(v, TVar)
            }
            if hit_types and not hit_types.isdisjoint(term_free_names(cur.expr)):
                return go(promote_skeleton(cur.expr), env)
            expr = go(cur.expr, env)
            return cur if expr is cur.expr else DeferredArg(expr, cur.span)
        raise TypeError(f"unknown syntax node {cls.__name__}")  # pragma: no cover

    return go(x, top)


def subst1(x, name: str, value: Union[Term, Type]):
    """Single-variable substitution over annotated syntax."""
    return subst_syntax(x, {name: value})


def syntax_alpha_eq(a, b) -> bool:
    """Alpha-equivalence of annotated syntax values (terms, types, kinds).

    Binder names are compared positionally; a deferred erased argument is
    compared through its skeleton.  Non-dependent products with distinct
    unused binder names are equal (this is what makes the arrow resugaring
    of the printer round-trip).
    """

    def go(x, y, envx: dict, envy: dict) -> bool:
        if isinstance(x, DeferredArg):
            x = x.expr
        if isinstance(y, DeferredArg):
            y = y.expr
        cx, cy = type(x), type(y)
        if cx is not cy:
            return False
        if cx in (Var, TVar):
            nx = envx.get(x.name, ("free", x.name))
            ny = envy.get(y.name, ("free", y.name))
            return nx == ny
        if cx in (Beta, Star):
            return True
        if cx in (Lam, ELam, TLam):
            if (x.ann is None) != (y.ann is None):
                return False
            if x.ann is not None and not go(x.ann, y.ann, envx, envy):
                return False
            return _go_bound(x.name, x.body, y.name, y.body, envx, envy, go)
        if cx in (Pi, All, AllK, KPi, KPiK):
            return go(x.dom, y.dom, envx, envy) and _go_bound(
                x.name, x.cod, y.name, y.cod, envx, envy, go
            )
        if cx is Iota:
            return go(x.fst, y.fst, envx, envy) and _go_bound(
                x.name, x.snd, y.name, y.snd, envx, envy, go
            )
        if cx in (App, EApp, TAppT, TAppE):
            return go(x.fn, y.fn, envx, envy) and go(x.arg, y.arg, envx, envy)
        if cx is Rho:
            if (x.guide is None) != (y.guide is None):
                return False
            if x.guide is not None:
                if not _go_bound(x.guide[0], x.guide[1], y.guide[0], y.guide[1], envx, envy, go):
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
        raise TypeError(f"unknown node {cx.__name__}")  # pragma: no cover

    depth = [0]

    def _go_bound(nx, bx, ny, by, envx, envy, go):
        depth[0] += 1
        tag = ("bound", depth[0])
        ex = dict(envx)
        ex[nx] = tag
        ey = dict(envy)
        ey[ny] = tag
        return go(bx, by, ex, ey)

    return go(a, b, {}, {})


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
