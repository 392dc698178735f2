"""Kernel syntax: pure terms, annotated terms, types and kinds.

Pure terms are exactly untyped lambda terms (variables, abstractions,
applications) with named binders.  Annotated terms add the erased binders,
the equality constructs (reflexivity, rewrite, cast, symmetry), and
intersection introduction/projection; classifiers are split into a type
layer and a kind layer.

Syntax nodes are plain slotted classes under one base, ``Node``: they
have no ``__dict__``, compare and hash by value (source spans excluded),
and print without their spans.  Each class writes its own ``__init__``,
so building a node costs a call that only stores its fields, and
importing the kernel loads no class-generating machinery.  Nodes are
immutable by convention rather than frozen, since guarding every store
would make each node dearer to build.  No code assigns to a node, so
nodes are safe to share between checker instances, and ``subst_syntax``
returns every subtree it leaves unchanged as the same object instead of
a copy: a substitution rebuilds only the paths down to the occurrences
it replaces.  The one exception is readback in ``reduction._quote``,
which names binders by assigning ``name`` to the ``PLam`` and ``PVar``
nodes it built itself, before ``normalize`` returns them; no other code
has seen those nodes yet.

One layout table, ``LAYOUT``, lists the children and binders of every
node class, pure and annotated, and the traversals walk it: one free-name
walk (``free_names``), one alpha-equivalence (``alpha_eq``) and one
substitution (``subst_syntax``) serve every sort of syntax.  The first
two are iterative, as are erasure, the normalizer and rho's rewrite of a
normal form (``typecheck._rewrite_nf``), because erased terms can be
deep (spines of a few thousand applications occur in the cost harness).
``subst_syntax`` goes down an application spine by a loop and recurses
once per binder scope and argument; the skeleton coercions recurse once
per nesting level, as do the checker (bar its spine loops) and the
printer, so Python's recursion limit bounds the depth they reach.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import NamedTuple, Optional, Union


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


class Node:
    """Base of every syntax node and scope entry (see the module docstring).

    A subclass lists its fields in ``__slots__``, in constructor order,
    with ``span``, when it has one, last.  From them it gets
    ``__match_args__`` and ``_key``, which reads every field but ``span``
    (or, for a class with no other field, the class): two nodes are
    equal when they are of one class and their keys are equal, and a
    node hashes as its key.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = slots = cls.__dict__.get("__slots__", ())
        key = [f for f in slots if f != "span"]
        cls._key = attrgetter(*key) if key else attrgetter("__class__")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__ if f != "span")
        return f"{type(self).__name__}({fields})"


class PureTerm(Node):
    """Base class for untyped lambda terms (no constants of any kind)."""

    __slots__ = ()


class PVar(PureTerm):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"PVar({self.name!r})"


class PLam(PureTerm):
    __slots__ = ("name", "body")

    def __init__(self, name: str, body: PureTerm):
        self.name = name
        self.body = body

    def __repr__(self) -> str:
        return f"PLam({self.name!r}, {self.body!r})"


class PApp(PureTerm):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: PureTerm, arg: PureTerm):
        self.fn = fn
        self.arg = arg

    def __repr__(self) -> str:
        return f"PApp({self.fn!r}, {self.arg!r})"


_fresh_counter = itertools.count(1)


def base_name(name: str) -> str:
    """A binder's base: ``name`` before any ``%``, without trailing
    digits (``x`` if that leaves nothing)."""
    return name.split("%")[0].rstrip("0123456789") or "x"


def fresh_name(hint: str = "x") -> str:
    """A globally fresh variable name: the base of ``hint``, ``%`` and a
    number, so renaming a fresh name again keeps one ``%``."""
    return f"{base_name(hint)}%{next(_fresh_counter)}"


# ---------------------------------------------------------------------------
# Annotated terms
# ---------------------------------------------------------------------------


class Term(Node):
    """Base class for annotated terms."""

    __slots__ = ()


class Type(Node):
    """Base class for type expressions."""

    __slots__ = ()


class Kind(Node):
    """Base class for kind expressions."""

    __slots__ = ()


Classifier = Union[Type, Kind]


class Var(Term):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Optional[Span] = None):
        self.name = name
        self.span = span


class Lam(Term):
    """Explicit abstraction; annotation optional (checking mode fills it)."""

    __slots__ = ("name", "body", "ann", "span")

    def __init__(self, name: str, body: Term, ann: Optional[Type] = None, span: Optional[Span] = None):
        self.name = name
        self.body = body
        self.ann = ann
        self.span = span


class ELam(Term):
    """Erased abstraction; binds a term or a type variable, which is
    resolved against the expected implicit product when checking."""

    __slots__ = ("name", "body", "ann", "span")

    def __init__(self, name: str, body: Term, ann: Optional[Classifier] = None, span: Optional[Span] = None):
        self.name = name
        self.body = body
        self.ann = ann
        self.span = span


class App(Term):
    __slots__ = ("fn", "arg", "span")

    def __init__(self, fn: Term, arg: Term, span: Optional[Span] = None):
        self.fn = fn
        self.arg = arg
        self.span = span


class EApp(Term):
    """Erased application ``t -a``.

    The argument is a Term or a Type.  One the parser cannot sort (a
    name, an application or a λ over names, as in ``-x`` or ``-(F x)``)
    is its term skeleton, a ``Var``, ``App`` or ``Lam``; the checker reads
    it at the sort the head's implicit product asks for, promoting it to
    a type (``promote_skeleton``) where that is a type.
    """

    __slots__ = ("fn", "arg", "span")

    def __init__(self, fn: Term, arg: Union[Term, Type], span: Optional[Span] = None):
        self.fn = fn
        self.arg = arg
        self.span = span


class Beta(Term):
    """Reflexivity introduction for the heterogeneous equality type."""

    __slots__ = ("span",)

    def __init__(self, span: Optional[Span] = None):
        self.span = span


class Rho(Term):
    """Rewrite: ``ρ q - t``, with an optional ``{x . T}`` guide naming a
    hole, which binds in the template type."""

    __slots__ = ("proof", "body", "hole", "template", "span")

    def __init__(
        self,
        proof: Term,
        body: Term,
        hole: Optional[str] = None,
        template: Optional[Type] = None,
        span: Optional[Span] = None,
    ):
        self.proof = proof
        self.body = body
        self.hole = hole
        self.template = template
        self.span = span


class Phi(Term):
    """Cast: ``φ q - t1 {t2}`` erases to ``|t2|``."""

    __slots__ = ("proof", "main", "target", "span")

    def __init__(self, proof: Term, main: Term, target: Term, span: Optional[Span] = None):
        self.proof = proof
        self.main = main
        self.target = target
        self.span = span


class Sym(Term):
    """Equality symmetry ``ς q``."""

    __slots__ = ("proof", "span")

    def __init__(self, proof: Term, span: Optional[Span] = None):
        self.proof = proof
        self.span = span


class IotaPair(Term):
    """Intersection introduction ``[t1, t2]``."""

    __slots__ = ("fst", "snd", "span")

    def __init__(self, fst: Term, snd: Term, span: Optional[Span] = None):
        self.fst = fst
        self.snd = snd
        self.span = span


class Proj(Term):
    """Intersection projection ``t.1`` / ``t.2``."""

    __slots__ = ("subj", "idx", "span")

    def __init__(self, subj: Term, idx: int, span: Optional[Span] = None):
        self.subj = subj
        self.idx = idx
        self.span = span


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class TVar(Type):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Optional[Span] = None):
        self.name = name
        self.span = span


class Pi(Type):
    """Explicit product over a term: ``Π x : T. T'``; a domain name of
    ``_``, which no variable can refer to, marks the non-dependent arrow
    sugar ``T ➔ T'``."""

    __slots__ = ("name", "dom", "cod", "span")

    def __init__(self, name: str, dom: Type, cod: Type, span: Optional[Span] = None):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.span = span


class All(Type):
    """Implicit product over a term: ``∀ x : T. T'`` (sugar ``T ➾ T'``)."""

    __slots__ = ("name", "dom", "cod", "span")

    def __init__(self, name: str, dom: Type, cod: Type, span: Optional[Span] = None):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.span = span


class AllK(Type):
    """Impredicative quantification over a type: ``∀ X : κ. T``."""

    __slots__ = ("name", "dom", "cod", "span")

    def __init__(self, name: str, dom: Kind, cod: Type, span: Optional[Span] = None):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.span = span


class Iota(Type):
    """Dependent intersection ``ι x : T. T'``."""

    __slots__ = ("name", "fst", "snd", "span")

    def __init__(self, name: str, fst: Type, snd: Type, span: Optional[Span] = None):
        self.name = name
        self.fst = fst
        self.snd = snd
        self.span = span


class Eq(Type):
    """Heterogeneous equality ``t1 ≃ t2`` between typed terms."""

    __slots__ = ("lhs", "rhs", "span")

    def __init__(self, lhs: Term, rhs: Term, span: Optional[Span] = None):
        self.lhs = lhs
        self.rhs = rhs
        self.span = span


class TLam(Type):
    """Type-level abstraction over a term or type variable; the binder
    sort follows the annotation (or the kind it is checked against)."""

    __slots__ = ("name", "body", "ann", "span")

    def __init__(self, name: str, body: Type, ann: Optional[Classifier] = None, span: Optional[Span] = None):
        self.name = name
        self.body = body
        self.ann = ann
        self.span = span


class TAppT(Type):
    """Application of a type to a type (written ``T · T'``)."""

    __slots__ = ("fn", "arg", "span")

    def __init__(self, fn: Type, arg: Type, span: Optional[Span] = None):
        self.fn = fn
        self.arg = arg
        self.span = span


class TAppE(Type):
    """Application of a type to a term (juxtaposition)."""

    __slots__ = ("fn", "arg", "span")

    def __init__(self, fn: Type, arg: Term, span: Optional[Span] = None):
        self.fn = fn
        self.arg = arg
        self.span = span


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------


class Star(Kind):
    __slots__ = ("span",)

    def __init__(self, span: Optional[Span] = None):
        self.span = span


class KPi(Kind):
    """Kind depending on a term: ``Π x : T. κ`` (sugar ``T ➔ κ``)."""

    __slots__ = ("name", "dom", "cod", "span")

    def __init__(self, name: str, dom: Type, cod: Kind, span: Optional[Span] = None):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.span = span


class KPiK(Kind):
    """Kind depending on a type: ``Π X : κ. κ'`` (sugar ``κ ➔ κ'``)."""

    __slots__ = ("name", "dom", "cod", "span")

    def __init__(self, name: str, dom: Kind, cod: Kind, span: Optional[Span] = None):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.span = span


# ---------------------------------------------------------------------------
# Scope entries
# ---------------------------------------------------------------------------


class Bind(Node):
    """A binder in scope: a term variable when ``classifier`` is a Type,
    a type variable when it is a Kind."""

    __slots__ = ("name", "classifier")

    def __init__(self, name: str, classifier: Classifier):
        self.name = name
        self.classifier = classifier


class Defn(Node):
    """Top-level definition; ``body`` is None for parameters (classifier
    assumed, nothing to unfold)."""

    __slots__ = ("name", "classifier", "body")

    def __init__(self, name: str, classifier: Classifier, body: Optional[Union[Term, Type]]):
        self.name = name
        self.classifier = classifier
        self.body = body


# ---------------------------------------------------------------------------
# Traversals of all syntax
# ---------------------------------------------------------------------------


# The layout of all syntax, read by ``free_names``, ``alpha_eq`` and
# ``subst_syntax``, and by the checker's type and kind conversion and ρ's
# type rewrite: for each node class, its child fields in the order they
# are walked, each with the field holding the binder name that scopes it,
# or None.  A child that may be None (an annotation, a ρ guide's
# template) is skipped when it is.
# The other fields are ``span`` and the data the traversals read
# themselves: the name of a ``PVar``, ``Var`` or ``TVar`` leaf and the
# index of a ``Proj``.  Pure terms are the ``PVar``/``PLam``/``PApp``
# rows.  Every row is a pure term, Term, Type or Kind class: a node's sort
# is its class (an erased argument the parser cannot sort is its term
# skeleton, see ``EApp``).
_APPS = (PApp, App, EApp, TAppT, TAppE)  # application nodes: ``subst_syntax`` loops down their spines
LAYOUT: dict[type, tuple[tuple[str, Optional[str]], ...]] = {
    **dict.fromkeys((PVar, Var, TVar, Beta, Star), ()),
    PLam: (("body", "name"),),
    **dict.fromkeys((Lam, ELam, TLam), (("ann", None), ("body", "name"))),
    **dict.fromkeys(_APPS, (("fn", None), ("arg", None))),
    **dict.fromkeys((Pi, All, AllK, KPi, KPiK), (("dom", None), ("cod", "name"))),
    Iota: (("fst", None), ("snd", "name")),
    IotaPair: (("fst", None), ("snd", None)),
    Eq: (("lhs", None), ("rhs", None)),
    Rho: (("template", "hole"), ("proof", None), ("body", None)),
    Phi: (("proof", None), ("main", None), ("target", None)),
    Sym: (("proof", None),),
    Proj: (("subj", None),),
}


def free_names(x: Union[PureTerm, Term, Type, Kind]) -> frozenset[str]:
    """Free names (term and type alike) of any syntax value, pure or
    annotated, in one iterative walk that counts the binders of each name
    in scope."""
    out: set[str] = set()
    bound: dict[str, int] = {}
    # values to visit, a (binder name, scope) pair to visit with the
    # name bound, or a binder's name to leave its scope
    stack: list = [x]
    while stack:
        cur = stack.pop()
        cls = type(cur)
        if cls is PVar or cls is Var or cls is TVar:
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
                if binder is None:
                    stack.append(sub)
                else:
                    stack.append((getattr(cur, binder), sub))
    return frozenset(out)


def subst_syntax(x, env: dict[str, Union[PureTerm, Term, Type]]):
    """Capture-avoiding simultaneous substitution over any syntax, pure
    or annotated.

    ``env`` maps names to replacements of the target's sort: pure terms
    into a pure term, Terms or Types into annotated syntax.  A variable
    replacement is a renaming and keeps the occurrence's sort.  An erased
    argument that is a term skeleton (see ``EApp``) and that a type other
    than a variable hits is promoted to a type first: that is how a type
    argument the parser could not sort is instantiated.  Any other
    replacement of the wrong sort (a Type hitting a Var, a Term hitting a
    TVar, pure and annotated syntax mixed) indicates an error upstream
    and raises.  Entries ``x ↦ x`` are dropped first, and so is one for
    ``_``, which binds (an arrow's binder is ``_``) but is never referred
    to.  The checker instantiates a whole telescope in one call
    (``typecheck``), and unfolds the globals an erasure names in one
    (``Checker.pure_of``).

    Sharing: every subtree the substitution leaves unchanged comes back
    as the same object, ``x`` itself included, so a substitution rebuilds
    only the paths down to the occurrences it replaces.  This is safe
    because no code assigns to a node it did not build (module
    docstring).  A binder whose name is free in a replacement is
    renamed, with a globally fresh name, only when a name still due
    under it occurs free in its body; the replacements' free names are
    computed when the walk first reaches a binder.  The walk itself
    tells: it substitutes into the body with the binder renamed, and
    keeps both as they were when it replaced nothing there but the
    binder's own occurrences, so nested capturing binders cost one walk
    in all.  An application spine is walked by a loop, so its length
    costs no recursion; the walk recurses once per binder scope and per
    argument.
    """
    if not env:
        return x
    top = {k: v for k, v in env.items() if k != "_" and not (type(v) in (PVar, Var, TVar) and v.name == k)}
    if not top:
        return x
    fvs: Optional[set[str]] = None
    types: Optional[set[str]] = None  # the names replaced by a type that is no variable
    hits = 0  # occurrences replaced, less those of binders renamed and left
    own: dict[str, int] = {}  # occurrences replaced per binder being renamed, by fresh name

    def under(name: str, body, env):
        # the binder's name and body after substituting ``env`` under it
        nonlocal fvs, hits
        if name in env:
            env = {k: v for k, v in env.items() if k != name}
            if not env:
                return name, body
        if fvs is None:
            fvs = set()
            for v in top.values():
                fvs |= free_names(v)
        if name not in fvs:
            return name, go(body, env)
        fresh = fresh_name(name)
        own[fresh] = 0
        before = hits
        body2 = go(body, {**env, name: Var(fresh)})
        hits -= own.pop(fresh)
        return (name, body) if hits == before else (fresh, body2)

    def promotes(arg, env) -> bool:
        # whether a replacement that is a type but no variable hits ``arg``
        nonlocal types
        if types is None:
            types = {k for k, v in top.items() if isinstance(v, Type) and type(v) is not TVar}
        return bool(types) and any(isinstance(env.get(k), Type) for k in types.intersection(free_names(arg)))

    def go(cur, env):
        nonlocal hits
        cls = type(cur)
        if cls is Var or cls is TVar or cls is PVar:
            rep = env.get(cur.name)
            if rep is None:
                return cur
            hits += 1
            kind = type(rep)
            if kind is Var and rep.name in own:
                own[rep.name] += 1
            if kind is Var or kind is TVar or kind is PVar:
                # a renaming keeps the occurrence's sort (an erased
                # argument's name may be read at either) and its source span
                return PVar(rep.name) if cls is PVar else cls(rep.name, cur.span)
            want = Term if cls is Var else Type if cls is TVar else PureTerm
            if not isinstance(rep, want):
                raise TypeError(f"{type(rep).__name__} used at {want.__name__} position: {cur.name}")
            return rep
        if cls in _APPS:
            # down the spine by a loop, then back up rebuilding what changed
            apps = []
            while cls in _APPS:
                apps.append(cur)
                cur = cur.fn
                cls = type(cur)
            out = go(cur, env)
            for app in reversed(apps):
                arg = app.arg
                kind = type(arg)
                if not ((kind is Var or kind is TVar or kind is PVar) and arg.name not in env):
                    if type(app) is EApp and (kind is Var or kind is App or kind is Lam) and promotes(arg, env):
                        arg = promote_skeleton(arg)
                    arg = go(arg, env)  # an untouched leaf costs no call
                if out is not app.fn or arg is not app.arg:
                    app = PApp(out, arg) if type(app) is PApp else type(app)(out, arg, app.span)
                out = app
            return out
        new = {}  # the fields that change, by name
        for child, binder in LAYOUT[cls]:
            sub = getattr(cur, child)
            if sub is None:
                continue
            if binder is None:
                kind = type(sub)
                if (kind is Var or kind is TVar or kind is PVar) and sub.name not in env:
                    continue  # an untouched leaf costs no call
                sub2 = go(sub, env)
                if sub2 is not sub:
                    new[child] = sub2
                continue
            name = getattr(cur, binder)
            name2, sub2 = under(name, sub, env)
            if name2 is not name or sub2 is not sub:
                new[binder], new[child] = name2, sub2
        if not new:
            return cur
        return cls(*[new[f] if f in new else getattr(cur, f) for f in cls.__slots__])

    return go(x, top)


def subst1(x, name: str, value: Union[PureTerm, Term, Type]):
    """Single-variable substitution over any syntax."""
    return subst_syntax(x, {name: value})


def alpha_eq(a, b) -> bool:
    """True iff ``a`` and ``b``, syntax values of any sort, are identical
    up to renaming of bound names.  An equivalence relation on
    well-scoped values.

    Values of two classes differ, so an erased term skeleton is not
    equal to the type it promotes to (a node's sort is its class).
    Non-dependent products with distinct unused binder names are equal
    (this is what makes the arrow resugaring of the printer round-trip).
    One iterative walk over both values at once, so any depth is fine
    and the first mismatch ends it.  Each side maps a bound name to the
    level of its innermost binder; two variables match when both are
    bound at the same level or both are free with the same name.
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
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is PVar or cls is Var or cls is TVar:
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
