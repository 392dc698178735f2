"""Deterministic pretty-printer for all syntax sorts.

The printer mirrors the parser's grammar (``surface.Parser``) with two
rule sets: one prints terms, pure or annotated (``term``, ``term_app``,
``term_atom``), and one prints classifiers, types or kinds
(``classifier``, ``arrow_lhs``, ``class_spine``, ``class_atom``).  One
product rule serves Π, ∀ and kind Π: an unused binder resugars to ➔, or
➾ for a ∀ over a term; a ∀ over a type never does.  Output re-parses to
an alpha-equal value (round-trip is property-tested over the corpus).
An ``ascii_only`` rendering replaces every Unicode token by its ASCII
alias so the two renditions of one AST can be compared for lexer-alias
invariance.

The rules read an application spine by a loop, as the parser does, and
recurse once per nesting level: three frames (``term_atom``, ``term``,
``term_app``) per application level of a pure term.  The
benchmark pins that depth from both sides, and
``test_printing_depth_is_pinned`` guards it: at the recursion limit that
importing ``cdle`` sets, the normal form of ``mul 40 40`` (1,600 levels)
prints and that of ``exp 3 7`` (2,187 levels) raises RecursionError.
"""

from __future__ import annotations

from .syntax import (
    All,
    AllK,
    App,
    Beta,
    EApp,
    ELam,
    Eq,
    Iota,
    IotaPair,
    Kind,
    KPi,
    KPiK,
    Lam,
    PApp,
    Phi,
    Pi,
    PLam,
    Proj,
    PureTerm,
    PVar,
    Rho,
    Star,
    Sym,
    TAppE,
    TAppT,
    TLam,
    TVar,
    Term,
    Type,
    Var,
    free_names,
)
from .surface import SPELLINGS

# the token spellings by kind, Unicode and ASCII (``surface.SPELLINGS``)
_SYMBOLS = tuple({kind: pair[i] for kind, pair in SPELLINGS.items()} for i in (0, 1))
_PRODUCTS = (Pi, All, AllK, KPi, KPiK)
_ATOMS = (Var, Beta, IotaPair, Proj)  # the terms a proof's spine shows bare
_SPINES = (TVar, TAppT, TAppE, Star)  # the classifiers an arrow's domain shows bare


class _Printer:
    def __init__(self, ascii_only: bool = False):
        self.sym = _SYMBOLS[ascii_only]

    # -- terms, pure or annotated (pure classes are tested first) --------------

    def term(self, t) -> str:
        s = self.sym
        cls = type(t)
        if cls is PApp:
            return self.term_app(t)
        if cls is PVar:
            return t.name
        if cls is PLam or cls is Lam or cls is ELam:
            a = None if cls is PLam else t.ann
            dom = f" : {self.classifier(a)}" if a is not None else ""
            return f"{s['ELAM' if cls is ELam else 'LAM']} {t.name}{dom}. {self.term(t.body)}"
        match t:
            case Rho(proof=q, body=b, hole=h, template=g):
                guide = f" {{ {h} . {self.classifier(g)} }}" if g is not None else ""
                return f"{s['RHO']} {self.proof(q)}{guide} - {self.term(b)}"
            case Phi(proof=q, main=m, target=tg):
                return f"{s['PHI']} {self.proof(q)} - {self.term_app(m)} {{ {self.term(tg)} }}"
            case Sym(proof=q):
                return f"{s['SIGMA']} {self.proof(q)}"
        return self.term_app(t)

    def proof(self, t: Term) -> str:
        """Proofs of ρ/φ/ς: spines of atoms, parenthesized otherwise."""
        head = t
        while isinstance(head, App) and isinstance(head.arg, _ATOMS):
            head = head.fn
        return self.term_app(t) if isinstance(head, _ATOMS) else f"({self.term(t)})"

    def term_app(self, t) -> str:
        cls = type(t)
        if cls is not PApp and cls is not App and cls is not EApp:
            return self.term_atom(t)
        words = []  # the arguments, last first, then the head
        while cls is PApp or cls is App or cls is EApp:
            words.append("-" + self.erased_arg(t.arg) if cls is EApp else self.term_atom(t.arg))
            t = t.fn
            cls = type(t)
        words.append(self.term_atom(t))
        words.reverse()
        return " ".join(words)

    def erased_arg(self, a) -> str:
        if isinstance(a, (Var, TVar)):
            return a.name
        if isinstance(a, Proj):
            return self.term_atom(a)
        return f"({self.term(a) if isinstance(a, Term) else self.classifier(a)})"

    def term_atom(self, t) -> str:
        cls = type(t)
        if cls is PVar or cls is Var:
            return t.name
        match t:
            case Beta():
                return self.sym["BETA"]
            case IotaPair(fst=a, snd=b):
                return f"[ {self.term(a)} , {self.term(b)} ]"
            case Proj(subj=x, idx=i):
                return f"{self.term_atom(x)}.{i}"
        return f"({self.term(t)})"

    # -- classifiers: types and kinds --------------------------------------------

    def classifier(self, c) -> str:
        s = self.sym
        cls = type(c)
        if cls in _PRODUCTS:
            n, d, cod = c.name, c.dom, c.cod
            if cls is not AllK and (n == "_" or n not in free_names(cod)):
                return f"{self.arrow_lhs(d)} {s['EARROW' if cls is All else 'ARROW']} {self.classifier(cod)}"
            q = s["ALL" if cls is All or cls is AllK else "PI"]
            return f"{q} {n} : {self.classifier(d)}. {self.classifier(cod)}"
        match c:
            case Iota(name=n, fst=a, snd=b):
                return f"{s['IOTA']} {n} : {self.classifier(a)}. {self.classifier(b)}"
            case TLam(name=n, body=b, ann=a):
                dom = f" : {self.classifier(a)}" if a is not None else ""
                return f"{s['LAM']} {n}{dom}. {self.classifier(b)}"
            case Eq(lhs=a, rhs=b):
                return f"{self.eq_side(a)} {s['SIMEQ']} {self.eq_side(b)}"
        return self.class_spine(c)

    def eq_side(self, t: Term) -> str:
        # only a variable-headed application spine re-parses bare on the
        # left of ≃ (the type grammar has no erased application or
        # head projections); everything else gets parenthesized
        head = t
        while isinstance(head, App):
            head = head.fn
        if isinstance(head, Var):
            return self.term_app(t)
        return f"({self.term(t)})"

    def arrow_lhs(self, c) -> str:
        if isinstance(c, _SPINES):
            return self.class_spine(c)
        return f"({self.classifier(c)})"

    def class_spine(self, c) -> str:
        words = []  # the arguments, last first, then the head
        while (cls := type(c)) is TAppT or cls is TAppE:
            words.append(f"{self.sym['CDOT']} {self.class_atom(c.arg)}" if cls is TAppT else self.term_atom(c.arg))
            c = c.fn
        words.append(self.class_atom(c))
        words.reverse()
        return " ".join(words)

    def class_atom(self, c) -> str:
        if isinstance(c, TVar):
            return c.name
        if isinstance(c, Star):
            return self.sym["STAR"]
        return f"({self.classifier(c)})"


def pretty(x, ascii_only: bool = False) -> str:
    """Pretty-print any syntax value: a term, pure or annotated, or a
    classifier, type or kind."""
    if isinstance(x, (PureTerm, Term)):
        return _Printer(ascii_only).term(x)
    if isinstance(x, (Type, Kind)):
        return _Printer(ascii_only).classifier(x)
    raise TypeError(f"cannot pretty-print {type(x).__name__}")
