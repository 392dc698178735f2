"""Deterministic pretty-printer for all syntax sorts.

Output re-parses to an alpha-equal value (round-trip is property-tested
over the corpus).  Non-dependent products resugar to ➔ / ➾.  An
``ascii_only`` rendering replaces every Unicode token by its ASCII alias
so the two renditions of one AST can be compared for lexer-alias
invariance.
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


class _Printer:
    def __init__(self, ascii_only: bool = False):
        self.sym = _SYMBOLS[ascii_only]

    # -- terms ---------------------------------------------------------------

    def term(self, t: Term) -> str:
        s = self.sym
        match t:
            case Lam(name=n, body=b, ann=a):
                dom = f" : {self.type(a)}" if a is not None else ""
                return f"{s['LAM']} {n}{dom}. {self.term(b)}"
            case ELam(name=n, body=b, ann=a):
                dom = f" : {self.classifier(a)}" if a is not None else ""
                return f"{s['ELAM']} {n}{dom}. {self.term(b)}"
            case Rho(proof=q, body=b, guide=g):
                guide = ""
                if g is not None:
                    guide = f" {{ {g[0]} . {self.type(g[1])} }}"
                return f"{s['RHO']} {self.proof(q)}{guide} - {self.term(b)}"
            case Phi(proof=q, main=m, target=tg):
                return f"{s['PHI']} {self.proof(q)} - {self.term_app(m)} {{ {self.term(tg)} }}"
            case Sym(proof=q):
                return f"{s['SIGMA']} {self.proof(q)}"
            case _:
                return self.term_app(t)

    def proof(self, t: Term) -> str:
        """Proofs of ρ/φ/ς: spines of atoms, parenthesized otherwise."""
        if self._is_atom_spine(t):
            parts = []
            cur = t
            while isinstance(cur, App):
                parts.append(self.term_atom(cur.arg))
                cur = cur.fn
            parts.append(self.term_atom(cur))
            return " ".join(reversed(parts))
        return f"({self.term(t)})"

    def _is_atom_spine(self, t: Term) -> bool:
        while isinstance(t, App):
            if not self._is_atomic(t.arg):
                return False
            t = t.fn
        return self._is_atomic(t)

    def term_app(self, t: Term) -> str:
        match t:
            case App(fn=f, arg=a):
                return f"{self.term_app(f)} {self.term_atom(a)}"
            case EApp(fn=f, arg=a):
                return f"{self.term_app(f)} -{self.erased_arg(a)}"
            case _:
                return self.term_atom(t)

    def erased_arg(self, a) -> str:
        if isinstance(a, (Var, TVar)):
            return a.name
        if isinstance(a, Proj):
            return self.term_atom(a)
        if isinstance(a, Term):
            return f"({self.term(a)})"
        return f"({self.type(a)})"

    def term_atom(self, t: Term) -> str:
        s = self.sym
        match t:
            case Var(name=n):
                return n
            case Beta():
                return s["BETA"]
            case IotaPair(fst=a, snd=b):
                return f"[ {self.term(a)} , {self.term(b)} ]"
            case Proj(subj=x, idx=i):
                return f"{self.term_atom(x)}.{i}"
            case _:
                return f"({self.term(t)})"

    def _is_atomic(self, t: Term) -> bool:
        return isinstance(t, (Var, Beta, IotaPair, Proj))

    # -- types ----------------------------------------------------------------

    def type(self, ty: Type) -> str:
        s = self.sym
        match ty:
            case Pi(name=n, dom=d, cod=c):
                if n == "_" or n not in free_names(c):
                    return f"{self.type_arrow_lhs(d)} {s['ARROW']} {self.type(c)}"
                return f"{s['PI']} {n} : {self.type(d)}. {self.type(c)}"
            case All(name=n, dom=d, cod=c):
                if n == "_" or n not in free_names(c):
                    return f"{self.type_arrow_lhs(d)} {s['EARROW']} {self.type(c)}"
                return f"{s['ALL']} {n} : {self.type(d)}. {self.type(c)}"
            case AllK(name=n, dom=d, cod=c):
                return f"{s['ALL']} {n} : {self.kind(d)}. {self.type(c)}"
            case Iota(name=n, fst=a, snd=b):
                return f"{s['IOTA']} {n} : {self.type(a)}. {self.type(b)}"
            case TLam(name=n, body=b, ann=a):
                dom = f" : {self.classifier(a)}" if a is not None else ""
                return f"{s['LAM']} {n}{dom}. {self.type(b)}"
            case Eq(lhs=a, rhs=b):
                return f"{self.eq_side(a)} {s['SIMEQ']} {self.eq_side(b)}"
            case _:
                return self.type_spine(ty)

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

    def type_arrow_lhs(self, ty: Type) -> str:
        if isinstance(ty, (Pi, All, AllK, Iota, TLam, Eq)):
            return f"({self.type(ty)})"
        return self.type_spine(ty)

    def type_spine(self, ty: Type) -> str:
        s = self.sym
        match ty:
            case TAppT(fn=f, arg=a):
                return f"{self.type_spine(f)} {s['CDOT']} {self.type_atom(a)}"
            case TAppE(fn=f, arg=a):
                return f"{self.type_spine(f)} {self.term_atom(a)}"
            case _:
                return self.type_atom(ty)

    def type_atom(self, ty: Type) -> str:
        if isinstance(ty, TVar):
            return ty.name
        return f"({self.type(ty)})"

    # -- kinds ----------------------------------------------------------------

    def kind(self, k: Kind) -> str:
        s = self.sym
        match k:
            case Star():
                return s["STAR"]
            case KPi(name=n, dom=d, cod=c):
                if n == "_" or n not in free_names(c):
                    return f"{self.type_arrow_lhs(d)} {s['ARROW']} {self.kind(c)}"
                return f"{s['PI']} {n} : {self.type(d)}. {self.kind(c)}"
            case KPiK(name=n, dom=d, cod=c):
                if n == "_" or n not in free_names(c):
                    return f"{self.kind_arrow_lhs(d)} {s['ARROW']} {self.kind(c)}"
                return f"{s['PI']} {n} : {self.kind(d)}. {self.kind(c)}"
        raise TypeError(f"not a kind: {k!r}")

    def kind_arrow_lhs(self, k: Kind) -> str:
        if isinstance(k, Star):
            return self.sym["STAR"]
        return f"({self.kind(k)})"

    def classifier(self, c) -> str:
        return self.kind(c) if isinstance(c, Kind) else self.type(c)

    # -- pure terms ------------------------------------------------------------

    def pure(self, t: PureTerm) -> str:
        s = self.sym
        match t:
            case PVar(name=n):
                return n
            case PLam(name=n, body=b):
                return f"{s['LAM']} {n}. {self.pure(b)}"
            case PApp():
                return self.pure_app(t)
        raise TypeError(f"not a pure term: {t!r}")

    def pure_app(self, t: PureTerm) -> str:
        if isinstance(t, PApp):
            return f"{self.pure_app(t.fn)} {self.pure_atom(t.arg)}"
        return self.pure_atom(t)

    def pure_atom(self, t: PureTerm) -> str:
        if isinstance(t, PVar):
            return t.name
        return f"({self.pure(t)})"


def pretty(x, ascii_only: bool = False) -> str:
    """Pretty-print any syntax value (pure/annotated term, type, kind)."""
    p = _Printer(ascii_only)
    if isinstance(x, PureTerm):
        return p.pure(x)
    if isinstance(x, Term):
        return p.term(x)
    if isinstance(x, Type):
        return p.type(x)
    if isinstance(x, Kind):
        return p.kind(x)
    raise TypeError(f"cannot pretty-print {type(x).__name__}")
