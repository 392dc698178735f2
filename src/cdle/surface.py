"""Lexer and parser for the concrete syntax.

Every Unicode primary token has exactly one ASCII alias and lexing is
alias-insensitive:

    ★ Star   Π Pi    ∀ All    λ \\    Λ /\\   ι iota   ➔ ->   ➾ =>
    ≃ ==     ◂ <|    ρ rho    φ phi   β beta  ς sigma-sym      · @

A module is a sequence of ``import name.`` declarations followed by
definitions ``name ◂ classifier = body .`` (parameters omit ``= body``).
Bodies are parsed as terms or types according to the sort of the
classifier.  Application binds tighter than ➔/➾; erased application
``-`` binds like application; ``·`` marks explicit type arguments while
juxtaposed arguments of a type are terms.  Comments run ``//`` to end
of line.

Grammar corner: an erased argument that is a bare name (or a plain
application skeleton) is stored as a :class:`~cdle.syntax.DeferredArg`
and resolved to a term or type argument by the checker, which knows the
sort expected by the implicit product being instantiated.

Parsing distinct files may proceed concurrently; a parsed module is
immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .syntax import (
    All,
    AllK,
    App,
    Beta,
    DeferredArg,
    EApp,
    ELam,
    Eq,
    Iota,
    IotaPair,
    Kind,
    KPi,
    KPiK,
    Lam,
    Phi,
    Pi,
    Proj,
    Rho,
    Span,
    Star,
    Sym,
    TAppE,
    TAppT,
    TLam,
    TVar,
    Term,
    Type,
    Var,
)


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: Optional[set[str]] = None):
        loc = f"{span.file}:{span.line}:{span.col}"
        if expected:
            message = f"{message} (expected one of: {', '.join(sorted(expected))})"
        super().__init__(f"{loc}: {message}")
        self.span = span
        self.expected = expected or set()


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    span: Span


_TOKEN_SPEC = [
    ("COMMENT", r"//[^\n]*"),
    ("WS", r"[ \t\r\n]+"),
    ("PROJ1", r"\.1"),
    ("PROJ2", r"\.2"),
    ("ARROW", r"➔|->"),
    ("EARROW", r"➾|=>"),
    ("SIMEQ", r"≃|=="),
    ("ASCRIBE", r"◂|<\|"),
    ("ELAM", r"Λ|/\\"),
    ("LAM", r"λ|\\"),
    ("CDOT", r"·|@"),
    ("SIGMA", r"ς|sigma-sym"),
    ("STAR", r"★"),
    ("PI", r"Π"),
    ("ALL", r"∀"),
    ("IOTA", r"ι"),
    ("RHO", r"ρ"),
    ("PHI", r"φ"),
    ("BETA", r"β"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_'!]*"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACK", r"\["),
    ("RBRACK", r"\]"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("DOT", r"\."),
    ("COMMA", r","),
    ("COLON", r":"),
    ("EQUALS", r"="),
    ("DASH", r"-"),
]

_KEYWORDS = {
    "Star": "STAR",
    "Pi": "PI",
    "All": "ALL",
    "iota": "IOTA",
    "rho": "RHO",
    "phi": "PHI",
    "beta": "BETA",
    "import": "IMPORT",
}

_MASTER_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_SPEC))


def lex(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        m = _MASTER_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", Span(filename, line, col))
        kind = m.lastgroup
        lexeme = m.group()
        span = Span(filename, line, col)
        if kind == "IDENT" and lexeme in _KEYWORDS:
            kind = _KEYWORDS[lexeme]
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, lexeme, span))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("EOF", "", Span(filename, line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


@dataclass
class RawDef:
    name: str
    classifier: Union[Type, Kind]
    body: Optional[Union[Term, Type]]  # None for parameters
    span: Span


@dataclass
class SourceModule:
    path: str
    imports: list[str] = field(default_factory=list)
    defs: list[RawDef] = field(default_factory=list)


_TERM_ATOM_START = {"IDENT", "LPAREN", "LBRACK", "BETA"}
_TERM_START = _TERM_ATOM_START | {"LAM", "ELAM", "RHO", "PHI", "SIGMA"}


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def eat(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"unexpected {t.kind} {t.lexeme!r}" + (f" while parsing {what}" if what else ""),
                t.span,
                expected={kind},
            )
        return self.next()

    # -- module --------------------------------------------------------------

    def parse_module(self, path: str) -> SourceModule:
        mod = SourceModule(path=path)
        while self.at("IMPORT"):
            self.next()
            name = self.expect("IDENT", "import").lexeme
            self.expect("DOT", "import")
            mod.imports.append(name)
        seen: set[str] = set()
        while not self.at("EOF"):
            d = self.parse_definition()
            if d.name in seen:
                raise ParseError(f"duplicate definition {d.name!r}", d.span)
            seen.add(d.name)
            mod.defs.append(d)
        return mod

    def parse_definition(self) -> RawDef:
        name_tok = self.expect("IDENT", "definition")
        self.expect("ASCRIBE", "definition")
        sort, classifier = self.parse_classifier()
        body: Optional[Union[Term, Type]] = None
        if self.eat("EQUALS"):
            if sort == "kind":
                body = self.parse_type()
            else:
                body = self.parse_term()
        self.expect("DOT", f"end of definition {name_tok.lexeme}")
        return RawDef(name_tok.lexeme, classifier, body, name_tok.span)

    # -- classifiers (types or kinds, one grammar) ----------------------------

    def parse_classifier(self) -> tuple[str, Union[Type, Kind]]:
        """Parse a type-or-kind; returns ('type', T) or ('kind', K)."""
        return self._class_arrow()

    def parse_type(self) -> Type:
        sort, node = self._class_arrow()
        if sort != "type":
            raise ParseError("expected a type, found a kind", self._span_of(node))
        return node

    def _span_of(self, node) -> Span:
        return getattr(node, "span", None) or self.peek().span

    def _class_arrow(self) -> tuple[str, Union[Type, Kind]]:
        sort, lhs = self._class_binder()
        tok = self.peek()
        if tok.kind == "ARROW":
            self.next()
            rsort, rhs = self._class_arrow()
            if rsort == "kind":
                if sort == "kind":
                    return "kind", KPiK("_", lhs, rhs, span=tok.span)
                return "kind", KPi("_", lhs, rhs, span=tok.span)
            if sort != "type":
                raise ParseError("a kind cannot be the domain of a type arrow", tok.span)
            return "type", Pi("_", lhs, rhs, span=tok.span)
        if tok.kind == "EARROW":
            self.next()
            rsort, rhs = self._class_arrow()
            if rsort != "type" or sort != "type":
                raise ParseError("➾ connects types", tok.span)
            return "type", All("_", lhs, rhs, span=tok.span)
        return sort, lhs

    def _class_binder(self) -> tuple[str, Union[Type, Kind]]:
        tok = self.peek()
        if tok.kind == "PI":
            self.next()
            binders, (dsort, dom) = self._binder_group()
            self.expect("DOT", "Π binder")
            bsort, body = self._class_arrow()
            for name in reversed(binders):
                if bsort == "kind":
                    body = KPiK(name, dom, body, span=tok.span) if dsort == "kind" else KPi(
                        name, dom, body, span=tok.span
                    )
                else:
                    if dsort == "kind":
                        raise ParseError("Π over a kind must end in a kind (use ∀ for types)", tok.span)
                    body = Pi(name, dom, body, span=tok.span)
            return bsort, body
        if tok.kind == "ALL":
            self.next()
            binders, (dsort, dom) = self._binder_group()
            self.expect("DOT", "∀ binder")
            bsort, body = self._class_arrow()
            if bsort != "type":
                raise ParseError("∀ body must be a type", tok.span)
            for name in reversed(binders):
                body = (
                    AllK(name, dom, body, span=tok.span)
                    if dsort == "kind"
                    else All(name, dom, body, span=tok.span)
                )
            return "type", body
        if tok.kind == "IOTA":
            self.next()
            name = self.expect("IDENT", "ι binder").lexeme
            self.expect("COLON", "ι binder")
            fst = self.parse_type()
            self.expect("DOT", "ι binder")
            snd = self.parse_type()
            return "type", Iota(name, fst, snd, span=tok.span)
        if tok.kind == "LAM":
            self.next()
            binders, domspec = self._lam_binder_group()
            self.expect("DOT", "type-level λ")
            body = self.parse_type()
            ann = domspec[1] if domspec else None
            for name in reversed(binders):
                body = TLam(name, body, ann, span=tok.span)
            return "type", body
        return self._class_eq()

    def _binder_group(self) -> tuple[list[str], tuple[str, Union[Type, Kind]]]:
        names = [self.expect("IDENT", "binder").lexeme]
        while self.eat("COMMA"):
            names.append(self.expect("IDENT", "binder").lexeme)
        self.expect("COLON", "binder")
        dom = self.parse_classifier()
        return names, dom

    def _lam_binder_group(self):
        names = [self.expect("IDENT", "binder").lexeme]
        while self.eat("COMMA"):
            names.append(self.expect("IDENT", "binder").lexeme)
        domspec = None
        if self.eat("COLON"):
            domspec = self.parse_classifier()
        return names, domspec

    def _class_eq(self) -> tuple[str, Union[Type, Kind]]:
        sort, lhs = self._class_spine()
        if self.at("SIMEQ"):
            tok = self.next()
            lhs_term = self._as_term(lhs, tok.span)
            rhs = self.parse_term()
            return "type", Eq(lhs_term, rhs, span=tok.span)
        if sort == "term":
            # a bare name / application skeleton in type position
            return "type", self._as_type(lhs, self._span_of(lhs))
        return sort, lhs

    def _class_spine(self) -> tuple[str, Union[Type, Kind, Term]]:
        tok = self.peek()
        if tok.kind == "STAR":
            self.next()
            return "kind", Star(span=tok.span)
        sort, head = self._class_atom()
        while True:
            nxt = self.peek()
            if nxt.kind == "CDOT":
                self.next()
                asort, arg = self._class_atom()
                head = TAppT(self._as_type(head, nxt.span), self._as_type(arg, nxt.span), span=nxt.span)
                sort = "type"
            elif nxt.kind in ("IDENT", "LPAREN", "LBRACK", "BETA"):
                arg = self.parse_term_atom()
                if sort == "term":
                    head = App(head, arg, span=nxt.span)
                else:
                    head = TAppE(self._as_type(head, nxt.span), arg, span=nxt.span)
            else:
                return sort, head

    def _class_atom(self) -> tuple[str, Union[Type, Kind, Term]]:
        tok = self.peek()
        if tok.kind == "STAR":
            self.next()
            return "kind", Star(span=tok.span)
        if tok.kind == "IDENT":
            self.next()
            return "type", TVar(tok.lexeme, span=tok.span)
        if tok.kind in ("PI", "ALL", "IOTA", "LAM"):
            return self._class_binder()
        if tok.kind == "LPAREN":
            # try a classifier first, then a term
            save = self.i
            try:
                self.next()
                sort, inner = self._class_arrow()
                self.expect("RPAREN")
                return sort, inner
            except ParseError:
                self.i = save
            self.next()
            inner_t = self.parse_term()
            self.expect("RPAREN", "parenthesized term")
            return "term", self._postfix_proj(inner_t)
        raise ParseError(f"unexpected {tok.kind} {tok.lexeme!r} in type", tok.span)

    # -- sort coercions ------------------------------------------------------

    def _as_type(self, node, span: Span) -> Type:
        if isinstance(node, Type):
            return node
        if isinstance(node, Kind):
            raise ParseError("expected a type, found a kind", span)
        return promote_term_to_type(node, span)

    def _as_term(self, node, span: Span) -> Term:
        if isinstance(node, Term):
            return node
        if isinstance(node, Kind):
            raise ParseError("expected a term, found a kind", span)
        return demote_type_to_term(node, span)

    # -- terms ----------------------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "LAM":
            self.next()
            binders, domspec = self._lam_binder_group()
            self.expect("DOT", "λ binder")
            body = self.parse_term()
            ann = None
            if domspec is not None:
                if domspec[0] != "type":
                    raise ParseError("explicit λ binder annotation must be a type", tok.span)
                ann = domspec[1]
            for name in reversed(binders):
                body = Lam(name, body, ann, span=tok.span)
            return body
        if tok.kind == "ELAM":
            self.next()
            binders, domspec = self._lam_binder_group()
            self.expect("DOT", "Λ binder")
            body = self.parse_term()
            ann = domspec[1] if domspec else None
            for name in reversed(binders):
                body = ELam(name, body, ann, span=tok.span)
            return body
        if tok.kind == "RHO":
            self.next()
            proof = self.parse_proof_spine()
            guide = None
            if self.eat("LBRACE"):
                hole = self.expect("IDENT", "ρ guide").lexeme
                self.expect("DOT", "ρ guide")
                template = self.parse_type()
                self.expect("RBRACE", "ρ guide")
                guide = (hole, template)
            self.expect("DASH", "ρ")
            body = self.parse_term()
            return Rho(proof, body, guide, span=tok.span)
        if tok.kind == "PHI":
            self.next()
            proof = self.parse_proof_spine()
            self.expect("DASH", "φ")
            main = self.parse_term_app()
            self.expect("LBRACE", "φ")
            target = self.parse_term()
            self.expect("RBRACE", "φ")
            return Phi(proof, main, target, span=tok.span)
        if tok.kind == "SIGMA":
            self.next()
            proof = self.parse_proof_spine()
            return Sym(proof, span=tok.span)
        return self.parse_term_app()

    def parse_proof_spine(self) -> Term:
        """Proof argument of ρ/φ/ς: a spine of atoms, so that the
        following ``-`` separator is unambiguous.  Parenthesize proofs
        that use erased application."""
        head = self.parse_term_atom()
        while self.peek().kind in _TERM_ATOM_START:
            arg = self.parse_term_atom()
            head = App(head, arg, span=self._span_of(arg))
        return head

    def parse_term_app(self) -> Term:
        head = self.parse_term_atom()
        while True:
            nxt = self.peek()
            if nxt.kind in _TERM_ATOM_START:
                arg = self.parse_term_atom()
                head = App(head, arg, span=nxt.span)
            elif nxt.kind == "DASH":
                self.next()
                arg = self.parse_erased_arg()
                head = EApp(head, arg, span=nxt.span)
            else:
                return head

    def parse_term_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            return self._postfix_proj(Var(tok.lexeme, span=tok.span))
        if tok.kind == "BETA":
            self.next()
            return self._postfix_proj(Beta(span=tok.span))
        if tok.kind == "LBRACK":
            self.next()
            fst = self.parse_term()
            self.expect("COMMA", "intersection pair")
            snd = self.parse_term()
            self.expect("RBRACK", "intersection pair")
            return self._postfix_proj(IotaPair(fst, snd, span=tok.span))
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_term()
            self.expect("RPAREN", "parenthesized term")
            return self._postfix_proj(inner)
        raise ParseError(f"unexpected {tok.kind} {tok.lexeme!r} in term", tok.span)

    def _postfix_proj(self, t: Term) -> Term:
        while True:
            if self.at("PROJ1"):
                sp = self.next().span
                t = Proj(t, 1, span=sp)
            elif self.at("PROJ2"):
                sp = self.next().span
                t = Proj(t, 2, span=sp)
            else:
                return t

    def parse_erased_arg(self) -> Union[Term, Type, DeferredArg]:
        tok = self.peek()
        if tok.kind == "BETA":
            self.next()
            return Beta(span=tok.span)
        if tok.kind == "IDENT":
            self.next()
            base: Term = Var(tok.lexeme, span=tok.span)
            if self.at("PROJ1") or self.at("PROJ2"):
                return self._postfix_proj(base)
            return DeferredArg(base, span=tok.span)
        if tok.kind == "LPAREN":
            save = self.i
            # term attempt first: erased term arguments are more common in
            # parenthesized position; sort-ambiguous shapes stay deferred
            try:
                self.next()
                inner = self.parse_term()
                self.expect("RPAREN")
                if _is_promotable(inner):
                    return DeferredArg(inner, span=tok.span)
                return inner
            except ParseError:
                self.i = save
            self.next()
            ty = self.parse_type()
            self.expect("RPAREN", "erased type argument")
            return ty
        raise ParseError(f"unexpected {tok.kind} {tok.lexeme!r} after '-'", tok.span)


def _is_var_app_skeleton(t: Term) -> bool:
    while isinstance(t, App):
        t = t.fn
    return isinstance(t, Var)


def _is_promotable(t: Term) -> bool:
    """Shapes readable as either a term or a type: variables, application
    spines over them, and lambdas over such bodies."""
    while isinstance(t, Lam):
        t = t.body
    return _is_var_app_skeleton(t)


def promote_term_to_type(t: Term, span: Span) -> Type:
    """Reinterpret a sort-ambiguous surface shape as a type (juxtaposed
    application arguments stay terms; λ becomes a type-level λ)."""
    if isinstance(t, Var):
        return TVar(t.name, span=t.span or span)
    if isinstance(t, App):
        return TAppE(promote_term_to_type(t.fn, span), t.arg, span=t.span or span)
    if isinstance(t, Lam):
        return TLam(t.name, promote_term_to_type(t.body, span), t.ann, span=t.span or span)
    raise ParseError("this expression is not usable as a type", span)


def demote_type_to_term(ty: Type, span: Span) -> Term:
    """Reinterpret a type var/application/λ skeleton as a term."""
    if isinstance(ty, TVar):
        return Var(ty.name, span=ty.span or span)
    if isinstance(ty, TAppE):
        return App(demote_type_to_term(ty.fn, span), ty.arg, span=ty.span or span)
    if isinstance(ty, TLam) and not isinstance(ty.ann, Kind):
        return Lam(ty.name, demote_type_to_term(ty.body, span), ty.ann, span=ty.span or span)
    raise ParseError("this type is not usable as a term", span)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_module(text: str, path: str = "<input>") -> SourceModule:
    parser = Parser(lex(text, path))
    return parser.parse_module(path)


def parse_term(text: str, path: str = "<input>") -> Term:
    parser = Parser(lex(text, path))
    t = parser.parse_term()
    parser.expect("EOF", "term")
    return t


def parse_type_expr(text: str, path: str = "<input>") -> Type:
    parser = Parser(lex(text, path))
    t = parser.parse_type()
    parser.expect("EOF", "type")
    return t


def parse_classifier(text: str, path: str = "<input>") -> Union[Type, Kind]:
    parser = Parser(lex(text, path))
    _, c = parser.parse_classifier()
    parser.expect("EOF", "classifier")
    return c
