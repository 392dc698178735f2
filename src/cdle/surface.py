"""Lexer and parser for the concrete syntax.

Every Unicode primary token has exactly one ASCII alias, and lexing is
alias-insensitive; ``SPELLINGS`` lists the pairs, and the printer spells
tokens from it too:

    ★ Star   Π Pi    ∀ All    λ \\    Λ /\\   ι iota   ➔ ->   ➾ =>
    ≃ ==     ◂ <|    ρ rho    φ phi   β beta  ς sigma-sym      · @

The lexer reads each token with one match of one regular expression,
which also skips the blanks and the comments (``//`` to end of line)
before it; a dictionary of fixed lexemes and keywords gives its kind.

A module is a sequence of ``import name.`` declarations followed by
definitions ``name ◂ classifier = body .`` (parameters omit ``= body``).
Bodies are parsed as terms or types according to the sort of the
classifier.  Application binds tighter than ➔/➾; erased application
``-`` binds like application; ``·`` marks explicit type arguments while
juxtaposed arguments of a type are terms.  Binders and parentheses in a
term nest on an explicit stack, up to a fixed depth.

Grammar corner: an erased argument whose sort the tokens do not decide
(a name, or a parenthesized application or λ over names, such as ``-x``
or ``-(F x)``) is its term skeleton, a ``Var``, ``App`` or ``Lam``.  The
checker reads it at the sort the implicit product it instantiates asks
for, promoting it to a type where that is a type; every node the parser
builds has its sort in its class.

Parsing distinct files may proceed concurrently.  A parsed module is
immutable, and this is load-bearing: ``loader`` hands one
``SourceModule`` to successive loads of an unchanged file, so nothing
may store into a module, a ``RawDef`` or a syntax node, and the parser
draws no ``fresh_name``.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

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
    demote_skeleton,
    promote_skeleton,
)


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: Optional[set[str]] = None):
        loc = f"{span.file}:{span.line}:{span.col}"
        if expected:
            message = f"{message} (expected one of: {', '.join(sorted(expected))})"
        super().__init__(f"{loc}: {message}")
        self.span = span
        self.expected = expected or set()


class Token(NamedTuple):
    kind: str
    lexeme: str
    span: Span


# The spellings of the primary tokens, by kind: (Unicode, ASCII alias).
# The lexer's tables below and the printer's symbols are read off it.
SPELLINGS = {
    "STAR": ("★", "Star"),
    "PI": ("Π", "Pi"),
    "ALL": ("∀", "All"),
    "LAM": ("λ", "\\"),
    "ELAM": ("Λ", "/\\"),
    "IOTA": ("ι", "iota"),
    "ARROW": ("➔", "->"),
    "EARROW": ("➾", "=>"),
    "SIMEQ": ("≃", "=="),
    "ASCRIBE": ("◂", "<|"),
    "RHO": ("ρ", "rho"),
    "PHI": ("φ", "phi"),
    "BETA": ("β", "beta"),
    "SIGMA": ("ς", "sigma-sym"),
    "CDOT": ("·", "@"),
}

_IDENT = r"[A-Za-z_][A-Za-z0-9_'!]*"

# Identifiers that are tokens of their own: the aliases spelled as
# identifiers, and ``import``.
_KEYWORDS = {
    **{alias: kind for kind, (_, alias) in SPELLINGS.items() if re.fullmatch(_IDENT, alias)},
    "import": "IMPORT",
}

# Every token but an identifier, by lexeme.
_FIXED = {
    **{uni: kind for kind, (uni, _) in SPELLINGS.items()},
    **{alias: kind for kind, (_, alias) in SPELLINGS.items() if alias not in _KEYWORDS},
    ".1": "PROJ1", ".2": "PROJ2", ".": "DOT", ",": "COMMA", ":": "COLON", "=": "EQUALS", "-": "DASH",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK", "{": "LBRACE", "}": "RBRACE",
}

_KINDS = {**_FIXED, **_KEYWORDS}

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# One match per token: the blanks and comments before it, then the token
# itself in the only group.  A comment must end at a line end, so that
# backtracking cannot cut it short and lex its tail as tokens.  Of two
# fixed lexemes one of which extends the other (".1" and ".", "->" and
# "-", "sigma-sym" and an identifier) the longer is tried first.  The
# group is empty at the end of the input and holds a single character
# that starts no token.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|//[^\n]*(?![^\n]))*("
    + "|".join(re.escape(lx) for lx in sorted(_FIXED, key=len, reverse=True))
    + "|" + _IDENT + r"|\Z|.)"
)


def lex(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start, end = m.span(1)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                col = start - text.rfind("\n", pos, start)
            else:
                col += start - pos
        lexeme = m.group(1)
        kind = _KINDS.get(lexeme)
        if kind is None:
            if not lexeme:
                break
            if lexeme[0] not in _IDENT_START:
                raise ParseError(f"unexpected character {lexeme!r}", Span(filename, line, col))
            kind = "IDENT"
        tokens.append(Token(kind, lexeme, Span(filename, line, col)))
        col += end - start
        pos = end
    tokens.append(Token("EOF", "", Span(filename, line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


class RawDef(NamedTuple):
    name: str
    classifier: Union[Type, Kind]
    body: Optional[Union[Term, Type]]  # None for parameters
    span: Span


class SourceModule(NamedTuple):
    path: str
    imports: list[str]
    defs: list[RawDef]


_TERM_ATOM_START = {"IDENT", "LPAREN", "LBRACK", "BETA"}
_TERM_PREFIX = {"LAM", "ELAM", "RHO", "PHI", "SIGMA"}

# How deep a term may nest binders, ρ and parentheses (`exp 3 7`'s normal form: 2,188)
_MAX_DEPTH = 2_500


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def at(self, kind: str) -> bool:
        return self.toks[self.i].kind == kind

    def eat(self, kind: str) -> Optional[Token]:
        return self.next() if self.toks[self.i].kind == kind else None

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.toks[self.i]
        if t.kind != kind:
            raise ParseError(
                f"unexpected {t.kind} {t.lexeme!r}" + (f" while parsing {what}" if what else ""),
                t.span,
                expected={kind},
            )
        if kind != "EOF":
            self.i += 1
        return t

    # -- module --------------------------------------------------------------

    def parse_module(self, path: str) -> SourceModule:
        mod = SourceModule(path, [], [])
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

    def reference(self, tok: Token) -> str:
        """The name an identifier token uses (not binds): ``_`` only
        binds, so no arrow's ``_`` can capture it."""
        if tok.lexeme == "_":
            raise ParseError("'_' can only be a binder", tok.span)
        return tok.lexeme

    def parse_definition(self) -> RawDef:
        name_tok = self.expect("IDENT", "definition")
        self.reference(name_tok)
        self.expect("ASCRIBE", "definition")
        classifier = self.parse_classifier()
        body: Optional[Union[Term, Type]] = None
        if self.eat("EQUALS"):
            body = self.parse_type() if isinstance(classifier, Kind) else self.parse_term()
        self.expect("DOT", f"end of definition {name_tok.lexeme}")
        return RawDef(name_tok.lexeme, classifier, body, name_tok.span)

    # -- classifiers (types or kinds, one grammar) ----------------------------
    #
    # Each rule returns the node it parsed, whose class is its sort.
    # ``_class_spine`` and ``_class_atom`` may also return a term (a
    # parenthesized term, or an application spine over one), which
    # ``_class_eq`` takes as the left side of ≃ or promotes to a type.

    def parse_classifier(self) -> Union[Type, Kind]:
        lhs = self._class_binder()
        tok = self.peek()
        if tok.kind == "ARROW":
            self.next()
            rhs = self.parse_classifier()
            if isinstance(rhs, Kind):
                return (KPiK if isinstance(lhs, Kind) else KPi)("_", lhs, rhs, span=tok.span)
            if isinstance(lhs, Kind):
                raise ParseError("a kind cannot be the domain of a type arrow", tok.span)
            return Pi("_", lhs, rhs, span=tok.span)
        if tok.kind == "EARROW":
            self.next()
            rhs = self.parse_classifier()
            if isinstance(lhs, Kind) or isinstance(rhs, Kind):
                raise ParseError("➾ connects types", tok.span)
            return All("_", lhs, rhs, span=tok.span)
        return lhs

    def parse_type(self) -> Type:
        node = self.parse_classifier()
        if isinstance(node, Kind):
            raise ParseError("expected a type, found a kind", self._span_of(node))
        return node

    def _span_of(self, node) -> Span:
        return getattr(node, "span", None) or self.peek().span

    def _class_binder(self) -> Union[Type, Kind]:
        tok = self.peek()
        if tok.kind == "PI":
            self.next()
            binders, dom = self._binder_group()
            self.expect("DOT", "Π binder")
            body = self.parse_classifier()
            for name in reversed(binders):
                if isinstance(body, Kind):
                    body = (KPiK if isinstance(dom, Kind) else KPi)(name, dom, body, span=tok.span)
                elif isinstance(dom, Kind):
                    raise ParseError("Π over a kind must end in a kind (use ∀ for types)", tok.span)
                else:
                    body = Pi(name, dom, body, span=tok.span)
            return body
        if tok.kind == "ALL":
            self.next()
            binders, dom = self._binder_group()
            self.expect("DOT", "∀ binder")
            body = self.parse_classifier()
            if isinstance(body, Kind):
                raise ParseError("∀ body must be a type", tok.span)
            for name in reversed(binders):
                body = (AllK if isinstance(dom, Kind) else All)(name, dom, body, span=tok.span)
            return body
        if tok.kind == "IOTA":
            self.next()
            name = self.expect("IDENT", "ι binder").lexeme
            self.expect("COLON", "ι binder")
            fst = self.parse_type()
            self.expect("DOT", "ι binder")
            snd = self.parse_type()
            return Iota(name, fst, snd, span=tok.span)
        if tok.kind == "LAM":
            self.next()
            binders, ann = self._lam_binder_group()
            self.expect("DOT", "type-level λ")
            body = self.parse_type()
            for name in reversed(binders):
                body = TLam(name, body, ann, span=tok.span)
            return body
        return self._class_eq()

    def _binder_group(self) -> tuple[list[str], Union[Type, Kind]]:
        names = [self.expect("IDENT", "binder").lexeme]
        while self.eat("COMMA"):
            names.append(self.expect("IDENT", "binder").lexeme)
        self.expect("COLON", "binder")
        return names, self.parse_classifier()

    def _lam_binder_group(self) -> tuple[list[str], Optional[Union[Type, Kind]]]:
        names = [self.expect("IDENT", "binder").lexeme]
        while self.eat("COMMA"):
            names.append(self.expect("IDENT", "binder").lexeme)
        return names, self.parse_classifier() if self.eat("COLON") else None

    def _class_eq(self) -> Union[Type, Kind]:
        lhs = self._class_spine()
        if self.at("SIMEQ"):
            tok = self.next()
            lhs_term = self._as_term(lhs, tok.span)
            rhs = self.parse_term()
            return Eq(lhs_term, rhs, span=tok.span)
        if isinstance(lhs, Term):
            # a bare name / application skeleton in type position
            return self._as_type(lhs, self._span_of(lhs))
        return lhs

    def _class_spine(self) -> Union[Type, Kind, Term]:
        tok = self.peek()
        if tok.kind == "STAR":
            self.next()
            return Star(span=tok.span)
        head = self._class_atom()
        while True:
            nxt = self.peek()
            if nxt.kind == "CDOT":
                self.next()
                arg = self._class_atom()
                head = TAppT(self._as_type(head, nxt.span), self._as_type(arg, nxt.span), span=nxt.span)
            elif nxt.kind in ("IDENT", "LPAREN", "LBRACK", "BETA"):
                arg = self.parse_term_atom()
                if isinstance(head, Term):
                    head = App(head, arg, span=nxt.span)
                else:
                    head = TAppE(self._as_type(head, nxt.span), arg, span=nxt.span)
            else:
                return head

    def _class_atom(self) -> Union[Type, Kind, Term]:
        tok = self.peek()
        if tok.kind == "STAR":
            self.next()
            return Star(span=tok.span)
        if tok.kind == "IDENT":
            self.next()
            return TVar(self.reference(tok), span=tok.span)
        if tok.kind in ("PI", "ALL", "IOTA", "LAM"):
            return self._class_binder()
        if tok.kind == "LPAREN":
            # try a classifier first, then a term
            save = self.i
            try:
                self.next()
                inner = self.parse_classifier()
                self.expect("RPAREN")
                return inner
            except ParseError:
                self.i = save
            self.next()
            inner_t = self.parse_term()
            self.expect("RPAREN", "parenthesized term")
            return self._postfix_proj(inner_t)
        raise ParseError(f"unexpected {tok.kind} {tok.lexeme!r} in type", tok.span)

    # -- sort coercions ------------------------------------------------------

    def _as_type(self, node, span: Span) -> Type:
        if isinstance(node, Type):
            return node
        if isinstance(node, Kind):
            raise ParseError("expected a type, found a kind", span)
        try:
            return promote_skeleton(node)
        except TypeError:
            raise ParseError("this expression is not usable as a type", span) from None

    def _as_term(self, node, span: Span) -> Term:
        if isinstance(node, Term):
            return node
        if isinstance(node, Kind):
            raise ParseError("expected a term, found a kind", span)
        try:
            return demote_skeleton(node, span)
        except TypeError:
            raise ParseError("this type is not usable as a term", span) from None

    # -- terms ----------------------------------------------------------------

    def parse_term(self) -> Term:
        return self._term(prefixes=True)

    def parse_term_app(self) -> Term:
        """An application spine: a term without a leading binder, ρ, φ
        or ς (those may still occur inside its parentheses)."""
        return self._term(prefixes=False)

    def _term(self, prefixes: bool) -> Term:
        """Binder chains and parenthesized sub-terms nest on an explicit
        stack, not on Python's, so a term may nest ``_MAX_DEPTH`` levels
        whatever the interpreter's recursion limit."""
        # open constructs, innermost last: ("(", token, spine head before
        # it, None), or a binder or ρ waiting for its body
        stack: list[tuple] = []
        head: Optional[Term] = None  # the application spine read so far
        while True:
            if len(stack) > _MAX_DEPTH:
                raise ParseError(f"term nested more than {_MAX_DEPTH} levels deep", stack[-1][1].span)
            tok = self.toks[self.i]
            kind = tok.kind
            if kind == "LPAREN":
                self.i += 1
                stack.append(("(", tok, head, None))
                head = None
                continue
            if head is not None:
                if kind in _TERM_ATOM_START:
                    head = App(head, self.parse_term_atom(), span=tok.span)
                    continue
                if kind == "DASH":
                    self.i += 1
                    head = EApp(head, self.parse_erased_arg(), span=tok.span)
                    continue
                t = head
            elif kind not in _TERM_PREFIX or not (prefixes or stack):
                head = self.parse_term_atom()
                continue
            else:
                self.i += 1
                if kind == "LAM" or kind == "ELAM":
                    binders, ann = self._lam_binder_group()
                    self.expect("DOT", "λ binder" if kind == "LAM" else "Λ binder")
                    stack.append((kind, tok, binders, ann))
                    continue
                proof = self.parse_proof_spine()
                if kind == "SIGMA":
                    t = Sym(proof, span=tok.span)
                elif kind == "PHI":
                    self.expect("DASH", "φ")
                    main = self.parse_term_app()
                    self.expect("LBRACE", "φ")
                    t = Phi(proof, main, self.parse_term(), span=tok.span)
                    self.expect("RBRACE", "φ")
                else:  # RHO
                    guide = (None, None)
                    if self.eat("LBRACE"):
                        hole = self.expect("IDENT", "ρ guide").lexeme
                        self.expect("DOT", "ρ guide")
                        guide = (hole, self.parse_type())
                        self.expect("RBRACE", "ρ guide")
                    self.expect("DASH", "ρ")
                    stack.append((kind, tok, proof, guide))
                    continue
            # t is a whole term: the body of each binder and ρ on top of
            # the stack, then the contents of the innermost "("
            while stack:
                kind, tok, a, b = stack.pop()
                if kind == "(":
                    self.expect("RPAREN", "parenthesized term")
                    t = self._postfix_proj(t)
                    head = t if a is None else App(a, t, span=tok.span)
                    break
                if kind == "RHO":
                    t = Rho(a, t, *b, span=tok.span)
                    continue
                if kind == "LAM" and isinstance(b, Kind):
                    raise ParseError("explicit λ binder annotation must be a type", tok.span)
                node = Lam if kind == "LAM" else ELam
                for name in reversed(a):
                    t = node(name, t, b, span=tok.span)
            else:
                return t

    def parse_proof_spine(self) -> Term:
        """Proof argument of ρ/φ/ς: a spine of atoms, so that the
        following ``-`` separator is unambiguous.  Parenthesize proofs
        that use erased application."""
        head = self.parse_term_atom()
        while self.toks[self.i].kind in _TERM_ATOM_START:
            arg = self.parse_term_atom()
            head = App(head, arg, span=self._span_of(arg))
        return head

    def parse_term_atom(self) -> Term:
        tok = self.toks[self.i]
        kind = tok.kind
        if kind == "IDENT":
            self.i += 1
            return self._postfix_proj(Var(self.reference(tok), span=tok.span))
        if kind == "BETA":
            self.i += 1
            return self._postfix_proj(Beta(span=tok.span))
        if kind == "LBRACK":
            self.i += 1
            fst = self.parse_term()
            self.expect("COMMA", "intersection pair")
            snd = self.parse_term()
            self.expect("RBRACK", "intersection pair")
            return self._postfix_proj(IotaPair(fst, snd, span=tok.span))
        if kind == "LPAREN":
            self.i += 1
            inner = self.parse_term()
            self.expect("RPAREN", "parenthesized term")
            return self._postfix_proj(inner)
        raise ParseError(f"unexpected {kind} {tok.lexeme!r} in term", tok.span)

    def _postfix_proj(self, t: Term) -> Term:
        while (tok := self.toks[self.i]).kind in ("PROJ1", "PROJ2"):
            t = Proj(t, 1 if tok.kind == "PROJ1" else 2, span=tok.span)
            self.i += 1
        return t

    def parse_erased_arg(self) -> Union[Term, Type]:
        """The argument after ``-``: a term, or a type.  A name, and a
        parenthesized term, stay terms, so that an argument that could be
        read at either sort is its term skeleton (module docstring)."""
        tok = self.peek()
        if tok.kind == "BETA":
            self.next()
            return Beta(span=tok.span)
        if tok.kind == "IDENT":
            self.next()
            return self._postfix_proj(Var(self.reference(tok), span=tok.span))
        if tok.kind == "LPAREN":
            save = self.i
            # a term first, then a type
            try:
                self.next()
                inner = self.parse_term()
                self.expect("RPAREN")
                return inner
            except ParseError:
                self.i = save
            self.next()
            ty = self.parse_type()
            self.expect("RPAREN", "erased type argument")
            return ty
        raise ParseError(f"unexpected {tok.kind} {tok.lexeme!r} after '-'", tok.span)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _parse(text: str, path: str, what: str, rule):
    """``rule`` applied to a parser over all of ``text``.  Types and the
    rarer term forms are parsed by recursion: too deep, it is a ParseError."""
    parser = Parser(lex(text, path))
    try:
        node = rule(parser)
        parser.expect("EOF", what)
    except RecursionError:
        raise ParseError("nested too deeply", parser.peek().span) from None
    return node


def parse_module(text: str, path: str = "<input>") -> SourceModule:
    return _parse(text, path, "module", lambda p: p.parse_module(path))


def parse_term(text: str, path: str = "<input>") -> Term:
    return _parse(text, path, "term", Parser.parse_term)


def parse_classifier(text: str, path: str = "<input>") -> Union[Type, Kind]:
    return _parse(text, path, "classifier", Parser.parse_classifier)
