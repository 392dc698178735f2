"""Lexer and parser for the concrete syntax.

Every Unicode primary token has exactly one ASCII alias, and lexing is
alias-insensitive; ``SPELLINGS`` lists the pairs, and the printer spells
tokens from it too:

    ★ Star   Π Pi    ∀ All    λ \\    Λ /\\   ι iota   ➔ ->   ➾ =>
    ≃ ==     ◂ <|    ρ rho    φ phi   β beta  ς sigma-sym      · @

The lexer splits the text with one regular expression, whose every
match is the blanks and comments (``//`` to end of line) before a token
and then the token.  It returns the tokens as parallel lists
(``Tokens``): the kinds, read off a dictionary of fixed lexemes and
keywords; the lexemes; and the offsets they begin at, summed from the
lengths of the strings before them; with a table of the offsets the
lines end at.  Each list is built by C-level ``map`` and ``accumulate``
passes, so lexing makes no Python-level call per token and builds no
token or position object.  The parser reads the lists by index and
builds a ``Span`` only for a node it builds or an error it raises,
bisecting the table for the line.

A module is a sequence of ``import name.`` declarations followed by
definitions ``name ◂ classifier = body .`` (parameters omit ``= body``).
Bodies are parsed as terms or types according to the sort of the
classifier.  Application binds tighter than ➔/➾; erased application
``-`` binds like application; ``·`` marks explicit type arguments while
juxtaposed arguments of a type are terms.  Binders and parentheses in a
term nest on an explicit stack, up to a fixed depth, checked as each is
pushed.  The term loop reads the commonest atoms itself: a name with
no ``.1``/``.2`` after it, and a λ or Λ over one unannotated name; other
atoms and binder groups go through their own rules.

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
from bisect import bisect_left
from itertools import accumulate, count, repeat
from operator import add
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


_new = tuple.__new__  # builds a Span with no Python-level call


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: Optional[set[str]] = None):
        if expected:
            message = f"{message} (expected one of: {', '.join(sorted(expected))})"
        super().__init__(f"{span}: {message}")
        self.span = span
        self.expected = expected or set()


class Tokens:
    """What ``lex`` read, as parallel lists: token ``i`` is of kind
    ``kinds[i]``, spelled ``lexemes[i]``, and begins at offset
    ``starts[i]`` of ``file``.  ``eols`` is -1, then the offset each line
    ends at (its newline, or the end of the text).  The last token is
    EOF."""

    __slots__ = ("file", "kinds", "lexemes", "starts", "eols")

    def __init__(self, file: str, kinds: list[str], lexemes: list[str], starts: list[int], eols: list[int]):
        self.file = file
        self.kinds = kinds
        self.lexemes = lexemes
        self.starts = starts
        self.eols = eols

    def __len__(self) -> int:
        return len(self.kinds)

    def span(self, i: int) -> Span:
        """Token ``i``'s position: its line is the number of line ends
        before its offset, and its column is its offset less the last of
        them."""
        start = self.starts[i]
        line = bisect_left(self.eols, start)
        return _new(Span, (self.file, line, start - self.eols[line - 1]))


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

# The kind of every lexeme but an identifier's; the empty lexeme is the
# end of the input.
_KINDS = {**_FIXED, **_KEYWORDS, "": "EOF"}

# One match per token: the blanks and comments (``//`` to end of line)
# before it, then the token, empty at the end of the input, or else a
# character that starts no token, in a group of its own.  Taken whole,
# the blanks and comments are always followed by one of those, so no
# match backtracks into them (and cuts a comment short), and each match
# begins where the last one ended.  The fixed lexemes of two or more
# characters are tried first, longest first, then an identifier, then
# the one-character lexemes as one class, so that of two lexemes one of
# which extends the other (".1" and ".", "->" and "-", "sigma-sym" and
# an identifier) the longer is taken.
_TOKEN_RE = re.compile(
    r"([ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*)(?:("
    + "".join(re.escape(lx) + "|" for lx in sorted(_FIXED, key=len, reverse=True) if len(lx) > 1)
    + _IDENT + "|[" + "".join(re.escape(lx) for lx in _FIXED if len(lx) == 1) + r"]|\Z)|(.))"
)


def lex(text: str, filename: str = "<input>") -> Tokens:
    """The tokens of ``text`` (module docstring)."""
    # per match the text before it (empty), its blanks, its token and the
    # character that starts no token (None but at an error), then the
    # rest of the text (empty)
    parts = _TOKEN_RE.split(text)
    # -1, then the offset each line ends at (its newline, or the end of
    # the text): a token's line is the number of these before its offset,
    # and its column is its offset less the one before that
    eols = [-1, *map(add, accumulate(map(len, text.split("\n"))), count())]
    if any(parts[3::4]):
        bad = next(j for j in range(3, len(parts), 4) if parts[j])
        at = len("".join(filter(None, parts[:bad])))
        line = bisect_left(eols, at)
        raise ParseError(f"unexpected character {text[at]!r}", Span(filename, line, at - eols[line - 1]))
    del parts[3::4]
    if len(parts) > 4 and not parts[-5]:
        del parts[-4:-1]  # a second, empty match at the end of the text
    lexemes = parts[2::3]
    starts = list(accumulate(map(len, parts)))[1::3]
    return Tokens(filename, list(map(_KINDS.get, lexemes, repeat("IDENT"))), lexemes, starts, eols)


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
_PROJ = {"PROJ1", "PROJ2"}
_LAMS = {"LAM", "ELAM"}

# How deep a term may nest binders, ρ and parentheses (`exp 3 7`'s normal form: 2,188)
_MAX_DEPTH = 2_500


class Parser(Tokens):
    """A parser: the tokens of one text, and the index of the next one.
    Rules read the token lists directly and build a node's ``Span`` from
    its token's index when they build the node (or raise a
    ``ParseError`` at it).  Nodes get their span as a positional
    argument, a cheaper call than a keyword one."""

    __slots__ = ("i",)

    def __init__(self, tokens: Tokens):
        self.file = tokens.file
        self.kinds = tokens.kinds
        self.lexemes = tokens.lexemes
        self.starts = tokens.starts
        self.eols = tokens.eols
        self.i = 0

    # -- token plumbing ------------------------------------------------------

    def at(self, kind: str) -> bool:
        return self.kinds[self.i] == kind

    def eat(self, kind: str) -> bool:
        if self.kinds[self.i] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, what: str = "") -> int:
        i = self.i
        if self.kinds[i] != kind:
            raise self.unexpected(i, f" while parsing {what}" if what else "", expected={kind})
        if kind != "EOF":
            self.i = i + 1
        return i

    def unexpected(self, i: int, where: str, expected: Optional[set[str]] = None) -> ParseError:
        return ParseError(f"unexpected {self.kinds[i]} {self.lexemes[i]!r}{where}", self.span(i), expected)

    def ident(self, what: str) -> str:
        return self.lexemes[self.expect("IDENT", what)]

    # -- module --------------------------------------------------------------

    def parse_module(self, path: str) -> SourceModule:
        mod = SourceModule(path, [], [])
        while self.eat("IMPORT"):
            mod.imports.append(self.ident("import"))
            self.expect("DOT", "import")
        seen: set[str] = set()
        while not self.at("EOF"):
            d = self.parse_definition()
            if d.name in seen:
                raise ParseError(f"duplicate definition {d.name!r}", d.span)
            seen.add(d.name)
            mod.defs.append(d)
        return mod

    def reference(self, i: int) -> str:
        """The name identifier token ``i`` uses (not binds): ``_`` only
        binds, so no arrow's ``_`` can capture it."""
        name = self.lexemes[i]
        if name == "_":
            raise ParseError("'_' can only be a binder", self.span(i))
        return name

    def parse_definition(self) -> RawDef:
        i = self.expect("IDENT", "definition")
        name = self.reference(i)
        self.expect("ASCRIBE", "definition")
        classifier = self.parse_classifier()
        body: Optional[Union[Term, Type]] = None
        if self.eat("EQUALS"):
            body = self.parse_type() if isinstance(classifier, Kind) else self.parse_term()
        self.expect("DOT", f"end of definition {name}")
        return RawDef(name, classifier, body, self.span(i))

    # -- classifiers (types or kinds, one grammar) ----------------------------
    #
    # Each rule returns the node it parsed, whose class is its sort.
    # ``_class_spine`` and ``_class_atom`` may also return a term (a
    # parenthesized term, or an application spine over one), which
    # ``_class_eq`` takes as the left side of ≃ or promotes to a type.

    def parse_classifier(self) -> Union[Type, Kind]:
        lhs = self._class_binder()
        i = self.i
        kind = self.kinds[i]
        if kind == "ARROW":
            self.i = i + 1
            rhs = self.parse_classifier()
            span = self.span(i)
            if isinstance(rhs, Kind):
                return (KPiK if isinstance(lhs, Kind) else KPi)("_", lhs, rhs, span)
            if isinstance(lhs, Kind):
                raise ParseError("a kind cannot be the domain of a type arrow", span)
            return Pi("_", lhs, rhs, span)
        if kind == "EARROW":
            self.i = i + 1
            rhs = self.parse_classifier()
            if isinstance(lhs, Kind) or isinstance(rhs, Kind):
                raise ParseError("➾ connects types", self.span(i))
            return All("_", lhs, rhs, self.span(i))
        return lhs

    def parse_type(self) -> Type:
        node = self.parse_classifier()
        if isinstance(node, Kind):
            raise ParseError("expected a type, found a kind", self._span_of(node))
        return node

    def _span_of(self, node) -> Span:
        return getattr(node, "span", None) or self.span(self.i)

    def _class_binder(self) -> Union[Type, Kind]:
        i = self.i
        kind = self.kinds[i]
        if kind == "PI":
            self.i = i + 1
            binders, dom = self._binder_group()
            self.expect("DOT", "Π binder")
            body = self.parse_classifier()
            span = self.span(i)
            for name in reversed(binders):
                if isinstance(body, Kind):
                    body = (KPiK if isinstance(dom, Kind) else KPi)(name, dom, body, span)
                elif isinstance(dom, Kind):
                    raise ParseError("Π over a kind must end in a kind (use ∀ for types)", span)
                else:
                    body = Pi(name, dom, body, span)
            return body
        if kind == "ALL":
            self.i = i + 1
            binders, dom = self._binder_group()
            self.expect("DOT", "∀ binder")
            body = self.parse_classifier()
            span = self.span(i)
            if isinstance(body, Kind):
                raise ParseError("∀ body must be a type", span)
            for name in reversed(binders):
                body = (AllK if isinstance(dom, Kind) else All)(name, dom, body, span)
            return body
        if kind == "IOTA":
            self.i = i + 1
            name = self.ident("ι binder")
            self.expect("COLON", "ι binder")
            fst = self.parse_type()
            self.expect("DOT", "ι binder")
            snd = self.parse_type()
            return Iota(name, fst, snd, self.span(i))
        if kind == "LAM":
            self.i = i + 1
            binders, ann = self._lam_binder_group()
            self.expect("DOT", "type-level λ")
            body = self.parse_type()
            span = self.span(i)
            for name in reversed(binders):
                body = TLam(name, body, ann, span)
            return body
        return self._class_eq()

    def _binder_group(self) -> tuple[list[str], Union[Type, Kind]]:
        names = [self.ident("binder")]
        while self.eat("COMMA"):
            names.append(self.ident("binder"))
        self.expect("COLON", "binder")
        return names, self.parse_classifier()

    def _lam_binder_group(self) -> tuple[list[str], Optional[Union[Type, Kind]]]:
        names = [self.ident("binder")]
        while self.eat("COMMA"):
            names.append(self.ident("binder"))
        return names, self.parse_classifier() if self.eat("COLON") else None

    def _class_eq(self) -> Union[Type, Kind]:
        lhs = self._class_spine()
        i = self.i
        if self.kinds[i] == "SIMEQ":
            self.i = i + 1
            span = self.span(i)
            lhs_term = self._as_term(lhs, span)
            rhs = self.parse_term()
            return Eq(lhs_term, rhs, span)
        if isinstance(lhs, Term):
            # a bare name / application skeleton in type position
            return self._as_type(lhs, self._span_of(lhs))
        return lhs

    def _class_spine(self) -> Union[Type, Kind, Term]:
        kinds = self.kinds
        i = self.i
        if kinds[i] == "STAR":
            self.i = i + 1
            return Star(self.span(i))
        head = self._class_atom()
        while True:
            i = self.i
            kind = kinds[i]
            if kind == "CDOT":
                self.i = i + 1
                arg = self._class_atom()
                span = self.span(i)
                head = TAppT(self._as_type(head, span), self._as_type(arg, span), span)
            elif kind in _TERM_ATOM_START:
                arg = self.parse_term_atom()
                span = self.span(i)
                if isinstance(head, Term):
                    head = App(head, arg, span)
                else:
                    head = TAppE(self._as_type(head, span), arg, span)
            else:
                return head

    def _class_atom(self) -> Union[Type, Kind, Term]:
        i = self.i
        kind = self.kinds[i]
        if kind == "STAR":
            self.i = i + 1
            return Star(self.span(i))
        if kind == "IDENT":
            self.i = i + 1
            return TVar(self.reference(i), self.span(i))
        if kind in ("PI", "ALL", "IOTA", "LAM"):
            return self._class_binder()
        if kind == "LPAREN":
            # try a classifier first, then a term
            self.i = i + 1
            try:
                inner = self.parse_classifier()
                self.expect("RPAREN")
                return inner
            except ParseError:
                self.i = i + 1
            inner_t = self.parse_term()
            self.expect("RPAREN", "parenthesized term")
            return self._postfix_proj(inner_t)
        raise self.unexpected(i, " in type")

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
        return self._term(True)

    def parse_term_app(self) -> Term:
        """An application spine: a term without a leading binder, ρ, φ
        or ς (those may still occur inside its parentheses)."""
        return self._term(False)

    def _term(self, prefixes: bool) -> Term:
        """Binder chains and parenthesized sub-terms nest on an explicit
        stack, not on Python's, so a term may nest ``_MAX_DEPTH`` levels
        whatever the interpreter's recursion limit.  Names and
        single-name binders are read inline (module docstring), with the
        index of the next token in a local, stored back to ``self.i``
        around each call of another rule."""
        file, kinds, lexemes, starts, eols = self.file, self.kinds, self.lexemes, self.starts, self.eols
        # open constructs, innermost last, each with the index of the
        # token that opens it: ("(", i, spine head before it, None), or a
        # binder or ρ waiting for its body
        stack: list[tuple] = []
        head: Optional[Term] = None  # the application spine read so far
        i = self.i
        while True:
            kind = kinds[i]
            if kind == "IDENT" and kinds[i + 1] not in _PROJ and (name := lexemes[i]) != "_":
                span = _new(Span, (file, (ln := bisect_left(eols, s := starts[i])), s - eols[ln - 1]))
                atom = Var(name, span)
                head = atom if head is None else App(head, atom, span)
                i += 1
                continue
            if kind == "LPAREN":
                frame = ("(", i, head, None)
                head = None
                i += 1
            elif head is not None:
                if kind in _TERM_ATOM_START:
                    self.i = i
                    head = App(head, self.parse_term_atom(), self.span(i))
                    i = self.i
                    continue
                if kind == "DASH":
                    self.i = i + 1
                    head = EApp(head, self.parse_erased_arg(), self.span(i))
                    i = self.i
                    continue
                t, frame = head, None
            elif kind not in _TERM_PREFIX or not (prefixes or stack):
                self.i = i
                head = self.parse_term_atom()
                i = self.i
                continue
            elif kind in _LAMS and kinds[i + 1] == "IDENT" and kinds[i + 2] == "DOT":
                frame = (kind, i, [lexemes[i + 1]], None)
                i += 3
            else:
                self.i = i + 1
                if kind in _LAMS:
                    binders, ann = self._lam_binder_group()
                    self.expect("DOT", "λ binder" if kind == "LAM" else "Λ binder")
                    frame = (kind, i, binders, ann)
                else:
                    proof = self.parse_proof_spine()
                    frame = None
                    if kind == "SIGMA":
                        t = Sym(proof, self.span(i))
                    elif kind == "PHI":
                        self.expect("DASH", "φ")
                        main = self.parse_term_app()
                        self.expect("LBRACE", "φ")
                        t = Phi(proof, main, self.parse_term(), self.span(i))
                        self.expect("RBRACE", "φ")
                    else:  # RHO
                        guide = (None, None)
                        if self.eat("LBRACE"):
                            hole = self.ident("ρ guide")
                            self.expect("DOT", "ρ guide")
                            guide = (hole, self.parse_type())
                            self.expect("RBRACE", "ρ guide")
                        self.expect("DASH", "ρ")
                        frame = (kind, i, proof, guide)
                i = self.i
            if frame is not None:
                stack.append(frame)
                if len(stack) > _MAX_DEPTH:
                    raise ParseError(f"term nested more than {_MAX_DEPTH} levels deep", self.span(frame[1]))
                continue
            # t is a whole term: the body of each binder and ρ on top of
            # the stack, then the contents of the innermost "("
            while stack:
                kind, j, a, b = stack.pop()
                if kind != "(" or a is not None:
                    span = _new(Span, (file, (ln := bisect_left(eols, s := starts[j])), s - eols[ln - 1]))
                if kind == "(":
                    if kinds[i] != "RPAREN":
                        raise self.unexpected(i, " while parsing parenthesized term", expected={"RPAREN"})
                    i += 1
                    if kinds[i] in _PROJ:
                        self.i = i
                        t = self._postfix_proj(t)
                        i = self.i
                    head = t if a is None else App(a, t, span)
                    break
                if kind == "RHO":
                    t = Rho(a, t, *b, span)
                    continue
                if kind == "LAM" and isinstance(b, Kind):
                    raise ParseError("explicit λ binder annotation must be a type", span)
                node = Lam if kind == "LAM" else ELam
                for name in reversed(a):
                    t = node(name, t, b, span)
            else:
                self.i = i
                return t

    def parse_proof_spine(self) -> Term:
        """Proof argument of ρ/φ/ς: a spine of atoms, so that the
        following ``-`` separator is unambiguous.  Parenthesize proofs
        that use erased application."""
        head = self.parse_term_atom()
        while self.kinds[self.i] in _TERM_ATOM_START:
            arg = self.parse_term_atom()
            head = App(head, arg, self._span_of(arg))
        return head

    def parse_term_atom(self) -> Term:
        i = self.i
        kind = self.kinds[i]
        if kind == "IDENT":
            self.i = i + 1
            return self._postfix_proj(Var(self.reference(i), self.span(i)))
        if kind == "BETA":
            self.i = i + 1
            return self._postfix_proj(Beta(self.span(i)))
        if kind == "LBRACK":
            self.i = i + 1
            fst = self.parse_term()
            self.expect("COMMA", "intersection pair")
            snd = self.parse_term()
            self.expect("RBRACK", "intersection pair")
            return self._postfix_proj(IotaPair(fst, snd, self.span(i)))
        if kind == "LPAREN":
            self.i = i + 1
            inner = self.parse_term()
            self.expect("RPAREN", "parenthesized term")
            return self._postfix_proj(inner)
        raise self.unexpected(i, " in term")

    def _postfix_proj(self, t: Term) -> Term:
        kinds = self.kinds
        while (kind := kinds[i := self.i]) in _PROJ:
            t = Proj(t, 1 if kind == "PROJ1" else 2, self.span(i))
            self.i = i + 1
        return t

    def parse_erased_arg(self) -> Union[Term, Type]:
        """The argument after ``-``: a term, or a type.  A name, and a
        parenthesized term, stay terms, so that an argument that could be
        read at either sort is its term skeleton (module docstring)."""
        i = self.i
        kind = self.kinds[i]
        if kind == "BETA":
            self.i = i + 1
            return Beta(self.span(i))
        if kind == "IDENT":
            self.i = i + 1
            return self._postfix_proj(Var(self.reference(i), self.span(i)))
        if kind == "LPAREN":
            # a term first, then a type
            self.i = i + 1
            try:
                inner = self.parse_term()
                self.expect("RPAREN")
                return inner
            except ParseError:
                self.i = i + 1
            ty = self.parse_type()
            self.expect("RPAREN", "erased type argument")
            return ty
        raise self.unexpected(i, " after '-'")


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
        raise ParseError("nested too deeply", parser.span(parser.i)) from None
    return node


def parse_module(text: str, path: str = "<input>") -> SourceModule:
    return _parse(text, path, "module", lambda p: p.parse_module(path))


def parse_term(text: str, path: str = "<input>") -> Term:
    return _parse(text, path, "term", Parser.parse_term)


def parse_classifier(text: str, path: str = "<input>") -> Union[Type, Kind]:
    return _parse(text, path, "classifier", Parser.parse_classifier)
