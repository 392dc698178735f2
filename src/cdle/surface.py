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
juxtaposed arguments of a type are terms.

Terms and classifiers are read by one loop, with no recursion and no
backtracking.  Each construct that nests (parentheses, a pair, a binder,
an erased argument, ρ, φ, ς, ≃) pushes a frame on one explicit stack, at
most ``_MAX_DEPTH`` deep, and opens a level: the expression it contains,
read as a term ("T"), a term with no leading binder ("A", φ's middle), a
proof ("P": atoms only), a classifier ("C") or a skeleton ("S").  A level
keeps its application spine and arrow chain and folds them when it ends,
so only nesting counts against the depth.  The loop reads the commonest
term atoms itself: a name with no ``.1``/``.2`` after it, and a λ or Λ
over one unannotated name.

The same text can stand at two sorts.  A parenthesized group at the head
of a classifier or after ``·`` or ``-`` is sorted by its first token where
that decides (Π, ∀, ι or ★: a classifier; Λ, ρ, φ, ς, ``[`` or β: a
term).  Otherwise it is read once as a skeleton, a ``Var``, ``App`` or
``Lam`` that reads both ways, until a token sorts it: ``·``, ➔, ➾ or ≃
make it a classifier, and ``-`` or a projection a term; a group whose
head is a term ("L") is one unless ≃ follows it.  At its ``)``, a
skeleton is a type in a classifier, and a term after ``-``: the checker
reads such an erased argument at the sort the implicit product it
instantiates asks for, promoting it to a type where that is a type.
Every node the parser builds has its sort in its class.

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
    recast_skeleton,
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
_ARROWS = {"ARROW", "EARROW"}
_SORTING = {"CDOT", "ARROW", "EARROW", "SIMEQ"}  # what makes a skeleton a type

# The frame tag of each classifier binder's token
_CLASS_BINDERS = {"PI": "PI", "ALL": "ALL", "IOTA": "IOTA", "LAM": "TLAM"}

# The level a parenthesized group is, by its first token where that token
# decides: a classifier or a term.  Any other group is a skeleton.
_GROUP = {
    **dict.fromkeys(("PI", "ALL", "IOTA", "STAR"), "C"),
    **dict.fromkeys(("ELAM", "RHO", "PHI", "SIGMA", "LBRACK", "BETA"), "T"),
}

# A construct's next part, by the tag of the frame whose part just ended:
# the token that must end that part (and the rule a missing one names),
# the frame tag of the next part and the level it is read at.
_NEXT = {
    "[": ("COMMA", "intersection pair", "]", "T"),
    "PI": ("DOT", "Π binder", "PI.", "C"),
    "ALL": ("DOT", "∀ binder", "ALL.", "C"),
    "IOTA": ("DOT", "ι binder", "IOTA.", "C"),
    "PHI": ("DASH", "φ", "PHI-", "A"),
    "PHI-": ("LBRACE", "φ", "PHI{", "T"),
    # a λ's annotation, then its body: a term under λ or Λ, a type under a
    # type-level λ, and either in a skeleton
    ":LAM": ("DOT", "λ binder", "LAM", "T"),
    ":ELAM": ("DOT", "Λ binder", "ELAM", "T"),
    ":TLAM": ("DOT", "type-level λ", "TLAM", "C"),
    ":SLAM": ("DOT", "type-level λ", "SLAM", "S"),
}

# How deep constructs may nest (`exp 3 7`'s normal form: 2,188 levels)
_MAX_DEPTH = 2_500


class Parser(Tokens):
    """A parser: the tokens of one text, and the index of the next one.
    It builds a node's ``Span`` from its token's index when it builds the
    node (or raises a ``ParseError`` at it), as a positional argument."""

    __slots__ = ("i",)

    def __init__(self, tokens: Tokens):
        super().__init__(tokens.file, tokens.kinds, tokens.lexemes, tokens.starts, tokens.eols)
        self.i = 0

    # -- token plumbing ------------------------------------------------------

    def eat(self, kind: str) -> bool:
        if self.kinds[self.i] == kind:
            self.i += 1
            return True
        return False

    def want(self, i: int, kind: str, what: str) -> int:
        """The index after token ``i``, which must be of ``kind``."""
        if self.kinds[i] != kind:
            raise self.unexpected(i, f" while parsing {what}", expected={kind})
        return i + 1

    def expect(self, kind: str, what: str) -> int:
        i = self.i
        self.i = self.want(i, kind, what)
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
        while self.kinds[self.i] != "EOF":
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
            body = self._as(self.parse_classifier(), Type) if isinstance(classifier, Kind) else self.parse_term()
        self.expect("DOT", f"end of definition {name}")
        return RawDef(name, classifier, body, self.span(i))

    # -- expressions ---------------------------------------------------------

    def parse_term(self) -> Term:
        return self._expr("T")

    def parse_classifier(self) -> Union[Type, Kind]:
        return self._expr("C")

    def _expr(self, lv: str):
        """The expression at ``self.i``, read as level ``lv`` (module
        docstring), with the index of the next token in a local, stored
        back to ``self.i`` around each call of a rule that reads tokens."""
        file, kinds, lexemes, starts, eols = self.file, self.kinds, self.lexemes, self.starts, self.eols
        # open frames, innermost last: (tag, token index, two fields of the
        # construct, and the level, head and chain the frame interrupted)
        stack: list[tuple] = []
        head = chain = None
        closed = False  # a classifier's head is whole: only ➔ or ➾ may follow
        i = self.i
        while True:
            kind = kinds[i]
            if kind == "IDENT" and lv != "C" and kinds[i + 1] not in _PROJ and (name := lexemes[i]) != "_":
                span = _new(Span, (file, (ln := bisect_left(eols, s := starts[i])), s - eols[ln - 1]))
                atom = Var(name, span)
                head = atom if head is None else App(head, atom, span)
                i += 1
                continue
            frame = None
            if lv == "C" and (head is None or closed or kind not in _TERM_ATOM_START):
                if head is None or (kind == "CDOT" and not closed):
                    # a classifier atom: the operand's head, or after ·
                    j = i if head is None else i + 1
                    k = kinds[j]
                    if k == "IDENT" or k == "STAR":
                        atom = TVar(self.reference(j), self.span(j)) if k == "IDENT" else Star(self.span(j))
                        if head is not None:
                            head = self._cdot(head, atom, i)
                        elif k == "STAR" and kinds[j + 1] == "SIMEQ":
                            raise ParseError("expected a term, found a kind", self.span(j + 1))
                        else:
                            head, closed = atom, k == "STAR"
                        i = j + 1
                        continue
                    if k == "LPAREN":
                        frame, sub, i = ("(c", j, None, None, lv, head, chain), _GROUP.get(kinds[j + 1], "S"), j + 1
                    elif k in _CLASS_BINDERS:
                        start, sub = self._open(_CLASS_BINDERS[k], j)
                        frame, i = start + (lv, head, chain), self.i
                    else:
                        raise self.unexpected(j, " in type")
                elif kind == "SIMEQ" and not closed:
                    frame, sub = ("EQ", i, self._as(head, Term, self.span(i)), None, lv, None, chain), "T"
                    i += 1
                else:
                    # the operand is whole
                    if isinstance(head, Term):
                        head = self._as(head, Type)
                    if kind in _ARROWS:
                        if chain is None:
                            chain = []
                        chain.append((head, i))
                        head, closed = None, False
                        i += 1
                        continue
                    t, closed = head if chain is None else self._fold(chain, head), False
            elif kind == "RPAREN" and head is not None:
                t = head  # the commonest end of a level, ahead of the rules below
            elif head is None and lv == "S":
                if kind == "LPAREN":
                    frame, sub, i = ("(c", i, None, None, lv, head, chain), _GROUP.get(kinds[i + 1], "S"), i + 1
                elif kind == "LAM":
                    start, sub = self._open("SLAM", i)
                    frame, i = start + (lv, head, chain), self.i
                else:
                    lv = _GROUP.get(kind) or ("T" if kind == "IDENT" else "")
                    if not lv:
                        group = next(f[0] for f in reversed(stack) if f[0] != "SLAM")
                        raise self.unexpected(i, " in type" if group == "(e" else " in term")
                    continue
            elif kind == "LPAREN" or kind == "LBRACK":
                frame, sub, i = ("(" if kind == "LPAREN" else "[", i, None, None, lv, head, chain), "T", i + 1
            elif head is None:
                if kind in _TERM_PREFIX and lv == "T":
                    if kind in _LAMS and kinds[i + 1] == "IDENT" and kinds[i + 2] == "DOT":
                        frame, sub, i = (kind, i, [lexemes[i + 1]], None, lv, None, None), "T", i + 3
                    elif kind in _LAMS:
                        start, sub = self._open(kind, i)
                        frame, i = start + (lv, head, chain), self.i
                    else:
                        frame, sub, i = (kind, i, None, None, lv, None, None), "P", i + 1
                else:
                    head, i = self._atom(i)
                    continue
            elif kind == "IDENT" or kind == "BETA":
                atom, j = self._atom(i)
                head, i = self._attach(lv, head, atom, i), j
                continue
            elif kind == "DASH" and lv != "P":
                lv = "A" if lv == "A" else "T"
                k = kinds[i + 1]
                if k == "LPAREN":
                    frame, sub, i = ("(e", i + 1, None, None, lv, head, chain), _GROUP.get(kinds[i + 2], "S"), i + 2
                else:
                    if k == "BETA":
                        arg, j = Beta(self.span(i + 1)), i + 2
                    elif k == "IDENT":
                        arg, j = self._proj(Var(self.reference(i + 1), self.span(i + 1)), i + 2)
                    else:
                        raise self.unexpected(i + 1, " after '-'")
                    head, i = EApp(head, arg, self.span(i)), j
                    continue
            elif kind in _SORTING and (lv == "S" or (lv == "L" and kind == "SIMEQ")):
                head = recast_skeleton(head) if lv == "S" else head
                lv = "C"
                continue
            else:
                t = head
            if frame is None:
                # the level is whole, with value t: hand it to the frame
                # above, which gives the level it interrupted a value or
                # opens its own next part
                while stack:
                    srt = lv
                    tag, j, a, b, lv, head, chain = stack.pop()
                    if tag == "(":
                        if kinds[i] != "RPAREN":
                            raise self.unexpected(i, " while parsing parenthesized term", expected={"RPAREN"})
                        i += 1
                        if kinds[i] in _PROJ:
                            t, i = self._proj(t, i)
                        if head is None:
                            head = t
                        elif lv == "T":  # _attach's term case, inline
                            span = _new(Span, (file, (ln := bisect_left(eols, s := starts[j])), s - eols[ln - 1]))
                            head = App(head, t, span)
                        else:
                            head = self._attach(lv, head, t, j)
                        break
                    if tag == "LAM" or tag == "ELAM" or (tag == "SLAM" and srt != "C"):
                        # a term's λ or Λ, or a skeleton's λ over a term or a skeleton
                        if tag == "LAM" and isinstance(b, Kind):
                            raise ParseError("explicit λ binder annotation must be a type", self.span(j))
                        node = ELam if tag == "ELAM" else Lam
                        span = _new(Span, (file, (ln := bisect_left(eols, s := starts[j])), s - eols[ln - 1]))
                        for name in reversed(a):
                            t = node(name, t, b, span)
                        if lv == "S" and srt != "S":
                            lv = "T"
                        continue
                    if tag == "(c":
                        i = self.want(i, "RPAREN", "parenthesized type" if srt == "C" else "parenthesized term")
                        if srt == "S" and lv != "S":
                            t = recast_skeleton(t)  # read in a classifier, a skeleton is a type
                        elif srt == "C" or (srt == "S" and kinds[i] not in _PROJ):
                            lv = srt if lv == "S" else lv
                        else:
                            # a term, or a skeleton made one by a projection
                            t, i = self._proj(t, i)
                            lv = ("T" if srt == "S" else "L") if lv == "S" else lv
                        head = t if head is None else self._cdot(head, t, j - 1)
                        break
                    if tag == "(e":
                        t = self._as(t, Type) if srt == "C" else t
                        i = self.want(i, "RPAREN", "parenthesized term" if srt in ("T", "L") else "erased type argument")
                        head = EApp(head, t, self.span(j - 1))
                        break
                    if tag in _NEXT:
                        if tag == ":SLAM" and isinstance(t, Kind):
                            tag = ":TLAM"  # a skeleton's λ over a kind is a type's
                        elif tag == "IOTA":
                            t = self._as(t, Type)
                        close, what, tag, sub = _NEXT[tag]
                        i = self.want(i, close, what)
                        frame = (tag, j, a, t if b is None else (b, t), lv, head, chain)
                        break
                    if tag == "]":
                        i = self.want(i, "RBRACK", "intersection pair")
                        t, i = self._proj(IotaPair(b, t, self.span(j)), i)
                        head = self._attach(lv, head, t, j)
                        break
                    if tag == "EQ":
                        head, closed = Eq(a, t, self.span(j)), True
                        break
                    if tag == "RHO":
                        if kinds[i] == "LBRACE":  # a guide: { hole . type }
                            i = self.want(self.want(i + 1, "IDENT", "ρ guide"), "DOT", "ρ guide")
                            frame, sub = ("RHO{", j, lexemes[i - 2], t, lv, head, chain), "C"
                        else:
                            i = self.want(i, "DASH", "ρ")
                            frame, sub = ("RHO-", j, (None, None), t, lv, head, chain), "T"
                        break
                    if tag == "RHO{":
                        t = self._as(t, Type)
                        i = self.want(self.want(i, "RBRACE", "ρ guide"), "DASH", "ρ")
                        frame, sub = ("RHO-", j, (a, t), b, lv, head, chain), "T"
                        break
                    if tag == "RHO-":
                        t = Rho(b, t, *a, self.span(j))
                    elif tag == "PHI{":
                        t = Phi(*b, t, self.span(j))
                        i = self.want(i, "RBRACE", "φ")
                    elif tag == "SIGMA":
                        t = Sym(t, self.span(j))
                    else:
                        # a classifier binder
                        t = self._binder(tag, j, a, b, t)
                        if head is not None:
                            head = self._cdot(head, t, j - 1)
                        else:
                            lv, head, closed = "C", t, True
                        break
                else:
                    self.i = i
                    return t
                if frame is None:
                    continue
            stack.append(frame)
            if len(stack) > _MAX_DEPTH:
                raise ParseError(f"nested more than {_MAX_DEPTH} levels deep", self.span(frame[1]))
            lv, head, chain = sub, None, None

    def _open(self, tag: str, i: int) -> tuple[tuple, str]:
        """The binder whose token is ``i``, read up to the first level it
        opens: the start of its frame (its tag, ``i`` and the names it
        binds), and that level."""
        self.i = i + 1
        if tag == "IOTA":
            name = self.ident("ι binder")
            self.expect("COLON", "ι binder")
            return (tag, i, name, None), "C"
        names = [self.ident("binder")]
        while self.eat("COMMA"):
            names.append(self.ident("binder"))
        if tag == "PI" or tag == "ALL":
            self.expect("COLON", "binder")
            return (tag, i, names, None), "C"
        if self.eat("COLON"):
            return (":" + tag, i, names, None), "C"
        _, what, _, level = _NEXT[":" + tag]
        self.expect("DOT", what)
        return (tag, i, names, None), level

    def _binder(self, tag: str, j: int, names, dom, body):
        """The classifier binder of frame ``tag`` at token ``j``: Π, ∀ or ι
        over ``body``, or a type-level λ annotated ``dom``."""
        span = self.span(j)
        if tag == "ALL." and isinstance(body, Kind):
            raise ParseError("∀ body must be a type", span)
        if tag != "PI.":
            body = self._as(body, Type)
        if tag == "IOTA.":
            return Iota(names, dom, body, span)
        for name in reversed(names):
            if tag == "ALL.":
                body = (AllK if isinstance(dom, Kind) else All)(name, dom, body, span)
            elif tag != "PI.":
                body = TLam(name, body, dom, span)
            elif isinstance(body, Kind):
                body = (KPiK if isinstance(dom, Kind) else KPi)(name, dom, body, span)
            elif isinstance(dom, Kind):
                raise ParseError("Π over a kind must end in a kind (use ∀ for types)", span)
            else:
                body = Pi(name, dom, body, span)
        return body

    def _fold(self, chain: list, rhs):
        """``rhs`` under the arrows of ``chain``, the last one innermost."""
        for lhs, j in reversed(chain):
            span = self.span(j)
            if self.kinds[j] == "EARROW":
                if isinstance(lhs, Kind) or isinstance(rhs, Kind):
                    raise ParseError("➾ connects types", span)
                rhs = All("_", lhs, rhs, span)
            elif isinstance(rhs, Kind):
                rhs = (KPiK if isinstance(lhs, Kind) else KPi)("_", lhs, rhs, span)
            elif isinstance(lhs, Kind):
                raise ParseError("a kind cannot be the domain of a type arrow", span)
            else:
                rhs = Pi("_", lhs, rhs, span)
        return rhs

    def _atom(self, i: int) -> tuple[Term, int]:
        """The name or β at token ``i``, with its projections, and the index
        after them."""
        kind = self.kinds[i]
        if kind == "IDENT":
            atom = Var(self.reference(i), self.span(i))
        elif kind == "BETA":
            atom = Beta(self.span(i))
        else:
            raise self.unexpected(i, " in term")
        return self._proj(atom, i + 1)

    def _proj(self, t: Term, i: int) -> tuple[Term, int]:
        while (kind := self.kinds[i]) in _PROJ:
            t = Proj(t, 1 if kind == "PROJ1" else 2, self.span(i))
            i += 1
        return t, i

    def _attach(self, lv: str, head, atom: Term, j: int):
        """``atom``, read from token ``j``, as the next argument of the
        spine ``head`` of a level ``lv`` (or as its head)."""
        if head is None:
            return atom
        if lv == "P":
            return App(head, atom, atom.span)
        span = self.span(j)
        if lv == "C" and not isinstance(head, Term):
            return TAppE(self._as(head, Type, span), atom, span)
        return App(head, atom, span)

    def _cdot(self, head, arg, j: int) -> Type:
        """``head · arg``, the · being token ``j``."""
        span = self.span(j)
        return TAppT(self._as(head, Type, span), self._as(arg, Type, span), span)

    def _as(self, node, sort: type, span: Optional[Span] = None):
        """``node`` read as a ``Term`` or a ``Type`` (``sort``): a skeleton
        of the other sort is recast, and anything else is an error at
        ``span``, or at the node."""
        if isinstance(node, sort):
            return node
        span = span or node.span
        if isinstance(node, Kind):
            raise ParseError(f"expected a {'type' if sort is Type else 'term'}, found a kind", span)
        recast = recast_skeleton(node)
        if recast is None:
            what = "this expression is not usable as a type" if sort is Type else "this type is not usable as a term"
            raise ParseError(what, span)
        return recast


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _parse(text: str, path: str, what: str, rule):
    """``rule`` applied to a parser over ``text``, which it must read whole."""
    parser = Parser(lex(text, path))
    node = rule(parser)
    parser.want(parser.i, "EOF", what)
    return node


def parse_module(text: str, path: str = "<input>") -> SourceModule:
    return _parse(text, path, "module", lambda p: p.parse_module(path))


def parse_term(text: str, path: str = "<input>") -> Term:
    return _parse(text, path, "term", Parser.parse_term)


def parse_classifier(text: str, path: str = "<input>") -> Union[Type, Kind]:
    return _parse(text, path, "classifier", Parser.parse_classifier)
