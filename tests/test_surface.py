"""Surface syntax: parse/pretty round-trips, lexer alias invariance, the
lexer against a reference lexer, and positioned parse errors."""

import ast
import gc
import glob
import hashlib
import os
import random
import re
import subprocess
import sys

import pytest

from cdle import surface
from cdle.erasure import erase
from cdle.pretty import pretty
from cdle.reduction import normalize
from cdle.surface import (
    _KEYWORDS,
    ParseError,
    RawDef,
    SourceModule,
    lex,
    parse_classifier,
    parse_module,
    parse_term,
)
from cdle.syntax import (
    App,
    Eq,
    Kind,
    Node,
    Span,
    TAppE,
    Term,
    TVar,
    Type,
    Var,
    alpha_eq,
    promote_skeleton,
    recast_skeleton,
)
from conftest import CORPUS, NEGATIVE, NEGATIVE_FILES, REPO, parse_type_expr
from gen import corpus_mutants, gen_kind, gen_term, gen_type


def reparse(x):
    text = pretty(x)
    if isinstance(x, Kind):
        return parse_classifier(text)
    if isinstance(x, Type):
        return parse_type_expr(text)
    return parse_term(text)


def test_roundtrip_corpus(corpus_defs):
    for path, d in corpus_defs:
        c2 = parse_classifier(pretty(d.classifier))
        assert alpha_eq(d.classifier, c2), f"{d.name} classifier roundtrip ({path})"
        if d.body is None:
            continue
        if isinstance(d.body, Type):
            b2 = parse_type_expr(pretty(d.body))
        else:
            b2 = parse_term(pretty(d.body))
        assert alpha_eq(d.body, b2), f"{d.name} body roundtrip ({path})"


def test_roundtrip_random_syntax_500():
    rng = random.Random(2026)
    done = 0
    for i in range(500):
        kind = i % 3
        if kind == 0:
            x = gen_term(rng, 4)
        elif kind == 1:
            x = gen_type(rng, 4)
        else:
            x = gen_kind(rng, 3)
        y = reparse(x)
        assert alpha_eq(x, y), f"roundtrip failed for {pretty(x)!r}"
        done += 1
    assert done == 500


def test_ascii_alias_invariance_corpus(corpus_defs):
    """Replacing every Unicode token by its ASCII alias yields an
    identical AST."""
    for _, d in corpus_defs:
        uni = parse_classifier(pretty(d.classifier))
        asc = parse_classifier(pretty(d.classifier, ascii_only=True))
        assert uni == asc, f"{d.name} classifier alias mismatch"
        if d.body is None:
            continue
        if isinstance(d.body, Type):
            uni_b = parse_type_expr(pretty(d.body))
            asc_b = parse_type_expr(pretty(d.body, ascii_only=True))
        else:
            uni_b = parse_term(pretty(d.body))
            asc_b = parse_term(pretty(d.body, ascii_only=True))
        assert uni_b == asc_b, f"{d.name} body alias mismatch"


def test_ascii_alias_invariance_random():
    rng = random.Random(77)
    for _ in range(200):
        x = gen_term(rng, 4)
        assert parse_term(pretty(x)) == parse_term(pretty(x, ascii_only=True))


def test_module_shape_and_multibinders():
    mod = parse_module(
        """
import base.
K ◂ ∀ A : ★. ∀ B : ★. A ➔ B ➔ A = Λ A, B. λ x, y. x.
""",
        "<m>",
    )
    assert mod.imports == ["base"]
    assert [d.name for d in mod.defs] == ["K"]
    # multi-binders desugar to nested binders
    alt = parse_module(
        "import base.\nK ◂ ∀ A : ★. ∀ B : ★. A ➔ B ➔ A = Λ A. Λ B. λ x. λ y. x.\n",
        "<m2>",
    )
    assert alpha_eq(mod.defs[0].body, alt.defs[0].body)
    assert alpha_eq(mod.defs[0].classifier, alt.defs[0].classifier)


def test_shared_classifier_binder_group():
    a = parse_type_expr("Π xs, ys : T. xs ≃ ys")
    b = parse_type_expr("Π xs : T. Π ys : T. xs ≃ ys")
    assert alpha_eq(a, b)


def test_missing_terminator_is_positioned_error():
    with pytest.raises(ParseError) as exc:
        parse_module("x ◂ T = λ y. y", "<m>")
    assert "<m>" in str(exc.value)


def test_parse_error_reports_expected_set():
    with pytest.raises(ParseError) as exc:
        parse_module("x ◂ = λ y. y.", "<m>")
    assert "expected" in str(exc.value) or "unexpected" in str(exc.value)


def test_comments_run_to_end_of_line():
    mod = parse_module("x ◂ T = λ y. y. // goal comment ≃ with symbols\n", "<m>")
    assert mod.defs[0].name == "x"


def test_erased_application_forms():
    t = parse_term("f -X a -(g b) -(List · A) -β")
    assert pretty(t)  # printable
    t2 = parse_term(pretty(t))
    assert alpha_eq(t, t2)


def test_an_erased_argument_is_a_term_or_a_type_node():
    """An erased argument the parser cannot sort is its term skeleton (a
    ``Var``, ``App`` or ``Lam``); a projection stays a term and a product
    is a type."""
    from cdle.syntax import App, EApp, Lam, Pi, Proj, Var

    shapes = [("f -x", Var), ("f -(g x)", App), ("f -(λ y. g y)", Lam), ("f -x.1", Proj), ("f -(Nat ➔ Nat)", Pi)]
    for text, cls in shapes:
        t = parse_term(text)
        assert type(t) is EApp and t.fn == Var("f") and type(t.arg) is cls, text
        assert alpha_eq(parse_term(pretty(t)), t)
    assert parse_term("f -x").arg == Var("x") and parse_term("f -(g x)").arg == App(Var("g"), Var("x"))
    assert parse_term("f -x.1").arg == Proj(Var("x"), 1)


def test_guided_rho_syntax_roundtrip():
    t = parse_term("ρ q { h . Vec · A h } - x")
    assert t.hole == "h" and t.template is not None
    assert alpha_eq(t, parse_term(pretty(t)))


def test_arrow_resugaring():
    """Π, ∀ and kind Π print by one rule: an unused binder resugars to ➔,
    or ➾ for a ∀ over a term, a ∀ over a type never does, and the
    domain prints by its own sort."""
    cases = {
        "Π x : A. B": ("A ➔ B", "A -> B"),
        "∀ x : A. B": ("A ➾ B", "A => B"),
        "Π x : A. B x": ("Π x : A. B x", "Pi x : A. B x"),
        "∀ X : ★. B": ("∀ X : ★. B", "All X : Star. B"),
        "Π x : A. ★": ("A ➔ ★", "A -> Star"),
        "Π X : ★. ★": ("★ ➔ ★", "Star -> Star"),
        "Π X : ★ ➔ ★. a ≃ b ➔ ★": ("(★ ➔ ★) ➔ (a ≃ b) ➔ ★", "(Star -> Star) -> (a == b) -> Star"),
        "Π x : A ➔ B. Π y : P x. ★": ("Π x : A ➔ B. P x ➔ ★", "Pi x : A -> B. P x -> Star"),
        "(Π x : A. B) ➾ F · A a": ("(A ➔ B) ➾ F · A a", "(A -> B) => F @ A a"),
    }
    for text, spellings in cases.items():
        c = parse_classifier(text)
        assert (pretty(c), pretty(c, ascii_only=True)) == spellings, text
        assert alpha_eq(parse_classifier(spellings[1]), c), text


def test_printing_depth_is_pinned():
    """The printer recurses three frames per application level of a pure
    term, and the benchmark pins that depth from both sides.  In a fresh
    interpreter, as each benchmark sample runs, at the recursion limit
    that importing ``cdle`` sets, the normal forms of reduce-stress's
    ``mul 40 40`` (1,600 levels) and ``exp 2 10`` (1,024 levels) print
    and re-parse α-equal, and that of ``exp 3 7`` (2,187 levels) raises
    RecursionError.  A printer that takes more frames per level breaks
    the first two; one that takes fewer breaks the benchmark's
    expectation of the third, which an explicit-stack printer flips
    together with this assertion."""
    script = r"""
from cdle.erasure import erase
from cdle.pretty import pretty
from cdle.reduction import normalize
from cdle.surface import parse_term
from cdle.syntax import alpha_eq

def numeral(n):
    return "(λ f. λ x. " + "f (" * n + "x" + ")" * n + ")"

mul, exp = "(λ m. λ n. λ f. m (n f))", "(λ m. λ n. n m)"
for op, m, n in ((mul, 40, 40), (exp, 2, 10), (exp, 3, 7)):
    nf = normalize(erase(parse_term(f"{op} {numeral(m)} {numeral(n)}"))).result
    try:
        text = pretty(nf)
    except RecursionError:
        print("RecursionError")
        continue
    print(alpha_eq(erase(parse_term(text)), nf))
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["True", "True", "RecursionError"]


def test_long_spines_print_by_a_loop():
    """The printer reads an application spine by a loop: a term spine of
    10,000 arguments, annotated and as a normal form, and a type spine of
    10,000 arguments print and re-parse α-equal."""
    text = "f" + " x" * 10_000
    t = parse_term(text)
    assert pretty(t) == pretty(normalize(erase(t)).result) == text
    ty = parse_type_expr("F" + " · A x" * 5_000)
    assert alpha_eq(parse_type_expr(pretty(ty)), ty)


def test_underscore_binds_everywhere_and_round_trips():
    """``_`` may be written as any binder, and what it binds prints and
    re-parses α-equal: a Π over ``_`` is printed as an arrow, and since
    no name can refer to ``_``, that arrow means the same Π."""
    types = [
        "Π _ : Nat. Bool ➔ Nat",
        "Π m : Nat. Bool ➔ NatP m",
        "∀ _ : ★. ∀ _ : Nat. ι _ : Nat. Nat",
        "λ _ : Nat. Nat",
    ]
    for text in types:
        ty = parse_type_expr(text)
        assert alpha_eq(reparse(ty), ty), text
    assert pretty(parse_type_expr(types[0])) == "Nat ➔ Bool ➔ Nat"
    for text in ["λ _. λ m. m", "Λ _. λ _ : Nat. zero", "ρ q { _ . Nat } - t"]:
        t = parse_term(text)
        assert alpha_eq(reparse(t), t), text
    kind = parse_classifier("Π _ : Nat. Π _ : ★. ★")
    assert alpha_eq(reparse(kind), kind)


@pytest.mark.parametrize(
    "parse, text, col",
    [
        (parse_type_expr, "Π _ : Nat. Bool ➔ NatP _", 24),
        (parse_type_expr, "_ ➔ Nat", 1),
        (parse_type_expr, "Vec · _ n", 7),
        (parse_term, "λ m. λ b. _", 11),
        (parse_term, "f -_", 4),
        (parse_term, "f (g _)", 6),
        (parse_module, "_ ◂ ★ = Nat.", 1),
    ],
)
def test_underscore_is_never_a_name_used(parse, text, col):
    """``_`` as a variable, a type variable, an erased argument or a
    definition's name is a parse error at its position."""
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"<input>:1:{col}: '_' can only be a binder"


# -- the lexer against a reference lexer --------------------------------------

# One regex alternative per token kind, tried in order at each position;
# blanks and comments are lexed as tokens and dropped.
_REFERENCE_SPEC = [
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
_REFERENCE_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _REFERENCE_SPEC))


def reference_lex(text: str, filename: str = "<input>") -> list[tuple[str, str, int, int]]:
    """Each token's row: kind, lexeme, line and column, EOF last."""
    rows = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", Span(filename, line, col))
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "IDENT" and lexeme in _KEYWORDS:
            kind = _KEYWORDS[lexeme]
        if kind not in ("WS", "COMMENT"):
            rows.append((kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    rows.append(("EOF", "", line, col))
    return rows


def _lexed(text):
    """``lex``'s token rows for ``text``, or its error message."""
    try:
        toks = lex(text, "<f>")
    except ParseError as e:
        return str(e)
    assert len(toks) == len(toks.kinds) == len(toks.lexemes) == len(toks.starts)
    spans = [toks.span(i) for i in range(len(toks))]
    assert {span.file for span in spans} == {"<f>"}
    return [(kind, lexeme, span.line, span.col) for kind, lexeme, span in zip(toks.kinds, toks.lexemes, spans)]


def _reference_lexed(text):
    try:
        return reference_lex(text, "<f>")
    except ParseError as e:
        return str(e)


LEXER_EDGE_CASES = [
    "x. // a ≃ b",
    "x. // a ≃ b\n",
    "x ◂ T\r\n  = λ y.\r\n y.\r\n",
    "// only\n// comments",
    "// only\n// comments\n",
    "",
    "  \n\t ",
    "sigma-sym x",
    "sigma -sym",
    "sigma-symx sigma-sy sigma_x xsigma-sym",
    "a.1.2",
    "a.12",
    "Star Pi All \\ /\\ iota -> => == <| rho phi beta sigma-sym @ import",
    "★ Π ∀ λ Λ ι ➔ ➾ ≃ ◂ ρ φ β ς ·",
    "==> -> - => = /\\x //\\",
    "x %",
    "f\n  (g é)",
    "x\u00a0y",
]


def _source_files():
    """Every corpus and negative file: its path relative to the
    repository, and its text."""
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.cdl")) + glob.glob(os.path.join(NEGATIVE, "*.cdl"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.relpath(path, REPO), fh.read()


def _printed_terms():
    """300 seeded ``gen_term`` samples, each printed in Unicode and in
    ASCII."""
    rng = random.Random(4)
    for _ in range(300):
        t = gen_term(rng, 4)
        yield pretty(t)
        yield pretty(t, ascii_only=True)


def _lexer_inputs():
    for _, text in _source_files():
        yield text
    yield from _printed_terms()
    yield from LEXER_EDGE_CASES


def test_lexer_matches_reference_lexer():
    texts = list(_lexer_inputs())
    assert len(texts) == 10 + NEGATIVE_FILES + 600 + len(LEXER_EDGE_CASES)
    # and a bad character after a comment, after blanks, and as the last
    # character after a comment
    texts += ["x // a b\n%", "x  \n  %", "x // a\n// b\né"]
    for text in texts:
        assert _lexed(text) == _reference_lexed(text), repr(text)


def test_lex_builds_nothing_per_token():
    """``lex`` returns parallel lists of strings and integers: nothing
    reachable from its result is a tuple (a token or a position)."""
    toks = lex(" ".join(text for _, text in _source_files()))
    assert len(toks) > 10_000
    tuples, todo, seen = 0, [toks], set()
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        tuples += isinstance(x, tuple)
        todo.extend(gc.get_referents(x))
    assert tuples == 0


def test_lex_makes_no_python_call_per_token():
    """Lexing calls no Python-level function per token: the ``call``
    events a profiler sees while ``lex`` runs are as many for 2,000
    tokens as for 1,000, on a line and across lines."""

    def calls(text):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        sys.setprofile(profile)
        try:
            lex(text)
        finally:
            sys.setprofile(None)
        return count

    def text(n):
        return "f" + " x" * (n // 2 - 1) + "\n x" * (n // 2)

    assert len(lex(text(1000))) == 1001 and len(lex(text(2000))) == 2001
    fewer, more = calls(text(1000)), calls(text(2000))
    assert fewer == more


def _digest_inputs():
    """The parser and path for each input that the parse digests cover:
    the corpus and negative files, the lexer's edge cases, the printed
    terms of ``_lexer_inputs`` and 400 seeded one-token corpus mutants
    written with blanks and one token per line."""
    for path, text in _source_files():
        yield parse_module, text, path
    for text in LEXER_EDGE_CASES:
        yield parse_module, text, "<edge>"
    for text in _printed_terms():
        yield parse_term, text, "<term>"
    for sep in (" ", "\n"):
        for text in corpus_mutants(CORPUS, random.Random(27), 400, sep):
            yield parse_module, text, "<mutant>"


def _parse_outcome(parse, text, path):
    """The parse of ``text`` written out with every node's class, fields
    and span and every definition's span, or the ParseError."""
    try:
        x = parse(text, path)
    except ParseError as e:
        return e
    out = []

    def write(v):
        if isinstance(v, Node):
            out.append(type(v).__name__ + "(")
            for f in v.__match_args__:
                write(getattr(v, f))
            out.append(")")
        elif isinstance(v, (RawDef, SourceModule, list)):
            out.append(type(v).__name__ + "(")
            for w in v:
                write(w)
            out.append(")")
        else:
            out.append(repr(v) + " ")

    write(x)
    return "ok " + "".join(out)


# sha256 of the verdicts and parses below, NUL-separated, from the parser
# as it was before its classifier rules moved onto the term loop's
# explicit stack; and of the error messages, from the one parse loop
PARSE_DIGEST = "19eab711cbd800b29f741e544cd622feb9260266d2c5aacbda1360ea0c91bb36"
PARSE_ERROR_DIGEST = "dfe222751442721ea68bb50a4b68a646de25fcd26365286e11b634a55545e13d"


def test_parses_and_parse_errors_are_unchanged():
    """For each of ``_digest_inputs``, its verdict and, for a parse, every
    node, field and span hash to ``PARSE_DIGEST``; the error messages, in
    order, hash to ``PARSE_ERROR_DIGEST``.  An edit to those files or
    generators changes the digests too."""
    outcomes = [_parse_outcome(*args) for args in _digest_inputs()]
    assert len(outcomes) == 10 + NEGATIVE_FILES + len(LEXER_EDGE_CASES) + 600 + 800
    verdicts = ["error" if isinstance(x, ParseError) else x for x in outcomes]
    errors = [str(x) for x in outcomes if isinstance(x, ParseError)]
    assert hashlib.sha256("\0".join(verdicts).encode()).hexdigest() == PARSE_DIGEST
    assert hashlib.sha256("\0".join(errors).encode()).hexdigest() == PARSE_ERROR_DIGEST


def test_unexpected_character_is_positioned():
    with pytest.raises(ParseError) as exc:
        lex("x %", "<f>")
    assert str(exc.value) == "<f>:1:3: unexpected character '%'"


# -- nesting --------------------------------------------------------------------


def test_deep_term_nesting_is_a_positioned_error():
    parse_term("(" * 2000 + "x" + ")" * 2000)
    parse_term("λ x. " * 2000 + "x")
    with pytest.raises(ParseError) as exc:
        parse_term("(" * 10_000 + "x" + ")" * 10_000)
    assert str(exc.value).startswith("<input>:1:2501: nested more than 2500 levels deep")


# Each construct that nests: its parser, its text n levels deep, and the
# offset of the token that opens frame k, from 0 (in "nested arrows" the
# ∀ opens frame 0).
NESTINGS = {
    "term parentheses": (parse_term, lambda n: "(" * n + "x" + ")" * n, lambda k: k),
    "λ binders": (parse_term, lambda n: "λ x. " * n + "x", lambda k: 5 * k),
    "annotated λ": (parse_term, lambda n: "λ x : A. " * n + "x", lambda k: 9 * k),
    "Λ binders": (parse_term, lambda n: "Λ X. " * n + "x", lambda k: 5 * k),
    "ρ": (parse_term, lambda n: "ρ q - " * n + "x", lambda k: 6 * k),
    "pairs": (parse_term, lambda n: "[x, " * n + "x" + "]" * n, lambda k: 4 * k),
    "erased arguments": (parse_term, lambda n: "f -(" * n + "x" + ")" * n, lambda k: 4 * k + 3),
    "parenthesized types": (parse_classifier, lambda n: "(" * n + "A" + ")" * n, lambda k: k),
    "nested arrows": (
        parse_classifier,
        lambda n: "∀ A : ★. " + "(A ➔ " * n + "A" + ")" * n,
        lambda k: 9 + 5 * (k - 1),
    ),
    "Π chains": (parse_classifier, lambda n: "Π x : A. " * n + "A", lambda k: 9 * k),
    "∀ chains": (parse_classifier, lambda n: "∀ X : ★. " * n + "X", lambda k: 9 * k),
    "type-level λ": (parse_classifier, lambda n: "λ X. " * n + "X", lambda k: 5 * k),
}


def test_every_construct_nests_to_one_cap():
    """Each construct that nests parses 2,000 levels deep and, 10,000
    levels deep, is the one positioned error at the level past the cap;
    an arrow chain of 10,000 arrows is no nesting and parses.  All of it
    runs under a recursion limit of 1,000, so no rule recurses per
    level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for name, (parse, text, at) in NESTINGS.items():
            parse(text(2_000))
            with pytest.raises(ParseError) as exc:
                parse(text(10_000))
            assert str(exc.value) == f"<input>:1:{at(2_500) + 1}: nested more than 2500 levels deep", name
        ty = parse_classifier("A ➔ " * 10_000 + "A")
        for _ in range(10_000):
            ty = ty.cod
        assert ty == parse_type_expr("A")
    finally:
        sys.setrecursionlimit(limit)


def test_skeletons_recast_long_spines():
    """A 10,000-argument skeleton spine is recast both ways by a loop, and
    a classifier with such a spine on either side of ≃ parses."""
    def walk(x):  # each node down the spine: its class, span and argument
        while hasattr(x, "fn"):
            yield type(x), x.span, x.arg
            x = x.fn
        yield type(x), x.span, x.name

    spine = "F" + " a" * 10_000
    t = parse_term(spine)
    ty = recast_skeleton(t)
    assert alpha_eq(promote_skeleton(t), ty) and alpha_eq(recast_skeleton(ty), t)
    other = {App: TAppE, Var: TVar, TAppE: App, TVar: Var}
    for x, y in ((t, ty), (ty, recast_skeleton(ty))):
        assert [(other[c], *rest) for c, *rest in walk(x)] == list(walk(y))
    for text in (spine + " ≃ x", "x ≃ " + spine):
        assert type(parse_classifier(text)) is Eq
    assert recast_skeleton(parse_term("f -x " + "a " * 10_000)) is None


def test_the_parser_raises_no_error_it_catches(monkeypatch):
    """The parser decides each construct by its tokens, with no trial
    parse: parsing the corpus and negative files constructs no
    ParseError, and each digest input that fails constructs exactly one."""
    made = []
    init = ParseError.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ParseError, "__init__", counted)
    for path, text in _source_files():
        parse_module(text, path)
    assert made == []
    for args in _digest_inputs():
        del made[:]
        outcome = _parse_outcome(*args)
        assert len(made) == isinstance(outcome, ParseError), args[1]


def test_the_parser_has_no_try_statement():
    """No error is caught in the parser: ``surface.py`` has no ``try``."""
    with open(surface.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, tries)] == []
