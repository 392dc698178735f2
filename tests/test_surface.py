"""Surface syntax: parse/pretty round-trips, lexer alias invariance, the
lexer against a reference lexer, and positioned parse errors."""

import glob
import hashlib
import os
import random
import re
import subprocess
import sys

import pytest

from cdle.pretty import pretty
from cdle.surface import (
    _KEYWORDS,
    ParseError,
    RawDef,
    SourceModule,
    Token,
    lex,
    parse_classifier,
    parse_module,
    parse_term,
)
from cdle.syntax import Kind, Node, Span, Term, Type, alpha_eq
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
    that ``normalize`` sets, the normal forms of reduce-stress's
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


def reference_lex(text: str, filename: str = "<input>") -> list[Token]:
    tokens = []
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
            tokens.append(Token(kind, lexeme, Span(filename, line, col)))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("EOF", "", Span(filename, line, col)))
    return tokens


def _lexed(lexer, text):
    """The tokens, or the error message when ``text`` does not lex."""
    try:
        return lexer(text, "<f>")
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
    for text in texts:
        assert _lexed(lex, text) == _lexed(reference_lex, text), repr(text)


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


def _parse_outcome(parse, text, path):
    """The parse of ``text`` written out with every node's class, fields
    and span and every definition's span, or the ParseError's text."""
    try:
        x = parse(text, path)
    except ParseError as e:
        return "error " + str(e)
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


# sha256 of the outcomes below, NUL-separated, from the parser as it was
# before its lexer stopped calling the Token and Span constructors and its
# term loop read names and single-name binders inline
PARSE_DIGEST = "4f44521a7597065517c45a7086a7a6ed7f8dec4b38ce999481a21a30d8d7f196"


def test_parses_and_parse_errors_are_unchanged():
    """Every span and every ParseError message, over the corpus and
    negative files, the lexer's edge cases, the printed terms of
    ``_lexer_inputs`` and 400 seeded one-token corpus mutants written
    with blanks and one token per line, hashes to ``PARSE_DIGEST``.  An
    edit to those files or generators changes the digest too."""
    outcomes = [_parse_outcome(parse_module, text, path) for path, text in _source_files()]
    outcomes += [_parse_outcome(parse_module, text, "<edge>") for text in LEXER_EDGE_CASES]
    outcomes += [_parse_outcome(parse_term, text, "<term>") for text in _printed_terms()]
    for sep in (" ", "\n"):
        for text in corpus_mutants(CORPUS, random.Random(27), 400, sep):
            outcomes.append(_parse_outcome(parse_module, text, "<mutant>"))
    assert len(outcomes) == 10 + NEGATIVE_FILES + len(LEXER_EDGE_CASES) + 600 + 800
    digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    assert digest == PARSE_DIGEST


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
    assert str(exc.value).startswith("<input>:1:2501: term nested more than 2500 levels deep")


def test_deep_type_nesting_is_a_positioned_error():
    with pytest.raises(ParseError) as exc:
        parse_type_expr("(" * 10_000 + "A" + ")" * 10_000)
    assert str(exc.value).startswith("<input>:1:")
    assert "nested too deeply" in str(exc.value)
