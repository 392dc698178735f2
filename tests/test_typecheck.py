"""Typechecker behavior: kind/type synthesis and checking examples, the
rewrite primitive, the negative suite, weakening, and determinism."""

import json
import os

import pytest

from cdle.corpus import negative_expectations
from cdle.loader import load_program
from cdle.surface import parse_term, parse_type_expr
from cdle.syntax import Eq, Pi, Star, TermBind, TVar, free_vars
from cdle.typecheck import CheckError, Checker, ErrorCode, check_defs

from conftest import CORPUS, NEGATIVE


# --- kind synthesis ---------------------------------------------------------


def test_infer_kind_examples(checked_corpus):
    ck, _ = checked_corpus
    assert isinstance(ck.infer_kind(parse_type_expr("List · Nat")), Star)
    assert isinstance(ck.infer_kind(parse_type_expr("Vec · Nat zero")), Star)
    # equality type formation on a typed term
    with ck._with(TermBind("x", TVar("Bool"))):
        assert isinstance(ck.infer_kind(parse_type_expr("x ≃ x")), Star)


def test_infer_kind_rejects_wrong_argument(checked_corpus):
    ck, _ = checked_corpus
    with pytest.raises(CheckError) as e:
        ck.infer_kind(parse_type_expr("Nat · Nat"))
    assert e.value.code == ErrorCode.NotAFunction


# --- term synthesis ---------------------------------------------------------


def test_infer_projection(checked_corpus):
    ck, _ = checked_corpus
    # first projection of a literal intersection type
    with ck._with(TermBind("p", parse_type_expr("ι z : Bool. Unit"))):
        t1 = ck.infer_term(parse_term("p.1"))
        assert ck.types_conv(t1, parse_type_expr("Bool"))
    # first projection of the derived dependent pair
    sig = parse_type_expr("Sigma · Nat · (λ n : Nat. Unit)")
    with ck._with(TermBind("p", sig)):
        t1 = ck.infer_term(parse_term("proj1 -Nat -(λ n : Nat. Unit) p"))
        assert ck.types_conv(t1, parse_type_expr("Nat"))


def test_infer_symmetry_on_reflexivity(checked_corpus):
    ck, _ = checked_corpus
    with ck._with(TermBind("q", parse_type_expr("zero ≃ zero"))):
        ty = ck.whnf_type(ck.infer_term(parse_term("ς q")))
        assert isinstance(ty, Eq)


def test_infer_v2l_pres_len_statement(checked_corpus):
    ck, _ = checked_corpus
    with ck._with(TermBind("xs", parse_type_expr("Vec · Nat zero"))):
        ty = ck.infer_term(parse_term("v2lPresLen -Nat -zero xs"))
        want = parse_type_expr("zero ≃ (len -Nat (v2l -Nat -zero xs))")
        assert ck.types_conv(ty, want)


def test_implicit_function_applied_explicitly(checked_corpus):
    ck, _ = checked_corpus
    with pytest.raises(CheckError) as e:
        ck.infer_term(parse_term("zero zero"))
    assert e.value.code == ErrorCode.NotAFunction


# --- checking ---------------------------------------------------------------


def test_check_nil_constructor(checked_corpus):
    ck, _ = checked_corpus
    ck.check_term(parse_term("Λ A. Λ X. λ cN. λ cC. cN"),
                  parse_type_expr("∀ A : ★. ListC · A"))


def test_erased_var_occurs_free(checked_corpus):
    ck, _ = checked_corpus
    with pytest.raises(CheckError) as e:
        ck.check_term(parse_term("Λ x. x"), parse_type_expr("∀ x : Nat. Nat"))
    assert e.value.code == ErrorCode.ErasedVarOccursFree


def test_intersection_erasure_mismatch(checked_corpus):
    ck, _ = checked_corpus
    with pytest.raises(CheckError) as e:
        ck.check_term(
            parse_term("[ Λ X. λ a. λ b. a , Λ X. λ a. λ b. b ]"),
            parse_type_expr("ι z : Bool. Bool"),
        )
    assert e.value.code == ErrorCode.IntersectionErasureMismatch


def test_check_zero_cost_conversion_shape(checked_corpus):
    ck, _ = checked_corpus
    ck.check_term(
        parse_term("Λ A. Λ n. λ xs. φ (v2lId -A -n xs) - (v2l -A -n xs) { xs }"),
        parse_type_expr("∀ A : ★. ∀ n : Nat. Vec · A n ➔ List · A"),
    )


def test_beta_against_definitionally_equal_sides(checked_corpus):
    ck, _ = checked_corpus
    # add zero n reduces to n
    with ck._with(TermBind("n", TVar("Nat"))):
        ck.check_term(parse_term("β"), parse_type_expr("(add zero n) ≃ n"))


# --- conversion -------------------------------------------------------------


def test_type_level_beta_conversion(checked_corpus):
    ck, _ = checked_corpus
    a = parse_type_expr("(λ A : ★. List · A) · Bool")
    b = parse_type_expr("List · Bool")
    assert ck.types_conv(a, b)


def test_distinct_heads_not_convertible(checked_corpus):
    ck, _ = checked_corpus
    with ck._with(TermBind("n", TVar("Nat"))):
        assert not ck.types_conv(parse_type_expr("Vec · Nat n"), parse_type_expr("List · Nat"))


def test_index_conversion_through_add_zero(checked_corpus):
    ck, _ = checked_corpus
    with ck._with(TermBind("n", TVar("Nat"))):
        a = parse_type_expr("Vec · Nat (add zero n)")
        b = parse_type_expr("Vec · Nat n")
        assert ck.types_conv(a, b)
    # oracle for the same fact, by brute-force evaluation of closed instances
    from cdle.erasure import erase
    from oracle import oracle_normalize

    for k in range(4):
        closed_a = ck.pure_of(parse_term("add zero " + "(suc " * k + "zero" + ")" * k))
        closed_b = ck.pure_of(parse_term("(suc " * k + "zero" + ")" * k))
        nf_a, *_ = oracle_normalize(closed_a, 10_000)
        nf_b, *_ = oracle_normalize(closed_b, 10_000)
        from cdle.syntax import alpha_eq

        assert alpha_eq(nf_a, nf_b)


def test_products_not_interchangeable(checked_corpus):
    ck, _ = checked_corpus
    a = parse_type_expr("Π x : Nat. Nat")
    b = parse_type_expr("∀ x : Nat. Nat")
    assert not ck.types_conv(a, b)


# --- rho --------------------------------------------------------------------


def test_rho_rewrites_expected_type(checked_corpus):
    ck, _ = checked_corpus
    # goal Vec A (add n m) rewritten by n ≃ len (v2l xs)
    env = [
        TermBind("n", TVar("Nat")),
        TermBind("m", TVar("Nat")),
        TermBind("xs", parse_type_expr("Vec · Bool n")),
        TermBind("q", parse_type_expr("n ≃ (len -Bool (v2l -Bool -n xs))")),
        TermBind("v", parse_type_expr("Vec · Bool (add (len -Bool (v2l -Bool -n xs)) m)")),
    ]
    saved = ck.ctx
    try:
        for e in env:
            ck.ctx = ck.ctx.extend(e)
        ck.check_term(parse_term("ρ q - v"), parse_type_expr("Vec · Bool (add n m)"))
    finally:
        ck.ctx = saved


def test_rho_no_occurrence(checked_corpus):
    ck, _ = checked_corpus
    saved = ck.ctx
    try:
        ck.ctx = ck.ctx.extend(TermBind("q", parse_type_expr("zero ≃ zero")))
        with pytest.raises(CheckError) as e:
            ck.check_term(parse_term("ρ q - β"), parse_type_expr("unit ≃ unit"))
        assert e.value.code == ErrorCode.RhoNoOccurrence
    finally:
        ck.ctx = saved


def test_guided_rho(checked_corpus):
    ck, _ = checked_corpus
    saved = ck.ctx
    try:
        ck.ctx = ck.ctx.extend(TermBind("n", TVar("Nat")))
        ck.ctx = ck.ctx.extend(TermBind("q", parse_type_expr("n ≃ (add zero n)")))
        ck.ctx = ck.ctx.extend(TermBind("v", parse_type_expr("Vec · Bool (add zero n)")))
        ck.check_term(
            parse_term("ρ q { h . Vec · Bool h } - v"),
            parse_type_expr("Vec · Bool n"),
        )
    finally:
        ck.ctx = saved


# --- modules ----------------------------------------------------------------


NEG_EXPECT = negative_expectations(NEGATIVE)


@pytest.mark.parametrize("stem,want", sorted(NEG_EXPECT.items()))
def test_negative_suite(stem, want):
    assert len(NEG_EXPECT) == len([f for f in os.listdir(NEGATIVE) if f.endswith(".cdl")]) == 11
    defs = load_program([f"negative/{stem}.cdl"], root=CORPUS)
    ck, report = check_defs(defs)
    bad = [r for r in report.results if not r.ok]
    assert len(bad) == 1, f"exactly the mutated definition must fail: {[r.name for r in bad]}"
    assert bad[0].name.lower() == "bad"
    assert bad[0].code == want


def test_checker_continues_after_failure():
    src = """
Nat' ◂ ★ = ∀ X : ★. X ➔ (X ➔ X) ➔ X.
broken ◂ Nat' = missing.
ok ◂ Nat' = Λ X. λ z. λ s. z.
uses ◂ Nat' = broken.
"""
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "m.cdl")
        with open(p, "w") as fh:
            fh.write(src)
        _, report = check_defs(load_program([p]))
    by_name = {r.name: r for r in report.results}
    assert not by_name["broken"].ok
    assert by_name["ok"].ok
    # later definitions may use the declared classifier of a failed one
    assert by_name["uses"].ok


def test_mutated_definition_failure_is_isolated():
    """Dropping an argument from the cons constructor fails exactly that
    entry among all definitions that use only its declared classifier.
    (The derived eliminator also fails, because its packing proof
    genuinely consults |consL|; everything else keeps checking.)"""
    import os
    import tempfile

    src_list = open(os.path.join(CORPUS, "list.cdl"), encoding="utf-8").read()
    broken = src_list.replace(
        "Λ A. λ x. λ xs. [ consC -A x xs.1 , Λ Q. λ qN. λ qC. qC -xs.1 x (xs.2 -Q qN qC) ]",
        "Λ A. λ x. λ xs. [ consC -A x xs.1 , Λ Q. λ qN. λ qC. qC -xs.1 x ]",
    )
    assert broken != src_list
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "list.cdl"), "w", encoding="utf-8") as fh:
            fh.write(broken)
        defs = load_program([os.path.join(d, "list.cdl")], root=CORPUS)
        _, report = check_defs(defs)
    bad = {r.name for r in report.results if not r.ok}
    assert "consL" in bad
    assert bad <= {"consL", "elimList"}, f"unexpected cascade: {bad}"
    ok = {r.name for r in report.results if r.ok}
    # classifier-only dependents keep checking
    assert {"packL", "packWitL", "packEqL", "packPrfL", "len"} <= ok


def test_mutated_body_fails_exactly_one_entry():
    """When dependents use only the declared classifier, exactly the
    mutated entry fails."""
    import os
    import tempfile

    src = """
Box ◂ ★ = ∀ X : ★. (∀ Y : ★. Y ➔ Y) ➔ X ➔ X.
mk ◂ Box = Λ X. λ f. λ x. f -X x.
use ◂ Box ➔ Box = λ b. b.
"""
    # drop an argument from mk's body: no longer an X
    broken = src.replace("λ f. λ x. f -X x", "λ f. λ x. f -X")
    # sanity: the unbroken module typechecks
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "ok.cdl")
        with open(p, "w") as fh:
            fh.write(src)
        _, rep_ok = check_defs(load_program([p]))
    assert rep_ok.ok
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "m.cdl")
        with open(p, "w") as fh:
            fh.write(broken)
        _, report = check_defs(load_program([p]))
    bad = [r.name for r in report.results if not r.ok]
    assert bad == ["mk"]


def test_empty_module_passes():
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "empty.cdl")
        with open(p, "w") as fh:
            fh.write("// nothing here\n")
        _, report = check_defs(load_program([p]))
    assert report.ok and report.results == []


def test_weakening_sampled(corpus_defs):
    """A corpus judgement still holds after inserting an unused fresh
    binding into the context."""
    import random

    rng = random.Random(13)
    sample = rng.sample(range(len(corpus_defs)), 8)
    for idx in sorted(sample):
        prefix = corpus_defs[: idx + 1]
        ck = Checker()
        _, report = check_defs(prefix[:-1], ck)
        assert report.ok
        ck.ctx = ck.ctx.extend(TermBind("weakening%fresh", TVar("Unit") if "Unit" in ck.ctx else parse_type_expr("∀ X : ★. X ➔ X")))
        file, d = prefix[-1]
        _, rep2 = check_defs([(file, d)], ck)
        assert rep2.ok, f"weakening broke {d.name}"


def test_substitution_property_on_corpus_applications(checked_corpus):
    """For an accepted application f a, the synthesized type is the
    codomain instantiated with a (up to conversion)."""
    from cdle.syntax import App, Pi, subst1

    ck, _ = checked_corpus
    samples = [
        "suc zero",
        "add zero",
        "len -Unit (nilL -Unit)",
        "consL -Unit unit (nilL -Unit)",
        "v2l -Unit -zero (nilV -Unit)",
    ]
    for s in samples:
        t = parse_term(s)
        ty = ck.infer_term(t)
        if isinstance(t, App):
            fn_ty = ck.whnf_type(ck.infer_term(t.fn))
            assert isinstance(fn_ty, Pi)
            assert ck.types_conv(ty, subst1(fn_ty.cod, fn_ty.name, t.arg))


def test_check_module_determinism(corpus_defs):
    r1 = check_defs(corpus_defs, Checker())[1].render()
    r2 = check_defs(corpus_defs, Checker())[1].render()
    assert r1 == r2
    # negative reports are byte-identical too (canonicalized messages)
    defs = load_program(["negative/phi_mismatch.cdl"], root=CORPUS)
    n1 = check_defs(defs, Checker())[1].render()
    n2 = check_defs(defs, Checker())[1].render()
    assert n1 == n2


def test_expansion_avoids_capturing_a_free_parameter():
    """|f| mentions the parameter ``a``; expanding f under g's binder
    ``a`` must rename the binder rather than capture the parameter."""
    import os
    import tempfile

    from cdle.reduction import normalize
    from cdle.syntax import PLam, PVar, alpha_eq

    src = """
import base.
a ◂ Nat.
f ◂ Nat ➔ Nat = λ x. a.
g ◂ Nat ➔ Nat = λ a. f a.
"""
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "m.cdl")
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(src)
        ck, report = check_defs(load_program([p], root=CORPUS))
    assert report.ok
    nf = normalize(ck.pure_env["g"]).result
    assert alpha_eq(nf, PLam("a1", PVar("a")))


def test_conversions_unfold_globals_as_expansion_does(monkeypatch):
    """Every side of every conversion the corpus check makes, normalized
    both ways: the erasure with the definitions it mentions expanded
    (``pure_of``), and the plain erasure with ``pure_env`` as the
    machine's globals.  The two agree on the normal form and on beta and
    eta, and where a side takes two or more beta steps, both exhaust at
    the same counts with one step less fuel."""
    from cdle.corpus import load_checked_corpus
    from cdle.erasure import erase
    from cdle.reduction import Fuel, normalize

    sides = {}
    conv = Checker.terms_conv

    def recording(self, a, b):
        sides.update(dict.fromkeys((a, b)))
        return conv(self, a, b)

    monkeypatch.setattr(Checker, "terms_conv", recording)
    ck, report = load_checked_corpus(CORPUS)
    monkeypatch.undo()
    assert report.ok and len(sides) > 100
    for x in sides:
        expanded, plain = ck.pure_of(x), erase(x)
        by_expansion = normalize(expanded, ck.fuel)
        by_unfolding = normalize(plain, ck.fuel, ck.pure_env)
        assert by_unfolding == by_expansion
        if by_expansion.beta_steps > 1:
            short = Fuel(by_expansion.beta_steps - 1)
            a, b = normalize(expanded, short), normalize(plain, short, ck.pure_env)
            assert a.fuel_exhausted and b.fuel_exhausted
            assert (a.beta_steps, a.eta_steps) == (b.beta_steps, b.eta_steps)


def test_bodyless_parameter_stays_a_neutral_head():
    """A parameter has no body, so it is not in ``pure_env`` and the
    machine leaves it neutral while it unfolds the definitions around it."""
    import os
    import tempfile

    from cdle.erasure import erase
    from cdle.reduction import normalize
    from cdle.syntax import PApp, PVar

    src = """
import base.
p ◂ Nat ➔ Nat.
f ◂ Nat ➔ Nat = λ x. p x.
"""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.cdl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(src)
        ck, report = check_defs(load_program([path], root=CORPUS))
    assert report.ok and "p" not in ck.pure_env
    out = normalize(erase(parse_term("f z")), ck.fuel, ck.pure_env)
    assert out.result == PApp(PVar("p"), PVar("z")) and out.beta_steps == 1
    assert ck.terms_conv(parse_term("f"), parse_term("p"))


def test_local_binder_shadowing_a_global_is_a_variable():
    """A λ-bound ``zero`` is the local variable in conversions and ρ, not
    the global ``zero`` unfolded: otherwise ``allZero`` would prove every
    ``Nat`` equal to zero.  Named ``n``, the binder gives the same errors."""
    import tempfile

    src = """
import base.
z0 ◂ Nat = Λ X. λ z. λ s. z.
allZero ◂ Π {x} : Nat. {x} ≃ z0 = λ {x}. β.
rw ◂ Π {x} : Nat. Π q : z0 ≃ {x}. {x} ≃ {x} = λ {x}. λ q. ρ q - β.
"""
    for x in ("zero", "n"):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.cdl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(src.format(x=x))
            ck, report = check_defs(load_program([path], root=CORPUS))
        codes = {r.name: r.code for r in report.results if r.file == path}
        assert codes == {"z0": None, "allZero": "TypeMismatch", "rw": "RhoNoOccurrence"}, x
        assert ck.defs is ck.pure_env and "zero" in ck.pure_env


def test_same_named_binders_are_opened_fresh_when_a_global_owns_the_name():
    """Conversion compares two binders of one name without substituting,
    except when a definition owns the name: there the bound ``zero`` must
    not unfold to the global ``zero``, or ``bad`` would check.  Named
    ``n``, the binders take the shortcut and give the same verdicts."""
    import tempfile

    src = """
import base.
z0 ◂ Nat = Λ X. λ z. λ s. z.
bad ◂ (Π {x} : Nat. {x} ≃ z0) ➔ (Π {x} : Nat. z0 ≃ z0) = λ f. f.
ok ◂ (Π {x} : Nat. {x} ≃ z0) ➔ (Π {x} : Nat. {x} ≃ z0) = λ f. f.
"""
    for x in ("zero", "n"):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.cdl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(src.format(x=x))
            _, report = check_defs(load_program([path], root=CORPUS))
        codes = {r.name: r.code for r in report.results if r.file == path}
        assert codes == {"z0": None, "bad": "TypeMismatch", "ok": None}, x


def _pi_chain(names, last):
    T = TVar(last)
    for n in reversed(names):
        T = Pi(n, TVar("A"), T)
    return T


def test_same_named_binder_chains_convert_without_substituting(monkeypatch):
    """Two separately built ``Π x0 : A. … Π x299 : A. A`` convert with no
    call into substitution, within the interpreter's default recursion
    limit; renamed binders still take one fresh variable per level."""
    import sys

    import cdle.syntax

    calls = []
    real = cdle.syntax.subst_syntax

    def counted(x, env):
        calls.append(env)
        return real(x, env)

    monkeypatch.setattr(cdle.syntax, "subst_syntax", counted)
    k = 300
    xs = [f"x{i}" for i in range(k)]
    ys = [f"y{i}" for i in range(k)]
    ck = Checker()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert ck.types_conv(_pi_chain(xs, "A"), _pi_chain(xs, "A"))
        assert not ck.types_conv(_pi_chain(xs, "A"), _pi_chain(xs, "B"))
    finally:
        sys.setrecursionlimit(limit)
    assert calls == []
    assert ck.types_conv(_pi_chain(xs, "A"), _pi_chain(ys, "A"))
    assert len(calls) == 2 * k
    assert not ck.types_conv(_pi_chain(xs, "A"), _pi_chain(ys, "B"))


# --- ρ's one-pass rewrite against the three helpers it replaced


def reference_replace_pure(t, pat, rep):
    """ρ's occurrence replacement as it was before ``_rewrite_nf``: freshen
    the binders named free in ``pat`` or ``rep``, then replace maximal
    α-matches of ``pat``; returns the pure result and the match count."""
    from cdle.syntax import PApp, PLam, alpha_eq, free_vars

    t = reference_freshen_binders(t, free_vars(pat) | free_vars(rep))
    count = [0]

    def go(x):
        if alpha_eq(x, pat):
            count[0] += 1
            return rep
        if isinstance(x, PLam):
            return PLam(x.name, go(x.body))
        if isinstance(x, PApp):
            return PApp(go(x.fn), go(x.arg))
        return x

    return go(t), count[0]


def reference_freshen_binders(t, avoid):
    from cdle.syntax import PApp, PLam, PVar, fresh_name

    def go(x, env):
        if isinstance(x, PVar):
            return PVar(env.get(x.name, x.name))
        if isinstance(x, PApp):
            return PApp(go(x.fn, env), go(x.arg, env))
        if x.name in avoid:
            nn = fresh_name(x.name)
            return PLam(nn, go(x.body, {**env, x.name: nn}))
        return PLam(x.name, go(x.body, {k: v for k, v in env.items() if k != x.name}))

    return go(t, {})


def reference_inject_pure(t):
    from cdle.syntax import App, Lam, PLam, PVar, Var

    if isinstance(t, PVar):
        return Var(t.name)
    if isinstance(t, PLam):
        return Lam(t.name, reference_inject_pure(t.body))
    return App(reference_inject_pure(t.fn), reference_inject_pure(t.arg))


def _assert_rewrite_matches_reference(t, pat, rep, got):
    from cdle.syntax import syntax_alpha_eq

    want, n = reference_replace_pure(t, pat, rep)
    assert got[1] == n
    assert syntax_alpha_eq(got[0], reference_inject_pure(want))


def test_rho_rewrite_matches_reference_on_corpus_check(corpus_defs, monkeypatch):
    """Every ``(term, pattern, replacement)`` that ρ rewrites while the
    corpus is checked afresh gives the reference's term, up to α, and
    its match count."""
    import cdle.typecheck

    calls = []
    real = cdle.typecheck._rewrite_nf

    def record(t, pat, rep, avoid):
        out = real(t, pat, rep, avoid)
        if pat is not None:
            calls.append((t, pat, rep, avoid, out))
        return out

    monkeypatch.setattr(cdle.typecheck, "_rewrite_nf", record)
    _, report = check_defs(corpus_defs)
    assert report.ok
    assert len(calls) > 40 and sum(out[1] > 0 for *_, out in calls) > 20
    for t, pat, rep, avoid, out in calls:
        assert avoid == free_vars(pat) | free_vars(rep)
        _assert_rewrite_matches_reference(t, pat, rep, out)


def test_rho_rewrite_matches_reference_on_seeded_terms():
    """Seeded open terms, each rewritten at a pattern taken from its own
    subterms: a pattern naming a variable bound above it matches nowhere
    under that binder."""
    import random

    from cdle.syntax import pure_subterms
    from cdle.typecheck import _rewrite_nf
    from gen import gen_pure_open

    rng = random.Random(1306)
    matched = 0
    for _ in range(400):
        t = gen_pure_open(rng, 30)
        pat = rng.choice(list(pure_subterms(t)))
        rep = gen_pure_open(rng, 8)
        out = _rewrite_nf(t, pat, rep, free_vars(pat) | free_vars(rep))
        _assert_rewrite_matches_reference(t, pat, rep, out)
        matched += out[1] > 0
    assert matched > 200


def test_rho_rewrite_of_a_10000_deep_normal_form():
    """One match per level of 10,000 nested binders, each renamed away
    from the replacement's free name, within the default recursion limit."""
    import sys

    from cdle.syntax import App, Lam, PApp, PLam, PVar, Var
    from cdle.typecheck import _rewrite_nf

    depth = 10_000
    pat, rep = PApp(PVar("f"), PVar("a")), PVar("g")
    t = PVar("a")
    for _ in range(depth):
        t = PLam("g", PApp(PApp(PVar("f"), PVar("a")), t))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out, n = _rewrite_nf(t, pat, rep, frozenset({"f", "a", "g"}))
    finally:
        sys.setrecursionlimit(limit)
    assert n == depth
    for _ in range(depth):
        assert type(out) is Lam and out.name != "g"
        assert type(out.body) is App and out.body.fn == Var("g")
        out = out.body.arg
    assert out == Var("a")
