"""Typechecker behavior: kind/type synthesis and checking examples, the
rewrite primitive, the negative suite, weakening, and determinism."""

import gc
import json
import os
from contextlib import contextmanager

import pytest

from cdle.corpus import corpus_paths, negative_expectations
from cdle.loader import load_program
from cdle.surface import parse_term
from cdle.syntax import Bind, Eq, Kind, Pi, Star, TVar, free_names
from cdle.typecheck import CheckError, Checker, ErrorCode, ModuleError, check_defs

from conftest import CLASSIFIER_FAILS, CORPUS, NEGATIVE, NEGATIVE_FILES, parse_type_expr, reparsed


@contextmanager
def _bound(ck, *entries):
    """Run a block with ``entries`` in ``ck``'s scope under their own
    names, none of them already bound (``Checker._with`` would rename
    one that was)."""
    for e in entries:
        assert e.name not in ck.ctx
        ck.ctx[e.name] = e
    try:
        yield
    finally:
        for e in entries:
            del ck.ctx[e.name]


# --- kind synthesis ---------------------------------------------------------


def test_infer_kind_examples(checked_corpus):
    ck, _ = checked_corpus
    assert isinstance(ck.infer_kind(parse_type_expr("List · Nat")), Star)
    assert isinstance(ck.infer_kind(parse_type_expr("Vec · Nat zero")), Star)
    # equality type formation on a typed term
    with _bound(ck, Bind("x", TVar("Bool"))):
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
    with _bound(ck, Bind("p", parse_type_expr("ι z : Bool. Unit"))):
        t1 = ck.infer_term(parse_term("p.1"))
        assert ck.types_conv(t1, parse_type_expr("Bool"))
    # first projection of the derived dependent pair
    sig = parse_type_expr("Sigma · Nat · (λ n : Nat. Unit)")
    with _bound(ck, Bind("p", sig)):
        t1 = ck.infer_term(parse_term("proj1 -Nat -(λ n : Nat. Unit) p"))
        assert ck.types_conv(t1, parse_type_expr("Nat"))


def test_infer_symmetry_on_reflexivity(checked_corpus):
    ck, _ = checked_corpus
    with _bound(ck, Bind("q", parse_type_expr("zero ≃ zero"))):
        ty = ck.whnf_type(ck.infer_term(parse_term("ς q")))
        assert isinstance(ty, Eq)


def test_infer_v2l_pres_len_statement(checked_corpus):
    ck, _ = checked_corpus
    with _bound(ck, Bind("xs", parse_type_expr("Vec · Nat zero"))):
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
    with _bound(ck, Bind("n", TVar("Nat"))):
        ck.check_term(parse_term("β"), parse_type_expr("(add zero n) ≃ n"))


# --- conversion -------------------------------------------------------------


def test_type_level_beta_conversion(checked_corpus):
    ck, _ = checked_corpus
    a = parse_type_expr("(λ A : ★. List · A) · Bool")
    b = parse_type_expr("List · Bool")
    assert ck.types_conv(a, b)


def test_distinct_heads_not_convertible(checked_corpus):
    ck, _ = checked_corpus
    with _bound(ck, Bind("n", TVar("Nat"))):
        assert not ck.types_conv(parse_type_expr("Vec · Nat n"), parse_type_expr("List · Nat"))


def test_index_conversion_through_add_zero(checked_corpus):
    ck, _ = checked_corpus
    with _bound(ck, Bind("n", TVar("Nat"))):
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
        Bind("n", TVar("Nat")),
        Bind("m", TVar("Nat")),
        Bind("xs", parse_type_expr("Vec · Bool n")),
        Bind("q", parse_type_expr("n ≃ (len -Bool (v2l -Bool -n xs))")),
        Bind("v", parse_type_expr("Vec · Bool (add (len -Bool (v2l -Bool -n xs)) m)")),
    ]
    with _bound(ck, *env):
        ck.check_term(parse_term("ρ q - v"), parse_type_expr("Vec · Bool (add n m)"))


def test_rho_no_occurrence(checked_corpus):
    ck, _ = checked_corpus
    with _bound(ck, Bind("q", parse_type_expr("zero ≃ zero"))):
        with pytest.raises(CheckError) as e:
            ck.check_term(parse_term("ρ q - β"), parse_type_expr("unit ≃ unit"))
        assert e.value.code == ErrorCode.RhoNoOccurrence


def test_guided_rho(checked_corpus):
    ck, _ = checked_corpus
    with _bound(
        ck,
        Bind("n", TVar("Nat")),
        Bind("q", parse_type_expr("n ≃ (add zero n)")),
        Bind("v", parse_type_expr("Vec · Bool (add zero n)")),
    ):
        ck.check_term(
            parse_term("ρ q { h . Vec · Bool h } - v"),
            parse_type_expr("Vec · Bool n"),
        )


# --- modules ----------------------------------------------------------------


NEG_EXPECT = negative_expectations(NEGATIVE)


@pytest.mark.parametrize("stem,want", sorted(NEG_EXPECT.items()))
def test_negative_suite(stem, want):
    assert len(NEG_EXPECT) == len([f for f in os.listdir(NEGATIVE) if f.endswith(".cdl")]) == NEGATIVE_FILES
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
        ck.ctx["weakening%fresh"] = Bind("weakening%fresh", TVar("Unit") if "Unit" in ck.ctx else parse_type_expr("∀ X : ★. X ➔ X"))
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
    """Two checks of one program, the second of freshly parsed copies of
    its modules, so that it replays nothing, render byte-identically."""
    r1 = check_defs(corpus_defs, Checker())[1].render()
    r2 = check_defs(reparsed(corpus_defs), Checker())[1].render()
    assert r1 == r2
    # negative reports are byte-identical too (canonicalized messages)
    defs = load_program(["negative/phi_mismatch.cdl"], root=CORPUS)
    n1 = check_defs(defs, Checker())[1].render()
    n2 = check_defs(reparsed(defs), Checker())[1].render()
    assert n1 == n2


def test_a_corpus_check_leaves_no_cycles_to_the_collector(corpus_defs):
    """Loading the corpus and checking it, replaying nothing, leaves
    almost nothing for the cyclic collector: the recursive inner
    functions of the loader, of substitution and of ρ's rewrite do not
    keep their closures, and what those reached, in reference cycles."""
    defs = reparsed(corpus_defs)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        load_program(corpus_paths(CORPUS))
        ok = check_defs(defs, Checker())[1].ok
        left = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert ok and left < 100, left


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


def test_an_erased_skeleton_is_read_at_the_sort_its_product_asks_for(tmp_path):
    """``-(F zero)`` and ``-(suc zero)`` both parse to an ``App``; the
    first instantiates a type binder and the second a term binder.  A
    term that is no skeleton, given for a type binder, is a TypeMismatch."""
    from cdle.syntax import App

    path = tmp_path / "m.cdl"
    path.write_text("""
import base.
F ◂ Nat ➔ ★ = λ n : Nat. Nat.
idT ◂ ∀ X : ★. X ➔ X = Λ X. λ x. x.
idE ◂ ∀ n : Nat. Nat ➔ Nat = Λ n. λ x. x.
useT ◂ F zero ➔ F zero = idT -(F zero).
useE ◂ Nat ➔ Nat = idE -(suc zero).
bad ◂ Nat ➔ Nat = idT -β.
""", encoding="utf-8")
    defs = load_program([str(path)], root=CORPUS)
    bodies = {d.name: d.body for _, d in defs}
    assert type(bodies["useT"].arg) is App and type(bodies["useE"].arg) is App
    _, report = check_defs(defs)
    got = {r.name: (r.code, r.message) for r in report.results if r.name in ("useT", "useE", "bad")}
    assert got == {
        "useT": (None, ""),
        "useE": (None, ""),
        "bad": ("TypeMismatch", "expected an erased type argument, found a term"),
    }


def test_conversions_unfold_globals_as_expansion_does(corpus_defs, monkeypatch):
    """Every side of every conversion a check of freshly parsed corpus
    modules makes, normalized both ways: the erasure with the
    definitions it mentions expanded (``pure_of``), and the plain erasure
    with ``pure_env`` as the machine's globals.  The two agree on the
    normal form and on beta and eta, and where a side takes two or more
    beta steps, both exhaust at the same counts with one step less fuel."""
    from cdle.erasure import erase
    from cdle.reduction import Fuel, normalize

    sides = {}
    conv = Checker.terms_conv

    def recording(self, a, b, *site):
        sides.update(dict.fromkeys((a, b)))
        return conv(self, a, b, *site)

    monkeypatch.setattr(Checker, "terms_conv", recording)
    ck, report = check_defs(reparsed(corpus_defs))
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
    ``Nat`` equal to zero.  So is a ``zero`` bound in a goal that ρ
    rewrites before opening it, or ``rwGoal`` would prove the same.
    Named ``n``, the binder gives the same errors."""
    import tempfile

    src = """
import base.
z0 ◂ Nat = Λ X. λ z. λ s. z.
allZero ◂ Π {x} : Nat. {x} ≃ z0 = λ {x}. β.
rw ◂ Π {x} : Nat. Π q : z0 ≃ {x}. {x} ≃ {x} = λ {x}. λ q. ρ q - β.
refl0 ◂ z0 ≃ z0 = β.
rwGoal ◂ Π {x} : Nat. {x} ≃ z0 = ρ refl0 - λ {x}. β.
"""
    for x in ("zero", "n"):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.cdl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(src.format(x=x))
            ck, report = check_defs(load_program([path], root=CORPUS))
        codes = {r.name: r.code for r in report.results if r.file == path}
        want = {"z0": None, "allZero": "TypeMismatch", "rw": "RhoNoOccurrence", "refl0": None, "rwGoal": "TypeMismatch"}
        assert codes == want, x
        assert "zero" in ck.pure_env


def test_every_binder_opening_may_reuse_a_name_in_scope(tmp_path):
    """Each kind of binder the checker opens (kind, type and term λ, Π,
    ∀ over a term and over a type, ι, Λ over either) may reuse the name
    of an outer binder or of a global: the checker renames it apart, and
    these definitions check.  The ErasedVarOccursFree message still
    names the binder as written, and an error at an occurrence of a
    renamed variable keeps that occurrence's span."""
    good = [
        "lam ◂ Nat ➔ Bool ➔ Bool = λ x. λ x. x.",
        "elamK ◂ ∀ X : ★. ∀ Y : ★. Y ➔ Y = Λ X. Λ X. λ x. x.",
        "lamAnn ◂ Nat ➔ Bool ➔ Bool = λ x. (λ x : Bool. x).",
        "tlamK ◂ ★ ➔ ★ ➔ ★ = λ X. λ X. X.",
        "kpiK ◂ Π X : ★. Π X : ★. ★ = λ X. λ X. X.",
        "tlam ◂ Π x : Nat. Π x : Bool. ★ = λ x. λ x. Unit.",
        "global ◂ Π zero : Nat. zero ≃ zero = λ zero. β.",
        "globalT ◂ ∀ Nat : ★. Nat ➔ Nat = Λ Nat. λ x. x.",
        "elam ◂ ∀ x : Nat. ∀ x : Bool. Nat = Λ x. Λ x. zero.",
        "inter ◂ ι x : Nat. ι x : Nat. Nat = [zero, [zero, zero]].",
        "inferLam ◂ Bool = (λ x : Nat. λ x : Bool. x) zero tt.",
        "inferTLamK ◂ ★ = (λ X : ★. λ X : ★. X) · Nat · Bool.",
        "inferTLam ◂ ★ = (λ x : Nat. λ x : Bool. Unit) zero tt.",
    ]
    bad = [
        "bad ◂ Π a : Nat. Π b : Bool. Nat = λ x. λ x. x.",
        "erased ◂ Π x : Nat. ∀ y : Nat. Nat = λ x. Λ x. x.",
    ]
    path = tmp_path / "m.cdl"
    path.write_text("\n".join(["import base."] + bad + good) + "\n", encoding="utf-8")
    _, report = check_defs(load_program([str(path)], root=CORPUS))
    results = {r.name: r for r in report.results if r.file == str(path)}
    codes = {n: r.code for n, r in results.items()}
    assert codes == {"bad": "TypeMismatch", "erased": "ErasedVarOccursFree"} | {
        d.split(" ◂ ")[0]: None for d in good
    }
    assert results["erased"].message == "erased variable 'x' occurs in the erasure of its body"
    assert str(results["bad"].span) == f"{path}:2:46"


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


def test_an_arrow_binds_no_variable_named_underscore():
    """``Bool ➔ NatP m`` under ``Π m : Nat`` checks; written with ``_``
    for ``m``, the arrow's own ``_`` binder used to capture the ``_`` of
    ``NatP _``, so the definition failed with a TypeMismatch.  Now ``_``
    cannot be referred to, and that text is a positioned parse error."""
    import tempfile

    from cdle.surface import ParseError

    base = "import base.\nNatP ◂ Nat ➔ ★ = λ n : Nat. Unit.\n"
    good = "good ◂ Π m : Nat. Bool ➔ NatP m = λ m. λ b. unit.\n"
    bad = "bad ◂ Π _ : Nat. Bool ➔ NatP _ = λ m. λ b. unit.\n"
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.cdl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(base + good)
        _, report = check_defs(load_program([path], root=CORPUS))
        assert report.ok
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(base + bad)
        with pytest.raises(ParseError) as exc:
            load_program([path], root=CORPUS)
    assert str(exc.value) == f"{path}:3:30: '_' can only be a binder"


def _pi_chain(names, last):
    T = TVar(last)
    for n in reversed(names):
        T = Pi(n, TVar("A"), T)
    return T


def test_same_named_binder_chains_convert_without_substituting(monkeypatch):
    """Two separately built ``Π x0 : A. … Π x299 : A. A`` convert with no
    call into substitution, within the interpreter's default recursion
    limit, and so do two chains whose binders are named apart: conversion
    renames the pairs without substituting into the bodies."""
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
        assert ck.types_conv(_pi_chain(xs, "A"), _pi_chain(ys, "A"))
        assert not ck.types_conv(_pi_chain(xs, "A"), _pi_chain(ys, "B"))
    finally:
        sys.setrecursionlimit(limit)
    assert calls == []


def test_a_part_shared_by_binders_named_apart_compares_by_its_names():
    """A subtree that both sides share is taken as converting at once only
    when it mentions no renamed binder: in ``Π x : ★. x`` against
    ``Π y : ★. x`` the shared ``x`` is the bound variable on one side and
    a free name on the other, so the two do not convert; shared parts
    that mention neither name still do."""
    from cdle.syntax import AllK

    shared, other = TVar("x"), TVar("A")
    ck = Checker()
    assert not ck.types_conv(AllK("x", Star(), shared), AllK("y", Star(), shared))
    assert ck.types_conv(AllK("x", Star(), other), AllK("y", Star(), other))
    assert ck.types_conv(AllK("x", Star(), Pi("_", shared, shared)), AllK("x", Star(), Pi("_", shared, shared)))


def test_an_unfolded_body_is_not_read_through_renamed_binders(monkeypatch, tmp_path):
    """A definition unfolded under a renamed binder pair names globals,
    never the bound variables: ``∀ Nat : ★. H`` with ``H := Nat`` is not
    ``∀ Y : ★. Y``, and ``Π G : Nat. H`` with ``H := G`` is ``Π y : Nat.
    G`` for the global ``G``.  Read through the renaming, the first pair
    converted (so ``bad`` inhabited ``∀ Y : ★. Y``) and the second did
    not.  Each verdict holds both ways round and agrees with the
    reference."""
    src = (
        "import base.\nH ◂ ★ = Nat.\nf2 ◂ ∀ Nat : ★. H = Λ X. zero.\n"
        "bad ◂ ∀ Y : ★. Y = f2.\nbot ◂ ∀ Y : ★. Y.\nbad2 ◂ ∀ Nat : ★. H = bot.\n"
        "G ◂ ★ = Nat.\nK ◂ ★ = G.\nf ◂ Π G : Nat. K = λ x. zero.\n"
        "g ◂ Π y : Nat. G = f.\nh ◂ Π G : Nat. K = g.\n"
    )
    path = tmp_path / "m.cdl"
    path.write_text(src, encoding="utf-8")
    defs = load_program([str(path)], root=CORPUS)
    _, report = check_defs(defs)
    codes = {r.name: r.code for r in report.results if r.file == str(path)}
    assert codes == dict.fromkeys("H f2 bot G K f g h".split()) | {"bad": "TypeMismatch", "bad2": "TypeMismatch"}
    _, _, _, mismatches = _replay_against_reference(monkeypatch, defs)
    assert mismatches == []


# --- linear work: the syntax handed to substitution grows linearly in depth


def _nodes(x):
    """The annotated syntax nodes in ``x``."""
    from cdle.syntax import LAYOUT

    n, stack = 0, [x]
    while stack:
        cur = stack.pop()
        if type(cur) in LAYOUT:
            n += 1
            stack += [getattr(cur, c) for c, _ in LAYOUT[type(cur)]]
    return n


def _telescope_work(k, monkeypatch):
    """The syntax nodes that substitution is handed, by call site, while a
    checker (1) checks ``f a … a`` against ``R a … a`` with
    ``f : Π x1 : A. Π x2 : E x1. … Π xk : E x(k-1). R x1 … xk``, (2)
    infers the kind of ``R a … a`` with ``R : Π x1 : A. Π x2 : E x1. … ★``,
    and (3) converts ``Π x1 : A. Π x2 : E x1. … A`` with the same
    telescope in ``y``s.  ``E`` is the family ``λ y : A. A``."""
    import cdle.syntax
    import cdle.typecheck
    from cdle.surface import parse_module

    xs = [f"x{i}" for i in range(1, k + 1)]

    def tele(names, last):
        binders = [f"Π {names[0]} : A."] + [f"Π {n} : E {p}." for p, n in zip(names, names[1:])]
        return " ".join(binders) + " " + last

    src = "A ◂ ★.\na ◂ A.\nE ◂ A ➔ ★ = λ y : A. A.\n"
    src += f"R ◂ {tele(xs, '★')}.\nf ◂ {tele(xs, 'R ' + ' '.join(xs))}.\n"
    ck, report = check_defs([("m.cdl", d) for d in parse_module(src).defs])
    assert report.ok
    args = " ".join(["a"] * k)
    counted = []
    real = cdle.syntax.subst_syntax

    def counting(x, env):
        counted[-1] += _nodes(x)
        return real(x, env)

    with monkeypatch.context() as mp:
        mp.setattr(cdle.syntax, "subst_syntax", counting)
        mp.setattr(cdle.typecheck, "subst_syntax", counting, raising=False)
        for run in (
            lambda: ck.check_term(parse_term(f"f {args}"), parse_type_expr(f"R {args}")),
            lambda: ck.infer_kind(parse_type_expr(f"R {args}")),
            lambda: ck.types_conv(parse_type_expr(tele(xs, "A")), parse_type_expr(tele([f"y{i}" for i in range(k)], "A"))),
        ):
            counted.append(0)
            assert run() in (None, Star(), True)
    return counted


@pytest.mark.parametrize("case", ["application_spine", "kind_of_a_type_spine", "conversion"])
def test_substitution_work_grows_linearly_in_telescope_depth(monkeypatch, case):
    """Checking an application spine against a dependent telescope,
    inferring the kind of a type spine, and converting two telescopes
    named apart each hand substitution O(k) syntax nodes for depth k,
    where instantiating one binder at a time handed it O(k²): from k = 50
    to 200, the count may grow by less than 6 (4 is linear, 16
    quadratic)."""
    i = ["application_spine", "kind_of_a_type_spine", "conversion"].index(case)
    small, big = _telescope_work(50, monkeypatch)[i], _telescope_work(200, monkeypatch)[i]
    assert 0 < small and big < 6 * small, (small, big)


# --- ρ's one-pass rewrite against the three helpers it replaced


def reference_replace_pure(t, pat, rep):
    """ρ's occurrence replacement as it was before ``_rewrite_nf``: freshen
    the binders named free in ``pat`` or ``rep``, then replace maximal
    α-matches of ``pat``; returns the pure result and the match count."""
    from cdle.syntax import PApp, PLam, alpha_eq, free_names

    t = reference_freshen_binders(t, free_names(pat) | free_names(rep))
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
    from cdle.syntax import alpha_eq

    want, n = reference_replace_pure(t, pat, rep)
    assert got[1] == n
    assert alpha_eq(got[0], reference_inject_pure(want))


def test_rho_rewrite_matches_reference_on_corpus_check(corpus_defs, monkeypatch):
    """Every ``(term, pattern, replacement)`` that ρ rewrites while the
    corpus is checked afresh (its modules freshly parsed) gives the
    reference's term, up to α, and its match count."""
    import cdle.typecheck

    calls = []
    real = cdle.typecheck._rewrite_nf

    def record(t, pat, rep, avoid):
        out = real(t, pat, rep, avoid)
        if pat is not None:
            calls.append((t, pat, rep, avoid, out))
        return out

    monkeypatch.setattr(cdle.typecheck, "_rewrite_nf", record)
    _, report = check_defs(reparsed(corpus_defs))
    assert report.ok
    assert len(calls) > 40 and sum(out[1] > 0 for *_, out in calls) > 20
    for t, pat, rep, avoid, out in calls:
        assert avoid == free_names(pat) | free_names(rep)
        _assert_rewrite_matches_reference(t, pat, rep, out)


def test_rho_rewrite_matches_reference_on_seeded_terms():
    """Seeded open terms, each rewritten at a pattern taken from its own
    subterms: a pattern naming a variable bound above it matches nowhere
    under that binder."""
    import random

    from oracle import pure_subterms
    from cdle.typecheck import _rewrite_nf
    from gen import gen_pure_open

    rng = random.Random(1306)
    matched = 0
    for _ in range(400):
        t = gen_pure_open(rng, 30)
        pat = rng.choice(list(pure_subterms(t)))
        rep = gen_pure_open(rng, 8)
        out = _rewrite_nf(t, pat, rep, free_names(pat) | free_names(rep))
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


def test_long_application_spines_check(tmp_path):
    """An application spine costs no recursion in checking or in
    substitution, at a recursion limit of 5,000: ``id -T id …`` with
    8,000 arguments checks and its erasure is expanded, sharing ``id``'s
    entry, and so does ``λ id. id -T id …`` with 3,000, whose binder
    shadows the global ``id`` and is renamed in its body (a renaming that
    recursed once per application ran out of stack there)."""
    import sys

    from cdle.syntax import PApp, PLam, PVar

    T = "(∀ X : ★. X ➔ X)"
    path = tmp_path / "m.cdl"
    path.write_text("\n".join([
        "id ◂ ∀ X : ★. X ➔ X = Λ X. λ x. x.",
        f"big ◂ {T} = id" + f" -{T} id" * 8000 + ".",
        f"shadowed ◂ {T} ➔ {T} = λ id. id" + f" -{T} id" * 3000 + ".",
    ]) + "\n", encoding="utf-8")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5_000)
    try:
        ck, report = check_defs(load_program([str(path)]))
    finally:
        sys.setrecursionlimit(limit)
    assert [(r.name, r.code) for r in report.results] == [("id", None), ("big", None), ("shadowed", None)]
    ident = ck.pure_env["id"]
    assert ident == PLam("x", PVar("x"))
    out = ck.pure_env["big"]
    for _ in range(8000):
        assert type(out) is PApp and out.arg is ident
        out = out.fn
    assert out is ident
    out = ck.pure_env["shadowed"]
    assert type(out) is PLam
    name, out = out.name, out.body
    for _ in range(3000):
        assert out.arg == PVar(name)
        out = out.fn
    assert out == PVar(name)


def _verdicts(defs):
    ck, report = check_defs(defs)
    return [(r.name, r.ok, r.code) for r in report.results], ck.pure_env


def _renamed_both_ways(defs, rng, files=None):
    """``defs`` with every binder of every classifier and body renamed two
    ways: apart (``x`` to ``x_r``), and to a name already bound where it
    stands, an enclosing binder's or an earlier global's that the
    definition does not mention (``Λ zero. Λ suc. …``), which the checker
    must open under a fresh name.  With ``files``, only the definitions
    of those files are renamed."""
    from gen import rename_binders, rename_binders_to_bound

    apart, clashing, earlier = [], [], []
    for file, d in defs:
        if files is not None and file not in files:
            apart.append((file, d))
            clashing.append((file, d))
            earlier.append(d.name)
            continue
        mentioned = free_names(d.classifier) | (free_names(d.body) if d.body is not None else frozenset())
        taken = [n for n in earlier if n not in mentioned]
        for out, rename in (
            (apart, lambda x: rename_binders(x, "_r")),
            (clashing, lambda x: rename_binders_to_bound(x, taken, rng)),
        ):
            body = None if d.body is None else rename(d.body)
            out.append((file, d._replace(classifier=rename(d.classifier), body=body)))
        earlier.append(d.name)
    return apart, clashing


@pytest.mark.parametrize("program", ["corpus", *NEG_EXPECT])
def test_renaming_binders_changes_no_verdict(program, corpus_defs):
    """Renaming bound variables without capture (``_renamed_both_ways``)
    changes no definition's verdict or error code, nor its erasure up to
    α, in the corpus and in each negative program.  Messages may differ
    in names."""
    import random

    from cdle.syntax import alpha_eq

    if program == "corpus":
        defs = corpus_defs
    else:
        defs = load_program([os.path.join(NEGATIVE, f"{program}.cdl")], root=CORPUS)
    want, env = _verdicts(defs)
    apart, clashing = _renamed_both_ways(defs, random.Random(21))
    if program == "corpus":  # the second renaming is not vacuous
        assert clashing != list(defs)
    for renamed in (apart, clashing):
        got, env2 = _verdicts(renamed)
        assert got == want
        assert env2.keys() == env.keys()
        assert [n for n in env if not alpha_eq(env2[n], env[n])] == []


def _verdicts_or_module_error(defs):
    try:
        return _verdicts(defs)[0]
    except ModuleError as e:
        return f"ModuleError: {e}"


def test_renaming_a_mutants_binders_changes_no_verdict(tmp_path):
    """The one-token corpus mutants of
    ``test_check_mutated_corpus_modules_end_with_a_message`` that load,
    each with its own definitions renamed both ways
    (``_renamed_both_ways``): every verdict and error code stays, and a
    program that raises ``ModuleError`` raises the same one.  Messages
    may differ in names."""
    import random

    from cdle.loader import LoadError
    from cdle.surface import ParseError
    from gen import corpus_mutants

    path = str(tmp_path / "mutant.cdl")
    rng = random.Random(24)
    outcomes = []
    for text in corpus_mutants(CORPUS, random.Random(20261019), 100):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            defs = load_program([path], root=CORPUS)
        except (LoadError, ParseError):
            continue
        want = _verdicts_or_module_error(defs)
        for renamed in _renamed_both_ways(defs, rng, {path}):
            assert _verdicts_or_module_error(renamed) == want, text
        outcomes.append(want)
    rejected = [o for o in outcomes if isinstance(o, str) or not all(ok for _, ok, _ in o)]
    assert len(outcomes) > 20 and len(rejected) > 15, (len(outcomes), len(rejected))


def test_check_defs_leaves_only_the_globals_in_scope(tmp_path):
    """After ``check_defs`` returns or raises, the scope of the checker it
    was given holds exactly the definitions checked so far: a definition
    that fails under three binders leaves none of them behind, and
    neither does one nested too deeply to check (the 2,000-level term of
    ``test_check_deep_well_typed_term_exit_two``, at a recursion limit of
    1,000)."""
    import sys

    path = tmp_path / "m.cdl"
    path.write_text("\n".join([
        "Id ◂ ★ = ∀ X : ★. X ➔ X.",
        "id ◂ Id = Λ X. λ x. x.",
        "bad ◂ ∀ X : ★. X ➔ X ➔ X = Λ X. λ x. λ y. z.",
        "k ◂ ∀ X : ★. X ➔ X ➔ X = Λ X. λ x. λ y. x.",
    ]) + "\n", encoding="utf-8")
    ck = Checker()
    _, report = check_defs(load_program([str(path)]), ck)
    assert [r.code for r in report.results] == [None, None, "UnboundName", None]
    assert set(ck.ctx) == {"Id", "id", "bad", "k"}
    deep = tmp_path / "deep.cdl"
    body = "f (" * 1999 + "f x" + ")" * 1999
    deep.write_text(f"c ◂ ∀ A : ★. (A ➔ A) ➔ A ➔ A = Λ A. λ f. λ x. {body}.\n", encoding="utf-8")
    defs = load_program([str(deep)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(ModuleError, match="nested too deeply"):
            check_defs(defs, ck)
    finally:
        sys.setrecursionlimit(limit)
    assert set(ck.ctx) == {"Id", "id", "bad", "k"}


# --- conversion and ρ's type rewrite against the per-class code they replaced


class ReferenceChecker(Checker):
    """A checker whose type and kind conversion and ρ type rewrite are
    those from before ``LAYOUT`` drove them: one case per class."""

    def types_conv(self, A, B):
        from cdle.syntax import All, AllK, Eq, Iota, Kind, Pi, TLam, Var

        A = self.whnf_beta(A)
        B = self.whnf_beta(B)
        if A is B:
            return True

        ha, sa = self._spine(A)
        hb, sb = self._spine(B)
        if isinstance(ha, TVar) and isinstance(hb, TVar):
            if ha.name == hb.name and len(sa) == len(sb):
                if all(self._arg_conv(x, y) for x, y in zip(sa, sb)):
                    return True
            ua, ub = self._unfold_head(A), self._unfold_head(B)
            if ua is None and ub is None:
                return False
            return self.types_conv(ua if ua is not None else A, ub if ub is not None else B)
        if isinstance(ha, TVar):
            ua = self._unfold_head(A)
            return ua is not None and self.types_conv(ua, B)
        if isinstance(hb, TVar):
            ub = self._unfold_head(B)
            return ub is not None and self.types_conv(A, ub)

        if isinstance(A, (Pi, All)) and type(A) is type(B):
            return self._conv_binder(A, B)
        if isinstance(A, AllK) and isinstance(B, AllK):
            if not self.kinds_conv(A.dom, B.dom):
                return False
            return self.types_conv(*self._open(A.name, A.cod, B.name, B.cod, TVar))
        if isinstance(A, Iota) and isinstance(B, Iota):
            if not self.types_conv(A.fst, B.fst):
                return False
            return self.types_conv(*self._open(A.name, A.snd, B.name, B.snd, Var))
        if isinstance(A, Eq) and isinstance(B, Eq):
            return self.terms_conv(A.lhs, B.lhs) and self.terms_conv(A.rhs, B.rhs)
        if isinstance(A, TLam) and isinstance(B, TLam):
            sort = TVar if isinstance(A.ann, Kind) or isinstance(B.ann, Kind) else Var
            return self.types_conv(*self._open(A.name, A.body, B.name, B.body, sort))
        return False

    def _conv_binder(self, A, B):
        from cdle.syntax import Var

        if not self.types_conv(A.dom, B.dom):
            return False
        return self.types_conv(*self._open(A.name, A.cod, B.name, B.cod, Var))

    def _open(self, a, body_a, b, body_b, sort):
        from cdle.syntax import Defn, fresh_name, subst1

        if a == b and not isinstance(self.ctx.get(a), Defn):
            return body_a, body_b
        z = sort(fresh_name(a))
        return subst1(body_a, a, z), subst1(body_b, b, z)

    def _arg_conv(self, x, y):
        from cdle.syntax import Term, Type

        if isinstance(x, Type) and isinstance(y, Type):
            return self.types_conv(x, y)
        if isinstance(x, Term) and isinstance(y, Term):
            return self.terms_conv(x, y)
        return False

    def kinds_conv(self, k1, k2):
        from cdle.syntax import KPi, KPiK, Var

        if isinstance(k1, Star) and isinstance(k2, Star):
            return True
        if isinstance(k1, KPi) and isinstance(k2, KPi):
            if not self.types_conv(k1.dom, k2.dom):
                return False
            return self.kinds_conv(*self._open(k1.name, k1.cod, k2.name, k2.cod, Var))
        if isinstance(k1, KPiK) and isinstance(k2, KPiK):
            if not self.kinds_conv(k1.dom, k2.dom):
                return False
            return self.kinds_conv(*self._open(k1.name, k1.cod, k2.name, k2.cod, TVar))
        return False

    def _rw_type(self, T, pat, rep, counter):
        from cdle.erasure import erase
        from cdle.reduction import normalize
        from cdle.syntax import All, AllK, Iota, TAppE, TAppT, TLam, Var, fresh_name, subst1
        from cdle.typecheck import _out_of_fuel, _rewrite_nf

        avoid = free_names(pat) | free_names(rep)

        def freshen_if(name, under):
            if name in avoid or name in self.pure_env:
                nn = fresh_name(name)
                return nn, subst1(under, name, Var(nn))
            return name, under

        def go_ty(T):
            T = self.whnf_beta(T)
            match T:
                case TVar():
                    return T
                case Pi(name=n, dom=d, cod=c, span=sp):
                    n, c = freshen_if(n, c)
                    return Pi(n, go_ty(d), go_ty(c), sp)
                case All(name=n, dom=d, cod=c, span=sp):
                    n, c = freshen_if(n, c)
                    return All(n, go_ty(d), go_ty(c), sp)
                case AllK(name=n, dom=d, cod=c, span=sp):
                    n, c = freshen_if(n, c)
                    return AllK(n, d, go_ty(c), sp)
                case Iota(name=n, fst=f, snd=s, span=sp):
                    n, s = freshen_if(n, s)
                    return Iota(n, go_ty(f), go_ty(s), sp)
                case TLam(name=n, body=b, ann=a, span=sp):
                    n, b = freshen_if(n, b)
                    return TLam(n, go_ty(b), a, sp)
                case Eq(lhs=a, rhs=b, span=sp):
                    return Eq(go_tm(a), go_tm(b), sp)
                case TAppT(fn=f, arg=a, span=sp):
                    return TAppT(go_ty(f), go_ty(a), sp)
                case TAppE(fn=f, arg=a, span=sp):
                    return TAppE(go_ty(f), go_tm(a), sp)
            return T

        def go_tm(e):
            nf = normalize(erase(e), self.fuel, self.pure_env)
            if nf.fuel_exhausted:
                raise _out_of_fuel("ρ target term", e, "ρ", None)
            rewritten, n = _rewrite_nf(nf.result, pat, rep, avoid)
            if n == 0:
                return e
            counter[0] += n
            return rewritten

        return go_ty(T)


def _reference_for(ck):
    """A reference checker in the state of ``ck``."""
    ref = ReferenceChecker(ck.fuel)
    ref.ctx, ref.pure_env = ck.ctx, ck.pure_env
    return ref


def _outcome(fn, *args):
    """What a call gives: ``("value", v)``, or ``("error", code, e)`` for
    the CheckError ``e`` it raises (the sort error of an ill-sorted
    random type counts as a code too)."""
    try:
        return "value", fn(*args)
    except CheckError as e:
        return "error", e.code, e
    except TypeError as e:
        return "error", str(e), e


def _same(got, want):
    """Whether two outcomes agree: one error code, one verdict, or
    α-equal syntax."""
    from cdle.syntax import alpha_eq

    if got[0] != want[0] or got[0] == "error":
        return got[:2] == want[:2]
    if isinstance(got[1], bool):
        return got[1] is want[1]
    return alpha_eq(got[1], want[1])


def _opened(args):
    """The two sides of a conversion call with the renaming it is under
    (its optional third argument, one map per side) substituted in, as
    the reference opens the binder pairs."""
    from cdle.syntax import subst_syntax

    if len(args) < 3 or args[2] is None:
        return args[:2]
    return tuple(subst_syntax(x, ren) for x, ren in zip(args, args[2]))


def _replay_against_reference(monkeypatch, defs, fuel=None):
    """Check ``defs`` afresh (its modules freshly parsed, so that nothing
    is replayed), repeating every ``types_conv`` and
    ``kinds_conv`` call and every ρ type rewrite on the reference in the
    same checker state, a call under renamed binder pairs with the
    renaming substituted in.  Returns the report, the calls made by name,
    the errors they raised, and every call where the two disagree."""
    from cdle.reduction import Fuel

    calls = {"types_conv": 0, "kinds_conv": 0, "_rw_type": 0}
    errors, mismatches = [], []

    def replayed(name):
        real = getattr(Checker, name)

        def call(self, *args, **at):
            calls[name] += 1
            ref = _reference_for(self)
            if name == "_rw_type":
                T, pat, rep, counter, _ = args
                ref_counter, before = [0], counter[0]
                want = _outcome(ref._rw_type, T, pat, rep, ref_counter)
                got = _outcome(real, self, *args)
                same = _same(got, want) and counter[0] - before == ref_counter[0]
            else:
                want = _outcome(getattr(ref, name), *_opened(args))
                got = _outcome(lambda *a: real(self, *a, **at), *args)
                same = _same(got, want)
            if not same:
                mismatches.append((name, args, got, want))
            if got[0] == "error":
                errors.append(got[1])
                raise got[2]
            return got[1]

        return call

    with monkeypatch.context() as mp:
        for name in calls:
            mp.setattr(Checker, name, replayed(name))
        _, report = check_defs(reparsed(defs), Checker(fuel or Fuel()))
    return report, calls, errors, mismatches


def test_conversion_and_rho_rewrite_match_reference_on_corpus_check(corpus_defs, monkeypatch):
    """Every conversion and ρ type rewrite of a fresh corpus check gives
    the reference's verdict, or its rewritten type up to α with the same
    match count."""
    report, calls, _, mismatches = _replay_against_reference(monkeypatch, corpus_defs)
    assert report.ok
    assert mismatches == []
    assert calls["types_conv"] > 3000 and calls["kinds_conv"] > 1500 and calls["_rw_type"] > 20, calls


def test_conversion_and_rho_rewrite_match_reference_when_checks_fail(corpus_defs, monkeypatch):
    """The same on the corpus checked at too little fuel and on the
    negative suite, where conversions and ρ rewrites also raise: the
    reference raises an error of the same code."""
    from cdle.reduction import Fuel

    raised = set()
    for steps in (40, 60):
        report, _, errors, mismatches = _replay_against_reference(monkeypatch, corpus_defs, Fuel(steps))
        assert not report.ok and mismatches == []
        raised.update(errors)
    for stem in negative_expectations(NEGATIVE):
        defs = load_program([os.path.join(NEGATIVE, f"{stem}.cdl")], root=CORPUS)
        _, _, errors, mismatches = _replay_against_reference(monkeypatch, defs)
        assert mismatches == []
        raised.update(errors)
    assert ErrorCode.FuelExhausted in raised


def test_conversion_matches_reference_on_seeded_pairs():
    """Seeded random types and kinds, each against itself, a
    binder-renamed copy, a copy with one leaf changed and its neighbour;
    ``All`` against ``AllK`` over one codomain; and type-level λs whose
    annotations differ: the same verdict or error as the reference."""
    import random

    from cdle.reduction import Fuel
    from cdle.syntax import All, AllK, TLam
    from gen import change_leaf, count_leaves, gen_kind, gen_type, rename_binders

    rng = random.Random(1402)
    ck = Checker(Fuel(500))
    ref = _reference_for(ck)
    pairs = []
    items = [gen_type(rng, 5) for _ in range(300)] + [gen_kind(rng, 4) for _ in range(150)]
    for i, x in enumerate(items):
        pairs += [(x, x), (x, rename_binders(x, "%r")), (x, items[i - 1])]
        if count_leaves(x):
            pairs.append((x, change_leaf(x, rng.randrange(count_leaves(x)))[0]))
    for _ in range(100):
        cod = gen_type(rng, 3)
        pairs.append((All("s", gen_type(rng, 2), cod), AllK("s", gen_kind(rng, 2), cod)))
        body = gen_type(rng, 3)
        anns = [None, gen_type(rng, 2), gen_kind(rng, 2)]
        pairs.append((TLam("s", body, rng.choice(anns)), TLam("t", rename_binders(body, "%r"), rng.choice(anns))))
        pairs.append((TLam("s", body, rng.choice(anns)), TLam("s", body, rng.choice(anns))))
    verdicts = {True: 0, False: 0}
    for x, y in pairs:
        name = "kinds_conv" if isinstance(x, Kind) else "types_conv"
        got = _outcome(getattr(ck, name), x, y)
        assert _same(got, _outcome(getattr(ref, name), x, y)), (x, y)
        if got[0] == "value":
            verdicts[got[1]] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500, verdicts


def test_rho_type_rewrite_matches_reference_on_seeded_types():
    """Seeded random types rewritten at a name the generator also binds,
    so that binders are renamed away from the pattern and replacement:
    the reference's type up to α, with the same match count."""
    import random

    from cdle.reduction import Fuel
    from cdle.syntax import PApp, PVar
    from gen import TERM_NAMES, gen_type

    rng = random.Random(1403)
    ck = Checker(Fuel(500))
    ref = _reference_for(ck)
    matched = 0
    for _ in range(400):
        T = gen_type(rng, 5)
        pat = PVar(rng.choice(TERM_NAMES))
        rep = PApp(PVar(rng.choice(TERM_NAMES)), PVar("q"))
        got_n, want_n = [0], [0]
        got = _outcome(ck._rw_type, T, pat, rep, got_n)
        assert _same(got, _outcome(ref._rw_type, T, pat, rep, want_n)), T
        assert got_n == want_n
        matched += got_n[0] > 0
    assert matched > 100


# --- replaying the definitions a fresh check recorded -----------------------


def _check_counting(monkeypatch, defs, checker=None):
    """``check_defs(defs, checker)`` with the names of the definitions it
    checks rather than replays, in order, and the ``terms_conv`` and
    ``pure_of`` calls made while checking each, by file."""
    import cdle.typecheck

    checked, calls, current = [], {}, [None]
    real_one, real_conv, real_pure = cdle.typecheck._check_one, Checker.terms_conv, Checker.pure_of

    def check_one(ck, d):
        checked.append(d.name)
        current[0] = d.span.file
        return real_one(ck, d)

    def counted(real):
        def call(self, *args):
            calls[current[0]] = calls.get(current[0], 0) + 1
            return real(self, *args)

        return call

    with monkeypatch.context() as mp:
        mp.setattr(cdle.typecheck, "_check_one", check_one)
        mp.setattr(Checker, "terms_conv", counted(real_conv))
        mp.setattr(Checker, "pure_of", counted(real_pure))
        ck, report = check_defs(defs, checker)
    return checked, calls, ck, report


def test_a_fresh_check_replays_the_prefix_the_last_one_checked(monkeypatch):
    """Two negative files that import ``base``, each loaded and checked
    from a fresh checker: the second replays ``base.cdl``'s 17
    definitions, making no conversion and no expansion for them, and its
    report, scope and ``pure_env`` equal those of a check of freshly
    parsed copies of its modules."""
    base = os.path.join(CORPUS, "base.cdl")
    first = load_program([os.path.join(NEGATIVE, "beta_mismatch.cdl")], root=CORPUS)
    checked, calls, _, _ = _check_counting(monkeypatch, first)
    assert len(checked) == len(first)
    assert calls[base] > 10
    defs = load_program([os.path.join(NEGATIVE, "erased_var.cdl")], root=CORPUS)
    n_base = sum(file == base for file, _ in defs)
    assert n_base == 17 and [d for _, d in defs[:n_base]] == [d for _, d in first[:n_base]]
    checked, calls, ck, report = _check_counting(monkeypatch, defs)
    assert checked == ["bad"] and base not in calls
    fresh, fresh_report = check_defs(reparsed(defs))
    assert report == fresh_report and report.render() == fresh_report.render()
    assert ck.ctx == fresh.ctx and ck.pure_env == fresh.pure_env


def _small_program(tmp_path, text=""):
    path = tmp_path / "m.cdl"
    path.write_text(text + "\n".join([
        "Id ◂ ★ = ∀ X : ★. X ➔ X.",
        "id ◂ Id = Λ X. λ x. x.",
        "bad ◂ Id = Λ X. λ x. y.",
        "k ◂ Id = bad.",
    ]) + "\n", encoding="utf-8")
    return load_program([str(path)])


def test_nothing_replays_from_a_different_text_fuel_path_or_scope(tmp_path, monkeypatch):
    """A program checked again from a fresh checker replays all of it;
    nothing replays once the file's text changed, at a different fuel,
    under a different display path, or into a checker that arrives with
    a scope, as in ``test_weakening_sampled``, which still checks every
    definition under the weakened context.  A call given such a checker
    records nothing, and one under another display path records beside
    the original path's records: in both cases the program checked
    before it still replays whole."""
    from cdle.erasure import erase
    from cdle.reduction import Fuel

    defs = _small_program(tmp_path)
    names = [d.name for _, d in defs]
    assert _check_counting(monkeypatch, defs)[0] == names
    assert _check_counting(monkeypatch, defs)[0] == []
    assert _check_counting(monkeypatch, defs, Checker(Fuel(500)))[0] == names
    assert _check_counting(monkeypatch, defs)[0] == names
    assert _check_counting(monkeypatch, [("other.cdl", d) for _, d in defs])[0] == names
    assert _check_counting(monkeypatch, defs)[0] == []
    weakened = Checker()
    weakened.ctx["weakening%fresh"] = Bind("weakening%fresh", parse_type_expr("∀ X : ★. X ➔ X"))
    checked, _, _, report = _check_counting(monkeypatch, defs, weakened)
    assert checked == names and [r.code for r in report.results] == [None, None, "UnboundName", None]
    with_env = Checker()
    with_env.pure_env["unused"] = erase(parse_term("λ x. x"))
    assert _check_counting(monkeypatch, defs, with_env)[0] == names
    assert _check_counting(monkeypatch, defs)[0] == []
    changed = _small_program(tmp_path, "// a comment\n")
    assert _check_counting(monkeypatch, changed)[0] == names


def _chain(tmp_path, texts):
    """Files ``m0.cdl``, ``m1.cdl``, … holding ``texts``, each importing
    the one before it; returns the last one's path."""
    for i, text in enumerate(texts):
        imports = f"import m{i - 1}.\n" if i else ""
        (tmp_path / f"m{i}.cdl").write_text(imports + text, encoding="utf-8")
    return str(tmp_path / f"m{len(texts) - 1}.cdl")


def test_an_edit_replays_the_files_before_it(tmp_path, monkeypatch):
    """Editing the middle one of three files: the first file's
    definitions replay, and everything from the edited file on is
    checked again."""
    texts = ["T ◂ ★ = ∀ X : ★. X ➔ X.\nt ◂ T = Λ X. λ x. x.\n", "u ◂ T = t.\n", "v ◂ T = u -T u.\n"]
    last = _chain(tmp_path, texts)
    assert _check_counting(monkeypatch, load_program([last]))[0] == ["T", "t", "u", "v"]
    _chain(tmp_path, [texts[0], "u ◂ T = t -T t.\n", texts[2]])
    checked, _, _, report = _check_counting(monkeypatch, load_program([last]))
    assert checked == ["u", "v"] and report.ok


def test_an_edited_file_leaves_no_records_behind(tmp_path, monkeypatch):
    """Editing the first file of a two-file program 200 times, renaming
    its last definition each time, leaves one record per definition of
    the program: replacing a record drops the records after it, so no
    record of an earlier text stays alive."""
    import gc

    import cdle.typecheck

    monkeypatch.setattr(cdle.typecheck, "_checked", {})
    last = _chain(tmp_path, ["T ◂ ★ = ∀ X : ★. X ➔ X.\nt ◂ T = Λ X. λ x. x.\n", "U ◂ ★ = T.\nu ◂ U = Λ X. λ x. x.\n"])
    for i in range(200):
        _chain(tmp_path, [f"T ◂ ★ = ∀ X : ★. X ➔ X.\nt{i} ◂ T = Λ X. λ x. x.\n"])
        assert check_defs(load_program([last]))[1].ok
    gc.collect()
    live = [o for o in gc.get_objects() if isinstance(o, cdle.typecheck._Checked) and str(tmp_path) in o.result.file]
    assert len(cdle.typecheck._checked) == 1 and len(live) == 4


def test_replays_across_programs_equal_fresh_checks(tmp_path, monkeypatch):
    """The corpus, the negative files, 50 one-token corpus mutants that
    load, and the first 10 of them in the corpus, each program twice,
    in a seeded shuffle, each checked from a fresh checker: every
    report, scope and ``pure_env`` equals that of a check of freshly
    parsed copies, and each program's second check replays at least one
    definition."""
    import random

    import cdle.typecheck
    from cdle.corpus import corpus_paths
    from cdle.loader import LoadError
    from cdle.surface import ParseError
    from gen import corpus_mutants

    corpus = load_program(corpus_paths(CORPUS))
    programs = [corpus]
    programs += [load_program([os.path.join(NEGATIVE, f)], root=CORPUS) for f in sorted(os.listdir(NEGATIVE))]
    loaded = 0
    for i, text in enumerate(corpus_mutants(CORPUS, random.Random(20261020), 400)):
        path = tmp_path / f"mutant{i}.cdl"
        path.write_text(text, encoding="utf-8")
        try:
            defs = load_program([str(path)], root=CORPUS)
        except (LoadError, ParseError):
            continue
        programs.append(defs)
        loaded += 1
        if loaded <= 10:
            # spliced into the corpus in place of the module it mutates,
            # which puts the corpus files after it into a scope of its making
            own = [(file, d) for file, d in defs if file == str(path)]
            names = {d.name for _, d in own}
            module = max(corpus_paths(CORPUS), key=lambda m: sum(f == m and d.name in names for f, d in corpus))
            at = next(k for k, (file, _) in enumerate(corpus) if file == module)
            programs.append(corpus[:at] + own + [(file, d) for file, d in corpus[at:] if file != module])
        if loaded == 50:
            break
    assert loaded == 50

    def outcome(defs):
        try:
            ck, report = check_defs(defs)
        except ModuleError as e:
            return str(e)
        return report, report.render(), ck.ctx, ck.pure_env

    want = [outcome(reparsed(defs)) for defs in programs]
    checked = []
    real = cdle.typecheck._check_one

    def counting(ck, d):
        checked.append(d.name)
        return real(ck, d)

    monkeypatch.setattr(cdle.typecheck, "_check_one", counting)
    order = [k for k in range(len(programs)) for _ in range(2)]
    random.Random(26).shuffle(order)
    seen = set()
    for k in order:
        checked.clear()
        assert outcome(programs[k]) == want[k]
        assert k not in seen or len(checked) < len(programs[k])
        seen.add(k)


def test_a_failed_definition_replays_as_failed(tmp_path, monkeypatch):
    """A definition that failed in the replayed prefix comes back with the
    same result and a body-less scope entry, and a later definition
    checks against its declared classifier."""
    from cdle.syntax import Defn

    defs = _small_program(tmp_path)
    _, _, ck1, rep1 = _check_counting(monkeypatch, defs[:3])
    extra = tmp_path / "extra.cdl"
    extra.write_text("k2 ◂ Id = bad.\n", encoding="utf-8")
    longer = defs[:3] + load_program([str(extra)])
    checked, _, ck2, rep2 = _check_counting(monkeypatch, longer)
    assert checked == ["k2"]
    assert rep2.results[:3] == rep1.results and all(a is b for a, b in zip(rep2.results, rep1.results))
    assert rep2.results[2].code == "UnboundName" and rep2.results[3].ok
    assert ck2.ctx["bad"] is ck1.ctx["bad"] and ck2.ctx["bad"] == Defn("bad", defs[2][1].classifier, None)
    assert "bad" not in ck2.pure_env


@pytest.mark.parametrize("case", sorted(CLASSIFIER_FAILS))
def test_a_definition_whose_classifier_fails_is_not_in_scope(tmp_path, case):
    """A definition whose own classifier fails is recorded and left out
    of the scope, so a later use of it is an unbound name; a definition
    whose body fails stays in scope at its classifier."""
    lines = CLASSIFIER_FAILS[case]
    path = tmp_path / "m.cdl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ck, report = check_defs(load_program([str(path)]))
    codes = [r.code for r in report.results]
    assert codes[:-2] == [None] * (len(lines) - 2) and codes[-2] in ("NotAFunction", "UnboundName")
    assert (codes[-1], report.results[-1].message) == ("UnboundName", "unbound name 'f'")
    assert "f" not in ck.ctx and "g" in ck.ctx and ck.ctx["g"].body is None


def test_a_definition_whose_classifier_fails_replays_out_of_scope(tmp_path, monkeypatch):
    """The replay record holds no scope entry for a definition whose
    classifier failed: a program that holds one replays whole, with
    equal results and scope, and a longer one checks only its new part,
    in which a use of that definition is unbound."""
    path = tmp_path / "m.cdl"
    path.write_text("\n".join(CLASSIFIER_FAILS["type_lambda"][:2]) + "\n", encoding="utf-8")
    defs = load_program([str(path)])
    _, _, ck1, rep1 = _check_counting(monkeypatch, defs)
    assert [r.code for r in rep1.results] == [None, "NotAFunction"]
    checked, _, ck2, rep2 = _check_counting(monkeypatch, defs)
    assert checked == [] and rep2 == rep1 and ck2.ctx == ck1.ctx and "f" not in ck2.ctx
    extra = tmp_path / "extra.cdl"
    extra.write_text(CLASSIFIER_FAILS["type_lambda"][2] + "\n", encoding="utf-8")
    checked, _, ck3, rep3 = _check_counting(monkeypatch, defs + load_program([str(extra)]))
    assert checked == ["g"] and rep3.results[:2] == rep1.results
    assert (rep3.results[2].code, rep3.results[2].message) == ("UnboundName", "unbound name 'f'")


def test_a_definition_whose_classifier_fails_still_takes_its_name(tmp_path):
    """A later definition of the name of one whose classifier failed is
    a duplicate, whether checked afresh, replayed, or in an importing
    module."""
    a = tmp_path / "a.cdl"
    a.write_text("\n".join(CLASSIFIER_FAILS["type_lambda"][:2]) + "\n", encoding="utf-8")
    b = tmp_path / "b.cdl"
    b.write_text("import a.\nf ◂ U.\n", encoding="utf-8")
    defs = load_program([str(b)])
    assert [d.name for _, d in defs] == ["U", "f", "f"]
    for _ in range(2):  # checked afresh, then with the first two replayed
        with pytest.raises(ModuleError, match="duplicate top-level name 'f'"):
            check_defs(defs)
        check_defs(defs[:2])


def test_a_module_error_leaves_the_record_as_it_was(tmp_path, monkeypatch):
    """A call that raises ``ModuleError``, for a duplicate name or for a
    definition nested too deeply, spoils no record: after each such
    call the program checked before it still replays whole, and its
    report, scope and ``pure_env`` equal those of a check of freshly
    parsed copies."""
    import sys

    defs = _small_program(tmp_path)
    _check_counting(monkeypatch, defs)
    fresh, fresh_report = check_defs(reparsed(defs))

    def replays_whole():
        checked, _, ck, report = _check_counting(monkeypatch, defs)
        assert checked == [] and report == fresh_report and report.render() == fresh_report.render()
        assert ck.ctx == fresh.ctx and ck.pure_env == fresh.pure_env

    with pytest.raises(ModuleError, match="duplicate"):
        check_defs(defs + defs[1:2])
    replays_whole()
    deep = tmp_path / "deep.cdl"
    body = "f (" * 1999 + "f x" + ")" * 1999
    deep.write_text(f"c ◂ ∀ A : ★. (A ➔ A) ➔ A ➔ A = Λ A. λ f. λ x. {body}.\n", encoding="utf-8")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(ModuleError, match="nested too deeply"):
            check_defs(defs + load_program([str(deep)]))
    finally:
        sys.setrecursionlimit(limit)
    replays_whole()
