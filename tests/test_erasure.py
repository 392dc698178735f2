"""Erasure: the compositional equations, scope behavior, the shared
erasures of the corpus constructor pairs, and the transparent-construct
table against the ladder it replaced."""

import random

import pytest

from cdle.erasure import erase
from cdle.reduction import Fuel, beta_eta_eq, normalize
from cdle.surface import parse_term
from cdle.syntax import (
    App,
    Beta,
    ELam,
    EApp,
    IotaPair,
    Lam,
    PApp,
    PLam,
    Phi,
    Proj,
    PVar,
    Rho,
    Sym,
    TAppE,
    TVar,
    Var,
    alpha_eq,
    free_names,
    promote_skeleton,
    subst1,
)


def test_erasure_equations():
    x, y = Var("x"), Var("y")
    assert erase(Beta()) == PLam("x", PVar("x"))
    assert erase(ELam("a", Lam("b", Var("b")))) == PLam("b", PVar("b"))
    assert erase(EApp(x, Var("T"))) == PVar("x")
    assert erase(EApp(x, TVar("T"))) == PVar("x")
    assert erase(Rho(y, x)) == PVar("x")
    assert erase(Phi(y, x, Var("z"))) == PVar("z")
    assert erase(Sym(y)) == PVar("y")
    assert erase(IotaPair(x, y)) == PVar("x")
    assert erase(Proj(x, 1)) == PVar("x")
    assert erase(Proj(x, 2)) == PVar("x")
    assert erase(App(Lam("a", Var("a")), y)) == PApp(PLam("a", PVar("a")), PVar("y"))


def test_erase_pure_injection_is_identity():
    t = parse_term("λ x. λ y. x (λ z. z y)")
    assert alpha_eq(erase(t), erase(t))
    # a pure-shaped annotated term erases to itself structurally
    assert erase(t) == PLam("x", PLam("y", PApp(PVar("x"), PLam("z", PApp(PVar("z"), PVar("y"))))))


def test_erased_binders_never_free_in_corpus(checked_corpus, corpus_defs):
    """For every accepted Λ-introduction the bound name is absent from
    the erasure of its body."""
    from cdle.syntax import Term

    seen = {"nodes": 0, "erased binders": 0}

    def walk(t):
        seen["nodes"] += 1
        if isinstance(t, ELam):
            seen["erased binders"] += 1
            body_fvs = free_names(erase(t.body))
            assert t.name not in body_fvs, f"erased binder {t.name} appears in erasure"
        for field_name in type(t).__slots__:
            sub = getattr(t, field_name)
            if isinstance(sub, Term):
                walk(sub)

    for _, d in corpus_defs:
        if d.body is not None and isinstance(d.body, Term):
            walk(d.body)
    # the walk reaches every term node of the corpus bodies (2,616, of
    # which 251 are Λ), not just each body's root
    assert seen["nodes"] >= 2616 and seen["erased binders"] >= 251, seen


def _explicit_subterms(t, out):
    """``t`` and its term subterms, less the erased arguments that are
    term skeletons (which the checker may read as types)."""
    from cdle.syntax import Term

    if isinstance(t, Term):
        out.append(t)
    for field_name in type(t).__slots__:
        sub = getattr(t, field_name)
        if isinstance(sub, Term) and not (isinstance(t, EApp) and field_name == "arg" and _is_skeleton(sub)):
            _explicit_subterms(sub, out)
    return out


def _is_skeleton(t):
    try:
        promote_skeleton(t)
    except TypeError:
        return False
    return True


def test_erasure_commutes_with_substitution_on_corpus_subterms(corpus_defs):
    """erase(t[x := s]) is alpha-equal to erase(t)[x := erase(s)] for
    explicit term variables, sampled over corpus bodies."""
    from cdle.syntax import Term

    rng = random.Random(41)
    bodies = [d.body for _, d in corpus_defs if isinstance(d.body, Term)]
    # the walk reaches the subterms of every corpus body (1,999), not just the roots
    assert sum(len(_explicit_subterms(body, [])) for body in bodies) >= 1999
    samples = 0
    for body in bodies:
        subs = _explicit_subterms(body, [])
        named = [t for t in subs if free_names(t)]
        if not named:
            continue
        t = rng.choice(named)
        x = sorted(free_names(t))[0]
        s = Var("fresh%sub")
        lhs = erase(subst1(t, x, s))
        rhs = subst1(erase(t), x, PVar("fresh%sub"))
        assert alpha_eq(lhs, rhs)
        samples += 1
        if samples >= 60:
            break
    assert samples >= 30


def test_constructor_erasures_are_closed(checked_corpus):
    ck, _ = checked_corpus
    for name in ("nilL", "consL", "nilV", "consV", "appL", "appV"):
        assert free_names(ck.pure_env[name]) == frozenset(), f"|{name}| is not closed"


def test_nil_erasures_alpha_equal(checked_corpus):
    ck, _ = checked_corpus
    a = normalize(ck.pure_env["nilL"]).result
    b = normalize(ck.pure_env["nilV"]).result
    assert alpha_eq(a, b)


def test_shared_erasures_of_constructor_pairs(checked_corpus):
    ck, _ = checked_corpus
    for a, b in [("nilL", "nilV"), ("consL", "consV"), ("appL", "appV"),
                 ("nilLF", "nilVF"), ("consLF", "consVF")]:
        assert beta_eta_eq(ck.pure_env[a], ck.pure_env[b]), f"|{a}| != |{b}|"


def test_every_corpus_erasure_normalizes(checked_corpus):
    """Soundness spot-check: no accepted definition erases to a term that
    fails to normalize at the default fuel."""
    ck, _ = checked_corpus
    for name, t in ck.pure_env.items():
        out = normalize(t, Fuel(200_000))
        assert not out.fuel_exhausted, f"|{name}| did not normalize"


# --- the transparent-construct table against the ladder it replaced


def reference_erase(t):
    """``erase`` as it was before its table: one match case per construct."""
    out = []
    work = [("go", t)]
    while work:
        frame = work.pop()
        if frame[0] == "lam":
            out.append(PLam(frame[1], out.pop()))
            continue
        if frame[0] == "app":
            arg = out.pop()
            fn = out.pop()
            out.append(PApp(fn, arg))
            continue
        cur = frame[1]
        match cur:
            case Var(name=n):
                out.append(PVar(n))
            case Lam(name=n, body=b):
                work.append(("lam", n))
                work.append(("go", b))
            case ELam(body=b):
                work.append(("go", b))
            case App(fn=f, arg=a):
                work.append(("app",))
                work.append(("go", a))
                work.append(("go", f))
            case EApp(fn=f):
                work.append(("go", f))
            case Beta():
                out.append(PLam("x", PVar("x")))
            case Rho(body=b):
                work.append(("go", b))
            case Phi(target=t2):
                work.append(("go", t2))
            case Sym(proof=q):
                work.append(("go", q))
            case IotaPair(fst=t1):
                work.append(("go", t1))
            case Proj(subj=s):
                work.append(("go", s))
            case _:
                raise TypeError(f"cannot erase {type(cur).__name__}")
    return out[0]


def test_erase_matches_reference(corpus_defs):
    """Every corpus body and each of its explicit subterms, and seeded
    random terms, erase exactly as the reference erases them; values that
    are not terms raise the same error."""
    from cdle.syntax import Star, Term
    from gen import gen_term, gen_type

    terms = [s for _, d in corpus_defs if isinstance(d.body, Term) for s in _explicit_subterms(d.body, [])]
    assert len(terms) > 1500
    rng = random.Random(1401)
    terms += [gen_term(rng, 6) for _ in range(500)]
    for t in terms:
        assert erase(t) == reference_erase(t)
    for x in (TVar("T"), TAppE(TVar("F"), Var("x")), Star(), gen_type(rng, 3), Lam("x", TVar("T"))):
        with pytest.raises(TypeError) as got:
            erase(x)
        with pytest.raises(TypeError) as want:
            reference_erase(x)
        assert str(got.value) == str(want.value)


def test_every_term_class_is_an_explicit_case_or_in_the_table():
    """The four constructs that build pure syntax are ``erase``'s own
    cases; every other ``Term`` class is in ``ERASES_TO``, whose child is
    a term field of the class."""
    import cdle.syntax
    from cdle.erasure import ERASES_TO
    from cdle.syntax import Term

    explicit = {Var, Lam, App, Beta}
    classes = {c for c in vars(cdle.syntax).values() if isinstance(c, type) and issubclass(c, Term) and c is not Term}
    assert len(classes) == 11
    assert classes == explicit | set(ERASES_TO) and not explicit & set(ERASES_TO)
    for cls, child in ERASES_TO.items():
        assert child in cls.__slots__ and cls.__init__.__annotations__[child] == "Term", (cls.__name__, child)
