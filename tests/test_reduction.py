"""Normalizer behavior: step counts, eta, fuel, and agreement with the
naive substitution-based oracle."""

import random

import pytest

from cdle.reduction import Fuel, FuelExhaustedError, apply_and_count, beta_eta_eq, normalize
from cdle.syntax import PApp, PLam, PVar, alpha_eq, free_vars
from gen import gen_pure


def lam(x, b):
    return PLam(x, b)


def v(x):
    return PVar(x)


def ap(f, *args):
    for a in args:
        f = PApp(f, a)
    return f


IDENT = lam("x", v("x"))
OMEGA = ap(lam("x", ap(v("x"), v("x"))), lam("x", ap(v("x"), v("x"))))


def church(n):
    body = v("z")
    for _ in range(n):
        body = ap(v("s"), body)
    return lam("z", lam("s", body))


def test_single_beta():
    out = normalize(ap(IDENT, v("y")))
    assert out.result == v("y") and out.beta_steps == 1 and out.eta_steps == 0


def test_eta_contraction():
    out = normalize(lam("f", lam("x", ap(v("f"), v("x")))))
    assert alpha_eq(out.result, lam("f", v("f")))
    assert out.beta_steps == 0 and out.eta_steps == 1


def test_omega_exhausts_fuel():
    out = normalize(OMEGA, Fuel(1000))
    assert out.fuel_exhausted and out.result is None
    assert out.beta_steps == 1000


def test_eta_does_not_fire_when_variable_occurs():
    t = lam("x", ap(v("x"), v("x")))
    out = normalize(t)
    assert alpha_eq(out.result, t) and out.eta_steps == 0


def test_normalize_idempotent_on_samples():
    rng = random.Random(3)
    for _ in range(200):
        t = gen_pure(rng, 20)
        first = normalize(t, Fuel(5000))
        if first.fuel_exhausted:
            continue
        again = normalize(first.result, Fuel(5000))
        assert again.beta_steps == 0 and again.eta_steps == 0
        assert alpha_eq(again.result, first.result)


def test_beta_eta_eq_basics():
    assert beta_eta_eq(IDENT, lam("y", ap(lam("z", v("z")), v("y"))))
    assert not beta_eta_eq(lam("x", ap(v("x"), v("x"))), IDENT)


def test_beta_eta_eq_deep_normal_forms():
    """Normal forms 32768 applications deep compare without recursion."""
    deep = v("n")
    for _ in range(32768):
        deep = ap(v("c"), IDENT, deep)
    assert beta_eta_eq(ap(IDENT, deep), deep)


def test_beta_eta_eq_equivalence_sampled():
    rng = random.Random(23)
    terms = []
    while len(terms) < 60:
        t = gen_pure(rng, 14)
        if not normalize(t, Fuel(4000)).fuel_exhausted:
            terms.append(t)
    for t in terms:
        assert beta_eta_eq(t, t, Fuel(4000))
    for a, b in zip(terms, terms[1:]):
        ab = beta_eta_eq(a, b, Fuel(4000))
        assert ab == beta_eta_eq(b, a, Fuel(4000))
    for a, b, c in zip(terms, terms[1:], terms[2:]):
        if beta_eta_eq(a, b, Fuel(4000)) and beta_eta_eq(b, c, Fuel(4000)):
            assert beta_eta_eq(a, c, Fuel(4000))


def test_beta_eta_eq_propagates_fuel_exhaustion():
    with pytest.raises(FuelExhaustedError):
        beta_eta_eq(OMEGA, IDENT, Fuel(100))


def test_eta_soundness_guard_sampled():
    # applying pre- and post-contraction forms to a fresh variable agrees
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        f = gen_pure(rng, 10)
        t = lam("w%fresh", ap(f, v("w%fresh")))
        if "w%fresh" in free_vars(f):
            continue
        pre = ap(t, v("arg%0"))
        post = ap(f, v("arg%0"))
        try:
            assert beta_eta_eq(pre, post, Fuel(4000))
            checked += 1
        except FuelExhaustedError:
            continue


def test_apply_and_count_identity_is_one_step():
    out = apply_and_count(IDENT, [church(8)])
    assert out.beta_steps == 1
    assert alpha_eq(out.result, church(8))


def test_oracle_agreement_1000_terms(oracle_samples):
    """The environment machine and the naive substitution-based reducer
    agree on 1000 random well-scoped terms (size <= 30, fuel 10^4):
    identical normal forms up to alpha, or both fuel-exhausted, with
    identical step counts.  Samples whose textual reduction exceeds a
    desk-scale work budget are discarded before comparison."""
    samples, rejected = oracle_samples
    assert rejected < 500, "generator produced too many monsters"
    accepted = len(samples)
    exhausted = 0
    for nf_o, ob, oe, nf_m in samples:
        assert nf_m.fuel_exhausted == (nf_o is None)
        assert (nf_m.beta_steps, nf_m.eta_steps) == (ob, oe)
        if nf_o is not None:
            assert alpha_eq(nf_m.result, nf_o)
        else:
            exhausted += 1
    assert accepted == 1000
    assert exhausted > 0, "the sample should include divergent terms"
