"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

 1. the full corpus typechecks (>= 45 definitions, < 30 s)
 2. shared-erasure goldens, alpha-exact after βη-normalization
 3. the eight zero-cost identities erase to λ x. x, exactly
 4. cost scaling: linear vs constant, < 10 s
 5. negative suite: >= 8 ill-typed inputs with their specified codes,
    plus the unerased-premise variant failing only the identity golden
 6. normalizer agrees with the naive substitution oracle on 1000 terms
 7. property suites (equivalence laws, substitution, round-trip,
    determinism) are green
"""

import os
import random
import time

import pytest

from cdle.cli import classify_costs
from cdle.corpus import negative_expectations, synth_input_nf, parse_pure
from cdle.loader import load_program
from cdle.reduction import apply_and_count, beta_eta_eq, normalize
from cdle.surface import parse_classifier, parse_term
from cdle.syntax import PLam, PVar, alpha_eq
from cdle.typecheck import Checker, check_defs

from conftest import CORPUS, NEGATIVE, NEGATIVE_FILES, reparsed
from gen import gen_pure


def report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}" + (f" — {detail}" if detail else "")
    print(line)
    assert ok, line


def test_acceptance_1_corpus_typechecks(corpus_defs):
    t0 = time.time()
    ck, rep = check_defs(corpus_defs, Checker())
    elapsed = time.time() - t0
    ok = rep.ok and len(rep.results) >= 45 and elapsed < 30.0
    report(1, ok, f"{len(rep.results)} definitions in {elapsed:.1f}s")


def test_acceptance_2_shared_erasure_goldens(checked_corpus):
    ck, _ = checked_corpus
    nil_g = parse_pure("λ cN. λ cC. cN")
    cons_g = parse_pure("λ x. λ xs. λ cN. λ cC. cC x (xs cN cC)")
    app_g = parse_pure("λ xs. xs (λ ys. ys) (λ x, ih, ys, cN, cC. cC x (ih ys cN cC))")
    checks = [
        alpha_eq(normalize(ck.pure_env["nilL"]).result, nil_g),
        alpha_eq(normalize(ck.pure_env["nilV"]).result, nil_g),
        alpha_eq(normalize(ck.pure_env["consL"]).result, cons_g),
        alpha_eq(normalize(ck.pure_env["consV"]).result, cons_g),
        beta_eta_eq(ck.pure_env["appL"], ck.pure_env["appV"]),
        alpha_eq(normalize(ck.pure_env["appL"]).result, app_g),
        alpha_eq(normalize(ck.pure_env["appV"]).result, app_g),
    ]
    report(2, all(checks), f"{sum(checks)}/{len(checks)} goldens alpha-exact")


ZERO_COST = [
    "v2l!",            # manual forgetful data reuse
    "l2v!",            # manual enriching data reuse
    "v2lG!",           # eliminated packaged v2l
    "l2vG!",           # eliminated packaged l2v
    "appV2appL!",      # manual forgetful program reuse
    "appV2appLG!",     # eliminated combinator-built forgetful reuse
    "appL2appVG!",     # eliminated combinator-built enriching reuse
    "assocV2assocL!",  # eliminated proof reuse
]


def test_acceptance_3_zero_cost_identities(checked_corpus):
    ck, _ = checked_corpus
    ident = PLam("x", PVar("x"))
    failures = []
    for name in ZERO_COST:
        nf = normalize(ck.pure_env[name]).result
        if not alpha_eq(nf, ident):
            failures.append(name)
    report(3, not failures, f"{len(ZERO_COST) - len(failures)}/{len(ZERO_COST)} erase to λ x. x (exact)"
           + (f"; failed: {failures}" if failures else ""))


def test_acceptance_4_cost_scaling(checked_corpus):
    ck, _ = checked_corpus
    t0 = time.time()
    verdicts = {}
    counts = {}
    for name, kind, sizes in [
        ("v2l", "vec", [8, 16, 32, 64]),
        ("v2l!", "vec", [8, 64, 512]),
        ("l2v", "list", [8, 16, 32, 64]),
        ("l2v!", "list", [8, 64, 512]),
    ]:
        fn = normalize(ck.pure_env[name]).result
        rows = []
        for n in sizes:
            out = apply_and_count(fn, [synth_input_nf(ck, kind, n)])
            rows.append((n, out.beta_steps, out.fuel_exhausted))
        verdicts[name] = classify_costs(rows)
        counts[name] = [b for _, b, _ in rows]
    elapsed = time.time() - t0
    ok = (
        verdicts == {"v2l": "linear", "v2l!": "constant", "l2v": "linear", "l2v!": "constant"}
        and len(set(counts["v2l!"])) == 1
        and len(set(counts["l2v!"])) == 1
        and counts["v2l"] == sorted(counts["v2l"])
        and elapsed < 10.0
    )
    report(4, ok, f"{verdicts} in {elapsed:.1f}s")


def test_acceptance_5_negative_suite(checked_corpus):
    ck, _ = checked_corpus
    expect = negative_expectations(NEGATIVE)
    assert len(expect) == len([f for f in os.listdir(NEGATIVE) if f.endswith(".cdl")]) == NEGATIVE_FILES
    hits = 0
    problems = []
    for stem, want in sorted(expect.items()):
        defs = load_program([f"negative/{stem}.cdl"], root=CORPUS)
        _, rep = check_defs(defs)
        bad = [r for r in rep.results if not r.ok]
        if len(bad) == 1 and bad[0].code == want:
            hits += 1
        else:
            problems.append(stem)
    # the unerased-premise variant typechecks but is not the identity
    wrong_ok = not alpha_eq(normalize(ck.pure_env["appL2appV!wrong"]).result, PLam("x", PVar("x")))
    ok = hits == len(expect) and hits >= 8 and wrong_ok
    report(5, ok, f"{hits} rejections with specified codes; unerased-premise variant non-identity: {wrong_ok}"
           + (f"; problems: {problems}" if problems else ""))


def test_acceptance_6_normalizer_oracle_equivalence(oracle_samples):
    samples, rejected = oracle_samples
    assert rejected < 500
    assert len(samples) == 1000
    failures = exhausted = 0
    for _, nf_o, ob, oe, nf_m in samples:
        agree = (
            nf_m.fuel_exhausted == (nf_o is None)
            and (nf_m.beta_steps, nf_m.eta_steps) == (ob, oe)
            and (nf_o is None or alpha_eq(nf_m.result, nf_o))
        )
        exhausted += nf_o is None
        failures += not agree
    report(6, failures == 0,
           f"1000 terms, {failures} disagreements, {exhausted} co-exhausted, {rejected} over budget")


def test_acceptance_7_property_suites(corpus_defs):
    from cdle.pretty import pretty
    from cdle.syntax import free_names, subst1

    problems = []

    # alpha-equivalence laws (1000 samples)
    rng = random.Random(11)
    terms = [gen_pure(rng, 24) for _ in range(1000)]
    if not all(alpha_eq(t, t) for t in terms):
        problems.append("alpha reflexivity")

    # substitution laws
    rng = random.Random(5)
    for _ in range(200):
        t = gen_pure(rng, 18, scope=("u", "v"))
        for x in sorted(free_names(t)) or ["u"]:
            if not alpha_eq(subst1(t, x, PVar(x)), t):
                problems.append("substitution identity")
                break

    # parse/pretty round-trip over the corpus
    for _, d in corpus_defs:
        if not alpha_eq(d.classifier, parse_classifier(pretty(d.classifier))):
            problems.append(f"roundtrip classifier {d.name}")
            break

    # checker determinism: the second check, of freshly parsed modules,
    # replays nothing
    r1 = check_defs(corpus_defs, Checker())[1].render()
    r2 = check_defs(reparsed(corpus_defs), Checker())[1].render()
    if r1 != r2:
        problems.append("determinism")

    report(7, not problems, "alpha laws, substitution laws, round-trip, determinism"
           + (f"; problems: {problems}" if problems else ""))
