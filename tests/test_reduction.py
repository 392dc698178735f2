"""Normalizer behavior: step counts, eta, fuel, and agreement with the
naive substitution-based oracle."""

import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import gen
import pytest

from cdle.reduction import (
    Fuel,
    FuelExhaustedError,
    _Counter,
    _eval,
    _quote,
    apply_and_count,
    beta_eta_eq,
    normalize,
)
from cdle.corpus import COST_CLASSES, synth_input_nf
from cdle.syntax import PApp, PLam, PVar, alpha_eq, free_names, subst_syntax
from gen import gen_pure, gen_pure_open
from oracle import oracle_normalize, pure_subterms


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
    cases = [
        (lam("f", lam("x", ap(v("f"), v("x")))), lam("f", v("f")), 1),
        # the outer λ is an eta-redex only once the inner one contracts
        (lam("x", lam("y", ap(v("f"), v("x"), v("y")))), v("f"), 2),
    ]
    for t, nf, eta in cases:
        out = normalize(t)
        assert alpha_eq(out.result, nf)
        assert out.beta_steps == 0 and out.eta_steps == eta


def test_omega_exhausts_fuel():
    out = normalize(OMEGA, Fuel(1000))
    assert out.fuel_exhausted and out.result is None
    assert out.beta_steps == 1000


def test_eta_does_not_fire_when_variable_occurs():
    for t in [lam("x", ap(v("x"), v("x"))), lam("x", ap(v("f"), v("x"), v("x")))]:
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
        if "w%fresh" in free_names(f):
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


# --- globals: definitions unfold when the machine looks them up ------------

DEFS = {"id": IDENT, "k": lam("a", lam("b", v("a")))}


def test_globals_unfold_like_their_substitution():
    """Normalizing with globals gives the outcome of normalizing with them
    substituted: the same normal form and counts, or exhaustion at the
    same counts, as unfolding is not a contraction.  In the samples ``u``
    and ``v`` are globals and ``w`` stays a free variable."""
    t = ap(v("k"), v("id"), ap(v("id"), v("y")))
    out = normalize(t, Fuel(100), DEFS)
    assert out == normalize(subst_syntax(t, DEFS), Fuel(100))
    assert out.result == lam("x", v("x")) and out.beta_steps == 2 and out.eta_steps == 0
    rng = random.Random(43)
    for _ in range(200):
        defs = {"u": gen_pure(rng, 8), "v": gen_pure(rng, 8)}
        t = gen_pure_open(rng, 16)
        for limit in (30, 300):
            assert normalize(t, Fuel(limit), defs) == normalize(subst_syntax(t, defs), Fuel(limit))


def test_bound_name_shadows_a_global():
    shadowed = lam("id", ap(v("id"), v("y")))
    out = normalize(shadowed, Fuel(100), DEFS)
    assert out.result == shadowed and out.beta_steps == 0
    out = normalize(ap(shadowed, v("w")), Fuel(100), DEFS)
    assert out.result == ap(v("w"), v("y")) and out.beta_steps == 1


def test_normalize_without_defs_leaves_free_names_neutral():
    out = normalize(ap(v("id"), v("y")))
    assert out.result == ap(v("id"), v("y")) and out.beta_steps == 0
    rng = random.Random(47)
    for _ in range(200):
        t = gen_pure_open(rng, 20)
        out = normalize(t, Fuel(2000))
        assert out == normalize(t, Fuel(2000), {})
        nf_o, b, e = oracle_normalize(t, 2000)
        assert (out.fuel_exhausted, out.beta_steps, out.eta_steps) == (nf_o is None, b, e)
        assert nf_o is None or alpha_eq(out.result, nf_o)


def test_normalize_leaves_the_recursion_limit_as_it_found_it():
    """``normalize`` changes no interpreter state: a caller that lowers
    the recursion limit keeps its limit through the call."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert normalize(ap(lam("x", v("x")), v("y"))).result == v("y")
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)


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
    for _, nf_o, ob, oe, nf_m in samples:
        assert nf_m.fuel_exhausted == (nf_o is None)
        assert (nf_m.beta_steps, nf_m.eta_steps) == (ob, oe)
        if nf_o is not None:
            assert alpha_eq(nf_m.result, nf_o)
        else:
            exhausted += 1
    assert accepted == 1000
    assert exhausted > 0, "the sample should include divergent terms"


def test_fuel_boundaries_around_eta_phase(oracle_samples):
    """On every sample that takes eta steps, the machine and the oracle
    agree just below, at and just above both the beta count and the total:
    eta is charged after all beta, so a budget between the two runs out
    in the eta phase with every beta step spent."""
    samples, _ = oracle_samples
    with_eta = [(t, ob, oe) for t, nf_o, ob, oe, _ in samples if nf_o is not None and oe > 0]
    assert with_eta, "the sample should include eta-contracting terms"
    eta_phase_exhaustions = 0
    for t, ob, oe in with_eta:
        for limit in sorted({ob - 1, ob, ob + 1, ob + oe - 1, ob + oe, ob + oe + 1}):
            if limit <= 0:
                continue
            nf_m = normalize(t, Fuel(limit))
            nf_o, b, e = oracle_normalize(t, limit)
            assert (nf_m.fuel_exhausted, nf_m.beta_steps, nf_m.eta_steps) == (nf_o is None, b, e)
            eta_phase_exhaustions += nf_o is None and b == ob
    assert eta_phase_exhaustions > 0


# --- binder naming against the two-pass reference -------------------------


def reference_quote(t, ctr):
    """Readback as it was before quote named binders itself or read any
    syntax: every thunk is evaluated by ``_eval``, every binder gets a
    name ``base%qN``, numbered from 1 in each call, bound as the thunk of
    that free name, and eta is tested on names.  A free name of that form
    could pass for a binder; the samples' one such name, ``y%q7``, never
    meets a binder so named.  Returns the term and its free names counted
    as heads."""
    out = []
    uses = {}
    made = 0
    work = [(t, None)]
    while work:
        item = work.pop()
        cls = type(item)
        if cls is tuple:
            value = _eval(item[0], item[1], ctr)
            if type(value[0]) is PLam:  # a λ and its environment
                term, env = value
                made += 1
                fresh = f"{term.name.split('%')[0].rstrip('0123456789') or 'x'}%q{made}"
                work.append(fresh)
                work.append((term.body, (term.name, (PVar(fresh), None), env)))
            else:  # a neutral's head and spine
                head, spine = value
                uses[head] = uses.get(head, 0) + 1
                if spine:
                    work.append([head, len(spine)])
                    work.extend(spine)
                else:
                    out.append(PVar(head))
        elif cls is str:
            body = out.pop()
            if uses.pop(item, 0) == 1 and type(body) is PApp and body.arg == PVar(item):
                ctr.eta += 1
                out.append(body.fn)
            else:
                out.append(PLam(item, body))
        else:  # [head, arity]
            head, arity = item
            first = len(out) - arity
            t = PVar(head)
            for a in out[first:]:
                t = PApp(t, a)
            del out[first:]
            out.append(t)
    return out[0], uses


def reference_tidy_names_linear(t, free):
    """The separate naming pass, in one walk: a binder of base ``b`` under
    ``k`` enclosing binders of base ``b`` takes the ``k``-th of ``b, b1,
    b2, …`` that is not in ``free``."""
    rename = {}
    names = {}
    tried = {}
    depth = {}
    out = []
    work = [t]
    while work:
        cur = work.pop()
        cls = type(cur)
        if cls is PVar:
            out.append(PVar(rename.get(cur.name, cur.name)))
        elif cls is PApp:
            work += [None, cur.arg, cur.fn]
        elif cls is PLam:
            base = cur.name.split("%")[0] or "x"
            k = depth.get(base, 0)
            taken = names.setdefault(base, [])
            while len(taken) <= k:
                n = tried.get(base, 0)
                tried[base] = n + 1
                cand = f"{base}{n}" if n else base
                if cand not in free:
                    taken.append(cand)
            rename[cur.name] = taken[k]
            depth[base] = k + 1
            work += [base, cur.body]
        elif cur is None:
            a = out.pop()
            out[-1] = PApp(out[-1], a)
        else:
            depth[cur] -= 1
            out[-1] = PLam(names[cur][depth[cur]], out[-1])
    return out[0]


def reference_tidy_names(t):
    """The naming pass as it was before it ran in linear time: each
    binder, from the root down, takes the first of ``base, base1, base2,
    …`` that is neither free in ``t`` nor taken by an enclosing binder,
    found by probing from ``base`` each time."""
    global_free = free_names(t)
    out = []
    work = [("go", t, {}, frozenset())]
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == "go":
            _, cur, env, scope = frame
            cls = type(cur)
            if cls is PVar:
                out.append(PVar(env.get(cur.name, cur.name)))
            elif cls is PApp:
                work.append(("app",))
                work.append(("go", cur.arg, env, scope))
                work.append(("go", cur.fn, env, scope))
            else:
                base = cur.name.split("%")[0] or "x"
                cand = base
                n = 0
                while cand in scope or cand in global_free:
                    n += 1
                    cand = f"{base}{n}"
                env2 = dict(env)
                env2[cur.name] = cand
                work.append(("lam", cand))
                work.append(("go", cur.body, env2, scope | {cand}))
        elif tag == "app":
            a = out.pop()
            f = out.pop()
            out.append(PApp(f, a))
        else:
            out.append(PLam(frame[1], out.pop()))
    return out[0]


def reference_readback(t, limit=10_000, quadratic=True, defs={}):
    """The normal form of ``t`` as the two-pass readback names it, with
    its eta count.  With ``quadratic``, the one-walk naming pass is
    checked against the probing one on the way."""
    ctr = _Counter(limit, defs)
    raw, free = reference_quote(t, ctr)
    assert set(free) == free_names(raw)
    named = reference_tidy_names_linear(raw, free)
    if quadratic:
        assert same_term(named, reference_tidy_names(raw))
    return named, ctr.eta


def same_term(a, b):
    """``a == b``, names included, without recursion: equal pre-order
    node sequences make equal trees, as each class has a fixed arity."""
    for x, y in itertools.zip_longest(pure_subterms(a), pure_subterms(b)):
        if type(x) is not type(y) or getattr(x, "name", None) != getattr(y, "name", None):
            return False
    return True


def assert_named_as_reference(t, limit=10_000, quadratic=True, defs={}):
    """``normalize`` gives ``t`` the normal form, names included, and the
    eta count that the two-pass readback gives, and quote reports exactly
    that normal form's free names."""
    out = normalize(t, Fuel(limit), defs)
    assert not out.fuel_exhausted
    named, eta = reference_readback(t, limit, quadratic, defs)
    assert same_term(out.result, named) and out.eta_steps == eta
    ctr = _Counter(limit, defs)
    nf, free = _quote(t, ctr)
    assert same_term(nf, out.result) and set(free) == free_names(nf)
    return out


def test_naming_matches_reference_on_oracle_samples(oracle_samples):
    samples, _ = oracle_samples
    named = 0
    for t, nf_o, _, _, nf_m in samples:
        if nf_o is not None:
            assert assert_named_as_reference(t) == nf_m
            named += 1
    assert named > 500


# free names that collide with the candidates of the bases quote makes
COLLIDING = ("x", "x1", "x3", "a%3", "a", "a1", "f", "f2", "y%q7", "g10", "z")


# binder names with ``%`` and digits; the generator appends one more digit
NUMBERED_BINDERS = ["x%7", "a%1", "y1", "x", "a%", "f2%q", "g10"]


def test_naming_matches_reference_with_colliding_free_names(monkeypatch):
    """Open terms whose free names are candidates of the bases quote
    makes, with binders named as the generator names them (a pool name
    and a digit) and then with ``NUMBERED_BINDERS`` as the pool."""
    for pool in (gen.VAR_POOL, NUMBERED_BINDERS):
        monkeypatch.setattr(gen, "VAR_POOL", pool)
        rng = random.Random(53)
        seen = set()
        for _ in range(1500):
            t = gen_pure(rng, 24, COLLIDING)
            if normalize(t, Fuel(3000)).fuel_exhausted:
                continue
            seen |= free_names(assert_named_as_reference(t, 3000).result) & set(COLLIDING)
        assert {"x", "x1", "a", "a1", "a%3"} <= seen


def test_naming_after_eta_reuses_the_contracted_binders_name():
    """A binder that eta contracts takes no name, so a binder of the same
    base inside it gets the name the contracted one would have had."""
    cases = [
        # λx. f (λx. x) x  →  f (λx. x)
        (lam("x", ap(v("f"), lam("x", v("x")), v("x"))), ap(v("f"), lam("x", v("x")))),
        # λx. λy. g (λx. λy. x y) x y  →  g (λx. x)
        (
            lam("x", lam("y", ap(v("g"), lam("x", lam("y", ap(v("x"), v("y")))), v("x"), v("y")))),
            ap(v("g"), lam("x", v("x"))),
        ),
        # the surviving outer binder keeps x, the inner one under it is x1
        (
            lam("x", ap(v("x"), lam("x", ap(v("h"), lam("x", v("x")), v("x"))))),
            lam("x", ap(v("x"), ap(v("h"), lam("x1", v("x1"))))),
        ),
        # x1 is free, so the second binder of the inner chain skips it
        (
            lam("x", ap(v("x1"), lam("x", lam("x", ap(v("x"), v("x")))), v("x"))),
            ap(v("x1"), lam("x", lam("x2", ap(v("x2"), v("x2"))))),
        ),
    ]
    for t, nf in cases:
        out = assert_named_as_reference(t)
        assert out.eta_steps >= 1
        assert out.result == nf, out.result


def test_naming_a_binder_chain_16000_deep():
    """Every binder of a 16,000-deep chain is named, x1 skipped as free;
    each λ's name is found without probing the names above it."""
    depth = 16_000
    t = ap(v("x"), v("x1"))
    for _ in range(depth):
        t = lam("x", t)
    out = assert_named_as_reference(t, quadratic=False)
    assert (out.beta_steps, out.eta_steps) == (0, 0)
    cur = out.result
    for k in range(depth):
        assert type(cur) is PLam and cur.name == ("x" if k == 0 else f"x{k + 1}")
        cur = cur.body
    assert cur == ap(v(f"x{depth}"), v("x1"))


def test_naming_matches_reference_on_corpus_erasures(checked_corpus):
    ck, _ = checked_corpus
    assert len(ck.pure_env) > 80
    for t in ck.pure_env.values():
        assert_named_as_reference(t, 100_000)


def test_naming_matches_reference_on_cost_rows(checked_corpus):
    """Every measured conversion applied to its synthesized input, up to
    n = 4096: the counted run's result is named as the reference names it."""
    ck, _ = checked_corpus
    for name, (_, kind) in COST_CLASSES.items():
        fn = normalize(ck.pure_env[name]).result
        for n in (8, 512, 4096):
            t = PApp(fn, synth_input_nf(ck, kind, n))
            assert_named_as_reference(t, 1_000_000)


# --- readback reads normal syntax itself; the rest goes to the machine -----


def assert_agrees_with_oracle(t, limits, defs={}):
    """At each fuel, ``normalize`` and the oracle, run on ``t`` with
    ``defs`` substituted, agree on exhaustion, both tallies and the
    normal form."""
    for limit in limits:
        out = normalize(t, Fuel(limit), defs)
        nf_o, b, e = oracle_normalize(subst_syntax(t, defs), limit)
        assert (out.fuel_exhausted, out.beta_steps, out.eta_steps) == (nf_o is None, b, e), limit
        assert nf_o is None or alpha_eq(out.result, nf_o)


def test_readback_reads_a_free_heads_arguments_in_order():
    """A free-name head's spine is read from syntax, its arguments left to
    right: a redex in an earlier argument is contracted before a later
    argument diverges, and every fuel runs out where the oracle's does."""
    diverges = ap(v("f"), ap(IDENT, v("y")), lam("z", ap(v("z"), OMEGA)), ap(IDENT, v("w")))
    assert_agrees_with_oracle(diverges, (1, 2, 3, 10, 101))
    assert normalize(diverges, Fuel(10)).beta_steps == 10
    t = ap(v("f"), ap(IDENT, v("y")), lam("z", ap(v("g"), ap(IDENT, v("z")), v("z"))))
    assert_agrees_with_oracle(t, (1, 2, 3))
    out = assert_named_as_reference(t)
    assert out.result == ap(v("f"), v("y"), lam("z", ap(v("g"), v("z"), v("z")))) and out.beta_steps == 2


def test_readback_unfolds_a_head_that_defs_names():
    """A head that ``defs`` names is a global, not a free name, inside a
    neutral spine and under a binder too: its spine goes to the machine,
    which unfolds it."""
    t = lam("y", ap(v("y"), ap(v("k"), v("y"), v("w")), ap(v("id"), v("y")), v("id")))
    out = assert_named_as_reference(t, defs=DEFS)
    assert out.result == lam("y", ap(v("y"), v("y"), v("y"), IDENT)) and out.beta_steps == 3
    assert_agrees_with_oracle(t, (1, 2, 3, 4), DEFS)
    assert normalize(t).result == t  # without defs the names are free and t is normal


def test_readback_follows_a_variable_bound_to_a_thunk():
    """A variable bound to a thunk is read through it: alone, the thunk's
    syntax is read back; applied to arguments, the thunk evaluates to a λ
    that the machine applies."""
    swap = lam("a", lam("b", ap(v("b"), v("a"))))
    cases = [
        # (λf. λy. f y (f y)) swap  →  λy. y y
        (ap(lam("f", lam("y", ap(v("f"), v("y"), ap(v("f"), v("y"))))), swap), lam("y", ap(v("y"), v("y")))),
        # a chain of two thunks: (λf. (λg. λy. y g (g y)) f) swap  →  λy. y swap (λb. b y)
        (
            ap(lam("f", ap(lam("g", lam("y", ap(v("y"), v("g"), ap(v("g"), v("y"))))), v("f"))), swap),
            lam("y", ap(v("y"), swap, lam("b", ap(v("b"), v("y"))))),
        ),
        # alone, and eta-contracted as it is read: (λf. λy. f) (λa. λb. a b)  →  λy. λa. a
        (ap(lam("f", lam("y", v("f"))), lam("a", lam("b", ap(v("a"), v("b"))))), lam("y", lam("a", v("a")))),
    ]
    for t, nf in cases:
        assert_agrees_with_oracle(t, (1, 2, 3, 1000))
        assert assert_named_as_reference(t).result == nf


def test_readback_eta_contracts_a_spine_read_from_syntax():
    """An eta-redex whose body is a neutral spine that readback reads
    from syntax, with a free head, a binder head, or under a contracted
    redex; and one whose variable occurs again, which stays."""
    cases = [
        (lam("x", lam("z", ap(v("f"), v("x"), v("z")))), v("f"), 0, 2),
        (lam("y", lam("x", ap(v("y"), v("x")))), lam("y", v("y")), 0, 1),
        (ap(lam("g", lam("x", ap(v("w"), v("x")))), v("q")), v("w"), 1, 1),
        (lam("x", ap(v("f"), v("x"), v("x"))), lam("x", ap(v("f"), v("x"), v("x"))), 0, 0),
    ]
    for t, nf, beta, eta in cases:
        assert_agrees_with_oracle(t, (1, 2, 3, 100))
        out = assert_named_as_reference(t)
        assert (out.result, out.beta_steps, out.eta_steps) == (nf, beta, eta)


# --- readback assigns names only to the nodes it builds --------------------


def test_normalize_renames_no_node_it_did_not_build(checked_corpus):
    """Quote writes each binder's name into the ``PLam`` and ``PVar`` it
    built.  Inputs that are already normal (a 2,000-deep chain of one
    name among them), and an earlier result fed back, keep every name and
    share no node with their results, whether normalized serially or
    from four threads at once."""
    ck, _ = checked_corpus
    chain = ap(v("x"), v("x1"))
    for _ in range(2_000):
        chain = lam("x", chain)
    earlier = normalize(chain).result
    inputs = [synth_input_nf(ck, "vec", 64), IDENT, chain, earlier]

    def snapshot(t):  # repr's content, in pre-order, without recursion
        return [(type(x).__name__, getattr(x, "name", None)) for x in pure_subterms(t)]

    before = [snapshot(t) for t in inputs]

    def run():
        return [normalize(t) for t in inputs]

    serial = run()
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = [serial] + [f.result() for f in [pool.submit(run) for _ in range(4)]]
    assert [snapshot(t) for t in inputs] == before
    assert same_term(serial[3].result, earlier)
    for outs in runs:
        for t, out, first in zip(inputs, outs, serial):
            assert (out.beta_steps, out.eta_steps) == (0, 0) and alpha_eq(out.result, t)
            assert same_term(out.result, first.result)
            assert not {id(x) for x in pure_subterms(out.result)} & {id(x) for x in pure_subterms(t)}
