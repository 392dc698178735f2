"""Cost figures for the measured conversions, cross-checked against the
naive substitution oracle.

The expected step counts below were computed with the oracle first and
frozen; the oracle is re-run here so a drift in either reducer or in the
corpus shows up as a disagreement with the frozen row.
"""

import pytest

from cdle import reduction
from cdle.corpus import COST_CLASSES, synth_input_nf
from cdle.reduction import apply_and_count, normalize
from cdle.syntax import App, PApp, Var, alpha_eq

from oracle import oracle_normalize, pure_size

# (conversion, input kind, [(n, beta_steps)...]) — oracle-computed, frozen
FROZEN = [
    ("v2l", "vec", [(8, 89), (16, 169), (32, 329)]),
    ("l2v", "list", [(8, 89), (16, 169), (32, 329)]),
    ("v2l!", "vec", [(8, 1), (16, 1), (32, 1)]),
    ("l2v!", "list", [(8, 1), (16, 1), (32, 1)]),
]


@pytest.mark.parametrize("name,kind,rows", FROZEN, ids=[r[0] for r in FROZEN])
def test_step_counts_match_oracle_and_frozen_values(name, kind, rows, checked_corpus):
    ck, _ = checked_corpus
    fn = normalize(ck.pure_env[name]).result
    for n, frozen_beta in rows:
        inp = synth_input_nf(ck, kind, n)
        machine = apply_and_count(fn, [inp])
        _, oracle_beta, oracle_eta = oracle_normalize(PApp(fn, inp), 1_000_000)
        assert machine.beta_steps == oracle_beta == frozen_beta, (
            f"{name}@{n}: machine={machine.beta_steps} oracle={oracle_beta} frozen={frozen_beta}"
        )
        assert machine.eta_steps == oracle_eta == 0


def test_linear_conversions_strictly_increase(checked_corpus):
    ck, _ = checked_corpus
    for name, kind in [("v2l", "vec"), ("l2v", "list")]:
        fn = normalize(ck.pure_env[name]).result
        steps = [
            apply_and_count(fn, [synth_input_nf(ck, kind, n)]).beta_steps
            for n in (8, 16, 32)
        ]
        assert steps[0] < steps[1] < steps[2]


def test_constant_conversions_identical_counts_up_to_512(checked_corpus):
    ck, _ = checked_corpus
    for name, kind in [("v2l!", "vec"), ("l2v!", "list")]:
        fn = normalize(ck.pure_env[name]).result
        steps = {
            apply_and_count(fn, [synth_input_nf(ck, kind, n)]).beta_steps
            for n in (8, 512)
        }
        assert steps == {1}


@pytest.mark.parametrize("n", [1, 8, 64])
def test_vec_and_list_inputs_share_one_erasure(n, checked_corpus):
    ck, _ = checked_corpus
    assert alpha_eq(synth_input_nf(ck, "vec", n), synth_input_nf(ck, "list", n))


@pytest.mark.parametrize("kind,nil,cons", [("list", "nilL", "consL"), ("vec", "nilV", "consV")])
def test_direct_input_equals_machine_normal_form(kind, nil, cons, checked_corpus):
    """The directly built input is the machine's normal form of
    ``cons unit (… nil)`` from the corpus's own constructors, binder
    names included."""
    ck, _ = checked_corpus
    for n in list(range(17)) + [64]:
        term = Var(nil)
        for _ in range(n):
            term = App(App(Var(cons), Var("unit")), term)
        got = synth_input_nf(ck, kind, n)
        assert got == normalize(ck.pure_of(term)).result, f"{kind}@{n}"
        assert pure_size(got) == 5 * n + 3


def test_unknown_input_kind_rejected(checked_corpus):
    ck, _ = checked_corpus
    with pytest.raises(ValueError):
        synth_input_nf(ck, "tree", 4)


@pytest.mark.parametrize("name,kind", [("v2l!", "vec"), ("l2v!", "list"), ("v2lG!", "vec"), ("l2vG!", "list")])
def test_zero_cost_conversions_one_step_at_4096(name, kind, checked_corpus):
    ck, _ = checked_corpus
    inp = synth_input_nf(ck, kind, 4096)
    out = apply_and_count(normalize(ck.pure_env[name]).result, [inp])
    assert (out.beta_steps, out.eta_steps) == (1, 0)
    assert alpha_eq(out.result, inp)


def test_readback_enters_the_machine_only_at_redexes(checked_corpus, monkeypatch):
    """A counted run enters ``reduction._eval`` only where readback meets
    a redex, a global or a thunk-bound head with arguments: a packaged
    conversion once at every size, ``v2l`` and ``l2v`` n + 1 times.  The
    input's constructors, already normal, are read from syntax (readback
    entered the machine 3n + 3 times when it evaluated every thunk)."""
    ck, _ = checked_corpus
    entries = [0]
    machine = reduction._eval

    def counted(term, env, ctr):
        entries[0] += 1
        return machine(term, env, ctr)

    monkeypatch.setattr(reduction, "_eval", counted)
    for name, (cls, kind) in COST_CLASSES.items():
        fn = normalize(ck.pure_env[name]).result
        constant = cls == "constant"
        for n in (8, 64, 512, 4096) if constant else (8, 64, 512):
            inp = synth_input_nf(ck, kind, n)
            entries[0] = 0
            out = apply_and_count(fn, [inp])
            want = (1, 1) if constant else (n + 1, 10 * n + 9)
            assert (entries[0], out.beta_steps) == want, f"{name}@{n}"
