"""The benchmark's workloads: set-up, timed body and known-answer checks.

Every workload is a single-threaded closed loop: each operation starts
when the previous one has finished.  The program is driven only through
public functions of ``cdle`` modules, looked up as module attributes at
call time so that the tracer's wrappers see the calls.

* ``corpus-check``: the verdict job of ``scripts/check_corpus.py``.
  Most of its time is definition expansion during conversion, and
  conversions repeat, so the normal-form cache is used.
* ``cost-scaling``: the cost-harness traffic of
  ``scripts/run_cost_experiment.py`` at larger sizes.  Input synthesis
  in ``corpus`` dominates; inputs are synthesized again for several
  conversions, a second, cache-reusing use of ``reduction``.
* ``reduce-stress``: ``cdle normalize --term`` traffic.  Nearly all of
  its time is in the reduction machine; nothing repeats, so a cache only
  costs here.

Checks run after the timed region and return ``(attempted, failures,
known_defects)``: one failure message per failed operation, and the
operations that hit a defect the benchmark deliberately keeps visible.
"""

from __future__ import annotations

import os

from terms import canon, numeral_canon, numeral_text, show

WORKLOADS = ("corpus-check", "cost-scaling", "reduce-stress")

# conversion, synthesized input kind, sizes
COST_ROWS = [
    ("v2l", "vec", [8, 16, 32, 64, 128, 256]),
    ("l2v", "list", [8, 16, 32, 64, 128, 256]),
    ("v2l!", "vec", [8, 64, 512]),
    ("l2v!", "list", [8, 64, 512]),
    ("v2lG!", "vec", [8, 64, 512]),
    ("l2vG!", "list", [8, 64, 512]),
]
ZERO_COST_ROW = ("v2l!", 512)

RANDOM_TERMS = 1000
RANDOM_SIZE = 40
RANDOM_FUEL = 2000
CHURCH_FUEL = 1_000_000
DIVERGENT = "(λ f. f f f) (λ c. c c)"
DIVERGENT_FUELS = [1000, 2000, 4000]
_MUL = "(λ m. λ n. λ f. m (n f))"
_EXP = "(λ m. λ n. n m)"
CHURCH = [("mul 40 40", _MUL, 40, 40), ("exp 2 10", _EXP, 2, 10), ("exp 3 7", _EXP, 3, 7)]

# a RecursionError from the printer on a correct deep normal form is the
# deep-printing defect; it is counted, not hidden, until it is fixed
KNOWN_PRINT_DEFECT = "RecursionError"


def fixed_reduce_inputs() -> list[dict]:
    """The seed-independent part of ``reduce-stress``."""
    items = [
        {"label": f"divergent fuel {f}", "text": DIVERGENT, "fuel": f, "expect": {"exhausts": True}}
        for f in DIVERGENT_FUELS
    ]
    for label, op, m, n in CHURCH:
        text = f"{op} {numeral_text(m)} {numeral_text(n)}"
        items.append({"label": label, "text": text, "fuel": CHURCH_FUEL, "expect": {"church": label}})
    return items


def _error(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"[:200]


# -- set-up ----------------------------------------------------------------


def setup(workload: str, root: str, tracer) -> dict:
    """Make the workload ready after ``import cdle``; returns its state."""
    state = {"corpus": os.path.join(root, "corpus"), "negative": os.path.join(root, "negative")}
    if workload == "cost-scaling":
        from cdle import corpus

        with tracer.region("bench.setup"):
            state["checker"], state["report"] = corpus.load_checked_corpus(state["corpus"])
    return state


# -- timed bodies ------------------------------------------------------------


def run(workload: str, state: dict, tracer, inputs: dict, answers: dict):
    """Run one sample; returns (phase seconds, (op kind, seconds) per
    operation, observations)."""
    return _RUNNERS[workload](state, tracer, inputs, answers)


def _run_corpus_check(state, tr, inputs, answers):
    from cdle import corpus, loader, typecheck

    ops: list[tuple[str, float]] = []
    obs: dict = {"defs": [], "goldens": None, "negatives": {}}
    with tr.region("bench.verdict") as verdict:
        with tr.region("bench.check") as check:
            try:
                with tr.region("bench.load"):
                    defs = loader.load_program(corpus.corpus_paths(state["corpus"]))
            except Exception as e:
                defs, obs["load_error"] = [], _error(e)
            ck = typecheck.Checker()
            for file, d in defs:
                with tr.region("bench.def") as r:
                    try:
                        ck, rep = typecheck.check_defs([(file, d)], ck)
                        res = rep.results[0]
                        outcome = (res.name, res.ok, res.code)
                    except Exception as e:
                        outcome = (d.name, False, _error(e))
                ops.append(("def", r.seconds))
                obs["defs"].append(outcome)
        with tr.region("bench.goldens") as r:
            try:
                results = corpus.verify_goldens(corpus.corpus_manifest(state["corpus"]), ck)
                obs["goldens"] = [(g.name, g.ok) for g in results]
            except Exception as e:
                obs["goldens_error"] = _error(e)
        ops.append(("goldens", r.seconds))
        for stem in sorted(answers["negative_codes"]):
            path = os.path.join(state["negative"], f"{stem}.cdl")
            with tr.region("bench.negative") as r:
                try:
                    _, rep = typecheck.check_defs(loader.load_program([path], root=state["corpus"]))
                    codes = [res.code for res in rep.results if not res.ok]
                except Exception as e:
                    codes = [_error(e)]
            ops.append(("negative", r.seconds))
            obs["negatives"][stem] = codes
    phases = {"run_s": verdict.seconds, "check_s": check.seconds, "verdict_s": verdict.seconds}
    return phases, ops, obs


def _run_cost_scaling(state, tr, inputs, answers):
    from cdle import corpus, reduction

    ck = state["checker"]
    ops: list[tuple[str, float]] = []
    rows: list[dict] = []
    zero_cost = 0.0
    with tr.region("bench.table") as table:
        for name, kind, sizes in COST_ROWS:
            try:
                with tr.region("bench.fn"):
                    fn = reduction.normalize(ck.pure_env[name]).result
            except Exception as e:
                rows += [{"name": name, "n": n, "error": _error(e)} for n in sizes]
                continue
            for n in sizes:
                label = "bench.zero_cost_row" if (name, n) == ZERO_COST_ROW else "bench.row"
                with tr.region(label) as r:
                    try:
                        inp = corpus.synth_input_nf(ck, kind, n)
                        out = reduction.apply_and_count(fn, [inp])
                        row = {"name": name, "n": n, "input": inp, "out": out}
                    except Exception as e:
                        row = {"name": name, "n": n, "error": _error(e)}
                ops.append(("row", r.seconds))
                rows.append(row)
                if label == "bench.zero_cost_row":
                    zero_cost = r.seconds
    obs = {
        "rows": rows,
        "setup_ok": state["report"].ok,
        "cost_classes": {k: list(v) for k, v in corpus.COST_CLASSES.items()},
    }
    phases = {"run_s": table.seconds, "cost_table_s": table.seconds, "zero_cost_row_s": zero_cost}
    return phases, ops, obs


def _run_reduce_stress(state, tr, inputs, answers):
    from cdle import erasure, pretty, reduction, surface

    ops: list[tuple[str, float]] = []
    results: list[dict] = []
    with tr.region("bench.reduce") as red:
        for item in inputs["terms"]:
            res: dict = {}
            with tr.region("bench.term") as r:
                try:
                    t = erasure.erase(surface.parse_term(item["text"]))
                    out = reduction.normalize(t, reduction.Fuel(item["fuel"]))
                    res["out"] = out
                    if out.result is not None:
                        try:
                            res["printed"] = pretty.pretty(out.result)
                        except Exception as e:
                            res["print_error"] = type(e).__name__
                except Exception as e:
                    res["error"] = _error(e)
            ops.append(("term", r.seconds))
            results.append(res)
    phases = {"run_s": red.seconds, "reduce_s": red.seconds}
    return phases, ops, {"results": results}


_RUNNERS = {
    "corpus-check": _run_corpus_check,
    "cost-scaling": _run_cost_scaling,
    "reduce-stress": _run_reduce_stress,
}


# -- known-answer checks -----------------------------------------------------


def check(workload: str, obs: dict, answers: dict, inputs: dict):
    return _CHECKS[workload](obs, answers, inputs)


def _check_corpus_check(obs, answers, inputs):
    fails: list[str] = []
    want_defs = answers["corpus"]["definitions"]
    want_goldens = answers["corpus"]["golden_results"]
    negatives = answers["negative_codes"]
    attempted = want_defs + want_goldens + len(negatives)
    defs = obs["defs"]
    if "load_error" in obs:
        fails.append(f"corpus load: {obs['load_error']}")
    if len(defs) != want_defs:
        fails += [f"expected {want_defs} definitions, got {len(defs)}"] * max(1, want_defs - len(defs))
    fails += [f"definition {name}: {code}" for name, ok, code in defs if not ok]
    goldens = obs["goldens"]
    if goldens is None:
        fails += [f"goldens: {obs.get('goldens_error')}"] * want_goldens
    else:
        if len(goldens) != want_goldens:
            fails.append(f"expected {want_goldens} golden results, got {len(goldens)}")
        fails += [f"golden {name} differs" for name, ok in goldens if not ok]
    for stem, want in sorted(negatives.items()):
        got = obs["negatives"].get(stem)
        if got != [want]:
            fails.append(f"negative {stem}: expected [{want}], got {got}")
    return attempted, fails, []


def classify(rows: list[tuple[int, int]]) -> str:
    """``constant`` when all step counts are equal, ``linear`` when every
    per-size slope is within 10% of the mean slope, else ``other``.  The
    README's rule, restated here so the check does not trust the
    program's own classifier."""
    steps = [b for _, b in rows]
    if len(set(steps)) == 1:
        return "constant"
    slopes = [(b1 - b0) / (n1 - n0) for (n0, b0), (n1, b1) in zip(rows, rows[1:])]
    mean = sum(slopes) / len(slopes)
    if mean > 0 and all(abs(s - mean) <= 0.1 * mean for s in slopes):
        return "linear"
    return "other"


def _check_cost_scaling(obs, answers, inputs):
    fails: list[str] = []
    classes = answers["cost_classes"]
    lin = answers["linear_beta"]
    attempted = 1 + len(obs["rows"]) + len(COST_ROWS)
    if not obs["setup_ok"]:
        fails.append("set-up corpus check failed")
    steps: dict[str, list[tuple[int, int]]] = {}
    for row in obs["rows"]:
        name, n = row["name"], row["n"]
        if "error" in row:
            fails.append(f"{name} n={n}: {row['error']}")
            continue
        out = row["out"]
        want = lin["per_element"] * n + lin["offset"] if classes[name] == "linear" else answers["constant_beta"]
        if out.result is None or (out.beta_steps, out.eta_steps) != (want, 0):
            fails.append(f"{name} n={n}: beta={out.beta_steps} eta={out.eta_steps}, expected beta={want} eta=0")
        elif canon(out.result) != canon(row["input"]):
            fails.append(f"{name} n={n}: result is not the input's erasure")
        else:
            steps.setdefault(name, []).append((n, out.beta_steps))
    for name, kind, sizes in COST_ROWS:
        got = classify(steps[name]) if len(steps.get(name, [])) == len(sizes) else "incomplete"
        program = obs["cost_classes"].get(name)
        if got != classes[name]:
            fails.append(f"{name}: classified {got}, expected {classes[name]}")
        elif program is not None and program != [classes[name], kind]:
            fails.append(f"{name}: COST_CLASSES says {program}, expected {[classes[name], kind]}")
    return attempted, fails, []


def _check_reduce_stress(obs, answers, inputs):
    fails: list[str] = []
    known: list[str] = []
    items = inputs["terms"]
    for item, res in zip(items, obs["results"]):
        label, want = item["label"], item["expect"]
        if "error" in res:
            fails.append(f"{label}: {res['error']}")
            continue
        out = res["out"]
        if want.get("exhausts"):
            if out.result is not None or (out.beta_steps, out.eta_steps) != (item["fuel"], 0):
                fails.append(f"{label}: expected to exhaust at beta={item['fuel']}, got beta={out.beta_steps}")
            continue
        if out.result is None:
            fails.append(f"{label}: fuel exhausted")
            continue
        if "church" in want:
            ok = canon(out.result) == numeral_canon(answers["church_values"][want["church"]])
        else:
            ok = canon(out.result) == want["canon"] and (out.beta_steps, out.eta_steps) == (
                want["beta"],
                want["eta"],
            )
        if not ok:
            fails.append(f"{label}: normal form or step counts differ from the expected answer")
        elif res.get("print_error") == KNOWN_PRINT_DEFECT:
            known.append(f"{label}: printer raised {KNOWN_PRINT_DEFECT}")
        elif "print_error" in res:
            fails.append(f"{label}: printer raised {res['print_error']}")
        elif res["printed"] != show(out.result):
            fails.append(f"{label}: printed text differs from the reference printer")
    if len(obs["results"]) != len(items):
        fails.append(f"expected {len(items)} results, got {len(obs['results'])}")
    return len(items), fails, known


_CHECKS = {
    "corpus-check": _check_corpus_check,
    "cost-scaling": _check_cost_scaling,
    "reduce-stress": _check_reduce_stress,
}
