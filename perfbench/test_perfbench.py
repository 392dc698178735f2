"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run each workload once through ``run.py`` and check the output
against ``BENCHMARK.json``, and show that the known-answer checks catch a
deliberately wrong expected answer.  About two minutes on two cores.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)
with open(os.path.join(HERE, "answers.json"), encoding="utf-8") as fh:
    ANSWERS = json.load(fh)


def bench(workload, trace, cwd=ROOT, seconds=1):
    cmd = DECLARED["command"] + ["--workload", workload, "--seed", "7", "--seconds", str(seconds)]
    cmd[0] = sys.executable
    return subprocess.run(cmd + ["--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300)


# -- the declaration ---------------------------------------------------------


def test_benchmark_json_schema():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in DECLARED["workloads"])
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


# -- one run of each workload ------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_prints_declared_metrics(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    info = json.loads(lines[-2])["info"]
    assert set(info["context"]) == {"python", "nproc", "commit", "src_lines"}
    assert set(info["ledger"]) == set(tracer.LEDGER_KEYS)


def test_traced_run_prints_per_layer_metrics():
    proc = bench("reduce-stress", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["share.normalize_in_reduce"]["value"] > 0.5
    assert result["metrics"]["reduction.fuel_exhausted"]["value"] == len(workloads.DIVERGENT_FUELS)


def test_incomplete_tree_exits_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("corpus-check", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the known-answer checks are not vacuous ---------------------------------


def sample(workload, inputs):
    tr = tracer.Tracer(False)
    state = workloads.setup(workload, ROOT, tr)
    _, ops, obs = workloads.run(workload, state, tr, inputs, ANSWERS)
    assert ops
    return obs


@pytest.fixture(scope="module")
def reduce_inputs():
    inputs = run.reduce_inputs(3)
    inputs["terms"] = inputs["terms"][:40] + workloads.fixed_reduce_inputs()
    return inputs


@pytest.fixture(scope="module")
def observed(reduce_inputs):
    return {
        "corpus-check": sample("corpus-check", {}),
        "cost-scaling": sample("cost-scaling", {}),
        "reduce-stress": sample("reduce-stress", reduce_inputs),
    }


def wrong(path, value):
    answers = copy.deepcopy(ANSWERS)
    node = answers
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return answers


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_true_answers_pass(workload, observed, reduce_inputs):
    attempted, fails, known = workloads.check(workload, observed[workload], ANSWERS, reduce_inputs)
    assert attempted > 0 and fails == []
    want_known = ["exp 3 7: printer raised RecursionError"] if workload == "reduce-stress" else []
    assert known == want_known


@pytest.mark.parametrize(
    "workload, path, value",
    [
        ("corpus-check", ["negative_codes", "type_mismatch"], "KindMismatch"),
        ("corpus-check", ["corpus", "definitions"], 118),
        ("corpus-check", ["corpus", "golden_results"], 25),
        ("cost-scaling", ["linear_beta", "offset"], 8),
        ("cost-scaling", ["constant_beta"], 2),
        ("cost-scaling", ["cost_classes", "v2lG!"], "linear"),
        ("reduce-stress", ["church_values", "mul 40 40"], 1601),
    ],
)
def test_wrong_answer_is_caught(workload, path, value, observed, reduce_inputs):
    _, fails, _ = workloads.check(workload, observed[workload], wrong(path, value), reduce_inputs)
    assert fails


def test_wrong_oracle_answer_is_caught(observed, reduce_inputs):
    inputs = copy.deepcopy(reduce_inputs)
    inputs["terms"][0]["expect"]["beta"] += 1
    _, fails, _ = workloads.check("reduce-stress", observed["reduce-stress"], ANSWERS, inputs)
    assert fails == ["random 0: normal form or step counts differ from the expected answer"]


# -- tracing -----------------------------------------------------------------


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", {"reduction.gone": ("cdle.reduction", "no_such_function", None, None)})
    tr = tracer.Tracer(True)
    tr.install()
    assert tr.absent == ["reduction.gone"]


def test_self_times_partition_the_traced_time():
    tr = tracer.Tracer(True)
    with tr.region("bench.check") as outer:
        with tr.region("typecheck.pure_of"):
            with tr.region("erasure.erase"):
                sum(range(10_000))
        sum(range(10_000))
    m = tr.layer_metrics()
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total == pytest.approx(outer.seconds, rel=0.05)
    assert 0 < m["share.expand_in_check"] < 1
