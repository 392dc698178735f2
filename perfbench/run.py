#!/usr/bin/env python3
"""Benchmark of the cdle kernel.

    python3 perfbench/run.py --workload corpus-check --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  Workloads are ``corpus-check``,
``cost-scaling`` and ``reduce-stress`` (see ``workloads.py`` for what each
exercises and why).  Only the ``reduce-stress`` draw of random terms
depends on ``--seed``.

Samples run one after another, each in a fresh interpreter, until
``--seconds`` have passed (at least three samples).  Every time is wall
time scaled to a reference speed: multiplied by ``REFERENCE_S`` over the
time the sample's own process took for a fixed loop before it imported
the program (see ``sample.py``); the info line also gives the unscaled
medians.  With ``--trace 0``
the last line of standard output is a JSON object whose metrics are the
``end_to_end`` metrics of ``BENCHMARK.json``; with ``--trace 1`` every
other sample is traced and the metrics are the ``per_layer`` ones,
including the tracing overhead against the untraced samples.  The line
before it holds the context, the exact-count ledger and every metric
under the name its workload gives it.  Results, inputs and spans are also
written under ``.bench_out/``.

Exit status is 0 with a result, 1 when a sample crashes, 2 when the
source tree is incomplete.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from terms import canon, gen_closed, show  # noqa: E402
from tracer import percentile  # noqa: E402

MIN_SAMPLES = 3
# the reference loop's time (see sample.py) at the speed times are scaled to
REFERENCE_S = 0.2
DEADLINE_S = 150  # the whole invocation, samples and input preparation
ORACLE_WORK_BUDGET = 200_000


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context() -> dict:
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cdle", "*.py"))):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def reduce_inputs(seed: int) -> dict:
    """The ``reduce-stress`` term set for a seed, with expected answers.

    Random closed terms are drawn from the seed and kept when the
    reference normalizer in ``tests/oracle.py`` reaches their normal form
    within the fuel and its work budget; the rest are counted as skipped.
    A fuel-exhausting random term costs anywhere from nothing to half a
    second, so keeping them would make the set's cost depend on the seed;
    the seed-independent divergent inputs exercise exhaustion instead.
    """
    from cdle import syntax

    spec = importlib.util.spec_from_file_location("cdle_oracle", os.path.join(ROOT, "tests", "oracle.py"))
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)

    rng = random.Random(seed)
    terms, skipped = [], {"exhausted": 0, "unverified": 0}
    while len(terms) < workloads.RANDOM_TERMS:
        t = gen_closed(rng, workloads.RANDOM_SIZE, syntax)
        try:
            nf, beta, eta = oracle.oracle_normalize(t, workloads.RANDOM_FUEL, work_budget=ORACLE_WORK_BUDGET)
        except oracle.OracleWorkExceeded:
            skipped["unverified"] += 1
            continue
        if nf is None:
            skipped["exhausted"] += 1
            continue
        terms.append(
            {
                "label": f"random {len(terms)}",
                "text": show(t),
                "fuel": workloads.RANDOM_FUEL,
                "expect": {"canon": canon(nf), "beta": beta, "eta": eta},
            }
        )
    return {"seed": seed, "terms": terms + workloads.fixed_reduce_inputs(), "skipped": skipped}


def run_sample(args, k: int, traced: bool, inputs_path: str, deadline: float) -> dict:
    spans = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}-sample{k}.jsonl")
    cmd = [sys.executable, "-I", os.path.join(HERE, "sample.py"), "--workload", args.workload]
    cmd += ["--trace", "1" if traced else "0", "--sample", str(k), "--spans", spans, "--inputs", inputs_path]
    spawn = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawn", repr(spawn)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - spawn),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"sample {k} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def scaled(sample: dict) -> dict:
    """The sample's times scaled to the reference speed."""
    f = REFERENCE_S / sample["ref_s"]
    out = dict(sample)
    out["setup_s"] = sample["setup_s"] * f
    out["phases"] = {k: v * f for k, v in sample["phases"].items()}
    out["ops_s"] = [(k, v * f) for k, v in sample["ops_s"]]
    return out


def end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    """Gated metrics (names shared by all workloads) and the same figures,
    with units, under the names each workload gives them."""
    def op_ms(kinds=None):
        # every sample runs the same operations in the same order; take each
        # operation's median over the samples, then percentiles over operations
        per_op = zip(*(s["ops_s"] for s in samples))
        return sorted(median([x for _, x in op]) * 1e3 for op in per_op if kinds is None or op[0][0] in kinds)

    ops_ms = op_ms()
    beta_per_s = [s["ledger"]["beta"] / s["phases"]["run_s"] for s in samples]
    gated = {
        "setup_s": median([s["setup_s"] for s in samples]),
        "run_s": median([s["phases"]["run_s"] for s in samples]),
        "op_ms_p50": percentile(ops_ms, 50),
        "op_ms_p90": percentile(ops_ms, 90),
        "beta_per_s": median(beta_per_s),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
    }
    named = {"setup_s": gated["setup_s"], "beta_per_s": gated["beta_per_s"], "peak_rss_mb": gated["peak_rss_mb"]}
    for phase in samples[0]["phases"]:
        if phase != "run_s":
            named[phase] = median([s["phases"][phase] for s in samples])
    if "reduce_s" in named:
        named["term_ms_p50"] = gated["op_ms_p50"]
        named["term_ms_p95"] = percentile(ops_ms, 95)
    if "check_s" in named:
        defs_ms = op_ms({"def"})
        named["def_ms_p50"] = percentile(defs_ms, 50)
        named["def_ms_p90"] = percentile(defs_ms, 90)
    attempted = sum(s["attempted"] for s in samples)
    known = sum(len(s["known_defects"]) for s in samples)
    named["fail_ratio"] = (sum(len(s["failures"]) for s in samples) + known) / attempted
    return gated, {k: {"value": v, "unit": unit_of(k)} for k, v in named.items()}


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "ms"


def per_layer(samples: list[dict]) -> dict:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    out = {k: median([s["layers"][k] for s in traced]) for k in traced[0]["layers"]}
    out["trace.overhead"] = median([scaled(s)["phases"]["run_s"] for s in traced]) / median(
        [scaled(s)["phases"]["run_s"] for s in plain]
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    begin = time.monotonic()

    needed = ["src/cdle/__init__.py", "corpus/base.cdl", "negative", "tests/oracle.py", "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        return fail(f"incomplete source tree, missing: {', '.join(missing)}", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # compile once here so that no sample's set-up pays for it
    compileall.compile_dir(os.path.join(ROOT, "src", "cdle"), quiet=1)

    for sub in ("inputs", "spans", "results"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    inputs = reduce_inputs(args.seed) if args.workload == "reduce-stress" else {}
    inputs_path = os.path.join(OUT, "inputs", f"{args.workload}-seed{args.seed}.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)

    # start another sample only while it is expected to end inside the window
    samples: list[dict] = []
    start = time.monotonic()
    deadline = begin + DEADLINE_S
    while True:
        now = time.monotonic()
        mean = (now - start) / len(samples) if samples else 0.0
        if len(samples) >= MIN_SAMPLES and (now + mean - start > args.seconds or now + 2 * mean > deadline):
            break
        traced = args.trace == 1 and len(samples) % 2 == 1
        try:
            samples.append(run_sample(args, len(samples), traced, inputs_path, deadline))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            return fail(str(e), 1)

    plain = [s for s in samples if not s["traced"]]
    gated, named = end_to_end([scaled(s) for s in plain])
    wall = {
        "setup_s": median([s["setup_s"] for s in plain]),
        "run_s": median([s["phases"]["run_s"] for s in plain]),
        "reference_s": median([s["ref_s"] for s in plain]),
    }
    ledgers = {json.dumps(s["ledger"], sort_keys=True) for s in samples}
    failures = sorted({f for s in samples for f in s["failures"]})
    if len(ledgers) > 1:
        failures.append(f"determinism: the exact-count ledger differs between samples: {sorted(ledgers)}")
    attempted = sum(s["attempted"] for s in samples)
    failed = min(attempted, sum(len(s["failures"]) for s in samples) + (len(ledgers) > 1))

    kind = "per_layer" if args.trace else "end_to_end"
    values = per_layer(samples) if args.trace else gated
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(values) != set(units):
        return fail(f"metrics {sorted(set(values) ^ set(units))} do not match {kind} in BENCHMARK.json", 1)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(samples),
        "traced_samples": sum(s["traced"] for s in samples),
        "context": context(),
        "ledger": samples[0]["ledger"],
        "workload_metrics": named,
        "unscaled_wall": wall,
        "known_defects": sorted({d for s in samples for d in s["known_defects"]}),
        "failures": failures[:50],
        "absent_trace_targets": samples[0]["absent"],
        "skipped_random_terms": inputs.get("skipped"),
    }
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "result": result, "samples": samples}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
