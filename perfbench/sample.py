"""One sample of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  ``--spawn`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start-up, ``import cdle`` and the
workload's own set-up.  Prints one JSON object on its last line.

Before ``import cdle`` the sample times a fixed loop, ``ref_s``.  On a
shared host the speed of a whole process varies (up to twice as slow, in
runs of consecutive processes); the loop's time tracks that speed, so
``run.py`` can scale the sample's times to a reference speed.  The loop
runs before the program is imported, so no change to the program can
change it, and its time is not part of ``setup_s``.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, next):
        self.value = value
        self.next = next


def _mix(x: int, y: int = 3) -> int:
    return (x ^ y) & 7


def reference_seconds() -> float:
    """Time of a fixed loop of interpreter work like the kernel's:
    allocation, attribute chains, dictionaries and calls."""
    t0 = time.perf_counter()
    acc, chain = 0, None
    for i in range(150_000):
        chain = _Cell(i, chain) if i % 64 else None
        cell = chain
        while cell is not None and cell.value > i - 8:
            acc += cell.value & 3
            cell = cell.next
        d = {"k": i, "j": (i, chain)}
        acc += d["k"] % 5 + _mix(i)
    if acc <= 0:
        raise RuntimeError("reference loop did no work")
    return time.perf_counter() - t0


def main() -> int:
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    spawn = float(args["--spawn"])
    ref_s = reference_seconds()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cdle  # noqa: F401
    import cdle.corpus  # noqa: F401  (also loads loader, surface, pretty)

    imported = time.monotonic() - spawn - ref_s

    import json
    import resource

    sys.path.insert(0, HERE)
    import workloads
    from tracer import Tracer

    workload = args["--workload"]
    traced = args["--trace"] == "1"
    with open(os.path.join(HERE, "answers.json"), encoding="utf-8") as fh:
        answers = json.load(fh)
    inputs = {}
    if args.get("--inputs"):
        with open(args["--inputs"], encoding="utf-8") as fh:
            inputs = json.load(fh)

    tracer = Tracer(traced)
    tracer.install()
    t0 = time.monotonic()
    state = workloads.setup(workload, ROOT, tracer)
    setup_s = imported + (time.monotonic() - t0)

    phases, ops, obs = workloads.run(workload, state, tracer, inputs, answers)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failures, known = workloads.check(workload, obs, answers, inputs)

    result = {
        "traced": traced,
        "ref_s": ref_s,
        "setup_s": setup_s,
        "phases": phases,
        "ops_s": ops,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "known_defects": known,
        "ledger": tracer.ledger(),
        "absent": tracer.absent,
    }
    if traced:
        result["layers"] = tracer.layer_metrics()
        with open(args["--spans"], "w", encoding="utf-8") as fh:
            sample_id = args["--sample"]
            for i, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(json.dumps([sample_id, i, name, start, end, parent]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
