"""Concurrent use: normal forms, step counts and check reports computed
on four threads at once equal those of a serial run.  Each program is
checked from freshly parsed modules, which ``check_defs`` cannot replay,
and twice as loaded, which it can replay from the records earlier calls
left, so the threads check concurrently and also read and replace those
records concurrently."""

import os
import random
from concurrent.futures import ThreadPoolExecutor

from cdle.loader import load_program
from cdle.reduction import Fuel, normalize
from cdle.typecheck import Checker, check_defs

from conftest import CORPUS, NEGATIVE, reparsed
from gen import gen_pure


def test_threads_match_a_serial_run(corpus_defs):
    rng = random.Random(7)
    terms = [gen_pure(rng, 20) for _ in range(100)]
    programs = [corpus_defs] + [
        load_program([os.path.join(NEGATIVE, f)], root=CORPUS) for f in sorted(os.listdir(NEGATIVE))
    ]

    def work():
        outcomes = [normalize(t, Fuel(1000)) for t in terms]
        reports = [
            check_defs(program, Checker())[1].render()
            for defs in programs
            for program in (reparsed(defs), defs, defs)
        ]
        return [(o.result, o.beta_steps, o.eta_steps) for o in outcomes], reports

    serial = work()
    assert serial[1][0::3] == serial[1][1::3] == serial[1][2::3]
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = [f.result() for f in [pool.submit(work) for _ in range(4)]]
    for nfs, reports in runs:
        assert nfs == serial[0]
        assert reports == serial[1]
