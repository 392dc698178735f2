import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO, "corpus")
NEGATIVE = os.path.join(REPO, "negative")
# the size of the negative suite: the files of ``negative/``, each of which
# must be rejected with its one expected code; tests check exact counts of
# them against this
NEGATIVE_FILES = 15

# Programs with a definition whose own classifier fails, then a use of
# it that would instantiate that ill-sorted classifier, and substitution
# reject it with a TypeError, if the definition were in scope.
CLASSIFIER_FAILS = {
    "type_lambda": [
        "U ◂ ★ = ∀ X : ★. X ➔ X.",
        "f ◂ ∀ B : ★ ➔ ★. B B.",
        "g ◂ U = f -(λ X : ★. X).",
    ],
    "application": [
        "U ◂ ★ = ∀ X : ★. X ➔ X.",
        "u ◂ U = Λ X. λ x. x.",
        "f ◂ Π a : U. a.",
        "g ◂ U = f (u -U u).",
    ],
}


def parse_type_expr(text):
    """``text`` parsed as a classifier, which must be a type."""
    from cdle.surface import parse_classifier
    from cdle.syntax import Type

    ty = parse_classifier(text)
    assert isinstance(ty, Type), text
    return ty


def reparsed(defs):
    """The program ``defs`` with each of its modules parsed afresh from
    its file (``surface.parse_module``): new ``RawDef`` objects, so that
    ``check_defs`` replays none of it and checks every definition."""
    from cdle.surface import parse_module

    modules = {}
    for file, _ in defs:
        if file not in modules:
            with open(file, encoding="utf-8") as fh:
                modules[file] = parse_module(fh.read(), file).defs
    return [(file, d) for file, mod in modules.items() for d in mod]


@pytest.fixture(scope="session")
def checked_corpus():
    """The fully checked corpus: (checker, report)."""
    from cdle.corpus import load_checked_corpus

    ck, report = load_checked_corpus(CORPUS)
    assert report.ok, "corpus must typecheck:\n" + "\n".join(
        r.line() for r in report.results if not r.ok
    )
    return ck, report


@pytest.fixture(scope="session")
def corpus_defs():
    from cdle.corpus import corpus_paths
    from cdle.loader import load_program

    return load_program(corpus_paths(CORPUS))


@pytest.fixture(scope="session")
def oracle_samples():
    """The machine and the substitution oracle on 1000 random terms (seed
    20260811, size 30, fuel 10^4), drawn once for the two tests that
    compare them.  A term whose textual reduction exceeds a work budget
    of 800,000 is rejected, at most 500 times.  Returns
    ``(samples, rejected)`` with one ``(term, oracle nf, oracle beta,
    oracle eta, machine outcome)`` per accepted term."""
    from cdle.reduction import Fuel, normalize
    from gen import gen_pure
    from oracle import OracleWorkExceeded, oracle_normalize

    rng = random.Random(20260811)
    samples: list = []
    rejected = 0
    while len(samples) < 1000 and rejected < 500:
        t = gen_pure(rng, 30)
        try:
            nf_o, ob, oe = oracle_normalize(t, 10_000, work_budget=800_000)
        except OracleWorkExceeded:
            rejected += 1
            continue
        samples.append((t, nf_o, ob, oe, normalize(t, Fuel(10_000))))
    return samples, rejected
