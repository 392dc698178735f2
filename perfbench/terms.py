"""Pure-term helpers owned by the benchmark.

A seeded generator of closed terms (the same shape as the property
suites' generator), a reference printer, an alpha-canonical form, and
Church numerals.  They live here rather than being imported from the
program so that the benchmark's inputs and its checks do not move when
the program changes.  Terms are built from ``cdle.syntax`` constructors,
which the caller passes in, so that the reference normalizer in
``tests/oracle.py`` can consume them.
"""

from __future__ import annotations

import random

VAR_POOL = ["a", "b", "c", "f", "g", "x", "y", "z"]


def gen_closed(rng: random.Random, budget: int, syn, scope: tuple[str, ...] = ()):
    """A random well-scoped term of size <= budget, closed when scope is
    empty.  ``syn`` is the ``cdle.syntax`` module."""
    while True:
        if budget <= 1:
            if scope:
                return syn.PVar(rng.choice(scope))
            return syn.PLam("x", syn.PVar("x"))
        r = rng.random()
        if r < 0.32 and scope:
            return syn.PVar(rng.choice(scope))
        if r < 0.62:
            name = rng.choice(VAR_POOL) + str(rng.randrange(4))
            return syn.PLam(name, gen_closed(rng, budget - 1, syn, scope + (name,)))
        left = rng.randrange(1, max(2, budget - 1))
        fn = gen_closed(rng, left, syn, scope)
        arg = gen_closed(rng, budget - 1 - left, syn, scope)
        return syn.PApp(fn, arg)


def _kind(t) -> str:
    # dispatch on the class name keeps this module free of cdle imports
    return type(t).__name__


def show(t) -> str:
    """Surface text of a pure term in the printer's format: ``λ x. body``,
    left-nested application, parenthesised non-variable arguments."""
    out: list[str] = []
    # items: a string to emit, or (mode, term) with mode "term" | "app" | "atom"
    work: list = [("term", t)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        mode, cur = item
        k = _kind(cur)
        if k == "PVar":
            out.append(cur.name)
        elif mode == "atom":
            work += [")", ("term", cur), "("]
        elif k == "PLam":
            if mode == "app":
                work += [")", ("term", cur), "("]
            else:
                out.append(f"λ {cur.name}. ")
                work.append(("term", cur.body))
        else:  # PApp
            work += [("atom", cur.arg), " ", ("app", cur.fn)]
    return "".join(out)


def canon(t) -> str:
    """Alpha-canonical prefix form: ``L`` for λ, ``A`` for application,
    a de Bruijn index for a bound variable, ``'name`` for a free one."""
    out: list[str] = []
    work: list = [(t, None)]  # env is a linked list (name, depth-parent)
    while work:
        cur, env = work.pop()
        k = _kind(cur)
        if k == "PVar":
            i, e = 0, env
            while e is not None and e[0] != cur.name:
                i, e = i + 1, e[1]
            out.append(str(i) if e is not None else "'" + cur.name)
        elif k == "PLam":
            out.append("L")
            work.append((cur.body, (cur.name, env)))
        else:
            out.append("A")
            work.append((cur.arg, env))
            work.append((cur.fn, env))
    return " ".join(out)


def numeral_text(n: int) -> str:
    """The Church numeral ``n`` as surface text."""
    return "(λ f. λ x. " + "f (" * n + "x" + ")" * n + ")"


def numeral_canon(n: int) -> str:
    """``canon`` of the Church numeral ``n`` (n >= 2, which is eta-normal)."""
    return "L L " + "A 1 " * n + "0"


def node_count(t) -> int:
    """Number of nodes of a pure term."""
    n = 0
    work = [t]
    while work:
        cur = work.pop()
        n += 1
        k = _kind(cur)
        if k == "PLam":
            work.append(cur.body)
        elif k == "PApp":
            work.append(cur.arg)
            work.append(cur.fn)
    return n
