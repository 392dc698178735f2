"""A deliberately naive substitution-based normalizer, independent of the
environment machine in cdle.reduction.

Each step locates the leftmost-outermost beta-redex by a textual search
from the root and contracts it with capture-avoiding substitution; after
beta-normal form, eta-redexes are contracted bottom-up.  Step counts use
the same convention as the engine (one tick per contraction, shared
fuel budget), so both normal forms and counts must agree exactly.

The pure-term helpers the tests share (subterms, size) live here too,
since the kernel itself needs neither.  The substitution is the oracle's
own, not the kernel's ``subst_syntax``, so that the reference shares no
code with what it checks.
"""

from __future__ import annotations

from typing import Iterator

from cdle.syntax import PApp, PLam, PVar, PureTerm, free_names, fresh_name


def pure_subterms(t: PureTerm) -> Iterator[PureTerm]:
    """All subterms of ``t``, iteratively (pre-order)."""
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, PLam):
            stack.append(cur.body)
        elif isinstance(cur, PApp):
            stack.append(cur.arg)
            stack.append(cur.fn)


def pure_size(t: PureTerm) -> int:
    return sum(1 for _ in pure_subterms(t))


def substitute(body: PureTerm, name: str, value: PureTerm) -> PureTerm:
    """Capture-avoiding substitution ``body[name := value]``.

    Binders in ``body`` that would capture a free variable of ``value``
    are renamed with globally fresh names.  Iterative, since the terms
    the oracle reduces nest deeply in argument position.
    """
    fvs = free_names(value)
    results: list[PureTerm] = []
    work: list[tuple] = [("go", body, {name: value})]
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == "go":
            _, cur, env = frame
            if isinstance(cur, PVar):
                results.append(env.get(cur.name, cur))
            elif isinstance(cur, PApp):
                work.append(("app",))
                work.append(("go", cur.arg, env))
                work.append(("go", cur.fn, env))
            else:
                env2 = {k: v for k, v in env.items() if k != cur.name}
                if not env2:
                    results.append(cur)
                    continue
                binder = cur.name
                if binder in fvs:
                    binder = fresh_name(binder)
                    env2[cur.name] = PVar(binder)
                work.append(("lam", binder))
                work.append(("go", cur.body, env2))
        elif tag == "lam":
            results.append(PLam(frame[1], results.pop()))
        else:
            arg = results.pop()
            fn = results.pop()
            results.append(PApp(fn, arg))
    return results[0]


class OracleFuelExhausted(Exception):
    def __init__(self, beta, eta):
        self.beta = beta
        self.eta = eta


class OracleWorkExceeded(Exception):
    """The textual reduction exceeded its desk-scale work budget (term
    sizes grew too fast to afford substitution); the sampler rejects such
    terms rather than asserting anything about them."""


def _find_redex_path(t: PureTerm):
    """Path (as a list of 'fn'/'arg'/'body' steps) to the leftmost-
    outermost beta-redex, or None."""
    stack = [(t, [])]
    while stack:
        node, path = stack.pop()
        if isinstance(node, PApp):
            if isinstance(node.fn, PLam):
                return path
            stack.append((node.arg, path + ["arg"]))
            stack.append((node.fn, path + ["fn"]))
        elif isinstance(node, PLam):
            stack.append((node.body, path + ["body"]))
    return None


def _contract_at(t: PureTerm, path) -> PureTerm:
    spine = []
    node = t
    for step in path:
        spine.append((node, step))
        node = getattr(node, step if step != "body" else "body")
    assert isinstance(node, PApp) and isinstance(node.fn, PLam)
    new = substitute(node.fn.body, node.fn.name, node.arg)
    for parent, step in reversed(spine):
        if step == "fn":
            new = PApp(new, parent.arg)
        elif step == "arg":
            new = PApp(parent.fn, new)
        else:
            new = PLam(parent.name, new)
    return new


def _eta_pass(t: PureTerm, counter, limit) -> PureTerm:
    out = []
    work = [("go", t)]
    while work:
        frame = work.pop()
        if frame[0] == "go":
            cur = frame[1]
            if isinstance(cur, PVar):
                out.append(cur)
            elif isinstance(cur, PApp):
                work.append(("app",))
                work.append(("go", cur.arg))
                work.append(("go", cur.fn))
            else:
                work.append(("lam", cur.name))
                work.append(("go", cur.body))
        elif frame[0] == "app":
            a = out.pop()
            f = out.pop()
            out.append(PApp(f, a))
        else:
            name = frame[1]
            body = out.pop()
            if (
                isinstance(body, PApp)
                and isinstance(body.arg, PVar)
                and body.arg.name == name
                and name not in free_names(body.fn)
            ):
                if counter[0] + counter[1] >= limit:
                    raise OracleFuelExhausted(*counter)
                counter[1] += 1
                out.append(body.fn)
            else:
                out.append(PLam(name, body))
    return out[0]


def oracle_normalize(t: PureTerm, max_steps: int, work_budget: int = 0):
    """Returns (normal form or None, beta_steps, eta_steps).

    A positive ``work_budget`` bounds the total number of nodes visited
    across all contraction steps and raises OracleWorkExceeded beyond it.
    """
    counter = [0, 0]
    work = 0
    try:
        while True:
            path = _find_redex_path(t)
            if path is None:
                break
            if counter[0] + counter[1] >= max_steps:
                raise OracleFuelExhausted(*counter)
            if work_budget:
                work += pure_size(t)
                if work > work_budget:
                    raise OracleWorkExceeded()
            counter[0] += 1
            t = _contract_at(t, path)
        while True:
            before = counter[1]
            t = _eta_pass(t, counter, max_steps)
            if counter[1] == before:
                break
    except OracleFuelExhausted:
        return None, counter[0], counter[1]
    return t, counter[0], counter[1]
