"""Normalization of pure terms with fuel and exact step accounting.

The normalizer is a call-by-name environment machine (closures and
neutral spines, no memoized thunks).  Because thunks are re-evaluated at
every use, the number of closure applications it performs is exactly the
number of beta-contractions a textual leftmost-outermost (normal-order)
reducer would perform, which is the counting convention reported in
``NormalizeOutcome``: beta-reduce to beta-normal form in normal order,
then eta-contract exhaustively (``λx. t x → t`` when ``x`` is not free
in ``t``).  Readback contracts eta-redexes bottom-up as it rebuilds each
abstraction, in the order a separate pass over the beta-normal form
would; eta-contracting a beta-normal form creates no beta-redex, so one
pass is exhaustive.  Eta steps are charged against the fuel after every
beta step, as the textual reducer spends them.

Readback is one pass: ``_quote`` builds each node of the normal form
once.  It gives every binder one shared ``PVar`` node and a record, and
names the surviving binders at the end, over those records alone, once
the normal form's free variables (the heads it emitted but did not bind)
and the eta-contracted binders are known.  So readback takes time linear
in the size of the normal form however deeply its binders nest.

Top-level definitions unfold on lookup: ``normalize`` and
``beta_eta_eq`` take an optional ``defs`` table of pure terms (the
checker passes its expanded erasures), and a variable that no binder in
scope binds but ``defs`` names continues as that entry, evaluated in the
empty environment so that no binder at the use site captures the
entry's free variables.  Unfolding is not a contraction, so it is
counted in neither tally and charges no fuel: the counts equal those of
normalizing the term with every such name substituted by its entry.

Step tallies live in a per-call counter and binder records in the
quote call, so the functions share no mutable state (beyond the recursion
limit that ``normalize`` raises) and are safe to run concurrently; the
names quote writes go only into nodes that call built.  The one global
counter left in the kernel is the ``itertools.count`` behind
``syntax.fresh_name``, whose names need only be distinct.
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .syntax import PApp, PLam, PVar, PureTerm, alpha_eq, base_name

DEFAULT_MAX_STEPS = 1_000_000

_NO_DEFS: Mapping[str, PureTerm] = MappingProxyType({})


class FuelExhaustedError(Exception):
    """Raised when normalization exceeds its contraction budget."""

    def __init__(self, beta_steps: int, eta_steps: int, side: Optional[int] = None, what: str = ""):
        super().__init__(f"fuel exhausted after {beta_steps} beta / {eta_steps} eta steps")
        self.beta_steps = beta_steps
        self.eta_steps = eta_steps
        self.side = side  # from beta_eta_eq: 0 or 1, the argument that ran out
        self.what = what  # from the cost harness: the term that ran out


class Fuel(NamedTuple("Fuel", [("max_steps", int)])):
    """Contraction budget; strictly positive."""

    __slots__ = ()

    def __new__(cls, max_steps: int = DEFAULT_MAX_STEPS):
        if max_steps <= 0:
            raise ValueError("fuel must be strictly positive")
        return super().__new__(cls, max_steps)


class NormalizeOutcome(NamedTuple):
    """Result of normalization: the normal form (or None on fuel
    exhaustion) plus exact tallies of contractions performed."""

    result: Optional[PureTerm]
    beta_steps: int
    eta_steps: int

    @property
    def fuel_exhausted(self) -> bool:
        return self.result is None


class _Counter:
    """Per-call state: step tallies against the budget, and the
    definitions that free variables unfold to."""

    __slots__ = ("beta", "eta", "limit", "defs")

    def __init__(self, limit: int, defs: Mapping[str, PureTerm]):
        self.beta = 0
        self.eta = 0
        self.limit = limit
        self.defs = defs


# --- machine values ---------------------------------------------------------


class _Thunk:
    """Unevaluated argument; re-evaluated at each use (no memoization, to
    keep counts equal to textual normal-order reduction)."""

    __slots__ = ("term", "env")

    def __init__(self, term, env):
        self.term = term
        self.env = env


class _VLam:
    __slots__ = ("name", "body", "env")

    def __init__(self, name, body, env):
        self.name = name
        self.body = body
        self.env = env


class _VNeutral:
    __slots__ = ("head", "spine")

    def __init__(self, head: int | str, spine: list):
        # head: a free name, or the id of a binder that quote opened
        self.head = head
        self.spine = spine  # thunks in application order


def _eval(term: PureTerm, env, ctr: _Counter):
    """Weak-head evaluation, iterative over application spines.

    Environments are persistent chains ``(name, value, parent)`` or
    ``None``; a value is a thunk, or the spine-less neutral that quote
    binds to a fresh variable."""
    args: list[_Thunk] = []
    while True:
        cls = type(term)
        if cls is PApp:
            args.append(_Thunk(term.arg, env))
            term = term.fn
        elif cls is PLam:
            if not args:
                return _VLam(term.name, term.body, env)
            # eta is charged only after readback, so beta has the whole budget
            if ctr.beta >= ctr.limit:
                raise FuelExhaustedError(ctr.beta, 0)
            ctr.beta += 1
            env = (term.name, args.pop(), env)
            term = term.body
        else:  # PVar
            name = term.name
            link = env
            while link is not None:
                if link[0] == name:
                    th = link[1]
                    break
                link = link[2]
            else:
                body = ctr.defs.get(name)
                if body is None:
                    return _VNeutral(name, args[::-1])
                # a global, in the empty environment: nothing here binds its free names
                term, env = body, None
                continue
            if type(th) is _VNeutral:
                return _VNeutral(th.head, args[::-1]) if args else th
            term, env = th.term, th.env


def _quote(v, ctr: _Counter) -> tuple[PureTerm, dict[str, int]]:
    """Read a value back as a beta-eta-normal term, iteratively; arguments
    of neutral spines are evaluated left to right, matching leftmost-
    outermost normalization order.

    Every node of the result is built once, in this walk.  Each binder
    quote opens gets an integer id, which the neutral it binds carries as
    its head, and one ``PVar`` node that all its occurrences share.  Each
    abstraction is eta-contracted as it is rebuilt, after its body, and
    tallied in ``ctr.eta`` without a fuel check: ``λx. t x`` contracts
    exactly when ``x`` is emitted once, as that very argument node.

    Binders are named at the end, when the normal form's free variables
    and the surviving binders are known.  A binder's base is its hint's
    (``syntax.base_name``: the hint before any ``%``, without trailing
    digits); bases that differ never compete for a name, and a surviving
    binder under ``k`` surviving binders of its base takes the ``k``-th
    of ``base, base1, base2, …`` that is not free.  Naming writes into the
    ``PLam`` and ``PVar`` of each binder, nodes no caller has seen yet,
    so readback is linear in the size of the normal form.

    Returns the term and the count of each head emitted but not bound by
    an abstraction of the result: every abstraction removes its own
    binder's entry, so the keys are exactly the term's free variables."""
    out: list[PureTerm] = []
    uses: dict = {}  # binder id or free name -> occurrences not yet bound
    # per binder id: its base, the enclosing open binder of that base
    # (-1 if none), its PLam (None if eta-contracted) and its PVar
    bases: list[str] = []
    parents: list[int] = []
    lams: list[Optional[PLam]] = []
    pvars: list[PVar] = []
    innermost: dict[str, int] = {}  # per base: the open binder, or -1
    # values and thunks to read back, a binder id to close an
    # abstraction, or (head node, arity) to close a neutral spine
    work: list = [v]
    while work:
        item = work.pop()
        cls = type(item)
        if cls is _Thunk:
            item = _eval(item.term, item.env, ctr)
            cls = type(item)
        if cls is _VNeutral:
            head, spine = item.head, item.spine
            uses[head] = uses.get(head, 0) + 1
            node = pvars[head] if type(head) is int else PVar(head)
            if spine:
                work.append((node, len(spine)))
                work.extend(reversed(spine))
            else:
                out.append(node)
        elif cls is _VLam:
            i = len(bases)
            base = base_name(item.name)
            bases.append(base)
            parents.append(innermost.get(base, -1))
            innermost[base] = i
            lams.append(None)
            pvars.append(PVar(base))
            work.append(i)
            work.append(_eval(item.body, (item.name, _VNeutral(i, []), item.env), ctr))
        elif cls is int:
            body = out.pop()
            innermost[bases[item]] = parents[item]
            if uses.pop(item, 0) == 1 and type(body) is PApp and body.arg is pvars[item]:
                ctr.eta += 1
                out.append(body.fn)
            else:
                lams[item] = lam = PLam(bases[item], body)
                out.append(lam)
        else:  # (head node, arity): the spine's arguments are the last outputs
            t, arity = item
            first = len(out) - arity
            for a in out[first:]:
                t = PApp(t, a)
            del out[first:]
            out.append(t)

    # naming, in creation order, so a binder's ancestors come first
    taken: dict[str, list[str]] = {}  # per base: the candidates not free, so far
    tried: dict[str, int] = {}  # per base: candidates generated
    depth = [0] * len(bases)  # per binder: surviving binders of its base above it
    for i, base in enumerate(bases):
        p = parents[i]
        if p >= 0:
            depth[i] = depth[p] + (lams[p] is not None)
        lam = lams[i]
        if lam is None:
            continue
        k = depth[i]
        names = taken.setdefault(base, [])
        while len(names) <= k:
            n = tried.get(base, 0)
            tried[base] = n + 1
            cand = f"{base}{n}" if n else base
            if cand not in uses:
                names.append(cand)
        lam.name = pvars[i].name = names[k]
    return out[0], uses


# --- public operations ------------------------------------------------------


def _ensure_recursion_room():
    # the machine itself is iterative; this headroom covers recursive
    # helpers elsewhere (parser, checker, printers) on deep corpus terms
    if sys.getrecursionlimit() < 5_000:
        sys.setrecursionlimit(5_000)


def normalize(t: PureTerm, fuel: Fuel = Fuel(), defs: Mapping[str, PureTerm] = _NO_DEFS) -> NormalizeOutcome:
    """Normal-order beta-normalization followed by exhaustive
    eta-contraction, with exact step tallies.  Deterministic for a fixed
    input and fuel; returns a fuel-exhausted outcome rather than raising.
    Eta steps spend what fuel the beta steps leave.

    ``defs`` maps global names to pure terms.  A free variable of ``t``
    that ``defs`` names unfolds to its entry when the machine looks it
    up, without charging fuel, so the outcome equals that of ``t`` with
    those names substituted (capture-avoiding); other free variables
    stay neutral.  The table is only read."""
    _ensure_recursion_room()
    ctr = _Counter(fuel.max_steps, defs)
    try:
        nf, _ = _quote(_eval(t, None, ctr), ctr)
    except FuelExhaustedError as e:
        return NormalizeOutcome(None, e.beta_steps, e.eta_steps)
    if ctr.beta + ctr.eta > ctr.limit:
        return NormalizeOutcome(None, ctr.beta, ctr.limit - ctr.beta)
    return NormalizeOutcome(nf, ctr.beta, ctr.eta)


def beta_eta_eq(a: PureTerm, b: PureTerm, fuel: Fuel = Fuel(), defs: Mapping[str, PureTerm] = _NO_DEFS) -> bool:
    """True iff both terms normalize within fuel to alpha-equal normal
    forms, with the free variables that ``defs`` names unfolded as in
    ``normalize``.  Fuel exhaustion raises rather than answering falsely,
    with ``side`` the index of the argument that ran out."""
    na = normalize(a, fuel, defs)
    if na.fuel_exhausted:
        raise FuelExhaustedError(na.beta_steps, na.eta_steps, 0)
    nb = normalize(b, fuel, defs)
    if nb.fuel_exhausted:
        raise FuelExhaustedError(nb.beta_steps, nb.eta_steps, 1)
    return alpha_eq(na.result, nb.result)


def apply_and_count(f: PureTerm, args: Sequence[PureTerm], fuel: Fuel = Fuel()) -> NormalizeOutcome:
    """Build the iterated application of ``f`` to ``args`` and normalize
    it; ``beta_steps`` is the cost figure reported by the harness."""
    t = f
    for a in args:
        t = PApp(t, a)
    return normalize(t, fuel)
