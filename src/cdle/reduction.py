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

Top-level definitions unfold on lookup: ``normalize`` and
``beta_eta_eq`` take an optional ``defs`` table of pure terms (the
checker passes its expanded erasures), and a variable that no binder in
scope binds but ``defs`` names continues as that entry, evaluated in the
empty environment so that no binder at the use site captures the
entry's free variables.  Unfolding is not a contraction, so it is
counted in neither tally and charges no fuel: the counts equal those of
normalizing the term with every such name substituted by its entry.

Step tallies and the binder names quote makes up live in a per-call
counter, so the functions share no mutable state (beyond the recursion
limit that ``normalize`` raises) and are safe to run concurrently.  The
one global counter left in the kernel is the ``itertools.count`` behind
``syntax.fresh_name``, whose names need only be distinct.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .syntax import PApp, PLam, PVar, PureTerm, alpha_eq, free_vars

DEFAULT_MAX_STEPS = 1_000_000

_NO_DEFS: Mapping[str, PureTerm] = MappingProxyType({})


class FuelExhaustedError(Exception):
    """Raised when normalization exceeds its contraction budget."""

    def __init__(self, beta_steps: int, eta_steps: int):
        super().__init__(f"fuel exhausted after {beta_steps} beta / {eta_steps} eta steps")
        self.beta_steps = beta_steps
        self.eta_steps = eta_steps


@dataclass(frozen=True)
class Fuel:
    """Contraction budget; strictly positive."""

    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("fuel must be strictly positive")


@dataclass(frozen=True)
class NormalizeOutcome:
    """Result of normalization: the normal form (or None on fuel
    exhaustion) plus exact tallies of contractions performed."""

    result: Optional[PureTerm]
    beta_steps: int
    eta_steps: int

    @property
    def fuel_exhausted(self) -> bool:
        return self.result is None


class _Counter:
    """Per-call state: step tallies against the budget, the number of
    binder names ``_quote`` has made up so far, and the definitions that
    free variables unfold to."""

    __slots__ = ("beta", "eta", "limit", "names", "defs")

    def __init__(self, limit: int, defs: Mapping[str, PureTerm]):
        self.beta = 0
        self.eta = 0
        self.limit = limit
        self.names = 0
        self.defs = defs

    def tick_beta(self):
        # eta is charged only after readback, so beta has the whole budget
        if self.beta >= self.limit:
            raise FuelExhaustedError(self.beta, 0)
        self.beta += 1

    def fresh_quote_name(self, hint: str) -> str:
        """A binder name for ``_quote``, fresh within this call: no input
        has a ``%q`` name, as parsed names have no ``%`` and
        ``syntax.fresh_name`` puts digits after it."""
        self.names += 1
        base = hint.split("%")[0].rstrip("0123456789") or "x"
        return f"{base}%q{self.names}"


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

    def __init__(self, head: str, spine: list):
        self.head = head
        self.spine = spine  # thunks in application order


# environments are persistent chains: (name, thunk, parent) or None
def _env_lookup(env, name: str):
    while env is not None:
        if env[0] == name:
            return env[1]
        env = env[2]
    return None


def _eval(term: PureTerm, env, ctr: _Counter):
    """Weak-head evaluation, iterative over application spines."""
    args: list[_Thunk] = []
    while True:
        cls = type(term)
        if cls is PApp:
            args.append(_Thunk(term.arg, env))
            term = term.fn
        elif cls is PLam:
            if args:
                ctr.tick_beta()
                env = (term.name, args.pop(), env)
                term = term.body
            else:
                return _VLam(term.name, term.body, env)
        else:  # PVar
            th = _env_lookup(env, term.name)
            if th is None:
                body = ctr.defs.get(term.name)
                if body is None:
                    return _VNeutral(term.name, list(reversed(args)))
                # a global, in the empty environment: nothing here binds its free names
                term, env = body, None
                continue
            if isinstance(th, _VNeutral) and not th.spine:
                # fresh variable introduced by quote
                if args:
                    return _VNeutral(th.head, list(reversed(args)))
                return th
            term, env = th.term, th.env


def _quote(v, ctr: _Counter) -> PureTerm:
    """Read a value back as a beta-eta-normal term, iteratively; arguments
    of neutral spines are evaluated left to right, matching leftmost-
    outermost normalization order.

    Each abstraction is eta-contracted as it is rebuilt, after its body,
    and tallied in ``ctr.eta`` without a fuel check.  Its binder name is
    fresh within the call, so ``λx. t x`` contracts exactly when ``x`` is
    emitted once as a neutral head while reading back the body."""
    out: list[PureTerm] = []
    uses: dict[str, int] = {}
    work: list[tuple] = [("q", v)]
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == "q":
            val = frame[1]
            if isinstance(val, _VLam):
                fresh = ctr.fresh_quote_name(val.name)
                inner = _eval(val.body, (val.name, _VNeutral(fresh, []), val.env), ctr)
                work.append(("lam", fresh))
                work.append(("q", inner))
            else:
                work.append(("neu", val.head, len(val.spine)))
                for th in reversed(val.spine):
                    work.append(("force", th))
        elif tag == "force":
            th = frame[1]
            val = th if isinstance(th, _VNeutral) else _eval(th.term, th.env, ctr)
            work.append(("q", val))
        elif tag == "lam":
            name, body = frame[1], out.pop()
            if uses.pop(name, 0) == 1 and type(body) is PApp and body.arg == PVar(name):
                ctr.eta += 1
                out.append(body.fn)
            else:
                out.append(PLam(name, body))
        else:  # neu
            head, first = frame[1], len(out) - frame[2]
            uses[head] = uses.get(head, 0) + 1
            t: PureTerm = PVar(head)
            for a in out[first:]:
                t = PApp(t, a)
            del out[first:]
            out.append(t)
    return out[0]


# --- canonical display names ------------------------------------------------


def tidy_names(t: PureTerm) -> PureTerm:
    """Deterministically rename binders to short, collision-free names so
    normal forms do not show the numbered names that quote and
    ``syntax.fresh_name`` make up."""
    global_free = free_vars(t)
    out: list[PureTerm] = []
    work: list[tuple] = [("go", t, {}, frozenset())]
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == "go":
            _, cur, env, scope = frame
            cls = type(cur)
            if cls is PVar:
                out.append(PVar(env.get(cur.name, cur.name)))
            elif cls is PApp:
                work.append(("app",))
                work.append(("go", cur.arg, env, scope))
                work.append(("go", cur.fn, env, scope))
            else:
                base = cur.name.split("%")[0] or "x"
                cand = base
                n = 0
                while cand in scope or cand in global_free:
                    n += 1
                    cand = f"{base}{n}"
                env2 = dict(env)
                env2[cur.name] = cand
                work.append(("lam", cand))
                work.append(("go", cur.body, env2, scope | {cand}))
        elif tag == "app":
            a = out.pop()
            f = out.pop()
            out.append(PApp(f, a))
        else:
            out.append(PLam(frame[1], out.pop()))
    return out[0]


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
        nf = _quote(_eval(t, None, ctr), ctr)
    except FuelExhaustedError as e:
        return NormalizeOutcome(None, e.beta_steps, e.eta_steps)
    if ctr.beta + ctr.eta > ctr.limit:
        return NormalizeOutcome(None, ctr.beta, ctr.limit - ctr.beta)
    return NormalizeOutcome(tidy_names(nf), ctr.beta, ctr.eta)


def beta_eta_eq(a: PureTerm, b: PureTerm, fuel: Fuel = Fuel(), defs: Mapping[str, PureTerm] = _NO_DEFS) -> bool:
    """True iff both terms normalize within fuel to alpha-equal normal
    forms, with the free variables that ``defs`` names unfolded as in
    ``normalize``.  Fuel exhaustion raises rather than answering
    falsely."""
    na = normalize(a, fuel, defs)
    if na.fuel_exhausted:
        raise FuelExhaustedError(na.beta_steps, na.eta_steps)
    nb = normalize(b, fuel, defs)
    if nb.fuel_exhausted:
        raise FuelExhaustedError(nb.beta_steps, nb.eta_steps)
    return alpha_eq(na.result, nb.result)


def apply_and_count(f: PureTerm, args: Sequence[PureTerm], fuel: Fuel = Fuel()) -> NormalizeOutcome:
    """Build the iterated application of ``f`` to ``args`` and normalize
    it; ``beta_steps`` is the cost figure reported by the harness."""
    t = f
    for a in args:
        t = PApp(t, a)
    return normalize(t, fuel)
