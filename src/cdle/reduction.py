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

Readback ends with a naming pass, ``tidy_names``, which gives binders
short display names in one walk over the normal form.  It takes the
normal form's free variables from quote, which counts the heads it
emits, rather than walking the term for them, so naming takes time
linear in the size of the normal form however deeply its binders nest.

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
from typing import Container, Mapping, Optional, Sequence

from .syntax import PApp, PLam, PVar, PureTerm, alpha_eq

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

    def fresh_quote_name(self, hint: str) -> str:
        """A binder name for ``_quote``, fresh within this call: no input
        has a ``%q`` name, as parsed names have no ``%`` and
        ``syntax.fresh_name`` puts digits after it.  The part before
        ``%`` (the base) never ends in a digit."""
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

    Each abstraction is eta-contracted as it is rebuilt, after its body,
    and tallied in ``ctr.eta`` without a fuel check.  Its binder name is
    fresh within the call, so ``λx. t x`` contracts exactly when ``x`` is
    emitted once as a neutral head while reading back the body.

    Returns the term and the count of each head emitted but not bound by
    an abstraction of the result: every abstraction removes its own
    binder's entry, so the keys are exactly the term's free variables."""
    out: list[PureTerm] = []
    uses: dict[str, int] = {}
    # values and thunks to read back, a binder name to close an
    # abstraction, or (head, arity) to close a neutral spine
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
            if spine:
                work.append((head, len(spine)))
                work.extend(reversed(spine))
            else:
                out.append(PVar(head))
        elif cls is _VLam:
            fresh = ctr.fresh_quote_name(item.name)
            work.append(fresh)
            work.append(_eval(item.body, (item.name, _VNeutral(fresh, []), item.env), ctr))
        elif cls is str:
            body = out.pop()
            if uses.pop(item, 0) == 1 and type(body) is PApp:
                arg = body.arg
                if type(arg) is PVar and arg.name == item:
                    ctr.eta += 1
                    out.append(body.fn)
                    continue
            out.append(PLam(item, body))
        else:  # (head, arity): the spine's arguments are the last outputs
            head, arity = item
            first = len(out) - arity
            t: PureTerm = PVar(head)
            for a in out[first:]:
                t = PApp(t, a)
            del out[first:]
            out.append(t)
    return out[0], uses


# --- canonical display names ------------------------------------------------


def tidy_names(t: PureTerm, free: Container[str]) -> PureTerm:
    """Deterministically rename binders to short, collision-free names so
    normal forms do not show the numbered names that quote makes up.

    ``t`` is quote's output and ``free`` holds its free variables.  A
    binder whose name has base ``b`` (the part before ``%``) becomes the
    first of ``b, b1, b2, …`` that is neither free in ``t`` nor the name
    of an enclosing binder.  Quote's binder names are distinct and their
    bases never end in a digit, so binders of different bases never
    compete for a name, and the binder under ``k`` enclosing binders of
    its base gets the ``k``-th candidate that is not free.  One walk with
    a flat rename map and one depth per base names every binder, in time
    linear in the size of ``t``."""
    rename: dict[str, str] = {}
    names: dict[str, list[str]] = {}  # per base: the candidates not free, so far
    tried: dict[str, int] = {}  # per base: candidates generated
    depth: dict[str, int] = {}  # per base: binders of that base in scope
    out: list[PureTerm] = []
    # terms to rename, None to close an application, or a base to close
    # an abstraction
    work: list = [t]
    while work:
        cur = work.pop()
        cls = type(cur)
        if cls is PVar:
            name = rename.get(cur.name)
            out.append(cur if name is None else PVar(name))
        elif cls is PApp:
            work.append(None)
            work.append(cur.arg)
            work.append(cur.fn)
        elif cls is PLam:
            base = cur.name.split("%")[0] or "x"
            k = depth.get(base, 0)
            taken = names.setdefault(base, [])
            while len(taken) <= k:
                n = tried.get(base, 0)
                tried[base] = n + 1
                cand = f"{base}{n}" if n else base
                if cand not in free:
                    taken.append(cand)
            rename[cur.name] = taken[k]
            depth[base] = k + 1
            work.append(base)
            work.append(cur.body)
        elif cur is None:
            a = out.pop()
            out[-1] = PApp(out[-1], a)
        else:
            k = depth[cur] - 1
            depth[cur] = k
            out[-1] = PLam(names[cur][k], out[-1])
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
        nf, free = _quote(_eval(t, None, ctr), ctr)
    except FuelExhaustedError as e:
        return NormalizeOutcome(None, e.beta_steps, e.eta_steps)
    if ctr.beta + ctr.eta > ctr.limit:
        return NormalizeOutcome(None, ctr.beta, ctr.limit - ctr.beta)
    return NormalizeOutcome(tidy_names(nf, free), ctr.beta, ctr.eta)


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
