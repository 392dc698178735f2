"""Normalization of pure terms with fuel and exact step accounting.

The normalizer is a call-by-name environment machine (closures and
neutral spines, no memoized thunks).  Because thunks are re-evaluated at
every use, the number of closure applications it performs is exactly the
number of beta-contractions a textual leftmost-outermost (normal-order)
reducer would perform, which is the counting convention reported in
``NormalizeOutcome``: beta-reduce to beta-normal form in normal order,
then eta-contract exhaustively (``λx. t x → t`` when ``x`` is not free
in ``t``).  Eta-contraction of a beta-normal form cannot create new
beta-redexes, so the interleaving converges after the first eta pass.

Step tallies and the binder names quote makes up live in a per-call
counter, so the functions share no mutable state (beyond the recursion
limit that ``normalize`` raises) and are safe to run concurrently.  The
one global counter left in the kernel is the ``itertools.count`` behind
``syntax.fresh_name``, whose names need only be distinct.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .syntax import PApp, PLam, PVar, PureTerm, alpha_eq, free_vars

DEFAULT_MAX_STEPS = 1_000_000


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
    """Per-call state: step tallies against the budget, and the number of
    binder names ``_quote`` has made up so far."""

    __slots__ = ("beta", "eta", "limit", "names")

    def __init__(self, limit: int):
        self.beta = 0
        self.eta = 0
        self.limit = limit
        self.names = 0

    def tick_beta(self):
        if self.beta + self.eta >= self.limit:
            raise FuelExhaustedError(self.beta, self.eta)
        self.beta += 1

    def tick_eta(self):
        if self.beta + self.eta >= self.limit:
            raise FuelExhaustedError(self.beta, self.eta)
        self.eta += 1

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
                spine = list(reversed(args))
                return _VNeutral(term.name, spine)
            if isinstance(th, _VNeutral) and not th.spine:
                # fresh variable introduced by quote
                if args:
                    return _VNeutral(th.head, list(reversed(args)))
                return th
            term, env = th.term, th.env


def _quote(v, ctr: _Counter) -> PureTerm:
    """Read a value back as a beta-normal term, iteratively; arguments of
    neutral spines are evaluated left to right, matching leftmost-
    outermost normalization order."""
    out: list[PureTerm] = []
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
            out.append(PLam(frame[1], out.pop()))
        else:  # neu
            head, k = frame[1], frame[2]
            args = [out.pop() for _ in range(k)]
            args.reverse()
            t: PureTerm = PVar(head)
            for a in args:
                t = PApp(t, a)
            out.append(t)
    return out[0]


# --- eta --------------------------------------------------------------------


def _eta_pass(t: PureTerm, ctr: _Counter) -> PureTerm:
    """One bottom-up eta pass; cascading redexes exposed upward are
    caught in the same pass."""
    out: list[PureTerm] = []
    work: list[tuple] = [("go", t)]
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == "go":
            cur = frame[1]
            cls = type(cur)
            if cls is PVar:
                out.append(cur)
            elif cls is PApp:
                work.append(("app",))
                work.append(("go", cur.arg))
                work.append(("go", cur.fn))
            else:
                work.append(("lam", cur.name))
                work.append(("go", cur.body))
        elif tag == "app":
            arg = out.pop()
            fn = out.pop()
            out.append(PApp(fn, arg))
        else:  # lam
            name = frame[1]
            body = out.pop()
            if (
                isinstance(body, PApp)
                and isinstance(body.arg, PVar)
                and body.arg.name == name
                and name not in free_vars(body.fn)
            ):
                ctr.tick_eta()
                out.append(body.fn)
            else:
                out.append(PLam(name, body))
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


def normalize(t: PureTerm, fuel: Fuel = Fuel()) -> NormalizeOutcome:
    """Normal-order beta-normalization followed by exhaustive
    eta-contraction, with exact step tallies.  Deterministic for a fixed
    input and fuel; returns a fuel-exhausted outcome rather than raising.
    """
    _ensure_recursion_room()
    ctr = _Counter(fuel.max_steps)
    try:
        value = _eval(t, None, ctr)
        nf = _quote(value, ctr)
        while True:
            before = ctr.eta
            nf = _eta_pass(nf, ctr)
            if ctr.eta == before:
                break
    except FuelExhaustedError as e:
        return NormalizeOutcome(None, e.beta_steps, e.eta_steps)
    return NormalizeOutcome(tidy_names(nf), ctr.beta, ctr.eta)


def beta_eta_eq(a: PureTerm, b: PureTerm, fuel: Fuel = Fuel()) -> bool:
    """True iff both terms normalize within fuel to alpha-equal normal
    forms.  Fuel exhaustion raises rather than answering falsely."""
    na = normalize(a, fuel)
    if na.fuel_exhausted:
        raise FuelExhaustedError(na.beta_steps, na.eta_steps)
    nb = normalize(b, fuel)
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
