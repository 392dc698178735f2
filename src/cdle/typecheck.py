"""Bidirectional type and kind checking.

Introductions check, eliminations infer, and a conversion check mediates
the mode switch.  Conversion on types is structural congruence after
type-level beta-normalization.  A type whose head is a variable is
compared by its spine, and definition unfolding is on demand: a defined
head is only unfolded when the spines cannot be matched directly.  Any
other two types, and two kinds, convert when they are of one class and
their children convert pairwise, walked as ``syntax.LAYOUT`` lists them:
types and kinds by conversion, embedded terms by beta-eta equality of
their erasures (top-level definitions unfold when the normalizer looks
them up).  A type-level λ's annotation is not compared, just as erasure
drops a term-level one's.  Two binders' bodies are compared through the
pair, as in ``alpha_eq``, with nothing substituted into them.  A
pair of one name is left as it is, so parts that substitution shared
meet as the same object and compare at once, unless a definition owns
the name (the global would be unfolded where the bound variable is
meant); otherwise the two names are renamed to one fresh variable, which
only a variable head, an embedded term about to be erased, and the
shared-part test read.  A side whose head is unfolded has its renaming
substituted in first, so a definition's body, which names globals, is
never read through it.

Binders are instantiated by extending an environment (Coquand 1996): an
application spine ``f a1 … ak`` checks each argument against its domain
under the pending ``{x1: a1, …}`` and substitutes the codomain once, at
its end, as type spines do with their kinds.  The pending environment is
substituted early where the head must be unfolded or beta-reduced, since
an unfolded body may mention a global whose name a key shadows.  For a
telescope one simultaneous substitution equals the sequential ones up to
alpha.

Each name is bound once: where a binder is opened (``Checker._with``), a
name already in scope, a global's or an outer binder's, is bound under a
fresh name renamed in the binder's scope, so no binder captures an outer
name or shadows a global.  A message can show such a name as ``x%1``.

Each definition is checked once per scope, as a module system checks an
unchanged module once (Cardelli 1997): ``check_defs`` keeps a record of
each definition it checked from an empty checker, and replays one whose
syntax, fuel and scope match.  See ``check_defs`` for when they do.

The equality constructs follow the usual reading:

* ``β`` checks against ``t1 ≃ t2`` when both sides are scope-valid and
  their erasures are beta-eta equal.  (Equality *formation* additionally
  requires both sides to synthesize a type; rewritten goals produced by
  ρ are not re-kinded, which is what makes normal-form sides usable.)
* ``ρ q - t`` with ``q : t1 ≃ t2`` replaces occurrences of ``t1`` by
  ``t2`` in the visible classifier: in checking mode the expected type
  is rewritten before checking ``t``; in synthesis mode the type
  synthesized for ``t`` is rewritten.  Occurrences are matched on the
  beta-eta-normal erasure of each embedded term, so matches up to
  definitional equality are found (this is required for the usual
  inductive equality proofs to go through).
* ``φ q - t1 {t2}`` checks against ``T`` when ``t1`` does, ``q`` proves
  ``t1 ≃ t2`` (by erasure comparison on both sides), and ``t2`` is
  scope-valid; the construct erases to ``|t2|``.
"""

from __future__ import annotations

import enum
import re
from contextlib import contextmanager
from typing import NamedTuple, Optional, Union

from . import pretty as pp
from .erasure import erase
from .reduction import Fuel, FuelExhaustedError, beta_eta_eq, normalize
from .syntax import (
    All,
    AllK,
    App,
    Beta,
    Bind,
    Classifier,
    Defn,
    EApp,
    ELam,
    Eq,
    Iota,
    IotaPair,
    Kind,
    KPi,
    KPiK,
    LAYOUT,
    Lam,
    PApp,
    Phi,
    Pi,
    Proj,
    PureTerm,
    PVar,
    Rho,
    Span,
    Star,
    Sym,
    TAppE,
    TAppT,
    TLam,
    TVar,
    Term,
    Type,
    Var,
    alpha_eq,
    demote_skeleton,
    free_names,
    fresh_name,
    promote_skeleton,
    subst1,
    subst_syntax,
)


class ErrorCode(enum.Enum):
    UnboundName = "UnboundName"
    KindMismatch = "KindMismatch"
    TypeMismatch = "TypeMismatch"
    ErasedVarOccursFree = "ErasedVarOccursFree"
    IntersectionErasureMismatch = "IntersectionErasureMismatch"
    RhoNoOccurrence = "RhoNoOccurrence"
    PhiEqMismatch = "PhiEqMismatch"
    EqSidesUntypeable = "EqSidesUntypeable"
    NotAFunction = "NotAFunction"
    NotAnIntersection = "NotAnIntersection"
    FuelExhausted = "FuelExhausted"


class CheckError(Exception):
    def __init__(self, code: ErrorCode, message: str, span: Optional[Span] = None):
        super().__init__(f"{code.value}: {message}" + (f" at {span}" if span else ""))
        self.code = code
        self.message = message
        self.span = span


def _out_of_fuel(what: str, t: Term, site: Optional[str], sp: Optional[Span]) -> CheckError:
    """The FuelExhausted error for normalizing ``t``, naming where ``t``
    is written when it has a source position, and then the construct
    that asked for it (φ, β, an ι pair, ρ, a λ or Λ annotation, or the
    check of a term or type against its classifier, for a conversion
    inside a type conversion) and where that is: ``t`` may come from a
    type and be written in another definition.  The error's own position
    is the construct's."""
    msg = f"{what} ran out of fuel" + (f" at {t.span}" if t.span else "")
    if site is not None:
        msg += f", asked by the {site}" + (f" at {sp}" if sp else "")
    return CheckError(ErrorCode.FuelExhausted, msg, sp)


def _canon_msg(s: str) -> str:
    """Replace fresh-name counters by per-message sequential ids so error
    messages are byte-identical across runs.  Applied once, where
    ``check_defs`` records a failed definition."""
    seen: dict[str, str] = {}

    def sub(m):
        tok = m.group(0)
        if tok not in seen:
            seen[tok] = f"%{len(seen) + 1}"
        return seen[tok]

    return re.sub(r"%\d+", sub, s)


class Checker:
    """A single-threaded checker that owns its scope table ``ctx``: a dict
    from each name in scope to its entry, a ``Defn`` for each checked
    global and a ``Bind`` for each binder open.  Since each name is bound
    once (module docstring), opening a binder adds its entry and closing
    it deletes the entry again.  Distinct instances can share syntax
    values, which are immutable."""

    def __init__(self, fuel: Fuel = Fuel()):
        self.fuel = fuel
        self.ctx: dict[str, Union[Bind, Defn]] = {}
        self.pure_env: dict[str, PureTerm] = {}

    # ------------------------------------------------------------------
    # erasure pipeline
    # ------------------------------------------------------------------

    def pure_of(self, t: Term) -> PureTerm:
        """Erasure of ``t`` with the top-level definitions it mentions
        expanded, by one ``subst_syntax`` of their ``pure_env`` entries,
        which it shares rather than copies.  The checker calls it only to
        fill ``pure_env``, whose expanded entries callers read directly:
        conversions and ρ normalize the plain erasure and pass
        ``pure_env`` to the machine, which unfolds a global when it looks
        the name up."""
        p = erase(t)
        env = self.pure_env
        return subst_syntax(p, {n: env[n] for n in free_names(p) if n in env})

    def terms_conv(self, a: Term, b: Term, site: Optional[str] = None, sp: Optional[Span] = None) -> bool:
        """Whether ``a`` and ``b`` have βη-equal erasures; ``site`` at
        ``sp`` is the construct that asks, named when fuel runs out (a
        conversion inside a type conversion has that conversion's)."""
        try:
            return beta_eta_eq(erase(a), erase(b), self.fuel, self.pure_env)
        except FuelExhaustedError as e:
            raise _out_of_fuel("conversion", (a, b)[e.side], site, sp)

    # ------------------------------------------------------------------
    # scope helpers
    # ------------------------------------------------------------------

    def _classifier_of(self, name: str, span, sort: type) -> Classifier:
        """The classifier of ``name`` when it names a term (``sort`` is
        ``Type``) or a type (``sort`` is ``Kind``)."""
        e = self.ctx.get(name)
        if e is not None and isinstance(e.classifier, sort):
            return e.classifier
        if e is None:
            raise CheckError(ErrorCode.UnboundName, f"unbound {'' if sort is Type else 'type '}name {name!r}", span)
        raise CheckError(ErrorCode.UnboundName, f"{name!r} is not a {'term' if sort is Type else 'type'}", span)

    @contextmanager
    def _with(self, name: str, classifier: Classifier, scope):
        """Run a block with ``name``, the binder of ``scope``, in scope at
        ``classifier``, yielding the name and scope the block reads: a name
        already bound is bound fresh and renamed in ``scope`` (module
        docstring).  ``_`` is never entered, since nothing refers to it."""
        if name == "_":
            yield name, scope
            return
        if name in self.ctx:
            fresh = fresh_name(name)
            scope = subst1(scope, name, (TVar if isinstance(classifier, Kind) else Var)(fresh))
            name = fresh
        self.ctx[name] = Bind(name, classifier)
        try:
            yield name, scope
        finally:
            del self.ctx[name]

    def scope_check(self, t: Union[Term, Type], span=None) -> None:
        for n in sorted(free_names(t)):
            if n not in self.ctx:
                raise CheckError(ErrorCode.UnboundName, f"unbound name {n!r}", span)

    # ------------------------------------------------------------------
    # type-level computation
    # ------------------------------------------------------------------

    def whnf_beta(self, T: Type) -> Type:
        """Contract type-level beta redexes at the head (no unfolding)."""
        while isinstance(T, (TAppT, TAppE)):
            f = self.whnf_beta(T.fn)
            if not isinstance(f, TLam):
                return type(T)(f, T.arg, T.span) if f is not T.fn else T
            T = subst1(f.body, f.name, T.arg)
        return T

    def _unfold_head(self, T: Type, ren=None) -> Optional[Type]:
        """Unfold a defined head name once; None if nothing to unfold or
        the head is renamed by ``ren``.  ``ren`` is substituted into ``T``
        first, so the definition's body is never read through it."""
        head = T
        while isinstance(head, (TAppT, TAppE)):
            head = head.fn
        if not isinstance(head, TVar) or ren and head.name in ren:
            return None
        e = self.ctx.get(head.name)
        if isinstance(e, Defn) and isinstance(e.classifier, Kind) and e.body is not None:
            return self._replace_head(subst_syntax(T, ren) if ren else T, e.body)
        return None

    def _replace_head(self, T: Type, new_head: Type) -> Type:
        if isinstance(T, (TAppT, TAppE)):
            return type(T)(self._replace_head(T.fn, new_head), T.arg, T.span)
        return new_head

    def whnf_type(self, T: Type) -> Type:
        """Head normal form with definition unfolding: used when checking
        needs the goal's head constructor."""
        while True:
            T = self.whnf_beta(T)
            unfolded = self._unfold_head(T)
            if unfolded is None:
                return T
            T = unfolded

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------

    def types_conv(self, A: Type, B: Type, ren=None, at=(None, None)) -> bool:
        """Conversion of two types.  ``ren`` holds, for each side, the
        binder pairs opened so far that are renamed (a name to the ``Var``
        of the pair's fresh variable); see the module docstring.  ``at``
        is the ``(site, span)`` of the construct that asks, which a term
        conversion inside names when fuel runs out (``terms_conv``)."""
        ren_a, ren_b = ren = ren or ({}, {})
        A = self.whnf_beta(A)
        B = self.whnf_beta(B)
        if A is B and (not (ren_a or ren_b) or free_names(A).isdisjoint(ren_a.keys() | ren_b.keys())):
            return True

        # spine fast path: same defined (or bound) head, matching args
        ha, sa = self._spine(A)
        hb, sb = self._spine(B)
        if isinstance(ha, TVar) and isinstance(hb, TVar):
            if ren_a.get(ha.name, ha).name == ren_b.get(hb.name, hb).name and len(sa) == len(sb):
                if all(self._conv(x, y, ren, at) for x, y in zip(sa, sb)):
                    return True
            # an unfolded side has its renaming substituted in and drops it
            ua, ub = self._unfold_head(A, ren_a), self._unfold_head(B, ren_b)
            if ua is None and ub is None:
                return False
            return self.types_conv(ua or A, ub or B, ({} if ua else ren_a, {} if ub else ren_b), at)
        if isinstance(ha, TVar):
            ua = self._unfold_head(A, ren_a)
            return ua is not None and self.types_conv(ua, B, ({}, ren_b), at)
        if isinstance(hb, TVar):
            ub = self._unfold_head(B, ren_b)
            return ub is not None and self.types_conv(A, ub, (ren_a, {}), at)

        if sa:  # an application whose head is no variable (ill-kinded)
            return False
        return self._congruent(A, B, ren, at)

    def _congruent(self, A, B, ren, at) -> bool:
        """Whether two nodes of one class have children that convert
        pairwise, in ``LAYOUT`` order, each by its sort (``_conv``).  Two
        binders' scopes are compared through the pair, renamed in ``ren``
        for the scope unless the two share a name that no definition owns
        (see the module docstring).  A type-level λ's annotation is not
        compared."""
        cls, (ren_a, ren_b) = type(A), ren
        if cls is not type(B):
            return False
        for child, binder in LAYOUT[cls]:
            if child == "ann":
                continue
            a, b = getattr(A, child), getattr(B, child)
            if binder is None:
                if not self._conv(a, b, ren, at):
                    return False
                continue
            x, y = getattr(A, binder), getattr(B, binder)
            z = Var(fresh_name(x)) if x != y or isinstance(self.ctx.get(x), Defn) else None
            saved = _rebind(ren_a, x, z), _rebind(ren_b, y, z)
            ok = self._conv(a, b, ren, at)
            _rebind(ren_a, x, saved[0]), _rebind(ren_b, y, saved[1])
            if not ok:
                return False
        return True

    def _spine(self, T: Type):
        args = []
        while isinstance(T, (TAppT, TAppE)):
            args.append(T.arg)
            T = T.fn
        return T, list(reversed(args))

    def _conv(self, x, y, ren, at) -> bool:
        """Conversion of two syntax values of one sort: types, terms or
        kinds, under the renaming ``ren`` (applied to terms here), asked
        for at ``at``."""
        if isinstance(x, Type) and isinstance(y, Type):
            return self.types_conv(x, y, ren, at)
        if isinstance(x, Term) and isinstance(y, Term):
            return self.terms_conv(subst_syntax(x, ren[0]), subst_syntax(y, ren[1]), *at)
        if isinstance(x, Kind) and isinstance(y, Kind):
            return self.kinds_conv(x, y, ren, at)
        return False

    def kinds_conv(self, k1: Kind, k2: Kind, ren=None, at=(None, None)) -> bool:
        return self._congruent(k1, k2, ren or ({}, {}), at)

    # ------------------------------------------------------------------
    # kinds
    # ------------------------------------------------------------------

    def kind_wf(self, k: Kind) -> None:
        if isinstance(k, Star):
            return
        if isinstance(k, (KPi, KPiK)):
            if isinstance(k.dom, Kind):
                self.kind_wf(k.dom)
            elif not isinstance(self.infer_kind(k.dom), Star):
                raise CheckError(ErrorCode.KindMismatch, "kind domain must be a ★-kinded type", k.span)
            with self._with(k.name, k.dom, k.cod) as (_, cod):
                self.kind_wf(cod)
            return
        raise CheckError(ErrorCode.KindMismatch, f"malformed kind {k!r}")

    def infer_kind(self, T: Type) -> Kind:
        match T:
            case TVar(name=n, span=sp):
                return self._classifier_of(n, sp, Kind)
            case Pi(name=n, dom=d, cod=c, span=sp) | All(name=n, dom=d, cod=c, span=sp):
                dk = self.infer_kind(d)
                if not isinstance(dk, Star):
                    raise CheckError(ErrorCode.KindMismatch, "product domain must be ★-kinded", sp)
                with self._with(n, d, c) as (_, c):
                    ck = self.infer_kind(c)
                if not isinstance(ck, Star):
                    raise CheckError(ErrorCode.KindMismatch, "product codomain must be ★-kinded", sp)
                return Star()
            case AllK(name=n, dom=d, cod=c, span=sp):
                self.kind_wf(d)
                with self._with(n, d, c) as (_, c):
                    ck = self.infer_kind(c)
                if not isinstance(ck, Star):
                    raise CheckError(ErrorCode.KindMismatch, "∀ codomain must be ★-kinded", sp)
                return Star()
            case Iota(name=n, fst=f, snd=s, span=sp):
                fk = self.infer_kind(f)
                if not isinstance(fk, Star):
                    raise CheckError(ErrorCode.KindMismatch, "ι first component must be ★-kinded", sp)
                with self._with(n, f, s) as (_, s):
                    sk = self.infer_kind(s)
                if not isinstance(sk, Star):
                    raise CheckError(ErrorCode.KindMismatch, "ι second component must be ★-kinded", sp)
                return Star()
            case Eq(lhs=a, rhs=b, span=sp):
                for side in (a, b):
                    try:
                        self.infer_term(side)
                    except CheckError as e:
                        if e.code == ErrorCode.UnboundName:
                            raise
                        raise CheckError(
                            ErrorCode.EqSidesUntypeable,
                            f"equality side {pp.pretty(side)} is not typeable: {e.message}",
                            sp,
                        )
                return Star()
            case TLam(name=n, body=b, ann=ann, span=sp):
                if ann is None:
                    raise CheckError(
                        ErrorCode.KindMismatch,
                        "cannot infer the kind of an unannotated type-level λ",
                        sp,
                    )
                if isinstance(ann, Kind):
                    self.kind_wf(ann)
                    with self._with(n, ann, b) as (x, b):
                        bk = self.infer_kind(b)
                    return KPiK(x, ann, bk)
                dk = self.infer_kind(ann)
                if not isinstance(dk, Star):
                    raise CheckError(ErrorCode.KindMismatch, "λ binder annotation must be ★-kinded", sp)
                with self._with(n, ann, b) as (x, b):
                    bk = self.infer_kind(b)
                return KPi(x, ann, bk)
            case TAppT() | TAppE():
                # the spine's applications, innermost last; its kind is
                # instantiated once, at the end (see the module docstring)
                apps = []
                while isinstance(T, (TAppT, TAppE)):
                    apps.append(T)
                    T = T.fn
                k, env = self.infer_kind(T), {}
                for app in reversed(apps):
                    to_type = isinstance(app, TAppT)
                    if not isinstance(k, KPiK if to_type else KPi):
                        raise CheckError(
                            ErrorCode.NotAFunction,
                            f"type {pp.pretty(app.fn)} of kind {pp.pretty(subst_syntax(k, env))} "
                            f"cannot take a {'type' if to_type else 'term'} argument",
                            app.span,
                        )
                    check = self.check_type if to_type else self.check_term
                    check(app.arg, subst_syntax(k.dom, env))
                    env[k.name] = app.arg
                    k = k.cod
                return subst_syntax(k, env)
        raise CheckError(ErrorCode.KindMismatch, f"malformed type {T!r}")

    def check_type(self, T: Type, k: Kind) -> None:
        if isinstance(T, TLam) and T.ann is None:
            if not isinstance(k, (KPi, KPiK)):
                raise CheckError(ErrorCode.KindMismatch, "type-level λ against a non-Π kind", T.span)
            with self._with(T.name, k.dom, T.body) as (x, body):
                self.check_type(body, subst1(k.cod, k.name, (TVar if isinstance(k.dom, Kind) else Var)(x)))
            return
        inferred = self.infer_kind(T)
        if not self.kinds_conv(inferred, k, at=("check of the type", T.span)):
            raise CheckError(
                ErrorCode.KindMismatch,
                f"expected kind {pp.pretty(k)}, found {pp.pretty(inferred)}",
                T.span,
            )

    # ------------------------------------------------------------------
    # terms: inference
    # ------------------------------------------------------------------

    def infer_term(self, t: Term) -> Type:
        match t:
            case Var(name=n, span=sp):
                return self._classifier_of(n, sp, Type)
            case App() | EApp():
                # the spine's applications, innermost last; the head's type
                # is instantiated once, at the end (see the module docstring)
                apps = []
                while isinstance(t, (App, EApp)):
                    apps.append(t)
                    t = t.fn
                T, env = self.infer_term(t), {}
                for app in reversed(apps):
                    if isinstance(T, (TVar, TAppT, TAppE)):  # a head to unfold or reduce
                        T, env = self.whnf_type(subst_syntax(T, env)), {}
                    explicit, sp = type(app) is App, app.span
                    if not isinstance(T, Pi if explicit else (All, AllK)):
                        what = "cannot apply a term" if explicit else "-argument given to a term"
                        msg = f"{what} of type {pp.pretty(subst_syntax(T, env))}"
                        if explicit and isinstance(T, (All, AllK)):
                            msg = "implicit function applied explicitly; instantiate with -arg"
                        raise CheckError(ErrorCode.NotAFunction, msg, sp)
                    if isinstance(T, AllK):
                        arg = self._resolve_type_arg(app.arg, sp)
                        self.check_type(arg, subst_syntax(T.dom, env))
                    else:
                        arg = app.arg if explicit else self._resolve_term_arg(app.arg, sp)
                        self.check_term(arg, subst_syntax(T.dom, env))
                    env[T.name] = arg
                    T = T.cod
                return subst_syntax(T, env)
            case Proj(subj=s, idx=i, span=sp):
                Ts = self.whnf_type(self.infer_term(s))
                if not isinstance(Ts, Iota):
                    raise CheckError(
                        ErrorCode.NotAnIntersection,
                        f"projection from a term of type {pp.pretty(Ts)}",
                        sp,
                    )
                if i == 1:
                    return Ts.fst
                return subst1(Ts.snd, Ts.name, Proj(s, 1))
            case Sym(proof=q, span=sp):
                Tq = self.whnf_type(self.infer_term(q))
                if not isinstance(Tq, Eq):
                    raise CheckError(ErrorCode.TypeMismatch, "ς expects an equality proof", sp)
                return Eq(Tq.rhs, Tq.lhs)
            case Rho(proof=q, body=b, hole=h, template=g, span=sp):
                s1, s2 = self._eq_sides(q, sp)
                T = self.infer_term(b)
                return self._rho_rewrite(s1, s2, T, h, g, sp)
            case Phi(proof=q, main=m, target=tg, span=sp):
                T = self.infer_term(m)
                self._phi_conditions(q, m, tg, sp)
                return T
            case Lam(name=n, body=b, ann=ann, span=sp):
                if ann is None:
                    raise CheckError(
                        ErrorCode.TypeMismatch, "cannot infer the type of an unannotated λ", sp
                    )
                self.check_type(ann, Star())
                with self._with(n, ann, b) as (x, b):
                    Tb = self.infer_term(b)
                return Pi(x, ann, Tb)
            case ELam(span=sp):
                raise CheckError(ErrorCode.TypeMismatch, "cannot infer the type of a Λ", sp)
            case Beta(span=sp):
                raise CheckError(ErrorCode.TypeMismatch, "β requires a checking context", sp)
            case IotaPair(span=sp):
                raise CheckError(
                    ErrorCode.TypeMismatch, "[t1, t2] requires a checking context", sp
                )
        raise CheckError(ErrorCode.TypeMismatch, f"cannot infer {t!r}")

    def _eq_sides(self, q: Term, sp) -> tuple[Term, Term]:
        Tq = self.whnf_type(self.infer_term(q))
        if not isinstance(Tq, Eq):
            raise CheckError(
                ErrorCode.TypeMismatch,
                f"expected an equality proof, found {pp.pretty(Tq)}",
                sp,
            )
        return Tq.lhs, Tq.rhs

    def _resolve_term_arg(self, a, sp) -> Term:
        if isinstance(a, Term):
            return a
        try:
            return demote_skeleton(a)
        except TypeError:
            raise CheckError(ErrorCode.TypeMismatch, "expected an erased term argument, found a type", sp) from None

    def _resolve_type_arg(self, a, sp) -> Type:
        if isinstance(a, Type):
            return a
        try:
            return promote_skeleton(a)
        except TypeError:
            raise CheckError(ErrorCode.TypeMismatch, "expected an erased type argument, found a term", sp) from None

    def _phi_conditions(self, q: Term, main: Term, target: Term, sp) -> None:
        s1, s2 = self._eq_sides(q, sp)
        self.scope_check(target, sp)
        if not self.terms_conv(s1, main, "φ", sp):
            raise CheckError(
                ErrorCode.PhiEqMismatch,
                f"φ left side mismatch: proof equates {pp.pretty(s1)}, term is {pp.pretty(main)}",
                sp,
            )
        if not self.terms_conv(s2, target, "φ", sp):
            raise CheckError(
                ErrorCode.PhiEqMismatch,
                f"φ right side mismatch: proof equates {pp.pretty(s2)}, braces hold {pp.pretty(target)}",
                sp,
            )

    # ------------------------------------------------------------------
    # terms: checking
    # ------------------------------------------------------------------

    def check_term(self, t: Term, T: Type) -> None:
        match t:
            case Lam(name=n, body=b, ann=ann, span=sp):
                W = self.whnf_type(T)
                if not isinstance(W, Pi):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        f"λ checked against non-function type {pp.pretty(W)}",
                        sp,
                    )
                if ann is not None:
                    self.check_type(ann, Star())
                    if not self.types_conv(ann, W.dom, at=("λ", sp)):
                        raise CheckError(
                            ErrorCode.TypeMismatch,
                            f"λ annotation {pp.pretty(ann)} does not match domain {pp.pretty(W.dom)}",
                            sp,
                        )
                with self._with(n, W.dom, b) as (x, body):
                    self.check_term(body, subst1(W.cod, W.name, Var(x)))
                return
            case ELam(name=n, body=b, ann=ann, span=sp):
                W, at = self.whnf_type(T), ("Λ", sp)
                if isinstance(W, All):
                    if isinstance(ann, Type):
                        self.check_type(ann, Star())
                    if ann is not None and (not isinstance(ann, Type) or not self.types_conv(ann, W.dom, at=at)):
                        raise CheckError(ErrorCode.TypeMismatch, "Λ annotation mismatch", sp)
                    with self._with(n, W.dom, b) as (x, body):
                        self.check_term(body, subst1(W.cod, W.name, Var(x)))
                    if n in free_names(erase(b)):
                        raise CheckError(
                            ErrorCode.ErasedVarOccursFree,
                            f"erased variable {n!r} occurs in the erasure of its body",
                            sp,
                        )
                    return
                if isinstance(W, AllK):
                    if isinstance(ann, Kind):
                        self.kind_wf(ann)
                    if ann is not None and (not isinstance(ann, Kind) or not self.kinds_conv(ann, W.dom, at=at)):
                        raise CheckError(ErrorCode.TypeMismatch, "Λ kind annotation mismatch", sp)
                    with self._with(n, W.dom, b) as (x, body):
                        self.check_term(body, subst1(W.cod, W.name, TVar(x)))
                    return
                raise CheckError(
                    ErrorCode.TypeMismatch,
                    f"Λ checked against non-implicit type {pp.pretty(W)}",
                    sp,
                )
            case IotaPair(fst=t1, snd=t2, span=sp):
                W = self.whnf_type(T)
                if not isinstance(W, Iota):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        f"[t1, t2] checked against non-ι type {pp.pretty(W)}",
                        sp,
                    )
                self.check_term(t1, W.fst)
                self.check_term(t2, subst1(W.snd, W.name, t1))
                if not self.terms_conv(t1, t2, "ι pair", sp):
                    raise CheckError(
                        ErrorCode.IntersectionErasureMismatch,
                        "the two components of an intersection must share one erasure",
                        sp,
                    )
                return
            case Beta(span=sp):
                W = self.whnf_type(T)
                if not isinstance(W, Eq):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        f"β checked against non-equality type {pp.pretty(W)}",
                        sp,
                    )
                self.scope_check(W.lhs, sp)
                self.scope_check(W.rhs, sp)
                if not self.terms_conv(W.lhs, W.rhs, "β", sp):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        f"β requires βη-equal erasures: {pp.pretty(W.lhs)} vs {pp.pretty(W.rhs)}",
                        sp,
                    )
                return
            case Phi(proof=q, main=m, target=tg, span=sp):
                self.check_term(m, T)
                self._phi_conditions(q, m, tg, sp)
                return
            case Rho(proof=q, body=b, hole=h, template=g, span=sp):
                s1, s2 = self._eq_sides(q, sp)
                G = self._rho_rewrite(s1, s2, T, h, g, sp)
                self.check_term(b, G)
                return
            case _:
                inferred = self.infer_term(t)
                if not self.types_conv(inferred, T, at=("check of the term", getattr(t, "span", None))):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        f"expected {pp.pretty(T)}, found {pp.pretty(inferred)}",
                        getattr(t, "span", None),
                    )

    # ------------------------------------------------------------------
    # rho rewriting
    # ------------------------------------------------------------------

    def _rho_rewrite(
        self, s1: Term, s2: Term, target: Type, hole: Optional[str], template: Optional[Type], sp
    ) -> Type:
        if template is not None:
            src = subst1(template, hole, s1)
            if not self.types_conv(src, target, at=("ρ", sp)):
                raise CheckError(
                    ErrorCode.TypeMismatch,
                    f"ρ guide instantiated with the left side gives {pp.pretty(src)}, "
                    f"which does not match {pp.pretty(target)}",
                    sp,
                )
            return subst1(template, hole, s2)

        p1 = normalize(erase(s1), self.fuel, self.pure_env)
        if p1.fuel_exhausted:
            raise _out_of_fuel("ρ pattern", s1, "ρ", sp)
        p2 = normalize(erase(s2), self.fuel, self.pure_env)
        if p2.fuel_exhausted:
            raise _out_of_fuel("ρ replacement", s2, "ρ", sp)
        counter = [0]
        out = self._rw_type(target, p1.result, p2.result, counter, sp)
        if counter[0] == 0:
            raise CheckError(
                ErrorCode.RhoNoOccurrence,
                f"no occurrence of {pp.pretty(p1.result)} in {pp.pretty(target)}",
                sp,
            )
        return out

    def _rw_type(self, T: Type, pat: PureTerm, rep: PureTerm, counter, sp: Optional[Span] = None) -> Type:
        avoid = free_names(pat) | free_names(rep)

        def go_ty(T: Type) -> Type:
            # each child in layout order: a binder named in ``avoid``, or
            # after a global that ``go_tm`` would unfold, is renamed fresh
            # in its scope; kinds and a type-level λ's annotation stay
            T = self.whnf_beta(T)
            cls = type(T)
            new = {}  # the fields that change, by name
            for child, binder in LAYOUT[cls]:
                sub = getattr(T, child)
                if child == "ann" or isinstance(sub, Kind):
                    continue
                if binder is not None:
                    name = getattr(T, binder)
                    if name in avoid or name in self.pure_env:
                        new[binder] = fresh_name(name)
                        sub = subst1(sub, name, Var(new[binder]))
                sub2 = go_ty(sub) if isinstance(sub, Type) else go_tm(sub)
                if sub2 is not getattr(T, child):
                    new[child] = sub2
            if not new:
                return T
            return cls(*[new[f] if f in new else getattr(T, f) for f in cls.__slots__])

        def go_tm(e: Term) -> Term:
            nf = normalize(erase(e), self.fuel, self.pure_env)
            if nf.fuel_exhausted:
                raise _out_of_fuel("ρ target term", e, "ρ", sp)
            rewritten, n = _rewrite_nf(nf.result, pat, rep, avoid)
            if n == 0:
                return e
            counter[0] += n
            return rewritten

        try:
            return go_ty(T)
        finally:
            del go_ty  # go_ty -> its own cell -> go_ty: break the cycle, so the call's garbage goes at once


def _rebind(ren: dict, name: str, value):
    """Map ``name`` to ``value`` in ``ren``, or unmap it for None;
    returns what it was mapped to."""
    old = ren.pop(name, None)
    if value is not None:
        ren[name] = value
    return old


# ---------------------------------------------------------------------------
# pure-term occurrence replacement
# ---------------------------------------------------------------------------


def _rewrite_nf(
    t: PureTerm, pat: Optional[PureTerm], rep: Optional[PureTerm], avoid: frozenset[str]
) -> tuple[Term, int]:
    """The normal form ``t`` as an annotated term, with its binders named
    in ``avoid`` (the free names of ``pat`` and ``rep``) renamed fresh and
    each maximal alpha-match of ``pat`` replaced by ``rep``, injected once
    and shared; returned with the number of matches.  With ``pat`` None it
    only injects ``t``.  Iterative, since normal forms can be deep.  No
    subterm under a binder named free in ``pat`` matches, since renaming
    the binder renames its occurrences there; elsewhere the renaming
    cannot change whether a subterm matches."""
    pat_names = free_names(pat) if pat is not None else frozenset()
    injected: Optional[Term] = None
    count = 0
    hidden = 0  # binders in scope that are named free in ``pat``
    renamed: dict[str, Optional[str]] = {}
    out: list[Term] = []
    # terms to visit; None to build an application from the last two
    # results; (name, new name, saved) to build an abstraction from the
    # last result and leave the binder's scope
    stack: list = [t]
    while stack:
        cur = stack.pop()
        cls = type(cur)
        if cls is tuple:
            name, new_name, saved = cur
            out.append(Lam(new_name, out.pop()))
            renamed[name] = saved
            hidden -= name in pat_names
        elif cur is None:
            arg = out.pop()
            out.append(App(out.pop(), arg))
        elif not hidden and pat is not None and cls is type(pat) and alpha_eq(cur, pat):
            if injected is None:
                injected = _rewrite_nf(rep, None, None, frozenset())[0]
            out.append(injected)
            count += 1
        elif cls is PVar:
            out.append(Var(renamed.get(cur.name) or cur.name))
        elif cls is PApp:
            stack.append(None)
            stack.append(cur.arg)
            stack.append(cur.fn)
        else:
            name = cur.name
            new_name = fresh_name(name) if name in avoid else name
            stack.append((name, new_name, renamed.get(name)))
            renamed[name] = new_name
            hidden += name in pat_names
            stack.append(cur.body)
    return out[0], count


# ---------------------------------------------------------------------------
# module checking
# ---------------------------------------------------------------------------


class DefResult(NamedTuple):
    name: str
    file: str
    ok: bool
    code: Optional[str] = None
    message: str = ""
    span: Optional[Span] = None

    def line(self) -> str:
        if self.ok:
            return f"{self.name}: OK"
        return f"{self.name}: ERROR[{self.code}] {self.message}"


class CheckReport:
    """The results of checking a module, one per definition in order."""

    __slots__ = ("results",)

    def __init__(self, results: Optional[list[DefResult]] = None):
        self.results = [] if results is None else results

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.results == other.results

    def __repr__(self) -> str:
        return f"CheckReport(results={self.results!r})"

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [r.line() for r in self.results]
        n_ok = sum(r.ok for r in self.results)
        lines.append(f"-- {n_ok}/{len(self.results)} definitions checked")
        return "\n".join(lines)


class ModuleError(Exception):
    pass


class _Checked(NamedTuple):
    """What checking the ``RawDef`` ``d`` at ``fuel`` left behind, and
    the records of the definitions checked right after it, by display
    path."""

    d: object
    fuel: Fuel
    result: DefResult
    scope: Optional[Defn]
    pure: Optional[PureTerm]
    then: dict[str, _Checked]


# The records of the first definitions ``check_defs`` checked from an
# empty checker, by display path: a tree with one path per program.
_checked: dict[str, _Checked] = {}


def check_defs(defs, checker: Optional[Checker] = None) -> tuple[Checker, CheckReport]:
    """Check an ordered list of (file, RawDef) pairs, entering each
    definition into the checker's scope.  A failed definition is
    recorded; it enters the scope with its classifier, but without its
    body, when only its body fails, and not at all when its classifier
    fails, so a later use of it reads as an unbound name.  A name
    defined twice in ``defs``, or once in ``defs`` and once in the
    checker's scope, or a definition nested too deeply for the recursive
    checker, raises ModuleError.

    A call from an empty checker (none given, or one whose ``ctx`` and
    ``pure_env`` are empty) replays each definition whose record
    matches and records each one it checks.  The records form a tree:
    the one for a definition is looked up by its display path among
    those that follow the record this call replayed or wrote just before
    (``_checked`` for the first definition), and it matches when it
    holds the same ``RawDef`` object (the loader hands out one parsed
    object per unchanged file) and an equal fuel.  So a record replays
    only into the scope it was checked in, as the definitions before it
    are the path to it; it re-enters its recorded scope entry (body-less
    if its body failed, none if its classifier did), ``pure_env`` entry
    and result.  This is sound because checking a definition is a
    deterministic function of its syntax, its scope and the fuel; the
    replay skips only ``fresh_name`` draws, which no message shows
    (``_canon_msg``).  A record that does not match is replaced, which
    drops the records after it, so an edited file keeps no records of
    its old text.  A call given a running checker neither replays nor
    records."""
    ck = checker or Checker()
    report = CheckReport()
    names: set[str] = set()  # this call's definitions, in scope or not
    then = None if ck.ctx or ck.pure_env else _checked
    for file, d in defs:
        if d.name in names or d.name in ck.ctx:
            raise ModuleError(f"{file}: duplicate top-level name {d.name!r}")
        names.add(d.name)
        rec = None if then is None else then.get(file)
        if rec is not None and rec.d is d and rec.fuel == ck.fuel:
            report.results.append(rec.result)
            if rec.scope is not None:
                ck.ctx[d.name] = rec.scope
            if rec.pure is not None:
                ck.pure_env[d.name] = rec.pure
            then = rec.then
            continue
        try:
            _check_one(ck, d)
            report.results.append(DefResult(d.name, file, True, span=d.span))
        except CheckError as e:
            report.results.append(
                DefResult(d.name, file, False, e.code.value, _canon_msg(e.message), e.span or d.span)
            )
        except RecursionError:
            raise ModuleError(f"{d.span}: definition {d.name!r} is nested too deeply to check") from None
        if then is not None:
            rec = then[file] = _Checked(d, ck.fuel, report.results[-1], ck.ctx.get(d.name), ck.pure_env.get(d.name), {})
            then = rec.then
    return ck, report


def _check_one(ck: Checker, d) -> None:
    """Check ``d`` and enter it into scope: whole when it checks, without
    its body when only its classifier does, not at all otherwise."""
    if isinstance(d.classifier, Kind):
        ck.kind_wf(d.classifier)
    else:
        k = ck.infer_kind(d.classifier)
        if not isinstance(k, Star):
            raise CheckError(
                ErrorCode.KindMismatch,
                f"classifier of {d.name} has kind {pp.pretty(k)}, expected ★",
                d.span,
            )
    if d.body is not None:
        try:
            if isinstance(d.classifier, Kind):
                if not isinstance(d.body, Type):
                    raise CheckError(ErrorCode.KindMismatch, "a kind-classified definition needs a type body", d.span)
                ck.check_type(d.body, d.classifier)
            else:
                if not isinstance(d.body, Term):
                    raise CheckError(ErrorCode.TypeMismatch, "a type-classified definition needs a term body", d.span)
                ck.check_term(d.body, d.classifier)
                ck.pure_env[d.name] = ck.pure_of(d.body)
        except CheckError:
            ck.ctx[d.name] = Defn(d.name, d.classifier, None)
            raise
    ck.ctx[d.name] = Defn(d.name, d.classifier, d.body)
