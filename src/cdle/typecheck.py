"""Bidirectional type and kind checking.

Introductions check, eliminations infer, and a conversion check mediates
the mode switch.  Conversion on types is structural congruence after
type-level beta-normalization, comparing embedded terms by beta-eta
equality of their erasures (top-level definitions unfold when the
normalizer looks them up).
Definition unfolding during type conversion is on demand: a defined head
is only unfolded when the spines cannot be matched directly.  Under a
pair of binders conversion compares the two bodies opened at one
variable.  Binders of the same name keep their bodies as they are,
so parts that substitution shared meet as the same object and compare
at once, unless a definition owns the name (the global would be unfolded
where the bound variable is meant); otherwise one fresh variable is
substituted into both bodies.

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

A checker instance is single-threaded; distinct instances may share a
fully-checked prelude context since all syntax values are immutable.
"""

from __future__ import annotations

import enum
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Union

from . import pretty as pp
from .erasure import erase
from .reduction import Fuel, FuelExhaustedError, beta_eta_eq, normalize
from .syntax import (
    All,
    AllK,
    App,
    Beta,
    Context,
    DeferredArg,
    Defn,
    EApp,
    ELam,
    Eq,
    Iota,
    IotaPair,
    Kind,
    KPi,
    KPiK,
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
    TermBind,
    Type,
    TypeBind,
    Var,
    alpha_eq,
    demote_skeleton,
    free_vars,
    fresh_name,
    promote_skeleton,
    subst1,
    substitute_many,
    term_free_names,
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


def _out_of_fuel(what: str, t: Term) -> CheckError:
    """The FuelExhausted error for normalizing ``t``, naming where ``t``
    is written when it has a source position."""
    return CheckError(ErrorCode.FuelExhausted, f"{what} ran out of fuel" + (f" at {t.span}" if t.span else ""))


def _canon_msg(s: str) -> str:
    """Replace fresh-name counters by per-message sequential ids so error
    messages are byte-identical across runs."""
    seen: dict[str, str] = {}

    def sub(m):
        tok = m.group(0)
        if tok not in seen:
            seen[tok] = f"%{len(seen) + 1}"
        return seen[tok]

    return re.sub(r"%q?\d+", sub, s)


class Checker:
    def __init__(self, fuel: Fuel = Fuel()):
        self.fuel = fuel
        self.ctx = Context()
        self.pure_env: dict[str, PureTerm] = {}
        # the globals the machine may unfold here: ``pure_env`` without
        # the entries that a name bound in the context shadows
        self.defs: dict[str, PureTerm] = self.pure_env

    # ------------------------------------------------------------------
    # erasure pipeline
    # ------------------------------------------------------------------

    def pure_of(self, t: Term) -> PureTerm:
        """Erasure of ``t`` with the top-level definitions it mentions
        expanded.  The checker calls it only to fill ``pure_env``,
        whose expanded entries callers read directly: conversions and ρ
        normalize the plain erasure and pass ``defs`` (``pure_env``
        without the globals a local binder shadows) to the machine, which
        unfolds a global when it looks the name up."""
        p = erase(t)
        env = self.pure_env
        return substitute_many(p, {n: env[n] for n in free_vars(p) if n in env})

    def terms_conv(self, a: Term, b: Term) -> bool:
        try:
            return beta_eta_eq(erase(a), erase(b), self.fuel, self.defs)
        except FuelExhaustedError as e:
            raise _out_of_fuel("conversion", (a, b)[e.side])

    # ------------------------------------------------------------------
    # context helpers
    # ------------------------------------------------------------------

    def _term_type_of(self, name: str, span) -> Type:
        e = self.ctx.lookup(name)
        if isinstance(e, TermBind):
            return e.type
        if isinstance(e, Defn) and isinstance(e.classifier, Type):
            return e.classifier
        if e is None:
            raise CheckError(ErrorCode.UnboundName, f"unbound name {name!r}", span)
        raise CheckError(ErrorCode.UnboundName, f"{name!r} is not a term", span)

    def _type_kind_of(self, name: str, span) -> Kind:
        e = self.ctx.lookup(name)
        if isinstance(e, TypeBind):
            return e.kind
        if isinstance(e, Defn) and isinstance(e.classifier, Kind):
            return e.classifier
        if e is None:
            raise CheckError(ErrorCode.UnboundName, f"unbound type name {name!r}", span)
        raise CheckError(ErrorCode.UnboundName, f"{name!r} is not a type", span)

    @contextmanager
    def _with(self, entry):
        """Run a block with an extended context (restores afterwards).  A
        binder that shadows a global hides it from ``defs`` too, so
        conversions in the block treat the name as the local variable."""
        saved, saved_defs = self.ctx, self.defs
        self.ctx = saved.extend(entry)
        if entry.name in saved_defs:
            self.defs = {n: p for n, p in saved_defs.items() if n != entry.name}
        try:
            yield
        finally:
            self.ctx, self.defs = saved, saved_defs

    def scope_check(self, t: Union[Term, Type], span=None) -> None:
        for n in sorted(term_free_names(t)):
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

    def _unfold_head(self, T: Type) -> Optional[Type]:
        """Unfold a defined head name once; None if nothing to unfold."""
        head = T
        while isinstance(head, (TAppT, TAppE)):
            head = head.fn
        if not isinstance(head, TVar):
            return None
        e = self.ctx.lookup(head.name)
        if isinstance(e, Defn) and isinstance(e.classifier, Kind) and e.body is not None:
            return self._replace_head(T, e.body)
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

    def types_conv(self, A: Type, B: Type) -> bool:
        A = self.whnf_beta(A)
        B = self.whnf_beta(B)
        if A is B:
            return True

        # spine fast path: same defined (or bound) head, matching args
        ha, sa = self._spine(A)
        hb, sb = self._spine(B)
        if isinstance(ha, TVar) and isinstance(hb, TVar):
            if ha.name == hb.name and len(sa) == len(sb):
                if all(self._arg_conv(x, y) for x, y in zip(sa, sb)):
                    return True
            ua, ub = self._unfold_head(A), self._unfold_head(B)
            if ua is None and ub is None:
                return False
            return self.types_conv(ua if ua is not None else A, ub if ub is not None else B)
        if isinstance(ha, TVar):
            ua = self._unfold_head(A)
            return ua is not None and self.types_conv(ua, B)
        if isinstance(hb, TVar):
            ub = self._unfold_head(B)
            return ub is not None and self.types_conv(A, ub)

        if isinstance(A, (Pi, All)) and type(A) is type(B):
            return self._conv_binder(A, B)
        if isinstance(A, AllK) and isinstance(B, AllK):
            if not self.kinds_conv(A.dom, B.dom):
                return False
            return self.types_conv(*self._open(A.name, A.cod, B.name, B.cod, TVar))
        if isinstance(A, Iota) and isinstance(B, Iota):
            if not self.types_conv(A.fst, B.fst):
                return False
            return self.types_conv(*self._open(A.name, A.snd, B.name, B.snd, Var))
        if isinstance(A, Eq) and isinstance(B, Eq):
            return self.terms_conv(A.lhs, B.lhs) and self.terms_conv(A.rhs, B.rhs)
        if isinstance(A, TLam) and isinstance(B, TLam):
            # binder sort does not affect conversion; rename consistently
            sort = TVar if isinstance(A.ann, Kind) or isinstance(B.ann, Kind) else Var
            return self.types_conv(*self._open(A.name, A.body, B.name, B.body, sort))
        return False

    def _conv_binder(self, A, B) -> bool:
        if not self.types_conv(A.dom, B.dom):
            return False
        return self.types_conv(*self._open(A.name, A.cod, B.name, B.cod, Var))

    def _open(self, a: str, body_a, b: str, body_b, sort):
        """The bodies of binders ``a`` and ``b`` opened at one variable of
        ``sort`` (``Var`` or ``TVar``): as they are when the names agree and
        no definition owns the name (see the module docstring), else with
        one fresh variable substituted into both."""
        if a == b and not isinstance(self.ctx.lookup(a), Defn):
            return body_a, body_b
        z = sort(fresh_name(a))
        return subst1(body_a, a, z), subst1(body_b, b, z)

    def _spine(self, T: Type):
        args = []
        while isinstance(T, (TAppT, TAppE)):
            args.append(T.arg)
            T = T.fn
        return T, list(reversed(args))

    def _arg_conv(self, x, y) -> bool:
        if isinstance(x, Type) and isinstance(y, Type):
            return self.types_conv(x, y)
        if isinstance(x, Term) and isinstance(y, Term):
            return self.terms_conv(x, y)
        return False

    def kinds_conv(self, k1: Kind, k2: Kind) -> bool:
        if isinstance(k1, Star) and isinstance(k2, Star):
            return True
        if isinstance(k1, KPi) and isinstance(k2, KPi):
            if not self.types_conv(k1.dom, k2.dom):
                return False
            return self.kinds_conv(*self._open(k1.name, k1.cod, k2.name, k2.cod, Var))
        if isinstance(k1, KPiK) and isinstance(k2, KPiK):
            if not self.kinds_conv(k1.dom, k2.dom):
                return False
            return self.kinds_conv(*self._open(k1.name, k1.cod, k2.name, k2.cod, TVar))
        return False

    # ------------------------------------------------------------------
    # kinds
    # ------------------------------------------------------------------

    def kind_wf(self, k: Kind) -> None:
        if isinstance(k, Star):
            return
        if isinstance(k, KPi):
            dk = self.infer_kind(k.dom)
            if not isinstance(dk, Star):
                raise CheckError(ErrorCode.KindMismatch, "kind domain must be a ★-kinded type", k.span)
            with self._with(TermBind(k.name, k.dom)):
                self.kind_wf(k.cod)
            return
        if isinstance(k, KPiK):
            self.kind_wf(k.dom)
            with self._with(TypeBind(k.name, k.dom)):
                self.kind_wf(k.cod)
            return
        raise CheckError(ErrorCode.KindMismatch, f"malformed kind {k!r}")

    def infer_kind(self, T: Type) -> Kind:
        match T:
            case TVar(name=n, span=sp):
                return self._type_kind_of(n, sp)
            case Pi(name=n, dom=d, cod=c, span=sp) | All(name=n, dom=d, cod=c, span=sp):
                dk = self.infer_kind(d)
                if not isinstance(dk, Star):
                    raise CheckError(ErrorCode.KindMismatch, "product domain must be ★-kinded", sp)
                with self._with(TermBind(n, d, erased=isinstance(T, All))):
                    ck = self.infer_kind(c)
                if not isinstance(ck, Star):
                    raise CheckError(ErrorCode.KindMismatch, "product codomain must be ★-kinded", sp)
                return Star()
            case AllK(name=n, dom=d, cod=c, span=sp):
                self.kind_wf(d)
                with self._with(TypeBind(n, d)):
                    ck = self.infer_kind(c)
                if not isinstance(ck, Star):
                    raise CheckError(ErrorCode.KindMismatch, "∀ codomain must be ★-kinded", sp)
                return Star()
            case Iota(name=n, fst=f, snd=s, span=sp):
                fk = self.infer_kind(f)
                if not isinstance(fk, Star):
                    raise CheckError(ErrorCode.KindMismatch, "ι first component must be ★-kinded", sp)
                with self._with(TermBind(n, f)):
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
                    with self._with(TypeBind(n, ann)):
                        bk = self.infer_kind(b)
                    return KPiK(n, ann, bk)
                dk = self.infer_kind(ann)
                if not isinstance(dk, Star):
                    raise CheckError(ErrorCode.KindMismatch, "λ binder annotation must be ★-kinded", sp)
                with self._with(TermBind(n, ann)):
                    bk = self.infer_kind(b)
                return KPi(n, ann, bk)
            case TAppT(fn=f, arg=a, span=sp):
                fk = self.infer_kind(f)
                if not isinstance(fk, KPiK):
                    raise CheckError(
                        ErrorCode.NotAFunction,
                        f"type {pp.pretty(f)} of kind {pp.pretty(fk)} cannot take a type argument",
                        sp,
                    )
                self.check_type(a, fk.dom)
                return subst1(fk.cod, fk.name, a)
            case TAppE(fn=f, arg=a, span=sp):
                fk = self.infer_kind(f)
                if not isinstance(fk, KPi):
                    raise CheckError(
                        ErrorCode.NotAFunction,
                        f"type {pp.pretty(f)} of kind {pp.pretty(fk)} cannot take a term argument",
                        sp,
                    )
                self.check_term(a, fk.dom)
                return subst1(fk.cod, fk.name, a)
        raise CheckError(ErrorCode.KindMismatch, f"malformed type {T!r}")

    def check_type(self, T: Type, k: Kind) -> None:
        if isinstance(T, TLam) and T.ann is None:
            if isinstance(k, KPi):
                with self._with(TermBind(T.name, k.dom)):
                    self.check_type(T.body, subst1(k.cod, k.name, Var(T.name)))
                return
            if isinstance(k, KPiK):
                with self._with(TypeBind(T.name, k.dom)):
                    self.check_type(T.body, subst1(k.cod, k.name, TVar(T.name)))
                return
            raise CheckError(ErrorCode.KindMismatch, "type-level λ against a non-Π kind", T.span)
        inferred = self.infer_kind(T)
        if not self.kinds_conv(inferred, k):
            raise CheckError(
                ErrorCode.KindMismatch,
                _canon_msg(f"expected kind {pp.pretty(k)}, found {pp.pretty(inferred)}"),
                T.span,
            )

    # ------------------------------------------------------------------
    # terms: inference
    # ------------------------------------------------------------------

    def infer_term(self, t: Term) -> Type:
        match t:
            case Var(name=n, span=sp):
                return self._term_type_of(n, sp)
            case App(fn=f, arg=a, span=sp):
                Tf = self.whnf_type(self.infer_term(f))
                if isinstance(Tf, (All, AllK)):
                    raise CheckError(
                        ErrorCode.NotAFunction,
                        "implicit function applied explicitly; instantiate with -arg",
                        sp,
                    )
                if not isinstance(Tf, Pi):
                    raise CheckError(
                        ErrorCode.NotAFunction,
                        _canon_msg(f"cannot apply a term of type {pp.pretty(Tf)}"),
                        sp,
                    )
                self.check_term(a, Tf.dom)
                return subst1(Tf.cod, Tf.name, a)
            case EApp(fn=f, arg=a, span=sp):
                Tf = self.whnf_type(self.infer_term(f))
                if isinstance(Tf, All):
                    arg_t = self._resolve_term_arg(a, sp)
                    self.check_term(arg_t, Tf.dom)
                    return subst1(Tf.cod, Tf.name, arg_t)
                if isinstance(Tf, AllK):
                    arg_T = self._resolve_type_arg(a, sp)
                    self.check_type(arg_T, Tf.dom)
                    return subst1(Tf.cod, Tf.name, arg_T)
                raise CheckError(
                    ErrorCode.NotAFunction,
                    _canon_msg(f"-argument given to a term of type {pp.pretty(Tf)}"),
                    sp,
                )
            case Proj(subj=s, idx=i, span=sp):
                Ts = self.whnf_type(self.infer_term(s))
                if not isinstance(Ts, Iota):
                    raise CheckError(
                        ErrorCode.NotAnIntersection,
                        _canon_msg(f"projection from a term of type {pp.pretty(Ts)}"),
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
            case Rho(proof=q, body=b, guide=g, span=sp):
                s1, s2 = self._eq_sides(q, sp)
                T = self.infer_term(b)
                return self._rho_rewrite(s1, s2, T, g, sp)
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
                with self._with(TermBind(n, ann)):
                    Tb = self.infer_term(b)
                return Pi(n, ann, Tb)
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
                _canon_msg(f"expected an equality proof, found {pp.pretty(Tq)}"),
                sp,
            )
        return Tq.lhs, Tq.rhs

    def _resolve_term_arg(self, a, sp) -> Term:
        if isinstance(a, DeferredArg):
            return a.expr
        if isinstance(a, Term):
            return a
        try:
            return demote_skeleton(a)
        except TypeError:
            raise CheckError(ErrorCode.TypeMismatch, "expected an erased term argument, found a type", sp) from None

    def _resolve_type_arg(self, a, sp) -> Type:
        if isinstance(a, Type):
            return a
        deferred = isinstance(a, DeferredArg)
        try:
            return promote_skeleton(a.expr if deferred else a)
        except TypeError:
            what = "erased argument is not a type" if deferred else "expected an erased type argument, found a term"
            raise CheckError(ErrorCode.TypeMismatch, what, sp) from None

    def _phi_conditions(self, q: Term, main: Term, target: Term, sp) -> None:
        s1, s2 = self._eq_sides(q, sp)
        self.scope_check(target, sp)
        if not self.terms_conv(s1, main):
            raise CheckError(
                ErrorCode.PhiEqMismatch,
                _canon_msg(
                    f"φ left side mismatch: proof equates {pp.pretty(s1)}, term is {pp.pretty(main)}"
                ),
                sp,
            )
        if not self.terms_conv(s2, target):
            raise CheckError(
                ErrorCode.PhiEqMismatch,
                _canon_msg(
                    f"φ right side mismatch: proof equates {pp.pretty(s2)}, braces hold {pp.pretty(target)}"
                ),
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
                        _canon_msg(f"λ checked against non-function type {pp.pretty(W)}"),
                        sp,
                    )
                if ann is not None and not self.types_conv(ann, W.dom):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        _canon_msg(
                            f"λ annotation {pp.pretty(ann)} does not match domain {pp.pretty(W.dom)}"
                        ),
                        sp,
                    )
                with self._with(TermBind(n, W.dom)):
                    self.check_term(b, subst1(W.cod, W.name, Var(n)))
                return
            case ELam(name=n, body=b, ann=ann, span=sp):
                W = self.whnf_type(T)
                if isinstance(W, All):
                    if ann is not None and (not isinstance(ann, Type) or not self.types_conv(ann, W.dom)):
                        raise CheckError(ErrorCode.TypeMismatch, "Λ annotation mismatch", sp)
                    with self._with(TermBind(n, W.dom, erased=True)):
                        self.check_term(b, subst1(W.cod, W.name, Var(n)))
                    if n in free_vars(erase(b)):
                        raise CheckError(
                            ErrorCode.ErasedVarOccursFree,
                            f"erased variable {n!r} occurs in the erasure of its body",
                            sp,
                        )
                    return
                if isinstance(W, AllK):
                    if ann is not None and (not isinstance(ann, Kind) or not self.kinds_conv(ann, W.dom)):
                        raise CheckError(ErrorCode.TypeMismatch, "Λ kind annotation mismatch", sp)
                    with self._with(TypeBind(n, W.dom)):
                        self.check_term(b, subst1(W.cod, W.name, TVar(n)))
                    return
                raise CheckError(
                    ErrorCode.TypeMismatch,
                    _canon_msg(f"Λ checked against non-implicit type {pp.pretty(W)}"),
                    sp,
                )
            case IotaPair(fst=t1, snd=t2, span=sp):
                W = self.whnf_type(T)
                if not isinstance(W, Iota):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        _canon_msg(f"[t1, t2] checked against non-ι type {pp.pretty(W)}"),
                        sp,
                    )
                self.check_term(t1, W.fst)
                self.check_term(t2, subst1(W.snd, W.name, t1))
                if not self.terms_conv(t1, t2):
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
                        _canon_msg(f"β checked against non-equality type {pp.pretty(W)}"),
                        sp,
                    )
                self.scope_check(W.lhs, sp)
                self.scope_check(W.rhs, sp)
                if not self.terms_conv(W.lhs, W.rhs):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        _canon_msg(
                            f"β requires βη-equal erasures: {pp.pretty(W.lhs)} vs {pp.pretty(W.rhs)}"
                        ),
                        sp,
                    )
                return
            case Phi(proof=q, main=m, target=tg, span=sp):
                self.check_term(m, T)
                self._phi_conditions(q, m, tg, sp)
                return
            case Rho(proof=q, body=b, guide=g, span=sp):
                s1, s2 = self._eq_sides(q, sp)
                G = self._rho_rewrite(s1, s2, T, g, sp)
                self.check_term(b, G)
                return
            case _:
                inferred = self.infer_term(t)
                if not self.types_conv(inferred, T):
                    raise CheckError(
                        ErrorCode.TypeMismatch,
                        _canon_msg(
                            f"expected {pp.pretty(T)}, found {pp.pretty(inferred)}"
                        ),
                        getattr(t, "span", None),
                    )

    # ------------------------------------------------------------------
    # rho rewriting
    # ------------------------------------------------------------------

    def _rho_rewrite(self, s1: Term, s2: Term, target: Type, guide, sp) -> Type:
        if guide is not None:
            hole, template = guide
            src = subst1(template, hole, s1)
            if not self.types_conv(src, target):
                raise CheckError(
                    ErrorCode.TypeMismatch,
                    _canon_msg(
                        f"ρ guide instantiated with the left side gives {pp.pretty(src)}, "
                        f"which does not match {pp.pretty(target)}"
                    ),
                    sp,
                )
            return subst1(template, hole, s2)

        p1 = normalize(erase(s1), self.fuel, self.defs)
        if p1.fuel_exhausted:
            raise _out_of_fuel("ρ pattern", s1)
        p2 = normalize(erase(s2), self.fuel, self.defs)
        if p2.fuel_exhausted:
            raise _out_of_fuel("ρ replacement", s2)
        counter = [0]
        out = self._rw_type(target, p1.result, p2.result, counter)
        if counter[0] == 0:
            raise CheckError(
                ErrorCode.RhoNoOccurrence,
                _canon_msg(f"no occurrence of {pp.pretty(p1.result)} in {pp.pretty(target)}"),
                sp,
            )
        return out

    def _rw_type(self, T: Type, pat: PureTerm, rep: PureTerm, counter) -> Type:
        avoid = free_vars(pat) | free_vars(rep)

        def go_ty(T: Type) -> Type:
            T = self.whnf_beta(T)
            match T:
                case TVar():
                    return T
                case Pi(name=n, dom=d, cod=c, span=sp):
                    n, c = _freshen_if(n, c, avoid)
                    return Pi(n, go_ty(d), go_ty(c), sp)
                case All(name=n, dom=d, cod=c, span=sp):
                    n, c = _freshen_if(n, c, avoid)
                    return All(n, go_ty(d), go_ty(c), sp)
                case AllK(name=n, dom=d, cod=c, span=sp):
                    n, c = _freshen_if(n, c, avoid)
                    return AllK(n, d, go_ty(c), sp)
                case Iota(name=n, fst=f, snd=s, span=sp):
                    n, s = _freshen_if(n, s, avoid)
                    return Iota(n, go_ty(f), go_ty(s), sp)
                case TLam(name=n, body=b, ann=a, span=sp):
                    n, b = _freshen_if(n, b, avoid)
                    return TLam(n, go_ty(b), a, sp)
                case Eq(lhs=a, rhs=b, span=sp):
                    return Eq(go_tm(a), go_tm(b), sp)
                case TAppT(fn=f, arg=a, span=sp):
                    return TAppT(go_ty(f), go_ty(a), sp)
                case TAppE(fn=f, arg=a, span=sp):
                    return TAppE(go_ty(f), go_tm(a), sp)
            return T

        def go_tm(e: Term) -> Term:
            nf = normalize(erase(e), self.fuel, self.defs)
            if nf.fuel_exhausted:
                raise _out_of_fuel("ρ target term", e)
            rewritten, n = _rewrite_nf(nf.result, pat, rep, avoid)
            if n == 0:
                return e
            counter[0] += n
            return rewritten

        return go_ty(T)


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
    pat_names = free_vars(pat) if pat is not None else frozenset()
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


def _freshen_if(name: str, under, avoid):
    if name in avoid:
        nn = fresh_name(name)
        return nn, subst1(under, name, Var(nn))
    return name, under


# ---------------------------------------------------------------------------
# module checking
# ---------------------------------------------------------------------------


@dataclass
class DefResult:
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


@dataclass
class CheckReport:
    results: list[DefResult] = field(default_factory=list)

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


def check_defs(defs, checker: Optional[Checker] = None) -> tuple[Checker, CheckReport]:
    """Check an ordered list of (file, RawDef) pairs, extending the
    context with each definition; a failed definition is recorded and its
    declared classifier still enters the context.  A duplicate name, or a
    definition nested too deeply for the recursive checker, raises
    ModuleError."""
    ck = checker or Checker()
    report = CheckReport()
    for file, d in defs:
        if d.name in ck.ctx:
            raise ModuleError(f"{file}: duplicate top-level name {d.name!r}")
        try:
            _check_one(ck, d)
            report.results.append(DefResult(d.name, file, True, span=d.span))
        except CheckError as e:
            report.results.append(
                DefResult(d.name, file, False, e.code.value, _canon_msg(e.message), e.span or d.span)
            )
            ck.ctx = ck.ctx.extend(Defn(d.name, d.classifier, None, d.span))
        except RecursionError:
            raise ModuleError(f"{d.span}: definition {d.name!r} is nested too deeply to check") from None
    return ck, report


def _check_one(ck: Checker, d) -> None:
    if isinstance(d.classifier, Kind):
        ck.kind_wf(d.classifier)
        if d.body is not None:
            if not isinstance(d.body, Type):
                raise CheckError(ErrorCode.KindMismatch, "a kind-classified definition needs a type body", d.span)
            ck.check_type(d.body, d.classifier)
        ck.ctx = ck.ctx.extend(Defn(d.name, d.classifier, d.body, d.span))
        return
    k = ck.infer_kind(d.classifier)
    if not isinstance(k, Star):
        raise CheckError(
            ErrorCode.KindMismatch,
            _canon_msg(f"classifier of {d.name} has kind {pp.pretty(k)}, expected ★"),
            d.span,
        )
    if d.body is not None:
        if not isinstance(d.body, Term):
            raise CheckError(ErrorCode.TypeMismatch, "a type-classified definition needs a term body", d.span)
        ck.check_term(d.body, d.classifier)
        ck.pure_env[d.name] = ck.pure_of(d.body)
    ck.ctx = ck.ctx.extend(Defn(d.name, d.classifier, d.body, d.span))
