"""Erasure from annotated terms to pure untyped lambda terms.

The function is total, purely syntactic, and never consults typing:

    |x|              = x
    |λ x. t|         = λ x. |t|
    |Λ x. t|         = |t|
    |t t'|           = |t| |t'|
    |t -a|           = |t|
    |β|              = λ x. x
    |ρ q - t|        = |t|
    |φ q - t1 {t2}|  = |t2|
    |ς q|            = |q|
    |[t1, t2]|       = |t1|
    |t.1| = |t.2|    = |t|

ς is a proof-level symmetry combinator and must not add computational
content, so it erases to its argument.  Erased binders and erased
arguments leave no trace; the checker separately enforces that an
erased binder never occurs free in its body's erasure.

``erase`` builds pure syntax only at variables, λ, application and β.
Every other construct is transparent: it erases to the erasure of the
one child that ``ERASES_TO`` names.  The walk is iterative, since erased
terms can be deep.
"""

from __future__ import annotations

from .syntax import (
    App,
    Beta,
    ELam,
    EApp,
    IotaPair,
    Lam,
    PApp,
    PLam,
    PVar,
    Phi,
    Proj,
    PureTerm,
    Rho,
    Sym,
    Term,
    Var,
)


# the child each transparent construct erases to
ERASES_TO = {ELam: "body", EApp: "fn", Rho: "body", Phi: "target", Sym: "proof", IotaPair: "fst", Proj: "subj"}


def erase(t: Term) -> PureTerm:
    """Erase an annotated term to its underlying pure term."""
    out: list[PureTerm] = []
    # terms to erase; a binder name to build an abstraction from the last
    # result; None to build an application from the last two
    work: list = [t]
    while work:
        cur = work.pop()
        cls = type(cur)
        if cls is Var:
            out.append(PVar(cur.name))
        elif cls is App:
            work.append(None)
            work.append(cur.arg)
            work.append(cur.fn)
        elif cls is Lam:
            work.append(cur.name)
            work.append(cur.body)
        elif cls is Beta:
            out.append(PLam("x", PVar("x")))
        elif cls is str:
            out.append(PLam(cur, out.pop()))
        elif cur is None:
            arg = out.pop()
            out.append(PApp(out.pop(), arg))
        elif cls in ERASES_TO:
            work.append(getattr(cur, ERASES_TO[cls]))
        else:
            raise TypeError(f"cannot erase {cls.__name__}")
    return out[0]
