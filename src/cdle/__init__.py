"""A small Curry-style dependent type checker and evaluator.

The calculus extends a Curry-style Calculus of Constructions with
implicit products, a primitive heterogeneous equality (introduced by β,
eliminated by ρ rewriting, φ casts, and ς symmetry), and dependent
intersection types.  Annotated terms erase to pure untyped lambda terms
and definitional equality is decided on erasures, which is what makes
zero-cost conversions (coercions whose erasure is the identity function)
expressible.
"""

import sys

# the same room for every recursive layer (checker, printer) from its first call
if sys.getrecursionlimit() < 5_000:
    sys.setrecursionlimit(5_000)

from .reduction import Fuel, NormalizeOutcome, apply_and_count, beta_eta_eq, normalize
from .erasure import erase
from .typecheck import CheckError, Checker, CheckReport, ErrorCode, check_defs

__all__ = [
    "Fuel",
    "NormalizeOutcome",
    "apply_and_count",
    "beta_eta_eq",
    "normalize",
    "erase",
    "CheckError",
    "Checker",
    "CheckReport",
    "ErrorCode",
    "check_defs",
]
