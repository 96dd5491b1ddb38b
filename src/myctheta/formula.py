"""Closed-form machinery for the theta number of a Mycielskian.

Given t = theta_bar(G) >= 2, the value theta_bar(M(G)) is the largest root of

    x^3 + (t-3) x^2 + (3 - 2t - t^2) x + (-t^3 + 5 t^2 - 3t - 1) = 0,

obtained in trigonometric form as

    m(t) = (4/3) t cos( (1/3) arccos(1 - 27/(4t) + 27/(4t^2)) ) - t/3 + 1.

The other two branches of the cubic never exceed 1 and are discarded;
`verify_root_selection` checks that numerically.  `lpu_formula` is the
analogous (exact, rational) map for the fractional chromatic number,
x -> x + 1/x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError


def mycielski_cubic_coefficients(t: float) -> tuple[float, float, float, float]:
    return 1.0, t - 3.0, 3.0 - 2.0 * t - t * t, -t ** 3 + 5.0 * t * t - 3.0 * t - 1.0


def cubic_residual(t: float, m: float) -> float:
    """Left side of the Mycielskian cubic evaluated at x = m."""
    a, b, c, d = mycielski_cubic_coefficients(t)
    return ((a * m + b) * m + c) * m + d


def star_branch(t: float, k: int) -> float:
    """Branch k of the trigonometric solution of the Mycielskian cubic."""
    arg = 1.0 - 27.0 / (4.0 * t) + 27.0 / (4.0 * t * t)
    arg = min(1.0, max(-1.0, arg))
    return (
        (4.0 / 3.0) * t * math.cos(math.acos(arg) / 3.0 - 2.0 * math.pi * k / 3.0)
        - t / 3.0
        + 1.0
    )


def _snap_boundary(t: float) -> float:
    """t = 2 for solver noise just below the t >= 2 boundary (within 1e-6)."""
    if 2.0 - 1e-6 <= t < 2.0:
        return 2.0
    return t


@dataclass(frozen=True)
class FormulaResult:
    t: float
    m: float
    cubic_residual: float
    discarded: tuple[float, float]  # branches k = 1 and k = 2


def mycielski_theta_formula(t: float) -> FormulaResult:
    """theta_bar of the Mycielskian as a function of t = theta_bar(G) >= 2.

    Returns the k = 0 branch; t < m <= t + 1 always holds.  Values t < 2 are
    rejected: t = 1 (edgeless G) is the caller's special case with value 2,
    and no graph attains values strictly between 1 and 2.  Solver noise just
    below the boundary (within 1e-6) is snapped to t = 2 rather than refused.
    So are values whose t^3 overflows a float (above about 5.6e102).
    """
    t = _snap_boundary(t)
    if not (math.isfinite(t) and t >= 2.0):
        raise DomainError(f"formula needs a finite t >= 2, got {t}")
    m = star_branch(t, 0)
    try:
        residual = cubic_residual(t, m)
    except OverflowError:  # from t ** 3
        raise DomainError(f"formula needs t^3 to be a finite float, got t = {t}") from None
    return FormulaResult(t, m, residual, (star_branch(t, 1), star_branch(t, 2)))


def verify_root_selection(t: float) -> bool:
    """Both discarded branches of the cubic stay <= 1 + 1e-12 (hence below t)."""
    if not t >= 2.0:
        raise DomainError(f"root selection check needs t >= 2, got {t}")
    return star_branch(t, 1) <= 1.0 + 1e-12 and star_branch(t, 2) <= 1.0 + 1e-12


Number = Union[Fraction, float, int]


def lpu_formula(x: Number) -> Number:
    """x + 1/x; exact when given a Fraction (or int), float otherwise."""
    if x <= 0:
        raise DomainError("lpu formula needs a positive argument")
    if isinstance(x, Fraction):
        return x + Fraction(1) / x
    if isinstance(x, int):
        return Fraction(x) + Fraction(1, x)
    return x + 1.0 / x
