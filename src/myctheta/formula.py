"""Closed-form machinery for the theta number of a Mycielskian.

Given t = theta_bar(G) >= 2, the value theta_bar(M(G)) is the largest root of

    x^3 + (t-3) x^2 + (3 - 2t - t^2) x + (-t^3 + 5 t^2 - 3t - 1) = 0,

obtained in trigonometric form as

    m(t) = (4/3) t cos( (1/3) arccos(1 - 27/(4t) + 27/(4t^2)) ) - t/3 + 1.

The other two branches of the cubic never exceed 1 and are discarded;
`verify_root_selection` checks that numerically.  `lpu_formula` is the
analogous (exact, rational) map for the fractional chromatic number,
x -> x + 1/x.  t >= 2 is taken exactly: a graph with an edge has theta_bar >=
omega >= 2, and `theta` floors its bracket at 2 where it makes it.
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


@dataclass(frozen=True)
class FormulaResult:
    t: float
    m: float
    cubic_residual: float
    discarded: tuple[float, float]  # branches k = 1 and k = 2


def mycielski_theta_formula(t: float) -> FormulaResult:
    """theta_bar of the Mycielskian as a function of t = theta_bar(G) >= 2.

    Returns the k = 0 branch; t < m <= t + 1 always holds.  Values t < 2 are
    refused, and so are values whose t^3 overflows a float (above about
    5.6e102).  From t of about 1.45e5 up the trigonometric form cancels down
    to m <= t, so m is at least the next float above t, within an ulp of the root.
    """
    if not (math.isfinite(t) and t >= 2.0):
        raise DomainError(f"formula needs a finite t >= 2, got {t}")
    m = max(star_branch(t, 0), math.nextafter(t, math.inf))
    try:
        residual = cubic_residual(t, m)
    except OverflowError:  # from t ** 3
        raise DomainError(f"formula needs t^3 to be a finite float, got t = {t}") from None
    return FormulaResult(t, m, residual, (star_branch(t, 1), star_branch(t, 2)))


def verify_root_selection(t: float) -> bool:
    """Both discarded branches of the cubic stay <= 1 + 1e-12 (hence below t).
    Public API with no caller in the package: the paper's root choice, checked."""
    if not t >= 2.0:
        raise DomainError(f"root selection check needs t >= 2, got {t}")
    return star_branch(t, 1) <= 1.0 + 1e-12 and star_branch(t, 2) <= 1.0 + 1e-12


Number = Union[Fraction, float, int]


def lpu_formula(x: Number) -> Number:
    """x + 1/x; exact when given a Fraction (or int), float otherwise.
    Public API with no caller in the package: the paper's chi_f law."""
    if x <= 0:
        raise DomainError("lpu formula needs a positive argument")
    if isinstance(x, Fraction):
        return x + Fraction(1) / x
    if isinstance(x, int):
        return Fraction(x) + Fraction(1, x)
    return x + 1.0 / x
