"""Exact fractional chromatic number over the rationals.

chi_f(G) is the optimum of the covering LP over all maximal independent sets.
We enumerate the maximal independent sets (Bron-Kerbosch with pivoting on the
complement, hard cap on the count), then solve the covering/packing LP pair
in exact Fraction arithmetic: a revised dual simplex starts from the surplus
basis, which is dual feasible outright, and finishes with both the optimal
fractional cover and its dual, a maximum fractional clique.  The two values
agree exactly, which is what makes identities such as the Mycielski formula
for chi_f testable without tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SizeLimitError
from .graphs import Graph

MAX_VERTICES_CHI_F = 30
MAX_INDEPENDENT_SETS = 10 ** 6
_MAX_PIVOTS = 200_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


def maximal_independent_sets(g: Graph, cap: int = MAX_INDEPENDENT_SETS) -> list[int]:
    """All maximal independent sets of g as vertex bitmasks.

    Maximal independent sets of g are the maximal cliques of its complement;
    enumeration is Bron-Kerbosch with greedy pivoting.  Raises when more than
    `cap` sets would be produced.
    """
    n = g.n
    comp_bits = [((1 << n) - 1) & ~g.bits[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > cap:
                raise SizeLimitError(f"more than {cap} maximal independent sets")
            return
        # pivot: vertex of p|x covering the most of p
        pivot, best = -1, -1
        m = p | x
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            cover = (p & comp_bits[u]).bit_count()
            if cover > best:
                pivot, best = u, cover
        ext = p & ~comp_bits[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            bk(r | (1 << v), p & comp_bits[v], x & comp_bits[v])
            p &= ~(1 << v)
            x |= 1 << v

    if n:
        bk(0, (1 << n) - 1, 0)
    return out


@dataclass(frozen=True)
class FractionalChromaticResult:
    value: Fraction
    cover_weights: tuple[tuple[frozenset, Fraction], ...]
    clique_weights: tuple[Fraction, ...]


def _mask_to_set(mask: int) -> frozenset:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return frozenset(out)


def _dual_simplex_cover(m: int, col_rows: list[tuple[int, ...]]
                        ) -> tuple[Fraction, dict[int, Fraction], list[Fraction]]:
    """min 1.x over {A x - s = 1, x, s >= 0} where column j hits rows col_rows[j].

    Revised dual simplex.  The all-surplus basis (B = -I) is dual feasible, so
    no artificials are needed; leaving rows and entering columns break ties by
    smallest variable index, which keeps the pivoting finite.  Returns the
    objective, the nonzero cover weights, and the dual vector y >= 0 (the
    fractional clique).
    """
    total = len(col_rows)
    # variable indexing: structural 0..total-1 (cost 1), surplus total..total+m-1
    basis = list(range(total, total + m))
    binv = [[-_ONE if i == j else _ZERO for j in range(m)] for i in range(m)]
    xb = [-_ONE] * m

    for _ in range(_MAX_PIVOTS):
        neg = [i for i in range(m) if xb[i] < 0]
        if not neg:
            break
        r = min(neg, key=lambda i: basis[i])
        cb = [(_ONE if basis[i] < total else _ZERO) for i in range(m)]
        y = [sum(cb[i] * binv[i][c] for i in range(m) if cb[i]) for c in range(m)]
        beta = binv[r]
        entering, best_ratio = -1, None
        basic = set(basis)
        for j in range(total + m):
            if j in basic:
                continue
            if j < total:
                alpha = sum(beta[v] for v in col_rows[j])
                reduced = _ONE - sum(y[v] for v in col_rows[j])
            else:
                v = j - total
                alpha = -beta[v]
                reduced = y[v]
            if alpha < 0:
                ratio = reduced / (-alpha)
                if best_ratio is None or ratio < best_ratio:
                    entering, best_ratio = j, ratio
        if entering < 0:
            raise DomainError("covering LP infeasible; not every vertex is covered")
        if entering < total:
            rows = col_rows[entering]
            d = [sum(binv[i][v] for v in rows) for i in range(m)]
        else:
            v = entering - total
            d = [-binv[i][v] for i in range(m)]
        piv = d[r]
        binv[r] = [val / piv for val in binv[r]]
        xb[r] = xb[r] / piv
        for i in range(m):
            if i != r and d[i]:
                f = d[i]
                row_r = binv[r]
                binv[i] = [binv[i][c] - f * row_r[c] for c in range(m)]
                xb[i] -= f * xb[r]
        basis[r] = entering
    else:
        raise DomainError("dual simplex exceeded its pivot cap")

    value = sum(xb[i] for i in range(m) if basis[i] < total)
    weights = {
        basis[i]: xb[i] for i in range(m) if basis[i] < total and xb[i] != 0
    }
    cb = [(_ONE if basis[i] < total else _ZERO) for i in range(m)]
    duals = [sum(cb[i] * binv[i][c] for i in range(m) if cb[i]) for c in range(m)]
    return value, weights, duals


def fractional_chromatic(g: Graph) -> FractionalChromaticResult:
    """Exact chi_f(G) with a fractional cover and the dual fractional clique."""
    if g.n < 1:
        raise DomainError("fractional chromatic number needs a nonempty graph")
    if g.n > MAX_VERTICES_CHI_F:
        raise SizeLimitError(
            f"chi_f limited to {MAX_VERTICES_CHI_F} vertices, got {g.n}"
        )
    masks = maximal_independent_sets(g)
    col_rows = [tuple(sorted(_mask_to_set(mask))) for mask in masks]
    value, weights, duals = _dual_simplex_cover(g.n, col_rows)
    if sum(duals) != value or any(y < 0 for y in duals):
        raise DomainError("simplex returned an inconsistent primal/dual pair")
    cover = tuple(
        (_mask_to_set(masks[j]), w) for j, w in sorted(weights.items())
    )
    return FractionalChromaticResult(value, cover, tuple(duals))
