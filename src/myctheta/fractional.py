"""Exact fractional chromatic number over the rationals.

chi_f(G) is the optimum of the covering LP min 1.x over {A x >= 1, x >= 0},
where the columns of A are the maximal independent sets of G, and of its
dual max 1.y over {A^T y <= 1, y >= 0}, a maximum fractional clique.  We
enumerate the maximal independent sets (Bron-Kerbosch with pivoting on the
complement, hard cap on the count) and solve the pair as QSopt_ex does
(Applegate, Cook, Dash & Espinoza 2007, *Exact solutions to linear
programming problems*):

1. Float pivots.  A revised dual simplex runs in float64 from the surplus
   basis, which is dual feasible outright.  Leaving rows and entering
   columns break ties by smallest variable index.  Pricing is one product
   with the constraint matrix; each pivot is one rank-1 update of the basis
   inverse, which LAPACK recomputes every 50 pivots to shed rounding drift.
2. Exact certificate.  The final basis B is solved exactly, B x_B = 1 and
   B^T y = c_B, each by fraction-free integer (Bareiss) forward elimination
   and integer back-substitution, with no inverse formed, so x and y are
   integer vectors over one positive denominator d = |det B|.  Integer sums
   over the nonzeros then check x_B >= 0, a cover weight >= 1 at every
   vertex, y >= 0, y(S) <= 1 on every maximal independent set S, and
   1.y = 1.x.  Together these prove both optimal.
3. Exact fallback.  If the certificate fails, the basis is singular, or
   the float loop stalls or hits its pivot cap, the same loop runs on
   Fraction arrays with tolerance 0: from the float basis when it is
   exactly dual feasible, else from the surplus basis, with that basis's
   exact inverse from the same elimination.  Its basis must pass
   the same certificate; a failure there is a bug and raises
   MycthetaInternal.

So no answer depends on a float, and the cover and the clique agree
exactly, which is what makes identities such as the Mycielski formula for
chi_f testable without tolerances.  The basis is n x n and its exact solve
costs O(n^3), so the LP takes at most 128 vertices.  The enumeration stops
past 3^10 maximal independent sets, the Moon-Moser maximum for 30 vertices.

An OR-power is not solved on its own.  When `graphs._power_base` finds g
to be the t-th OR-power of its leading block H, in the layout of `or_power`
(`graphs._kron_power`), the LP is solved on H alone, so the 128-vertex
limit applies to H, and chi_f(g) = chi_f(H)^t exactly (Scheinerman &
Ullman, *Fractional Graph Theory*, 1997).  The projections of an
independent set of H^t are independent in H, so every independent set of
H^t lies in a product of independent sets of H.
Hence the products of H's cover sets, weighted by the products of their
weights, cover H^t, and the Kronecker power of H's fractional clique weighs
every independent set of H^t at most 1.  Both have value chi_f(H)^t, which
proves them optimal from H's integer-checked certificate.  C7^3 (343
vertices) and M(C5)^3 (1331) are lifted from C7 and M(C5).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import MycthetaInternal, SizeLimitError
from .graphs import Graph, _kron_power, _power_base, _require_kind

MAX_VERTICES_CHI_F = 128
MAX_INDEPENDENT_SETS = 3 ** 10
_MAX_PIVOTS = 200_000
_TOL = 1e-9  # float pivots: feasibility, pivot size and ratio ties
_REFACTOR_EVERY = 50  # float pivots between fresh LAPACK inverses of the basis


def maximal_independent_sets(g: Graph) -> list[int]:
    """All maximal independent sets of g as vertex bitmasks.

    Maximal independent sets of g are the maximal cliques of its complement;
    enumeration is Bron-Kerbosch with greedy pivoting.  Raises when more than
    `MAX_INDEPENDENT_SETS` (read at call time) sets would be produced.
    """
    n = g.n
    comp_bits = [((1 << n) - 1) & ~g.bits[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > MAX_INDEPENDENT_SETS:
                raise SizeLimitError(f"more than {MAX_INDEPENDENT_SETS} maximal independent sets")
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


def _mask_members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask in ascending order, from one walk of its bits.

    The walk reads the binary digits lowest first; on 108-member masks it is
    about three times faster than clearing the lowest set bit per member.
    """
    return tuple([v for v, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"])


def _dual_simplex(a: np.ndarray, c: np.ndarray, basis: list[int], binv: np.ndarray,
                  tol: float) -> Optional[list[int]]:
    """Optimal basis of min c.x over {a x = 1, x >= 0}, from a dual feasible one.

    `binv` is the inverse of the basis matrix: float64 with tol > 0, or
    Fraction objects with tol = 0.  The leaving row has the smallest basic
    variable among negative values, the entering column the smallest index
    among minimum ratios; in exact arithmetic that keeps pivoting finite.
    Returns None when no column can enter or the pivot cap is reached.
    """
    basis = list(basis)
    xb = binv.sum(axis=1)
    for pivots in range(_MAX_PIVOTS):
        if tol and pivots and pivots % _REFACTOR_EVERY == 0:  # drop the drift of rank-1 updates
            binv = np.linalg.inv(a[:, basis])
            xb = binv.sum(axis=1)
        rows = np.flatnonzero(xb < -tol)
        if not rows.size:
            return basis
        r = min(rows, key=basis.__getitem__)
        alpha, priced = np.stack([binv[r], c[basis] @ binv]) @ a
        alpha[basis] = 0  # basic columns never enter
        cols = np.flatnonzero(alpha < -tol)
        if not cols.size:
            return None
        ratio = (c[cols] - priced[cols]) / -alpha[cols]
        e = int(cols[np.flatnonzero(ratio <= ratio.min() + tol)[0]])
        d = binv @ a[:, e]
        binv[r] /= d[r]
        xb[r] /= d[r]
        d[r] = 0
        nz = np.flatnonzero(d)
        binv[nz] -= np.outer(d[nz], binv[r])
        xb[nz] -= d[nz] * xb[r]
        basis[r] = e
    return None


def _solve_exact(b: np.ndarray, rhs: np.ndarray) -> Optional[tuple[int, np.ndarray]]:
    """(d, z) with b z = d rhs, d = |det(b)| > 0 and z integer, for an integer
    matrix b and integer columns rhs; None when b is singular.  With rhs = I,
    z = d b^-1 is the adjugate up to sign.

    Fraction-free forward elimination (Bareiss) of [b | rhs] over Python ints
    divides exactly by each previous pivot and leaves an upper triangular
    system with the same solution, whose last pivot is +-det(b).
    Back-substitution then stays in integers: d b^-1 rhs is integer (Cramer's
    rule), so every division by a diagonal entry is exact.
    """
    m = len(b)
    t = np.hstack([b, rhs]).astype(object)
    prev = 1
    for k in range(m):
        nz = np.flatnonzero(t[k:, k])
        if not nz.size:
            return None
        p = k + int(nz[0])
        if p != k:
            t[[k, p]] = t[[p, k]]
        piv = t[k, k]
        t[k + 1:, k + 1:] = (piv * t[k + 1:, k + 1:] - np.outer(t[k + 1:, k], t[k, k + 1:])) // prev
        prev = piv
    d = abs(prev)
    z = d * t[:, m:]
    for i in range(m - 1, -1, -1):
        z[i] = (z[i] - t[i, i + 1:m] @ z[i + 1:]) // t[i, i]
    return d, z


class _BasisSolution(NamedTuple):
    """x_B = x / d and y = y / d, in integer numerators over d > 0."""
    d: int
    x: list[int]
    y: list[int]


def _solve_basis(a: np.ndarray, c: np.ndarray, basis: list[int]) -> Optional[_BasisSolution]:
    """Exact solutions of B x_B = 1 and B^T y = c_B; None when B is singular.

    Each is one `_solve_exact` of a single column, about m^3 / 3 big-int
    products, where the whole inverse would take about 4 m^3 / 3.
    """
    b = a[:, basis]
    xs = _solve_exact(b, np.ones((len(basis), 1), dtype=np.int64))
    if xs is None:
        return None
    d, x = xs
    _, y = _solve_exact(b.T, c[basis][:, None])
    return _BasisSolution(d, x[:, 0].tolist(), y[:, 0].tolist())


def _dual_feasible(sol: _BasisSolution, col_rows: list[tuple[int, ...]]) -> bool:
    """y >= 0 and y(S) <= 1 on every maximal independent set S."""
    y = sol.y
    return min(y) >= 0 and all(sum(y[v] for v in rows) <= sol.d for rows in col_rows)


def _certified(sol: _BasisSolution, basis: list[int], col_rows: list[tuple[int, ...]]) -> bool:
    """Both solutions of the basis are feasible and of equal value, so optimal."""
    cover = [0] * len(basis)
    value = 0
    for j, w in zip(basis, sol.x):
        if j < len(col_rows):  # a structural column: the weight of set j
            value += w
            for v in col_rows[j]:
                cover[v] += w
    return (min(sol.x) >= 0 and min(cover) >= sol.d and _dual_feasible(sol, col_rows)
            and sum(sol.y) == value)


def _dual_simplex_cover(m: int, col_rows: list[tuple[int, ...]]
                        ) -> tuple[Fraction, dict[int, Fraction], list[Fraction]]:
    """min 1.x over {A x - s = 1, x, s >= 0} where column j hits rows col_rows[j].

    Float pivots, an exact certificate of their final basis, and exact
    pivots only when that fails (see the module docstring).  Returns the
    objective, the nonzero cover weights, and the dual vector y >= 0 (the
    fractional clique).
    """
    total = len(col_rows)
    a = np.zeros((m, total + m), dtype=np.int8)  # structural 0..total-1, surplus after
    for j, rows in enumerate(col_rows):
        a[list(rows), j] = 1
    a[:, total:] = -np.eye(m, dtype=np.int8)
    c = np.zeros(total + m, dtype=np.int8)
    c[:total] = 1
    surplus = list(range(total, total + m))

    basis = _dual_simplex(a.astype(float), c.astype(float), surplus, -np.eye(m), _TOL)
    sol = None if basis is None else _solve_basis(a, c, basis)
    if sol is None or not _certified(sol, basis, col_rows):
        a, c = a.astype(object), c.astype(object)
        if sol is None or not _dual_feasible(sol, col_rows):
            basis = surplus
        d, adj = _solve_exact(a[:, basis], np.eye(m, dtype=np.int64))
        basis = _dual_simplex(a, c, basis, adj * Fraction(1, d), 0)
        if basis is None:
            raise MycthetaInternal("exact dual simplex found no entering column or hit its pivot cap")
        sol = _solve_basis(a, c, basis)
        if sol is None or not _certified(sol, basis, col_rows):
            raise MycthetaInternal("exact simplex basis failed its optimality certificate")

    weights = {j: Fraction(w, sol.d) for j, w in zip(basis, sol.x) if j < total and w}
    return sum(weights.values(), Fraction(0)), weights, [Fraction(v, sol.d) for v in sol.y]


def fractional_chromatic(g: Graph) -> FractionalChromaticResult:
    """Exact chi_f(G) with a fractional cover and the dual fractional clique.

    A recognised OR-power H^t is lifted from H (see the module docstring),
    so the vertex limit applies to H; every other graph is solved by
    `_solve`.
    """
    _require_kind(g, Graph, "fractional chromatic number")
    power = _power_base(g)
    if power is None:
        return _solve(g)
    h, t = power
    base = _solve(h)
    cover: list[tuple[frozenset, Fraction]] = [(frozenset([0]), Fraction(1))]
    for _ in range(t):  # vertex (u, v) of H^s x H is u n_H + v, as in `or_power`
        cover = [(frozenset(u * h.n + v for u in s for v in r), w * x)
                 for s, w in cover for r, x in base.cover_weights]
    clique = _kron_power(np.array(base.clique_weights, dtype=object), t).tolist()
    return FractionalChromaticResult(base.value ** t, tuple(cover), tuple(clique))


def _solve(g: Graph) -> FractionalChromaticResult:
    """chi_f(g) from the LP over all of g's maximal independent sets."""
    if g.n > MAX_VERTICES_CHI_F:
        raise SizeLimitError(
            f"chi_f limited to {MAX_VERTICES_CHI_F} vertices, got {g.n}"
        )
    masks = maximal_independent_sets(g)
    col_rows = [_mask_members(mask) for mask in masks]
    value, weights, duals = _dual_simplex_cover(g.n, col_rows)
    cover = tuple((frozenset(col_rows[j]), w) for j, w in sorted(weights.items()))
    return FractionalChromaticResult(value, cover, tuple(duals))
