"""Explicit clique constructions in OR-powers of Mycielskians, the
nonexistence check for deeper level structures, and the per-graph capacity
report.

The n^n clique lives in [M(K_n) minus apex]^n: a base sequence
x in {0..n-1}^n with digit sum congruent to j mod n is lifted at coordinate
j+1 (1-based) to level 1; two members of the same residue class differ in at
least two base coordinates, members of different classes keep an adjacency
untouched by the lift, so the set is a clique.  Every member has a level-1
coordinate, hence the all-apex sequence extends it to size n^n + 1.  The
directed variant over M(T_n) orders the same vertex set by digit sum, then
lexicographically on the base coordinates away from the lifted position, and
every forward pair is an arc.  Constructions verify all their pairs at once
on the members' adjacency in the OR-power (`_power_adjacency`) before
returning: they are proofs, not hopes.  The paper's chain composes induced
embeddings the package already has, K_N in G^k (`capacity_lower_bound`) and
M(G^k) in [M(G)]^k (`graphs._mycielski_power_coords`): the extended clique
of [M(K_N)]^N lifts along them into [M(G)]^(kN), verified once there.
`graphs._check_size` makes every refusal of a size.

For n, r >= 3 no clique of size n^t in [M_r(K_n) minus apex]^t has a
level-(r-1) coordinate in every member.  The check builds H, the induced
subgraph on those sequences, from the same power adjacency, and lets the
package's clique search decide whether omega(H) reaches n^t.

For a digraph D, the capacity report caps the transitive clique search over
every power D^k by the sandwich theorem: a transitive clique of D^k is a
clique of U^k, where U is the underlying graph of D (underlying(D^k) =
underlying(D)^k), and omega(U^k) <= theta_bar(U^k) = theta_bar(U)^k.  The cap is
`ThetaSolution.cap(k)` of U's solve, floor(hi^k (1 + 1e-9)) with hi the upper
end of its certified bracket; U has n vertices, so no SDP is solved on a power.
Each search is seeded with the lexicographic product of lower-power
witnesses, which keeps a transitive order, and at power n with the attached
construction, whose host is D itself; a seed that reaches the cap proves
the optimum without a search.  Undirected reports search uncapped.

Every search is bounded: the report's one node budget bounds each of its
clique searches and its chromatic search, and given none, they and the
nonexistence check stop at `invariants.DEFAULT_BUDGET` nodes.

Results are plain data, and `to_dict` gives each one's document; `cli`
alone renders them as JSON, CSV or text.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, InconclusiveError, MycthetaError
from .fractional import fractional_chromatic
from .graphs import (
    Digraph,
    Graph,
    GraphLike,
    _check_size,
    _exceeds_bound,
    _mycielski_power_coords,
    _require_kind,
    complete_graph,
    mycielskian,
    or_power,
    power_index,
    transitive_tournament,
)
from .invariants import (
    CapacityBound,
    ChromaticResult,
    CliqueResult,
    _Budget,
    _max_clique,
    capacity_lower_bound,
    chromatic_number,
    clique_number,
    symmetric_clique_number,
    transitive_clique_number,
)
from . import theta as theta_mod


@dataclass(frozen=True)
class LiftedCliqueSet:
    """A verified clique of power vertices over M(K_n) or M(T_n).

    `vertices` hold flat M-labels, coordinate position i+1 (1-based) at index
    i; `residue_classes[k]` is the digit-sum class of vertex k (None for the
    apex sequence).  For the directed variant the vertex order itself is the
    transitive order.
    """

    n: int
    directed: bool
    vertices: tuple[tuple[int, ...], ...]
    residue_classes: tuple[Optional[int], ...]
    includes_apex: bool
    bound: Optional[float]
    verified: bool

    def to_dict(self) -> dict:
        n = self.n  # coordinate c is (vertex, level) = (c % n, c // n), or the apex 2n
        labels = [["Apex" if c == 2 * n else f"({c % n},{c // n})" for c in v] for v in self.vertices]
        return {
            "n": self.n,
            "directed": self.directed,
            "size": len(self.vertices),
            "includes_apex": self.includes_apex,
            "bound": self.bound,
            "verified": self.verified,
            "vertices": [list(v) for v in self.vertices],
            "labels": labels,
            "residue_classes": list(self.residue_classes),
        }


def _lifted_members(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Every lifted sequence with its class j: a base sequence x in
    {0..n-1}^n with digit sum j mod n, coordinate j (0-based) on level 1."""
    members = []
    for x in itertools.product(range(n), repeat=n):
        j = sum(x) % n
        members.append((x[:j] + (n + x[j],) + x[j + 1:], j))
    return members


def _power_adjacency(host: GraphLike, members: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Adjacency matrix of the power vertices `members` in the OR-power of host.

    Entry (i, j) is set when some coordinate c has host[members[i][c],
    members[j][c]]; for a digraph host that is an arc from i to j.
    """
    coords = np.asarray(members, dtype=np.int64)
    a = host.bool_matrix()
    joined = np.zeros((len(coords), len(coords)), dtype=bool)
    for c in coords.T:
        joined |= a[np.ix_(c, c)]
    return joined


def _verify_clique(host: GraphLike, members: Sequence[tuple[int, ...]], what: str) -> None:
    """Raise unless every pair of power vertices i < j is OR-adjacent over
    host; for a digraph host the member order must be a transitive order."""
    missing = np.flatnonzero(np.triu(~_power_adjacency(host, members), 1))
    if missing.size:
        i, j = divmod(int(missing[0]), len(members))
        raise DomainError(f"{what} broke: {members[i]} !~ {members[j]}")


def _lifted_set(n: int, directed: bool, apex: bool) -> LiftedCliqueSet:
    """The lifted sequences over M(K_n), or over M(T_n) in their transitive
    order, with the apex sequence when `apex` is set (first when directed,
    last otherwise); every pair is verified at once."""
    if n < 2:
        raise DomainError("lifted clique needs n >= 2")
    what = "transitive construction" if directed else "extended construction" if apex else "construction"
    _check_size(n, what, n, plus=int(apex))
    members = _lifted_members(n)
    if directed:  # ascending digit sum, ties lexicographic off the lifted position
        members.sort(key=lambda m: (sum(m[0]), m[0][:m[1]] + m[0][m[1] + 1:]))
    vertices = [v for v, _ in members]
    classes: list[Optional[int]] = [j for _, j in members]
    if apex:
        at = 0 if directed else len(vertices)
        vertices.insert(at, (2 * n,) * n)
        classes.insert(at, None)
    host = mycielskian(transitive_tournament(n) if directed else complete_graph(n), 2)
    _verify_clique(host, vertices, what)
    return LiftedCliqueSet(
        n=n,
        directed=directed,
        vertices=tuple(vertices),
        residue_classes=tuple(classes),
        includes_apex=apex,
        bound=(n ** n + 1) ** (1.0 / n) if apex else None,
        verified=True,
    )


def lifted_clique(n: int) -> LiftedCliqueSet:
    """The n^n clique in [M(K_n) minus apex]^n, verified pairwise."""
    return _lifted_set(n, directed=False, apex=False)


def extended_clique(n: int) -> LiftedCliqueSet:
    """lifted_clique(n) plus the all-apex sequence: n^n + 1 vertices.

    Reports the capacity bound (n^n + 1)^(1/n), which exceeds n.
    """
    return _lifted_set(n, directed=False, apex=True)


def lifted_transitive_clique(n: int) -> LiftedCliqueSet:
    """Transitive clique of size n^n + 1 in [M(T_n)]^n, apex first.

    Ordering: the apex sequence, then ascending digit sum, ties broken
    lexicographically on the base coordinates excluding the lifted position.
    Every ordered pair is verified to be an arc.
    """
    return _lifted_set(n, directed=True, apex=True)


# ---------------------------------------------------------------------------
# nonexistence of the analogous clique for r, n >= 3
# ---------------------------------------------------------------------------

def _level_power(n: int, r: int, t: int) -> tuple[Graph, list[tuple[int, ...]]]:
    """H, the induced subgraph of [M_r(K_n) minus apex]^t on the sequences
    with a level-(r-1) coordinate, and those sequences, in ascending order.

    Raises SizeLimitError before building anything when |H| = (rn)^t -
    ((r-1)n)^t exceeds the vertex bound; |H| >= n^t, which is checked first.
    """
    _check_size(n, "the nonexistence check", t, at_least=True)
    _check_size((r * n) ** t - ((r - 1) * n) ** t, "the nonexistence check")
    low, top, every = range((r - 1) * n), range((r - 1) * n, r * n), range(r * n)
    # split by the first level-(r-1) coordinate, then merge into ascending order
    tuples = sorted(x for i in range(t) for x in itertools.product(*[low] * i, top, *[every] * (t - i - 1)))
    return Graph(len(tuples), _power_adjacency(mycielskian(complete_graph(n), r), tuples)), tuples


def no_lifted_clique_check(n: int, r: int, t: int,
                           node_budget: Optional[int] = None) -> bool:
    """Confirm there is no clique of size n^t in [M_r(K_n) minus apex]^t
    whose members all carry a level-(r-1) coordinate.

    Such members are vertices of H (`_level_power`).  Two power vertices
    with the same base projection are never adjacent (equal letters are
    non-adjacent in every coordinate of M_r(K_n)), so no clique of H is
    larger than n^t.
    The package's clique search runs on H from a best size of n^t - 1 with
    no witness, so it prunes every branch whose coloring bound is below n^t.
    Returns True when it ends with nothing larger and False on a clique of
    size n^t, which is re-verified first; raises InconclusiveError if the
    node budget (`invariants.DEFAULT_BUDGET` when None) runs out first.
    """
    budget = _Budget(node_budget)
    if n < 3 or r < 3:
        raise DomainError("the nonexistence statement needs n >= 3 and r >= 3")
    if t < 1:
        raise DomainError("power exponent must be at least 1")
    h, _ = _level_power(n, r, t)
    if _max_clique(h, budget, beat=n ** t - 1):
        return False
    if not budget.within_limit:
        raise InconclusiveError(
            f"nonexistence search for (n={n}, r={r}, t={t}) exceeded {budget.limit} nodes"
        )
    return True


# ---------------------------------------------------------------------------
# superadditive chaining: an (N^N + 1)-clique in [M(G)]^(k N)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainedClique:
    k: int
    N: int
    vertices: tuple[tuple[int, ...], ...]  # coordinates over M(G), length k*N
    bound: float                           # (N^N + 1)^(1/(k N))
    verified: bool


def chained_power_clique(g: Graph, k: int = 1,
                         node_budget: Optional[int] = None) -> ChainedClique:
    """Explicit (N^N + 1)-clique in [M(G)]^(k N), where N = omega(G^k).

    The paper's chain, composed from the package's own maps: a verified
    clique K_N of G^k (`capacity_lower_bound`) embeds M(K_N) in M(G^k), which
    `graphs._mycielski_power_coords` embeds in [M(G)]^k.  The members of
    `extended_clique(N)` are carried along both, coordinate by coordinate,
    and verified once over M(G); every link is induced, so that check implies
    the one over [M(K_N)]^N.  A truncated search raises InconclusiveError.
    """
    _Budget(node_budget)  # a bad budget fails here, before any work
    _require_kind(g, Graph, "chaining")
    host = mycielskian(g, 2)
    clique = capacity_lower_bound(g, k, node_budget).clique
    if not clique.exhausted:
        raise InconclusiveError("clique search for omega(G^k) ran out of budget")
    N, n = clique.size, g.n
    if N < 2:
        raise DomainError("chaining needs omega(G^k) >= 2")
    _check_size(N, "chained construction", N, plus=1)
    # M(K_N) label level * N + q, or the apex 2N, as a vertex of M(G^k), then as its k coordinates
    image = [level * n ** k + v for level in range(2) for v in clique.witness] + [2 * n ** k]
    coords = [_mycielski_power_coords(v, n, k) for v in image]
    members = [v for v, _ in _lifted_members(N)] + [(2 * N,) * N]
    vertices = tuple(tuple(c for label in seq for c in coords[label]) for seq in members)
    _verify_clique(host, vertices, "chained construction")
    return ChainedClique(k=k, N=N, vertices=vertices, bound=(N ** N + 1) ** (1.0 / (k * N)), verified=True)


# ---------------------------------------------------------------------------
# capacity report
# ---------------------------------------------------------------------------

@dataclass
class CapacityReport:
    n: int
    m: int
    directed: bool
    omega: Optional[CliqueResult] = None
    omega_s: Optional[CliqueResult] = None
    omega_tr: Optional[CliqueResult] = None
    lower_bounds: tuple[CapacityBound, ...] = ()
    theta: Optional[float] = None
    theta_tolerance: Optional[float] = None
    chi_f: Optional[Fraction] = None
    chi: Optional[ChromaticResult] = None
    construction: Optional[LiftedCliqueSet] = None
    errors: dict = field(default_factory=dict)

    def best_lower_bound(self) -> Optional[float]:
        values = [b.value for b in self.lower_bounds]
        if self.construction is not None and self.construction.bound:
            values.append(self.construction.bound)
        if self.omega is not None:
            values.append(float(self.omega.size))
        if self.omega_tr is not None:
            values.append(float(self.omega_tr.size))
        return max(values) if values else None

    def to_dict(self) -> dict:
        def doc(result):
            return None if result is None else result.to_dict()

        return {
            "n": self.n,
            "m": self.m,
            "directed": self.directed,
            "omega": doc(self.omega),
            "omega_s": doc(self.omega_s),
            "omega_tr": doc(self.omega_tr),
            "lower_bounds": [b.to_dict() for b in self.lower_bounds],
            "theta": self.theta,
            "theta_tolerance": self.theta_tolerance,
            "chi_f": None if self.chi_f is None else f"{self.chi_f.numerator}/{self.chi_f.denominator}",
            "chi": doc(self.chi),
            "construction": doc(self.construction),
            "best_lower_bound": self.best_lower_bound(),
            "errors": self.errors,
        }


def _product_seed(witnesses: dict[int, tuple[int, ...]], k: int, n: int) -> tuple[int, ...]:
    """The largest lexicographic product of a G^i and a G^(k-i) witness, as
    vertices of G^k; the product of two transitive orders is one."""
    best: tuple[int, ...] = ()
    for i, a in witnesses.items():
        b = witnesses.get(k - i)
        if b is not None and len(a) * len(b) > len(best):
            best = tuple(x * n ** (k - i) + y for x in a for y in b)
    return best


def _construction(g: GraphLike) -> Optional[LiftedCliqueSet]:
    """The clique construction whose host is g itself: `extended_clique(n)`
    for g = M(K_n), `lifted_transitive_clique(n)` for g = M(T_n), where
    n = (g.n - 1) / 2 >= 2 and n^n + 1 fits the vertex bound; else None."""
    n = (g.n - 1) // 2
    if n < 2 or _exceeds_bound(n, n, plus=1):
        return None
    directed = isinstance(g, Digraph)
    if g != mycielskian(transitive_tournament(n) if directed else complete_graph(n), 2):
        return None
    return lifted_transitive_clique(n) if directed else extended_clique(n)


def capacity_report(g: GraphLike, *, max_power: int = 1, theta_tol: float = theta_mod.DEFAULT_TOL,
                    node_budget: Optional[int] = None) -> CapacityReport:
    """Bundle of invariants and bounds; per-field failures land in `errors`.

    `node_budget` bounds every search, the chromatic one included, which
    takes the whole of it and runs no clique search of its own.  Only
    expected failures (`MycthetaError`) are recorded there.  A bad
    `theta_tol`, `node_budget` or `max_power` is bad input, not a per-field
    failure: it raises DomainError before any field is computed.  A failed
    re-verification or a clique above its theta cap (MycthetaInternal) or
    any other exception propagates.

    The powers k = 2..max_power stop at the first one beyond the vertex
    bound, whose SizeLimitError is recorded; a graph on at most one vertex
    is its own power, so its bounds end at k = 1.  For a digraph, the transitive
    search over each power k >= 2 that fits the bound is capped and seeded
    (see the module docstring).  The cap's theta_bar solve runs once, when
    first needed; if it fails, the searches run uncapped and nothing is
    recorded, since the report outputs no theta for a digraph.  The
    attached construction is `_construction(g)`.
    """
    _Budget(node_budget)  # a bad budget fails here, before any field
    if max_power < 0:
        raise DomainError(f"max power must be at least 0, got {max_power}")
    theta_mod.check_tol(theta_tol)
    directed = isinstance(g, Digraph)
    report = CapacityReport(n=g.n, m=g.m, directed=directed)

    def attempt(name, fn):
        try:
            return fn()
        except MycthetaError as exc:  # recorded, not fatal
            report.errors[name] = f"{type(exc).__name__}: {exc}"
            return None

    report.construction = attempt("construction", lambda: _construction(g))
    if directed:
        report.omega_s = attempt(
            "omega_s", lambda: symmetric_clique_number(g, node_budget)
        )
        report.omega_tr = omega = attempt(
            "omega_tr", lambda: transitive_clique_number(g, node_budget)
        )
    else:
        report.omega = omega = attempt(
            "omega", lambda: clique_number(g, node_budget)
        )
    # the k = 1 bound is the clique number of G^1 = G, searched just above
    bounds = []
    if max_power >= 1:
        if omega is None:
            report.errors["lower_bound_k1"] = report.errors["omega_tr" if directed else "omega"]
        else:
            bounds.append(CapacityBound(1, omega))

    @functools.cache
    def theta_solution() -> Optional[theta_mod.ThetaSolution]:
        """The certified theta_bar(underlying(g)), whose `cap` bounds each power."""
        try:
            return theta_mod.theta_bar(g.underlying(), theta_tol)
        except MycthetaError:  # an uncapped search is still exact
            return None

    def search_args(k: int) -> dict:
        """Cap and seed of the transitive search over g^k; none for an
        undirected g or a power beyond the vertex bound, which fails first."""
        if not directed or _exceeds_bound(g.n, k):
            return {}
        seed = _product_seed({b.k: b.clique.witness for b in bounds}, k, g.n)
        construction = report.construction  # it lives in g^n, n = construction.n
        if construction is not None and construction.n == k and len(construction.vertices) > len(seed):
            seed = tuple(power_index(v, g.n) for v in construction.vertices)
        sol = theta_solution()
        return {"cap": None if sol is None else sol.cap(k), "seed": seed}

    # a graph on at most one vertex is its own power, so its k = 1 bound is every bound
    for k in range(2, max_power + 1 if g.n > 1 else 2):
        bound = attempt(
            f"lower_bound_k{k}",
            lambda k=k: capacity_lower_bound(g, k, node_budget, **search_args(k)),
        )
        if bound is not None:
            bounds.append(bound)
        elif _exceeds_bound(g.n, k):
            break
    report.lower_bounds = tuple(bounds)
    if not directed:
        sol = attempt("theta", lambda: theta_mod.theta_bar(g, theta_tol))
        if sol is not None:
            report.theta = sol.value
            report.theta_tolerance = sol.tolerance_achieved
        chi_f = attempt("chi_f", lambda: fractional_chromatic(g))
        if chi_f is not None:
            report.chi_f = chi_f.value
        report.chi = attempt("chi", lambda: chromatic_number(g, node_budget))
    return report
