"""Complementary Lovasz theta number and its certificate extractions.

theta_bar(G) is computed from the standard semidefinite program on the
complement:

    maximize  <J, X>   s.t.  trace X = 1,  X_ij = 0 for every non-edge i != j,
                             X positive semidefinite,

whose optimum equals theta_bar(G).  The solver is a splitting scheme: its
map T sends v = (z, u) through the affine-constraint projection and a
projection onto the PSD cone (one dense symmetric eigendecomposition), and
it stops on primal/dual residuals driven to tol/50.  Its penalty is
rho = 2n: X has trace 1, so its entries are about 1/n, while J and the dual
have entries of about 1, and at rho = 1 the affine step z - u + J would be
n times the scale of the iterate.  The scaled dual variable u carries the
dual as rho * u.

The reported value is certified, not merely converged: shifting the affine
iterate X by its negative eigenvalue mass gives a strictly feasible primal
(a lower bound on theta), and completing the dual rho * u to a matrix with
ones on the diagonal and the edges gives a feasible point of the
min-lambda_max dual (an upper bound).  Both ends then meet [2, inf), as a
graph with an edge has theta_bar >= omega >= 2, so a bipartite graph's lower
end is not a float a few ulps below 2.  The solver stops once this bracket is
narrower than tol - which also rescues degenerate instances whose residuals
decay sublinearly - and stores it; the value and tolerance achieved are its
midpoint and half-width.  Any iterate gives valid bounds, so the iteration
is free to extrapolate: each step is a type-II Anderson step on the fixed
point v = T(v) (O'Donoghue's SCS 3; Zhang, O'Donoghue & Boyd 2020), which
fits the residual T(v) - v by the differences of the last few residuals and
moves T(v) by the same combination of the map values.  A safeguard keeps it
honest: a step is accepted only if its residual is no larger than the
current one, and otherwise the history is dropped and the next step is the
plain T(v).  Slow tails shrink from thousands of iterations to hundreds.

The history keeps 15 differences (`_ANDERSON_MEMORY`).  Sized on the first
20 G(40, 1/2) draws of random.Random(2027) at tol 1e-6 and a cap of 20 000
(2-CPU VM, one BLAS thread): memory 5 took 29.1 s, a median of 1250
iterations, and draw 18 did not certify (nor within 50 000); memory 10 took
22.7 s with draw 18 still failing; memory 15 took 9.9 s, a median of 630
and at most 6250 (draw 18, theta = 7.0112121); memory 20 took 15.3 s, draw
18 13 750.  At memory M the history holds M differences of map values and
M of residuals, each 2n^2 doubles, so it costs 2 * M * 2n^2 * 8 bytes:
187 MB at n = 625 (a direct solve of C5^4 peaks at 268 MB, against 152 MB
at memory 5; `theta_bar` lifts C5^4 from C5 instead, see below).

A solution stores the certified pair of the graph it solved: x_hat and the
dual point D = hi I - C + J, with hi the bracket's upper end and C its dual
matrix, J with -S on the non-edges for S = -rho * u.  Every iterate is
exactly symmetric (the Anderson step symmetrizes its candidate, and the map
is symmetric entry by entry), so u is, and so is D, with hi on the diagonal,
0 on the edges and 1 + S off them; the dual slack D - J is PSD with
diagonal hi - 1 and -1 on every edge: (D - J) / (theta - 1) is the Gram
matrix of an optimal strict vector coloring.  The diagonally normalized
primal minus the identity is an edge-supported matrix attaining the spectral
ratio 1 + lambda_max / |lambda_min|.

An OR-power is not solved on its own.  When `graphs._power_base` finds g
to be the t-th OR-power of its leading block H (the test the clique search
uses), H is solved and its certificate is raised to the t-th Kronecker
power (`graphs._kron_power`, in the layout of `or_power`), as in Lovasz's
proof that theta is multiplicative (Lovasz 1979, *On the Shannon capacity
of a graph*, Theorem 7; the complement of an OR-power is the strong power
of the complement):

* x_hat^(kron t) is PSD, has trace 1 and vanishes off the support of g^t,
  since every non-adjacent pair of g^t has a distinct, non-adjacent
  coordinate, so <J, x_hat^(kron t)> = lo^t is a lower bound;
* H's D has diagonal hi, zeros on E(H) and D - J PSD, so D^(kron t) - J is
  PSD (Kronecker powers keep the Loewner order between PSD matrices) with
  diagonal hi^t and -1 on E(g^t): a feasible dual point of value hi^t, and
  the lifted `dual_slack`.

The bracket [lo^t, hi^t] is about t hi^(t-1) times as wide as H's, so H is
solved at tol / (t n_H^(t-1)), as theta_bar(H) <= n_H, but never below the
1e-10 floor of `check_tol`.  If the lifted bracket is still wider than tol,
or H's solve reaches its cap, g is solved directly.  A lifted solution
stores H's pair and t and forms the n x n `primal` and `dual_slack` only
when they are read; its `iterations` are those of H's solve, and `lifted`
is (n_H, t).  A graph that is not a recognised power, a Mycielskian above
all (theta_bar(M(G)) = m(theta_bar(G)) is the theorem the package checks),
is solved directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import eigen
from .errors import ConvergenceError, DomainError, MycthetaError
from .graphs import Graph, _kron_power, _power_base, _require_kind

DEFAULT_TOL = 1e-6
EXTRACT_TOL = 1e-6         # the widest half-width `extract_vector_coloring` accepts
MIN_TOL = 1e-10            # the tightest tolerance `check_tol` accepts
MAX_ITERATIONS = 200_000
_RESIDUAL_SAFETY = 50.0    # residual target below tol so the value meets tol
_CERTIFY_EVERY = 250       # iterations between bracket evaluations
_ANDERSON_MEMORY = 15      # residual differences kept by the accelerated step;
                           # sized in the module docstring, 2 * M * 2n^2 * 8 bytes
_ROW_BLOCK = 512           # rows of inner products `max_violation` holds at once


@dataclass
class ThetaSolution:
    """Certified bracket [lower, upper] of theta_bar(H^power) and the certified
    pair (x_hat, D) of the graph H solved; power is 1 for a direct solve."""

    lower: float
    upper: float
    x_hat: np.ndarray
    dual_point: np.ndarray
    tol_requested: float
    iterations: int
    power: int = 1

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def tolerance_achieved(self) -> float:
        return 0.5 * (self.upper - self.lower)

    @property
    def n(self) -> int:
        return len(self.x_hat) ** self.power

    def cap(self, k: int) -> Optional[int]:
        """floor(upper^k (1 + 1e-9)) >= omega of the k-th OR-power, the margin
        covering upper's rounding; None when upper^k overflows a float."""
        try:
            return math.floor(self.upper ** k * (1 + 1e-9))
        except OverflowError:
            return None

    @property
    def lifted(self) -> Optional[tuple[int, int]]:
        """(n_H, t) when lifted from the base H, else None."""
        return (len(self.x_hat), self.power) if self.power > 1 else None

    @property
    def primal(self) -> np.ndarray:
        """The feasible primal x_hat^(kron power), formed on each read of a lifted solution."""
        return _kron_power(self.x_hat, self.power)

    @property
    def dual_slack(self) -> np.ndarray:
        """The certified slack D^(kron power) - J; a new n x n array on each read."""
        return _kron_power(self.dual_point, self.power) - 1.0

    def to_dict(self, verbose: bool = False) -> dict:
        doc = {
            "value": self.value,
            "tolerance_achieved": self.tolerance_achieved,
            "tolerance_requested": self.tol_requested,
            "iterations": self.iterations,
            "n": self.n,
        }
        if self.lifted is not None:
            doc["lifted"] = {"base_n": self.lifted[0], "t": self.lifted[1]}
        if verbose:
            doc["primal"] = self.primal.tolist()
        return doc


@dataclass(frozen=True)
class VectorColoring:
    """Unit vectors u_i with <u_i, u_j> = -1/(value - 1) on every edge."""

    value: float
    vectors: np.ndarray  # shape (n, d)

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])

    def max_violation(self, g: Graph) -> float:
        """Worst deviation from unit norms and prescribed edge inner products.

        The inner products are formed _ROW_BLOCK rows at a time, as
        V[rows] @ V.T, and read on the edges above the diagonal, so memory
        stays at one block however many edges g has.
        """
        norms = np.linalg.norm(self.vectors, axis=1)
        worst = float(np.max(np.abs(norms - 1.0))) if len(norms) else 0.0
        if g.m == 0:
            return worst
        target = -1.0 / (self.value - 1.0)
        adj = g.bool_matrix()
        for start in range(0, g.n, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            dots = (self.vectors[rows] @ self.vectors.T)[np.triu(adj[rows], start + 1)]
            if dots.size:
                worst = max(worst, float(np.max(np.abs(dots - target))))
        return worst


def _nonedge_mask(g: Graph) -> np.ndarray:
    """True at every non-adjacent pair i != j."""
    nonedge = ~g.bool_matrix()
    np.fill_diagonal(nonedge, False)
    return nonedge


def _certified_bracket(x, u, nonedge, jmat):
    """(lower, upper, x_hat, D): rigorous bounds from the iterates, and the
    certified pair that proves them.

    x is affine-feasible by construction; shifting by its negative eigenvalue
    mass keeps it feasible and makes it PSD, so <J, x_hat> <= theta.  The
    negated dual variable completed to ones on the diagonal and the edges is
    C, feasible for the min-lambda_max dual form, so its top eigenvalue hi is
    an upper bound, and D = hi I - C + J.  The graph has an edge, so both ends
    are raised to omega >= 2; D takes the raised hi, and D - J stays PSD.
    """
    n = x.shape[0]
    lam_min = float(eigen.eigvalsh(x)[0])
    shift = max(0.0, -lam_min)
    x_hat = (x + shift * np.eye(n)) / (1.0 + n * shift)
    lower = max(float(jmat.ravel() @ x_hat.ravel()), 2.0)
    c = jmat.copy()
    c[nonedge] = u[nonedge]  # u = -S, and C = -S on non-edges
    upper = max(float(eigen.eigvalsh(c)[-1]), 2.0)
    dual = np.subtract(jmat, c, out=c)  # 0 on the edges, 1 + S off them
    np.fill_diagonal(dual, upper)
    return lower, upper, x_hat, dual


class _AndersonHistory:
    """Differences of the last accepted map values T(v) and residuals T(v) - v.

    Type-II Anderson acceleration: the next point is T(v) - d_t @ gamma, with
    gamma the least-squares fit of the residual f by its differences d_f,
    solved from their m x m Gram matrix with a tiny ridge.
    """

    def __init__(self, size: int):
        self.d_t = np.zeros((_ANDERSON_MEMORY, size))
        self.d_f = np.zeros((_ANDERSON_MEMORY, size))
        self.gram = np.zeros((_ANDERSON_MEMORY, _ANDERSON_MEMORY))  # d_f @ d_f.T
        self.stored = 0

    def push(self, t_c: np.ndarray, t_v: np.ndarray, f_c: np.ndarray, f: np.ndarray) -> None:
        """Store T(c) - T(v) and f_c - f, subtracted straight into the ring slot."""
        slot = self.stored % _ANDERSON_MEMORY
        np.subtract(t_c, t_v, out=self.d_t[slot].reshape(t_c.shape))
        np.subtract(f_c, f, out=self.d_f[slot].reshape(f_c.shape))
        m = min(self.stored + 1, _ANDERSON_MEMORY)
        self.gram[slot, :m] = self.gram[:m, slot] = self.d_f[:m] @ self.d_f[slot]
        self.stored += 1

    def extrapolate(self, t_v: np.ndarray, f: np.ndarray) -> np.ndarray:
        m = min(self.stored, _ANDERSON_MEMORY)
        gram = self.gram[:m, :m].copy()
        gram.flat[::m + 1] += 1e-12 * gram.trace() + 1e-300  # solvable if d_f vanishes
        gamma = np.linalg.solve(gram, self.d_f[:m] @ f.ravel())
        cand = t_v - (gamma @ self.d_t[:m]).reshape(t_v.shape)
        return 0.5 * (cand + cand.swapaxes(1, 2))


def check_tol(tol: float) -> None:
    """Reject a requested tolerance outside [1e-10, 1e-3], NaN included."""
    if not (MIN_TOL <= tol <= 1e-3):
        raise DomainError(f"tol must lie in [1e-10, 1e-3], got {tol}")


def theta_bar(g: Graph, tol: float = DEFAULT_TOL) -> ThetaSolution:
    """Complementary Lovasz theta number of g, certified within tol.

    The bracket is stored; value and tolerance achieved are its midpoint and
    half-width.  Edgeless graphs (K_1 too) get [1, 1] exactly, a recognised
    OR-power is lifted from its base (see the module docstring), and every
    other graph is solved by `_solve`.  Raises ConvergenceError, with the best
    certified value and bracket width, if `MAX_ITERATIONS` is reached first.
    """
    _require_kind(g, Graph, "theta_bar")
    check_tol(tol)
    if g.m == 0:
        return ThetaSolution(1.0, 1.0, np.eye(g.n) / g.n, np.ones((g.n, g.n)), tol, 0)
    power = _power_base(g)
    if power is not None:
        lifted = _lift(*power, tol)
        if lifted is not None:
            return lifted
    return _solve(g, tol)


def _lift(h: Graph, t: int, tol: float) -> Optional[ThetaSolution]:
    """theta_bar(h^t) from one solve of h, or None when the lifted bracket is
    wider than tol or h's solve reaches the cap."""
    try:
        base = _solve(h, max(MIN_TOL, tol / (t * h.n ** (t - 1))))
    except ConvergenceError:
        return None
    # each float power is rounded outward by one step, so rounding cannot narrow the bracket
    lower_t, upper_t = math.nextafter(base.lower ** t, 0.0), math.nextafter(base.upper ** t, math.inf)
    if upper_t - lower_t > tol:
        return None
    return replace(base, lower=lower_t, upper=upper_t, tol_requested=tol, power=t)


def _solve(g: Graph, tol: float) -> ThetaSolution:
    """theta_bar(g) solved directly, by the splitting iteration, storing the certified
    bracket it stopped on.  The cap is `MAX_ITERATIONS`.  g must have an edge."""
    n = g.n
    nonedge = _nonedge_mask(g)
    jmat = np.ones((n, n))
    rho = 2.0 * n  # penalty scaled to the graph (see the module docstring)
    support = (~nonedge).astype(float)
    j_rho = support / rho  # the affine step's J / rho, already zero off the support

    def step(v):
        """One evaluation of the splitting map: (x, T(v)) for v = (z, u)."""
        z, u = v
        x = (z - u) * support + j_rho
        x.flat[::n + 1] += (1.0 - x.trace()) / n
        vals, vecs = eigen.eigh(x + u)
        k = vals.searchsorted(0.0, side="right")
        half = vecs[:, k:] * np.sqrt(vals[k:])
        mapped = np.empty_like(v)
        np.matmul(half, half.T, out=mapped[0])  # a rank-k product, so exactly symmetric
        np.subtract(u + x, mapped[0], out=mapped[1])
        return x, mapped

    history = _AndersonHistory(2 * n * n)
    t_v = f = None  # T(v) and T(v) - v at the last accepted point v
    cand = np.stack((np.eye(n) / n, np.zeros((n, n))))
    target = tol / _RESIDUAL_SAFETY
    best = None  # (width, midpoint) of the narrowest bracket so far
    for iteration in range(1, MAX_ITERATIONS + 1):
        if t_v is not None:
            cand = history.extrapolate(t_v, f) if history.stored else t_v
        x, t_c = step(cand)
        f_c = t_c - cand
        z_sq, u_sq = (f_c * f_c).sum(axis=(1, 2))
        f_c_norm = math.sqrt(z_sq + u_sq)
        if history.stored and f_c_norm > f_norm:
            history.stored = 0  # the safeguard: drop the history, take the plain step
        else:
            if t_v is not None:
                history.push(t_c, t_v, f_c, f)
            t_v, f, f_norm = t_c, f_c, f_c_norm
        u = t_c[1]
        residual = math.sqrt(max(u_sq, rho * rho * z_sq))  # primal and dual residuals
        if (residual < target and iteration > 5) or iteration % _CERTIFY_EVERY == 0:
            lower, upper, x_hat, dual = _certified_bracket(x, rho * u, nonedge, jmat)
            width = upper - lower
            if width <= tol:
                break  # every earlier bracket was wider, so this one is the best
            if best is None or width < best[0]:
                best = (width, 0.5 * (lower + upper))
    else:
        width, midpoint = best or (math.inf, float(jmat.ravel() @ x.ravel()))
        raise ConvergenceError(
            f"theta solver did not certify tol {tol} in {MAX_ITERATIONS} "
            f"iterations (best bracket width {width:.3e})",
            best_value=midpoint,
            residual=width,
            iterations=MAX_ITERATIONS,
        )
    return ThetaSolution(lower, upper, x_hat, dual, tol, iteration)


# ---------------------------------------------------------------------------
# the spectral-ratio formula
# ---------------------------------------------------------------------------

def spectral_ratio(t_matrix: np.ndarray, g: Graph) -> float:
    """1 + lambda_max(T) / |lambda_min(T)| for an edge-supported symmetric T.

    T must be nonzero, symmetric, have zero diagonal and vanish off E(G); the
    smallest eigenvalue of such a matrix is negative since its trace is zero.
    """
    return _ratio(_edge_spectrum(t_matrix, g)[1])


def _ratio(vals: np.ndarray) -> float:
    """1 + lambda_max / |lambda_min| from ascending eigenvalues."""
    return 1.0 + float(vals[-1]) / abs(float(vals[0]))


def _edge_spectrum(t_matrix: np.ndarray, g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T_sym, eigenvalues, eigenvectors): T checked as `spectral_ratio`
    requires, its symmetric part, and that part's one decomposition, which
    the certificate reuses."""
    t = np.asarray(t_matrix, dtype=float)
    if t.shape != (g.n, g.n):
        raise DomainError(f"matrix shape {t.shape} does not match graph on {g.n} vertices")
    scale = float(np.max(np.abs(t)))
    if scale == 0.0:
        raise DomainError("spectral ratio needs a nonzero matrix")
    if float(np.max(np.abs(t - t.T))) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric")
    nonedge = _nonedge_mask(g)
    off_support = np.abs(t) > 1e-12 * scale
    if np.any(off_support & nonedge) or np.any(np.abs(np.diag(t)) > 1e-12 * scale):
        raise DomainError("matrix support must lie exactly on the edge set")
    t_sym = 0.5 * (t + t.T)
    vals, vecs = eigen.eigh(t_sym)
    if float(vals[0]) >= 0:
        raise DomainError("matrix has no negative eigenvalue; support check failed")
    return t_sym, vals, vecs


def optimal_edge_matrix(g: Graph, sol: ThetaSolution) -> np.ndarray:
    """The edge-supported T whose spectral ratio is theta at the optimum.

    T is the diagonally normalized primal minus the identity,
    D^(-1/2) X D^(-1/2) - I with D = diag(X): the normalized primal is the
    Gram matrix of an optimal dual orthonormal representation (Lovasz 1979,
    *On the Shannon capacity of a graph*), whose top eigenvalue is theta
    while the subtraction pins the bottom at -1, so the ratio is exact at the
    optimum even when diag(X) is not uniform.  Vertices the optimum ignores
    (zero diagonal, e.g. in non-maximal components) contribute empty rows.
    No eigensolve is done here; `certificates.certify` decomposes T once and
    checks that its ratio lies within 100*tol of sol.value.
    """
    if g.m == 0:
        raise DomainError("edgeless graphs admit no edge-supported matrix")
    if sol.n != g.n:
        raise DomainError("solution does not belong to this graph")
    x = sol.primal  # read once: each read of a lifted primal forms a Kronecker power
    d = np.diag(x)
    used = d > 1e-12 * float(d.max())
    scale = np.zeros_like(d)
    scale[used] = 1.0 / np.sqrt(d[used])
    normalized = x * np.outer(scale, scale)
    np.fill_diagonal(normalized, 0.0)
    return normalized


def extract_vector_coloring(sol: ThetaSolution, g: Graph) -> VectorColoring:
    """Optimal strict vector coloring from a converged theta solution.

    Factorizes the PSD Gram matrix of the coloring (clamping tiny negative
    eigenvalues at zero) and normalizes the rows to unit vectors.  Edgeless
    graphs need no edge constraint and return the all-identical coloring of
    value 1.  A bracket wider than EXTRACT_TOL is refused with DomainError.
    """
    if sol.n != g.n:
        raise DomainError("solution does not belong to this graph")
    if sol.tolerance_achieved > EXTRACT_TOL:
        raise DomainError(
            f"solution tolerance {sol.tolerance_achieved} too loose for extraction"
        )
    n = g.n
    if g.m == 0:
        return VectorColoring(1.0, np.ones((n, 1)))
    t = sol.value
    gram = sol.dual_slack / (t - 1.0)
    vals, vecs = eigen.eigh(gram)
    lam_max = float(vals[-1])
    if lam_max <= 0:
        raise MycthetaError("coloring Gram matrix is not positive semidefinite")
    if float(vals[0]) < -100.0 * sol.tol_requested * max(1.0, lam_max):
        raise MycthetaError(
            f"primal matrix too far from PSD (min eigenvalue {vals[0]:.3e})"
        )
    keep = vals > 1e-12 * lam_max
    factors = vecs[:, keep] * np.sqrt(vals[keep])
    norms = np.linalg.norm(factors, axis=1)
    if np.any(norms <= 0):
        raise MycthetaError("degenerate row in the coloring factorization")
    return VectorColoring(t, factors / norms[:, None])
