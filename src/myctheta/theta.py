"""Complementary Lovasz theta number and its certificate extractions.

theta_bar(G) is computed from the standard semidefinite program on the
complement:

    maximize  <J, X>   s.t.  trace X = 1,  X_ij = 0 for every non-edge i != j,
                             X positive semidefinite,

whose optimum equals theta_bar(G).  The solver is a splitting scheme that
alternates the affine-constraint projection with a projection onto the PSD
cone (a dense symmetric eigendecomposition) and stops on primal/dual
residuals driven to tol/50.  Its penalty is rho = 2n: X has trace 1, so its
entries are about 1/n, while J and the dual have entries of about 1, and
at rho = 1 the affine step z - u + J would be n times the scale of the
iterate.  The scaled dual variable u carries the dual as rho * u.

The reported value is certified, not merely converged: shifting the affine
iterate X by its negative eigenvalue mass gives a strictly feasible primal
(a lower bound on theta), and completing the dual rho * u to a matrix with
ones on the diagonal and the edges gives a feasible point of the
min-lambda_max dual (an upper bound).  The solver stops once this bracket is
narrower than tol - which also rescues degenerate instances whose residuals
decay sublinearly - and returns the midpoint, with the half-width as the
tolerance achieved.  Instances still running after 1000 iterations switch to
over-relaxation, which speeds up exactly those slow tails.

At convergence S = -rho * u is the dual slack matrix: S is PSD, its
diagonal approaches theta - 1 and its edge entries -1, so S / (theta - 1)
is the Gram matrix of an optimal strict vector coloring; and
the diagonally normalized primal minus the identity is an edge-supported
matrix attaining the spectral ratio formula 1 + lambda_max / |lambda_min|.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import ConvergenceError, DomainError, MycthetaError
from .graphs import Graph

DEFAULT_TOL = 1e-6
MAX_ITERATIONS = 200_000
_RESIDUAL_SAFETY = 50.0    # residual target below tol so the value meets tol
_CERTIFY_EVERY = 250       # iterations between bracket evaluations
_RELAX_AFTER = 1_000       # switch to over-relaxation on slow instances
_RELAXATION = 1.7


@dataclass
class ThetaSolution:
    """Converged theta SDP data for one graph."""

    value: float
    primal: np.ndarray
    dual_edge_matrix: np.ndarray
    dual_slack: np.ndarray
    tolerance_achieved: float
    tol_requested: float
    iterations: int
    n: int

    def to_json(self, verbose: bool = False) -> str:
        doc = {
            "value": self.value,
            "tolerance_achieved": self.tolerance_achieved,
            "tolerance_requested": self.tol_requested,
            "iterations": self.iterations,
            "n": self.n,
        }
        if verbose:
            doc["primal"] = self.primal.tolist()
            doc["dual_edge_matrix"] = self.dual_edge_matrix.tolist()
        return json.dumps(doc, indent=2, sort_keys=True)


@dataclass(frozen=True)
class VectorColoring:
    """Unit vectors u_i with <u_i, u_j> = -1/(value - 1) on every edge."""

    value: float
    vectors: np.ndarray  # shape (n, d)

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])

    def max_violation(self, g: Graph) -> float:
        """Worst deviation from unit norms and prescribed edge inner products."""
        norms = np.linalg.norm(self.vectors, axis=1)
        worst = float(np.max(np.abs(norms - 1.0))) if len(norms) else 0.0
        if g.m == 0:
            return worst
        target = -1.0 / (self.value - 1.0)
        for u, v in g.edges():
            worst = max(worst, abs(float(self.vectors[u] @ self.vectors[v]) - target))
        return worst


def _nonedge_mask(g: Graph) -> np.ndarray:
    """True at every non-adjacent pair i != j."""
    nonedge = ~g.bool_matrix()
    np.fill_diagonal(nonedge, False)
    return nonedge


def _certified_bracket(x, u, nonedge, jmat):
    """(lower, upper, feasible primal): rigorous bounds from the iterates.

    x is affine-feasible by construction; shifting by its negative eigenvalue
    mass keeps it feasible and makes it PSD, so <J, x_hat> <= theta.  The
    negated dual variable completed to ones on the diagonal and the edges is
    feasible for the min-lambda_max dual form, so its top eigenvalue is an
    upper bound.
    """
    n = x.shape[0]
    lam_min = float(eigen.eigh(x)[0][0])
    shift = max(0.0, -lam_min)
    x_hat = (x + shift * np.eye(n)) / (1.0 + n * shift)
    lower = float(jmat.ravel() @ x_hat.ravel())
    c = jmat.copy()
    minus_slack = 0.5 * (u + u.T)  # = -S, and C = -S on non-edges
    c[nonedge] = minus_slack[nonedge]
    upper = float(eigen.eigh(c)[0][-1])
    return lower, upper, x_hat


def check_tol(tol: float) -> None:
    """Reject a requested tolerance outside [1e-10, 1e-3], NaN included."""
    if not (1e-10 <= tol <= 1e-3):
        raise DomainError(f"tol must lie in [1e-10, 1e-3], got {tol}")


def theta_bar(g: Graph, tol: float = DEFAULT_TOL,
              max_iterations: int = MAX_ITERATIONS) -> ThetaSolution:
    """Complementary Lovasz theta number of g, certified within tol.

    Edgeless graphs (including K_1) short-circuit to the exact value 1.
    Raises ConvergenceError, carrying the best certified value and bracket
    width, if the iteration cap is reached first.
    """
    if g.n < 1:
        raise DomainError("theta needs at least one vertex")
    check_tol(tol)
    n = g.n
    if g.m == 0:
        eye = np.eye(n)
        return ThetaSolution(
            value=1.0,
            primal=eye / n,
            dual_edge_matrix=np.zeros((n, n)),
            dual_slack=np.zeros((n, n)),
            tolerance_achieved=0.0,
            tol_requested=tol,
            iterations=0,
            n=n,
        )
    nonedge = _nonedge_mask(g)
    jmat = np.ones((n, n))
    z = np.eye(n) / n
    u = np.zeros((n, n))
    target = tol / _RESIDUAL_SAFETY
    best = None  # (width, midpoint) of the narrowest bracket so far
    rho = 2.0 * n  # penalty scaled to the graph (see the module docstring)
    x = z
    for iteration in range(1, max_iterations + 1):
        x = z - u + jmat / rho
        x[nonedge] = 0.0
        diag = np.diag(x).copy()
        np.fill_diagonal(x, diag + (1.0 - diag.sum()) / n)
        relaxed = x if iteration <= _RELAX_AFTER else (
            _RELAXATION * x + (1.0 - _RELAXATION) * z
        )
        w = relaxed + u
        w = 0.5 * (w + w.T)
        vals, vecs = eigen.eigh(w)
        pos = vals > 0
        z_new = (vecs[:, pos] * vals[pos]) @ vecs[:, pos].T
        z_new = 0.5 * (z_new + z_new.T)
        primal_res = float(np.linalg.norm(x - z_new))
        dual_res = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        u = u + relaxed - z
        residual = max(primal_res, dual_res)
        if (residual < target and iteration > 5) or iteration % _CERTIFY_EVERY == 0:
            lower, upper, x_hat = _certified_bracket(x, rho * u, nonedge, jmat)
            width = upper - lower
            if width <= tol:
                break  # every earlier bracket was wider, so this one is the best
            if best is None or width < best[0]:
                best = (width, 0.5 * (lower + upper))
    else:
        width, midpoint = best or (math.inf, float(jmat.ravel() @ x.ravel()))
        raise ConvergenceError(
            f"theta solver did not certify tol {tol} in {max_iterations} "
            f"iterations (best bracket width {width:.3e})",
            best_value=midpoint,
            residual=width,
            iterations=max_iterations,
        )
    slack = -rho * u
    slack = 0.5 * (slack + slack.T)
    edge_part = x_hat.copy()
    np.fill_diagonal(edge_part, 0.0)
    edge_part[nonedge] = 0.0
    return ThetaSolution(
        value=0.5 * (lower + upper),
        primal=x_hat,
        dual_edge_matrix=edge_part,
        dual_slack=slack,
        tolerance_achieved=0.5 * width,
        tol_requested=tol,
        iterations=iteration,
        n=n,
    )


# ---------------------------------------------------------------------------
# the spectral-ratio formula
# ---------------------------------------------------------------------------

def spectral_ratio(t_matrix: np.ndarray, g: Graph) -> float:
    """1 + lambda_max(T) / |lambda_min(T)| for an edge-supported symmetric T.

    T must be nonzero, symmetric, have zero diagonal and vanish off E(G); the
    smallest eigenvalue of such a matrix is negative since its trace is zero.
    """
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
    vals = eigen.eigh(0.5 * (t + t.T))[0]
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    if lam_min >= 0:
        raise DomainError("matrix has no negative eigenvalue; support check failed")
    return 1.0 + lam_max / abs(lam_min)


def optimal_edge_matrix(g: Graph, sol: ThetaSolution) -> np.ndarray:
    """Edge-supported T with spectral ratio within 100*tol of sol.value.

    The primary candidate is the diagonally normalized primal minus the
    identity, D^(-1/2) X D^(-1/2) - I with D = diag(X): the normalized primal
    is the Gram matrix of an optimal dual orthonormal representation, whose
    top eigenvalue is theta while the subtraction pins the bottom at -1, so
    the ratio is exact at the optimum even when diag(X) is not uniform.
    Vertices the optimum ignores (zero diagonal, e.g. in non-maximal
    components) contribute empty rows.  The raw off-diagonal part and the
    adjacency matrix remain as fallbacks; raises when nothing reaches the
    slack, in which case a caller-supplied T is required.
    """
    if g.m == 0:
        raise DomainError("edgeless graphs admit no edge-supported matrix")
    if sol.n != g.n:
        raise DomainError("solution does not belong to this graph")
    candidates = []
    d = np.diag(sol.primal).copy()
    used = d > 1e-12 * float(d.max())
    if used.any():
        scale = np.zeros_like(d)
        scale[used] = 1.0 / np.sqrt(d[used])
        normalized = sol.primal * np.outer(scale, scale)
        np.fill_diagonal(normalized, 0.0)
        if float(np.max(np.abs(normalized))) > 0:
            candidates.append(0.5 * (normalized + normalized.T))
    dual = sol.dual_edge_matrix
    if float(np.max(np.abs(dual))) > 0:
        candidates.append(np.array(dual, dtype=float))
    candidates.append(g.adjacency_matrix())
    best, best_ratio = None, -math.inf
    for cand in candidates:
        try:
            ratio = spectral_ratio(cand, g)
        except DomainError:
            continue
        if ratio > best_ratio:
            best, best_ratio = cand, ratio
    slack = 100.0 * sol.tol_requested
    if best is None or best_ratio < sol.value - slack:
        raise MycthetaError(
            "no edge matrix within slack of the theta value; supply T manually"
        )
    return best


def extract_vector_coloring(sol: ThetaSolution, g: Graph) -> VectorColoring:
    """Optimal strict vector coloring from a converged theta solution.

    Factorizes the PSD Gram matrix of the coloring (clamping tiny negative
    eigenvalues at zero) and normalizes the rows to unit vectors.  Edgeless
    graphs need no edge constraint and return the all-identical coloring of
    value 1.
    """
    if sol.n != g.n:
        raise DomainError("solution does not belong to this graph")
    if sol.tolerance_achieved > 1e-6:
        raise DomainError(
            f"solution tolerance {sol.tolerance_achieved} too loose for extraction"
        )
    n = g.n
    if g.m == 0:
        return VectorColoring(1.0, np.ones((n, 1)))
    t = sol.value
    gram = sol.dual_slack / (t - 1.0)
    gram = 0.5 * (gram + gram.T)
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
