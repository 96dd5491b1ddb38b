"""Constructive certificates for the Mycielskian theta formula.

Two independent directions, meeting at the same number m = m(t):

* Upper bound: an optimal strict vector t-coloring of G lifts to a strict
  vector m-coloring of M(G) in one more dimension.  With v = t-1 and
  w = 1/(m-1) the lift parameters are

      y = w,  x = sqrt((1 - v w) / (v + 1)),
      alpha = sqrt(1 - x^2),  beta = sqrt(1 - w^2),

  and the lifted vectors are (alpha u_i, x) for (i,0), (beta u_i, -y) for
  (i,1), and the last unit coordinate vector for the apex.

* Lower bound: from an edge-supported T attaining the spectral ratio t for G,
  a (2n+1) x (2n+1) matrix T_hat supported on E(M(G)) is assembled from the
  blocks (delta/|lambda_n|) T, (1/|lambda_n|) T and the apex column
  (t-1) sqrt(eta) v_1, where

      gamma^2 = -(m-1)^2 (t-m+1)^2 / (2 (t-1) t (m-2) (t-m)),
      delta   = gamma (t-1)/(m-1) - (m-1)/(gamma (t-1)),
      eta     = (gamma^2 delta + gamma^3/(m-1) - gamma^3) / (delta (m-1)),

  so that lambda_max(T_hat) = gamma (t-1) and
  lambda_min(T_hat) = -gamma (t-1)/(m-1), giving ratio exactly m.

The spectrum of T_hat splits into a 3x3 block (t-1) T_1* coupling the top
eigendirection with the apex, and 2x2 blocks per remaining eigenvalue of T;
`verify_block_spectrum` recomputes that decomposition and
`check_certificate_inequalities` checks the positivity facts and the
vanishing discriminant of the quadratic that pins gamma^2 down.

`certify` runs both directions from one theta solve and gives the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import eigen
from .errors import CertificateError, DomainError, MycthetaError
from .formula import _snap_boundary, cubic_residual, mycielski_theta_formula
from .graphs import Graph, mycielskian
from .theta import (EXTRACT_TOL, VectorColoring, _edge_spectrum, _ratio, check_tol,
                    extract_vector_coloring, optimal_edge_matrix, theta_bar)
from .theta import spectral_ratio  # noqa: F401  still importable from this module, as before

_CONSISTENCY_TOL = 1e-6


# ---------------------------------------------------------------------------
# the coloring lift (upper bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftParameters:
    t: float
    m: float
    v: float
    w: float
    x: float
    y: float
    alpha: float
    beta: float
    degenerate: bool = False

    def system_residuals(self) -> tuple[float, float, float, float, float]:
        """The five lift equations, each as |lhs - rhs|.

        In the degenerate case m = t+1 the twin vectors coincide with the
        originals, so the mixed (fourth) equation is evaluated with the twin
        z-coordinate -y replaced by +x; for genuine cubic roots all five
        hold in their stated form.
        """
        t, m = self.t, self.m
        w = 1.0 / (m - 1.0)
        y_signed = -self.x if self.degenerate else self.y
        return (
            abs(self.alpha ** 2 + self.x ** 2 - 1.0),
            abs(self.beta ** 2 + self.y ** 2 - 1.0),
            abs(self.alpha ** 2 / (t - 1.0) - self.x ** 2 - w),
            abs(self.alpha * self.beta / (t - 1.0) + self.x * y_signed - w),
            abs(self.y - w),
        )


def lift_parameters(t: float, m: float) -> LiftParameters:
    """Solve the lift system for t >= 2 and m in (t, t+1], a root of the
    Mycielskian cubic or m = t+1, the degenerate coloring."""
    t = _snap_boundary(t)
    if not t >= 2.0:
        raise DomainError(f"certificates need t >= 2, got {t}")
    if not (t < m <= t + 1.0 + 1e-12):
        raise DomainError(f"m = {m} outside (t, t+1] for t = {t}")
    degenerate = abs(m - (t + 1.0)) <= 1e-9
    if not degenerate and abs(cubic_residual(t, m)) > _CONSISTENCY_TOL * max(1.0, abs(t) ** 3):
        raise DomainError(f"m = {m} does not solve the Mycielskian cubic for t = {t}")
    v = t - 1.0
    w = 1.0 / (m - 1.0)
    if 1.0 - v * w < -1e-12:
        raise DomainError(f"1 - vw = {1.0 - v * w} negative; no real lift")
    x = math.sqrt(max(0.0, 1.0 - v * w) / (v + 1.0))
    return LiftParameters(
        t=t, m=m, v=v, w=w, x=x, y=w,
        alpha=math.sqrt(max(0.0, 1.0 - x * x)),
        beta=math.sqrt(max(0.0, 1.0 - w * w)),
        degenerate=degenerate,
    )


def lift_coloring(g: Graph, coloring: VectorColoring, m: float) -> VectorColoring:
    """Strict vector m-coloring of M(G) lifted from a t-coloring of G.

    Vertex order matches `mycielskian(g)`: level 0, level 1, apex.  The input
    coloring must be valid for g within 1e-6.
    """
    violation = coloring.max_violation(g)
    if violation > 1e-6:
        raise DomainError(
            f"input coloring violates its constraints by {violation:.3e}"
        )
    params = lift_parameters(coloring.value, m)
    if params.degenerate:
        raise DomainError(
            "m = t + 1 is the degenerate root; it does not produce a valid "
            "coloring of the two-level Mycielskian"
        )
    n, d = coloring.vectors.shape
    lifted = np.zeros((2 * n + 1, d + 1))
    lifted[:n, :d] = params.alpha * coloring.vectors
    lifted[:n, d] = params.x
    lifted[n:2 * n, :d] = params.beta * coloring.vectors
    lifted[n:2 * n, d] = -params.y
    lifted[2 * n, d] = 1.0
    return VectorColoring(m, lifted)


def verify_lift(g: Graph, lifted: VectorColoring) -> float:
    """Max violation of the lifted coloring over M(G) (all four conditions)."""
    return lifted.max_violation(mycielskian(g, 2))


# ---------------------------------------------------------------------------
# the spectral certificate (lower bound)
# ---------------------------------------------------------------------------

def gamma_hat(t: float, m: float) -> float:
    """gamma^2: the double root of the quadratic a g^2 + b g + c = 0."""
    num = -((m - 1.0) ** 2) * ((t - m + 1.0) ** 2)
    den = 2.0 * (t - 1.0) * t * (m - 2.0) * (t - m)
    return num / den


def certificate_parameters(t: float, m: float) -> tuple[float, float, float]:
    """(gamma, delta, eta) for the T_hat construction; all must be positive."""
    gh = gamma_hat(t, m)
    if gh <= 0:
        raise CertificateError(f"gamma^2 = {gh} not positive for (t, m) = ({t}, {m})")
    gamma = math.sqrt(gh)
    ratio = gamma * (t - 1.0) / (m - 1.0)
    delta = ratio - 1.0 / ratio
    if delta <= 0:
        raise CertificateError(f"delta = {delta} not positive")
    eta = (gamma * gamma * delta + gamma ** 3 / (m - 1.0) - gamma ** 3) / (
        delta * (m - 1.0)
    )
    if eta <= 0:
        raise CertificateError(f"eta = {eta} not positive")
    return gamma, delta, eta


def t1_star_matrix(delta: float, eta: float) -> np.ndarray:
    s = math.sqrt(eta)
    return np.array([
        [delta, 1.0, 0.0],
        [1.0, 0.0, s],
        [0.0, s, 0.0],
    ])


@dataclass
class SpectralCertificate:
    n: int
    t: float
    m: float
    gamma: float
    delta: float
    eta: float
    T: np.ndarray
    T_hat: np.ndarray
    eigenvalues: np.ndarray       # of T, descending
    v1: np.ndarray                # unit eigenvector for lambda_1(T)
    expected_max: float           # gamma (t-1)
    expected_min: float           # -gamma (t-1)/(m-1)
    lambda_max: float
    lambda_min: float
    degenerate_top: bool          # lambda_1 of T has multiplicity > 1
    hat_eigenvalues: np.ndarray   # of T_hat, ascending

    @property
    def ratio(self) -> float:
        return 1.0 + self.lambda_max / abs(self.lambda_min)

    def to_dict(self, verbose: bool = False) -> dict:
        doc = {
            "n": self.n,
            "t": self.t,
            "m": self.m,
            "gamma": self.gamma,
            "delta": self.delta,
            "eta": self.eta,
            "expected_max": self.expected_max,
            "expected_min": self.expected_min,
            "lambda_max": self.lambda_max,
            "lambda_min": self.lambda_min,
            "ratio": self.ratio,
            "eigenvalues_T": self.eigenvalues.tolist(),
            "degenerate_top": self.degenerate_top,
        }
        if verbose:
            doc["T"] = self.T.tolist()
            doc["T_hat"] = self.T_hat.tolist()
        return doc


def build_spectral_certificate(g: Graph, t_matrix: np.ndarray, t: float) -> SpectralCertificate:
    """Assemble T_hat for M(G) and verify its extreme eigenvalues.

    t is supplied explicitly (synthetic exact values are allowed) but must
    agree with the spectral ratio of T within 1e-4; m is the formula value
    m(t).
    """
    return _assemble_certificate(g, _edge_spectrum(t_matrix, g), t)


def _assemble_certificate(g: Graph, spectrum: tuple[np.ndarray, np.ndarray, np.ndarray],
                          t: float) -> SpectralCertificate:
    """`build_spectral_certificate` from T's `_edge_spectrum`, so that T is
    decomposed once."""
    t_sym, vals, vecs = spectrum
    ratio_t = _ratio(vals)
    if abs(ratio_t - t) > 1e-4:
        raise DomainError(
            f"supplied t = {t} but T attains ratio {ratio_t}; difference too large"
        )
    t = _snap_boundary(t)
    m = mycielski_theta_formula(t).m
    gamma, delta, eta = certificate_parameters(t, m)
    n = g.n
    lam_desc = vals[::-1].copy()
    lam1 = float(lam_desc[0])
    lam_n = float(lam_desc[-1])
    v1 = vecs[:, -1].copy()
    nz = np.nonzero(np.abs(v1) > 1e-12)[0]
    if len(nz) and v1[nz[0]] < 0:
        v1 = -v1
    degenerate = n > 1 and abs(float(lam_desc[1]) - lam1) <= 1e-9 * max(1.0, abs(lam1))
    abs_min = abs(lam_n)
    size = 2 * n + 1
    t_hat = np.zeros((size, size))
    t_hat[:n, :n] = (delta / abs_min) * t_sym
    t_hat[:n, n:2 * n] = t_sym / abs_min
    t_hat[n:2 * n, :n] = t_sym / abs_min
    col = (t - 1.0) * math.sqrt(eta) * v1
    t_hat[n:2 * n, 2 * n] = col
    t_hat[2 * n, n:2 * n] = col
    hat_vals = eigen.eigvalsh(t_hat)
    lam_max_hat = float(hat_vals[-1])
    lam_min_hat = float(hat_vals[0])
    expected_max = gamma * (t - 1.0)
    expected_min = -gamma * (t - 1.0) / (m - 1.0)
    tol = 1e-7 * max(1.0, abs(expected_max))
    if abs(lam_max_hat - expected_max) > tol or abs(lam_min_hat - expected_min) > tol:
        raise CertificateError(
            "extreme eigenvalues of T_hat miss their designated values: "
            f"max {lam_max_hat} vs {expected_max}, min {lam_min_hat} vs {expected_min}"
        )
    return SpectralCertificate(
        n=n, t=t, m=m, gamma=gamma, delta=delta, eta=eta,
        T=t_sym, T_hat=t_hat, eigenvalues=lam_desc, v1=v1,
        expected_max=expected_max, expected_min=expected_min,
        lambda_max=lam_max_hat, lambda_min=lam_min_hat,
        degenerate_top=degenerate, hat_eigenvalues=hat_vals,
    )


def certificate_blocks(cert: SpectralCertificate) -> list[np.ndarray]:
    """The 3x3 top block and the 2x2 blocks whose spectra tile Sp(T_hat)."""
    blocks = [(cert.t - 1.0) * t1_star_matrix(cert.delta, cert.eta)]
    abs_min = abs(float(cert.eigenvalues[-1]))
    for lam in cert.eigenvalues[1:]:
        r = float(lam) / abs_min
        blocks.append(np.array([[r * cert.delta, r], [r, 0.0]]))
    return blocks


@dataclass(frozen=True)
class BlockSpectrumReport:
    ok: bool
    worst_gap: float
    offending: Optional[tuple[float, float]]


def verify_block_spectrum(cert: SpectralCertificate) -> BlockSpectrumReport:
    """Sp(T_hat) equals the union of the block spectra within 1e-7, eigenvalue by eigenvalue.

    The eigenvalues of the 2x2 blocks are taken in one call, as an (n-1, 2, 2) stack."""
    top, *pairs = certificate_blocks(cert)
    collected = np.concatenate((eigen.eigvalsh(top), eigen.eigvalsh(np.array(pairs)).ravel()))
    collected.sort()
    hat_vals = cert.hat_eigenvalues
    gaps = np.abs(collected - hat_vals)
    worst = float(np.max(gaps))
    if worst <= 1e-7:
        return BlockSpectrumReport(True, worst, None)
    k = int(np.argmax(gaps))
    return BlockSpectrumReport(False, worst, (float(hat_vals[k]), float(collected[k])))


# ---------------------------------------------------------------------------
# inequality and discriminant checks
# ---------------------------------------------------------------------------

def _quadratic_coefficients(v: float, w: float) -> tuple[float, float, float]:
    a = (
        -(v ** 4) * w ** 5 + v ** 4 * w ** 4 - v ** 3 * w ** 5
        + 2.0 * v ** 3 * w ** 4 - v ** 3 * w ** 3 + v ** 2 * w ** 4
        - v ** 2 * w ** 3
    )
    b = (
        v ** 3 * w ** 3 + 2.0 * v ** 2 * w ** 3 - 2.0 * v ** 2 * w ** 2
        + v * w ** 3 - 2.0 * v * w ** 2 + v * w
    )
    c = -v * w - w + 1.0
    return a, b, c


@dataclass(frozen=True)
class InequalityReport:
    ok: bool
    eta_positive: bool
    delta_positive: bool
    gamma_lower_bound: bool      # (m-1)^2/(t-1) <= gamma^2
    discriminant: float
    discriminant_ok: bool
    gamma_hat_gap: float
    gamma_hat_ok: bool


def check_certificate_inequalities(t: float, m: float, gamma: float,
                                   delta: float, eta: float) -> InequalityReport:
    """Positivity facts plus the vanishing-discriminant identity.

    The quadratic a g^2 + b g + c in g = gamma^2 (coefficients polynomial in
    v = t-1 and w = 1/(m-1)) must have discriminant ~0 and its double root
    -b/(2a) must equal gamma^2; both fail for m away from the cubic's root,
    so this doubles as a negative control.
    """
    v = t - 1.0
    w = 1.0 / (m - 1.0)
    a, b, c = _quadratic_coefficients(v, w)
    disc = b * b - 4.0 * a * c
    disc_ok = abs(disc) <= 1e-8 * b * b
    gap = abs(gamma * gamma - (-b / (2.0 * a)))
    gap_ok = gap <= 1e-8
    eta_pos = eta > 0
    delta_pos = delta > 0
    gamma_lb = (m - 1.0) ** 2 / (t - 1.0) <= gamma * gamma + 1e-12
    return InequalityReport(
        ok=eta_pos and delta_pos and gamma_lb and disc_ok and gap_ok,
        eta_positive=eta_pos,
        delta_positive=delta_pos,
        gamma_lower_bound=gamma_lb,
        discriminant=disc,
        discriminant_ok=disc_ok,
        gamma_hat_gap=gap,
        gamma_hat_ok=gap_ok,
    )


# ---------------------------------------------------------------------------
# both directions from one solve
# ---------------------------------------------------------------------------

def certify(g: Graph, tol: float, verbose: bool = False) -> tuple[dict, bool]:
    """Solve theta_bar(g) once, at min(tol, EXTRACT_TOL) so that the vector
    coloring can be extracted at any tol, and check both directions on M(G).

    Returns the document `myctheta certify` prints and its verdict, true
    when all four checks hold: the ratio of T_hat is within 1e-6 of m(t),
    the block spectrum and the inequalities hold, and the lifted coloring
    misses its conditions by at most max(1e-8, 20 tol).  `verbose` adds
    the matrices T and T_hat to the document.  T is `optimal_edge_matrix`,
    decomposed once; a T whose ratio t falls more than 100 tol below theta
    raises MycthetaError, since the solution is then not optimal.
    """
    check_tol(tol)  # before min(), which would pass an infinite or too loose tol
    sol = theta_bar(g, min(tol, EXTRACT_TOL))
    spectrum = _edge_spectrum(optimal_edge_matrix(g, sol), g)
    t = _ratio(spectrum[1])
    if t < sol.value - 100.0 * tol:
        raise MycthetaError(f"no edge matrix within slack of the theta value: T has ratio {t}, more "
                            f"than 100 tol below theta {sol.value}, so the theta solution is not optimal")
    cert = _assemble_certificate(g, spectrum, t)
    block = verify_block_spectrum(cert)
    ineq = check_certificate_inequalities(cert.t, cert.m, cert.gamma, cert.delta, cert.eta)
    lift_violation = verify_lift(g, lift_coloring(g, extract_vector_coloring(sol, g), cert.m))
    checks = {
        "ratio_matches_formula": abs(cert.ratio - cert.m) <= 1e-6,
        "block_spectrum": block.ok,
        "block_spectrum_worst_gap": block.worst_gap,
        "inequalities": ineq.ok,
        "discriminant": ineq.discriminant,
        "lift_violation": lift_violation,
        "lift_ok": lift_violation <= max(1e-8, 20.0 * tol),
    }
    doc = {"theta": sol.value, "t_spectral": t, "m_formula": cert.m,
           "certificate": cert.to_dict(verbose), "checks": checks}
    return doc, checks["ratio_matches_formula"] and block.ok and ineq.ok and checks["lift_ok"]
