import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from myctheta import (
    CertificateError,
    DomainError,
    MycthetaError,
    VectorColoring,
    build_spectral_certificate,
    certify,
    check_certificate_inequalities,
    complete_graph,
    cycle_graph,
    extract_vector_coloring,
    lift_coloring,
    lift_parameters,
    mycielski_theta_formula,
    mycielskian,
    optimal_edge_matrix,
    spectral_ratio,
    theta_bar,
    verify_block_spectrum,
)
from myctheta import eigen
from myctheta.certificates import (
    certificate_blocks,
    certificate_parameters,
    gamma_hat,
    t1_star_matrix,
    verify_lift,
)

SQRT5 = math.sqrt(5)


# ---------------------------------------------------------------------------
# lift parameters
# ---------------------------------------------------------------------------

def test_lift_parameters_pentagon_values():
    p = lift_parameters(2.0, SQRT5)
    assert p.w == pytest.approx(0.809017, abs=1e-6)
    assert p.x == pytest.approx(0.309017, abs=1e-6)
    assert p.alpha == pytest.approx(0.951057, abs=1e-6)
    assert p.beta == pytest.approx(0.587785, abs=1e-6)
    assert max(p.system_residuals()) < 1e-10


def test_lift_parameters_k3():
    m = mycielski_theta_formula(3.0).m
    p = lift_parameters(3.0, m)
    assert max(p.system_residuals()) < 1e-10


def test_lift_parameters_degenerate_root():
    p = lift_parameters(3.0, 4.0)
    assert p.degenerate
    assert p.x == pytest.approx(p.w, abs=1e-15)
    assert max(p.system_residuals()) < 1e-12


def test_lift_parameters_rejects_inconsistent_m():
    for t, m, message in ((2.0, 2.5, "does not solve the Mycielskian cubic"),
                          (2.0, 3.5, "outside (t, t+1]"),
                          (2.0, 2.0, "outside (t, t+1]"),
                          (1.0, 1.5, "certificates need t >= 2"),
                          (1.99995, 2.5, "certificates need t >= 2")):
        with pytest.raises(DomainError, match=re.escape(message)):
            lift_parameters(t, m)


@given(st.floats(2.0, 40.0))
def test_lift_system_solves_everywhere(t):
    m = mycielski_theta_formula(t).m
    p = lift_parameters(t, m)
    assert max(p.system_residuals()) < 1e-9


# ---------------------------------------------------------------------------
# coloring lift
# ---------------------------------------------------------------------------

def exact_coloring_k2():
    return VectorColoring(2.0, np.array([[-1.0], [1.0]]))


def exact_coloring_k3():
    return VectorColoring(
        3.0,
        np.array([
            [1.0, 0.0],
            [-0.5, math.sqrt(3) / 2],
            [-0.5, -math.sqrt(3) / 2],
        ]),
    )


def test_lift_k2_gives_c5_coloring():
    lifted = lift_coloring(complete_graph(2), exact_coloring_k2(), SQRT5)
    assert lifted.d == 2 and lifted.vectors.shape == (5, 2)
    assert verify_lift(complete_graph(2), lifted) < 1e-12
    assert lifted.value == pytest.approx(SQRT5)


def test_lift_k3():
    m = mycielski_theta_formula(3.0).m
    lifted = lift_coloring(complete_graph(3), exact_coloring_k3(), m)
    assert lifted.vectors.shape == (7, 3)
    assert verify_lift(complete_graph(3), lifted) < 1e-8


def test_lift_rejects_bad_inputs():
    k2 = complete_graph(2)
    skewed = VectorColoring(2.0, np.array([[-1.0], [0.5]]))  # not unit
    with pytest.raises(DomainError):
        lift_coloring(k2, skewed, SQRT5)
    with pytest.raises(DomainError):
        lift_coloring(k2, exact_coloring_k2(), 3.0)  # degenerate root


def test_lift_value_upper_bounds_sdp():
    for g, t_exact in [
        (complete_graph(2), 2.0),
        (complete_graph(3), 3.0),
        (cycle_graph(5), SQRT5),
    ]:
        doc, _ = certify(g, 1e-7)  # its lifted coloring has the value m_formula
        big = theta_bar(mycielskian(g, 2), tol=1e-6)
        assert big.value <= doc["m_formula"] + 1e-4
        assert doc["checks"]["lift_violation"] <= max(1e-8, 20 * 1e-7)


# ---------------------------------------------------------------------------
# spectral certificates
# ---------------------------------------------------------------------------

def test_gamma_delta_eta_closed_form_k2():
    # independent arithmetic oracle for t = 2, m = sqrt(5):
    # gamma^2 = -(m-1)^2 (3-m)^2 / (4 (m-2)(2-m)) evaluated literally
    t, m = 2.0, SQRT5
    expect = -((m - 1) ** 2) * ((t - m + 1) ** 2) / (
        2 * (t - 1) * t * (m - 2) * (t - m)
    )
    assert gamma_hat(t, m) == pytest.approx(expect)
    gamma, delta, eta = certificate_parameters(t, m)
    assert gamma == pytest.approx(2.0, abs=1e-9)
    assert delta == pytest.approx(1.0, abs=1e-9)
    assert eta == pytest.approx(2.0, abs=1e-9)


def test_certificate_k2_full():
    k2 = complete_graph(2)
    cert = build_spectral_certificate(k2, k2.adjacency_matrix(), 2.0)
    assert cert.T_hat.shape == (5, 5)
    assert cert.lambda_max == pytest.approx(2.0, abs=1e-9)
    assert cert.lambda_min == pytest.approx(-(SQRT5 + 1) / 2, abs=1e-9)
    assert cert.ratio == pytest.approx(SQRT5, abs=1e-9)
    assert verify_block_spectrum(cert).ok
    report = check_certificate_inequalities(
        cert.t, cert.m, cert.gamma, cert.delta, cert.eta
    )
    assert report.ok and abs(report.discriminant) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certificate_complete_graphs(n):
    g = complete_graph(n)
    cert = build_spectral_certificate(g, g.adjacency_matrix(), float(n))
    m = mycielski_theta_formula(float(n)).m
    assert cert.ratio == pytest.approx(m, abs=1e-7)
    blocks = certificate_blocks(cert)
    assert len(blocks) == n and blocks[0].shape == (3, 3)
    assert verify_block_spectrum(cert).ok
    assert check_certificate_inequalities(
        cert.t, cert.m, cert.gamma, cert.delta, cert.eta
    ).ok


def test_certificate_c5():
    c5 = cycle_graph(5)
    cert = build_spectral_certificate(c5, c5.adjacency_matrix(), SQRT5)
    m = mycielski_theta_formula(SQRT5).m
    assert cert.ratio == pytest.approx(m, abs=1e-7)
    assert cert.T_hat.shape == (11, 11)
    assert verify_block_spectrum(cert).ok
    assert "T_hat" in cert.to_dict(verbose=True) and "T_hat" not in cert.to_dict()


def test_certificate_support_is_mycielskian():
    g = complete_graph(3)
    cert = build_spectral_certificate(g, g.adjacency_matrix(), 3.0)
    mg = mycielskian(g, 2)
    for i in range(mg.n):
        assert cert.T_hat[i, i] == 0.0
        for j in range(i + 1, mg.n):
            if abs(cert.T_hat[i, j]) > 1e-12:
                assert mg.has_edge(i, j), (i, j)


def test_certificate_rejects_mismatched_t():
    k2 = complete_graph(2)
    with pytest.raises(DomainError):
        build_spectral_certificate(k2, k2.adjacency_matrix(), 2.1)


def test_certificate_below_two_is_refused_by_the_formula():
    # 1.99995 is within 1e-4 of K2's ratio 2 but not snapped to 2, so m(t)
    # refuses it before any certificate parameter is formed
    k2 = complete_graph(2)
    with pytest.raises(DomainError, match=re.escape("formula needs a finite t >= 2")):
        build_spectral_certificate(k2, k2.adjacency_matrix(), 1.99995)


def test_certificate_degenerate_m_fails_parameters():
    with pytest.raises(CertificateError):
        certificate_parameters(2.0, 3.0)  # m = t + 1 makes gamma_hat vanish


def test_block_min_eigenvalue_floor():
    for g, t in [(complete_graph(2), 2.0), (complete_graph(3), 3.0), (cycle_graph(5), SQRT5)]:
        cert = build_spectral_certificate(g, g.adjacency_matrix(), t)
        for block in certificate_blocks(cert):
            assert eigen.eigh(block)[0][0] >= cert.expected_min - 1e-9


def test_block_spectrum_permutation_invariance():
    g = complete_graph(3)
    cert = build_spectral_certificate(g, g.adjacency_matrix(), 3.0)
    perm = np.random.default_rng(5).permutation(cert.T_hat.shape[0])
    shuffled = cert.T_hat[np.ix_(perm, perm)]
    a = eigen.eigh(shuffled)[0]
    b = eigen.eigh(cert.T_hat)[0]
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_t1_star_cubic_and_vieta():
    for t in (2.0, 3.0, 4.0, SQRT5 + 1.0):
        m = mycielski_theta_formula(t).m
        gamma, delta, eta = certificate_parameters(t, m)
        star = t1_star_matrix(delta, eta)
        vals = eigen.eigh(star)[0]
        for mu in vals:
            assert abs(mu**3 - delta * mu**2 - (eta + 1) * mu + eta * delta) < 1e-8
        mu1, mu2, mu3 = sorted(np.roots([1.0, -delta, -(eta + 1.0), eta * delta]).real, reverse=True)
        assert mu1 + mu2 + mu3 == pytest.approx(delta, abs=1e-8)
        assert mu1 * mu2 * mu3 == pytest.approx(-eta * delta, abs=1e-8)
        assert mu1 * mu2 + mu1 * mu3 + mu2 * mu3 == pytest.approx(-(eta + 1), abs=1e-8)
        # the middle root is (m-1) eta delta / gamma^2 and never the minimum
        assert mu2 == pytest.approx((m - 1) * eta * delta / gamma**2, abs=1e-8)
        assert mu2 >= 0


def test_quadratic_coefficients_symbolic():
    # exact algebra oracle for the certificate parameters: the discriminant of
    # a g^2 + b g + c factors through the same polynomial whose vanishing is
    # the Mycielskian cubic, and -b/(2a) is the closed form used for gamma^2
    import sympy

    v, w = sympy.symbols("v w")
    from myctheta.certificates import _quadratic_coefficients

    a_expr, b_expr, c_expr = _quadratic_coefficients(v, w)
    disc = sympy.expand(b_expr**2 - 4 * a_expr * c_expr)
    p3 = (
        v**3 * w**3 - v**2 * w**3 + v**2 * w**2 - v * w**3 + 2 * v * w**2
        - v * w + w**3 + w**2 - w - 1
    )
    factored = sympy.expand(v**2 * w**2 * (v * w + w - 1) * p3)
    assert sympy.simplify(disc - factored) == 0

    t, m = sympy.symbols("t m", positive=True)
    subs = {v: t - 1, w: 1 / (m - 1)}
    closed_form = -((m - 1) ** 2) * (t - m + 1) ** 2 / (
        2 * (t - 1) * t * (m - 2) * (t - m)
    )
    assert sympy.simplify((-b_expr / (2 * a_expr)).subs(subs) - closed_form) == 0

    # clearing denominators in p3 recovers the cubic (up to sign)
    cubic = m**3 + (t - 3) * m**2 + (3 - 2 * t - t**2) * m + (
        -(t**3) + 5 * t**2 - 3 * t - 1
    )
    cleared = sympy.simplify(p3.subs(subs) * (m - 1) ** 3)
    assert (
        sympy.simplify(cleared - cubic) == 0
        or sympy.simplify(cleared + cubic) == 0
    )


def test_inequalities_negative_control():
    report = check_certificate_inequalities(2.0, 2.3, 2.0, 1.0, 2.0)
    assert not report.discriminant_ok
    assert not report.ok


def test_bipartite_round_trip_snaps_boundary():
    # theta of a bipartite graph is exactly 2; solver noise may land an ulp
    # below, which must not derail either certificate direction
    from myctheta import path_graph

    for g in (path_graph(4), cycle_graph(6)):
        doc, _ = certify(g, 1e-7)
        assert doc["certificate"]["ratio"] == pytest.approx(SQRT5, abs=1e-6)
        assert doc["checks"]["block_spectrum"] is True
        assert doc["checks"]["lift_violation"] <= 1e-5


def test_pipeline_on_random_graphs():
    # end-to-end consistency on arbitrary graphs with at least one edge:
    # solver -> edge matrix -> formula -> spectral certificate -> blocks,
    # and solver -> coloring -> lift, both meeting at the same value
    import random

    from conftest import random_graph_with_edge

    rng = random.Random(79)
    for _ in range(20):
        g = random_graph_with_edge(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.8]))
        sol = theta_bar(g, tol=1e-7)
        doc, _ = certify(g, 1e-7)
        assert doc["theta"] == sol.value
        assert abs(doc["t_spectral"] - sol.value) <= 100 * sol.tol_requested + sol.tolerance_achieved
        ratio, checks = doc["certificate"]["ratio"], doc["checks"]
        assert ratio == pytest.approx(doc["m_formula"], abs=1e-6)
        assert checks["block_spectrum"] is True and checks["inequalities"] is True
        assert checks["lift_violation"] <= 1e-5
        # m(theta), the value of a coloring lifted from the solver's own, meets the ratio
        assert abs(mycielski_theta_formula(sol.value).m - ratio) <= 1e-4


def test_certify_verbose_document_holds_the_matrices():
    c5 = cycle_graph(5)
    plain, ok = certify(c5, 1e-7)
    full, full_ok = certify(c5, 1e-7, verbose=True)
    assert ok is True and full_ok is True
    assert "T" not in plain["certificate"] and "T_hat" not in plain["certificate"]
    assert np.asarray(full["certificate"].pop("T")).shape == (5, 5)
    assert np.asarray(full["certificate"].pop("T_hat")).shape == (11, 11)
    assert full == plain


def test_round_trip_with_solver_matrices():
    for g in (
        complete_graph(2),
        complete_graph(3),
        complete_graph(4),
        complete_graph(5),
        cycle_graph(5),
        cycle_graph(7),
    ):
        doc, _ = certify(g, 1e-7)
        target = mycielski_theta_formula(doc["theta"]).m
        assert doc["certificate"]["ratio"] == pytest.approx(target, abs=1e-6)
        assert doc["checks"]["block_spectrum"] is True


def simplex_coloring(n: int) -> VectorColoring:
    """Exact strict vector n-coloring of K_n: vertices of a regular simplex."""
    gram = np.full((n, n), -1.0 / (n - 1))
    np.fill_diagonal(gram, 1.0)
    vals, vecs = np.linalg.eigh(gram)
    vals = np.clip(vals, 0.0, None)
    vectors = vecs * np.sqrt(vals)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return VectorColoring(float(n), vectors)


def test_upper_meets_lower_on_corpus():
    # the two certificate directions agree on the same number for each graph:
    # the lifted coloring (upper) and the ratio of T_hat (lower)
    cases = []
    for n in (2, 3, 4, 5):
        cases.append((complete_graph(n), simplex_coloring(n), float(n)))
    for cyc in (5, 7):
        g = cycle_graph(cyc)
        sol = theta_bar(g, tol=1e-7)
        cases.append((g, extract_vector_coloring(sol, g), None))
    for g, coloring, t_exact in cases:
        t_val = t_exact if t_exact is not None else coloring.value
        m = mycielski_theta_formula(t_val).m
        cert = build_spectral_certificate(g, g.adjacency_matrix(),
                                          spectral_ratio(g.adjacency_matrix(), g))
        lifted = lift_coloring(g, coloring, mycielski_theta_formula(coloring.value).m)
        assert cert.ratio == pytest.approx(lifted.value, abs=2e-6)
        assert verify_lift(g, lifted) <= 1e-5


@pytest.mark.parametrize("family", ["power:cycle:5:t=2", "power:cycle:7:t=2",
                                    "power:mycielski:cycle:5:t=2"])
def test_certify_holds_on_lifted_powers(family):
    # the Kronecker-power certificate of the lift passes all four checks
    from myctheta.cli import parse_family

    doc, ok = certify(parse_family(family), 1e-7)
    assert ok
    assert all(doc["checks"][k] is True for k in
               ("ratio_matches_formula", "block_spectrum", "inequalities", "lift_ok"))


def test_certify_decomposes_t_and_t_hat_once(monkeypatch):
    # after the solve, certify decomposes each matrix it reads once: on M(C5)^2
    # the edge matrix T and the coloring Gram matrix with their eigenvectors,
    # T_hat and the stacked (n-1, 2, 2) blocks of the block check for their
    # eigenvalues alone; calls are counted by function and shape
    from myctheta import certificates, or_power

    g = or_power(mycielskian(cycle_graph(5)), 2)
    sol = theta_bar(g, 1e-7)
    monkeypatch.setattr(certificates, "theta_bar", lambda graph, tol: sol)
    calls = []

    def counted(name, real):
        def call(a):
            calls.append((name, np.shape(a)))
            return real(a)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(eigen, name, counted(name, getattr(eigen, name)))
    doc, ok = certify(g, 1e-7)
    assert ok
    dense = [c for c in calls if len(c[1]) == 2 and c[1][0] >= g.n]
    n, size = (g.n, g.n), (2 * g.n + 1, 2 * g.n + 1)
    assert sorted(dense) == [("eigh", n), ("eigh", n), ("eigvalsh", size)]
    assert [c for c in calls if c[1] == (g.n - 1, 2, 2)] == [("eigvalsh", (g.n - 1, 2, 2))]


def test_certify_raises_when_t_misses_the_slack(monkeypatch, capsys):
    # a primal whose normalized edge matrix falls short of theta by more than
    # 100 tol is an internal failure: MycthetaError, and exit 1 with one line
    from myctheta import certificates
    from myctheta.cli import main

    c5 = cycle_graph(5)
    sol = theta_bar(c5, 1e-7)
    primal = np.eye(5) / 5
    primal[0, 1] = primal[1, 0] = 0.05  # T has ratio 2 < sqrt(5) - 100 tol
    bad = dataclasses.replace(sol, x_hat=primal)  # the stored primal factor
    monkeypatch.setattr(certificates, "theta_bar", lambda graph, tol: bad)
    with pytest.raises(MycthetaError, match="no edge matrix within slack") as exc:
        certify(c5, 1e-7)
    # the message names the cause, T's ratio against theta, and no option to set
    message = str(exc.value)
    assert f"T has ratio {spectral_ratio(optimal_edge_matrix(c5, bad), c5)}" in message
    assert f"theta {sol.value}" in message and "not optimal" in message
    assert "supply T" not in message
    assert main(["certify", "--family", "cycle:5", "--tol", "1e-7"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: no edge matrix within slack") and err.count("\n") == 1
    assert "supply T" not in err
