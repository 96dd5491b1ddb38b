"""Acceptance gate: every numbered criterion runs at its stated tolerance and
prints one pass/fail line (run with `pytest tests/test_acceptance.py -s`)."""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import sympy

from myctheta import (
    build_spectral_certificate,
    check_certificate_inequalities,
    chromatic_number,
    clique_number,
    complete_graph,
    cubic_residual,
    cycle_graph,
    embed_mycielski_power,
    extended_clique,
    fractional_chromatic,
    lift_coloring,
    lifted_transitive_clique,
    lpu_formula,
    mycielski_theta_formula,
    mycielskian,
    no_lifted_clique_check,
    or_power,
    or_product,
    theta_bar,
    verify_block_spectrum,
    VectorColoring,
)
from myctheta.certificates import verify_lift
from myctheta.invariants import verify_clique

from conftest import all_labeled_graphs, complete_join, random_graph, random_graph_with_edge

SQRT5 = math.sqrt(5)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS — {description}")


def test_criterion_01_theta_c5():
    with criterion(1, "theta_bar(C5) = sqrt(5) within 1e-4 in < 5 s"):
        start = time.perf_counter()
        sol = theta_bar(cycle_graph(5), tol=1e-6)
        elapsed = time.perf_counter() - start
        assert abs(sol.value - SQRT5) <= 1e-4
        assert elapsed < 5.0


def test_criterion_02_formula_at_two():
    with criterion(2, "formula(2) = sqrt(5) within 1e-12; residual < 1e-12"):
        res = mycielski_theta_formula(2.0)
        assert abs(res.m - SQRT5) <= 1e-12
        assert abs(cubic_residual(2.0, SQRT5)) < 1e-12
        # polynomial division oracle: the t=2 cubic is (x - 1)(x^2 - 5)
        x = sympy.symbols("x")
        quotient, remainder = sympy.div(x**3 - x**2 - 5 * x + 5, x - 1, x)
        assert remainder == 0 and sympy.expand(quotient - (x**2 - 5)) == 0


def test_criterion_03_formula_at_three():
    with criterion(3, "formula(3) = 4 cos(2 pi / 9) within 1e-12"):
        res = mycielski_theta_formula(3.0)
        assert abs(res.m - 4.0 * math.cos(2.0 * math.pi / 9.0)) <= 1e-12


def test_criterion_04_formula_vs_sdp():
    with criterion(4, "formula vs SDP within 1e-3 on K2..K4, C5, C7 in < 60 s"):
        start = time.perf_counter()
        corpus = [
            complete_graph(2),
            complete_graph(3),
            complete_graph(4),
            cycle_graph(5),
            cycle_graph(7),
        ]
        for g in corpus:
            base = theta_bar(g, tol=1e-6).value
            lifted = theta_bar(mycielskian(g, 2), tol=1e-6).value
            assert abs(lifted - mycielski_theta_formula(base).m) <= 1e-3, g
        assert time.perf_counter() - start < 60.0


def test_criterion_05_extended_clique_2():
    with criterion(5, "verified 5-clique in [M(K2)]^2; omega = 5 exactly in < 1 s"):
        ec = extended_clique(2)
        assert len(ec.vertices) == 5 and ec.verified
        start = time.perf_counter()
        power = or_power(mycielskian(complete_graph(2), 2), 2)
        res = clique_number(power)
        elapsed = time.perf_counter() - start
        assert res.size == 5 and res.exhausted
        assert verify_clique(power, res.witness)
        assert elapsed < 1.0


def test_criterion_06_extended_clique_3():
    with criterion(6, "verified 28-clique over M(K3) in < 5 s; bound 28^(1/3) > 3"):
        start = time.perf_counter()
        ec = extended_clique(3)
        elapsed = time.perf_counter() - start
        assert len(ec.vertices) == 28 and ec.verified
        assert abs(ec.bound - 28 ** (1.0 / 3.0)) < 1e-12
        assert ec.bound > 3.0
        assert elapsed < 5.0


def test_criterion_07_transitive_clique_2():
    with criterion(7, "verified transitive 5-clique in [M(T2)]^2, bound sqrt(5)"):
        tc = lifted_transitive_clique(2)
        assert len(tc.vertices) == 5 and tc.verified and tc.directed
        assert abs(tc.bound - SQRT5) < 1e-12


def test_criterion_08_certificate_round_trip():
    with criterion(8, "spectral certificates for K2..K5 (blocks, inequalities)"):
        for n in (2, 3, 4, 5):
            g = complete_graph(n)
            t = float(n)
            cert = build_spectral_certificate(g, g.adjacency_matrix(), t)
            m = mycielski_theta_formula(t).m
            assert abs(cert.ratio - m) <= 1e-6
            assert verify_block_spectrum(cert).ok
            report = check_certificate_inequalities(
                cert.t, cert.m, cert.gamma, cert.delta, cert.eta
            )
            assert report.eta_positive and report.delta_positive
            assert report.gamma_lower_bound
            assert report.discriminant_ok  # |b^2 - 4ac| <= 1e-8 b^2
            assert report.gamma_hat_ok
            if n == 2:
                assert abs(cert.gamma - 2.0) <= 1e-9
                assert abs(cert.delta - 1.0) <= 1e-9
                assert abs(cert.eta - 2.0) <= 1e-9


def test_criterion_09_lift_k2_to_c5():
    with criterion(9, "lifted K2 coloring: conditions within 1e-8, value vs SDP 1e-4"):
        k2 = complete_graph(2)
        coloring = VectorColoring(2.0, np.array([[-1.0], [1.0]]))
        lifted = lift_coloring(k2, coloring, SQRT5)
        assert verify_lift(k2, lifted) <= 1e-8
        sdp = theta_bar(cycle_graph(5), tol=1e-6)
        assert abs(lifted.value - sdp.value) <= 1e-4


def test_criterion_10a_omega_preserved():
    with criterion(10, "property: omega(M(G)) = omega(G), 100 random instances"):
        rng = random.Random(101)
        for _ in range(100):
            g = random_graph_with_edge(rng, rng.randint(2, 10), rng.choice([0.3, 0.5, 0.7]))
            assert clique_number(mycielskian(g, 2)).size == clique_number(g).size


def test_criterion_10b_chromatic_increases():
    with criterion(10, "property: chi(M(G)) = chi(G) + 1, 100 random instances"):
        rng = random.Random(103)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.7]))
            assert (
                chromatic_number(mycielskian(g, 2)).value
                == chromatic_number(g).value + 1
            )


def test_criterion_10c_lpu_exact():
    with criterion(10, "property: chi_f(M(G)) = chi_f(G) + 1/chi_f(G) exactly, 100 instances"):
        rng = random.Random(107)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.7]))
            base = fractional_chromatic(g).value
            assert fractional_chromatic(mycielskian(g, 2)).value == lpu_formula(base)


def test_criterion_10d_theta_monotone():
    with criterion(10, "property: theta_bar monotone under subgraphs, 100 pairs"):
        rng = random.Random(109)
        from myctheta.graphs import Graph

        for _ in range(100):
            n = rng.randint(2, 8)
            big = random_graph(rng, n, rng.choice([0.4, 0.6, 0.8]))
            small = Graph(n, [e for e in big.edges() if rng.random() < 0.6])
            assert (
                theta_bar(small, tol=1e-5).value
                <= theta_bar(big, tol=1e-5).value + 1e-4
            )


def test_criterion_10e_asymptotic_spectrum_axioms():
    with criterion(10, "property: AS axioms 2-4 for theta_bar on the fixed corpus"):
        corpus = [complete_graph(2), complete_graph(3), cycle_graph(5)]
        values = [theta_bar(g, tol=1e-6).value for g in corpus]
        for (f, tf), (g, tg) in itertools.combinations_with_replacement(
            list(zip(corpus, values)), 2
        ):
            prod = theta_bar(or_product(f, g), tol=1e-6).value
            assert abs(prod - tf * tg) <= 1e-3
            join = theta_bar(complete_join(f, g), tol=1e-6).value
            assert abs(join - (tf + tg)) <= 1e-3
        assert theta_bar(complete_graph(1)).value == 1.0


def test_criterion_10f_embedding_induced():
    with criterion(10, "property: M(G^t) embeds induced in [M(G)]^t, t <= 2"):
        count = 0
        for g in all_labeled_graphs(4):
            for t in (1, 2):
                emb = embed_mycielski_power(g, t)
                assert len(set(emb.mapping)) == emb.domain.n
                assert emb.is_induced_isomorphism()
                count += 1
        assert count >= 100


def test_criterion_11_no_lifted_clique():
    with criterion(11, "no lifted clique for (3,3,1) and (3,4,1) in < 1 s"):
        start = time.perf_counter()
        assert no_lifted_clique_check(3, 3, 1) is True
        assert no_lifted_clique_check(3, 4, 1) is True
        assert time.perf_counter() - start < 1.0


def test_criterion_12_chromatic_of_c5_squared():
    with criterion(12, "chi(C5^2) <= 8 by exact coloring in < 30 s"):
        start = time.perf_counter()
        res = chromatic_number(or_power(cycle_graph(5), 2), node_budget=5_000_000)
        elapsed = time.perf_counter() - start
        assert res.hi <= 8
        from myctheta.invariants import verify_coloring

        assert verify_coloring(or_power(cycle_graph(5), 2), res.coloring)
        assert max(res.coloring) + 1 <= 8
        assert elapsed < 30.0
