import dataclasses
import math
import random
import time

import numpy as np
import pytest

from myctheta import (
    ConvergenceError,
    DomainError,
    complete_graph,
    cycle_graph,
    empty_graph,
    extract_vector_coloring,
    mycielskian,
    optimal_edge_matrix,
    or_power,
    or_product,
    path_graph,
    spectral_ratio,
    theta_bar,
)
from myctheta import theta as theta_mod
from myctheta.certificates import certify
from myctheta.formula import mycielski_theta_formula
from myctheta.graphs import Graph

from conftest import complete_join, random_graph


def theta_odd_cycle(n: int) -> float:
    """Closed form for odd cycles: 1 + 1/cos(pi/n)."""
    return 1.0 + 1.0 / math.cos(math.pi / n)


def test_theta_complete_graphs():
    for n in (1, 2, 3, 5, 8):
        sol = theta_bar(complete_graph(n), tol=1e-6)
        assert sol.value == pytest.approx(n, abs=1e-6)


def test_theta_c5_and_c7():
    assert theta_bar(cycle_graph(5), tol=1e-7).value == pytest.approx(
        math.sqrt(5), abs=1e-7
    )
    assert theta_bar(cycle_graph(7), tol=1e-7).value == pytest.approx(
        theta_odd_cycle(7), abs=1e-7
    )


def test_theta_edgeless_exact():
    for n in (1, 3, 6):
        sol = theta_bar(empty_graph(n))
        assert sol.value == 1.0 and sol.iterations == 0
    assert theta_bar(complete_graph(1)).value == 1.0


def test_theta_bipartite_is_two():
    assert theta_bar(path_graph(4), tol=1e-6).value == pytest.approx(2.0, abs=1e-6)


def test_theta_tol_domain():
    with pytest.raises(DomainError):
        theta_bar(cycle_graph(5), tol=1e-2)
    with pytest.raises(DomainError):
        theta_bar(cycle_graph(5), tol=1e-12)
    with pytest.raises(DomainError):
        theta_bar(Graph(0))


def test_theta_nonconvergence_carries_state(monkeypatch):
    # the residual rule forms no bracket before iteration 6, so a cap of 5
    # ends without one: the value is <J, X> of the iterate
    monkeypatch.setattr(theta_mod, "MAX_ITERATIONS", 5)
    with pytest.raises(ConvergenceError) as err:
        theta_bar(cycle_graph(7), tol=1e-7)
    assert math.isfinite(err.value.best_value)
    assert err.value.residual is not None


def slow_tail_graph() -> Graph:
    """Ten vertices, theta = 4: a slow tail of the splitting scheme."""
    return Graph(10, [(0, 1), (0, 8), (0, 9), (1, 2), (1, 3), (1, 5), (1, 6), (1, 7),
                      (2, 3), (2, 6), (2, 8), (2, 9), (3, 4), (3, 5), (3, 6), (3, 8),
                      (4, 5), (4, 6), (4, 7), (4, 9), (5, 7), (5, 8), (5, 9), (6, 8),
                      (7, 9), (8, 9)])


def gnp_draw(index: int) -> Graph:
    """Draw `index` of G(40, 1/2) from random.Random(2027)."""
    rng = random.Random(2027)
    return [random_graph(rng, 40, 0.5) for _ in range(index + 1)][index]


def test_the_bracket_gets_an_exactly_symmetric_dual(monkeypatch):
    # _certified_bracket reads the dual variable u without symmetrizing it:
    # every iterate is exactly symmetric.  The sdp benchmark's graphs (its
    # seeded G(n, 1/2) corpus unrelabelled), the certify jobs, M(C5^2) and a
    # G(40, 1/2) draw
    calls = []
    bracket = theta_mod._certified_bracket

    def spy(x, u, nonedge, jmat):
        calls.append(np.array_equal(u, u.T))
        return bracket(x, u, nonedge, jmat)

    monkeypatch.setattr(theta_mod, "_certified_bracket", spy)
    c5, c7 = cycle_graph(5), cycle_graph(7)
    graphs = [c5, c7, mycielskian(c5), mycielskian(complete_graph(4)), mycielskian(mycielskian(c5)),
              or_power(c5, 2), or_power(c7, 2), mycielskian(or_power(c5, 2)), gnp_draw(1)]
    graphs += [random_graph(random.Random(f"sdp-corpus-{n}"), n, 0.5) for n in (8, 10, 12)]
    for g in graphs:
        theta_bar(g)
    for g in graphs[:4]:
        certify(g, 1e-6)
    assert len(calls) > len(graphs) and all(calls)


def test_theta_nonconvergence_reports_best_bracket(monkeypatch):
    # draw 18 is the slowest of the first 20 draws: it needs 6250 iterations
    # at tol 1e-6 (theta = 7.0112121 +- 3.3e-7), so a cap of 1000 still ends
    # without a certificate.  The capped solve reports the midpoint of a
    # certified bracket
    monkeypatch.setattr(theta_mod, "MAX_ITERATIONS", 1000)
    with pytest.raises(ConvergenceError) as err:
        theta_bar(gnp_draw(18), tol=1e-6)
    assert math.isfinite(err.value.residual)
    assert abs(err.value.best_value - 7.0112121) <= err.value.residual / 2 + 1e-6


@pytest.mark.parametrize("index, cap", [(18, 10_000), (0, 2500), (4, 2500), (15, 2500)])
def test_theta_certifies_the_slow_gnp_draws(index, cap, monkeypatch):
    # the slowest of the first 20 G(40, 1/2) draws: at Anderson memory 15 they
    # take 6250, 1750, 1250 and 1680 iterations; at memory 5 draw 18 did not
    # certify within 50 000 and the others took 9174, 5500 and 5994
    monkeypatch.setattr(theta_mod, "MAX_ITERATIONS", cap)
    sol = theta_bar(gnp_draw(index), tol=1e-6)
    assert sol.tolerance_achieved <= sol.tol_requested
    if index == 18:
        assert abs(sol.value - 7.0112121) <= sol.tolerance_achieved


def test_theta_slow_tail_certifies(monkeypatch):
    # the accelerated step certifies this tail in 500 iterations at tol 1e-6
    # and 1000 at 1e-7; plain splitting needed 9000 and 39 250 (and about
    # 148 000 at 1e-6 with penalty 1)
    with monkeypatch.context() as patch:
        patch.setattr(theta_mod, "MAX_ITERATIONS", 20_000)
        sol = theta_bar(slow_tail_graph(), tol=1e-6)
    assert abs(sol.value - 4.0) <= sol.tolerance_achieved + 1e-12
    sol = theta_bar(slow_tail_graph(), tol=1e-7)
    assert sol.iterations <= 2000
    assert abs(sol.value - 4.0) <= sol.tolerance_achieved + 1e-12


def test_theta_certified_on_degenerate_instance():
    # pendant vertices break strict complementarity and make the splitting
    # residuals decay sublinearly; the certified bracket must still stop
    g = Graph(9, [(0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (2, 6), (2, 5),
                  (3, 4), (3, 5), (3, 8), (4, 6)])
    sol = theta_bar(g, tol=1e-4)
    assert sol.tolerance_achieved <= 1e-4 / 2 + 1e-12
    assert abs(sol.value - 3.0) <= 1e-4  # omega = chi = 3 pins theta here


def test_theta_value_is_certified():
    # the reported half-width is a rigorous error bound, so values bracketed
    # by it must contain the known optima
    for g, truth in [(cycle_graph(5), math.sqrt(5)), (complete_graph(6), 6.0)]:
        sol = theta_bar(g, tol=1e-6)
        assert abs(sol.value - truth) <= sol.tolerance_achieved + 1e-12


def test_theta_monotone_under_subgraphs():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 8)
        big = random_graph(rng, n, 0.6)
        keep = [e for e in big.edges() if rng.random() < 0.6]
        small = Graph(n, keep)
        t_small = theta_bar(small, tol=1e-5).value
        t_big = theta_bar(big, tol=1e-5).value
        assert t_small <= t_big + 1e-4


def test_theta_join_additive():
    for g, h in [(complete_graph(2), complete_graph(3)), (cycle_graph(5), complete_graph(2))]:
        sol = theta_bar(complete_join(g, h), tol=1e-6)
        expect = theta_bar(g, tol=1e-6).value + theta_bar(h, tol=1e-6).value
        assert sol.value == pytest.approx(expect, abs=1e-3)


def test_theta_or_multiplicative():
    g, h = cycle_graph(5), complete_graph(2)
    sol = theta_bar(or_product(g, h), tol=1e-6)
    assert sol.value == pytest.approx(2 * math.sqrt(5), abs=1e-3)


def test_spectral_ratio_closed_forms():
    for n in (2, 3, 6):
        kn = complete_graph(n)
        assert spectral_ratio(kn.adjacency_matrix(), kn) == pytest.approx(n, abs=1e-12)
    c5 = cycle_graph(5)
    assert spectral_ratio(c5.adjacency_matrix(), c5) == pytest.approx(
        math.sqrt(5), abs=1e-12
    )
    k2 = complete_graph(2)
    assert spectral_ratio(np.array([[0.0, 1.0], [1.0, 0.0]]), k2) == pytest.approx(2.0)


def test_spectral_ratio_validation():
    c5 = cycle_graph(5)
    with pytest.raises(DomainError):
        spectral_ratio(np.zeros((5, 5)), c5)
    bad_support = np.zeros((5, 5))
    bad_support[0, 2] = bad_support[2, 0] = 1.0  # non-edge of C5
    with pytest.raises(DomainError):
        spectral_ratio(bad_support, c5)
    diag = np.eye(5)
    with pytest.raises(DomainError):
        spectral_ratio(diag, c5)
    asym = c5.adjacency_matrix()
    asym[0, 1] = 2.0
    with pytest.raises(DomainError):
        spectral_ratio(asym, c5)


def test_spectral_ratio_never_beats_theta():
    rng = random.Random(53)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        if g.m == 0:
            continue
        sol = theta_bar(g, tol=1e-6)
        adj = g.adjacency_matrix()
        # random feasible reweighting of the edges
        w = adj * (0.5 + np.random.default_rng(1).random(adj.shape))
        w = 0.5 * (w + w.T)
        assert spectral_ratio(w, g) <= sol.value + 1e-4
        assert spectral_ratio(adj, g) <= sol.value + 1e-4


def test_optimal_edge_matrix_reaches_value():
    # the normalized primal alone reaches theta within the 100 tol slack that
    # certify checks: on cliques, cycles, lifted powers, a disconnected graph
    # (whose K1 the optimum ignores) and four G(n, 1/2) draws
    rng = random.Random(2026)
    draws = [random_graph(rng, n, 0.5) for n in (6, 9, 12, 15)]
    c5_k2_k1 = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
    m_c5_2 = or_power(mycielskian(cycle_graph(5)), 2)
    corpus = [complete_graph(2), complete_graph(4), cycle_graph(5), cycle_graph(7),
              or_power(cycle_graph(5), 2), or_power(cycle_graph(7), 2), m_c5_2, c5_k2_k1, *draws]
    for tol in (1e-6, 1e-7):
        assert theta_bar(m_c5_2, tol=tol).lifted == (11, 2)
        for g in corpus:
            sol = theta_bar(g, tol=tol)
            t_matrix = optimal_edge_matrix(g, sol)
            ratio = spectral_ratio(t_matrix, g)
            assert ratio >= sol.value - 100 * sol.tol_requested
            assert ratio <= sol.value + 1e-4  # weak duality
    with pytest.raises(DomainError):
        optimal_edge_matrix(empty_graph(3), theta_bar(empty_graph(3)))


def test_extract_coloring_simplex():
    for n in (2, 3, 5):
        g = complete_graph(n)
        col = extract_vector_coloring(theta_bar(g, tol=1e-8), g)
        gram = col.vectors @ col.vectors.T
        target = -1.0 / (n - 1)
        off = gram[~np.eye(n, dtype=bool)]
        assert np.allclose(off, target, atol=1e-6)
        assert col.max_violation(g) < 1e-6


def test_extract_coloring_c5():
    c5 = cycle_graph(5)
    sol = theta_bar(c5, tol=1e-7)
    col = extract_vector_coloring(sol, c5)
    target = -1.0 / (math.sqrt(5) - 1.0)
    for u, v in c5.edges():
        assert float(col.vectors[u] @ col.vectors[v]) == pytest.approx(target, abs=1e-5)
    assert col.value == pytest.approx(sol.value)


def loop_max_violation(col, g: Graph) -> float:
    """The per-edge loop that VectorColoring.max_violation replaced, kept as its reference."""
    norms = np.linalg.norm(col.vectors, axis=1)
    worst = float(np.max(np.abs(norms - 1.0))) if len(norms) else 0.0
    target = -1.0 / (col.value - 1.0)
    for u, v in g.edges():
        worst = max(worst, abs(float(col.vectors[u] @ col.vectors[v]) - target))
    return worst


def test_max_violation_matches_the_edge_loop():
    from myctheta.theta import VectorColoring

    rng = random.Random(61)
    gen = np.random.default_rng(61)
    for _ in range(40):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
        vectors = gen.normal(size=(n, rng.randint(1, 6)))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None] * gen.uniform(0.9, 1.1, (n, 1))
        col = VectorColoring(rng.uniform(2.0, 6.0), vectors)
        assert abs(col.max_violation(g) - loop_max_violation(col, g)) <= 1e-12
    g = mycielskian(cycle_graph(5))
    col = extract_vector_coloring(theta_bar(g, tol=1e-7), g)
    assert abs(col.max_violation(g) - loop_max_violation(col, g)) <= 1e-12


def test_extract_coloring_edgeless():
    g = empty_graph(4)
    col = extract_vector_coloring(theta_bar(g), g)
    assert col.value == 1.0 and col.d == 1
    assert col.max_violation(g) == 0.0


def test_extract_requires_tight_solution():
    c5 = cycle_graph(5)
    sol = theta_bar(c5, tol=1e-4)
    if sol.tolerance_achieved > 1e-6:
        with pytest.raises(DomainError):
            extract_vector_coloring(sol, c5)


def test_solution_primal_feasibility():
    # the reported primal satisfies its affine constraints exactly and is
    # PSD up to the achieved tolerance
    for g in (cycle_graph(5), complete_graph(4), path_graph(5)):
        sol = theta_bar(g, tol=1e-6)
        x = sol.primal
        assert abs(np.trace(x) - 1.0) < 1e-12
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    assert x[u, v] == 0.0
        from myctheta import eigen

        assert eigen.eigh(x)[0][0] >= -sol.tolerance_achieved


def test_solution_json():
    import json

    sol = theta_bar(cycle_graph(5), tol=1e-6)
    doc = sol.to_dict()
    assert "value" in doc and "primal" not in doc
    full = sol.to_dict(verbose=True)
    assert set(full) == set(doc) | {"primal"} and len(full["primal"]) == 5  # the primal once
    assert json.loads(json.dumps(full)) == full  # plain data, ready for the CLI's emitter


def test_mycielskian_theta_matches_formula():
    from myctheta import mycielski_theta_formula

    g = complete_graph(3)
    base = theta_bar(g, tol=1e-7).value
    lifted = theta_bar(mycielskian(g, 2), tol=1e-7).value
    assert lifted == pytest.approx(mycielski_theta_formula(base).m, abs=1e-5)


def test_mycielskian_of_c5_squared_matches_formula():
    # n = 51: theta_bar(C5^2) = 5 exactly, so theta_bar(M(C5^2)) = m(5)
    from myctheta import mycielski_theta_formula, or_power

    sol = theta_bar(mycielskian(or_power(cycle_graph(5), 2), 2), tol=1e-6)
    assert sol.n == 51
    expect = mycielski_theta_formula(5.0).m
    assert abs(sol.value - expect) <= sol.tolerance_achieved + 1e-7


def test_theta_multiplicative_at_scale():
    # M(C5)^2 has n = 121; theta_bar is multiplicative under OR products, so
    # the bracket of theta_bar(M(C5))^2 must meet the bracket at n = 121.
    # theta_bar lifts the power from M(C5), so the splitting solver is run on
    # all 121 vertices through `_solve`, the function the lift calls on the
    # base.  The accelerated step certifies it in 234 iterations (plain
    # splitting at penalty 2n needed 634, at penalty 1 5528)
    base = theta_bar(mycielskian(cycle_graph(5)), tol=1e-6)
    g = or_power(mycielskian(cycle_graph(5)), 2)
    h = base.tolerance_achieved
    square_slack = 2.0 * base.value * h + h * h  # half-width of the squared bracket
    direct = theta_mod._solve(g, 1e-6)
    lifted = theta_bar(g, tol=1e-6)
    assert direct.n == lifted.n == 121 and direct.iterations <= 1500
    assert direct.lifted is None and lifted.lifted == (11, 2)
    for sol in (direct, lifted):
        assert abs(sol.value - base.value ** 2) <= sol.tolerance_achieved + square_slack


def test_theta_c5_cubed():
    # the lifted value, and the splitting solver on all 125 vertices
    g = or_power(cycle_graph(5), 3)
    for sol in (theta_bar(g, tol=1e-6), theta_mod._solve(g, 1e-6)):
        assert sol.n == 125
        assert abs(sol.value - 5.0 ** 1.5) <= sol.tolerance_achieved


def test_extractions_at_scale():
    # the dual slack must stay a coloring Gram matrix and the primal
    # an optimal edge matrix at n = 121, from the splitting solver and from
    # the Kronecker powers of M(C5)'s certificate alike
    g = or_power(mycielskian(cycle_graph(5)), 2)
    for sol in (theta_mod._solve(g, 1e-7), theta_bar(g, tol=1e-7)):
        assert extract_vector_coloring(sol, g).max_violation(g) < 1e-8
        ratio = spectral_ratio(optimal_edge_matrix(g, sol), g)
        assert abs(ratio - sol.value) <= sol.tol_requested


LIFTED_POWERS = [("C5^2", cycle_graph(5), 2), ("C7^2", cycle_graph(7), 2),
                 ("C5^3", cycle_graph(5), 3), ("M(C5)^2", mycielskian(cycle_graph(5)), 2)]


@pytest.mark.parametrize("name, base, t", LIFTED_POWERS, ids=[p[0] for p in LIFTED_POWERS])
def test_lifted_bracket_meets_the_direct_one(name, base, t):
    g = or_power(base, t)
    lifted = theta_bar(g, tol=1e-6)
    direct = theta_mod._solve(g, 1e-6)
    assert lifted.lifted == (base.n, t) and direct.lifted is None
    assert lifted.n == direct.n == g.n
    assert 2.0 * lifted.tolerance_achieved <= 1e-6
    # the iterations are those of the base's solve
    assert lifted.iterations == theta_mod._solve(base, 1e-6 / (t * base.n ** (t - 1))).iterations
    assert max(lifted.lower, direct.lower) <= min(lifted.upper, direct.upper)


KRON_LOOP_POWERS = [("C5^2", cycle_graph(5)), ("C7^2", cycle_graph(7)), ("M(C5)^2", mycielskian(cycle_graph(5)))]


@pytest.mark.parametrize("name, base", KRON_LOOP_POWERS, ids=[p[0] for p in KRON_LOOP_POWERS])
def test_lift_equals_the_explicit_kronecker_loop(name, base):
    # a lift stores the base solve's certified pair; its primal and dual slack
    # are squared by `graphs._kron_power`, and the explicit np.kron of the
    # stored x_hat and D with themselves is the reference, bit for bit
    lifted = theta_mod._lift(base, 2, 1e-6)
    h = theta_mod._solve(base, 1e-6 / (2 * base.n))  # the base solve `_lift` makes
    assert lifted.power == 2 and h.power == 1
    assert np.array_equal(lifted.x_hat, h.x_hat) and np.array_equal(lifted.dual_point, h.dual_point)
    assert np.array_equal(lifted.primal, np.kron(h.x_hat, h.x_hat))
    assert np.array_equal(lifted.dual_slack, np.kron(h.dual_point, h.dual_point) - 1.0)


def assert_certified_pair(g, sol):
    """The primal is feasible with sum `lower`, and the dual slack D^(kron t) - J
    is exactly symmetric and PSD, with -1 exactly on every edge and `upper` - 1
    on its diagonal (up to the outward rounding of a lift's ends)."""
    x = sol.primal
    nonedge = ~g.bool_matrix()
    np.fill_diagonal(nonedge, False)
    assert abs(np.trace(x) - 1.0) < 1e-12 and not x[nonedge].any()
    assert np.linalg.eigvalsh(x)[0] >= -1e-12
    assert abs(x.sum() - sol.lower) <= 1e-12
    s = sol.dual_slack
    assert np.array_equal(s, s.T)
    assert np.array_equal(s[g.bool_matrix()], -np.ones(2 * g.m))
    assert np.max(np.abs(np.diag(s) - (sol.upper - 1.0))) <= 1e-12
    assert np.linalg.eigvalsh(s)[0] >= -1e-12


def test_lifted_certificate_is_feasible():
    # x_hat^(kron 2) is a feasible primal of C7^2 and D^(kron 2) - J a PSD slack
    g = or_power(cycle_graph(7), 2)
    sol = theta_bar(g, tol=1e-6)
    assert sol.lifted == (7, 2)
    assert_certified_pair(g, sol)


DIRECT_PAIRS = [(name, g, tol)
                for name, g in (("C7", cycle_graph(7)), ("M(C5)", mycielskian(cycle_graph(5))),
                                ("K3+K2", Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])))
                for tol in (1e-6, 1e-10)]


@pytest.mark.parametrize("name, g, tol", DIRECT_PAIRS, ids=[f"{c[0]}-{c[2]:g}" for c in DIRECT_PAIRS])
def test_direct_certificate_is_feasible(name, g, tol):
    # a direct solve stores the same certified form as a lift, at t = 1
    sol = theta_bar(g, tol=tol)
    assert sol.lifted is None and sol.power == 1
    assert_certified_pair(g, sol)


def test_a_lift_is_stored_factored():
    # theta_bar(C8^4) on 4096 vertices holds C8's 8 x 8 pair and the power
    sol = theta_bar(or_power(cycle_graph(8), 4), tol=1e-6)
    assert sol.power == 4 and sol.lifted == (8, 4) and sol.n == 4096
    assert sol.x_hat.shape == sol.dual_point.shape == (8, 8)


def test_theta_mc5_cubed_is_lifted_in_under_a_second():
    # M(C5)^3 has 1331 vertices; its bracket is the cube of M(C5)'s, around
    # m(sqrt 5)^3 = 13.819 (a direct solve would take minutes and about 1 GB)
    g = or_power(mycielskian(cycle_graph(5)), 3)
    start = time.perf_counter()
    sol = theta_bar(g, tol=1e-6)
    assert time.perf_counter() - start < 1.0
    m = mycielski_theta_formula(math.sqrt(5)).m
    assert sol.lifted == (11, 3) and 2.0 * sol.tolerance_achieved <= 1e-6
    assert abs(sol.value - m ** 3) <= sol.tolerance_achieved + 1e-12


def test_tightest_tolerance_still_certifies_a_power():
    # at 1e-10 the base is solved at the 1e-10 floor, and the direct solve
    # takes over if the lifted bracket is too wide
    sol = theta_bar(or_power(cycle_graph(5), 2), tol=1e-10)
    assert sol.tolerance_achieved <= 1e-10 and abs(sol.value - 5.0) <= sol.tolerance_achieved


def loosen_c5_solves(monkeypatch):
    """Lower the stored bracket of every 5-vertex `_solve` by 1e-3, so that
    the lift of C5^2 is too wide and its direct solve takes over."""
    real = theta_mod._solve

    def loose_base(g, tol):
        sol = real(g, tol)
        return dataclasses.replace(sol, lower=sol.lower - (1e-3 if g.n == 5 else 0.0))

    monkeypatch.setattr(theta_mod, "_solve", loose_base)


def test_too_wide_a_lift_falls_back_to_the_direct_solve(monkeypatch):
    loosen_c5_solves(monkeypatch)
    sol = theta_bar(or_power(cycle_graph(5), 2), tol=1e-6)
    assert sol.lifted is None and sol.n == 25
    assert abs(sol.value - 5.0) <= sol.tolerance_achieved <= 1e-6


def test_solution_stores_its_certified_bracket(monkeypatch):
    # value and half-width are derived from the stored ends: for a direct
    # solve these are the last bracket the iteration formed, for a lift the
    # base's ends to the t-th power rounded outward, for an edgeless graph
    # [1, 1], and for a too-wide lift those of the direct solve
    brackets = []
    real_bracket = theta_mod._certified_bracket

    def spy(*args):
        out = real_bracket(*args)
        brackets.append(out[:2])
        return out

    monkeypatch.setattr(theta_mod, "_certified_bracket", spy)
    direct = theta_bar(cycle_graph(7), tol=1e-6)
    assert (direct.lower, direct.upper) == brackets[-1]
    lifted = theta_bar(or_power(cycle_graph(5), 2), tol=1e-6)
    base = theta_mod._solve(cycle_graph(5), 1e-6 / (2 * 5))
    assert lifted.lifted == (5, 2)
    assert lifted.lower == math.nextafter(base.lower ** 2, 0.0)
    assert lifted.upper == math.nextafter(base.upper ** 2, math.inf)
    edgeless = theta_bar(empty_graph(3), tol=1e-6)
    assert (edgeless.lower, edgeless.upper) == (1.0, 1.0)
    loosen_c5_solves(monkeypatch)
    fallback = theta_bar(or_power(cycle_graph(5), 2), tol=1e-6)
    assert fallback.lifted is None and (fallback.lower, fallback.upper) == brackets[-1]
    for sol in (direct, lifted, edgeless, fallback):
        assert sol.lower <= sol.value <= sol.upper
        assert sol.upper - sol.lower <= sol.tol_requested
        assert sol.value == 0.5 * (sol.lower + sol.upper)
        assert sol.tolerance_achieved == 0.5 * (sol.upper - sol.lower)
        assert sol.n == len(sol.primal)


def test_a_capped_base_solve_falls_back_to_the_direct_solve(monkeypatch):
    # the base solve reaches the cap first; the direct solve raises as before
    monkeypatch.setattr(theta_mod, "MAX_ITERATIONS", 3)
    with pytest.raises(ConvergenceError):
        theta_bar(or_power(mycielskian(cycle_graph(5)), 2), tol=1e-6)


def test_shuffled_power_is_solved_directly():
    # M(C5)^2 with its vertices shuffled is not recognised (`graphs._power_base`
    # reads the layout of `or_power`), so it is solved on all 121 vertices
    g = or_power(mycielskian(cycle_graph(5)), 2)
    perm = random.Random(13).sample(range(g.n), g.n)
    shuffled = g.subgraph(perm)
    direct = theta_bar(shuffled, tol=1e-6)
    lifted = theta_bar(g, tol=1e-6)
    assert direct.lifted is None and lifted.lifted == (11, 2)
    assert abs(direct.value - lifted.value) <= direct.tolerance_achieved + lifted.tolerance_achieved



def test_theta_petersen():
    # vertex-transitive and self-complementary-free oracle: theta times its
    # complement value equals n, and the independence side is 4, so 10/4
    from conftest import petersen_graph

    sol = theta_bar(petersen_graph(), tol=1e-6)
    assert sol.value == pytest.approx(2.5, abs=1e-5)


def test_sandwich_omega_theta_chif_chi():
    from myctheta import chromatic_number, clique_number, fractional_chromatic

    rng = random.Random(59)
    zoo = [cycle_graph(5), cycle_graph(7), complete_graph(4), path_graph(5)]
    zoo += [random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.7]))
            for _ in range(16)]
    for g in zoo:
        omega = clique_number(g)
        chi = chromatic_number(g)
        assert omega.exhausted and chi.exhausted
        value = theta_bar(g, tol=1e-6).value
        chi_f = float(fractional_chromatic(g).value)
        assert omega.size <= value + 1e-6
        assert value <= chi_f + 1e-6
        assert chi_f <= chi.value + 1e-6
