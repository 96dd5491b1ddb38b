import dataclasses
import itertools
import json
import math
import random
import re
import time

import networkx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myctheta import (
    DomainError,
    Graph,
    InconclusiveError,
    SizeLimitError,
    capacity_lower_bound,
    capacity_report,
    chained_power_clique,
    chromatic_number,
    clique_number,
    complete_graph,
    cycle_graph,
    extended_clique,
    lifted_clique,
    lifted_transitive_clique,
    mycielskian,
    no_lifted_clique_check,
    or_power,
    symmetric_clique_number,
    theta_bar,
    transitive_clique_number,
    transitive_tournament,
)
from myctheta import cli, constructions, invariants
from myctheta.constructions import _level_power, _power_adjacency, _verify_clique
from myctheta.formula import mycielski_theta_formula
from myctheta.graphs import power_index
from myctheta.invariants import _Budget, _max_clique
from myctheta.theta import ThetaSolution
from myctheta.errors import ConvergenceError, MycthetaInternal

from conftest import random_digraph


def or_arc(host, a, b):
    """Independent check: some coordinate of a has an arc to that of b."""
    return any(host.has_arc(u, v) for u, v in zip(a, b))


def base_digits(coords, n):
    return tuple(c - n if n <= c < 2 * n else c for c in coords)


def test_lifted_clique_2_exact_vertices():
    lc = lifted_clique(2)
    # (v, level) encodes as level*2 + v; the four members per the lift rule
    assert set(lc.vertices) == {(2, 0), (3, 1), (0, 3), (1, 2)}
    assert lc.verified and not lc.includes_apex
    assert sorted(lc.residue_classes) == [0, 0, 1, 1]


@pytest.mark.parametrize("n", [2, 3])
def test_lifted_clique_structure(n):
    lc = lifted_clique(n)
    assert len(lc.vertices) == n ** n
    host = mycielskian(complete_graph(n), 2)
    apex = 2 * n
    for coords, cls in zip(lc.vertices, lc.residue_classes):
        assert apex not in coords
        lifted_positions = [i for i, c in enumerate(coords) if n <= c < 2 * n]
        assert lifted_positions == [cls]
        digits = base_digits(coords, n)
        assert sum(digits) % n == cls
    # pairwise adjacency, re-verified here independently
    for a, b in itertools.combinations(lc.vertices, 2):
        assert any(host.has_edge(u, v) for u, v in zip(a, b))


def test_same_class_members_differ_twice():
    lc = lifted_clique(3)
    for (a, ca), (b, cb) in itertools.combinations(
        list(zip(lc.vertices, lc.residue_classes)), 2
    ):
        if ca == cb:
            diffs = sum(
                1 for x, y in zip(base_digits(a, 3), base_digits(b, 3)) if x != y
            )
            assert diffs >= 2


def test_extended_clique_2():
    ec = extended_clique(2)
    assert len(ec.vertices) == 5 and ec.includes_apex
    assert ec.bound == pytest.approx(math.sqrt(5), abs=1e-12)
    assert ec.vertices[-1] == (4, 4)
    power = or_power(mycielskian(complete_graph(2), 2), 2)
    assert clique_number(power).size == 5


def test_extended_clique_3():
    ec = extended_clique(3)
    assert len(ec.vertices) == 28
    assert ec.bound == pytest.approx(28 ** (1 / 3), abs=1e-12)
    assert ec.bound > 3


def test_extended_clique_rejects_a_member_off_the_apex(monkeypatch):
    # member 4, (0, 1, 4), unlifted to its base sequence: that is still adjacent
    # to every other member (their base sequences differ) but has no level-1
    # coordinate, so only the apex misses it
    members = constructions._lifted_members(3)
    assert members[4] == ((0, 1, 4), 2)
    broken = members[:4] + [((0, 1, 1), 2)] + members[5:]
    monkeypatch.setattr(constructions, "_lifted_members", lambda n: list(broken))
    with pytest.raises(DomainError, match=r"extended construction broke: \(0, 1, 1\) !~ \(6, 6, 6\)"):
        extended_clique(3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extended_bound_exceeds_n(n):
    assert extended_clique(n).bound > n


def test_construction_labels():
    # coordinate c over M(K_2) is the vertex (c % 2, c // 2) at that level, or the apex c = 4
    rows = [["(0,1)", "(0,0)"], ["(0,0)", "(1,1)"], ["(1,0)", "(0,1)"], ["(1,1)", "(1,0)"]]
    assert extended_clique(2).to_dict()["labels"] == rows + [["Apex", "Apex"]]
    assert lifted_transitive_clique(2).to_dict()["labels"] == [["Apex", "Apex"]] + rows


def test_lifted_clique_rejects_small_n():
    with pytest.raises(DomainError):
        lifted_clique(1)


def test_transitive_clique_2():
    tc = lifted_transitive_clique(2)
    assert len(tc.vertices) == 5
    assert tc.vertices[0] == (4, 4)  # apex sequence first
    assert tc.bound == pytest.approx(math.sqrt(5), abs=1e-12)
    host = mycielskian(transitive_tournament(2), 2)
    for i, a in enumerate(tc.vertices):
        for b in tc.vertices[i + 1:]:
            assert or_arc(host, a, b)


def test_transitive_clique_3_all_pairs():
    tc = lifted_transitive_clique(3)
    assert len(tc.vertices) == 28
    host = mycielskian(transitive_tournament(3), 2)
    pairs = 0
    for i, a in enumerate(tc.vertices):
        for b in tc.vertices[i + 1:]:
            assert or_arc(host, a, b)
            pairs += 1
    assert pairs == 28 * 27 // 2


def test_transitive_order_is_total():
    # a linear order cannot place three vertices cyclically
    tc = lifted_transitive_clique(3)
    index = {v: i for i, v in enumerate(tc.vertices)}
    assert len(index) == len(tc.vertices)
    sample = tc.vertices[1:6]
    for a, b, c in itertools.permutations(sample, 3):
        if index[a] < index[b] < index[c]:
            assert index[a] < index[c]


def test_transitive_matches_exact_search():
    power = or_power(mycielskian(transitive_tournament(2), 2), 2)
    assert transitive_clique_number(power).size == 5


def test_no_lifted_clique_check():
    assert no_lifted_clique_check(3, 3, 1) is True
    assert no_lifted_clique_check(3, 4, 1) is True
    assert no_lifted_clique_check(3, 3, 2) is True
    with pytest.raises(DomainError):
        no_lifted_clique_check(2, 2, 2)
    with pytest.raises(DomainError):
        no_lifted_clique_check(3, 2, 1)
    with pytest.raises(InconclusiveError):
        no_lifted_clique_check(3, 3, 3, node_budget=3)  # the search takes 6 nodes
    assert no_lifted_clique_check(3, 3, 3, node_budget=6) is True


@pytest.mark.parametrize("n, r, t, size", [(3, 3, 2, 45), (3, 3, 3, 513), (3, 4, 3, 999), (5, 3, 3, 2375)])
def test_level_power_holds_only_the_top_level_sequences(n, r, t, size):
    h, tuples = _level_power(n, r, t)
    assert h.n == len(tuples) == (r * n) ** t - ((r - 1) * n) ** t == size
    assert tuples == sorted(set(tuples))
    assert all(any(c // n == r - 1 for c in x) and max(x) < r * n for x in tuples)
    if size < 100:  # H is the induced subgraph of the power on those sequences
        power = or_power(mycielskian(complete_graph(n), r), t)
        assert h == power.subgraph([power_index(x, r * n + 1) for x in tuples])


@pytest.mark.parametrize("n, r, t", [(3, 3, 4), (10 ** 6, 3, 2)])
def test_no_lifted_clique_check_sizes_h_before_building_it(n, r, t):
    # |H| = (rn)^t - ((r-1)n)^t: 5265 for (3, 3, 4), though n^t = 81 fits
    with pytest.raises(SizeLimitError, match="nonexistence check"):
        no_lifted_clique_check(n, r, t)


@pytest.mark.parametrize("n, r, t, message", [
    # before it forms |H|, the check knows only that |H| >= n^t
    (10 ** 6, 3, 2, "the nonexistence check needs at least 1000000000000 vertices, exceeding the bound 4096"),
    (3, 3, 10 ** 8, "the nonexistence check needs at least 3^100000000 vertices, exceeding the bound 4096"),
])
def test_no_lifted_clique_check_names_the_vertices_it_needs(n, r, t, message):
    with pytest.raises(SizeLimitError, match=f"^{re.escape(message)}$"):
        no_lifted_clique_check(n, r, t)


def test_no_lifted_clique_check_reports_a_found_clique(monkeypatch):
    # an H that holds an n^t-clique: the search's witness is re-verified, then the check says False
    monkeypatch.setattr(constructions, "_level_power", lambda n, r, t: (complete_graph(n ** t), []))
    assert no_lifted_clique_check(3, 3, 2) is False
    monkeypatch.setattr(invariants, "verify_clique", lambda g, witness: False)
    with pytest.raises(MycthetaInternal, match="re-verification"):
        no_lifted_clique_check(3, 3, 2)


def test_lifted_clique_fits_a_bound_of_n_to_the_n(monkeypatch):
    monkeypatch.setenv("MYCTHETA_MAX_VERTICES", "27")
    assert len(lifted_clique(3).vertices) == 27
    for build in (extended_clique, lifted_transitive_clique):
        with pytest.raises(SizeLimitError, match="construction needs 28 vertices, exceeding the bound 27$"):
            build(3)


@pytest.mark.parametrize("n", [2, 3])
def test_decision_search_finds_the_lifted_clique_at_level_two(n):
    # with r = 2 the check's graph H holds the paper's n^n clique, so the
    # search from a best size of n^n - 1 must find a clique of that shape
    h, tuples = _level_power(n, 2, n)
    assert set(lifted_clique(n).vertices) <= set(tuples)
    witness = _max_clique(h, _Budget(None), beat=n ** n - 1)
    found = [tuples[i] for i in witness]
    assert len(found) == n ** n
    _verify_clique(mycielskian(complete_graph(n), 2), found, "search")
    assert sorted(tuple(c % n for c in x) for x in found) == list(itertools.product(range(n), repeat=n))
    assert all(sum(c >= n for c in x) == 1 for x in found)


def test_mc5_cube_has_a_13_clique():
    # omega(M(C5)^3) = 13: vertex (a, b, c) is or_power index 121a + 11b + c
    # over mycielskian(cycle_graph(5)) (0-4 the cycle, 5-9 the copies, 10 the apex)
    members = [(0, 2, 0), (1, 0, 5), (2, 3, 3), (2, 8, 2), (3, 1, 3), (3, 6, 2), (4, 4, 5),
               (5, 7, 6), (5, 10, 9), (6, 0, 10), (9, 4, 10), (10, 7, 1), (10, 10, 4)]
    host = mycielskian(cycle_graph(5))
    power = or_power(host, 3)
    assert invariants.verify_clique(power, tuple(121 * a + 11 * b + c for a, b, c in members))
    adjacency = _power_adjacency(host, members)
    assert adjacency[~np.eye(13, dtype=bool)].all()
    # theta_bar(M(C5)) = m(sqrt 5), so omega(M(C5)^3) <= floor(m^3) = 13
    assert math.floor(mycielski_theta_formula(math.sqrt(5)).m ** 3 * (1 + 1e-9)) == 13
    assert 13 ** (1 / 3) > math.sqrt(5)


def test_chained_power_clique_k2():
    ch = chained_power_clique(complete_graph(2), 1)
    assert ch.N == 2 and len(ch.vertices) == 5
    assert ch.bound == pytest.approx(math.sqrt(5), abs=1e-12)
    assert all(len(v) == 2 for v in ch.vertices)


def test_chained_power_clique_k3():
    ch = chained_power_clique(complete_graph(3), 1)
    assert ch.N == 3 and len(ch.vertices) == 28
    assert ch.bound == pytest.approx(28 ** (1 / 3), abs=1e-12)


def test_chained_power_clique_verifies_its_clique_once(monkeypatch):
    # the chain is composed from capacity_lower_bound and graphs' map of M(G^k) into [M(G)]^k,
    # and only its own clique over M(G) is checked, once
    for name in ("or_power", "clique_number", "extended_clique"):
        monkeypatch.setattr(constructions, name, fail)
    checked = []
    real = constructions._verify_clique
    monkeypatch.setattr(constructions, "_verify_clique",
                        lambda host, members, what: checked.append((host.n, len(members), what)) or real(host, members, what))
    ch = chained_power_clique(complete_graph(2), 2)  # omega(K2^2) = 4: 4^4 + 1 members of [M(K2)]^8
    assert (ch.N, len(ch.vertices), {len(v) for v in ch.vertices}) == (4, 257, {8})
    assert checked == [(5, 257, "chained construction")]
    assert ch.bound == pytest.approx(257 ** (1 / 8), abs=1e-12)


def test_chained_power_clique_refuses_a_digraph_before_any_work(monkeypatch):
    d = mycielskian(transitive_tournament(3), 2)
    for name in ("mycielskian", "capacity_lower_bound"):
        monkeypatch.setattr(constructions, name, fail)
    with pytest.raises(DomainError, match="^chaining needs an undirected graph$"):
        chained_power_clique(d)


@pytest.mark.parametrize("g, k, error, message", [
    (complete_graph(3), 2, SizeLimitError, "chained construction needs 387420490 vertices, exceeding the bound 4096"),
    (complete_graph(3), 0, DomainError, "capacity lower bound needs k >= 1"),
    (complete_graph(1), 1, DomainError, "chaining needs omega(G^k) >= 2"),
    (Graph(0), 1, DomainError, "chaining needs a nonempty graph"),
])
def test_chained_power_clique_refusals(g, k, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        chained_power_clique(g, k)


def test_chained_power_clique_refuses_a_truncated_search():
    with pytest.raises(InconclusiveError, match="^clique search for omega\\(G\\^k\\) ran out of budget$"):
        chained_power_clique(cycle_graph(5), 2, node_budget=1)


def test_capacity_report_c5():
    report = capacity_report(cycle_graph(5), max_power=2)
    assert report.omega.size == 2
    assert report.lower_bounds[1].value == pytest.approx(math.sqrt(5), abs=1e-12)
    assert report.theta == pytest.approx(math.sqrt(5), abs=1e-4)
    assert str(report.chi_f) == "5/2"
    assert report.chi.value == 3
    assert not report.errors
    doc = report.to_dict()
    assert doc["chi_f"] == "5/2"


def test_capacity_report_records_achieved_tolerance():
    report = capacity_report(cycle_graph(5), max_power=1)
    achieved = theta_bar(cycle_graph(5), tol=1e-6).tolerance_achieved
    assert report.theta_tolerance == achieved
    assert report.theta_tolerance != 1e-6


def test_capacity_report_k1():
    report = capacity_report(complete_graph(1), max_power=1)
    assert report.omega.size == 1
    assert report.theta == 1.0
    assert report.chi_f == 1
    assert report.chi.value == 1


def test_capacity_report_mycielski_k3():
    report = capacity_report(
        mycielskian(complete_graph(3), 2),
        max_power=1,
    )
    assert report.omega.size == 3
    assert report.construction is not None
    assert report.construction.bound == pytest.approx(28 ** (1 / 3), abs=1e-12)
    assert report.theta == pytest.approx(4 * math.cos(2 * math.pi / 9), abs=1e-4)
    assert report.best_lower_bound() >= report.construction.bound


def test_capacity_report_records_oversized_construction():
    # the construction of M(K6) would have 6^6 + 1 vertices: the report skips it
    report = capacity_report(mycielskian(complete_graph(6), 2), max_power=1)
    assert report.construction is None
    assert report.errors == {}
    assert report.chi.value == 7


def test_capacity_report_digraph():
    report = capacity_report(
        mycielskian(transitive_tournament(2), 2),
        max_power=2,
    )
    assert report.omega_s.size == 1
    assert report.omega_tr.size == 2
    assert report.lower_bounds[1].value == pytest.approx(math.sqrt(5), abs=1e-12)
    assert report.construction.directed


def test_verifier_rejects_a_non_adjacent_pair():
    host = mycielskian(complete_graph(3), 2)
    vertices = lifted_clique(3).vertices
    _verify_clique(host, vertices, "construction")
    # a repeated member is non-adjacent to itself in every coordinate
    broken = vertices[:5] + (vertices[1],) + vertices[6:]
    with pytest.raises(DomainError, match="construction broke"):
        _verify_clique(host, broken, "construction")


def test_verifier_rejects_reversed_transitive_order():
    tc = lifted_transitive_clique(3)
    host = mycielskian(transitive_tournament(3), 2)
    _verify_clique(host, tc.vertices, "transitive construction")
    with pytest.raises(DomainError, match="transitive construction broke"):
        _verify_clique(host, tc.vertices[::-1], "transitive construction")


@pytest.mark.parametrize("g", [cycle_graph(5), mycielskian(transitive_tournament(2), 2)])
def test_capacity_report_reuses_omega_for_k1(g):
    report = capacity_report(g, max_power=2)
    omega = report.omega_tr if report.directed else report.omega
    assert report.lower_bounds[0].k == 1
    assert report.lower_bounds[0].clique is omega
    assert report.lower_bounds[0].value == float(omega.size)


def test_capacity_report_failed_omega_fills_both_keys():
    report = capacity_report(Graph(0), max_power=1)
    message = "DomainError: clique number needs a nonempty graph"
    assert report.errors["omega"] == report.errors["lower_bound_k1"] == message
    assert report.lower_bounds == ()


def test_capacity_report_raises_internal_errors(monkeypatch):
    monkeypatch.setattr(invariants, "verify_clique", lambda g, witness: False)
    with pytest.raises(MycthetaInternal, match="re-verification"):
        capacity_report(cycle_graph(5), max_power=1)


def test_capacity_report_records_errors():
    # chi_f is size-limited: a 129+ vertex graph that is not an OR-power lands
    # in errors, not an exception
    from myctheta import empty_graph

    big = empty_graph(145)  # edgeless; 145 = 5 * 29 is no power, so no base is solved instead
    report = capacity_report(big, max_power=1)
    assert "chi_f" in report.errors
    assert report.theta == 1.0
    # an OR-power's limit applies to its base: E_12^2 has 144 vertices, E_12 twelve
    assert capacity_report(or_power(empty_graph(12), 2), max_power=1).errors == {}


def test_report_csv_and_json_shapes(capsys):
    # the CLI renders the report; the library returns its document
    assert cli.main(["report", "--family", "cycle:5", "--max-power", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("n,m,directed,omega")
    doc = capacity_report(cycle_graph(5), max_power=1).to_dict()
    assert json.loads(json.dumps(doc)) == doc and doc["n"] == 5


def test_report_closes_mt3_cube_by_theta():
    d = mycielskian(transitive_tournament(3), 2)
    report = capacity_report(d, max_power=3)
    assert not report.errors and report.theta is None
    cube = report.lower_bounds[2].clique
    assert (cube.size, cube.nodes, cube.closed_by) == (28, 0, "theta")
    assert cube.exhausted
    assert report.lower_bounds[2].value == pytest.approx(28 ** (1 / 3), abs=1e-12)
    power = or_power(d, 3)
    for i, u in enumerate(cube.witness):
        assert all(power.has_arc(u, v) for v in cube.witness[i + 1:])


def test_report_closes_mt3_square_by_theta():
    # cap floor(theta_bar(M(K3))^2) = 9 is met by the product of two T3 orders
    d = mycielskian(transitive_tournament(3), 2)
    report = capacity_report(d, max_power=2)
    square = report.lower_bounds[1].clique
    assert (square.size, square.nodes, square.closed_by) == (9, 0, "theta")
    assert square.witness == tuple(7 * a + b for a in (0, 1, 2) for b in (0, 1, 2))
    doc = report.to_dict()
    assert [b["closed_by"] for b in doc["lower_bounds"]] == ["search", "theta"]
    assert doc["omega_s"]["closed_by"] == doc["omega_tr"]["closed_by"] == "search"


def test_undirected_report_searches_uncapped():
    # omega(C5^3) = 10, as an uncapped search finds it.  C5^3 is
    # vertex-transitive, so the root takes one branch, and depth 1 is pruned
    # by the stabilizer of the root vertex.  The search recognises C5^3 as a
    # power and prunes by C5's rotation and reflection, which the finder
    # verifies on C5, lifted to C5^3: 1190 nodes.  The unpruned search takes
    # 149 498.
    c5, cube_graph = cycle_graph(5), or_power(cycle_graph(5), 3)
    report = capacity_report(c5, max_power=3)
    cube = report.lower_bounds[2].clique
    assert (cube.size, cube.nodes, cube.closed_by) == (10, 1190, "search")
    plain = clique_number(cube_graph)
    assert (cube.size, cube.witness, cube.exhausted) == (plain.size, plain.witness, plain.exhausted)
    doc = report.to_dict()
    assert [b["closed_by"] for b in doc["lower_bounds"]] == ["search"] * 3
    assert [b["nodes"] for b in doc["lower_bounds"]] == [report.omega.nodes, 6, 1190]
    assert doc["omega"]["closed_by"] == "search"


def test_report_truncated_search_is_not_closed():
    report = capacity_report(or_power(cycle_graph(5), 2), max_power=1, node_budget=1)
    assert report.omega.closed_by is None and not report.omega.exhausted
    assert report.to_dict()["lower_bounds"][0]["closed_by"] is None


def test_report_with_theta_too_low_raises(monkeypatch):
    real = theta_bar
    monkeypatch.setattr(constructions.theta_mod, "theta_bar",
                        lambda g, tol: dataclasses.replace(real(g, tol), lower=1.5, upper=1.5))
    d = mycielskian(transitive_tournament(3), 2)
    with pytest.raises(MycthetaInternal, match="size 9 exceeds its certified cap 2"):
        capacity_report(d, max_power=2)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_digraph_cap_reads_the_solved_upper_end(monkeypatch, tol):
    # the cap of M(T3)^2 is taken from the upper end the solver computed,
    # not rebuilt from the value and the half-width; at tol 1e-9 the rebuilt
    # value + tolerance_achieved differs from that end in the last place
    d = mycielskian(transitive_tournament(3), 2)
    expect = theta_bar(d.underlying(), tol).upper
    seen = []
    real = ThetaSolution.cap
    monkeypatch.setattr(ThetaSolution, "cap", lambda sol, k: seen.append(sol.upper) or real(sol, k))
    capacity_report(d, max_power=2, theta_tol=tol)
    assert seen == [expect]


def test_digraph_report_without_a_cap_searches(monkeypatch):
    def fail(g, tol):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(constructions.theta_mod, "theta_bar", fail)
    d = mycielskian(transitive_tournament(3), 2)
    report = capacity_report(d, max_power=2)
    assert report.errors == {} and report.theta is None
    square = report.lower_bounds[1].clique
    assert (square.size, square.nodes, square.closed_by) == (9, 527, "search")


def test_digraph_report_solves_no_cap_beyond_the_vertex_bound(monkeypatch):
    def fail(g, tol):
        raise AssertionError("theta_bar solved for a power that cannot be built")

    monkeypatch.setattr(constructions.theta_mod, "theta_bar", fail)
    report = capacity_report(transitive_tournament(70), max_power=2)
    assert list(report.errors) == ["lower_bound_k2"]
    assert report.errors["lower_bound_k2"].startswith("SizeLimitError")
    assert report.omega_tr.size == 70


def test_report_stops_at_the_first_power_beyond_the_bound(monkeypatch):
    # K2^6 fits 64 vertices; K2^7 is the first power beyond, and every later one is larger still
    monkeypatch.setenv("MYCTHETA_MAX_VERTICES", "64")
    report = capacity_report(complete_graph(2), max_power=10 ** 6)
    assert list(report.errors) == ["lower_bound_k7"]
    assert report.errors["lower_bound_k7"].startswith("SizeLimitError")
    assert [b.k for b in report.lower_bounds] == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("options, message", [
    ({"node_budget": 0}, "node budget must be at least 1"),
    ({"max_power": -1}, "max power must be at least 0"),
])
def test_report_rejects_bad_counts(options, message):
    with pytest.raises(DomainError, match=message):
        capacity_report(cycle_graph(5), **options)


def fail(*args, **kwargs):
    raise AssertionError("work done before the request was checked")


def test_every_entry_point_checks_its_budget_before_any_work(monkeypatch):
    # invariants._Budget owns the rule: no entry point builds, colours or searches first
    for module, name in ((invariants, "or_power"), (invariants, "greedy_coloring"),
                         (invariants, "_max_clique"), (invariants, "_longest_transitive_order"),
                         (constructions, "_level_power"), (constructions, "mycielskian"),
                         (constructions, "or_power"), (constructions, "_construction")):
        monkeypatch.setattr(module, name, fail)
    c5, t3 = cycle_graph(5), transitive_tournament(3)
    calls = [lambda b: clique_number(c5, b), lambda b: symmetric_clique_number(t3, b),
             lambda b: transitive_clique_number(t3, b), lambda b: chromatic_number(c5, b),
             lambda b: capacity_lower_bound(c5, 2, b), lambda b: no_lifted_clique_check(5, 3, 3, b),
             lambda b: chained_power_clique(c5, 1, b), lambda b: capacity_report(c5, node_budget=b)]
    for budget in (0, -1):
        for call in calls:
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f"^node budget must be at least 1, got {budget}$"):
                call(budget)
            assert time.perf_counter() - start < 0.1


def test_chained_power_clique_builds_its_host_before_its_clique_search(monkeypatch):
    g = or_power(cycle_graph(5), 2)
    monkeypatch.setenv("MYCTHETA_MAX_VERTICES", "30")
    monkeypatch.setattr(constructions, "clique_number", fail)
    with pytest.raises(SizeLimitError, match="^Mycielskian needs 51 vertices, exceeding the bound 30$"):
        chained_power_clique(g, 1)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


def networkx_omega(g: Graph) -> int:
    h = networkx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return max(len(c) for c in networkx.find_cliques(h))


@settings(max_examples=40)
@given(small_graphs())
def test_theta_cap_is_never_below_omega(g):
    sol = theta_bar(g)
    for k in (1, 2):
        assert sol.cap(k) >= networkx_omega(or_power(g, k))


@settings(max_examples=40)
@given(st.integers(1, 6), st.sampled_from([0.25, 0.5, 0.75]), st.integers(0, 10 ** 6))
def test_theta_cap_is_never_below_transitive_omega(n, p, seed):
    d = random_digraph(random.Random(seed), n, p)
    sol = theta_bar(d.underlying())
    for k in (1, 2):
        assert sol.cap(k) >= transitive_clique_number(or_power(d, k)).size
