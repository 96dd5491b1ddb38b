import itertools
import random
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from myctheta import (
    DomainError,
    Graph,
    SizeLimitError,
    complete_graph,
    cycle_graph,
    empty_graph,
    fractional_chromatic,
    lpu_formula,
    maximal_independent_sets,
    mycielskian,
    or_power,
    or_product,
)
from myctheta import fractional
from myctheta.errors import MycthetaInternal
from myctheta.fractional import _mask_members

from conftest import random_graph


def brute_force_mis(g: Graph):
    """Independent-set maximality by direct enumeration (oracle)."""
    sets = []
    for size in range(0, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if any(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                continue
            if any(
                all(not g.has_edge(w, u) for u in sub) for w in range(g.n) if w not in sub
            ):
                continue
            sets.append(frozenset(sub))
    return set(sets)


def test_mis_enumeration_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
        got = {frozenset(_mask_members(m)) for m in maximal_independent_sets(g)}
        assert got == brute_force_mis(g)


TARDIF_BASES = [("K2", complete_graph(2)), ("K3", complete_graph(3)), ("C5", cycle_graph(5)),
                ("C7", cycle_graph(7)), ("M(C5)", mycielskian(cycle_graph(5)))]


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("name, g", TARDIF_BASES, ids=[b[0] for b in TARDIF_BASES])
def test_chi_f_of_the_generalized_mycielskian_follows_tardif(name, g, r):
    # chi_f(M_r(G)) = x + 1 / sum_{i<r} (x - 1)^i with x = chi_f(G) (Tardif
    # 2001, Fractional chromatic numbers of cones over graphs); at r = 2 this
    # is x + 1/x.  Exact: the LP's value is an integer-checked rational
    x = fractional_chromatic(g).value
    expect = x + 1 / sum((x - 1) ** i for i in range(r))
    assert fractional_chromatic(mycielskian(g, r)).value == expect
    pinned = {("K3", 2): Fraction(10, 3), ("K3", 3): Fraction(22, 7), ("K3", 4): Fraction(46, 15),
              ("C5", 2): Fraction(29, 10), ("C5", 3): Fraction(103, 38),
              ("C5", 4): Fraction(341, 130), ("M(C5)", 4): Fraction(397701, 133690)}
    assert pinned.get((name, r), expect) == expect


def test_mis_cap(monkeypatch):
    monkeypatch.setattr(fractional, "MAX_INDEPENDENT_SETS", 0)
    with pytest.raises(SizeLimitError):
        maximal_independent_sets(empty_graph(3).complement().complement())


def recursive_mis(g: Graph, cap: int) -> Optional[list[int]]:
    """The maximal independent sets in the order of the one-frame-per-member
    recursive Bron-Kerbosch the enumeration replaced (the reference); None
    where it would raise past `cap` sets."""
    n = g.n
    comp_bits = [((1 << n) - 1) & ~g.bits[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > cap:
                raise SizeLimitError("cap")
            return
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

    try:
        if n:
            bk(0, (1 << n) - 1, 0)
    except SizeLimitError:
        return None
    return out


@given(st.integers(0, 20).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    st.one_of(st.none(), st.integers(0, 40)))))
def test_mis_order_matches_the_recursive_enumeration(case):
    # the order is the LP's column order, which fixes the basis and the printed cover
    n, keep, cap = case
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [p for p, k in zip(pairs, keep) if k])
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(fractional, "MAX_INDEPENDENT_SETS", cap)
        expect = recursive_mis(g, fractional.MAX_INDEPENDENT_SETS)
        if expect is None:
            with pytest.raises(SizeLimitError):
                maximal_independent_sets(g)
        else:
            assert maximal_independent_sets(g) == expect


def test_mis_of_a_large_edgeless_graph():
    # one set of 2000 members; a recursion of one frame per member raised RecursionError past 1000
    assert maximal_independent_sets(empty_graph(2000)) == [(1 << 2000) - 1]


def test_chi_f_families():
    for n in (1, 2, 3, 5):
        assert fractional_chromatic(complete_graph(n)).value == n
    assert fractional_chromatic(cycle_graph(5)).value == Fraction(5, 2)
    assert fractional_chromatic(cycle_graph(7)).value == Fraction(7, 3)
    assert fractional_chromatic(empty_graph(6)).value == 1


def test_chi_f_mycielskian_of_c5():
    assert fractional_chromatic(mycielskian(cycle_graph(5), 2)).value == Fraction(29, 10)


def test_chi_f_petersen():
    # vertex-transitive: chi_f = n / alpha = 10/4
    from conftest import petersen_graph

    g = petersen_graph()
    assert fractional_chromatic(g).value == Fraction(5, 2)
    # and the Mycielskian obeys the exact law: 5/2 + 2/5 = 29/10
    assert fractional_chromatic(mycielskian(g, 2)).value == Fraction(29, 10)


def test_chi_f_size_guard():
    with pytest.raises(SizeLimitError):
        fractional_chromatic(empty_graph(129))  # past the vertex cap
    # 11 disjoint triangles: 33 vertices and 3^11 maximal independent sets
    triangles = Graph(33, [(3 * i + a, 3 * i + b)
                           for i in range(11) for a, b in ((0, 1), (0, 2), (1, 2))])
    with pytest.raises(SizeLimitError):
        fractional_chromatic(triangles)
    with pytest.raises(DomainError):
        fractional_chromatic(Graph(0))


def assert_optimal_pair(g: Graph, res) -> None:
    """The cover and the clique are feasible and of equal value: both optimal."""
    assert all(w > 0 for _, w in res.cover_weights)
    assert sum(w for _, w in res.cover_weights) == res.value
    for v in range(g.n):
        assert sum(w for s, w in res.cover_weights if v in s) >= 1
    assert all(y >= 0 for y in res.clique_weights)
    for mask in maximal_independent_sets(g):
        members = _mask_members(mask)
        assert sum(res.clique_weights[v] for v in members) <= 1
    assert sum(res.clique_weights) == res.value


def test_cover_and_clique_are_feasible():
    rng = random.Random(37)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        assert_optimal_pair(g, fractional_chromatic(g))


def test_chi_f_at_scale():
    c5 = cycle_graph(5)
    mc5 = mycielskian(c5, 2)
    m3 = mycielskian(mycielskian(mc5, 2), 2)  # 47 vertices
    res = fractional_chromatic(m3)
    assert res.value == Fraction(969581, 272890) == lpu_formula(lpu_formula(lpu_formula(Fraction(5, 2))))
    assert_optimal_pair(m3, res)
    # chi_f is multiplicative over the disjunctive (OR) product
    product = or_product(c5, mc5)  # 55 vertices
    res = fractional_chromatic(product)
    assert res.value == Fraction(29, 4) == Fraction(5, 2) * Fraction(29, 10)
    assert_optimal_pair(product, res)
    # M(C5)^2, 121 vertices: lifted from M(C5), and solved as an LP by
    # `_solve`, the function the lift calls on the base
    square = or_power(mc5, 2)
    for res in (fractional_chromatic(square), fractional._solve(square)):
        assert res.value == Fraction(841, 100) == Fraction(29, 10) ** 2
        assert_optimal_pair(square, res)


# M(C5)^2 is the fourth power the lift is checked on, in test_chi_f_at_scale
LIFTED_POWERS = [("C5^2", cycle_graph(5), 2), ("C7^2", cycle_graph(7), 2),
                 ("C5^3", cycle_graph(5), 3)]


@pytest.mark.parametrize("name, base, t", LIFTED_POWERS, ids=[p[0] for p in LIFTED_POWERS])
def test_lifted_chi_f_equals_the_lp(name, base, t):
    g = or_power(base, t)
    lifted = fractional_chromatic(g)
    assert lifted.value == fractional._solve(g).value == fractional_chromatic(base).value ** t
    # the Kronecker power of the base's fractional clique, against the product loop
    base_clique, reference = fractional_chromatic(base).clique_weights, [Fraction(1)]
    for _ in range(t):
        reference = [y * z for y in reference for z in base_clique]
    assert lifted.clique_weights == tuple(reference)
    assert all(type(w) is Fraction for w in lifted.clique_weights)
    if g.n <= 49:  # C5^2 and C7^2: the product cover and clique, checked in Fractions
        assert_optimal_pair(g, lifted)


@pytest.mark.parametrize("base, t, value", [
    (mycielskian(cycle_graph(7), 2), 2, Fraction(58, 21) ** 2),  # 225 vertices
    (cycle_graph(7), 3, Fraction(343, 27)),                      # 343
    (mycielskian(cycle_graph(5), 2), 3, Fraction(24389, 1000)),  # 1331
], ids=["M(C7)^2", "C7^3", "M(C5)^3"])
def test_chi_f_of_powers_past_the_vertex_limit(base, t, value):
    # the 128-vertex limit applies to the base, so these are exact too
    g = or_power(base, t)
    assert g.n > fractional.MAX_VERTICES_CHI_F
    res = fractional_chromatic(g)
    assert res.value == value
    assert len(res.clique_weights) == g.n and sum(res.clique_weights) == value
    assert sum(w for _, w in res.cover_weights) == value


def test_lpu_identity_exact():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.7]))
        base = fractional_chromatic(g).value
        myc = fractional_chromatic(mycielskian(g, 2)).value
        assert myc == lpu_formula(base)


@st.composite
def covering_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@given(covering_graphs())
def test_chi_f_against_scipy_linprog(g):
    # independent floating-point LP oracle for the same covering program
    scipy_optimize = pytest.importorskip("scipy.optimize")
    masks = maximal_independent_sets(g)
    a_ub = np.zeros((g.n, len(masks)))
    for j, mask in enumerate(masks):
        a_ub[list(_mask_members(mask)), j] = -1.0
    lp = scipy_optimize.linprog(c=np.ones(len(masks)), A_ub=a_ub, b_ub=-np.ones(g.n),
                                bounds=(0, None), method="highs")
    assert lp.status == 0
    res = fractional_chromatic(g)
    assert abs(float(res.value) - lp.fun) < 1e-7
    assert_optimal_pair(g, res)


def _float_phase_returns(monkeypatch, wrong) -> list:
    """Make the float pivots end in `wrong(a)`; returns the start bases the
    exact pivots are given."""
    pivot = fractional._dual_simplex
    exact_starts = []

    def patched(a, c, basis, binv, tol):
        if tol:
            return wrong(a)
        exact_starts.append(list(basis))
        return pivot(a, c, basis, binv, tol)

    monkeypatch.setattr(fractional, "_dual_simplex", patched)
    return exact_starts


def _surplus(a):
    m = a.shape[0]
    return list(range(a.shape[1] - m, a.shape[1]))


@pytest.mark.parametrize("wrong", [
    pytest.param(_surplus, id="surplus"),
    pytest.param(lambda a: None, id="stalled"),
    pytest.param(lambda a: [0] * a.shape[0], id="singular"),
    pytest.param(lambda a: list(range(a.shape[0])), id="structural"),
])
def test_exact_fallback_after_a_wrong_float_basis(monkeypatch, wrong):
    exact_starts = _float_phase_returns(monkeypatch, wrong)
    g = mycielskian(cycle_graph(5), 2)
    res = fractional_chromatic(g)
    assert res.value == Fraction(29, 10)
    assert_optimal_pair(g, res)
    assert len(exact_starts) == 1


def test_exact_fallback_resumes_from_a_dual_feasible_float_basis(monkeypatch):
    # K2: the set {0} with the surplus of vertex 1 is dual feasible (y = (1, 0))
    # but leaves vertex 1 uncovered
    g = complete_graph(2)
    j = next(j for j, mask in enumerate(maximal_independent_sets(g)) if mask == 1)
    exact_starts = _float_phase_returns(monkeypatch, lambda a: [j, a.shape[1] - 1])
    assert fractional_chromatic(g).value == 2
    assert exact_starts == [[j, 3]]


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda y: [y[0] + 1] + y[1:], id="raised"),
    pytest.param(lambda y: [y[0] - 1, y[1] + 1] + y[2:], id="shifted"),
])
def test_corrupted_dual_raises_internal(monkeypatch, corrupt):
    solve = fractional._solve_basis

    def corrupted(a, c, basis):
        sol = solve(a, c, basis)
        return sol._replace(y=corrupt(sol.y))

    monkeypatch.setattr(fractional, "_solve_basis", corrupted)
    with pytest.raises(MycthetaInternal, match="certificate"):
        fractional_chromatic(cycle_graph(5))


def reference_inverse(b: np.ndarray):
    """(d, d b^-1) with d = |det(b)| > 0 by fraction-free Gauss-Jordan
    elimination of [b | I], the whole inverse at once (oracle); None when b
    is singular."""
    m = len(b)
    t = np.hstack([b, np.eye(m, dtype=np.int64)]).astype(object)
    prev = 1
    for k in range(m):
        nz = np.flatnonzero(t[k:, k])
        if not nz.size:
            return None
        p = k + int(nz[0])
        t[[k, p]] = t[[p, k]]
        piv = t[k, k]
        rest = np.arange(m) != k
        t[rest] = (piv * t[rest] - np.outer(t[rest, k], t[k])) // prev
        prev = piv
    adj = t[:, m:]
    return (prev, adj) if prev > 0 else (-prev, -adj)


def _matrices(max_m: int):
    return st.integers(1, max_m).flatmap(
        lambda m: st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=m, max_size=m))


@given(_matrices(9))
def test_exact_inverse(rows):
    # forward elimination and back-substitution on [b | I] give the adjugate
    # of the Gauss-Jordan oracle, over d = |det b|
    b = np.array(rows, dtype=np.int64)
    inv = fractional._solve_exact(b, np.eye(len(b), dtype=np.int64))
    det = round(np.linalg.det(b.astype(float)))  # |det| <= 6^9 here, so float64 rounds to it
    ref = reference_inverse(b)
    if ref is None:
        assert inv is None and det == 0
        return
    d, adj = inv
    assert d == ref[0] == abs(det) > 0
    assert (adj == ref[1]).all()
    assert (b.astype(object) @ adj == d * np.eye(len(b), dtype=np.int64)).all()


@given(_matrices(8).flatmap(lambda rows: st.tuples(
    st.just(rows), st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)),
    st.permutations(range(len(rows))))))
def test_solve_basis_matches_the_inverse(case):
    # (d, x, y) from two one-column solves equal those read off the oracle's
    # d B^-1, and None exactly when B is singular
    rows, c, basis = case
    a, c = np.array(rows, dtype=np.int64), np.array(c, dtype=np.int64)
    sol = fractional._solve_basis(a, c, basis)
    ref = reference_inverse(a[:, basis])
    if ref is None:
        assert sol is None
        return
    d, adj = ref
    assert tuple(sol) == (d, adj.sum(axis=1).tolist(), (c[basis] @ adj).tolist())
    b = a[:, basis].astype(object)
    assert (b @ sol.x == d).all() and (b.T @ sol.y == d * c[basis]).all()


def test_chi_f_sandwiched():
    from myctheta import chromatic_number, clique_number

    rng = random.Random(43)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        chi_f = fractional_chromatic(g).value
        assert clique_number(g).size <= chi_f <= chromatic_number(g).value
