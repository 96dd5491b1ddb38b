import itertools
import random
import time
from typing import Optional

import networkx
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from myctheta import (
    Digraph,
    DomainError,
    Graph,
    capacity_lower_bound,
    chromatic_number,
    clique_number,
    complete_graph,
    cycle_graph,
    empty_graph,
    mycielskian,
    or_power,
    path_graph,
    symmetric_clique_number,
    transitive_clique_number,
    transitive_tournament,
)
from myctheta import invariants, symmetry
from myctheta.errors import MycthetaInternal
from myctheta.graphs import (
    _bits_matrix,
    _power_base,
    _power_generators,
    format_edgelist,
    parse_edgelist,
    parse_family,
)
from myctheta.invariants import (
    CliqueResult,
    _Budget,
    _degeneracy_order,
    _greedy_clique,
    _k_colorable,
    _max_clique,
    _max_clique_bits,
    _ordered_bits,
    greedy_coloring,
    verify_clique,
    verify_coloring,
)
from myctheta.symmetry import (
    _automorphisms,
    _is_automorphism,
    _orbit_labels,
    _stabilizer,
    _stack,
    orbit_masks,
)

from conftest import petersen_graph, random_digraph, random_graph, random_graph_with_edge


def neighbor_lists(g: Graph) -> list[list[int]]:
    """Sorted neighbors of every vertex, read off the boolean matrix."""
    return [[u for u, adjacent in enumerate(row) if adjacent] for row in g.bool_matrix()]


def degeneracy_reference(g: Graph) -> tuple[list[int], tuple[int, ...]]:
    """Smallest-last order and relabeled bitsets, built from the neighbor lists."""
    neighbors = neighbor_lists(g)
    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    order = []
    for _ in range(g.n):
        v = min((u for u in range(g.n) if not removed[u]), key=lambda u: (deg[u], u))
        order.append(v)
        removed[v] = True
        for u in neighbors[v]:
            if not removed[u]:
                deg[u] -= 1
    order.reverse()
    pos = {v: i for i, v in enumerate(order)}
    return order, tuple(sum(1 << pos[u] for u in neighbors[order[i]]) for i in range(g.n))


def test_ordered_bits_match_neighbor_reference():
    rng = random.Random(17)
    graphs = [or_power(cycle_graph(5), 3), petersen_graph(), mycielskian(cycle_graph(7), 3)]
    graphs += [random_graph(rng, rng.randint(1, 30), rng.random()) for _ in range(20)]
    for g in graphs:
        assert _ordered_bits(g) == degeneracy_reference(g)


def first_fit_color_order(bits: tuple[int, ...], cand: int) -> tuple[list[int], list[int]]:
    """Per-vertex first-fit coloring in index order; vertices sorted by color
    and the color of each position."""
    classes: list[int] = []
    order: list[list[int]] = []
    m = cand
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        for ci, cmask in enumerate(classes):
            if not (bits[v] & cmask):
                classes[ci] |= 1 << v
                order[ci].append(v)
                break
        else:
            classes.append(1 << v)
            order.append([v])
    flat = [v for members in order for v in members]
    bounds = [ci + 1 for ci, members in enumerate(order) for _ in members]
    return flat, bounds


def first_fit_clique_number(g: Graph, node_budget=None) -> CliqueResult:
    """clique_number with every node bounded by first_fit_color_order and no
    symmetry pruning: the unpruned first-fit tree."""
    order, bits = _ordered_bits(g)
    pos = {v: i for i, v in enumerate(order)}
    seed = tuple(sorted(pos[v] for v in _greedy_clique(g, order)))
    budget = _Budget(node_budget)
    best = [len(seed), seed]

    def expand(mask: int, current: list[int]) -> None:
        if not budget.tick():
            return
        flat, bounds = first_fit_color_order(bits, mask)
        for i in range(len(flat) - 1, -1, -1):
            if budget.nodes > budget.limit:
                return
            v = flat[i]
            if len(current) + bounds[i] <= best[0]:
                return
            current.append(v)
            if len(current) > best[0]:
                best[:] = [len(current), tuple(sorted(current))]
            sub = mask & bits[v]
            if sub:
                expand(sub, current)
            current.pop()
            mask &= ~(1 << v)

    expand((1 << g.n) - 1, [])
    witness = tuple(sorted(order[i] for i in best[1]))
    return CliqueResult(best[0], witness, budget.within_limit, budget.nodes)


def clique_with(g: Graph, budget, rows) -> CliqueResult:
    """clique_number(g, budget) pruned by the group the rows span instead of
    the one `symmetry.generators` takes from g, each row p (p[v] the image of
    v) in g's labels; () gives the unpruned tree."""
    gens = _stack(rows, g.n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmetry, "generators", lambda h: gens)
        return clique_number(g, budget)


@pytest.mark.parametrize("k, budget, size, nodes, exhausted", [
    (3, None, 10, 149_498, True),
    (3, 1000, 10, 1001, False),
    (4, 20_000, 19, 20_001, False),
])
def test_clique_search_tree_matches_first_fit_on_c5_powers(k, budget, size, nodes, exhausted):
    g = or_power(cycle_graph(5), k)
    res = clique_with(g, budget, ())
    assert (res.size, res.nodes, res.exhausted) == (size, nodes, exhausted)
    assert res == first_fit_clique_number(g, budget)


def test_clique_search_tree_matches_first_fit():
    rng = random.Random(31)
    graphs = [petersen_graph(), mycielskian(cycle_graph(7), 3)]
    graphs += [random_graph(rng, rng.randint(1, 40), rng.random()) for _ in range(40)]
    for g in graphs:
        for budget in (None, 5, 50):
            assert clique_with(g, budget, ()) == first_fit_clique_number(g, budget)


def circulant(n: int, jumps) -> Graph:
    return Graph(n, [(i, (i + d) % n) for i in range(n) for d in jumps])


def symmetric_and_random_graphs() -> list[Graph]:
    rng = random.Random(2011)
    c5, c7 = cycle_graph(5), cycle_graph(7)
    graphs = [petersen_graph(), mycielskian(c7, 3), mycielskian(c5, 3), mycielskian(complete_graph(4)),
              or_power(c5, 2), or_power(c7, 2), or_power(cycle_graph(6), 2),
              or_power(mycielskian(c5), 2), or_power(mycielskian(complete_graph(4)), 2),
              or_power(complete_graph(3), 2), or_power(path_graph(4), 2)]
    for _ in range(20):
        n = rng.randint(6, 30)
        graphs.append(circulant(n, rng.sample(range(1, n // 2 + 1), rng.randint(1, n // 4 + 1))))
    graphs += [random_graph(rng, rng.randint(2, 30), rng.random()) for _ in range(20)]
    return graphs


def test_root_orbit_pruning_keeps_the_unpruned_answers():
    for g in symmetric_and_random_graphs():
        res, ref = clique_number(g), first_fit_clique_number(g)
        assert (res.size, res.witness, res.exhausted) == (ref.size, ref.witness, ref.exhausted)
        assert res.nodes <= ref.nodes
        for budget in (3, 20, 100):
            assert clique_number(g, budget).size >= first_fit_clique_number(g, budget).size


def test_root_orbit_pruning_changes_only_nodes_on_petersen_and_m3_c7():
    for g in (petersen_graph(), mycielskian(cycle_graph(7), 3)):
        res, ref = clique_number(g), first_fit_clique_number(g)
        assert res == CliqueResult(ref.size, ref.witness, ref.exhausted, res.nodes)
        assert res.nodes < ref.nodes


FAMILY_POWERS = ("power:cycle:5:t=2", "power:cycle:5:t=3", "power:cycle:7:t=2",
                 "power:mycielski:cycle:5:t=2")


def lifted_generators(g: Graph):
    """The generators `clique_number` takes for g given none, when g is an
    OR-power of its leading block: the finder's automorphisms of that block,
    lifted to g.  None when g is no such power."""
    power = _power_base(g)
    if power is None:
        return None
    base, t = power
    return _power_generators(_automorphisms(base.bool_matrix()), base.n, t)


def search_generators(g: Graph) -> np.ndarray:
    """The generators `clique_number(g)` prunes by, relabelled into its
    search's order as `_max_clique` relabels them."""
    order = _ordered_bits(g)[0]
    return np.argsort(order).astype(np.int32)[symmetry.generators(g)[:, order]]


def root_orbit_count(g: Graph) -> int:
    """The number of root orbits `clique_number(g)` prunes by."""
    return len(set(orbit_masks(search_generators(g))))


def generator_cases():
    """(graph, generator sets): the finder's automorphisms of the graphs of
    `symmetric_and_random_graphs` and of the family powers, and the finder's
    automorphisms of the family powers' bases lifted to them."""
    cases = [(g, [_automorphisms(g.bool_matrix())]) for g in symmetric_and_random_graphs()]
    for spec in FAMILY_POWERS:
        g = parse_family(spec)
        cases.append((g, [lifted_generators(g), _automorphisms(g.bool_matrix())]))
    return cases


def test_depth_one_pruning_keeps_the_unpruned_answers():
    for g, generator_sets in generator_cases():
        for budget in (None, 3, 20, 100):
            ref = first_fit_clique_number(g, budget)
            for gens in generator_sets:
                res = clique_with(g, budget, gens)
                assert (res.size, res.witness) == (ref.size, ref.witness)
                assert res.nodes <= ref.nodes
                if budget is None:
                    assert res.exhausted and ref.exhausted
                else:
                    # the pruned tree is smaller, so it may finish where the unpruned one is cut
                    assert res.exhausted >= ref.exhausted


@pytest.mark.parametrize("spec, nodes", [
    ("power:cycle:5:t=3", 1190),
    ("power:mycielski:cycle:5:t=2", 52),
    ("power:mycielski:complete:2:t=2", 6),  # M(K2) is C5: the finder gives it all of D5
])
def test_family_generators_prune_depth_one(spec, nodes):
    # the same counts from a family spec and from its edge list: the lift
    # is read off the graph alone
    g = parse_family(spec)
    res, plain = clique_number(g), clique_with(g, None, ())
    assert res == CliqueResult(plain.size, plain.witness, True, nodes)
    assert clique_number(parse_edgelist(format_edgelist(g))) == res


def test_finder_generators_prune_depth_one_on_c5_cube():
    # the finder's automorphisms of C5^3 itself prune the root and depth 1
    # as far as those of C5 lifted to C5^3, which the search takes by default
    g = or_power(cycle_graph(5), 3)
    res, whole = clique_number(g), clique_with(g, None, _automorphisms(g.bool_matrix()))
    assert res == CliqueResult(whole.size, whole.witness, True, 1190)


def test_c7_cube_with_family_generators():
    res = clique_number(parse_family("power:cycle:7:t=3"))
    assert (res.size, res.exhausted, res.nodes) == (8, True, 45_039)


def test_c7_cube_from_an_edge_list():
    # a graph read from a file is recognised as C7^3, and the finder runs on C7
    g = parse_edgelist(format_edgelist(or_power(cycle_graph(7), 3)))
    res = clique_number(g)
    assert (res.size, res.exhausted, res.nodes) == (8, True, 45_039)
    assert res == clique_number(parse_family("power:cycle:7:t=3"))


def test_power_bound_lifts_the_finders_automorphisms_of_the_base(monkeypatch):
    # the finder runs on g, never on g^k, where it costs far more
    sizes = []
    finder = symmetry._automorphisms
    monkeypatch.setattr(symmetry, "_automorphisms", lambda a: sizes.append(len(a)) or finder(a))
    res = capacity_lower_bound(mycielskian(cycle_graph(5)), 2).clique
    assert sizes == [11] and (res.size, res.exhausted, res.nodes) == (5, True, 52)
    # on M(C5)^3 the lift gives the product group's 10 root orbits
    assert root_orbit_count(or_power(mycielskian(cycle_graph(5)), 3)) == 10


def test_empty_generators_give_the_unpruned_tree():
    for g in symmetric_and_random_graphs()[:12]:
        assert clique_with(g, 50, ()) == first_fit_clique_number(g, 50)


# the vertices of each graph's base block: M(C5^2) is no OR-power, so its
# base is the whole graph
BASE_SIZES = {"power:complete:3:t=4": 3, "power:mycielski:cycle:5:t=3": 11,
              "mycielski:power:cycle:5:t=2": 51, "power:path:4:t=2": 4}


@pytest.mark.parametrize("spec, count", [
    ("power:complete:3:t=4", 1),
    ("power:mycielski:cycle:5:t=3", 10),
    ("mycielski:power:cycle:5:t=2", 3),
    ("power:path:4:t=2", 3),
])
def test_root_orbits_from_structural_generators(spec, count, monkeypatch):
    # the same counts from a family spec and from its edge list, with the
    # finder run on the base block alone; run on the search's bits of K3^4
    # it finds 69 orbits, and 18 on those of M(C5)^3
    g = parse_family(spec)
    finder = symmetry._automorphisms

    def base_only(a):
        assert len(a) == BASE_SIZES[spec], "orbit finder called on more than the base block"
        return finder(a)

    monkeypatch.setattr(symmetry, "_automorphisms", base_only)
    for h in (g, parse_edgelist(format_edgelist(g))):
        assert root_orbit_count(h) == count
        clique_number(h, 2000)  # prunes by the lifted generators; M(C5)^3 is cut


def near_power() -> Graph:
    """C5^2 with one edge of its last vertex toggled: row 0 is still that of
    C5^2, so only the full comparison tells it is no power."""
    a = or_power(cycle_graph(5), 2).bool_matrix()
    a[24, 12] = a[12, 24] = True
    return Graph(25, a)


def test_near_power_falls_back_to_the_finder(monkeypatch):
    g = near_power()
    assert _power_base(g) is None
    sizes = []
    finder = symmetry._automorphisms
    monkeypatch.setattr(symmetry, "_automorphisms", lambda a: sizes.append(len(a)) or finder(a))
    res, ref = clique_number(g), first_fit_clique_number(g)
    assert sizes == [25] and (res.size, res.witness, res.exhausted) == (ref.size, ref.witness, True)


def test_stabilizer_fixes_its_point_and_has_the_full_orbits():
    g = or_power(cycle_graph(5), 3)
    stack = search_generators(g)
    a = _bits_matrix(_ordered_bits(g)[1])
    for v in (0, 62, 124):
        schreier = _stabilizer(stack, v)
        assert (schreier[:, v] == v).all()
        assert all(_is_automorphism(a, s) for s in schreier)
    # Stab((0,0,0)) in D5 wr S3: a coordinate is 0, +-1 or +-2, up to order
    stack = _stack(lifted_generators(g), g.n)
    assert len(set(_orbit_labels(_stabilizer(stack, 0)).tolist())) == 10


def test_capped_schreier_generators_span_a_subgroup(monkeypatch):
    g = or_power(cycle_graph(7), 3)
    gens = lifted_generators(g)
    stack = _stack(gens, g.n)
    full = orbit_partition(_orbit_labels(_stabilizer(stack, 0)).tolist())
    cube = or_power(cycle_graph(5), 3)
    for cells in (0, 3000, 50_000):
        monkeypatch.setattr(symmetry, "_SCHREIER_CELLS", cells)
        schreier = _stabilizer(stack, 0)
        assert schreier.size <= max(cells, len(gens) * g.n)
        assert refines(orbit_partition(_orbit_labels(schreier).tolist()), full)
        res = clique_number(cube)
        assert (res.size, res.exhausted) == (10, True) and res.nodes >= 1190


def test_orbit_masks_of_the_whole_group():
    # C5^3 is vertex-transitive; M(C5)^3 has the product group's 10 orbits
    for g, count in ((or_power(cycle_graph(5), 3), 1), (or_power(mycielskian(cycle_graph(5)), 3), 10)):
        assert len(set(orbit_masks(search_generators(g), ()))) == count


def test_orbit_masks_of_a_point_stabilizer():
    g = or_power(cycle_graph(5), 3)
    gens = search_generators(g)
    for v in (0, 62, 124):
        masks = orbit_masks(gens, (v,))
        assert masks[v] == 1 << v
        assert all(mask >> u & 1 for u, mask in enumerate(masks))


@pytest.mark.parametrize("spec", ["power:cycle:5:t=3", "power:mycielski:cycle:5:t=2", "power:cycle:7:t=2"])
def test_generators_of_a_family_graph_and_its_edge_list_agree(spec):
    g = parse_family(spec)
    h = parse_edgelist(format_edgelist(g))
    assert np.array_equal(search_generators(g), search_generators(h))


def test_generators_are_automorphisms_in_the_graphs_own_labels():
    graphs = [parse_family(spec) for spec in FAMILY_POWERS]
    graphs += [parse_edgelist(format_edgelist(g)) for g in graphs]
    graphs += [petersen_graph(), mycielskian(cycle_graph(7), 3), near_power()]
    for g in graphs:
        gens = symmetry.generators(g)
        a = g.bool_matrix()
        assert gens.shape[1] == g.n and gens.dtype.kind == "i" and len(gens)
        for p in gens:
            assert sorted(p.tolist()) == list(range(g.n))
            assert (a[np.ix_(p, p)] == a).all()


def relabelled_clique_number(g: Graph, node_budget=None) -> CliqueResult:
    """clique_number as it was when `symmetry` took the search's order (the
    reference): the finder run on g relabelled into the degeneracy order, or
    a power's lifted generators relabelled into it, with no conjugation in
    the search."""
    order, bits = _ordered_bits(g)
    pos = {v: i for i, v in enumerate(order)}
    seed = tuple(sorted(pos[v] for v in _greedy_clique(g, order)))
    budget = _Budget(node_budget)
    gens = []

    def orbits(current: list[int]) -> list[int]:
        if not gens:
            at = np.asarray(order)
            power = _power_base(g)
            if power is None:
                gens.append(_stack(_automorphisms(g.bool_matrix()[np.ix_(at, at)]), g.n))
            else:
                relabel = np.empty(g.n, dtype=np.intp)
                relabel[at] = np.arange(g.n)
                base, t = power
                lifted = _power_generators(_automorphisms(base.bool_matrix()), base.n, t)
                gens.append(_stack([relabel[p[at]] for p in lifted], g.n))
        return orbit_masks(gens[0], current)

    size, witness = _max_clique_bits(bits, budget, (len(seed), seed), orbits)
    return CliqueResult(size, tuple(sorted(order[i] for i in witness)), budget.within_limit, budget.nodes)


def test_conjugated_generators_keep_the_relabelled_search():
    # 200 disjoint C5 cut the finder's budget, so its answer depends on the
    # labelling it runs on
    c5s = Graph(1000, [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(200) for j in range(5)])
    for g in symmetric_and_random_graphs() + [c5s, or_power(cycle_graph(5), 3)]:
        for budget in (None, 50, 1000):
            assert clique_number(g, budget) == relabelled_clique_number(g, budget)


@pytest.mark.parametrize("bad", [
    [np.array([1, 0] + list(range(2, 25)))],      # a transposition of C5^2 that is no automorphism
    [np.arange(24)],                               # not a permutation of 25 vertices
    [np.array([0] * 25)],
])
def test_non_automorphism_generator_raises(bad, monkeypatch):
    # each lifted row is checked one by one, so no bad row gets as far as stacking
    lift = symmetry._power_generators
    monkeypatch.setattr(symmetry, "_power_generators", lambda *args: lift(*args) + tuple(bad))
    with pytest.raises(MycthetaInternal):
        clique_number(or_power(cycle_graph(5), 2))


def test_lifted_generators_are_checked(monkeypatch):
    # a lifted permutation that is no automorphism of the power raises
    lift = symmetry._power_generators
    swap = np.array([1, 0] + list(range(2, 25)))
    monkeypatch.setattr(symmetry, "_power_generators", lambda *args: lift(*args) + (swap,))
    with pytest.raises(MycthetaInternal, match="failed its check"):
        clique_number(or_power(cycle_graph(5), 2))


@pytest.mark.parametrize("g", [complete_graph(7), empty_graph(6), cycle_graph(4), cycle_graph(9)])
def test_generators_are_checked_only_when_a_second_branch_starts(g, monkeypatch):
    # each of these searches ends in its first branch at depth 0 and 1, so
    # neither the power test nor the finder runs
    def fail(h):
        raise AssertionError("generators taken")

    monkeypatch.setattr(symmetry, "generators", fail)
    assert clique_number(g).exhausted


@st.composite
def family_specs(draw):
    """A family spec of at most three constructors and 200 vertices, and its vertex count."""
    base = draw(st.sampled_from(["cycle", "complete", "empty", "path"]))
    n = draw(st.integers(3 if base == "cycle" else 1, 7))
    spec, size = f"{base}:{n}", n
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            r = draw(st.integers(1, 3))
            spec, size = f"mycielski:{spec}:r={r}", r * size + 1
        else:
            t = draw(st.integers(1, 3))
            spec, size = f"power:{spec}:t={t}", size ** t
    assume(size <= 200)
    return spec


@given(family_specs())
def test_structural_generators_are_automorphisms_and_keep_the_answers(spec):
    # a power spec's graph is always recognised, if perhaps over a smaller base
    g = parse_family(spec)
    gens = lifted_generators(g)
    if spec.startswith("power:") and not spec.endswith(":t=1") and g.n > 1:
        assert gens is not None
    a = g.bool_matrix()
    for p in gens or ():
        assert sorted(p.tolist()) == list(range(g.n))
        assert (a[np.ix_(p, p)] == a).all()
    res, ref = clique_number(g), clique_with(g, None, ())
    assert (res.size, res.exhausted) == (ref.size, ref.exhausted) == (ref.size, True)
    assert res.nodes <= ref.nodes


def orbit_partition(rep: list[int]) -> set[frozenset[int]]:
    cells: dict[int, set[int]] = {}
    for v, root in enumerate(rep):
        cells.setdefault(root, set()).add(v)
    return {frozenset(c) for c in cells.values()}


def finder_orbits(a: np.ndarray) -> list[int]:
    """The least vertex of each vertex's orbit under the automorphisms that
    `_automorphisms` finds on the graph with adjacency matrix a."""
    return _orbit_labels(_stack(_automorphisms(a), len(a))).tolist()


def networkx_automorphisms(g: Graph) -> list[dict[int, int]]:
    """Every automorphism of g, as networkx enumerates them."""
    h = networkx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return list(networkx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


def networkx_orbits(g: Graph, automorphisms: Optional[list[dict[int, int]]] = None) -> set[frozenset[int]]:
    """Orbits of every automorphism networkx enumerates (or of those given)."""
    images: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for iso in networkx_automorphisms(g) if automorphisms is None else automorphisms:
        for v, w in iso.items():
            images[v].add(w)
    return {frozenset(c) for c in images.values()}


def refines(finer: set[frozenset[int]], coarser: set[frozenset[int]]) -> bool:
    return all(any(c <= d for d in coarser) for c in finer)


def group_order(perms: list[np.ndarray], n: int) -> int:
    """Order of the group the permutations generate, by closure."""
    gens = [p.tolist() for p in perms]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        new = {tuple(x[i] for i in p) for x in frontier for p in gens} - seen
        seen |= new
        frontier = list(new)
    return len(seen)


def test_orbits_split_what_color_refinement_cannot():
    # C6 and two triangles: every vertex has degree 2, so refinement leaves one cell
    g = Graph(12, [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)])
    assert orbit_partition(finder_orbits(g.bool_matrix())) == {frozenset(range(6)), frozenset(range(6, 12))}


def test_orbits_of_a_rigid_graph_are_singletons():
    h = networkx.frucht_graph()
    g = Graph(h.number_of_nodes(), list(h.edges()))
    assert finder_orbits(g.bool_matrix()) == list(range(g.n))


@pytest.mark.parametrize("g, count", [
    (or_power(cycle_graph(5), 3), 1),
    (mycielskian(cycle_graph(5)), 3),
    (or_power(mycielskian(complete_graph(4)), 2), 6),
    (or_power(mycielskian(cycle_graph(5)), 2), 6),
])
def test_orbit_counts(g, count):
    assert len(set(finder_orbits(g.bool_matrix()))) == count


def test_orbits_refine_networkx_orbits():
    rng = random.Random(5)
    graphs = [random_graph(rng, rng.randint(1, 8), rng.random()) for _ in range(60)]
    # C5 and M(C5) need a reflection besides the rotation that merges their orbits
    graphs += [petersen_graph(), or_power(path_graph(3), 2), circulant(8, (1, 4)), cycle_graph(5),
               mycielskian(cycle_graph(5))]
    for g in graphs:
        automorphisms = networkx_automorphisms(g)
        assert refines(orbit_partition(finder_orbits(g.bool_matrix())), networkx_orbits(g, automorphisms))
        # found to the end, down the stabilizer chain, they generate the whole group
        assert group_order(_automorphisms(g.bool_matrix()), g.n) == len(automorphisms)


def test_spent_refinement_budget_keeps_a_finer_partition(monkeypatch):
    cube = or_power(cycle_graph(5), 3)
    petersen = petersen_graph()
    full = {g: orbit_partition(finder_orbits(g.bool_matrix())) for g in (cube, petersen)}
    assert [len(p) for p in full.values()] == [1, 1]
    for blocks in (0, 1, 5, 20):
        monkeypatch.setattr(symmetry, "_ORBIT_BLOCKS", blocks)
        cut = orbit_partition(finder_orbits(cube.bool_matrix()))
        assert len(cut) > 1 and refines(cut, full[cube])
        assert refines(orbit_partition(finder_orbits(petersen.bool_matrix())), networkx_orbits(petersen))
        res = clique_with(cube, None, _automorphisms(cube.bool_matrix()))
        assert (res.size, res.exhausted) == (10, True) and res.nodes > 12_887


def test_orbits_merge_only_through_verified_automorphisms(monkeypatch):
    monkeypatch.setattr(symmetry, "_is_automorphism", lambda a, p: False)
    assert finder_orbits(or_power(cycle_graph(5), 3).bool_matrix()) == list(range(125))


@pytest.mark.parametrize("g", [complete_graph(7), empty_graph(6), cycle_graph(4), cycle_graph(9)])
def test_single_root_branch_never_calls_the_orbit_finder(g, monkeypatch):
    def fail(a):
        raise AssertionError("orbit finder called")

    monkeypatch.setattr(symmetry, "_automorphisms", fail)
    assert clique_number(g).exhausted


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@given(simple_graphs())
def test_clique_number_matches_networkx(g):
    h = networkx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    res = clique_number(g)
    assert res.exhausted and verify_clique(g, res.witness)
    assert res.size == max(len(c) for c in networkx.find_cliques(h))


@given(simple_graphs())
def test_decision_search_answers_omega_at_least_k(g):
    # started from a best size of k - 1 with no witness, the search finds a
    # clique exactly when omega(g) >= k, and one larger than k - 1 when it does
    omega = clique_number(g).size
    for k in range(1, g.n + 2):
        budget = _Budget(None)
        witness = _max_clique(g, budget, beat=k - 1)
        assert bool(witness) == (omega >= k)
        assert budget.within_limit and verify_clique(g, witness)
        assert not witness or k <= len(witness) <= omega


def brute_force_omega(g: Graph) -> int:
    best = 1 if g.n else 0
    for size in range(2, g.n + 1):
        found = False
        for sub in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def test_clique_examples():
    assert clique_number(cycle_graph(5)).size == 2
    assert clique_number(complete_graph(6)).size == 6
    assert clique_number(empty_graph(4)).size == 1
    with pytest.raises(DomainError):
        clique_number(Graph(0))


def test_clique_against_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
        res = clique_number(g)
        assert res.exhausted
        assert res.size == brute_force_omega(g)
        assert verify_clique(g, res.witness)


def pairwise_greedy_clique(g: Graph, order: list[int]) -> tuple[int, ...]:
    clique: list[int] = []
    for v in order:
        if all(g.has_edge(v, u) for u in clique):
            clique.append(v)
    return tuple(sorted(clique))


def pairwise_is_clique(g: Graph, witness: tuple[int, ...]) -> bool:
    return all(g.has_edge(u, v) for i, u in enumerate(witness) for v in witness[i + 1:])


def test_bitset_clique_checks_match_the_pairwise_reference():
    rng = random.Random(31)
    graphs = [petersen_graph(), or_power(cycle_graph(5), 2), complete_graph(6), empty_graph(4)]
    graphs += [random_graph(rng, rng.randint(1, 25), rng.random()) for _ in range(40)]
    for g in graphs:
        order = list(range(g.n))
        rng.shuffle(order)
        assert _greedy_clique(g, order) == pairwise_greedy_clique(g, order)
        for _ in range(30):
            witness = tuple(rng.randrange(g.n) for _ in range(rng.randint(0, 6)))
            assert verify_clique(g, witness) == pairwise_is_clique(g, witness)
    k4, c5 = complete_graph(4), cycle_graph(5)
    assert verify_clique(k4, (0, 1, 2, 3)) and verify_clique(k4, (2,)) and verify_clique(k4, ())
    assert not verify_clique(k4, (0, 1, 1)) and not verify_clique(k4, (3, 3))
    assert verify_clique(c5, (0, 1)) and not verify_clique(c5, (0, 2)) and not verify_clique(c5, (4, 0, 1))
    t3 = transitive_tournament(3)  # a digraph's witness is an order: each member has an arc to every later one
    assert verify_clique(t3, (0, 1, 2)) and not verify_clique(t3, (0, 2, 1)) and not verify_clique(t3, (0, 0))


@st.composite
def graphs_with_orders(draw):
    """A graph or digraph on 1..7 vertices and an order of its vertices that
    may repeat one."""
    n = draw(st.integers(1, 7))
    a = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(a, False)
    g = Digraph(n, a) if draw(st.booleans()) else Graph(n, a)
    return g, tuple(draw(st.lists(st.integers(0, n - 1), max_size=n + 1)))


@given(graphs_with_orders())
def test_verify_clique_matches_the_forward_pair_reference(case):
    # a digraph's witness is a transitive order: every forward pair is an arc
    g, order = case
    o = np.asarray(order, dtype=np.intp)
    a = g.bool_matrix()
    assert verify_clique(g, order) == bool(a[np.ix_(o, o)][np.triu_indices(len(o), 1)].all())


def test_transitive_witness_is_re_verified(monkeypatch):
    monkeypatch.setattr(invariants, "verify_clique", lambda g, witness: False)
    with pytest.raises(MycthetaInternal, match="transitive witness failed re-verification"):
        transitive_clique_number(transitive_tournament(3))


def test_clique_mycielski_preserved():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph_with_edge(rng, rng.randint(2, 8), 0.5)
        assert clique_number(mycielskian(g, 2)).size == clique_number(g).size


def test_clique_or_square_of_c5():
    p = or_power(mycielskian(complete_graph(2), 2), 2)
    res = clique_number(p)
    assert res.size == 5 and res.exhausted
    assert verify_clique(p, res.witness)


def test_clique_budget_truncation():
    g = or_power(cycle_graph(5), 2)
    res = clique_number(g, node_budget=2)
    assert not res.exhausted
    assert verify_clique(g, res.witness)
    full = clique_number(g)
    assert full.size >= res.size


def test_searches_given_no_budget_stop_at_the_default(monkeypatch):
    # DEFAULT_BUDGET is read when a search starts: at 1000 nodes, every search
    # below needs more and reports itself truncated, closed by nothing
    from myctheta import capacity_report

    monkeypatch.setattr(invariants, "DEFAULT_BUDGET", 1000)
    omega = clique_number(or_power(cycle_graph(5), 4))
    assert (omega.size, omega.nodes, omega.exhausted, omega.closed_by) == (19, 1001, False, None)
    bounds = capacity_report(cycle_graph(5), max_power=4).to_dict()["lower_bounds"]
    assert [(b["k"], b["exhausted"], b["closed_by"]) for b in bounds] == [
        (1, True, "search"), (2, True, "search"), (3, False, None), (4, False, None)]
    m_t3_cube = or_power(mycielskian(transitive_tournament(3)), 3)
    # the transitive search stops at the node past its budget, as the others do
    for budget, nodes in ((None, 1001), (5000, 5001)):
        omega_tr = transitive_clique_number(m_t3_cube, budget)
        assert (omega_tr.size, omega_tr.nodes, omega_tr.exhausted, omega_tr.closed_by) == (27, nodes, False, None)
        assert verify_clique(m_t3_cube, omega_tr.witness)
    chi = chromatic_number(or_power(cycle_graph(7), 2))  # 20 145 nodes at the real default
    assert (chi.lo, chi.hi, chi.nodes, chi.exhausted) == (6, 9, 1001, False)


def test_symmetric_clique():
    assert symmetric_clique_number(transitive_tournament(5)).size == 1
    bidir = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    assert symmetric_clique_number(bidir).size == 4


def test_transitive_clique_examples():
    for n in (1, 2, 4, 6):
        res = transitive_clique_number(transitive_tournament(n))
        assert res.size == n
        assert res.witness == tuple(range(n))
    cyc3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert transitive_clique_number(cyc3).size == 2


def test_symmetric_at_most_transitive():
    rng = random.Random(19)
    for _ in range(60):
        d = random_digraph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.7]))
        assert symmetric_clique_number(d).size <= transitive_clique_number(d).size


def test_transitive_or_square_of_mt2():
    d = or_power(mycielskian(transitive_tournament(2), 2), 2)
    res = transitive_clique_number(d)
    assert res.size == 5 and res.exhausted
    for u, v in itertools.combinations(res.witness, 2):
        assert d.has_arc(u, v)


def test_transitive_search_tree_on_mt3_square():
    d = or_power(mycielskian(transitive_tournament(3), 2), 2)
    res = transitive_clique_number(d)
    assert (res.size, res.nodes, res.exhausted) == (9, 527, True)
    assert res.witness == (0, 1, 2, 7, 8, 9, 14, 15, 16)
    assert res.closed_by == "search"


def reference_longest_transitive_order(bits, full, budget):
    """The transitive search as it was before frames stopped at full length:
    every frame tries each of its candidates until the budget is spent."""
    memo = {}

    def best(cand):
        if cand == 0:
            return 0, ()
        if cand in memo:
            return memo[cand]
        if not budget.tick():
            return 0, ()
        length, order = 0, ()
        m = cand
        while m and budget.within_limit:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            sub = cand & bits[v]
            if 1 + sub.bit_count() > length:
                r, tail = best(sub)
                if 1 + r > length:
                    length, order = 1 + r, (v,) + tail
        if budget.within_limit:
            memo[cand] = (length, order)
        return length, order

    return best(full)


def test_transitive_search_tree_matches_reference(monkeypatch):
    rng = random.Random(43)
    digraphs = [or_power(mycielskian(transitive_tournament(3), 2), 2),
                or_power(transitive_tournament(6), 2), transitive_tournament(12)]
    digraphs += [random_digraph(rng, rng.randint(1, 12), rng.choice([0.3, 0.6, 0.9])) for _ in range(40)]
    budgets = (None, 5, 50)
    found = [[transitive_clique_number(d, b) for b in budgets] for d in digraphs]
    monkeypatch.setattr(invariants, "_longest_transitive_order", reference_longest_transitive_order)
    for d, results in zip(digraphs, found):
        assert results == [transitive_clique_number(d, b) for b in budgets]


def test_seed_reaching_the_cap_closes_without_search():
    d = or_power(mycielskian(transitive_tournament(2), 2), 2)
    order = transitive_clique_number(d).witness
    res = transitive_clique_number(d, cap=len(order), seed=order)
    assert (res.witness, res.nodes, res.exhausted, res.closed_by) == (order, 0, True, "theta")


def test_seed_below_the_cap_leaves_the_search_tree():
    d = or_power(mycielskian(transitive_tournament(3), 2), 2)
    seed = tuple(7 * a + b for a in (0, 1, 2) for b in (0, 1, 2))  # T3 x T3
    res = transitive_clique_number(d, cap=10, seed=seed)
    assert (res.size, res.nodes, res.closed_by) == (9, 527, "search")
    assert res == transitive_clique_number(d)


def test_seed_below_the_cap_fills_a_truncated_search():
    d = or_power(mycielskian(transitive_tournament(3), 2), 2)
    seed = tuple(7 * a + b for a in (0, 1, 2) for b in (0, 1, 2))
    res = transitive_clique_number(d, 3, cap=10, seed=seed)
    assert (res.size, res.witness, res.exhausted, res.closed_by) == (9, seed, False, None)


def test_clique_above_its_cap_is_a_contradiction():
    with pytest.raises(MycthetaInternal, match="exceeds its certified cap 2"):
        transitive_clique_number(transitive_tournament(4), cap=2, seed=(0, 1, 2))
    with pytest.raises(MycthetaInternal, match="exceeds its certified cap 1"):
        transitive_clique_number(transitive_tournament(4), cap=1)


def test_bad_seed_is_rejected():
    with pytest.raises(DomainError, match="not a transitive order"):
        transitive_clique_number(transitive_tournament(3), seed=(2, 1))
    with pytest.raises(DomainError, match="not a transitive order"):
        transitive_clique_number(transitive_tournament(3), seed=(1, 3))


def test_undirected_lower_bound_takes_no_cap():
    with pytest.raises(DomainError, match="only to the transitive search"):
        capacity_lower_bound(cycle_graph(5), 2, cap=5)


def brute_force_chromatic(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                return k
    return max(g.n, 1)


def brute_force_transitive(d: Digraph) -> int:
    best = 1 if d.n else 0
    for size in range(2, d.n + 1):
        found = False
        for sub in itertools.combinations(range(d.n), size):
            for perm in itertools.permutations(sub):
                if all(
                    d.has_arc(perm[i], perm[j])
                    for i in range(size)
                    for j in range(i + 1, size)
                ):
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


def test_chromatic_against_brute_force():
    rng = random.Random(67)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.choice([0.2, 0.5, 0.8]))
        assert chromatic_number(g).value == brute_force_chromatic(g)


def test_transitive_against_brute_force():
    rng = random.Random(71)
    for _ in range(40):
        d = random_digraph(rng, rng.randint(1, 6), rng.choice([0.25, 0.5, 0.75]))
        assert transitive_clique_number(d).size == brute_force_transitive(d)


def test_chromatic_examples():
    assert chromatic_number(cycle_graph(5)).value == 3
    assert chromatic_number(complete_graph(4)).value == 4
    assert chromatic_number(empty_graph(3)).value == 1
    for g in (complete_graph(2), complete_graph(3), cycle_graph(5)):
        assert chromatic_number(mycielskian(g, 2)).value == chromatic_number(g).value + 1


def test_chromatic_coloring_is_proper():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        res = chromatic_number(g)
        assert res.exhausted and res.lo == res.hi
        assert verify_coloring(g, res.coloring)
        assert max(res.coloring) + 1 == res.value
        assert max(greedy_coloring(g)) + 1 >= res.value


def assert_sound_bracket(g: Graph, res, chi: int):
    # the lower end starts at the greedy clique and never passes chi, and the
    # coloring behind the upper end re-verifies
    assert len(_greedy_clique(g, _degeneracy_order(g.bool_matrix()))) <= res.lo <= chi <= res.hi
    assert verify_coloring(g, res.coloring) and max(res.coloring) < res.hi
    assert res.exhausted == (res.lo == res.hi)


def test_chromatic_budget_bracket():
    # C5^2 needs 979 nodes: every budget below that leaves a bracket
    g = or_power(cycle_graph(5), 2)
    for budget in range(1, 2001, 25):
        res = chromatic_number(g, budget)
        assert res.exhausted == (budget >= 979)
        assert_sound_bracket(g, res, 8)


def test_a_truncated_chromatic_search_has_no_value():
    # M(M(M(C5))) at budget 10 stops at the bracket [3, 6]; settling chi = 6 takes 449 295 nodes
    res = chromatic_number(mycielskian(mycielskian(mycielskian(cycle_graph(5)))), 10)
    assert (res.lo, res.hi, res.exhausted) == (3, 6, False)
    with pytest.raises(DomainError, match=r"^chromatic number not settled; bracket is \[3, 6\]$"):
        res.value


def test_chromatic_bracket_under_every_budget():
    # one G(n, p) draw per budget
    rng = random.Random(43)
    for budget in range(1, 2001):
        g = random_graph(rng, rng.randint(1, 30), rng.choice([0.3, 0.5, 0.7]))
        assert_sound_bracket(g, chromatic_number(g, budget), chromatic_number(g).value)


def test_chromatic_number_runs_no_clique_search(monkeypatch):
    # the lower end is the greedy clique and the refutations above it: neither
    # the clique search nor the automorphism finder it starts is called
    rng = random.Random(47)
    cases = [(or_power(cycle_graph(5), 2), 8), (mycielskian(mycielskian(cycle_graph(5), 2), 2), 5)]
    g = random_graph(rng, 20, 0.5)
    cases.append((g, chromatic_number(g).value))

    def fail(*args):
        raise AssertionError("clique search started")

    monkeypatch.setattr(invariants, "_max_clique", fail)
    monkeypatch.setattr(symmetry, "generators", fail)
    for g, chi in cases:
        res = chromatic_number(g)
        assert (res.lo, res.hi, res.exhausted) == (chi, chi, True)
        assert verify_coloring(g, res.coloring)


def test_chromatic_number_of_the_third_mycielskian_of_c5():
    # chi(M(M(M(C5)))) = 6 by the Mycielski law, settled by the refutations of
    # k = 2 to 5 from the greedy clique (CI also bounds its time)
    g = mycielskian(mycielskian(mycielskian(cycle_graph(5), 2), 2), 2)
    res = chromatic_number(g)
    assert (res.lo, res.hi, res.exhausted, res.nodes) == (6, 6, True, 449_295)
    assert verify_coloring(g, res.coloring)


def test_bitset_coloring_check_matches_the_edge_reference():
    rng = random.Random(37)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        for _ in range(10):
            coloring = tuple(rng.randrange(3) for _ in range(g.n))
            assert verify_coloring(g, coloring) == all(coloring[u] != coloring[v] for u, v in g.edges())
        assert not verify_coloring(g, (0,) * (g.n + 1))


def _improper_greedy(g, k, budget):
    if k == g.n:  # the greedy coloring: 3 colors, but 3, 4 and 0 share one
        return (0, 1, 2, 0, 0)
    budget.nodes = budget.limit + 1  # the search runs out before k = 2 is settled
    return None


@pytest.mark.parametrize("k_colorable, node_budget", [
    (lambda g, k, budget: (0,) * g.n, None),  # improper, returned as settled
    (_improper_greedy, 100),  # improper, returned in a bracket
    (lambda g, k, budget: (0, 1, 2, 0, 1) if k == 2 else (0, 1, 0, 1, 2), None),  # 3 colors for k = 2
], ids=["improper", "improper-bracket", "too-many-colors"])
def test_chromatic_number_re_verifies_its_coloring(monkeypatch, k_colorable, node_budget):
    monkeypatch.setattr(invariants, "_k_colorable", k_colorable)
    with pytest.raises(MycthetaInternal, match="coloring with at most . colors failed re-verification"):
        chromatic_number(cycle_graph(5), node_budget)


def reference_greedy_coloring(g: Graph) -> tuple[int, ...]:
    """DSATUR greedy coloring as its own loop: the least free color each step."""
    neighbors = neighbor_lists(g)
    n = g.n
    colors = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len(sat[u]), g.degree(u), -u),
        )
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        for u in neighbors[v]:
            sat[u].add(c)
    return tuple(colors)


def reference_k_colorable(g: Graph, k: int, budget: _Budget):
    """Recursive DSATUR k-coloring search with the same node accounting."""
    neighbors = neighbor_lists(g)
    n = g.n
    colors = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    out = []

    def assign(depth: int, used: int) -> bool:
        if not budget.tick():
            return False
        if depth == n:
            out.append(tuple(colors))
            return True
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len(sat[u]), g.degree(u), -u),
        )
        if len(sat[v]) >= k:
            return False
        for c in range(min(k - 1, used) + 1):
            if c in sat[v]:
                continue
            colors[v] = c
            touched = [u for u in neighbors[v] if colors[u] < 0 and c not in sat[u]]
            for u in touched:
                sat[u].add(c)
            if assign(depth + 1, max(used, c + 1)):
                return True
            for u in touched:
                sat[u].discard(c)
            colors[v] = -1
            if budget.nodes > budget.limit:
                return False
        return False

    return out[0] if assign(0, 0) else None


def test_dsatur_matches_reference(monkeypatch):
    rng = random.Random(37)
    graphs = [petersen_graph(), mycielskian(cycle_graph(7), 3), or_power(cycle_graph(5), 2),
              mycielskian(mycielskian(cycle_graph(5), 2), 2)]
    graphs += [random_graph(rng, rng.randint(1, 30), rng.random()) for _ in range(40)]
    budgets = (None, 5, 50, 2000)
    found = [[greedy_coloring(g)] + [chromatic_number(g, b) for b in budgets] for g in graphs]
    monkeypatch.setattr(invariants, "greedy_coloring", reference_greedy_coloring)
    monkeypatch.setattr(invariants, "_k_colorable", reference_k_colorable)
    for g, (greedy, *results) in zip(graphs, found):
        assert greedy == reference_greedy_coloring(g)
        # equal (lo, hi, exhausted, coloring, nodes)
        assert results == [chromatic_number(g, b) for b in budgets]


def test_k_colorable_matches_reference_at_every_k():
    # the bitmask search against the set-based recursive one, call by call:
    # equal colorings (or None) and equal node counts, also where a budget cuts it
    rng = random.Random(38)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 24), rng.random())
        for k in range(1, g.n + 1):
            for node_budget in (None, 5, 50):
                fast, slow = _Budget(node_budget), _Budget(node_budget)
                assert _k_colorable(g, k, fast) == reference_k_colorable(g, k, slow)
                assert fast.nodes == slow.nodes


def test_k_colorable_needs_no_recursion():
    # an odd cycle longer than the recursion limit: the 2-coloring search
    # descends through every vertex before it fails
    res = chromatic_number(cycle_graph(2001))
    assert (res.value, res.exhausted) == (3, True)
    assert verify_coloring(cycle_graph(2001), res.coloring)


def test_clique_search_needs_no_recursion():
    # K_1100 beside the 600-part cocktail-party graph, whose core comes first in
    # the degeneracy order: the greedy seed stops at 600, and the search then
    # descends through all 1100 members of the larger clique
    a = np.ones((2300, 2300), dtype=bool)
    a[:1100, 1100:] = a[1100:, :1100] = False
    pairs = np.arange(1100, 2300)
    a[pairs, pairs ^ 1] = False
    np.fill_diagonal(a, False)
    res = clique_number(Graph(2300, a))
    assert (res.size, res.exhausted, res.nodes) == (1100, True, 1100)
    assert res.witness == tuple(range(1100))


def test_each_invariant_rejects_the_other_kind_at_once():
    # theta_bar, chi_f, chi and omega are defined for undirected graphs, the
    # symmetric and transitive clique numbers for digraphs; the wrong kind is a
    # DomainError before any work
    from myctheta import certify, chained_power_clique, fractional_chromatic, theta_bar

    mt3 = mycielskian(transitive_tournament(3), 2)
    calls = [(clique_number, mt3), (chromatic_number, mt3), (fractional_chromatic, mt3),
             (theta_bar, mt3), (lambda g: certify(g, 1e-7), mt3), (chained_power_clique, mt3),
             (symmetric_clique_number, cycle_graph(5)), (transitive_clique_number, cycle_graph(5))]
    for fn, g in calls:
        kind = "a digraph" if isinstance(g, Graph) else "an undirected graph"
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f" needs {kind}$"):
            fn(g)
        assert time.perf_counter() - start < 0.1


def test_each_invariant_rejects_an_empty_graph_in_one_wording():
    # graphs._require_kind owns the nonempty rule beside the kind rule
    from myctheta import certify, fractional_chromatic, theta_bar

    calls = [("clique number", clique_number, Graph(0)), ("chromatic number", chromatic_number, Graph(0)),
             ("fractional chromatic number", fractional_chromatic, Graph(0)),
             ("theta_bar", theta_bar, Graph(0)), ("theta_bar", lambda g: certify(g, 1e-7), Graph(0)),
             ("symmetric clique number", symmetric_clique_number, Digraph(0)),
             ("transitive clique number", transitive_clique_number, Digraph(0))]
    for what, fn, g in calls:
        with pytest.raises(DomainError, match=f"^{what} needs a nonempty graph$"):
            fn(g)


@pytest.mark.parametrize("budget, lo, exhausted, nodes", [(1, 2, False, 2), (2, 2, False, 3),
                                                       (3, 2, False, 4), (5, 3, True, 5)])
def test_chromatic_brackets_of_c5_under_small_budgets(budget, lo, exhausted, nodes):
    # the greedy clique gives lo = 2 before any node; refuting k = 2 takes 5 nodes
    res = chromatic_number(cycle_graph(5), budget)
    assert (res.lo, res.hi, res.exhausted, res.nodes) == (lo, 3, exhausted, nodes)


def test_chi_c5_square_at_most_8():
    res = chromatic_number(or_power(cycle_graph(5), 2), node_budget=5_000_000)
    assert res.hi <= 8


def test_capacity_lower_bound():
    b = capacity_lower_bound(cycle_graph(5), 2)
    assert abs(b.value - 5 ** 0.5) < 1e-12 and b.exhausted
    for n in (1, 2, 4):
        assert capacity_lower_bound(complete_graph(n), 1).value == n
    b2 = capacity_lower_bound(mycielskian(complete_graph(2), 2), 2)
    assert abs(b2.value - 5 ** 0.5) < 1e-12
    with pytest.raises(DomainError):
        capacity_lower_bound(cycle_graph(5), 0)


def test_capacity_lower_bound_digraph():
    b = capacity_lower_bound(mycielskian(transitive_tournament(2), 2), 2)
    assert abs(b.value - 5 ** 0.5) < 1e-12


def test_superadditivity_of_powers():
    rng = random.Random(29)
    graphs = [cycle_graph(5), path_graph(4), complete_graph(3)]
    graphs += [random_graph(rng, 4, 0.5) for _ in range(5)]
    for g in graphs:
        sizes = {}
        for k in (1, 2, 3):
            if g.n ** k > 300:
                break
            sizes[k] = clique_number(or_power(g, k)).size
        for j, k in itertools.combinations(sizes, 2):
            if j + k in sizes:
                assert sizes[j + k] >= sizes[j] * sizes[k]
