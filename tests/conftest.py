import random
import sys
from pathlib import Path

import networkx
import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile("myctheta", max_examples=80, deadline=None, derandomize=True)
settings.load_profile("myctheta")

from myctheta import Graph, Digraph  # noqa: E402


def isomorphic(g: Graph, h: Graph) -> bool:
    """Graph isomorphism decided by networkx, an oracle outside the package."""

    def to_nx(x: Graph) -> networkx.Graph:
        out = networkx.Graph()
        out.add_nodes_from(range(x.n))
        out.add_edges_from(x.edges())
        return out

    return networkx.is_isomorphic(to_nx(g), to_nx(h))


def complete_join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h, h's vertex v as g.n + v, plus every edge
    between the two parts."""
    edges = list(g.edges()) + [(g.n + u, g.n + v) for u, v in h.edges()]
    edges += [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return Graph(g.n + h.n, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_graph_with_edge(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph guaranteed to have at least one edge (n >= 2)."""
    while True:
        g = random_graph(rng, n, p)
        if g.m:
            return g


def bipartite_graphs() -> list[tuple[str, Graph]]:
    """P4, P9, C6, C8, K_{2,5}, K_{3,3} and six seeded random bipartite
    graphs with an edge: theta_bar is exactly 2 on each, the boundary of
    m(t)'s domain."""
    from myctheta import cycle_graph, path_graph

    def bipartite(a: int, b: int, keep) -> Graph:
        return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b) if keep()])

    out = [("P4", path_graph(4)), ("P9", path_graph(9)), ("C6", cycle_graph(6)), ("C8", cycle_graph(8)),
           ("K2,5", bipartite(2, 5, lambda: True)), ("K3,3", bipartite(3, 3, lambda: True))]
    rng = random.Random(1979)
    while len(out) < 12:
        a, b, p = rng.randint(1, 6), rng.randint(1, 6), rng.choice([0.3, 0.5, 0.7])
        g = bipartite(a, b, lambda: rng.random() < p)
        if g.m:
            out.append((f"B{len(out) - 6}", g))
    return out


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    ]
    return Digraph(n, arcs)


def all_labeled_graphs(max_n: int):
    """Every labeled simple graph on 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            out.append(Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]))
    return out


def petersen_graph() -> Graph:
    """Kneser-style construction: 2-subsets of a 5-set, adjacent iff disjoint."""
    import itertools

    subsets = list(itertools.combinations(range(5), 2))
    index = {s: i for i, s in enumerate(subsets)}
    edges = [
        (index[a], index[b])
        for a, b in itertools.combinations(subsets, 2)
        if not set(a) & set(b)
    ]
    return Graph(10, edges)


@pytest.fixture(scope="session")
def small_graph_zoo():
    return all_labeled_graphs(4)
