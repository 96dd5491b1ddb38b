"""Laws of the exact invariants, on every graph Hypothesis draws of at most
nine vertices.

Each law is a theorem, so a failure is a fault in the package and no
tolerance applies: omega, chi and chi_f do not depend on the labelling; a
disjoint union takes the larger of each and a join their sum; and the
Mycielskian M(G) has chi(M(G)) = chi(G) + 1, omega(M(G)) = max(omega(G), 2)
and chi_f(M(G)) = chi_f(G) + 1/chi_f(G) (Larsen, Propp & Ullman 1995).  The
map of M(G^t) into [M(G)]^t and the clique the paper's chain lifts along it
are checked on the same graphs.  theta_bar has no law here: its stored ends
can miss an exact value by a few ulps.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from myctheta import (
    Graph,
    chained_power_clique,
    chromatic_number,
    clique_number,
    embed_mycielski_power,
    fractional_chromatic,
    mycielskian,
)

from conftest import complete_join


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


def exact(g: Graph) -> tuple:
    """(omega, chi, chi_f), each settled."""
    omega = clique_number(g)
    assert omega.exhausted
    return omega.size, chromatic_number(g).value, fractional_chromatic(g).value


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, list(g.edges()) + [(g.n + u, g.n + v) for u, v in h.edges()])


@settings(max_examples=200)
@given(graphs(), st.data())
def test_relabelling_keeps_omega_chi_and_chi_f(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert exact(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])) == exact(g)


@settings(max_examples=200)
@given(graphs(max_n=5), graphs(max_n=4))
def test_union_takes_the_max_and_join_the_sum(g, h):
    a, b = exact(g), exact(h)
    assert exact(disjoint_union(g, h)) == tuple(map(max, a, b))
    assert exact(complete_join(g, h)) == tuple(x + y for x, y in zip(a, b))


@settings(max_examples=200)
@given(graphs())
def test_mycielski_laws(g):
    omega, chi, chi_f = exact(g)
    assert exact(mycielskian(g)) == (max(omega, 2), chi + 1, chi_f + 1 / chi_f)


@settings(max_examples=200)
@given(graphs(max_n=5), st.integers(1, 2))
def test_the_mycielskian_of_a_power_embeds_induced(g, t):
    assert embed_mycielski_power(g, t).is_induced_isomorphism()


@settings(max_examples=200)
@given(graphs())
def test_the_chain_at_k1_lifts_the_clique_number(g):
    omega = clique_number(g).size
    assume(2 <= omega <= 4)
    ch = chained_power_clique(g, 1)
    members = np.array(ch.vertices)
    assert ch.N == omega and len(members) == omega ** omega + 1 == len(set(ch.vertices))
    # every pair of members is adjacent over M(G) in some coordinate
    a = mycielskian(g).bool_matrix()
    joined = np.zeros((len(members), len(members)), dtype=bool)
    for c in members.T:
        joined |= a[c][:, c]
    assert joined[~np.eye(len(members), dtype=bool)].all()
