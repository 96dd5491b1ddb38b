import io
import itertools
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from myctheta import (
    Digraph,
    DomainError,
    Graph,
    SizeLimitError,
    complete_graph,
    cycle_graph,
    embed_mycielski_power,
    empty_graph,
    format_edgelist,
    generate,
    mycielskian,
    or_power,
    or_product,
    parse_edgelist,
    transitive_tournament,
    write_edgelist,
)
import myctheta.graphs as graphs_mod
from myctheta.graphs import max_vertices, power_coords, power_index

from conftest import complete_join, isomorphic, random_digraph, random_graph


def test_generate_families():
    k2 = generate("complete", 2)
    assert k2.n == 2 and k2.m == 1
    t3 = generate("tournament", 3)
    assert isinstance(t3, Digraph)
    assert set(t3.arcs()) == {(0, 1), (0, 2), (1, 2)}
    c5 = generate("cycle", 5)
    assert c5.m == 5 and all(c5.degree(v) == 2 for v in range(5))
    assert generate("empty", 4).m == 0
    assert generate("path", 4).m == 3
    with pytest.raises(DomainError):
        generate("complete", 0)
    with pytest.raises(DomainError):
        generate("nonsense", 3)


def test_graph_validation():
    with pytest.raises(DomainError):
        Graph(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph(2, [(0, 5)])
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicates collapse
    assert g.m == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert np.flatnonzero(g.bool_matrix()[1]).tolist() == [0, 2]


def test_digraph_basics():
    d = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    assert d.m == 3
    assert d.has_arc(0, 1) and not d.has_arc(2, 1)
    assert d.bidirected_graph().edges() == ((0, 1),)
    assert d.underlying().edges() == ((0, 1), (1, 2))
    assert d.reverse().has_arc(2, 1)


def test_power_vertex_views():
    coords = (2, 0, 1)
    idx = power_index(coords, 3)
    assert idx == 2 * 9 + 0 * 3 + 1
    assert power_coords(idx, 3, 3) == coords


def test_mycielskian_counts_and_levels():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        for r in (1, 2, 3):
            m = mycielskian(g, r)
            assert m.n == r * g.n + 1
        m2 = mycielskian(g, 2)
        assert m2.m == 3 * g.m + g.n
        # level-0 induced copy is the original graph
        assert m2.subgraph(range(g.n)) == g
    with pytest.raises(DomainError):
        mycielskian(complete_graph(2), 0)


def test_mycielskian_k2_is_odd_cycle():
    assert isomorphic(mycielskian(complete_graph(2), 2), cycle_graph(5))
    for r in (1, 2, 3, 4, 5):
        m = mycielskian(complete_graph(2), r)
        if r == 1:
            assert isomorphic(m, cycle_graph(3))
        else:
            assert isomorphic(m, cycle_graph(2 * r + 1))


def test_mycielskian_r1_is_dominating_vertex():
    g = cycle_graph(5)
    m1 = mycielskian(g, 1)
    assert m1.n == g.n + 1
    assert m1.degree(g.n) == g.n
    assert isomorphic(m1, complete_join(empty_graph(1), g))


def test_mycielskian_digraph_orientation():
    mt2 = mycielskian(transitive_tournament(2), 2)
    outs = sorted(mt2.out_degree(v) for v in range(mt2.n))
    assert outs.count(1) == 1 and set(outs) <= {0, 1, 2}
    assert isomorphic(mt2.underlying(), cycle_graph(5))
    rng = random.Random(9)
    for _ in range(20):
        d = random_digraph(rng, rng.randint(1, 5), 0.4)
        for r in (1, 2, 3):
            md = mycielskian(d, r)
            assert md.underlying() == mycielskian(d.underlying(), r)
            apex = r * d.n
            assert md.out_degree(apex) == d.n and md.in_degree(apex) == 0


def test_or_product_complete_graphs():
    for m, n in itertools.product((1, 2, 3), repeat=2):
        p = or_product(complete_graph(m), complete_graph(n))
        assert isomorphic(p, complete_graph(m * n))


def test_or_power_empty_and_c5():
    assert or_power(empty_graph(3), 2).m == 0
    assert or_power(empty_graph(3), 2).n == 9
    sq = or_power(cycle_graph(5), 2)
    assert sq.n == 25
    with pytest.raises(DomainError):
        or_power(cycle_graph(5), 0)


def test_or_product_commutes_and_associates():
    rng = random.Random(1)
    for _ in range(10):
        f = random_graph(rng, rng.randint(1, 4), 0.5)
        g = random_graph(rng, rng.randint(1, 4), 0.5)
        h = random_graph(rng, rng.randint(1, 3), 0.5)
        fg, gf = or_product(f, g), or_product(g, f)
        for (a, b) in itertools.combinations(range(f.n * g.n), 2):
            fa, ga = divmod(a, g.n)
            fb, gb = divmod(b, g.n)
            assert fg.has_edge(a, b) == gf.has_edge(ga * f.n + fa, gb * f.n + fb)
        left = or_product(or_product(f, g), h)
        right = or_product(f, or_product(g, h))
        assert left == right  # flat indexing is associative as written


def test_or_product_digraphs_match_definition():
    rng = random.Random(21)
    for _ in range(10):
        f = random_digraph(rng, rng.randint(1, 4), 0.4)
        g = random_digraph(rng, rng.randint(1, 4), 0.4)
        p = or_product(f, g)
        for a in range(p.n):
            fa, ga = divmod(a, g.n)
            for b in range(p.n):
                if a == b:
                    continue
                fb, gb = divmod(b, g.n)
                expected = f.has_arc(fa, fb) or g.has_arc(ga, gb)
                assert p.has_arc(a, b) == expected


def test_or_product_of_oriented_graphs_can_create_two_cycles():
    t2 = transitive_tournament(2)
    square = or_product(t2, t2)
    assert t2.bidirected_graph().m == 0
    assert square.bidirected_graph().m >= 1


def test_or_complement_duality(small_graph_zoo):
    # complementing an OR-product gives the strong product of the complements:
    # a distinct pair is adjacent iff both coordinates are adjacent-or-equal
    # in the complements (checked against that predicate directly)
    by_n = {}
    for g in small_graph_zoo:
        by_n.setdefault(g.n, []).append(g)
    rng = random.Random(4)
    pairs = []
    for f in by_n[3]:
        for g in by_n[3]:
            pairs.append((f, g))
    pairs += [(rng.choice(by_n[4]), rng.choice(by_n[4])) for _ in range(60)]
    pairs += [(rng.choice(by_n[2]), rng.choice(by_n[4])) for _ in range(20)]
    for f, g in pairs:
        lhs = or_product(f, g).complement()
        fc, gc = f.complement(), g.complement()
        for a in range(lhs.n):
            fa, ga = divmod(a, g.n)
            for b in range(a + 1, lhs.n):
                fb, gb = divmod(b, g.n)
                strong = (fa == fb or fc.has_edge(fa, fb)) and (
                    ga == gb or gc.has_edge(ga, gb)
                )
                assert lhs.has_edge(a, b) == strong


def test_categorical_restriction_of_strong_dual(small_graph_zoo):
    # on pairs differing in both coordinates, the complement of the OR-product
    # agrees with the categorical product of the complements: adjacent iff
    # adjacent in both
    rng = random.Random(8)
    graphs = [g for g in small_graph_zoo if g.n in (2, 3)]
    for _ in range(40):
        f, g = rng.choice(graphs), rng.choice(graphs)
        lhs = or_product(f, g).complement()
        fc, gc = f.complement(), g.complement()
        for a in range(lhs.n):
            fa, ga = divmod(a, g.n)
            for b in range(a + 1, lhs.n):
                fb, gb = divmod(b, g.n)
                if fa != fb and ga != gb:
                    assert lhs.has_edge(a, b) == (fc.has_edge(fa, fb) and gc.has_edge(ga, gb))


def test_complete_join():
    for m, n in itertools.product((1, 2, 3), repeat=2):
        assert isomorphic(
            complete_join(complete_graph(m), complete_graph(n)),
            complete_graph(m + n),
        )
    g, h = cycle_graph(5), complete_graph(3)
    j = complete_join(g, h)
    assert j.m == g.m + h.m + g.n * h.n


def test_embed_mycielski_power_identity():
    emb = embed_mycielski_power(complete_graph(2), 1)
    assert emb.is_induced_isomorphism()
    assert len(set(emb.mapping)) == emb.domain.n


def test_embed_mycielski_power_k2_squared():
    emb = embed_mycielski_power(complete_graph(2), 2)
    assert emb.domain.n == 9 and emb.codomain.n == 25
    assert emb.is_induced_isomorphism()
    # the domain is M(K_4) up to isomorphism
    assert isomorphic(emb.domain, mycielskian(complete_graph(4), 2))
    # apex goes to the all-apex sequence
    assert emb.mapping[8] == power_index((4, 4), 5)


def test_embed_mycielski_power_digraph():
    emb = embed_mycielski_power(transitive_tournament(2), 2)
    assert emb.is_induced_isomorphism()


def test_edgelist_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        assert parse_edgelist(format_edgelist(g)) == g
        d = random_digraph(rng, rng.randint(1, 6), 0.5)
        assert parse_edgelist(format_edgelist(d)) == d
    with pytest.raises(DomainError):
        parse_edgelist("")
    with pytest.raises(DomainError):
        parse_edgelist("2 1\n0 1\n0 1")


@st.composite
def vertex_pairs(draw, max_n=9):
    """(n, pairs): loop-free pairs on n vertices, with duplicates and reversed copies."""
    n = draw(st.integers(1, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    pairs += repeats + [(v, u) for u, v in repeats]
    return n, draw(st.permutations(pairs))


@given(vertex_pairs(), st.data())
def test_graph_representation_contract(case, data):
    n, pairs = case
    g = Graph(n, pairs)
    expected = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    assert list(g.edges()) == expected  # row-major, deduplicated
    assert g.m == len(expected)
    for v in range(n):
        row = [u for u in range(n) if (min(u, v), max(u, v)) in expected]
        assert np.flatnonzero(g.bool_matrix()[v]).tolist() == row
        assert g.degree(v) == len(row) == g.bits[v].bit_count()
        assert all(bool(g.bits[v] >> u & 1) == g.has_edge(v, u) == (u in row) for u in range(n))
    a = g.adjacency_matrix()
    assert (a == a.T).all() and a.sum() == 2 * g.m
    same = Graph(n, [(v, u) for u, v in reversed(pairs)])
    assert same == g and hash(same) == hash(g)
    assert g != Graph(n + 1, pairs)
    if expected:
        assert g != Graph(n, expected[1:])
    comp = g.complement()
    assert all(comp.has_edge(u, v) != g.has_edge(u, v)
               for u in range(n) for v in range(u + 1, n))
    assert comp.complement() == g
    chosen = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    sub = g.subgraph(chosen)
    assert sub.n == len(chosen)
    assert all(sub.has_edge(i, j) == g.has_edge(chosen[i], chosen[j])
               for i in range(len(chosen)) for j in range(len(chosen)) if i != j)


@given(vertex_pairs())
def test_digraph_representation_contract(case):
    n, pairs = case
    d = Digraph(n, pairs)
    expected = sorted(set(pairs))
    assert list(d.arcs()) == expected
    assert d.m == len(expected)
    mat = d.bool_matrix()
    for v in range(n):
        assert all(bool(d.bits[v] >> u & 1) == d.has_arc(v, u) == ((v, u) in expected)
                   and mat[u, v] == d.has_arc(u, v) == ((u, v) in expected) for u in range(n))
        assert d.out_degree(v) == sum(1 for a, _ in expected if a == v) == d.bits[v].bit_count()
        assert d.in_degree(v) == sum(1 for _, b in expected if b == v) == mat[:, v].sum()
    same = Digraph(n, list(reversed(pairs)))
    assert same == d and hash(same) == hash(d)
    assert list(d.reverse().arcs()) == sorted((v, u) for u, v in expected)
    assert d.underlying() == Graph(n, pairs)
    assert list(d.bidirected_graph().edges()) == [
        (u, v) for u, v in expected if u < v and (v, u) in expected
    ]


def _pairs_to_matrix(n, pairs):
    a = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        a[u, v] = True
    return a


@given(vertex_pairs())
def test_matrix_and_pairs_build_the_same_graph(case):
    n, pairs = case
    a = _pairs_to_matrix(n, pairs)  # one triangle or both: Graph makes it symmetric
    before = a.copy()
    assert Graph(n, a) == Graph(n, pairs)
    assert Digraph(n, a) == Digraph(n, pairs)
    assert (a == before).all()  # the caller's matrix is not modified
    assert (Graph(n, pairs).bool_matrix() == (a | a.T)).all()
    assert (Digraph(n, pairs).bool_matrix() == a).all()


@pytest.mark.parametrize("cls", [Graph, Digraph])
def test_matrix_input_validation(cls, monkeypatch):
    with pytest.raises(DomainError, match="not 3 x 3"):
        cls(3, np.zeros((3, 4), dtype=bool))
    with pytest.raises(DomainError, match="not 3 x 3"):
        cls(3, np.zeros((2, 2), dtype=bool))
    a = np.zeros((4, 4), dtype=bool)
    a[2, 2] = True
    with pytest.raises(DomainError, match="self-loop at vertex 2 not allowed"):
        cls(4, a)
    monkeypatch.setenv("MYCTHETA_MAX_VERTICES", "3")
    with pytest.raises(SizeLimitError):
        cls(4, np.zeros((4, 4), dtype=bool))


def _pair_matrix_reference(n, pairs, what):
    """The pair checks one pair at a time: the first bad pair wins."""
    a = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"{what} ({u},{v}) out of range for n={n}")
        if u == v:
            raise DomainError(f"self-loop at vertex {u} not allowed")
        a[u, v] = True
    return a


@given(st.integers(0, 6), st.lists(st.tuples(*[st.one_of(
    st.integers(-2, 7), st.sampled_from([-(1 << 63), (1 << 63) - 1, 1 << 32])
)] * 2), max_size=8))
def test_pair_checks_match_the_one_pair_reference(n, pairs):
    def outcome(check):
        try:
            return check(n, np.array(pairs, dtype=np.int64).reshape(-1, 2), "arc").tolist()
        except DomainError as exc:
            return str(exc)

    assert outcome(graphs_mod._pair_matrix) == outcome(_pair_matrix_reference)


def test_equality_keeps_graphs_and_digraphs_apart():
    g, d = Graph(3, [(0, 1)]), Digraph(3, [(0, 1), (1, 0)])
    assert g.bits == d.bits
    assert g != d and d != g
    assert repr(g) == "Graph(n=3, m=1)" and repr(d) == "Digraph(n=3, m=2)"


def _mycielskian_reference(g, r):
    """M_r(G) from the edge list, one pair at a time (arcs for digraphs)."""
    n, directed = g.n, isinstance(g, Digraph)
    pairs = []
    for u, v in (g.arcs() if directed else g.edges()):
        pairs.append((u, v))
        for lvl in range(r - 1):
            pairs.append((lvl * n + u, (lvl + 1) * n + v))
            if directed:
                pairs.append(((lvl + 1) * n + u, lvl * n + v))
            else:
                pairs.append((lvl * n + v, (lvl + 1) * n + u))
    pairs.extend((r * n, (r - 1) * n + v) for v in range(n))
    return (Digraph if directed else Graph)(r * n + 1, pairs)


def test_mycielskians_match_edge_list_reference():
    rng = random.Random(11)
    graphs = [cycle_graph(5), complete_graph(1), empty_graph(3)]
    graphs += [random_graph(rng, rng.randint(1, 7), 0.5) for _ in range(10)]
    digraphs = [transitive_tournament(3), Digraph(1)]
    digraphs += [random_digraph(rng, rng.randint(1, 6), 0.4) for _ in range(10)]
    for r in (1, 2, 3):
        for g in graphs:
            assert mycielskian(g, r) == _mycielskian_reference(g, r)
        for d in digraphs:
            assert mycielskian(d, r) == _mycielskian_reference(d, r)


def _arc_matrix(g):
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, v in (g.arcs() if isinstance(g, Digraph) else g.edges()):
        a[u, v] = True
        if isinstance(g, Graph):
            a[v, u] = True
    return a


def test_or_power_matches_kron_reference():
    for base, t in ((cycle_graph(5), 3), (mycielskian(transitive_tournament(3)), 2)):
        non = ~_arc_matrix(base)  # True diagonal: a vertex is never adjacent to itself
        reference = non
        for _ in range(t - 1):
            reference = np.kron(reference, non)
        power = or_power(base, t)
        assert type(power) is type(base)
        assert (_arc_matrix(power) == ~reference).all()


@st.composite
def small_powers(draw):
    """(base, t): a graph or digraph on 1 to 5 vertices and 1 <= t <= 3."""
    n = draw(st.integers(1, 5))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return (Digraph if directed else Graph)(n, chosen), draw(st.integers(1, 3))


@given(small_powers())
def test_or_power_is_the_or_product_chain(power):
    # the chain of OR-products, the construction's definition, is the reference
    base, t = power
    reference = base
    for _ in range(t - 1):
        reference = or_product(reference, base)
    assert or_power(base, t) == reference


@given(small_powers())
def test_recognised_power_base_gives_the_graph_back(power):
    # t = 1 draws the base itself, most often no power at all
    base, t = power
    g = or_power(base, t)
    found = graphs_mod._power_base(g)
    if base.n >= 2 and t >= 2:
        assert found is not None  # the base's own b = base.n passes, if no smaller one does
    if found is not None:
        h, s = found
        assert type(h) is type(g) and s >= 2 and or_power(h, s) == g


class _Chunks(list):
    """A text sink that keeps each write as one item."""

    write = list.append


def test_edgelist_byte_identical_round_trip():
    # M(C5)^3, 620 060 edges, spans about ten blocks of the writer; the graph
    # on six vertices ends in isolated vertices; Graph(0) is its header alone
    for g in (or_power(mycielskian(cycle_graph(5)), 3),
              or_power(cycle_graph(7), 2),
              or_power(mycielskian(transitive_tournament(3)), 2),
              Graph(6, [(0, 1), (1, 2)]),
              empty_graph(3),
              Graph(0)):
        text = format_edgelist(g)
        directed = isinstance(g, Digraph)
        pairs = g.arcs() if directed else g.edges()
        reference = "\n".join([f"{g.n} {len(pairs)}" + (" directed" if directed else "")]
                              + [f"{u} {v}" for u, v in pairs]) + "\n"
        assert text == reference
        chunks = _Chunks()
        write_edgelist(g, chunks)
        assert "".join(chunks) == reference
        assert len(chunks) >= 1 + g.m // graphs_mod._BLOCK_EDGES
        back = parse_edgelist(text)
        assert back == g and format_edgelist(back) == text


def test_write_edgelist_memory_stays_below_its_text(tmp_path):
    # written to a file block by block, the whole text (4.9 MiB) is never held
    g = or_power(mycielskian(cycle_graph(5)), 3)
    path = tmp_path / "mc5_3.edges"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            write_edgelist(g, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.stat().st_size == 5_165_629
    assert peak < path.stat().st_size


@pytest.mark.parametrize("text", [
    "3 1\n0\n",
    "3 1\n0 1 2\n",
    "3 2\n0 1\n0 1 2\n",
    "3 1\nx 3\n",
    "3 1\n1.5 2\n",
    "3 1\n99999999999999999999 1\n",
    "3 2\n0 1\n",
    "3 1\n0 3\n",
    "3 1\n-1 2\n",
    "3 1\n1 1\n",
    "3 1 directed\n2 2\n",
])
def test_parse_edgelist_rejects_malformed_body(text):
    with pytest.raises(DomainError) as info:
        parse_edgelist(text)
    assert "\n" not in str(info.value)


@pytest.mark.filterwarnings("error")  # an empty body is no edges, not a warning
def test_parse_edgelist_accepts_blank_lines_and_no_edges():
    g = parse_edgelist("\n3 2\n\n  0 1 \n\n2 1\n\n")
    assert g == Graph(3, [(0, 1), (1, 2)])
    assert parse_edgelist("4 0\n") == Graph(4)
    assert parse_edgelist("4 0 directed") == Digraph(4)
    for text in ("3 2\n0 1\n0 1 2\n", "3 1\n0 1 2\n"):
        with pytest.raises(DomainError, match="bad edge line '0 1 2'"):
            parse_edgelist(text)


def test_parse_edgelist_names_a_bad_line_past_the_first_chunk(tmp_path):
    # the reader takes the body in chunks; the line is found by reading it again
    path = tmp_path / "late.edges"
    path.write_text("3 60001\n" + "0 1\n" * 60_000 + "1 x\n", encoding="utf-8")
    with open(path, encoding="utf-8") as fh, pytest.raises(DomainError) as info:
        parse_edgelist(fh)
    assert str(info.value) == "bad edge line '1 x'"


def test_parse_edgelist_does_not_take_undecodable_bytes_for_a_bad_line(tmp_path, monkeypatch):
    path = tmp_path / "tail.edges"
    # past the text the header's read decodes, so the body's read meets it
    path.write_bytes(b"3 20001\n" + b"0 1\n" * 20_000 + b"1 \xff\n")
    monkeypatch.setattr(graphs_mod, "_bad_edge_line", lambda lines, exc: pytest.fail("read as a bad line"))
    with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError):
        parse_edgelist(fh)


def test_parse_edgelist_reads_a_pipe():
    # a stream that cannot seek is read whole, so a bad line is still named
    for text, expected in (("3 2\n0 1\n1 2\n", Graph(3, [(0, 1), (1, 2)])),
                           ("3 2\n0 1\n1 2 0\n", "bad edge line '1 2 0'")):
        read, write = os.pipe()
        os.write(write, text.encode())
        os.close(write)
        with open(read, encoding="utf-8") as fh:
            assert not fh.seekable()
            try:
                assert parse_edgelist(fh) == expected
            except DomainError as exc:
                assert str(exc) == expected


def test_parse_edgelist_memory_follows_the_pairs(tmp_path):
    # read from an open file, the peak is the int64 pairs and the adjacency,
    # not the text: below twice the 16 m bytes of the pairs (the text read
    # whole peaks at about 1.9 MB here)
    g = or_power(cycle_graph(7), 3)
    path = tmp_path / "c7_3.edges"
    path.write_text(format_edgelist(g), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            back = parse_edgelist(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert back == g and g.m == 37_387
    assert peak < 2 * 16 * g.m


def test_parse_edgelist_reads_text_with_universal_newlines():
    for text in ("3 1\r0 1\r", "3 1\r\n0 1\r\n", "\r\n3 1\r\r0 1"):
        assert parse_edgelist(text) == Graph(3, [(0, 1)])


def test_parse_edgelist_takes_loadtxt_integers():
    # an optional sign and ASCII digits, as `np.loadtxt` reads an int64
    assert parse_edgelist("8 2\n007 +1\n-0 2\n") == Graph(8, [(7, 1), (0, 2)])


@pytest.mark.parametrize("token", ["1_0", "\uff11", "\u0661"])
def test_parse_edgelist_names_a_line_python_int_would_take(token):
    # int() takes an underscore and non-ASCII digits; loadtxt does not
    with pytest.raises(DomainError) as info:
        parse_edgelist(f"3 1\n{token} 2\n")
    assert str(info.value) == f"bad edge line '{token} 2'"


@pytest.mark.parametrize("token", ["1_0", "\uff13", "\u0663"])
def test_parse_edgelist_header_takes_loadtxt_integers_only(token):
    # the header's n and m are read in the body's grammar
    for header in (f"{token} 1", f"3 {token}"):
        with pytest.raises(DomainError) as info:
            parse_edgelist(f"{header}\n0 1\n")
        assert str(info.value) == f"bad header {header!r}"
    assert parse_edgelist("+03 01\n0 1\n") == Graph(3, [(0, 1)])


def _record_loadtxt(monkeypatch):
    seen = []
    real = np.loadtxt

    def loadtxt(fname, *args, **kwargs):
        seen.append(fname)
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(graphs_mod.np, "loadtxt", loadtxt)
    return seen


def test_parse_edgelist_reads_a_regular_file_from_its_path(tmp_path, monkeypatch):
    seen = _record_loadtxt(monkeypatch)
    path = tmp_path / "c5.edges"
    path.write_text("\n \n5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n", encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        assert parse_edgelist(fh) == cycle_graph(5)
    assert seen == [str(path)]
    # a pipe, a StringIO, a file read past its start, a name that numpy
    # would decompress and lenient decoding are all read from the stream
    read, write = os.pipe()
    os.write(write, path.read_bytes())
    os.close(write)
    with open(read, encoding="utf-8") as fh:
        assert parse_edgelist(fh) == cycle_graph(5)
    assert parse_edgelist(io.StringIO(path.read_text())) == cycle_graph(5)
    later = tmp_path / "later.edges"
    later.write_text("junk\n" + path.read_text(), encoding="utf-8")
    with open(later, encoding="utf-8") as fh:
        fh.readline()
        assert parse_edgelist(fh) == cycle_graph(5)
    packed = tmp_path / "c5.edges.gz"  # plain text, whatever its name says
    packed.write_text(path.read_text(), encoding="utf-8")
    with open(packed, encoding="utf-8") as fh:
        assert parse_edgelist(fh) == cycle_graph(5)
    lenient = tmp_path / "lenient.edges"  # decoded as the stream decodes it
    lenient.write_bytes(b"3 1\n0 \xff\n")
    with open(lenient, encoding="utf-8", errors="replace") as fh, pytest.raises(DomainError) as info:
        parse_edgelist(fh)
    assert str(info.value) == "bad edge line '0 \ufffd'"
    assert len(seen) == 6 and not any(isinstance(arg, str) for arg in seen[1:])


def test_parse_edgelist_reads_the_opened_file_not_its_replacement(tmp_path, monkeypatch):
    seen = _record_loadtxt(monkeypatch)
    path, other = tmp_path / "g.edges", tmp_path / "other.edges"
    path.write_text(format_edgelist(cycle_graph(5)), encoding="utf-8")
    other.write_text(format_edgelist(complete_graph(5)), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        os.replace(other, path)
        assert parse_edgelist(fh) == cycle_graph(5)
    assert not isinstance(seen[0], str)


def test_size_guard(monkeypatch):
    monkeypatch.setenv("MYCTHETA_MAX_VERTICES", "10")
    assert max_vertices() == 10
    with pytest.raises(SizeLimitError):
        complete_graph(11)
    with pytest.raises(SizeLimitError):
        or_power(cycle_graph(5), 2)
    monkeypatch.setenv("MYCTHETA_MAX_VERTICES", "bogus")
    with pytest.raises(DomainError):
        max_vertices()


def test_isomorphism_negative():
    assert not isomorphic(cycle_graph(6), complete_join(complete_graph(3), empty_graph(3)))
    assert isomorphic(cycle_graph(5), cycle_graph(5))
    a = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, [(0, 1), (0, 2), (0, 3)])  # same degree sum, different shape
    assert not isomorphic(a, b)
