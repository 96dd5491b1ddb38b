"""Graph and digraph types plus the product / Mycielski constructors.

Vertices are always labeled 0..n-1.  Both `Graph` and `Digraph` are immutable
after construction.  The one stored form of the adjacency is a Python int
bitset per vertex (`bits`; `out_bits` for digraphs), the representation of
the bit-parallel clique search (San Segundo et al. 2011).  Everything else
is derived from it on demand: `edges()` / `arcs()` in row-major order, `m`,
degrees, `bool_matrix()` and `adjacency_matrix()`.  The constructors take
either pairs, which are validated as one int64 array and scattered into an
n x n boolean matrix, or that boolean matrix itself, and pack its rows into
the bitsets, so no Python object is made per edge.  Every derived graph
(complements, subgraphs, products, Mycielskians) is built as a boolean
matrix and handed to the constructor whole.

Product graphs use row-major vertex pairing, (f, g) -> f * |V(G)| + g, and
power graphs extend this to mixed-radix coordinates (leftmost coordinate most
significant).  `power_index` / `power_coords` / `PowerVertex` convert between
the flat and the structured view.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import DomainError, SizeLimitError

DEFAULT_MAX_VERTICES = 4096


def max_vertices() -> int:
    """Vertex bound for all constructions; override via MYCTHETA_MAX_VERTICES."""
    raw = os.environ.get("MYCTHETA_MAX_VERTICES")
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"MYCTHETA_MAX_VERTICES is not an integer: {raw!r}") from exc
    if value < 1:
        raise DomainError("MYCTHETA_MAX_VERTICES must be positive")
    return value


def _power_exceeds(n: int, t: int, bound: int) -> bool:
    """Whether n ** t > bound, for t >= 1, without building n ** t when it is
    far larger: for n >= 2 and t > bound.bit_length(), n ** t >= 2 ** t > bound."""
    return n >= 2 and t > bound.bit_length() or n ** t > bound


def _check_size(n: int, what: str = "graph", t: int = 1) -> None:
    """Raise SizeLimitError when n ** t vertices exceed the bound."""
    bound = max_vertices()
    if _power_exceeds(n, t, bound):
        size = n ** t if t <= bound.bit_length() else f"{n}^{t}"
        raise SizeLimitError(f"{what} needs {size} vertices, exceeding the bound {bound}")


def _pair_matrix(n: int, pairs, what: str) -> np.ndarray:
    """n x n boolean matrix with True at every (u, v) of `pairs`, after checks.

    `pairs` may also be that boolean matrix already; it is checked, not copied.
    """
    if n < 0:
        raise DomainError("vertex count must be non-negative")
    _check_size(n)
    if isinstance(pairs, np.ndarray) and pairs.dtype == bool:
        if pairs.shape != (n, n):
            raise DomainError(f"adjacency matrix of shape {pairs.shape} is not {n} x {n}")
        loops = np.flatnonzero(pairs.diagonal())
        if loops.size:
            raise DomainError(f"self-loop at vertex {loops[0]} not allowed")
        return pairs
    p = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    if p.size == 0:
        p = p.reshape(0, 2)
    if p.ndim != 2 or p.shape[1] != 2:
        raise DomainError(f"each {what} must be a pair of vertices")
    bad = ((p < 0) | (p >= n)).any(axis=1)
    loop = p[:, 0] == p[:, 1]
    first = np.flatnonzero(bad | loop)
    if first.size:
        u, v = p[first[0]].tolist()
        if bad[first[0]]:
            raise DomainError(f"{what} ({u},{v}) out of range for n={n}")
        raise DomainError(f"self-loop at vertex {u} not allowed")
    a = np.zeros((n, n), dtype=bool)
    a[p[:, 0], p[:, 1]] = True
    return a


def _row_bits(a: np.ndarray) -> tuple[int, ...]:
    """Row i of a boolean matrix as the int whose bit j is a[i, j]."""
    packed = np.packbits(a, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _bits_matrix(bits: tuple[int, ...]) -> np.ndarray:
    """Inverse of `_row_bits` for an n x n matrix."""
    n = len(bits)
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), dtype=np.uint8)
    return np.unpackbits(raw.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _pairs_tuple(a: np.ndarray) -> tuple[tuple[int, int], ...]:
    rows, cols = np.nonzero(a)
    return tuple(zip(rows.tolist(), cols.tolist()))


class Graph:
    """Simple undirected graph: no loops, symmetric adjacency."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, edges: Union[Iterable[tuple[int, int]], np.ndarray] = ()):
        """`edges` holds vertex pairs or an n x n boolean matrix (made symmetric)."""
        a = _pair_matrix(n, edges, "edge")
        a = a | a.T
        self.n = n
        self.bits = _row_bits(a)

    @property
    def m(self) -> int:
        return sum(b.bit_count() for b in self.bits) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v) with u < v, in row-major order."""
        return _pairs_tuple(np.triu(self.bool_matrix(), 1))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.bits[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def complement(self) -> "Graph":
        a = ~self.bool_matrix()
        np.fill_diagonal(a, False)
        return Graph(self.n, a)

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is vertices[i]."""
        index = np.asarray(vertices, dtype=np.int64)
        if len(np.unique(index)) != len(index):
            raise DomainError("duplicate vertices in subgraph selection")
        if ((index < 0) | (index >= self.n)).any():
            raise DomainError(f"subgraph vertex out of range for n={self.n}")
        return Graph(len(index), self.bool_matrix()[np.ix_(index, index)])

    def bool_matrix(self) -> np.ndarray:
        """n x n boolean adjacency matrix, unpacked from the bitsets."""
        return _bits_matrix(self.bits)

    def adjacency_matrix(self) -> np.ndarray:
        return self.bool_matrix().astype(float)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Directed graph without loops; antiparallel arc pairs are allowed."""

    __slots__ = ("n", "out_bits")

    def __init__(self, n: int, arcs: Union[Iterable[tuple[int, int]], np.ndarray] = ()):
        """`arcs` holds (tail, head) pairs or an n x n boolean matrix."""
        a = _pair_matrix(n, arcs, "arc")
        self.n = n
        self.out_bits = _row_bits(a)

    @property
    def m(self) -> int:
        return sum(b.bit_count() for b in self.out_bits)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Arcs (u, v) in row-major order."""
        return _pairs_tuple(self.bool_matrix())

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_bits[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out_bits[v].bit_count()

    def in_degree(self, v: int) -> int:
        return sum(b >> v & 1 for b in self.out_bits)

    def bool_matrix(self) -> np.ndarray:
        """n x n boolean arc matrix (row = tail), unpacked from the bitsets."""
        return _bits_matrix(self.out_bits)

    def reverse(self) -> "Digraph":
        return Digraph(self.n, self.bool_matrix().T)

    def underlying(self) -> Graph:
        return Graph(self.n, self.bool_matrix())

    def bidirected_graph(self) -> Graph:
        """Graph on the same vertices whose edges are the 2-cycles of D."""
        a = self.bool_matrix()
        return Graph(self.n, a & a.T)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_bits == other.out_bits
        )

    def __hash__(self):
        return hash((self.n, self.out_bits))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m})"


GraphLike = Union[Graph, Digraph]


# ---------------------------------------------------------------------------
# vertex labels for Mycielskians and powers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexLabel:
    """Name of a vertex of M_r(G): a (vertex, level) pair or the apex."""

    vertex: Optional[int] = None
    level: Optional[int] = None

    @staticmethod
    def apex() -> "VertexLabel":
        return VertexLabel(None, None)

    @property
    def is_apex(self) -> bool:
        return self.vertex is None

    def __repr__(self):
        if self.is_apex:
            return "Apex"
        return f"({self.vertex},{self.level})"


def mycielski_index(n: int, label: VertexLabel, r: int = 2) -> int:
    """Flat index of a labeled M_r vertex; levels are stored level-major."""
    if label.is_apex:
        return r * n
    if not (0 <= label.vertex < n and 0 <= label.level < r):
        raise DomainError(f"label {label} invalid for n={n}, r={r}")
    return label.level * n + label.vertex


def mycielski_label(n: int, index: int, r: int = 2) -> VertexLabel:
    if index == r * n:
        return VertexLabel.apex()
    if not 0 <= index < r * n:
        raise DomainError(f"index {index} out of range for M_{r} over {n} vertices")
    return VertexLabel(index % n, index // n)


@dataclass(frozen=True)
class PowerVertex:
    """Structured view of a vertex of a t-th OR-power: one coordinate per factor."""

    coords: tuple[int, ...]

    def __len__(self):
        return len(self.coords)

    def labels(self, base_n: int, r: int = 2) -> tuple[VertexLabel, ...]:
        """Decode coordinates as M_r(G) labels (for powers of Mycielskians)."""
        return tuple(mycielski_label(base_n, c, r) for c in self.coords)


def power_index(coords: Sequence[int], base_size: int) -> int:
    idx = 0
    for c in coords:
        if not 0 <= c < base_size:
            raise DomainError(f"coordinate {c} out of range for base size {base_size}")
        idx = idx * base_size + c
    return idx


def power_coords(index: int, base_size: int, t: int) -> tuple[int, ...]:
    coords = []
    for _ in range(t):
        coords.append(index % base_size)
        index //= base_size
    if index:
        raise DomainError("index out of range for this power")
    return tuple(reversed(coords))


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    _require_positive(n)
    return Graph(n, ~np.eye(n, dtype=bool))


def empty_graph(n: int) -> Graph:
    _require_positive(n)
    return Graph(n)


def cycle_graph(n: int) -> Graph:
    _require_positive(n)
    if n < 3:
        raise DomainError("cycle needs at least 3 vertices")
    return Graph(n, np.eye(n, k=1, dtype=bool) | np.eye(n, k=1 - n, dtype=bool))


def path_graph(n: int) -> Graph:
    _require_positive(n)
    return Graph(n, np.eye(n, k=1, dtype=bool))


def transitive_tournament(n: int) -> Digraph:
    """T_n: arc (i, j) present exactly when i < j."""
    _require_positive(n)
    return Digraph(n, ~np.tri(n, dtype=bool))


_FAMILIES = {
    "complete": complete_graph,
    "empty": empty_graph,
    "cycle": cycle_graph,
    "path": path_graph,
    "tournament": transitive_tournament,
}


def generate(family: str, n: int) -> GraphLike:
    """Named graph family with canonical labeling; family names as in the CLI."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise DomainError(
            f"unknown family {family!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return builder(n)


def _require_positive(n: int) -> None:
    if n < 1:
        raise DomainError("family size must be at least 1")
    _check_size(n)


# ---------------------------------------------------------------------------
# automorphism generators of OR-powers
# ---------------------------------------------------------------------------
#
# A generator is an int array p with p[v] the image of vertex v.  The
# clique search checks every generator against its graph before use.

def power_generators(gens: Sequence[np.ndarray], n: int, t: int) -> tuple[np.ndarray, ...]:
    """Automorphism generators of the t-th OR-power of a graph on n vertices
    with generators gens: each one applied on one coordinate, and the swaps
    of adjacent coordinates (the layout of `or_power`)."""
    grid = np.arange(n ** t).reshape((n,) * t)
    out = [np.take(grid, p, axis=i).ravel() for i in range(t) for p in gens]
    if n > 1:
        out += [np.swapaxes(grid, i, i + 1).ravel() for i in range(t - 1)]
    return tuple(out)


def _power_base(g: Graph) -> Optional[tuple[np.ndarray, int]]:
    """(a, t) for the least b >= 2 such that g, in its own labelling, is the
    t-th OR-power (t >= 2, layout of `or_power`) of its leading b x b block,
    whose adjacency matrix is a; None if there is no such b.

    An OR-power's non-adjacency matrix, diagonal included, is the Kronecker
    power of its base's, and so is vertex 0's row of it.  That test on one
    bitset rejects most graphs before the n x n comparison.
    """
    n = g.n
    row = ~g.bits[0] & ((1 << n) - 1)  # vertex 0's non-neighbors and itself
    for b in range(2, math.isqrt(n) + 1):
        base = power = row & ((1 << b) - 1)
        t = 1
        while b ** t < n:  # a new leading coordinate x shifts a copy by x b^t
            power = sum(power << x * b ** t for x in range(b) if base >> x & 1)
            t += 1
        if b ** t == n and power == row:
            non = ~g.bool_matrix()
            kron = non[:b, :b]
            for _ in range(t - 1):
                kron = (kron[:, None, :, None] & non[None, :b, None, :b]).reshape(len(kron) * b, -1)
            if np.array_equal(kron, non):
                return ~non[:b, :b], t
    return None


# ---------------------------------------------------------------------------
# Mycielski constructions
# ---------------------------------------------------------------------------

def _mycielski_matrix(a: np.ndarray, r: int) -> np.ndarray:
    """Adjacency of M_r over the n x n matrix a, vertex (v, level) at level * n + v.

    Level 0 is a copy of a, consecutive levels are joined by a in both
    directions, and the apex (last row) points at every vertex of level r-1.
    """
    if r < 1:
        raise DomainError("Mycielskian needs r >= 1")
    n = len(a)
    _check_size(r * n + 1, "Mycielskian")
    out = np.zeros((r * n + 1, r * n + 1), dtype=bool)
    out[:n, :n] = a
    for lvl in range(r - 1):
        lo, mid, hi = lvl * n, (lvl + 1) * n, (lvl + 2) * n
        out[lo:mid, mid:hi] = a
        out[mid:hi, lo:mid] = a
    out[r * n, (r - 1) * n:r * n] = True
    return out


def mycielskian(g: Graph, r: int = 2) -> Graph:
    """r-level generalized Mycielskian of an undirected graph.

    Vertex layout: (v, level) -> level * n + v for level in 0..r-1, apex last.
    r = 2 is the classical construction; r = 1 adds a single dominating vertex.
    """
    a = _mycielski_matrix(g.bool_matrix(), r)
    return Graph(len(a), a)


def mycielskian_digraph(d: Digraph, r: int = 2) -> Digraph:
    """r-level Mycielskian of a digraph.

    Inter-level arcs inherit the orientation of the original arcs; apex arcs
    point outward from the apex toward level r-1.  (Orienting them the other
    way is an equally valid convention and reverses no other structure.)
    """
    a = _mycielski_matrix(d.bool_matrix(), r)
    return Digraph(len(a), a)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def or_product(f: GraphLike, g: GraphLike) -> GraphLike:
    """OR-product: a pair is adjacent iff it is adjacent in >= 1 coordinate."""
    if isinstance(f, Graph) != isinstance(g, Graph):
        raise DomainError("cannot mix graphs and digraphs in a product")
    _check_size(f.n * g.n, "OR-product")
    # both non-adjacency matrices have a True diagonal, so the product has no loops
    adj = ~np.kron(~f.bool_matrix(), ~g.bool_matrix())
    return type(f)(len(adj), adj)


def or_power(g: GraphLike, t: int) -> GraphLike:
    if t < 1:
        raise DomainError("OR-power needs t >= 1")
    _check_size(g.n, "OR-power", t)
    result = g
    for _ in range(t - 1 if g.n > 1 else 0):  # on one vertex or none, g^t is g
        result = or_product(result, g)
    return result


def categorical_product(f: Graph, g: Graph) -> Graph:
    """Categorical (tensor) product: adjacent iff adjacent in both coordinates."""
    _check_size(f.n * g.n, "categorical product")
    adj = np.kron(f.bool_matrix(), g.bool_matrix())
    return Graph(len(adj), adj)


def complete_join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus all edges between the two parts."""
    _check_size(g.n + h.n, "complete join")
    adj = np.block([
        [g.bool_matrix(), np.ones((g.n, h.n), dtype=bool)],
        [np.zeros((h.n, g.n), dtype=bool), h.bool_matrix()],
    ])
    return Graph(len(adj), adj)


# ---------------------------------------------------------------------------
# the Mycielskian-of-a-power embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerEmbedding:
    """Injective map of M(G^t) into [M(G)]^t.

    (v1...vt, h) is sent to the sequence (v1,h)...(vt,h) and the apex of
    M(G^t) to the all-apex sequence.  `mapping[i]` is the image of vertex i.
    """

    mapping: tuple[int, ...]
    domain: GraphLike      # M(G^t)
    codomain: GraphLike    # [M(G)]^t

    def is_induced_isomorphism(self) -> bool:
        """Check the map is injective and preserves both edges and non-edges."""
        m = np.asarray(self.mapping, dtype=np.int64)
        if len(np.unique(m)) != len(m):
            return False
        cod = self.codomain.bool_matrix()[np.ix_(m, m)]
        return bool((self.domain.bool_matrix() == cod).all())


def embed_mycielski_power(g: GraphLike, t: int) -> PowerEmbedding:
    if t < 1:
        raise DomainError("power embedding needs t >= 1")
    n = g.n
    _check_size(2 * n + 1, "power of the Mycielskian", t)
    power = or_power(g, t)
    if isinstance(g, Graph):
        domain = mycielskian(power, 2)
        base_m = mycielskian(g, 2)
        codomain = or_power(base_m, t)
    else:
        domain = mycielskian_digraph(power, 2)
        base_m = mycielskian_digraph(g, 2)
        codomain = or_power(base_m, t)
    np_ = n ** t
    big = 2 * n + 1
    mapping = []
    for idx in range(domain.n):
        if idx == 2 * np_:  # apex of M(G^t) -> all-apex sequence
            coords = (2 * n,) * t
        else:
            h, flat = divmod(idx, np_)
            coords = tuple(h * n + v for v in power_coords(flat, n, t))
        mapping.append(power_index(coords, big))
    return PowerEmbedding(tuple(mapping), domain, codomain)


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m [directed]", then one "u v" per line
# ---------------------------------------------------------------------------

def format_edgelist(g: GraphLike) -> str:
    directed = isinstance(g, Digraph)
    a = g.bool_matrix() if directed else np.triu(g.bool_matrix(), 1)
    labels = np.array([f"{v}\n" for v in range(g.n)], dtype=object)
    parts = [f"{g.n} {g.m}" + (" directed" if directed else "") + "\n"]
    for u, row in enumerate(a):
        cols = np.flatnonzero(row)
        if cols.size:
            prefix = f"{u} "
            parts.append(prefix + prefix.join(labels[cols].tolist()))
    return "".join(parts)


def parse_edgelist(source: Union[str, TextIO]) -> GraphLike:
    """The graph of an edge list, given as its text or as an open text stream.

    A stream is read once, in chunks, so the peak memory follows the int64
    pairs and the adjacency, not the text; only a bad body is read again, to
    name its first bad line.  A stream that cannot seek is read whole first.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    elif not source.seekable():
        source = io.StringIO(source.read())
    header = ""
    while not header:
        line = source.readline()
        if not line:
            raise DomainError("empty edge-list input")
        header = line.strip()
    head = header.split()
    directed = False
    if len(head) == 3 and head[2] == "directed":
        directed = True
    elif len(head) != 2:
        raise DomainError("header must be 'n m' or 'n m directed'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DomainError(f"bad header {header!r}") from exc
    body_start = source.tell()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pairs = np.loadtxt(source, dtype=np.int64, ndmin=2, comments=None)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        elif pairs.shape[1] != 2:
            raise ValueError(f"{pairs.shape[1]} columns")
    except UnicodeDecodeError:
        raise  # the stream is unreadable, not malformed
    except ValueError as exc:
        source.seek(body_start)
        raise DomainError(_bad_edge_line(source, exc)) from None
    if len(pairs) != m:
        raise DomainError(f"expected {m} edge lines, found {len(pairs)}")
    return Digraph(n, pairs) if directed else Graph(n, pairs)


def _bad_edge_line(lines: Iterable[str], exc: ValueError) -> str:
    """Message naming the first body line that is not two int64 vertex labels."""
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) == 2 and all(-(1 << 63) <= int(p) < 1 << 63 for p in parts):
                continue
        except ValueError:
            pass
        return f"bad edge line {line.strip()!r}"
    return f"bad edge list: {exc}"
