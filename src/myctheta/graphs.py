"""Graph and digraph types plus the product / Mycielski constructors.

Vertices are always labeled 0..n-1.  Both `Graph` and `Digraph` are immutable
after construction.  The one stored form of the adjacency, shared by both
through a private base class, is a Python int bitset per vertex (`bits`; a
digraph's row v holds the heads of v's out-arcs), the representation of the
bit-parallel clique search (San Segundo et al. 2011).  Everything else
is derived from it on demand: `edges()` / `arcs()` in row-major order, `m`,
degrees, `bool_matrix()` and `adjacency_matrix()`.  The constructors take
either pairs, which are validated as one int64 array and scattered into an
n x n boolean matrix, or that boolean matrix itself, and pack its rows into
the bitsets, so no Python object is made per edge.  Every derived graph
(complements, subgraphs, products, Mycielskians) is built as a boolean
matrix and handed to the constructor whole.

Product graphs use row-major vertex pairing, (f, g) -> f * |V(G)| + g, and
power graphs extend this to mixed-radix coordinates (leftmost coordinate most
significant).  `power_index` / `power_coords` convert between the flat index
and the coordinates.  This module owns that layout (`fractional` and
`constructions` compose only row-major pairs x * m + y in it themselves):
`_kron_power` is the Kronecker power in it, which builds `or_power` from the
non-adjacency matrix and lifts theta_bar's certificate, `_power_base`
recognises a graph that is, in its own labelling, an OR-power of its leading
block, for the lifts of theta_bar, chi_f and the clique search's symmetry,
and `_power_generators` lays a base's automorphisms out on the power.
`_mycielski_power_coords` places M(G^t) in [M(G)]^t, for `embed_mycielski_power`
and the paper's chain in `constructions`.  `_check_size` is the one check of the
vertex bound, `_exceeds_bound` its non-raising twin: every refusal reads
`<what> needs N vertices, exceeding the bound B`.

`parse_family` reads a family spec (bases `_FAMILIES`, wrappers
`_WRAPPER_KEYS`), and checks every wrapper's order before it builds one.
`_require_kind` is the one check that an invariant is given the kind of
graph it is defined for, and a nonempty one.

The edge-list text ("n m [directed]", then one "u v" line per edge) is made
by one private generator that yields the header and then blocks of whole
rows of about `_BLOCK_EDGES` edges.  `write_edgelist` writes the blocks to
a stream as they are made, so the whole text is never held; `format_edgelist`
joins them into one string.  `parse_edgelist` reads the text back.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

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


def _exceeds_bound(n: int, t: int = 1, plus: int = 0) -> bool:
    """Whether n ** t + plus vertices exceed the bound, for t >= 1, without
    building n ** t when it is far larger: for n >= 2 and t > bound.bit_length(),
    n ** t >= 2 ** t > bound.  The test `_check_size` raises on."""
    bound = max_vertices() - plus
    return n >= 2 and t > bound.bit_length() or n ** t > bound


def _check_size(n: int, what: str = "graph", t: int = 1, plus: int = 0, at_least: bool = False) -> None:
    """Raise SizeLimitError when `what` needs n ** t + plus vertices (at least
    that many, with `at_least`) and they exceed the bound.  A power past the
    bound's bit length is named, not formed."""
    if _exceeds_bound(n, t, plus):
        bound = max_vertices()
        size = n ** t + plus if t <= bound.bit_length() else f"{n}^{t}" + f" + {plus}" * bool(plus)
        raise SizeLimitError(f"{what} needs {'at least ' * at_least}{size} vertices, exceeding the bound {bound}")


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
    # read as uint64, a negative label is at least 2**63, so one test per
    # column catches both ends of the range
    u, v = p.view(np.uint64).T
    bad = (u >= n) | (v >= n)
    first = np.flatnonzero(bad | (u == v))
    if first.size:
        i = first[0]
        x, y = p[i].tolist()
        if bad[i]:
            raise DomainError(f"{what} ({x},{y}) out of range for n={n}")
        raise DomainError(f"self-loop at vertex {x} not allowed")
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


class _Bitsets:
    """The storage `Graph` and `Digraph` share: n and one int bitset per
    vertex, bit j of `bits[i]` set when i is adjacent to j (an arc i -> j)."""

    __slots__ = ("n", "bits")

    def bool_matrix(self) -> np.ndarray:
        """n x n boolean adjacency matrix (row = tail), unpacked from the bitsets."""
        return _bits_matrix(self.bits)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class Graph(_Bitsets):
    """Simple undirected graph: no loops, symmetric adjacency."""

    __slots__ = ()

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

    def adjacency_matrix(self) -> np.ndarray:
        return self.bool_matrix().astype(float)


class Digraph(_Bitsets):
    """Directed graph without loops; antiparallel arc pairs are allowed."""

    __slots__ = ()

    def __init__(self, n: int, arcs: Union[Iterable[tuple[int, int]], np.ndarray] = ()):
        """`arcs` holds (tail, head) pairs or an n x n boolean matrix."""
        a = _pair_matrix(n, arcs, "arc")
        self.n = n
        self.bits = _row_bits(a)

    @property
    def m(self) -> int:
        return sum(b.bit_count() for b in self.bits)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Arcs (u, v) in row-major order."""
        return _pairs_tuple(self.bool_matrix())

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.bits[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def in_degree(self, v: int) -> int:
        return sum(b >> v & 1 for b in self.bits)

    def reverse(self) -> "Digraph":
        return Digraph(self.n, self.bool_matrix().T)

    def underlying(self) -> Graph:
        return Graph(self.n, self.bool_matrix())

    def bidirected_graph(self) -> Graph:
        """Graph on the same vertices whose edges are the 2-cycles of D."""
        a = self.bool_matrix()
        return Graph(self.n, a & a.T)


GraphLike = Union[Graph, Digraph]


def _require_kind(g: GraphLike, kind: type, what: str) -> None:
    """DomainError unless g is a nonempty `kind`, the kind of graph `what` is defined for."""
    if not isinstance(g, kind):
        raise DomainError(f"{what} needs {'an undirected graph' if kind is Graph else 'a digraph'}")
    if g.n == 0:
        raise DomainError(f"{what} needs a nonempty graph")


# ---------------------------------------------------------------------------
# power coordinates
# ---------------------------------------------------------------------------

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
_WRAPPER_KEYS = {"mycielski": "r", "power": "t"}


def generate(family: str, n: int) -> GraphLike:
    """Named graph family with canonical labeling; family names as in the CLI."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise DomainError(
            f"unknown family {family!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return builder(n)


def parse_family(spec: str) -> GraphLike:
    """The graph of a family spec, wrapper* base ':' n and key=value tokens.

    The base is built, then each wrapper, innermost first, takes the first
    remaining token with its key (`r=`, default 2; `t=`).  Every wrapper's
    parameter and order is checked before any wrapper is built, so a spec
    beyond the vertex bound fails at once.  Each run of consecutive
    `mycielski:` wrappers is then built in one matrix of the run's final
    order (`_mycielski_tower`).  Integers are in the grammar of the
    edge-list format."""
    tokens = [tok for tok in spec.split(":") if tok]
    if not tokens:
        raise DomainError("empty family spec")
    depth = next((i for i, tok in enumerate(tokens) if tok not in _WRAPPER_KEYS), len(tokens))
    if depth == len(tokens):
        raise DomainError("family spec ends where a graph was expected")
    head, rest = tokens[depth], tokens[depth + 1:]
    if head not in _FAMILIES:
        raise DomainError(f"unknown constructor {head!r} in family spec")
    if not rest:
        raise DomainError(f"family {head!r} needs a size, e.g. {head}:5")
    try:
        n = _int_token(rest[0])
    except ValueError:
        raise DomainError(f"bad size {rest[0]!r} for family {head!r}") from None
    g, rest = generate(head, n), rest[1:]
    steps, size = [], g.n  # (wrapper, parameter, order it builds), innermost first
    for wrapper in reversed(tokens[:depth]):
        key = _WRAPPER_KEYS[wrapper] + "="
        tok = next((tok for tok in rest if tok.startswith(key)), None)
        value = None
        if tok is not None:
            rest.remove(tok)
            try:
                value = _int_token(tok[len(key):])
            except ValueError:
                raise DomainError(f"bad parameter token {tok!r}") from None
        if wrapper == "power":
            if value is None:
                raise DomainError("power needs an exponent, e.g. power:cycle:5:t=2")
            size = _power_order(size, value)
        else:
            value = 2 if value is None else value
            size = _mycielski_order(size, value)
        steps.append((wrapper, value, size))
    if rest:
        raise DomainError(f"unparsed family tokens: {rest}")
    for wrapper, run in itertools.groupby(steps, key=lambda step: step[0]):
        run = list(run)
        if wrapper == "power":
            for _, t, _ in run:
                g = or_power(g, t)
        else:
            g = _mycielski_tower(g, [r for _, r, _ in run], run[-1][2])
    return g


def _require_positive(n: int) -> None:
    if n < 1:
        raise DomainError("family size must be at least 1")
    _check_size(n)


# ---------------------------------------------------------------------------
# Mycielski constructions
# ---------------------------------------------------------------------------

def _mycielski_order(n: int, r: int) -> int:
    """r n + 1, the order of M_r over n vertices, once r >= 1 and it fits the bound."""
    if r < 1:
        raise DomainError("Mycielskian needs r >= 1")
    _check_size(r * n + 1, "Mycielskian")
    return r * n + 1


def _mycielski_tower(g: GraphLike, rs: Sequence[int], size: int) -> GraphLike:
    """M_{r_k}(... M_{r_1}(g)) for rs = r_1..r_k, of g's type, built in one
    matrix of the final order `size` and packed once.

    Each level writes M_r over the leading n x n block into the leading
    r n + 1 square, still zero outside that block: vertex (v, level) is
    level * n + v, level 0 is the block itself, consecutive levels are joined
    by it in both directions, and the apex (row r n) points at every vertex
    of level r-1.  Only the apex's row is written, so a digraph's apex arcs
    point outward.  A graph is symmetrised once, by `Graph`, at the end: the
    block a level copies has each earlier apex's row but not its column, and
    each copy and its mirror image together symmetrise to the full block.
    """
    out = np.zeros((size, size), dtype=bool)
    n = g.n
    out[:n, :n] = g.bool_matrix()
    for r in rs:
        a = out[:n, :n]
        for lvl in range(r - 1):
            lo, mid, hi = lvl * n, (lvl + 1) * n, (lvl + 2) * n
            out[lo:mid, mid:hi] = a
            out[mid:hi, lo:mid] = a
        out[r * n, (r - 1) * n:r * n] = True
        n = r * n + 1
    return type(g)(size, out)


def mycielskian(g: GraphLike, r: int = 2) -> GraphLike:
    """r-level generalized Mycielskian of a graph or a digraph, of g's type.

    Vertex layout: (v, level) -> level * n + v for level in 0..r-1, apex last.
    r = 2 is the classical construction; r = 1 adds a single dominating vertex.
    In a digraph, inter-level arcs inherit the orientation of the original
    arcs and apex arcs point outward from the apex toward level r-1.
    (Orienting them the other way is an equally valid convention and
    reverses no other structure.)
    """
    return _mycielski_tower(g, [r], _mycielski_order(g.n, r))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def or_product(f: GraphLike, g: GraphLike) -> GraphLike:
    """OR-product: a pair is adjacent iff it is adjacent in >= 1 coordinate.

    No package code calls it (`or_power` folds `_kron_power` instead); it
    stays public API on purpose, exported from `myctheta` for products of two
    different graphs.
    """
    if isinstance(f, Graph) != isinstance(g, Graph):
        raise DomainError("cannot mix graphs and digraphs in a product")
    _check_size(f.n * g.n, "OR-product")
    # both non-adjacency matrices have a True diagonal, so the product has no loops
    adj = ~np.kron(~f.bool_matrix(), ~g.bool_matrix())
    return type(f)(len(adj), adj)


def _kron_power(a: np.ndarray, t: int) -> np.ndarray:
    """The t-th Kronecker power of a, folded from the left, a x a x ... x a:
    entry (i, j) is the product over the coordinates of i and j in base
    len(a), leftmost coordinate most significant, the layout of `or_power`."""
    out = a
    for _ in range(t - 1):
        out = np.kron(out, a)
    return out


def or_power(g: GraphLike, t: int) -> GraphLike:
    """g^t, the complement of the Kronecker power of g's closed non-adjacency."""
    _power_order(g.n, t)
    if g.n <= 1:  # on one vertex or none, g^t is g
        return g
    adj = ~_kron_power(~g.bool_matrix(), t)
    return type(g)(len(adj), adj)


def _power_order(n: int, t: int) -> int:
    """n^t, the order of an OR-power, once t >= 1 and it fits the bound."""
    if t < 1:
        raise DomainError("OR-power needs t >= 1")
    _check_size(n, "OR-power", t)
    return n ** t


def _power_base(g: GraphLike) -> Optional[tuple[GraphLike, int]]:
    """(h, t) for the least b >= 2 such that g, in its own labelling, is
    `or_power(h, t)` with t >= 2 and h its leading b x b block, of g's type;
    None if there is no such b.

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
            if np.array_equal(_kron_power(non[:b, :b], t), non):
                return type(g)(b, ~non[:b, :b]), t
    return None


def _power_generators(gens: Sequence[np.ndarray], n: int, t: int) -> tuple[np.ndarray, ...]:
    """Automorphism generators of the t-th OR-power of a graph on n vertices
    with generators gens, in the layout of `or_power`: each one applied on
    one coordinate, and the swaps of adjacent coordinates."""
    grid = np.arange(n ** t).reshape((n,) * t)
    out = [np.take(grid, p, axis=i).ravel() for i in range(t) for p in gens]
    if n > 1:
        out += [np.swapaxes(grid, i, i + 1).ravel() for i in range(t - 1)]
    return tuple(out)


# ---------------------------------------------------------------------------
# the Mycielskian-of-a-power embedding
# ---------------------------------------------------------------------------

def _mycielski_power_coords(index: int, n: int, t: int) -> tuple[int, ...]:
    """Coordinates in [M(G)]^t of vertex `index` of M(G^t), for G on n vertices:
    (v1...vt, h) is sent to the sequence (v1,h)...(vt,h) and the apex of M(G^t)
    to the all-apex sequence, in the Mycielskian and power layouts above."""
    power = n ** t
    if index == 2 * power:
        return (2 * n,) * t
    h, flat = divmod(index, power)
    return tuple(h * n + v for v in power_coords(flat, n, t))


@dataclass(frozen=True)
class PowerEmbedding:
    """Injective map of M(G^t) into [M(G)]^t (`_mycielski_power_coords`); `mapping[i]` is vertex i's image."""

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
    _check_size(2 * g.n + 1, "power of the Mycielskian", t)
    domain = mycielskian(or_power(g, t), 2)
    codomain = or_power(mycielskian(g, 2), t)
    mapping = tuple(power_index(_mycielski_power_coords(i, g.n, t), 2 * g.n + 1) for i in range(domain.n))
    return PowerEmbedding(mapping, domain, codomain)


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m [directed]", then one "u v" per line
# ---------------------------------------------------------------------------

# edges per block of the edge-list text: whole rows are joined until a block
# holds at least this many, about 0.6 MB of text on C7^4
_BLOCK_EDGES = 1 << 16


def _edgelist_blocks(g: GraphLike) -> Iterator[str]:
    """The edge-list text of g: its header, then blocks of whole rows.

    A graph's row u lists its neighbours above u, read from the slice
    `row[u + 1:]` of the adjacency, so no upper-triangle copy is made.
    """
    directed = isinstance(g, Digraph)
    yield f"{g.n} {g.m}" + (" directed" if directed else "") + "\n"
    labels = np.array([f"{v}\n" for v in range(g.n)], dtype=object)
    parts, edges = [], 0
    for u, row in enumerate(g.bool_matrix()):
        first = 0 if directed else u + 1
        heads = labels[first:][row[first:]]
        if heads.size:
            prefix = f"{u} "
            parts.append(prefix + prefix.join(heads.tolist()))
            edges += heads.size
            if edges >= _BLOCK_EDGES:
                yield "".join(parts)
                parts, edges = [], 0
    if parts:
        yield "".join(parts)


def format_edgelist(g: GraphLike) -> str:
    """The edge-list text of g as one string."""
    return "".join(_edgelist_blocks(g))


def write_edgelist(g: GraphLike, out: TextIO) -> None:
    """Write the edge-list text of g to `out` block by block, so the whole
    text is never held: the same characters as `format_edgelist(g)`."""
    for block in _edgelist_blocks(g):
        out.write(block)


def parse_edgelist(source: Union[str, TextIO]) -> GraphLike:
    """The graph of an edge list, given as its text or as an open text stream.

    The body is read once, so the peak memory follows the int64 pairs and the
    adjacency, not the text; only a bad body is read again, to name its first
    bad line.  A stream opened on a regular file (`_file_path`) is parsed from
    that file's path, past the header's lines: given a path, `np.loadtxt`
    reads the file in large chunks in C, where from a stream it takes one
    Python str per line.  Text, other streams and pipes are parsed from the
    stream; a pipe, which cannot seek, is read whole first.  Text is read with
    universal newlines, as a file is.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    elif not source.seekable():
        source = io.StringIO(source.read())
    path = _file_path(source)
    header, skipped = "", 0
    while not header:
        line = source.readline()
        if not line:
            raise DomainError("empty edge-list input")
        header, skipped = line.strip(), skipped + 1
    head = header.split()
    directed = False
    if len(head) == 3 and head[2] == "directed":
        directed = True
    elif len(head) != 2:
        raise DomainError("header must be 'n m' or 'n m directed'")
    try:
        n, m = _int_token(head[0]), _int_token(head[1])
    except ValueError as exc:
        raise DomainError(f"bad header {header!r}") from exc
    body_start = source.tell()
    body, skiprows = (path, skipped) if path else (source, 0)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pairs = np.loadtxt(body, dtype=np.int64, ndmin=2, comments=None,
                               skiprows=skiprows, encoding=source.encoding)
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


# `np.loadtxt` opens a path through `numpy.lib.npyio.DataSource`, which
# decompresses by these suffixes
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _file_path(source: TextIO) -> Optional[str]:
    """Absolute path of the regular file `source` has open, if `np.loadtxt`
    would read that same file from it; else None.

    The stream must be at its start with strict decoding, and its name must
    still stat to the open file, so a file that later replaced it at that
    name is not read.  The path is made absolute so that a name that looks
    like a URL is not fetched.  numpy reads the path with universal newlines,
    as `open` does by default, so the header's line count holds for a stream
    opened that way.
    """
    name = getattr(source, "name", None)
    if (not isinstance(name, str) or name.endswith(_COMPRESSED_SUFFIXES)
            or getattr(source, "errors", None) != "strict" or source.tell() != 0):
        return None
    try:
        opened = os.fstat(source.fileno())
        if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.stat(name)):
            return os.path.abspath(name)
    except (OSError, ValueError):  # ValueError: a name with a NUL byte
        pass
    return None


_INT64_TOKEN = re.compile(r"[+-]?[0-9]+")


def _int_token(token: str) -> int:
    """The integer a token spells in the grammar of `np.loadtxt`, an optional
    sign and ASCII digits; ValueError otherwise, where Python's `int` would
    also take `1_0`, surrounding spaces or non-ASCII digits."""
    if not _INT64_TOKEN.fullmatch(token):
        raise ValueError(f"not an integer token: {token!r}")
    return int(token)


def _bad_edge_line(lines: Iterable[str], exc: ValueError) -> str:
    """Message naming the first body line that is not two int64 vertex labels,
    in the integer grammar of `np.loadtxt`: an optional sign and ASCII digits."""
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if len(parts) == 2 and all(_INT64_TOKEN.fullmatch(p) and -(1 << 63) <= int(p) < 1 << 63
                                   for p in parts):
            continue
        return f"bad edge line {line.strip()!r}"
    return f"bad edge list: {exc}"
