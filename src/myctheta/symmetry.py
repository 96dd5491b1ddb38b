"""Automorphisms of a graph, and the orbits the clique search prunes by.

The clique search of `myctheta.invariants` drops, at its root, the whole
automorphism orbit of each vertex whose branch is done: every clique through
a vertex of that orbit has an image of the same size through the vertex
itself, inside the same union of unexplored orbits, so the pruned branches
could never raise the best size.

The search also prunes at depth 1, as nauty-style searches do (McKay &
Piperno 2014).  The root takes the orbits of a group H of automorphisms, so
its candidates are a union of H-orbits whenever a root branch starts, and
the candidates of its child [v], those candidates that are neighbors of v,
are mapped onto themselves by every element of H that fixes v.  Once a child
w of [v] is done, [v] drops w's orbit under a subgroup of that stabilizer,
whose generators come from Schreier's lemma; the same image argument, with
the image fixing v, shows nothing larger is lost.

Two entry points serve it.  `generators(g)` spans H with generators taken
from the graph alone, in its labels: the automorphisms `_automorphisms`
finds on its base, lifted, when it is an OR-power of its leading block
(`graphs._power_base`; every power the package builds is), and otherwise
those it finds on g.  `orbit_masks(gens, fixed)` gives the orbits of the
pointwise stabilizer of `fixed`.  The finder merges two vertices only
through a permutation it has checked to be an automorphism, and each lifted
generator is checked against the power before any is used.  Every orbit
used may be too fine but never too coarse.

A generator is an int array p with p[v] the image of vertex v.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

import numpy as np

from .errors import MycthetaInternal
from .graphs import Graph, _power_base, _power_generators

# Refinement work one orbit search may spend, counted in row blocks of the
# adjacency matrix of at most _BLOCK entries each (a round refines every
# block once); the orbits found when it is spent are kept.  The count bounds
# the time and, since every level of `_automorphism` refines twice, its depth.
_ORBIT_BLOCKS = 2000
_BLOCK = 1 << 16


def generators(g: Graph) -> np.ndarray:
    """Checked automorphisms of g as the rows of an array, in g's labels.

    When g is an OR-power of its leading block (`graphs._power_base`), the
    finder's automorphisms of the block are lifted by `_power_generators`,
    and each is checked to be a permutation and an automorphism; one that
    fails raises MycthetaInternal.  Otherwise the finder runs on g, on whose
    labelling its result depends once its budget is cut.
    """
    n = g.n
    a = g.bool_matrix()
    power = _power_base(g)
    if power is None:
        return _stack(_automorphisms(a), n)
    base, t = power
    rows = _power_generators(_automorphisms(base.bool_matrix()), base.n, t)
    for p in rows:
        if p.shape != (n,) or p.dtype.kind not in "iu" or not np.array_equal(np.sort(p), np.arange(n)):
            raise MycthetaInternal("automorphism generator is not a permutation of the vertices")
        if not _is_automorphism(a, p):
            raise MycthetaInternal("automorphism generator failed its check against the graph")
    return _stack(rows, n)


def orbit_masks(gens: np.ndarray, fixed: Sequence[int] = ()) -> list[int]:
    """The orbit bitmask of each vertex under the pointwise stabilizer of
    `fixed` in the group the rows of gens generate, or under a subgroup of
    it when `_stabilizer` is capped."""
    for v in fixed:
        gens = _stabilizer(gens, v)
    return _label_masks(_orbit_labels(gens))


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise; exact under uint64 wraparound."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ x >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ x >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return x ^ x >> np.uint64(31)


class _Refiner:
    """Color refinement of one graph, under one budget of row blocks.

    Colors are uint64 hashes of a vertex's color history, so colorings of the
    same graph compare by value.  A hash collision can only merge cells,
    which makes a refinement coarser; `_automorphism` checks every
    permutation against the graph, so no collision can make an orbit wrong.
    The rows are refined in blocks, so no n x n integer copy of a is made.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.rows = max(1, _BLOCK // max(1, len(a)))
        self.blocks = _ORBIT_BLOCKS  # left to refine

    def refine(self, col: np.ndarray) -> Optional[np.ndarray]:
        """The coarsest equitable coloring finer than col; None once the
        blocks are spent.  A new color hashes the old one with the sum of
        the neighbors' hashed colors, a multiset hash."""
        a, rows = self.a, self.rows
        cells = len(set(col.tolist()))
        while self.blocks > 0:
            self.blocks -= -(-len(a) // rows)
            h = _mix(col)
            signature = np.concatenate([(a[lo:lo + rows] * h).sum(axis=1, dtype=np.uint64)
                                        for lo in range(0, len(a), rows)])
            col = _mix(col ^ _mix(signature))
            refined = len(set(col.tolist()))
            if refined == cells:
                return col
            cells = refined
        return None


def _is_automorphism(a: np.ndarray, p: np.ndarray) -> bool:
    """a[p[i], p[j]] == a[i, j] for all i, j, checked a row block of at most
    _BLOCK entries at a time, so no n x n copy of a is made."""
    rows = max(1, _BLOCK // max(1, len(a)))
    return all(np.array_equal(a[p[lo:lo + rows]][:, p], a[lo:lo + rows])
               for lo in range(0, len(a), rows))


def _individualized(col: np.ndarray, v: int) -> np.ndarray:
    """col with v alone in a new cell, whose color hashes v's old one."""
    out = col.copy()
    out[v:v + 1] = _mix(~col[v:v + 1])
    return out


def _automorphism(r: _Refiner, ca: np.ndarray, cb: np.ndarray, x: int,
                  ys: list[int]) -> Optional[np.ndarray]:
    """A verified automorphism that carries coloring ca to cb and x to one of
    ys, or None if none is found before the refinement blocks run out.

    x and each candidate y are individualized and both sides refined; a y is
    kept only if the two colorings have the same colors.  Once they are
    discrete the colors pair every vertex, and that permutation is returned
    only if it is an automorphism.  Otherwise the smallest nontrivial cell
    is split the same way, backtracking over the partner of its first vertex.
    """
    ra = r.refine(_individualized(ca, x))
    if ra is None:
        return None
    la = ra.tolist()
    cells = Counter(la)
    if len(cells) <= len(set(ca.tolist())):  # no new cell: only a hash collision does this
        return None
    colors = sorted(la)
    for y in ys:
        rb = r.refine(_individualized(cb, y))
        if rb is None:
            return None
        lb = rb.tolist()
        if sorted(lb) != colors:
            continue
        if len(cells) == len(la):
            where = dict(zip(lb, range(len(lb))))
            p = np.array([where[c] for c in la])
            if _is_automorphism(r.a, p):
                return p
            continue
        cell = min((k, c) for c, k in cells.items() if k > 1)[1]
        p = _automorphism(r, ra, rb, la.index(cell), [j for j, c in enumerate(lb) if c == cell])
        if p is not None or r.blocks <= 0:
            return p
    return None


def _automorphisms(a: np.ndarray) -> list[np.ndarray]:
    """Automorphisms of the graph with adjacency matrix a, each one verified,
    as far as `_automorphism` finds them within `_ORBIT_BLOCKS` refined row
    blocks.

    They are sought down a chain of point stabilizers, as nauty does.  On
    each coloring, from the equitable one down, automorphisms that keep it
    map the first vertex x of its smallest nontrivial cell onto the cell's
    other orbits (on the equitable coloring, the first vertex of every cell
    onto its cell's), then x is individualized and the coloring refined,
    until it is discrete.  Each automorphism found merges every cycle it
    has, and the list holds one per merge.  Found to the end, they generate
    the whole group; cut by the budget, the orbits of the group they
    generate may be finer than the true orbits, never coarser.
    """
    n = len(a)
    parent = list(range(n))
    found: list[np.ndarray] = []

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    r = _Refiner(a)
    col = r.refine(np.zeros(n, dtype=np.uint64)) if n else None
    top = True
    while col is not None:
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(col.tolist()):
            cells.setdefault(c, []).append(v)
        split = [members for members in cells.values() if len(members) > 1]
        if not split:
            break
        smallest = min(split, key=len)
        parent[:] = range(n)  # the orbits found on this coloring
        for members in split if top else [smallest]:
            while len(members) > 1 and r.blocks > 0:
                v = members[0]
                rest = [w for w in members[1:] if find(w) != find(v)]
                p = _automorphism(r, col, col, v, rest) if rest else None
                if p is None:
                    members = rest
                    continue
                found.append(p)
                for i, j in enumerate(p.tolist()):
                    i, j = find(i), find(j)
                    if i != j:
                        parent[max(i, j)] = min(i, j)
                members = [v] + [w for w in rest if find(w) != find(v)]
        top = False
        col = r.refine(_individualized(col, smallest[0]))
    return found


def _stack(perms: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The permutations as the rows of a len(perms) x n int32 array."""
    return np.array(perms, dtype=np.int32).reshape(len(perms), n)


def _orbit_labels(perms: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's orbit under the group generated by
    the rows of perms, by label propagation.

    Each vertex takes the least label of its images, then the label of its
    label (a vertex of the same orbit).  Every edge v -> p(v) lies on a cycle
    of p, so labels flow around each cycle and the fixed point is constant
    on every orbit, at its least vertex.
    """
    lab = np.arange(perms.shape[1], dtype=np.int32)
    while len(perms):
        new = np.minimum(lab, lab[perms].min(axis=0))
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    return lab


def _label_masks(labels: Sequence[int]) -> list[int]:
    """The bitmask of the vertices that share each vertex's label."""
    masks: dict[int, int] = {}
    for v, root in enumerate(labels):
        masks[root] = masks.get(root, 0) | 1 << v
    return [masks[root] for root in labels]


# Entries of the stacked Schreier generators one stabilizer may use.  Past
# it, fewer points of the orbit carry transversal elements, which yields a
# subgroup of the stabilizer: its orbits may come out finer, never coarser.
_SCHREIER_CELLS = 1 << 16


def _stabilizer(gens: np.ndarray, v: int) -> np.ndarray:
    """Schreier generators of the stabilizer of v in the group generated by
    the rows of gens (Schreier's lemma), as the rows of an array.

    The transversal element t_y maps v to y along a breadth-first tree of
    v's orbit, and each generator g gives t_z^-1 g t_y with z = g(y).  Only
    the first points y of the orbit, as many as `_SCHREIER_CELLS` allows, get
    a t_y, and a pair is used only when z is one of them too.
    """
    k, n = gens.shape
    limit = max(1, _SCHREIER_CELLS // max(1, k * n))
    images = gens.tolist()
    points, where, tree = [v], {v: 0}, set()
    parents: list[tuple[int, int]] = []
    for y in points:
        for j in range(k):
            z = images[j][y]
            if z not in where and len(points) < limit:
                where[z] = len(points)
                points.append(z)
                parents.append((where[y], j))
                tree.add((where[z], j))
    trans = np.empty((len(points), n), dtype=np.int32)
    trans[0] = np.arange(n)
    for i, (up, j) in enumerate(parents, 1):
        trans[i] = gens[j][trans[up]]
    pairs = [(i, j, where[z]) for i, y in enumerate(points) for j in range(k)
             if (z := images[j][y]) in where and (where[z], j) not in tree]
    if not pairs:
        return np.empty((0, n), dtype=np.int32)
    ys, js, zs = (np.array(c) for c in zip(*pairs))
    inverse = np.empty_like(trans)
    inverse[np.arange(len(points))[:, None], trans] = np.arange(n, dtype=np.int32)
    return inverse[zs[:, None], gens[js[:, None], trans[ys]]]
