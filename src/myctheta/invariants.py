"""Exact combinatorial invariants: clique numbers, chromatic number, and
finite-power capacity lower bounds.

All searches are deterministic: vertices are ordered by degeneracy with ties
broken by index, and budgets are node counts, not wall time.  A truncated
search reports exhausted=False and the best witness found; it never claims a
wrong optimum.

The clique search bounds each node by a bit-parallel coloring of its
candidate bitset, one color class at a time (BBMC).  Its classes equal those
of first-fit coloring in index order, and it drops only vertices whose color
the bound would prune.  At the root it also drops the whole automorphism
orbit of each vertex whose branch is done: every clique through a vertex of
that orbit has an image of the same size through the vertex itself, inside
the same union of unexplored orbits, so the pruned branches could never
raise the best size.

The search also prunes at depth 1, as nauty-style searches do (McKay &
Piperno 2014).  The root takes the orbits of a group H of automorphisms, so
its candidates are a union of H-orbits whenever a root branch starts, and
the candidates of its child [v], those candidates that are neighbors of v,
are mapped onto themselves by every element of H that fixes v.  Once a child
w of [v] is done, [v] drops w's orbit under a subgroup of that stabilizer,
whose generators come from Schreier's lemma; the same image argument, with
the image fixing v, shows nothing larger is lost.  H is spanned by
generators taken from the graph alone: the automorphisms `_automorphisms`
finds on its base, lifted, when it is an OR-power of its leading block (as
every power the package builds is), and otherwise those it finds on the
graph itself.  The finder merges two vertices only through a permutation
it has checked to be an automorphism, and each lifted generator is checked
against the power before any is used.  Every orbit used may be too fine but
never too coarse.

Size and exhausted are those of the unpruned search, and so is the witness
whenever the optimum turns up before an orbit first prunes (see
`_max_clique_bits`).  The orbits are computed only when a node at depth 0
or 1 is about to take its second branch, so searches that end in their
first branch there, and commands that never search, pay nothing for them.

The transitive clique search also takes an optional certified upper bound
`cap` on the order's length and an optional `seed`, a known transitive
order.  The capacity report passes floor(theta_bar(U)^k) for the search over
D^k, where U is the underlying graph of D: every transitive clique of D^k is
a clique of U^k, omega <= theta_bar (the sandwich theorem) and theta_bar is
multiplicative over OR-powers.  A seed that reaches the cap closes the
question with no search, and `closed_by` is "theta".  A seed below the cap
leaves the search tree as it is: it is only returned if a truncated search
ends below it.  A verified order longer than its cap contradicts the bound
and raises MycthetaInternal; it is never clipped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, MycthetaInternal
from .graphs import Digraph, Graph, _bits_matrix, _power_base, _row_bits, or_power, power_generators

GraphLike = Union[Graph, Digraph]


@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: tuple[int, ...]
    exhausted: bool
    nodes: int
    capped: bool = False  # the size reached its certified cap

    @property
    def closed_by(self) -> Optional[str]:
        """What proved the size optimal: "theta", "search", or None if truncated."""
        if self.capped:
            return "theta"
        return "search" if self.exhausted else None


class _Budget:
    __slots__ = ("limit", "nodes")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.nodes = 0

    def tick(self) -> bool:
        """Count one search node; False once the budget is spent."""
        self.nodes += 1
        return self.limit is None or self.nodes <= self.limit

    @property
    def within_limit(self) -> bool:
        return self.limit is None or self.nodes <= self.limit


def _ordered_bits(g: Graph) -> tuple[list[int], tuple[int, ...]]:
    """Smallest-last (degeneracy) order, ties broken by vertex index, and the
    bitsets of g relabeled so that vertex i is order[i]."""
    a = g.bool_matrix()
    deg = a.sum(axis=1)
    removed = 2 * g.n  # stays above every live degree through later decrements
    order = []
    for _ in range(g.n):
        v = int(np.argmin(deg))  # the first minimum: ties go to the lower index
        order.append(v)
        deg[a[v]] -= 1
        deg[v] = removed
    order.reverse()  # largest core first
    return order, _row_bits(a[np.ix_(order, order)])


# Refinement work one orbit search may spend, counted in row blocks of the
# adjacency matrix of at most _BLOCK entries each (a round refines every
# block once); the orbits found when it is spent are kept.  The count bounds
# the time and, since every level of `_automorphism` refines twice, its depth.
_ORBIT_BLOCKS = 2000
_BLOCK = 1 << 16


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

    def is_automorphism(self, p: np.ndarray) -> bool:
        return _is_automorphism(self.a, p)


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
            if r.is_automorphism(p):
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


class _Symmetry:
    """The orbits `_max_clique_bits` prunes by, in the search's labelling.

    The root takes the orbits of the group H the generators span, and a
    depth-1 node [v] those of the subgroup of H's stabilizer of v spanned by
    `_stabilizer`.  Given none, the generators are the automorphisms
    `_automorphisms` finds on g's base block, lifted by `power_generators`,
    when g is an OR-power of it (`_power_base`), and those it finds on the
    search's own bits otherwise.  Each generator given or lifted (`p[v]` the
    image of v, in g's own labelling) is checked to be an automorphism, and
    one that fails raises MycthetaInternal.  They are taken once, on the
    first call, which comes only when a node at depth 0 or 1 is about to
    take its second branch.
    """

    def __init__(self, g: Graph, bits: tuple[int, ...], order: list[int],
                 generators: Optional[Sequence[np.ndarray]]):
        self.g = g
        self.bits = bits
        self.order = order
        self.generators = generators
        self.gens: Optional[np.ndarray] = None  # the checked generators, relabeled

    def __call__(self, current: list[int]) -> list[int]:
        """The orbit bitmask of each vertex, for the node at depth 0 or 1
        whose clique so far is `current`."""
        if self.gens is None:
            self.gens = self._checked()
        return _label_masks(_orbit_labels(_stabilizer(self.gens, current[0]) if current else self.gens))

    def _checked(self) -> np.ndarray:
        n = len(self.bits)
        a = _bits_matrix(self.bits)
        generators = self.generators
        if generators is None:
            power = _power_base(self.g)
            if power is None:
                return _stack(_automorphisms(a), n)
            base, t = power
            generators = power_generators(_automorphisms(base), len(base), t)
        order = np.asarray(self.order, dtype=np.intp)
        relabel = np.empty(n, dtype=np.intp)  # graph vertex -> search vertex
        relabel[order] = np.arange(n)
        rows = []
        for p in generators:
            p = np.asarray(p)
            hit = np.zeros(n, dtype=bool)
            if p.shape == (n,) and p.dtype.kind in "iu" and (n == 0 or 0 <= p.min() <= p.max() < n):
                hit[p] = True
            if not hit.all():
                raise MycthetaInternal("automorphism generator is not a permutation of the vertices")
            q = relabel[p[order]]
            if not _is_automorphism(a, q):
                raise MycthetaInternal("automorphism generator failed its check against the graph")
            rows.append(q)
        return _stack(rows, n)


def _max_clique_bits(bits: tuple[int, ...], budget: _Budget,
                     initial_best: tuple[int, tuple[int, ...]],
                     orbits: _Symmetry) -> tuple[int, tuple[int, ...]]:
    """Branch and bound over candidate bitsets with BBMC coloring bounds,
    from every vertex of the graph.

    Each node colors its candidates one class at a time, as in BBMC (San
    Segundo, Rodriguez-Losada & Jimenez 2011): class k repeatedly takes the
    lowest uncolored vertex that has no neighbor in the class yet.  Built
    lowest index first, the classes are exactly those of first-fit coloring
    in index order, so below depth 1 the search tree, node counts and
    witnesses are those of per-vertex greedy coloring.  Only vertices of
    color k > kmin = best_size - len(current) are kept for branching: the
    loop would prune every lower color, since best_size only grows while a
    node is expanded.

    Symmetry prunes the top two levels, the root and depth 1.
    `orbits(current)` gives each vertex's orbit bitmask at the node whose
    clique so far is `current`: under a group H of automorphisms at the
    root, under a subgroup S of H's stabilizer of v at the depth-1 node [v].
    It is called only when that node is about to take its second branch;
    from then on, once a branch is done, its vertex's whole orbit leaves the
    node's candidates.

    The root starts from every vertex and drops whole H-orbits, so its
    candidates R are H-invariant whenever a root branch starts.  The node
    [v] starts from R & N(v), which every element of H fixing v maps onto
    itself, and drops whole S-orbits, so its candidates stay S-invariant.
    At either node, let C be the candidates when the branch of w started
    and w' a later candidate in w's orbit, taken to w by an automorphism s
    of the node's group (fixing v at depth 1).  A clique through w' (and v)
    within later candidates, a subset of C, maps under s onto a clique of
    the same size through w (and v) within C, which w's branch has already
    beaten or matched.  So skipping w' never loses a larger clique, and
    size and exhausted are those of the unpruned search.

    The witness is the first clique of the final size found.  The tree is
    the unpruned one until an orbit first takes a vertex other than the one
    just branched on, so the witness is the unpruned one whenever the
    optimum turns up before that, as in the first child of the first root
    branch of C5^3 and C7^3, and on every graph the tests compare.  Later
    branches see fewer candidates than unpruned, which could order their
    ties differently.
    """
    best_size, best_witness = initial_best
    outside = [~(b | 1 << v) for v, b in enumerate(bits)]  # neither v nor a neighbor

    def expand(mask: int, current: list[int]) -> None:
        nonlocal best_size, best_witness
        if not budget.tick():
            return
        kmin = best_size - len(current)
        order: list[int] = []
        bounds: list[int] = []
        u = mask
        k = 0
        while u:
            k += 1
            q = u
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q &= outside[v]
                u ^= low
                if k > kmin:
                    order.append(v)
                    bounds.append(k)
        shallow = len(current) < 2  # prune by orbits
        orbit: list[int] = []  # orbit bitmask of each vertex, once a second branch needs it
        done = -1  # the vertex branched on last, while its orbit is still a candidate
        for i in range(len(order) - 1, -1, -1):
            if budget.limit is not None and budget.nodes > budget.limit:
                return
            v = order[i]
            if len(current) + bounds[i] <= best_size:
                return
            if shallow:
                if done >= 0:
                    if not orbit:
                        orbit = orbits(current)
                    mask &= ~orbit[done]
                    done = -1
                if not mask >> v & 1:
                    continue
                done = v
            current.append(v)
            if len(current) > best_size:
                best_size = len(current)
                best_witness = tuple(sorted(current))
            sub = mask & bits[v]
            if sub:
                expand(sub, current)
            current.pop()
            mask &= ~(1 << v)

    expand((1 << len(bits)) - 1, [])
    return best_size, best_witness


def _greedy_clique(g: Graph, order: list[int]) -> tuple[int, ...]:
    clique: list[int] = []
    common = -1  # the vertices adjacent to every member so far
    for v in order:
        if common >> v & 1:
            clique.append(v)
            common &= g.bits[v]
    return tuple(sorted(clique))


def verify_clique(g: Graph, witness: tuple[int, ...]) -> bool:
    """Every two members are adjacent; a repeated member is not adjacent to
    itself, so a repeat fails too."""
    common = -1
    for v in witness:
        if not common >> v & 1:
            return False
        common &= g.bits[v]
    return True


def _is_transitive(d: Digraph, order: tuple[int, ...]) -> bool:
    """Every forward pair of `order` is an arc of d."""
    idx = np.asarray(order, dtype=np.int64)
    return bool(d.bool_matrix()[np.ix_(idx, idx)][np.triu_indices(len(idx), 1)].all())


def clique_number(g: Graph, node_budget: Optional[int] = None,
                  generators: Optional[Sequence[np.ndarray]] = None) -> CliqueResult:
    """Branch-and-bound maximum clique with bit-parallel coloring upper bounds.

    The search prunes its root and depth 1 by the group automorphism
    generators of g span: by default those `_Symmetry` takes from g alone,
    else `generators` (`p[v]` the image of v), each checked first; `()`
    gives the unpruned tree.
    """
    if g.n == 0:
        raise DomainError("clique number needs a nonempty vertex set")
    # search in the degeneracy order so bit tricks scan it cheaply
    order, bits = _ordered_bits(g)
    pos = {v: i for i, v in enumerate(order)}
    seed = tuple(sorted(pos[v] for v in _greedy_clique(g, order)))
    budget = _Budget(node_budget)
    size, witness = _max_clique_bits(bits, budget, (len(seed), seed), _Symmetry(g, bits, order, generators))
    original = tuple(sorted(order[i] for i in witness))
    if not verify_clique(g, original):
        raise MycthetaInternal("clique witness failed re-verification")
    return CliqueResult(size, original, budget.within_limit, budget.nodes)


def symmetric_clique_number(d: Digraph, node_budget: Optional[int] = None) -> CliqueResult:
    """Largest set of pairwise bidirected vertices."""
    return clique_number(d.bidirected_graph(), node_budget)


def transitive_clique_number(d: Digraph, node_budget: Optional[int] = None,
                             cap: Optional[int] = None,
                             seed: tuple[int, ...] = ()) -> CliqueResult:
    """Largest vertex set orderable so that every forward pair is an arc.

    The witness is returned in that order.  A transitive order is built left
    to right; the achievable depth from a candidate set depends only on that
    set, so results are memoized per candidate mask.  Values computed after
    the budget runs out are realizable lower bounds, never overestimates.
    The search walks an explicit stack of frames, one per vertex of the
    order being built, so no recursion limit caps the order's length.

    `cap` bounds the answer from above and `seed` is a known transitive
    order; a seed that reaches the cap is returned with no search at all.
    """
    if d.n == 0:
        raise DomainError("clique number needs a nonempty vertex set")
    if seed and not (all(0 <= v < d.n for v in seed) and _is_transitive(d, seed)):
        raise DomainError("seed is not a transitive order of the digraph")
    budget = _Budget(node_budget)
    if cap is not None and len(seed) >= cap:
        size, witness, capped = len(seed), tuple(seed), True
    else:
        size, witness = _longest_transitive_order(d.out_bits, (1 << d.n) - 1, budget)
        capped = False
        if size < len(seed):  # a truncated search that ended below the seed
            size, witness = len(seed), tuple(seed)
    if not _is_transitive(d, witness):
        raise MycthetaInternal("transitive witness failed re-verification")
    if cap is not None and size > cap:
        raise MycthetaInternal(f"verified clique of size {size} exceeds its certified cap {cap}")
    return CliqueResult(size, witness, capped or budget.within_limit, budget.nodes, capped)


def _longest_transitive_order(out_bits: tuple[int, ...], full: int,
                              budget: _Budget) -> tuple[int, tuple[int, ...]]:
    """Longest order v1, v2, ... within `full` with an arc from each vertex
    to every later one, as (length, order).

    The depth-first search over candidate masks keeps one frame per vertex
    of the order being built: [mask, untried vertices, best length, best
    order, vertex being tried, size of mask].  A mask's value is memoized
    once all of its vertices are tried or its best order uses all of them,
    while the budget holds.
    """
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}
    frames: list[list] = []

    def enter(cand: int) -> Optional[tuple[int, tuple[int, ...]]]:
        """The value of cand if known at once; else push its frame, None."""
        if cand == 0:
            return 0, ()
        hit = memo.get(cand)
        if hit is not None:
            return hit
        if not budget.tick():
            return 0, ()
        frames.append([cand, cand, 0, (), -1, cand.bit_count()])
        return None

    value = enter(full)
    while frames:
        frame = frames[-1]
        if value is not None:  # the value of the mask after frame[4]
            r, tail = value
            if 1 + r > frame[2]:
                frame[2], frame[3] = 1 + r, (frame[4],) + tail
            value = None
        cand = frame[0]
        m = frame[1] if frame[2] < frame[5] else 0  # an order using every candidate is unbeatable
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            sub = cand & out_bits[v]
            if 1 + sub.bit_count() > frame[2]:
                frame[1], frame[4] = m, v
                value = enter(sub)
                break
        else:
            frames.pop()
            value = (frame[2], frame[3])
            if budget.within_limit:
                memo[cand] = value
    return value


# ---------------------------------------------------------------------------
# chromatic number
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChromaticResult:
    lo: int
    hi: int
    exhausted: bool
    coloring: tuple[int, ...]
    nodes: int

    @property
    def value(self) -> int:
        if not self.exhausted:
            raise DomainError(
                f"chromatic number not settled; bracket is [{self.lo}, {self.hi}]"
            )
        return self.lo


def greedy_coloring(g: Graph) -> tuple[int, ...]:
    """DSATUR greedy coloring; deterministic tie-break by vertex index.

    This is the first descent of `_k_colorable` with k = n: the least free
    color never exceeds the number of colors used, so it never backtracks.
    """
    return _k_colorable(g, g.n, _Budget(None))


def _k_colorable(g: Graph, k: int, budget: _Budget) -> Optional[tuple[int, ...]]:
    """Exact k-coloring by DSATUR branching; None when there is none or the
    budget runs out.

    The depth-first search keeps one frame per colored vertex on an explicit
    stack, so no recursion limit caps n.  A vertex tries its free colors in
    ascending order, up to the first unused one, which is canonical.
    """
    n = g.n
    a = g.bool_matrix()
    adjacent = [np.flatnonzero(row).tolist() for row in a]
    degree = a.sum(axis=1).tolist()
    colors = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    # (vertex, untried colors largest first, colors used before it, vertices it saturated)
    frames: list[tuple[int, list[int], int, list[int]]] = []
    used = 0
    while budget.tick():
        if len(frames) == n:
            return tuple(colors)
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len(sat[u]), degree[u], -u),
        )
        options = [c for c in range(min(k, used + 1) - 1, -1, -1) if c not in sat[v]]
        frames.append((v, options, used, []))
        while frames:
            v, options, used, touched = frames[-1]
            if colors[v] >= 0:
                for u in touched:
                    sat[u].discard(colors[v])
                touched.clear()
                colors[v] = -1
            if options:
                c = options.pop()
                colors[v] = c
                touched.extend(u for u in adjacent[v] if colors[u] < 0 and c not in sat[u])
                for u in touched:
                    sat[u].add(c)
                used = max(used, c + 1)
                break
            frames.pop()
        else:
            return None
    return None


def chromatic_number(g: Graph, node_budget: Optional[int] = None,
                     omega: Optional[CliqueResult] = None) -> ChromaticResult:
    """Exact chromatic number by iterative deepening between a clique lower
    bound and a DSATUR upper bound; reports a bracket when the budget runs out.

    The clique search gets a quarter of the budget, and its nodes count
    against the whole.  `omega` is a clique search of g already run: when it
    is exhaustive within that quarter, the search would repeat it node for
    node, so it stands in and the result is the same.
    """
    if g.n == 0:
        raise DomainError("chromatic number needs a nonempty vertex set")
    greedy = greedy_coloring(g)
    hi = max(greedy) + 1
    clique_share = node_budget // 4 if node_budget else None
    within_share = omega is not None and (clique_share is None or omega.nodes <= clique_share)
    if not (within_share and omega.exhausted):
        omega = clique_number(g, clique_share)
    lo = omega.size if omega.exhausted else 1
    budget = _Budget(node_budget)
    budget.nodes = omega.nodes
    coloring = greedy
    k = lo
    while k < hi:
        attempt = _k_colorable(g, k, budget)
        if attempt is not None:
            hi = k
            coloring = attempt
            break
        if not budget.within_limit:
            return ChromaticResult(k, hi, False, coloring, budget.nodes)
        k += 1
    return ChromaticResult(hi, hi, True, coloring, budget.nodes)


def verify_coloring(g: Graph, coloring: tuple[int, ...]) -> bool:
    return all(coloring[u] != coloring[v] for u, v in g.edges())


# ---------------------------------------------------------------------------
# finite-power capacity lower bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityBound:
    value: float
    k: int
    clique: CliqueResult
    directed: bool

    @property
    def exhausted(self) -> bool:
        return self.clique.exhausted


def capacity_lower_bound(g: GraphLike, k: int, node_budget: Optional[int] = None,
                         cap: Optional[int] = None,
                         seed: tuple[int, ...] = ()) -> CapacityBound:
    """k-th root of the clique number of the k-th OR-power.

    Uses the transitive clique number for digraphs; flags whether the inner
    search was exhaustive.  The value is a valid capacity lower bound either
    way because any witness clique suffices.  `cap` and `seed` go to the
    transitive search over a digraph's power, in its vertex numbering; the
    undirected search takes neither.
    """
    if k < 1:
        raise DomainError("capacity lower bound needs k >= 1")
    directed = isinstance(g, Digraph)
    if not directed and (cap is not None or seed):
        raise DomainError("a cap or seed applies only to the transitive search of a digraph")
    power = or_power(g, k)  # SizeLimitError when n**k exceeds the bound
    if directed:
        res = transitive_clique_number(power, node_budget, cap, seed)
    else:
        res = clique_number(power, node_budget)
    return CapacityBound(res.size ** (1.0 / k), k, res, directed)
