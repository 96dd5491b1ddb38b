"""Exact combinatorial invariants: clique numbers, chromatic number, and
finite-power capacity lower bounds.

All searches are deterministic: vertices are ordered by degeneracy with ties
broken by index, and budgets are node counts, not wall time.  Every search
is bounded: a budget of None means `DEFAULT_BUDGET` nodes (10^7), read when
the search starts.  A truncated search reports exhausted=False and the best
witness found; it never claims a wrong optimum.  `_Budget` owns the rule
that a caller's budget is at least 1.  Each result's `to_dict` is its
document, the same in `invariant` and in `report`.  Each search takes one
kind of graph (`graphs._require_kind`) and walks an explicit stack.

The clique search bounds each node by a bit-parallel coloring of its
candidate bitset, one color class at a time (BBMC).  Its classes equal those
of first-fit coloring in index order, and it drops only vertices whose color
the bound would prune.  At the root and at depth 1 it also drops whole
automorphism orbits, which `myctheta.symmetry` supplies (in g's labels,
relabelled into the search's order once) and justifies.

Size and exhausted are those of the unpruned search, and so is the witness
whenever the optimum turns up before an orbit first prunes (see
`_max_clique_bits`).  The orbits are computed only when a node at depth 0
or 1 is about to take its second branch, so searches that end in their
first branch there, and commands that never search, pay nothing for them.

The transitive clique search also takes an optional certified upper bound
`cap` on the order's length and an optional `seed`, a known transitive
order.  The capacity report passes `ThetaSolution.cap(k)` of theta_bar(U),
floor(upper^k (1 + 1e-9)), for the search over D^k, where U is the underlying
graph of D: every transitive clique of D^k is a clique of U^k, omega <=
theta_bar (the sandwich theorem) and theta_bar is multiplicative over OR-powers.  A seed that reaches the cap closes the
question with no search, and `closed_by` is "theta".  A seed below the cap
leaves the search tree as it is: it is only returned if a truncated search
ends below it.  A verified order longer than its cap contradicts the bound
and raises MycthetaInternal; it is never clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import symmetry
from .errors import DomainError, MycthetaInternal
from .graphs import Digraph, Graph, GraphLike, _require_kind, _row_bits, or_power

DEFAULT_BUDGET = 10 ** 7  # the node budget of a search given none


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

    def to_dict(self) -> dict:
        return {"size": self.size, "witness": list(self.witness), "exhausted": self.exhausted,
                "nodes": self.nodes, "closed_by": self.closed_by}


class _Budget:
    __slots__ = ("limit", "nodes")

    def __init__(self, node_budget: Optional[int]):
        """A caller's budget, checked here alone."""
        if node_budget is not None and node_budget < 1:
            raise DomainError(f"node budget must be at least 1, got {node_budget}")
        self.limit = DEFAULT_BUDGET if node_budget is None else node_budget
        self.nodes = 0

    def tick(self) -> bool:
        """Count one search node; False once the budget is spent."""
        self.nodes += 1
        return self.nodes <= self.limit

    @property
    def within_limit(self) -> bool:
        return self.nodes <= self.limit


def _degeneracy_order(a: np.ndarray) -> list[int]:
    """Smallest-last (degeneracy) order of the graph with boolean adjacency
    matrix a, ties broken by vertex index."""
    deg = a.sum(axis=1)
    removed = 2 * len(a)  # stays above every live degree through later decrements
    order = []
    for _ in range(len(a)):
        v = int(np.argmin(deg))  # the first minimum: ties go to the lower index
        order.append(v)
        deg[a[v]] -= 1
        deg[v] = removed
    order.reverse()  # largest core first
    return order


def _ordered_bits(g: Graph) -> tuple[list[int], tuple[int, ...]]:
    """The degeneracy order, and the bitsets of g relabeled so that vertex i
    is order[i]."""
    a = g.bool_matrix()
    order = _degeneracy_order(a)
    return order, _row_bits(a[np.ix_(order, order)])


def _max_clique_bits(bits: tuple[int, ...], budget: _Budget,
                     initial_best: tuple[int, tuple[int, ...]],
                     orbits: Callable[[list[int]], list[int]]) -> tuple[int, tuple[int, ...]]:
    """Branch and bound over candidate bitsets with BBMC coloring bounds,
    from every vertex of the graph.  The depth-first search keeps one frame
    per node on the path from the root on an explicit stack, as
    `_longest_transitive_order` does, so no recursion limit caps the clique.

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
    current: list[int] = []  # the clique so far, one vertex per frame below the root

    def node(mask: int) -> list:
        """The frame of a new node with candidates `mask`: [candidates, the
        vertices kept for branching, their colors, index of the next branch,
        orbit bitmask of each vertex once a second branch needs it, the vertex
        branched on last while its orbit is still a candidate]."""
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
        return [mask, order, bounds, len(order) - 1, [], -1]

    frames = [node((1 << len(bits)) - 1)] if budget.tick() else []
    while frames:
        frame = frames[-1]
        mask, order, bounds, i, orbit, done = frame
        depth = len(current)
        shallow = depth < 2  # prune by orbits
        child = None
        while i >= 0 and budget.nodes <= budget.limit and depth + bounds[i] > best_size:
            v = order[i]
            i -= 1
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
            mask &= ~(1 << v)
            if sub and budget.tick():
                child = node(sub)
                break
            current.pop()
        if child is None:  # the node is done: back to its parent's next branch
            frames.pop()
            if frames:
                current.pop()
        else:
            frame[0], frame[3], frame[4], frame[5] = mask, i, orbit, done
            frames.append(child)
    return best_size, best_witness


def _greedy_clique(g: Graph, order: list[int]) -> tuple[int, ...]:
    clique: list[int] = []
    common = -1  # the vertices adjacent to every member so far
    for v in order:
        if common >> v & 1:
            clique.append(v)
            common &= g.bits[v]
    return tuple(sorted(clique))


def verify_clique(g: GraphLike, witness: tuple[int, ...]) -> bool:
    """Every member is adjacent to every later one: in a graph, every two
    members are adjacent; in a digraph, each member has an arc to every
    later one, so `witness` is a transitive order.  A repeated member is not
    adjacent to itself, so a repeat fails too."""
    common = -1  # the vertices every member so far is adjacent to
    for v in witness:
        if not common >> v & 1:
            return False
        common &= g.bits[v]
    return True


def clique_number(g: Graph, node_budget: Optional[int] = None) -> CliqueResult:
    """Branch-and-bound maximum clique with bit-parallel coloring upper bounds.

    The search prunes its root and depth 1 by the orbits of the automorphisms
    `symmetry.generators` takes from g alone.
    """
    budget = _Budget(node_budget)
    _require_kind(g, Graph, "clique number")
    witness = _max_clique(g, budget)
    return CliqueResult(len(witness), witness, budget.within_limit, budget.nodes)


def _max_clique(g: Graph, budget: _Budget, beat: Optional[int] = None) -> tuple[int, ...]:
    """The largest clique `_max_clique_bits` finds on g within budget, re-verified,
    in g's labels.

    The search starts from the greedy clique of the degeneracy order.  Given
    `beat`, it starts instead from a best size of `beat` with no witness: it
    prunes every branch whose bound cannot exceed `beat`, and returns () unless
    it finds a larger clique, so it decides whether omega(g) > beat.
    """
    # search in the degeneracy order so bit tricks scan it cheaply
    order, bits = _ordered_bits(g)
    if beat is None:
        pos = {v: i for i, v in enumerate(order)}
        seed = tuple(sorted(pos[v] for v in _greedy_clique(g, order)))
        best = (len(seed), seed)
    else:
        best = (beat, ())
    gens = None  # the checked generators in the search's labelling, taken on the first call

    def orbits(current: list[int]) -> list[int]:
        nonlocal gens
        if gens is None:
            relabel = np.argsort(order).astype(np.int32)  # graph vertex -> search vertex
            gens = relabel[symmetry.generators(g)[:, order]]
        return symmetry.orbit_masks(gens, current)

    _, witness = _max_clique_bits(bits, budget, best, orbits)
    original = tuple(sorted(order[i] for i in witness))
    if not verify_clique(g, original):
        raise MycthetaInternal("clique witness failed re-verification")
    return original


def symmetric_clique_number(d: Digraph, node_budget: Optional[int] = None) -> CliqueResult:
    """Largest set of pairwise bidirected vertices."""
    _Budget(node_budget)  # a bad budget fails before the kind, as in every search
    _require_kind(d, Digraph, "symmetric clique number")
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
    budget = _Budget(node_budget)
    _require_kind(d, Digraph, "transitive clique number")
    if seed and not (all(0 <= v < d.n for v in seed) and verify_clique(d, seed)):
        raise DomainError("seed is not a transitive order of the digraph")
    if cap is not None and len(seed) >= cap:
        size, witness, capped = len(seed), tuple(seed), True
    else:
        size, witness = _longest_transitive_order(d.bits, (1 << d.n) - 1, budget)
        capped = False
        if size < len(seed):  # a truncated search that ended below the seed
            size, witness = len(seed), tuple(seed)
    if not verify_clique(d, witness):
        raise MycthetaInternal("transitive witness failed re-verification")
    if cap is not None and size > cap:
        raise MycthetaInternal(f"verified clique of size {size} exceeds its certified cap {cap}")
    return CliqueResult(size, witness, capped or budget.within_limit, budget.nodes, capped)


def _longest_transitive_order(bits: tuple[int, ...], full: int,
                              budget: _Budget) -> tuple[int, tuple[int, ...]]:
    """Longest order v1, v2, ... within `full` with an arc from each vertex
    to every later one, as (length, order).

    The depth-first search over candidate masks keeps one frame per vertex
    of the order being built: [mask, untried vertices, best length, best
    order, vertex being tried, size of mask].  A mask's value is memoized
    once all of its vertices are tried or its best order uses all of them,
    while the budget holds; once it is spent, no frame tries another vertex.
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
        # an order using every candidate is unbeatable
        m = frame[1] if frame[2] < frame[5] and budget.within_limit else 0
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            sub = cand & bits[v]
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

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "exhausted": self.exhausted, "nodes": self.nodes}


def greedy_coloring(g: Graph) -> tuple[int, ...]:
    """DSATUR greedy coloring; deterministic tie-break by vertex index.

    This is the first descent of `_k_colorable` with k = n: the least free
    color never exceeds the number of colors used, so it never backtracks
    and takes n + 1 nodes.
    """
    return _k_colorable(g, g.n, _Budget(g.n + 1))


def _k_colorable(g: Graph, k: int, budget: _Budget) -> Optional[tuple[int, ...]]:
    """Exact k-coloring by DSATUR branching; None when there is none or the
    budget runs out.

    The depth-first search keeps one frame per colored vertex on an explicit
    stack, so no recursion limit caps n.  A vertex tries its free colors in
    ascending order, up to the first unused one, which is canonical.

    The next vertex has the most distinct colors among its neighbors, then
    the highest degree, then the lowest index.  Each vertex's saturation is
    a bitmask of those colors, and its whole key is packed into one int,
    saturation * n^2 + degree * n + (n - 1 - index), kept in a list that
    each coloring and its undo update; a colored vertex holds -1.  So the
    next vertex is the first maximum of that list, one scan in C.
    """
    n = g.n
    a = g.bool_matrix()
    adjacent = [np.flatnonzero(row).tolist() for row in a]
    step = n * n  # one more saturating color outweighs any degree and index
    score = [d * n + n - 1 - u for u, d in enumerate(a.sum(axis=1).tolist())]
    sat = [0] * n  # bitmask of the colors among each vertex's colored neighbors
    colors = [-1] * n
    # (vertex, untried colors largest first, colors used before it,
    #  vertices it saturated, its score while uncolored)
    frames: list[tuple[int, list[int], int, list[int], int]] = []
    used = 0
    while budget.tick():
        if len(frames) == n:
            return tuple(colors)
        v = score.index(max(score))
        taken = sat[v]
        options = [c for c in range(min(k, used + 1) - 1, -1, -1) if not taken >> c & 1]
        key = score[v]
        while not options:  # back up to the nearest vertex with an untried color
            if not frames:
                return None
            v, options, used, touched, key = frames.pop()
            bit = 1 << colors[v]
            for u in touched:
                sat[u] ^= bit
                score[u] -= step
            colors[v] = -1
            score[v] = key
        c = options.pop()
        colors[v] = c
        score[v] = -1
        bit = 1 << c
        touched = [u for u in adjacent[v] if score[u] >= 0 and not sat[u] & bit]
        for u in touched:
            sat[u] |= bit
            score[u] += step
        frames.append((v, options, used, touched, key))
        used = max(used, c + 1)
    return None


def chromatic_number(g: Graph, node_budget: Optional[int] = None) -> ChromaticResult:
    """Exact chromatic number by iterative deepening between a clique lower
    bound and a DSATUR upper bound; reports a bracket when the budget runs out.

    The lower end starts at the greedy clique of the degeneracy order, the
    clique search's own seed, and rises with each k the DSATUR search refutes;
    those refutations spend the whole budget.  The coloring returned is
    re-verified (`_checked_coloring`).
    """
    budget = _Budget(node_budget)
    _require_kind(g, Graph, "chromatic number")
    greedy = greedy_coloring(g)
    hi = max(greedy) + 1
    coloring = greedy
    k = len(_greedy_clique(g, _degeneracy_order(g.bool_matrix())))
    while k < hi:
        attempt = _k_colorable(g, k, budget)
        if attempt is not None:
            hi = k
            coloring = attempt
            break
        if not budget.within_limit:
            return ChromaticResult(k, hi, False, _checked_coloring(g, coloring, hi), budget.nodes)
        k += 1
    return ChromaticResult(hi, hi, True, _checked_coloring(g, coloring, hi), budget.nodes)


def verify_coloring(g: Graph, coloring: tuple[int, ...]) -> bool:
    """One color per vertex, and no vertex has a neighbor in its own color
    class (the bitmask of the vertices of its color)."""
    return len(coloring) == g.n and not any(
        b & same for b, same in zip(g.bits, symmetry._label_masks(coloring)))


def _checked_coloring(g: Graph, coloring: tuple[int, ...], hi: int) -> tuple[int, ...]:
    """coloring, once it is proper with colors in range(hi); else MycthetaInternal."""
    if not (verify_coloring(g, coloring) and 0 <= min(coloring) <= max(coloring) < hi):
        raise MycthetaInternal(f"coloring with at most {hi} colors failed re-verification")
    return coloring


# ---------------------------------------------------------------------------
# finite-power capacity lower bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityBound:
    k: int
    clique: CliqueResult

    @property
    def value(self) -> float:
        return self.clique.size ** (1.0 / self.k)

    @property
    def exhausted(self) -> bool:
        return self.clique.exhausted

    def to_dict(self) -> dict:
        return {"k": self.k, "value": self.value, "exhausted": self.exhausted,
                "clique_size": self.clique.size, "nodes": self.clique.nodes,
                "closed_by": self.clique.closed_by}


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
    _Budget(node_budget)  # a bad budget fails here, before the power is built
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
    return CapacityBound(k, res)
