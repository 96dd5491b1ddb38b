"""Reference answers computed outside the package, and the check of each job's output.

Graphs are rebuilt here from their definitions as numpy adjacency matrices,
in the vertex layout the package documents for its edge lists: the
Mycielskian puts (v, level) at level * n + v with the apex last, and OR-powers
use row-major mixed radix.  Reference values come from closed forms
(theta of odd cycles, the Mycielskian cubic solved with numpy.roots,
chi_f(M(G)) = chi_f(G) + 1/chi_f(G), multiplicativity over OR-powers), from
values stated in the paper, from networkx and from scipy's linprog.  Every
witness in an output is re-checked against these matrices.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import networkx as nx
import numpy as np
from scipy.optimize import linprog

import workloads

# Stated values that no closed form here reproduces.
OMEGA = {"C5^3": 10, "C5^4": 25}
CHI = {"C5": 3, "C7": 3, "C5^2": 8}
# omega_tr(M(T3)^3) is unknown; the lifted transitive clique gives 3^3 + 1.
OMEGA_TR_LOWER = {"M(T3)^3": 28}


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def _mycielski(a: np.ndarray) -> np.ndarray:
    n = len(a)
    b = np.zeros((2 * n + 1, 2 * n + 1), dtype=bool)
    b[:n, :n] = a
    b[:n, n:2 * n] = a          # (u, 0) -> (v, 1) for every arc u -> v
    b[n:2 * n, :n] = a          # (u, 1) -> (v, 0)
    b[2 * n, n:2 * n] = True    # apex -> level 1
    if is_undirected(a):
        b[n:2 * n, 2 * n] = True
    return b


def _power(a: np.ndarray, t: int) -> np.ndarray:
    closed = ~a
    np.fill_diagonal(closed, True)
    out = closed
    for _ in range(t - 1):
        out = np.kron(out, closed)
    out = ~out
    np.fill_diagonal(out, False)
    return out


def is_undirected(a: np.ndarray) -> bool:
    return bool((a == a.T).all())


@lru_cache(maxsize=None)
def graph(key: str) -> np.ndarray:
    """Adjacency (arc) matrix of a graph named like C5, K4, T3, M(C5), M(M(C5)), C7^4."""
    if m := re.fullmatch(r"(.+)\^(\d+)", key):
        return _power(graph(m[1]), int(m[2]))
    if m := re.fullmatch(r"M\((.+)\)", key):
        return _mycielski(graph(m[1]))
    n = int(key[1:])
    if key[0] == "C":
        a = np.zeros((n, n), dtype=bool)
        for i in range(n):
            a[i, (i + 1) % n] = a[(i + 1) % n, i] = True
        return a
    if key[0] == "K":
        return ~np.eye(n, dtype=bool)
    if key[0] == "T":
        return np.triu(np.ones((n, n), dtype=bool), 1)
    raise ValueError(f"unknown graph {key!r}")


def _split_power(key: str) -> tuple[str, int]:
    m = re.fullmatch(r"(.+)\^(\d+)", key)
    return (m[1], int(m[2])) if m else (key, 1)


def edge_count(key: str) -> int:
    """Edges (arcs for digraphs) of a graph, OR-powers by the counting formula.

    The pairs of G^t that are equal or non-adjacent are the t-fold products of
    such pairs of G, so G^t has N^2 - S^t adjacent ordered pairs, where S is
    the number of equal-or-non-adjacent ordered pairs of G.
    """
    base, t = _split_power(key)
    a = graph(base)
    s = len(a) ** 2 - int(a.sum())
    ordered = len(a) ** (2 * t) - s ** t
    return ordered // 2 if is_undirected(a) else ordered


def from_edges(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    return a


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def mycielski_theta(t: float) -> float:
    """Largest real root of the paper's cubic for theta_bar(M(G)) at t = theta_bar(G)."""
    roots = np.roots([1.0, t - 3.0, 3.0 - 2.0 * t - t * t, -t ** 3 + 5.0 * t * t - 3.0 * t - 1.0])
    return float(max(r.real for r in roots if abs(r.imag) < 1e-9))


def theta(key: str) -> float:
    """theta_bar: closed forms for odd cycles and complete graphs, the cubic for
    Mycielskians, and multiplicativity over OR-powers."""
    base, t = _split_power(key)
    if t > 1:
        return theta(base) ** t
    if m := re.fullmatch(r"M\((.+)\)", key):
        return mycielski_theta(theta(m[1]))
    n = int(key[1:])
    if key[0] == "K":
        return float(n)
    if key[0] == "C" and n % 2:
        return 1.0 + 1.0 / math.cos(math.pi / n)   # sqrt(5) at n = 5
    raise ValueError(f"no theta reference for {key!r}")


def chi_f(key: str) -> Fraction:
    """Exact chi_f: odd cycles, complete graphs, the x + 1/x Mycielski law, OR-powers."""
    base, t = _split_power(key)
    if t > 1:
        return chi_f(base) ** t
    if m := re.fullmatch(r"M\((.+)\)", key):
        x = chi_f(m[1])
        return x + 1 / x
    n = int(key[1:])
    return Fraction(n) if key[0] == "K" else Fraction(n, n // 2)


def chi(key: str) -> int:
    if m := re.fullmatch(r"M\((.+)\)", key):
        return chi(m[1]) + 1   # the Mycielskian raises the chromatic number by one
    if key[0] == "K":
        return int(key[1:])
    return CHI[key]


def _nx_graph(a: np.ndarray) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(a)))
    g.add_edges_from(zip(*np.nonzero(np.triu(a, 1))))
    return g


def clique_number(a: np.ndarray) -> int:
    return len(nx.max_weight_clique(_nx_graph(a), weight=None)[0])


@lru_cache(maxsize=None)
def omega(key: str) -> int:
    return OMEGA[key] if key in OMEGA else clique_number(graph(key))


def transitive_clique_number(a: np.ndarray) -> int:
    """Longest v1..vk with an arc vi -> vj for every i < j, by memoised recursion
    on the set of vertices that can still follow."""
    out = [sum(1 << int(v) for v in np.nonzero(row)[0]) for row in a]
    memo: dict[int, int] = {}

    def longest(cand: int) -> int:
        if cand not in memo:
            best, rest = 0, cand
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                follow = cand & out[v]
                if 1 + follow.bit_count() > best:
                    best = max(best, 1 + longest(follow))
            memo[cand] = best
        return memo[cand]

    return longest((1 << len(a)) - 1)


@lru_cache(maxsize=None)
def omega_tr(key: str) -> int:
    return transitive_clique_number(graph(key))


def omega_s(key: str) -> int:
    a = graph(key)
    return clique_number(a & a.T) if (a & a.T).any() else 1


def fractional_chromatic(a: np.ndarray) -> float:
    """chi_f by scipy's linprog over all maximal independent sets."""
    n = len(a)
    comp = ~a
    np.fill_diagonal(comp, False)
    sets = list(nx.find_cliques(_nx_graph(comp)))
    cover = np.zeros((n, len(sets)))
    for j, s in enumerate(sets):
        cover[s, j] = 1.0
    res = linprog(np.ones(len(sets)), A_ub=-cover, b_ub=-np.ones(n), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


def dsatur_colors(a: np.ndarray) -> int:
    coloring = nx.greedy_color(_nx_graph(a), strategy="DSATUR")
    return 1 + max(coloring.values(), default=-1)


# ---------------------------------------------------------------------------
# witness checks
# ---------------------------------------------------------------------------

def _induced(a: np.ndarray, witness):
    """Adjacency among the witness vertices, in witness order; None for repeated or unknown vertices."""
    w = np.asarray(witness, dtype=int)
    if len(set(witness)) != len(witness) or (w.size and (w.min() < 0 or w.max() >= len(a))):
        return None
    return a[np.ix_(w, w)]


def is_clique(a: np.ndarray, witness) -> bool:
    sub = _induced(a, witness)
    return sub is not None and bool((sub | np.eye(len(sub), dtype=bool)).all())


def is_transitive(a: np.ndarray, witness) -> bool:
    """Every earlier witness vertex has an arc to every later one."""
    sub = _induced(a, witness)
    return sub is not None and bool(sub[np.triu_indices(len(sub), 1)].all())


def power_pairs(host: np.ndarray, vertices) -> np.ndarray:
    """pairs[i, j]: vertex i -> j in the OR-power over host, from coordinate tuples."""
    v = np.asarray(vertices, dtype=int)
    pairs = np.zeros((len(v), len(v)), dtype=bool)
    for k in range(v.shape[1]):
        pairs |= host[v[:, k][:, None], v[:, k][None, :]]
    return pairs


# ---------------------------------------------------------------------------
# job checks
# ---------------------------------------------------------------------------

class WrongAnswer(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def _near(value: float, ref: float, tol: float, what: str) -> None:
    require(abs(value - ref) <= tol + 1e-12, f"{what} {value!r} is not within {tol:g} of {ref!r}")


def _check_clique_doc(doc, a, size, what):
    require(doc["exhausted"] is True, f"{what} search not exhausted")
    require(doc["size"] == size, f"{what} {doc['size']} != {size}")
    require(len(doc["witness"]) == size and is_clique(a, doc["witness"]), f"{what} witness is no clique")


class Checker:
    """Checks job outputs of one workload and seed; caches references across passes."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.seeded = workloads.seeded_graphs(workload, seed)
        self._seeded_refs: dict[str, dict] = {}

    def seeded_refs(self, name: str) -> dict:
        if name not in self._seeded_refs:
            n, edges = self.seeded[name]
            a = from_edges(n, edges)
            self._seeded_refs[name] = {"a": a, "omega": clique_number(a), "chi_f": fractional_chromatic(a),
                                       "dsatur": dsatur_colors(a)}
        return self._seeded_refs[name]

    def check(self, job: workloads.Job, rec: dict, work: str) -> tuple[str, str]:
        """('ok' | 'deadline' | 'failed', reason) for one job record."""
        if job.timeboxed and rec["status"] == "deadline":
            return "deadline", f"no answer within {workloads.DEADLINE_S:g} s"
        if rec["status"] != "done":
            return "failed", f"{rec['status']}: {rec.get('stderr', '')[-300:]}"
        if rec["code"] != 0:
            return "failed", f"exit code {rec['code']}: {rec.get('stderr', '')[-300:]}"
        try:
            getattr(self, "_" + job.check.replace("-", "_"))(job.expect, rec, work)
        except WrongAnswer as exc:
            return "failed", str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return "failed", f"malformed output: {type(exc).__name__}: {exc}"
        return "ok", ""

    # -- sdp ---------------------------------------------------------------

    def _theta(self, expect, rec, work):
        doc = json.loads(rec["stdout"])
        require(doc["tolerance_achieved"] <= doc["tolerance_requested"], "bracket wider than requested")
        _near(doc["value"], theta(expect["graph"]), doc["tolerance_achieved"], "theta")

    def _certify(self, expect, rec, work):
        doc = json.loads(rec["stdout"])
        checks = doc["checks"]
        for name in ("ratio_matches_formula", "block_spectrum", "inequalities", "lift_ok"):
            require(checks[name] is True, f"certificate check {name} failed")
        ref = theta(expect["graph"])
        _near(doc["theta"], ref, 1e-7, "theta")
        _near(doc["m_formula"], mycielski_theta(ref), 1e-6, "m(t)")

    def _theta_seeded(self, expect, rec, work):
        doc = json.loads(rec["stdout"])
        refs = self.seeded_refs(expect["file"])
        tol = doc["tolerance_achieved"] + 1e-9
        require(refs["omega"] - tol <= doc["value"] <= refs["chi_f"] + tol,
                f"theta {doc['value']} outside [omega, chi_f] = [{refs['omega']}, {refs['chi_f']}]")

    # -- search ------------------------------------------------------------

    def _invariant(self, expect, rec, work):
        doc = json.loads(rec["stdout"])
        key, which = expect["graph"], expect["which"]
        a = graph(key)
        require(doc["n"] == len(a) and doc["m"] == edge_count(key), "vertex or edge count")
        if which == "omega":
            _check_clique_doc(doc["omega"], a, omega(key), "omega")
        elif which == "chi_f":
            require(Fraction(doc["chi_f"]) == chi_f(key), f"chi_f {doc['chi_f']} != {chi_f(key)}")
        elif which == "chi":
            c = doc["chi"]
            require(c["exhausted"] and c["lo"] == c["hi"] == chi(key), f"chi {c} != {chi(key)}")
        elif which == "omega_tr":
            o = doc["omega_tr"]
            require(o["exhausted"] and o["size"] == omega_tr(key), f"omega_tr {o['size']} != {omega_tr(key)}")
            require(len(o["witness"]) == o["size"] and is_transitive(a, o["witness"]), "omega_tr witness")

    def _invariant_seeded(self, expect, rec, work):
        doc = json.loads(rec["stdout"])
        refs = self.seeded_refs(expect["file"])
        _check_clique_doc(doc["omega"], refs["a"], refs["omega"], "omega")
        value = Fraction(doc["chi_f"])
        require(abs(float(value) - refs["chi_f"]) <= 1e-9, f"chi_f {value} != linprog {refs['chi_f']}")
        c = doc["chi"]
        require(c["exhausted"] and c["lo"] == c["hi"], f"chi not settled: {c}")
        require(max(math.ceil(value), refs["omega"]) <= c["hi"] <= refs["dsatur"],
                f"chi {c['hi']} outside [ceil(chi_f), DSATUR] = [{math.ceil(value)}, {refs['dsatur']}]")

    def _construction(self, expect, rec, work):
        doc = json.loads(rec["stdout"])
        n, directed = expect["n"], expect["directed"]
        size = n ** n + 1
        require(doc["size"] == size == len(doc["vertices"]), f"construction size {doc['size']} != {size}")
        require(doc["verified"] is True and doc["includes_apex"] is True and doc["directed"] is directed,
                "construction flags")
        require(len({tuple(v) for v in doc["vertices"]}) == size, "repeated construction vertices")
        pairs = power_pairs(graph(f"M({'T' if directed else 'K'}{n})"), doc["vertices"])
        upper = pairs[np.triu_indices(size, 1)]
        require(bool(upper.all()), "construction has a non-adjacent forward pair")
        if not directed:
            require(bool(pairs.T[np.triu_indices(size, 1)].all()), "construction is not symmetric")

    def _no_lift(self, expect, rec, work):
        doc = json.loads(rec["stdout"])
        require(doc == {**expect, "no_such_clique": True}, f"no-lift check answered {doc}")

    # -- report ------------------------------------------------------------

    def _report(self, expect, rec, work):
        doc = json.loads(rec["stdout"])
        key, max_power = expect["graph"], expect["max_power"]
        a = graph(key)
        directed = not is_undirected(a)
        require(doc["errors"] == {}, f"report errors {doc['errors']}")
        require(doc["n"] == len(a) and doc["m"] == edge_count(key), "vertex or edge count")
        if directed:
            require(doc["omega_s"]["exhausted"] and doc["omega_s"]["size"] == omega_s(key), "omega_s")
            o = doc["omega_tr"]
            require(o["exhausted"] and o["size"] == omega_tr(key), f"omega_tr {o['size']}")
            require(is_transitive(a, o["witness"]) and len(o["witness"]) == o["size"], "omega_tr witness")
        else:
            _check_clique_doc(doc["omega"], a, omega(key), "omega")
            _near(doc["theta"], theta(key), doc["theta_tolerance"], "theta")
            require(Fraction(doc["chi_f"]) == chi_f(key), f"chi_f {doc['chi_f']} != {chi_f(key)}")
            c = doc["chi"]
            require(c["exhausted"] and c["lo"] == c["hi"] == chi(key), f"chi {c} != {chi(key)}")
        bounds = doc["lower_bounds"]
        require([b["k"] for b in bounds] == list(range(1, max_power + 1)), "lower-bound powers")
        for b in bounds:
            power = key if b["k"] == 1 else f"{key}^{b['k']}"
            size = b["clique_size"]
            if power in OMEGA_TR_LOWER:
                # exact value unknown: an exhausted search must reach the construction
                require(not b["exhausted"] or size >= OMEGA_TR_LOWER[power], f"k={b['k']} clique {size}")
            else:
                ref = omega_tr(power) if directed else omega(power)
                require(size == ref if b["exhausted"] else 1 <= size <= ref, f"k={b['k']} clique {size} vs {ref}")
            _near(b["value"], b["clique_size"] ** (1.0 / b["k"]), 1e-9, f"k={b['k']} bound")
        m = re.fullmatch(r"M\(([KT])(\d+)\)", key)
        if m:
            n = int(m[2])
            require(doc["construction"] is not None and doc["construction"]["size"] == n ** n + 1,
                    "attached construction size")
        else:
            require(doc["construction"] is None, "unexpected construction")

    # -- build -------------------------------------------------------------

    def _gen(self, expect, rec, work):
        key = expect["graph"]
        a = graph(key)
        n, directed, pairs = workloads.read_edgelist(f"{work}/{expect['file']}")
        require(n == len(a) and directed == (not is_undirected(a)), "vertex count or direction")
        require(len(pairs) == edge_count(key), f"{len(pairs)} edges, formula gives {edge_count(key)}")
        u, v = np.nonzero(a if directed else np.triu(a, 1))
        if "relabeled" in expect:
            perm = np.asarray(workloads.permutation(self.seed, "build", n), dtype=np.int64)
            u, v = perm[u], perm[v]
        require(np.array_equal(_codes(u, v, n, directed), _codes(pairs[:, 0], pairs[:, 1], n, directed)),
                "edge set differs from the reference")


def _codes(u, v, n: int, directed: bool) -> np.ndarray:
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    return np.sort(u * n + v)
