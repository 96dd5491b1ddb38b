"""Spans around the package's layer boundaries, recorded from outside the package.

`install` wraps every public function of each layer module and rebinds every
name that refers to it in every module of the package, so that calls through
`from .graphs import or_power` are traced as well as calls through
`graphs.or_power`.  `Graph.__init__` and `Digraph.__init__` are wrapped as the
graph-construction spans.  A span is the list

    [name, start, end, parent index (-1 at a job's root), job id, counters]

kept in memory and written out when the pass ends.  `layer_metrics` turns the
spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("graphs", "eigen", "theta", "formula", "certificates",
          "invariants", "fractional", "constructions", "cli")

NAME, START, END, PARENT, JOB, COUNTERS = range(6)


def _shape_n(args, kwargs, result):
    return {"n": int(args[0].shape[0])}


def _clique(args, kwargs, result):
    return {"nodes": result.nodes, "exhausted": result.exhausted, "graph": hash(args[0])}


def _search(args, kwargs, result):
    return {"nodes": result.nodes, "exhausted": result.exhausted}


def _lifted_pairs(args, kwargs, result):
    size = args[0] ** args[0]
    return {"pairs": size * (size - 1) // 2}


def _extended_pairs(args, kwargs, result):
    return {"pairs": args[0] ** args[0]}   # apex against the lifted clique


def _transitive_pairs(args, kwargs, result):
    size = args[0] ** args[0] + 1
    return {"pairs": size * (size - 1) // 2}


# counters recorded when a call returns, keyed by span name
PROBES = {
    "theta.theta_bar": lambda a, k, r: {"iterations": r.iterations},
    "invariants.clique_number": _clique,
    "invariants.transitive_clique_number": _search,
    "invariants.chromatic_number": _search,
    "fractional.maximal_independent_sets": lambda a, k, r: {"sets": len(r)},
    "graphs.Graph": lambda a, k, r: {"edges": a[0].m},
    "graphs.Digraph": lambda a, k, r: {"edges": a[0].m},
    "graphs.format_edgelist": lambda a, k, r: {"bytes": len(r)},
    "constructions.lifted_clique": _lifted_pairs,
    "constructions.extended_clique": _extended_pairs,
    "constructions.lifted_transitive_clique": _transitive_pairs,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def wrap(self, name, fn):
        probe = _shape_n if name.startswith("eigen.") else PROBES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span[COUNTERS] = probe(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> int:
        """Wrap the public layer functions of `package`; returns the bindings replaced."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        replaced = 0
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    replaced += 1
        graphs = modules[0]
        for cls in (graphs.Graph, graphs.Digraph):
            cls.__init__ = self.wrap(f"graphs.{cls.__name__}", cls.__init__)
        return replaced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without trace.overhead_share)."""
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    name = [s[NAME] for s in spans]
    counters = [s[COUNTERS] or {} for s in spans]
    by_name = defaultdict(list)
    for i, nm in enumerate(name):
        by_name[nm].append(i)

    def total(values, names):
        return sum(values[i] for nm in names for i in by_name[nm])

    def count(nm, key):
        return sum(counters[i].get(key, 0) for i in by_name[nm])

    def layer_names(layer, skip=()):
        return [nm for nm in by_name if nm.startswith(layer + ".") and nm not in skip]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    outer_eigen = [i for i, nm in enumerate(name) if nm.startswith("eigen.")
                   and not (spans[i][PARENT] >= 0 and name[spans[i][PARENT]].startswith("eigen."))]
    clique = by_name["invariants.clique_number"]
    chi = by_name["invariants.chromatic_number"]
    # clique searches nested directly in a chromatic search belong to the clique metrics
    chi_set = set(chi)
    chi_children = [i for i in clique if spans[i][PARENT] in chi_set]
    seen, repeats, returned = set(), 0, 0
    for i in clique:
        if "graph" in counters[i]:
            returned += 1
            key = (spans[i][JOB], counters[i]["graph"])
            repeats += key in seen
            seen.add(key)
    theta_iterations = count("theta.theta_bar", "iterations")
    constructors = ["graphs.Graph", "graphs.Digraph"]
    build = layer_names("graphs", ("graphs.parse_edgelist", "graphs.format_edgelist"))
    clique_nodes = count("invariants.clique_number", "nodes")
    edges = sum(count(nm, "edges") for nm in constructors)
    return {
        "eigen.calls": len(outer_eigen),
        "eigen.s": sum(dur[i] for i in outer_eigen),
        "eigen.n3_sum": sum(counters[i].get("n", 0) ** 3 for i in outer_eigen),
        "theta.solves": len(by_name["theta.theta_bar"]),
        "theta.iterations": theta_iterations,
        "theta.self_s": total(own, layer_names("theta")),
        "theta.ms_per_iteration": 1e3 * rate(total(dur, ["theta.theta_bar"]), theta_iterations),
        "theta.extract_s": total(dur, ["theta.optimal_edge_matrix", "theta.extract_vector_coloring",
                                      "theta.spectral_ratio"]),
        "formula.s": total(own, layer_names("formula")),
        "certificates.s": total(own, layer_names("certificates")),
        "invariants.clique.calls": len(clique),
        "invariants.clique.nodes": clique_nodes,
        "invariants.clique.s": total(dur, ["invariants.clique_number"]),
        # searches stopped by a deadline report no node count, so their time is left out
        "invariants.clique.nodes_per_s": rate(clique_nodes, sum(dur[i] for i in clique if counters[i])),
        "invariants.clique.repeat_share": rate(repeats, returned),
        "invariants.chi.nodes": count("invariants.chromatic_number", "nodes")
        - sum(counters[i].get("nodes", 0) for i in chi_children),
        "invariants.chi.s": total(dur, ["invariants.chromatic_number"]) - sum(dur[i] for i in chi_children),
        "invariants.omega_tr.nodes": count("invariants.transitive_clique_number", "nodes"),
        "invariants.omega_tr.s": total(dur, ["invariants.transitive_clique_number"]),
        "invariants.truncated": sum(
            1 for nm in ("invariants.clique_number", "invariants.transitive_clique_number",
                         "invariants.chromatic_number")
            for i in by_name[nm] if counters[i].get("exhausted") is False),
        "fractional.calls": len(by_name["fractional.fractional_chromatic"]),
        "fractional.mis_sets": count("fractional.maximal_independent_sets", "sets"),
        "fractional.mis_s": total(dur, ["fractional.maximal_independent_sets"]),
        "fractional.simplex_s": total(own, ["fractional.fractional_chromatic"]),
        "graphs.build_s": total(own, build),
        "graphs.edges_built": edges,
        "graphs.edges_per_s": rate(edges, total(own, constructors)),
        "graphs.parse_s": total(own, ["graphs.parse_edgelist"]),
        "graphs.format_s": total(own, ["graphs.format_edgelist"]),
        "graphs.edgelist_bytes": count("graphs.format_edgelist", "bytes"),
        "constructions.s": total(own, layer_names("constructions", ("constructions.capacity_report",))),
        "constructions.pairs_checked": sum(count(nm, "pairs") for nm in layer_names("constructions")),
        "constructions.report_self_s": total(own, ["constructions.capacity_report"]),
        "cli.self_s": total(own, layer_names("cli")),
        "cli.output_bytes": output_bytes,
    }
