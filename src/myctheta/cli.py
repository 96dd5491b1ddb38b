"""Command-line interface.

Subcommands: gen, invariant, theta, myc-theta, certify, construct, report.
Graphs come either from a family spec (`--family`) or an edge-list file
(`--edges`); `gen` emits the same edge-list format the other subcommands read
back.  Family specs compose constructors right to left, e.g.

    cycle:5                     the 5-cycle
    mycielski:complete:3:r=2    M(K_3)
    power:cycle:5:t=2           the OR-square of C_5
    mycielski:power:complete:2:t=2:r=3

A graph is searched the same whichever source it came from: the clique
searches take their automorphisms from the graph alone.

This module alone turns results into text and flags into library
arguments, and it keeps no rule about a request.  The graph's rules, its
family grammar and the nonempty kind each invariant takes, are `graphs`';
the node budget's is `invariants`'; the report's maximum power is
`constructions`'.  A flag that the chosen mode does not use is ignored.
The library returns plain data (`to_dict`), and every JSON document goes
out through `_emit_json`, with a two-space indent and sorted keys.
`invariant` and `report` print the same text lines (`_text`).  Text floats
print with 12 significant digits, rationals as "p/q" (the report's CSV
prints an integer chi_f as "3").  Exit codes: 0 success, 2 domain/usage errors, 1 internal failures.
A report whose `errors` is non-empty is still written in full, then exits
2 with one `error: report incomplete: <keys>` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Iterator, Optional, TextIO

from .errors import DomainError, MycthetaError, MycthetaInternal
from . import certificates as certs
from . import constructions as cons
from . import formula as formula_mod
from . import fractional
from . import graphs
from . import invariants
from . import theta as theta_mod


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def integer(token: str) -> int:
    """argparse type of the integer flags: the edge-list grammar, where
    Python's int() would also take 1_0, spaces or non-ASCII digits."""
    return graphs._int_token(token)


def _load_graph(args) -> graphs.GraphLike:
    if args.family is not None:
        return graphs.parse_family(args.family)
    try:
        with open(args.edges, "r", encoding="utf-8") as fh:
            return graphs.parse_edgelist(fh)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"cannot read edge list {args.edges!r}: {reason}") from None


@contextlib.contextmanager
def _output(args) -> Iterator[TextIO]:
    """The stream a command writes to: the `--out` file, or stdout.

    A failed write is a DomainError, exit 2 with one line.  stdout is
    flushed here, so a full disk or a closed pipe shows now; it is then
    pointed at os.devnull, so the flush at exit cannot fail a second time.
    """
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                yield fh
        except OSError as exc:
            raise DomainError(f"cannot write {out!r}: {exc.strerror or exc}") from None
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout without a file descriptor
            pass
        finally:
            os.close(devnull)
        raise DomainError(f"cannot write standard output: {exc.strerror or exc}") from None


def _emit(args, text: str) -> None:
    with _output(args) as fh:
        fh.write(text)


def _emit_json(args, doc: dict) -> None:
    """Every JSON document the commands print: two-space indent, sorted keys."""
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _text(doc: dict, bounds: list[dict]) -> str:
    """The text of an `invariant` or `report` document: one line per value
    it holds, in one order; `bounds` are its capacity lower bounds."""
    lines = [f"vertices = {doc['n']}", f"edges = {doc['m']}"]
    for key in ("omega", "omega_s", "omega_tr"):
        if doc.get(key):
            lines.append(f"{key} = {doc[key]['size']}"
                         + ("" if doc[key]["exhausted"] else " (budget truncated)"))
    for b in bounds:
        lines.append(f"capacity lower bound k={b['k']}: {_fmt(b['value'])}")
    if doc.get("theta") is not None:
        lines.append(f"theta_bar = {_fmt(doc['theta'])}")
    if doc.get("chi_f") is not None:
        lines.append(f"chi_f = {doc['chi_f']}")
    if doc.get("chi") is not None:
        lines.append(f"chi in [{doc['chi']['lo']}, {doc['chi']['hi']}]")
    if doc.get("construction") is not None:
        c = doc["construction"]
        lines.append(f"construction clique size {c['size']}, bound {_fmt(c['bound'])}")
    if doc.get("errors"):
        lines.append(f"errors: {doc['errors']}")
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    g = _load_graph(args)
    with _output(args) as fh:
        graphs.write_edgelist(g, fh)
    return 0


def _cmd_invariant(args) -> int:
    g = _load_graph(args)
    directed = isinstance(g, graphs.Digraph)
    doc: dict = {"n": g.n, "m": g.m, "directed": directed}
    if args.which != "all":
        which = {args.which}
    else:
        which = {"omega-s", "omega-tr"} if directed else {"omega", "chi", "chi-f"}
    omega = None
    if "omega" in which:
        omega = invariants.clique_number(g, args.budget)
        doc["omega"] = omega.to_dict()
    if "omega-s" in which:
        doc["omega_s"] = invariants.symmetric_clique_number(g, args.budget).to_dict()
    if "omega-tr" in which:
        doc["omega_tr"] = invariants.transitive_clique_number(g, args.budget).to_dict()
    if "chi" in which:
        doc["chi"] = invariants.chromatic_number(g, args.budget, omega).to_dict()
    if "chi-f" in which:
        r = fractional.fractional_chromatic(g)
        doc["chi_f"] = f"{r.value.numerator}/{r.value.denominator}"
    if "power-bound" in which:
        doc["lower_bound"] = invariants.capacity_lower_bound(g, args.power, args.budget).to_dict()
    if args.format == "json":
        _emit_json(args, doc)
    else:
        _emit(args, _text(doc, [doc["lower_bound"]] if "lower_bound" in doc else []))
    return 0


def _cmd_theta(args) -> int:
    sol = theta_mod.theta_bar(_load_graph(args), args.tol)
    if args.format == "json":
        _emit_json(args, sol.to_dict(verbose=args.verbose))
    else:
        _emit(args, f"theta_bar = {_fmt(sol.value)}\n")
    return 0


def _cmd_myc_theta(args) -> int:
    res = formula_mod.mycielski_theta_formula(args.t)
    if args.format == "json":
        doc = {
            "t": res.t,
            "m": res.m,
            "cubic_residual": res.cubic_residual,
            "discarded_branches": list(res.discarded),
        }
        _emit_json(args, doc)
    else:
        lines = [
            f"m = {_fmt(res.m)}",
            f"residual = {_fmt(res.cubic_residual)}",
            f"discarded k=1: {_fmt(res.discarded[0])}",
            f"discarded k=2: {_fmt(res.discarded[1])}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_certify(args) -> int:
    doc, ok = certs.certify(_load_graph(args), args.tol, args.verbose)
    _emit_json(args, doc)
    return 0 if ok else 1


def _cmd_construct(args) -> int:
    if args.lifted_clique is not None:
        build = cons.extended_clique if args.extend else cons.lifted_clique
        _emit_json(args, build(args.lifted_clique).to_dict())
    elif args.transitive_clique is not None:
        _emit_json(args, cons.lifted_transitive_clique(args.transitive_clique).to_dict())
    else:
        n, r, t = args.no_lift_check
        ok = cons.no_lifted_clique_check(n, r, t, args.budget)
        _emit_json(args, {"n": n, "r": r, "t": t, "no_such_clique": ok})
    return 0


def _report_csv(report: cons.CapacityReport) -> str:
    """A header and one row.  chi_f prints as its Fraction, so an integer is `3`."""
    clique = report.omega or report.omega_tr
    best = report.best_lower_bound()
    cells = [report.n, report.m, report.directed, clique and clique.size,
             None if report.theta is None else _fmt(report.theta), report.chi_f,
             report.chi and report.chi.hi, None if best is None else _fmt(best)]
    return ("n,m,directed,omega,theta,chi_f,chi,best_lower_bound\n"
            + ",".join("" if c is None else str(c) for c in cells) + "\n")


def _cmd_report(args) -> int:
    g = _load_graph(args)
    report = cons.capacity_report(g, max_power=args.max_power, theta_tol=args.tol,
                                  node_budget=args.budget)
    doc = report.to_dict()
    if args.format == "json":
        _emit_json(args, doc)
    elif args.format == "csv":
        _emit(args, _report_csv(report))
    else:
        _emit(args, _text(doc, doc["lower_bounds"]))
    if report.errors:
        print(f"error: report incomplete: {', '.join(sorted(report.errors))}", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is one `error: ...` line on stderr and exit 2, as a
    DomainError is; subparsers take this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.

    Each `add_argument` makes a help formatter and asks for the terminal
    size, so a build costs about 2 ms; `parse_args` leaves the parser as it
    was, so every `main` call can share it.
    """
    parser = _Parser(
        prog="myctheta",
        description="Zero-error capacity bounds under the Mycielski construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--family", help="family spec, e.g. cycle:5 or mycielski:complete:3")
        source.add_argument("--edges", help="path to an edge-list file")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("gen", help="emit a graph as an edge list")
    add_graph_source(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("invariant", help="exact combinatorial invariants")
    add_graph_source(p)
    p.add_argument("--which", default="all",
                   choices=["omega", "omega-s", "omega-tr", "chi", "chi-f",
                            "power-bound", "all"])
    p.add_argument("--power", type=integer, default=2, help="k for power-bound")
    p.add_argument("--budget", type=integer, default=None, help="search node budget")
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("theta", help="complementary Lovasz theta via SDP")
    add_graph_source(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--verbose", action="store_true", help="include the primal matrix in JSON")
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("myc-theta", help="closed-form theta of the Mycielskian")
    p.add_argument("--t", type=float, required=True, help="theta of the base graph (>= 2)")
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_myc_theta)

    p = sub.add_parser("certify", help="build and verify both certificate directions")
    add_graph_source(p)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("construct", help="explicit cliques in Mycielskian powers")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--lifted-clique", type=integer, metavar="N")
    p.add_argument("--extend", action="store_true", help="append the apex sequence")
    what.add_argument("--transitive-clique", type=integer, metavar="N")
    what.add_argument("--no-lift-check", type=integer, nargs=3, metavar=("N", "R", "T"))
    p.add_argument("--budget", type=integer, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("report", help="bundle of capacity bounds for one graph")
    add_graph_source(p)
    p.add_argument("--max-power", type=integer, default=2)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--budget", type=integer, default=None)
    p.add_argument("--format", default="json", choices=["json", "csv", "text"])
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MycthetaError, MycthetaInternal) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
