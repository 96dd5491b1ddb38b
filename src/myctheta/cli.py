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

Floats print with 12 significant digits, rationals as "p/q".  Exit codes:
0 success, 2 domain/usage errors, 1 internal failures.  A report whose
`errors` is non-empty is still written in full, then exits 2 with one
`error: report incomplete: <keys>` line on stderr.
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

_WRAPPER_KEYS = {"mycielski": "r", "power": "t"}
_BASES = {"complete", "cycle", "empty", "path", "tournament"}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def parse_family(spec: str) -> graphs.GraphLike:
    """Family grammar: wrapper* base ':' n (key=value tokens bind innermost);
    n and the values are integers in the grammar of the edge-list format."""
    tokens = [tok for tok in spec.split(":") if tok]
    if not tokens:
        raise DomainError("empty family spec")

    def parse(tokens: list[str]) -> tuple[graphs.GraphLike, list[str]]:
        if not tokens:
            raise DomainError("family spec ends where a graph was expected")
        head = tokens[0]
        if head in _BASES:
            if len(tokens) < 2:
                raise DomainError(f"family {head!r} needs a size, e.g. {head}:5")
            try:
                n = graphs._int_token(tokens[1])
            except ValueError:
                raise DomainError(f"bad size {tokens[1]!r} for family {head!r}") from None
            return graphs.generate(head, n), tokens[2:]
        if head in _WRAPPER_KEYS:
            inner, rest = parse(tokens[1:])
            key = _WRAPPER_KEYS[head]
            value: Optional[int] = None
            remaining = []
            for tok in rest:
                if value is None and tok.startswith(f"{key}="):
                    try:
                        value = graphs._int_token(tok.split("=", 1)[1])
                    except ValueError:
                        raise DomainError(f"bad parameter token {tok!r}") from None
                else:
                    remaining.append(tok)
            if head == "mycielski":
                return graphs.mycielskian(inner, 2 if value is None else value), remaining
            if value is None:
                raise DomainError("power needs an exponent, e.g. power:cycle:5:t=2")
            return graphs.or_power(inner, value), remaining
        raise DomainError(f"unknown constructor {head!r} in family spec")

    g, leftovers = parse(tokens)
    if leftovers:
        raise DomainError(f"unparsed family tokens: {leftovers}")
    return g


def integer(token: str) -> int:
    """argparse type of the integer flags: the edge-list grammar, where
    Python's int() would also take 1_0, spaces or non-ASCII digits."""
    return graphs._int_token(token)


def _load_graph(args) -> graphs.GraphLike:
    if getattr(args, "family", None) and getattr(args, "edges", None):
        raise DomainError("give exactly one graph source (--family or --edges)")
    if getattr(args, "family", None):
        return parse_family(args.family)
    if getattr(args, "edges", None):
        try:
            with open(args.edges, "r", encoding="utf-8") as fh:
                return graphs.parse_edgelist(fh)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise DomainError(f"cannot read edge list {args.edges!r}: {reason}") from None
    raise DomainError("a graph source is required (--family or --edges)")


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


def _cmd_gen(args) -> int:
    g = _load_graph(args)
    with _output(args) as fh:
        graphs.write_edgelist(g, fh)
    return 0


def _cmd_invariant(args) -> int:
    g = _load_graph(args)
    directed = isinstance(g, graphs.Digraph)
    which = args.which
    undirected_only = {"omega", "chi", "chi-f"}
    directed_only = {"omega-s", "omega-tr"}
    if directed and which in undirected_only:
        raise DomainError(f"--which {which} needs an undirected graph")
    if not directed and which in directed_only:
        raise DomainError(f"--which {which} needs a digraph")
    doc: dict = {"n": g.n, "m": g.m, "directed": directed}
    omega = None
    if which in ("omega", "all") and not directed:
        r = omega = invariants.clique_number(g, args.budget)
        doc["omega"] = {"size": r.size, "witness": list(r.witness), "exhausted": r.exhausted}
    if which in ("omega-s", "all") and directed:
        r = invariants.symmetric_clique_number(g, args.budget)
        doc["omega_s"] = {"size": r.size, "witness": list(r.witness), "exhausted": r.exhausted}
    if which in ("omega-tr", "all") and directed:
        r = invariants.transitive_clique_number(g, args.budget)
        doc["omega_tr"] = {"size": r.size, "witness": list(r.witness), "exhausted": r.exhausted}
    if which in ("chi", "all") and not directed:
        r = invariants.chromatic_number(g, args.budget, omega)
        doc["chi"] = {"lo": r.lo, "hi": r.hi, "exhausted": r.exhausted}
    if which in ("chi-f", "all") and not directed:
        r = fractional.fractional_chromatic(g)
        doc["chi_f"] = f"{r.value.numerator}/{r.value.denominator}"
    if which in ("power-bound",):
        b = invariants.capacity_lower_bound(g, args.power, args.budget)
        doc["lower_bound"] = {"k": b.k, "value": b.value, "exhausted": b.exhausted}
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"{k} = {v}" for k, v in doc.items()]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_theta(args) -> int:
    g = _load_graph(args)
    if isinstance(g, graphs.Digraph):
        raise DomainError("theta is defined for undirected graphs")
    sol = theta_mod.theta_bar(g, args.tol)
    if args.format == "json":
        _emit(args, sol.to_json(verbose=args.verbose) + "\n")
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
        _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
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
    g = _load_graph(args)
    if isinstance(g, graphs.Digraph):
        raise DomainError("certificates apply to undirected graphs")
    sol = theta_mod.theta_bar(g, args.tol)
    t_matrix = theta_mod.optimal_edge_matrix(g, sol)
    t_val = theta_mod.spectral_ratio(t_matrix, g)
    res = formula_mod.mycielski_theta_formula(t_val)
    cert = certs.build_spectral_certificate(g, t_matrix, t_val, res.m)
    block = certs.verify_block_spectrum(cert)
    ineq = certs.check_certificate_inequalities(
        cert.t, cert.m, cert.gamma, cert.delta, cert.eta
    )
    coloring = theta_mod.extract_vector_coloring(sol, g)
    lifted = certs.lift_coloring(g, coloring, res.m)
    lift_violation = certs.verify_lift(g, lifted)
    doc = {
        "theta": sol.value,
        "t_spectral": t_val,
        "m_formula": res.m,
        "certificate": cert.to_dict(verbose=args.verbose),
        "checks": {
            "ratio_matches_formula": abs(cert.ratio - res.m) <= 1e-6,
            "block_spectrum": bool(block),
            "block_spectrum_worst_gap": block.worst_gap,
            "inequalities": bool(ineq),
            "discriminant": ineq.discriminant,
            "lift_violation": lift_violation,
            "lift_ok": lift_violation <= max(1e-8, 20.0 * args.tol),
        },
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    checks = doc["checks"]
    all_ok = checks["ratio_matches_formula"] and block.ok and ineq.ok and checks["lift_ok"]
    return 0 if all_ok else 1


def _cmd_construct(args) -> int:
    if args.lifted_clique is not None:
        result = (
            cons.extended_clique(args.lifted_clique)
            if args.extend
            else cons.lifted_clique(args.lifted_clique)
        )
        _emit(args, result.to_json() + "\n")
        return 0
    if args.transitive_clique is not None:
        _emit(args, cons.lifted_transitive_clique(args.transitive_clique).to_json() + "\n")
        return 0
    n, r, t = args.no_lift_check
    ok = cons.no_lifted_clique_check(n, r, t, args.budget)
    _emit(args, json.dumps({"n": n, "r": r, "t": t, "no_such_clique": ok}) + "\n")
    return 0


def _cmd_report(args) -> int:
    g = _load_graph(args)
    options = cons.ReportOptions(max_power=args.max_power, theta_tol=args.tol, clique_budget=args.budget)
    report = cons.capacity_report(g, options)
    if args.format == "json":
        _emit(args, report.to_json() + "\n")
    elif args.format == "csv":
        _emit(args, report.to_csv())
    else:
        doc = report.to_dict()
        lines = [f"vertices = {doc['n']}", f"edges = {doc['m']}"]
        for key in ("omega", "omega_s", "omega_tr"):
            if doc[key]:
                lines.append(f"{key} = {doc[key]['size']}"
                             + ("" if doc[key]["exhausted"] else " (budget truncated)"))
        for b in doc["lower_bounds"]:
            lines.append(f"capacity lower bound k={b['k']}: {_fmt(b['value'])}")
        if doc["theta"] is not None:
            lines.append(f"theta_bar = {_fmt(doc['theta'])}")
        if doc["chi_f"] is not None:
            lines.append(f"chi_f = {doc['chi_f']}")
        if doc["chi"] is not None:
            lines.append(f"chi in [{doc['chi']['lo']}, {doc['chi']['hi']}]")
        if doc["construction"] is not None:
            lines.append(
                f"construction clique size {doc['construction']['size']}, "
                f"bound {_fmt(doc['construction']['bound'])}"
            )
        if doc["errors"]:
            lines.append(f"errors: {doc['errors']}")
        _emit(args, "\n".join(lines) + "\n")
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
        p.add_argument("--family", help="family spec, e.g. cycle:5 or mycielski:complete:3")
        p.add_argument("--edges", help="path to an edge-list file")
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
    p.add_argument("--verbose", action="store_true", help="include matrices in JSON")
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


def _check_counts(args) -> None:
    """A node budget below 1 or a maximum power below 0 is a usage error."""
    for name, least in (("budget", 1), ("max_power", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise DomainError(f"{flag} must be at least {least}, got {value}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_counts(args)
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MycthetaError, MycthetaInternal) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
