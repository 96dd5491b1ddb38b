"""The four workloads: the CLI jobs of one pass and the seeded inputs they read.

A job is one `myctheta.cli.main(argv)` call.  `{work}` in an argument stands
for the pass's work directory, where the seeded inputs are written during
set-up and where `gen` jobs write their output.  This module needs only the
standard library and numpy, so the pass process that imports it carries no
checker dependencies into its memory figure.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

WORKLOADS = ("sdp", "search", "report", "build")

DEADLINE_S = 12.0          # wall deadline of a time-boxed job: 3x the slowest other report job
ADDRESS_CAP_MB = 2048      # address-space cap of the process that runs a time-boxed job

# sdp relabels a fixed G(n, 1/2) corpus: the splitting solver's iteration count
# on fresh random graphs ranges from 127 to beyond 4000 at n = 8, which would
# make the pass time depend on the seed far more than on the code.
SDP_CORPUS_SIZES = (8, 10, 12)
SEARCH_SIZES = (20, 21, 22)


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    check: str                      # check kind: reference.Checker._<check>
    expect: dict = field(default_factory=dict)
    timeboxed: bool = False
    relabel: Optional[tuple[str, str]] = None   # (source, copy) written in the pass before the job


def gnp(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of G(n, 1/2) drawn from rng, in row order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


def permutation(seed: int, tag: str, n: int) -> list[int]:
    """Seeded vertex relabeling: vertex v becomes perm[v]."""
    return random.Random(f"{seed}-{tag}").sample(range(n), n)


def seeded_graphs(workload: str, seed: int) -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """file name -> (n, edges) of the workload's seeded random graphs."""
    out = {}
    if workload == "sdp":
        for n in SDP_CORPUS_SIZES:
            perm = permutation(seed, f"sdp-{n}", n)
            edges = [(perm[u], perm[v]) for u, v in gnp(n, random.Random(f"sdp-corpus-{n}"))]
            random.Random(f"{seed}-sdp-order-{n}").shuffle(edges)
            out[f"gnp_{n}.txt"] = (n, edges)
    elif workload == "search":
        for n in SEARCH_SIZES:
            out[f"gnp_{n}.txt"] = (n, gnp(n, random.Random(f"{seed}-search-{n}")))
    return out


def write_edgelist(path: str, n: int, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)


def make_inputs(workload: str, seed: int, work: str) -> None:
    """Set-up: write the seeded inputs of one pass into `work`."""
    os.makedirs(work, exist_ok=True)
    for name, (n, edges) in seeded_graphs(workload, seed).items():
        write_edgelist(os.path.join(work, name), n, edges)


def read_edgelist(path: str) -> tuple[int, bool, np.ndarray]:
    """(n, directed, m x 2 int64 pairs) of an edge-list file, parsed with numpy."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        body = fh.read()
    pairs = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    if len(pairs) != int(head[1]):
        raise ValueError(f"{path}: header says {head[1]} pairs, found {len(pairs)}")
    return int(head[0]), head[2:] == ["directed"], pairs


def relabel_file(src: str, dst: str, seed: int, chunk: int = 1 << 16) -> None:
    """Copy an undirected edge list with every vertex v renamed permutation(seed, "build", n)[v]."""
    n, _, pairs = read_edgelist(src)
    mapped = np.asarray(permutation(seed, "build", n), dtype=np.int64)[pairs]
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(mapped)}\n")
        for lo in range(0, len(mapped), chunk):
            fh.write("".join(f"{u} {v}\n" for u, v in mapped[lo:lo + chunk].tolist()))


def _theta(key: str, spec: str) -> Job:
    return Job(f"theta {key}", ("theta", "--family", spec), "theta", {"graph": key})


def _report(key: str, spec: str, max_power: int, timeboxed: bool = False) -> Job:
    return Job(f"report {key} p{max_power}",
               ("report", "--family", spec, "--max-power", str(max_power), "--format", "json"),
               "report", {"graph": key, "max_power": max_power}, timeboxed)


def jobs(workload: str) -> list[Job]:
    if workload == "sdp":
        out = [
            _theta("C5", "cycle:5"),
            _theta("C7", "cycle:7"),
            _theta("M(C5)", "mycielski:cycle:5"),
            _theta("M(K4)", "mycielski:complete:4"),
            _theta("M(M(C5))", "mycielski:mycielski:cycle:5"),
            _theta("C5^2", "power:cycle:5:t=2"),
            _theta("C7^2", "power:cycle:7:t=2"),
        ]
        for key, spec in (("C5", "cycle:5"), ("C7", "cycle:7"),
                          ("M(C5)", "mycielski:cycle:5"), ("M(K4)", "mycielski:complete:4")):
            out.append(Job(f"certify {key}", ("certify", "--family", spec), "certify", {"graph": key}))
        for n in SDP_CORPUS_SIZES:
            out.append(Job(f"theta G{n}", ("theta", "--edges", f"{{work}}/gnp_{n}.txt"),
                           "theta-seeded", {"file": f"gnp_{n}.txt"}))
        return out
    if workload == "search":
        out = [
            Job("omega C5^3", ("invariant", "--which", "omega", "--family", "power:cycle:5:t=3"),
                "invariant", {"graph": "C5^3", "which": "omega"}),
            Job("chi-f M(M(C5))", ("invariant", "--which", "chi-f", "--family", "mycielski:mycielski:cycle:5"),
                "invariant", {"graph": "M(M(C5))", "which": "chi_f"}),
            Job("chi-f C5^2", ("invariant", "--which", "chi-f", "--family", "power:cycle:5:t=2"),
                "invariant", {"graph": "C5^2", "which": "chi_f"}),
            Job("chi C5^2", ("invariant", "--which", "chi", "--family", "power:cycle:5:t=2"),
                "invariant", {"graph": "C5^2", "which": "chi"}),
            Job("chi M(M(C5))", ("invariant", "--which", "chi", "--family", "mycielski:mycielski:cycle:5"),
                "invariant", {"graph": "M(M(C5))", "which": "chi"}),
            Job("omega-tr M(T3)^2", ("invariant", "--which", "omega-tr", "--family",
                                     "power:mycielski:tournament:3:t=2"),
                "invariant", {"graph": "M(T3)^2", "which": "omega_tr"}),
            Job("lifted-clique 4", ("construct", "--lifted-clique", "4", "--extend"),
                "construction", {"n": 4, "directed": False}),
            Job("transitive-clique 4", ("construct", "--transitive-clique", "4"),
                "construction", {"n": 4, "directed": True}),
            Job("no-lift-check 3 3 2", ("construct", "--no-lift-check", "3", "3", "2"),
                "no-lift", {"n": 3, "r": 3, "t": 2}),
        ]
        for n in SEARCH_SIZES:
            out.append(Job(f"all G{n}", ("invariant", "--which", "all", "--edges", f"{{work}}/gnp_{n}.txt"),
                           "invariant-seeded", {"file": f"gnp_{n}.txt"}))
        return out
    if workload == "report":
        return [
            _report("C5", "cycle:5", 2),
            _report("C7", "cycle:7", 2),
            _report("M(C5)", "mycielski:cycle:5", 2),
            _report("M(K3)", "mycielski:complete:3", 2),
            _report("M(K4)", "mycielski:complete:4", 2),
            _report("M(T3)", "mycielski:tournament:3", 2),
            _report("C5", "cycle:5", 3),
            # these two did not finish when tried: unbudgeted clique search on C5^4
            # and transitive search on M(T3)^3
            _report("C5^2", "power:cycle:5:t=2", 2, timeboxed=True),
            _report("M(T3)", "mycielski:tournament:3", 3, timeboxed=True),
        ]
    if workload == "build":
        return [
            Job("gen C7^4", ("gen", "--family", "power:cycle:7:t=4", "--out", "{work}/c7_4.txt"),
                "gen", {"graph": "C7^4", "file": "c7_4.txt"}),
            Job("gen --edges C7^4 relabeled",
                ("gen", "--edges", "{work}/c7_4_relabeled.txt", "--out", "{work}/c7_4_readback.txt"),
                "gen", {"graph": "C7^4", "file": "c7_4_readback.txt", "relabeled": True},
                relabel=("c7_4.txt", "c7_4_relabeled.txt")),
            Job("gen M(C5)^3", ("gen", "--family", "power:mycielski:cycle:5:t=3", "--out", "{work}/mc5_3.txt"),
                "gen", {"graph": "M(C5)^3", "file": "mc5_3.txt"}),
            Job("gen M(T3)^3", ("gen", "--family", "power:mycielski:tournament:3:t=3",
                                "--out", "{work}/mt3_3.txt"),
                "gen", {"graph": "M(T3)^3", "file": "mt3_3.txt"}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
