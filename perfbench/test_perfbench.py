"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import perftrace  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _job(workload: str, job_id: str) -> workloads.Job:
    return next(j for j in workloads.jobs(workload) if j.id == job_id)


def _run_cli(argv) -> dict:
    from myctheta import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"status": "done", "code": code, "seconds": 0.0, "stdout": out.getvalue(), "stderr": ""}


def _perturbed(rec: dict, edit) -> dict:
    doc = json.loads(rec["stdout"])
    edit(doc)
    return {**rec, "stdout": json.dumps(doc)}


# ---------------------------------------------------------------------------
# a perturbed answer counts as a failure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload,job_id,edit", [
    ("sdp", "theta C5", lambda d: d.update(value=d["value"] + 1e-5)),
    ("sdp", "theta C7", lambda d: d.update(tolerance_achieved=1e-2)),
    ("search", "chi-f C5^2", lambda d: d.update(chi_f="25/3")),
    ("search", "chi C5^2", lambda d: d["chi"].update(lo=7, hi=7)),
    ("search", "omega-tr M(T3)^2", lambda d: d["omega_tr"]["witness"].reverse()),
    ("search", "lifted-clique 4", lambda d: d["vertices"].__setitem__(3, d["vertices"][4])),
    ("search", "transitive-clique 4", lambda d: d["vertices"].insert(1, d["vertices"].pop(7))),
    ("search", "no-lift-check 3 3 2", lambda d: d.update(no_such_clique=False)),
    ("report", "report C5 p2", lambda d: d["omega"]["witness"].__setitem__(1, 0)),
    ("report", "report M(K3) p2", lambda d: d["lower_bounds"][1].update(clique_size=8, value=8 ** 0.5)),
    ("report", "report M(T3) p2", lambda d: d.update(errors={"omega": "boom"})),
])
def test_perturbed_answer_fails(workload, job_id, edit):
    job = _job(workload, job_id)
    checker = reference.Checker(workload, 0)
    rec = _run_cli(job.argv)
    assert checker.check(job, rec, "") == ("ok", "")
    outcome, reason = checker.check(job, _perturbed(rec, edit), "")
    assert outcome == "failed" and reason


def test_exit_code_and_crash_fail():
    job = _job("sdp", "theta C5")
    checker = reference.Checker("sdp", 0)
    rec = _run_cli(job.argv)
    assert checker.check(job, {**rec, "code": 1}, "")[0] == "failed"
    assert checker.check(job, {**rec, "status": "crash"}, "")[0] == "failed"
    assert checker.check(job, {**rec, "stdout": "not json"}, "")[0] == "failed"
    assert checker.check(job, {**rec, "status": "deadline"}, "")[0] == "failed"   # not time-boxed


def test_seeded_jobs_check_and_fail_when_perturbed(tmp_path):
    for workload, job_id, edit in (
        ("sdp", "theta G8", lambda d: d.update(value=d["value"] + 10.0)),
        ("search", "all G20", lambda d: d.update(chi_f="1/1")),
    ):
        workloads.make_inputs(workload, 5, str(tmp_path))
        job = _job(workload, job_id)
        checker = reference.Checker(workload, 5)
        rec = _run_cli(a.replace("{work}", str(tmp_path)) for a in job.argv)
        assert checker.check(job, rec, str(tmp_path)) == ("ok", "")
        assert checker.check(job, _perturbed(rec, edit), str(tmp_path))[0] == "failed"


def test_edge_list_with_one_edge_changed_fails(tmp_path):
    job = _job("build", "gen M(T3)^3")
    argv = [a.replace("{work}", str(tmp_path)) for a in job.argv]
    rec = _run_cli(argv)
    checker = reference.Checker("build", 0)
    assert checker.check(job, rec, str(tmp_path)) == ("ok", "")
    path = tmp_path / "mt3_3.txt"
    lines = path.read_text().splitlines()
    u, v = lines[1].split()
    lines[1] = f"{v} {u}"                 # reversed arc
    path.write_text("\n".join(lines) + "\n")
    assert checker.check(job, rec, str(tmp_path))[0] == "failed"


def test_relabeled_read_back_is_checked_against_the_permutation(tmp_path):
    n = 2401
    perm = workloads.permutation(3, "build", n)
    u, v = np.nonzero(np.triu(reference.graph("C7^4"), 1))
    workloads.write_edgelist(str(tmp_path / "c7_4_readback.txt"), n,
                             list(zip(np.take(perm, v).tolist(), np.take(perm, u).tolist())))
    job = _job("build", "gen --edges C7^4 relabeled")
    rec = {"status": "done", "code": 0, "seconds": 0.0, "stdout": "", "stderr": ""}
    assert reference.Checker("build", 3).check(job, rec, str(tmp_path)) == ("ok", "")
    assert reference.Checker("build", 4).check(job, rec, str(tmp_path))[0] == "failed"


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_references_match_stated_values():
    assert reference.chi_f("M(C5)") == Fraction(29, 10)
    assert reference.chi_f("M(M(C5))") == Fraction(941, 290)
    assert reference.chi_f("C5^2") == Fraction(25, 4)
    assert reference.theta("C5") == pytest.approx(math.sqrt(5), abs=1e-15)
    assert reference.theta("C7^2") == pytest.approx((1 + 1 / math.cos(math.pi / 7)) ** 2, abs=1e-14)
    assert reference.chi("M(M(C5))") == 5
    # m(t) is a root of the paper's cubic and lies in (t, t + 1]
    for t in (2.0, math.sqrt(5), 3.0, 4.0):
        m = reference.mycielski_theta(t)
        assert t < m <= t + 1
        assert abs(m ** 3 + (t - 3) * m ** 2 + (3 - 2 * t - t * t) * m - t ** 3 + 5 * t * t - 3 * t - 1) < 1e-9


def test_edge_count_formula_matches_the_matrices():
    for key in ("C7^2", "M(C5)^2", "M(T3)^2", "M(K4)^2"):
        a = reference.graph(key)
        edges = int(a.sum()) // (2 if reference.is_undirected(a) else 1)
        assert reference.edge_count(key) == edges
    assert reference.edge_count("C7^4") == 2_132_088


def test_transitive_reference_on_small_digraphs():
    assert reference.transitive_clique_number(reference.graph("T4")) == 4
    assert reference.omega_tr("M(T3)") == 3
    cyclic = np.zeros((3, 3), dtype=bool)
    cyclic[0, 1] = cyclic[1, 2] = cyclic[2, 0] = True
    assert reference.transitive_clique_number(cyclic) == 2


# ---------------------------------------------------------------------------
# spans and self times
# ---------------------------------------------------------------------------

def _span(name, start, end, parent, counters=None, job="j"):
    return [name, start, end, parent, job, counters]


def test_self_times_on_a_hand_built_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),                                   # 0
        _span("graphs.Graph", 0.5, 0.8, 0, {"edges": 30}),                  # 1
        _span("theta.theta_bar", 1.0, 8.0, 0, {"iterations": 100}),         # 2
        _span("eigen.eigh", 2.0, 5.0, 2, {"n": 4}),                          # 3
        _span("eigen.jacobi_eigh", 2.5, 4.5, 3, {"n": 4}),                  # 4
        _span("eigen.eigh", 5.0, 6.0, 2, {"n": 2}),                          # 5
        _span("invariants.chromatic_number", 8.0, 9.5, 0, {"nodes": 50, "exhausted": True}),  # 6
        _span("invariants.clique_number", 8.2, 8.7, 6,
              {"nodes": 20, "exhausted": True, "graph": 7}),                 # 7
        _span("invariants.clique_number", 9.0, 9.4, 6,
              {"nodes": 5, "exhausted": False, "graph": 7}),                 # 8
        _span("invariants.clique_number", 9.5, 9.9, 0),                      # 9: stopped by a deadline
    ]
    own = perftrace.self_times(spans)
    assert own == pytest.approx([10 - 0.3 - 7 - 1.5 - 0.4, 0.3, 7 - 3 - 1, 1.0, 2.0, 1.0, 1.5 - 0.9, 0.5, 0.4, 0.4])
    m = perftrace.layer_metrics(spans, output_bytes=123)
    assert m["eigen.calls"] == 2 and m["eigen.s"] == pytest.approx(4.0)
    assert m["eigen.n3_sum"] == 4 ** 3 + 2 ** 3
    assert m["theta.self_s"] == pytest.approx(3.0)
    assert m["theta.ms_per_iteration"] == pytest.approx(70.0)
    assert m["cli.self_s"] == pytest.approx(0.8)
    assert m["invariants.clique.s"] == pytest.approx(1.3)
    assert m["invariants.clique.nodes_per_s"] == pytest.approx(25 / 0.9)
    assert m["invariants.chi.s"] == pytest.approx(0.6)
    assert m["invariants.chi.nodes"] == 25
    assert m["invariants.clique.repeat_share"] == pytest.approx(0.5)
    assert m["invariants.truncated"] == 1
    assert m["graphs.edges_built"] == 30 and m["graphs.edges_per_s"] == pytest.approx(100.0)
    assert m["cli.output_bytes"] == 123


def test_install_wraps_every_binding():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import myctheta, perftrace\n"
        "from myctheta import constructions, graphs, invariants, theta, certificates\n"
        "t = perftrace.Tracer(); t.install(myctheta)\n"
        "assert graphs.or_power is invariants.or_power is constructions.or_power is myctheta.or_power\n"
        "assert certificates.spectral_ratio is theta.spectral_ratio\n"
        "t.job = 'x'; invariants.capacity_lower_bound(graphs.cycle_graph(5), 2)\n"
        "names = [s[0] for s in t.spans]\n"
        "assert 'invariants.capacity_lower_bound' in names and 'graphs.or_power' in names\n"
        "assert 'graphs.Graph' in names and 'invariants.clique_number' in names\n"
        "assert t.spans[names.index('graphs.or_power')][3] == names.index('invariants.capacity_lower_bound')\n"
    )
    subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE], check=True, timeout=60)


def test_deadline_stops_a_time_boxed_job():
    spec = {"id": "x", "argv": ["report", "--family", "power:cycle:5:t=2", "--max-power", "2"],
            "trace": True, "deadline": 0.5, "cap_mb": workloads.ADDRESS_CAP_MB}
    out = subprocess.run([sys.executable, os.path.join(HERE, "passrun.py"), "--child", json.dumps(spec)],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["status"] == "deadline" and rec["seconds"] == 0.5
    assert rec["spans"][0][0] == "cli.main" and rec["spans"][0][2] - rec["spans"][0][1] >= 0.5


# ---------------------------------------------------------------------------
# what the run prints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_name_is_in_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=170, cwd=ROOT).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == spec
    table = {line.split()[0] for line in out.splitlines()[:-1] if line.split() and line.split()[0] in spec}
    assert table == set(spec)


def test_layer_metric_names_match_benchmark_json():
    names = set(perftrace.layer_metrics([], 0)) | {"trace.overhead_share"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
