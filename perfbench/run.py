"""Benchmark of the myctheta command line.

    python3 perfbench/run.py --workload {sdp,search,report,build} --seed N --seconds S --trace {0,1}

Closed loop, one client: each pass runs every job of the workload, one at a
time, through `myctheta.cli.main(argv)` in a fresh interpreter
(perfbench/passrun.py), so no pass reuses results held in memory by an
earlier one.  Passes repeat while another one fits in S seconds; there is
always at least one, and with --trace 1 at least one untraced and one traced
pass.  Before the passes, set-up alone is timed in separate interpreters.
Every answer is then checked against references computed outside the package
(perfbench/reference.py).  The last line of output is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

SETUP_PROBES = 6        # interpreters started only to time set-up
RUN_LIMIT_S = 160.0     # no pass starts that would end after this, measured from start


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("MYCTHETA_MAX_VERTICES", None)
    return env


def spawn(args, index: int, traced: bool, setup_only: bool, timeout: float):
    """Run one pass (or one set-up probe) in a fresh interpreter.

    Returns (result or None if it did not finish, set-up seconds, wall seconds, work dir).
    """
    work = os.path.join(STATE, "work", f"{args.workload}-{args.seed}-{os.getpid()}-{index}")
    result_path = work + ".json"
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", work, "--result", result_path]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)   # the pass and a time-boxed child it may be running
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            shutil.rmtree(work, ignore_errors=True)
            raise
        return None, None, time.monotonic() - start, work
    wall = time.monotonic() - start
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(err)
        return None, None, wall, work
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result, result["ready"] - start, wall, work


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"]}


def measure(args) -> tuple[list[float], list[tuple]] | None:
    """Set-up probes around the passes; returns (set-up times, passes) or None if set-up fails.

    A pass is (traced, result or None if it did not finish, wall seconds, work dir).
    """
    run_start = time.monotonic()
    index = itertools.count()
    setups, passes = [], []

    def probe(count: int) -> bool:
        for _ in range(count):
            result, setup, _, work = spawn(args, next(index), False, True, RUN_LIMIT_S)
            shutil.rmtree(work, ignore_errors=True)
            if result is None:
                return False
            setups.append(setup)
        return True

    # half the probes before the passes and half after, so set-up is sampled across the run
    if not probe(SETUP_PROBES // 2):
        return None
    measure_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - run_start)
        result, setup, wall, work = spawn(args, next(index), traced, False, remaining)
        passes.append((traced, result, wall, work))
        if result is None:
            break
        setups.append(setup)
        typical = statistics.median(p[2] for p in passes)
        kinds_done = not args.trace or len(passes) >= 2
        if kinds_done and time.monotonic() - measure_start + typical > args.seconds:
            break
        if time.monotonic() - run_start + typical > RUN_LIMIT_S:
            break
    if not probe(SETUP_PROBES - SETUP_PROBES // 2):
        return None
    return setups, passes


def main() -> int:
    # SIGTERM unwinds through spawn(), which then stops the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "myctheta", "cli.py")):
        print(f"error: no myctheta sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import perftrace
    import reference
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    jobs = workloads.jobs(args.workload)
    os.makedirs(os.path.join(STATE, "work"), exist_ok=True)
    measured = measure(args)
    if measured is None:
        print("error: set-up failed", file=sys.stderr)
        return 1
    setups, passes = measured

    checker = reference.Checker(args.workload, args.seed)
    outcomes = {job.id: [] for job in jobs}
    attempted = failed = deadline = 0
    pass_s = {False: [], True: []}
    peaks, layer_rows = [], []
    for traced, result, wall, work in passes:
        attempted += len(jobs)
        if result is None:
            failed += len(jobs)
            for job in jobs:
                outcomes[job.id].append(("failed", "pass did not finish", None))
        else:
            for job, rec in zip(jobs, result["jobs"]):
                outcome, reason = checker.check(job, rec, work)
                outcomes[job.id].append((outcome, reason, rec["seconds"]))
                failed += outcome == "failed"
                deadline += outcome == "deadline"
            pass_s[traced].append(sum(rec["seconds"] for rec in result["jobs"]))
            if not traced:
                peaks.append(result["peak_rss_mb"])
            else:
                out_bytes = sum(rec["output_bytes"] for rec in result["jobs"])
                layer_rows.append(perftrace.layer_metrics(result["spans"], out_bytes))
                with open(os.path.join(STATE, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
                    json.dump(result["spans"], fh)
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(pass_s[False])} untraced, "
          f"{len(pass_s[True])} traced  " + "  ".join(f"{k} {v}" for k, v in environment().items()))
    for job in jobs:
        rows = outcomes[job.id]
        times = [t for _, _, t in rows if t is not None]
        reasons = sorted({f"{o}: {r}" for o, r, _ in rows if o != "ok"})
        median = f"{statistics.median(times):9.4f} s" if times else "        - s"
        print(f"  {job.id:<28} {median}  {'; '.join(reasons) or 'ok'}")
    print(f"failed_share {(failed + deadline) / attempted:.4f} share  ({failed} wrong or crashed, "
          f"{deadline} at the deadline, of {attempted} jobs)")

    # a pass that did not finish leaves only its wall time, a lower bound of its pass_s
    untraced = pass_s[False] or [passes[0][2]]
    if args.trace:
        metrics = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]} \
            if layer_rows else {}
        metrics["trace.overhead_share"] = statistics.median(pass_s[True] or untraced) / statistics.median(untraced) - 1
        spec = benchmark_spec()["per_layer"]
    else:
        metrics = {
            "pass_s": statistics.median(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(peaks) if peaks else 0.0,
            "completed_share": (attempted - failed - deadline) / attempted,
        }
        spec = benchmark_spec()["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in spec}
    for name, value in metrics.items():
        print(f"{name:<34} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and all(p[1] is not None for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
