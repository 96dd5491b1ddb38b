"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload W --seed N --work DIR --result FILE [--trace] [--setup-only]

Set-up imports the package and writes the seeded inputs; the monotonic clock
reading when set-up ends goes into the result as "ready".  Then every job of
the workload runs through `myctheta.cli.main(argv)`, one at a time, and only
the time inside that call is counted.  A time-boxed job runs in a child
process (`--child`) under a wall deadline and an address-space cap; a job
that reaches its deadline counts at the deadline.  Answers are not checked
here: the result file carries every job's exit code and output for the
checker in run.py, so this process's peak memory is the program's own.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import perftrace  # noqa: E402
import workloads  # noqa: E402

GRACE_S = 20.0   # wait beyond the deadline before a time-boxed child is killed


class DeadlineReached(BaseException):
    """Raised by the alarm; a BaseException so the package's handlers let it through."""


def _alarm(signum, frame):
    raise DeadlineReached


def _load(trace: bool):
    import myctheta
    from myctheta import cli
    tracer = None
    if trace:
        tracer = perftrace.Tracer()
        tracer.install(myctheta)
    return cli, tracer


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    VmHWM starts afresh at exec, unlike ru_maxrss, which on Linux keeps the
    resident size of the parent that forked this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _output_bytes(argv, stdout: str) -> int:
    size = len(stdout.encode())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            size += os.path.getsize(path)
    return size


def call(cli, tracer, job_id: str, argv: list[str], deadline: float = 0.0) -> dict:
    """One `cli.main(argv)` call with its output captured; a deadline needs the alarm handler."""
    out, err = io.StringIO(), io.StringIO()
    status, code = "done", None
    if tracer is not None:
        tracer.job = job_id
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                code = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineReached:
            status = "deadline"
        except MemoryError:
            status = "memory"
        except Exception as exc:   # recorded as a failed job, the pass goes on
            status = "crash"
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = deadline if status == "deadline" else time.perf_counter() - start
    return {"status": status, "code": code, "seconds": seconds, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "output_bytes": _output_bytes(argv, out.getvalue())}


def run_child(spec: dict) -> dict:
    """Body of the child process of a time-boxed job."""
    cap = spec["cap_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    cli, tracer = _load(spec["trace"])
    signal.signal(signal.SIGALRM, _alarm)
    rec = call(cli, tracer, spec["id"], spec["argv"], spec["deadline"])
    rec["peak_rss_mb"] = peak_rss_mb()
    rec["spans"] = tracer.spans if tracer is not None else []
    return rec


def run_timeboxed(job_id: str, argv: list[str], trace: bool) -> dict:
    spec = {"id": job_id, "argv": argv, "trace": trace, "deadline": workloads.DEADLINE_S,
            "cap_mb": workloads.ADDRESS_CAP_MB}
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child", json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=workloads.DEADLINE_S + GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        status = "killed"
    else:
        lines = out.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        status = "crash"
    # no report from the child: its peak is known only through the rusage of waited children
    return {"status": status, "code": None, "seconds": workloads.DEADLINE_S, "stdout": "",
            "stderr": err[-2000:], "output_bytes": 0, "spans": [],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def run_pass(args) -> dict:
    cli, tracer = _load(args.trace)
    workloads.make_inputs(args.workload, args.seed, args.work)
    ready = time.monotonic()
    result = {"ready": ready, "jobs": []}
    if args.setup_only:
        return result
    for job in workloads.jobs(args.workload):
        if job.relabel:
            src, dst = job.relabel
            workloads.relabel_file(os.path.join(args.work, src), os.path.join(args.work, dst), args.seed)
        argv = [a.replace("{work}", args.work) for a in job.argv]
        gc.collect()
        if job.timeboxed:
            rec = run_timeboxed(job.id, argv, args.trace)
            spans = rec.pop("spans")
            if tracer is not None:   # the child's spans join this pass's, parents re-indexed
                base = len(tracer.spans)
                for span in spans:
                    if span[perftrace.PARENT] >= 0:
                        span[perftrace.PARENT] += base
                    tracer.spans.append(span)
        else:
            rec = call(cli, tracer, job.id, argv)
        rec["id"] = job.id
        result["jobs"].append(rec)
    result["peak_rss_mb"] = max([peak_rss_mb()] + [rec.pop("peak_rss_mb", 0.0) for rec in result["jobs"]])
    result["spans"] = tracer.spans if tracer is not None else []
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--work")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--child", help="JSON job spec of a time-boxed job")
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_child(json.loads(args.child))))
        return 0
    result = run_pass(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
