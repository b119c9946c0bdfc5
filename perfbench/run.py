"""Closed-loop benchmark of signedspread.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 25 --trace 0

One client in one process sends each job only after the previous one
returns, and runs the workload's job list (a pass) again until --seconds
of passes have run, to within half a pass. Every job's output is checked
after its pass, outside the timed region. The program is imported from
src/ of the checkout that holds this file.

With --trace 0 the last stdout line carries the end-to-end metrics:
wall_s (time of one pass) and job_p50_ms (median job latency), both
from each job's median latency over the passes, so that a slow spell of
the host during one pass does not move them; setup_s (median time from a
fresh interpreter to the first job, over several fresh interpreters) and
peak_rss_mb (through set-up and the first pass). With --trace 1 it
carries the per-layer metrics of one traced pass instead, after one
untraced pass that sets the base of trace.overhead_frac (both passes
scaled to reference host speed). The lines
before it give the environment, per-job latency and node counts, sample
counts, failed_frac and, on corpus, job_p99_ms.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
COLD_START_PROBES = 3
SUBPROCESS_TIMEOUT = 60
CAL_LOOP = 15_000  # iterations of the calibration loop
CAL_REPEATS = 3  # a sample is the fastest of this many loops
CAL_INTERVAL_S = 0.2  # at most this long between calibration samples
CAL_REFERENCE_S = 0.0011  # a sample's median on the machine of NOTES.md


def import_program():
    if not (SRC / "signedspread" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import signedspread  # noqa: F401


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(args) -> dict:
    import numpy
    from signedspread import _kernels

    try:
        backend = _kernels.resolve_backend()
    except RuntimeError as exc:
        backend = f"error: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": _kernels.HAVE_NUMBA,
        "backend": backend,
        "SIGNEDSPREAD_BACKEND": os.environ.get(_kernels.ENV_FLAG),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def set_up(args):
    """Everything between a fresh interpreter and the first job."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    t1 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, args.tiny)
    t2 = time.perf_counter()
    warm = workloads.build(args.workload, args.seed, True)
    failures = run_pass(warm)[3]
    if failures:
        sys.exit(f"error: warm-up failed: {next(iter(failures.values()))}")
    t3 = time.perf_counter()
    return wl, {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}


class HostSpeed:
    """Times a fixed pure-Python loop between jobs.

    The host's speed changes by up to half, in spells of seconds to
    minutes, alike for the program and for this loop (NOTES.md, "Noise").
    A job's latency times CAL_REFERENCE_S over the loop times measured
    just before and just after it estimates its latency on a host of
    reference speed.
    """

    def __init__(self):
        self.times, self.costs = [], []

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= CAL_INTERVAL_S

    def sample(self):
        self.times.append(time.perf_counter())
        costs = []
        for _ in range(CAL_REPEATS):
            t0 = time.perf_counter()
            x = 0
            for i in range(CAL_LOOP):
                x += i * i
            costs.append(time.perf_counter() - t0)
        self.costs.append(min(costs))

    def factor(self, t0: float, t1: float) -> float:
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        return 2 * CAL_REFERENCE_S / (self.costs[before] + self.costs[after])


def run_pass(wl, tracer=None, host=None):
    """Run every job once; returns (pass seconds, spans, outputs, failures).

    spans holds each job's (start, end). failures maps job index ->
    reason, from exceptions and from the output checks, which run after
    the timed region. With a HostSpeed, the loop is timed between jobs
    and once after the last.
    """
    outputs, spans = [], []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for job in wl.jobs:
            if host is not None and host.due():
                host.sample()
            t0 = time.perf_counter()
            try:
                outputs.append((job.call(), None))
            except Exception as exc:  # a failed job is counted, not fatal
                outputs.append((None, f"raised {type(exc).__name__}: {exc}"))
            spans.append((t0, time.perf_counter()))
        if host is not None:
            host.sample()
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = {}
    for i, (job, (out, err)) in enumerate(zip(wl.jobs, outputs)):
        if err is None:
            try:
                err = job.check(out)
            except Exception as exc:  # a malformed output is a failed job
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures[i] = f"{job.name}: {err}"
    for idxs, check in wl.pass_checks:
        if any(i in failures for i in idxs):
            continue
        err = check([outputs[i][0] for i in idxs])
        if err is not None:
            failures.update({i: f"{wl.jobs[i].name}: {err}" for i in idxs})
    return wall, spans, outputs, failures


def timed_child(argv: list, ready_line: bool) -> tuple:
    """Seconds from spawning argv to its first stdout line (or its exit)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            if ready_line:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=SUBPROCESS_TIMEOUT)
            else:
                line, _ = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
                elapsed = time.perf_counter() - t0
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv[1:3])} exited with {proc.returncode}")
    return elapsed, line


def setup_probes(args, count: int) -> list:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    probes = []
    for _ in range(count):
        elapsed, line = timed_child(argv, True)
        probes.append(dict(json.loads(line), setup_s=elapsed))
    return probes


def cold_starts(count: int) -> list:
    argv = [sys.executable, "-m", "signedspread", "--version"]
    return [timed_child(argv, False)[0] for _ in range(count)]


def report(failures: dict) -> int:
    for reason in failures.values():
        print(f"FAILED {reason}", file=sys.stderr)
    return len(failures)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ladder", "min-steps", "simulate", "corpus"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny job lists, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, own_setup = set_up(args)
    if args.setup_probe:
        print(json.dumps(own_setup), flush=True)
        return 0
    env = environment(args)
    print("env " + json.dumps(env))
    probes = setup_probes(args, 1 if args.tiny else SETUP_PROBES)
    setup_s = statistics.median(p["setup_s"] for p in probes)

    walls, failed, attempted, notes = [], 0, 0, []
    if args.trace:
        from tracer import Tracer

        tracer, host = Tracer(), HostSpeed()
        for t in (None, tracer):
            _, spans, _, failures = run_pass(wl, t, host)
            walls.append(sum((t1 - t0) * host.factor(t0, t1) for t0, t1 in spans))
            attempted += len(wl.jobs)
            failed += report(failures)
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (walls[1] / walls[0] - 1.0, "ratio")
        metrics["cli.cold_start_s"] = (statistics.median(cold_starts(COLD_START_PROBES)), "s")
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["setup.inputs_s"] = (statistics.median(p["inputs_s"] for p in probes), "s")
    else:
        host = HostSpeed()
        raw = [[] for _ in wl.jobs]
        ref = [[] for _ in wl.jobs]
        peak = None
        # passes continue until --seconds is reached to within half a pass
        while not walls or sum(walls) + statistics.median(walls) / 2 <= args.seconds:
            wall, spans, outputs, failures = run_pass(wl, host=host)
            walls.append(wall)
            attempted += len(wl.jobs)
            failed += report(failures)
            for i, (t0, t1) in enumerate(spans):
                raw[i].append(t1 - t0)
                ref[i].append((t1 - t0) * host.factor(t0, t1))
            if peak is None:
                # solver memos are freed by the cyclic collector, so later
                # passes raise the high-water mark by chance; take set-up
                # and the first pass
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                nodes = [None if j.nodes is None or err else j.nodes(out)
                         for j, (out, err) in zip(wl.jobs, outputs)]
        raw = [statistics.median(x) for x in raw]
        ref = [statistics.median(x) for x in ref]
        if len(wl.jobs) <= 20:  # corpus has too many jobs to list
            for job, count, r, f in zip(wl.jobs, nodes, raw, ref):
                extra = "" if count is None else f" nodes={count}"
                print(f"job {job.name} median_ms={r * 1e3:.3f} ref_ms={f * 1e3:.3f}{extra}")
        metrics = {
            "wall_ref_s": (sum(ref), "s"),
            "job_p50_ref_ms": (statistics.median(ref) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        cal = statistics.median(host.costs)
        jobs_n = f"n={len(wl.jobs)} jobs x {len(walls)} passes"
        notes = [f"wall_s {sum(raw)!r} s {jobs_n}, median pass {statistics.median(walls)!r} s",
                 f"job_p50_ms {statistics.median(raw) * 1e3!r} ms {jobs_n}",
                 f"host calibration loop median {cal * 1e3!r} ms, reference "
                 f"{CAL_REFERENCE_S * 1e3} ms, n={len(host.costs)}",
                 f"setup_s n={len(probes)} fresh interpreters",
                 "peak_rss_mb n=1 process, through set-up and the first pass"]
        if args.workload == "corpus":
            for name, vals in (("job_p99_ms", raw), ("job_p99_ref_ms", ref)):
                p99 = percentile(vals, 0.99)
                beyond = sum(1 for x in vals if x > p99)
                notes.append(f"{name} {p99 * 1e3!r} ms n={len(vals)} jobs, {beyond} beyond")
    notes.append(f"failed_frac {failed / attempted!r} ({failed}/{attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for note in notes:
        print(note)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
