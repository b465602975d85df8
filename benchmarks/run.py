"""bifgraph benchmark: runs one workload and prints its metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload counting --seed 1 --seconds 25 --trace 0

Workloads: counting, validation, emission, structures (BENCHMARK.json says
why each exists).  The benchmark is one process and one thread, and runs a
closed loop: a job starts only after the previous one returned.  Before
timing it generates every input from the seed and prepares it.  Then it runs
the workload's job list in passes until ``--seconds`` of measurement have
elapsed.  Every job starts with bifgraph's functools caches emptied, as in a
fresh CLI process, so every pass does the same work.

Between passes, outside the timed intervals, the benchmark checks outputs and
times one set-up: a fresh interpreter importing bifgraph and building the
law tables.  Each job's first output is checked against an independent
answer; later passes must reproduce it exactly.

Times are reported at a reference speed.  On a shared host the speed of a
core drifts by a third or more within seconds, as other tenants load it, and
a slow spell can outlast a whole run.  So a fixed calibration loop (pure
Python, no bifgraph) runs between jobs and around every set-up, and each
timing is divided by the mean calibration time just before and after it, times
``CALIBRATION_S``, the loop's time at the reference speed.  A job's time is
then the median of these over the passes.  A program change moves the
timings and not the calibration, so it shows in full; a change of machine
speed moves both and cancels out.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics and the tracing
overhead, and writes the spans of the first traced pass under
``benchmarks/out/spans``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record (git SHA,
Python version, nproc, failures by reason, every pass time) goes to
``benchmarks/out/results``; ``summarize.py`` reads those.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FIRST_SETUP_SAMPLES = 3
SETUP_SAMPLES = 7  # at most; later ones are taken between passes

# The calibration loop's time at the reference speed: about its fastest
# time on the 2-core 2.0 GHz Xeon host the benchmark was tuned on.
CALIBRATION_S = 0.0003


def calibration_loop() -> dict:
    d = {}
    for i in range(3000):
        d[i & 255] = d.get(i & 255, 0) + i
    return d


# a set-up sample runs the same calibration loop in the fresh interpreter
SETUP_CODE = inspect.getsource(calibration_loop) + """
import statistics, time

def calibration():
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)

before = calibration()
t0 = time.perf_counter()
import bifgraph
for d in (1, 2, 3, 4):
    bifgraph.builtin_table(d)
took = time.perf_counter() - t0
print(took, (before + calibration()) / 2)
"""


def calibration() -> tuple[float, float]:
    """Wall and CPU seconds of one calibration loop."""
    c0, t0 = time.process_time(), time.perf_counter()
    calibration_loop()
    t1, c1 = time.perf_counter(), time.process_time()
    return t1 - t0, c1 - c0


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import bifgraph and build the
    built-in law tables, at the reference speed."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    took, calibration_s = map(float, done.stdout.split())
    return took / calibration_s * CALIBRATION_S


def cache_clearers() -> list:
    """The cache_clear of every functools cache in bifgraph's modules."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "bifgraph" or name.startswith("bifgraph.")):
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and clear not in out:
                out.append(clear)
    return out


class Pass:
    """Timings and outputs of one run of the job list."""

    def __init__(self):
        self.latency: dict[int, float] = {}
        self.cpu: dict[int, float] = {}
        # the mean of the calibration runs just before and just after each
        # job: (wall, cpu) seconds
        self.calibration: dict[int, tuple[float, float]] = {}
        self.outputs: dict[int, object] = {}
        self.errors: dict[int, str] = {}


def run_pass(runner, clearers, tracer=None) -> Pass:
    result = Pass()
    before = calibration()
    for job in runner.jobs:
        for clear in clearers:
            clear()
        if tracer is not None:
            tracer.job = job["id"]
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            output = runner.run(job)
        except Exception as exc:  # a raising job is a failed job, not a crash
            output = None
            result.errors[job["id"]] = type(exc).__name__
        t1, c1 = time.perf_counter(), time.process_time()
        result.latency[job["id"]] = t1 - t0
        result.cpu[job["id"]] = c1 - c0
        after = calibration()
        result.calibration[job["id"]] = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
        before = after
        result.outputs[job["id"]] = output
    return result


def failures(job_list, oracle, p: Pass, verdicts: dict) -> Counter:
    """Failure counts by reason for one pass.  A job's first output is
    checked and recorded in ``verdicts``; later outputs must equal it."""
    reasons: Counter = Counter()
    for job in job_list:
        jid = job["id"]
        if jid in p.errors:
            reasons[f"raised {p.errors[jid]}"] += 1
            continue
        if jid not in verdicts:
            try:
                ok = jobs.check(job, p.outputs[jid], oracle)
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False  # output too malformed to check
            verdicts[jid] = (ok, p.outputs[jid])
        ok, reference = verdicts[jid]
        if not ok:
            reasons["wrong output"] += 1
        elif p.outputs[jid] != reference:
            reasons["output differs between passes"] += 1
    p.outputs = {}
    return reasons


def at_reference_speed(passes: list[Pass], attr: str) -> dict[int, float]:
    """Each job's wall (``latency``) or CPU (``cpu``) seconds at the
    reference speed: the median over the passes of its time divided by the
    calibration time around it, times ``CALIBRATION_S``."""
    clock = 0 if attr == "latency" else 1
    return {jid: statistics.median(getattr(p, attr)[jid] / p.calibration[jid][clock]
                                   for p in passes) * CALIBRATION_S
            for jid in passes[0].latency}


def quantile(values: list[float], p: float, grid: int = 4000) -> float:
    """The Harrell-Davis estimate of the p-quantile: a weighted mean of all
    the sorted values, the i-th of n weighted by the mass the Beta((n+1)p,
    (n+1)(1-p)) distribution puts on [(i-1)/n, i/n] (midpoint rule on a
    ``grid``).  A single order statistic jumps from one job to the next as
    the seed shifts job sizes a little; this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    for g in range(grid):
        x = (g + 0.5) / grid
        weights[int(x * n)] += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Run:
    """The passes of one benchmark run and what they measured."""

    def __init__(self, bifgraph, job_list, runner, trace: bool):
        self.bifgraph = bifgraph
        self.job_list = job_list
        self.runner = runner
        self.oracle = jobs.Oracle(bifgraph)
        self.clearers = cache_clearers()
        self.tracer = tracing.Tracer() if trace else None
        self.plain: list[Pass] = []
        self.traced: list[Pass] = []
        self.layer_rows: list[dict] = []
        self.setup: list[float] = []
        self.verdicts: dict = {}
        self.reasons: Counter = Counter()
        self.peak_rss_mb = 0.0

    def measure(self, seconds: float) -> None:
        setup_sample()  # warms the file cache and writes bytecode; not counted
        self.setup += [setup_sample() for _ in range(FIRST_SETUP_SAMPLES)]
        gc.collect()
        gc.freeze()  # the prepared inputs live all run; keep them out of GC scans
        tracer = self.tracer
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or not self.plain
               or (tracer is not None and not self.traced)):
            if tracer is not None and len(self.plain) > len(self.traced):
                tracer.reset_stats()
                tracer.keep_spans = not self.traced
                tracer.install(self.bifgraph)
                try:
                    p = run_pass(self.runner, self.clearers, tracer)
                finally:
                    tracer.uninstall()
                self.traced.append(p)
                self.layer_rows.append(tracing.layer_metrics(tracer))
            else:
                p = run_pass(self.runner, self.clearers)
                self.plain.append(p)
                if len(self.plain) == 1:
                    # before the first checks, which enumerate trees themselves
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            start = time.perf_counter()
            self.reasons += failures(self.job_list, self.oracle, p, self.verdicts)
            if len(self.setup) < SETUP_SAMPLES:
                self.setup.append(setup_sample())
            deadline += time.perf_counter() - start  # checks and set-up are not measurement

    @property
    def attempted(self) -> int:
        return len(self.job_list) * (len(self.plain) + len(self.traced))

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def correct(self) -> bool:
        return not (self.reasons["wrong output"] or self.reasons["output differs between passes"])

    def end_to_end(self) -> dict[str, float]:
        times = at_reference_speed(self.plain, "latency")
        ok_ms = [times[j["id"]] * 1000 for j in self.job_list
                 if self.verdicts.get(j["id"], (False,))[0]
                 and not any(j["id"] in p.errors for p in self.plain)]
        wall = sum(times.values())
        return {
            "setup_s": statistics.median(self.setup),
            "wall_s": wall,
            "cpu_s": sum(at_reference_speed(self.plain, "cpu").values()),
            "jobs_per_s": len(ok_ms) / wall,
            "job_ms.p50": quantile(ok_ms, 0.5),
            "job_ms.p90": quantile(ok_ms, 0.9),
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        rows = self.layer_rows
        values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        values["trace.overhead_s"] = (sum(at_reference_speed(self.traced, "latency").values())
                                      - sum(at_reference_speed(self.plain, "latency").values()))
        values["fail_ratio"] = self.failed / self.attempted
        return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bifgraph" / "__init__.py").is_file():
        print(f"error: no bifgraph sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    import bifgraph
    import bifgraph.cli  # noqa: F401  (jobs call bifgraph.cli.main)

    job_list = inputs.generate(args.workload, args.seed)
    workdir = OUT / "inputs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        run = Run(bifgraph, job_list, jobs.Runner(bifgraph, job_list, workdir), bool(args.trace))
        run.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, listed = run.per_layer(), spec["per_layer"]
        spans = run.tracer.write_spans(OUT / "spans" / f"{args.workload}-seed{args.seed}.tsv.gz")
        print(f"spans: {spans} from the first traced pass, under {OUT / 'spans'}")
    else:
        values, listed = run.end_to_end(), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"], "better": m["better"]}
               for m in listed}

    print(f"workload {args.workload}, seed {args.seed}: {len(job_list)} jobs per pass, "
          f"{len(run.plain)} untraced and {len(run.traced)} traced passes")
    print(f"checks: {run.attempted} attempted, {run.failed} failed"
          + "".join(f"; {n} {why}" for why, n in sorted(run.reasons.items())))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} ({m['better']} is better)")
    record = {
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_pass": len(job_list),
        "attempted": run.attempted, "failed": run.failed, "failures": dict(run.reasons),
        "correct": run.correct, "setup_samples_s": run.setup,
        "pass_wall_s": [sum(p.latency.values()) for p in run.plain],
        "traced_pass_wall_s": [sum(p.latency.values()) for p in run.traced],
        "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
