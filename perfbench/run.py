"""Benchmark of egf: three workloads driven through the egf command line.

    python3 perfbench/run.py --workload run-linear|sweep-quasilinear|verify \
        --seed N --seconds S --trace 0|1

Every pass runs in a fresh single-threaded process (worker.py) that calls
``egf.cli.main`` in process.  The load is a closed loop with one client: a
pass starts only after the previous one returned, and only while it can
end, if as long as the last, within S seconds.

--trace 0  end-to-end metrics, medians over the passes.
--trace 1  pairs of an untraced and a traced pass, then the kernel probes;
           per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The full record
(environment, every pass, failures) and the final fields of the first pass go
to perfbench/out/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import exact_counts, per_layer_units  # noqa: E402

# name -> unit, as in BENCHMARK.json's end_to_end
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "sup_error": "ratio"}

# Time of worker.calibrate on a 2-core x86-64 VM.  The record's speed factor
# is this over the kernel's median time in the run, to tell a drift of the
# host's speed from a change of egf; it does not scale any metric.
CALIBRATION_REFERENCE_S = 0.19

# No pass starts that would end after this; a run must end within 180 s.
RUN_LIMIT_S = 140.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed egf operation)."""


def source_record() -> dict:
    """Commit when the checkout is a git repository, and a digest of src/egf."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "egf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return {"commit": commit, "src_sha256": h.hexdigest()}


class Runner:
    def __init__(self, workload: str, seed: int, record_dir: str):
        self.workload, self.seed, self.record_dir = workload, seed, record_dir
        self.env = dict(os.environ, **CHILD_ENV)
        self.count = 0

    def _child(self, extra: list, work: str) -> dict:
        os.makedirs(work, exist_ok=True)
        result = os.path.join(work, "result.json")
        argv = [sys.executable, WORKER, "--result", result] + extra
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=170, check=False)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def run_pass(self, trace: bool) -> dict:
        work = os.path.join(self.record_dir, f"pass{self.count}")
        keep = os.path.join(self.record_dir, "final") if self.count == 0 else None
        self.count += 1
        extra = ["--workload", self.workload, "--seed", str(self.seed),
                 "--trace", str(int(trace)), "--work", work]
        if keep:
            extra += ["--keep", keep]
        start = time.monotonic()
        extra += ["--spawn", repr(start)]
        try:
            record = self._child(extra, work)
            record["pass_s"] = time.monotonic() - start
            spans = os.path.join(work, "spans.csv")
            target = os.path.join(self.record_dir, "spans.csv")
            if trace and not os.path.exists(target):
                os.replace(spans, target)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        record["traced"] = trace
        return record

    def run_probes(self) -> dict:
        work = os.path.join(self.record_dir, "probe")
        try:
            return self._child(["--probe"], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)


def run_passes(runner: Runner, seconds: float, trace: bool) -> list:
    """Closed loop: passes (or untraced/traced pairs) while the next one, as
    long as the last, still ends within `seconds`; at least one."""
    passes, start, last = [], time.monotonic(), 0.0
    while not passes or time.monotonic() - start + last <= min(seconds, RUN_LIMIT_S):
        t0 = time.monotonic()
        passes.append(runner.run_pass(False))
        if trace:
            passes.append(runner.run_pass(True))
        last = time.monotonic() - t0
    return passes


def score(passes: list) -> tuple:
    """(attempted, failed, failure lines); every pass is held to the first."""
    first = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    attempted, failures = 0, []
    for i, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            if not op["ok"]:
                failures.append(f"pass {i} {op['name']}: unexpected outcome ({op['detail']})")
            elif op["digest"] != first.get(op["name"]):
                failures.append(f"pass {i} {op['name']}: output differs from pass 0")
    return attempted, len(failures), failures


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q[0]:.4g}, q3 {q[2]:.4g}"


def speed_factor(passes: list) -> float:
    """CALIBRATION_REFERENCE_S over the median calibration time of the run."""
    return CALIBRATION_REFERENCE_S / statistics.median(p["calibration_s"] for p in passes)


def end_to_end(passes: list) -> tuple:
    metrics, notes = {}, {}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        vals = [p[name] for p in passes]
        metrics[name] = statistics.median(vals)
        notes[name] = "median, " + _quartiles(vals)
    metrics["sup_error"] = max(p["sup_error"] for p in passes)
    notes["sup_error"] = "largest over passes"
    return metrics, notes


def per_layer(passes: list, probes: dict) -> tuple:
    """Per-layer medians over traced passes; counts must repeat exactly."""
    traced = [p["layer"] for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    metrics, notes, problems = {}, {}, []
    counts = exact_counts(traced[0])
    for other in traced[1:]:
        if exact_counts(other) != counts:
            problems.append("exact counts differ between traced passes")
    for name in per_layer_units():
        if name in counts:
            metrics[name] = counts[name]
        elif name in traced[0]:
            metrics[name] = statistics.median(layer[name] for layer in traced)
    metrics["bench.trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in passes if p["traced"]) - statistics.median(plain))
    notes["bench.trace.overhead_s"] = f"median traced wall_s minus median untraced, n={len(plain)}"
    metrics.update(probes)
    return metrics, notes, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="egf benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "egf", "__init__.py")):
        print(f"perfbench: no egf sources under {os.path.join(ROOT, 'src', 'egf')}",
              file=sys.stderr)
        return 2
    record_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(record_dir, ignore_errors=True)
    os.makedirs(record_dir)
    runner = Runner(args.workload, args.seed, record_dir)
    try:
        passes = run_passes(runner, args.seconds, bool(args.trace))
        probes = runner.run_probes() if args.trace else {}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, failures = score(passes)
    if args.trace:
        metrics, notes, problems = per_layer(passes, probes)
        units = per_layer_units()
    else:
        metrics, notes = end_to_end(passes)
        problems = [] if math.isfinite(metrics["sup_error"]) else ["sup_error not finite"]
        units = END_TO_END
    correct = failed == 0 and not problems
    env = dict(passes[0]["env"], **source_record(), seed=args.seed,
               amplitudes=workloads.amplitudes(args.seed), speed_factor=speed_factor(passes))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          "closed loop, one client, fresh single-threaded process per pass")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {units[name]:<10} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<58} {failed / attempted:>14.6g} {'ratio':<10} "
          f"{failed}/{attempted} operations")
    for line in failures + problems:
        print("  FAILED " + line)
    with open(os.path.join(record_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "env": env, "passes": passes,
                   "metrics": metrics, "failures": failures + problems}, fh, indent=1)
    print(f"record -> {os.path.relpath(record_dir, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
