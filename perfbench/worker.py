"""One pass of a workload, or the kernel probes, in a fresh process.

run.py starts this script once per pass:

    python3 perfbench/worker.py --workload NAME --seed N --spawn T0 \
        --trace 0|1 --work DIR --result FILE [--keep DIR]
    python3 perfbench/worker.py --probe --result FILE

``--spawn`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start.  The pass drives egf only
through ``egf.cli.main``, in process, one command after the other.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, run_probes  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds taken by a fixed kernel of interpreter, float-formatting and
    small-numpy work (no egf code), to gauge the host's current speed.  It
    runs once per pass, after set-up and before the workload, and only goes
    to the record."""
    import numpy as np

    t0 = time.perf_counter()
    u = np.cos(np.arange(256) * 0.0245)
    acc = 0.0
    for i in range(3000):
        u = 0.5 * (np.roll(u, 1) + np.roll(u, -1))
        acc += float(np.max(np.abs(u)))
        ",".join(f"{v:.17g}" for v in u[:24].tolist())
        for k in range(60):
            acc += (k * i) % 7
    return time.perf_counter() - t0


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start,end,parent,run,item,raised\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.run},"
                     f"{s.item or ''},{int(s.raised)}\n")


def run_pass(args) -> dict:
    import egf.acceptance  # noqa: F401  (imported here so set-up holds every import)
    import egf.cli
    import egf.runner  # noqa: F401
    from egf.scenarios import parse_scenario

    scenarios = workloads.render(args.workload, args.seed, os.path.join(args.work, "scenarios"))
    for _, text in scenarios.values():
        parse_scenario(text)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outdir = os.path.join(args.work, "out")

    setup_s = time.monotonic() - args.spawn
    calibration = calibrate()
    start = time.monotonic()
    results = []
    for label, argv in workloads.commands(args.workload, scenarios, outdir):
        if tracer is not None:
            tracer.run += 1
            tracer.item = label
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = egf.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback breaks the exit-code contract
                code = "traceback: " + traceback.format_exc(limit=3)
        results.append((label, code, out.getvalue()))
    wall_s = time.monotonic() - start
    rss = peak_rss_mb()

    record = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": rss,
              "calibration_s": calibration, "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        record["layer"] = layer_metrics(tracer.spans)
        write_spans(os.path.join(args.work, "spans.csv"), tracer.spans)
    record.update(workloads.evaluate(args.workload, args.seed, results, outdir, args.keep))
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--spawn", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work")
    p.add_argument("--keep")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    if args.probe:
        record = run_probes()
    elif args.spawn is None:
        p.error("a pass needs --spawn")
    else:
        record = run_pass(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # every file is closed; skip freeing the pass's objects one by one
    os._exit(code)
