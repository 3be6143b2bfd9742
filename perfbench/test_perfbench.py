"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The smoke tests run each workload once with --seconds 1 (about a minute in
all on a 2-core machine).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, per_layer_units, self_times  # noqa: E402


def _span(name, start, end, parent=-1, raised=False, note=None):
    return Span(name, start, end, parent, 1, None, raised, note)


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("runner.run_scenario", 1.0, 4.0, parent=0),
        _span("parabolic.solve_cyclic_tridiag", 2.0, 3.0, parent=1),
        _span("runner.write_artifacts", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_on_synthetic_tree():
    quasi = "parabolic.solve_quasilinear_divergence"
    spans = [_span(quasi, 0.0, 10.0, note={"steps": 2})]
    for k in range(4):
        spans.append(_span("parabolic.solve_cyclic_tridiag", 1.0 + 2 * k, 2.0 + 2 * k,
                           parent=0, note={"rhs_cols": 1}))
    spans.append(_span("flows.track_volume", 10.0, 10.5, raised=True))
    m = layer_metrics(spans)
    assert m[quasi + ".self_s"] == 6.0
    assert m[quasi + ".steps"] == 2
    assert m[quasi + ".solves_per_step"] == 2.0
    assert m[quasi + ".picard_useful_ratio"] == 0.5
    assert m["parabolic.solve_cyclic_tridiag.calls"] == 4
    assert m["parabolic.solve_cyclic_tridiag.us_per_call"] == 1e6
    assert m["flows.track_volume.calls"] == 1
    assert m["flows.errors"] == 1 and m["parabolic.errors"] == 0
    assert m["flows.ftau_conformal_flow.solves_per_step"] == 0.0


def test_wrapping_reaches_every_binding():
    import numpy as np
    from egf import acceptance, flows, parabolic
    from egf.parabolic import SolverConfig

    original = flows.solve_cyclic_tridiag
    tracer = Tracer()
    tracer.install()
    try:
        assert flows.solve_cyclic_tridiag is not original
        assert parabolic.solve_cyclic_tridiag is flows.solve_cyclic_tridiag
        y = np.arange(16) * 2 * math.pi / 16
        state = flows.TwistedState(np.cos(y)[None, :].repeat(2, axis=0), 2 * math.pi)
        flows.twisted_product_flow(state, 0.01, SolverConfig(1e-3))
        criterion_3 = acceptance.CRITERIA[2]
        assert criterion_3().passed
    finally:
        tracer.uninstall()
    assert flows.solve_cyclic_tridiag is original
    assert not hasattr(acceptance.CRITERIA[2], "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names.count("parabolic.solve_cyclic_tridiag") == 10
    assert names.count("acceptance.criterion_3") == 1
    m = layer_metrics(tracer.spans)
    assert m["parabolic.solve_cyclic_tridiag.rhs_cols"] == 20
    assert m["companion.build_companion.calls"] == 102


def test_exception_counted_at_its_origin():
    from egf import runner
    from egf.errors import ValidationError
    from egf.scenarios import parse_scenario

    scn = parse_scenario("kind: prescribed-F\ngrid: 64\ndt: 0.01\nT: 0.1\n"
                         "init: zero\ntarget: cos\ntarget-offset: 0.3\n")
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ValidationError):
            runner.run_scenario(scn)
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.spans)
    assert m["flows.errors"] == 1
    assert m["runner.errors"] == 0


def test_amplitudes_are_seeded_and_in_range():
    assert workloads.amplitudes(7) == workloads.amplitudes(7)
    assert workloads.amplitudes(7) != workloads.amplitudes(8)
    for name, amp in workloads.amplitudes(7).items():
        lo, hi = workloads.AMPLITUDE_RANGES[name]
        assert lo <= amp <= hi


def test_end_to_end_times_are_raw_medians():
    import run

    passes = [{"wall_s": w, "setup_s": 0.5, "peak_rss_mb": 100.0, "sup_error": 1e-4,
               "calibration_s": 2 * run.CALIBRATION_REFERENCE_S} for w in (2.0, 3.0, 4.0)]
    metrics, _ = run.end_to_end(passes)
    assert metrics == {"wall_s": 3.0, "setup_s": 0.5, "peak_rss_mb": 100.0, "sup_error": 1e-4}
    assert run.speed_factor(passes) == 0.5


def test_a_rejected_run_fails_alone():
    from egf import cli

    root = os.path.join(HERE, "out", "rejected-test")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    amp = workloads.amplitudes(0)["heat-decay"]
    texts = {
        "heat-decay": ("kind: pde-reference\nproblem: circle-heat-decay\ngrid: 32\n"
                       f"dt: 0.001\nT: 0.1\ninit: cos\ninit-amplitude: {amp!r}\n"),
        # egf rejects this target before it writes anything
        "prescribed-F": ("kind: prescribed-F\ngrid: 64\ndt: 0.01\nT: 0.1\n"
                         "init: zero\ntarget: cos\ntarget-offset: 0.3\n"),
    }
    results = []
    try:
        for name, text in texts.items():
            path = os.path.join(root, name + ".egf")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["run", path, "--out", os.path.join(root, "out", name)])
            results.append((name, code, ""))
        scored = workloads.evaluate("run-linear", 0, results, os.path.join(root, "out"))
    finally:
        shutil.rmtree(root)
    assert results[0][1] == 0 and results[1][1] != 0
    assert [op["ok"] for op in scored["ops"]] == [True, False]
    assert scored["ops"][0]["digest"] and not scored["ops"][1]["digest"]
    assert 0 < scored["sup_error"] <= workloads.SUP_ERROR_LIMIT


def test_sweep_error_is_computed_from_the_closed_form():
    x = [0.5, 2.0]
    exact = [math.sin(v) / math.sqrt(math.cos(v) ** 2 + math.exp(2.0)) for v in x]
    rows = [f"1,{v},{e + 1e-5!r},0" for v, e in zip(x, exact)]
    err = workloads.closed_form_error("exact-quasilinear", "t,x,u,exact", rows, 1.0)
    assert abs(err - 1e-5) < 1e-12


def test_closed_forms_are_scaled_by_the_amplitude():
    rows = [f"5,{x},{y},{(1 + x * x) * math.exp(-5) * math.cos(y)!r}"
            for x in (-1.0, 0.5) for y in (0.0, 1.0)]
    assert workloads.closed_form_error("twisted", "t,x,y,phi", rows, 2.0) < 1e-15
    rows = [f"3,{x},{0.7 * math.exp(-3) * math.cos(x)!r}" for x in (0.0, 2.0)]
    assert workloads.closed_form_error("heat-decay", "t,x,u", rows, 0.7) < 1e-15


def _bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_prints_declared_end_to_end_metrics(workload):
    proc = _bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_pass_prints_declared_per_layer_metrics():
    proc = _bench("verify", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared("per_layer") == per_layer_units()
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["acceptance.criterion_8.s"] > 0
    assert values["chartgeom.weingarten_from_chart.calls"] > 0
    # criteria 1, 8 and 9 step 4000 times with 14000 Picard solves
    assert values["parabolic.solve_quasilinear_divergence.steps"] == 4000
    assert values["parabolic.solve_quasilinear_divergence.solves_per_step"] == 3.5
    assert values["parabolic.solve_cyclic_tridiag.calls"] == 27000
    assert values["parabolic.solve_linear_interval.steps"] == 1000
    assert values["flows.errors"] == 1  # criterion 7's rejected target


def test_refuses_to_run_without_sources():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("verify", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_reports_sup_difference_of_final_fields():
    import compare

    root = os.path.join(HERE, "out", "compare-test")
    shutil.rmtree(root, ignore_errors=True)
    for name, u in (("a", "0.5"), ("b", "0.25")):
        os.makedirs(os.path.join(root, name, "final"))
        with open(os.path.join(root, name, "final", "heat-decay.csv"), "w") as fh:
            fh.write(f"t,x,u\n3,0,1\n3,0.1,{u}\n")
    try:
        assert compare.sup_difference(os.path.join(root, "a", "final", "heat-decay.csv"),
                                      os.path.join(root, "b", "final", "heat-decay.csv")) == 0.25
        assert compare.main([os.path.join(root, "a"), os.path.join(root, "b")]) == 0
    finally:
        shutil.rmtree(root)
