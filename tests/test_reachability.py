"""Which functions under src/egf the commands reach.

One interpreter imports egf under ``sys.setprofile`` and runs the seven
bundled scenario files, a two-point sweep and ``egf verify`` through
``egf.cli.main``, with ``os.sched_getaffinity`` reporting one CPU so that
``runner.fork_map`` runs every item in that process.  The functions of
src/egf it never calls are pinned: a function that no command reaches fails
this test, and so does one of the pinned that a command starts to reach.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import egf

ROOT = pathlib.Path(egf.__file__).resolve().parent.parent.parent

_SCAN = textwrap.dedent("""
    import inspect, json, os, pathlib, sys, types

    out = pathlib.Path(sys.argv[1])
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    os.sched_getaffinity = lambda pid: {0}
    sys.setprofile(profile)
    import egf.cli

    root = pathlib.Path(egf.__file__).resolve().parent
    scenarios = root.parent.parent / "scenarios"
    codes = [egf.cli.main(["run", str(f), "--out", str(out / f.stem)])
             for f in sorted(scenarios.glob("*.egf"))]
    codes.append(egf.cli.main(["sweep", str(scenarios / "exact-quasilinear.egf"), "--param",
                               "grid", "--values", "128,256", "--out", str(out / "sweep")]))
    codes.append(egf.cli.main(["verify"]))
    sys.setprofile(None)

    def functions(code):
        # every def and method, nested ones included; not class bodies,
        # lambdas or comprehensions
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    yield const
                yield from functions(const)

    # by module and name: a cached .pyc may carry another checkout's path
    reached = {f"{pathlib.Path(c.co_filename).stem}.{c.co_qualname}" for c in called
               if pathlib.Path(c.co_filename).parent.name == "egf"}
    unreached = sorted(
        name
        for path in root.glob("*.py")
        for code in functions(compile(path.read_text(), str(path), "exec"))
        if (name := f"{path.stem}.{code.co_qualname}") not in reached)
    print(json.dumps({"codes": codes, "unreached": unreached}))
""")

# The ROADMAP's "Code that no command reaches": paper formulas and helpers
# that only tests call, the tau-heat kind (no bundled file), the non-slope
# ftau route with the f the runner builds for it (the bundled file declares
# f: scaled-tau1, stepped by the propagator) and two error paths.
UNREACHED = [
    "cli._Parser.error",
    "companion.hypothesis_check_T02",
    "companion.tilde_A_matrix",
    "companion.tilde_A_matrix.<locals>.tau_at",
    "companion.truncate_second_order",
    "flows.VolumeTracker.normalization_factor",
    "flows.VolumeTracker.uniform",
    "flows.evolve_tau_heat",
    "flows.ftau_conformal_flow.<locals>.basis",
    "flows.ftau_conformal_flow.<locals>.faces",
    "flows.ftau_conformal_flow.<locals>.slope",
    "parabolic.CircleField.copy",
    "parabolic.CircleTrajectory.final",
    "parabolic._step_error",
    "parabolic.parabolicity_check",
    "parabolic.solve_linear_interval",
    "runner.RunResult.trajectory_rows",
    "runner._run_ftau.<locals>.func",
    "runner._run_ftau.<locals>.grad",
    "runner._run_tau_heat",
    "symfun.ellipticity_check",
    "symfun.eval_F_prime",
    "symfun.eval_Psi_prime",
    "symfun.mu_coefficient",
    "symfun.newton_transform",
    "symfun.newton_transform_trace",
    "symfun.psi_umbilical",
    "symfun.psi_umbilical.<locals>.value",
    "symfun.tau_from_sigma",
]


def test_functions_no_command_reaches(tmp_path):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _SCAN, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    scan = json.loads(out.stdout.splitlines()[-1])
    # seven runs and the sweep pass; verify is 8/9 (criterion 5's sign clause)
    assert scan["codes"] == [0] * 8 + [1]
    assert scan["unreached"] == UNREACHED
