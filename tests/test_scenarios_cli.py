import io
import math
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egf.cli import main
from egf.errors import ValidationError
from egf.runner import _BLOCK_ROWS, _write_table, run_scenario, write_artifacts
from egf.scenarios import ScenarioParseError, load_scenario, parse_scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

HEAT = """
kind: pde-reference
problem: circle-heat-decay
grid: 64
dt: 0.002
T: 1.0
init: cos
"""

EXACT = """
kind: pde-reference
problem: exact-quasilinear
grid: 128
dt: 0.002
T: 0.5
scheme: crank-nicolson
check-tolerance: 2e-4
"""


class TestParser:
    def test_common_fields(self):
        scn = parse_scenario(HEAT)
        assert scn.kind == "pde-reference"
        assert scn.grid == 64
        assert scn.dt == 0.002
        assert scn.length == pytest.approx(2 * math.pi)

    def test_comments_and_blank_lines(self):
        scn = parse_scenario("# header\nkind: tau-heat\n\ndt: 0.1 # inline\nT: 1\n")
        assert scn.kind == "tau-heat"
        assert scn.dt == 0.1

    def test_missing_colon_is_parse_error(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("kind tau-heat\n")

    def test_duplicate_key_is_parse_error(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("kind: tau-heat\nkind: reeb\ndt: 0.1\nT: 1\n")

    def test_bad_number_is_parse_error(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("kind: tau-heat\ndt: fast\nT: 1\n")

    def test_unknown_kind_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse_scenario("kind: warp-drive\ndt: 0.1\nT: 1\n")

    def test_unknown_key_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse_scenario("kind: tau-heat\ndt: 0.1\nT: 1\ncolor: red\n")

    def test_missing_required_key(self):
        with pytest.raises(ValidationError):
            parse_scenario("kind: tau-heat\nT: 1\n")

    def test_ftau_requires_spectrum(self):
        with pytest.raises(ValidationError):
            parse_scenario("kind: ftau\ndt: 0.1\nT: 1\nf: scaled-tau1\n")

    def test_horizon_must_be_whole_number_of_steps(self):
        with pytest.raises(ValidationError, match="whole number of dt"):
            parse_scenario("kind: tau-heat\ndt: 0.4\nT: 1\n")

    @pytest.mark.parametrize("dt, T", [("0.0001", "0.1"), ("0.001", "3.0"), ("0.1", "0")])
    def test_horizon_within_relative_slack_accepted(self, dt, T):
        scn = parse_scenario(f"kind: tau-heat\ndt: {dt}\nT: {T}\n")
        assert scn.T == float(T)

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.egf")), ids=lambda p: p.stem)
    def test_bundled_scenarios_parse(self, path):
        load_scenario(path)

    def test_numeric_kind_keys_are_typed(self):
        scn = parse_scenario(
            "kind: twisted\ndt: 0.1\nT: 1\nbase-grid: 4\nfiber-grid: 16.0\n"
            "fiber-length: 3\n"
        )
        assert scn.get("base-grid") == 4 and isinstance(scn.get("fiber-grid"), int)
        assert scn.get("fiber-length") == 3.0
        assert scn.entries["fiber-grid"] == "16.0"


# Scenario entries that parse, one per kind whose numeric keys are fuzzed below.
_BASES = {
    "pde-reference": {"kind": "pde-reference", "problem": "circle-heat-decay"},
    "twisted": {"kind": "twisted"},
    "umbilical": {"kind": "umbilical"},
    "prescribed-F": {"kind": "prescribed-F"},
    "ftau": {"kind": "ftau", "spectrum": "0.4,1.0"},
}
_NUMERIC_KEYS = [
    ("pde-reference", key)
    for key in ("grid", "dt", "T", "length", "save-every", "check-tolerance")
] + [
    ("twisted", key) for key in ("base-grid", "fiber-grid", "n", "fiber-length")
] + [
    ("umbilical", key)
    for key in ("psi-slope", "init-amplitude", "init-frequency", "init-offset", "init-width")
] + [
    ("prescribed-F", key)
    for key in ("n", "target-amplitude", "target-frequency", "target-offset", "target-width")
] + [("ftau", "n")]


class TestInvalidNumbers:
    @pytest.mark.parametrize("kind, key", _NUMERIC_KEYS, ids=lambda v: v)
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(token=st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "abc", "1e400",
                                  "-1e400", "0x10", "1,5"]))
    def test_invalid_token_exits_2_or_3(self, tmp_path, capsys, kind, key, token):
        entries = {"grid": "64", "dt": "0.01", "T": "0.1", **_BASES[kind], key: token}
        path = tmp_path / "scn.egf"
        path.write_text("".join(f"{k}: {v}\n" for k, v in entries.items()))
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out)])
        assert code in (2, 3)
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err


def _reference_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _table_text(header, rows) -> str:
    fh = io.StringIO()
    _write_table(fh, header, rows)
    return fh.getvalue()


_EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072009e-308, 1e16, 1e17, -1e17 + 8, 9007199254740993.0,
                0.1, 1 / 3, 1.7976931348623157e308]


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda cols: st.lists(
                st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS),
                         min_size=cols, max_size=cols),
                min_size=1, max_size=30,
            )
        )
    )
    def test_block_format_equals_per_value_format(self, rows):
        header = [f"c{j}" for j in range(len(rows[0]))]
        table = np.array(rows, dtype=float)
        assert _table_text(header, table) == _reference_csv(header, rows)

    @pytest.mark.parametrize("nrows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_row_counts_around_the_block_size(self, nrows):
        rng = np.random.default_rng(nrows)
        table = rng.standard_normal((nrows, 3)) * 10.0 ** rng.integers(-320, 300, (nrows, 3))
        text = _table_text(["t", "x", "u"], table)
        assert text == _reference_csv(["t", "x", "u"], table)
        assert text.count("\n") == nrows + 1

    def test_mixed_rows_keep_blank_and_text_fields(self):
        rows = [["128", np.float64(-0.0), "", math.nan, "pass"], ["x", 0.5, 2e-5, 1.0, "fail"]]
        text = _table_text(["grid", "a", "b", "c", "verdict"], rows)
        assert text == "grid,a,b,c,verdict\n128,-0,,nan,pass\nx,0.5,2.0000000000000002e-05,1,fail\n"


class TestRunner:
    def test_heat_reference_checks_pass(self):
        res = run_scenario(parse_scenario(HEAT))
        assert res.passed
        assert res.exit_code == 0

    def test_exact_reference_error_column(self):
        res = run_scenario(parse_scenario(EXACT))
        assert res.passed
        assert res.metrics["sup_error"] <= 2e-4

    def test_umbilical_requires_zero_mean(self):
        scn = parse_scenario(
            "kind: umbilical\ngrid: 64\ndt: 0.01\nT: 0.1\ninit: cos\ninit-offset: 0.2\n"
        )
        with pytest.raises(ValidationError):
            run_scenario(scn)

    def test_umbilical_runs_and_volume_decreases(self):
        scn = parse_scenario(
            "kind: umbilical\ngrid: 128\ndt: 0.005\nT: 0.5\ninit: cos\n"
            "init-amplitude: 0.3\npsi-slope: 2\n"
        )
        res = run_scenario(scn)
        assert res.passed
        vols = [row[2] for row in res.summary_rows]
        assert vols[-1] < vols[0]

    def test_ftau_scenario(self):
        scn = parse_scenario(
            "kind: ftau\ngrid: 64\ndt: 0.005\nT: 0.1\nf: scaled-tau1\n"
            "spectrum: 0.4,1.0\ninit: cos\ninit-amplitude: 0.2\ninit-offset: 1.4\n"
        )
        res = run_scenario(scn)
        assert res.passed

    def test_twisted_scenario(self):
        scn = parse_scenario(
            "kind: twisted\ngrid: 64\ndt: 0.01\nT: 1.0\nn: 1\nbase-grid: 8\n"
            "fiber-grid: 64\nprofile: one-plus-x-squared\n"
        )
        res = run_scenario(scn)
        assert res.passed

    def test_byte_identical_artifacts(self, tmp_path):
        scn = parse_scenario(HEAT)
        res1 = run_scenario(scn)
        res2 = run_scenario(scn)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_artifacts(res1, str(d1))
        write_artifacts(res2, str(d2))
        for name in ("trajectory.csv", "summary.csv", "verdict.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestCli:
    def _write(self, tmp_path, text, name="scn.egf"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_success_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, HEAT)
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "verdict.txt").exists()
        assert "overall: pass" in capsys.readouterr().out

    def test_malformed_file_exit_2_no_artifacts(self, tmp_path):
        path = self._write(tmp_path, "no separator here\n")
        out = tmp_path / "out"
        code = main(["run", path, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_validation_error_exit_3(self, tmp_path):
        path = self._write(tmp_path, "kind: mystery\ndt: 0.1\nT: 1\n")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3

    def test_nonzero_average_target_exit_3(self, tmp_path):
        text = (
            "kind: prescribed-F\ngrid: 64\ndt: 0.01\nT: 0.1\n"
            "init: zero\ntarget: cos\ntarget-offset: 0.1\n"
        )
        path = self._write(tmp_path, text)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.egf")]) == 2

    def test_reeb_verdict_contains_center_check(self, tmp_path):
        text = (
            "kind: reeb\ngrid: 256\ndt: 0.001\nT: 0.05\n"
            "scheme: crank-nicolson\nsave-every: 10\n"
        )
        path = self._write(tmp_path, text)
        out = tmp_path / "reeb"
        assert main(["run", path, "--out", str(out)]) == 0
        verdict = (out / "verdict.txt").read_text()
        assert "K_t(0)=0: pass" in verdict
        assert "det-identity: pass" in verdict

    def test_sweep_grid_monotone_error(self, tmp_path, capsys):
        path = self._write(tmp_path, EXACT)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", path, "--param", "grid", "--values", "128,256,512", "--out", str(out)]
        )
        assert code == 0
        table = (out / "sweep.csv").read_text().strip().splitlines()
        errors = [float(line.split(",")[2]) for line in table[1:]]
        assert errors[0] > errors[1] > errors[2]
        for value in ("128", "256", "512"):
            assert (out / f"grid={value}" / "verdict.txt").exists()

    def test_sweep_empty_values_exit_3(self, tmp_path):
        path = self._write(tmp_path, HEAT)
        assert main(["sweep", path, "--param", "grid", "--values", ",", "--out", str(tmp_path / "o")]) == 3

    def test_sweep_alpha_stable_under_T(self, tmp_path):
        # fitted decay rate stays within 2% across time horizons
        path = self._write(
            tmp_path,
            "kind: tau-heat\ngrid: 128\ndt: 0.002\nT: 1.0\ninit: cos\n",
        )
        out = tmp_path / "sweepT"
        code = main(
            ["sweep", path, "--param", "T", "--values", "1,2,4", "--out", str(out)]
        )
        assert code == 0
        table = (out / "sweep.csv").read_text().strip().splitlines()
        alphas = [float(line.split(",")[3]) for line in table[1:]]
        assert max(alphas) / min(alphas) < 1.02


class TestSweepValidation:
    def test_sweep_scheme_reaches_the_solver(self, tmp_path):
        path = tmp_path / "scn.egf"
        path.write_text(HEAT)
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--param", "scheme", "--values",
                     "implicit-euler,crank-nicolson", "--out", str(out)]) == 0
        ie = (out / "scheme=implicit-euler" / "trajectory.csv").read_bytes()
        cn = (out / "scheme=crank-nicolson" / "trajectory.csv").read_bytes()
        assert ie != cn

    @pytest.mark.parametrize("param, values", [
        ("scheme", "implicit-euler,crank-nicolson,bogus"),
        ("grid", "64,nan"),
        ("dt", "0.002,0.3"),  # T = 1 is not a whole number of 0.3 steps
    ])
    def test_invalid_sweep_value_exits_3_before_any_run(self, tmp_path, param, values):
        path = tmp_path / "scn.egf"
        path.write_text(HEAT)
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--param", param, "--values", values,
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_sweep_check_tolerance_reaches_the_check(self, tmp_path):
        path = tmp_path / "scn.egf"
        path.write_text(EXACT)
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--param", "check-tolerance", "--values", "1e-30",
                     "--out", str(out)]) == 1
        verdict = (out / "check-tolerance=1e-30" / "verdict.txt").read_text()
        assert "sup-error-vs-exact: fail" in verdict

    def test_unknown_param_rejected(self, tmp_path):
        path = tmp_path / "scn.egf"
        path.write_text(HEAT)
        code = main(
            ["sweep", str(path), "--param", "color", "--values", "1,2",
             "--out", str(tmp_path / "out")]
        )
        assert code == 3

    def test_sweep_deterministic_across_runs(self, tmp_path):
        path = tmp_path / "scn.egf"
        path.write_text(HEAT)
        out1, out2 = tmp_path / "first", tmp_path / "second"
        assert main(["sweep", str(path), "--param", "T", "--values", "0.5,1.0",
                     "--out", str(out1)]) == 0
        assert main(["sweep", str(path), "--param", "T", "--values", "0.5,1.0",
                     "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        for sub in ("T=0.5", "T=1.0"):
            a = (out1 / sub / "trajectory.csv").read_bytes()
            b = (out2 / sub / "trajectory.csv").read_bytes()
            assert a == b


class TestExitCodes:
    """Every failure maps to its documented exit code, never a traceback."""

    @staticmethod
    def _out_of_memory(scn):
        raise MemoryError("unable to allocate the grid")

    @pytest.mark.parametrize("case, code", [
        ("directory", 2),
        ("undecodable", 2),
        ("out-under-file", 3),
        ("sweep-out-under-file", 3),
        ("memory", 4),
    ])
    def test_exit_code_without_traceback(self, tmp_path, capsys, monkeypatch, case, code):
        scn = tmp_path / "scn.egf"
        scn.write_text(HEAT)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        argv = {
            "directory": ["run", str(tmp_path)],
            "undecodable": ["run", str(tmp_path / "bad.egf")],
            "out-under-file": ["run", str(scn), "--out", str(blocker / "out")],
            "sweep-out-under-file": ["sweep", str(scn), "--param", "T", "--values", "0.5",
                                     "--out", str(blocker / "out")],
            "memory": ["run", str(scn), "--out", str(tmp_path / "out")],
        }[case]
        (tmp_path / "bad.egf").write_bytes(b"kind: tau-heat\n\xff\xfe\n")
        if case == "memory":
            monkeypatch.setattr("egf.runner.run_scenario", self._out_of_memory)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("egf: ")
        assert "Traceback" not in err
