import contextlib
import io
import itertools
import math
import multiprocessing
import os
import pathlib
import signal
import tempfile
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egf.cli import main
from egf.errors import SolverError, ValidationError
from egf.reeb import gaussian_curvature, reconstruct_metric, reeb_setup
from egf.csvtext import _BLOCK_ROWS, WIDTH, format_17g
from egf.runner import (
    _RUNNERS,
    RunResult,
    _write_table,
    run_scenario,
    sweep_values,
    write_artifacts,
)
from egf.scenarios import (
    FIELD_FORMS,
    KINDS,
    MAX_SPECTRUM,
    MAX_STEPS,
    ScenarioParseError,
    _ignored_keys,
    allowed_keys,
    load_scenario,
    parse_entries,
    parse_scenario,
)

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


# Every kind's keys under the earlier key model, which admitted each of them
# also with the five field suffixes.
_SUFFIXED_BEFORE = {
    "umbilical": ("init", "psi", "psi-slope"),
    "tau-heat": ("init",),
    "twisted": ("base-grid", "fiber-grid", "n", "profile", "fiber-length"),
    "prescribed-F": ("init", "target", "n"),
    "ftau": ("init", "f", "n", "spectrum"),
    "reeb": ("method",),
    "pde-reference": ("problem", "init"),
}


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

    @pytest.mark.parametrize("text, message", [
        ("kind: reeb\ndt: 0.1\nT: 1\nlength: 3\n",
         "keys ['length'] have no effect for kind 'reeb'"),
        ("kind: umbilical\ndt: 0.1\nT: 1\ncheck-tolerance: 1\n",
         "keys ['check-tolerance'] have no effect for kind 'umbilical'"),
        ("kind: pde-reference\ndt: 0.1\nT: 1\ninit: sin\ninit-offset: 1\n",
         "keys ['init', 'init-offset'] have no effect for kind 'pde-reference' "
         "with problem 'exact-quasilinear'"),
    ])
    def test_ignored_keys_are_named_with_their_kind(self, text, message):
        with pytest.raises(ValidationError) as info:
            parse_scenario(text)
        assert str(info.value) == message

    def test_numeric_kind_keys_are_typed(self):
        scn = parse_scenario(
            "kind: twisted\ndt: 0.1\nT: 1\nbase-grid: 4\nfiber-grid: 16.0\n"
            "fiber-length: 3\n"
        )
        assert scn.get("base-grid") == 4 and isinstance(scn.get("fiber-grid"), int)
        assert scn.get("fiber-length") == 3.0
        assert scn.entries["fiber-grid"] == "16.0"
        # omitted keys get their defaults, some of them from other keys
        assert (scn.grid, scn.get("n"), scn.get("profile")) == (256, 1, "one-plus-x-squared")
        assert parse_scenario("kind: twisted\ndt: 0.1\nT: 1\ngrid: 64\n").get("fiber-grid") == 64
        ftau = parse_scenario("kind: ftau\ndt: 0.1\nT: 1\nspectrum: 0.4, 1,-2e-1\n")
        assert ftau.get("spectrum") == (0.4, 1.0, -0.2)
        assert all(type(v) is float for v in ftau.get("spectrum"))
        assert (ftau.get("n"), ftau.get("f"), ftau.get("init")) == (3, "scaled-tau1", "cos")
        assert (ftau.scheme, ftau.length, ftau.save_every) == ("implicit-euler", 2 * math.pi, 0)

    @pytest.mark.parametrize("kind", sorted(_SUFFIXED_BEFORE))
    def test_only_fields_take_suffixes(self, kind):
        # the earlier key model gave every kind key the field suffixes
        removed = [base + suffix for base in _SUFFIXED_BEFORE[kind] if base not in ("init", "target")
                   for suffix in ("-amplitude", "-frequency", "-offset", "-width")]
        assert not set(removed) & allowed_keys(kind)
        for key in removed:
            with pytest.raises(ValidationError, match="unknown keys"):
                parse_entries({"kind": kind, "dt": "0.1", "T": "1", key: "1"})

    def test_diffusion_number_bound(self):
        # 4 dt / h^2 at h = 1: 4e15 is below 1 / eps = 4.5e15, 4.8e15 above
        parse_scenario("kind: tau-heat\ngrid: 8\nlength: 8\ndt: 1e15\nT: 1e15\n")
        with pytest.raises(ValidationError, match="exceeds 1 / eps"):
            parse_scenario("kind: tau-heat\ngrid: 8\nlength: 8\ndt: 1.2e15\nT: 1.2e15\n")

    def test_diffusion_number_uses_the_kind_spacing(self):
        # twisted steps its fiber only: grid sets the default fiber-grid and
        # no circle of length / grid is built
        twisted = "kind: twisted\ngrid: 1000000000\nfiber-grid: 64\ndt: 1\nT: 1\n"
        assert parse_scenario(twisted).get("fiber-grid") == 64
        with pytest.raises(ValidationError, match=r"\(fiber-length / fiber-grid\)\^2"):
            parse_scenario("kind: twisted\ngrid: 8\nfiber-length: 5e-8\ndt: 1\nT: 1\n")
        # reeb's interval [-1, 1]: h = 2 / 16, so 4 dt / h^2 = 256 dt
        parse_scenario("kind: reeb\ngrid: 16\ndt: 1.7e13\nT: 1.7e13\n")
        with pytest.raises(ValidationError, match=r"\(2 / grid\)\^2 = 2.56e\+16 exceeds"):
            parse_scenario("kind: reeb\ngrid: 16\ndt: 1e14\nT: 1e14\n")


# Scenario entries that parse, one per kind whose numeric keys are fuzzed below.
_BASES = {
    # the exact-quasilinear problem, the one scenario that reads check-tolerance
    "pde-reference": {"kind": "pde-reference"},
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


class TestStepBound:
    # parsing only: a scenario past the bound is never run
    def test_more_steps_than_the_bound_rejected(self):
        with pytest.raises(ValidationError, match=f"bound of {MAX_STEPS:,}"):
            parse_scenario("kind: pde-reference\ngrid: 64\ndt: 1e-12\nT: 1e-3\n")

    def test_the_bound_itself_accepted(self):
        scn = parse_scenario(f"kind: pde-reference\ngrid: 64\ndt: 1e-3\nT: {MAX_STEPS // 1000}\n")
        assert round(scn.T / scn.dt) == MAX_STEPS


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


def _assert_same_lines(text: str, expected: str) -> None:
    """text == expected, reporting the first differing line rather than a
    diff of two large texts."""
    lines, want = text.split("\n"), expected.split("\n")
    first = next((i for i, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]), None)
    assert first is None, (first, lines[first], want[first])
    assert len(lines) == len(want)


def _percent_trajectory(result: RunResult) -> str:
    """trajectory.csv by the writer that format_17g replaced: the rows of a
    block of whole snapshots as one format string, filled by ``%`` with
    "%.17g" per value."""
    nodes = itertools.product(*(["%.17g" % v for v in a.tolist()] for a in result.axes.values()))
    row = "," + ",".join(["%.17g"] * len(result.fields)) + "\n"
    pieces = ["", *("," + ",".join(node) + row for node in nodes)]
    times = ["%.17g" % t for t in result.times.tolist()]
    per_block = max(1, _BLOCK_ROWS // (len(pieces) - 1))
    parts = [",".join(result.trajectory_header) + "\n"]
    for start in range(0, len(times), per_block):
        part = slice(start, start + per_block)
        values = np.stack([f[part].reshape(len(times[part]), -1)
                           for f in result.fields.values()], axis=-1)
        parts.append("".join([t.join(pieces) for t in times[part]])
                     % tuple(values.ravel().tolist()))
    return "".join(parts)


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

    @pytest.mark.parametrize("snapshots, sizes", [
        (1, (8,)), (5, (3,)), (4, (_BLOCK_ROWS + 1,)), (9, (16, 300)), (3, (7, 5)),
    ])
    def test_trajectory_is_the_whole_run_table(self, tmp_path, snapshots, sizes):
        # blocks of whole snapshots lay out the table that one meshgrid over
        # the whole run gives, row for row
        rng = np.random.default_rng(len(sizes) + snapshots)
        times = np.sort(rng.random(snapshots))
        axes = {name: rng.standard_normal(n) for name, n in zip("xy", sizes)}
        fields = {"u": rng.standard_normal((snapshots, *sizes)),
                  "v": rng.standard_normal((snapshots, *sizes))}
        res = RunResult(None, [], times, axes, fields, ["t"], [], {})
        write_artifacts(res, tmp_path)
        grids = np.meshgrid(times, *axes.values(), indexing="ij")
        table = np.stack([g.ravel() for g in grids] + [f.ravel() for f in fields.values()], 1)
        text = (tmp_path / "trajectory.csv").read_text()
        _assert_same_lines(text, _reference_csv(["t", *axes, "u", "v"], table))
        assert len(res.trajectory_rows) == table.shape[0]
        assert res.trajectory_header == ["t", *axes, "u", "v"]

    @pytest.mark.parametrize("text", [
        EXACT,
        "kind: twisted\ngrid: 16\ndt: 0.01\nT: 1.0\nscheme: crank-nicolson\nn: 2\n"
        "base-grid: 5\nfiber-grid: 16\n",
    ], ids=["one-axis", "two-axis-twisted"])
    def test_trajectory_text_is_the_meshgrid_layout(self, tmp_path, text):
        res = run_scenario(parse_scenario(text))
        write_artifacts(res, tmp_path)
        # the layout the writer replaced: per block of whole snapshots, a
        # meshgrid of the times and the node axes, every cell "%.17g"
        axes = list(res.axes.values())
        per_block = max(1, _BLOCK_ROWS // math.prod(a.size for a in axes))
        parts = [",".join(res.trajectory_header) + "\n"]
        for start in range(0, res.times.size, per_block):
            part = slice(start, start + per_block)
            grids = np.meshgrid(res.times[part], *axes, indexing="ij")
            block = np.stack([g.ravel() for g in grids]
                             + [f[part].ravel() for f in res.fields.values()], axis=1)
            line = ",".join(["%.17g"] * block.shape[1]) + "\n"
            parts.append((line * block.shape[0]) % tuple(block.ravel().tolist()))
        assert len(parts) > 2  # more than one block
        _assert_same_lines((tmp_path / "trajectory.csv").read_text(), "".join(parts))

    def test_mixed_rows_keep_blank_and_text_fields(self):
        rows = [["128", np.float64(-0.0), "", math.nan, "pass"], ["x", 0.5, 2e-5, 1.0, "fail"]]
        text = _table_text(["grid", "a", "b", "c", "verdict"], rows)
        assert text == "grid,a,b,c,verdict\n128,-0,,nan,pass\nx,0.5,2.0000000000000002e-05,1,fail\n"


def _kernel_lines(values) -> str:
    """format_17g's texts of ``values``, one per line."""
    text = format_17g(np.asarray(values, dtype=float))
    lines = np.concatenate((text, np.full((len(text), 1), ord("\n"), dtype=np.uint8)), axis=1)
    return lines[lines != 0].tobytes().decode()


def _assert_formats_as_percent(values) -> None:
    values = np.asarray(values, dtype=float)
    # the kernel runs under the CLI's floating-point policy, underflow included
    with np.errstate(all="raise"):
        text = _kernel_lines(values)
    expected = ("%.17g\n" * values.size) % tuple(values.tolist())
    if text != expected:
        _assert_same_lines(text, expected)


def _ulps(values, count: int) -> np.ndarray:
    """``values`` and their neighbours up to ``count`` ulps away, both signs."""
    out, up, down = [values], values, values
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    out = np.concatenate(out)
    return np.concatenate((out, -out))


class TestFormat17g:
    """format_17g against "%.17g" itself, value by value."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS)
                    | st.floats(1e-11, 2e14) | st.floats(-2e14, -1e-11), min_size=1, max_size=40))
    def test_drawn_floats(self, values):
        _assert_formats_as_percent(values)

    def test_random_bit_patterns(self):
        # 10^6 words, all but the last 20,000 with a binary exponent drawn from
        # the fast range and one binade past each end; those have every bit
        # random, so most fall outside it
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64)
        biased = [math.frexp(v)[1] + 1022 for v in (1e-10, 1e14)]
        exponent = rng.integers(biased[0] - 1, biased[1] + 2, 980_000, dtype=np.uint64)
        bits[:980_000] = (bits[:980_000] & ~np.uint64(0x7FF << 52)) | (exponent << 52)
        for chunk in np.split(bits.view(np.float64), 10):  # blocks, as the writer passes
            _assert_formats_as_percent(chunk)

    def test_half_way_ties_round_to_even(self):
        # 1 + j 2^-17 (odd j) has 18 significant digits, the last a 5: every
        # odd j at scale 1, then 512 of them at each power of two of the range
        j = np.arange(1, 2**17, 2)
        ties = 1.0 + j * 2.0**-17
        scaled = [np.ldexp(ties[::128], s) for s in range(-34, 48)]
        # exact ties c 2^(k-17) (odd c) at each exponent k that has them:
        # c 5^(16-k) = 2N + 1 with 10^16 <= N < 10^17
        rng = np.random.default_rng(17)
        exact = []
        for k in range(-8, 14):
            low, high = -(-2 * 10**16 // 5 ** (16 - k)), 2 * 10**17 // 5 ** (16 - k)
            c = np.unique(rng.integers(low, high, 300) | 1)
            exact.append(np.ldexp(c.astype(float), k - 17))
        exact = np.concatenate(exact)
        assert np.all(np.ldexp(exact, 0) == exact)  # c < 2^53: exact doubles
        _assert_formats_as_percent(np.concatenate([ties, *scaled, _ulps(exact, 1)]))

    def test_powers_of_ten_and_range_edges(self):
        # log10 rounds across 10^k near every power of ten; 1e-10 and 1e14 end
        # the fast range
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        _assert_formats_as_percent(_ulps(powers, 2))
        _assert_formats_as_percent(_ulps(np.array([1e-10, 1e14]), 4))

    def test_zeros_subnormals_and_non_finite(self):
        rng = np.random.default_rng(19)
        subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
        _assert_formats_as_percent([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                                    5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                                    1.7976931348623157e308, *subnormals, *-subnormals])

    def test_texts_fill_their_row_then_nul(self):
        text = format_17g(np.array([-2.2250738585072014e-308, 1.0, -0.000123456789]))
        assert text.shape == (3, WIDTH) and text.dtype == np.uint8
        assert [bytes(row) for row in text] == [
            b"-2.2250738585072014e-308", b"1" + b"\0" * 23,
            b"-0.000123456789".ljust(WIDTH, b"\0")]

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.egf")), ids=lambda p: p.stem)
    def test_bundled_trajectory_equals_the_percent_writer(self, tmp_path, path):
        res = run_scenario(load_scenario(str(path)))
        write_artifacts(res, tmp_path)
        _assert_same_lines((tmp_path / "trajectory.csv").read_text(), _percent_trajectory(res))


# Each kind's optional keys written with their defaults: (the head of a file
# that omits them, the lines that write them after the common ones).
_COMMON_DEFAULTS = "grid: 256\nscheme: implicit-euler\nsave-every: 0\n"
_LENGTH = "length: 6.283185307179586\n"
_INIT = "init: cos\ninit-amplitude: 1\ninit-frequency: 1\ninit-offset: 0\ninit-width: 0.1\n"
_DEFAULTS = {
    "exact-quasilinear": ("kind: pde-reference\n",
                          "problem: exact-quasilinear\n" + _LENGTH + "check-tolerance: 2e-4\n"),
    "circle-heat-decay": ("kind: pde-reference\nproblem: circle-heat-decay\n", _LENGTH + _INIT),
    "tau-heat": ("kind: tau-heat\n", _LENGTH + _INIT),
    "umbilical": ("kind: umbilical\n", _LENGTH + _INIT + "psi: linear\npsi-slope: 2\n"),
    "twisted": ("kind: twisted\n", "base-grid: 16\nfiber-grid: 256\nn: 1\n"
                "profile: one-plus-x-squared\nfiber-length: 6.283185307179586\n"),
    "prescribed-F": ("kind: prescribed-F\n", _LENGTH + _INIT + _INIT.replace("init", "target")
                     .replace("cos", "zero") + "n: 1\n"),
    "ftau": ("kind: ftau\nspectrum: 0.4,1.0\n", _LENGTH + _INIT + "f: scaled-tau1\nn: 2\n"),
    "reeb": ("kind: reeb\n", "method: x-space\n"),
}


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

    def test_umbilical_volume_does_not_depend_on_the_snapshot_cadence(self):
        # the volume is read off the conformal factor that the march integrates
        # every step: every cadence gives the same bits at the times it keeps
        base = load_scenario(SCENARIO_DIR / "umbilical.egf")
        columns = []
        for every in (1, 2, 3, 25):
            res = run_scenario(parse_entries({**base.entries, "save-every": str(every)}))
            vols = np.array([row[res.summary_header.index("volume")] for row in res.summary_rows])
            assert np.all(np.diff(vols) <= 0.0)
            columns.append(dict(zip(np.round(res.times / base.dt).astype(int).tolist(), vols)))
        shared = sorted(set.intersection(*(set(c) for c in columns)))
        assert shared == [0, 150, 300, 450, 500]
        first = np.array([columns[0][k] for k in shared])
        for column in columns[1:]:
            assert np.array([column[k] for k in shared]).tobytes() == first.tobytes()

    def test_prescribed_conformal_factor_does_not_depend_on_the_snapshot_cadence(self):
        # the march takes the conformal factor in closed form at each kept step:
        # every cadence gives the same bits at the times it keeps
        base = load_scenario(SCENARIO_DIR / "prescribed-F.egf")
        columns = []
        for every in (1, 2, 3, 25):
            res = run_scenario(parse_entries({**base.entries, "save-every": str(every)}))
            steps = np.round(res.times / base.dt).astype(int).tolist()
            columns.append(dict(zip(steps, res.fields["conf"])))
        shared = sorted(set.intersection(*(set(c) for c in columns)))
        assert shared == [*range(0, 5000, 150), 5000]
        first = np.array([columns[0][k] for k in shared])
        assert np.max(np.abs(first[-1])) > 1.0  # the factor is far from its zero start
        for column in columns[1:]:
            assert np.array([column[k] for k in shared]).tobytes() == first.tobytes()

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

    @pytest.mark.parametrize("head, written", _DEFAULTS.values(), ids=list(_DEFAULTS))
    def test_omitted_keys_run_as_their_written_defaults(self, tmp_path, head, written):
        omitted = parse_scenario(head + "dt: 0.01\nT: 0.05\n")
        explicit = parse_scenario(head + "dt: 0.01\nT: 0.05\n" + _COMMON_DEFAULTS + written)
        # the written file names every key that the run reads
        for key in allowed_keys(explicit.kind) - set(explicit.entries):
            with pytest.raises(ValidationError, match="have no effect"):
                parse_entries({**explicit.entries, key: "1"})
        write_artifacts(run_scenario(omitted), tmp_path / "omitted")
        write_artifacts(run_scenario(explicit), tmp_path / "explicit")
        for name in ("trajectory.csv", "summary.csv", "verdict.txt"):
            assert (tmp_path / "omitted" / name).read_bytes() == \
                (tmp_path / "explicit" / name).read_bytes()

    def test_byte_identical_artifacts(self, tmp_path):
        scn = parse_scenario(HEAT)
        res1 = run_scenario(scn)
        res2 = run_scenario(scn)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_artifacts(res1, str(d1))
        write_artifacts(res2, str(d2))
        for name in ("trajectory.csv", "summary.csv", "verdict.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# A run's peak memory is the fields it returns and one block of the march or
# of its post-processing: each bundled file, and each kind at a size where
# the fields dwarf a block (Reeb keeping every step)
_LARGE = {"grid": "4096", "T": "0.1"}
_MEMORY_CASES = {
    **{name: (name, {}) for name in ("exact-quasilinear", "heat-decay", "prescribed-F",
                                     "umbilical", "ftau", "twisted", "reeb")},
    **{f"{name}-4096": (name, _LARGE) for name in ("exact-quasilinear", "heat-decay",
                                                    "prescribed-F", "umbilical", "ftau")},
    "tau-heat-4096": (None, {"kind": "tau-heat", "dt": "0.001", "init": "cos", **_LARGE}),
    "twisted-64x512": ("twisted", {"base-grid": "64", "fiber-grid": "512", "T": "0.1"}),
    "reeb-4096-every-step": ("reeb", {"grid": "4096", "dt": "0.0001", "T": "0.01",
                                      "save-every": "1"}),
}


class TestRunMemory:
    @pytest.mark.parametrize("name, entries", _MEMORY_CASES.values(), ids=list(_MEMORY_CASES))
    def test_peak_is_the_returned_fields_and_one_block(self, name, entries):
        base = {} if name is None else load_scenario(SCENARIO_DIR / f"{name}.egf").entries
        scn = parse_entries({**base, **entries})
        tracemalloc.start()
        try:
            res = run_scenario(scn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fields = sum(field.nbytes for field in res.fields.values())
        assert peak <= 1.25 * fields + 2**20, f"peak {peak} B for {fields} B of fields"


UMBILICAL = """
kind: umbilical
grid: 256
dt: 0.001
T: 0.5
init: cos
init-amplitude: {amp}
psi: linear
psi-slope: 2
"""


class TestObservedChecks:
    """Verdict checks that report an observed value, not a constant."""

    @pytest.mark.parametrize("amp", [0.1, 0.3, 0.5])
    def test_umbilical_conformal_identity_holds(self, amp):
        res = run_scenario(parse_scenario(UMBILICAL.format(amp=amp)))
        check = next(c for c in res.checks if c.name == "conformal-factor-identity")
        assert check.passed, check.detail
        # measured 2.75e-4 sup |lambda_0| at grid 256, dt 1e-3, implicit Euler
        observed = float(check.detail.split()[-3])
        assert observed == pytest.approx(2.75e-4 * amp, rel=1e-2)

    def test_umbilical_conformal_identity_fails_with_flipped_sign(self, monkeypatch):
        from egf import flows

        evolve = flows.evolve_umbilical

        def flipped(*args, **kwargs):
            times, lam, conf = evolve(*args, **kwargs)
            return times, lam, -conf

        monkeypatch.setattr(flows, "evolve_umbilical", flipped)
        res = run_scenario(parse_scenario(UMBILICAL.format(amp=0.3)))
        assert not next(c for c in res.checks if c.name == "conformal-factor-identity").passed

    @pytest.mark.parametrize("f, a_min", [
        ("scaled-tau1", "1"),  # the propagator's constant a
        ("scaled-tau2", "1.20048"),  # (2/n) min tau_1 on the faces
    ])
    def test_ftau_parabolicity_reports_the_coefficient(self, f, a_min):
        # a run that returns has kept a > 0 (the flow raises otherwise): the
        # least a is a metric, not a check
        res = run_scenario(parse_scenario(
            f"kind: ftau\ngrid: 64\ndt: 0.005\nT: 0.1\nf: {f}\nspectrum: 0.4,1.0\n"
            "init: cos\ninit-amplitude: 0.2\ninit-offset: 1.4\n"
        ))
        assert f"{res.metrics['a_min']:.6g}" == a_min
        assert [c.name for c in res.checks] == ["mass-conservation"]


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

    def test_short_fiber_grid_exit_3_names_the_key(self, tmp_path, capsys):
        path = self._write(tmp_path, "kind: twisted\ngrid: 64\ndt: 0.01\nT: 0.1\nfiber-grid: 7\n")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "fiber-grid must be at least 8" in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("text, param", [
        ("kind: twisted\ngrid: 16\ndt: 0.01\nT: 0.1\n", "length"),
        (HEAT, "check-tolerance"),
    ], ids=["twisted-length", "heat-check-tolerance"])
    def test_sweep_over_an_ignored_key_exits_3(self, tmp_path, text, param):
        path = tmp_path / "scn.egf"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--param", param, "--values", "1.0,2.0",
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_value_list_may_begin_with_a_minus(self, tmp_path):
        path = tmp_path / "scn.egf"
        path.write_text(HEAT)
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--param", "init-amplitude", "--values", "-1,2",
                     "--out", str(out)]) == 0
        assert (out / "init-amplitude=-1" / "verdict.txt").exists()

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


def _sweep(tmp_path, name, values="0.5,1.0,1.5"):
    """``egf sweep`` of HEAT over T; returns (exit code, out dir)."""
    path = tmp_path / "scn.egf"
    path.write_text(HEAT)
    out = tmp_path / name
    return main(["sweep", str(path), "--param", "T", "--values", values, "--out", str(out)]), out


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _cpus(monkeypatch, count):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(count)))


class TestSweepWorkers:
    """The points of a sweep run in forked worker processes, with the outputs
    and the failures of a run of the points one after the other."""

    def test_worker_processes_write_the_serial_bytes(self, tmp_path, monkeypatch):
        pids = tmp_path / "pids"
        real = run_scenario

        def logged(scn):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(scn)

        monkeypatch.setattr("egf.runner.run_scenario", logged)
        _cpus(monkeypatch, 3)
        assert _sweep(tmp_path, "pool")[0] == 0
        workers = pids.read_text().split()
        assert len(workers) == 3 and str(os.getpid()) not in workers
        assert multiprocessing.active_children() == []
        _cpus(monkeypatch, 1)
        assert _sweep(tmp_path, "serial")[0] == 0
        assert pids.read_text().split()[3:] == [str(os.getpid())] * 3
        pool, serial = _tree(tmp_path / "pool"), _tree(tmp_path / "serial")
        assert len(pool) == 10 and pool == serial

    @pytest.mark.parametrize("error, code, label", [
        (SolverError("non-finite iterate at step 7"), 4, "solver failure"),
        (ValidationError("no such field"), 3, "invalid scenario"),
        (MemoryError("unable to allocate the grid"), 4, "out of memory"),
    ], ids=["solver", "validation", "memory"])
    def test_failing_point_exits_as_the_serial_sweep(self, tmp_path, monkeypatch, capsys,
                                                     error, code, label):
        real = run_scenario

        def failing(scn):
            if scn.T == 1.0:
                raise error
            return real(scn)

        monkeypatch.setattr("egf.runner.run_scenario", failing)
        outcomes = []
        for cpus in (3, 1):
            _cpus(monkeypatch, cpus)
            outcomes.append((_sweep(tmp_path, f"cpus{cpus}")[0], capsys.readouterr().err))
            assert multiprocessing.active_children() == []
        assert outcomes[0] == outcomes[1] == (code, f"egf: {label}: {error}\n")

    def test_first_failure_in_value_order_is_raised(self, tmp_path, monkeypatch):
        # the second point fails at once, the first only after it
        real = run_scenario

        def failing(scn):
            if scn.T == 0.5:
                time.sleep(0.5)
                raise SolverError("first point")
            if scn.T == 1.0:
                raise SolverError("second point")
            return real(scn)

        monkeypatch.setattr("egf.runner.run_scenario", failing)
        _cpus(monkeypatch, 3)
        with pytest.raises(SolverError, match="^first point$"):
            sweep_values(parse_scenario(HEAT), "T", ["0.5", "1.0", "1.5"], str(tmp_path / "o"))
        assert multiprocessing.active_children() == []

    def test_failure_cancels_pending_points(self, tmp_path, monkeypatch):
        started = tmp_path / "started"
        real = run_scenario

        def failing(scn):
            with open(started, "a", encoding="utf-8") as fh:
                fh.write(f"{scn.T}\n")
            if scn.T == 0.5:
                raise SolverError("first point")
            time.sleep(0.2)
            return real(scn)

        monkeypatch.setattr("egf.runner.run_scenario", failing)
        _cpus(monkeypatch, 2)
        values = [f"{k / 2}" for k in range(1, 13)]
        code, out = _sweep(tmp_path, "out", ",".join(values))
        assert code == 4
        assert multiprocessing.active_children() == []
        assert len(started.read_text().split()) < len(values)
        assert not (out / "sweep.csv").exists()

    def test_dead_worker_exits_4(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        real = run_scenario

        def killed(scn):
            if scn.T == 1.0 and os.getpid() != parent:  # as by the OOM killer
                os.kill(os.getpid(), signal.SIGKILL)
            return real(scn)

        monkeypatch.setattr("egf.runner.run_scenario", killed)
        _cpus(monkeypatch, 3)
        assert _sweep(tmp_path, "out")[0] == 4
        err = capsys.readouterr().err
        assert err.startswith("egf: worker process lost: ") and err.count("\n") == 1
        assert multiprocessing.active_children() == []


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
        ("run-no-file", 2),
        ("sweep-no-values", 2),
        ("no-command", 2),
        ("unknown-command", 2),
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
            "run-no-file": ["run"],
            "sweep-no-values": ["sweep", str(scn), "--param", "T"],
            "no-command": [],
            "unknown-command": ["bogus"],
        }[case]
        (tmp_path / "bad.egf").write_bytes(b"kind: tau-heat\n\xff\xfe\n")
        if case == "memory":
            monkeypatch.setattr("egf.runner.run_scenario", self._out_of_memory)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("egf: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_help_exits_0(self):
        with pytest.raises(SystemExit, match="^0$"):
            main(["--help"])

    def test_long_exact_horizon_writes_no_warning(self, tmp_path, capsys):
        # the exact family past t = 355, where e^(2t) overflows
        path = tmp_path / "scn.egf"
        path.write_text("kind: pde-reference\ngrid: 64\ndt: 1\nT: 400\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text", [
        # the propagator's FFT of an amplitude at the largest double overflows
        "kind: prescribed-F\ngrid: 64\ndt: 0.01\nT: 2\ninit-amplitude: 1.7976931348623157e308\n",
    ], ids=["prescribed-amplitude-overflow"])
    def test_floating_point_error_exits_4(self, tmp_path, capsys, text):
        # one floating-point policy at the CLI boundary: the first overflow,
        # invalid operation or division by zero ends the command
        path = tmp_path / "scn.egf"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("egf: floating-point error: overflow") and err.count("\n") == 1
        kind = text.split("\n", 1)[0].removeprefix("kind: ")
        assert err.endswith(f" (kind {kind}, outside a step)\n")

    def test_python_arithmetic_error_exits_4(self, tmp_path, capsys, monkeypatch):
        # Python's own float arithmetic raises OverflowError, not
        # numpy's FloatingPointError; it takes the same exit and line
        def overflow(scn):
            return 10.0 ** 400

        monkeypatch.setitem(_RUNNERS, "tau-heat", overflow)
        path = tmp_path / "scn.egf"
        path.write_text("kind: tau-heat\ngrid: 64\ndt: 0.01\nT: 0.1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("egf: floating-point error: ") and err.count("\n") == 1
        assert err.endswith(" (kind tau-heat, outside a step)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spectrum", [
        # Python float power overflows in peel_phi: t1**k, t1 = 286, at k = 126
        ",".join(["2.0"] * 143),
        # numpy's power overflows in the power sums
        "1e300,-5,-1e300",
        "1e200,1e200",
    ], ids=["ftau-143-equal-curvatures", "ftau-power-sum-overflow", "ftau-square-overflow"])
    def test_spectrum_overflow_exits_3(self, tmp_path, capsys, spectrum):
        # an overflow of the structure constants is a property of the input:
        # the run rejects the spectrum before its first step, under the CLI's
        # floating-point policy and outside it
        text = f"kind: ftau\ngrid: 64\ndt: 0.01\nT: 0.1\nf: scaled-tau1\nspectrum: {spectrum}\n"
        path = tmp_path / "scn.egf"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
            with pytest.raises(ValidationError, match="^spectrum overflows"):
                run_scenario(parse_scenario(text))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("egf: invalid scenario: spectrum overflows") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_spectrum_whose_phi_reaches_inf_exits_3(self, tmp_path, capsys, monkeypatch):
        # a Python float product overflows to inf without raising: phi, which
        # F_k reads, is checked finite as well
        monkeypatch.setattr("egf.runner.f_recursion_constants", lambda tau: (math.inf,))
        path = tmp_path / "scn.egf"
        path.write_text("kind: ftau\ngrid: 64\ndt: 0.01\nT: 0.1\nspectrum: 0.5,1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("egf: invalid scenario: spectrum overflows")

    def test_ftau_run_builds_no_psi(self, monkeypatch):
        # an ftau run reads phi only: the Psi_k constants, whose peeling can
        # reach inf for a spectrum whose phi stays finite, are never built
        scn = load_scenario(SCENARIO_DIR / "ftau.egf")
        expected = run_scenario(scn)

        def unread(*args):
            raise AssertionError("peel_psi called by an ftau run")

        monkeypatch.setattr("egf.symfun.peel_psi", unread)
        res = run_scenario(scn)
        assert res.times.tobytes() == expected.times.tobytes()
        assert list(res.fields) == list(expected.fields)
        for name, values in expected.fields.items():
            assert res.fields[name].tobytes() == values.tobytes()

    @pytest.mark.parametrize("count, code", [(143, 0), (144, 3)])
    def test_spectrum_longer_than_the_recursion_takes_exits_3(self, tmp_path, capsys, count,
                                                              code):
        # F_k and phi_k divide by n ** (k - 1) for k up to n, a float up to n = 143
        assert MAX_SPECTRUM == 143
        path = tmp_path / "scn.egf"
        path.write_text("kind: ftau\ngrid: 64\ndt: 0.01\nT: 0.1\nspectrum: "
                        + ",".join(["0.1"] * count) + "\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("egf: invalid scenario: spectrum has 144 values")
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()
        else:
            assert err == "" and (tmp_path / "out" / "trajectory.csv").exists()

    def test_error_in_a_step_names_kind_step_and_t(self, tmp_path, capsys):
        path = tmp_path / "scn.egf"
        path.write_text("kind: ftau\ngrid: 64\ndt: 0.01\nT: 1\nf: scaled-tau2\n"
                        "spectrum: 1e100,1\ninit-amplitude: 1e100\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("egf: solver failure: parabolicity coefficient reached min a = ")
        assert err.endswith(" during conformal flow at step 1 (t = 0.01) (kind ftau)\n")
        assert err.count("\n") == 1

    def test_small_reeb_grid_writes_no_warning(self, tmp_path, capsys):
        # on grids 16-38 the slope fit's window |x| <= 0.05 held x = 0 alone
        path = tmp_path / "scn.egf"
        path.write_text("kind: reeb\ngrid: 16\ndt: 0.001\nT: 0.01\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) in (0, 1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("grid", [16, 18, 20])
    def test_small_reeb_grid_reports_K_beside_the_centre(self, grid):
        # no node lies in (0, 0.1] (at grid 20 the node 0.1 rounds above it):
        # each side's K range is the value at the node next to x = 0
        res = run_scenario(parse_scenario(f"kind: reeb\ngrid: {grid}\ndt: 0.001\nT: 0.01\n"))
        geom = reeb_setup(n_grid=grid)
        U = res.fields["U"][-1]
        _, _, g22, det = reconstruct_metric(U, geom)
        K = gaussian_curvature(U, g22, det, geom.h)
        i0, m = grid // 2, res.metrics
        assert m["K_left_min"] == m["K_left_max"] == K[i0 - 1]
        assert m["K_right_min"] == m["K_right_max"] == K[i0 + 1]

    @pytest.mark.parametrize("text", [
        # grad of f = (2/n) tau_2 needs n >= 2
        "kind: ftau\ngrid: 64\ndt: 0.01\nT: 0.1\nf: scaled-tau2\nspectrum: 0.5\n",
        "kind: pde-reference\ngrid: 64\ndt: 0.01\nT: 0.1\nsave-every: -3\n",
        # an odd interval count puts x = 0 off the grid
        "kind: reeb\ngrid: 2047\ndt: 0.0001\nT: 0.001\n",
        # h^2 underflows: the stencils would divide by zero
        "kind: pde-reference\ngrid: 64\ndt: 0.01\nT: 0.1\nlength: 1e-300\n",
        "kind: twisted\ngrid: 64\ndt: 0.01\nT: 0.1\nfiber-length: 1e-300\n",
        # dt^2 underflows: the decay fit's least squares would fail
        "kind: pde-reference\nproblem: circle-heat-decay\ngrid: 64\ndt: 1e-300\nT: 1e-297\n",
        # dt / h^2 overflows, both squares normal: the steps would divide inf by inf
        "kind: pde-reference\ngrid: 8\nlength: 1e-150\ndt: 1e10\nT: 1e10\n",
        "kind: pde-reference\nproblem: circle-heat-decay\ngrid: 8\nlength: 1e-150\n"
        "dt: 1e10\nT: 1e10\n",
        "kind: twisted\ngrid: 8\nfiber-length: 1e-150\ndt: 1e10\nT: 1e10\n",
        # 4 dt / h^2 above 1 / eps: the theta step's matrix is singular
        "kind: pde-reference\ngrid: 8\nlength: 1e-100\ndt: 1\nT: 1\n",
        "kind: pde-reference\ngrid: 8\nlength: 5e-8\ndt: 1\nT: 1\n",
        "kind: twisted\ngrid: 8\nfiber-length: 5e-8\ndt: 1\nT: 1\n",
        "kind: reeb\ngrid: 16\ndt: 1e14\nT: 1e14\n",
        # h^2 or dt^2 overflows: the propagator's float h**2 raises
        # OverflowError, and the decay fit of squared step times gives nan
        "kind: prescribed-F\ngrid: 64\ndt: 0.01\nT: 2\nlength: 1e300\n",
        "kind: pde-reference\nproblem: circle-heat-decay\ngrid: 8\nlength: 1e150\n"
        "dt: 1e160\nT: 1e160\n",
        # the Reeb metric's determinant is not positive: its square root would be nan
        "kind: reeb\ngrid: 64\ndt: 100\nT: 100\n",
        # the volume density e^(-integral of lambda_0) would overflow
        "kind: umbilical\ngrid: 64\ndt: 0.01\nT: 0.1\ninit: cos\nlength: 1e100\n",
        # a gaussian bump divides by its width squared
        "kind: tau-heat\ngrid: 64\ndt: 0.01\nT: 0.1\ninit: gaussian-bump\n"
        "init-width: 1.3407807929942597e+154\n",
        "kind: prescribed-F\ngrid: 64\ndt: 0.01\nT: 0.1\ntarget-width: 1e-200\n",
        # keys the run would not read
        "kind: twisted\ngrid: 16\ndt: 0.01\nT: 0.1\nlength: 3.0\n",
        "kind: reeb\ngrid: 64\ndt: 0.001\nT: 0.01\nlength: 3.0\n",
        "kind: pde-reference\nproblem: circle-heat-decay\ngrid: 64\ndt: 0.01\nT: 0.1\n"
        "check-tolerance: 1e-30\n",
        "kind: tau-heat\ngrid: 64\ndt: 0.01\nT: 0.1\ncheck-tolerance: 1e-30\n",
        "kind: pde-reference\nproblem: exact-quasilinear\ngrid: 64\ndt: 0.01\nT: 0.1\n"
        "init: square-wave\n",
        "kind: pde-reference\ngrid: 64\ndt: 0.01\nT: 0.1\ninit-amplitude: 2\n",
        # field suffixes on keys that are not fields
        "kind: twisted\ngrid: 16\ndt: 0.01\nT: 0.1\nn-offset: 1\n",
        "kind: umbilical\ngrid: 16\ndt: 0.01\nT: 0.1\npsi-amplitude: 1\n",
        "kind: reeb\ngrid: 16\ndt: 0.01\nT: 0.1\nmethod-frequency: 1\n",
        # the arclength heat kernel is a test oracle, not a route a run takes
        "kind: reeb\ngrid: 16\ndt: 0.01\nT: 0.1\nmethod: arclength-kernel\n",
        "kind: pde-reference\ngrid: 16\ndt: 0.01\nT: 0.1\nproblem-width: 1\n",
        "kind: ftau\ngrid: 16\ndt: 0.01\nT: 0.1\nspectrum: 1\nf-width: 1\n",
    ], ids=["scaled-tau2-one-value", "negative-save-every", "odd-reeb-grid",
            "length-underflow", "fiber-length-underflow", "dt-underflow",
            "diffusion-number-overflow", "diffusion-number-overflow-heat",
            "fiber-diffusion-number-overflow", "diffusion-number-above-inverse-eps",
            "singular-theta-step", "fiber-singular-theta-step", "reeb-singular-theta-step",
            "length-overflow", "dt-overflow", "reeb-determinant", "umbilical-volume-overflow",
            "width-square-overflow", "width-square-underflow",
            "twisted-length", "reeb-length",
            "heat-check-tolerance", "tau-heat-check-tolerance", "exact-init",
            "exact-init-amplitude", "twisted-n-offset", "umbilical-psi-amplitude",
            "reeb-method-frequency", "reeb-arclength-kernel", "pde-reference-problem-width",
            "ftau-f-width"])
    def test_rejected_scenario_exits_3(self, tmp_path, capsys, text):
        path = tmp_path / "scn.egf"
        path.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("egf: invalid scenario: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()
        if "method: " in text:
            assert "choose from ('x-space',)" in err


# Tokens of real keys: both signs of magnitudes from the least subnormal to the
# largest double, most of them moderate, and now and then text that is no
# finite number.  One draw in ten of each key is a token its reader rejects.
_EXTREME = (st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 1e-150, 1e-8, 1e8, 1e150,
                             1e300, 1.7976931348623157e308])
            | st.floats(5e-324, 1.7976931348623157e308))
_MODERATE = st.sampled_from([0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 10.0])
_MAGNITUDE = st.one_of(_MODERATE, _MODERATE, _MODERATE, _EXTREME)
_REAL = st.builds(lambda m, sign: repr(sign * m), _MAGNITUDE, st.sampled_from([1.0, 1.0, -1.0]))
_NOT_A_NUMBER = st.sampled_from(["nan", "-inf", "1e999", "abc", "0x10"])
_NAMES = {"scheme": ["implicit-euler", "crank-nicolson"],
          "init": list(FIELD_FORMS), "target": list(FIELD_FORMS),
          "f": ["scaled-tau1", "scaled-tau2"], "profile": ["one-plus-x-squared", "constant"],
          "problem": ["exact-quasilinear", "circle-heat-decay"], "psi": ["linear"],
          "method": ["x-space"]}
# at most this many time steps (the test's step cap) and nodes per axis keep
# a drawn run short
_MAX_DRAWN_STEPS = 20
_MAX_DRAWN_GRID = 128


_NINE_IN_TEN = st.integers(0, 9).map(lambda i: i != 5)


def _mostly(valid, invalid):
    """``valid`` nine draws in ten, ``invalid`` the tenth."""
    return _NINE_IN_TEN.flatmap(lambda ok: valid if ok else invalid)


def _count(low: int, high: int):
    """Tokens of an integer key: in [low, high], or one its reader rejects."""
    return _mostly(st.integers(low, high).map(str),
                   st.sampled_from([str(low - 1), "-8", "12.5", "1e400"]))


def _token(key: str, dt: float):
    """Tokens for ``key``; T is a whole number of steps of ``dt`` or not."""
    if key == "T":
        steps = st.integers(0, _MAX_DRAWN_STEPS)
        return _mostly(steps.map(lambda k: repr(k * dt)),
                       steps.map(lambda k: repr((k + 0.5) * dt)) | _REAL | _NOT_A_NUMBER)
    if key == "grid":
        return _count(8, _MAX_DRAWN_GRID)
    if key == "fiber-grid":
        return _count(8, _MAX_DRAWN_GRID)
    if key == "base-grid":
        return _count(1, _MAX_DRAWN_GRID)
    if key == "n":
        return _count(1, 5)
    if key == "save-every":
        return _count(0, 2 * _MAX_DRAWN_STEPS)
    if key in _NAMES:
        return _mostly(st.sampled_from(_NAMES[key]), st.just("other"))
    if key == "spectrum":
        return _mostly(st.lists(_REAL, min_size=1, max_size=4).map(",".join), _NOT_A_NUMBER)
    return _mostly(_REAL, _NOT_A_NUMBER)


@st.composite
def _command(draw):
    """A whole scenario text and the ``run`` or ``sweep`` arguments after
    the file name."""
    kind = draw(_mostly(st.sampled_from(KINDS), st.just("other")))
    keys = sorted(allowed_keys(kind if kind in KINDS else "reeb") - {"kind"})
    dt = float(draw(_mostly(_MODERATE.filter(bool).map(repr), _REAL).filter(
        lambda t: float(t) > 0)))
    # the required keys, and grid: its default, 256, is above the drawn sizes
    entries = {"kind": kind, "grid": draw(_token("grid", dt)), "dt": repr(dt),
               "T": draw(_token("T", dt))}
    if kind == "ftau":
        entries["spectrum"] = draw(_token("spectrum", dt))
    optional = [key for key in keys if key not in entries]
    for key in draw(st.lists(st.sampled_from(optional), max_size=6, unique=True)):
        entries[key] = draw(_token(key, dt))
    if draw(_NINE_IN_TEN) and kind in KINDS:
        for key in _ignored_keys(kind, entries):  # keys the run would not read
            del entries[key]
    if not draw(_NINE_IN_TEN):
        del entries[draw(st.sampled_from(["dt", "T"]))]  # a required key left out
    if not draw(_NINE_IN_TEN):
        entries["other-key"] = "1"
    text = "".join(f"{key}: {value}\n" for key, value in entries.items())
    if draw(st.integers(0, 2)):
        return text, ["run"]
    param = draw(st.sampled_from([*keys, "kind"]))
    if param == "dt":
        # a horizon over dt steps of at most the cap, or any dt
        try:
            horizon = float(entries.get("T", "1"))
        except ValueError:  # T is no number: the file will not parse
            horizon = 1.0
        values = _mostly(st.integers(1, _MAX_DRAWN_STEPS).map(lambda k: repr(horizon / k)), _REAL)
    else:
        values = _token(param, dt) if param != "kind" else st.sampled_from(KINDS)
    return text, ["sweep", "--param", param,
                  "--values", ",".join(draw(st.lists(values, min_size=1, max_size=3)))]


class TestWholeFileContract:
    """Every scenario text ends in exit 0-4 with at most one stderr line, no
    traceback and no warning.  Sweep points run in this process (one CPU),
    where their warnings and stderr are seen; a file of more than
    _MAX_DRAWN_STEPS steps is rejected as one of more than MAX_STEPS."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(_command())
    def test_drawn_scenario_keeps_the_exit_code_contract(self, command):
        text, args = command
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scn.egf")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    mock.patch("os.sched_getaffinity", lambda pid: {0}), \
                    mock.patch("egf.scenarios.MAX_STEPS", _MAX_DRAWN_STEPS), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([args[0], path, *args[1:], "--out", os.path.join(tmp, "out")])
        assert code in (0, 1, 2, 3, 4)
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught] == []
