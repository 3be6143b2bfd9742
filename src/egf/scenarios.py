"""Declarative flow scenarios: text format, validation, registries.

A scenario file is a flat list of ``key: value`` lines (``#`` starts a
comment; blank lines ignored).  Keys and closed-form names are chosen
from fixed registries rather than parsed expressions, so identical
files produce identical runs byte for byte.

Every key is declared once, in ``_COMMON_KEYS`` or a kind's entry of
``_KIND_KEYS``: its reader (integer with a lower bound, positive real, real,
one of some names, comma-separated reals) and its default.  Parsing types
every key and fills every default, so a :class:`FlowScenario` holds only
resolved values.

Common keys (default)
---------------------
kind          one of: umbilical, tau-heat, twisted, prescribed-F, ftau,
              reeb, pde-reference
grid          number of spatial nodes (circle kinds) or intervals (reeb,
              even); at least 8 (256)
dt            time step (required)
T             time horizon, a whole number of dt steps (relative slack 1e-9),
              at most MAX_STEPS of them (required)
scheme        implicit-euler or crank-nicolson (implicit-euler)
length        circle circumference (2*pi); not for twisted or reeb
save-every    snapshot cadence in steps, 0 = automatic (0)
check-tolerance
              sup-error bound of the exact-quasilinear problem (2e-4); no
              other scenario takes it

A key that the run would not read is rejected, not ignored (``_ignored_keys``).

Closed-form fields (``init``, default cos; ``target``, default zero) are
selected by name, with parameters ``*-amplitude`` (1), ``*-frequency`` (1),
``*-offset`` (0) and ``*-width`` (0.1):

    zero | constant | cos | sin | square-wave | gaussian-bump
    | exact-quasilinear

Kind-specific keys are documented in the README grammar table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .parabolic import exact_quasilinear_solution

__all__ = ["FlowScenario", "ScenarioParseError", "parse_scenario", "parse_entries",
           "load_scenario", "build_field", "FIELD_FORMS", "KINDS", "MAX_STEPS", "MAX_SPECTRUM"]

# The most time steps T / dt a scenario may ask for: 2,000 times the longest
# bundled run (5,000 steps), and far short of a run that would not end.
MAX_STEPS = 10_000_000

# The longest ftau spectrum: symfun's recursion divides by the integer n ** (k - 1)
# for k up to n, which must convert to a float (143 values on IEEE doubles).
MAX_SPECTRUM = next(n for n in range(1, sys.maxsize) if (n + 1) ** n > sys.float_info.max)

KINDS = (
    "umbilical",
    "tau-heat",
    "twisted",
    "prescribed-F",
    "ftau",
    "reeb",
    "pde-reference",
)

FIELD_FORMS = (
    "zero",
    "constant",
    "cos",
    "sin",
    "square-wave",
    "gaussian-bump",
    "exact-quasilinear",
)


class ScenarioParseError(Exception):
    """Raised on malformed scenario text (not a semantic violation)."""


def _real(key: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError as exc:
        raise ScenarioParseError(f"key {key!r}: not a number: {text!r}") from exc
    if not math.isfinite(val):
        raise ValidationError(f"key {key!r} must be finite, got {text!r}")
    return val


def _positive(key: str, text: str) -> float:
    val = _real(key, text)
    if val <= 0:
        raise ValidationError(f"{key} must be positive")
    return val


def _int(low: int):
    """Reader of an integer of at least ``low``."""
    def read(key: str, text: str) -> int:
        val = _real(key, text)
        if val != int(val):
            raise ValidationError(f"key {key!r} must be an integer")
        if val < low:
            raise ValidationError(f"{key} must be at least {low}")
        return int(val)
    return read


def _names(*names: str):
    """Reader of one of ``names``."""
    def read(key: str, text: str) -> str:
        if text not in names:
            raise ValidationError(f"unknown {key} {text!r}; choose from {names}")
        return text
    return read


def _reals(key: str, text: str) -> tuple:
    return tuple(_real(key, v) for v in text.split(","))


def _field(base: str, form: str) -> dict:
    """The keys of the closed-form field ``base`` (see :func:`build_field`)."""
    return {base: (_names(*FIELD_FORMS), form), base + "-amplitude": (_real, 1.0),
            base + "-frequency": (_real, 1.0), base + "-offset": (_real, 0.0),
            base + "-width": (_positive, 0.1)}


# key -> (reader, default).  A default of None makes the key required; a
# callable default is computed from the values of the keys before it.
_COMMON_KEYS = {
    "grid": (_int(8), 256),
    "dt": (_positive, None),
    "T": (_real, None),
    "scheme": (_names("implicit-euler", "crank-nicolson"), "implicit-euler"),
    "length": (_positive, 2.0 * math.pi),
    "save-every": (_int(0), 0),
    "check-tolerance": (_real, 2e-4),
}

_KIND_KEYS = {
    "umbilical": {**_field("init", "cos"), "psi": (_names("linear"), "linear"),
                  "psi-slope": (_positive, 2.0)},
    "tau-heat": _field("init", "cos"),
    "twisted": {"base-grid": (_int(1), 16), "fiber-grid": (_int(8), lambda v: v["grid"]),
                "n": (_int(1), 1),
                "profile": (_names("one-plus-x-squared", "constant"), "one-plus-x-squared"),
                "fiber-length": (_positive, 2.0 * math.pi)},
    "prescribed-F": {**_field("init", "cos"), **_field("target", "zero"), "n": (_int(1), 1)},
    "ftau": {**_field("init", "cos"), "f": (_names("scaled-tau1", "scaled-tau2"), "scaled-tau1"),
             "spectrum": (_reals, None), "n": (_int(1), lambda v: len(v["spectrum"]))},
    "reeb": {"method": (_names("x-space"), "x-space")},
    "pde-reference": {"problem": (_names("exact-quasilinear", "circle-heat-decay"),
                                  "exact-quasilinear"), **_field("init", "cos")},
}


def allowed_keys(kind: str) -> set[str]:
    """All keys a scenario of this kind may carry."""
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; choose from {KINDS}")
    return {"kind", *_COMMON_KEYS, *_KIND_KEYS[kind]}


@dataclass
class FlowScenario:
    """A parsed, validated scenario ready to run; every key is resolved.

    ``extra``: the kind's keys, typed, defaults filled in; ``entries``: every
    key/value string as parsed, for a sweep to replace one and re-parse.
    """

    kind: str
    grid: int
    dt: float
    T: float
    scheme: str
    length: float
    save_every: int
    check_tolerance: float
    extra: dict
    entries: dict

    def get(self, key: str):
        return self.extra[key]


def _parse_lines(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ScenarioParseError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ScenarioParseError(f"line {lineno}: empty key or value")
        if key in out:
            raise ScenarioParseError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_scenario(text: str) -> FlowScenario:
    """Parse and validate scenario text.

    Raises :class:`ScenarioParseError` for malformed text and
    :class:`ValidationError` for semantic violations (unknown kind or
    key, a key the run would not read, missing requirement, a value its
    reader does not admit, a horizon T that is not a whole number of dt
    steps or more than :data:`MAX_STEPS` of them, a dt, grid spacing or field
    width whose square underflows or overflows, a diffusion number
    4 dt / h^2 above 1 / eps on the kind's own grid spacing).
    """
    return parse_entries(_parse_lines(text))


def parse_entries(entries: dict) -> FlowScenario:
    """Validate parsed ``key: value`` strings; see :func:`parse_scenario`."""
    if "kind" not in entries:
        raise ValidationError("missing required key 'kind'")
    kind = entries["kind"]
    unknown = set(entries) - allowed_keys(kind)
    if unknown:
        raise ValidationError(f"unknown keys for kind {kind!r}: {sorted(unknown)}")
    ignored = _ignored_keys(kind, entries)
    if ignored:
        problem = f" with problem {_problem(entries)!r}" if kind == "pde-reference" else ""
        raise ValidationError(f"keys {ignored} have no effect for kind {kind!r}{problem}")

    values = {}
    for key, (read, default) in {**_COMMON_KEYS, **_KIND_KEYS[kind]}.items():
        if key in entries:
            values[key] = read(key, entries[key])
        elif default is None:
            raise ValidationError(f"missing required key {key!r}")
        else:
            values[key] = default(values) if callable(default) else default
    common = {key.replace("-", "_"): values.pop(key) for key in _COMMON_KEYS}
    scn = FlowScenario(kind=kind, **common, extra=values, entries=entries)
    if scn.T < 0:
        raise ValidationError("T must be nonnegative")
    steps = scn.T / scn.dt
    if not math.isfinite(steps) or abs(round(steps) * scn.dt - scn.T) > 1e-9 * scn.T:
        raise ValidationError(f"T = {scn.T!r} is not a whole number of dt = {scn.dt!r} steps")
    if round(steps) > MAX_STEPS:
        raise ValidationError(f"T / dt = {steps:.6g} steps exceeds the bound of {MAX_STEPS:,}")
    # the stencils divide by h^2, the decay fit squares the step times and a
    # gaussian bump divides by its width squared
    space, h = _spacing(scn)
    widths = [(key, value) for key, value in scn.extra.items() if key.endswith("-width")]
    for name, step in (("dt", scn.dt), (space, h), *widths):
        if step * step < sys.float_info.min:
            raise ValidationError(f"{name} = {step!r} is too small: its square underflows")
        if step * step == math.inf:
            raise ValidationError(f"{name} = {step!r} is too large: its square overflows")
    # a step scales the stencil by the diffusion number dt / h^2, up to the
    # largest eigenvalue 4 dt / h^2 of the second difference (reeb's
    # coefficient sin^2 a is at most 1); above 1 / eps the theta step's
    # matrix is singular in double precision
    bound = 1.0 / sys.float_info.epsilon
    number = 4.0 * scn.dt / (h * h)
    if not number <= bound:
        raise ValidationError(f"diffusion number 4 dt / ({space})^2 = {number:.3g} exceeds "
                              f"1 / eps = {bound:.3g} (dt = {scn.dt!r}, {space} = {h!r})")
    _validate_kind(scn)
    return scn


def _spacing(scn: FlowScenario) -> tuple[str, float]:
    """The name and size of the grid spacing that the run's stencils use:
    the fiber's for twisted (``grid`` only sets the default ``fiber-grid``),
    2 / grid on reeb's [-1, 1], and length / grid on every circle kind."""
    if scn.kind == "twisted":
        return "fiber-length / fiber-grid", scn.get("fiber-length") / scn.get("fiber-grid")
    if scn.kind == "reeb":
        return "2 / grid", 2.0 / scn.grid
    return "length / grid", scn.length / scn.grid


def _problem(entries: dict) -> str:
    return entries.get("problem", _KIND_KEYS["pde-reference"]["problem"][1])


def _ignored_keys(kind: str, entries: dict) -> list[str]:
    """The admitted keys that this scenario's run would not read: ``length``
    for twisted (its circle is the fiber, ``fiber-length``) and reeb (fixed
    on [-1, 1]), ``check-tolerance`` everywhere but the exact-quasilinear
    problem, and the ``init*`` keys for that problem (its data is the exact
    family at t = 0)."""
    exact = kind == "pde-reference" and _problem(entries) == "exact-quasilinear"
    return sorted(key for key in entries
                  if (key == "length" and kind in ("twisted", "reeb"))
                  or (key == "check-tolerance" and not exact)
                  or (exact and key.split("-")[0] == "init"))


def load_scenario(path) -> FlowScenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _validate_kind(scn: FlowScenario) -> None:
    """The rules that tie keys together, beyond what each key's reader admits."""
    if scn.kind == "ftau":
        if len(scn.get("spectrum")) > MAX_SPECTRUM:
            raise ValidationError(f"spectrum has {len(scn.get('spectrum'))} values; at most "
                                  f"{MAX_SPECTRUM} are admitted (n ** (n - 1) must be a float)")
        if len(scn.get("spectrum")) != scn.get("n"):
            raise ValidationError("spectrum length must equal n")
        if scn.get("f") == "scaled-tau2" and scn.get("n") < 2:
            raise ValidationError("f: scaled-tau2 needs a spectrum of at least two values")
    if scn.kind == "reeb" and scn.grid % 2:
        raise ValidationError("reeb grid must be an even interval count (keeps x = 0 on the grid)")


def build_field(scn: FlowScenario, base: str, x: np.ndarray) -> np.ndarray:
    """Evaluate the named closed form ``base`` of the scenario on nodes x."""
    form = scn.get(base)
    amp = scn.get(base + "-amplitude")
    freq = scn.get(base + "-frequency")
    offset = scn.get(base + "-offset")
    L = scn.length
    if form == "zero":
        return np.zeros_like(x)
    if form == "constant":
        return np.full_like(x, offset if offset != 0.0 else amp)
    if form == "cos":
        return offset + amp * np.cos(2 * math.pi * freq * x / L)
    if form == "sin":
        return offset + amp * np.sin(2 * math.pi * freq * x / L)
    if form == "square-wave":
        return offset + amp * np.where(x < 0.5 * L, 1.0, -1.0)
    if form == "gaussian-bump":
        mid = 0.5 * L
        return offset + amp * np.exp(-((x - mid) ** 2) / (2 * scn.get(base + "-width") ** 2))
    return exact_quasilinear_solution(0.0, x)  # the last of FIELD_FORMS
