"""Declarative flow scenarios: text format, validation, registries.

A scenario file is a flat list of ``key: value`` lines (``#`` starts a
comment; blank lines ignored).  Keys and closed-form names are chosen
from fixed registries rather than parsed expressions, so identical
files produce identical runs byte for byte.

Common keys
-----------
kind          one of: umbilical, tau-heat, twisted, prescribed-F, ftau,
              reeb, pde-reference
grid          number of spatial nodes (circle kinds) or intervals (reeb, even)
dt            time step
T             time horizon, a whole number of dt steps (relative slack 1e-9),
              at most MAX_STEPS of them
scheme        implicit-euler (default) or crank-nicolson
length        circle circumference (default 2*pi); not for twisted or reeb
save-every    snapshot cadence in steps (0 = automatic, the default; >= 0)
check-tolerance
              sup-error bound of the exact-quasilinear problem (default
              2e-4); no other scenario takes it

A key that the run would not read is rejected, not ignored (``_ignored_keys``).

Closed-form fields (init / target) are selected by name with parameters
``*-amplitude``, ``*-frequency``, ``*-offset``:

    zero | constant | cos | sin | square-wave | gaussian-bump
    | exact-quasilinear

Kind-specific keys are documented in the README grammar table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .parabolic import exact_quasilinear_solution

__all__ = ["FlowScenario", "ScenarioParseError", "parse_scenario", "parse_entries",
           "load_scenario", "build_field", "FIELD_FORMS", "KINDS", "MAX_STEPS"]

# The most time steps T / dt a scenario may ask for: 2,000 times the longest
# bundled run (5,000 steps), and far short of a run that would not end.
MAX_STEPS = 10_000_000

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

_COMMON_KEYS = {"kind", "grid", "dt", "T", "scheme", "length", "save-every",
                "check-tolerance"}
_FIELD_KEYS = ("", "-amplitude", "-frequency", "-offset", "-width")

# Kind-specific numeric keys: integers (all positive), positive reals by name
# or suffix, and other reals by suffix.
_INT_KEYS = ("base-grid", "fiber-grid", "n")
_POSITIVE_KEYS = ("fiber-length", "psi-slope", "-width")
_REAL_SUFFIXES = ("-amplitude", "-frequency", "-offset")

_KIND_KEYS = {
    "umbilical": {"init", "psi", "psi-slope"},
    "tau-heat": {"init"},
    "twisted": {"base-grid", "fiber-grid", "n", "profile", "fiber-length"},
    "prescribed-F": {"init", "target", "n"},
    "ftau": {"init", "f", "n", "spectrum"},
    "reeb": {"method"},
    "pde-reference": {"problem", "init"},
}


class ScenarioParseError(Exception):
    """Raised on malformed scenario text (not a semantic violation)."""


def allowed_keys(kind: str) -> set[str]:
    """All keys a scenario of this kind may carry."""
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; choose from {KINDS}")
    keys = set(_COMMON_KEYS)
    for base in _KIND_KEYS[kind]:
        for suffix in _FIELD_KEYS:
            keys.add(base + suffix)
    return keys


@dataclass
class FlowScenario:
    """A parsed, validated scenario ready to run.

    ``extra``: kind-specific keys, numeric ones typed; ``entries``: every
    key/value string as parsed, for a sweep to replace one and re-parse.
    """

    kind: str
    grid: int
    dt: float
    T: float
    scheme: str = "implicit-euler"
    length: float = 2.0 * math.pi
    save_every: int = 0
    check_tolerance: float | None = None
    extra: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.extra.get(key, default)


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


def _as_float(entries: dict, key: str, default=None) -> float:
    if key not in entries:
        if default is None:
            raise ValidationError(f"missing required key {key!r}")
        return default
    try:
        val = float(entries[key])
    except ValueError as exc:
        raise ScenarioParseError(f"key {key!r}: not a number: {entries[key]!r}") from exc
    if not math.isfinite(val):
        raise ValidationError(f"key {key!r} must be finite, got {entries[key]!r}")
    return val


def _as_int(entries: dict, key: str, default=None) -> int:
    val = _as_float(entries, key, default)
    if val != int(val):
        raise ValidationError(f"key {key!r} must be an integer")
    return int(val)


def _typed_extra(entries: dict) -> dict:
    extra = {k: v for k, v in entries.items() if k not in _COMMON_KEYS}
    for key in extra:
        positive = key in _INT_KEYS or key.endswith(_POSITIVE_KEYS)
        if key in _INT_KEYS:
            extra[key] = _as_int(entries, key)
        elif positive or key.endswith(_REAL_SUFFIXES):
            extra[key] = _as_float(entries, key)
        if positive and extra[key] <= 0:
            raise ValidationError(f"{key} must be positive")
    return extra


def parse_scenario(text: str) -> FlowScenario:
    """Parse and validate scenario text.

    Raises :class:`ScenarioParseError` for malformed text and
    :class:`ValidationError` for semantic violations (unknown kind or
    key, a key the run would not read, missing requirement, non-positive
    or non-finite parameter, a horizon T that is not a whole number of dt
    steps or more than :data:`MAX_STEPS` of them, a dt or grid spacing whose
    square underflows, a diffusion number 4 dt / h^2 that overflows).
    """
    return parse_entries(_parse_lines(text))


def parse_entries(entries: dict) -> FlowScenario:
    """Validate parsed ``key: value`` strings; see :func:`parse_scenario`."""
    if "kind" not in entries:
        raise ValidationError("missing required key 'kind'")
    kind = entries["kind"]
    allowed = allowed_keys(kind) | {"kind"}
    unknown = set(entries) - allowed
    if unknown:
        raise ValidationError(f"unknown keys for kind {kind!r}: {sorted(unknown)}")
    ignored = _ignored_keys(kind, entries)
    if ignored:
        problem = (f" with problem {entries.get('problem', 'exact-quasilinear')!r}"
                   if kind == "pde-reference" else "")
        raise ValidationError(f"keys {ignored} have no effect for kind {kind!r}{problem}")

    scn = FlowScenario(
        kind=kind,
        grid=_as_int(entries, "grid", 256),
        dt=_as_float(entries, "dt"),
        T=_as_float(entries, "T"),
        scheme=entries.get("scheme", "implicit-euler"),
        length=_as_float(entries, "length", 2.0 * math.pi),
        save_every=_as_int(entries, "save-every", 0),
        check_tolerance=(
            _as_float(entries, "check-tolerance") if "check-tolerance" in entries else None
        ),
        extra=_typed_extra(entries),
        entries=entries,
    )
    if scn.grid < 8:
        raise ValidationError("grid must be at least 8")
    if scn.dt <= 0 or scn.T < 0 or scn.length <= 0:
        raise ValidationError("dt, T and length must be positive")
    if scn.save_every < 0:
        raise ValidationError("save-every must be nonnegative (0 = automatic)")
    steps = scn.T / scn.dt
    if not math.isfinite(steps) or abs(round(steps) * scn.dt - scn.T) > 1e-9 * scn.T:
        raise ValidationError(f"T = {scn.T!r} is not a whole number of dt = {scn.dt!r} steps")
    if round(steps) > MAX_STEPS:
        raise ValidationError(f"T / dt = {steps:.6g} steps exceeds the bound of {MAX_STEPS:,}")
    # the stencils divide by h^2 and the decay fit squares the step times
    fiber = scn.get("fiber-length", 2.0 * math.pi) / scn.get("fiber-grid", scn.grid)
    for name, step in (("dt", scn.dt), ("length / grid", scn.length / scn.grid),
                       ("fiber-length / fiber-grid", fiber)):
        if step * step < sys.float_info.min:
            raise ValidationError(f"{name} = {step!r} is too small: its square underflows")
    # a step scales the stencil by the diffusion number dt / h^2, up to the
    # largest eigenvalue 4 dt / h^2 of the periodic second difference
    for name, step in (("length / grid", scn.length / scn.grid),
                       ("fiber-length / fiber-grid", fiber)):
        if not math.isfinite(4.0 * scn.dt / (step * step)):
            raise ValidationError(f"diffusion number dt / ({name})^2 overflows "
                                  f"(dt = {scn.dt!r}, {name} = {step!r})")
    if scn.scheme not in ("implicit-euler", "crank-nicolson"):
        raise ValidationError(f"unknown scheme {entries.get('scheme')!r}")
    _validate_kind(scn)
    return scn


def _ignored_keys(kind: str, entries: dict) -> list[str]:
    """The admitted keys that this scenario's run would not read: ``length``
    for twisted (its circle is the fiber, ``fiber-length``) and reeb (fixed
    on [-1, 1]), ``check-tolerance`` everywhere but the exact-quasilinear
    problem, and the ``init*`` keys for that problem (its data is the exact
    family at t = 0)."""
    exact = kind == "pde-reference" and entries.get("problem",
                                                     "exact-quasilinear") == "exact-quasilinear"
    return sorted(key for key in entries
                  if (key == "length" and kind in ("twisted", "reeb"))
                  or (key == "check-tolerance" and not exact)
                  or (exact and key.split("-")[0] == "init"))


def load_scenario(path) -> FlowScenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _validate_kind(scn: FlowScenario) -> None:
    g = scn.get
    if scn.kind in ("umbilical", "tau-heat", "prescribed-F", "ftau", "pde-reference"):
        form = g("init", "cos" if scn.kind != "prescribed-F" else "zero")
        if form not in FIELD_FORMS:
            raise ValidationError(f"unknown init form {form!r}")
    if scn.kind == "umbilical":
        if g("psi", "linear") != "linear":
            raise ValidationError("only the linear psi form is registered")
    if scn.kind == "twisted":
        if g("profile", "one-plus-x-squared") not in ("one-plus-x-squared", "constant"):
            raise ValidationError("unknown twisted profile")
    if scn.kind == "prescribed-F":
        if g("target", "cos") not in FIELD_FORMS:
            raise ValidationError("unknown target form")
    if scn.kind == "ftau":
        if g("f", "scaled-tau1") not in ("scaled-tau1", "scaled-tau2"):
            raise ValidationError("unknown coefficient function for ftau")
        if "spectrum" not in scn.extra:
            raise ValidationError("ftau needs a 'spectrum' (comma-separated reals)")
        try:
            vals = [float(v) for v in scn.extra["spectrum"].split(",")]
        except ValueError as exc:
            raise ScenarioParseError("spectrum: expected comma-separated reals") from exc
        if len(vals) != g("n", len(vals)):
            raise ValidationError("spectrum length must equal n")
        if g("f") == "scaled-tau2" and len(vals) < 2:
            raise ValidationError("f: scaled-tau2 needs a spectrum of at least two values")
    if scn.kind == "reeb":
        if g("method", "x-space") not in ("x-space", "arclength-kernel"):
            raise ValidationError("reeb method must be x-space or arclength-kernel")
        if scn.grid % 2:
            raise ValidationError("reeb grid must be an even interval count (keeps x = 0 on the grid)")
    if scn.kind == "pde-reference":
        if g("problem", "exact-quasilinear") not in (
            "exact-quasilinear",
            "circle-heat-decay",
        ):
            raise ValidationError("unknown pde-reference problem")


def build_field(scn: FlowScenario, base: str, x: np.ndarray) -> np.ndarray:
    """Evaluate the named closed form ``base`` of the scenario on nodes x."""
    form = scn.get(base, "cos" if base == "init" else "zero")
    amp = scn.get(base + "-amplitude", 1.0)
    freq = scn.get(base + "-frequency", 1.0)
    offset = scn.get(base + "-offset", 0.0)
    width = scn.get(base + "-width", 0.1)
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
        return offset + amp * np.exp(-((x - mid) ** 2) / (2 * width**2))
    if form == "exact-quasilinear":
        return exact_quasilinear_solution(0.0, x)
    raise ValidationError(f"unknown field form {form!r}")
