"""The benchmark's tracer binds egf functions by module and name
(``perfbench/tracer.py``, ``LAYERS``) and reads some of their arguments by
position.  A binding renamed or moved in egf breaks a traced benchmark pass,
which no other test here runs: this one installs the tracer, read from its
file and left unchanged, over two bundled runs.
"""

import pathlib
import sys

import egf

PERFBENCH = pathlib.Path(egf.__file__).resolve().parent.parent.parent / "perfbench"
SCENARIOS = PERFBENCH.parent / "scenarios"


def test_traced_runs_reach_the_bound_functions(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import tracer

    from egf import cli

    t = tracer.Tracer()
    t.install()  # getattr on every name in LAYERS
    try:
        codes = [cli.main(["run", str(SCENARIOS / f"{name}.egf"), "--out", str(tmp_path / name)])
                 for name in ("ftau", "heat-decay")]
    finally:
        t.uninstall()
    assert codes == [0, 0]
    bound = {f"{layer}.{fname}" for layer, names in tracer.LAYERS.items() for fname in names}
    # the bundled ftau file: T 0.5 at dt 0.001; heat-decay: T 3 at dt 0.001
    if "flows.ftau_conformal_flow" in bound:
        notes = [s.note for s in t.spans if s.name == "flows.ftau_conformal_flow"]
        assert notes == [{"steps": 500}]
    if "parabolic.solve_heat_circle" in bound:
        assert tracer.layer_metrics(t.spans)["parabolic.solve_heat_circle.steps"] == 3000
