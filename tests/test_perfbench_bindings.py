"""The benchmark's tracer binds egf functions by module and name
(``perfbench/tracer.py``, ``LAYERS``) and reads some of their arguments by
position.  A binding renamed or moved in egf breaks a traced benchmark pass,
which no other test here runs: this one installs the tracer, read from its
file and left unchanged, over three bundled runs and an ``f: scaled-tau2``
file, whose reconstruction of tau_2 calls the ``flows.eval_F`` binding the
tracer rebinds.
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

    tau2 = tmp_path / "ftau-tau2.egf"
    tau2.write_text("kind: ftau\ngrid: 64\ndt: 0.005\nT: 0.1\nf: scaled-tau2\n"
                    "spectrum: 0.4,1.0\ninit: cos\ninit-amplitude: 0.2\ninit-offset: 1.4\n")
    files = [SCENARIOS / f"{name}.egf" for name in ("ftau", "heat-decay", "umbilical")] + [tau2]
    t = tracer.Tracer()
    t.install()  # getattr on every name in LAYERS
    try:
        codes = [cli.main(["run", str(path), "--out", str(tmp_path / path.stem)])
                 for path in files]
    finally:
        t.uninstall()
    assert codes == [0, 0, 0, 0]
    bound = {f"{layer}.{fname}" for layer, names in tracer.LAYERS.items() for fname in names}
    # the bundled ftau file: T 0.5 at dt 0.001; the scaled-tau2 file: T 0.1 at
    # dt 0.005; heat-decay: T 3 at dt 0.001
    if "flows.ftau_conformal_flow" in bound:
        notes = [s.note for s in t.spans if s.name == "flows.ftau_conformal_flow"]
        assert notes == [{"steps": 500}, {"steps": 20}]
    if {"flows.ftau_conformal_flow", "symfun.eval_F"} <= bound:
        # inside the scaled-tau2 flow's span: the final reconstruction of
        # tau_2 alone, since no Newton step calls eval_F
        newton = [i for i, s in enumerate(t.spans) if s.name == "flows.ftau_conformal_flow"][-1]
        assert sum(s.name == "symfun.eval_F" and s.parent == newton for s in t.spans) == 1
    if "flows.evolve_umbilical" in bound:
        assert sum(s.name == "flows.evolve_umbilical" for s in t.spans) == 1
    if "parabolic.solve_heat_circle" in bound:
        assert tracer.layer_metrics(t.spans)["parabolic.solve_heat_circle.steps"] == 3000
