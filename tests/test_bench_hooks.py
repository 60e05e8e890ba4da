"""The benchmark tracer's hooks: every name it wraps still exists.

`bench/tracing.py` rebinds layer functions that `dunklsim.cli` and
`dunklsim.mc` import by name.  Renaming or dropping one of them breaks
`bench/run.py --trace 1`; this test makes that a unit-test failure.
"""
import importlib.util
import json
import sys
from pathlib import Path

import dunklsim.cli as cli
import dunklsim.mc as mc

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records_spans(tmp_path, monkeypatch, capsys):
    # Re-set every function of both modules through monkeypatch, so the
    # tracer's rebinding is undone when the test ends.
    for mod in (cli, mc):
        for name, value in list(vars(mod).items()):
            if callable(value) and not isinstance(value, type):
                monkeypatch.setattr(mod, name, value)
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    tracer.enabled = True

    doc = {
        "model": {"root_system": {"type": "A", "d": 2}, "T": 1.0,
                  "xi": [0.5, -0.5], "sigma": {"form": "scalar_identity", "fn": 1.0},
                  "drift": {"form": "zero"}, "k": [4.0]},
        "scheme": {"variant": "exact", "theta": 0.0},
        "experiment": {"kind": "convergence"},
        "run": {"master_seed": 3, "M": 100, "n_list": [4, 8], "n_ref": 16},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", "--output-dir", str(tmp_path / "out"), str(cfg)]) == 0
    capsys.readouterr()

    names = {span["name"] for span in tracer.records()}
    assert {"config.load_config", "mc.strong_error", "brownian.batch_increments",
            "scheme.run_batch", "brownian.coarsen", "mc.fit_order"} <= names
    steps = sum(span["counts"]["path_steps"] for span in tracer.records()
                if span["name"] == "scheme.run_batch")
    assert steps == 100 * (16 + 4 + 8)
