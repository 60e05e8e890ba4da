"""What the benchmark uses of the package still works.

`bench/tracing.py` rebinds layer functions that `dunklsim.cli` and
`dunklsim.mc` import by name.  Renaming or dropping one of them breaks
`bench/run.py --trace 1`; the tracer test makes that a unit-test failure.
The traced run also sweeps `run_batch` over root systems and variants
(`bench/worker.py::_sweep`), which the sweep test runs on a small batch.
The workload configs of `bench/workloads.py`, like the shipped
`configs/*.json`, must keep parsing and describing.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import dunklsim.cli as cli
import dunklsim.mc as mc
from dunklsim import SchemeConfig, load_config, scheme

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _bench_module("workloads")
CONFIGS = {**{name: _WORKLOADS.make_config(name, 3) for name in _WORKLOADS.NAMES},
           **{p.name: json.loads(p.read_text())
              for p in sorted((ROOT / "configs").glob("*.json"))}}


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


def test_tracer_sees_the_moment_reductions(tmp_path, monkeypatch, capsys):
    # d=1 moments over two blocks and three slabs of states: the per-time
    # partials of every block and slab are merged, the pathwise sup goes
    # through path_mean_se, and a streamed run holds one slab of states
    for mod in (cli, mc):
        for name, value in list(vars(mod).items()):
            if callable(value) and not isinstance(value, type):
                monkeypatch.setattr(mod, name, value)
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    tracer.enabled = True

    doc = json.loads((ROOT / "configs" / "bessel_moments.json").read_text())
    M, n = 1030, 130
    doc["run"].update({"M": M, "n": n})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert doc["experiment"]["pathwise_sup"] is True
    assert cli.main(["run", "--output-dir", str(tmp_path / "out"), str(cfg)]) == 0
    capsys.readouterr()

    spans = [span for span in tracer.records() if span["layer"] == "reductions"]
    for name in ("block_partials", "mean_se_from_sums", "path_mean_se"):
        ours = [span for span in spans if span["name"] == f"reductions.{name}"]
        assert ours and all(span["counts"]["bytes"] > 0 for span in ours), name
    slabs = -(-(n + 1) // scheme._SLAB_STEPS)
    assert sum(span["name"] == "reductions.block_partials" for span in spans) == 2 * slabs
    runs = [span["counts"] for span in tracer.records() if span["name"] == "scheme.run_batch"]
    assert runs and all(c["path_steps"] == M * n for c in runs)
    assert all(c["state_bytes"] <= 8 * M * (n + scheme._SLAB_STEPS) for c in runs)


def test_tracer_sees_one_draw_per_chamber_exit_chunk(tmp_path, monkeypatch, capsys):
    # the typeb-exit workload on fewer paths: every grid of a chunk reads the
    # finest grid's one draw, so the draws hold M * max(n) * r normals
    for mod in (cli, mc):
        for name, value in list(vars(mod).items()):
            if callable(value) and not isinstance(value, type):
                monkeypatch.setattr(mod, name, value)
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    tracer.enabled = True

    doc = _WORKLOADS.make_config("typeb-exit", 3)
    M, n_list = 100, [8, 32, 16, 32]
    doc["run"].update({"M": M, "n_list": n_list})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", "--output-dir", str(tmp_path / "out"), str(cfg)]) == 0
    capsys.readouterr()

    spans = tracer.records()
    assert sum(span["name"] == "mc.chamber_exit" for span in spans) == 1
    normals = [span["counts"]["normals"] for span in spans
               if span["name"] == "brownian.batch_increments"]
    r = load_config(str(cfg)).model.brownian_dim
    assert normals and sum(normals) == M * max(n_list) * r


@pytest.mark.parametrize("name", CONFIGS)
def test_bench_and_shipped_configs_parse_and_describe(name, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIGS[name]))
    cfg = load_config(str(path))
    if cfg.kind == "simulate":                         # as bench/checks.py resolves it
        assert isinstance(cfg.scheme.resolve(cfg.n), SchemeConfig)
    assert cli.main(["describe", str(path)]) == 0
    assert "root system" in capsys.readouterr().out


def test_scheme_sweep_runs_every_system_and_variant(monkeypatch):
    worker = _bench_module("worker")
    monkeypatch.setattr(worker, "SWEEP_PATHS", 4)
    monkeypatch.setattr(worker, "SWEEP_STEPS", 8)
    out = worker._sweep(3)
    keys = [f"scheme.sweep.{name}.{variant}" for name in ("d1", "A2", "A3", "A5")
            for variant in ("exact", "truncated")]
    assert sorted(out) == sorted(f"{key}.{metric}" for key in keys
                                 for metric in ("path_steps_per_s", "iters_per_step"))
    assert all(out[f"{key}.path_steps_per_s"] > 0.0 for key in keys)
    # d=1 and A(2) step in closed form; A(3) and A(5) run Newton
    for key in keys:
        closed_form = key.split(".")[2] in ("d1", "A2")
        assert (out[f"{key}.iters_per_step"] == 0.0) == closed_form
