"""Command line driver: describe, run, validate, exit codes, artifacts."""
import copy
import json
import subprocess
import sys

import numpy as np
import pytest

from dunklsim import fixed_point_certificate, run_batch
from dunklsim.brownian import batch_increments
from dunklsim.cli import main
from dunklsim.config import load_config
from dunklsim.scheme import truncation_level

MODEL_A2 = {
    "root_system": {"type": "A", "d": 2},
    "T": 1.0,
    "xi": [0.5, -0.5],
    "sigma": {"form": "scalar_identity", "fn": 1.0},
    "drift": {"form": "zero"},
    "k": [4.0],
}


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _simulate_cfg(tmp_path, **run_extra):
    doc = {
        "model": copy.deepcopy(MODEL_A2),
        "scheme": {"variant": "exact", "theta": 0.0},
        "experiment": {"kind": "simulate"},
        "run": {"master_seed": 5, "M": 4, "n": 8,
                "output_dir": str(tmp_path / "out"), **run_extra},
    }
    return doc


# ---------------------------------------------------------------------------
# describe

def test_describe_reports_scales(tmp_path, capsys):
    doc = _simulate_cfg(tmp_path)
    doc["model"]["root_system"] = {"type": "A", "d": 3}
    doc["model"]["xi"] = [1.0, 0.0, -1.0]
    doc["model"]["k"] = [1.0]
    doc["scheme"] = {"variant": "truncated", "theta": 0.0}
    doc["run"]["n"] = 100
    rc = main(["describe", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "repulsion scale L  : 6" in out
    assert "0.26944387170614" in out                   # cap level at n = 100
    assert "dt = 0.01" in out
    assert "moment threshold" in out
    assert "warning" in out                            # threshold 1 model


def test_describe_prints_fixed_point_cap(tmp_path, capsys):
    # k peaks mid-run, so the largest a priori count sits at neither end
    doc = _simulate_cfg(tmp_path)
    doc["model"]["k"] = [{"form": "table", "t": [0.0, 0.5, 1.0], "v": [1.0, 6.0, 2.0]}]
    doc["scheme"] = {"variant": "truncated", "theta": 0.25, "c": 1.3}
    doc["run"]["n"] = 10
    path = _write(tmp_path, doc)
    rc = main(["describe", path])
    out = capsys.readouterr().out
    assert rc == 0
    cfg = load_config(path)
    m, scheme = cfg.model, cfg.scheme.resolve(10)
    h = 0.75 * 0.1
    eps = truncation_level(m, scheme)
    counts = [fixed_point_certificate(m.rs, m.k_at(t), h, eps, 1e-10)[0]
              for t in np.arange(1, 11) * 0.1]
    assert max(counts) > max(counts[0], counts[-1])
    assert f"cap level = {eps:.17g}, fixed-point cap m* = {max(counts)}\n" in out
    inc = batch_increments(m.brownian_dim, 10, m.T, 5, np.arange(16))
    iters = run_batch(m, scheme, inc, record_iterations=True).iterations
    assert 1 <= iters.min() and iters.max() <= max(counts)


def test_describe_quiet_when_guarantee_holds(tmp_path, capsys):
    doc = _simulate_cfg(tmp_path)                      # exact, threshold 7 > 6
    rc = main(["describe", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warning" not in out
    assert "cap level" not in out                      # exact scheme has no cap


# ---------------------------------------------------------------------------
# run: artifacts

def test_run_simulate_writes_artifacts(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, _simulate_cfg(tmp_path))])
    assert rc == 0
    out_dir = tmp_path / "out"
    csv = (out_dir / "paths.csv").read_text().splitlines()
    assert csv[0] == "path_id,step,t,x_0,x_1,in_chamber"
    assert len(csv) == 1 + 4 * 9                       # header + M * (n + 1)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["kind"] == "simulate"
    assert summary["master_seed"] == 5
    manifest = json.loads((out_dir / "manifest.json").read_text())
    row_counts = {o["path"]: o["rows"] for o in manifest["outputs"]}
    assert row_counts["paths.csv"] == 36
    assert manifest["config"]["run"]["M"] == 4


def test_run_convergence_reports_fit(tmp_path):
    doc = _simulate_cfg(tmp_path)
    doc["experiment"] = {"kind": "convergence"}
    doc["run"].pop("n")
    doc["run"].update({"M": 128, "n_list": [8, 16, 32], "n_ref": 64})
    rc = main(["run", _write(tmp_path, doc)])
    assert rc == 0
    out_dir = tmp_path / "out"
    lines = (out_dir / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,rms_sup_error,std_error,M,n_ref"
    assert len(lines) == 4
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["results"]["fit"]["slope"] < -0.4


def test_increments_repeated_lags_report_no_slope(tmp_path):
    # one distinct lag: the slope fit is undefined, the run still succeeds
    doc = _simulate_cfg(tmp_path)
    doc["experiment"] = {"kind": "increments", "lags": [0.25, 0.25, 0.25]}
    doc["run"]["n"] = 8
    assert main(["run", _write(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["results"]["slope"] is None


def test_manifest_row_counts_match_files(tmp_path):
    doc = _simulate_cfg(tmp_path)
    doc["experiment"] = {"kind": "increments", "lags": [0.125, 0.25]}
    doc["run"]["n"] = 16
    doc["run"]["M"] = 150
    rc = main(["run", _write(tmp_path, doc)])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    csv_entries = [o for o in manifest["outputs"] if o["path"].endswith(".csv")]
    assert csv_entries
    for entry in csv_entries:
        lines = (tmp_path / "out" / entry["path"]).read_text().splitlines()
        assert entry["rows"] == len(lines) - 1


# ---------------------------------------------------------------------------
# run: output dir precedence and determinism

def test_output_dir_env_override(tmp_path, monkeypatch):
    doc = _simulate_cfg(tmp_path)
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("DUNKLSIM_OUTPUT_DIR", str(env_dir))
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert (env_dir / "paths.csv").exists()
    assert not (tmp_path / "out").exists()
    # the explicit flag beats the environment
    flag_dir = tmp_path / "flag_out"
    assert main(["run", "--output-dir", str(flag_dir),
                 _write(tmp_path, doc)]) == 0
    assert (flag_dir / "paths.csv").exists()


def test_rerun_and_thread_budgets_byte_identical(tmp_path):
    doc = _simulate_cfg(tmp_path)
    doc["experiment"] = {"kind": "convergence"}
    doc["run"].pop("n")
    doc["run"].update({"M": 128, "n_list": [8, 16], "n_ref": 32})
    cfg = _write(tmp_path, doc)
    blobs = []
    for i, threads in enumerate((1, 4, 16)):
        d = tmp_path / f"t{i}"
        assert main(["run", "--output-dir", str(d),
                     "--threads", str(threads), cfg]) == 0
        blobs.append(((d / "convergence.csv").read_bytes(),
                      (d / "summary.json").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]


# ---------------------------------------------------------------------------
# exit codes

def test_bad_config_exits_2_listing_every_problem(tmp_path, capsys):
    doc = _simulate_cfg(tmp_path)
    doc["model"]["T"] = -1.0
    doc["scheme"]["theta"] = 0.6
    del doc["run"]["master_seed"]
    rc = main(["run", _write(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "$.model.T" in err and "$.scheme" in err and "master_seed" in err


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.json")])
    assert rc == 1


def test_unwritable_output_dir_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, _simulate_cfg(tmp_path))
    # a path through an existing regular file can never be created
    rc = main(["run", "--output-dir", cfg + "/sub", cfg])
    assert rc == 1


def test_validate_command_pass_and_fail(tmp_path, capsys):
    good = _simulate_cfg(tmp_path)
    good["experiment"] = {"kind": "validate"}
    for key in ("M", "n"):
        good["run"].pop(key)
    rc = main(["validate", _write(tmp_path, good, "good.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out

    bad = copy.deepcopy(good)
    bad["model"]["k"] = [0.4]                          # noise dominates
    rc = main(["validate", _write(tmp_path, bad, "bad.json")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out


@pytest.mark.parametrize("flag", [("--samples", "0"), ("--samples", "-3"),
                                  ("--tol", "0"), ("--tol", "-1e-8")])
def test_validate_rejects_nonpositive_flags(tmp_path, capsys, flag):
    doc = _simulate_cfg(tmp_path)
    doc["experiment"] = {"kind": "validate"}
    with pytest.raises(SystemExit) as exc:
        main(["validate", _write(tmp_path, doc), *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_solver_failure_exits_3(tmp_path, capsys):
    doc = _simulate_cfg(tmp_path)
    doc["scheme"]["solver_tol"] = 1e-300               # never certified
    doc["run"].update({"M": 2, "n": 2})
    rc = main(["run", _write(tmp_path, doc)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


def test_run_validate_kind_fails_redly(tmp_path):
    bad = _simulate_cfg(tmp_path)
    bad["experiment"] = {"kind": "validate"}
    for key in ("M", "n"):
        bad["run"].pop(key)
    bad["model"]["k"] = [0.4]
    assert main(["run", _write(tmp_path, bad)]) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["results"]["passed"] is False


def test_import_leaves_scipy_stats_out():
    code = "import sys, dunklsim.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point(tmp_path):
    cfg = _write(tmp_path, _simulate_cfg(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "dunklsim.cli", "describe", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "root system" in proc.stdout
