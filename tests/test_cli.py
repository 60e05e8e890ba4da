"""Command line driver: describe, run, validate, exit codes, artifacts."""
import copy
import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dunklsim.cli as cli
import dunklsim.mc as mc
from dunklsim import fixed_point_certificate, run_batch, stepping
from dunklsim.brownian import batch_increments
from dunklsim.cli import main
from dunklsim.coefficients import LinearSigma
from dunklsim.config import load_config
from dunklsim.model import moment_threshold
from dunklsim.scheme import _plan

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def test_describe_prints_capped_step_bound(tmp_path, capsys):
    # k peaks mid-run, so the largest certified error sits at neither end
    doc = _simulate_cfg(tmp_path)
    doc["model"]["root_system"] = {"type": "A", "d": 3}
    doc["model"]["xi"] = [1.0, 0.0, -1.0]
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
    eps = _plan(m, scheme).eps
    bounds = [b0 * rho ** m_star for m_star, rho, b0 in
              (fixed_point_certificate(m.rs, [fn(t) for fn in m.k], h, eps, 1e-10)
               for t in np.arange(1, 11) * 0.1)]
    assert max(bounds) > max(bounds[0], bounds[-1])
    assert max(bounds) <= 1e-10
    assert f"cap level = {eps:.17g}, certified step error <= {max(bounds):.3e}\n" in out
    inc = batch_increments(m.brownian_dim, 10, m.T, 5, np.arange(16))
    iters = run_batch(m, scheme, inc, record_iterations=True).iterations
    assert 0 <= iters.min() and 1 <= iters.max() < stepping._NEWTON_CAP


def test_describe_names_closed_form_step(tmp_path, capsys):
    # A(2) has one positive root: the capped step is solved in closed form
    doc = _simulate_cfg(tmp_path)
    doc["scheme"] = {"variant": "truncated", "theta": 0.0}
    doc["run"]["n"] = 10
    path = _write(tmp_path, doc)
    assert main(["describe", path]) == 0
    out = capsys.readouterr().out
    cfg = load_config(path)
    eps = _plan(cfg.model, cfg.scheme.resolve(10)).eps
    assert f"cap level = {eps:.17g}, closed-form step\n" in out
    assert "certified step error" not in out


def test_describe_quiet_when_guarantee_holds(tmp_path, capsys):
    doc = _simulate_cfg(tmp_path)                      # exact, threshold 7 > 6
    rc = main(["describe", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warning" not in out
    assert "cap level" not in out                      # exact scheme has no cap


def test_describe_warns_where_cap_level_exceeds_smallest_pairing(capsys):
    # xi = (0.6, 0.3) on B(2): min <alpha, xi> = 0.3 (roots e2 and e1 - e2),
    # and eps_n = 1.1 sqrt(30 / n) falls below it only at n = 512
    assert main(["describe", str(CONFIGS / "type_b_exit.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = {int(line.split()[3]): i for i, line in enumerate(lines) if line.startswith("grid n")}
    assert sorted(at) == [32, 64, 128, 256, 512]
    eps = {n: float(lines[i].split("cap level = ")[1].split(",")[0]) for n, i in at.items()}
    assert [round(eps[n], 3) for n in sorted(eps)] == [1.065, 0.753, 0.533, 0.377, 0.266]
    for n in (32, 64, 128, 256):
        assert ", min <alpha, xi> = 0.29999999999999999, cap level = " in lines[at[n]]
        assert lines[at[n] + 1] == (f"warning: at n = {n} the cap level {eps[n]:.4g} exceeds "
                                    "min <alpha, xi> = 0.3, so the capped drift already acts "
                                    "at the start point")
    assert lines[at[512] + 1:] == []
    assert sum(line.startswith("warning: at n =") for line in lines) == 4


def test_describe_prints_each_distinct_grid_once(tmp_path, capsys):
    # a chamber-exit n_list may repeat a grid; describe lists it, and its
    # cap-level warning, once
    doc = json.loads((CONFIGS / "type_b_exit.json").read_text())
    doc["run"]["n_list"] = [64, 32, 32, 128]
    assert main(["describe", _write(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split()[3]) for line in lines if line.startswith("grid n")] == [32, 64, 128]
    assert sum(line.startswith("warning: at n = 32 ") for line in lines) == 1


def test_describe_and_validate_use_computed_linear_sigma_sup(tmp_path, capsys, monkeypatch):
    # sigma = 0.5 I + 0.3 sum_l clip(x_l, -R, R) I on A(2), k = 4: the sup
    # 0.5 + 0.6 R is dominated by 2k = 8 for R = 2 but not for R = 10
    path = _write(tmp_path, _simulate_cfg(tmp_path))
    cfg = load_config(path)
    eye = np.eye(2)
    for radius, rc_validate, verdict in ((2.0, 0, "PASS"), (10.0, 2, "FAIL")):
        sigma = LinearSigma(base=(0.5 * eye).tolist(), coeffs=[(0.3 * eye).tolist()] * 2,
                            radius=radius)
        model = dataclasses.replace(cfg.model, sigma=sigma)
        monkeypatch.setattr(cli, "load_config",
                            lambda _: dataclasses.replace(cfg, model=model))
        assert main(["describe", path]) == 0
        out = capsys.readouterr().out
        assert f"diffusion size sup : {sigma.bar(0.0):.17g}\n" in out
        assert f"moment threshold   : {moment_threshold(model):.17g}\n" in out
        assert sigma.bar(0.0) == pytest.approx(0.5 + 0.6 * radius)
        assert main(["validate", path]) == rc_validate
        assert f"repulsion dominates noise : {verdict}" in capsys.readouterr().out


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


def test_manifest_records_peak_rss_only(tmp_path):
    # the manifest gains the process's peak RSS; the results files do not
    doc = _simulate_cfg(tmp_path)
    doc["experiment"] = {"kind": "moments", "p": 2.0, "pathwise_sup": True}
    cfg = _write(tmp_path, doc)
    runs = []
    for name in ("a", "b"):
        d = tmp_path / name
        assert main(["run", "--output-dir", str(d), cfg]) == 0
        manifest = json.loads((d / "manifest.json").read_text())
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0
        runs.append({f: (d / f).read_bytes() for f in ("moments.csv", "summary.json")})
    assert runs[0] == runs[1]
    summary = json.loads(runs[0]["summary.json"])
    assert "peak_rss_mb" not in summary and "peak_rss_mb" not in summary["results"]


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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_rejects_nonpositive_threads(tmp_path, capsys, threads):
    cfg = _write(tmp_path, _simulate_cfg(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--threads", threads, cfg])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _record_batches(monkeypatch, fail_call=None):
    """Wrap cli.run_batch to record each call's path count; from call number
    `fail_call` on, the solver tolerance is one no step can certify."""
    calls = []
    real = cli.run_batch

    def wrapped(m, cfg, inc, **kw):
        calls.append(inc.shape[0])
        if len(calls) == fail_call:
            monkeypatch.setattr(stepping, "_SOLVER_TOL", 1e-300)
        return real(m, cfg, inc, **kw)

    monkeypatch.setattr(cli, "run_batch", wrapped)
    return calls


def _a3_simulate(tmp_path, M):
    doc = _simulate_cfg(tmp_path)
    doc["model"]["root_system"] = {"type": "A", "d": 3}
    doc["model"]["xi"] = [1.0, 0.0, -1.0]
    doc["scheme"]["theta"] = 0.25
    doc["run"].update({"M": M, "n": 16})
    return _write(tmp_path, doc, f"a3_M{M}.json")


def _run_outputs(cfg, out_dir):
    assert main(["run", "--output-dir", str(out_dir), cfg]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return ((out_dir / "paths.csv").read_bytes(), (out_dir / "summary.json").read_bytes(),
            manifest["outputs"])


def test_simulate_chunks_stream_same_bytes(tmp_path, monkeypatch):
    cfg = _a3_simulate(tmp_path, 5)
    whole = _run_outputs(cfg, tmp_path / "one")
    monkeypatch.setattr(mc, "_MAX_CHUNK", 2)          # chunks of 2, 2 and 1 paths
    calls = _record_batches(monkeypatch)
    assert _run_outputs(cfg, tmp_path / "three") == whole
    assert calls == [2, 2, 1]
    assert whole[2][0] == {"path": "paths.csv", "rows": 5 * 17}


def test_simulate_larger_M_extends_paths_csv(tmp_path):
    small = _run_outputs(_a3_simulate(tmp_path, 3), tmp_path / "m3")[0]
    large = _run_outputs(_a3_simulate(tmp_path, 5), tmp_path / "m5")[0]
    assert len(large) > len(small) and large.startswith(small)


# ---------------------------------------------------------------------------
# CSV text: the per-value formatter the block writer replaced is the oracle

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _oracle_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _written(tmp_path, header, blocks) -> tuple[bytes, int]:
    count = cli._write_csv_blocks(str(tmp_path), "t.csv", header, blocks)
    assert not (tmp_path / "t.csv.tmp").exists()
    return (tmp_path / "t.csv").read_bytes(), count


ODD = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 0.1, -1 / 3,
       2.0, 1e17, 123456789012345678.0]


def _rows_of(blocks):
    for block in blocks:
        n = max(np.size(c) for c in block)
        yield from zip(*(c if np.ndim(c) else [c] * n for c in block))


@pytest.mark.parametrize("kind", ["simulate", "convergence", "moments", "increments",
                                  "chamber-exit", "cir-check"])
def test_block_writer_matches_per_value_formatter(tmp_path, kind):
    odd = np.array(ODD)
    k = len(ODD)
    if kind == "simulate":                              # one block per path, last one short
        header = ("path_id", "step", "t", "x_0", "x_1", "in_chamber")
        blocks = [(np.int64(pid), np.arange(k), np.linspace(0.0, 1.0, k), odd,
                   np.roll(odd, pid), np.arange(k) % 3 != pid) for pid in range(3)]
        blocks.append((np.int64(3), np.arange(2), np.array([0.0, 0.5]), odd[:2],
                       odd[-2:], [True, False]))
    elif kind == "convergence":
        header = ("n", "rms_sup_error", "std_error", "M", "n_ref")
        blocks = [(tuple(range(8, 8 + k)), tuple(ODD), tuple(reversed(ODD)), 128, np.int64(64))]
    elif kind == "moments":
        header = ("root_index", "t", "p", "estimate", "std_error")
        blocks = [(ri, np.linspace(0.0, 1.0, k), p, np.roll(odd, ri), odd * 2.0)
                  for ri, p in enumerate((2, 2.5, -0.0))]
    elif kind == "increments":
        header = ("lag", "mean_square_increment", "std_error")
        blocks = [((0.125, 0.25, 1.0, 3.0), tuple(ODD[:4]), tuple(ODD[-4:]))]
    elif kind == "chamber-exit":
        header = ("n", "exit_fraction", "ci_low", "ci_high")
        blocks = [((32, 64), (0.0, 0.5), (0, 0.25), (np.float64(5e-324), 1.0))]
    else:
        header = ("mc_mean", "std_error", "ode_mean", "z_score", "n", "M")
        blocks = [(1.5, 0.0, -0.0, math.inf, np.int64(64), 4000)]
    text, count = _written(tmp_path, header, blocks)
    rows = list(_rows_of(blocks))
    assert count == len(rows)
    assert text == _oracle_csv(header, rows)


def test_block_writer_text_column_equals_its_fields(tmp_path):
    """`simulate` formats each time row's "step,t" once and passes it as a str
    column: the file is the one written from separate step and t columns."""
    k = len(ODD)
    stamps = np.array(["%d,%.17g" % st for st in zip(range(k), ODD)])
    header = ("path_id", "step", "t", "x_0", "in_chamber")
    text, count = _written(tmp_path, header, [(np.int64(pid), stamps, np.roll(ODD, pid),
                                               np.arange(k) % 2 == pid) for pid in range(2)])
    fields = [(np.int64(pid), np.arange(k), np.array(ODD), np.roll(ODD, pid),
               np.arange(k) % 2 == pid) for pid in range(2)]
    assert count == 2 * k
    assert text == _oracle_csv(header, list(_rows_of(fields)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1), st.floats(), st.booleans()),
                min_size=1, max_size=20))
def test_block_writer_matches_formatter_on_any_values(tmp_path_factory, rows):
    ints, floats, flags = (list(c) for c in zip(*rows))
    blocks = [(ints, np.array(floats), [np.bool_(f) for f in flags])]
    text, count = _written(tmp_path_factory.mktemp("w"), ("i", "x", "b"), blocks)
    assert count == len(rows)
    assert text == _oracle_csv(("i", "x", "b"), rows)


def _float_lines(tmp_path, x) -> list[str]:
    return _written(tmp_path, ("x",), [(x,)])[0].decode().split("\n")[1:-1]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_float_encoder_matches_format_on_raw_bit_patterns(tmp_path_factory, bits):
    # every exponent, subnormals and nan payloads
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _float_lines(tmp_path_factory.mktemp("f"), x) == ["%.17g" % v for v in x.tolist()]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1009, 1077), st.integers(0, 2 ** 52 - 1)),
                min_size=1, max_size=64))
def test_float_encoder_matches_format_around_fixed_notation(tmp_path_factory, parts):
    # bit patterns with exponents 2^-14 .. 2^54, which %g writes in fixed
    # notation (1e-4 <= |x| < 1e16) or just outside it
    bits = [sign << 63 | exp << 52 | frac for sign, exp, frac in parts]
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _float_lines(tmp_path_factory.mktemp("f"), x) == ["%.17g" % v for v in x.tolist()]


EDGES = [(2 ** 17 + 1) / 2 ** 17, (2 ** 17 + 3) / 2 ** 17,     # exact ties at 17 digits
         1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0),
         *(10.0 ** k for k in range(-5, 18)), 0.99999999999999989, 9.9999999999999995e-5]


def test_float_encoder_matches_format_on_edges(tmp_path):
    x = np.array(EDGES + [-v for v in EDGES] + [0.0, -0.0])
    lines = _float_lines(tmp_path, x)
    assert lines == ["%.17g" % v for v in x.tolist()]
    assert lines[:2] == ["1.0000076293945312", "1.0000228881835938"]   # ties to even


def test_block_longer_than_row_group_equals_its_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_GROUP_ROWS", 64)
    rng = np.random.default_rng(3)
    n = 3 * 64 + 5
    cols = (np.arange(n) - 50, rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n),
            np.array(["a", "", "xyz"])[rng.integers(0, 3, n)], rng.random(n) < 0.5,
            np.array([b"1,0.5", b"", b"-7"])[rng.integers(0, 3, n)])
    header = ("i", "x", "s", "b", "st")
    (tmp_path / "whole").mkdir()
    (tmp_path / "rows").mkdir()
    whole, count = _written(tmp_path / "whole", header, [cols])
    rows = [tuple(c[i] for c in cols) for i in range(n)]
    assert (whole, count) == _written(tmp_path / "rows", header, rows)
    lines = [",".join(header)] + [f"{i},{x:.17g},{s},{int(b)},{st.decode()}"
                                  for i, x, s, b, st in rows]
    assert whole == ("\n".join(lines) + "\n").encode()


def test_writer_memory_bounded_by_row_group(tmp_path):
    cli._tables()                          # built once per process, on first use
    peaks = []
    for rows in (20_000, 200_000):
        cols = tuple(np.random.default_rng(rows).standard_normal((3, rows)))
        tracemalloc.start()
        try:
            cli._write_csv_blocks(str(tmp_path), f"m{rows}.csv", ("a", "b", "c"), [cols])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4e6
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


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


def test_constant_drift_of_wrong_length_exits_2(tmp_path, capsys):
    doc = _simulate_cfg(tmp_path)
    doc["model"]["drift"] = {"form": "constant", "values": [1.0, 0.0, 0.0]}
    rc = main(["run", _write(tmp_path, doc)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error - $.model: ")


@pytest.mark.parametrize("theta", [0.25, 0.75])
def test_increments_with_truncated_variant_exits_2(tmp_path, capsys, theta):
    # increments are measured on the chamber, so only the exact scheme runs
    doc = _simulate_cfg(tmp_path)
    doc["scheme"] = {"variant": "truncated", "theta": theta}
    doc["experiment"] = {"kind": "increments", "lags": [0.125, 0.25]}
    rc = main(["run", _write(tmp_path, doc)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err == ["config error - $.scheme.variant: increments requires the exact variant"]
    assert not (tmp_path / "out").exists()


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.json")])
    assert rc == 1


@pytest.mark.parametrize("command", ["describe", "run"])
def test_huge_cap_multiplier_exits_2_naming_the_cap(command, tmp_path, capsys):
    # c = 1e200 parses, but eps_n^2 overflows, so the capped step's
    # contraction factor L h / eps_n^2 is 0 and certifies nothing
    doc = json.loads((CONFIGS / "type_b_exit.json").read_text())
    doc["scheme"] = {"variant": "truncated", "theta": 0.0, "c": 1e200}
    doc["run"]["output_dir"] = str(tmp_path / "out")
    assert main([command, _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "cap level" in err[0]


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


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    doc = _simulate_cfg(tmp_path)
    doc["model"]["root_system"] = {"type": "A", "d": 3}
    doc["model"]["xi"] = [1.0, 0.0, -1.0]
    doc["run"].update({"M": 5, "n": 2})
    out_dir = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc)]) == 0
    before = {f: (out_dir / f).read_bytes() for f in ("paths.csv", "summary.json")}

    with monkeypatch.context() as patch:
        patch.setattr(stepping, "_SOLVER_TOL", 1e-300)  # never certified
        rc = main(["run", _write(tmp_path, doc)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err

    # a failure in the third chunk, after two chunks' rows were streamed
    monkeypatch.setattr(mc, "_MAX_CHUNK", 2)
    calls = _record_batches(monkeypatch, fail_call=3)
    rc = main(["run", _write(tmp_path, doc)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err
    assert calls == [2, 2, 1]
    assert not (out_dir / "paths.csv.tmp").exists()
    assert {f: (out_dir / f).read_bytes() for f in before} == before


def test_capped_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    """A truncated B(2) run whose capped step cannot certify in one Newton
    iteration exits 3 and names the step and the paths."""
    doc = _simulate_cfg(tmp_path)
    doc["model"]["root_system"] = {"type": "B", "d": 2}
    doc["model"]["xi"] = [0.6, 0.3]
    doc["model"]["k"] = [5.0, 5.0]
    doc["scheme"] = {"variant": "truncated", "theta": 0.0, "c": 1.1}
    doc["run"].update({"M": 16, "n": 8})
    path = _write(tmp_path, doc)
    assert main(["run", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(stepping, "_NEWTON_CAP", 1)
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "implicit step failed at step" in err
    assert "hit the cap of 1 iterations" in err


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


def test_runs_leave_scipy_out(tmp_path):
    # the fits of a convergence run and of a chamber-exit run read the
    # tabulated t-quantile, so no scipy module is ever loaded
    conv = _simulate_cfg(tmp_path)
    conv["experiment"] = {"kind": "convergence"}
    conv["run"].pop("n")
    conv["run"].update({"M": 128, "n_list": [8, 16, 32], "n_ref": 64})
    exit_ = _simulate_cfg(tmp_path)
    exit_["model"] = {**exit_["model"], "root_system": {"type": "B", "d": 2},
                      "xi": [0.6, 0.3], "k": [5.0, 5.0]}
    exit_["scheme"]["variant"] = "truncated"
    exit_["experiment"] = {"kind": "chamber-exit"}
    exit_["run"].pop("n")
    exit_["run"].update({"M": 64, "n_list": [4, 8, 16]})
    code = ("import sys, dunklsim.cli\n"
            f"assert dunklsim.cli.main(['run', {_write(tmp_path, conv, 'conv.json')!r}]) == 0\n"
            f"assert dunklsim.cli.main(['run', {_write(tmp_path, exit_, 'exit.json')!r}]) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["results"]["decay_slope"] is not None


def test_module_entry_point(tmp_path):
    cfg = _write(tmp_path, _simulate_cfg(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "dunklsim.cli", "describe", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "root system" in proc.stdout
