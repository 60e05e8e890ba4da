"""Correctness checks on one experiment's output directory.

The checks follow the guarantees the paper and README state and use
tolerances, never golden bytes, so output changes at the rounding level do
not count as failures.  Each check returns a list of problems; an empty
list means the experiment passed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# What a run writes besides manifest.json, which carries timestamps.
CSV_NAME = {"convergence": "convergence.csv", "chamber-exit": "exit.csv",
            "simulate": "paths.csv", "moments": "moments.csv"}

AUDIT_TOL = 1e-9
MIN_SLOPE = -0.40
MAX_FINAL_EXIT = 0.05


def output_digest(out_dir: str, kind: str) -> str:
    """sha256 over the CSV and summary.json, the files that must repeat."""
    h = hashlib.sha256()
    for name in (CSV_NAME[kind], "summary.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)["results"]


def _convergence(cfg: dict, out_dir: str) -> list[str]:
    rows = _rows(os.path.join(out_dir, "convergence.csv"))
    errors = [float(r["rms_sup_error"]) for r in rows]
    probs = []
    if [int(r["n"]) for r in rows] != cfg["run"]["n_list"]:
        probs.append("convergence.csv does not list the configured grids")
    if not all(a > b for a, b in zip(errors, errors[1:])):
        probs.append(f"errors not strictly decreasing: {errors}")
    fit = _summary(out_dir)["fit"]
    if fit is None or not fit["slope"] <= MIN_SLOPE:
        probs.append(f"fitted slope {fit and fit['slope']} above {MIN_SLOPE}")
    return probs


def _chamber_exit(cfg: dict, out_dir: str) -> list[str]:
    rows = _rows(os.path.join(out_dir, "exit.csv"))
    f = [float(r["exit_fraction"]) for r in rows]
    lo = [float(r["ci_low"]) for r in rows]
    hi = [float(r["ci_high"]) for r in rows]
    probs = []
    if [int(r["n"]) for r in rows] != cfg["run"]["n_list"]:
        probs.append("exit.csv does not list the configured grids")
    for j in range(1, len(f)):
        if f[j] > f[j - 1] and lo[j] > hi[j - 1]:
            probs.append(f"exit fraction rises beyond CI overlap at row {j}: {f}")
    if not f or f[-1] > MAX_FINAL_EXIT:
        probs.append(f"final exit fraction {f[-1:]} above {MAX_FINAL_EXIT}")
    return probs


def _simulate(cfg: dict, out_dir: str) -> list[str]:
    run = cfg["run"]
    table = np.loadtxt(os.path.join(out_dir, "paths.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    probs = []
    if table.shape[0] != run["M"] * (run["n"] + 1):
        probs.append(f"paths.csv has {table.shape[0]} rows, "
                     f"want {run['M'] * (run['n'] + 1)}")
    elif not np.all(table[:, -1] == 1.0):
        probs.append("a state is flagged outside the chamber")
    if _summary(out_dir)["exited_paths"] != 0:
        probs.append("summary reports exited paths")
    return probs


def _moments(cfg: dict, out_dir: str) -> list[str]:
    rows = _rows(os.path.join(out_dir, "moments.csv"))
    est = np.array([float(r["estimate"]) for r in rows])
    se = np.array([float(r["std_error"]) for r in rows])
    res = _summary(out_dir)
    sup_est = np.asarray(res.get("sup_estimates", [math.nan]), dtype=float)
    sup_se = np.asarray(res.get("sup_std_errors", [math.nan]), dtype=float)
    probs = []
    if est.size != cfg["run"]["n"] + 1:
        probs.append(f"moments.csv has {est.size} rows, want {cfg['run']['n'] + 1}")
    for name, v in (("estimate", est), ("std_error", se),
                    ("sup_estimate", sup_est), ("sup_std_error", sup_se)):
        if not np.all(np.isfinite(v)):
            probs.append(f"non-finite {name}")
    if not (np.all(est > 0.0) and np.all(sup_est > 0.0)):
        probs.append("a moment estimate is not positive")
    return probs


_CHECKS = {"convergence": _convergence, "chamber-exit": _chamber_exit,
           "simulate": _simulate, "moments": _moments}


def check_outputs(cfg: dict, out_dir: str) -> list[str]:
    """Problems with the files one experiment wrote into out_dir."""
    try:
        return _CHECKS[cfg["experiment"]["kind"]](cfg, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def audit_simulation(cfg_path: str, out_dir: str) -> tuple[float, float]:
    """Largest step-equation residual and smallest root pairing of the
    simulated paths in paths.csv.

    Regenerates the increments from the config's seed and checks the
    written states against the scheme's defining equations, so it verifies
    the engine's output independently of how the engine solved them.  The
    pairing <alpha, x> over every positive root and written state must be
    positive: the states stay in the open Weyl chamber.
    """
    from dunklsim.brownian import batch_increments
    from dunklsim.config import load_config
    from dunklsim.scheme import audit_batch

    cfg = load_config(cfg_path)
    m = cfg.model
    table = np.loadtxt(os.path.join(out_dir, "paths.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    states = table[:, 3:3 + m.dim].reshape(cfg.M, cfg.n + 1, m.dim)
    inc = batch_increments(m.brownian_dim, cfg.n, m.T, cfg.master_seed,
                           np.arange(cfg.M))
    resid = float(audit_batch(m, cfg.scheme.resolve(cfg.n), inc, states).max())
    return resid, float(m.rs.pairings(states).min())
