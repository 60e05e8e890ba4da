"""Command-line front end.

    dunklsim run <config.json>       execute the configured experiment
    dunklsim describe <config.json>  print derived quantities and warnings
    dunklsim validate <config.json>  check axioms and model assumptions

Outputs land in the run's output directory: one CSV per experiment (17
significant digits), summary.json with the headline numbers, and
manifest.json listing every file written.  Files are written atomically
(temp file + rename); `simulate` streams one chunk of paths at a time.

Exit codes: 0 success, 1 unwritable output, 2 invalid config or failed
validation, 3 solver failure.

The output directory comes from --output-dir if given, else the
DUNKLSIM_OUTPUT_DIR environment variable, else the config's run block.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from . import __version__
from .brownian import TimeGrid, batch_increments
from .config import _KINDS, ExperimentConfig, _cir_constants, load_config
from .errors import ConfigError, DunklSimError, FitError, SolverError
from .mc import (RATE_THRESHOLD, _chunk_size, chamber_exit, cir_mean_check, fit_order,
                 increment_scaling, negative_moments, strong_error)
from .model import _noise_lattice, lipschitz_scale, moment_threshold, validate_assumptions
from .roots import validate_axioms
from .scheme import _closed_form_ok, fixed_point_cap, run_batch, truncation_level


def _jsonable(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


@contextmanager
def _atomic_open(path: str):
    """Write to path.tmp, renamed over path on success and removed on any
    exception, so path is never left half written."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_csv_blocks(out_dir: str, name: str, header: tuple[str, ...], blocks) -> int:
    """Write the header, then each block of columns (scalars broadcast) as
    rows; returns the row count.  A column's dtype fixes its text: %d for
    int and bool, %.17g (17 significant digits) for float."""
    with _atomic_open(os.path.join(out_dir, name)) as fh:
        fh.write(",".join(header) + "\n")
        count = 0
        for block in blocks:
            cols = np.broadcast_arrays(*(np.atleast_1d(c) for c in block))
            row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\n"
            fh.write((row * len(cols[0]))
                     % tuple(chain.from_iterable(zip(*(c.tolist() for c in cols)))))
            count += len(cols[0])
    return count


def _write_json(out_dir: str, name: str, obj) -> None:
    with _atomic_open(os.path.join(out_dir, name)) as fh:
        fh.write(json.dumps(obj, indent=2, default=_jsonable) + "\n")


def _try_fit(curve):
    try:
        f = fit_order(curve)
        return {"slope": f.slope, "intercept": f.intercept,
                "half_width": f.half_width}
    except FitError:
        return None


def _run_experiment(cfg: ExperimentConfig, out_dir: str,
                    threads: int) -> tuple[dict, list[tuple[str, int]], bool]:
    """Execute cfg's experiment; returns (results, files-with-row-counts, ok)."""
    m = cfg.model
    s = cfg.scheme
    seed = cfg.master_seed
    csv = None  # (file name, header, blocks of columns)
    ok = True

    if cfg.kind == "simulate":
        sch = s.resolve(cfg.n)
        steps = np.arange(cfg.n + 1)
        times = TimeGrid(cfg.n, m.T).times
        chunk = _chunk_size(cfg.n, max(m.brownian_dim, m.dim))
        results = {"exited_paths": 0, "M": cfg.M, "n": cfg.n}

        def blocks():
            # One chunk of paths at a time, in path order, one block per
            # path; exited_paths is complete once the writer has drained this.
            for start in range(0, cfg.M, chunk):
                ids = np.arange(start, min(start + chunk, cfg.M))
                res = run_batch(m, sch, batch_increments(m.brownian_dim, cfg.n, m.T,
                                                         seed, ids), record_flags=True)
                results["exited_paths"] += int(np.count_nonzero(res.first_violation >= 0))
                for pid, x, flags in zip(ids, res.states, res.in_chamber):
                    yield (pid, steps, times, *x.T, flags)

        csv = ("paths.csv", ("path_id", "step", "t", *(f"x_{i}" for i in range(m.dim)),
                             "in_chamber"), blocks())

    elif cfg.kind == "convergence":
        curve = strong_error(m, s.theta, cfg.n_list, cfg.n_ref, cfg.M, seed,
                             variant=s.variant, c=s.c,
                             solver_tol=s.solver_tol, threads=threads)
        csv = ("convergence.csv", ("n", "rms_sup_error", "std_error", "M", "n_ref"),
               [(curve.n_values, curve.rms_errors, curve.std_errors, curve.M, curve.n_ref)])
        results = {"fit": _try_fit(curve), "variant": curve.variant,
                   "M": curve.M, "n_ref": curve.n_ref}

    elif cfg.kind == "moments":
        rep = negative_moments(m, cfg.params["p"], s.theta, cfg.n, cfg.M, seed,
                               pathwise_sup=cfg.params["pathwise_sup"],
                               solver_tol=s.solver_tol, threads=threads)
        csv = ("moments.csv", ("root_index", "t", "p", "estimate", "std_error"),
               [(ri, rep.times, rep.p, est, se)
                for ri, (est, se) in enumerate(zip(rep.estimates, rep.std_errors))])
        results = {"p": rep.p, "max_estimate": rep.max_estimate, "M": rep.M}
        if rep.sup_estimates is not None:
            results["sup_estimates"] = rep.sup_estimates
            results["sup_std_errors"] = rep.sup_std_errors

    elif cfg.kind == "increments":
        rep = increment_scaling(m, s.theta, cfg.n, cfg.M, cfg.params["lags"],
                                seed, solver_tol=s.solver_tol, threads=threads)
        csv = ("increments.csv", ("lag", "mean_square_increment", "std_error"),
               [(rep.lags, rep.estimates, rep.std_errors)])
        results = {"slope": rep.slope, "M": rep.M, "n": rep.n}

    elif cfg.kind == "chamber-exit":
        rep = chamber_exit(m, s.theta, s.c, cfg.n_list, cfg.M, seed,
                           variant=s.variant, solver_tol=s.solver_tol,
                           threads=threads)
        csv = ("exit.csv", ("n", "exit_fraction", "ci_low", "ci_high"),
               [(rep.n_values, rep.fractions, rep.ci_low, rep.ci_high)])
        results = {"counts": list(rep.counts), "decay_slope": rep.decay_slope,
                   "M": rep.M}

    elif cfg.kind == "cir-check":
        k0, sigma0, lam0, xi0, T = _cir_constants(m)
        rep = cir_mean_check(k0, sigma0, lam0, xi0, T, s.theta, cfg.n, cfg.M,
                             seed, solver_tol=s.solver_tol, threads=threads)
        csv = ("cir.csv", ("mc_mean", "std_error", "ode_mean", "z_score", "n", "M"),
               [(rep.mc_mean, rep.std_error, rep.ode_mean, rep.z_score, rep.n, rep.M)])
        results = {"mc_mean": rep.mc_mean, "std_error": rep.std_error,
                   "ode_mean": rep.ode_mean, "z_score": rep.z_score}

    elif cfg.kind == "validate":
        results = _validate(m, cfg.params["samples"], cfg.params["tol"])
        ok = results["passed"]

    else:  # pragma: no cover - kinds are closed by the config parser
        raise ConfigError([f"unhandled experiment kind {cfg.kind!r}"])

    files = [] if csv is None else [(csv[0], _write_csv_blocks(out_dir, *csv))]
    return results, files, ok


# The five assumption checks of a report: field name and printed label.
_ASSUMPTION_CHECKS = (("drift_regular", "drift regularity"),
                      ("sigma_regular", "diffusion regularity"),
                      ("strength_dominates_noise", "repulsion dominates noise"),
                      ("drift_alignment", "drift chamber alignment"),
                      ("pairing_identity", "weighted pairing identity"))


def _validate(m, samples: int, tol: float) -> dict:
    """Root-system axioms and model assumptions of `m`; "passed" is the verdict."""
    ax = validate_axioms(m.rs)
    rep = validate_assumptions(m, sample_count=samples, tol=tol)
    return {
        "axioms": {
            "passed": ax.passed,
            "no_parallel_pass": ax.no_parallel_pass,
            "reflection_pass": ax.reflection_pass,
            "worst_reflection_residual": ax.worst_reflection_residual,
        },
        "assumptions": {
            **{name: asdict(getattr(rep, name)) for name, _ in _ASSUMPTION_CHECKS},
            "alignment_bound": rep.alignment_bound,
        },
        "passed": ax.passed and rep.all_ok(),
    }


def _resolve_output_dir(cfg: ExperimentConfig, flag: str | None) -> str:
    if flag:
        return flag
    env = os.environ.get("DUNKLSIM_OUTPUT_DIR")
    if env:
        return env
    return cfg.output_dir


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = _resolve_output_dir(cfg, args.output_dir)
    threads = args.threads if args.threads is not None else cfg.threads

    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, ".write-probe")
    with open(probe, "w") as fh:
        fh.write("")
    os.remove(probe)

    started = datetime.now(timezone.utc).isoformat()
    results, files, ok = _run_experiment(cfg, out_dir, threads)

    summary = {"kind": cfg.kind, "master_seed": cfg.master_seed,
               "results": results, "config": cfg.raw}
    _write_json(out_dir, "summary.json", summary)
    manifest = {
        "tool": "dunklsim",
        "version": __version__,
        "kind": cfg.kind,
        "master_seed": cfg.master_seed,
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "config": cfg.raw,
        "outputs": [{"path": name, "rows": rows} for name, rows in files]
                   + [{"path": "summary.json", "rows": None}],
    }
    _write_json(out_dir, "manifest.json", manifest)

    for name, rows in files:
        print(f"wrote {os.path.join(out_dir, name)} ({rows} rows)")
    print(f"wrote {os.path.join(out_dir, 'summary.json')}")
    print(f"wrote {os.path.join(out_dir, 'manifest.json')}")
    if not ok:
        print("validation failed; see summary.json", file=sys.stderr)
        return 2
    return 0


def cmd_describe(args) -> int:
    cfg = load_config(args.config)
    m = cfg.model
    s = cfg.scheme
    L = lipschitz_scale(m)
    p_star = moment_threshold(m)
    sigma_sup = float(np.max(_noise_lattice(m)[1]))

    print(f"root system        : dimension {m.dim}, {m.rs.n_roots} positive "
          f"roots in {m.rs.n_orbits} orbit(s)")
    print(f"horizon            : T = {m.T:g}")
    print(f"start point        : {tuple(round(v, 12) for v in m.xi)}")
    print(f"scheme             : {s.variant} theta-EM, theta = {s.theta:g}")
    print(f"repulsion scale L  : {L:.17g}")
    print(f"diffusion size sup : {sigma_sup:.17g}")
    if p_star == float("inf"):
        print("moment threshold   : infinite (no diffusion)")
    else:
        print(f"moment threshold   : {p_star:.17g}")

    grids = list(cfg.n_list or ())
    if cfg.n is not None and cfg.n not in grids:
        grids.append(cfg.n)
    if cfg.n_ref is not None and cfg.n_ref not in grids:
        grids.append(cfg.n_ref)
    for n in sorted(grids):
        line = f"grid n = {n:<8d}: dt = {m.T / n:.17g}"
        if s.variant == "truncated":
            cfg_n = s.resolve(n)
            line += (f", cap level = {truncation_level(m, cfg_n):.17g}, "
                     + ("closed-form step" if _closed_form_ok(m.rs)
                        else f"fixed-point cap m* = {fixed_point_cap(m, cfg_n)}"))
        print(line)

    need = RATE_THRESHOLD[s.variant]
    if p_star <= need:
        print(f"warning: moment threshold {p_star:g} <= {need:g}; the "
              f"{s.variant} scheme's strong-rate guarantee does not cover "
              "this model")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    res = _validate(cfg.model, args.samples, args.tol)
    ax = res["axioms"]
    print(f"axioms                    : {'PASS' if ax['passed'] else 'FAIL'} "
          f"(worst reflection residual {ax['worst_reflection_residual']:.3g})")
    for name, label in _ASSUMPTION_CHECKS:
        check = res["assumptions"][name]
        print(f"{label:<26}: {check['status'].upper()} ({check['detail']})")
    print(f"overall                   : {'PASS' if res['passed'] else 'FAIL'}")
    return 0 if res["passed"] else 2


def _positive(kind):
    """argparse type: a positive finite `kind`, as the config requires."""
    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as an invalid value
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunklsim",
        description="Simulation lab for repelling particle systems in a Weyl chamber.")
    parser.add_argument("--version", action="version",
                        version=f"dunklsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the experiment in a config file")
    p_run.add_argument("config", help="path to a JSON config")
    p_run.add_argument("--output-dir", default=None,
                       help="override the output directory")
    p_run.add_argument("--threads", type=int, default=None,
                       help="override the thread budget (results never depend on it)")
    p_run.set_defaults(func=cmd_run)

    p_desc = sub.add_parser("describe",
                            help="print derived quantities without running")
    p_desc.add_argument("config", help="path to a JSON config")
    p_desc.set_defaults(func=cmd_describe)

    p_val = sub.add_parser("validate",
                           help="check root-system axioms and model assumptions")
    p_val.add_argument("config", help="path to a JSON config")
    defaults = {key: default for key, (_, default) in _KINDS["validate"][0].items()}
    p_val.add_argument("--samples", type=_positive(int), default=defaults["samples"],
                       help="interior sample points for the identity check (>= 1)")
    p_val.add_argument("--tol", type=_positive(float), default=defaults["tol"],
                       help="relative tolerance for the identity check (> 0)")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.problems:
            print(f"config error - {line}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except DunklSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
