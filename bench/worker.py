"""One benchmark process: set up dunklsim, then run one workload's
experiment through `dunklsim.cli.main` for about --seconds.

    python3 bench/worker.py --config CFG.json --out DIR \
        --seconds S [--trace 0|1] [--spans FILE]
    python3 bench/worker.py --config CFG.json --probe

`bench/run.py` starts it in a fresh interpreter per workload and reads
the JSON object it prints last.  The package is imported from `src/`
beside `bench/`.  Set-up (importing the package and loading the config)
is timed first, before anything else imports numpy; with --probe the
process stops there.
Each experiment is timed from the `cli.main` call to its return, and its
outputs are checked after that interval.  With --trace 1 untraced and
traced experiments alternate in pairs, so the tracing overhead is measured
in the same process, and the `scheme` sweep runs afterwards.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

# `checks` and `tracing` load numpy, so the functions that need them import
# them after set-up is timed: `import dunklsim` then pays numpy's import, as
# it does for a `dunklsim run` user.
SRC = Path(__file__).resolve().parent.parent / "src"
MIN_SAMPLES = 3
SWEEP_PATHS = 1024
SWEEP_STEPS = 256


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _rate(count, seconds):
    return count / seconds if seconds > 0.0 else 0.0


def _layer_metrics(spans, first: int, csv_bytes: int) -> dict:
    """Per-layer self time, work counts and rates of one traced experiment,
    whose spans start at index `first` of the recorder."""
    from tracing import self_times

    out = dict.fromkeys(("cli.self_s", "mc.self_s", "scheme.self_s",
                         "reductions.self_s", "brownian.increments_s",
                         "brownian.coarsen_s"), 0.0)
    n = dict.fromkeys(("brownian.normals", "brownian.coarsen_bytes",
                       "scheme.path_steps", "reductions.bytes"), 0)
    var_time = dict.fromkeys(("exact", "truncated", "closed_form"), 0.0)
    var_steps = dict.fromkeys(var_time, 0)
    var_iters = dict.fromkeys(var_time, 0)
    peak_state = 0
    for sp, own in zip(spans, self_times(spans, first)):
        c = sp.counts
        if sp.name == "brownian.batch_increments":
            out["brownian.increments_s"] += own
            n["brownian.normals"] += c["normals"]
        elif sp.name == "brownian.coarsen":
            out["brownian.coarsen_s"] += own
            n["brownian.coarsen_bytes"] += c["bytes"]
        elif sp.layer == "scheme":
            out["scheme.self_s"] += own
            n["scheme.path_steps"] += c["path_steps"]
            var_time[c["variant"]] += sp.end - sp.start
            var_steps[c["variant"]] += c["path_steps"]
            var_iters[c["variant"]] += c["iterations"]
            peak_state = max(peak_state, c["state_bytes"])
        elif sp.layer == "reductions":
            out["reductions.self_s"] += own
            n["reductions.bytes"] += c["bytes"]
        elif sp.layer in ("cli", "mc"):
            out[f"{sp.layer}.self_s"] += own

    out.update(n)
    out["brownian.normals_per_s"] = _rate(n["brownian.normals"],
                                          out["brownian.increments_s"])
    out["brownian.coarsen_bytes_per_s"] = _rate(n["brownian.coarsen_bytes"],
                                                out["brownian.coarsen_s"])
    out["reductions.bytes_per_s"] = _rate(n["reductions.bytes"],
                                          out["reductions.self_s"])
    out["cli.csv_bytes"] = csv_bytes
    out["cli.csv_bytes_per_s"] = _rate(csv_bytes, out["cli.self_s"])
    out["scheme.peak_state_mb"] = peak_state / 2 ** 20
    for v in var_time:
        out[f"scheme.{v}.path_steps_per_s"] = _rate(var_steps[v], var_time[v])
    for v in ("exact", "truncated"):
        out[f"stepping.{v}.iters"] = var_iters[v]
        out[f"stepping.{v}.iters_per_step"] = _rate(var_iters[v], var_steps[v])
    return out


def _sweep(seed: int) -> dict:
    """run_batch throughput and solver iterations per root system x variant."""
    import numpy as np
    from dunklsim import bessel_model, dyson_model
    from dunklsim.brownian import batch_increments
    from dunklsim.scheme import SchemeConfig, run_batch

    systems = {"d1": bessel_model(k=4.0), "A2": dyson_model(2, k=4.0),
               "A3": dyson_model(3, k=4.0), "A5": dyson_model(5, k=4.0)}
    steps = SWEEP_PATHS * SWEEP_STEPS
    out = {}
    for name, m in systems.items():
        inc = batch_increments(m.brownian_dim, SWEEP_STEPS, m.T, seed,
                               np.arange(SWEEP_PATHS))
        for variant in ("exact", "truncated"):
            cfg = SchemeConfig(variant=variant, theta=0.0, n=SWEEP_STEPS, c=1.1)
            t0 = time.perf_counter()
            res = run_batch(m, cfg, inc, record_iterations=True)
            dt = time.perf_counter() - t0
            key = f"scheme.sweep.{name}.{variant}"
            out[f"{key}.path_steps_per_s"] = steps / dt
            out[f"{key}.iters_per_step"] = float(res.iterations.sum()) / steps
    return out


def _versions() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def _experiment(cli, tracer, args, doc: dict, check: bool) -> dict:
    """Run and time one experiment, then check or digest its outputs."""
    import checks

    kind = doc["experiment"]["kind"]
    shutil.rmtree(args.out, ignore_errors=True)
    argv = ["run", args.config, "--output-dir", args.out, "--threads", "1"]
    first_span = len(tracer.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            rc = tracer.span("cli.main", "cli", cli.main, argv)
        except Exception as exc:  # a crash is a failed experiment, not a lost run
            traceback.print_exc()
            rc = f"raised {type(exc).__name__}"
        t1 = time.perf_counter()
        c1 = _cpu_s()
    res = {"wall": t1 - t0, "cpu": c1 - c0, "traced": tracer.enabled,
           "digest": None, "problems": []}
    if rc != 0:
        res["problems"] = [f"exit code {rc}"]
        return res
    res["digest"] = checks.output_digest(args.out, kind)
    if check:
        res["problems"] = checks.check_outputs(doc, args.out)
        if kind == "simulate" and not res["problems"]:
            resid, margin = checks.audit_simulation(args.config, args.out)
            res["audit_residual"] = resid
            if not resid <= checks.AUDIT_TOL:
                res["problems"].append(f"audit residual {resid:.3g} above "
                                       f"{checks.AUDIT_TOL:g}")
            if not margin > 0.0:
                res["problems"].append(f"a written state is outside the open "
                                       f"chamber (root pairing {margin:.3g})")
    if tracer.enabled:
        csv_bytes = os.path.getsize(os.path.join(args.out, checks.CSV_NAME[kind]))
        res["layers"] = _layer_metrics(tracer.spans[first_span:], first_span,
                                       csv_bytes)
    return res


def _run_experiments(cli, args, doc: dict) -> list[dict]:
    """Repeat the experiment for about --seconds.

    The first experiment whose CLI call succeeds is checked in full; every
    later one must write the same bytes, and so shares its verdict.
    Traced runs alternate untraced and traced experiments in pairs.
    """
    from tracing import Tracer

    tracer = Tracer()
    if args.trace:
        tracer.install()
    reps: list[dict] = []
    reference = None
    start = time.perf_counter()
    while True:
        # ABBA order: successive experiments in one process alternate in
        # speed, so each mode takes as many odd places as even ones.
        tracer.enabled = bool(args.trace) and len(reps) % 4 in (1, 2)
        tracer.run = len(reps)
        rep = _experiment(cli, tracer, args, doc, check=reference is None)
        if rep["digest"] is not None:
            if reference is None:
                reference = rep
            elif rep["digest"] != reference["digest"]:
                rep["problems"] = ["outputs differ from the first experiment"]
            else:
                rep["problems"] = reference["problems"]
        reps.append(rep)
        plain = sum(1 for r in reps if not r["traced"])
        enough = plain >= MIN_SAMPLES and len(reps) - plain >= 2 * args.trace
        elapsed = time.perf_counter() - start
        # Stop when one more experiment would likely overrun the budget.
        if enough and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    shutil.rmtree(args.out, ignore_errors=True)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(sp) + "\n" for sp in tracer.records())
    return reps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dunklsim
    import dunklsim.cli as cli
    t1 = time.perf_counter()
    dunklsim.load_config(args.config)
    t2 = time.perf_counter()
    result = {"setup_done": time.monotonic(), "import_s": t1 - t0,
              "load_s": t2 - t1}
    if SRC not in Path(dunklsim.__file__).resolve().parents:
        print(f"dunklsim imported from {dunklsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps(result))
        return 0

    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    result["reps"] = _run_experiments(cli, args, doc)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = _versions()
    if args.trace:
        result["sweep"] = _sweep(doc["run"]["master_seed"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
