"""dunklsim benchmark: run one workload, check it, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload in turn

Run from anywhere; the package is imported from `src/` beside this
directory, so no install is needed.  Each workload runs in a fresh
interpreter (bench/worker.py) with one thread budget and one BLAS thread,
and repeats its experiment there for about --seconds.  Set-up is
timed in that interpreter and in SETUP_PROBES more fresh ones, from
process start, and reported as the median.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
BENCHMARK.json and bench/NOTES.md).  Lines before it give the run record,
each metric with its sample count, and the medians `wall_s`, `cpu_s` and
`path_steps_per_s` beside the gated slowest-experiment figures.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUP_PROBES = 2
TIME_LIMIT = 170.0
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Unit of a metric, by the suffix of its name; anything else is a count.
_UNITS = (("path_steps_per_s", "path-steps/s"), ("bytes_per_s", "B/s"),
          ("normals_per_s", "normals/s"), ("iters_per_step", "iters/step"),
          ("_mb", "MB"), ("bytes", "B"), ("_s", "s"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _unit(name: str) -> str:
    return next((u for suffix, u in _UNITS if name.endswith(suffix)), "count")


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; returns its result and its start time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    env = dict(os.environ, **ONE_THREAD)
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            cwd=str(ROOT))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded the {TIME_LIMIT:g} s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1]), started
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median of {len(values)}; quartiles {q1:.6g}..{q3:.6g}, "
            f"max {max(values):.6g}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its record and metrics; return its result."""
    deadline = time.monotonic() + TIME_LIMIT
    work = SCRATCH / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = workloads.make_config(name, seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    spans = SCRATCH / f"spans-{name}-seed{seed}.jsonl"
    args = ["--config", str(cfg_path), "--out", str(work / "out"),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        setups = [_worker(["--config", str(cfg_path), "--probe"], deadline)
                  for _ in range(SETUP_PROBES)]
        setups.append(_worker(args + (["--spans", str(spans)] if trace else []),
                              deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = setups[-1][0]
    reps = res["reps"]
    plain = [r for r in reps if not r["traced"]]
    failed = [r for r in reps if r["problems"]]
    checked = next((r for r in reps if "audit_residual" in r), {})
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "git_sha": _git_sha(),
              "nproc": len(os.sched_getaffinity(0)), **res["versions"],
              "src_lines": _src_lines(),
              "output_digest": next((r["digest"] for r in reps if r["digest"]), None),
              "audit_residual": checked.get("audit_residual")}
    print("run-record " + json.dumps(record))
    for problem in sorted({p for r in failed for p in r["problems"]}):
        print(f"FAILED {name}: {problem}")

    if trace:
        traced = [r for r in reps if "layers" in r]
        if not traced:
            raise BenchError("no traced experiment completed")
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p, _ in setups)
        metrics["config.load_s"] = statistics.median(p["load_s"] for p, _ in setups)
        metrics["trace.wall_s"] = statistics.median(r["wall"] for r in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(r["wall"] for r in plain)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - metrics["trace.untraced_wall_s"])
        metrics.update(res["sweep"])
        print(f"  spans of {len(traced)} traced experiments in {spans}")
        for k, v in sorted(metrics.items()):
            print(f"  {k:<44} {v:.6g} {_unit(k)}")
    else:
        steps = workloads.path_steps(cfg)
        walls = [r["wall"] for r in plain]
        cpus = [r["cpu"] for r in plain]
        setup = [p["setup_done"] - t for p, t in setups]
        # The gated timings come from the run's slowest experiment; see
        # NOTES.md for why on a shared machine that repeats best.
        metrics = {"wall_max_s": max(walls), "cpu_max_s": max(cpus),
                   "worst_path_steps_per_s": steps / max(walls),
                   "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
                   "setup_s": statistics.median(setup)}
        wall = statistics.median(walls)
        for k, v, note in (
                ("wall_s", wall, _spread(walls)),
                ("wall_max_s", metrics["wall_max_s"], f"slowest of {len(walls)}"),
                ("cpu_s", statistics.median(cpus), _spread(cpus)),
                ("cpu_max_s", metrics["cpu_max_s"], f"largest of {len(cpus)}"),
                ("path_steps_per_s", steps / wall, f"{steps} path-steps / wall_s"),
                ("worst_path_steps_per_s", metrics["worst_path_steps_per_s"],
                 f"{steps} path-steps / wall_max_s"),
                ("peak_rss_mb", metrics["peak_rss_mb"],
                 f"peak of the process over {len(reps)} experiments"),
                ("setup_s", metrics["setup_s"], _spread(setup))):
            print(f"  {k:<22} {v:.6g} {_unit(k)} ({note})")
    print(f"  failed_fraction        {len(failed) / len(reps):.6g} "
          f"({len(failed)} of {len(reps)} experiments)")
    return {"correct": not failed, "attempted": len(reps), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": _unit(k)}
                        for k, v in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "dunklsim" / "__init__.py").is_file():
        print(f"no dunklsim sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63:
        print("--seed must be a nonnegative 63-bit integer", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            print(f"workload {name}")
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
