"""Command-line front end.

    dunklsim run <config.json>       execute the configured experiment
    dunklsim describe <config.json>  print derived quantities and warnings
    dunklsim validate <config.json>  check axioms and model assumptions

Outputs land in the run's output directory: one CSV per experiment (17
significant digits), summary.json with the headline numbers, and
manifest.json listing every file written and the process's peak RSS.
Files are written atomically (temp file + rename); `simulate` streams one
chunk of paths at a time.

CSV bytes are those of per-value formatting: '%.17g' for floats, '%d' for
ints and flags.  The writer builds them in numpy, _GROUP_ROWS rows at a
time, so its buffers stay under about 2 MB for any row count.  A float
with 1e-4 <= |x| < 1e16, where %g writes fixed notation, is spelled from
its correctly rounded 17-digit decimal, computed exactly with Dekker's
error-free product; any other float (0, -0, nan, inf, tiny or huge) is
formatted on its own, and each distinct int, flag or str value once.

Exit codes: 0 success, 1 unwritable output, 2 invalid config or failed
validation, 3 solver failure.

The output directory comes from --output-dir if given, else the
DUNKLSIM_OUTPUT_DIR environment variable, else the config's run block.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import groupby

import numpy as np

from . import __version__
from .brownian import TimeGrid, batch_increments
from .config import _KINDS, ExperimentConfig, _cir_constants, load_config
from .errors import ConfigError, DunklSimError, FitError, SolverError
from .mc import (_chunk_size, chamber_exit, cir_mean_check, fit_order, increment_scaling,
                 negative_moments, strong_error, threshold_warning)
from .model import _noise_lattice, lipschitz_scale, moment_threshold, validate_assumptions
from .roots import validate_axioms
from .scheme import _closed_form_ok, _plan, run_batch


def _jsonable(o):
    if isinstance(o, (np.integer, np.floating, np.ndarray)):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


@contextmanager
def _atomic_open(path: str):
    """Write bytes to path.tmp, renamed over path on success and removed on
    any exception, so path is never left half written."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


_GROUP_ROWS = 4096  # rows encoded at a time, which bounds the writer's buffers
_TABLES = None      # the float encoder's lookup tables, built on first use


def _tables():
    """Lookup tables of the float encoder: 0..9999 as 4-byte texts and
    their trailing decimal zeros, the byte masks of a float's 43-byte row
    by (sign, decimal exponent X in [-4, 15], index of the last nonzero
    digit), 5**q in Dekker halves and 10**j from j = -4.  The row reads
    "-", "000" and the 17 digits, ".", "000" and the 17 digits again, ","."""
    global _TABLES
    if _TABLES is not None:
        return _TABLES
    n = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # the digits of 0..9999
    words = (np.ascontiguousarray(n.T) + ord("0")).view(np.uint32)[:, 0]
    z = (n == 0).astype(np.intp)
    tz = z[3] * (1 + z[2] * (1 + z[1] * (1 + z[0])))
    neg, X, last = np.arange(2)[:, None, None, None], np.arange(-4, 16)[:, None, None], \
        np.arange(17)[:, None]
    c = np.arange(43)
    keep = np.select([c == 0, c < 21, c == 21, c < 42],
                     [neg == 1, (3 - (X < 0) <= c - 1) & (c - 1 <= np.maximum(X, -1) + 3),
                      (X < 0) | (last > X), (X + 4 <= c - 22) & (c - 22 <= last + 3)], True)
    b = np.array([float(5 ** q) for q in range(23)])
    bh = b * 134217729.0
    bh -= bh - b
    _TABLES = (words, tz, np.where(keep, 255, 0).astype(np.uint8).reshape(-1, 43), bh,
               b - bh, np.array([float(f"1e{j}") for j in range(-4, 18)]))
    for table in _TABLES:
        table.flags.writeable = False
    return _TABLES


def _scaled(v, k, bh, bl):
    """round-half-even(v * 10**(16 - k)) exactly: p + e = TwoProduct(v * 2**q,
    5**q) (Dekker), where p >= 2**53 is an even integer, so ties go to even."""
    q = 16 - k
    a = np.ldexp(v, q)
    bh, bl = np.take(bh, q), np.take(bl, q)
    p = a * (bh + bl)
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(e, out=e).astype(np.int64)


def _float_text(x, tables, text) -> None:
    """Write '%.17g' % x for the (rows, F) floats x into the (rows, F, 43)
    byte view, NUL where a byte is not part of the text.  Values with
    1e-4 <= |x| < 1e16, where %g uses fixed notation, are spelled from
    their 17 exact digits; the rest (0, nan, inf, tiny or huge values) are
    formatted one by one."""
    words, tz, masks, bh, bl, pow10 = tables
    x = x.ravel()
    v = np.abs(x)
    fixed = (v >= 1e-4) & (v < 1e16)
    v[~fixed] = 1.0
    # k = floor(log10(v)): binary exponent times log10(2) ~ 78913 / 2**18, then one test
    k = ((v.view(np.int64) >> 52) - 1023).astype(np.int32) * 78913 >> 18
    k += v >= np.take(pow10, k + 5)
    N = _scaled(v, k, bh, bl)
    off = (N >= 10 ** 17).astype(np.int32) - (N < 10 ** 16)
    if (redo := np.flatnonzero(off)).size:  # N rounded up to 10**17
        k[redo] += off[redo]
        N[redo] = _scaled(v[redo], k[redo], bh, bl)
        fixed[redo] &= (N[redo] >= 10 ** 16) & (N[redo] < 10 ** 17)
    # N in 4-digit groups, the first holding digit 0 alone
    g = np.empty((len(x), 5), np.intp)
    for j, scale in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        g[:, j] = N // scale
        N -= g[:, j] * scale
    g[:, 4] = N
    del v, N
    last = 16 - np.take(tz, g[:, 4])
    zero = np.flatnonzero(g[:, 4] == 0)
    for j in (3, 2, 1):  # rows whose later groups are zero; tz[0] = 4 ends on digit 0
        last[zero] = 4 * j - tz[g[zero, j]]
        zero = zero[g[zero, j] == 0]
    # each value's 20 digit bytes move as one record
    digits = np.take(words, g).view("V20").reshape(text.shape[:2] + (1,))
    del g
    text[..., 0] = ord("-")
    text[..., 1:21].view("V20")[...] = digits
    text[..., 21] = ord(".")
    text[..., 22:42].view("V20")[...] = digits
    text[..., 42] = ord(",")
    del digits
    last += k * 17 + (np.signbit(x) * 340 + 68)
    odd = np.flatnonzero(~fixed)
    last[odd] = 0
    text &= np.take(masks, last, axis=0).reshape(text.shape)
    if odd.size:
        s = np.array([b"%.17g" % f for f in x[odd].tolist()], dtype="S42")
        text[np.divmod(odd, text.shape[1]) + (slice(0, 42),)] = s.view(np.uint8).reshape(-1, 42)


def _text_field(c):
    """The NUL-padded text of an int, bool, str or bytes column: each
    distinct int, bool or str value is formatted once, then gathered;
    bytes are the text."""
    if c.dtype.kind != "S":
        vals, inv = np.unique(c, return_inverse=True)
        c = np.take(np.array([(v if c.dtype.kind == "U" else "%d" % v).encode()
                              for v in vals.tolist()]), inv)
    return np.ascontiguousarray(c).view(np.uint8).reshape(len(c), c.itemsize)


def _encode_rows(cols, tables) -> np.ndarray:
    """The CSV bytes of rows of equal-length columns: one byte matrix holds
    every field and separator, padded with NULs, which are then dropped."""
    rows = len(cols[0])
    fields = []  # (width, field text or a run of float columns)
    for is_float, run in groupby(cols, key=lambda c: c.dtype.kind not in "biuSU"):
        if is_float:
            run = np.stack(list(run), axis=1).astype(np.float64, copy=False)
            fields.append((43 * run.shape[1], run))
        else:
            fields += [(t.shape[1] + 1, t) for t in map(_text_field, run)]
    text = np.empty((rows, sum(w for w, _ in fields)), np.uint8)
    at = 0
    for w, field in fields:
        t = text[:, at:at + w]
        if field.dtype == np.uint8:
            t[:, :-1] = field
            t[:, -1] = ord(",")
        else:
            _float_text(field, tables, t.reshape(rows, -1, 43, copy=False))
        at += w
    text[:, -1] = ord("\n")
    return text[text != 0]


def _write_csv_blocks(out_dir: str, name: str, header: tuple[str, ...], blocks) -> int:
    """Write the header, then each block of columns (scalars broadcast) as
    rows; returns the row count.  A column's dtype fixes its text: %d for
    int and bool, %.17g (17 significant digits) for float, and the value
    itself for str and bytes (a NUL in one is dropped)."""
    tables = _tables()
    with _atomic_open(os.path.join(out_dir, name)) as fh:
        fh.write((",".join(header) + "\n").encode())
        count = 0
        for block in blocks:
            cols = np.broadcast_arrays(*(np.atleast_1d(c) for c in block))
            for lo in range(0, len(cols[0]), _GROUP_ROWS):
                fh.write(_encode_rows([c[lo:lo + _GROUP_ROWS] for c in cols], tables))
            count += len(cols[0])
    return count


def _write_json(out_dir: str, name: str, obj) -> None:
    with _atomic_open(os.path.join(out_dir, name)) as fh:
        fh.write((json.dumps(obj, indent=2, default=_jsonable) + "\n").encode())


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
        # the "step,t" text of each time row, formatted once for every path
        stamps = np.array([b"%d,%.17g" % st for st in
                           zip(range(cfg.n + 1), TimeGrid(cfg.n, m.T).times.tolist())])
        chunk = _chunk_size(cfg.n, max(m.brownian_dim, m.dim))
        group = max(1, _GROUP_ROWS // (cfg.n + 1))
        results = {"exited_paths": 0, "M": cfg.M, "n": cfg.n}

        def blocks():
            # One chunk of paths at a time, in path order, one block per group
            # of paths; exited_paths is complete once the writer has drained this.
            for start in range(0, cfg.M, chunk):
                ids = np.arange(start, min(start + chunk, cfg.M))
                res = run_batch(m, sch, batch_increments(m.brownian_dim, cfg.n, m.T,
                                                         seed, ids), record_flags=True)
                results["exited_paths"] += int(np.count_nonzero(res.first_violation >= 0))
                for g in range(0, len(ids), group):
                    x = res.states[g:g + group]
                    yield (np.repeat(ids[g:g + group], cfg.n + 1), np.tile(stamps, len(x)),
                           *x.reshape(-1, m.dim).T, res.in_chamber[g:g + group].ravel())

        csv = ("paths.csv", ("path_id", "step", "t", *(f"x_{i}" for i in range(m.dim)),
                             "in_chamber"), blocks())

    elif cfg.kind == "convergence":
        curve = strong_error(m, s.theta, cfg.n_list, cfg.n_ref, cfg.M, seed,
                             variant=s.variant, c=s.c, threads=threads)
        csv = ("convergence.csv", ("n", "rms_sup_error", "std_error", "M", "n_ref"),
               [(curve.n_values, curve.rms_errors, curve.std_errors, curve.M, curve.n_ref)])
        results = {"fit": _try_fit(curve), "variant": curve.variant,
                   "M": curve.M, "n_ref": curve.n_ref}

    elif cfg.kind == "moments":
        rep = negative_moments(m, cfg.params["p"], s.theta, cfg.n, cfg.M, seed,
                               pathwise_sup=cfg.params["pathwise_sup"], threads=threads)
        csv = ("moments.csv", ("root_index", "t", "p", "estimate", "std_error"),
               [(ri, rep.times, rep.p, est, se)
                for ri, (est, se) in enumerate(zip(rep.estimates, rep.std_errors))])
        results = {"p": rep.p, "max_estimate": rep.max_estimate, "M": rep.M}
        if rep.sup_estimates is not None:
            results["sup_estimates"] = rep.sup_estimates
            results["sup_std_errors"] = rep.sup_std_errors

    elif cfg.kind == "increments":
        rep = increment_scaling(m, s.theta, cfg.n, cfg.M, cfg.params["lags"],
                                seed, threads=threads)
        csv = ("increments.csv", ("lag", "mean_square_increment", "std_error"),
               [(rep.lags, rep.estimates, rep.std_errors)])
        results = {"slope": rep.slope, "M": rep.M, "n": rep.n}

    elif cfg.kind == "chamber-exit":
        rep = chamber_exit(m, s.theta, s.c, cfg.n_list, cfg.M, seed, threads=threads)
        csv = ("exit.csv", ("n", "exit_fraction", "ci_low", "ci_high"),
               [(rep.n_values, rep.fractions, rep.ci_low, rep.ci_high)])
        results = {"counts": list(rep.counts), "decay_slope": rep.decay_slope,
                   "M": rep.M}

    elif cfg.kind == "cir-check":
        k0, sigma0, lam0, xi0, T = _cir_constants(m)
        rep = cir_mean_check(k0, sigma0, lam0, xi0, T, s.theta, cfg.n, cfg.M,
                             seed, threads=threads)
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
    return flag or os.environ.get("DUNKLSIM_OUTPUT_DIR") or cfg.output_dir


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
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
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

    grids = {n for n in (*(cfg.n_list or ()), cfg.n, cfg.n_ref) if n is not None}
    min_pairing = float(np.min(m.rs.pairings(m.xi_array)))
    for n in sorted(grids):
        plan = _plan(m, s.resolve(n))
        line = f"grid n = {n:<8d}: dt = {plan.grid.dt:.17g}"
        if (eps := plan.eps) is not None:
            line += (f", min <alpha, xi> = {min_pairing:.17g}, cap level = {eps:.17g}, "
                     + ("closed-form step" if _closed_form_ok(m.rs)
                        else f"certified step error <= {max(plan.tols):.3e}"))
            if eps > min_pairing:
                line += (f"\nwarning: at n = {n} the cap level {eps:.4g} exceeds min "
                         f"<alpha, xi> = {min_pairing:.4g}, so the capped drift already "
                         "acts at the start point")
        print(line)

    if warning := threshold_warning(m, s.variant):
        print(f"warning: {warning}")
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
    p_run.add_argument("--threads", type=_positive(int), default=None,
                       help="override the thread budget (>= 1; results never depend on it)")
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
