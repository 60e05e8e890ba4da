"""Experiment configuration files: strict parsing and cross-field checks.

Configs are JSON objects with four blocks: model, scheme, experiment, run.
Parsing is strict: unknown keys are rejected, the master seed is
mandatory, and every problem found is reported at once (ConfigError
carries the full list, one entry per problem with its JSON path).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from .coefficients import (ConstantDrift, DiagonalSigma, DriftSpec, LinearDrift,
                           MatrixSigma, ScalarSigma, SigmaSpec, ZeroDrift)
from .errors import ConfigError, DunklSimError
from .model import ModelSpec
from .roots import RootSystem, direct_sum, make_type_a, make_type_b
from .scheme import SchemeConfig, VARIANTS
from .timefn import ConstantFn, SqrtAffineFn, TableFn, TimeFn

EXPERIMENT_KINDS = ("simulate", "convergence", "moments", "increments",
                    "chamber-exit", "cir-check", "validate")

_U64 = 2 ** 64


class _Problems:
    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.items.append(f"{path}: {message}")

    def __bool__(self):
        return bool(self.items)


def _expect_keys(obj: dict, path: str, required: dict, optional: dict,
                 probs: _Problems) -> bool:
    """Check key presence/absence; returns False when obj is not a dict."""
    if not isinstance(obj, dict):
        probs.add(path, f"expected an object, got {type(obj).__name__}")
        return False
    for key in obj:
        if key not in required and key not in optional:
            probs.add(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            probs.add(f"{path}.{key}", "missing required key")
    return True


def _block(raw: dict, key: str, required: dict, optional: dict,
           probs: _Problems) -> dict | None:
    """Top-level block `key` with its keys checked; None, with at most one
    problem, when it is absent (reported by the top-level check) or not an object."""
    if key not in raw:
        return None
    obj = raw[key]
    return obj if _expect_keys(obj, f"$.{key}", required, optional, probs) else None


def _number(obj, path, probs, lo=None, hi=None, lo_strict=False) -> float | None:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool) or not math.isfinite(obj):
        probs.add(path, "expected a finite number")
        return None
    v = float(obj)
    if lo is not None and (v <= lo if lo_strict else v < lo):
        probs.add(path, f"must be {'>' if lo_strict else '>='} {lo}")
        return None
    if hi is not None and v > hi:
        probs.add(path, f"must be <= {hi}")
        return None
    return v


def _integer(obj, path, probs, lo=None, hi=None) -> int | None:
    if not isinstance(obj, int) or isinstance(obj, bool):
        probs.add(path, "expected an integer")
        return None
    if lo is not None and obj < lo:
        probs.add(path, f"must be >= {lo}")
        return None
    if hi is not None and obj > hi:
        probs.add(path, f"must be <= {hi}")
        return None
    return int(obj)


def _timefn(obj, path, probs) -> TimeFn | None:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return ConstantFn(float(obj)) if math.isfinite(obj) else (
            probs.add(path, "expected a finite number"), None)[1]
    if not isinstance(obj, dict):
        probs.add(path, "expected a number or a time-function object")
        return None
    form = obj.get("form")
    if form == "constant":
        if not _expect_keys(obj, path, {"form": 1, "value": 1}, {}, probs):
            return None
        v = _number(obj.get("value"), f"{path}.value", probs)
        return None if v is None else ConstantFn(v)
    if form == "affine_sqrt":
        if not _expect_keys(obj, path, {"form": 1, "a": 1, "b": 1}, {}, probs):
            return None
        a = _number(obj.get("a"), f"{path}.a", probs)
        b = _number(obj.get("b"), f"{path}.b", probs)
        return None if a is None or b is None else SqrtAffineFn(a, b)
    if form == "table":
        if not _expect_keys(obj, path, {"form": 1, "t": 1, "v": 1}, {}, probs):
            return None
        t, v = obj.get("t"), obj.get("v")
        if not (isinstance(t, list) and isinstance(v, list)):
            probs.add(path, "table needs lists t and v")
            return None
        try:
            return TableFn(tuple(t), tuple(v))
        except DunklSimError as exc:
            probs.add(path, str(exc))
            return None
    probs.add(f"{path}.form",
              "expected one of 'constant', 'affine_sqrt', 'table'")
    return None


def _root_system(obj, path, probs) -> RootSystem | None:
    if not isinstance(obj, dict):
        probs.add(path, "expected an object")
        return None
    rtype = obj.get("type")
    if rtype in ("A", "B"):
        if not _expect_keys(obj, path, {"type": 1, "d": 1}, {}, probs):
            return None
        d = _integer(obj.get("d"), f"{path}.d", probs, lo=2)
        if d is None:
            return None
        return make_type_a(d) if rtype == "A" else make_type_b(d)
    if rtype == "sum":
        if not _expect_keys(obj, path, {"type": 1, "parts": 1}, {}, probs):
            return None
        parts = obj.get("parts")
        if not isinstance(parts, list) or len(parts) < 2:
            probs.add(f"{path}.parts", "expected a list of at least two systems")
            return None
        built = [_root_system(p, f"{path}.parts[{i}]", probs) for i, p in enumerate(parts)]
        if any(b is None for b in built):
            return None
        out = built[0]
        for b in built[1:]:
            out = direct_sum(out, b)
        return out
    if rtype == "custom":
        if not _expect_keys(obj, path, {"type": 1, "dim": 1, "roots": 1, "orbits": 1}, {}, probs):
            return None
        dim = _integer(obj.get("dim"), f"{path}.dim", probs, lo=1)
        roots, orbits = obj.get("roots"), obj.get("orbits")
        if dim is None or not isinstance(roots, list) or not isinstance(orbits, list):
            probs.add(path, "custom system needs dim, roots, orbits")
            return None
        try:
            return RootSystem(dim=dim,
                              positive_roots=tuple(tuple(r) for r in roots),
                              orbits=tuple(tuple(o) for o in orbits))
        except (DunklSimError, TypeError, ValueError) as exc:
            probs.add(path, str(exc))
            return None
    probs.add(f"{path}.type", "expected one of 'A', 'B', 'sum', 'custom'")
    return None


def _sigma(obj, path, probs) -> SigmaSpec | None:
    if not isinstance(obj, dict):
        probs.add(path, "expected an object")
        return None
    form = obj.get("form")
    if form == "scalar_identity":
        if not _expect_keys(obj, path, {"form": 1, "fn": 1}, {}, probs):
            return None
        fn = _timefn(obj.get("fn"), f"{path}.fn", probs)
        return None if fn is None else ScalarSigma(fn)
    if form == "diagonal":
        if not _expect_keys(obj, path, {"form": 1, "fns": 1}, {}, probs):
            return None
        fns = obj.get("fns")
        if not isinstance(fns, list) or not fns:
            probs.add(f"{path}.fns", "expected a nonempty list")
            return None
        built = [_timefn(f, f"{path}.fns[{i}]", probs) for i, f in enumerate(fns)]
        return None if any(b is None for b in built) else DiagonalSigma(tuple(built))
    if form == "matrix":
        if not _expect_keys(obj, path, {"form": 1, "values": 1}, {}, probs):
            return None
        vals = obj.get("values")
        try:
            return MatrixSigma(tuple(tuple(row) for row in vals))
        except (DunklSimError, TypeError, ValueError) as exc:
            probs.add(f"{path}.values", str(exc))
            return None
    probs.add(f"{path}.form", "expected one of 'scalar_identity', 'diagonal', 'matrix'")
    return None


def _drift(obj, path, probs) -> DriftSpec | None:
    if not isinstance(obj, dict):
        probs.add(path, "expected an object")
        return None
    form = obj.get("form")
    if form == "zero":
        _expect_keys(obj, path, {"form": 1}, {}, probs)
        return ZeroDrift()
    if form == "linear":
        if not _expect_keys(obj, path, {"form": 1, "lambda": 1}, {}, probs):
            return None
        fn = _timefn(obj.get("lambda"), f"{path}.lambda", probs)
        return None if fn is None else LinearDrift(fn)
    if form == "constant":
        if not _expect_keys(obj, path, {"form": 1, "values": 1}, {}, probs):
            return None
        vals = obj.get("values")
        try:
            return ConstantDrift(tuple(vals))
        except (DunklSimError, TypeError, ValueError) as exc:
            probs.add(f"{path}.values", str(exc))
            return None
    probs.add(f"{path}.form", "expected one of 'zero', 'linear', 'constant'")
    return None


@dataclass(frozen=True)
class SchemeSettings:
    """Scheme block without a grid size; `resolve(n)` builds the config."""

    variant: str
    theta: float
    c: float = 1.1
    solver_tol: float = 1e-10

    def resolve(self, n: int) -> SchemeConfig:
        return SchemeConfig(variant=self.variant, theta=self.theta, n=n, c=self.c,
                            solver_tol=self.solver_tol)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    scheme: SchemeSettings
    kind: str
    params: dict
    M: int | None
    n: int | None
    n_list: tuple[int, ...] | None
    n_ref: int | None
    master_seed: int
    output_dir: str
    threads: int
    raw: dict


_EXPERIMENT_KEYS: dict[str, tuple[dict, dict]] = {
    "simulate": ({}, {}),
    "convergence": ({}, {}),
    "moments": ({"p": 1}, {"pathwise_sup": 1}),
    "increments": ({"lags": 1}, {}),
    "chamber-exit": ({}, {}),
    "cir-check": ({}, {}),
    "validate": ({}, {"samples": 1, "tol": 1}),
}

_RUN_NEEDS = {
    "simulate": ("M", "n"),
    "convergence": ("M", "n_list", "n_ref"),
    "moments": ("M", "n"),
    "increments": ("M", "n"),
    "chamber-exit": ("M", "n_list"),
    "cir-check": ("M", "n"),
    "validate": (),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config document; raises ConfigError with
    every problem found."""
    probs = _Problems()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: invalid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be an object"])

    _expect_keys(raw, "$", {"model": 1, "scheme": 1, "experiment": 1, "run": 1},
                 {}, probs)

    model = None
    mobj = _block(raw, "model",
                  {"root_system": 1, "T": 1, "xi": 1, "sigma": 1, "drift": 1, "k": 1},
                  {}, probs)
    if mobj is not None:
        rs = _root_system(mobj.get("root_system"), "$.model.root_system", probs)
        T = _number(mobj.get("T"), "$.model.T", probs, lo=0.0, lo_strict=True)
        xi = mobj.get("xi")
        if not isinstance(xi, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in xi):
            probs.add("$.model.xi", "expected a list of numbers")
            xi = None
        sigma = _sigma(mobj.get("sigma"), "$.model.sigma", probs)
        drift = _drift(mobj.get("drift"), "$.model.drift", probs)
        kobj = mobj.get("k")
        if not isinstance(kobj, list) or not kobj:
            probs.add("$.model.k", "expected a nonempty list (one entry per orbit)")
            kfns = None
        else:
            kfns = [_timefn(f, f"$.model.k[{i}]", probs) for i, f in enumerate(kobj)]
            if any(f is None for f in kfns):
                kfns = None
        if all(v is not None for v in (rs, T, xi, sigma, drift, kfns)):
            try:
                model = ModelSpec(rs=rs, T=T, xi=tuple(float(v) for v in xi),
                                  sigma=sigma, drift=drift, k=tuple(kfns))
            except DunklSimError as exc:
                probs.add("$.model", str(exc))

    scheme = None
    sobj = _block(raw, "scheme", {"variant": 1, "theta": 1},
                  {"c": 1, "solver_tol": 1}, probs)
    if sobj is not None:
        variant = sobj.get("variant")
        if variant not in VARIANTS:
            probs.add("$.scheme.variant", f"expected one of {VARIANTS}")
            variant = None
        theta = _number(sobj.get("theta"), "$.scheme.theta", probs, lo=0.0)
        c = _number(sobj.get("c", 1.1), "$.scheme.c", probs)
        tol = _number(sobj.get("solver_tol", 1e-10), "$.scheme.solver_tol", probs,
                      lo=0.0, lo_strict=True)
        if None not in (variant, theta, c, tol):
            try:
                SchemeConfig(variant=variant, theta=theta, n=1, c=c, solver_tol=tol)
                scheme = SchemeSettings(variant=variant, theta=theta, c=c,
                                        solver_tol=tol)
            except DunklSimError as exc:
                probs.add("$.scheme", str(exc))

    kind = None
    params: dict[str, Any] = {}
    eobj = raw.get("experiment")
    if isinstance(eobj, dict):
        kind = eobj.get("kind")
        if kind not in EXPERIMENT_KINDS:
            probs.add("$.experiment.kind", f"expected one of {EXPERIMENT_KINDS}")
            kind = None
        else:
            req, opt = _EXPERIMENT_KEYS[kind]
            _expect_keys(eobj, "$.experiment", {"kind": 1, **req}, opt, probs)
            if kind == "moments":
                p = _number(eobj.get("p"), "$.experiment.p", probs, lo=0.0)
                ps = eobj.get("pathwise_sup", False)
                if not isinstance(ps, bool):
                    probs.add("$.experiment.pathwise_sup", "expected a boolean")
                    ps = False
                params = {"p": p, "pathwise_sup": ps}
            elif kind == "increments":
                lags = eobj.get("lags")
                if not isinstance(lags, list) or not all(
                        isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in lags) or not lags:
                    probs.add("$.experiment.lags", "expected a nonempty list of numbers")
                else:
                    params = {"lags": [float(v) for v in lags]}
            elif kind == "validate":
                params = {
                    "samples": _integer(eobj.get("samples", 256),
                                        "$.experiment.samples", probs, lo=1) or 256,
                    "tol": _number(eobj.get("tol", 1e-8), "$.experiment.tol", probs,
                                   lo=0.0, lo_strict=True) or 1e-8,
                }
    elif "experiment" in raw:
        probs.add("$.experiment", "expected an object")

    M = n = n_ref = None
    n_list = None
    master_seed = None
    output_dir = "results"
    threads = 1
    robj = _block(raw, "run", {"master_seed": 1},
                  {"M": 1, "n": 1, "n_list": 1, "n_ref": 1, "output_dir": 1,
                   "threads": 1}, probs)
    if robj is not None:
        master_seed = _integer(robj.get("master_seed"), "$.run.master_seed",
                               probs, lo=0, hi=_U64 - 1)
        if "M" in robj:
            M = _integer(robj.get("M"), "$.run.M", probs, lo=1)
        if "n" in robj:
            n = _integer(robj.get("n"), "$.run.n", probs, lo=1)
        if "n_ref" in robj:
            n_ref = _integer(robj.get("n_ref"), "$.run.n_ref", probs, lo=1)
        if "n_list" in robj:
            nl = robj.get("n_list")
            if not isinstance(nl, list) or not nl or not all(
                    isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in nl):
                probs.add("$.run.n_list", "expected a nonempty list of positive integers")
            else:
                n_list = tuple(int(v) for v in nl)
        if "output_dir" in robj:
            od = robj.get("output_dir")
            if not isinstance(od, str) or not od:
                probs.add("$.run.output_dir", "expected a nonempty string")
            else:
                output_dir = od
        if "threads" in robj:
            threads = _integer(robj.get("threads"), "$.run.threads", probs, lo=1) or 1

    if kind is not None:
        for need in _RUN_NEEDS[kind] if robj is not None else ():
            have = {"M": M, "n": n, "n_list": n_list, "n_ref": n_ref}[need]
            if have is None:
                probs.add(f"$.run.{need}", f"required by the {kind} experiment")
        if kind == "moments" and scheme is not None and scheme.variant != "exact":
            probs.add("$.scheme.variant", "moments requires the exact variant")
        if kind == "convergence" and n_list is not None and n_ref is not None:
            if list(n_list) != sorted(set(n_list)):
                probs.add("$.run.n_list", "grid sizes must be strictly increasing")
            else:
                for nn in n_list:
                    ratio = n_ref // nn if nn and n_ref % nn == 0 else 0
                    if nn > n_ref or ratio == 0 or ratio & (ratio - 1):
                        probs.add("$.run.n_list",
                                  f"n={nn} must divide n_ref={n_ref} with a power-of-two ratio")
        if kind == "cir-check" and model is not None:
            if _cir_constants(model) is None:
                probs.add("$.model", "cir-check needs the d=1 model with constant "
                                     "scalar sigma, constant k and zero or constant-"
                                     "rate linear drift")

    if probs:
        raise ConfigError(probs.items)
    return ExperimentConfig(model=model, scheme=scheme, kind=kind, params=params,
                            M=M, n=n, n_list=n_list, n_ref=n_ref,
                            master_seed=master_seed, output_dir=output_dir,
                            threads=threads, raw=raw)


def _cir_constants(model: ModelSpec) -> tuple[float, float, float, float, float] | None:
    """Extract (k0, sigma0, lam0, xi, T) when the model is the constant-
    coefficient d=1 preset; None otherwise."""
    if model.dim != 1 or model.rs.n_roots != 1 or model.rs.matrix[0, 0] != 1.0:
        return None
    kfn = model.k[0]
    if not getattr(kfn, "is_constant", False):
        return None
    if isinstance(model.sigma, ScalarSigma) and getattr(model.sigma.fn, "is_constant", False):
        sigma0 = float(model.sigma.fn(0.0))
    elif isinstance(model.sigma, MatrixSigma) and model.sigma.array.shape == (1, 1):
        sigma0 = float(model.sigma.array[0, 0])
    else:
        return None
    if isinstance(model.drift, ZeroDrift):
        lam0 = 0.0
    elif isinstance(model.drift, LinearDrift) and getattr(model.drift.fn, "is_constant", False):
        lam0 = float(model.drift.fn(0.0))
    else:
        return None
    return (float(kfn(0.0)), sigma0, lam0, float(model.xi[0]), model.T)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
