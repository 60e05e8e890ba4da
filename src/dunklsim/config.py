"""Experiment configuration files: strict parsing and cross-field checks.

Configs are JSON objects with four blocks: model, scheme, experiment, run.
Parsing is strict: unknown keys are rejected, the master seed is
mandatory, and every problem found is reported at once and once only
(ConfigError carries the full list, one entry per problem with its JSON
path).

The reader is table-driven.  A parser is a function (value, path, probs)
that adds to `probs` what is wrong with the value at `path` and returns
what it read (None when it read nothing usable).
`_fields` reads one JSON object against a table {key: parser} (a required
key) or {key: (parser, default)} (an optional one); it reports a
non-object, each unknown key and each missing required key, and runs a
key's parser only when the key is present.  `_object` builds a value from
such a table once every entry parsed, and `_tagged` picks the table by the
object's `form`, `type` or `kind` key.  Time functions, root systems,
sigma, drift, the four blocks and the experiment kinds are tables read
this way; `_KINDS` also lists the run sizes each experiment needs and the
scheme variants it runs.  The checks that relate blocks (the variant, the
convergence grid rule, the cir-check model) run after the blocks are read.
"""
from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass

from .coefficients import ConstantDrift, DiagonalSigma, LinearDrift, MatrixSigma, ZeroDrift
from .errors import ConfigError, DunklSimError
from .model import ModelSpec
from .roots import RootSystem, direct_sum, make_type_a, make_type_b
from .scheme import SchemeConfig, VARIANTS
from .timefn import ConstantFn, SqrtAffineFn, TableFn

_U64 = 2 ** 64


class _Problems:
    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.items.append(f"{path}: {message}")

    def __len__(self):
        return len(self.items)


def _fields(obj, path: str, probs: _Problems, fields: dict) -> dict | None:
    """Values of the JSON object `obj` read against `fields`, in table order.

    A missing optional key takes its default; a value whose parser failed
    is None.  Returns None, after one problem, when `obj` is not an object.
    """
    if not isinstance(obj, dict):
        probs.add(path, f"expected an object, got {type(obj).__name__}")
        return None
    for key in obj:
        if key not in fields:
            probs.add(f"{path}.{key}", "unknown key")
    out = {}
    for key, spec in fields.items():
        parse, default = spec if isinstance(spec, tuple) else (spec, None)
        if key in obj:
            out[key] = parse(obj[key], f"{path}.{key}", probs)
        elif not isinstance(spec, tuple):
            probs.add(f"{path}.{key}", "missing required key")
            out[key] = None
        else:
            out[key] = default
    return out


def _object(fields: dict, build=None):
    """Parser of an object read by `_fields`.

    With `build`, the result is build(*values) in table order, made only
    when every value parsed; a DunklSimError (or the ValueError of a
    malformed array) it raises is reported at the object's path.  Without,
    the result is the values read.
    """
    def parse(obj, path, probs):
        before = len(probs)
        vals = _fields(obj, path, probs, fields)
        if build is None:
            return vals
        if len(probs) > before:
            return None
        try:
            return build(*vals.values())
        except (DunklSimError, ValueError) as exc:
            probs.add(path, str(exc))
            return None
    return parse


def _tagged(tag: str, forms: dict, bare=None):
    """Parser of an object whose `tag` key picks its form.

    `forms` maps each form name to (fields, build) as taken by `_object`;
    the tag itself is not one of the fields.  A value that is not an object
    is handed to the parser `bare` when one is given.
    """
    read_tag = _one_of(tuple(forms))
    parsers = {name: _object(fields, build) for name, (fields, build) in forms.items()}

    def parse(obj, path, probs):
        if bare is not None and not isinstance(obj, dict):
            return bare(obj, path, probs)
        if not isinstance(obj, dict):
            return _fields(obj, path, probs, {})  # reports the non-object
        form = read_tag(obj.get(tag), f"{path}.{tag}", probs)
        if form is None:
            return None
        return parsers[form]({k: v for k, v in obj.items() if k != tag}, path, probs)
    return parse


# ---------------------------------------------------------------------------
# parser factories

def _number(lo=None, hi=None, strict=False, integer=False):
    """A finite number (an integer when `integer`) in [lo, hi]; lo itself
    is excluded when `strict`."""
    def parse(v, path, probs):
        # int/float comparison is exact, so the bound also rejects an integer
        # too large for a float, as well as nan and inf
        ok = isinstance(v, int) if integer else (
            isinstance(v, (int, float)) and abs(v) <= sys.float_info.max)
        if not ok or isinstance(v, bool):
            probs.add(path, "expected an integer" if integer else "expected a finite number")
        elif lo is not None and (v <= lo if strict else v < lo):
            probs.add(path, f"must be {'>' if strict else '>='} {lo}")
        elif hi is not None and v > hi:
            probs.add(path, f"must be <= {hi}")
        else:
            return int(v) if integer else float(v)
        return None
    return parse


def _list(item, min_len=0):
    """A list of at least `min_len` entries, each read by `item`; a tuple."""
    def parse(v, path, probs):
        if not isinstance(v, list) or len(v) < min_len:
            probs.add(path, f"expected a list of length >= {min_len}" if min_len
                      else "expected a list")
            return None
        before = len(probs)
        out = tuple(item(e, f"{path}[{i}]", probs) for i, e in enumerate(v))
        return out if len(probs) == before else None
    return parse


def _one_of(options: tuple):
    def parse(v, path, probs):
        if v in options:
            return v
        probs.add(path, f"expected one of {options}")
        return None
    return parse


def _bool(v, path, probs):
    if isinstance(v, bool):
        return v
    probs.add(path, "expected a boolean")
    return None


def _string(v, path, probs):
    if isinstance(v, str) and v:
        return v
    probs.add(path, "expected a nonempty string")
    return None


# ---------------------------------------------------------------------------
# the model's ingredients

def _constant_fn(v, path, probs):
    """A bare number is a constant time function."""
    v = _number()(v, path, probs)
    return None if v is None else ConstantFn(v)


_TIMEFN = _tagged("form", {
    "constant": ({"value": _number()}, ConstantFn),
    "affine_sqrt": ({"a": _number(), "b": _number()}, SqrtAffineFn),
    "table": ({"t": _list(_number()), "v": _list(_number())}, TableFn),
}, bare=_constant_fn)

_ROOT_SYSTEM = _tagged("type", {
    "A": ({"d": _number(lo=2, integer=True)}, make_type_a),
    "B": ({"d": _number(lo=2, integer=True)}, make_type_b),
    # a sum's parts are root systems: the lambda looks the table up when called
    "sum": ({"parts": _list(lambda v, path, probs: _ROOT_SYSTEM(v, path, probs), 2)},
            lambda parts: functools.reduce(direct_sum, parts)),
    "custom": ({"dim": _number(lo=1, integer=True),
                "roots": _list(_list(_number())),
                "orbits": _list(_list(_number(integer=True)))}, RootSystem),
})

_SIGMA = _tagged("form", {
    "scalar_identity": ({"fn": _TIMEFN}, lambda fn: DiagonalSigma((fn,))),
    "diagonal": ({"fns": _list(_TIMEFN, 1)}, DiagonalSigma),
    "matrix": ({"values": _list(_list(_number()))}, MatrixSigma),
})

_DRIFT = _tagged("form", {
    "zero": ({}, ZeroDrift),
    "linear": ({"lambda": _TIMEFN}, LinearDrift),
    "constant": ({"values": _list(_number())}, ConstantDrift),
})


@dataclass(frozen=True)
class SchemeSettings:
    """Scheme block without a grid size; `resolve(n)` builds the config."""

    variant: str
    theta: float
    c: float = 1.1

    def __post_init__(self):
        self.resolve(1)  # SchemeConfig rejects inadmissible values

    def resolve(self, n: int) -> SchemeConfig:
        return SchemeConfig(variant=self.variant, theta=self.theta, n=n, c=self.c)


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


# Each experiment kind: its own keys, the run sizes it needs and the scheme
# variants it runs.  Negative moments, increments and the squared-mean check
# are measured on the chamber, which only the exact variant keeps; only the
# truncated variant can exit it.
_EXACT = ("exact",)
_KINDS = {
    "simulate": ({}, ("M", "n"), VARIANTS),
    "convergence": ({}, ("M", "n_list", "n_ref"), VARIANTS),
    "moments": ({"p": _number(lo=0.0), "pathwise_sup": (_bool, False)}, ("M", "n"), _EXACT),
    "increments": ({"lags": _list(_number(), 1)}, ("M", "n"), _EXACT),
    "chamber-exit": ({}, ("M", "n_list"), ("truncated",)),
    "cir-check": ({}, ("M", "n"), _EXACT),
    "validate": ({"samples": (_number(lo=1, integer=True), 256),
                  "tol": (_number(lo=0.0, strict=True), 1e-8)}, (), VARIANTS),
}

EXPERIMENT_KINDS = tuple(_KINDS)

_SIZE = _number(lo=1, integer=True)

_BLOCKS = {
    "model": _object({"root_system": _ROOT_SYSTEM, "T": _number(lo=0.0, strict=True),
                      "xi": _list(_number()), "sigma": _SIGMA, "drift": _DRIFT,
                      "k": _list(_TIMEFN, 1)}, ModelSpec),
    "scheme": _object({"variant": _one_of(VARIANTS), "theta": _number(lo=0.0),
                       "c": (_number(), 1.1)}, SchemeSettings),
    "experiment": _tagged("kind", {kind: (fields, None)
                                   for kind, (fields, *_) in _KINDS.items()}),
    "run": _object({"master_seed": _number(lo=0, hi=_U64 - 1, integer=True),
                    "M": (_SIZE, None), "n": (_SIZE, None),
                    "n_list": (_list(_SIZE, 1), None), "n_ref": (_SIZE, None),
                    "output_dir": (_string, "results"), "threads": (_SIZE, 1)}),
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

    model, scheme, params, run = _fields(raw, "$", probs, _BLOCKS).values()
    # The kind is known even when the experiment's own keys failed, so the
    # checks below still report every problem of the other blocks.
    kind = raw["experiment"].get("kind") if isinstance(raw.get("experiment"), dict) else None
    # So is a known variant when the scheme block failed for another reason.
    variant = raw["scheme"].get("variant") if isinstance(raw.get("scheme"), dict) else None
    if kind in EXPERIMENT_KINDS:
        _, sizes, variants = _KINDS[kind]
        for need in sizes:
            if run is not None and need not in raw["run"]:
                probs.add(f"$.run.{need}", f"required by the {kind} experiment")
        if variant in VARIANTS and variant not in variants:
            probs.add("$.scheme.variant", f"{kind} requires the {variants[0]} variant")
        if kind == "convergence" and run and run["n_list"] and run["n_ref"]:
            n_list, n_ref = run["n_list"], run["n_ref"]
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
                            raw=raw, **run)


def _cir_constants(model: ModelSpec) -> tuple[float, float, float, float, float] | None:
    """Extract (k0, sigma0, lam0, xi, T) when the model is the constant-
    coefficient d=1 preset; None otherwise."""
    if model.dim != 1 or model.rs.n_roots != 1 or model.rs.matrix[0, 0] != 1.0:
        return None
    kfn = model.k[0]
    if not getattr(kfn, "is_constant", False):
        return None
    sigma = model.sigma
    if (isinstance(sigma, DiagonalSigma) and len(sigma.fns) == 1
            and getattr(sigma.fns[0], "is_constant", False)):
        sigma0 = float(sigma.fns[0](0.0))
    elif isinstance(sigma, MatrixSigma) and sigma.array.shape == (1, 1):
        sigma0 = float(sigma.array[0, 0])
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
