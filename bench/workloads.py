"""The benchmark's workloads: experiment configs built from a seed.

Each workload is one `dunklsim run` experiment.  The seed only changes the
config's master seed; sizes are fixed, so every seed asks for the same
amount of work.  See NOTES.md for why each workload exists.
"""
from __future__ import annotations

_SIGMA = {"form": "scalar_identity", "fn": 1.0}
_ZERO = {"form": "zero"}


def _dyson_convergence():
    return {
        "model": {"root_system": {"type": "A", "d": 2}, "T": 1.0,
                  "xi": [0.5, -0.5], "sigma": _SIGMA, "drift": _ZERO,
                  "k": [4.0]},
        "scheme": {"variant": "exact", "theta": 0.0},
        "experiment": {"kind": "convergence"},
        "run": {"M": 256, "n_list": [16, 32, 64, 128, 256], "n_ref": 2048},
    }


def _typeb_exit():
    return {
        "model": {"root_system": {"type": "B", "d": 2}, "T": 1.0,
                  "xi": [0.6, 0.3], "sigma": _SIGMA, "drift": _ZERO,
                  "k": [5.0, 5.0]},
        "scheme": {"variant": "truncated", "theta": 0.0, "c": 1.1},
        "experiment": {"kind": "chamber-exit"},
        "run": {"M": 256, "n_list": [32, 64, 128, 256, 512]},
    }


def _simulate_dump():
    return {
        "model": {"root_system": {"type": "A", "d": 3}, "T": 1.0,
                  "xi": [1.0, 0.0, -1.0], "sigma": _SIGMA, "drift": _ZERO,
                  "k": [4.0]},
        "scheme": {"variant": "exact", "theta": 0.25},
        "experiment": {"kind": "simulate"},
        "run": {"M": 200, "n": 512},
    }


def _bessel_moments():
    return {
        "model": {"root_system": {"type": "custom", "dim": 1,
                                  "roots": [[1.0]], "orbits": [[0]]},
                  "T": 1.0, "xi": [1.0], "sigma": _SIGMA, "drift": _ZERO,
                  "k": [{"form": "affine_sqrt", "a": 4.0, "b": 1.0}]},
        "scheme": {"variant": "exact", "theta": 0.25},
        "experiment": {"kind": "moments", "p": 2.0, "pathwise_sup": True},
        "run": {"M": 16384, "n": 512},
    }


_CONFIGS = {
    "dyson-convergence": _dyson_convergence,
    "typeb-exit": _typeb_exit,
    "simulate-dump": _simulate_dump,
    "bessel-moments": _bessel_moments,
}

NAMES = tuple(_CONFIGS)


def make_config(name: str, seed: int) -> dict:
    """The experiment config of workload `name` under benchmark seed `seed`."""
    cfg = _CONFIGS[name]()
    cfg["run"]["master_seed"] = seed
    return cfg


def path_steps(cfg: dict) -> int:
    """Nominal path-steps one experiment asks for, read from its config."""
    run = cfg["run"]
    kind = cfg["experiment"]["kind"]
    if kind == "convergence":
        return run["M"] * (run["n_ref"] + sum(run["n_list"]))
    if kind == "chamber-exit":
        return run["M"] * sum(run["n_list"])
    return run["M"] * run["n"]
