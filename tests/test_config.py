"""JSON experiment configs: strict keys, typed errors, full collection."""
import copy
import json

import pytest

from dunklsim import ConfigError, SchemeConfig
from dunklsim.config import parse_config
from dunklsim.coefficients import DiagonalSigma, LinearDrift
from dunklsim.timefn import SqrtAffineFn, TableFn

MINIMAL = {
    "model": {
        "root_system": {"type": "A", "d": 2},
        "T": 1.0,
        "xi": [0.5, -0.5],
        "sigma": {"form": "scalar_identity", "fn": 1.0},
        "drift": {"form": "zero"},
        "k": [4.0],
    },
    "scheme": {"variant": "exact", "theta": 0.0},
    "experiment": {"kind": "simulate"},
    "run": {"master_seed": 1, "M": 4, "n": 8},
}


def _cfg(**edits):
    doc = copy.deepcopy(MINIMAL)
    for dotted, value in edits.items():
        parts = dotted.split("__")
        node = doc
        for p in parts[:-1]:
            node = node[p]
        if value is ...:
            del node[parts[-1]]
        else:
            node[parts[-1]] = value
    return json.dumps(doc)


def _problems(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.problems


# ---------------------------------------------------------------------------
# happy path

def test_minimal_config_parses():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.kind == "simulate"
    assert cfg.M == 4 and cfg.n == 8
    assert cfg.master_seed == 1
    assert cfg.model.rs.dim == 2
    assert cfg.threads == 1 and cfg.output_dir == "results"
    resolved = cfg.scheme.resolve(16)
    assert isinstance(resolved, SchemeConfig)
    assert resolved.n == 16 and resolved.variant == "exact"


def test_timefn_shorthand_and_forms():
    cfg = parse_config(_cfg(model__k=[
        {"form": "constant", "value": 2.0}]))
    assert cfg.model.k[0](0.5) == 2.0
    cfg = parse_config(_cfg(model__k=[{"form": "affine_sqrt", "a": 1.0, "b": 2.0}]))
    assert isinstance(cfg.model.k[0], SqrtAffineFn)
    cfg = parse_config(_cfg(model__k=[
        {"form": "table", "t": [0.0, 1.0], "v": [1.0, 3.0]}]))
    assert isinstance(cfg.model.k[0], TableFn)
    assert cfg.model.k[0](0.5) == 2.0


def test_sigma_and_drift_forms():
    cfg = parse_config(_cfg(
        model__sigma={"form": "diagonal", "fns": [1.0, 2.0]},
        model__drift={"form": "linear", "lambda": -0.5}))
    assert isinstance(cfg.model.sigma, DiagonalSigma)
    assert isinstance(cfg.model.drift, LinearDrift)
    assert cfg.model.drift.fn(0.0) == -0.5


def test_custom_root_system():
    cfg = parse_config(_cfg(
        model__root_system={"type": "custom", "dim": 1,
                            "roots": [[1.0]], "orbits": [[0]]},
        model__xi=[1.0], model__k=[1.0]))
    assert cfg.model.rs.dim == 1
    assert cfg.model.rs.n_roots == 1


def test_direct_sum_root_system():
    cfg = parse_config(_cfg(
        model__root_system={"type": "sum",
                            "parts": [{"type": "A", "d": 2}, {"type": "B", "d": 2}]},
        model__xi=[0.5, -0.5, 2.0, 1.0], model__k=[1.0, 1.0, 1.0]))
    assert cfg.model.rs.dim == 4
    assert cfg.model.rs.n_orbits == 3


def test_validate_kind_needs_no_run_sizes():
    cfg = parse_config(_cfg(experiment={"kind": "validate"},
                            run={"master_seed": 7}))
    assert cfg.kind == "validate"
    assert cfg.params == {"samples": 256, "tol": 1e-8}


# ---------------------------------------------------------------------------
# rejection with precise paths

def test_invalid_json_rejected():
    probs = _problems("{not json")
    assert len(probs) == 1 and "invalid JSON" in probs[0]


def test_unknown_keys_rejected_with_paths():
    probs = _problems(_cfg(model__bogus=1))
    assert any(p.startswith("$.model") and "bogus" in p for p in probs)
    probs = _problems(_cfg(scheme__extra=2))
    assert any(p.startswith("$.scheme") and "extra" in p for p in probs)
    probs = _problems(_cfg(run__verbose=True))
    assert any(p.startswith("$.run") and "verbose" in p for p in probs)
    probs = _problems(_cfg(surprise={}))
    assert any(p.startswith("$") and "surprise" in p for p in probs)
    probs = _problems(_cfg(scheme__max_iterations=50))
    assert any(p.startswith("$.scheme") and "max_iterations" in p for p in probs)


@pytest.mark.parametrize("block", ["model", "scheme", "experiment", "run"])
@pytest.mark.parametrize("value, message", [(..., "missing required key"),
                                            ([], "expected an object")])
def test_absent_or_non_object_block_is_one_problem(block, value, message):
    probs = _problems(_cfg(**{block: value}))
    assert len(probs) == 1 and probs[0].startswith(f"$.{block}: {message}")


@pytest.mark.parametrize("edits, problem", [
    ({"model__T": ...}, "$.model.T: missing required key"),
    ({"model__sigma__fn": ...}, "$.model.sigma.fn: missing required key"),
    ({"model__k": [{"form": "table", "t": [0.0, 1.0]}]}, "$.model.k[0].v: missing required key"),
    ({"model__root_system": {"type": "custom", "dim": 2, "roots": [[1.0, -1.0]]}},
     "$.model.root_system.orbits: missing required key"),
    ({"experiment": {"kind": "moments"}}, "$.experiment.p: missing required key"),
    ({"run__master_seed": ...}, "$.run.master_seed: missing required key"),
    ({"model__drift": {"form": "zero", "rate": 1.0}}, "$.model.drift.rate: unknown key"),
    ({"model__k": [4.0, "x"]}, "$.model.k[1]: expected a finite number"),
    ({"model__T": 10 ** 400}, "$.model.T: expected a finite number"),
])
def test_each_problem_reported_once(edits, problem):
    assert _problems(_cfg(**edits)) == [problem]


def test_master_seed_required_and_ranged():
    probs = _problems(_cfg(run={"M": 4, "n": 8}))
    assert any("master_seed" in p for p in probs)
    probs = _problems(_cfg(run__master_seed=-1))
    assert any("master_seed" in p for p in probs)
    probs = _problems(_cfg(run__master_seed=2 ** 64))
    assert any("master_seed" in p for p in probs)


def test_scheme_constraints_checked():
    probs = _problems(_cfg(scheme__theta=0.6))
    assert any(p.startswith("$.scheme") for p in probs)
    probs = _problems(_cfg(scheme={"variant": "truncated", "theta": 0.0, "c": 0.9}))
    assert any(p.startswith("$.scheme") for p in probs)


def test_all_problems_collected_at_once():
    probs = _problems(_cfg(model__T=-1.0, scheme__theta=0.6,
                           run__master_seed=...))
    assert len(probs) >= 3
    joined = " ".join(probs)
    assert "$.model.T" in joined and "$.scheme" in joined and "master_seed" in joined


def test_moments_requires_power_and_exact_variant():
    probs = _problems(_cfg(experiment={"kind": "moments"}))
    assert any("$.experiment" in p and "p" in p for p in probs)
    probs = _problems(_cfg(
        experiment={"kind": "moments", "p": 2.0},
        scheme={"variant": "truncated", "theta": 0.0}))
    assert any("exact variant" in p for p in probs)


def test_convergence_grid_constraints():
    base = dict(experiment={"kind": "convergence"})
    probs = _problems(_cfg(**base, run={"master_seed": 1, "M": 128,
                                        "n_list": [16, 8], "n_ref": 64}))
    assert any("increasing" in p for p in probs)
    probs = _problems(_cfg(**base, run={"master_seed": 1, "M": 128,
                                        "n_list": [8], "n_ref": 24}))
    assert any("power-of-two" in p for p in probs)
    probs = _problems(_cfg(**base, run={"master_seed": 1, "M": 128,
                                        "n_list": [128], "n_ref": 64}))
    assert any("power-of-two" in p for p in probs)
    probs = _problems(_cfg(**base, run={"master_seed": 1, "M": 128}))
    assert any("n_list" in p for p in probs) and any("n_ref" in p for p in probs)


def test_cir_check_requires_constant_d1_model():
    probs = _problems(_cfg(experiment={"kind": "cir-check"}))
    assert any(p.startswith("$.model") for p in probs)
    ok = parse_config(_cfg(
        model__root_system={"type": "custom", "dim": 1,
                            "roots": [[1.0]], "orbits": [[0]]},
        model__xi=[1.0], model__k=[1.0],
        model__drift={"form": "linear", "lambda": 0.5},
        experiment={"kind": "cir-check"}))
    assert ok.kind == "cir-check"


def test_model_construction_errors_are_reported():
    probs = _problems(_cfg(model__xi=[-0.5, 0.5]))     # outside the chamber
    assert any(p.startswith("$.model") for p in probs)
    probs = _problems(_cfg(model__k=[1.0, 2.0]))       # one orbit only
    assert any(p.startswith("$.model") for p in probs)


def test_experiment_kind_checked():
    probs = _problems(_cfg(experiment={"kind": "mystery"}))
    assert any("$.experiment.kind" in p for p in probs)
