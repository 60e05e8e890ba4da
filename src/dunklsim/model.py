"""Particle SDE models with singular chamber repulsion.

A model couples a positive root system with time-dependent data

    dX(t) = sigma(t, X) dB(t) + b(t, X) dt
            + sum_alpha k(t, alpha) / <alpha, X> alpha dt,   X(0) = xi,

where the repulsion strength k is positive and constant on each orbit.
This module provides the repulsion drift f and its capped version f_eps,
the constants controlling well-posedness of the numerics (Lipschitz scale,
negative-moment threshold), assumption checking, and the classic presets
(squared-Bessel-type in d = 1, Dyson-type for A(d), and type B).

`repulsion` is the only definition of the weighted root sum behind f and
f_eps: the step solvers in `stepping` and the engine and audit in
`scheme` all call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import (ConstantDrift, DiagonalSigma, DriftSpec, LinearDrift, SigmaSpec,
                           ZeroDrift)
from .errors import ChamberError, DimensionError, ParameterError
from .roots import RootSystem, make_type_a, make_type_b, min_pairing, pairing_identity_residual
from .timefn import ConstantFn, SqrtAffineFn, TableFn, TimeFn, as_timefn, time_lattice


def _dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u @ w.  Over an inner dimension of 1 each entry is a single product:
    a broadcast takes it at a tenth of the matmul's cost at 10^4 rows, and
    a 1x1 factor of exactly 1.0 (d = 1 with root [1.0]) returns u itself."""
    if w.shape[0] > 1:
        return u @ w
    if w.shape == (1, 1) and w[0, 0] == 1.0:
        return u
    return u * w[0]


def repulsion(a: np.ndarray, kv: np.ndarray, p: np.ndarray, eps: float | None = None):
    """f = sum_alpha kv_alpha / <alpha, y> alpha from the pairings p = y @ a.T,
    or f_eps with every pairing capped below at eps.  Unvalidated: it runs
    in the solvers' inner loops, whose callers also need p itself."""
    return _dot(kv / (p if eps is None else np.maximum(eps, p)), a)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description.

    `k` holds one time function per orbit of the root system; `xi` must be
    strictly inside the chamber.
    """

    rs: RootSystem
    T: float
    xi: tuple[float, ...]
    sigma: SigmaSpec
    drift: DriftSpec
    k: tuple[TimeFn, ...]

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ParameterError(f"horizon must be positive and finite, got {self.T}")
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (self.rs.dim,):
            raise DimensionError(
                f"start point has shape {xi.shape}, expected ({self.rs.dim},)")
        if min_pairing(self.rs, xi) <= 0.0:
            raise ChamberError("start point must lie strictly inside the chamber")
        object.__setattr__(self, "xi", tuple(float(c) for c in xi))
        k = tuple(as_timefn(f) for f in (self.k if isinstance(self.k, (tuple, list)) else (self.k,)))
        if len(k) != self.rs.n_orbits:
            raise DimensionError(
                f"need {self.rs.n_orbits} repulsion functions (one per orbit), got {len(k)}")
        for fn in k:
            if fn.inf_on(self.T) <= 0.0:
                raise ParameterError("repulsion strength must be strictly positive on [0, T]")
        object.__setattr__(self, "k", k)
        self.sigma.brownian_dim(self.rs.dim)  # raises on shape mismatch
        if isinstance(self.drift, ConstantDrift) and len(self.drift.values) != self.rs.dim:
            raise DimensionError(f"constant drift has {len(self.drift.values)} entries "
                                 f"for dimension {self.rs.dim}")

    @property
    def dim(self) -> int:
        return self.rs.dim

    @property
    def brownian_dim(self) -> int:
        return self.sigma.brownian_dim(self.rs.dim)

    @property
    def xi_array(self) -> np.ndarray:
        return np.asarray(self.xi, dtype=float)

    def k_at(self, t) -> np.ndarray:
        """Per-root repulsion strengths at time t, shape (..., n_roots) for
        a scalar or an array of times."""
        per_orbit = np.stack([np.asarray(fn(t), dtype=float) for fn in self.k], axis=-1)
        return per_orbit[..., self.rs.orbit_of]

    @cached_property
    def k_sup(self) -> np.ndarray:
        """Per-root sup of k over [0, T] (exact for the supported forms)."""
        per_orbit = np.array([fn.sup_on(self.T) for fn in self.k])
        v = per_orbit[self.rs.orbit_of]
        v.flags.writeable = False
        return v


def lipschitz_scale(m: ModelSpec) -> float:
    """sum_alpha sup_t k(t,alpha) |alpha|^2, the scale in the cap rule and
    in the contraction constant of the capped fixed-point step."""
    return float(np.sum(m.k_sup * m.rs.norms_sq))


def _noise_lattice(m: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Times on which k is compared with the noise (a 1024-point lattice
    joined with every breakpoint of k and of sigma's time functions) and
    sigma's bound there."""
    ts = time_lattice(m.T, tuple(m.k) + m.sigma.fns)
    return ts, np.array([m.sigma.bar(t) for t in ts])


def moment_threshold(m: ModelSpec) -> float:
    """Threshold p* = inf over t and orbits of 2 k(t) / sup_x |sigma|^2 - 1.

    Negative pairing moments of order p stay bounded for p < p*; the exact
    scheme's strong 1/2 rate needs p* > 6 and the capped scheme's needs
    p* > 8.  Returns +inf when the diffusion vanishes identically.  The
    infimum is evaluated on a 1024-point lattice joined with every
    breakpoint, which is exact for constant forms.
    """
    ts, bar = _noise_lattice(m)
    if np.all(bar == 0.0):
        return math.inf
    with np.errstate(divide="ignore"):
        ratios = np.where(bar > 0.0, 2.0 * m.k_at(ts).T / np.maximum(bar, 1e-300) ** 2,
                          math.inf)
    return float(np.min(ratios)) - 1.0


def sample_chamber_points(rs: RootSystem, count: int, rng: np.random.Generator,
                          wall_lo: float = 1e-3, wall_hi: float = 1e1) -> np.ndarray:
    """Random strictly interior points with log-uniform wall distances.

    A random positive combination of positive roots is pushed along the
    interior direction until strictly inside, then rescaled so its minimum
    pairing is exactly the sampled wall distance.
    """
    eta = rs.interior_direction
    u = rng.uniform(0.2, 1.0, size=(count, rs.n_roots))
    z = u @ rs.matrix
    mp = rs.pairings(z).min(axis=1)
    eta_mp = float(min_pairing(rs, eta))
    shift = np.maximum(0.0, (0.1 - mp) / eta_mp)
    z = z + shift[:, None] * eta[None, :]
    w = np.exp(rng.uniform(math.log(wall_lo), math.log(wall_hi), size=count))
    scale = w / rs.pairings(z).min(axis=1)
    return z * scale[:, None]


@dataclass(frozen=True)
class CheckResult:
    status: str  # "pass" | "fail"
    worst: float = 0.0
    samples: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class AssumptionReport:
    drift_regular: CheckResult
    sigma_regular: CheckResult
    strength_dominates_noise: CheckResult
    drift_alignment: CheckResult
    pairing_identity: CheckResult
    alignment_bound: float = 0.0

    def all_ok(self) -> bool:
        return all(c.ok for c in vars(self).values() if isinstance(c, CheckResult))


def validate_assumptions(m: ModelSpec, sample_count: int = 256,
                         tol: float = 1e-8) -> AssumptionReport:
    """Check the standing assumptions of the model on [0, T].

    Regularity of the outer coefficients comes from the exact Lipschitz
    data of the descriptors.  The noise-domination condition
    2 k(t) >= |sigma(t)|^2 is evaluated on a time lattice (exact for
    constant forms).  Chamber alignment of the outer drift is exact for
    every drift form.  The weighted pairing identity is tested at
    `sample_count` random interior points (seed 0) with log-uniform wall
    distances in [1e-3, 1e1].
    """
    rng = np.random.default_rng(0)
    T = m.T

    lip_b = m.drift.lipschitz(T)
    drift_reg = CheckResult(
        status="pass" if math.isfinite(lip_b) else "fail",
        worst=lip_b, detail=f"Lipschitz {lip_b:g}, |b(.,0)| <= {m.drift.at_origin_sup(T):g}")
    lip_s = m.sigma.lipschitz(T)
    sigma_reg = CheckResult(
        status="pass" if math.isfinite(lip_s) else "fail",
        worst=lip_s, detail=f"Lipschitz {lip_s:g}")

    ts, bar = _noise_lattice(m)
    worst_gap = float(np.max(bar ** 2 - 2.0 * m.k_at(ts).T))
    strength = CheckResult(
        status="pass" if worst_gap <= 0.0 else "fail",
        worst=max(worst_gap, 0.0), samples=len(ts),
        detail="max over lattice of |sigma|^2 - 2k")

    align_bound = 0.0
    if isinstance(m.drift, ZeroDrift):
        alignment = CheckResult(status="pass", detail="zero drift")
    elif isinstance(m.drift, LinearDrift):
        lam_min = m.drift.fn.inf_on(T)
        align_bound = max(0.0, -lam_min)
        alignment = CheckResult(status="pass", worst=align_bound,
                                detail="linear drift, bound max(0, -lambda)")
    else:  # ConstantDrift
        pr = m.rs.pairings(m.drift.array)
        worst = float(pr.min())
        if worst >= 0.0:
            alignment = CheckResult(status="pass", detail="constant drift aligned with chamber")
        else:
            alignment = CheckResult(status="fail", worst=-worst,
                                    detail="constant drift pushes through a wall")

    pts = sample_chamber_points(m.rs, sample_count, rng)
    t_probe = np.linspace(0.0, T, 5)
    worst_res = 0.0
    for t in t_probe:
        k_orbit = np.array([float(fn(t)) for fn in m.k])
        for x in pts:
            worst_res = max(worst_res, pairing_identity_residual(m.rs, k_orbit, x))
    identity = CheckResult(
        status="pass" if worst_res <= tol else "fail",
        worst=worst_res, samples=sample_count * len(t_probe),
        detail=f"max relative residual over samples (tol {tol:g})")

    return AssumptionReport(drift_regular=drift_reg, sigma_regular=sigma_reg,
                            strength_dominates_noise=strength,
                            drift_alignment=alignment,
                            pairing_identity=identity,
                            alignment_bound=align_bound)


def bessel_model(k, sigma0=1.0, lam=0.0, xi: float = 1.0, T: float = 1.0) -> ModelSpec:
    """d = 1 model with the single root {1}: chamber (0, inf).

    With constant coefficients, X^2 is a squared-Bessel-type diffusion
    whose mean solves a linear ODE; see `mc.cir_mean_check`.
    """
    if not xi > 0.0:
        raise ChamberError(f"start point must be positive, got {xi}")
    rs = RootSystem(dim=1, positive_roots=(tuple([1.0]),), orbits=((0,),))
    return ModelSpec(rs=rs, T=T, xi=(xi,), sigma=_scalar_sigma(sigma0), drift=_rate_drift(lam),
                     k=(as_timefn(k),))


def dyson_model(d: int, k, sigma=1.0, drift: DriftSpec | None = None,
                xi=None, T: float = 1.0) -> ModelSpec:
    """Type A(d) model (non-colliding particles on the line)."""
    rs = make_type_a(d)
    if xi is None:
        xi = tuple(float(d - 1 - 2 * i) / 2.0 for i in range(d))
    return ModelSpec(rs=rs, T=T, xi=tuple(xi), sigma=_scalar_sigma(sigma),
                     drift=drift if drift is not None else ZeroDrift(),
                     k=(as_timefn(k),))


def type_b_model(d: int, k_long, k_short, sigma=1.0, lam=0.0,
                 xi=None, T: float = 1.0) -> ModelSpec:
    """Type B(d) model (ordered positive particles); `k_long` weights the
    e_i -+ e_j orbit and `k_short` the e_i orbit."""
    rs = make_type_b(d)
    if xi is None:
        xi = tuple(float(d - i) for i in range(d))
    return ModelSpec(rs=rs, T=T, xi=tuple(xi), sigma=_scalar_sigma(sigma),
                     drift=_rate_drift(lam),
                     k=(as_timefn(k_long), as_timefn(k_short)))


def _rate_drift(lam) -> DriftSpec:
    """Drift lam(t) x, or ZeroDrift when lam is the constant 0."""
    lam_fn = as_timefn(lam)
    if getattr(lam_fn, "is_constant", False) and lam_fn(0.0) == 0.0:
        return ZeroDrift()
    return LinearDrift(lam_fn)


def _scalar_sigma(sigma) -> SigmaSpec:
    """Numbers and time functions become fn(t) * identity; descriptors pass
    through."""
    if isinstance(sigma, (int, float, ConstantFn, SqrtAffineFn, TableFn)):
        return DiagonalSigma((as_timefn(sigma),))
    return sigma
