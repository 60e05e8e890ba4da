"""Finite root systems and Weyl chamber geometry.

A positive root system here is a finite set of nonzero vectors
``alpha_1, ..., alpha_m`` in R^d, partitioned into symmetry orbits, such
that the full set ``R = {+-alpha_i}`` satisfies

* no two elements of ``R`` are parallel except a vector and its negative,
* ``R`` is closed under the reflections ``s_a(b) = b - 2 <a,b>/|a|^2 a``.

The fundamental Weyl chamber is the open cone
``W = {x : <alpha, x> > 0 for every positive root alpha}``.  Orbits matter
because repulsion strengths are constant on each orbit; they are stored as
a partition of root indices.

The two standard families used throughout:

* type A(d): roots ``e_i - e_j`` for ``i < j`` (one orbit, chamber
  ``x_1 > x_2 > ... > x_d``),
* type B(d): roots ``e_i -+ e_j`` for ``i < j`` (first orbit) together
  with ``e_i`` (second orbit), chamber ``x_1 > ... > x_d > 0``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChamberError, DimensionError, ParameterError


@dataclass(frozen=True)
class Root:
    """A single root vector."""

    vector: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DimensionError("root must be a nonempty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ParameterError("root coordinates must be finite")
        if np.dot(v, v) == 0.0:
            raise ParameterError("root vector must be nonzero")
        object.__setattr__(self, "vector", tuple(float(c) for c in v))


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking the two root-system axioms."""

    no_parallel_pass: bool
    reflection_pass: bool
    worst_reflection_residual: float
    parallel_violations: tuple[tuple[int, int], ...] = ()
    reflection_violations: tuple[tuple[int, int], ...] = ()

    @property
    def passed(self) -> bool:
        return self.no_parallel_pass and self.reflection_pass


@dataclass(frozen=True)
class RootSystem:
    """A positive root system with an orbit partition.

    `orbits` lists, for each orbit, the indices into `positive_roots`.
    Construction checks cheap structural invariants (consistent dimension,
    orbit partition); the geometric axioms are verified by
    `validate_axioms`, which preset constructors are guaranteed to pass.
    """

    dim: int
    positive_roots: tuple[Root, ...]
    orbits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")
        if not self.positive_roots:
            raise ParameterError("a root system needs at least one positive root")
        roots = tuple(r if isinstance(r, Root) else Root(tuple(r)) for r in self.positive_roots)
        object.__setattr__(self, "positive_roots", roots)
        for r in roots:
            if len(r.vector) != self.dim:
                raise DimensionError(
                    f"root {r.vector} does not live in dimension {self.dim}")
        orbits = tuple(tuple(int(i) for i in orb) for orb in self.orbits)
        object.__setattr__(self, "orbits", orbits)
        seen = sorted(i for orb in orbits for i in orb)
        if seen != list(range(len(roots))):
            raise ParameterError("orbits must partition the root indices exactly once")
        if any(len(orb) == 0 for orb in orbits):
            raise ParameterError("empty orbit")

    @property
    def n_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Positive roots stacked as rows, shape (n_roots, dim)."""
        m = np.array([r.vector for r in self.positive_roots], dtype=float)
        m.flags.writeable = False
        return m

    @cached_property
    def norms_sq(self) -> np.ndarray:
        v = np.sum(self.matrix ** 2, axis=1)
        v.flags.writeable = False
        return v

    @cached_property
    def orbit_of(self) -> np.ndarray:
        """Orbit index for each root, shape (n_roots,)."""
        lab = np.empty(self.n_roots, dtype=int)
        for j, orb in enumerate(self.orbits):
            lab[list(orb)] = j
        lab.flags.writeable = False
        return lab

    @cached_property
    def interior_direction(self) -> np.ndarray:
        """Sum of normalized positive roots; interior to the chamber for
        the standard families and their direct sums."""
        d = np.sum(self.matrix / np.sqrt(self.norms_sq)[:, None], axis=0)
        if np.any(self.matrix @ d <= 0.0):
            raise ChamberError(
                "no canonical interior direction; the normalized root sum "
                "is not inside the chamber for this system")
        d.flags.writeable = False
        return d

    def pairings(self, x: np.ndarray) -> np.ndarray:
        """<alpha, x> for every positive root; x may be a batch (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"point of dimension {x.shape[-1]} in a system of dimension {self.dim}")
        return x @ self.matrix.T


def make_type_a(d: int) -> RootSystem:
    """Type A(d) system in R^d: roots e_i - e_j for i < j, one orbit."""
    if d < 2:
        raise DimensionError(f"type A needs d >= 2, got {d}")
    roots = []
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(d)
            v[i], v[j] = 1.0, -1.0
            roots.append(Root(tuple(v)))
    return RootSystem(dim=d, positive_roots=tuple(roots),
                      orbits=(tuple(range(len(roots))),))


def make_type_b(d: int) -> RootSystem:
    """Type B(d) system: orbit of e_i -+ e_j (i < j) and orbit of e_i."""
    if d < 2:
        raise DimensionError(f"type B needs d >= 2, got {d}")
    roots = []
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(d)
            v[i], v[j] = 1.0, -1.0
            roots.append(Root(tuple(v)))
            w = np.zeros(d)
            w[i], w[j] = 1.0, 1.0
            roots.append(Root(tuple(w)))
    long_orbit = tuple(range(len(roots)))
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        roots.append(Root(tuple(v)))
    short_orbit = tuple(range(len(long_orbit), len(roots)))
    return RootSystem(dim=d, positive_roots=tuple(roots),
                      orbits=(long_orbit, short_orbit))


def direct_sum(a: RootSystem, b: RootSystem) -> RootSystem:
    """Embed two systems on orthogonal coordinate blocks.

    Orbits of the summands stay distinct orbits of the sum.
    """
    dim = a.dim + b.dim
    roots = []
    for r in a.positive_roots:
        roots.append(Root(tuple(r.vector) + (0.0,) * b.dim))
    for r in b.positive_roots:
        roots.append(Root((0.0,) * a.dim + tuple(r.vector)))
    orbits = tuple(tuple(orb) for orb in a.orbits)
    offset = a.n_roots
    orbits += tuple(tuple(i + offset for i in orb) for orb in b.orbits)
    return RootSystem(dim=dim, positive_roots=tuple(roots), orbits=orbits)


def min_pairing(rs: RootSystem, x: np.ndarray) -> float | np.ndarray:
    """Smallest pairing <alpha, x> over positive roots (wall distance up to
    root normalization).  Positive iff x lies strictly inside the chamber."""
    p = rs.pairings(x)
    return p.min(axis=-1)


def validate_axioms(rs: RootSystem, tol: float = 1e-9) -> AxiomReport:
    """Check the no-parallel-duplicates and reflection-closure axioms.

    Parallelism is tested by the cross term |<a,b>|^2 == |a|^2 |b|^2 (up to
    1e-12 relative, exact for integer-coordinate systems).  Reflection
    closure is tested by reflecting every signed root through every
    positive root and matching the image to the nearest signed root within
    `tol`.
    """
    m = rs.matrix
    n = rs.n_roots
    gram = m @ m.T
    norms = rs.norms_sq

    par_viol = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = gram[i, j] ** 2
            rhs = norms[i] * norms[j]
            if abs(lhs - rhs) <= 1e-12 * rhs:
                par_viol.append((i, j))

    signed = np.vstack([m, -m])
    worst = 0.0
    ref_viol = []
    for i in range(n):
        a = m[i]
        coef = 2.0 * (signed @ a) / norms[i]
        images = signed - coef[:, None] * a[None, :]
        d2 = np.sum((images[:, None, :] - signed[None, :, :]) ** 2, axis=2)
        best = np.sqrt(d2.min(axis=1))
        worst = max(worst, float(best.max()))
        for jraw in np.nonzero(best > tol)[0]:
            ref_viol.append((i, int(jraw) % n))

    return AxiomReport(
        no_parallel_pass=not par_viol,
        reflection_pass=not ref_viol,
        worst_reflection_residual=worst,
        parallel_violations=tuple(par_viol),
        reflection_violations=tuple(sorted(set(ref_viol))),
    )


def pairing_identity_residual(rs: RootSystem, k_orbit: np.ndarray, x: np.ndarray) -> float:
    """Relative residual of the weighted pairing identity at x.

    With per-orbit weights k the identity reads

        sum_a k_a |a|^2 / <a,x>^2
            = sum_a sum_b k_b <a,b> / (<a,x> <b,x>),

    which holds for the standard families because cross-orbit terms cancel
    and single-orbit sums reduce to a known harmonic identity.  Returns
    |lhs - rhs| / max(1, |lhs|); x must be strictly inside the chamber.
    """
    x = np.asarray(x, dtype=float)
    k_orbit = np.asarray(k_orbit, dtype=float)
    if k_orbit.shape != (rs.n_orbits,):
        raise DimensionError(
            f"need one weight per orbit ({rs.n_orbits}), got shape {k_orbit.shape}")
    p = rs.pairings(x)
    if p.min() <= 0.0:
        raise ChamberError("pairing identity is only defined strictly inside the chamber")
    k_root = k_orbit[rs.orbit_of]
    q = 1.0 / p
    lhs = float(np.sum(k_root * rs.norms_sq * q * q))
    gram = rs.matrix @ rs.matrix.T
    rhs = float(q @ gram @ (k_root * q))
    return abs(lhs - rhs) / max(1.0, abs(lhs))
