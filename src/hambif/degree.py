"""Brouwer degree of the gradient restricted to the orthogonal section.

The degree is taken over a small ball around the equilibrium inside the
section perpendicular to the group orbit.  Three paths, tried in order:

1. nondegenerate: the section-compressed Hessian is nonsingular and the
   degree is the sign of its determinant;
2. minimum: the equilibrium is certified an isolated local minimum on the
   section, which forces degree +1;
3. regular value: heuristic signed count of preimages of a small random
   regular value, computed by multi-start Newton and cross-checked over
   three seeds.

The orientation convention is the one induced by the order of the
orthonormal section basis; only the nonvanishing of the degree matters to
the downstream verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BoundaryZero,
    Degenerate,
    NotAMinimum,
    Unreliable,
)
from .linalg import compress, zero_threshold
from .model import EquilibriumOrbit, HamiltonianSystem, gradient_of, hessian_of

__all__ = [
    "SectionMap",
    "DegreeReport",
    "section_map",
    "degree_nondegenerate",
    "degree_minimum",
    "degree_regular_value",
    "section_degree",
]


@dataclass
class SectionMap:
    """The compressed gradient u -> B^T grad H(z0 + B u) on a ball |u| < radius."""

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    radius: float

    def __post_init__(self):
        origin = np.linalg.norm(self.evaluator(np.zeros(self.dim)))
        if not origin < 1e-9:
            raise ValueError(f"section map must vanish at the origin, got |F(0)|={origin:.3e}")


@dataclass(frozen=True)
class DegreeReport:
    value: int | None
    path: str
    reliable: bool
    radius: float
    detail: str = ""


def section_map(system: HamiltonianSystem, eq: EquilibriumOrbit) -> SectionMap:
    """The section field of ``eq`` on the ball of radius ``1e-2 (1 + |z0|)``."""
    basis = eq.section_basis
    z0 = eq.z0
    radius = 1e-2 * (1.0 + float(np.linalg.norm(z0)))

    def evaluator(u):
        return basis.T @ gradient_of(system, z0 + basis @ np.asarray(u, dtype=float))

    return SectionMap(dim=basis.shape[1], evaluator=evaluator, radius=radius)


def degree_nondegenerate(smap: SectionMap, jac) -> int:
    """Sign of det(jac) for a nonsingular section-compressed Hessian."""
    jac = np.asarray(jac, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (jac + jac.T))
    if float(np.min(np.abs(w))) <= 1e-8:
        raise Degenerate("section Hessian has a near-zero eigenvalue")
    return -1 if int(np.sum(w < 0.0)) % 2 else 1


def _sphere_points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _fd_jacobian_map(f, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    f0 = np.asarray(f(u), dtype=float)
    jac = np.empty((f0.size, u.size))
    for i in range(u.size):
        du = u.copy()
        h = 1e-7 * (1.0 + abs(u[i]))
        du[i] += h
        jac[:, i] = (np.asarray(f(du), dtype=float) - f0) / h
    return jac


def degree_minimum(smap: SectionMap, seed: int = 0) -> int:
    """Degree +1 after certifying an isolated local minimum on the section.

    Certification: the finite-difference Jacobian of the section field at
    the origin is positive semidefinite and the field has no zero at 64
    random points of the probe sphere of radius ``smap.radius``.
    """
    jac = _fd_jacobian_map(smap.evaluator, np.zeros(smap.dim))
    w = np.linalg.eigvalsh(0.5 * (jac + jac.T))
    if np.any(w < -max(zero_threshold(w), 1e-7)):
        raise NotAMinimum(f"section Hessian has a negative eigenvalue {w.min():.3e}")
    rng = np.random.default_rng(seed)
    for point in _sphere_points(rng, smap.dim, 64):
        if np.linalg.norm(smap.evaluator(smap.radius * point)) < 1e-10:
            raise NotAMinimum("section field vanishes on the probe sphere")
    return 1


def _regular_value_once(smap: SectionMap, attempts: int, rng: np.random.Generator) -> int:
    r = smap.radius
    boundary = _sphere_points(rng, smap.dim, max(32, 16 * smap.dim))
    norms = [float(np.linalg.norm(smap.evaluator(r * point))) for point in boundary]
    if min(norms) < 1e-10:
        raise BoundaryZero(f"boundary sample with |F| = {min(norms):.3e}")
    infimum = min(norms)
    for _ in range(5):  # retry with a fresh target if a preimage is degenerate
        y = 0.01 * infimum * _sphere_points(rng, smap.dim, 1)[0]
        roots = []
        degenerate = False
        for start in rng.uniform(-r, r, size=(attempts, smap.dim)):
            if np.linalg.norm(start) >= r:
                continue
            u = start.copy()
            ok = False
            for _ in range(40):
                fu = smap.evaluator(u) - y
                if np.linalg.norm(fu) < 1e-12 + 1e-9 * np.linalg.norm(y):
                    ok = True
                    break
                jac = _fd_jacobian_map(smap.evaluator, u)
                try:
                    du = np.linalg.solve(jac, -fu)
                except np.linalg.LinAlgError:
                    break
                if np.linalg.norm(du) > 4.0 * r:
                    break
                u = u + du
            if not ok or np.linalg.norm(u) >= r * (1.0 - 1e-9):
                continue
            if any(np.linalg.norm(u - known) < 1e-6 * r for known, _ in roots):
                continue
            det = float(np.linalg.det(_fd_jacobian_map(smap.evaluator, u)))
            if abs(det) < 1e-12:
                degenerate = True
                break
            roots.append((u, 1 if det > 0.0 else -1))
        if degenerate:
            continue
        roots.sort(key=lambda item: tuple(item[0]))
        return sum(sign for _, sign in roots)
    raise Unreliable("could not find a regular target value")


def degree_regular_value(smap: SectionMap, attempts: int = 64, seed: int = 0) -> int:
    """Signed preimage count of a small regular value (heuristic path).

    Runs the whole procedure under three distinct seeds derived from
    ``seed``; raises :class:`Unreliable` unless all runs agree.  Preimage
    completeness is not certified, so callers must treat the result as
    heuristic.
    """
    values = [
        _regular_value_once(smap, attempts, np.random.default_rng(seed + 101 * i))
        for i in range(3)
    ]
    if len(set(values)) != 1:
        raise Unreliable(f"seed runs disagree: {values}")
    return values[0]


def section_degree(system: HamiltonianSystem, eq: EquilibriumOrbit, seed: int = 0) -> DegreeReport:
    """Fallback chain nondegenerate -> minimum -> regular value.

    The first applicable path wins; the regular-value path makes 64 Newton
    starts per run.  Boundary zeros shrink the ball radius by halves, at
    most 10 times.  A failed regular-value consistency check reports
    ``value=None`` instead of raising.
    """
    smap = section_map(system, eq)
    jac = compress(hessian_of(system, eq.z0), eq.section_basis)
    try:
        value = degree_nondegenerate(smap, jac)
        return DegreeReport(value=value, path="nondegenerate", reliable=True, radius=smap.radius)
    except Degenerate as exc:
        first_failure = str(exc)
    try:
        value = degree_minimum(smap, seed=seed)
        return DegreeReport(
            value=value, path="minimum", reliable=True, radius=smap.radius, detail=first_failure
        )
    except NotAMinimum as exc:
        second_failure = str(exc)
    radius = smap.radius
    for _ in range(10):
        shrunk = SectionMap(dim=smap.dim, evaluator=smap.evaluator, radius=radius)
        try:
            value = degree_regular_value(shrunk, seed=seed)
            return DegreeReport(
                value=value,
                path="regular-value",
                reliable=False,
                radius=radius,
                detail=f"{first_failure}; {second_failure}",
            )
        except BoundaryZero:
            radius *= 0.5
        except Unreliable as exc:
            return DegreeReport(
                value=None, path="regular-value", reliable=False, radius=radius, detail=str(exc)
            )
    return DegreeReport(
        value=None,
        path="regular-value",
        reliable=False,
        radius=radius,
        detail="boundary zeros persisted through 10 radius halvings",
    )
