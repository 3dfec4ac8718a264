"""Brouwer degree of the gradient restricted to the orthogonal section.

The degree is the local index of the equilibrium as a zero of the section
field ``F(u) = B^T grad H(z0 + B u)``.  One eigendecomposition of the
section-compressed Hessian ``A`` decides the path, and one computation
serves both:

1. nondegenerate: ``A`` has no kernel and the degree is the sign of its
   determinant, the kernel-dimension-0 case of the reduction;
2. reduced (Lyapunov-Schmidt): split the section into the kernel ``K`` and
   the range ``R`` of ``A``, solve the range equation ``R^T F(K c + R y) = 0``
   for ``y(c)`` by chord Newton with the fixed block ``A_R = R^T A R``, and
   use the product formula ``deg F = sign det(A_R) * deg g`` for the reduced
   field ``g(c) = K^T F(K c + R y(c))`` (Golubitsky & Schaeffer,
   *Singularities and Groups in Bifurcation Theory I*, 1985; Lloyd, *Degree
   Theory*, 1978).  ``deg g`` is ``(sign g(r) - sign g(-r)) / 2`` for a
   one-dimensional kernel and the winding number of ``g`` on the circle of
   radius ``r`` for a two-dimensional one.  A larger kernel has no certified
   degree here and is reported without a value.

Every value either path returns is a certificate: the computation is
deterministic, and a reduced field within its evaluation error of zero at
a sample raises instead of guessing.  The orientation is that of the
section basis; only the nonvanishing of the degree matters downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundaryZero, Degenerate, HambifError, NoConvergence, NotAMinimum, SectionNotZero
from .linalg import _array, _integer, _real
from .model import EquilibriumOrbit, HamiltonianSystem, _central_differences, gradient_of

__all__ = [
    "SectionMap",
    "DegreeReport",
    "degree_nondegenerate",
    "degree_minimum",
    "degree_regular_value",
    "section_degree",
]

# An eigenvalue w of the section Jacobian belongs to the kernel, on both
# paths, when |w| <= _KERNEL_TOL * (1 + max|w|).  This sits two orders above
# the error of every Jacobian the reduction sees: central differences of a
# gradient (about 1e-10), second differences of an energy (about 1e-8) and
# central differences of a bare section map (exact for quadratic terms).
# linalg._inertia's 1e-8 is too tight: a forward-difference Jacobian
# of the squaring field at 0 has entries of about 1e-7, which it would read
# as nonsingular.
_KERNEL_TOL = 1e-6
# The reduced field is trusted at a sample only where |g| exceeds _SIGNAL
# times its evaluation error, estimated as |F(0)| + 1e-14 (1 + max|w|):
# F vanishes at the origin in exact arithmetic, so |F(0)| (SectionMap.origin)
# measures the evaluator's noise, and the second term is the roundoff floor.
_SIGNAL = 100.0
# The winding number starts from 16 equal angles and bisects every arc
# whose angle increment is not below pi/2, up to this many samples.
_MAX_CIRCLE_SAMPLES = 1024
_SINGULAR = "section Hessian has a near-zero eigenvalue"


@dataclass
class SectionMap:
    """The compressed gradient u -> B^T grad H(z0 + B u) on a ball |u| < radius; ``origin`` is |F(0)|.

    ``ValueError`` unless ``evaluator(0)`` has ``dim`` components.
    """

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    radius: float
    origin: float = field(init=False)

    def __post_init__(self):
        self.dim = _integer("dim", self.dim)
        _real("radius", self.radius)
        # relative to the radius, which scales with 1 + |z0| like the
        # refinement's gradient bound, so that every refined equilibrium passes
        origin = _array("evaluator(0)", self.evaluator(np.zeros(self.dim)), (self.dim,), finite=False)
        self.origin = float(np.linalg.norm(origin))
        if not self.origin < 1e-7 * self.radius:
            raise SectionNotZero(
                f"section map must vanish at the origin, got |F(0)|={self.origin:.3e} "
                f"(bound {1e-7 * self.radius:.3e})"
            )


@dataclass(frozen=True)
class DegreeReport:
    """The section degree: ``value`` is a certificate, or ``None`` with the reason in ``detail``."""

    value: int | None
    path: str
    detail: str = ""


def _section_map(system: HamiltonianSystem, eq: EquilibriumOrbit) -> SectionMap:
    """The section field of ``eq`` on the ball of radius ``1e-2 (1 + |z0|)``."""
    z0, basis = eq.z0, eq.section_basis
    radius = 1e-2 * (1.0 + float(np.linalg.norm(z0)))

    def evaluator(u):
        return basis.T @ gradient_of(system, z0 + basis @ np.asarray(u, dtype=float))

    return SectionMap(dim=basis.shape[1], evaluator=evaluator, radius=radius)


def degree_nondegenerate(smap: SectionMap, jac) -> int:
    """Sign of det(jac) for a nonsingular section-compressed Hessian, a finite ``smap.dim`` square matrix."""
    w, v = _eigh(_array("jac", jac, (smap.dim, smap.dim)))
    if _in_kernel(w).any():
        raise Degenerate(_SINGULAR)
    return _degree(smap, w, v)


def _eigh(jac):
    return np.linalg.eigh(0.5 * (jac + jac.T))


def _in_kernel(w) -> np.ndarray:
    return np.abs(w) <= _KERNEL_TOL * (1.0 + float(np.abs(w).max()))


def _fd_jacobian(smap: SectionMap) -> np.ndarray:
    return _central_differences(lambda us: np.array([smap.evaluator(u) for u in us], dtype=float), np.zeros(smap.dim))[0]


def _winding_number(g, r: float) -> int:
    """Winding number of ``g`` on the circle of radius ``r``, by adaptive bisection of the arcs."""

    def sample(t):
        value = g(r * np.array([np.cos(t), np.sin(t)]))
        return t, float(np.arctan2(value[1], value[0]))

    points = [sample(t) for t in np.linspace(0.0, 2.0 * np.pi, 17)[:-1]]
    points.append((2.0 * np.pi, points[0][1]))
    total = 0.0
    i = 0
    while i < len(points) - 1:
        (t0, a0), (t1, a1) = points[i], points[i + 1]
        step = (a1 - a0 + np.pi) % (2.0 * np.pi) - np.pi
        if abs(step) < 0.5 * np.pi:
            total += step
            i += 1
        elif len(points) < _MAX_CIRCLE_SAMPLES:
            points.insert(i + 1, sample(0.5 * (t0 + t1)))
        else:
            raise BoundaryZero(f"angle of g unresolved with {len(points)} samples")
    return int(round(total / (2.0 * np.pi)))


def _degree(smap: SectionMap, w, v) -> int:
    """:func:`degree_regular_value` from the eigendecomposition ``(w, v)`` of the symmetrised Jacobian."""
    in_kernel = _in_kernel(w)
    kernel, image, w_range = v[:, in_kernel], v[:, ~in_kernel], w[~in_kernel]
    sign, dim = (-1) ** int((w_range < 0.0).sum()), kernel.shape[1]
    if dim == 0:
        return sign
    if dim > 2:
        raise Degenerate(f"section kernel of dimension {dim}; the reduced degree is certified up to dimension 2")
    noise = smap.origin + 1e-14 * (1.0 + float(np.abs(w).max()))

    def g(c):  # the range equation by chord Newton with the fixed block A_R
        y = np.zeros(image.shape[1])
        for _ in range(50):
            f = np.asarray(smap.evaluator(kernel @ c + image @ y), dtype=float)
            residual = image.T @ f
            if np.linalg.norm(residual) <= noise:
                value = kernel.T @ f
                if not np.linalg.norm(value) > _SIGNAL * noise:
                    raise BoundaryZero(f"|g| = {np.linalg.norm(value):.3e} at |c| = {np.linalg.norm(c):.3e}")
                return value
            y = y - residual / w_range
            if np.linalg.norm(y) > smap.radius:
                break
        raise NoConvergence(f"range equation unsolved at |c| = {np.linalg.norm(c):.3e}")

    r = 0.5 * smap.radius
    if dim == 2:
        return sign * _winding_number(g, r)
    ends = [float(g(np.array([c]))[0]) for c in (r, -r)]
    return sign * (int(np.sign(ends[0]) - np.sign(ends[1])) // 2)


def degree_minimum(smap: SectionMap) -> int:
    """Degree +1 of a section field with a positive semidefinite Jacobian.

    Raises :class:`NotAMinimum` when the central-difference Jacobian has a
    negative eigenvalue or the degree of :func:`degree_regular_value` is not +1.
    """
    w, v = _eigh(_fd_jacobian(smap))
    if ((w < 0.0) & ~_in_kernel(w)).any():
        raise NotAMinimum(f"section Hessian has a negative eigenvalue {w.min():.3e}")
    value = _degree(smap, w, v)
    if value != 1:
        raise NotAMinimum(f"reduced degree is {value:+d}, not +1")
    return value


def degree_regular_value(smap: SectionMap, attempts: int = 64, seed: int = 0) -> int:
    """Degree by Lyapunov-Schmidt reduction onto a kernel of dimension at most 2.

    Central differences of ``smap.evaluator`` give the section Jacobian at
    the origin.  The reduced field is sampled at radius ``smap.radius / 2``.
    Raises :class:`Degenerate` for a larger kernel, :class:`BoundaryZero`
    where ``|g|`` does not clear 100 times its evaluation error, and
    :class:`NoConvergence` where the range equation cannot be solved inside
    the ball.  ``attempts`` and ``seed`` are accepted for compatibility and
    ignored: the computation is deterministic, and no regular value is drawn.
    """
    return _degree(smap, *_eigh(_fd_jacobian(smap)))


def section_degree(system: HamiltonianSystem, eq: EquilibriumOrbit) -> DegreeReport:
    """The degree of the section field from one eigendecomposition of its Jacobian.

    The Jacobian is ``eq.hessian`` compressed to the section.  The path is
    "nondegenerate" when it has no kernel and "reduced" otherwise.  Without
    a value the report has ``value=None`` and the reason in ``detail``.
    ``ValueError`` unless ``eq`` has ``system``'s dimension.
    """
    _array("eq.z0", eq.z0, (system.dim,))
    w, v = _eigh(eq.section_basis.T @ eq.hessian @ eq.section_basis)
    path, detail = ("reduced", _SINGULAR) if _in_kernel(w).any() else ("nondegenerate", "")
    try:
        value = _degree(_section_map(system, eq), w, v)
    except HambifError as exc:
        return DegreeReport(value=None, path=path, detail="; ".join(filter(None, (detail, str(exc)))))
    return DegreeReport(value=value, path=path, detail=detail)
