"""Harmonic-balance verification of predicted bifurcating orbit branches.

A 2-pi-periodic solution of the rescaled flow ``z' = lambda J grad H(z)``
is represented by truncated Fourier coefficients.  The solver pins the
branch by amplitude in the Sobolev norm

    |z|^2 = 2 pi |a0|^2 + pi sum_k k (|a_k|^2 + |b_k|^2),

kills the time-shift freedom with a phase condition against the linear
predictor, and kills group drift with one pinning row per orbit generator
(``EquilibriumOrbit.orbit_generators``, one per dimension of the orbit).

The family near a group orbit is fixed only up to a time shift and the group
action, so which kernel vector starts a branch is a free choice.
``kernel_direction`` makes it once, as a projection: ``a1`` is the fixed
generic vector ``g_i = sin(i + 1)`` projected onto the level's invariant
subspace ``E`` intersected with ``Fix(R)`` (onto ``E`` where there is no
reversor ``R``), and ``b1 = lambda0 J A a1``.  The projector ``E E^T`` is the
same for every orthonormal basis of ``E``, so no basis routine or eigensolver
decides a branch's sign or time origin.

The Galerkin equations of an autonomous invariant flow satisfy one
integral identity per conserved quantity (the energy, plus one momentum
per orbit generator), which makes the naive bordered Jacobian singular
at solutions.  The solver therefore carries one unfolding multiplier per
identity, multiplying the gradient field of the matching conserved
quantity; the multipliers vanish at solutions and restore a square,
nonsingular bordered system that dense LU can handle.

Reversible systems take a symmetric ansatz with half the unknowns.  Let
``R`` be a reversor of H (``model.HamiltonianSystem.reversor``: diagonal,
``R J R = -J``, ``H(R z) = H(z)``) that fixes ``z0``.  By the reversible
Lyapunov centre theorem (Devaney, Trans. AMS 218, 1976; Lamb & Roberts,
Physica D 112, 1998) the family through ``z0`` is symmetric,
``z(-t) = R z(t)`` after a time shift: ``a0`` and the ``a_k`` lie in
``Fix(R)``, the ``b_k`` in ``Fix(-R)``.  The field ``z' - lambda J grad H``
of such a curve is ``-R``-odd, so only the ``Fix(-R)`` part of its constant
and cosine Galerkin rows and the ``Fix(R)`` part of its sine rows can be
nonzero: as many equations as unknowns, with ``lambda`` and the amplitude
pin.  The symmetry fixes the phase, so the phase row goes.  The energy
identity's integrand ``grad H . z'`` is odd on symmetric curves, so it
constrains none of the kept rows and the energy multiplier goes.  So do the
pin row and the momentum multiplier of a generator ``X`` with ``R X R = -X``:
``exp(s X)`` moves a symmetric curve off the symmetric ones, the pin
``(a0 - z0) . X z0`` vanishes on ``Fix(R)``, and the momentum identity's
integrand is odd too.  ``kernel_direction`` takes the linear predictor in
this symmetric frame, and ``solve_orbit`` takes the ansatz when
``_symmetric_frame`` finds its hypotheses hold at ``z0``; ``residual_field``
checks the full, unsymmetrised equations either way.

Where H is also even about ``z0``, ``H(2 z0 - z) = H(z)``, the family lies
in the fixed space of the twisted Z2 ``{(-I, pi)}`` (Golubitsky, Stewart &
Schaeffer, Singularities and Groups in Bifurcation Theory II, ch. XVI;
Montaldi, Roberts & Stewart, Phil. Trans. R. Soc. A 325, 1988):
``2 z0 - z(t + pi)`` solves the same equations, is symmetric when ``z`` is,
and has the same mode 1, so by the uniqueness of the nonresonant family it is
``z`` itself.  So ``z(t + pi) = 2 z0 - z(t)``: the mean is exactly ``z0`` and
every even mode is empty.  The half-wave ansatz keeps the odd ``a_k`` in
``Fix(R)``, the odd ``b_k`` in ``Fix(-R)`` and their Galerkin rows, with
``a0 = z0`` no unknown.  Its field has ``F(t + pi) = -F(t)`` and
``F(-t) = -R F(t)``, so each kept Galerkin sum over the full ``4M``-point
grid is exactly the sum over its ``M + 1`` points in ``[0, pi/2]`` with the
weights ``2 (1, 2, ..., 2, 1)``.  ``_half_wave`` decides once per branch,
from one stacked gradient call at ``z0 +- v`` for points ``v`` on the kernel
pair's circle and on generic directions, at three radii, that
``grad H(z0 + v) + grad H(z0 - v)`` vanishes to rounding; a system without a
gradient makes no probe and keeps the symmetric ansatz.  The probe sees
finitely many points, so the ``4M + 1``-point check of the full equations
stays the guard, and a half-wave solve that fails it, or fails otherwise, is
solved again in the symmetric ansatz, which the branch then keeps: a wrong
hypothesis costs time, never an orbit.  ``_BranchSetup.solve`` owns that
fallback, and nothing else rewrites a branch's ansatz.

Only the amplitude pin moves along a branch, and it is an argument of the
residual, not a field of the problem: a branch is one ``_BranchSetup``,
which builds the kernel pair (from the report ``analyze`` kept on ``eq``),
the ansatz and each truncation's problem once, for every step and doubling,
and solves each step.  ``continue_branch`` builds it once and takes the sup
distances of each truncation's orbits in one stacked pass after the last
step.  The cos/sin tables of the equispaced grids (``4M`` solve points,
to mode ``2M``; ``4M + 1`` residual and energy checks; ``8M`` sup samples)
have one owner, the read-only cache ``_grid``, which every branch and every
lone call shares.  Each step starts from the last orbit scaled by the
Lyapunov-Schmidt orders (``_predict``): mode ``k`` is ``O(s^k)``,
``a0 - z0`` and ``lambda - lambda0`` are ``O(s^2)``.

The harmonic-balance equations are the ``z'`` rows, one signed entry each,
and a few dense constraint rows, all constant, plus the Galerkin projection
of the nonlinear fields.  Newton's Jacobian is those rows plus the fields'
derivatives, assembled by the alternating frequency/time method (Cameron &
Griffin, J. Appl. Mech. 56, 1989; Krack & Gross, Harmonic Balance for
Nonlinear Vibration Problems, 2019): the Hessians of H at the collocation
points, from one stacked call per evaluation where the evaluator has a
stacked form (``model._hessians_of``), projected onto the Fourier basis.
``J`` is applied as ``linalg._apply_j``, a swap of the halves with one sign
flip, the package's one product with ``J``.  On the
equispaced grid each Galerkin sum of the field derivative ``D`` is a signed
pair of its weighted Fourier coefficients, ``C_|k-l| +- C_k+l`` or
``S_k+l +- S_|k-l|``: Hill's block Toeplitz-plus-Hankel form (Deconinck &
Kutz, J. Comput. Phys. 219, 2006).  So the projection is one product of a
``(4M + 2) x P`` transform table with ``D`` and two gathers through
``O(M^2)`` index tables, and no table of the problem grows with the
Jacobian.  The residual likewise takes the gradients at all collocation
points from one ``model._gradients_of`` call, and returns them with the
collocation values and fields (the curve) beside the residual; the Jacobian
at the same unknowns takes that curve as an argument, so the problem keeps
no memo.  Its Hessians come from one ``model._hessians_of`` call, which owns
the rule for a system without an analytic Hessian: forward differences of
the gradients the curve holds (``model`` documents the kernel).
Newton is a chord iteration (Kelley, Solving Nonlinear Equations with
Newton's Method, SIAM 2003): one Jacobian serves as many steps as keep
contracting the residual by ``CHORD_CONTRACTION``, so a step with a kept
Jacobian costs one residual, the gradients at the collocation points, and an
assembly is paid only when the contraction slows.  Newton reaches each
Jacobian only through ``_HarmonicBalance.linear``, which assembles it, drops
the entries below ``eps * max|J|`` (they lie under its rounding, and their
products slow the LU with subnormal arithmetic) and returns the cleaned
matrix with its dense solve, a ``_DenseSolve``: how the linear systems are
solved is that one method's choice, not Newton's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import BifurcationCandidate, spectral_report
from .errors import EmptyKernel, HambifError, NoConvergence, WrongBranch
from .linalg import _apply_j, _array, _integer, _real
from .model import (
    EquilibriumOrbit,
    HamiltonianSystem,
    _EPS,
    _SYMMETRY_TOL,
    _energies_of,
    _gradients_of,
    _hessians_of,
)

__all__ = [
    "FourierOrbit",
    "Branch",
    "kernel_direction",
    "residual_field",
    "solve_orbit",
    "continue_branch",
    "minimal_period_check",
    "transform_orbit",
    "orbit_energy_range",
    "sup_distance",
]

TWO_PI = 2.0 * np.pi

MAX_MODES = 64
"""Largest Fourier truncation the mode doubling of ``solve_orbit`` reaches."""

NEWTON_MAX_STEPS = 40
"""Newton steps per solve, counting a retry with a rebuilt Jacobian."""

NEWTON_DAMPING = 0.5 ** np.arange(9)
"""Step fractions the line search tries in turn, 1 down to 1/256, until the max-norm residual falls."""

CHORD_CONTRACTION = 0.1
"""Largest max-norm residual ratio of an accepted undamped step that keeps the Jacobian.

Chord (Shamanskii) Newton, Kelley, *Solving Nonlinear Equations with
Newton's Method* (SIAM, 2003): a step that contracts less, or needed damping,
has the Jacobian rebuilt at the new iterate.  Bounds of 0.3 and 0.5 give
the same Jacobian counts on the satellite, pendulum and N = 8 chain
branches and one or two fewer on the gradient-only N = 4 chain, but let
kept steps converge as slowly as 0.5 per step against the 40-step cap.
"""


@dataclass
class FourierOrbit:
    """Truncated Fourier representation z(t) = a0 + sum a_k cos kt + b_k sin kt.

    ``ValueError`` unless ``a0`` is a point and ``a`` and ``b`` are ``(M, len(a0))`` arrays of one ``M``;
    an entry may be non-finite, as in the solver's trial orbits.
    """

    a0: np.ndarray
    a: np.ndarray  # (m, 2N)
    b: np.ndarray  # (m, 2N)
    lam: float
    residual: float = np.nan
    amplitude: float = np.nan

    def __post_init__(self):
        self.a0 = _array("a0", self.a0, (None,), finite=False)
        self.a = _array("a", self.a, (None, self.a0.size), finite=False)
        self.b = _array("b", self.b, self.a.shape, finite=False)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def period(self) -> float:
        """Physical period of the matching orbit of z' = J grad H."""
        return TWO_PI * self.lam

    def evaluate(self, t) -> np.ndarray:
        return self._values(_trig(t, self.m))

    def _values(self, table) -> np.ndarray:
        """z, and ``_rates`` z', at the times of a ``_trig`` table."""
        return self.a0 + table[0] @ self.a + table[1] @ self.b

    def _rates(self, table) -> np.ndarray:
        k = np.arange(1, self.m + 1)[:, None]
        return table[0] @ (k * self.b) - table[1] @ (k * self.a)

    def mode_energies(self, z0) -> np.ndarray:
        """Sobolev-weighted energy per mode of z - z0 (index 0 is the mean).

        ``ValueError`` unless ``z0`` is a finite point of the orbit's length.
        """
        shift = self.a0 - _array("z0", z0, self.a0.shape)
        ek = np.pi * np.arange(1, self.m + 1) * ((self.a**2).sum(axis=1) + (self.b**2).sum(axis=1))
        return np.concatenate([[TWO_PI * float(shift @ shift)], ek])


def _trig(t, m: int) -> tuple:
    """``(cos kt, sin kt)`` for ``k = 1..m``, each ``(len(t), m)``."""
    phases = np.outer(np.asarray(t, dtype=float), np.arange(1, m + 1))
    return np.cos(phases), np.sin(phases)


@functools.lru_cache
def _grid(points: int, m: int) -> tuple:
    """``_trig`` on the equispaced grid ``t_p = 2 pi p / points``, built once per ``(points, m)``, read-only and shared."""
    table = _trig(np.arange(points) * TWO_PI / points, m)
    for part in table:
        part.flags.writeable = False
    return table


def sup_distance(orbit: FourierOrbit, z0) -> float:
    """max_t |z(t) - z0|, a property of the orbit that a time shift does not move: ``_sup_distances`` of a stack of one.

    ``ValueError`` unless ``z0`` is a finite point of the orbit's length.
    """
    return float(_sup_distances([orbit], _array("z0", z0, orbit.a0.shape))[0])


def _sup_distances(stack, z0) -> np.ndarray:
    """``sup_distance`` of every orbit of ``stack``, all of one ``M``, in one pass on the ``8M``-point ``_grid`` (1 point at ``M = 0``).

    ``f(t) = |z(t) - z0|^2`` is a trigonometric polynomial of degree ``2M``, so
    its ``8M`` equispaced samples give its Fourier coefficients exactly (one
    real FFT per orbit).  Each local maximum of an orbit's samples is refined by
    three Newton steps on ``f'``, taken only where ``f'' < 0``, and ``f`` is
    evaluated there, so each result lies between the grid maximum and the sup.
    ``z - z0`` is summed as ``(a0 - z0) + modes``, which does not cancel far
    from the origin.  Each orbit's ``z - z0`` is scaled by ``2^-e`` before it
    is squared, ``e`` the binary exponent of its largest component on the
    grid, and its sup by ``2^e`` at the end.  A power of two scales exactly,
    so an orbit's bits are those of the unscaled pass wherever that pass
    makes no subnormal or infinite value, and coefficients near ``1e-200`` or
    ``1e200`` keep their squares in the float range.  Each step is row-wise
    (a matmul per orbit or maximum, an FFT per row, last-axis sums), so no
    orbit's value depends on its stack.
    """
    m = stack[0].m
    points = max(8 * m, 1)  # one sample of an orbit without modes, a constant curve
    shift = np.array([orbit.a0 for orbit in stack])[:, None] - z0  # (n, 1, 2N)
    a, b = (np.array([getattr(orbit, key) for orbit in stack]) for key in "ab")
    cos, sin = _grid(points, m)
    dz = shift + cos @ a + sin @ b
    power = np.frexp(np.abs(dz).max(axis=(1, 2)))[1]
    dz = np.ldexp(dz, -power[:, None, None])
    samples = (dz * dz).sum(axis=-1)
    ring = np.concatenate([samples[:, -1:], samples, samples[:, :1]], axis=1)
    rows, cols = np.nonzero((samples >= ring[:, :-2]) & (samples >= ring[:, 2:]))  # the local maxima
    t, ij = cols * (TWO_PI / points), 1j * np.arange(1, 2 * m + 1)
    slopes = np.fft.rfft(samples)[rows, None, 1 : 2 * m + 1] * np.array([ij, ij * ij])  # f', f'' up to a factor 1/4M
    for _ in range(3):
        df, d2f = (slopes * np.exp(t[:, None, None] * ij)).sum(axis=-1).real.T
        t -= np.divide(df, d2f, out=np.zeros_like(t), where=d2f < 0.0)
    cos, sin = (c[:, None] for c in _trig(t, m))
    dz = np.ldexp(shift[rows] + cos @ a[rows] + sin @ b[rows], -power[rows, None, None])
    samples[rows, cols] = np.maximum(samples[rows, cols], (dz * dz).sum(axis=-1)[:, 0])
    return np.ldexp(np.sqrt(samples.max(axis=1)), power)


def orbit_energy_range(system: HamiltonianSystem, orbit: FourierOrbit):
    """(min, max) of H along the orbit on an equispaced grid of 4M + 1 points; NaN if H is NaN at any of them.

    ``ValueError`` unless the orbit has ``system``'s dimension.
    """
    _array("orbit.a0", orbit.a0, (system.dim,), finite=False)
    values = _energies_of(system, orbit._values(_grid(4 * orbit.m + 1, orbit.m)))
    return float(np.min(values)), float(np.max(values))


@dataclass
class Branch:
    """Orbits emanating from the equilibrium, ordered by increasing amplitude."""

    orbits: list
    period_trend: list  # (amplitude, 2 pi lambda)
    sup_distance_trend: list  # (amplitude, max_t |z - z0|)
    failures: list = field(default_factory=list)


def kernel_direction(system: HamiltonianSystem, eq: EquilibriumOrbit, candidate: BifurcationCandidate) -> tuple:
    """Kernel pair ``(a1, b1)`` of the mode-1 matrix ``T_1`` of ``eq.hessian`` at the level ``candidate.lambda0``.

    ``a1 = E E^T ((1 + r)/2 g)``, the projection of the fixed generic vector
    ``g_i = sin(i + 1)`` onto ``E`` intersected with ``Fix(R)``, ``E`` the
    level's invariant subspace of ``J A`` and ``r`` the diagonal of the
    reversor ``R`` (onto ``E`` alone where there is none), and
    ``b1 = lambda0 J A a1``, scaled to unit Sobolev norm.  Where ``R`` is a
    reversible symmetry of ``A`` it maps ``E`` to itself, so the two
    projections commute, ``a1`` lies in ``Fix(R)`` and ``b1`` in ``Fix(-R)``.
    ``E E^T`` is the same for every orthonormal basis of ``E``, so the pair,
    and with it the branch's sign and time origin, is a property of the
    system alone.  ``EmptyKernel`` unless ``(1, j0)`` is a contributor of
    ``lambda0`` (``SpectralReport.contributors``), or where the projection is
    below ``1e-8 |g|``.
    """
    report, lam, j0 = spectral_report(system, eq), candidate.lambda0, candidate.j0
    if (1, j0) not in report.contributors(lam):
        raise EmptyKernel(f"level {lam:.6g} is not 1/beta_{j0}; no mode-1 kernel (candidate inconsistent)")
    e = report.subspaces[j0 - 1]
    r = np.ones(system.dim) if system.reversor is None else system.reversor
    g = np.sin(np.arange(1, system.dim + 1))  # the first generic direction of _half_wave
    a1 = e @ (e.T @ ((1.0 + r) / 2.0 * g))
    if np.linalg.norm(a1) < 1e-8 * np.linalg.norm(g):
        raise EmptyKernel(f"projection {np.linalg.norm(a1):.3e} of the generic vector onto level {lam:.6g} is below 1e-8 |g|")
    b1 = lam * _apply_j(eq.hessian @ a1)
    scale = np.sqrt(np.pi * (float(a1 @ a1) + float(b1 @ b1)))
    return a1 / scale, b1 / scale


def residual_field(system: HamiltonianSystem, orbit: FourierOrbit, collocation_points: int) -> np.ndarray:
    """z'(t_i) - lambda J grad H(z(t_i)) at equispaced collocation points, on the shared ``_grid`` table.

    ``ValueError`` unless the orbit has ``system``'s dimension and ``collocation_points`` is an integer of at least ``2M + 1``.
    """
    _array("orbit.a0", orbit.a0, (system.dim,), finite=False)
    collocation_points = _integer("collocation_points", collocation_points, 2 * orbit.m + 1)
    table = _grid(collocation_points, orbit.m)
    return orbit._rates(table) - orbit.lam * _apply_j(_gradients_of(system, orbit._values(table)))


class _HarmonicBalance:
    """Galerkin residual, constraints and their exact Jacobian for one amplitude-pinned solve.

    The coefficients ``a0, a_1..a_M, b_1..b_M`` (each of length 2N) are the
    rows of a ``(2M + 1, 2N)`` matrix that multiply the basis
    ``(1, cos kt, sin kt)``.  The unknowns are the entries of that matrix
    in ``keep`` (row by row), then ``lam`` and ``n_mult`` multipliers; the
    equations are the Galerkin rows in ``rows``, then the constraints.

    An ansatz is stated once, as parity groups: a group is a set of basis
    functions times a set of components (``col_comps`` for the unknowns,
    ``row_comps`` for the rows), every group has the same number of
    components, and each kept basis function belongs to one.  So the unknowns
    and the Galerkin rows are each a ``(basis, component)`` table, in the
    order of the flat places ``basis * 2N + component`` that ``keep`` and
    ``rows`` mark, and every operator on them a ``(row basis, column basis)``
    table of component blocks.  Without ``reversor`` there is one group, every
    basis function times all 2N components, on ``4M`` points, with the energy
    multiplier, the phase row and one pin row and momentum multiplier per
    orbit generator.  With ``reversor`` (the diagonal of ``R``) this is the
    symmetric ansatz of the module docstring: two groups, the cosines (``a0``
    and ``a_k``) and the sines, the columns ``Fix(R)`` and ``Fix(-R)`` and the
    rows ``Fix(-R)`` and ``Fix(R)`` of each, N components each because
    ``r[N:] = -r[:N]``; the amplitude pin is the only constraint.  Its
    ``2M + 1`` points are those of the full grid in ``[0, pi]``: the field at
    ``t_(4M - p) = -t_p`` is ``-R`` times the field at ``t_p``, so every kept
    Galerkin sum over the full grid is the sum over ``[0, pi]`` with the
    weights of the interior points doubled.  With ``half_wave`` too, the
    groups step over the basis by 2, so they hold the odd ``k`` alone, ``a0``
    is ``fixed`` at ``z0``, and the ``M + 1`` points in ``[0, pi/2]`` carry
    twice those weights, the field being odd under ``t -> t + pi`` as well.

    The residual is the ``z'`` rows, ``W^T phi'`` times ``I``: one entry per
    row, ``rate`` times the unknown of the ``partner`` basis function and the
    same component (``k b_k`` on row ``a_k``, ``-k a_k`` on row ``b_k``);
    plus the kept Galerkin rows of ``sum_q x_q F_q(z)`` over the unknowns
    ``x_q = lam, mu_0, ...``, which ``curve`` gives (``-J grad H``,
    ``-grad H``, each ``-M_i z``); then the constraint rows ``cons @ x``
    less ``offsets`` (the group pins' ``X_i z0 . z0``), the pin ``s`` off
    the first.  The pin and the collocation curve are arguments, not state:
    a problem is a fixed operator of its unknowns, built once per ``M`` of a
    branch, and no attribute is written after ``__init__``.
    """

    def __init__(self, system, eq, predictor, m, reversor=None, half_wave=False):
        self.system, self.m = system, m
        self.dim = d = system.dim
        ap, bp = predictor
        width, points = 2 * m + 1, 4 * m
        step = 2 if half_wave else 1  # the half-wave keeps the odd modes alone
        self.points = points if reversor is None else 2 * m // step + 1  # all 4M, or those in [0, pi] or [0, pi/2]
        cos, sin = (table[: self.points] for table in _grid(points, 2 * m))  # the basis reads k <= M, the transform k <= 2M
        # basis and Galerkin test weights at the solve points, each (P, 2M + 1)
        self.phi = np.hstack([np.ones((self.points, 1)), cos[:, :m], sin[:, :m]])
        self.weights = self.phi * np.concatenate([[1.0], np.full(2 * m, 2.0)]) / points
        self.fixed = np.zeros(width * d)  # the coefficients that are not unknowns: a0 = z0 in the half-wave
        a1, b1 = slice(d, 2 * d), slice(d + d * m, 2 * d + d * m)
        generators = eq.orbit_generators if reversor is None else ()
        self.n_mult = len(generators) + (reversor is None)  # energy, then one momentum per generator
        cons = np.zeros((1 + self.n_mult, width * d))
        sine = np.arange(width) > m
        freq = np.where(sine, np.arange(width) - m, np.arange(width))
        bases = np.flatnonzero(freq % step == step - 1)
        if reversor is None:
            group = np.zeros(width, dtype=int)
            self.row_comps = self.col_comps = np.arange(d)[None]
            cons[1, a1], cons[1, b1] = np.pi * bp, -np.pi * ap
            for i, g in enumerate(generators):
                cons[2 + i, :d] = g @ eq.z0
        else:
            group = sine.astype(int)
            plus, minus = np.flatnonzero(reversor > 0), np.flatnonzero(reversor < 0)
            self.row_comps, self.col_comps = np.array([minus, plus]), np.array([plus, minus])  # a_k in Fix(R), b_k in Fix(-R)
            self.weights *= (np.concatenate([[1.0], np.full(self.points - 2, 2.0), [1.0]]) * step)[:, None]
            if half_wave:
                self.fixed[:d] = eq.z0
        # the unknowns and the Galerkin rows: each kept basis function times its group's components
        self.keep, self.rows = np.zeros((2, width * d), dtype=bool)
        for mask, comps in ((self.keep, self.col_comps), (self.rows, self.row_comps)):
            mask.reshape(width, d)[bases[:, None], comps[group[bases]]] = True
        cons[0, a1], cons[0, b1] = np.pi * ap, np.pi * bp
        self.n_coeff = n = int(np.count_nonzero(self.keep))
        self.size = n + 1 + self.n_mult
        self.cons, self.offsets = cons[:, self.keep], cons[:, :d] @ eq.z0
        # gradient fields of the conserved momenta: grad( -z.(J X z)/2 ) = -J X z
        self.moment_mats = [-_apply_j(g, axis=0) for g in generators]
        # each kept basis function's frequency, whether each row and each column is a sine, the group's components
        k, rs, cs, nc = freq[bases], sine[bases][:, None], sine[bases], self.row_comps.shape[1]
        # the z' rows: row (cos kt, i) reads the unknown (sin kt, i) times k and
        # row (sin kt, i) the unknown (cos kt, i) times -k; a0's rows read 0
        self.partner = (np.searchsorted(bases, bases + np.where(cs, -m, m))[:, None] * nc + np.arange(nc)).ravel()
        self.rate = np.repeat(np.where(cs, -k, k).astype(float), nc)
        # Hill's form of the field part: with C_j and S_j the weighted sums of
        # cos jt D and sin jt D over the solve points (``transform``, j = 0..2M),
        # sum_p w_k(t_p) phi_l(t_p) D(t_p) is C_|k-l| + C_k+l for two cosines,
        # C_|k-l| - C_k+l for two sines and S_k+l +- S_|k-l| for a mixed pair,
        # the sign of the sine's frequency less the cosine's; a0's row takes
        # its first term alone (its second is the zero row S_0).  ``places``
        # holds each term's index (j, row group, column group), in the
        # coefficients and then their negatives.
        self.transform = np.vstack([np.ones(self.points), cos.T, np.zeros(self.points), sin.T]) * self.weights[:, 0]
        top, g = 2 * m + 1, len(self.row_comps)  # the row of S_0, the number of groups
        mixed, diff, total = rs != cs, np.abs(k[:, None] - k), k[:, None] + k
        negative = np.where(mixed, np.where(rs, k[:, None] < k, k < k[:, None]), rs)
        first = np.where(mixed, top + total, diff)
        second = np.where(k[:, None] == 0, top, np.where(mixed, top + diff, total)) + 2 * top * negative
        self.places = (np.array([first, second]) * g + group[bases][:, None]) * g + group[bases]

    def pack(self, a0, a, b, lam, mus) -> np.ndarray:
        return np.concatenate([np.concatenate([a0, a.ravel(), b.ravel()])[self.keep], [lam], mus])

    def _coefficients(self, x) -> np.ndarray:
        coeffs = self.fixed.copy()
        coeffs[self.keep] = x[: self.n_coeff]
        return coeffs.reshape(-1, self.dim)

    def unpack(self, x):
        coeffs = self._coefficients(x)
        return coeffs[0], coeffs[1 : self.m + 1], coeffs[self.m + 1 :], x[self.n_coeff], x[self.n_coeff + 1 :]

    def curve(self, x) -> tuple:
        """The curve at ``x``: the collocation values, their gradients (one ``_gradients_of`` call) and the fields.

        The fields are the kept Galerkin rows of those that ``lam`` and ``mu``
        weigh: ``-J grad H``, ``-grad H``, each ``-M_i z``.
        """
        z = self.phi @ self._coefficients(x)
        grads = _gradients_of(self.system, z)
        fields = -_apply_j(grads)
        if self.n_mult:
            fields = np.array([fields, -grads] + [-z @ mat.T for mat in self.moment_mats])
        return z, grads, (self.weights.T @ fields).reshape(1 + self.n_mult, -1)[:, self.rows]

    def __call__(self, x, s) -> tuple:
        """The residual at ``x`` with the pin ``s``, and the ``curve(x)`` it read, which ``jacobian`` at ``x`` takes."""
        n, curve = self.n_coeff, self.curve(x)
        f = np.concatenate([self.rate * x[self.partner] + x[n:] @ curve[2], self.cons @ x[:n] - self.offsets])
        f[n] -= s
        return f, curve

    def jacobian(self, x, curve) -> np.ndarray:
        """Exact Jacobian of ``__call__`` at ``x``, from its ``curve(x)`` (alternating frequency/time assembly).

        The z-derivative of the fields at each collocation point,
        ``D = -(lam J + mu0 I) H(z) - sum_i mu_i M_i`` (``J H`` is ``H`` with
        its row halves swapped and one negated), adds
        ``sum_p w_r(t_p) phi_c(t_p) D(t_p)`` on the kept rows and columns: one
        product of ``transform`` with ``D``'s group blocks, then the two terms
        of Hill's form gathered through ``places`` straight into the
        ``(row basis, column basis)`` blocks of ``jac[:n, :n]``.  The ``z'``
        entries, the ``lam`` and ``mu`` columns (the curve's fields) and the
        constraint rows go in beside them.  The Hessians ``H(z)`` come from
        ``model._hessians_of``, which reads the curve's gradients where the
        system has no Hessian.
        """
        n, nb, nc = self.n_coeff, self.places.shape[1], self.row_comps.shape[1]
        lam, mus = x[n], x[n + 1 :]
        z, grads, fields = curve
        hess = _hessians_of(self.system, z, grads)
        jh = _apply_j(hess, axis=1)
        dfield = -(lam * jh + mus[0] * hess) if self.n_mult else -(lam * jh)
        for i, mat in enumerate(self.moment_mats):
            dfield -= mus[1 + i] * mat
        blocks = dfield[:, self.row_comps[:, None, :, None], self.col_comps[None, :, None, :]]  # (P, row group, column group, nc, nc)
        coeffs = np.empty((2, 4 * self.m + 2, blocks[0].size))  # the coefficients, then their negatives
        np.matmul(self.transform, blocks.reshape(self.points, -1), out=coeffs[0])
        np.negative(coeffs[0], out=coeffs[1])
        coeffs = coeffs.reshape(-1, nc, nc)
        field = coeffs[self.places[0]]  # (row basis, column basis, nc, nc)
        field += coeffs[self.places[1]]
        jac = np.zeros((self.size, self.size))
        jac[:n, :n].reshape(nb, nc, nb, nc)[...] = field.transpose(0, 2, 1, 3)
        jac[np.arange(n), self.partner] += self.rate
        jac[:n, n:] = fields.T
        jac[n:, :n] = self.cons
        return jac

    def linear(self, x, curve) -> _DenseSolve:
        """Newton's linear step at ``x``: the ``jacobian(x, curve)``, cleaned, and its solve, a ``_DenseSolve``."""
        return _DenseSolve(self.jacobian(x, curve))


def _symmetric_frame(system: HamiltonianSystem, eq: EquilibriumOrbit, predictor) -> Optional[np.ndarray]:
    """The reversor of the symmetric ansatz, or ``None`` where the full system is solved.

    The ansatz holds when the system has a reversor ``R`` with ``R z0 = z0``
    (to 1e-12 of ``1 + |z0|``) and ``A = R A R`` for the Hessian ``A`` at
    ``z0`` (to ``1e-6 (1 + |A|)``, ``model._SYMMETRY_TOL`` of ``NotASymmetry``, in
    Frobenius norms), every declared generator anticommutes with ``R``
    (``R X R = -X``), and the kernel pair ``(a1, b1)`` lies in
    ``(Fix R, Fix -R)`` (to 1e-8).
    """
    r, z0, hess = system.reversor, eq.z0, eq.hessian
    if r is None or np.linalg.norm(r * z0 - z0) > 1e-12 * (1.0 + np.linalg.norm(z0)):
        return None
    if np.linalg.norm(hess - r[:, None] * hess * r) > _SYMMETRY_TOL * (1.0 + np.linalg.norm(hess)):
        return None
    for x in system.symmetry.generators:
        if np.max(np.abs(r[:, None] * x * r + x)) > 1e-12 * (1.0 + np.max(np.abs(x))):
            return None
    a1, b1 = predictor
    if np.linalg.norm(np.concatenate([a1[r < 0], b1[r > 0]])) > 1e-8:
        return None
    return r


def _half_wave(system: HamiltonianSystem, eq: EquilibriumOrbit, predictor) -> bool:
    """Whether ``grad H`` is odd about ``z0``, ``grad H(z0 + v) + grad H(z0 - v) = 0``: the half-wave ansatz's hypothesis.

    Probed at ``z0 +- v`` from one ``_gradients_of`` call, ``v`` along 16
    directions, the 8 angles ``pi i / 8`` of the kernel pair's circle
    ``a1 cos + b1 sin`` and 8 generic directions of the whole phase space,
    with components ``sin(i j)`` (so a term that vanishes on the kernel plane
    shows too), each at the radii ``(1e-2, 1e-1, 1) (1 + |z0|)`` (so an odd
    term of high degree shows at the larger ones).  At each radius, each
    component of the sums must vanish to ``1e-12 (1 + max|d_i H|)``, the
    largest ``|d_i H|`` over that radius: a rounding-level bound.  Taken per component, a large even
    term (``p^3`` at ``|z0| ~ 1e8``) cannot hide an odd one in another
    component.  A system without a gradient, or whose gradient fails or is
    not finite there, keeps the ansatz it had.  ``_BranchSetup.solve`` still
    falls back to that ansatz where the hypothesis fails between the probe points.
    """
    if system.gradient is None:
        return False
    cos, sin = _trig(np.arange(8) * np.pi / 8, 1)
    v = np.vstack([cos * predictor[0] + sin * predictor[1], np.sin(np.outer(np.arange(1, 9), np.arange(1, system.dim + 1)))])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v = (np.array([1e-2, 1e-1, 1.0])[:, None, None] * (1.0 + np.linalg.norm(eq.z0)) * v).reshape(-1, system.dim)
    try:
        grads = _gradients_of(system, np.vstack([eq.z0 + v, eq.z0 - v])).reshape(2, 3, 16, system.dim)
    except HambifError:
        return False
    bound = 1e-12 * (1.0 + np.max(np.abs(grads), axis=(0, 2), keepdims=True))
    return bool(np.all(np.isfinite(grads)) and np.all(np.abs(grads[0] + grads[1]) <= bound[0]))


class _BranchSetup:
    """One branch: its system, equilibrium, ``lambda0``, kernel pair, ansatz and each ``M``'s problem, and the solve of each step.

    The ansatz and the problems are built once, for every step and doubling,
    and ``solve`` alone rewrites them, when it drops the half-wave ansatz.
    """

    def __init__(self, system, eq, candidate):
        if not candidate.confirmed:
            raise ValueError(f"candidate verdict is {candidate.verdict!r}; branch solving needs a confirmed one")
        self.system, self.eq, self.lambda0, self.problems = system, eq, candidate.lambda0, {}
        self.kernel = kernel_direction(system, eq, candidate)
        self.reversor = _symmetric_frame(system, eq, self.kernel)
        self.half_wave = self.reversor is not None and _half_wave(system, eq, self.kernel)

    def problem(self, m) -> _HarmonicBalance:
        """The one ``M = m`` problem, built at its first use and read, never written, by every step."""
        if m not in self.problems:
            self.problems[m] = _HarmonicBalance(self.system, self.eq, self.kernel, m, self.reversor, self.half_wave)
        return self.problems[m]

    def solve(self, amplitude_s, modes, initial_guess) -> FourierOrbit:
        """One step of this branch at a checked amplitude and ``modes``: Newton, the full check and the ``M`` doubling.

        It starts from the warm start ``initial_guess``, or from the linear
        kernel predictor at ``lambda0`` where that is ``None``.

        A half-wave solve that raises, at any ``M``, is solved again from
        the same start at ``modes`` in the symmetric ansatz, which the branch
        keeps from then on: H may be odd somewhere between the probe's points.
        A step that fails in both ansatzes fails twice, with the symmetric
        ansatz's message.
        """
        system, eq = self.system, self.eq
        scale = 1.0 + float(np.linalg.norm(eq.z0))
        tol = 1e-9 * scale
        # Newton's own stop: 1e-11 where |z0| is moderate, never below the
        # rounding of the collocation values (about eps |z0|) far from the origin
        tol_inner = min(0.02 * tol, max(1e-11, 64.0 * _EPS * scale))
        start = initial_guess or FourierOrbit(eq.z0, *(amplitude_s * p[None, :] for p in self.kernel), self.lambda0)
        m, guess = modes, start
        while True:
            problem = self.problem(m)
            a, b = np.zeros((2, m, system.dim))  # the warm start's first M modes, zeros above its own
            a[: guess.m], b[: guess.m] = guess.a[:m], guess.b[:m]
            x = problem.pack(guess.a0, a, b, guess.lam, np.zeros(problem.n_mult))
            try:
                x, fvec, converged = _newton(problem, amplitude_s, x, tol_inner)
                a0, a, b, lam, _ = problem.unpack(x)
                orbit = FourierOrbit(a0=a0, a=a, b=b, lam=float(lam))
                energies = orbit.mode_energies(eq.z0)
                orbit.amplitude = float(np.sqrt(energies.sum()))
                converged = converged and np.abs(fvec[problem.n_coeff :]).max() < 1e-8 * (1.0 + amplitude_s)
                # truncation control: grow M while the last two modes carry more than
                # 1e-10 of the oscillatory energy or the collocation residual is above
                # tolerance.  Mode M alone is not enough: where H is even about z0 (the
                # chains, the pendulum) the family has odd harmonics only, so every even
                # mode is empty.  At M = 2 mode 1 dominates, so mode 2 is tested alone.
                total = float(energies[1:].sum())
                tail = energies[max(2, m - 1) :].max() / total if m > 1 and total > 0.0 else 0.0
                if not (converged and tail > 1e-10 and m < MAX_MODES):
                    # validate the full equations on 4M + 1 points, finer than and incommensurate with
                    # the solve grid, so aliased spurious solutions and a wrong symmetry assumption
                    # cannot hide; a converged truncation whose tail forces doubling needs no check
                    check = residual_field(system, orbit, 4 * m + 1)
                    orbit.residual = float(np.sqrt((check * check).sum(axis=1)).max())  # the largest row norm
                    if not np.isfinite(orbit.residual):  # NaN passes every '>= tol' test
                        raise NoConvergence(
                            f"the {4 * m + 1}-point residual check is not finite at M={m} (amplitude {amplitude_s:.3e})"
                        )
                if not converged:
                    raise NoConvergence(
                        f"Newton stalled (residual {orbit.residual:.3e}, tol {tol:.1e}) "
                        f"at amplitude {amplitude_s:.3e}, M={m}"
                    )
                if (tail > 1e-10 or orbit.residual >= tol) and m < MAX_MODES:
                    guess = orbit
                    m = min(2 * m, MAX_MODES)
                    continue
                if orbit.residual >= tol:
                    raise NoConvergence(
                        f"residual {orbit.residual:.3e} above tol {tol:.1e} at M={m} "
                        f"(amplitude {amplitude_s:.3e})"
                    )
                if orbit.lam <= 0.0:
                    raise WrongBranch(f"period {orbit.period:.8g} is not positive: the orbit is not on the family")
                if energies[1:].argmax() != 0:
                    raise WrongBranch(f"dominant Fourier mode is k={int(energies[1:].argmax()) + 1}, not k=1")
                return orbit
            except HambifError:
                if not self.half_wave:
                    raise
            self.half_wave, self.problems = False, {}
            m, guess = modes, start


def solve_orbit(
    system: HamiltonianSystem,
    eq: EquilibriumOrbit,
    candidate: BifurcationCandidate,
    amplitude_s: float,
    modes: int = 8,
) -> FourierOrbit:
    """One amplitude-pinned Newton solve of the mode-1 branch, from the linear kernel predictor at ``lambda0``.

    Newton solves with the assembled harmonic-balance Jacobian (the Hessians
    of H at the collocation points, from ``model._hessians_of``, which
    differences the gradients of the residual at the same unknowns where the
    system has no Hessian; see the module docstring), which it reaches only
    through the problem's ``linear``: the matrix cleaned of the entries
    below ``eps * max|J|``, and its dense solve (``_DenseSolve``).  It halves
    each step until the max-norm residual decreases.  The Jacobian is kept while
    full steps cut the residual by at least ``CHORD_CONTRACTION``, and
    rebuilt at the current iterate after a damped or slower step, or when
    the line search fails with a kept Jacobian.  Newton stops below
    ``min(0.02 tol, max(1e-11, 64 eps (1 + |z0|)))``.

    Where ``_symmetric_frame`` finds a reversor ``R`` that fixes ``z0``,
    keeps ``A = R A R`` there and anticommutes with every declared
    generator, Newton solves the symmetric ansatz of the module docstring:
    ``a0, a_k`` in ``Fix(R)``, ``b_k`` in ``Fix(-R)`` and ``lambda``, about
    half the unknowns, with the gradients and Hessians taken at the ``2M + 1``
    collocation points in ``[0, pi]`` alone.  By the reversible Lyapunov
    centre theorem the branch is symmetric, so this is the same orbit, in
    the symmetric frame of the kernel pair, where the predictor lies.  A
    warm start of a later step, in ``continue_branch``, loses its parts
    outside the ansatz.  A generator with ``R X R = -X`` needs no pin row
    and no momentum multiplier there, since its group drift leaves the
    symmetric curves and its momentum identity holds identically on them.
    Where H is moreover even about ``z0`` (``_half_wave``: ``grad H(z0 + v)
    + grad H(z0 - v) = 0`` to rounding at 48 points ``v`` on the kernel
    pair's circle and on generic directions, from one stacked gradient call),
    the branch is the twisted-Z2 family ``z(t + pi) = 2 z0 - z(t)`` of the
    module docstring: Newton keeps the odd modes of that ansatz alone, with
    ``a0 = z0`` fixed, and takes the gradients and Hessians at the ``M + 1``
    collocation points in ``[0, pi/2]``, where each kept Galerkin sum of the
    full grid is exact.  An energy-only system makes no probe.  Every other
    system takes the full ansatz.  Whatever the ansatz, the ``4M + 1``-point
    check of the full equations decides.  The call builds the branch's
    ``_BranchSetup`` (the kernel pair, the ansatz and each ``M``'s problem)
    and returns its ``solve``, which owns the fallback: a half-wave solve
    that raises is solved again from the same start in the symmetric
    ansatz.  ``continue_branch`` builds the same object once and calls its
    ``solve`` at every step.  The grid tables come from ``_grid`` either way.

    Parameters
    ----------
    amplitude_s : float
        Target amplitude in the Sobolev norm (the pinning constraint value).
    modes : int
        Initial Fourier truncation, an integer in ``1..MAX_MODES``; doubled
        (up to ``MAX_MODES``) whenever mode ``M - 1`` or ``M`` (mode 2 alone at
        ``M = 2``) holds more than 1e-10 of the oscillatory energy.

    Raises
    ------
    ValueError
        If the candidate is not confirmed, ``amplitude_s`` is not positive and
        finite or its square is not a normal float (``_amplitude``), or
        ``modes`` is not an integer in ``1..MAX_MODES``.
    NoConvergence
        If Newton stalls above the tolerance ``1e-9 * (1 + |z0|)``, or the
        residual check is not finite.
    WrongBranch
        If the converged orbit's period is not positive or it is not mode-1 dominated.
    """
    _amplitude("amplitude_s", amplitude_s)
    modes = _integer("modes", modes, 1, MAX_MODES)
    return _BranchSetup(system, eq, candidate).solve(amplitude_s, modes, None)


def _amplitude(name: str, s):
    """``s``, unless it is not positive and finite or its square is not a normal float: then ``ValueError`` naming ``name``.

    Every Sobolev energy is a square of the amplitude's scale, so a
    subnormal or zero square would report a wrong or zero amplitude, and an
    infinite one an infinite amplitude.  The square is a Python float
    product, which overflows to inf without a warning.
    """
    if not np.finfo(float).tiny <= float(_real(name, s)) * float(s) < np.inf:
        raise ValueError(f"{name} must have a square that is a normal float, got {s}")
    return s


def _check_ladder(steps, s0, growth, modes) -> tuple:
    """``continue_branch``'s argument contract, which ``cli.RunConfig`` applies at parse time: ``(s0, growth, modes)`` as Python numbers.

    ``ValueError`` unless ``steps`` is an integer of at least 1, ``growth`` is
    positive and finite, the first and the last amplitude, ``s0`` and
    ``s0 * growth**(steps - 1)``, pass ``_amplitude`` (so every amplitude
    between them does), and ``modes`` is an integer in ``1..MAX_MODES``.
    This is the one check of every step's amplitude and ``modes``, so the
    Python numbers keep a numpy scalar's width out of the ladder and every
    problem's tables: a float32 ``growth`` makes ``s0 * growth**i`` a float32,
    0 at ``s0 = 1e-60``, an int64 one wraps ``growth**i`` at ``2**63``, and a
    uint8 ``modes`` wraps ``-m``.
    """
    _integer("steps", steps)
    with np.errstate(over="ignore"):  # a last amplitude past the float range is inf or 0, rejected as such
        _amplitude("s0 * growth**(steps - 1)", _amplitude("s0", s0) * np.float64(_real("growth", growth)) ** (steps - 1))
    return float(s0), float(growth), _integer("modes", modes, 1, MAX_MODES)


class _DenseSolve:
    """One Newton matrix, made ready for its LU, and its dense solve.

    ``matrix`` is the Jacobian handed in, with every entry below
    ``eps * max|J|`` set to zero in place.  Such entries lie under the
    assembly's own rounding, and their products make subnormal intermediates
    that slow LAPACK's LU several times over.  The bound comes from the
    matrix's max and min and the mask from two comparisons, so no temporary
    of the matrix's size in floats is made (at N = 32, ``M = 32`` the
    Jacobian is 139 MB).  ``|x| < t`` and ``-t < x < t`` pick the same
    entries, so the bits are those of the ``|J|`` rule: with a NaN entry
    the bound is NaN and nothing is zeroed, with an infinite one every
    finite entry is.  ``solve(rhs)`` is ``np.linalg.solve(matrix, rhs)``; a
    singular matrix raises ``LinAlgError``.
    """

    def __init__(self, jac: np.ndarray):
        bound = _EPS * max(float(jac.max()), -float(jac.min()))
        small = np.less(jac, bound)
        small &= np.greater(jac, -bound)
        jac[small] = 0.0
        self.matrix = jac

    def solve(self, rhs) -> np.ndarray:
        return np.linalg.solve(self.matrix, rhs)


def _newton(problem, s, x, tol_inner):
    """Chord Newton on ``problem`` pinned at ``s``: returns ``(x, residual, converged)``.

    Newton reaches each Jacobian only through ``problem.linear(x, curve)``
    and takes each step from its ``solve``; a fresh matrix that is singular
    ends the solve unconverged.  The matrix is kept across steps and rebuilt
    at the current ``x`` after a step that needed damping or that cut the
    residual by less than ``CHORD_CONTRACTION``.  A line search that fails
    with a kept matrix is retried with a fresh one; one that fails with a
    fresh matrix ends the solve.  Accepted steps lower the residual, so the
    last iterate is the best one.  Each fresh matrix reads the curve of the
    accepted iterate, which its residual evaluated, so no gradient is taken
    twice at one ``x``.
    """
    f, curve = problem(x, s)
    nf, linear = float(np.abs(f).max()), None
    for _ in range(NEWTON_MAX_STEPS):
        if nf < tol_inner:
            return x, f, True
        fresh = linear is None
        if fresh:
            linear = problem.linear(x, curve)
        try:
            dx = linear.solve(-f)
        except np.linalg.LinAlgError:  # only a fresh matrix can be singular
            return x, f, False
        for scale in NEWTON_DAMPING:
            xn = x + scale * dx
            fn, trial = problem(xn, s)
            nfn = float(np.abs(fn).max())
            if nfn < nf:
                break
        else:
            if fresh:
                return x, f, False
            linear = None
            continue
        if scale < 1.0 or nfn > CHORD_CONTRACTION * nf:
            linear = None
        x, f, nf, curve = xn, fn, nfn, trial
    return x, f, nf < tol_inner


def _predict(orbit: FourierOrbit, z0, lambda0: float, growth: float) -> FourierOrbit:
    """Warm start at ``growth`` times the amplitude of ``orbit``, by the Lyapunov-Schmidt orders.

    Near ``z0`` mode ``k`` of the family is ``O(s^k)`` and ``a0 - z0`` and
    ``lam - lambda0`` are ``O(s^2)``, so ``a_k, b_k`` are scaled by
    ``growth**k`` and the mean and period shifts by ``growth**2``.  Where that
    prediction is not finite, has ``lam <= 0`` (the family's period is
    positive) or lets a mode other than 1 dominate (``solve_orbit``'s test of
    an orbit), the orders do not describe the step: a growth far past the
    family's scale, a period that falls steeply, or modes at rounding level
    blown up by ``growth**k``.  The whole orbit is then scaled by ``growth``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        factors = np.float64(growth) ** np.arange(1, orbit.m + 1)[:, None]
        square = np.float64(growth) ** 2
        guess = FourierOrbit(
            a0=z0 + square * (orbit.a0 - z0),
            a=factors * orbit.a,
            b=factors * orbit.b,
            lam=lambda0 + square * (orbit.lam - lambda0),
        )
        energies = guess.mode_energies(z0)
    if np.isfinite(energies).all() and 0.0 < guess.lam < np.inf and energies[1:].argmax() == 0:
        return guess
    return FourierOrbit(z0 + growth * (orbit.a0 - z0), growth * orbit.a, growth * orbit.b, orbit.lam)


def continue_branch(
    system: HamiltonianSystem,
    eq: EquilibriumOrbit,
    candidate: BifurcationCandidate,
    steps: int = 8,
    s0: float = 1e-3,
    growth: float = 2.0,
    modes: int = 8,
) -> Branch:
    """Grow the branch outward over amplitudes ``s0 * growth**i``.

    ``steps`` must be a positive integer, ``s0``, ``growth`` and the last
    amplitude positive and finite, and ``modes`` an integer in
    ``1..MAX_MODES`` (``_check_ladder``: ``ValueError`` before any work, and
    the one check of every step's amplitude and ``modes``).  The branch is
    one ``_BranchSetup``, built once, whose ``solve`` takes each step and
    owns the fallback from the half-wave ansatz.  The first step starts from
    the linear kernel predictor, each later one from the previous orbit
    scaled by the Lyapunov-Schmidt orders (``_predict``: mode ``k`` by
    ``growth**k``, the mean and period shifts by ``growth**2``), and
    ``solve`` doubles the modes up to 64.
    A failed step is recorded and stops the branch; the partial branch is
    returned with the failure list populated.  ``sup_distance_trend`` is filled
    after the last step, in step order, by one ``_sup_distances`` pass per ``M``.
    """
    s0, growth, modes = _check_ladder(steps, s0, growth, modes)
    branch = Branch(orbits=[], period_trend=[], sup_distance_trend=[])
    guess = setup = None
    for i in range(steps):
        s = s0 * growth**i
        try:
            setup = setup or _BranchSetup(system, eq, candidate)  # at step 0, whose failure an EmptyKernel is
            orbit = setup.solve(s, modes, guess)
        except HambifError as exc:
            branch.failures.append(f"step {i} (amplitude {s:.3e}): {exc}")
            break
        branch.orbits.append(orbit)
        branch.period_trend.append((orbit.amplitude, orbit.period))
        guess = _predict(orbit, eq.z0, candidate.lambda0, growth)
    ms, sups = [orbit.m for orbit in branch.orbits], np.empty(len(branch.orbits))
    for m in set(ms):
        group = [i for i, k in enumerate(ms) if k == m]
        sups[group] = _sup_distances([branch.orbits[i] for i in group], eq.z0)
    branch.sup_distance_trend = [(orbit.amplitude, float(sup)) for orbit, sup in zip(branch.orbits, sups)]
    return branch


def minimal_period_check(orbit: FourierOrbit) -> str:
    """Classify the orbit period as minimal, subharmonic, or undetermined, from the orbit's own coefficients.

    The scale is ``S = sqrt(sum_k E_k)``, ``E_k`` the Sobolev energy of mode
    ``k >= 1`` (``mode_energies``): the oscillatory amplitude, which a time
    shift or a group element moves only by rounding.  The ``amplitude``
    field, which only the solver sets, is not read.  Where ``S`` is not
    positive and finite the period is undetermined.  Subharmonic means the
    orbit repeats after 2 pi / r for some r in 2..5 (so its fundamental
    period is shorter than 2 pi).  It does exactly when every mode ``k``
    with ``r`` not dividing ``k`` is empty, so the test is that the energy
    of those modes is at most ``1e-12 S^2``.  Minimal requires the mode-1
    energy to dominate every higher mode by a factor of 100, or every
    higher mode to be below ``1e-30`` of the larger of the mode-1 energy and
    1, both taken on the scaled coefficients.  The coefficients are scaled
    by ``2^-e`` before they are squared, ``e`` the binary exponent of the
    largest, as ``_sup_distances`` scales: a power of two scales exactly, so
    every ratio is that of the unscaled energies, and coefficients near
    ``1e-200`` or ``1e200`` keep their squares in the float range.
    """
    power = np.frexp(np.abs(np.concatenate([orbit.a, orbit.b])).max(initial=0.0))[1]
    scaled = FourierOrbit(orbit.a0, np.ldexp(orbit.a, -power), np.ldexp(orbit.b, -power), orbit.lam)
    energies = scaled.mode_energies(orbit.a0)[1:]
    if not 0.0 < energies.sum() < np.inf:  # S^2, which NaN fails too
        return "undetermined"
    k = np.arange(1, orbit.m + 1)
    if any(float(np.sum(energies[k % r != 0])) <= 1e-12 * energies.sum() for r in range(2, 6)):
        return "subharmonic"
    top = float(np.max(energies[1:], initial=0.0))  # the largest higher mode; none at M = 1
    if energies[0] >= 100.0 * top or top < 1e-30 * max(float(energies[0]), 1.0):
        return "minimal"
    return "undetermined"


def transform_orbit(orbit: FourierOrbit, rotation=None, time_shift: float = 0.0) -> FourierOrbit:
    """Apply a group element and/or a time shift to the coefficient data.

    The time shift rotates each mode pair by k * theta; the group element
    acts componentwise on every coefficient vector.  A ``time_shift`` that
    is not a finite real, or a rotation that is not a finite ``2N x 2N``
    matrix, is a ``ValueError`` naming it.
    """
    _real("time_shift", time_shift, positive=False)
    if rotation is not None:
        rotation = _array("rotation", rotation, orbit.a0.shape * 2)
    a0 = orbit.a0.copy()
    a = orbit.a.copy()
    b = orbit.b.copy()
    if time_shift != 0.0:
        ck, sk = (c.T for c in _trig([time_shift], orbit.m))
        a, b = ck * a + sk * b, -sk * a + ck * b
    if rotation is not None:
        a0 = rotation @ a0
        a = a @ rotation.T
        b = b @ rotation.T
    return FourierOrbit(a0=a0, a=a, b=b, lam=orbit.lam)
