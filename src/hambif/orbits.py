"""Harmonic-balance verification of predicted bifurcating orbit branches.

A 2-pi-periodic solution of the rescaled flow ``z' = lambda J grad H(z)``
is represented by truncated Fourier coefficients.  The solver pins the
branch by amplitude in the Sobolev norm

    |z|^2 = 2 pi |a0|^2 + pi sum_k k (|a_k|^2 + |b_k|^2),

kills the time-shift freedom with a phase condition against the linear
predictor, and kills group drift with one pinning row per orbit generator
(``EquilibriumOrbit.orbit_generators``, one per dimension of the orbit).

The Galerkin equations of an autonomous invariant flow satisfy one
integral identity per conserved quantity (the energy, plus one momentum
per orbit generator), which makes the naive bordered Jacobian singular
at solutions.  The solver therefore carries one unfolding multiplier per
identity, multiplying the gradient field of the matching conserved
quantity; the multipliers vanish at solutions and restore a square,
nonsingular bordered system that dense LU can handle.

Newton's Jacobian is assembled by the alternating frequency/time method
(Cameron & Griffin, J. Appl. Mech. 56, 1989; Krack & Gross, Harmonic
Balance for Nonlinear Vibration Problems, 2019): the Hessians of H at the
collocation points, from one stacked call per evaluation where the
evaluator has a stacked form (``model.hessians_of``), projected onto the
Fourier basis, plus the Galerkin projections of the multiplier fields and
the linear constraint rows.  The residual likewise takes the gradients at
all collocation points from one ``model.gradients_of`` call.  Without an
analytic Hessian, each point's Hessian is a forward difference of the
gradient the residual already holds there, the gradients at the 2N shifted
copies of every point coming from one more ``gradients_of`` call.
Newton is a chord iteration (Kelley, Solving Nonlinear Equations with
Newton's Method, SIAM 2003): one Jacobian serves as many steps as keep
contracting the residual by ``CHORD_CONTRACTION``, so a step with a kept
Jacobian costs one residual, the gradients at the collocation points, and an
assembly is paid only when the contraction slows.  Before its first solve,
each assembly drops the entries below ``eps * max|J|``; they lie under its
rounding, and their products slow the LU with subnormal arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import BifurcationCandidate, t_matrix
from .errors import EmptyKernel, HambifError, NoConvergence, WrongBranch
from .linalg import standard_symplectic
from .model import (
    EquilibriumOrbit,
    HamiltonianSystem,
    _evaluate,
    _forward_differences,
    gradients_of,
    hessians_of,
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
_EPS = float(np.finfo(float).eps)

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
    """Truncated Fourier representation z(t) = a0 + sum a_k cos kt + b_k sin kt."""

    a0: np.ndarray
    a: np.ndarray  # (m, 2N)
    b: np.ndarray  # (m, 2N)
    lam: float
    residual: float = np.nan
    amplitude: float = np.nan

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def period(self) -> float:
        """Physical period of the matching orbit of z' = J grad H."""
        return TWO_PI * self.lam

    def evaluate(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.arange(1, self.m + 1)
        phases = np.outer(t, k)
        return self.a0 + np.cos(phases) @ self.a + np.sin(phases) @ self.b

    def derivative(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.arange(1, self.m + 1)
        phases = np.outer(t, k)
        return np.cos(phases) @ (k[:, None] * self.b) - np.sin(phases) @ (k[:, None] * self.a)

    def mode_energies(self, z0) -> np.ndarray:
        """Sobolev-weighted energy per mode of z - z0 (index 0 is the mean)."""
        z0 = np.asarray(z0, dtype=float)
        k = np.arange(1, self.m + 1)
        e0 = TWO_PI * float((self.a0 - z0) @ (self.a0 - z0))
        ek = np.pi * k * (np.sum(self.a**2, axis=1) + np.sum(self.b**2, axis=1))
        return np.concatenate([[e0], ek])


def sobolev_amplitude(orbit: FourierOrbit, z0) -> float:
    return float(np.sqrt(np.sum(orbit.mode_energies(z0))))


def sup_distance(orbit: FourierOrbit, z0) -> float:
    """max_t |z(t) - z0| on an equispaced grid of 8M points."""
    points = 8 * orbit.m
    t = np.arange(points) * TWO_PI / points
    return float(np.max(np.linalg.norm(orbit.evaluate(t) - np.asarray(z0, float), axis=1)))


def orbit_energy_range(system: HamiltonianSystem, orbit: FourierOrbit):
    """(min, max) of H along the orbit on an equispaced grid of 4M + 1 points."""
    points = 4 * orbit.m + 1
    t = np.arange(points) * TWO_PI / points
    values = [_evaluate(system, "energy", z) for z in orbit.evaluate(t)]
    return min(values), max(values)


@dataclass
class Branch:
    """Orbits emanating from the equilibrium, ordered by increasing amplitude."""

    orbits: list
    period_trend: list  # (amplitude, 2 pi lambda)
    sup_distance_trend: list  # (amplitude, max_t |z - z0|)
    failures: list = field(default_factory=list)


def kernel_direction(system: HamiltonianSystem, eq: EquilibriumOrbit, candidate: BifurcationCandidate) -> tuple:
    """Normalized kernel vector (a1, b1) of the mode-1 matrix of ``eq.hessian`` at the level ``candidate.lambda0``.

    The returned pair is scaled to unit Sobolev norm of ``a1 cos t + b1 sin t``;
    ``system`` is not evaluated.
    """
    t = t_matrix(eq.hessian, 1, candidate.lambda0)
    _, svals, vt = np.linalg.svd(t)
    if svals[-1] > 1e-6:
        raise EmptyKernel(
            f"smallest singular value {svals[-1]:.3e} at level {candidate.lambda0:.6g}; "
            "no mode-1 kernel (candidate inconsistent)"
        )
    a1, b1 = np.split(vt[-1], 2)
    scale = np.sqrt(np.pi * (float(a1 @ a1) + float(b1 @ b1)))
    return a1 / scale, b1 / scale


def residual_field(system: HamiltonianSystem, orbit: FourierOrbit, collocation_points: int) -> np.ndarray:
    """z'(t_i) - lambda J grad H(z(t_i)) at equispaced collocation points."""
    if collocation_points < 2 * orbit.m + 1:
        raise ValueError("need at least 2M + 1 collocation points")
    t = np.arange(collocation_points) * TWO_PI / collocation_points
    z = orbit.evaluate(t)
    zdot = orbit.derivative(t)
    j = standard_symplectic(z.shape[1] // 2)
    return zdot - orbit.lam * gradients_of(system, z) @ j.T


class _HarmonicBalance:
    """Galerkin residual, constraints and their exact Jacobian for one amplitude-pinned solve.

    The coefficient vector stacks ``a0, a_1..a_M, b_1..b_M`` (each of length
    2N), so its first ``n_coeff`` entries reshape to a ``(2M + 1, 2N)`` matrix
    whose rows multiply the basis ``(1, cos kt, sin kt)``.
    """

    def __init__(self, system, eq, predictor, s, m):
        self.system = system
        self.z0 = eq.z0
        self.dim = system.dim
        self.m = m
        self.s = s
        self.ap, self.bp = predictor
        self.n_gen = eq.orbit_dim
        self.n_coeff = self.dim * (2 * m + 1)
        self.size = self.n_coeff + 2 + self.n_gen
        self.points = 4 * m
        t = np.arange(self.points) * TWO_PI / self.points
        k = np.arange(1, m + 1)
        cos, sin = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))  # (P, m)
        # basis, its time derivative and the Galerkin test weights, each (P, 2M + 1)
        self.phi = np.hstack([np.ones((self.points, 1)), cos, sin])
        self.dphi = np.hstack([np.zeros((self.points, 1)), -k * sin, k * cos])
        self.weights = self.phi * np.concatenate([[1.0], np.full(2 * m, 2.0)]) / self.points
        self.j = standard_symplectic(self.dim // 2)
        self._last = None  # (x, coeffs, z, grads) of the last _curve call
        self.pin_rows = [g @ self.z0 for g in eq.orbit_generators]
        # gradient fields of the conserved momenta: grad( -z.(J X z)/2 ) = -J X z
        self.moment_mats = [-(self.j @ g) for g in eq.orbit_generators]
        # d/dz' part of the coefficient block, (W^T phi') times I, independent of x
        self.derivative_weights = self.weights.T @ self.dphi
        # test weight times basis, ((2M + 1)^2, P), contiguous for one BLAS product per Jacobian
        self.weight_basis = np.ascontiguousarray(
            np.einsum("pr,pc->rcp", self.weights, self.phi).reshape(-1, self.points)
        )

    def pack(self, a0, a, b, lam, mus) -> np.ndarray:
        return np.concatenate([a0, a.ravel(), b.ravel(), [lam], mus])

    def unpack(self, x):
        d, m = self.dim, self.m
        a0 = x[:d]
        a = x[d : d + d * m].reshape(m, d)
        b = x[d + d * m : d + 2 * d * m].reshape(m, d)
        lam = x[self.n_coeff]
        mus = x[self.n_coeff + 1 :]
        return a0, a, b, lam, mus

    def _curve(self, x):
        # kept for the last x: Newton's Jacobian follows a residual at the same x
        if self._last is None or not np.array_equal(self._last[0], x):
            x = np.array(x, dtype=float)
            coeffs = x[: self.n_coeff].reshape(-1, self.dim)
            z = self.phi @ coeffs
            grads = gradients_of(self.system, z)
            self._last = (x, coeffs, z, grads)
        return self._last[1:]

    def __call__(self, x) -> np.ndarray:
        a0, a, b, lam, mus = self.unpack(x)
        coeffs, z, grads = self._curve(x)
        fld = self.dphi @ coeffs - lam * grads @ self.j.T - mus[0] * grads
        for i, mat in enumerate(self.moment_mats):
            fld = fld - mus[1 + i] * z @ mat.T
        c_amp = np.pi * (float(a[0] @ self.ap) + float(b[0] @ self.bp)) - self.s
        c_phase = np.pi * (float(a[0] @ self.bp) - float(b[0] @ self.ap))
        cons = [c_amp, c_phase] + [float((a0 - self.z0) @ row) for row in self.pin_rows]
        return np.concatenate([(self.weights.T @ fld).ravel(), cons])

    def jacobian(self, x) -> np.ndarray:
        """Exact Jacobian of ``__call__`` (alternating frequency/time assembly).

        The field at each collocation point has z-derivative
        ``D = -(lam J + mu0 I) H(z) - sum_i mu_i M_i``, so the coefficient
        block is ``sum_p w_r(t_p) [phi_c(t_p) D(t_p) + phi'_c(t_p) I]``; the
        lambda and mu columns project ``-J grad H``, ``-grad H`` and
        ``-M_i z``; the constraint rows are linear.
        """
        d, m, n = self.dim, self.m, self.n_coeff
        lam, mus = x[n], x[n + 1 :]
        _, z, grads = self._curve(x)
        if self.system.hessian is None:
            # forward differences from the gradients the residual already holds
            fd = _forward_differences(self.system, z, grads)
            hess = 0.5 * (fd + fd.transpose(0, 2, 1))
        else:
            hess = hessians_of(self.system, z)
        dfield = -np.einsum("ij,pjk->pik", lam * self.j + mus[0] * np.eye(d), hess)
        for i, mat in enumerate(self.moment_mats):
            dfield -= mus[1 + i] * mat
        width = 2 * m + 1
        blocks = (self.weight_basis @ dfield.reshape(self.points, -1)).reshape(width, width, d, d)
        diag = np.arange(d)
        blocks[:, :, diag, diag] += self.derivative_weights[:, :, None]
        jac = np.zeros((self.size, self.size))
        jac[:n, :n] = blocks.transpose(0, 2, 1, 3).reshape(n, n)
        fields = [-grads @ self.j.T, -grads] + [-z @ mat.T for mat in self.moment_mats]
        jac[:n, n:] = np.column_stack([(self.weights.T @ f).ravel() for f in fields])
        a1, b1 = slice(d, 2 * d), slice(d + d * m, 2 * d + d * m)
        jac[n, a1], jac[n, b1] = np.pi * self.ap, np.pi * self.bp
        jac[n + 1, a1], jac[n + 1, b1] = np.pi * self.bp, -np.pi * self.ap
        for i, row in enumerate(self.pin_rows):
            jac[n + 2 + i, :d] = row
        return jac


def _tail_fraction(orbit: FourierOrbit, z0) -> float:
    energies = orbit.mode_energies(z0)[1:]
    if energies.size < 2:
        return 0.0
    total = float(np.sum(energies))
    return float(energies[-1] / total) if total > 0.0 else 0.0


def solve_orbit(
    system: HamiltonianSystem,
    eq: EquilibriumOrbit,
    candidate: BifurcationCandidate,
    amplitude_s: float,
    modes: int = 8,
    initial_guess: Optional[FourierOrbit] = None,
) -> FourierOrbit:
    """One amplitude-pinned Newton solve of the mode-1 branch.

    Newton solves with the assembled harmonic-balance Jacobian (the Hessians
    of H at the collocation points; see the module docstring) and halves each
    step until the max-norm residual decreases.  The Jacobian is kept while
    full steps cut the residual by at least ``CHORD_CONTRACTION``, and
    rebuilt at the current iterate after a damped or slower step, or when
    the line search fails with a kept Jacobian.  Newton stops below
    ``min(0.02 tol, max(1e-11, 64 eps (1 + |z0|)))``.

    Parameters
    ----------
    amplitude_s : float
        Target amplitude in the Sobolev norm (the pinning constraint value).
    modes : int
        Initial Fourier truncation; doubled (up to ``MAX_MODES``) whenever
        the last mode holds more than 1e-10 of the oscillatory energy.
    initial_guess : FourierOrbit, optional
        Warm start; by default the linear kernel predictor at ``lambda0``.

    Raises
    ------
    NoConvergence
        If Newton stalls above the tolerance ``1e-9 * (1 + |z0|)``.
    WrongBranch
        If the converged orbit is not mode-1 dominated.
    """
    if not candidate.confirmed:
        raise ValueError(f"candidate verdict is {candidate.verdict!r}; branch solving needs a confirmed one")
    if amplitude_s <= 0.0:
        raise ValueError("amplitude must be positive")
    scale = 1.0 + float(np.linalg.norm(eq.z0))
    tol = 1e-9 * scale
    # Newton's own stop: 1e-11 where |z0| is moderate, never below the
    # rounding of the collocation values (about eps |z0|) far from the origin
    tol_inner = min(0.02 * tol, max(1e-11, 64.0 * _EPS * scale))
    predictor = kernel_direction(system, eq, candidate)
    m = modes
    a1, b1 = (amplitude_s * p[None, :] for p in predictor)
    guess = initial_guess or FourierOrbit(a0=eq.z0, a=a1, b=b1, lam=candidate.lambda0)
    while True:
        problem = _HarmonicBalance(system, eq, predictor, amplitude_s, m)
        take = min(guess.m, m)
        a = np.zeros((m, system.dim))
        b = np.zeros((m, system.dim))
        a[:take] = guess.a[:take]
        b[:take] = guess.b[:take]
        x = problem.pack(guess.a0, a, b, guess.lam, np.zeros(1 + problem.n_gen))
        x, fvec, converged = _newton(problem, x, tol_inner)
        a0, a, b, lam, _ = problem.unpack(x)
        orbit = FourierOrbit(a0=a0, a=a, b=b, lam=float(lam))
        # validate on 4M + 1 points: finer than and incommensurate with the
        # solve grid, so aliased spurious solutions cannot hide
        check = residual_field(system, orbit, problem.points + 1)
        orbit.residual = float(np.max(np.linalg.norm(check, axis=1)))
        orbit.amplitude = sobolev_amplitude(orbit, eq.z0)
        cons = np.max(np.abs(fvec[problem.n_coeff :])) if fvec.size > problem.n_coeff else 0.0
        if not (converged and cons < 1e-8 * (1.0 + amplitude_s)):
            raise NoConvergence(
                f"Newton stalled (residual {orbit.residual:.3e}, tol {tol:.1e}) "
                f"at amplitude {amplitude_s:.3e}, M={m}"
            )
        # truncation control: grow M while the tail carries energy or the
        # collocation residual is still above tolerance
        if (_tail_fraction(orbit, eq.z0) > 1e-10 or orbit.residual >= tol) and m < MAX_MODES:
            guess = orbit
            m = min(2 * m, MAX_MODES)
            continue
        if orbit.residual >= tol:
            raise NoConvergence(
                f"residual {orbit.residual:.3e} above tol {tol:.1e} at M={m} "
                f"(amplitude {amplitude_s:.3e})"
            )
        energies = orbit.mode_energies(eq.z0)[1:]
        if int(np.argmax(energies)) != 0:
            raise WrongBranch(
                f"dominant Fourier mode is k={int(np.argmax(energies)) + 1}, not k=1"
            )
        return orbit


def _lu_ready(jac: np.ndarray) -> np.ndarray:
    """``jac`` with every entry below ``eps * max|J|`` set to zero, in place.

    Such entries lie under the assembly's own rounding, and their products
    make subnormal intermediates that slow LAPACK's LU several times over.
    """
    jac[np.abs(jac) < _EPS * float(np.max(np.abs(jac)))] = 0.0
    return jac


def _newton(problem, x, tol_inner):
    """Chord Newton: returns ``(x, residual, converged)``.

    The Jacobian is kept across steps and rebuilt at the current ``x`` after
    a step that needed damping or that cut the residual by less than
    ``CHORD_CONTRACTION``.  A line search that fails with a kept Jacobian is
    retried with a fresh one; one that fails with a fresh Jacobian ends the
    solve.  Accepted steps lower the residual, so the last iterate is the
    best one.
    """
    f = problem(x)
    jac = None
    for _ in range(NEWTON_MAX_STEPS):
        nf = float(np.max(np.abs(f)))
        if nf < tol_inner:
            return x, f, True
        fresh = jac is None
        if fresh:
            jac = _lu_ready(problem.jacobian(x))
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:  # only a fresh matrix can be singular
            return x, f, False
        for scale in NEWTON_DAMPING:
            xn = x + scale * dx
            fn = problem(xn)
            if float(np.max(np.abs(fn))) < nf:
                break
        else:
            if fresh:
                return x, f, False
            jac = None
            continue
        x, f = xn, fn
        if scale < 1.0 or float(np.max(np.abs(f))) > CHORD_CONTRACTION * nf:
            jac = None
    return x, f, float(np.max(np.abs(f))) < tol_inner


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

    Each step warm-starts from the previous orbit (the first from the
    linear predictor) and lets ``solve_orbit`` double the modes up to 64.
    A failed step is recorded and stops the branch; the partial branch is
    returned with the failure list populated.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    branch = Branch(orbits=[], period_trend=[], sup_distance_trend=[])
    guess = None
    for i in range(steps):
        s = s0 * growth**i
        try:
            orbit = solve_orbit(system, eq, candidate, s, modes=modes, initial_guess=guess)
        except HambifError as exc:
            branch.failures.append(f"step {i} (amplitude {s:.3e}): {exc}")
            break
        branch.orbits.append(orbit)
        branch.period_trend.append((orbit.amplitude, orbit.period))
        branch.sup_distance_trend.append((orbit.amplitude, sup_distance(orbit, eq.z0)))
        guess = FourierOrbit(
            a0=eq.z0 + growth * (orbit.a0 - eq.z0),
            a=growth * orbit.a,
            b=growth * orbit.b,
            lam=orbit.lam,
        )
    return branch


def minimal_period_check(orbit: FourierOrbit) -> str:
    """Classify the orbit period as minimal, subharmonic, or undetermined.

    Subharmonic means the orbit repeats after 2 pi / r for some r in 2..5
    (so its fundamental period is shorter than 2 pi); minimal requires the
    mode-1 energy to dominate every higher mode by a factor of 100.
    """
    if not np.isfinite(orbit.amplitude) or orbit.amplitude <= 0.0:
        return "undetermined"
    points = max(64, 8 * orbit.m)
    t = np.arange(points) * TWO_PI / points
    z = orbit.evaluate(t)
    for r in range(2, 6):
        shifted = orbit.evaluate(t + TWO_PI / r)
        if float(np.max(np.linalg.norm(z - shifted, axis=1))) <= 1e-6 * orbit.amplitude:
            return "subharmonic"
    energies = orbit.mode_energies(orbit.a0)[1:]
    if energies.size == 1:
        return "minimal"
    others = energies[1:]
    floor = 1e-30 * max(float(energies[0]), 1.0)
    if energies[0] >= 100.0 * float(np.max(others)) or float(np.max(others)) < floor:
        return "minimal"
    return "undetermined"


def transform_orbit(orbit: FourierOrbit, rotation=None, time_shift: float = 0.0) -> FourierOrbit:
    """Apply a group element and/or a time shift to the coefficient data.

    The time shift rotates each mode pair by k * theta; the group element
    acts componentwise on every coefficient vector.
    """
    a0 = orbit.a0.copy()
    a = orbit.a.copy()
    b = orbit.b.copy()
    if time_shift != 0.0:
        for k in range(1, orbit.m + 1):
            ck, sk = np.cos(k * time_shift), np.sin(k * time_shift)
            ak, bk = a[k - 1].copy(), b[k - 1].copy()
            a[k - 1] = ck * ak + sk * bk
            b[k - 1] = -sk * ak + ck * bk
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=float)
        a0 = rotation @ a0
        a = a @ rotation.T
        b = b @ rotation.T
    return FourierOrbit(a0=a0, a=a, b=b, lam=orbit.lam)
