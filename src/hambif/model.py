"""Hamiltonian system descriptions: evaluators, symmetries, equilibria, presets.

A system is a first-order flow ``z' = J grad H(z)`` on R^(2N).  Continuous
symmetries are encoded by Lie-algebra generators ``X`` (skew-symmetric,
commuting with J).  Such an ``X`` has the weight decomposition
``i X = V diag(w) V^H`` (``V`` unitary, ``w`` the real weights of the circle
it generates), so the group element ``exp(t X) = V diag(exp(-i w t)) V^H`` is
read off one Hermitian eigendecomposition.  Finite groups are out of scope;
the empty generator list is the trivial group.

The equilibrium owns its orbit: one full SVD of ``[X_1 z0, ..., X_g z0]``
gives both the section and the orbit generators that the criteria and a
branch's pins read (``_orbit_bases``); a generator that fixes ``z0`` adds
none.  Each refinement step takes only the section from that SVD, and the
generators are built once, for the refined point.

Every call of a supplied evaluator goes through ``_evaluate``, which turns
any failure that is not a ``HambifError`` into ``EvaluationFailure``, as it
does a gradient or Hessian of the wrong shape.  Its point or stack was
checked once, where it entered: a point whose length is not ``2N`` is a
``ValueError`` there (``linalg._array``, which checks the shape alone, so
that a non-finite iterate reaches the evaluator and the typed errors of its
caller).  It copies each per-point result, so an evaluator may return one
reused buffer.
``gradient_of`` and ``hessian_of`` fill a missing derivative from one
central-difference kernel or, from the energy alone, second differences.
The kernel, ``_central_differences(stacked, z)``, evaluates the rows
``z +- h_i e_i`` in one ``stacked`` call (``energies_of`` for the gradient,
``gradients_of`` for the Hessian, ``degree``'s section map for its
Jacobian) and returns the quotient with the values and the steps.  Every
stencil has the float operations of one point at a time (``z_i + h_i``,
then ``+- h_j``).  The forward-difference kernel beside them serves
``hessians_of`` when its caller passes the gradients it already holds at a
stack of base points (the harmonic-balance Jacobian does), for a system
without a Hessian, and evaluates all its shifted points through one
``gradients_of`` call.  So ``model`` alone decides how a missing derivative
is made.
``_gradient_and_floor`` gives the gradient with the rounding floor of its
stencil, ``eps max|H(z +- h_i e_i)| |1/h|``, from the energies the kernel
returns (0 for a supplied gradient); ``refine_equilibrium`` reads the
floor, to stop its Newton loop at an iterate that already passes, and
names it when it raises.  The refinement's vector norms, the floor's
``|1/h|`` among them, are ``_norm(v) = sqrt(v . v)``: ``np.linalg.norm``'s
own formula for a 1-D float vector, with its bits and its overflow warning
but without its dispatch, which costs more than the arithmetic on a
6-vector.

The energy, and a supplied ``gradient`` or ``hessian``, may carry a stacked
form as its ``batch`` attribute: called on a ``(P, 2N)`` stack of points, it
returns the ``(P,)`` energies, the ``(P, 2N)`` gradients or the
``(P, 2N, 2N)`` Hessians, row ``i`` being the value at point ``i``, in a new
array on each call.  ``energies_of``, ``gradients_of`` and ``hessians_of``
share one dispatcher, which makes one such call for a whole stack and
evaluates the points one at a time otherwise.  The stacked form belongs to
the callable, so a system whose evaluator is replaced never keeps a stale
one.  The satellite preset and every system from
``newtonian_to_hamiltonian`` (the ``harmonic`` and ``coupled-springs``
presets among them) carry stacked derivatives, and the satellite a stacked
energy.  Every stacked form equals its per-point form to the bit,
so no derivative, finite-difference or not, depends on which one a caller
reaches.  Only the satellite's per-point energy is derived, row 0 of the
stacked form on a one-row stack.  No other per-point form makes a one-row
stacked call, which costs several per-point ones.  The satellite's per-point
gradient and the lift's per-point gradient and Hessian are written out
beside their stacked forms: the satellite's makes its stacked form's float
operations in the same order, and the lift's call the q-callable once and
fill the same blocks.  The satellite's two Hessians share one formula,
written once over a point or a stack.  The satellite's energy takes ``d^3``,
``d^5`` and ``q_3^2`` from C's ``pow``, the power of numpy-scalar
arithmetic: Python's float power, the builtin ``pow`` mapped over the
column's floats with a float exponent straight into ``np.fromiter``, or
numpy's scalar power for a column where a Python power raises
``OverflowError``.  numpy's SIMD array power differs from ``pow`` in the
last bit of some 5% of distances.  A row with
``d = 0`` or an overflow warns through numpy, once per operation of its
stack; no row's value depends on its stack.  A lifted gradient from
``newtonian_to_hamiltonian`` also carries the marker ``newtonian = True``:
its momentum half is ``p`` itself, so the forward-difference kernel
evaluates only the position shifts.  Only that constructor sets it, and a
gradient replaced through ``dataclasses.replace`` loses it with the
callable.

A generator ``X`` of a symmetry of ``H`` gives ``A X z = X grad H(z)``, ``A`` the
Hessian at ``z`` (differentiate ``grad H(exp(t X) z) = exp(t X) grad H(z)`` at
``t = 0``).  ``refine_equilibrium`` requires of each generator, in spectral norms,
``|A X z0| <= |X| |grad H(z0)| + 1e-6 (1 + |A|) |X z0|`` at the refined point and
raises ``NotASymmetry`` otherwise: the section and a branch's pins treat
``X z0`` as a flat direction.

A reversor is a diagonal ``R = diag(r)``, ``r_i = +-1``, with ``R J R = -J``
(``r[N:] = -r[:N]``) and ``H(R z) = H(z)``, so that ``R z(-t)`` solves the flow
whenever ``z(t)`` does.  Only constructors that know ``H`` set it:
``newtonian_to_hamiltonian`` (``R = diag(I, -I)``), and through it the
``coupled-springs`` preset and the ``harmonic`` preset, which is its
one-frequency case (``R = diag(1, -1)``); the satellite preset
(``R = diag(1, -1, 1, -1, 1, -1)``); and ``_polynomial_system``, the inline
polynomial of a configuration, when every monomial has even degree in
``p``.  The lift's generators and the satellite's are ``diag(X, X)``, built
by one helper (``_doubled``).

Each preset is stated once, in the registry ``preset_info``: its parameters
and their defaults, its notes, its command-line flags with their help and
the example values of its sample configuration.  ``_preset`` resolves its
parameters once, for both its system (``preset``) and its default starting
point (``preset_guess``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateSection,
    EvaluationFailure,
    HambifError,
    MissingParameter,
    NoConvergence,
    NotASymmetry,
    UnknownPreset,
)
from .linalg import _apply_j, _array, _integer, _numerical_rank, _real

__all__ = [
    "EARTH_J2",
    "SymmetryGroup",
    "HamiltonianSystem",
    "EquilibriumOrbit",
    "gradient_of",
    "hessian_of",
    "energies_of",
    "gradients_of",
    "hessians_of",
    "refine_equilibrium",
    "newtonian_to_hamiltonian",
    "preset",
    "preset_info",
    "preset_guess",
    "satellite_equilibrium_distance",
    "gradient_equivariance_residual",
]

# Earth dynamical form factor (dimensionless second zonal harmonic).
EARTH_J2 = 1.0826359e-3

_EPS = float(np.finfo(float).eps)
_FD_GRADIENT_STEP = 1e-6
_FD_HESSIAN_STEP = 1e-4
# about sqrt(eps): the forward-difference step that balances truncation and rounding
_FD_FORWARD_STEP = 1.5e-8
# the relative tolerance of a symmetry identity at the refined equilibrium, as NotASymmetry applies it
_SYMMETRY_TOL = 1e-6


@dataclass(frozen=True)
class SymmetryGroup:
    """Connected symmetry group given by Lie-algebra generators on R^(2N).

    Each generator must be skew-symmetric and commute with the standard
    symplectic matrix (so the one-parameter subgroups are unitary).  An
    empty generator tuple encodes the trivial group.  A generator that is no
    float matrix (ragged rows, a string), not square of positive even size,
    not finite, not skew or not commuting is a ``ValueError`` naming
    ``generators[k]``.
    """

    generators: tuple = ()

    def __post_init__(self):
        gens = tuple(_array(f"generators[{k}]", g, (None, None), finite=False) for k, g in enumerate(self.generators))
        for k, g in enumerate(gens):
            if g.shape[0] != g.shape[1] or g.shape[0] % 2 or not g.size:
                raise ValueError(f"generators[{k}] must be square of positive even size, got shape {g.shape}")
            if not np.all(np.isfinite(g)):  # NaN would pass the comparisons below
                bad = ", ".join(f"[{i}, {j}] = {g[i, j]}" for i, j in np.argwhere(~np.isfinite(g)))
                raise ValueError(f"generators[{k}] has non-finite entries {bad}")
            scale = 1.0 + float(np.max(np.abs(g)))
            if float(np.max(np.abs(g + g.T))) > 1e-12 * scale:
                raise ValueError(f"generators[{k}] is not skew-symmetric")
            if float(np.max(np.abs(_apply_j(g, axis=0) + _apply_j(g, axis=1)))) > 1e-12 * scale:  # |X J - J X|
                raise ValueError(f"generators[{k}] does not commute with the symplectic matrix")
        object.__setattr__(self, "generators", gens)

    @property
    def group_dim(self) -> int:
        return len(self.generators)

    def element(self, index: int, t: float) -> np.ndarray:
        """Group element exp(t * X_index), from the weights of ``i X_index``.

        ``ValueError`` names ``index`` unless it is an integer in
        ``0..group_dim - 1``, and ``t`` unless it is a finite real.
        """
        _integer("index", index, 0, self.group_dim - 1)
        _real("t", t, positive=False)
        weights, vectors = np.linalg.eigh(1j * self.generators[index])
        return ((vectors * np.exp(-1j * t * weights)) @ vectors.conj().T).real


@dataclass
class HamiltonianSystem:
    """Energy function on R^(2N) with optional analytic derivatives.

    ``gradient``/``hessian`` may be omitted; central finite differences on
    ``energy`` are used as the fallback.  Evaluators must be pure and
    reentrant.  The ``energy`` and a supplied ``gradient``/``hessian`` may
    carry a stacked form as its ``batch`` attribute, which maps a ``(P, 2N)``
    array of points to the ``(P,)`` array of their energies, the ``(P, 2N)``
    array of their gradients or the ``(P, 2N, 2N)`` array of their Hessians
    (see the module docstring).

    ``reversor``, when known, is the diagonal ``r`` of a reversing symmetry
    ``R = diag(r)`` of H (see the module docstring); ``orbits.solve_orbit``
    then solves for the ``R``-symmetric orbits with half the unknowns.
    ``None`` means no reversor is known, and every branch takes the full
    harmonic-balance system.

    ``n`` must be an integer of at least 1, every generator of ``symmetry``
    must act on R^(2N), and ``reversor`` must be a float array of length
    ``2N`` (``ValueError`` naming them otherwise).
    """

    n: int
    energy: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    symmetry: SymmetryGroup = field(default_factory=SymmetryGroup)
    name: str = ""
    reversor: Optional[np.ndarray] = None

    def __post_init__(self):
        self.n = _integer("n", self.n)
        for g in self.symmetry.generators:
            if len(g) != self.dim:
                raise ValueError(f"symmetry acts on R^{len(g)}, but the system is on R^{self.dim}")
        if self.reversor is not None:
            r = _array("reversor", self.reversor, (self.dim,), finite=False)
            if not (np.array_equal(r[self.n :], -r[: self.n]) and np.all(np.abs(r) == 1.0)):
                raise ValueError("reversor must be 2N entries +-1 with r[N:] = -r[:N]")
            self.reversor = r

    @property
    def dim(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class EquilibriumOrbit:
    """A critical point of H, its Hessian and bases adapted to its group orbit.

    ``hessian`` is evaluated once, on the refining system, and is kept when used with another system.
    """

    z0: np.ndarray
    hessian: np.ndarray
    gradient_norm: float
    section_basis: np.ndarray  # (2N, 2N - orbit_dim), orthonormal complement
    orbit_generators: tuple  # combinations of the generators, one per orbit dimension (_orbit_bases)
    _report: object = field(default=None, init=False, compare=False, repr=False)  # spectral_report's; none on a replace

    @property
    def orbit_dim(self) -> int:
        return len(self.orbit_generators)


def _evaluate(system: HamiltonianSystem, what: str, z: np.ndarray, stacked: bool = False):
    """``system.<what>(z)`` as a float (energy) or float array; a non-HambifError failure becomes EvaluationFailure.

    With ``stacked``, ``z`` is a ``(P, 2N)`` stack and ``system.<what>.batch(z)``
    is called.  Stacked energies not of shape ``(P,)``, gradients not of the
    shape of ``z`` and Hessians not of that shape plus ``(2N,)`` are an
    EvaluationFailure too; only a per-point result is copied.  ``z`` comes
    checked, its shape once, where it entered: a point by ``gradient_of``,
    ``hessian_of`` or ``refine_equilibrium``, a stack, and each of its rows,
    by ``_stack_of``.
    """
    try:
        evaluator = getattr(system, what)
        value = evaluator.batch(z) if stacked else evaluator(z)
        if what == "energy" and not stacked:
            return float(value)
        value = np.asarray(value, dtype=float) if stacked else np.array(value, dtype=float)
    except HambifError:
        raise
    except Exception as exc:
        # max |z_i|, not |z|: the norm of a huge but finite z overflows
        where = np.max(np.abs(z), initial=0.0)
        raise EvaluationFailure(f"{what} evaluator failed at max|z_i|={where:.3g}: {exc}") from exc
    expected = z.shape[:-1] if what == "energy" else z.shape + z.shape[-1:] if what == "hessian" else z.shape
    if value.shape != expected:
        kind = "stacked " if stacked else ""
        raise EvaluationFailure(f"{kind}{what} evaluator returned shape {value.shape}, not {expected}")
    return value


def _central_differences(stacked, z: np.ndarray) -> tuple:
    """Central differences at ``z``: the quotient, the stencil's values and the steps ``h_i = 1e-6 (1 + |z_i|)``.

    The rows ``z + h_i e_i`` and ``z - h_i e_i``, interleaved, go through one ``stacked`` call;
    column ``i`` of the quotient is ``(v(z + h_i e_i) - v(z - h_i e_i)) / (2 h_i)``.
    """
    d = z.size
    steps = _FD_GRADIENT_STEP * (1.0 + np.abs(z))
    stencil = np.empty((2 * d, d))
    stencil[:] = z
    flat = stencil.reshape(-1)
    diagonal = np.arange(d) * (2 * d + 1)  # entry i of row 2i; of row 2i + 1 it is d further on
    flat[diagonal] += steps
    flat[diagonal + d] -= steps
    values = stacked(stencil)
    return (values[0::2] - values[1::2]).T / (2.0 * steps), values, steps


def _gradient_and_floor(system: HamiltonianSystem, z: np.ndarray) -> tuple:
    """The gradient that ``gradient_of`` gives, and the rounding floor of its stencil.

    A supplied gradient has floor 0.  For the energy's central differences,
    each energy value carries a rounding error of about ``eps |H|``, so column
    ``i`` is uncertain by about ``eps |H| / h_i``, and the gradient norm by the
    floor ``eps max|H(z +- h_i e_i)| |1/h|``, read from the stencil's own
    energies, which ``_central_differences`` evaluates in one ``energies_of``
    call and returns beside the quotient.  Below it Newton sees no progress.
    The floor is a-priori: an energy whose evaluation cancels (``1 - cos q``
    near ``q = 0``) carries more noise than ``eps |H|``.
    """
    if system.gradient is not None:
        return _evaluate(system, "gradient", z), 0.0
    gradient, values, steps = _central_differences(partial(energies_of, system), z)
    return gradient, _EPS * float(np.abs(values).max()) * _norm(1.0 / steps)


def _forward_differences(system: HamiltonianSystem, zs: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Gradient Jacobians at the rows of a ``(P, 2N)`` stack, from the gradients ``grads`` held there.

    Matrix ``p`` has columns ``(grad H(z_p + h_i e_i) - grads[p]) / h_i`` with
    ``h_i = 1.5e-8 (1 + |z_pi|)``, each taken as the representable step
    ``(z_p + h_i e_i)_i - z_pi``.  The shifted points go through one
    ``gradients_of`` call, which is one stacked evaluator call where the
    gradient has a stacked form (every Newtonian system has one).  A
    Newtonian lift's gradient (its ``newtonian`` marker) is
    ``(grad U(q), p)``, so at a momentum shift it is the held q-half beside
    the shifted momenta: only the ``N`` position shifts are evaluated, and
    the momentum columns are the same quotients of those known values.
    """
    count, d = zs.shape
    diag = np.arange(d)
    shifted = np.repeat(zs, d, axis=0).reshape(count, d, d)  # shifted[p, i] = z_p + h_i e_i
    shifted[:, diag, diag] += _FD_FORWARD_STEP * (1.0 + np.abs(zs))
    steps = shifted[:, diag, diag] - zs
    k = system.n if getattr(system.gradient, "newtonian", False) else d  # the shifts evaluated
    moved = shifted.copy()  # at a momentum shift of a Newtonian lift: the held q-half beside the shifted p
    moved[:, k:, :k] = grads[:, None, :k]
    moved[:, :k] = gradients_of(system, shifted[:, :k].reshape(count * k, d)).reshape(count, k, d)
    return ((moved - grads[:, None, :]) / steps[:, :, None]).transpose(0, 2, 1)


@cache
def _second_difference_layout(d: int) -> tuple:
    """The pairs ``i <= j`` of dimension ``d``, the flat stencil entries of their rows' ``h_i`` and ``h_j`` shifts, and each shift's index in ``(h, -h)``."""
    i, j = np.triu_indices(d)
    rows = np.arange(4 * i.size).reshape(-1, 4) * d
    shift_i = (i[:, None] + d * np.array([0, 0, 1, 1])).ravel()  # signs ++, +-, -+, --
    shift_j = (j[:, None] + d * np.array([0, 1, 0, 1])).ravel()
    layout = i, j, (rows + i[:, None]).ravel(), (rows + j[:, None]).ravel(), shift_i, shift_j
    for indices in layout:  # shared by every caller
        indices.flags.writeable = False
    return layout


def _second_differences(system: HamiltonianSystem, z: np.ndarray) -> np.ndarray:
    """Hessian of the energy by four-point second differences with steps ``h_i = 1e-4 (1 + |z_i|)``.

    Entry ``(i, j)``, ``i <= j``, is ``((H_0 - H_1) - H_2) + H_3`` over ``(4 h_i) h_j``,
    ``H_r`` the energy at ``z +- h_i e_i``, then ``+- h_j e_j`` (signs ``++``,
    ``+-``, ``-+``, ``--``), all rows in one ``energies_of`` call.
    """
    d = z.size
    steps = _FD_HESSIAN_STEP * (1.0 + np.abs(z))
    i, j, at_i, at_j, shift_i, shift_j = _second_difference_layout(d)
    shifts = np.concatenate((steps, -steps))
    stencil = np.empty((4 * i.size, d))
    stencil[:] = z
    flat = stencil.reshape(-1)
    flat[at_i] += shifts[shift_i]
    flat[at_j] += shifts[shift_j]
    values = energies_of(system, stencil).reshape(-1, 4)
    m = np.empty((d, d))
    m[i, j] = m[j, i] = (values[:, 0] - values[:, 1] - values[:, 2] + values[:, 3]) / (4.0 * steps[i] * steps[j])
    return m


def gradient_of(system: HamiltonianSystem, z) -> np.ndarray:
    """Gradient of H at z: supplied evaluator, else central differences of the energy.

    ``z`` is a point of length ``2N``; it may be non-finite, and so may the value then.
    """
    return _gradient_and_floor(system, _array("z", z, (system.dim,), finite=False))[0]


def hessian_of(system: HamiltonianSystem, z) -> np.ndarray:
    """Hessian of H at z, symmetrized as (M + M^T)/2.

    Uses the supplied evaluator when present, central differences of the
    gradient (``_central_differences`` over one ``gradients_of`` call) when
    only that is available, and second differences of the energy otherwise.
    ``z`` is a point of length ``2N``, as for ``gradient_of``.
    """
    z = _array("z", z, (system.dim,), finite=False)
    if system.hessian is not None:
        m = _evaluate(system, "hessian", z)
    elif system.gradient is not None:
        m = _central_differences(partial(gradients_of, system), z)[0]
    else:
        m = _second_differences(system, z)
    return 0.5 * (m + m.T)


def _stack_of(system: HamiltonianSystem, what: str, zs, per_point) -> np.ndarray:
    """``system.<what>`` at the rows of a ``(P, 2N)`` stack: one stacked call when it has one, else ``per_point(z)`` per row.

    Only a stacked Hessian is symmetrized here; ``hessian_of`` symmetrizes each per-point one.
    ``zs`` must have the shape ``(P, 2N)``; its points may be non-finite.
    """
    zs = _array("zs", zs, (None, system.dim), finite=False)
    if not hasattr(getattr(system, what), "batch"):
        return np.array([per_point(z) for z in zs])
    value = _evaluate(system, what, zs, stacked=True)
    return 0.5 * (value + value.transpose(0, 2, 1)) if what == "hessian" else value


def energies_of(system: HamiltonianSystem, zs) -> np.ndarray:
    """Energies of H at the rows of a ``(P, 2N)`` stack."""
    return _stack_of(system, "energy", zs, partial(_evaluate, system, "energy"))


# The per-row paths look ``gradient_of`` and ``hessian_of`` up at call time,
# so a wrapper installed under those names sees every row.
def gradients_of(system: HamiltonianSystem, zs) -> np.ndarray:
    """Gradients of H at the rows of a ``(P, 2N)`` stack, ``gradient_of`` per row without a stacked form."""
    return _stack_of(system, "gradient", zs, lambda z: gradient_of(system, z))


def hessians_of(system: HamiltonianSystem, zs, grads=None) -> np.ndarray:
    """Hessians of H at the rows of a ``(P, 2N)`` stack, each symmetrized as in ``hessian_of``.

    ``grads``, the gradients at ``zs`` that a caller already holds, are read
    only without a ``hessian`` evaluator, and checked then (the shape of
    ``zs``, finite or not): the Hessians are the symmetrized forward
    differences from them (``_forward_differences``), in place of
    ``hessian_of``'s central ones.  A supplied Hessian ignores them.
    """
    if grads is None or system.hessian is not None:
        return _stack_of(system, "hessian", zs, lambda z: hessian_of(system, z))
    zs = _array("zs", zs, (None, system.dim), finite=False)
    fd = _forward_differences(system, zs, _array("grads", grads, zs.shape, finite=False))
    return 0.5 * (fd + fd.transpose(0, 2, 1))


def gradient_equivariance_residual(
    system: HamiltonianSystem,
    probes: int,
    seed: int = 0,
    base=None,
    spread: float = 0.5,
) -> float:
    """Max of |grad H(exp(tX) z) - exp(tX) grad H(z)| over ``z = base + spread * normal``, t uniform in (0, 2 pi).

    ``ValueError`` unless ``probes``, the number of points ``z``, is an integer
    of at least 1, ``seed`` a non-negative integer, ``base`` a finite point of
    length ``2N`` and ``spread`` positive and finite.
    """
    _integer("probes", probes)
    _real("spread", spread)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    base = np.zeros(system.dim) if base is None else _array("base", base, (system.dim,))
    group = system.symmetry
    worst = 0.0
    for _ in range(probes):
        z = base + spread * rng.standard_normal(system.dim)
        gammas = [group.element(idx, rng.uniform(0.0, 2.0 * np.pi)) for idx in range(group.group_dim)]
        g = gradient_of(system, z)
        for gamma in gammas:
            resid = np.linalg.norm(gradient_of(system, gamma @ z) - gamma @ g)
            worst = np.maximum(worst, resid)  # a NaN residual stays NaN
    return float(worst)


def _orbit_bases(system: HamiltonianSystem, z: np.ndarray) -> tuple:
    """The orthonormal section complementing the orbit's tangent at ``z``, and the orbit generators' coefficients.

    One full SVD ``[X_1 z, ..., X_g z] = U diag(s) V^T`` gives the rank ``r``
    (``linalg._numerical_rank``), the section ``U[:, r:]`` and the rows
    ``V[:r]``: the unnormalised orbit generators are ``Y_k = sum_i V_ki X_i``
    (``Y_k z = s_k U[:, k]``).  A lone generator that moves ``z`` gets the
    coefficient exactly ``+1`` or ``-1``.
    """
    generators = system.symmetry.generators
    if generators:
        u, s, vt = np.linalg.svd(np.array([g @ z for g in generators]).T)
        if s[0] > 0.0:
            rank = _numerical_rank(s)
            return u[:, rank:], vt[:rank]
    return np.eye(system.dim), np.zeros((0, len(generators)))


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a contiguous 1-D float vector, by its own formula ``sqrt(v . v)`` and without its dispatch."""
    return math.sqrt(v.dot(v))


def _acceptance_tolerance(z: np.ndarray) -> float:
    """``refine_equilibrium``'s acceptance bound on ``|grad H|`` at ``z``: ``1e-10 (1 + |z|)``."""
    return 1e-10 * (1.0 + _norm(z))


def refine_equilibrium(system: HamiltonianSystem, guess) -> EquilibriumOrbit:
    """Newton-refine a critical point of H, quotienting out the group direction.

    Each step solves the gradient system restricted to the orthogonal
    section at the current iterate, so the (flat) group direction never
    enters the linear solve.  The loop keeps the iterate of least gradient
    norm and stops at a norm of at most ``1e-13 * (1 + |z|)``, after three
    iterations that each fail to cut the norm by 10% (a stall), after 50
    iterations, or once the norm is at or below the rounding floor of a
    central-difference gradient (``_gradient_and_floor``; only a system
    without a ``gradient`` has one) while the best iterate already passes the
    acceptance test below.  There Newton sees only rounding noise, and the
    outcome is decided.  Above the acceptance tolerance the loop goes on, as
    for a supplied gradient: a later noise reading may pass.

    Raises
    ------
    ValueError
        If ``guess`` is not a finite point of length ``2N``.
    NoConvergence
        If the best iterate misses ``|grad H| <= 1e-10 * (1 + |z|)``, with the
        iterations run, the stop that ended them (a stall, a non-finite
        gradient or section Hessian, or the 50-iteration cap) and, without a
        ``gradient``, the rounding floor at the best iterate; or if the
        gradient at the guess or the Hessian at the result is not finite.
    DegenerateSection
        If the section-restricted Hessian is singular beyond tolerance.
    NotASymmetry
        If a generator fails the symmetry identity of the module docstring at the result.
    """
    z = _array("guess", guess, (system.dim,)).copy()
    best_z, best_norm, best_floor = z.copy(), np.inf, 0.0
    stall = 0
    stop = "the 50-iteration cap"
    for iterations in range(1, 51):
        g, floor = _gradient_and_floor(system, z)
        gn = _norm(g)
        stall = 0 if gn <= 0.9 * best_norm else stall + 1
        if gn < best_norm:
            best_z, best_norm, best_floor = z.copy(), gn, floor
        # no Newton step from a non-finite gradient: the best iterate stands
        if not math.isfinite(gn):
            stop = "a non-finite gradient"
            break
        if gn <= 1e-13 * (1.0 + _norm(z)):
            break
        if gn <= floor and best_norm <= _acceptance_tolerance(best_z):
            break
        if stall >= 3:
            stop = "a stall (3 iterations without a 10% fall)"
            break
        section = _orbit_bases(system, z)[0]
        hs = section.T @ hessian_of(system, z) @ section
        if not np.isfinite(hs).all():
            stop = "a non-finite Hessian"
            break
        w = np.abs(np.linalg.eigvalsh(hs))
        if float(w.min()) <= 1e-12 * (1.0 + float(w.max())):
            raise DegenerateSection(
                "section-restricted Hessian is singular; cannot Newton-refine"
            )
        du = np.linalg.solve(hs, -(section.T @ g))
        z = z + section @ du
    z0, gn = best_z, best_norm
    if not math.isfinite(gn):
        raise NoConvergence("the gradient norm at the guess is not finite")
    tol = _acceptance_tolerance(z0)
    if not gn <= tol:
        note = f"; the central-difference gradient's rounding floor there is {best_floor:.3e}" if best_floor else ""
        raise NoConvergence(
            f"gradient norm {gn:.3e} above tolerance {tol:.3e} after {iterations} iterations, stopped by {stop}{note}"
        )
    hessian = hessian_of(system, z0)
    if not np.isfinite(hessian).all():
        raise NoConvergence("the Hessian at the refined point is not finite")
    generators = system.symmetry.generators
    hessian_norm = np.linalg.norm(hessian, 2) if generators else 0.0  # one SVD for all generators
    for i, x in enumerate(generators, start=1):
        moved = x @ z0
        residual = _norm(hessian @ moved)
        bound = np.linalg.norm(x, 2) * gn + _SYMMETRY_TOL * (1.0 + hessian_norm) * _norm(moved)
        if residual > bound:
            raise NotASymmetry(f"generator {i} is not a symmetry of H: |A X z0| = {residual:.3e} exceeds {bound:.3e}")
    section, coefficients = _orbit_bases(system, z0)
    d = system.dim
    # np.tensordot's own product, without its Python path
    combined = np.dot(coefficients, np.reshape(generators, (len(generators), d * d))).reshape(-1, d, d)
    return EquilibriumOrbit(
        z0=z0,
        hessian=hessian,
        gradient_norm=gn,
        section_basis=section,
        orbit_generators=tuple(combined),
    )


def _doubled(x, n: int) -> np.ndarray:
    """``diag(X, X)``: the ``n x n`` generator ``X`` acting on positions and on momenta alike."""
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = big[n:, n:] = x
    return big


def newtonian_to_hamiltonian(
    potential: Callable[[np.ndarray], float],
    n: int,
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    generators=(),
    name: str = "",
) -> HamiltonianSystem:
    """First-order form of the second-order system ``q'' = -grad U(q)``.

    Produces ``H(q, r) = |r|^2 / 2 + U(q)`` on R^(2n) with the symmetry
    generators lifted diagonally to act on positions and momenta alike, and
    the reversor ``r -> -r``.

    The lifted ``gradient`` and ``hessian`` carry stacked forms (see the
    module docstring), so a harmonic-balance evaluation makes one stacked
    call.  They call the supplied q-level ``gradient``/``hessian`` once per
    row.  The per-point ``gradient`` and ``hessian`` call them once and
    build the row that the stacked form builds, without a one-row stack, so
    each gives the same bits either way.  The lifted ``gradient`` is
    ``(grad U(q), p)`` and says so by its ``newtonian`` marker: without a
    ``hessian``, a harmonic-balance Jacobian differences it in the ``n``
    positions alone, and its momentum columns are the same bits a shifted
    call would give, because the q-gradient gets the same ``q`` there.
    ``n`` must be an integer of at least 1, and each generator a finite
    ``n x n`` matrix.
    """
    n = _integer("n", n)
    generators = [_array("generators", x, (n, n)) for x in generators]

    def energy(z):
        q, r = z[:n], z[n:]
        return 0.5 * float(r @ r) + float(potential(q))

    grad = None
    if gradient is not None:
        def grad(z):
            return np.concatenate((np.asarray(gradient(z[:n]), dtype=float), z[n:]))

        def grads(zs):
            # copy each row as it comes back: a gradient may reuse its buffer
            gq = [np.array(gradient(q), dtype=float) for q in zs[:, :n]]
            return np.concatenate([np.asarray(gq), zs[:, n:]], axis=1)

        grad.batch = grads
        grad.newtonian = True

    hess = None
    if hessian is not None:
        momenta = np.zeros((2 * n, 2 * n))  # every Hessian's constant blocks
        momenta[n:, n:] = np.eye(n)

        def hess(z):
            m = momenta.copy()
            m[:n, :n] = np.asarray(hessian(z[:n]), dtype=float)
            return m

        def hesses(zs):
            m = momenta[None].repeat(len(zs), axis=0)
            for mp, q in zip(m, zs[:, :n]):
                mp[:n, :n] = np.asarray(hessian(q), dtype=float)
            return m

        hess.batch = hesses

    return HamiltonianSystem(
        n=n,
        energy=energy,
        gradient=grad,
        hessian=hess,
        symmetry=SymmetryGroup(tuple(_doubled(x, n) for x in generators)),
        name=name or "newtonian",
        reversor=np.repeat([1.0, -1.0], n),
    )


def _polynomial_system(n: int, monomials, generators=()) -> HamiltonianSystem:
    """``H(z) = sum_m c_m prod_i z_i^e_mi`` on R^(2n), ``monomials`` the ``(c_m, e_m)`` pairs, with tabulated derivatives.

    An exponent is lowered below 0 only in a term whose factor is 0, so the
    lowered exponents are clipped at 0 and each derivative is one product
    over the whole table.  When every monomial has even degree in ``p``,
    ``H(q, -p) = H(q, p)`` exactly and the system carries the reversor
    ``diag(I, -I)``.  A coefficient that is not finite is a ``ValueError``
    naming ``monomials``.
    """
    dim = 2 * n
    eye = np.eye(dim)
    coeffs = _array("monomials", [c for c, _ in monomials], (None,))
    exps = np.array([e for _, e in monomials], dtype=float)  # (terms, dim)
    # d/dz_i: factor c e_i, exponents e - e_i; shapes (terms, i) and (terms, i, dim)
    grad_factor = coeffs[:, None] * exps
    grad_exps = np.clip(exps[:, None, :] - eye, 0.0, None)
    # d2/dz_i dz_j: factor c e_i (e_j - delta_ij), exponents e - e_i - e_j
    hess_factor = coeffs[:, None, None] * (exps[:, :, None] * (exps[:, None, :] - eye))
    hess_exps = np.clip(exps[:, None, None, :] - eye[:, None, :] - eye[None, :, :], 0.0, None)

    # silent overflow: the refinement reports a non-finite gradient as a typed error
    quiet = np.errstate(over="ignore", invalid="ignore")

    @quiet
    def energy(z):
        return float(np.sum(coeffs * np.prod(z**exps, axis=1)))

    @quiet
    def gradient(z):
        return np.sum(grad_factor * np.prod(z**grad_exps, axis=-1), axis=0)

    @quiet
    def hessian(z):
        return np.sum(hess_factor * np.prod(z**hess_exps, axis=-1), axis=0)

    even_in_p = all(sum(e[n:]) % 2 == 0 for _, e in monomials)
    return HamiltonianSystem(
        n=n,
        energy=energy,
        gradient=gradient,
        hessian=hessian,
        symmetry=SymmetryGroup(generators),
        name="inline-polynomial",
        reversor=np.repeat([1.0, -1.0], n) if even_in_p else None,
    )


def satellite_equilibrium_distance(omega: float, c: float) -> float:
    """Unique positive root of ``omega^2 d^5 - d^2 - 3 c = 0``.

    Bracketing plus bisection, then a Newton polish down to residual below
    1e-12.  Existence and uniqueness of the positive root follow from the
    single sign change of the coefficient sequence; ``f(0) = -3c < 0`` and
    ``f < 0`` up to the root, so the sign of ``f`` at a midpoint says which
    half holds it.  ``omega`` and ``c`` must be positive and finite.
    """
    _real("omega", omega)
    _real("c", c)

    def f(d):
        return omega**2 * d**5 - d**2 - 3.0 * c

    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    lo, root = 0.0, 0.5 * hi
    while lo < root < hi:  # bisect until the midpoint is an endpoint
        if f(root) > 0.0:
            hi = root
        else:
            lo = root
        root = 0.5 * (lo + hi)
    for _ in range(3):
        root -= f(root) / (5.0 * omega**2 * root**4 - 2.0 * root)
    return float(root)


def _satellite_system(omega: float, c: float) -> HamiltonianSystem:
    e3 = np.array([0.0, 0.0, 1.0])

    def grad_potential(q):
        d2 = float(q @ q)
        d = np.sqrt(d2)
        d3, d5, d7 = d * d2, d * d2 * d2, d * d2 * d2 * d2
        g = (1.0 / d3 + 3.0 * c / d5 - 15.0 * c * (q[2] * q[2]) / d7) * q
        g[2] += 6.0 * c * q[2] / d5
        return g

    coupling = np.array([[0.0, omega, 0.0], [-omega, 0.0, 0.0], [0.0, 0.0, 0.0]])
    eye, e3e3 = np.eye(3), np.outer(e3, e3)
    constant = np.zeros((6, 6))  # every Hessian's blocks but the potential's
    constant[:3, 3:], constant[3:, :3], constant[3:, 3:] = coupling, coupling.T, eye

    def gradient(z):
        q, p = z[:3], z[3:]
        gq = grad_potential(q) + omega * np.array([p[1], -p[0], 0.0])
        gp = p + omega * np.array([-q[1], q[0], 0.0])
        return np.concatenate([gq, gp])

    # The potential's Hessian at one point or at each row of a stack: ``d2``
    # holds |q|^2 per point, and ``expand`` turns a per-point weight into a
    # factor of a 3x3 block.  One formula serves both forms; q_3 is squared
    # by a product, never pow, and q q^T and e_3 q^T + q e_3^T are outer
    # products.
    def potential_hessian(d2, q, expand):
        d = np.sqrt(d2)
        d3 = d * d2
        d5 = d3 * d2
        d7 = d5 * d2
        d9 = d7 * d2
        q3 = q[..., 2]
        s1 = 1.0 / d3 + 3.0 * c / d5
        s2 = -3.0 / d5 - 15.0 * c / d7
        e3q = e3[:, None] * q[..., None, :] + q[..., :, None] * e3
        hp = expand(s1 - 15.0 * c * (q3 * q3) / d7) * eye
        hp += expand(s2 + 105.0 * c * (q3 * q3) / d9) * (q[..., :, None] * q[..., None, :])
        hp += expand(6.0 * c / d5) * e3e3
        hp -= expand(30.0 * c * q3 / d7) * e3q
        return hp

    def hessian(z):
        q = z[:3]
        m = constant.copy()
        m[:3, :3] = potential_hessian(float(q @ q), q, lambda w: w)
        return m

    # Stacked forms.  The per-point energy is derived: row 0 of the stacked
    # form on a one-row stack.  The stacked gradient makes the per-point
    # operations in the same order on a (P, 6) stack, so it equals its
    # per-point form to the bit.  |q|^2 and |p|^2 come from one matmul per
    # row, the dot kernel of the per-point q @ q, so no row's value depends
    # on its stack.
    def squares(x):
        return (x[:, None, :] @ x[:, :, None])[:, 0, 0]

    def distances(q):
        d2 = squares(q)
        return d2, np.sqrt(d2)

    # x**e by C's pow (module docstring): Python's float power, or, where one
    # overflows, numpy's scalar power, which gives inf and warns; a float
    # exponent skips pow's int conversion on every element
    def powers(values, e):
        try:
            return np.fromiter(map(pow, values.tolist(), repeat(float(e))), float, len(values))
        except OverflowError:
            return np.array([np.float64(x) ** e for x in values.tolist()])

    def energies(zs):
        q, p = zs[:, :3], zs[:, 3:]
        d = distances(q)[1]
        u = -1.0 / d - c / powers(d, 3) + 3.0 * c * powers(q[:, 2], 2) / powers(d, 5)
        return 0.5 * squares(p) + omega * (q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0]) + u

    def gradients(zs):
        q, p = zs[:, :3], zs[:, 3:]
        d2, d = distances(q)
        d3, d5, d7 = d * d2, d * d2 * d2, d * d2 * d2 * d2
        g = (1.0 / d3 + 3.0 * c / d5 - 15.0 * c * q[:, 2] ** 2 / d7)[:, None] * q
        g[:, 2] += 6.0 * c * q[:, 2] / d5
        out = np.empty(zs.shape)  # omega (p[1], -p[0], 0, -q[1], q[0], 0) plus (g, p): the per-point form's operations
        out[:, 0], out[:, 1], out[:, 3], out[:, 4] = p[:, 1], -p[:, 0], -q[:, 1], q[:, 0]
        out[:, 2::3] = 0.0
        out *= omega
        out[:, :3] += g
        out[:, 3:] += p
        return out

    def hessians(zs):
        q = zs[:, :3]
        m = constant[None].repeat(len(zs), axis=0)
        m[:, :3, :3] = potential_hessian(squares(q), q, lambda w: w[:, None, None])
        return m

    def energy(z):
        return energies(z[None])[0]

    energy.batch, gradient.batch, hessian.batch = energies, gradients, hessians

    spin = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return HamiltonianSystem(
        n=3,
        energy=energy,
        gradient=gradient,
        hessian=hessian,
        symmetry=SymmetryGroup((_doubled(spin, 3),)),
        name="satellite",
        reversor=np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]),
    )


def preset_info() -> dict:
    """Preset registry, the one place where a preset is stated.

    Each entry holds the preset's ``parameters`` with their defaults (``None``
    for a required one), its provenance ``notes``, its ``flags`` (each
    parameter that has a command-line flag, with the flag's help, in the
    order the flags are listed) and its ``examples``: the value that a
    required parameter takes in the preset's sample configuration.
    ``preset_guess`` gives the preset's default starting point.
    """
    return {
        "satellite": {
            "parameters": {
                "omega": 1.0,
                "c": 0.5 * EARTH_J2,
                "j2": EARTH_J2,
                "r_eq": 1.0,
            },
            "notes": (
                "Rotating-frame motion about an oblate spheroid, gravitational "
                "potential truncated at the second zonal harmonic; c = r_eq^2 * j2 / 2 "
                "(explicit c overrides j2/r_eq); default j2 is the Earth value "
                "1.0826359e-03; SO(2) symmetry about the rotation axis."
            ),
            "flags": {"omega": "satellite spin rate", "c": "satellite oblateness strength"},
            "examples": {},
        },
        "harmonic": {
            "parameters": {"beta": 1.0},
            "notes": "Single oscillator H = (p^2 + beta^2 q^2) / 2; trivial symmetry.",
            "flags": {"beta": "harmonic oscillator frequency"},
            "examples": {},
        },
        "coupled-springs": {
            "parameters": {"frequencies": None},
            "notes": (
                "Second-order system with U(q) = sum (f_i q_i)^2 / 2 lifted to "
                "first order; 'frequencies' is required (list of f_i)."
            ),
            "flags": {},
            "examples": {"frequencies": (1.0, 2.0)},
        },
    }


def _preset(name: str, given: dict) -> tuple:
    """``(preset, preset_guess)`` of ``name``, from its ``preset_info`` defaults overridden by ``given``, resolved once."""
    info = preset_info()
    if name not in info:
        raise UnknownPreset(f"unknown preset {name!r}")
    declared = info[name]["parameters"]
    for key, default in declared.items():
        if default is None and key not in given:
            raise MissingParameter(f"{name} preset needs {key!r}")
    extras = sorted(set(given) - set(declared))
    if extras:
        raise ValueError(f"unknown parameters for preset {name!r}: {extras}")
    values = {key: value if key == "frequencies" else float(_real(key, value)) for key, value in {**declared, **given}.items()}
    if name == "satellite":
        omega, c = values["omega"], values["c"]
        if "c" not in given:
            with np.errstate(over="ignore"):  # numpy's power overflows to inf, which _real rejects; Python's raises
                c = _real("c = r_eq^2 * j2 / 2", float(0.5 * np.float64(values["r_eq"]) ** 2 * values["j2"]))
        return _satellite_system(omega, c), np.array([1.0, 0.0, 0.0, 0.0, -omega, 0.0])
    if name == "harmonic":  # the one-frequency spring chain
        values["frequencies"] = [values["beta"]]
    freqs = values["frequencies"]  # one number, as a config's ``frequencies = 1.0`` gives, or a list
    freqs = _array("frequencies", [freqs] if np.isscalar(freqs) else freqs, (None,), finite=False)
    if freqs.size == 0 or not np.all((0.0 < freqs) & (freqs < np.inf)):
        raise ValueError("frequencies must be a non-empty list of positive finite reals")
    with np.errstate(over="ignore"):
        stiff = _array("beta^2" if name == "harmonic" else "frequencies^2", freqs**2, (None,))
    system = newtonian_to_hamiltonian(
        potential=lambda q: 0.5 * float(stiff @ (q * q)),
        n=freqs.size,
        gradient=lambda q: stiff * q,
        hessian=lambda q: np.diag(stiff),
        name=name,
    )
    return system, np.zeros(system.dim)


def preset(name: str, params: Optional[dict] = None, **kwargs) -> HamiltonianSystem:
    """Build a named system; a parameter not given takes its ``preset_info`` default.

    Raises ``UnknownPreset`` for an undeclared name, ``MissingParameter``
    for a required parameter left out and ``ValueError`` for an undeclared
    or out-of-range one.
    """
    return _preset(name, {**(params or {}), **kwargs})[0]


def preset_guess(name: str, params: Optional[dict] = None, **kwargs) -> np.ndarray:
    """The default starting point of ``refine_equilibrium`` on ``preset(name, params, **kwargs)``, with its errors.

    The satellite's is ``(1, 0, 0, 0, -omega, 0)``: its equilibria are
    ``q = (d, 0, 0)``, ``p = (0, -omega d, 0)`` and their rotations about the
    axis, ``d = satellite_equilibrium_distance(omega, c)``, and the guess
    takes ``d = 1``.  Every other preset's is the origin.
    """
    return _preset(name, {**(params or {}), **kwargs})[1]
