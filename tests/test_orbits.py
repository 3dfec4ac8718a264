import math
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hambif import analysis, cli, linalg, model, orbits
from hambif.errors import EmptyKernel, NoConvergence, WrongBranch

quad = pytest.importorskip("scipy.integrate").quad
expm = pytest.importorskip("scipy.linalg").expm

DATA = Path(__file__).parent / "data"


def harmonic_setup():
    sys = model.preset("harmonic", beta=1.0)
    eq = model.refine_equilibrium(sys, np.array([0.1, 0.1]))
    cand = analysis.analyze(sys, eq)[0]
    return sys, eq, cand


def satellite_setup():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]))
    cands = analysis.analyze(sat, eq)
    return sat, eq, cands[0]


def pendulum_setup():
    pend = model.newtonian_to_hamiltonian(
        potential=lambda q: 1.0 - np.cos(q[0]),
        n=1,
        gradient=lambda q: np.array([np.sin(q[0])]),
        hessian=lambda q: np.array([[np.cos(q[0])]]),
        name="pendulum",
    )
    eq = model.refine_equilibrium(pend, np.array([0.1, 0.0]))
    cand = analysis.analyze(pend, eq)[0]
    return pend, eq, cand


def pendulum_period_oracle(energy):
    # quadrature of the period integral after the standard substitution:
    # T(E) = 4 * int_0^{pi/2} (1 - (E/2) sin^2 phi)^(-1/2) dphi
    k2 = energy / 2.0
    val, _ = quad(lambda phi: 1.0 / np.sqrt(1.0 - k2 * np.sin(phi) ** 2), 0.0, np.pi / 2)
    return 4.0 * val


def test_kernel_direction_harmonic():
    sys, eq, cand = harmonic_setup()
    a1, b1 = orbits.kernel_direction(sys, eq, cand)
    t = analysis.t_matrix(model.hessian_of(sys, eq.z0), 1, cand.lambda0)
    assert np.linalg.norm(t @ np.concatenate([a1, b1])) < 1e-8
    # unit Sobolev normalization of the mode-1 pair
    assert abs(np.pi * (a1 @ a1 + b1 @ b1) - 1.0) < 1e-12
    # the kernel reproduces the circular solution: z(t) solves z' = J z
    orbit = orbits.FourierOrbit(a0=eq.z0.copy(), a=a1[None, :], b=b1[None, :], lam=1.0)
    res = orbits.residual_field(sys, orbit, 16)
    assert np.max(np.abs(res)) < 1e-12


def test_kernel_direction_empty_kernel():
    sys, eq, cand = harmonic_setup()
    with pytest.raises(EmptyKernel):
        orbits.kernel_direction(sys, eq, replace(cand, lambda0=1.7))
    # the pair is taken from the j0 level's subspace, so the level must be the j0 one
    sat, eq, cand = satellite_j0_setup(1)
    with pytest.raises(EmptyKernel):
        orbits.kernel_direction(sat, eq, replace(cand, j0=2))


def test_kernel_direction_orthogonal_to_the_generic_vector_is_an_empty_kernel():
    # U = q^T K q / 2 with normal modes u (frequency 1) and g's own q-part v
    # (frequency 2): the beta = 1 level meets Fix(R) in (u, 0), orthogonal to g
    v = np.sin([1.0, 2.0])
    u = np.array([v[1], -v[0]])
    k = (np.outer(u, u) + 4.0 * np.outer(v, v)) / (v @ v)
    system = model.newtonian_to_hamiltonian(
        potential=lambda q: 0.5 * q @ k @ q, n=2, gradient=lambda q: k @ q, hessian=lambda q: k
    )
    eq = model.refine_equilibrium(system, np.zeros(4))
    cand = next(c for c in analysis.analyze(system, eq) if abs(c.beta - 1.0) < 1e-12)
    with pytest.raises(EmptyKernel, match="below 1e-8 \\|g\\|"):
        orbits.kernel_direction(system, eq, cand)


def test_residual_field_constant_orbit():
    sat, eq, _ = satellite_setup()
    orbit = orbits.FourierOrbit(
        a0=eq.z0.copy(), a=np.zeros((2, 6)), b=np.zeros((2, 6)), lam=1.3
    )
    res = orbits.residual_field(sat, orbit, 8)
    assert np.max(np.abs(res)) < 1e-9
    with pytest.raises(ValueError, match="collocation_points must be an integer of at least 5, got 4"):
        orbits.residual_field(sat, orbit, 4)


def test_residual_field_takes_an_integer_point_count():
    # 17.5 gave 18 rows spaced 2 pi / 17.5 apart, not a grid over one period
    sat, eq, _ = satellite_setup()
    orbit = orbits.FourierOrbit(a0=eq.z0 + 0.01, a=np.full((2, 6), 0.01), b=np.zeros((2, 6)), lam=1.3)
    for bad in (17.5, 17.0, True):
        with pytest.raises(ValueError, match=f"collocation_points must be an integer of at least 5, got {re.escape(repr(bad))}"):
            orbits.residual_field(sat, orbit, bad)
    assert np.array_equal(orbits.residual_field(sat, orbit, np.int64(17)), orbits.residual_field(sat, orbit, 17))


def test_residual_field_refines_under_mode_doubling():
    sys, eq, cand = harmonic_setup()
    orbit = orbits.solve_orbit(sys, eq, cand, 0.02, modes=2)
    coarse = np.max(np.abs(orbits.residual_field(sys, orbit, 4 * orbit.m)))
    fine = np.max(np.abs(orbits.residual_field(sys, orbit, 8 * orbit.m + 1)))
    assert fine < coarse + 1e-12


def test_solve_orbit_harmonic_exact():
    sys, eq, cand = harmonic_setup()
    for s in (1e-3, 1e-2, 0.5):
        orbit = orbits.solve_orbit(sys, eq, cand, s, modes=3)
        assert abs(orbit.lam - 1.0) < 1e-13
        assert orbit.residual < 1e-12
        assert abs(orbit.amplitude - s) < 1e-10 * (1.0 + s)
        # circle radius proportional to s
        radius = orbits.sup_distance(orbit, eq.z0)
        assert abs(radius - s / np.sqrt(2.0 * np.pi)) < 1e-8


def test_solve_orbit_linear_exactness_single_mode():
    sys, eq, cand = harmonic_setup()
    orbit = orbits.solve_orbit(sys, eq, cand, 0.1, modes=1)
    assert orbit.m == 1
    assert orbit.residual < 1e-12


def test_a_non_finite_residual_check_is_a_failure():
    # NaN >= tol is false: a gradient that is NaN at one point of the 9-point
    # check alone was accepted with residual nan, and had the comparison alone
    # been fixed, the 17-point check of M = 4 would have missed the point
    system, eq, cand = harmonic_setup()
    bad = orbits.solve_orbit(system, eq, cand, 0.1, modes=2).evaluate([orbits.TWO_PI / 9])[0]

    def gradient(z):
        return np.full(2, np.nan) if np.max(np.abs(z - bad)) < 1e-9 else system.gradient(z)

    sick = replace(system, gradient=gradient)
    with pytest.raises(NoConvergence, match=r"the 9-point residual check is not finite at M=2 \(amplitude 1\.000e-01\)"):
        orbits.solve_orbit(sick, eq, cand, 0.1, modes=2)


def test_solve_orbit_requires_confirmed_candidate():
    sys, eq, cand = harmonic_setup()
    from dataclasses import replace

    bad = replace(cand, verdict="rejected")
    with pytest.raises(ValueError):
        orbits.solve_orbit(sys, eq, bad, 1e-2)


def test_solve_orbit_pendulum_against_quadrature():
    pend, eq, cand = pendulum_setup()
    previous_lam = 1.0
    guess = None
    for s in (0.1, 0.2, 0.4):
        orbit = orbits.solve_orbit(pend, eq, cand, s, modes=8, initial_guess=guess)
        emin, emax = orbits.orbit_energy_range(pend, orbit)
        oracle = pendulum_period_oracle(0.5 * (emin + emax))
        assert abs(orbit.period - oracle) / oracle < 1e-4
        assert orbit.lam > previous_lam  # period grows with amplitude
        previous_lam = orbit.lam
        guess = orbit


def test_continue_branch_harmonic():
    sys, eq, cand = harmonic_setup()
    branch = orbits.continue_branch(sys, eq, cand, steps=6, s0=1e-3, growth=2.0, modes=3)
    assert len(branch.orbits) == 6 and not branch.failures
    amps = [amp for amp, _ in branch.period_trend]
    assert all(a2 > a1 for a1, a2 in zip(amps, amps[1:]))
    assert amps[0] <= 1e-3 * (1.0 + 1e-6)
    for _, period in branch.period_trend:
        assert abs(period - 2.0 * np.pi) < 1e-12


def test_continue_branch_satellite_trends():
    sat, eq, cand = satellite_setup()
    branch = orbits.continue_branch(sat, eq, cand, steps=4, s0=1e-3, growth=2.0)
    assert len(branch.orbits) == 4 and not branch.failures
    target = cand.predicted_period
    devs = [abs(p - target) for _, p in branch.period_trend]
    assert devs[0] < devs[-1]  # approach the predicted period as s -> 0
    sups = [d for _, d in branch.sup_distance_trend]
    assert sups[0] < 1e-3 and all(s1 < s2 for s1, s2 in zip(sups, sups[1:]))
    for orbit in branch.orbits:
        emin, emax = orbits.orbit_energy_range(sat, orbit)
        assert (emax - emin) <= 1e-8 * (1.0 + abs(emin))


def test_continue_branch_retains_partial_on_failure():
    # the pendulum ladder crosses the separatrix energy, where the branch ends
    pend, eq, cand = pendulum_setup()
    branch = orbits.continue_branch(pend, eq, cand, steps=6, s0=0.5, growth=4.0, modes=8)
    assert branch.failures
    assert 0 < len(branch.orbits) < 6
    amps = [amp for amp, _ in branch.period_trend]
    assert all(a2 > a1 for a1, a2 in zip(amps, amps[1:]))
    # one sup distance per orbit kept, filled after the failed step
    assert [amp for amp, _ in branch.sup_distance_trend] == amps


def circles(modes, m):
    """Circles ``c (cos kt, -sin kt)`` for the ``{k: c}`` of ``modes`` in an M = ``m`` truncation, amplitude set."""
    a, b = np.zeros((m, 2)), np.zeros((m, 2))
    for k, c in modes.items():
        a[k - 1, 0], b[k - 1, 1] = c, -c
    orbit = orbits.FourierOrbit(a0=np.zeros(2), a=a, b=b, lam=1.0)
    orbit.amplitude = float(np.sqrt(np.sum(orbit.mode_energies(np.zeros(2)))))
    return orbit


def test_minimal_period_check_cases():
    sys, eq, cand = harmonic_setup()
    circle = orbits.solve_orbit(sys, eq, cand, 0.05, modes=2)
    assert orbits.minimal_period_check(circle) == "minimal"

    pure2 = orbits.FourierOrbit(
        a0=np.zeros(2),
        a=np.array([[0.0, 0.0], [0.3, 0.0]]),
        b=np.array([[0.0, 0.0], [0.0, -0.3]]),
        lam=1.0,
    )
    pure2.amplitude = float(np.sqrt(np.sum(pure2.mode_energies(np.zeros(2)))))
    assert orbits.minimal_period_check(pure2) == "subharmonic"

    mixed = orbits.FourierOrbit(
        a0=np.zeros(2),
        a=np.array([[1.0, 0.0], [0.05, 0.0]]),
        b=np.array([[0.0, -1.0], [0.0, 0.0]]),
        lam=1.0,
    )
    mixed.amplitude = float(np.sqrt(np.sum(mixed.mode_energies(np.zeros(2)))))
    assert orbits.minimal_period_check(mixed) == "minimal"

    murky = orbits.FourierOrbit(
        a0=np.zeros(2),
        a=np.array([[1.0, 0.0], [0.4, 0.0]]),
        b=np.array([[0.0, -1.0], [0.0, 0.0]]),
        lam=1.0,
    )
    murky.amplitude = float(np.sqrt(np.sum(murky.mode_energies(np.zeros(2)))))
    assert orbits.minimal_period_check(murky) == "undetermined"

    # the orbit repeats after 2 pi / r exactly when every mode k with r not dividing k is empty
    cases = [
        ({2: 0.3}, 64, "subharmonic"),
        ({1: 0.3e-9, 2: 0.3}, 8, "subharmonic"),  # a stray mode 1 far under the tolerance
        ({1: 0.3e-3, 2: 0.3}, 8, "undetermined"),  # one that breaks the half-period symmetry
        ({3: 0.3}, 4, "subharmonic"),
        ({3: 0.3, 6: 0.1}, 8, "subharmonic"),
        ({1: 1.0, 3: 0.3}, 4, "undetermined"),
    ]
    for modes, m, expected in cases:
        assert orbits.minimal_period_check(circles(modes, m)) == expected, modes

    # one mode is a minimal period; the amplitude field is not read, and
    # coefficients whose energy is not positive and finite decide nothing
    single = orbits.solve_orbit(sys, eq, cand, 0.05, modes=1)
    assert single.m == 1 and orbits.minimal_period_check(single) == "minimal"
    for amplitude in (np.nan, np.inf):
        assert orbits.minimal_period_check(replace(circle, amplitude=amplitude)) == "minimal"
    for value in (np.nan, np.inf, 0.0):
        modes = np.full_like(circle.a, value)
        assert orbits.minimal_period_check(replace(circle, a=modes, b=modes)) == "undetermined"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", [1.0, 1e-200, 1e200])
def test_circle_has_a_minimal_period_at_every_scale(r):
    # z(t) = r (cos t, -sin t): its energy r^2 underflowed to 0 ("undetermined")
    # at r = 1e-200 and overflowed with a RuntimeWarning at r = 1e200
    circle = orbits.FourierOrbit(a0=np.zeros(2), a=np.array([[r, 0.0]]), b=np.array([[0.0, -r]]), lam=1.0)
    assert orbits.minimal_period_check(circle) == "minimal"


def test_transformed_orbit_keeps_its_minimal_period():
    # transform_orbit leaves the amplitude field NaN, which read "undetermined"
    sat, eq, cand = satellite_j0_setup(1)
    orbit = orbits.solve_orbit(sat, eq, cand, 0.05)
    assert orbits.minimal_period_check(orbit) == "minimal"
    for moved in (orbits.transform_orbit(orbit, time_shift=0.3), orbits.transform_orbit(orbit, rotation=sat.symmetry.element(0, 0.7))):
        assert np.isnan(moved.amplitude) and orbits.minimal_period_check(moved) == "minimal"


def test_transform_orbit_time_shift_is_translation():
    sys, eq, cand = harmonic_setup()
    orbit = orbits.solve_orbit(sys, eq, cand, 0.1, modes=3)
    theta = 0.9
    shifted = orbits.transform_orbit(orbit, time_shift=theta)
    t = np.linspace(0.0, 2.0 * np.pi, 17)
    assert np.max(np.abs(shifted.evaluate(t) - orbit.evaluate(t + theta))) < 1e-12


def test_transform_orbit_time_shift_matches_the_per_mode_loop():
    # the per-mode loop is the reference: the vectorised shift makes the same
    # products cos(k theta) a_k + sin(k theta) b_k, so it agrees to the bit
    rng = np.random.default_rng(11)
    for m, theta in ((1, 0.3), (8, -2.7), (64, 1e-9), (16, 40.0)):
        a0, a, b = rng.standard_normal(4), rng.standard_normal((m, 4)), rng.standard_normal((m, 4))
        orbit = orbits.FourierOrbit(a0=a0, a=a, b=b, lam=1.0)
        a, b = a.copy(), b.copy()
        for k in range(1, m + 1):
            ck, sk = np.cos(k * theta), np.sin(k * theta)
            ak, bk = a[k - 1].copy(), b[k - 1].copy()
            a[k - 1] = ck * ak + sk * bk
            b[k - 1] = -sk * ak + ck * bk
        shifted = orbits.transform_orbit(orbit, time_shift=theta)
        assert np.array_equal(shifted.a, a) and np.array_equal(shifted.b, b)
        assert np.array_equal(shifted.a0, orbit.a0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_transform_orbit_rejects_a_non_finite_time_shift_or_rotation(value):
    # a NaN time shift gave an orbit whose every coefficient was NaN, with no error
    orbit = orbits.FourierOrbit(a0=np.ones(2), a=np.ones((3, 2)), b=np.zeros((3, 2)), lam=1.0)
    with pytest.raises(ValueError, match=f"time_shift must be finite, got {value}"):
        orbits.transform_orbit(orbit, time_shift=value)
    with pytest.raises(ValueError, match="rotation must be finite"):
        orbits.transform_orbit(orbit, rotation=[[1.0, 0.0], [0.0, value]])


def test_orbit_symmetry_residual_invariance():
    sat, eq, cand = satellite_setup()
    orbit = orbits.solve_orbit(sat, eq, cand, 5e-3)
    points = 4 * orbit.m
    base = np.max(np.linalg.norm(orbits.residual_field(sat, orbit, points), axis=1))
    gen = sat.symmetry.generators[0]
    rng = np.random.default_rng(8)
    for _ in range(4):
        gamma = expm(float(rng.uniform(0, 2 * np.pi)) * gen)
        # grid-commensurate shift keeps the discrete max-norm sample set fixed
        theta = 2.0 * np.pi * int(rng.integers(0, points)) / points
        moved = orbits.transform_orbit(orbit, rotation=gamma, time_shift=theta)
        res = np.max(np.linalg.norm(orbits.residual_field(sat, moved, points), axis=1))
        assert abs(res - base) < 1e-12


def test_solve_orbit_group_pinning_blocks_drift():
    sat, eq, cand = satellite_setup()
    orbit = orbits.solve_orbit(sat, eq, cand, 1e-2)
    pin = sat.symmetry.generators[0] @ eq.z0
    assert abs((orbit.a0 - eq.z0) @ pin) < 1e-9


def hat_period_oracle(energy):
    # radial motion of H = |p|^2/2 + |q|^4/4 - |q|^2/2 at zero angular
    # momentum: T = 2 int dr / sqrt(2 (E - V(r))) between the roots
    # u = 1 -+ sqrt(1 + 4E) of V(sqrt u) = E, with u = r^2 = c + d cos(theta)
    c, d = 1.0, np.sqrt(1.0 + 4.0 * energy)
    val, _ = quad(lambda theta: 1.0 / np.sqrt(c + d * np.cos(theta)), 0.0, np.pi, epsabs=0.0, epsrel=1e-13)
    return np.sqrt(2.0) * val


def quartic_period_oracle(energy):
    # x'' = -x - x^3 at energy E: T = 4 int_0^{pi/2} (1 + xm^2 (1 + sin^2 phi) / 2)^(-1/2) dphi
    xm2 = np.sqrt(1.0 + 4.0 * energy) - 1.0
    integrand = lambda phi: 1.0 / np.sqrt(1.0 + 0.5 * xm2 * (1.0 + np.sin(phi) ** 2))
    val, _ = quad(integrand, 0.0, np.pi / 2, epsabs=0.0, epsrel=1e-13)
    return 4.0 * val


@pytest.mark.parametrize(
    "name, steps, oracle, rtol",
    [("so3-hat", 5, hat_period_oracle, 1e-8), ("fixed-point", 4, quartic_period_oracle, 1e-10)],
    ids=["so3-hat", "fixed-point"],
)
def test_branch_pins_only_the_orbit_generators(name, steps, oracle, rtol):
    # so3-hat: three rotations, an orbit of dimension 2 (the rotation about q0
    # fixes z0); fixed-point: a rotation that fixes the origin.  A pin or a
    # momentum multiplier per declared generator makes the bordered Jacobian
    # singular there and the branch stalls at its first step.
    system, guess = cli.build_system(cli.parse_config((DATA / f"{name}.ini").read_text(encoding="utf-8")))
    eq = model.refine_equilibrium(system, guess)
    cand = analysis.analyze(system, eq)[0]
    branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=1e-2)
    assert len(branch.orbits) == steps and not branch.failures
    for orbit in branch.orbits:
        emin, emax = orbits.orbit_energy_range(system, orbit)
        expected = oracle(0.5 * (emin + emax))
        assert abs(orbit.period - expected) <= rtol * expected


def fd_jacobian(problem, x, s, step=1e-7):
    """Forward-difference Jacobian of the harmonic-balance residual pinned at ``s``: the oracle."""
    f0 = problem(x, s)[0]
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        jac[:, i] = (problem(xp, s)[0] - f0) / step
    return jac


def perturbed_unknowns(problem, eq, cand, s, rng):
    """Linear predictor at amplitude s with random perturbations and nonzero multipliers."""
    a = 0.01 * s * rng.standard_normal((problem.m, problem.dim))
    b = 0.01 * s * rng.standard_normal((problem.m, problem.dim))
    ap, bp = orbits.kernel_direction(problem.system, eq, cand)
    a[0] += s * ap
    b[0] += s * bp
    a0 = eq.z0 + 0.01 * s * rng.standard_normal(problem.dim)
    mus = 0.05 * rng.standard_normal(problem.n_mult)
    return problem.pack(a0, a, b, cand.lambda0 * (1.0 + 0.01 * rng.standard_normal()), mus)


def gradient_only_satellite_setup():
    sat, eq, cand = satellite_setup()
    return replace(sat, hessian=None), eq, cand


def problem_for(system, eq, cand, modes, symmetric, half_wave=False):
    """The problem ``solve_orbit`` builds: the symmetric ansatz (which must apply), its half-wave (likewise) or the full system."""
    predictor = orbits.kernel_direction(system, eq, cand)
    reversor = orbits._symmetric_frame(system, eq, predictor) if symmetric else None
    assert symmetric == (reversor is not None)
    assert not half_wave or orbits._half_wave(system, eq, predictor)
    return orbits._HarmonicBalance(system, eq, predictor, modes, reversor, half_wave)


JACOBIAN_CASES = {
    "satellite-M8": (satellite_setup, 8),
    "pendulum-M16": (pendulum_setup, 16),
    "gradient-only-satellite-M8": (gradient_only_satellite_setup, 8),
}


HALF_WAVE_JACOBIAN_CASES = {
    "pendulum-M16": (pendulum_setup, 16),
    "chain-n4-gradient-only-M8": (lambda: chain_setup(False), 8),
}


@pytest.mark.parametrize(
    "setup, modes, symmetric, half_wave",
    [(*case, False, False) for case in JACOBIAN_CASES.values()]
    + [(*case, True, False) for case in JACOBIAN_CASES.values()]
    + [(*case, True, True) for case in HALF_WAVE_JACOBIAN_CASES.values()],
    ids=list(JACOBIAN_CASES)
    + [f"{name}-symmetric" for name in JACOBIAN_CASES]
    + [f"{name}-half-wave" for name in HALF_WAVE_JACOBIAN_CASES],
)
def test_assembled_jacobian_matches_finite_differences(setup, modes, symmetric, half_wave):
    system, eq, cand = setup()
    rng = np.random.default_rng(3)
    problem = problem_for(system, eq, cand, modes, symmetric, half_wave)
    n = problem.n_coeff
    blocks = {
        "coefficients": (slice(0, n), slice(0, n)),
        "lambda column": (slice(0, n), slice(n, n + 1)),
        "mu columns": (slice(0, n), slice(n + 1, None)),
        "constraint rows": (slice(n, None), slice(None)),
    }
    if symmetric:  # no multipliers: the symmetric ansatz keeps lam alone
        assert problem.size == n + 1
        del blocks["mu columns"]
    # forward differences with step 1e-7 are good to about 1e-7 relative, so
    # every block must agree to 1e-5 of its largest entry
    for _ in range(3):
        x = perturbed_unknowns(problem, eq, cand, 0.05, rng)
        exact = problem.jacobian(x, problem.curve(x))
        oracle = fd_jacobian(problem, x, 0.05)
        assert exact.shape == oracle.shape == (problem.size, problem.size)
        for name, (rows, cols) in blocks.items():
            scale = float(np.max(np.abs(oracle[rows, cols])))
            assert scale > 0.0, name
            err = float(np.max(np.abs(exact[rows, cols] - oracle[rows, cols])))
            assert err <= 1e-5 * scale, (name, err, scale)


def test_branch_gradient_calls_stay_per_collocation_point():
    # a finite-difference Jacobian costs one residual (4M gradient calls)
    # per unknown per Newton step: 44,616 calls on this branch
    sat, eq, _ = satellite_setup()
    cand = next(c for c in analysis.analyze(sat, eq) if c.j0 == 1)
    calls = [0]

    def counted_gradient(z):
        calls[0] += 1
        return sat.gradient(z)

    counted = replace(sat, gradient=counted_gradient)
    branch = orbits.continue_branch(counted, eq, cand, steps=8, s0=1e-3)
    assert len(branch.orbits) == 8 and not branch.failures
    assert calls[0] <= 5000


def test_analysis_and_branch_read_the_equilibrium_hessian():
    # the refinement evaluates the Hessian at z0 once and the equilibrium
    # carries it: the spectral report, the section degree and every step's
    # kernel direction read it instead of evaluating it again
    sat = model.preset("satellite", omega=1.0, c=0.1)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]))
    assert np.array_equal(eq.hessian, model.hessian_of(sat, eq.z0))
    at_z0 = [0]

    def counted_hessian(z):
        at_z0[0] += int(np.array_equal(z, eq.z0))
        return sat.hessian(z)

    counted = replace(sat, hessian=counted_hessian)
    cand = analysis.analyze(counted, eq)[0]
    branch = orbits.continue_branch(counted, eq, cand, steps=8, s0=1e-3)
    assert len(branch.orbits) == 8 and not branch.failures
    assert at_z0[0] == 0


def test_jacobian_reuses_residual_gradients(symmetric=False, points=32):
    # Newton evaluates the residual at x and then asks for the Jacobian at
    # the same x with the curve the residual returned: the gradients at the
    # collocation points (4M, or the 2M + 1 in [0, pi] of the symmetric
    # ansatz) are not recomputed
    sat, eq, cand = satellite_setup()
    calls = [0]

    def counted_gradient(z):
        calls[0] += 1
        return sat.gradient(z)

    counted = replace(sat, gradient=counted_gradient)
    problem = problem_for(counted, eq, cand, 8, symmetric)
    x = perturbed_unknowns(problem, eq, cand, 0.05, np.random.default_rng(5))
    other = problem_for(sat, eq, cand, 8, symmetric)
    fresh = other.jacobian(x, other.curve(x))
    _, curve = problem(x, 0.05)
    before = calls[0]
    assert before == problem.points == points
    reused = problem.jacobian(x, curve)
    assert calls[0] == before
    assert np.array_equal(reused, fresh)
    moved = x.copy()
    moved[0] += 1e-3
    problem.jacobian(moved, problem.curve(moved))  # a different point is evaluated afresh
    assert calls[0] == before + problem.points


def test_jacobian_reuses_residual_gradients_in_the_symmetric_ansatz():
    test_jacobian_reuses_residual_gradients(symmetric=True, points=17)


def counting_evaluators(system):
    """``system`` whose gradient and Hessian count their per-point and stacked calls.

    The counted gradient carries the Newtonian marker where the original has
    it, so a Newtonian system keeps its position-only forward differences.
    """
    calls = Counter()

    def counted(what, f):
        def point(z):
            calls[what] += 1
            return f(z)

        if hasattr(f, "batch"):

            def batch(zs):
                calls[f"{what}.batch"] += 1
                return f.batch(zs)

            point.batch = batch
        if getattr(f, "newtonian", False):
            point.newtonian = True
        return point

    evaluators = {what: getattr(system, what) for what in ("gradient", "hessian")}
    return replace(system, **{w: counted(w, f) for w, f in evaluators.items() if f is not None}), calls


def test_satellite_harmonic_balance_makes_one_stacked_call_per_evaluation(symmetric=False):
    sat, eq, cand = satellite_setup()
    counted, calls = counting_evaluators(sat)
    problem = problem_for(counted, eq, cand, 8, symmetric)
    x = perturbed_unknowns(problem, eq, cand, 0.05, np.random.default_rng(5))
    _, curve = problem(x, 0.05)
    assert calls == {"gradient.batch": 1}
    problem.jacobian(x, curve)
    assert calls == {"gradient.batch": 1, "hessian.batch": 1}
    a0, a, b, lam, _ = problem.unpack(x)
    orbits.residual_field(counted, orbits.FourierOrbit(a0=a0, a=a, b=b, lam=lam), problem.points + 1)
    assert calls == {"gradient.batch": 2, "hessian.batch": 1}


def test_satellite_symmetric_ansatz_makes_one_stacked_call_per_evaluation():
    test_satellite_harmonic_balance_makes_one_stacked_call_per_evaluation(symmetric=True)


REPLACED_EVALUATORS = {
    # a replaced gradient has no stacked form; the Hessian keeps its own
    "gradient-replaced": (
        lambda sat: replace(sat, gradient=lambda z: sat.gradient(z)),
        {"gradient": "points", "hessian.batch": 1},
    ),
    # without a Hessian the Jacobian differences the held gradients in one stacked call
    "hessian-none": (lambda sat: replace(sat, hessian=None), {"gradient.batch": 2}),
}


@pytest.mark.parametrize(
    "replaced, expected, symmetric, points",
    [(*case, False, 32) for case in REPLACED_EVALUATORS.values()]
    + [(*case, True, 17) for case in REPLACED_EVALUATORS.values()],
    ids=list(REPLACED_EVALUATORS) + [f"{name}-symmetric" for name in REPLACED_EVALUATORS],
)
def test_replaced_satellite_evaluators_fall_back_to_per_point_calls(replaced, expected, symmetric, points):
    sat, eq, cand = satellite_setup()
    counted, calls = counting_evaluators(replaced(sat))
    problem = problem_for(counted, eq, cand, 8, symmetric)
    assert problem.points == points
    x = perturbed_unknowns(problem, eq, cand, 0.05, np.random.default_rng(5))
    _, curve = problem(x, 0.05)
    problem.jacobian(x, curve)
    assert calls == {what: points if count == "points" else count for what, count in expected.items()}


def test_solve_orbit_rejects_absurd_amplitude(monkeypatch):
    pend, eq, cand = pendulum_setup()
    monkeypatch.setattr(orbits, "MAX_MODES", 8)
    with pytest.raises(NoConvergence):
        orbits.solve_orbit(pend, eq, cand, 50.0, modes=4)


def counting_jacobians(monkeypatch):
    """Patch the harmonic-balance Jacobian to count its assemblies."""
    count = [0]
    assemble = orbits._HarmonicBalance.jacobian

    def counted(self, x, curve):
        count[0] += 1
        return assemble(self, x, curve)

    monkeypatch.setattr(orbits._HarmonicBalance, "jacobian", counted)
    return count


def test_chord_newton_keeps_the_jacobian_across_steps(monkeypatch):
    # rebuilding the Jacobian at every Newton step costs 13 assemblies
    # (424 Hessian calls) on this branch
    sat, eq, _ = satellite_setup()
    cand = next(c for c in analysis.analyze(sat, eq) if c.j0 == 1)
    jacobians = counting_jacobians(monkeypatch)
    branch = orbits.continue_branch(sat, eq, cand, steps=8, s0=1e-3)
    assert len(branch.orbits) == 8 and not branch.failures
    assert jacobians[0] <= 8
    tol = 1e-9 * (1.0 + np.linalg.norm(eq.z0))
    assert all(orbit.residual <= tol for orbit in branch.orbits)


def test_gradient_only_jacobian_differences_forward_from_held_gradients():
    # central differences and a Jacobian per Newton step cost 6,024 calls
    sat, eq, _ = gradient_only_satellite_setup()
    cand = next(c for c in analysis.analyze(sat, eq) if c.j0 == 1)
    calls = [0]

    def counted_gradient(z):
        calls[0] += 1
        return sat.gradient(z)

    branch = orbits.continue_branch(replace(sat, gradient=counted_gradient), eq, cand, steps=8, s0=1e-3)
    assert len(branch.orbits) == 8 and not branch.failures
    assert calls[0] <= 3000


class LinearStub:
    """Residual ``A x`` with scripted Jacobians; records where each is asked for and the curve it is handed.

    The curve a residual returns is the point it was evaluated at.
    """

    def __init__(self, a, jacobians):
        self.a = np.asarray(a, dtype=float)
        self.jacobians = list(jacobians)
        self.asked_at, self.curves = [], []

    def __call__(self, x, s):
        return self.a @ x, np.array(x)

    def jacobian(self, x, curve):
        self.asked_at.append(np.array(x))
        self.curves.append(curve)
        return np.array(self.jacobians[min(len(self.asked_at), len(self.jacobians)) - 1], dtype=float)


# With the identity as the Jacobian of A x, the first step takes the
# residual from (1, 0) to (0, 0.05): a contraction of 0.05 that keeps the
# Jacobian.  From there every damped identity step moves the residual to
# (50 s, 0.05 (1 - s)), larger for every s >= 1/256, so the line search fails.
STUB_A = np.array([[1.0, -1000.0], [-0.05, 1.0]])
STUB_X0 = np.linalg.solve(STUB_A, [1.0, 0.0])


def test_newton_rebuilds_a_stale_jacobian_whose_line_search_fails():
    stub = LinearStub(STUB_A, [np.eye(2), STUB_A])
    x, f, converged = orbits._newton(stub, 0.0, STUB_X0.copy(), tol_inner=1e-12)
    assert converged and np.max(np.abs(f)) < 1e-12
    assert len(stub.asked_at) == 2
    # rebuilt where the stale Jacobian's step was accepted, not at the start
    assert np.allclose(stub.asked_at[1], STUB_X0 - [1.0, 0.0], rtol=0.0, atol=1e-12)
    # each from the curve of the iterate it is built at, not of a rejected trial point
    assert all(np.array_equal(curve, at) for curve, at in zip(stub.curves, stub.asked_at))


def test_newton_ends_when_a_fresh_jacobians_line_search_fails():
    stub = LinearStub(STUB_A, [-STUB_A])
    x, f, converged = orbits._newton(stub, 0.0, STUB_X0.copy(), tol_inner=1e-12)
    assert not converged
    assert len(stub.asked_at) == 1
    assert np.array_equal(x, STUB_X0) and np.allclose(f, [1.0, 0.0])


def test_newton_ends_when_a_fresh_jacobian_is_singular():
    stub = LinearStub(STUB_A, [np.zeros((2, 2))])
    x, f, converged = orbits._newton(stub, 0.0, STUB_X0.copy(), tol_inner=1e-12)
    assert not converged
    assert len(stub.asked_at) == 1
    assert np.array_equal(x, STUB_X0) and np.array_equal(f, STUB_A @ STUB_X0)


def test_newton_stops_after_its_step_cap():
    # residual x with the Jacobian 2: every step halves the residual, a
    # contraction too weak to keep the Jacobian, and 2^-40 stays above 1e-300
    stub = LinearStub(np.eye(1), [2.0 * np.eye(1)])
    x, f, converged = orbits._newton(stub, 0.0, np.ones(1), tol_inner=1e-300)
    assert not converged
    assert len(stub.asked_at) == orbits.NEWTON_MAX_STEPS
    assert np.array_equal(x, [0.5**orbits.NEWTON_MAX_STEPS]) and np.array_equal(f, x)


def spring_chain(freqs, with_hessian=True, calls=None):
    """``U(q) = sum f_i^2 q_i^2 / 2 + sum (q_i - q_{i+1})^4 / 4`` with its derivatives.

    ``calls``, a Counter, counts the calls of the q-level gradient and Hessian.
    """
    f2 = np.asarray(freqs, dtype=float) ** 2
    idx = np.arange(f2.size - 1)
    calls = Counter() if calls is None else calls

    def gradient(q):
        calls["gradient"] += 1
        d3 = (q[:-1] - q[1:]) ** 3
        g = f2 * q
        g[:-1] += d3
        g[1:] -= d3
        return g

    def hessian(q):
        calls["hessian"] += 1
        w = 3.0 * (q[:-1] - q[1:]) ** 2
        h = np.diag(f2)
        h[idx, idx] += w
        h[idx + 1, idx + 1] += w
        h[idx, idx + 1] -= w
        h[idx + 1, idx] -= w
        return h

    return model.newtonian_to_hamiltonian(
        lambda q: 0.5 * float(f2 @ (q * q)) + 0.25 * float(np.sum((q[:-1] - q[1:]) ** 4)),
        f2.size,
        gradient=gradient,
        hessian=hessian if with_hessian else None,
    )


@pytest.mark.parametrize(
    "with_hessian, symmetric, points",
    [(True, False, 32), (False, False, 32), (True, True, 17), (False, True, 17)],
    ids=["hessian", "gradient-only", "hessian-symmetric", "gradient-only-symmetric"],
)
def test_newtonian_harmonic_balance_makes_one_stacked_call_per_evaluation(with_hessian, symmetric, points):
    q_calls = Counter()
    chain = spring_chain([1.0, 1.3, 1.7], with_hessian, q_calls)
    eq = model.refine_equilibrium(chain, np.zeros(6))
    cand = analysis.analyze(chain, eq)[0]
    counted, calls = counting_evaluators(chain)
    problem = problem_for(counted, eq, cand, 8, symmetric)
    assert problem.points == points
    x = perturbed_unknowns(problem, eq, cand, 0.05, np.random.default_rng(7))
    q_calls.clear()
    _, curve = problem(x, 0.05)
    assert calls == {"gradient.batch": 1} and q_calls == {"gradient": problem.points}
    problem.jacobian(x, curve)
    if with_hessian:
        assert calls == {"gradient.batch": 1, "hessian.batch": 1}
        assert q_calls == {"gradient": problem.points, "hessian": problem.points}
    else:
        # one more stacked call, on the N position shifts of every collocation
        # point: the momentum shifts would call the q-gradient at the same q
        assert calls == {"gradient.batch": 2}
        assert q_calls == {"gradient": problem.points + chain.n * problem.points}


def reused_buffer_springs():
    """Linear springs whose q-gradient returns one buffer, overwritten at every call."""
    stiff, out = np.array([1.0, 2.1]), np.empty(2)

    def gradient(q):
        np.multiply(stiff, q, out=out)
        return out

    return model.newtonian_to_hamiltonian(lambda q: 0.5 * float(stiff @ (q * q)), 2, gradient=gradient)


CHAIN_FREQS = [1.0, 1.3, 1.6, 1.9]
NEWTONIAN_SYSTEMS = {
    "chain": lambda: spring_chain(CHAIN_FREQS),
    "chain-gradient-only": lambda: spring_chain(CHAIN_FREQS, with_hessian=False),
    "pendulum": lambda: pendulum_setup()[0],
    "coupled-springs": lambda: model.preset("coupled-springs", frequencies=[1.0, 1.45, 2.2]),
    "reused-gradient-buffer": reused_buffer_springs,
}


@pytest.mark.parametrize("build", NEWTONIAN_SYSTEMS.values(), ids=NEWTONIAN_SYSTEMS.keys())
def test_stacked_newtonian_forms_equal_per_point_forms(build):
    # the lifted stacked forms make the per-point arithmetic on each row,
    # so they agree to the bit, not to a tolerance
    system = build()
    assert hasattr(system.gradient, "batch")
    zs = 0.8 * np.random.default_rng(31).standard_normal((50, system.dim))
    assert np.array_equal(model.gradients_of(system, zs), [model.gradient_of(system, z) for z in zs])
    assert np.array_equal(model.hessians_of(system, zs), [model.hessian_of(system, z) for z in zs])


def forward_differences_per_point(system, z, g0):
    """The per-point reference: one ``gradient_of`` call per shifted copy of ``z``."""
    columns = []
    for i in range(z.size):
        zp = z.copy()
        zp[i] += 1.5e-8 * (1.0 + abs(z[i]))
        columns.append((model.gradient_of(system, zp) - g0) / (zp[i] - z[i]))
    return np.array(columns).T


def per_point_satellite():
    # the per-point gradient alone: the satellite's stacked form may differ
    # in the last bit (test_stacked_satellite_forms_agree_with_per_point_forms)
    sat = model.preset("satellite", omega=1.0, c=0.1)
    return replace(sat, gradient=lambda z: sat.gradient(z), hessian=None)


def gradient_only_pendulum():
    return replace(pendulum_setup()[0], hessian=None)


def energy_only_pendulum():
    return replace(pendulum_setup()[0], gradient=None, hessian=None)


@pytest.mark.parametrize(
    "build, base",
    [
        (per_point_satellite, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0])),
        (lambda: spring_chain(CHAIN_FREQS, with_hessian=False), np.zeros(8)),
        (gradient_only_pendulum, np.zeros(2)),
        (reused_buffer_springs, np.zeros(4)),
        (energy_only_pendulum, np.zeros(2)),
    ],
    ids=["satellite", "chain", "pendulum-gradient-only", "reused-gradient-buffer", "pendulum-energy-only"],
)
def test_stacked_forward_differences_equal_the_per_point_loop(build, base):
    # the Newtonian systems shift only the positions; the loop shifts all 2N.
    # hessians_of, handed the gradients, gives the loop's matrices symmetrized
    system = build()
    zs = base + 0.3 * np.random.default_rng(37).standard_normal((20, base.size))
    grads = model.gradients_of(system, zs)
    expected = np.array([forward_differences_per_point(system, z, g) for z, g in zip(zs, grads)])
    assert np.array_equal(model._forward_differences(system, zs, grads), expected)
    assert np.array_equal(model.hessians_of(system, zs, grads), 0.5 * (expected + expected.transpose(0, 2, 1)))


def without_newtonian_marker(system):
    """``system`` whose lifted gradient keeps its stacked form but not its marker: the generic 2N-shift path."""
    lifted = system.gradient

    def gradient(z):
        return lifted(z)

    gradient.batch = lifted.batch
    return replace(system, gradient=gradient)


def refined_setup(system, guess):
    eq = model.refine_equilibrium(system, guess)
    return system, eq, analysis.analyze(system, eq)[0]


MARKED_BRANCHES = {
    # (setup, steps, s0); the chain doubles its modes to M = 16
    "chain-n4-gradient-only": (lambda: chain_setup(False), 6, 0.1),
    "pendulum-gradient-only": (lambda: refined_setup(gradient_only_pendulum(), np.array([0.1, 0.0])), 5, 0.1),
    "reused-gradient-buffer": (lambda: refined_setup(reused_buffer_springs(), np.zeros(4)), 4, 1e-2),
}


@pytest.mark.parametrize("setup, steps, s0", MARKED_BRANCHES.values(), ids=MARKED_BRANCHES.keys())
def test_position_only_forward_differences_give_the_generic_branch_to_the_bit(setup, steps, s0):
    # the momentum shifts of the generic path call the q-gradient at an
    # unchanged q, so writing their columns from the held gradients changes no bit
    system, eq, cand = setup()
    generic = without_newtonian_marker(system)
    assert system.hessian is None and system.gradient.newtonian and not hasattr(generic.gradient, "newtonian")
    branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)
    reference = orbits.continue_branch(generic, eq, cand, steps=steps, s0=s0)
    assert len(branch.orbits) == len(reference.orbits) == steps and not branch.failures
    for orbit, ref in zip(branch.orbits, reference.orbits):
        for key in ("a0", "a", "b", "lam", "residual", "amplitude"):
            assert np.array_equal(getattr(orbit, key), getattr(ref, key)), key


def test_lu_sees_no_entry_below_rounding_of_the_jacobian(monkeypatch, symmetric=False):
    chain = spring_chain([1.0 + 0.12 * i for i in range(8)])
    eq = model.refine_equilibrium(chain, np.zeros(16))
    cand = next(c for c in analysis.analyze(chain, eq) if c.j0 == 1)
    branch = orbits.continue_branch(chain, eq, cand, steps=7, s0=1e-3)
    # a start near the eighth step's: the seventh orbit scaled by 2
    last = branch.orbits[-1]
    problem = problem_for(chain, eq, cand, last.m, symmetric)
    a0 = eq.z0 + 2.0 * (last.a0 - eq.z0)
    x = problem.pack(a0, 2.0 * last.a, 2.0 * last.b, last.lam, np.zeros(problem.n_mult))
    f, curve = problem(x, 0.128)
    raw = problem.jacobian(x, curve)
    floor = np.finfo(float).eps * np.max(np.abs(raw))
    assert np.count_nonzero((raw != 0.0) & (np.abs(raw) < floor)) > 1000
    cleaned = orbits._lu_ready(raw.copy())
    assert not np.any((cleaned != 0.0) & (np.abs(cleaned) < floor))
    step, exact = np.linalg.solve(cleaned, -f), np.linalg.solve(raw, -f)
    assert np.max(np.abs(step - exact)) <= 1e-12 * np.max(np.abs(exact))

    handed = []
    solve = np.linalg.solve

    def spy(a, b):
        handed.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    _, _, converged = orbits._newton(problem, 0.128, x, tol_inner=1e-11)
    assert converged and handed
    for a in handed:
        assert not np.any((a != 0.0) & (np.abs(a) < np.finfo(float).eps * np.max(np.abs(a))))


def test_lu_sees_no_entry_below_rounding_of_the_symmetric_jacobian(monkeypatch):
    test_lu_sees_no_entry_below_rounding_of_the_jacobian(monkeypatch, symmetric=True)


def ini_setup(name):
    system, guess = cli.build_system(cli.parse_config((DATA / f"{name}.ini").read_text(encoding="utf-8")))
    eq = model.refine_equilibrium(system, guess)
    return system, eq, analysis.analyze(system, eq)[0]


def chain_setup(with_hessian, j0=1):
    chain = spring_chain(CHAIN_FREQS, with_hessian)
    eq = model.refine_equilibrium(chain, np.zeros(8))
    return chain, eq, next(c for c in analysis.analyze(chain, eq) if c.j0 == j0)


def satellite_j0_setup(j0):
    sat, eq, _ = satellite_setup()
    return sat, eq, next(c for c in analysis.analyze(sat, eq) if c.j0 == j0)


KERNEL_LEVELS = {
    "satellite-j1": lambda: satellite_j0_setup(1),
    "satellite-j2": lambda: satellite_j0_setup(2),
    **{f"chain-j{j0}": lambda j0=j0: chain_setup(True, j0) for j0 in range(1, len(CHAIN_FREQS) + 1)},
}


@pytest.mark.parametrize("setup", KERNEL_LEVELS.values(), ids=KERNEL_LEVELS.keys())
def test_kernel_direction_pair_structure(setup):
    # the pair and its quarter-period shift (b1, -a1) span the kernel of T_1,
    # and the pair starts in the symmetric frame: a1 in Fix(R), b1 in Fix(-R)
    system, eq, cand = setup()
    t = analysis.t_matrix(eq.hessian, 1, cand.lambda0)
    a1, b1 = orbits.kernel_direction(system, eq, cand)
    pair = np.column_stack([np.concatenate([a1, b1]), np.concatenate([b1, -a1])])
    assert np.max(np.abs(t @ pair)) <= 16 * np.finfo(float).eps * np.max(np.abs(t))
    _, svals, vt = np.linalg.svd(t)
    kernel = vt[svals < 1e-6 * svals[0]].T
    assert kernel.shape[1] == 2
    # each SVD kernel vector is a combination of the pair, and conversely
    for basis, other in ((pair, kernel), (kernel, pair)):
        coeffs = np.linalg.lstsq(basis, other, rcond=None)[0]
        assert np.max(np.abs(basis @ coeffs - other)) <= 1e-12 * np.max(np.abs(other))
    r = system.reversor
    assert np.max(np.abs(np.concatenate([a1[r < 0], b1[r > 0]]))) <= 1e-15
    assert orbits._symmetric_frame(system, eq, (a1, b1)) is r
    # a pair 1e-6 off the frame takes the full system
    assert orbits._symmetric_frame(system, eq, (a1 + 1e-6 * (r < 0), b1)) is None


def full_branch(monkeypatch, system, eq, cand, steps, s0):
    """The branch of ``system`` on the full harmonic-balance system, from the same kernel pair."""
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_symmetric_frame", lambda *args: None)
        return orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)


SYMMETRIC_BRANCHES = {
    # (setup, steps, s0, bounds from the residuals, half-wave); the N = 4
    # chains double their modes to M = 16.  H is even about z0 on each
    # half-wave branch, not on the satellite's
    "chain-n4": (lambda: chain_setup(True), 6, 0.1, False, True),
    "chain-n4-gradient-only": (lambda: chain_setup(False), 6, 0.1, False, True),
    "pendulum": (pendulum_setup, 5, 0.1, False, True),
    "satellite-j1": (lambda: satellite_j0_setup(1), 8, 1e-3, False, False),
    "satellite-j2": (lambda: satellite_j0_setup(2), 8, 1e-3, False, False),
    "springs": (lambda: ini_setup("springs"), 4, 1e-2, False, True),
    "far-equilibrium": (lambda: ini_setup("far-equilibrium"), 3, 1e-2, True, True),
}


def branch_without_half_wave(monkeypatch, system, eq, cand, steps, s0):
    """The branch of ``system`` in the symmetric ansatz, every mode and ``a0`` unknown: the half-wave's reference."""
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_half_wave", lambda *args: False)
        return orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)


@pytest.mark.parametrize(
    "setup, steps, s0, from_residuals, half_wave", SYMMETRIC_BRANCHES.values(), ids=SYMMETRIC_BRANCHES.keys()
)
def test_symmetric_ansatz_agrees_with_the_full_system(monkeypatch, setup, steps, s0, from_residuals, half_wave):
    system, eq, cand = setup()
    kernel = orbits.kernel_direction(system, eq, cand)
    r = orbits._symmetric_frame(system, eq, kernel)
    assert r is not None and orbits._half_wave(system, eq, kernel) == half_wave
    full = full_branch(monkeypatch, system, eq, cand, steps, s0)
    formulations = {"symmetric": branch_without_half_wave(monkeypatch, system, eq, cand, steps, s0)}
    if half_wave:
        formulations["half-wave"] = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)
    for name, branch in formulations.items():
        assert len(branch.orbits) == len(full.orbits) == steps and not branch.failures, name
        for orbit, ref in zip(branch.orbits, full.orbits):
            # the branch comes back symmetric, z(-t) = R z(t), in its own frame
            assert not np.any(orbit.a[:, r < 0]) and not np.any(orbit.b[:, r > 0]) and not np.any(orbit.a0[r < 0])
            if name == "half-wave":
                # and z(t + pi) = 2 z0 - z(t): the even modes are not unknowns, nor is a0 = z0
                assert not np.any(orbit.a[1::2]) and not np.any(orbit.b[1::2]) and np.array_equal(orbit.a0, eq.z0)
            assert orbit.m == ref.m, name
            scale = np.max(np.abs(np.vstack([ref.a, ref.b])))
            period_bound, coefficient_bound = 1e-12 * ref.period, 1e-10 * scale
            if from_residuals:
                # |z0| = 1e6: Newton stops at 64 eps |z0| ~ 1.4e-8, so the two
                # solvers end wherever their own paths cross that stop, not at the
                # same bits.  Two curves whose fields are off by r1 and r2 differ
                # by the inverse linearised field applied to r1 + r2.  Near z0,
                # A = I and lambda ~ 1: mode k's block is about k - lambda, of
                # inverse norm at most about 1 for k != 1 (the pin and lambda fix
                # mode 1), and lambda's column, J grad H along the orbit, has size
                # s.  So a coefficient moves by about r1 + r2 and lambda by about
                # (r1 + r2) / s.
                slack = orbit.residual + ref.residual
                period_bound, coefficient_bound = orbits.TWO_PI * slack / ref.amplitude, slack
            assert abs(orbit.period - ref.period) <= period_bound, name
            # the full solver from the same kernel pair finds the same orbit
            assert np.max(np.abs(np.vstack([orbit.a - ref.a, orbit.b - ref.b]))) <= coefficient_bound, name
            assert np.max(np.abs(orbit.a0 - ref.a0)) <= 1e-10 * (scale + np.max(np.abs(ref.a0))), name


def cubic_pendulum_setup():
    # U = 1 - cos q + q^3 / 6: reversible, R = diag(1, -1), but not even about q = 0
    cubic = model.newtonian_to_hamiltonian(
        potential=lambda q: 1.0 - np.cos(q[0]) + q[0] ** 3 / 6.0,
        n=1,
        gradient=lambda q: np.array([np.sin(q[0]) + q[0] ** 2 / 2.0]),
        hessian=lambda q: np.array([[np.cos(q[0]) + q[0]]]),
        name="cubic-pendulum",
    )
    return refined_setup(cubic, np.array([0.1, 0.0]))


def septic_pendulum_setup():
    # U = 1 - cos q + q^7 / 5040: the odd term's gradient sum is about 2.8e-15
    # at |q| = 1e-2, under the probe's bound there, but not at |q| = 0.1 or 1
    septic = model.newtonian_to_hamiltonian(
        potential=lambda q: 1.0 - np.cos(q[0]) + q[0] ** 7 / 5040.0,
        n=1,
        gradient=lambda q: np.array([np.sin(q[0]) + q[0] ** 6 / 720.0]),
        hessian=lambda q: np.array([[np.cos(q[0]) + q[0] ** 5 / 120.0]]),
        name="septic-pendulum",
    )
    return refined_setup(septic, np.array([0.1, 0.0]))


def off_plane_cubic_setup():
    # U = (q1^2 + 1.45^2 q2^2) / 2 + q1^3 q2 + q2^3: the even coupling q1^3 q2
    # excites q2 on the q1 branch, and the odd q2^3 vanishes on its kernel plane
    def gradient(q):
        return np.array([q[0] + 3.0 * q[0] ** 2 * q[1], 1.45**2 * q[1] + q[0] ** 3 + 3.0 * q[1] ** 2])

    def hessian(q):
        cross = 3.0 * q[0] ** 2
        return np.array([[1.0 + 6.0 * q[0] * q[1], cross], [cross, 1.45**2 + 6.0 * q[1]]])

    system = model.newtonian_to_hamiltonian(
        potential=lambda q: 0.5 * (q[0] ** 2 + 1.45**2 * q[1] ** 2) + q[0] ** 3 * q[1] + q[1] ** 3,
        n=2,
        gradient=gradient,
        hessian=hessian,
        name="off-plane-cubic",
    )
    eq = model.refine_equilibrium(system, np.zeros(4))
    return system, eq, next(c for c in analysis.analyze(system, eq) if c.lambda0 == 1.0)  # the q1 level


NOT_EVEN_BRANCHES = {
    "satellite-j1": (lambda: satellite_j0_setup(1), 8, 1e-3),
    "cubic-pendulum": (cubic_pendulum_setup, 4, 0.1),
    "septic-pendulum": (septic_pendulum_setup, 5, 0.1),
    "off-plane-cubic": (off_plane_cubic_setup, 4, 0.05),
}


@pytest.mark.parametrize("setup, steps, s0", NOT_EVEN_BRANCHES.values(), ids=NOT_EVEN_BRANCHES.keys())
def test_reversible_branch_of_an_h_not_even_keeps_its_problem_and_bits(monkeypatch, setup, steps, s0):
    system, eq, cand = setup()
    kernel = orbits.kernel_direction(system, eq, cand)
    reversor = orbits._symmetric_frame(system, eq, kernel)
    counted, calls = counting_evaluators(system)
    assert reversor is not None and not orbits._half_wave(counted, eq, kernel)
    assert calls == {"gradient.batch": 1}  # the probe: one stacked call, at 96 points
    setup_ = orbits._BranchSetup(system, eq, cand)
    assert not setup_.half_wave
    problem, symmetric = setup_.problem(8), orbits._HarmonicBalance(system, eq, kernel, 8, reversor)
    assert (problem.size, problem.points) == (symmetric.size, symmetric.points) == (symmetric.size, 17)
    branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)
    assert len(branch.orbits) == steps and not branch.failures
    assert orbit_bits(branch) == orbit_bits(branch_without_half_wave(monkeypatch, system, eq, cand, steps, s0))


def test_energy_only_even_system_keeps_the_symmetric_ansatz():
    # the pendulum's H is even about z0, but without a gradient there is no probe
    pend, _, _ = pendulum_setup()
    calls = Counter()

    def energy(z):
        calls["energy"] += 1
        return pend.energy(z)

    system, eq, cand = refined_setup(replace(pend, energy=energy, gradient=None, hessian=None), np.array([0.1, 0.0]))
    kernel = orbits.kernel_direction(system, eq, cand)
    assert orbits._symmetric_frame(system, eq, kernel) is not None
    calls.clear()
    setup_ = orbits._BranchSetup(system, eq, cand)
    assert not setup_.half_wave and not calls
    assert setup_.problem(8).points == 17
    branch = orbits.continue_branch(system, eq, cand, steps=2, s0=0.1)
    assert len(branch.orbits) == 2 and not branch.failures


def test_gradient_failing_at_the_probe_keeps_the_symmetric_ansatz(monkeypatch):
    # the probe reaches |q| = 1e-2 at its smallest radius; a branch at amplitudes
    # 1e-3 and 2e-3 stays below |q| = 2e-3, where this gradient is defined
    def gradient(q):
        if abs(q[0]) > 5e-3:
            raise ValueError("outside the chart")
        return np.array([np.sin(q[0])])

    pend, eq, cand = pendulum_setup()
    system = model.newtonian_to_hamiltonian(lambda q: 1.0 - np.cos(q[0]), 1, gradient=gradient, name="local-pendulum")
    assert not orbits._BranchSetup(system, eq, cand).half_wave
    branch = orbits.continue_branch(system, eq, cand, steps=2, s0=1e-3)
    assert len(branch.orbits) == 2 and not branch.failures
    assert orbit_bits(branch) == orbit_bits(branch_without_half_wave(monkeypatch, system, eq, cand, 2, 1e-3))


@pytest.mark.parametrize("setup, steps, s0", NOT_EVEN_BRANCHES.values(), ids=NOT_EVEN_BRANCHES.keys())
def test_half_wave_solve_that_fails_falls_back_to_the_symmetric_ansatz(monkeypatch, setup, steps, s0):
    # a half-wave hypothesis the probe missed costs time, not orbits: the
    # failing step is solved again in the symmetric ansatz, which the branch keeps
    system, eq, cand = setup()
    ref = branch_without_half_wave(monkeypatch, system, eq, cand, steps, s0)
    monkeypatch.setattr(orbits, "_half_wave", lambda *args: True)
    setup_ = orbits._BranchSetup(system, eq, cand)
    orbit, guess, half_wave = None, None, []
    for i in range(steps):
        orbit = setup_.solve(s0 * 2.0**i, 8, guess)
        half_wave.append(setup_.half_wave)
        assert orbit.m == ref.orbits[i].m
        slack = orbits.TWO_PI * (orbit.residual + ref.orbits[i].residual) / ref.orbits[i].amplitude
        assert abs(orbit.period - ref.orbits[i].period) <= slack
        guess = orbits._predict(orbit, eq.z0, cand.lambda0, 2.0)
    assert half_wave == sorted(half_wave, reverse=True) and not half_wave[-1]  # once dropped, for good
    branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)
    assert len(branch.orbits) == steps and not branch.failures
    if not half_wave[0]:
        # dropped at the first step, so the branch is the symmetric one to the bit
        assert orbit_bits(branch) == orbit_bits(ref)


@pytest.mark.parametrize(
    "setup, s, half_wave, solves", [(satellite_setup, 1e-3, False, 1), (pendulum_setup, 0.5, True, 2)], ids=["symmetric", "half-wave"]
)
def test_a_failing_solve_is_solved_again_only_from_the_half_wave_ansatz(monkeypatch, setup, s, half_wave, solves):
    # with no Newton step the predictor fails the check in every ansatz: a
    # symmetric failure raises at once, a half-wave one after one more solve,
    # each solve one Newton call at the starting M
    system, eq, cand = setup()
    calls, newton = Counter(), orbits._newton

    def counted(*args):
        calls["solve"] += 1
        return newton(*args)

    monkeypatch.setattr(orbits, "_newton", counted)
    monkeypatch.setattr(orbits, "NEWTON_MAX_STEPS", 0)
    shared = orbits._BranchSetup(system, eq, cand)
    assert shared.reversor is not None and shared.half_wave == half_wave
    with pytest.raises(NoConvergence, match="Newton stalled"):
        shared.solve(s, 8, None)
    assert calls["solve"] == solves and not shared.half_wave


def test_odd_harmonic_branch_doubles_its_modes_on_mode_m_minus_1():
    # H = ((q - 1e6)^2 + p^2) / 2 + p^4 / 4 + const is even about z0 = (1e6, 0),
    # so the family has odd harmonics only and mode M = 8 stays empty.  Mode 7
    # carries up to 2.2e-7 of the energy on the last three orbits, whose
    # residuals at M = 8 were 3.6e-7, 1.9e-5 and 2.4e-4
    system, eq, cand = ini_setup("far-equilibrium")
    branch = orbits.continue_branch(system, eq, cand, steps=8, s0=0.05)
    assert len(branch.orbits) == 8 and not branch.failures
    assert [orbit.m for orbit in branch.orbits] == [8] * 5 + [16] * 3
    assert max(orbit.residual for orbit in branch.orbits) <= 1e-8


def rotated_satellite_setup():
    # a guess off the x-axis refines to a point of the circle of equilibria
    # that R does not fix
    sat = model.preset("satellite", omega=1.0, c=0.1)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0.02, 0.0, 0.01, -1.0, 0.0]))
    assert np.linalg.norm(sat.reversor * eq.z0 - eq.z0) > 1e-3
    return sat, eq, analysis.analyze(sat, eq)[0]


def wrong_reversor_setup():
    # q -> q, p -> -p is no symmetry of the gyroscopic term: A != R A R at z0
    system, eq, cand = ini_setup("gyroscopic")
    return replace(system, reversor=np.array([1.0, 1.0, -1.0, -1.0])), eq, cand


FULL_BRANCHES = {
    "satellite-off-fix-r": (rotated_satellite_setup, 3, 1e-3),
    # generators that commute with R = diag(I, -I): the lifted rotations
    "so3-hat": (lambda: ini_setup("so3-hat"), 3, 1e-2),
    "fixed-point": (lambda: ini_setup("fixed-point"), 3, 1e-2),
    "odd-in-p": (lambda: ini_setup("gyroscopic"), 3, 1e-2),
    "reversor-not-a-symmetry": (wrong_reversor_setup, 3, 1e-2),
}


@pytest.mark.parametrize("setup, steps, s0", FULL_BRANCHES.values(), ids=FULL_BRANCHES.keys())
def test_full_system_where_the_symmetric_ansatz_does_not_apply(monkeypatch, setup, steps, s0):
    system, eq, cand = setup()
    assert orbits._symmetric_frame(system, eq, orbits.kernel_direction(system, eq, cand)) is None
    branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)
    full = full_branch(monkeypatch, system, eq, cand, steps, s0)
    assert len(branch.orbits) == steps and not branch.failures
    for orbit, ref in zip(branch.orbits, full.orbits):
        for key in ("a0", "a", "b", "lam", "residual"):
            assert np.array_equal(getattr(orbit, key), getattr(ref, key))


BAD_AMPLITUDES = {
    "solve-nan": lambda system, eq, cand: orbits.solve_orbit(system, eq, cand, float("nan")),
    "solve-inf": lambda system, eq, cand: orbits.solve_orbit(system, eq, cand, float("inf")),
    "branch-s0-nan": lambda system, eq, cand: orbits.continue_branch(system, eq, cand, s0=float("nan")),
    "branch-growth-negative": lambda system, eq, cand: orbits.continue_branch(system, eq, cand, growth=-2.0),
    "branch-growth-inf": lambda system, eq, cand: orbits.continue_branch(system, eq, cand, growth=float("inf")),
    "branch-amplitude-overflows": lambda system, eq, cand: orbits.continue_branch(system, eq, cand, s0=1e10, growth=1e100),
    "branch-amplitude-underflows": lambda system, eq, cand: orbits.continue_branch(
        system, eq, cand, steps=200, growth=1e-3
    ),
}


@pytest.mark.parametrize("call", BAD_AMPLITUDES.values(), ids=BAD_AMPLITUDES.keys())
def test_amplitudes_and_growth_must_be_positive_and_finite_before_any_work(call):
    # the rule of cli.RunConfig, 0 < value < inf; NaN and inf used to run a
    # whole Newton solve, and a negative growth failed only at step 1
    sat, eq, cand = satellite_setup()
    counted, calls = counting_evaluators(sat)
    with pytest.raises(ValueError, match="positive and finite"):
        call(counted, eq, cand)
    assert not calls


NUMPY_LADDERS = {
    # (steps, s0, growth): the amplitudes are s0 * 2**i, the float64 ladder
    "int64-growth": (64, 1e-30, np.int64(2)),  # np.int64(2)**63 wraps to -2**63
    "float32-growth": (2, 1e-60, np.float32(2.0)),  # 1e-60 * np.float32(1) rounds to 0
}


@pytest.mark.parametrize("steps, s0, growth", NUMPY_LADDERS.values(), ids=NUMPY_LADDERS.keys())
def test_numpy_ladder_numbers_give_the_float64_ladder(steps, s0, growth):
    # the ladder is checked once, before the steps, which no longer check their
    # own amplitudes, so a numpy scalar's width must not reach the steps: the
    # last int64 step solved at the pin -2**63 s0, and the float32 steps at 0
    system, eq, cand = harmonic_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0, growth=growth, modes=1)
    assert len(branch.orbits) == steps and not branch.failures
    for i, orbit in enumerate(branch.orbits):
        assert abs(orbit.amplitude - s0 * 2.0**i) <= 1e-12 * s0 * 2.0**i


@pytest.mark.parametrize(
    "entry, modes",
    [
        ("solve_orbit", 0),
        ("solve_orbit", -2),
        ("solve_orbit", 100),
        ("solve_orbit", 2.5),
        ("solve_orbit", True),
        ("continue_branch", 0),
    ],
)
def test_modes_outside_one_to_max_modes_are_rejected_before_any_work(entry, modes):
    # 0 and -2 ended in numpy's "negative dimensions are not allowed",
    # 100 solved at M = 100, past MAX_MODES, and True, an int, at M = 1
    sat, eq, cand = satellite_setup()
    counted, calls = counting_evaluators(sat)
    amplitude = (1e-3,) if entry == "solve_orbit" else ()
    with pytest.raises(ValueError, match=re.escape(f"modes must be an integer in 1..64, got {modes!r}")):
        getattr(orbits, entry)(counted, eq, cand, *amplitude, modes=modes)
    assert not calls


@pytest.mark.parametrize("steps", [3.0, 0, -1, True])
def test_steps_must_be_a_positive_integer_before_any_work(steps):
    # 3.0 passed a bare 'steps < 1' and ended in range()'s TypeError, and
    # True, an int, ran one step
    sat, eq, cand = satellite_setup()
    counted, calls = counting_evaluators(sat)
    with pytest.raises(ValueError, match=re.escape(f"steps must be an integer of at least 1, got {steps!r}")):
        orbits.continue_branch(counted, eq, cand, steps=steps)
    assert not calls


def chained_solves(system, eq, cand, steps, s0, growth=2.0):
    """One ``solve_orbit`` call per step, each warm-started as ``continue_branch`` does."""
    found, guess = [], None
    for i in range(steps):
        orbit = orbits.solve_orbit(system, eq, cand, s0 * growth**i, initial_guess=guess)
        found.append(orbit)
        guess = orbits._predict(orbit, eq.z0, cand.lambda0, growth)
    return found


CHAINED_BRANCHES = {
    "satellite-j1": (lambda: satellite_j0_setup(1), 8, 1e-3),
    "satellite-j2": (lambda: satellite_j0_setup(2), 8, 1e-3),
    # M = 16 at steps 5 and 6, each of which starts again at M = 8
    "chain-n4-gradient-only": (lambda: chain_setup(False), 6, 0.1),
    "so3-hat": (lambda: ini_setup("so3-hat"), 5, 1e-2),
    "gyroscopic": (lambda: ini_setup("gyroscopic"), 4, 1e-2),
}


@pytest.mark.parametrize("setup, steps, s0", CHAINED_BRANCHES.values(), ids=CHAINED_BRANCHES.keys())
def test_branch_equals_chained_solves_to_the_bit(setup, steps, s0):
    # the branch reuses one problem per M across its steps; no pin, memo or
    # other state may carry from one step into the next
    system, eq, cand = setup()
    branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)
    chained = chained_solves(system, eq, cand, steps, s0)
    assert len(branch.orbits) == len(chained) == steps and not branch.failures
    for orbit, ref in zip(branch.orbits, chained):
        for key in ("a0", "a", "b", "lam", "residual", "amplitude"):
            assert np.array_equal(getattr(orbit, key), getattr(ref, key)), key


FAMILY_BRANCHES = {
    # (with_hessian, growth, steps).  Scaled whole by 2, the fifth orbit put
    # the sixth step on another family, of period 3.30097 against 2.68202 on
    # the fine ladder
    "hessian": (True, 2.0, 6),
    "gradient-only": (False, 2.0, 6),
    # the period shift scaled by 3**2 predicts lambda < 0, and Newton from
    # there ends at period -1.11163 against 1.64640 on the ladder
    "hessian-growth-3": (True, 3.0, 5),
}


@pytest.mark.parametrize("with_hessian, growth, steps", FAMILY_BRANCHES.values(), ids=FAMILY_BRANCHES.keys())
def test_branch_stays_on_its_family(with_hessian, growth, steps):
    # the last orbit must be the one a ladder of growth**(1/8) reaches
    system, eq, cand = chain_setup(with_hessian)
    branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=0.1, growth=growth)
    rungs = 8 * (steps - 1) + 1
    ladder = orbits.continue_branch(system, eq, cand, steps=rungs, s0=0.1, growth=growth ** (1 / 8))
    assert len(branch.orbits) == steps and len(ladder.orbits) == rungs and not branch.failures + ladder.failures
    periods = [orbit.period for orbit in branch.orbits]
    assert all(a > b for a, b in zip(periods, periods[1:])), periods
    assert abs(periods[-1] - ladder.orbits[-1].period) <= 1e-8 * ladder.orbits[-1].period


PAST_THE_ORDERS = {
    # (setup, steps, s0, growth), all at M = 64.  growth**k overflows, and
    # the zero and rounding-level modes scaled by it became inf and NaN
    "harmonic-growth-1e5": (harmonic_setup, 2, 1e-6, 1e5),
    "satellite-growth-1e5": (satellite_setup, 2, 1e-6, 1e5),
    # finite, but the rounding-level tail scaled by 2**k outweighs mode 1,
    # and Newton stalls at step 2
    "satellite-growth-2": (satellite_setup, 3, 1e-3, 2.0),
}


@pytest.mark.parametrize("setup, steps, s0, growth", PAST_THE_ORDERS.values(), ids=PAST_THE_ORDERS.keys())
def test_predictor_stays_finite_and_mode_1_dominated_past_the_orders(monkeypatch, setup, steps, s0, growth):
    system, eq, cand = setup()
    guesses, solve = [], orbits._BranchSetup.solve

    def spy(setup_, amplitude_s, modes, initial_guess):
        guesses.append(initial_guess)
        return solve(setup_, amplitude_s, modes, initial_guess)

    monkeypatch.setattr(orbits._BranchSetup, "solve", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0, growth=growth, modes=64)
    assert len(branch.orbits) == steps and not branch.failures
    assert guesses[0] is None and len(guesses) == steps
    for guess in guesses[1:]:
        assert all(np.all(np.isfinite(part)) for part in (guess.a0, guess.a, guess.b, guess.lam))
        assert int(np.argmax(guess.mode_energies(eq.z0)[1:])) == 0


def test_branch_builds_its_setup_once_and_each_problem_once_per_modes(monkeypatch):
    # rebuilt at every step and doubling, the gradient-only N = 4 chain made
    # 8 problems and 6 kernel directions and symmetric frames
    system, eq, cand = chain_setup(False)
    calls, built = Counter(), []
    for owner, name in ((orbits, "kernel_direction"), (orbits, "_symmetric_frame"), (orbits._BranchSetup, "solve")):

        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    build, trig, tables = orbits._HarmonicBalance.__init__, orbits._trig, Counter()

    def counted_build(self, system, eq, predictor, m, reversor=None, half_wave=False):
        built.append(m)
        build(self, system, eq, predictor, m, reversor, half_wave)

    def counted_trig(t, m):
        if len(t) > 16:  # a grid table, not the half-wave probe or the refined sup times
            tables[len(t), m] += 1
        return trig(t, m)

    monkeypatch.setattr(orbits._HarmonicBalance, "__init__", counted_build)
    monkeypatch.setattr(orbits, "_trig", counted_trig)
    orbits._grid.cache_clear()
    branch = orbits.continue_branch(system, eq, cand, steps=6, s0=0.1)
    assert [orbit.m for orbit in branch.orbits] == [8, 8, 8, 8, 16, 16] and not branch.failures
    assert built == [8, 16]
    assert calls == {"kernel_direction": 1, "_symmetric_frame": 1, "solve": 6}
    # each cos/sin table once: every M's solve grid (4M points, to mode 2M
    # for the transform), residual check (4M + 1) and sup distance (8M); they
    # were rebuilt at every step
    assert tables == {(32, 16): 1, (33, 8): 1, (64, 8): 1, (64, 32): 1, (65, 16): 1, (128, 16): 1}
    assert orbits._grid.cache_info().misses == 6
    # a second branch builds none: the tables outlive the branch that made them
    orbits.continue_branch(system, eq, cand, steps=6, s0=0.1)
    assert sum(tables.values()) == 6 and orbits._grid.cache_info().misses == 6


def test_grid_tables_are_shared_and_read_only():
    cos, sin = orbits._grid(33, 8)
    again = orbits._grid(33, 8)
    assert again[0] is cos and again[1] is sin
    for table in (cos, sin):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def test_solve_orbit_rejects_a_negative_period():
    # warm-started by the unguarded Lyapunov-Schmidt orders at growth 3
    # (lam = -0.0792), Newton converges to period -1.11163 with residual
    # 1.6e-14 at M = 32, and solve_orbit returned that orbit
    system, eq, cand = chain_setup(True)
    branch = orbits.continue_branch(system, eq, cand, steps=4, s0=0.1, growth=3.0)
    assert len(branch.orbits) == 4 and not branch.failures
    last = branch.orbits[-1]
    factors = 3.0 ** np.arange(1, last.m + 1)[:, None]
    mean, lam = eq.z0 + 9.0 * (last.a0 - eq.z0), cand.lambda0 + 9.0 * (last.lam - cand.lambda0)
    guess = orbits.FourierOrbit(mean, factors * last.a, factors * last.b, lam)
    assert guess.lam < 0.0
    with pytest.raises(WrongBranch, match=r"period -1\.1116309 is not positive"):
        orbits.solve_orbit(system, eq, cand, 0.1 * 3.0**4, modes=last.m, initial_guess=guess)


def test_solve_orbit_rejects_an_orbit_dominated_by_mode_two():
    # H = (p1^2 + q1^2)/2 + (p2^2 + 4 q2^2)/2: at lam = 1 the warm start, the
    # kernel pair at amplitude s in mode 1 beside q2 = cos(2t)/2,
    # p2 = -sin(2t) in mode 2, solves the equations exactly, pin included, and
    # its mode 2 holds more energy than its mode 1 (a jump to the 1:2 family)
    system = model.HamiltonianSystem(
        n=2,
        energy=lambda z: 0.5 * (z[2] ** 2 + z[0] ** 2) + 0.5 * (z[3] ** 2 + 4.0 * z[1] ** 2),
        gradient=lambda z: np.array([z[0], 4.0 * z[1], z[2], z[3]]),
        hessian=lambda z: np.diag([1.0, 4.0, 1.0, 1.0]),
    )
    eq = model.refine_equilibrium(system, np.zeros(4))
    cand = analysis.analyze(system, eq, analysis.AnalyzeOptions(j0=2))[0]  # betas 2, 1
    assert cand.beta == pytest.approx(1.0) and cand.verdict == "confirmed (period not certified minimal)"
    s = 1e-3
    a1, b1 = orbits.kernel_direction(system, eq, cand)
    guess = orbits.FourierOrbit(
        a0=np.zeros(4),
        a=np.array([s * a1, [0.0, 0.5, 0.0, 0.0]]),
        b=np.array([s * b1, [0.0, 0.0, 0.0, -1.0]]),
        lam=1.0,
    )
    with pytest.raises(WrongBranch, match=r"dominant Fourier mode is k=2, not k=1"):
        orbits.solve_orbit(system, eq, cand, s, modes=2, initial_guess=guess)


def reference_curve(orbit, t):
    """``z(t)`` and ``z'(t)`` by the per-call formulas ``FourierOrbit.evaluate`` and ``derivative`` had: the reference."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    k = np.arange(1, orbit.m + 1)
    phases = np.outer(t, k)
    z = orbit.a0 + np.cos(phases) @ orbit.a + np.sin(phases) @ orbit.b
    return z, np.cos(phases) @ (k[:, None] * orbit.b) - np.sin(phases) @ (k[:, None] * orbit.a)


GRID_ORBITS = {"satellite": (lambda: satellite_j0_setup(1), 1e-3), "chain": (lambda: chain_setup(True), 0.1)}


@pytest.mark.parametrize("setup, s", GRID_ORBITS.values(), ids=GRID_ORBITS.keys())
def test_shared_grid_tables_give_the_per_call_formulas_to_the_bit(setup, s):
    # the residual check, the sup distance and the energy range sample the
    # orbit on the tables of _grid, built at a first call and kept; the
    # residual and the energy range must give the numbers of the per-call
    # formulas exactly, and the sup distance the same bits from built and
    # kept tables, at least the 8M-grid maximum and at most what the maximum
    # of a 64 times finer grid and that grid's error bound allow
    system, eq, cand = setup()
    solved = orbits.solve_orbit(system, eq, cand, s)
    j, rng = linalg.standard_symplectic(system.dim // 2), np.random.default_rng(7)
    for m in (1, 8, 16, 64):
        a, b = 1e-4 * s * rng.standard_normal((2, m, system.dim))  # modes past the solved ones
        a[: solved.m], b[: solved.m] = solved.a[:m], solved.b[:m]
        orbit = orbits.FourierOrbit(solved.a0, a, b, solved.lam)
        t = rng.uniform(-10.0, 10.0, 5)
        assert np.array_equal(orbit.evaluate(t), reference_curve(orbit, t)[0])
        z, zdot = reference_curve(orbit, np.arange(4 * m + 1) * orbits.TWO_PI / (4 * m + 1))
        residual = zdot - orbit.lam * model.gradients_of(system, z) @ j.T
        energies = [float(system.energy(point)) for point in z]
        grid, fine = (
            np.max(np.linalg.norm(reference_curve(orbit, np.arange(p) * orbits.TWO_PI / p)[0] - eq.z0, axis=1))
            for p in (8 * m, 512 * m)
        )
        orbits._grid.cache_clear()
        sups = []
        for _ in range(2):  # the first call builds the tables, the second reads the kept ones
            assert np.array_equal(orbits.residual_field(system, orbit, 4 * m + 1), residual)
            sups.append(orbits.sup_distance(orbit, eq.z0))
            # |z - z0|^2 has degree 2M, so by Bernstein's inequality a grid of
            # spacing h misses its sup by at most (2M h)^2 / 8 of it
            assert grid <= sups[-1] <= fine / np.sqrt(1.0 - (2 * m * orbits.TWO_PI / (512 * m)) ** 2 / 8)
        assert sups[0] == sups[1]
        assert orbits.orbit_energy_range(system, orbit) == (min(energies), max(energies))


SHIFTED_BRANCHES = {
    "satellite-j1": (lambda: satellite_j0_setup(1), 8, 1e-3),
    "satellite-j2": (lambda: satellite_j0_setup(2), 8, 1e-3),
    "gyroscopic": (lambda: ini_setup("gyroscopic"), 4, 1e-2),
}


@pytest.mark.parametrize("setup, steps, s0", SHIFTED_BRANCHES.values(), ids=SHIFTED_BRANCHES.keys())
def test_sup_distance_does_not_move_under_a_time_shift(setup, steps, s0):
    # the 8M-point grid maximum alone moved by up to 5.5e-4 relative (gyroscopic.ini) under a time shift
    system, eq, cand = setup()
    branch = orbits.continue_branch(system, eq, cand, steps=steps, s0=s0)
    assert len(branch.orbits) == steps
    for orbit, (_, sup) in zip(branch.orbits, branch.sup_distance_trend):
        assert sup == orbits.sup_distance(orbit, eq.z0)
        for theta in (0.1, 1.0, np.pi / 3):
            assert abs(orbits.sup_distance(orbits.transform_orbit(orbit, time_shift=theta), eq.z0) - sup) <= 1e-12 * sup


def test_sup_distance_far_from_the_origin_matches_an_exact_sum():
    # z - z0 taken as z(t) - z0 lost the modes to the rounding of |z0| = 1e6:
    # the three sups read 6.3e-9, 5.0e-9 and 8.3e-10 relative above the sum
    system, eq, cand = ini_setup("far-equilibrium")
    branch = orbits.continue_branch(system, eq, cand, steps=3, s0=1e-2)
    assert len(branch.orbits) == 3
    for orbit, (_, sup) in zip(branch.orbits, branch.sup_distance_trend):
        # each component of z - z0 one exact sum on a 512M grid, which holds
        # the maximum of a reversible orbit (at t = 0 or pi)
        phases = np.outer(np.arange(512 * orbit.m) * orbits.TWO_PI / (512 * orbit.m), np.arange(1, orbit.m + 1))
        terms = np.cos(phases)[:, :, None] * orbit.a + np.sin(phases)[:, :, None] * orbit.b
        exact = max(
            math.hypot(*(math.fsum([orbit.a0[i], -eq.z0[i], *row[:, i]]) for i in range(system.dim))) for row in terms
        )
        assert abs(sup - exact) <= 1e-12 * exact


def test_sup_distance_of_tiny_and_huge_orbits_is_the_scaled_sup():
    # coefficients of 1e-200 read 0.0 (their squares underflow), of 1e200 inf with overflow warnings
    sat, eq, cand = satellite_j0_setup(1)
    orbit = orbits.solve_orbit(sat, eq, cand, 0.05)
    origin, sup = np.zeros(eq.z0.size), orbits.sup_distance(orbit, eq.z0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for power in (-664, 664):  # 2^664 is about 1e200; a power of two scales every step exactly
            scaled = orbits.FourierOrbit(*(np.ldexp(v, power) for v in (orbit.a0 - eq.z0, orbit.a, orbit.b)), orbit.lam)
            assert orbits.sup_distance(scaled, origin) == np.ldexp(sup, power)
        for radius in (1e-200, 1e200):  # the circle z(t) = radius (cos t, -sin t)
            circle = orbits.FourierOrbit(np.zeros(2), np.array([[radius, 0.0]]), np.array([[0.0, -radius]]), 1.0)
            assert abs(orbits.sup_distance(circle, np.zeros(2)) - radius) <= 4e-16 * radius


@pytest.mark.parametrize(
    "s0, growth, steps, named",
    [
        (1e-300, 2.0, 3, "s0"),  # squares to 0: amplitude 0.0 and sup distance 0.0 at every step
        (1e-160, 2.0, 3, "s0"),  # squares to a subnormal: amplitude 9.997e-161 for the pin 1e-160
        (1e160, 2.0, 1, "s0"),  # squares to inf
        (1e-150, 1e-3, 3, "s0 * growth**(steps - 1)"),
        (1e150, 1e3, 3, "s0 * growth**(steps - 1)"),
    ],
    ids=["s0-square-zero", "s0-square-subnormal", "s0-square-inf", "last-square-subnormal", "last-square-inf"],
)
def test_amplitudes_whose_squares_are_not_normal_floats_are_rejected(s0, growth, steps, named):
    system, eq, cand = harmonic_setup()
    message = "must have a square that is a normal float"
    with pytest.raises(ValueError, match=re.escape(f"{named} {message}")):
        orbits.continue_branch(system, eq, cand, steps=steps, s0=s0, growth=growth)
    with pytest.raises(ValueError, match=f"amplitude_s {message}"):
        orbits.solve_orbit(system, eq, cand, s0 * growth ** (steps - 1))


def test_the_amplitude_bounds_are_the_normal_float_squares():
    # the least normal float is the square of 2^-511; 1.35e154 squares past the largest float
    message, least = "must have a square that is a normal float", 2.0**-511
    assert orbits._amplitude("s", least) == least and orbits._amplitude("s", 1.3e154) == 1.3e154
    for s in (np.nextafter(least, 0.0), 1.35e154):
        with pytest.raises(ValueError, match=f"s {message}"):
            orbits._amplitude("s", s)


def test_stacked_sup_distances_give_each_orbit_its_lone_bits():
    # every step of the stacked pass is row-wise, so neither the other orbits
    # of a stack nor their order moves an orbit's value
    stack = []
    for j0 in (1, 2):
        system, eq, cand = satellite_j0_setup(j0)
        stack += orbits.continue_branch(system, eq, cand, steps=8, s0=1e-3).orbits
    stack.append(orbits.transform_orbit(stack[3], time_shift=1.0))
    assert {orbit.m for orbit in stack} == {8}
    lone = [orbits.sup_distance(orbit, eq.z0) for orbit in stack]
    assert orbits._sup_distances(stack, eq.z0).tolist() == lone
    assert orbits._sup_distances(stack[::-1], eq.z0).tolist() == lone[::-1]


def test_continue_branch_makes_one_stacked_sup_pass_per_truncation(monkeypatch):
    calls, stacked = [], orbits._sup_distances

    def spy(stack, *rest):
        calls.append((stack[0].m, len(stack)))
        return stacked(stack, *rest)

    monkeypatch.setattr(orbits, "_sup_distances", spy)
    system, eq, cand = chain_setup(True)
    branch = orbits.continue_branch(system, eq, cand, steps=6, s0=0.1)
    assert [orbit.m for orbit in branch.orbits] == [8, 8, 8, 8, 16, 16]
    assert sorted(calls) == [(8, 4), (16, 2)]
    assert branch.sup_distance_trend == [(orbit.amplitude, orbits.sup_distance(orbit, eq.z0)) for orbit in branch.orbits]


class RecordingTransform:
    """Stands in for the transform table of ``jacobian`` and records the stacked field derivative it multiplies."""

    def __init__(self, matrix, seen):
        self.matrix, self.seen = matrix, seen

    def __array_ufunc__(self, ufunc, method, table, other, **kwargs):
        self.seen.append(np.array(other))
        return getattr(ufunc, method)(self.matrix, other, **kwargs)


@pytest.mark.parametrize("name", ["gyroscopic", "so3-hat"])
def test_swapped_field_derivative_equals_the_einsum_to_the_bit(name):
    # -(lam J + mu0 I) H at every collocation point was an einsum; each row of
    # J holds one +-1, so H with its row blocks swapped gives the same bits,
    # signed zeros included, on the full ansatz with its energy multiplier
    system, eq, cand = ini_setup(name)
    problem = problem_for(system, eq, cand, 8, symmetric=False)
    assert problem.n_mult >= 1 and system.hessian is not None
    x = perturbed_unknowns(problem, eq, cand, 0.05, np.random.default_rng(5))
    seen = []
    problem.transform = RecordingTransform(problem.transform, seen)
    problem.jacobian(x, problem.curve(x))
    lam, mus = x[problem.n_coeff], x[problem.n_coeff + 1 :]
    mix = lam * linalg.standard_symplectic(problem.dim // 2) + mus[0] * np.eye(problem.dim)
    reference = -np.einsum("ij,pjk->pik", mix, model.hessians_of(system, problem.curve(x)[0]))
    for i, mat in enumerate(problem.moment_mats):
        reference -= mus[1 + i] * mat
    reference = reference.reshape(problem.points, -1)
    assert len(seen) == 1 and np.array_equal(seen[0], reference)
    assert np.array_equal(np.signbit(seen[0]), np.signbit(reference))


def reference_blocks(problem, reversor, half_wave):
    """The per-block layout the Jacobian was assembled from: (rows, columns, weight basis, index of D, block shape) (reference)."""
    width, d, m = 2 * problem.m + 1, problem.dim, problem.m
    if reversor is None:
        row_groups = col_groups = [(slice(None), slice(None))]
    else:
        plus, minus = np.flatnonzero(reversor > 0), np.flatnonzero(reversor < 0)
        cosine = np.arange(width) <= m
        k = np.concatenate([[0], np.arange(1, m + 1), np.arange(1, m + 1)])
        kept = k % 2 == 1 if half_wave else np.ones(width, dtype=bool)
        cosines, sines = np.flatnonzero(cosine & kept), np.flatnonzero(~cosine & kept)
        row_groups = [(cosines, minus[:, None]), (sines, plus[:, None])]
        col_groups = [(cosines, plus), (sines, minus)]
    blocks, r0 = [], 0
    for rb, rc in row_groups:
        c0, nr, dr = 0, np.arange(width)[rb].size, np.arange(d)[rc].size
        for cb, cc in col_groups:
            nc, dc = np.arange(width)[cb].size, np.arange(d)[cc].size
            weight_basis = np.einsum("pr,pc->rcp", problem.weights[:, rb], problem.phi[:, cb])
            rows, cols = slice(r0, r0 + nr * dr), slice(c0, c0 + nc * dc)
            basis = np.ascontiguousarray(weight_basis.reshape(-1, problem.points))
            blocks.append((rows, cols, basis, (slice(None), rc, cc), (nr, nc, dr, dc)))
            c0 = cols.stop
        r0 = rows.stop
    return blocks


def reference_collocation(problem, x):
    """Collocation values, gradients and the fields stacked by ``np.array`` of a list, without a memo (reference)."""
    z = problem.phi @ problem._coefficients(x)
    grads = model.gradients_of(problem.system, z)
    fields = [-linalg._apply_j(grads)]
    if problem.n_mult:
        fields += [-grads] + [-z @ mat.T for mat in problem.moment_mats]
    return z, grads, (problem.weights.T @ np.array(fields)).reshape(len(fields), -1)[:, problem.rows]


def reference_residual(problem, x, s, layout):
    """The dense affine operator ``linear`` of ``reference_layout`` applied to ``x``, less the pin ``s``, plus the fields (reference)."""
    n = problem.n_coeff
    f = layout["linear"] @ x - layout["offsets"]
    f[n] -= s
    f[:n] += x[n:] @ reference_collocation(problem, x)[2]
    return f


def reference_jacobian(problem, x, layout, blocks):
    """Each block's product reshaped, transposed and added into its slice of ``linear`` (reference)."""
    n = problem.n_coeff
    lam, mus = x[n], x[n + 1 :]
    z, grads, fields = reference_collocation(problem, x)
    if problem.system.hessian is None:
        fd = model._forward_differences(problem.system, z, grads)
        hess = 0.5 * (fd + fd.transpose(0, 2, 1))
    else:
        hess = model.hessians_of(problem.system, z)
    jh = linalg._apply_j(hess, axis=1)
    dfield = -(lam * jh + mus[0] * hess) if problem.n_mult else -(lam * jh)
    for i, mat in enumerate(problem.moment_mats):
        dfield -= mus[1 + i] * mat
    jac = layout["linear"].copy()
    for rows, cols, weight_basis, index, shape in blocks:
        block = (weight_basis @ dfield[index].reshape(problem.points, -1)).reshape(shape)
        jac[rows, cols] += block.transpose(0, 2, 1, 3).reshape(rows.stop - rows.start, cols.stop - cols.start)
    jac[:n, n:] = fields.T
    return jac


def assert_matches_the_per_block_assembly(problem, x, layout, blocks, s=0.05):
    """Hill's Jacobian within 4 eps max|J| of the per-block one, the Galerkin rows to the bit, the constraint rows to rounding.

    The Jacobian is taken from the curve of the residual at ``x`` (pinned at
    ``s``) and from a curve evaluated afresh.  Each constraint row is a
    product over the kept columns alone, not a row of the dense
    ``size x size`` one, so it may round differently: by at most 4 eps of
    ``|cons_i| |x| + |offset_i|``.
    """
    n, eps = problem.n_coeff, np.finfo(float).eps
    (f, curve), ref = problem(x, s), reference_jacobian(problem, x, layout, blocks)
    for jac in (problem.jacobian(x, curve), problem.jacobian(x, problem.curve(x))):
        assert np.max(np.abs(jac - ref)) <= 4 * eps * np.max(np.abs(ref))
    ref_f = reference_residual(problem, x, s, layout)
    assert np.array_equal(f[:n], ref_f[:n])
    assert np.all(np.abs(f[n:] - ref_f[n:]) <= 4 * eps * (np.abs(problem.cons) @ np.abs(x[:n]) + np.abs(problem.offsets)))


ASSEMBLY_CASES = {
    "gyroscopic-full": (lambda: ini_setup("gyroscopic"), False, False),
    "so3-hat-full": (lambda: ini_setup("so3-hat"), False, False),
    "satellite-symmetric": (lambda: satellite_j0_setup(1), True, False),
    "chain-half-wave": (lambda: chain_setup(True), True, True),
    "chain-gradient-only-half-wave": (lambda: chain_setup(False), True, True),
}


@pytest.mark.parametrize("setup, symmetric, half_wave", ASSEMBLY_CASES.values(), ids=ASSEMBLY_CASES)
def test_residual_and_jacobian_have_the_bits_of_the_per_block_assembly(setup, symmetric, half_wave):
    # Hill's form sums each Jacobian entry in another order than the per-block
    # weight-basis products, so the Jacobian agrees to rounding; the Galerkin
    # rows of the residual keep their bits, at each point and at a nearby one
    system, eq, cand = setup()
    reversor = system.reversor if symmetric else None
    problem = problem_for(system, eq, cand, 8, symmetric, half_wave)
    layout = reference_layout(system, eq, orbits.kernel_direction(system, eq, cand), 8, reversor, half_wave)
    blocks = reference_blocks(problem, reversor, half_wave)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = perturbed_unknowns(problem, eq, cand, 0.05, rng)
        assert_matches_the_per_block_assembly(problem, x, layout, blocks)
        xn = x + 1e-3 * rng.standard_normal(x.size) * np.abs(x)
        assert_matches_the_per_block_assembly(problem, xn, layout, blocks)


def reference_layout(system, eq, predictor, m, reversor, half_wave):
    """An ansatz's masks, tables and dense affine operator, from its cosine, mode and parity masks (reference)."""
    d, width, points = system.dim, 2 * m + 1, 4 * m
    ap, bp = predictor
    cos, sin = (table[:, :m] for table in orbits._grid(points, 2 * m))
    phi = np.hstack([np.ones((points, 1)), cos, sin])
    weights = phi * np.concatenate([[1.0], np.full(2 * m, 2.0)]) / points
    fixed = np.zeros(width * d)
    a1, b1 = slice(d, 2 * d), slice(d + d * m, 2 * d + d * m)
    if reversor is None:
        generators = eq.orbit_generators
        keep = rows = np.ones(width * d, dtype=bool)
        cons = np.zeros((2 + len(generators), width * d))
        cons[1, a1], cons[1, b1] = np.pi * bp, -np.pi * ap
        for i, g in enumerate(generators):
            cons[2 + i, :d] = g @ eq.z0
    else:
        cosine = np.arange(width) <= m
        k = np.concatenate([[0], np.arange(1, m + 1), np.arange(1, m + 1)])
        kept = k % 2 == 1 if half_wave else np.ones(width, dtype=bool)
        parity = np.where(cosine[:, None], reversor > 0, reversor < 0)
        keep, rows = (parity & kept[:, None]).ravel(), (~parity & kept[:, None]).ravel()
        count = m + 1 if half_wave else 2 * m + 1
        fold = np.concatenate([[1.0], np.full(count - 2, 2.0), [1.0]]) * (2.0 if half_wave else 1.0)
        phi, weights = phi[:count], weights[:count] * fold[:, None]
        if half_wave:
            fixed[:d] = eq.z0
        cons = np.zeros((1, width * d))
    cons[0, a1], cons[0, b1] = np.pi * ap, np.pi * bp
    n = int(np.count_nonzero(keep))
    size = n + cons.shape[0]
    derivative = np.diag(np.arange(m + 1.0), m) - np.diag(np.arange(m + 1.0), -m)
    at_rows, at_cols = (np.divmod(np.flatnonzero(mask), d) for mask in (rows, keep))
    linear = np.zeros((size, size))
    linear[:n, :n] = derivative[at_rows[0][:, None], at_cols[0]] * (at_rows[1][:, None] == at_cols[1])
    linear[n:, :n] = cons[:, keep]
    offsets = np.concatenate([np.zeros(n), cons[:, :d] @ eq.z0])
    return dict(keep=keep, rows=rows, fixed=fixed, phi=phi, weights=weights, linear=linear, offsets=offsets)


def array_bits(a):
    return a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()


LAYOUT_CASES = {
    "gyroscopic-full": (lambda: ini_setup("gyroscopic"), False, False),
    "so3-hat-full": (lambda: ini_setup("so3-hat"), False, False),
    "satellite-symmetric": (lambda: satellite_j0_setup(1), True, False),
    "chain-half-wave": (lambda: chain_setup(True), True, True),
}


@pytest.mark.parametrize("setup, symmetric, half_wave", LAYOUT_CASES.values(), ids=LAYOUT_CASES)
def test_parity_groups_give_the_layout_of_the_mask_construction(setup, symmetric, half_wave):
    # the groups are the one statement of an ansatz: the masks, tables and
    # constraint rows built from them are the mask construction's, and the
    # Jacobian that Hill's form assembles on them is the per-block one's
    system, eq, cand = setup()
    predictor, reversor = orbits.kernel_direction(system, eq, cand), system.reversor if symmetric else None
    rng = np.random.default_rng(13)
    for modes in (1, 2, 3, 8, 16):
        problem = problem_for(system, eq, cand, modes, symmetric, half_wave)
        layout = reference_layout(system, eq, predictor, modes, reversor, half_wave)
        for key in ("keep", "rows", "fixed", "phi", "weights"):
            assert array_bits(getattr(problem, key)) == array_bits(layout[key]), (modes, key)
        n = problem.n_coeff
        assert np.array_equal(problem.cons, layout["linear"][n:, :n]) and np.array_equal(problem.offsets, layout["offsets"][n:])
        x = perturbed_unknowns(problem, eq, cand, 0.05, rng)
        assert_matches_the_per_block_assembly(problem, x, layout, reference_blocks(problem, reversor, half_wave))


def spring_preset_problem(n, m, half_wave):
    """The N-spring ``coupled-springs`` problem at ``M = m``, ``f_i = 1 + 0.9 i / (N - 1)``: half-wave or the full ansatz."""
    system = model.preset("coupled-springs", frequencies=1.0 + 0.9 * np.arange(n) / (n - 1))
    eq = model.refine_equilibrium(system, np.zeros(system.dim))
    cand = analysis.analyze(system, eq, analysis.AnalyzeOptions(j0=1))[0]
    predictor = orbits.kernel_direction(system, eq, cand)
    return orbits._HarmonicBalance(system, eq, predictor, m, system.reversor if half_wave else None, half_wave)


def test_a_problem_holds_no_table_the_size_of_its_jacobian():
    # the dense z' operator and the flat scatter index of every Jacobian entry
    # held 281.6 MB for the N = 32, M = 32 full problem and 6.69 MB for the
    # N = 8, M = 64 half-wave one
    full = spring_preset_problem(32, 32, half_wave=False)
    assert full.size == 4162
    held = [v for value in vars(full).values() for v in (value if isinstance(value, list) else [value])]
    assert max(array.size for array in held if isinstance(array, np.ndarray)) < full.size**2
    spring_preset_problem(8, 64, half_wave=True)  # the grid tables, which every problem shares
    tracemalloc.start()
    try:
        half_wave = spring_preset_problem(8, 64, half_wave=True)
        bytes_held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert half_wave.size == 513 and bytes_held < 1_000_000


def test_satellite_branch_step_costs_two_residuals_one_jacobian_one_solve_and_one_check(monkeypatch):
    # a perf guard that no timing noise hides: every step of the README
    # satellite's j0 = 1 branch is one undamped chord-Newton step from the
    # predictor, then the 4M + 1-point check of the full equations
    sat, eq, cand = satellite_j0_setup(1)
    counts, per_newton, checks = Counter(), [], []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return wrapper

    newton, check = orbits._newton, orbits.residual_field

    def counted_newton(problem, s, x, tol_inner):
        before = counts.copy()
        result = newton(problem, s, x, tol_inner)
        per_newton.append((problem.m, *(counts[k] - before[k] for k in ("residual", "jacobian", "solve"))))
        return result

    monkeypatch.setattr(orbits._HarmonicBalance, "__call__", counted("residual", orbits._HarmonicBalance.__call__))
    monkeypatch.setattr(orbits._HarmonicBalance, "jacobian", counted("jacobian", orbits._HarmonicBalance.jacobian))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(orbits, "_newton", counted_newton)
    monkeypatch.setattr(orbits, "residual_field", lambda *args: checks.append(args[2]) or check(*args))
    branch = orbits.continue_branch(sat, eq, cand, steps=8, s0=1e-3)
    assert len(branch.orbits) == 8 and not branch.failures
    assert per_newton == [(8, 2, 1, 1)] * 8
    assert checks == [33] * 8


def test_analyze_and_branch_make_one_spectral_report(monkeypatch):
    # kernel_direction made a second report of the Hessian analyze had just reported on
    made, report = [], analysis.matrix_report
    monkeypatch.setattr(analysis, "matrix_report", lambda a: made.append(a) or report(a))
    sat, eq, cand = satellite_setup()
    branch = orbits.continue_branch(sat, eq, cand, steps=8, s0=1e-3)
    assert len(branch.orbits) == 8 and not branch.failures and len(made) == 1
    # a replaced equilibrium starts without one
    assert analysis.spectral_report(sat, replace(eq)).betas == analysis.spectral_report(sat, eq).betas
    assert len(made) == 2


def orbit_bits(branch):
    keys = ("a0", "a", "b", "lam", "residual", "amplitude")
    return [np.asarray(getattr(orbit, key), dtype=float).tobytes() for orbit in branch.orbits for key in keys] + [
        np.asarray(branch.sup_distance_trend).tobytes()
    ]


INTERLEAVED = {"satellite": (lambda: satellite_j0_setup(1), 8, 1e-3), "chain": (lambda: chain_setup(True), 6, 0.1)}


def test_interleaved_branches_equal_fresh_ones():
    # what a branch builds stays with it: a satellite branch, a chain branch of
    # another dimension and the satellite again on the same equilibrium give
    # the bits of branches from freshly built systems and equilibria
    kept = {name: setup() for name, (setup, _, _) in INTERLEAVED.items()}

    def run(name, setup):
        steps, s0 = INTERLEAVED[name][1:]
        branch = orbits.continue_branch(*setup, steps=steps, s0=s0)
        assert len(branch.orbits) == steps and not branch.failures
        return orbit_bits(branch)

    order = ["satellite", "chain", "satellite"]
    interleaved = [run(name, kept[name]) for name in order]
    assert interleaved == [run(name, INTERLEAVED[name][0]()) for name in order]


def problem_state(problem):
    """Every attribute of a problem: an array by its bits, a list by its items, a number or ``None`` by value, anything else by identity."""

    def frozen(value):
        if isinstance(value, np.ndarray):
            return array_bits(value)
        if isinstance(value, list):
            return [frozen(item) for item in value]
        return value if value is None or isinstance(value, (int, float)) else id(value)

    return {key: frozen(value) for key, value in vars(problem).items()}


@pytest.mark.parametrize("setup, steps, s0", [INTERLEAVED["satellite"], MARKED_BRANCHES["chain-n4-gradient-only"]], ids=["satellite", "chain-gradient-only"])
def test_a_branch_leaves_each_problem_as_it_was_built(monkeypatch, setup, steps, s0):
    # the pin s and the memo of the last curve were written into the cached problem at every step
    built, build = [], orbits._HarmonicBalance.__init__

    def recorded_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append((self, problem_state(self)))

    monkeypatch.setattr(orbits._HarmonicBalance, "__init__", recorded_build)
    branch = orbits.continue_branch(*setup(), steps=steps, s0=s0)
    assert len(branch.orbits) == steps and not branch.failures and built
    for problem, state in built:
        assert problem_state(problem) == state
