import contextlib
import re
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hambif import analysis, cli, linalg, model
from hambif import orbits
from hambif.errors import DegenerateSection, EvaluationFailure, MissingParameter, NoConvergence, NotASymmetry, UnknownPreset

expm = pytest.importorskip("scipy.linalg").expm
brentq = pytest.importorskip("scipy.optimize").brentq

DATA = Path(__file__).parent / "data"


def _bisect_quintic(omega, c, lo, hi, iters=200):
    # independent root oracle for omega^2 d^5 - d^2 - 3c
    f = lambda d: omega**2 * d**5 - d**2 - 3.0 * c
    assert f(lo) < 0.0 < f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_symmetry_group_validation():
    good = np.array([[0.0, -1.0], [1.0, 0.0]])
    grp = model.SymmetryGroup((good,))
    assert grp.group_dim == 1
    with pytest.raises(ValueError):
        model.SymmetryGroup((np.eye(2),))  # not skew
    with pytest.raises(ValueError, match=r"generators\[0\] must be square of positive even size, got shape \(3, 3\)"):
        model.SymmetryGroup((np.zeros((3, 3)),))
    # a NaN entry compared False against both tolerances and passed
    for value, named in ((np.nan, r"\[0, 1\] = nan, \[1, 0\] = nan"), (np.inf, r"\[0, 1\] = inf, \[1, 0\] = -inf")):
        odd = good.copy()
        odd[0, 1], odd[1, 0] = value, -value
        with pytest.raises(ValueError, match=r"generators\[0\] has non-finite entries " + named):
            model.SymmetryGroup((odd,))
    bad = np.zeros((4, 4))
    bad[0, 1], bad[1, 0] = -1.0, 1.0  # skew but does not commute with J
    with pytest.raises(ValueError):
        model.SymmetryGroup((bad,))


def test_preset_generators_exactly_valid():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    j = linalg.standard_symplectic(3)
    for g in sat.symmetry.generators:
        assert np.max(np.abs(g + g.T)) == 0.0
        assert np.max(np.abs(g @ j - j @ g)) == 0.0


def test_fd_gradient_and_hessian_quadratic():
    sys = model.HamiltonianSystem(n=2, energy=lambda z: 0.5 * float(z @ z))
    z = np.array([0.3, -1.2, 0.7, 2.0])
    assert np.allclose(model.gradient_of(sys, z), z, atol=1e-9)
    assert np.allclose(model.hessian_of(sys, z), np.eye(4), atol=1e-6)


@pytest.mark.parametrize("omega, c", [(1.0, 0.1), (1.1, 0.07), (0.5, 1e-3), (2.0, 0.5)])
def test_satellite_energy_at_its_relative_equilibrium(omega, c):
    # the circular orbit z* = (d, 0, 0, 0, -omega d, 0) is an independent oracle:
    # d solves omega^2 d^5 = d^2 + 3 c, where the energy is -omega^2 d^2 / 2 - 1/d - c/d^3
    sat = model.preset("satellite", omega=omega, c=c)
    d = model.satellite_equilibrium_distance(omega, c)
    z = np.array([d, 0.0, 0.0, 0.0, -omega * d, 0.0])
    expected = -0.5 * omega**2 * d**2 - 1.0 / d - c / d**3
    assert abs(sat.energy(z) - expected) <= 1e-15 * abs(expected)
    assert np.max(np.abs(model.gradient_of(sat, z))) <= 1e-14


def test_satellite_energy_warns_where_python_floats_would_raise():
    # at the centre and at an underflowing distance, d**5 is 0 and 0/0 is nan;
    # far out d**5 overflows to inf and the rotation term alone is left
    omega = 1.1
    sat = model.preset("satellite", omega=omega, c=0.07)
    for q, check in (
        ([0.0, 0.0, 0.0], np.isnan),
        ([1e-120, 0.0, 0.0], np.isnan),
        ([1e70, 0.0, 1e70], lambda value: value == pytest.approx(-omega * 1e70, rel=1e-15)),
    ):
        with pytest.warns(RuntimeWarning):
            value = sat.energy(np.array(q + [0.0, -1.0, 0.0]))
        assert check(value), (q, value)


def test_fd_gradient_matches_analytic_satellite():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    blind = model.HamiltonianSystem(n=3, energy=sat.energy)
    rng = np.random.default_rng(5)
    base = np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    for _ in range(10):
        z = base + 0.2 * rng.standard_normal(6)
        g_fd = model.gradient_of(blind, z)
        g = model.gradient_of(sat, z)
        assert np.linalg.norm(g_fd - g) / np.linalg.norm(g) < 1e-5


def test_fd_hessian_matches_analytic_satellite():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    grad_only = model.HamiltonianSystem(n=3, energy=sat.energy, gradient=sat.gradient)
    z = np.array([1.05, 0.1, -0.05, 0.02, -1.0, 0.03])
    h_fd = model.hessian_of(grad_only, z)
    h = model.hessian_of(sat, z)
    assert np.max(np.abs(h_fd - h)) < 1e-7


def _supplied_hessians(system, zs):
    """``model._hessians_of`` of a system with a Hessian, which reads no held gradients: NaN ones show it."""
    return model._hessians_of(system, zs, np.full(zs.shape, np.nan))


def test_forward_differences_from_a_held_gradient():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    zs = np.array([[1.05, 0.1, -0.05, 0.02, -1.0, 0.03], [0.95, -0.1, 0.05, -0.02, -1.1, 0.0]])
    calls = []

    def gradients(stack):
        calls.append(stack.copy())
        return sat.gradient.batch(stack)

    counted = replace(sat, gradient=_with_stacked_form(sat.gradient, gradients), hessian=None)
    grads = model._gradients_of(sat, zs)
    h_fd = model._hessians_of(counted, zs, grads)
    # one stacked call with one row per column; f(z) is not recomputed
    assert len(calls) == 1 and calls[0].shape == (zs.size, 6)
    assert not any(np.array_equal(row, z) for row in calls[0] for z in zs)
    # a step of about sqrt(eps) leaves an error of about sqrt(eps) |H|
    for z, h in zip(zs, h_fd):
        assert np.max(np.abs(h - sat.hessian(z))) < 1e-6
    # a supplied Hessian is used, and the held gradients are not read
    assert np.array_equal(_supplied_hessians(sat, zs), [model.hessian_of(sat, z) for z in zs])


def test_invariance_check_satellite_passes():
    # refine_equilibrium checks A X z0 = X grad H(z0) for each generator;
    # the finite-difference variants pass within the check's 1e-6 bound
    sat = model.preset("satellite", omega=1.0, c=0.1)
    guess = np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    for variant in (sat, replace(sat, hessian=None), replace(sat, gradient=None, hessian=None)):
        eq = model.refine_equilibrium(variant, guess)
        assert eq.orbit_dim == 1


def test_invariance_check_trivial_group_vacuous():
    # no generator, so nothing is checked even though H has no symmetry
    sys = model.HamiltonianSystem(n=1, energy=lambda z: 0.5 * float(z @ z) + z[0] ** 3 + z[1])
    eq = model.refine_equilibrium(sys, np.array([0.1, -0.9]))
    assert eq.orbit_dim == 0


def test_invariance_check_detects_broken_symmetry():
    # tests/data/broken-symmetry.ini: at z0 = (0, 1, 0, 0) the Hessian is
    # diag(0.2, 2, 1, 1), so |A X z0| = 0.2 against 1e-6 (1 + 2) |X z0|
    system, guess = cli.build_system(cli.parse_config((DATA / "broken-symmetry.ini").read_text(encoding="utf-8")))
    with pytest.raises(NotASymmetry, match=r"generator 1 .*\|A X z0\| = 2\.000e-01 exceeds 3\.000e-06"):
        model.refine_equilibrium(system, guess)
    # a rotation about the q1 axis is no symmetry of the satellite; its
    # rotation about the q3 axis, declared first, is
    sat = model.preset("satellite", omega=1.0, c=0.1)
    spin_x = np.zeros((6, 6))
    spin_x[1, 2] = spin_x[4, 5] = -1.0
    spin_x[2, 1] = spin_x[5, 4] = 1.0
    tilted = replace(sat, symmetry=model.SymmetryGroup((*sat.symmetry.generators, spin_x)))
    with pytest.raises(NotASymmetry, match="generator 2 "):
        model.refine_equilibrium(tilted, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]))


def test_refine_equilibrium_quadratic():
    sys = model.HamiltonianSystem(
        n=1,
        energy=lambda z: 0.5 * float(z @ z),
        gradient=lambda z: z,
        hessian=lambda z: np.eye(2),
    )
    eq = model.refine_equilibrium(sys, np.array([0.7, -0.3]))
    assert np.linalg.norm(eq.z0) < 1e-12
    assert eq.orbit_dim == 0
    assert eq.section_basis.shape == (2, 2)


def test_satellite_equilibrium_distance():
    d0 = model.satellite_equilibrium_distance(1.0, 0.1)
    oracle = _bisect_quintic(1.0, 0.1, 1.0, 1.1)
    assert 1.0 < d0 < 1.1
    assert abs(d0 - oracle) < 1e-12
    assert abs(d0**5 - d0**2 - 0.3) < 1e-12


def test_satellite_equilibrium_distance_kepler_limit():
    for c in [1e-6, 1e-9, 1e-12]:
        d0 = model.satellite_equilibrium_distance(1.0, c)
        assert abs(d0 - 1.0) < 10.0 * c
        assert abs(d0**5 - d0**2 - 3 * c) < 1e-12


def _brentq_distance(omega, c):
    """The bracket, Brent solve and Newton polish model used before it dropped scipy (reference)."""

    def f(d):
        return omega**2 * d**5 - d**2 - 3.0 * c

    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    root = brentq(f, 0.0, hi, xtol=1e-15, rtol=8.9e-16)
    for _ in range(3):
        root -= f(root) / (5.0 * omega**2 * root**4 - 2.0 * root)
    return float(root)


@pytest.mark.parametrize("omega", [1e-2, 0.5, 1.0, 3.0, 50.0])
@pytest.mark.parametrize("c", [1e-12, 1e-6, 5.4e-4, 0.1, 10.0])
def test_satellite_distance_matches_brentq_reference(omega, c):
    d0 = model.satellite_equilibrium_distance(omega, c)
    reference = _brentq_distance(omega, c)
    assert abs(d0 - reference) <= 1e-15 * reference
    assert abs(omega**2 * d0**5 - d0**2 - 3.0 * c) <= 1e-12 * (1.0 + 3.0 * c)


def weighted_circle_system(w1, w2):
    """H = |z1|^2 / 2 + (|z2|^2 - 1)^2 / 4 on C^2 under z_j -> exp(i w_j t) z_j.

    Its critical circle |z2| = 1, z1 = 0 is one group orbit, on which a
    point has isotropy Z_(w2 / gcd(w1, w2)) for integer weights; the orbit
    generator is the declared one whatever that isotropy is.
    """

    def gradient(z):
        r2 = z[1] ** 2 + z[3] ** 2
        return np.array([z[0], (r2 - 1.0) * z[1], z[2], (r2 - 1.0) * z[3]])

    weights = np.diag([w1, w2])
    generator = np.block([[np.zeros((2, 2)), -weights], [weights, np.zeros((2, 2))]])
    return model.HamiltonianSystem(
        n=2,
        energy=lambda z: 0.5 * (z[0] ** 2 + z[2] ** 2) + 0.25 * (z[1] ** 2 + z[3] ** 2 - 1.0) ** 2,
        gradient=gradient,
        symmetry=model.SymmetryGroup((generator,)),
    )


def assert_lone_generator_kept(system, eq):
    # the SVD of the single column X z0 has V = +-1 exactly, so Y = +-X to the bit
    (x,) = system.symmetry.generators
    (y,) = eq.orbit_generators
    assert np.array_equal(y, x) or np.array_equal(y, -x)


@pytest.mark.parametrize(
    "weights",
    [(1, 3), (1, 5), (2, 6), (3, 1), (1, np.sqrt(2.0))],
    ids=["weights-1-3", "weights-1-5", "weights-2-6", "weights-3-1", "weights-1-sqrt2"],
)
def test_refine_onto_the_weighted_circle(weights):
    system = weighted_circle_system(*weights)
    eq = model.refine_equilibrium(system, np.array([0.0, 1.02, 0.0, 0.1]))
    assert abs(np.linalg.norm(eq.z0[[1, 3]]) - 1.0) < 1e-10
    assert_lone_generator_kept(system, eq)


@pytest.mark.parametrize(
    "system",
    [
        model.preset("satellite", omega=1.0, c=0.1),
        *(weighted_circle_system(*w) for w in [(1, 3), (1, 5), (2, 6), (1, np.sqrt(2.0))]),
    ],
    ids=["satellite", "weights-1-3", "weights-1-5", "weights-2-6", "weights-1-sqrt2"],
)
def test_group_element_matches_expm(system):
    gen = system.symmetry.generators[0]
    j = linalg.standard_symplectic(system.n)
    for t in np.linspace(0.0, 2.0 * np.pi, 17):
        gamma = system.symmetry.element(0, t)
        assert np.max(np.abs(gamma - expm(t * gen))) <= 1e-12
        assert np.max(np.abs(gamma.T @ gamma - np.eye(system.dim))) <= 1e-12
        assert np.max(np.abs(gamma @ j - j @ gamma)) <= 1e-12


def test_group_element_rejects_an_index_outside_the_generators_or_a_non_finite_time():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    spin = sat.symmetry.generators[0]
    two = model.SymmetryGroup((spin, 2.0 * spin))
    cases = [
        (sat.symmetry, -1, 0.3, r"index must be an integer in 0\.\.0, got -1"),  # wrapped to the last generator
        (sat.symmetry, 1, 0.3, r"index must be an integer in 0\.\.0, got 1"),
        (two, True, 0.3, r"index must be an integer in 0\.\.1, got True"),  # read as index 1
        (two, 1.0, 0.3, r"index must be an integer in 0\.\.1, got 1\.0"),
        (sat.symmetry, 0, float("nan"), "t must be finite, got nan"),  # an all-NaN element
        (sat.symmetry, 0, -np.inf, "t must be finite, got -inf"),
    ]
    for group, index, t, message in cases:
        with pytest.raises(ValueError, match=message):
            group.element(index, t)
    # a valid call keeps its bits: the element read off the weights of i X
    for group, index, t in [(sat.symmetry, 0, 0.3), (two, 1, 2.5), (two, np.int64(0), np.float64(-1.0))]:
        weights, vectors = np.linalg.eigh(1j * group.generators[index])
        expected = ((vectors * np.exp(-1j * t * weights)) @ vectors.conj().T).real
        assert np.array_equal(group.element(index, t), expected)


def test_orbit_generators_of_presets_and_chain():
    chain = model.newtonian_to_hamiltonian(
        potential=lambda q: 0.5 * float(q @ q) + 0.25 * float((q[0] - q[1]) ** 4),
        n=2,
        gradient=lambda q: q + (q[0] - q[1]) ** 3 * np.array([1.0, -1.0]),
    )
    sat = model.preset("satellite", omega=1.0, c=0.1)
    assert_lone_generator_kept(sat, model.refine_equilibrium(sat, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0])))
    cases = [(model.preset("harmonic", beta=1.0), np.array([0.1, 0.1])), (chain, np.array([0.1, -0.1, 0.0, 0.05]))]
    for system, guess in cases:
        eq = model.refine_equilibrium(system, guess)
        assert eq.orbit_generators == () and eq.orbit_dim == 0


def test_orbit_generators_leave_out_the_isotropy():
    # SO(3) on the unit sphere in q: three declared rotations, an orbit of
    # dimension 2; the rotation about q0 fixes z0 and gets no orbit generator
    system, guess = cli.build_system(cli.parse_config((DATA / "so3-hat.ini").read_text(encoding="utf-8")))
    eq = model.refine_equilibrium(system, guess)
    assert eq.orbit_dim == 2
    tangents = np.column_stack([y @ eq.z0 for y in eq.orbit_generators])
    assert np.max(np.abs(eq.section_basis.T @ tangents)) < 1e-14
    gram = tangents.T @ tangents
    assert abs(gram[0, 1]) < 1e-14 * gram[0, 0] and gram[1, 1] > 1e-2 * gram[0, 0]
    # each orbit generator is still a symmetry: A Y z0 = Y grad H(z0) = 0 at a critical point
    assert np.max(np.abs(eq.hessian @ tangents)) < 1e-12
    # the rotation of the fixed-point example fixes the origin: no orbit, full section
    system, guess = cli.build_system(cli.parse_config((DATA / "fixed-point.ini").read_text(encoding="utf-8")))
    eq = model.refine_equilibrium(system, guess)
    assert eq.orbit_generators == () and np.array_equal(eq.section_basis, np.eye(4))


def test_refine_equilibrium_satellite():
    omega, c = 1.0, 0.1
    sat = model.preset("satellite", omega=omega, c=c)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0.0, 0.0, 0.0, -omega, 0.0]))
    d0 = model.satellite_equilibrium_distance(omega, c)
    expected = np.array([d0, 0.0, 0.0, 0.0, -omega * d0, 0.0])
    assert np.linalg.norm(eq.z0 - expected) < 1e-9
    assert eq.orbit_dim == 1
    assert eq.gradient_norm < 1e-10 * (1.0 + np.linalg.norm(eq.z0))
    # the tangent vector sits in the kernel of the Hessian
    tangent = sat.symmetry.generators[0] @ eq.z0
    h = model.hessian_of(sat, eq.z0)
    assert np.max(np.abs(h @ tangent)) < 1e-7 * np.linalg.norm(tangent)
    # the section basis is orthonormal and completes the tangent
    assert np.allclose(eq.section_basis.T @ eq.section_basis, np.eye(5), atol=1e-12)
    assert np.max(np.abs(eq.section_basis.T @ tangent)) < 1e-12 * np.linalg.norm(tangent)


def test_satellite_hessian_sign_pattern():
    omega, c = 1.0, 0.1
    sat = model.preset("satellite", omega=omega, c=c)
    d0 = model.satellite_equilibrium_distance(omega, c)
    q_point = np.array([d0, 0.0, 0.0, 0.0, -omega * d0, 0.0])
    h = model.hessian_of(sat, q_point)
    v_rr = h[0, 0]
    v_zz = h[2, 2]
    v_rz = h[0, 2]
    assert v_rr < 0.0 < v_zz
    assert abs(v_rz) < 1e-12
    assert abs(v_rr - (-2.0 / d0**3 - 12.0 * c / d0**5)) < 1e-12
    assert abs(v_zz - (1.0 / d0**3 + 9.0 * c / d0**5)) < 1e-12
    assert abs(h[1, 1] - omega**2) < 1e-12


def test_gradient_equivariance_satellite():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    base = np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    resid = model.gradient_equivariance_residual(sat, probes=30, seed=3, base=base, spread=0.2)
    assert resid < 1e-7


@pytest.mark.parametrize("probes", [0, -3, 2.5, True])
def test_gradient_equivariance_residual_needs_at_least_one_probe(probes):
    # 0 and -3 probes returned 0.0, a perfect equivariance read from no probe at all
    sat = model.preset("satellite", omega=1.0, c=0.1)
    with pytest.raises(ValueError, match="probes must be"):
        model.gradient_equivariance_residual(sat, probes)


def test_gradient_equivariance_residual_is_nan_where_a_probe_gradient_is_nan():
    # Python's max(worst, nan) keeps worst: the residual of the finite probes
    # alone, 1.0019109251294436e-14, as for the true gradient
    sat = model.preset("satellite", omega=1.0, c=0.1)

    def gradient(z):
        return np.full(6, np.nan) if z[0] > 1.3 else sat.gradient(z)

    base = np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    assert np.isnan(model.gradient_equivariance_residual(replace(sat, gradient=gradient), probes=20, seed=0, base=base))


def test_newtonian_lift_spectrum():
    sys = model.newtonian_to_hamiltonian(
        potential=lambda q: 0.5 * (q[0] ** 2 + 4.0 * q[1] ** 2),
        n=2,
        gradient=lambda q: np.array([q[0], 4.0 * q[1]]),
        hessian=lambda q: np.diag([1.0, 4.0]),
    )
    j = linalg.standard_symplectic(2)
    w = linalg._general_eigensystem(j @ model.hessian_of(sys, np.zeros(4)))[0]
    imag = sorted(v.imag for v in w)
    assert np.allclose(imag, [-2.0, -1.0, 1.0, 2.0], atol=1e-12)
    assert max(abs(v.real) for v in w) < 1e-12


def test_newtonian_flat_potential_no_imaginary_pairs():
    sys = model.newtonian_to_hamiltonian(potential=lambda q: 0.0, n=1)
    h = model.hessian_of(sys, np.zeros(2))
    assert np.allclose(h, np.diag([0.0, 1.0]), atol=1e-7)
    j = linalg.standard_symplectic(1)
    w = linalg._general_eigensystem(j @ h)[0]
    assert max(abs(v.imag) for v in w) < 1e-3  # FD noise only, no unit-size pair


def test_newtonian_lifted_generators_valid():
    spin = np.array([[0.0, -1.0], [1.0, 0.0]])
    sys = model.newtonian_to_hamiltonian(
        potential=lambda q: 0.5 * float(q @ q),
        n=2,
        generators=(spin,),
    )
    assert sys.symmetry.group_dim == 1  # SymmetryGroup validation passed


def inline_even_in_p():
    # every monomial of even degree in p, mixed p1 p2 included
    text = "[system]\nn = 2\nmonomials = 0.5 2 0 0 0 ; 1.3 0 2 0 0 ; 0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.2 1 1 1 1 ; 0.1 3 0 0 0\n"
    return cli.build_system(cli.parse_config(text))[0]


REVERSIBLE = {
    "satellite": (lambda: model.preset("satellite", omega=1.0, c=0.1), [1.0, 0.0, 0.0, 0.0, -1.0, 0.0]),
    "newtonian": (
        lambda: model.newtonian_to_hamiltonian(
            lambda q: float(np.cos(q[0]) + q[0] * q[1] ** 2),
            2,
            gradient=lambda q: np.array([-np.sin(q[0]) + q[1] ** 2, 2.0 * q[0] * q[1]]),
        ),
        [0.1, 0.2, 0.0, 0.0],
    ),
    "coupled-springs": (lambda: model.preset("coupled-springs", frequencies=[1.0, 1.45]), [0.0] * 4),
    "harmonic": (lambda: model.preset("harmonic", beta=1.3), [0.0] * 2),
    "inline-even-in-p": (inline_even_in_p, [0.0] * 4),
}


@pytest.mark.parametrize("build, base", REVERSIBLE.values(), ids=REVERSIBLE.keys())
def test_declared_reversors_reverse_the_flow(build, base):
    # R J R = -J and H(R z) = H(z), so grad H(R z) = R grad H(z): R z(-t) solves the flow with z(t)
    system = build()
    r = system.reversor
    j = linalg.standard_symplectic(system.n)
    assert np.array_equal(r[:, None] * j * r, -j)
    rng = np.random.default_rng(17)
    for z in np.asarray(base) + 0.3 * rng.standard_normal((10, system.dim)):
        energy = system.energy(z)
        assert abs(system.energy(r * z) - energy) <= 1e-14 * (1.0 + abs(energy))
        g = model.gradient_of(system, z)
        assert np.max(np.abs(model.gradient_of(system, r * z) - r * g)) <= 1e-13 * (1.0 + np.max(np.abs(g)))


def test_reversor_must_be_an_anti_symplectic_diagonal():
    energy = lambda z: 0.5 * float(z @ z)
    assert np.array_equal(model.HamiltonianSystem(n=1, energy=energy, reversor=(-1, 1)).reversor, [-1.0, 1.0])
    assert model.HamiltonianSystem(n=1, energy=energy).reversor is None
    assert np.array_equal(model.preset("harmonic").reversor, [1.0, -1.0])
    for bad in ([1.0, 1.0], [1.0, -1.0, 1.0], [0.5, -0.5], [[1.0, -1.0]]):
        with pytest.raises(ValueError, match="reversor"):
            model.HamiltonianSystem(n=1, energy=energy, reversor=bad)


def test_preset_errors():
    for build in (model.preset, model.preset_guess):
        with pytest.raises(UnknownPreset):
            build("nope")
        with pytest.raises(MissingParameter):
            build("coupled-springs")
        with pytest.raises(ValueError):
            build("harmonic", beta=1.0, gamma=2.0)
        with pytest.raises(ValueError, match="omega must be positive and finite, got -1.0"):
            build("satellite", omega=-1.0)
        # a derived value that overflows is an error naming it, not Python's OverflowError or numpy's warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("c = r_eq^2 * j2 / 2 must be positive and finite, got inf")):
                build("satellite", r_eq=1e200)
            with pytest.raises(ValueError, match=re.escape("beta^2 must be finite, got inf")):
                build("harmonic", beta=1e200)
            with pytest.raises(ValueError, match=re.escape("frequencies^2 must be finite, got inf")):
                build("coupled-springs", frequencies=[1.0, 1e200])
            build("satellite", r_eq=1e200, c=0.1)  # an explicit c overrides r_eq


@pytest.mark.parametrize(
    "name, params, start",
    [
        ("satellite", {}, [1.0, 0.0, 0.0, 0.0, -1.0, 0.0]),
        ("satellite", {"omega": 2.0}, [1.0, 0.0, 0.0, 0.0, -2.0, 0.0]),
        ("harmonic", {}, [0.0, 0.0]),
        ("coupled-springs", {"frequencies": (1.0, 2.0, 3.0)}, [0.0] * 6),
    ],
    ids=["satellite", "satellite-omega-2", "harmonic", "coupled-springs"],
)
def test_the_models_default_start_is_the_clis(name, params, start):
    guess = model.preset_guess(name, params)
    system, cli_start = cli.build_system(cli.RunConfig(preset=name, params=tuple(sorted(params.items()))))
    assert guess.tobytes() == cli_start.tobytes() == np.array(start).tobytes()
    assert system.dim == guess.size
    assert model.preset_guess(name, **params).tobytes() == guess.tobytes()


def test_each_preset_names_its_flags_and_the_examples_of_its_required_parameters():
    for name, entry in model.preset_info().items():
        required = {key for key, default in entry["parameters"].items() if default is None}
        assert set(entry["examples"]) == required, name
        assert set(entry["flags"]) <= set(entry["parameters"]) - required, name
        model.preset(name, entry["examples"])  # the sample's values build the system


def _wrong_length_calls():
    harmonic = model.preset("harmonic")  # dimension 2
    four = orbits.FourierOrbit(a0=np.zeros(4), a=np.full((2, 4), 0.1), b=np.full((2, 4), 0.05), lam=1.0)
    six = orbits.FourierOrbit(a0=np.array([1.0, 0, 0, 0, -1.0, 0]), a=np.full((2, 6), 0.01), b=np.zeros((2, 6)), lam=1.0)
    return {
        "residual-field": (lambda: orbits.residual_field(harmonic, four, 9), "orbit.a0", (2,), (4,)),
        "energy-range": (lambda: orbits.orbit_energy_range(harmonic, four), "orbit.a0", (2,), (4,)),
        "sup-distance": (lambda: orbits.sup_distance(six, [0.0]), "z0", (6,), (1,)),
        "mode-energies": (lambda: six.mode_energies([0.0]), "z0", (6,), (1,)),
        "gradient-of": (lambda: model.gradient_of(harmonic, np.zeros(3)), "z", (2,), (3,)),
        "hessian-of": (lambda: model.hessian_of(harmonic, np.zeros(1)), "z", (2,), (1,)),
        "a-number": (lambda: model.gradient_of(harmonic, 1.0), "z", (2,), ()),
    }


@pytest.mark.parametrize("case", list(_wrong_length_calls()))
def test_a_point_of_the_wrong_length_is_an_error_naming_both_lengths(case):
    call, name, length, got = _wrong_length_calls()[case]
    with pytest.raises(ValueError, match=re.escape(f"{name} must have shape {length}, got {got}")):
        call()


@pytest.mark.parametrize("beta", [1.0, 1.3, 0.37, 7.0])
def test_harmonic_preset_is_the_one_frequency_spring_lift(beta):
    harm = model.preset("harmonic", beta=beta)
    springs = model.preset("coupled-springs", frequencies=[beta])
    assert harm.name == "harmonic" and harm.n == 1 and harm.symmetry.group_dim == 0
    assert np.array_equal(harm.reversor, [1.0, -1.0]) and harm.gradient.newtonian
    zs = np.random.default_rng(5).standard_normal((20, 2)) * [[3.0, 0.5]]
    for z in zs:
        for f in (model.gradient_of, model.hessian_of):
            assert f(harm, z).tobytes() == f(springs, z).tobytes()
        # the bits of the preset's former hand-written derivatives
        assert harm.gradient(z).tobytes() == np.array([beta**2 * z[0], z[1]]).tobytes()
        assert harm.hessian(z).tobytes() == np.diag([beta**2, 1.0]).tobytes()
        closed = 0.5 * (z[1] ** 2 + beta**2 * z[0] ** 2)
        assert abs(harm.energy(z) - closed) <= 4.0 * np.finfo(float).eps * closed
    for f in (model._gradients_of, _supplied_hessians):
        assert f(harm, zs).tobytes() == f(springs, zs).tobytes()
    assert np.array_equal(model._gradients_of(harm, zs), [harm.gradient(z) for z in zs])


def test_harmonic_beta_is_one_positive_finite_number():
    with pytest.raises(ValueError, match=re.escape("beta must be positive and finite, got [1.0, 2.0]")):
        model.preset("harmonic", beta=[1.0, 2.0])
    with pytest.raises(cli.ConfigParse, match="bad system"):
        cli.build_system(cli.parse_config("[system]\npreset = harmonic\nbeta = 1 2\n"))
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta.*finite|finite.*beta"):
            model.preset("harmonic", beta=bad)
    with pytest.raises(ValueError, match="frequencies must be a non-empty list of positive finite reals"):
        model.preset("coupled-springs", frequencies=[])


def test_coupled_springs_frequencies_are_one_number_or_a_list():
    # a matrix of frequencies was raveled into an N = 4 system
    with pytest.raises(ValueError, match=re.escape("frequencies must have shape (P,), got (2, 2)")):
        model.preset("coupled-springs", frequencies=[[1.0, 2.0], [3.0, 4.0]])
    # one number, as a config's `frequencies = 1.0` gives, is the one-spring system
    config = cli.parse_config("[system]\npreset = coupled-springs\nfrequencies = 1.5\n")
    system, _ = cli.build_system(config)
    assert system.n == 1 and model.preset("coupled-springs", frequencies=1.5).n == 1
    assert system.hessian(np.zeros(2)).tobytes() == np.diag([2.25, 1.0]).tobytes()


def _diag_x_x(x):
    """``diag(X, X)`` built block by block into zeros."""
    n = len(x)
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = x
    big[n:, n:] = x
    return big


def test_lifted_and_satellite_generators_are_diag_x_x_to_the_bit():
    spin = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sat = model.preset("satellite", omega=1.0, c=0.1)
    assert [g.tobytes() for g in sat.symmetry.generators] == [_diag_x_x(spin).tobytes()]
    rotation = [[0, -2], [2, 0]]  # an integer nested list, as a caller may pass it
    pair = np.array([[0.0, -0.5], [0.5, 0.0]])
    lift = model.newtonian_to_hamiltonian(lambda q: 0.5 * float(q @ q), 2, generators=(rotation, pair))
    assert [g.tobytes() for g in lift.symmetry.generators] == [_diag_x_x(np.array(x, dtype=float)).tobytes() for x in (rotation, pair)]
    with pytest.raises(ValueError):  # a generator of the wrong size for n
        model.newtonian_to_hamiltonian(lambda q: 0.5 * float(q @ q), 2, generators=(spin,))


def test_preset_harmonic_spectrum():
    sys = model.preset("harmonic", beta=1.0)
    j = linalg.standard_symplectic(1)
    w = np.sort_complex(linalg._general_eigensystem(j @ model.hessian_of(sys, np.zeros(2)))[0])
    assert np.allclose(w, [-1j, 1j], atol=1e-12)


def test_preset_satellite_earth_default():
    sys = model.preset("satellite")
    assert sys.name == "satellite"
    info = model.preset_info()
    assert info["satellite"]["parameters"]["j2"] == 1.0826359e-3
    assert info["satellite"]["parameters"]["c"] == 0.5 * 1.0826359e-3


def test_refine_equilibrium_no_convergence():
    # gradient bounded away from zero everywhere
    sys = model.HamiltonianSystem(
        n=1,
        energy=lambda z: z[0] + 0.5 * z[1] ** 2,
        gradient=lambda z: np.array([1.0, z[1]]),
        hessian=lambda z: np.diag([1e-2, 1.0]) + np.eye(2) * 1e-3,
    )
    with pytest.raises(NoConvergence, match=re.escape("after 5 iterations, stopped by a stall")):
        model.refine_equilibrium(sys, np.array([0.0, 0.5]))


def test_refine_equilibrium_reports_the_iteration_cap():
    # a Hessian twice too large halves the gradient at each step: 49 steps
    # from |z| = 1e6 leave 1.8e-9, above the tolerance 1e-10
    sys = model.HamiltonianSystem(
        n=1,
        energy=lambda z: 0.5 * float(z @ z),
        gradient=lambda z: z,
        hessian=lambda z: 2.0 * np.eye(2),
    )
    with pytest.raises(NoConvergence, match=re.escape("after 50 iterations, stopped by the 50-iteration cap")):
        model.refine_equilibrium(sys, np.array([1e6, 0.0]))


def counting_evaluators(system):
    """``system`` whose energy, gradient and Hessian (those it has) count their calls in ``calls``."""
    calls = Counter()

    def counted(what, f):
        def point(z):
            calls[what] += 1
            return f(z)

        return point

    evaluators = {what: getattr(system, what) for what in ("energy", "gradient", "hessian")}
    return replace(system, **{w: counted(w, f) for w, f in evaluators.items() if f is not None}), calls


def stencil_mirror(energy_only):
    """``energy_only`` with its own finite-difference gradient and Hessian supplied.

    The mirror computes the same derivative bits from the same energy calls,
    but a supplied gradient never takes the energy-only rounding-floor stop.
    """
    return replace(
        energy_only,
        gradient=lambda z: model.gradient_of(energy_only, z),
        hessian=lambda z: model.hessian_of(energy_only, z),
    )


SATELLITE_README_GUESS = np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0])
SATELLITE_STALL_GUESS = np.array(
    [0.9943324924879209, -0.014568354543669056, 0.0, 0.01532655571890801, -1.0319217266759086, 0.0]
)


def test_energy_only_refinement_from_the_stall_guess_iterates_on_above_its_tolerance():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    energy_only, calls = counting_evaluators(replace(sat, gradient=None, hessian=None))
    # from the fifth iterate |grad H| reads below the rounding floor 7.45e-10
    # but above the tolerance 2.53e-10, so the floor stop does not end the
    # loop: a later reading could pass.  None does, and a stall ends it.
    with pytest.raises(NoConvergence) as stalled:
        model.refine_equilibrium(energy_only, SATELLITE_STALL_GUESS)
    # each iteration but the last: 12 energies for the gradient, 84 for the Hessian
    assert calls["energy"] == 9 * 96 + 12
    reason = str(stalled.value)
    assert "after 10 iterations, stopped by a stall" in reason
    assert re.search(r"the central-difference gradient's rounding floor there is 7\.4", reason)
    calls.clear()
    with pytest.raises(NoConvergence, match=re.escape("after 10 iterations, stopped by a stall")) as mirrored:
        model.refine_equilibrium(stencil_mirror(energy_only), SATELLITE_STALL_GUESS)
    assert calls["energy"] == 9 * 96 + 12
    assert "rounding floor" not in str(mirrored.value)


def satellite_guess(seed):
    """The README guess with ``0.02 N(0, 1)`` added to ``q_1, q_2, p_1, p_2``."""
    guess = SATELLITE_README_GUESS.copy()
    guess[[0, 1, 3, 4]] += 0.02 * np.random.default_rng(seed).standard_normal(4)
    return guess


def test_energy_only_refinement_stops_at_its_rounding_floor_once_the_best_iterate_passes():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    energy_only, calls = counting_evaluators(replace(sat, gradient=None, hessian=None))
    # the fifth iterate reads 2.45e-10, below the floor and the tolerance 2.53e-10
    eq = model.refine_equilibrium(energy_only, satellite_guess(6))
    assert calls["energy"] == 4 * 96 + 12 + 84
    assert eq.gradient_norm <= 1e-10 * (1.0 + np.linalg.norm(eq.z0))
    calls.clear()
    # without the floor stop, five more noise readings until a stall
    model.refine_equilibrium(stencil_mirror(energy_only), satellite_guess(6))
    assert calls["energy"] == 9 * 96 + 12 + 84


def test_energy_only_refinement_accepts_wherever_the_loop_without_the_floor_stop_does():
    # the floor stop ends the loop only where the best iterate already
    # passes, so it never turns an accepted guess into NoConvergence
    sat = model.preset("satellite", omega=1.0, c=0.1)
    energy_only = replace(sat, gradient=None, hessian=None)
    for seed in range(30):
        mirrored = model.refine_equilibrium(stencil_mirror(energy_only), satellite_guess(seed))
        eq = model.refine_equilibrium(energy_only, satellite_guess(seed))
        assert np.linalg.norm(eq.z0 - mirrored.z0) < 1e-8


def test_energy_only_refinement_from_the_readme_guess_is_unchanged_by_the_floor():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    energy_only, calls = counting_evaluators(replace(sat, gradient=None, hessian=None))
    eq = model.refine_equilibrium(energy_only, SATELLITE_README_GUESS)
    # five iterations, the last stopping at |grad H| = 0, and the Hessian at z0
    assert calls["energy"] == 4 * 96 + 12 + 84 == 480
    calls.clear()
    mirrored = model.refine_equilibrium(stencil_mirror(energy_only), SATELLITE_README_GUESS)
    assert calls["energy"] == 480
    assert np.array_equal(eq.z0, mirrored.z0) and eq.gradient_norm == mirrored.gradient_norm


@pytest.mark.parametrize(
    "variant, expected", [("analytic", {"gradient": 5, "hessian": 5}), ("gradient-only", {"gradient": 65})]
)
@pytest.mark.parametrize("guess", [SATELLITE_README_GUESS, SATELLITE_STALL_GUESS], ids=["readme", "stall"])
def test_refinement_with_a_supplied_gradient_makes_the_same_calls(variant, expected, guess):
    sat = model.preset("satellite", omega=1.0, c=0.1)
    system = sat if variant == "analytic" else replace(sat, hessian=None)
    counted, calls = counting_evaluators(system)
    eq = model.refine_equilibrium(counted, guess)
    assert calls == expected
    assert np.array_equal(eq.z0, model.refine_equilibrium(system, guess).z0)


def pendulum_energy_only():
    return model.newtonian_to_hamiltonian(lambda q: 1.0 - np.cos(q[0]), 1)


def quartic_energy_only():
    def energy(z):
        q, p = z[:2], z[2:]
        return 0.5 * float(p @ p) + 0.5 * (q[0] ** 2 + 2.0 * q[1] ** 2) + 0.25 * (q[0] - q[1]) ** 4

    return model.HamiltonianSystem(n=2, energy=energy)


@pytest.mark.parametrize(
    "build, guess",
    [
        (pendulum_energy_only, [0.3, 0.2]),
        (pendulum_energy_only, [1.0, -0.5]),
        (quartic_energy_only, [0.4, -0.3, 0.2, 0.1]),
        (quartic_energy_only, [1e-3, 2e-3, -1e-3, 5e-4]),
    ],
    ids=["pendulum-near", "pendulum-far", "quartic-near", "quartic-small"],
)
def test_energy_only_refinement_at_zero_energy_never_takes_the_floor_stop(build, guess):
    # H(z0) = 0: the floor eps max|H(z +- h e_i)| |1/h| is about eps |A| h,
    # below any gradient norm that the 1e-13 stop lets through
    energy_only, calls = counting_evaluators(build())
    eq = model.refine_equilibrium(energy_only, np.array(guess))
    count = calls["energy"]
    calls.clear()
    mirrored = model.refine_equilibrium(stencil_mirror(energy_only), np.array(guess))
    assert calls["energy"] == count
    assert np.array_equal(eq.z0, mirrored.z0) and eq.gradient_norm == mirrored.gradient_norm
    assert energy_only.energy(eq.z0) <= 1e-20


def test_refine_equilibrium_rejects_an_overflowing_guess():
    # q^3 overflows at q = 1e200: |grad H| = inf there, and the old bound
    # 1e-10 (1 + |z0|) overflowed with it and accepted the guess
    config = cli.parse_config((DATA / "overflow-guess.ini").read_text(encoding="utf-8"))
    system, guess = cli.build_system(config)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NoConvergence, match="not finite"):
        model.refine_equilibrium(system, guess)


def _norm_overflows():
    # sum |z_i|^1.5 from (1e200, 0): |z|^2 overflows, and the stop 1e-13 (1 + |z|) and the
    # tolerance 1e-10 (1 + |z0|) were inf, so the guess passed with |grad H| = 1.5e100
    power = model.HamiltonianSystem(
        n=1,
        energy=lambda z: float(np.sum(np.abs(z) ** 1.5)),
        gradient=lambda z: 1.5 * np.sign(z) * np.sqrt(np.abs(z)),
        hessian=lambda z: np.diag(0.75 / np.sqrt(np.abs(z) + 1.0)),
    )
    # a gradient of 1e150 at q = 0 and a Hessian held at diag(1e-11, 1): Newton's first step
    # lands on q = -1e161, whose norm overflows and whose gradient, 1e138, was the best
    far_step = model.HamiltonianSystem(
        n=1,
        energy=lambda z: 0.0,
        gradient=lambda z: np.array([1e150 / (1.0 + (z[0] / 1e155) ** 2), z[1]]),
        hessian=lambda z: np.diag([1e-11, 1.0]),
    )
    return {
        "guess": (power, [1e200, 0.0], "the norm of the guess is not finite"),
        "iterate": (
            far_step,
            [0.0, 0.0],
            "gradient norm 1.000e+150 above tolerance 1.000e-10 after 2 iterations, "
            "stopped by an iterate whose norm is not finite",
        ),
    }


@pytest.mark.parametrize("case", list(_norm_overflows()))
def test_a_point_whose_norm_overflows_is_never_accepted(case):
    system, guess, message = _norm_overflows()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match=f"^{re.escape(message)}$"):
            model.refine_equilibrium(system, guess)


def test_refine_equilibrium_requires_a_finite_hessian():
    sys = model.HamiltonianSystem(
        n=1,
        energy=lambda z: 0.5 * float(z @ z),
        gradient=lambda z: z,
        hessian=lambda z: np.diag([np.inf, 1.0]),
    )
    with pytest.raises(NoConvergence, match="Hessian"):
        model.refine_equilibrium(sys, np.zeros(2))


def test_refinement_names_a_non_finite_hessian():
    # a NaN section Hessian went into eigvalsh and the solve, and the NaN
    # iterate it made was blamed on the gradient
    system = model.HamiltonianSystem(
        n=1,
        energy=lambda z: 0.5 * float(z @ z),
        gradient=lambda z: z,
        hessian=lambda z: np.full((2, 2), np.nan) if abs(z[0]) > 0.05 else np.eye(2),
    )
    with pytest.raises(NoConvergence, match=re.escape("after 1 iterations, stopped by a non-finite Hessian")):
        model.refine_equilibrium(system, np.array([0.1, 0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "name, params",
    [
        ("satellite", lambda v: {"omega": v, "c": 0.1}),
        ("satellite", lambda v: {"omega": 1.0, "c": v}),
        ("harmonic", lambda v: {"beta": v}),
        ("coupled-springs", lambda v: {"frequencies": [1.0, v]}),
    ],
    ids=["satellite-omega", "satellite-c", "harmonic-beta", "coupled-springs-frequencies"],
)
def test_presets_reject_non_finite_parameters(name, params, value):
    with pytest.raises(ValueError, match="finite"):
        model.preset(name, params(value))


@pytest.mark.parametrize("omega, c", [(1.0, np.nan), (np.nan, 0.1), (np.inf, 0.1), (1.0, np.inf)])
def test_satellite_distance_rejects_non_finite_parameters(omega, c):
    with pytest.raises(ValueError, match="finite"):
        model.satellite_equilibrium_distance(omega, c)


def _reference_fd_gradient(energy, z):
    """Central differences of the energy as model computed them before one kernel served both (reference)."""
    g = np.empty(z.size)
    for i in range(z.size):
        h = 1e-6 * (1.0 + abs(z[i]))
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (float(energy(zp)) - float(energy(zm))) / (2.0 * h)
    return g


def _reference_fd_hessian_from_gradient(gradient, z):
    """Central differences of the gradient, symmetrized (reference)."""
    d = z.size
    m = np.empty((d, d))
    for i in range(d):
        h = 1e-6 * (1.0 + abs(z[i]))
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        m[:, i] = (np.asarray(gradient(zp), dtype=float) - np.asarray(gradient(zm), dtype=float)) / (2.0 * h)
    return 0.5 * (m + m.T)


def _reference_fd_hessian_from_energy(energy, z):
    """Second differences of the energy on the upper triangle, symmetrized (reference)."""
    d = z.size
    m = np.empty((d, d))
    steps = 1e-4 * (1.0 + np.abs(z))
    for i in range(d):
        for jj in range(i, d):
            hi, hj = steps[i], steps[jj]
            zpp = z.copy()
            zpm = z.copy()
            zmp = z.copy()
            zmm = z.copy()
            zpp[i] += hi
            zpp[jj] += hj
            zpm[i] += hi
            zpm[jj] -= hj
            zmp[i] -= hi
            zmp[jj] += hj
            zmm[i] -= hi
            zmm[jj] -= hj
            val = (float(energy(zpp)) - float(energy(zpm)) - float(energy(zmp)) + float(energy(zmm))) / (4.0 * hi * hj)
            m[i, jj] = val
            m[jj, i] = val
    return 0.5 * (m + m.T)


def test_fd_derivatives_bit_identical_to_reference_loops():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    gradient_only = model.HamiltonianSystem(n=3, energy=sat.energy, gradient=sat.gradient)
    energy_only = model.HamiltonianSystem(n=3, energy=sat.energy)
    rng = np.random.default_rng(17)
    base = np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    for _ in range(200):
        z = base + 0.3 * rng.standard_normal(6)
        assert np.array_equal(model.gradient_of(energy_only, z), _reference_fd_gradient(sat.energy, z))
        assert np.array_equal(model.hessian_of(energy_only, z), _reference_fd_hessian_from_energy(sat.energy, z))
        assert np.array_equal(model.hessian_of(gradient_only, z), _reference_fd_hessian_from_gradient(sat.gradient, z))
        assert np.array_equal(model.gradient_of(gradient_only, z), sat.gradient(z))


def _old_central_differences(f, z):
    """``model._central_differences`` as it was, one ``f`` call per stencil point (reference)."""
    columns = []
    for i, h in enumerate(1e-6 * (1.0 + np.abs(z))):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        columns.append((f(zp) - f(zm)) / (2.0 * h))
    return np.array(columns).T


def _old_gradient_and_floor(energy, z):
    """The energy branch of ``model._gradient_and_floor`` as it was, one energy call per point (reference)."""
    values = []

    def recorded(x):
        values.append(float(energy(x)))
        return values[-1]

    gradient = _old_central_differences(recorded, z)
    floor = np.finfo(float).eps * max(map(abs, values)) * float(np.linalg.norm(1.0 / (1e-6 * (1.0 + np.abs(z)))))
    return gradient, floor


def _old_second_differences(energy, z):
    """``model._second_differences`` as it was, one energy call per point (reference)."""
    d = z.size
    steps = (1e-4 * (1.0 + np.abs(z))).tolist()
    m = np.empty((d, d))
    for i in range(d):
        plus, minus = z.copy(), z.copy()
        plus[i] += steps[i]
        minus[i] -= steps[i]
        for j in range(i, d):
            values = []
            for base in (plus, minus):
                for sj in (1, -1):
                    zs = base.copy()
                    zs[j] += sj * steps[j]
                    values.append(float(energy(zs)))
            m[i, j] = m[j, i] = (values[0] - values[1] - values[2] + values[3]) / (4.0 * steps[i] * steps[j])
    return m


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked-energy", "per-point-energy"])
def test_energy_stencils_are_bit_identical_to_the_per_point_loops(stacked):
    sat = model.preset("satellite", omega=1.0, c=0.1)
    energy = sat.energy if stacked else (lambda z: sat.energy(z))
    assert hasattr(energy, "batch") == stacked
    energy_only = model.HamiltonianSystem(n=3, energy=energy)
    rng = np.random.default_rng(29)
    points = [SATELLITE_README_GUESS, SATELLITE_STALL_GUESS]
    points += list(SATELLITE_README_GUESS + 0.3 * rng.standard_normal((50, 6)))
    for z in points:
        gradient, floor = model._gradient_and_floor(energy_only, z)
        old_gradient, old_floor = _old_gradient_and_floor(sat.energy, z)
        assert _bits(gradient) == _bits(old_gradient) and _bits(floor) == _bits(old_floor)
        assert _bits(model._second_differences(energy_only, z)) == _bits(_old_second_differences(sat.energy, z))
        for f in (sat.energy, sat.gradient):
            assert _bits(model._central_differences(lambda zs: np.array([f(x) for x in zs]), z)[0]) == _bits(_old_central_differences(f, z))


def _reference_satellite_energy(z, omega=1.0, c=0.1):
    """The satellite's energy at one point in numpy-scalar arithmetic, whose power is C's ``pow`` (reference)."""
    q, p = z[:3], z[3:]
    d = np.sqrt(float(q.dot(q)))
    potential = -1.0 / d - c / d**3 + 3.0 * c * q[2] ** 2 / d**5
    return 0.5 * float(p.dot(p)) + omega * (q[0] * p[1] - q[1] * p[0]) + potential


def test_satellite_stacked_energy_is_its_per_point_energy_to_the_bit():
    sat = model.preset("satellite", omega=1.0, c=0.1)

    def check(points):
        reference = _bits([_reference_satellite_energy(z) for z in points])
        assert _bits(sat.energy.batch(points)) == reference
        assert _bits([sat.energy(z) for z in points]) == reference

    rng = np.random.default_rng(31)
    check(SATELLITE_README_GUESS + rng.standard_normal((2000, 6)) * rng.choice([1e-6, 0.1, 3.0, 30.0], size=(2000, 1)))
    # every stencil of the energy-only refinements from the README and stall
    # guesses; whether the stall guess converges varies with the BLAS kernel
    # (the stall tests pin it), so its stencils are checked either way
    for guess in (SATELLITE_README_GUESS, SATELLITE_STALL_GUESS):
        stacks = []

        def recorded(points):
            stacks.append(points.copy())
            return sat.energy.batch(points)

        energy_only = replace(sat, energy=_with_stacked_form(sat.energy, recorded), gradient=None, hessian=None)
        with contextlib.suppress(NoConvergence):
            model.refine_equilibrium(energy_only, guess)
        assert [len(points) for points in stacks].count(84) >= 5
        for points in stacks:
            check(points)


def _outcome(f, zs, error):
    """``f(zs)``'s value bits and its warnings, or the RuntimeWarning it raises when warnings are errors."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if error else "always", RuntimeWarning)
        try:
            value = _bits(f(zs))
        except RuntimeWarning as exc:
            return repr(exc)
    return value, [(w.category, str(w.message)) for w in caught]


def test_norm_is_numpys_vector_norm_to_the_bit():
    # the refinement's vector norms skip np.linalg.norm's dispatch, not its
    # formula: the same bits and the same overflow warning
    rng = np.random.default_rng(37)
    tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
    scales = (1e-300, 1e-160, 1e-3, 1.0, 1e150, 1e160)  # squares underflow or overflow at both ends
    vectors = [rng.standard_normal(d) * scale for d in (1, 2, 6, 17, 274) for scale in scales]
    vectors += [np.zeros(0), np.zeros(6), -np.zeros(6), np.full(6, tiny), rng.integers(1, 1000, 6) * tiny]
    vectors.append(np.full(6, huge))
    for special in (np.nan, np.inf, -np.inf):
        v = rng.standard_normal(6)
        v[3] = special
        vectors.append(v)
    vectors.append(np.array([np.inf, np.nan]))
    outcomes = [_outcome(model._norm, v, False) for v in vectors]
    assert outcomes == [_outcome(np.linalg.norm, v, False) for v in vectors]
    assert outcomes[-5] == (_bits(np.inf), [(RuntimeWarning, "overflow encountered in dot")])


@pytest.mark.parametrize(
    "q",
    [[0.0, 0.0, 0.0], [1e-120, 0.0, 0.0], [1e-70, 0.0, 1e-71], [1e70, 0.0, 0.0], [1e70, 0.0, 1e70]],
    ids=["q-zero", "d3-underflows", "d5-underflows", "d5-overflows", "d5-overflows-off-axis"],
)
@pytest.mark.parametrize("error", [False, True], ids=["warn", "error"])
def test_satellite_stacked_energy_warns_as_its_per_point_energy(q, error):
    sat = model.preset("satellite", omega=1.0, c=0.1)
    zs = np.array([SATELLITE_README_GUESS, q + [0.0, -1.0, 0.0], SATELLITE_STALL_GUESS])
    stacked = _outcome(sat.energy.batch, zs, error)
    assert stacked == _outcome(lambda points: [sat.energy(z) for z in points], zs, error)
    if error:
        assert stacked.startswith("RuntimeWarning")
    else:
        assert stacked[1]
    assert _outcome(sat.energy.batch, zs[[0, 2]], error) == (_bits(sat.energy.batch(zs[[0, 2]])), [])


def _failing(z):
    raise ValueError("planted failure")


@pytest.mark.parametrize(
    "evaluators, derivative",
    [
        ({"gradient": _failing}, model.gradient_of),
        ({"energy": _failing}, model.gradient_of),
        ({"hessian": _failing}, model.hessian_of),
        ({"gradient": _failing}, model.hessian_of),
        ({"energy": _failing}, model.hessian_of),
    ],
    ids=["gradient", "fd-gradient", "hessian", "fd-hessian-from-gradient", "fd-hessian-from-energy"],
)
def test_evaluator_failures_are_typed(evaluators, derivative):
    sat = model.preset("satellite", omega=1.0, c=0.1)
    system = model.HamiltonianSystem(n=3, **{"energy": sat.energy, **evaluators})
    with pytest.raises(EvaluationFailure, match="planted failure"):
        derivative(system, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]))


def test_a_hambif_error_from_an_evaluator_is_not_wrapped():
    def no_convergence(z):
        raise NoConvergence("planted")

    system = model.HamiltonianSystem(n=1, energy=no_convergence)
    with pytest.raises(NoConvergence, match="planted"):
        model.gradient_of(system, np.zeros(2))


def test_orbit_energy_range_failure_is_typed():
    system = model.HamiltonianSystem(n=1, energy=_failing)
    orbit = orbits.FourierOrbit(a0=np.zeros(2), a=np.array([[1.0, 0.0]]), b=np.array([[0.0, 1.0]]), lam=1.0)
    with pytest.raises(EvaluationFailure, match="energy evaluator failed"):
        orbits.orbit_energy_range(system, orbit)


@pytest.mark.parametrize(
    "bad_batch, message",
    [
        (lambda zs: np.zeros((len(zs), 1)), r"^stacked energy evaluator returned shape \(4, 1\), not \(4,\)$"),
        (lambda zs: 0.0, r"^stacked energy evaluator returned shape \(\), not \(4,\)$"),
        (_failing, r"^energy evaluator failed at max\|z_i\|=1: planted failure$"),
    ],
    ids=["a-column", "a-scalar", "raises"],
)
def test_stacked_energy_failures_are_typed(bad_batch, message):
    system = model.HamiltonianSystem(n=3, energy=_with_stacked_form(_failing, bad_batch))
    with pytest.raises(EvaluationFailure, match=message):
        model._energies_of(system, np.ones((4, 6)))
    # the central-difference gradient and Hessian evaluate their stencils through it
    for derivative in (model.gradient_of, model.hessian_of):
        with pytest.raises(EvaluationFailure, match="energy evaluator"):
            derivative(system, np.ones(6))


def test_energies_of_calls_an_energy_without_a_stacked_form_per_row():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    counted, calls = counting_evaluators(model.HamiltonianSystem(n=3, energy=sat.energy))
    zs = SATELLITE_README_GUESS + 0.1 * np.random.default_rng(3).standard_normal((5, 6))
    assert _bits(model._energies_of(counted, zs)) == _bits([sat.energy(z) for z in zs])
    assert calls == {"energy": 5}
    assert model._energies_of(counted, np.empty((0, 6))).shape == (0,)


def counting_stacked_energy(system):
    """``system`` whose energy keeps its stacked form and counts its stacked calls and the rows they hold."""
    calls = Counter()

    def batch(zs):
        calls["calls"] += 1
        calls["rows"] += len(zs)
        return system.energy.batch(zs)

    return replace(system, energy=_with_stacked_form(system.energy, batch)), calls


@pytest.mark.parametrize(
    "guess, rows, stacked_calls",
    [(SATELLITE_README_GUESS, 480, 10), (SATELLITE_STALL_GUESS, 876, 19)],
    ids=["readme", "stall"],
)
def test_energy_only_refinement_makes_one_stacked_energy_call_per_stencil(guess, rows, stacked_calls):
    sat = model.preset("satellite", omega=1.0, c=0.1)
    counted, calls = counting_stacked_energy(replace(sat, gradient=None, hessian=None))
    try:
        model.refine_equilibrium(counted, guess)
    except NoConvergence:
        assert guess is SATELLITE_STALL_GUESS
    # the same rows as one energy call per point (480 and 9 * 96 + 12), in one call per gradient or Hessian
    assert calls == {"calls": stacked_calls, "rows": rows}


def test_orbit_energy_range_is_nan_wherever_a_nan_energy_falls_on_its_grid():
    # H = |z|^2 / 2, NaN for z_0 >= 0.9.  The circle (cos t, -sin t) has z_0 = 1
    # at point 0 of its 5-point grid; delayed by p grid steps, at point p, where
    # the min and max of a list skipped the NaN and gave a finite range.
    system = model.HamiltonianSystem(n=1, energy=lambda z: 0.5 * float(z @ z) if z[0] < 0.9 else np.nan)
    a, b = np.array([[1.0, 0.0]]), np.array([[0.0, -1.0]])
    for p in range(5):
        t = 2.0 * np.pi * p / 5
        orbit = orbits.FourierOrbit(np.zeros(2), a * np.cos(t) - b * np.sin(t), a * np.sin(t) + b * np.cos(t), 1.0)
        assert all(np.isnan(orbits.orbit_energy_range(system, orbit))), p
    # half a period on, no grid point has z_0 >= 0.9: the largest is cos(pi / 5)
    shifted = orbits.FourierOrbit(np.zeros(2), -a, -b, 1.0)
    # the grid's points have _grid's bits; 0.5 |z|^2 rounds differently with the BLAS kernel
    energies = [system.energy(z) for z in shifted.evaluate(np.arange(5) * orbits.TWO_PI / 5)]
    assert orbits.orbit_energy_range(system, shifted) == (min(energies), max(energies))


def test_stacked_satellite_forms_agree_with_per_point_forms():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    rng = np.random.default_rng(23)
    zs = np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]) + 0.3 * rng.standard_normal((200, 6))
    grads = model._gradients_of(sat, zs)
    hessians = model._hessians_of(sat, zs, grads)
    assert grads.shape == (200, 6) and hessians.shape == (200, 6, 6)
    for z, g, h in zip(zs, grads, hessians):
        assert np.array_equal(g, model.gradient_of(sat, z)) and np.array_equal(h, model.hessian_of(sat, z))
        assert np.array_equal(h, h.T)


def test_satellite_stacked_gradient_is_its_per_point_gradient_to_the_bit():
    # 10,000 points at spreads from 1e-3 to 1e3 about the relative equilibrium,
    # and the points of a wider draw where C's pow(q3, 2) differs from
    # q3 * q3: on 4 of those 88 the per-point gradient, which took q3**2 from
    # pow, differed from the stacked one in its last bit
    sat = model.preset("satellite", omega=1.0, c=0.1)
    d = model.satellite_equilibrium_distance(1.0, 0.1)
    star = np.array([d, 0.0, 0.0, 0.0, -d, 0.0])
    rng = np.random.default_rng(41)
    zs = star + 10.0 ** rng.uniform(-3.0, 3.0, (10_000, 1)) * rng.standard_normal((10_000, 6))
    wide = star + 10.0 ** rng.uniform(-3.0, 3.0, (100_000, 1)) * rng.standard_normal((100_000, 6))
    powered = wide[[x**2 != x * x for x in wide[:, 2].tolist()]]
    assert len(powered) > 50
    for points in (zs, powered):
        assert _bits(sat.gradient.batch(points)) == _bits([sat.gradient(z) for z in points])


def test_satellite_per_point_hessian_is_row_zero_of_the_stacked_one():
    # the draw of the gradient's test above, and the point where an earlier
    # written-out form, which took q3**2 from pow, differed from the stacked
    # one in the last bit (2.2e-16)
    sat = model.preset("satellite", omega=1.0, c=0.1)
    d = model.satellite_equilibrium_distance(1.0, 0.1)
    star = np.array([d, 0.0, 0.0, 0.0, -d, 0.0])
    rng = np.random.default_rng(41)
    zs = star + 10.0 ** rng.uniform(-3.0, 3.0, (10_000, 1)) * rng.standard_normal((10_000, 6))
    pinned = [
        0.9589665327342726, -0.27284736524283815, 0.7294716928251465,
        -0.2721839989505945, -0.6333917099199842, -0.5496969084774124,
    ]
    zs = np.vstack([zs, pinned])
    assert _bits(sat.hessian.batch(zs)) == _bits([sat.hessian(z) for z in zs])
    z = zs[-1]
    assert _bits(model.hessian_of(sat, z)) == _bits(_supplied_hessians(sat, z[None])[0])


@pytest.mark.parametrize("n", [1, 4])
def test_lifted_per_point_hessian_is_row_zero_of_the_stacked_one(n):
    # the Hessian of the spring chain U = sum f_i^2 q_i^2 / 2 + sum (q_i - q_{i+1})^4 / 4; U itself is not read
    f2 = np.linspace(1.0, 2.0, n) ** 2

    def hessian(q):
        w = 3.0 * (q[:-1] - q[1:]) ** 2
        return np.diag(f2) + np.diag(np.append(w, 0.0) + np.append(0.0, w)) - np.diag(w, 1) - np.diag(w, -1)

    chain = model.newtonian_to_hamiltonian(lambda q: 0.0, n, hessian=hessian)
    zs = np.random.default_rng(n).standard_normal((20, 2 * n))
    stacked = chain.hessian.batch(zs)
    assert all(np.array_equal(chain.hessian(z), h) for z, h in zip(zs, stacked))
    assert all(np.array_equal(model.hessian_of(chain, z), h) for z, h in zip(zs, _supplied_hessians(chain, zs)))


@pytest.mark.parametrize("n", [1, 3])
def test_lifted_per_point_gradient_is_row_zero_of_the_stacked_one(n):
    f2 = np.linspace(1.0, 2.0, n) ** 2
    lift = model.newtonian_to_hamiltonian(lambda q: 0.0, n, gradient=lambda q: f2 * q + (q[:-1] @ q[1:]) * q**3)
    assert lift.gradient.newtonian and lift.gradient.batch
    for z in np.random.default_rng(n).standard_normal((20, 2 * n)):
        assert _bits(lift.gradient(z)) == _bits(lift.gradient.batch(z[None])[0])


def _functions_run(f, *args) -> set:
    """The code objects of every Python function that ``f(*args)`` enters."""
    codes, previous = set(), sys.getprofile()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(previous)
    return codes


def test_per_point_derivatives_make_no_stacked_call():
    # a one-row stacked call costs several per-point ones; no per-point form
    # below makes one, and the lift's calls its q-callable once
    sat = model.preset("satellite", omega=1.0, c=0.1)
    calls = Counter()

    def q_gradient(q):
        calls["gradient"] += 1
        return 2.0 * q

    def q_hessian(q):
        calls["hessian"] += 1
        return np.diag(q * q)

    spin = np.array([[0.0, -1.0], [1.0, 0.0]])
    lift = model.newtonian_to_hamiltonian(len, 2, gradient=q_gradient, hessian=q_hessian, generators=[spin])
    z = np.array([0.3, -0.2, 0.5, 0.1])
    for f, point in ((sat.hessian, SATELLITE_README_GUESS), (lift.gradient, z), (lift.hessian, z)):
        assert f.batch.__code__ not in _functions_run(f, point)
    assert calls == {"gradient": 1, "hessian": 1}


def _counted_gradient(f, calls, stacked):
    """``f`` counting its calls and rows in ``calls``; with ``stacked``, its stacked form counted too."""

    def point(z):
        calls["point"] += 1
        calls["rows"] += 1
        return f(z)

    def batch(zs):
        calls["stacked"] += 1
        calls["rows"] += len(zs)
        return f.batch(zs)

    if stacked:
        point.batch = batch
    return point


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked-gradient", "per-point-gradient"])
def test_gradient_only_hessian_is_one_stacked_gradient_call(stacked):
    sat = model.preset("satellite", omega=1.0, c=0.1)
    calls = Counter()
    system = replace(sat, gradient=_counted_gradient(sat.gradient, calls, stacked), hessian=None)
    for z in SATELLITE_README_GUESS + 0.3 * np.random.default_rng(5).standard_normal((10, 6)):
        calls.clear()
        hessian = model.hessian_of(system, z)
        assert calls == ({"stacked": 1, "rows": 12} if stacked else {"point": 12, "rows": 12})
        assert _bits(hessian) == _bits(_reference_fd_hessian_from_gradient(sat.gradient, z))


def test_gradient_only_satellite_analysis_makes_one_gradient_call_per_stencil():
    # the refinement's 5 Hessians and the refined point's were 12 per-point calls each
    sat = model.preset("satellite", omega=1.0, c=0.1)
    calls = Counter()
    system = replace(sat, gradient=_counted_gradient(sat.gradient, calls, True), hessian=None)
    eq = model.refine_equilibrium(system, SATELLITE_README_GUESS)
    analysis.analyze(system, eq)
    assert calls == {"point": 6, "stacked": 5, "rows": 66}
    assert _bits(eq.hessian) == _bits(_reference_fd_hessian_from_gradient(sat.gradient, eq.z0))


def test_refinement_raises_degenerate_section_where_the_hessian_is_singular():
    # H = q^3 / 3 + p^2 / 2: at the guess (0, 0.1) the Hessian diag(2 q, 1) is singular
    system = model.HamiltonianSystem(
        n=1,
        energy=lambda z: z[0] ** 3 / 3.0 + 0.5 * z[1] ** 2,
        gradient=lambda z: np.array([z[0] ** 2, z[1]]),
        hessian=lambda z: np.diag([2.0 * z[0], 1.0]),
    )
    with pytest.raises(DegenerateSection, match="section-restricted Hessian is singular"):
        model.refine_equilibrium(system, [0.0, 0.1])


def _with_stacked_form(f, batch):
    def point(z):
        return f(z)

    point.batch = batch
    return point


@pytest.mark.parametrize("what", ["gradient", "hessian"])
@pytest.mark.parametrize(
    "bad_batch, scale, message",
    [
        (lambda f: lambda zs: f.batch(zs)[:-1], 1.0, r"returned shape \(3, 6"),
        (lambda f: lambda zs: f.batch(zs)[0], 1.0, r"returned shape \(6"),
        # the message reports max |z_i|, which cannot overflow where |z| would
        (lambda f: _failing, 1e200, r"failed at max\|z_i\|=1e\+200: planted failure"),
    ],
    ids=["one-row-short", "one-point", "raises"],
)
def test_stacked_form_failures_are_typed(what, bad_batch, scale, message):
    sat = model.preset("satellite", omega=1.0, c=0.1)
    f = getattr(sat, what)
    system = replace(sat, **{what: _with_stacked_form(f, bad_batch(f))})
    stacked_of = {"gradient": model._gradients_of, "hessian": _supplied_hessians}[what]
    with pytest.raises(EvaluationFailure, match=message):
        stacked_of(system, np.full((4, 6), scale))


@pytest.mark.parametrize(
    "what, q_callable, message",
    [
        ("gradient", _failing, r"gradient evaluator failed at max\|z_i\|=1: planted failure"),
        ("gradient", lambda q: np.append(q, 0.0), r"stacked gradient evaluator returned shape \(4, 5\), not \(4, 4\)"),
        ("gradient", lambda q: q[0], "gradient evaluator failed"),
        ("hessian", _failing, "hessian evaluator failed.*planted failure"),
        ("hessian", lambda q: np.eye(3), "hessian evaluator failed"),
        # numpy broadcast these into the q-block
        ("hessian", lambda q: [[2.0]], r"hessian evaluator failed.*: the q-Hessian must have shape \(2, 2\), got \(1, 1\)$"),
        ("hessian", lambda q: 2.0, r"hessian evaluator failed.*: the q-Hessian must have shape \(2, 2\), got \(\)$"),
    ],
    ids=[
        "gradient-raises",
        "gradient-too-long",
        "gradient-scalar",
        "hessian-raises",
        "hessian-too-big",
        "hessian-too-small",
        "hessian-scalar",
    ],
)
def test_stacked_newtonian_failures_are_typed(what, q_callable, message):
    system = model.newtonian_to_hamiltonian(lambda q: 0.5 * float(q @ q), 2, **{what: q_callable})
    stacked_of = {"gradient": model._gradients_of, "hessian": _supplied_hessians}[what]
    with pytest.raises(EvaluationFailure, match=message):
        stacked_of(system, np.ones((4, 4)))


def _reused_buffer_gradient():
    # the gradient of H = z0^2 + z1^2 / 2, written into one buffer on every call
    buffer = np.empty(2)

    def gradient(z):
        buffer[:] = 2.0 * z[0], z[1]
        return buffer

    return model.HamiltonianSystem(n=1, energy=lambda z: z[0] ** 2 + 0.5 * z[1] ** 2, gradient=gradient)


def test_a_gradient_that_reuses_its_buffer_gives_the_true_derivatives():
    system = _reused_buffer_gradient()
    assert np.allclose(model.hessian_of(system, np.array([0.3, 0.2])), [[2.0, 0.0], [0.0, 1.0]], atol=1e-8)
    assert np.array_equal(model._gradients_of(system, np.array([[1.0, 2.0], [3.0, 4.0]])), [[2.0, 2.0], [6.0, 4.0]])
    eq = model.refine_equilibrium(system, np.array([0.3, 0.2]))
    assert np.allclose(eq.z0, 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "system, guess, message",
    [
        (
            model.newtonian_to_hamiltonian(lambda q: 0.5 * float(q @ q), 2, gradient=lambda q: np.append(q, 0.0)),
            [0.1, 0.1, 0.0, 0.0],
            r"^gradient evaluator returned shape \(5,\), not \(4,\)$",
        ),
        (
            model.HamiltonianSystem(
                n=1, energy=lambda z: 0.5 * float(z @ z), gradient=lambda z: z, hessian=lambda z: np.eye(3)
            ),
            [0.1, 0.1],
            r"^hessian evaluator returned shape \(3, 3\), not \(2, 2\)$",
        ),
        # numpy broadcast these into the q-block of the lifted Hessian
        (
            model.newtonian_to_hamiltonian(lambda q: 0.5 * float(q @ q), 2, gradient=lambda q: q, hessian=lambda q: [[1.0]]),
            [0.1, 0.1, 0.0, 0.0],
            r"^hessian evaluator failed at max\|z_i\|=0.1: the q-Hessian must have shape \(2, 2\), got \(1, 1\)$",
        ),
        (
            model.newtonian_to_hamiltonian(lambda q: 0.5 * float(q @ q), 2, gradient=lambda q: q, hessian=lambda q: 1.0),
            [0.1, 0.1, 0.0, 0.0],
            r"^hessian evaluator failed at max\|z_i\|=0.1: the q-Hessian must have shape \(2, 2\), got \(\)$",
        ),
    ],
    ids=["newtonian-gradient-too-long", "hessian-too-big", "hessian-too-small", "hessian-scalar"],
)
def test_per_point_results_of_the_wrong_shape_are_typed(system, guess, message):
    with pytest.raises(EvaluationFailure, match=message):
        model.refine_equilibrium(system, np.array(guess))
