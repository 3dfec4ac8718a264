"""The register of known wrong answers: one strict expected failure per defect.

Each entry asserts the right answer and fails today with an
``AssertionError``, for the reason its marker states, naming the ROADMAP
item that owns the defect.  The fix makes the entry pass, which strict mode
reports as a failure until the fix also removes the marker, so every run's
summary (``pytest -rx``) lists the wrong answers that are still open.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hambif import analysis, cli, degree, model, orbits

DATA = Path(__file__).parent / "data"


def known_defect(item: int, reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"item {item}: {reason}")


def refined(text: str):
    system, guess = cli.build_system(cli.parse_config(text))
    return system, model.refine_equilibrium(system, guess)


QUARTIC_CHAIN_PERIOD_AT_12_8 = 1.274125255897744
"""The period at the pin 12.8 of ``quartic-chain.ini`` that the 65-rung ladder ``s0 = 0.05``, growth ``16**(1/32)`` reaches.

Its periods fall at every rung, so this orbit is on the family that the
branch starts on.  The ladder takes about a second, so its answer is kept
here rather than run.
"""


@known_defect(27, "Newton stops on the residual, so the first orbit keeps lambda0 = 1 exactly, 9.9e-9 off")
def test_pendulum_first_orbit_has_the_period_of_its_family():
    pend = model.newtonian_to_hamiltonian(
        potential=lambda q: 1.0 - np.cos(q[0]),
        n=1,
        gradient=lambda q: np.array([np.sin(q[0])]),
        hessian=lambda q: np.array([[np.cos(q[0])]]),
        name="pendulum",
    )
    eq = model.refine_equilibrium(pend, np.array([0.1, 0.0]))
    s = 1e-3
    (orbit,) = orbits.continue_branch(pend, eq, analysis.analyze(pend, eq)[0], steps=1, s0=s).orbits
    # q = A cos t with s^2 = 2 pi A^2, and 2 pi lambda = 2 pi (1 + A^2 / 16 + O(A^4))
    assert abs(orbit.lam - (1.0 + s * s / (32.0 * math.pi))) <= 1e-12


@pytest.mark.parametrize(
    "evaluators", [{"hessian": None}, {"gradient": None, "hessian": None}], ids=["gradient-only", "energy-only"]
)
@known_defect(1, "the finite-difference Hessian splits the group orbit's nilpotent block into a spurious third level")
def test_finite_difference_satellite_reports_the_two_levels_of_the_analytic_one(evaluators):
    params = {"omega": 1.0, "c": 0.1}
    system = replace(model.preset("satellite", params), **evaluators)
    eq = model.refine_equilibrium(system, model.preset_guess("satellite", params))
    assert len(analysis.analyze(system, eq)) == 2


@known_defect(2, "the energy-only refinement stops at the rounding floor of its central differences, 8.6e-11 off the quintic")
def test_energy_only_satellite_refines_to_the_root_of_its_quintic():
    # q0 = (d, 0, 0) up to a rotation about the axis, with omega^2 d^5 - d^2 - 3 c = 0
    params = {"omega": 1.0, "c": 0.1}
    system = replace(model.preset("satellite", params), gradient=None, hessian=None)
    eq = model.refine_equilibrium(system, model.preset_guess("satellite", params))
    d = float(np.linalg.norm(eq.z0[:3]))
    assert abs(d**5 - d**2 - 0.3) <= 1e-12


@known_defect(7, "the section radius follows |z0|, not the germ, so the range equation goes unsolved at z = 1000")
def test_shifted_germ_keeps_its_section_degree_far_from_the_origin():
    # H = x^2 / 2 + x p^2 + p^4 / 4 in x = q - z, plus a constant: degree -1 at every z
    z = 1000
    system, eq = refined(f"[system]\nn = 1\nmonomials = 0.5 2 0 ; -{z} 1 0 ; 0.25 0 4 ; 1 1 2 ; -{z} 0 2\nguess = {z} 0\n")
    assert degree.section_degree(system, eq).value == -1


@pytest.mark.parametrize("sign", ["", "-"], ids=["plus-p2-squared", "minus-p2-squared"])
@known_defect(7, "a level is confirmed on the degree of a disk whose isolation nothing verifies")
def test_no_level_is_confirmed_on_a_disk_of_unverified_isolation(sign):
    # H = (q1^2 + p1^2) / 2 +- p2^2 / 2 + q2^4 / 4: the Hessian's kernel, q2, is no group orbit direction
    system, eq = refined(f"[system]\nn = 2\nmonomials = 0.5 2 0 0 0 ; 0.5 0 0 2 0 ; {sign}0.5 0 0 0 2 ; 0.25 0 4 0 0\n")
    unverified = "orbit isolatedness unverified"
    assert not [c.beta for c in analysis.analyze(system, eq) if c.confirmed and any(unverified in r for r in c.reasons)]


@known_defect(3, "a resonant level with a nonzero jump and degree ends 'multi-mode jump analysis not implemented'")
def test_resonant_level_with_a_mode_1_family_is_confirmed():
    # H = (p1^2 + q1^2) / 2 - (p2^2 + 4 q2^2) / 2 + (q1^4 + q2^4) / 4: decoupled, so the q1 family exists
    monomials = "0.5 2 0 0 0 ; -2 0 2 0 0 ; 0.5 0 0 2 0 ; -0.5 0 0 0 2 ; 0.25 4 0 0 0 ; 0.25 0 4 0 0"
    system, eq = refined(f"[system]\nn = 2\nmonomials = {monomials}\n")
    (level,) = [c for c in analysis.analyze(system, eq) if abs(c.beta - 1.0) < 1e-9]
    assert level.confirmed


@known_defect(2, "the spectral report and section_degree read the Hessian's kernel with different thresholds")
def test_cubic_section_kernel_is_read_the_same_by_the_report_and_the_degree():
    text = (DATA / "cubic.ini").read_text(encoding="utf-8") + "\nguess = 0.001 0.002 -0.001 0.0005\n"
    system, eq = refined(text)
    kernel = analysis.spectral_report(system, eq).kernel_dim > eq.orbit_dim
    assert kernel == (degree.section_degree(system, eq).path == "reduced")


@known_defect(11, "a long step lands on another family and is recorded as a success")
def test_long_step_of_the_quartic_chain_stays_on_its_family_or_fails():
    system, eq = refined((DATA / "quartic-chain.ini").read_text(encoding="utf-8"))
    candidate = next(c for c in analysis.analyze(system, eq) if c.confirmed)
    branch = orbits.continue_branch(system, eq, candidate, steps=3, s0=0.05, growth=16.0)
    if len(branch.orbits) == 3:  # the orbit at the pin 0.05 * 16**2 = 12.8
        period = branch.orbits[2].period
        assert abs(period - QUARTIC_CHAIN_PERIOD_AT_12_8) <= 1e-8 * QUARTIC_CHAIN_PERIOD_AT_12_8, period
    else:
        assert branch.failures
