"""One table of argument contracts: a row for every name in every module's ``__all__``.

A row is ``None`` for a name that takes no argument the package checks (a
result record the package fills, a constant, a module, or a function of
such records alone), and otherwise ``(call, arguments)``: ``call`` takes the
row's arguments by keyword, and ``arguments`` maps each to a valid value and
its kind.  A kind gives, from the valid value, the invalid values to try and
the valid variants (a numpy integer for an integer, a list for an array)
that must pass.  Every invalid value must raise a ``ValueError`` or a
``HambifError`` whose message starts with the argument's name, and no call
may warn.  The arguments ignored for compatibility (``AnalyzeOptions.seed``,
``degree_regular_value``'s ``attempts`` and ``seed``) have no kind.

``test_each_hole_is_a_typed_error_naming_its_argument`` keeps the calls that
once returned a number, or failed with an error that named no argument or
the wrong one.
"""

import math
import re
import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

import hambif
from hambif import analysis, cli, degree, linalg, model, orbits
from hambif.errors import HambifError

MODULES = {"hambif": hambif, "analysis": analysis, "cli": cli, "degree": degree, "linalg": linalg, "model": model, "orbits": orbits}
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])  # the generator of rotations of R^2


def _entry(value, entry):
    """A copy of the array ``value`` with its first entry, and for a matrix its mirror, set to ``entry``."""
    bad = np.array(value, dtype=float)
    bad.flat[0] = entry
    if bad.ndim == 2 and bad.shape[0] == bad.shape[1] > 1:
        bad[0, 1] = bad[1, 0] = entry
    return bad


def _non_finite(value) -> list:
    return [_entry(value, x) for x in (math.nan, math.inf, -math.inf)]


def _unconvertible(value) -> list:
    """Values numpy makes no float array of: a string of the array's numbers, a ragged nested list and a dict."""
    flat = np.ravel(value).tolist()
    return [" ".join(map(str, flat)), [flat, flat[:-1]], {"a": 1}]


def integer(low=1, high=None, optional=False):
    """An integer in ``low..high`` (``None`` leaves a side open): a bool, a float, a string, NaN, inf, and ``None`` unless ``optional``, are not."""

    def kind(valid):
        bad = [True, np.True_, float(valid), np.float64(valid), valid + 0.5, str(valid), math.nan, math.inf]
        bad += [] if optional else [None]
        bad += [] if low is None else [low - 1, low - 10]
        bad += [] if high is None else [high + 1]
        return bad, [np.int64(valid), np.int32(valid), np.uint8(valid)]

    return kind


def positive(valid):
    """A positive finite real; a bool is not one."""
    return [True, np.True_, math.nan, math.inf, -math.inf, 0.0, -valid, str(valid), None], [np.float64(valid), int(math.ceil(valid))]


def amplitude(valid):
    """A positive finite real whose square is a normal float: one whose square is subnormal, 0 or inf is not."""
    bad, good = positive(valid)
    return bad + [1e-160, 1e-300, 1e160], good


def real(valid):
    """A finite real; a bool is not one."""
    return [True, np.True_, math.nan, math.inf, -math.inf, str(valid), None], [np.float64(valid), -valid]


def point(finite=True):
    """A point of the valid one's length: a bool, a shorter point and a stack of one point are not; nor, where ``finite``, a non-finite point."""

    def kind(valid):
        v = np.asarray(valid, dtype=float)
        return [True, v[:-1], v[None]] + _unconvertible(v) + (_non_finite(v) if finite else []), [v.tolist()]

    return kind


def vector(valid):
    """A finite 1-D array of any length."""
    v = np.asarray(valid, dtype=float)
    return [True, v[None]] + _unconvertible(v) + _non_finite(v), [v.tolist()]


def stack(valid):
    """A ``(P, 2N)`` stack of points, finite or not: a bool, shorter points and one 1-D point are not."""
    v = np.asarray(valid, dtype=float)
    return [True, v[:, :-1], v[0]] + _unconvertible(v), [v.tolist()]


def matrix(valid):
    """A finite matrix of the valid one's shape."""
    v = np.asarray(valid, dtype=float)
    return [True, v[0], v[:-1]] + _unconvertible(v) + _non_finite(v), [v.tolist()]


def symmetric(even=False):
    """A finite symmetric matrix, of even size where ``even``."""

    def kind(valid):
        v = np.asarray(valid, dtype=float)
        skew = v.copy()
        skew[0, 1] += 1.0
        return [True, v[:-1], skew] + _unconvertible(v) + _non_finite(v) + ([np.eye(3)] if even else []), [v.tolist()]

    return kind


def equilibrium(valid):
    """An equilibrium of the system's dimension with a finite ``z0``."""
    return [replace(valid, z0=np.zeros(valid.z0.size + 2)), replace(valid, z0=np.full(valid.z0.size, math.nan))], []


def orbit_of_system(valid):
    """An orbit of the system's dimension."""
    return [orbits.FourierOrbit(np.zeros(valid.a0.size + 2), np.zeros((valid.m, valid.a0.size + 2)), np.zeros((valid.m, valid.a0.size + 2)), 1.0)], []


def symmetry_of_system(valid):
    """A symmetry group whose generators act on the system's phase space."""
    return [model.SymmetryGroup((np.kron(np.eye(2), ROTATION),))], []


def generators(valid):
    """Square, even-sized, finite, skew generators commuting with J."""
    twist = np.zeros((4, 4))
    twist[0, 1], twist[1, 0] = -1.0, 1.0  # skew but not commuting with J
    bad = [(True,), (np.zeros((3, 3)),), (_entry(ROTATION, math.nan),), (np.eye(2),), (twist,)]
    return bad + [(x,) for x in _unconvertible(ROTATION)], [[ROTATION.tolist()]]


def lifted_generators(valid):
    """Finite ``n x n`` generators of the positions, here of R^1."""
    return [[ROTATION], [[[math.nan]]], [True]], [[[[0.0]]]]


def mean(valid):
    """A 1-D array of any length, finite or not: a bool and a stack of one point are not."""
    v = np.asarray(valid, dtype=float)
    return [True, v[None]] + _unconvertible(v), [v.tolist(), _entry(v, math.nan)]


def reversor(valid):
    """The diagonal of a reversor of R^2: entries +-1 with r[N:] = -r[:N]."""
    bad = [True, np.ones(3), np.array([1.0, 1.0]), np.array([math.nan, -math.nan]), np.array([2.0, -2.0])]
    return bad + _unconvertible(valid), [list(valid)]


@cache
def objects():
    """The harmonic oscillator with its equilibrium, report, candidate and one orbit, and the satellite."""
    har = model.preset("harmonic")
    eq = model.refine_equilibrium(har, np.zeros(2))
    (candidate,) = analysis.analyze(har, eq)
    orbit = orbits.solve_orbit(har, eq, candidate, 0.01, modes=2)
    report = analysis.spectral_report(har, eq)
    smap = degree._section_map(har, eq)
    return har, eq, report, candidate, orbit, smap, model.preset("satellite", omega=1.0, c=0.1)


def rows() -> dict:
    har, eq, report, candidate, orbit, smap, sat = objects()
    a = report.hessian
    monomials = ((0.5, (2, 0)), (0.5, (0, 2)))
    return {
        **{f"hambif.{name}": None for name in hambif.__all__},  # modules and the version
        # linalg
        "linalg.standard_symplectic": (linalg.standard_symplectic, {"n": (2, integer())}),
        "linalg.check_symmetric": (linalg.check_symmetric, {"a": (a, symmetric())}),
        "linalg.morse_index_negative": (linalg.morse_index_negative, {"a": (a, symmetric())}),
        # model
        "model.EARTH_J2": None,
        "model.SymmetryGroup": (model.SymmetryGroup, {"generators": ((ROTATION,), generators)}),
        "model.SymmetryGroup.element": (
            model.SymmetryGroup((ROTATION,)).element,
            {"index": (0, integer(0, 0)), "t": (0.3, real)},
        ),
        "model.HamiltonianSystem": (
            lambda n, symmetry, reversor: model.HamiltonianSystem(n=n, energy=len, symmetry=symmetry, reversor=reversor),
            {"n": (1, integer()), "symmetry": (model.SymmetryGroup(), symmetry_of_system), "reversor": (np.array([1.0, -1.0]), reversor)},
        ),
        "model.EquilibriumOrbit": None,  # a record refine_equilibrium fills
        "model.gradient_of": (lambda z: model.gradient_of(har, z), {"z": (np.ones(2), point(finite=False))}),
        "model.hessian_of": (lambda z: model.hessian_of(har, z), {"z": (np.ones(2), point(finite=False))}),
        "model.refine_equilibrium": (lambda guess: model.refine_equilibrium(har, guess), {"guess": (np.full(2, 0.1), point())}),
        "model.newtonian_to_hamiltonian": (
            lambda n, generators: model.newtonian_to_hamiltonian(lambda q: 0.5 * float(q @ q), n, generators=generators),
            {"n": (1, integer()), "generators": ((), lifted_generators)},
        ),
        "model.preset": (
            lambda omega, c, j2, r_eq: model.preset("satellite", omega=omega, c=c, j2=j2, r_eq=r_eq),
            {"omega": (1.0, positive), "c": (0.1, positive), "j2": (model.EARTH_J2, positive), "r_eq": (1.0, positive)},
        ),
        "model.preset_info": None,  # no arguments
        "model.preset_guess": (
            lambda omega, beta: (model.preset_guess("satellite", omega=omega), model.preset_guess("harmonic", beta=beta)),
            {"omega": (1.0, positive), "beta": (2.0, positive)},
        ),
        "model.satellite_equilibrium_distance": (model.satellite_equilibrium_distance, {"omega": (1.0, positive), "c": (0.1, positive)}),
        "model.gradient_equivariance_residual": (
            lambda probes, seed, base, spread: model.gradient_equivariance_residual(sat, probes, seed, base, spread),
            {"probes": (1, integer()), "seed": (3, integer(0)), "base": (np.full(6, 0.5), point()), "spread": (0.5, positive)},
        ),
        # analysis
        "analysis.SpectralReport": None,  # a record matrix_report fills
        "analysis.SpectralReport.beta": (report.beta, {"j0": (1, integer(1, 1))}),
        "analysis.ResonanceLevel": None,  # records resonance_set fills
        "analysis.ResonanceSet": None,
        "analysis.BifurcationCandidate": None,  # a record analyze fills
        "analysis.AnalyzeOptions": (analysis.AnalyzeOptions, {"j0": (1, integer(None, optional=True))}),  # out of range: NoSuchLevel in analyze
        "analysis.spectral_report": (lambda eq: analysis.spectral_report(har, eq), {"eq": (eq, equilibrium)}),
        "analysis.matrix_report": (analysis.matrix_report, {"a": (a, symmetric(even=True))}),
        "analysis.t_matrix": (analysis.t_matrix, {"a": (a, symmetric(even=True)), "k": (2, integer()), "lam": (0.5, positive)}),
        "analysis.resonance_set": (lambda k_max: analysis.resonance_set(report, k_max), {"k_max": (3, integer())}),
        "analysis.morse_jump": (
            lambda a, lambda0: analysis.morse_jump(a, lambda0, report),
            {"a": (a, symmetric()), "lambda0": (1.0, positive)},
        ),
        "analysis.check_szulkin_zj": (lambda j0: analysis.check_szulkin_zj(report, j0), {"j0": (1, integer(1, 1))}),
        "analysis.check_mplus": None,  # a report alone
        "analysis.newtonian_blocks": (analysis.newtonian_blocks, {"etas": ([1.0, 4.0], vector), "lam": (0.5, positive)}),
        "analysis.analyze": (lambda eq: analysis.analyze(har, eq), {"eq": (eq, equilibrium)}),
        # degree
        "degree.SectionMap": (
            lambda dim, radius: degree.SectionMap(dim, lambda u: np.asarray(u, dtype=float), radius),
            {"dim": (1, integer()), "radius": (0.1, positive)},
        ),
        "degree.DegreeReport": None,  # a record section_degree fills
        "degree.degree_nondegenerate": (lambda jac: degree.degree_nondegenerate(smap, jac), {"jac": (np.eye(smap.dim), matrix)}),
        "degree.degree_minimum": None,
        "degree.degree_regular_value": None,  # a SectionMap, and attempts and seed, ignored
        "degree.section_degree": (lambda eq: degree.section_degree(har, eq), {"eq": (eq, equilibrium)}),
        # orbits
        "orbits.FourierOrbit": (
            lambda a0, a, b: orbits.FourierOrbit(a0, a, b, 1.0),  # a solver's trial orbit may be non-finite
            {"a0": (orbit.a0, mean), "a": (orbit.a, stack), "b": (orbit.b, stack)},
        ),
        "orbits.FourierOrbit.mode_energies": (orbit.mode_energies, {"z0": (np.zeros(2), point())}),
        "orbits.Branch": None,  # a record continue_branch fills
        "orbits.kernel_direction": (lambda eq: orbits.kernel_direction(har, eq, candidate), {"eq": (eq, equilibrium)}),
        "orbits.residual_field": (
            lambda orbit, collocation_points: orbits.residual_field(har, orbit, collocation_points),
            {"orbit": (orbit, orbit_of_system), "collocation_points": (9, integer(2 * orbit.m + 1))},
        ),
        "orbits.solve_orbit": (
            lambda eq, amplitude_s, modes: orbits.solve_orbit(har, eq, candidate, amplitude_s, modes),
            {"eq": (eq, equilibrium), "amplitude_s": (0.01, amplitude), "modes": (2, integer(1, orbits.MAX_MODES))},
        ),
        "orbits.continue_branch": (
            lambda eq, steps, s0, growth, modes: orbits.continue_branch(har, eq, candidate, steps, s0, growth, modes),
            {
                "eq": (eq, equilibrium),
                "steps": (2, integer()),
                "s0": (0.01, amplitude),
                "growth": (2.0, positive),
                "modes": (2, integer(1, orbits.MAX_MODES)),
            },
        ),
        "orbits.minimal_period_check": None,  # an orbit alone
        "orbits.transform_orbit": (
            lambda rotation, time_shift: orbits.transform_orbit(orbit, rotation, time_shift),
            {"rotation": (ROTATION, matrix), "time_shift": (0.3, real)},
        ),
        "orbits.orbit_energy_range": (lambda orbit: orbits.orbit_energy_range(har, orbit), {"orbit": (orbit, orbit_of_system)}),
        "orbits.sup_distance": (lambda z0: orbits.sup_distance(orbit, z0), {"z0": (np.zeros(2), point())}),
        # cli: RunConfig applies the kinds at parse time, as ConfigParse
        "cli.RunConfig": (
            lambda n, j0, steps, s0, growth, modes: cli.RunConfig(
                n=n, monomials=monomials, j0=j0, steps=steps, s0=s0, growth=growth, modes=modes
            ),
            {
                "n": (1, integer(optional=True)),  # None: a preset's own dimension, or unset
                "j0": (1, integer(optional=True)),  # None: every level
                "steps": (3, integer()),
                "s0": (0.01, amplitude),
                "growth": (2.0, positive),
                "modes": (4, integer(1, orbits.MAX_MODES)),
            },
        ),
        "cli.parse_config": None,  # text; its values reach RunConfig
        "cli.main": None,  # argv; its values reach RunConfig
        "cli.console_entry": None,
        "cli.cmd_analyze": None,  # a RunConfig
        "cli.cmd_branch": None,
        "cli.cmd_presets": None,  # a format name and a path
    }


def test_every_public_name_has_a_row():
    public = {f"{name}.{entry}" for name, module in MODULES.items() for entry in module.__all__}
    table = set(rows())
    assert public - table == set(), "public names without a row"
    assert {name for name in table - public if name.rsplit(".", 1)[0] not in public} == set(), "rows of no public name"


def _message(call, arguments) -> str:
    """The message of the ``ValueError`` or ``HambifError`` that ``call(**arguments)`` raises."""
    try:
        call(**arguments)
    except (ValueError, HambifError) as exc:
        return str(exc)
    pytest.fail(f"no error for {arguments}")


@pytest.mark.parametrize("name", [name for name, row in rows().items() if row])
def test_each_argument_of_a_public_name_is_checked_at_its_entry(name):
    call, arguments = rows()[name]
    valid = {arg: value for arg, (value, _) in arguments.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**valid)
        for arg, (value, kind) in arguments.items():
            bad_values, good_values = kind(value)
            for good in good_values:
                call(**{**valid, arg: good})
            for bad in bad_values:
                message = _message(call, {**valid, arg: bad})
                assert re.match(rf"{re.escape(arg)}\b", message), f"{name}: {arg}={bad!r} gave {message!r}"


def _holes() -> dict:
    har, eq, report, candidate, orbit, smap, sat = objects()
    nan_z0 = np.array([math.nan, 0.0])
    return {
        "analyze-j0-true": (lambda: analysis.analyze(har, eq, analysis.AnalyzeOptions(j0=True)), "j0 must be an integer, got True"),
        "analyze-j0-float": (lambda: analysis.analyze(har, eq, analysis.AnalyzeOptions(j0=1.0)), "j0 must be an integer, got 1.0"),
        # NoImaginaryPairs, raised from the report before k_max was read
        "resonance-set-k-max-0-of-a-report-without-pairs": (
            lambda: analysis.resonance_set(analysis.matrix_report(np.diag([1.0, -1.0])), k_max=0),
            "k_max must be an integer of at least 1, got 0",
        ),
        "morse-jump-lambda0-true": (
            lambda: analysis.morse_jump(report.hessian, True, report),
            "lambda0 must be positive and finite, got True",
        ),
        "system-n-0": (lambda: model.HamiltonianSystem(n=0, energy=len), "n must be an integer of at least 1, got 0"),
        "system-n-negative": (lambda: model.HamiltonianSystem(n=-1, energy=len), "n must be an integer of at least 1, got -1"),
        "system-n-true": (lambda: model.HamiltonianSystem(n=True, energy=len), "n must be an integer of at least 1, got True"),
        "sup-distance-nan": (lambda: orbits.sup_distance(orbit, nan_z0), "z0 must be finite, got nan"),
        "mode-energies-nan": (lambda: orbit.mode_energies(nan_z0), "z0 must be finite, got nan"),
        "symplectic-n-fraction": (lambda: linalg.standard_symplectic(1.5), "n must be an integer of at least 1, got 1.5"),
        "symplectic-n-true": (lambda: linalg.standard_symplectic(True), "n must be an integer of at least 1, got True"),
        "rotation-of-another-space": (
            lambda: orbits.transform_orbit(orbit, rotation=np.eye(3)),
            "rotation must have shape (2, 2), got (3, 3)",
        ),
        "equivariance-spread-nan": (
            lambda: model.gradient_equivariance_residual(sat, 2, spread=math.nan),
            "spread must be positive and finite, got nan",
        ),
        "analyze-eq-of-another-system": (lambda: analysis.analyze(sat, eq), "eq.z0 must have shape (6,), got (2,)"),
        "lift-of-a-generator-of-another-space": (
            lambda: model.newtonian_to_hamiltonian(len, 1, generators=[ROTATION]),
            "generators must have shape (1, 1), got (2, 2)",
        ),
        # numpy's own errors, which named no argument: "could not convert string to float",
        # "inhomogeneous shape" and a bare TypeError
        "gradient-of-a-string": (
            lambda: model.gradient_of(sat, "1 0 0 0 -1 0"),
            "z must be a float array, got '1 0 0 0 -1 0'",
        ),
        "refine-from-a-dict": (
            lambda: model.refine_equilibrium(sat, {"a": 1}),
            "guess must be a float array, got {'a': 1}",
        ),
        "ragged-generator": (
            lambda: model.SymmetryGroup(([[0.0, -1.0], [1.0]],)),
            "generators[0] must be a float array, got [[0.0, -1.0], [1.0]]",
        ),
        "reversor-a-string": (
            lambda: model.HamiltonianSystem(n=1, energy=len, reversor="ab"),
            "reversor must be a float array, got 'ab'",
        ),
        # numpy's "zero-size array to reduction operation maximum which has no identity"
        "empty-generator": (
            lambda: model.SymmetryGroup((np.zeros((0, 0)),)),
            "generators[0] must be square of positive even size, got shape (0, 0)",
        ),
        # "n must be an integer of at least 1, got 0", which names no argument of the call
        "matrix-report-of-an-empty-matrix": (
            lambda: analysis.matrix_report(np.zeros((0, 0))),
            "a must act on a non-empty even-dimensional space, got shape (0, 0)",
        ),
        "t-matrix-of-an-empty-matrix": (
            lambda: analysis.t_matrix(np.zeros((0, 0)), 1, 1.0),
            "a must act on a non-empty even-dimensional space, got shape (0, 0)",
        ),
        # broadcast to every component: the numbers of [[0.1, 0.1]], half of them for mode_energies
        "orbit-rows-of-width-1": (
            lambda: orbits.FourierOrbit(np.zeros(2), [[0.1]], [[0.1]], 1.0),
            "a must have shape (P, 2), got (1, 1)",
        ),
        # a section map of dim 2 whose values have one component got a degree
        "section-map-of-short-values": (
            lambda: degree.SectionMap(2, lambda u: np.zeros(1), 0.1),
            "evaluator(0) must have shape (2,), got (1,)",
        ),
        "symmetry-of-another-space": (
            lambda: model.HamiltonianSystem(n=1, energy=len, symmetry=model.SymmetryGroup((np.kron(np.eye(2), ROTATION),))),
            "symmetry acts on R^4, but the system is on R^2",
        ),
    }


@pytest.mark.parametrize("case", list(_holes()))
def test_each_hole_is_a_typed_error_naming_its_argument(case):
    call, message = _holes()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
