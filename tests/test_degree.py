from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hambif import analysis, cli, degree, model
from hambif.errors import BoundaryZero, Degenerate, NoConvergence, NotAMinimum


def make_map(dim, evaluator, radius=0.5):
    return degree.SectionMap(dim=dim, evaluator=evaluator, radius=radius)


def test_section_map_requires_zero_at_origin():
    with pytest.raises(ValueError):
        make_map(2, lambda u: u + 1.0)


def test_reduced_degree_raises_where_the_range_equation_leaves_the_ball():
    # F(c, y) = (c^3 + c y, y - 1e4 c^2): the range equation's solution y = 1e4 c^2
    # is 0.25 at |c| = r / 2 = 5e-3, far outside the ball of radius 1e-2
    smap = make_map(2, lambda u: np.array([u[0] ** 3 + u[0] * u[1], u[1] - 1e4 * u[0] ** 2]), radius=1e-2)
    with pytest.raises(NoConvergence, match="range equation unsolved"):
        degree._degree_reduced(smap)


def test_nondegenerate_identity():
    smap = make_map(2, lambda u: u)
    assert degree.degree_nondegenerate(smap, np.eye(2)) == 1


def test_nondegenerate_minus_identity_odd_dim():
    smap = make_map(3, lambda u: -u)
    assert degree.degree_nondegenerate(smap, -np.eye(3)) == -1


def test_nondegenerate_rejects_singular():
    smap = make_map(2, lambda u: np.array([u[0], 0.0 * u[1]]))
    with pytest.raises(Degenerate):
        degree.degree_nondegenerate(smap, np.diag([1.0, 0.0]))


def test_minimum_path():
    smap = make_map(2, lambda u: u)
    assert degree.degree_minimum(smap) == 1


def test_minimum_rejects_saddle():
    smap = make_map(2, lambda u: np.array([u[0], -u[1]]))
    with pytest.raises(NotAMinimum):
        degree.degree_minimum(smap)


def test_minimum_rejects_a_reduced_degree_of_zero():
    # F(u) = u^2 has a kernel at 0 and no sign change on it
    smap = make_map(1, lambda u: u**2)
    with pytest.raises(NotAMinimum, match=r"reduced degree is \+0, not \+1"):
        degree.degree_minimum(smap)


def test_regular_value_identity_and_reflection():
    assert degree.degree_regular_value(make_map(2, lambda u: u), seed=0) == 1
    assert degree.degree_regular_value(make_map(3, lambda u: -u), seed=0) == -1


def complex_square(u):
    return np.array([u[0] ** 2 - u[1] ** 2, 2.0 * u[0] * u[1]])


def test_regular_value_complex_square():
    smap = make_map(2, complex_square, radius=0.4)
    # oracle: a regular value y has exactly the two complex square roots as
    # preimages, both orientation-preserving, hence degree +2
    assert degree.degree_regular_value(smap, attempts=96, seed=1) == 2


def test_regular_value_seed_stability():
    smap = make_map(2, complex_square, radius=0.4)
    values = {degree.degree_regular_value(smap, attempts=96, seed=s) for s in (0, 7, 123)}
    assert values == {2}


def test_regular_value_boundary_zero():
    # kernel dimension 2; the reduced field is sampled on the circle of half
    # the map radius, where this one vanishes, so no degree can be certified
    r = 0.15

    def vanishing_on_circle(u):
        return (float(u @ u) - r * r) * complex_square(u)

    with pytest.raises(BoundaryZero):
        degree.degree_regular_value(make_map(2, vanishing_on_circle, radius=2.0 * r), seed=0)


def test_winding_number_bisects_arcs_it_cannot_resolve():
    # the angle of u^5 turns by 5 pi / 8 between the 16 first samples, past
    # the pi / 2 limit, so every arc needs a midpoint
    calls = []

    def fifth_power(u):
        calls.append(u)
        w = complex(u[0], u[1]) ** 5
        return np.array([w.real, w.imag])

    assert degree._winding_number(fifth_power, 0.5) == 5
    assert len(calls) > 16


def test_winding_number_gives_up_on_a_field_vanishing_on_the_circle():
    # on |u| = r, u @ u - r^2 is rounding noise of either sign or 0, so the
    # sampled angles jump by pi however finely the arcs are split
    r = 0.15
    with pytest.raises(BoundaryZero, match="1024 samples"):
        degree._winding_number(lambda u: (float(u @ u) - r * r) * u, r)


def test_reduced_rejects_kernel_beyond_two():
    smap = make_map(3, lambda u: float(u @ u) * u)
    with pytest.raises(Degenerate):
        degree._degree_reduced(smap)


def test_homotopy_scaling_invariance():
    for scale in (0.25, 7.3):
        smap = make_map(2, lambda u, s=scale: s * complex_square(u), radius=0.4)
        assert degree.degree_regular_value(smap, attempts=96, seed=2) == 2
    smap_lin = make_map(2, lambda u: 5.0 * u)
    assert degree.degree_nondegenerate(smap_lin, 5.0 * np.eye(2)) == 1
    assert degree.degree_minimum(smap_lin) == 1
    assert degree.degree_regular_value(smap_lin, seed=3) == 1


def test_path_consistency_on_minimum():
    smap = make_map(3, lambda u: u)
    assert degree.degree_nondegenerate(smap, np.eye(3)) == 1
    assert degree.degree_minimum(smap) == 1
    assert degree.degree_regular_value(smap, seed=4) == 1


def test_section_degree_quadratic_system():
    sys = model.HamiltonianSystem(
        n=1,
        energy=lambda z: 0.5 * float(z @ z),
        gradient=lambda z: z,
        hessian=lambda z: np.eye(2),
    )
    eq = model.refine_equilibrium(sys, np.array([0.1, -0.2]))
    rep = degree.section_degree(sys, eq)
    assert rep.value == 1
    assert rep.path == "nondegenerate"
    assert rep.value is not None


def test_section_degree_satellite():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0, 0, 0, -1.0, 0.0]))
    rep = degree.section_degree(sat, eq)
    assert rep.path == "nondegenerate"
    assert rep.value in (-1, 1)
    # sign matches the parity of negative eigenvalues of the section Hessian
    w = np.linalg.eigvalsh(eq.section_basis.T @ model.hessian_of(sat, eq.z0) @ eq.section_basis)
    assert rep.value == (-1 if int(np.sum(w < 0)) % 2 else 1)


def test_section_degree_minimum_fallback():
    # flat-bottom quartic: singular Hessian at 0, isolated minimum
    sys = model.HamiltonianSystem(
        n=1,
        energy=lambda z: 0.25 * float(z @ z) ** 2,
        gradient=lambda z: float(z @ z) * z,
        hessian=lambda z: float(z @ z) * np.eye(2) + 2.0 * np.outer(z, z),
    )
    eq = model.refine_equilibrium(sys, np.array([1e-4, -1e-4]))
    rep = degree.section_degree(sys, eq)
    assert rep.path == "reduced"
    assert rep.value == 1
    assert rep.value is not None


def inline_system(n, monomials):
    system, guess = cli.build_system(cli.parse_config(f"[system]\nn = {n}\nmonomials = {monomials}\n"))
    return system, model.refine_equilibrium(system, guess)


@pytest.mark.parametrize(
    "n, monomials, expected",
    [
        # H = (q1^2 + p1^2 - p2^2) / 2 + q2^4 / 4: A_R has one negative
        # eigenvalue and g(c) = c^3, so the degree is -1
        (2, "0.5 2 0 0 0 ; 0.5 0 0 2 0 ; -0.5 0 0 0 2 ; 0.25 0 4 0 0", -1),
        # H = (q1^2 + p1^2 + p2^2) / 2 + q2^3 / 3: g(c) = c^2 has degree 0
        (2, "0.5 2 0 0 0 ; 0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.3333333333333333 0 3 0 0", 0),
        # H = q^3 / 3 - q p^2: grad H = conj((q + i p)^2), kernel dimension 2
        (1, "0.3333333333333333 3 0 ; -1 1 2", -2),
        # H = (q^2 + p^2)^2 / 4: the flat quartic, kernel dimension 2
        (1, "0.25 4 0 ; 0.5 2 2 ; 0.25 0 4", 1),
    ],
    ids=["poly-regular-value", "cubic", "conjugate-square", "flat-quartic"],
)
def test_section_degree_reduced_path(n, monomials, expected):
    system, eq = inline_system(n, monomials)
    rep = degree.section_degree(system, eq)
    assert (rep.value, rep.path, rep.value is not None) == (expected, "reduced", True)


def test_reduced_path_evaluates_the_section_field_at_the_origin_once():
    # |F(0)| is the noise estimate of the reduced field; the section map
    # evaluates it on construction and the reduction reads it from there
    plain, eq = inline_system(2, "0.5 2 0 0 0 ; 0.5 0 0 2 0 ; -0.5 0 0 0 2 ; 0.25 0 4 0 0")
    at_z0 = [0]

    def counted_gradient(z):
        at_z0[0] += int(np.array_equal(z, eq.z0))
        return plain.gradient(z)

    rep = degree.section_degree(replace(plain, gradient=counted_gradient), eq)
    assert (rep.value, rep.path) == (-1, "reduced")
    assert at_z0[0] == 1


def test_section_degree_without_a_certificate_has_no_value():
    # H = (q1^4 + q2^4 + p1^4 + p2^4) / 4: the whole section is kernel
    system, eq = inline_system(2, "0.25 4 0 0 0 ; 0.25 0 4 0 0 ; 0.25 0 0 4 0 ; 0.25 0 0 0 4")
    rep = degree.section_degree(system, eq)
    assert (rep.value, rep.path, rep.value is not None) == (None, "reduced", False)
    assert "dimension 4" in rep.detail


def test_section_degree_far_from_the_origin():
    # |F(0)| = 1.5e-8 at |z0| = 8.05e7 is refinement noise, under the
    # origin bound 1e-7 * radius = 8.05e-3
    text = (Path(__file__).parent / "data" / "far-section.ini").read_text(encoding="utf-8")
    system, guess = cli.build_system(cli.parse_config(text))
    eq = model.refine_equilibrium(system, guess)
    rep = degree.section_degree(system, eq)
    assert (rep.value, rep.path, rep.value is not None, rep.detail) == (1, "nondegenerate", True, "")


def test_a_section_field_not_zero_at_z0_leaves_each_candidate_inconclusive():
    # z0 moved off the equilibrium: the section map's origin check raised a
    # ValueError out of analyze instead of downgrading the candidates
    sat = model.preset("satellite", omega=1.0, c=0.1)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]))
    moved = replace(eq, z0=eq.z0 + 1e-3)
    rep = degree.section_degree(sat, moved)
    assert (rep.value, rep.path) == (None, "nondegenerate")
    assert rep.detail.startswith("section map must vanish at the origin, got |F(0)|=")
    candidates = analysis.analyze(sat, moved)
    assert [c.verdict for c in candidates] == ["inconclusive"] * 2
    assert all(any(rep.detail in reason for reason in c.reasons) for c in candidates)


def test_section_degree_detail_names_the_kernel():
    system, eq = inline_system(2, "0.5 2 0 0 0 ; 0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.3333333333333333 0 3 0 0")
    rep = degree.section_degree(system, eq)
    assert (rep.value, rep.path, rep.detail) == (0, "reduced", "section Hessian has a near-zero eigenvalue")
