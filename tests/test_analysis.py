import re
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hambif import analysis, cli, degree, linalg, model, orbits
from hambif.errors import Degenerate, EmptyKernel, NoImaginaryPairs, NonSymmetric, NoSuchLevel, NotASymmetry

DATA = Path(__file__).parent / "data"


def random_definite_matrix(rng, two_n, low=0.5, high=2.5):
    # controlled positive spectrum -> J A has purely imaginary spectrum
    q, _ = np.linalg.qr(rng.standard_normal((two_n, two_n)))
    return q @ np.diag(rng.uniform(low, high, size=two_n)) @ q.T


def quadratic(a):
    """``H = z . A z / 2`` with its exact derivatives, and its equilibrium 0 as a record, so ``A`` may be singular."""
    a = np.asarray(a, dtype=float)
    system = model.HamiltonianSystem(
        n=len(a) // 2, energy=lambda z: 0.5 * float(z @ a @ z), gradient=lambda z: a @ z, hessian=lambda z: a
    )
    eq = model.EquilibriumOrbit(
        z0=np.zeros(len(a)), hessian=a, gradient_norm=0.0, section_basis=np.eye(len(a)), orbit_generators=()
    )
    return system, eq


def test_t_matrix_frozen_2x2_case():
    t = analysis.t_matrix(np.eye(2), 1, 1.0)
    expected = np.array(
        [
            [-1.0, 0.0, 0.0, -1.0],
            [0.0, -1.0, 1.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [-1.0, 0.0, 0.0, -1.0],
        ]
    )
    assert np.array_equal(t, expected)
    assert abs(np.linalg.det(t)) < 1e-14
    assert np.array_equal(t[0], t[3])  # rows coincide, singular by construction


def test_t_matrix_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(10):
        two_n = int(rng.choice([2, 4, 6]))
        a = rng.standard_normal((two_n, two_n))
        a = 0.5 * (a + a.T)
        t = analysis.t_matrix(a, int(rng.integers(1, 6)), float(rng.uniform(0.1, 3.0)))
        assert np.array_equal(t, t.T)


def test_t_matrix_small_lambda_morse_index():
    rng = np.random.default_rng(1)
    for two_n in (2, 4, 6):
        a = rng.standard_normal((two_n, two_n))
        a = 0.5 * (a + a.T)
        t = analysis.t_matrix(a, 3, 1e-9)
        assert linalg.morse_index_negative(t) == two_n


def test_spectral_report_harmonic():
    sys = model.preset("harmonic", beta=1.0)
    eq = model.refine_equilibrium(sys, np.array([0.2, -0.1]))
    rep = analysis.spectral_report(sys, eq)
    assert len(rep.betas) == 1
    assert abs(rep.betas[0] - 1.0) < 1e-10
    assert rep.m_plus == 2
    assert rep.kernel_dim == 0


def test_spectral_report_satellite():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0, 0, 0, -1.0, 0.0]))
    rep = analysis.spectral_report(sat, eq)
    assert rep.kernel_dim == 1
    w = np.sort(rep.hessian_eigenvalues)
    assert min(abs(w - 1.0)) < 1e-10
    assert min(abs(w - 2.0)) < 1e-10  # 1 + omega^2
    assert rep.m_plus in (2, 4)
    assert len(rep.betas) == 2 and rep.betas[0] > rep.betas[1]


def test_resonance_set_merges_contributors():
    rep = analysis.matrix_report(np.diag([4.0, 1.0, 1.0, 1.0]))  # betas 2, 1
    assert np.allclose(rep.betas, [2.0, 1.0], atol=1e-12)
    rs = analysis.resonance_set(rep, k_max=3)
    assert np.allclose(rs.values(), [0.5, 1.0, 1.5, 2.0, 3.0], atol=1e-9)
    merged = rs.entries[1]
    assert set(merged.contributors) == {(2, 1), (1, 2)}


def test_resonance_set_single_beta():
    rep = analysis.matrix_report(np.eye(2))
    rs = analysis.resonance_set(rep, k_max=2)
    assert np.allclose(rs.values(), [1.0, 2.0], atol=1e-12)


def test_resonance_set_requires_imaginary_pairs():
    rep = analysis.matrix_report(np.diag([1.0, -1.0]))
    assert rep.betas == ()
    with pytest.raises(NoImaginaryPairs):
        analysis.resonance_set(rep, k_max=3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: analysis.matrix_report(np.eye(3)), "even-dimensional"),
        (lambda: analysis.t_matrix(np.eye(2), 0, 1.0), "k must be an integer of at least 1, got 0"),
        (lambda: analysis.t_matrix(np.eye(2), 1, 0.0), "lam must be positive and finite, got 0.0"),
        (lambda: analysis.t_matrix(np.eye(3), 1, 1.0), "even-dimensional"),
        (lambda: analysis.resonance_set(analysis.matrix_report(np.eye(2)), k_max=0), "k_max must be an integer of at least 1, got 0"),
        (lambda: analysis.morse_jump(np.eye(2), 0.0, analysis.matrix_report(np.eye(2))), "lambda0 must be positive"),
        (lambda: analysis.t_matrix(np.eye(2), 1, np.nan), "lam must be positive and finite, got nan"),
        (lambda: analysis.t_matrix(np.eye(2), 1, np.inf), "lam must be positive and finite, got inf"),
        (lambda: analysis.morse_jump(np.eye(2), np.nan, analysis.matrix_report(np.eye(2))), "lambda0 must be positive and finite, got nan"),
        (lambda: analysis.morse_jump(np.eye(2), np.inf, analysis.matrix_report(np.eye(2))), "lambda0 must be positive and finite, got inf"),
    ],
    ids=[
        "odd-matrix-report",
        "t-matrix-k-0",
        "t-matrix-lam-0",
        "t-matrix-odd",
        "k-max-0",
        "morse-jump-lambda0-0",
        "t-matrix-lam-nan",
        "t-matrix-lam-inf",
        "morse-jump-lambda0-nan",
        "morse-jump-lambda0-inf",
    ],
)
def test_bad_arguments_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
def test_mode_counts_must_be_integers(bad):
    # t_matrix gave a "mode-1.5" matrix, and resonance_set took True as 1 and raised range()'s TypeError on 2.5
    report = analysis.matrix_report(np.diag([1.0, 2.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match=f"k must be an integer of at least 1, got {re.escape(repr(bad))}"):
        analysis.t_matrix(np.eye(2), bad, 1.0)
    with pytest.raises(ValueError, match=f"k_max must be an integer of at least 1, got {re.escape(repr(bad))}"):
        analysis.resonance_set(report, k_max=bad)


def test_numpy_integer_mode_counts_are_accepted():
    report = analysis.matrix_report(np.diag([1.0, 2.0, 1.0, 1.0]))
    assert analysis.resonance_set(report, k_max=np.int32(3)) == analysis.resonance_set(report, k_max=3)
    assert np.array_equal(analysis.t_matrix(np.eye(2), np.int64(2), 1.0), analysis.t_matrix(np.eye(2), 2, 1.0))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [analysis.matrix_report, lambda a: analysis.t_matrix(a, 1, 1.0)], ids=["matrix-report", "t-matrix"])
def test_a_non_finite_matrix_is_rejected_before_any_arithmetic(call, value):
    # a non-finite entry made matrix_report warn "invalid value encountered"
    # and t_matrix return NaN blocks; it is now named in a typed error
    a = np.eye(4)
    a[2, 1] = a[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonSymmetric, match=rf"non-finite entry {value} at \(1, 2\)"):
            call(a)


def test_resonance_singularity_cross_check():
    rng = np.random.default_rng(4)
    rep = analysis.matrix_report(random_definite_matrix(rng, 4))
    rs = analysis.resonance_set(rep, k_max=4)
    for level in rs.entries:
        k = level.contributors[0][0]
        t = analysis.t_matrix(rep.hessian, k, level.lam)
        assert np.min(np.abs(np.linalg.eigvalsh(t))) < 1e-10
    lam_values = rs.values()
    probe = 0.5 * (lam_values[0] + lam_values[1])
    if np.min(np.abs(lam_values - probe)) > 1e-3:
        for k in range(1, 5):
            t = analysis.t_matrix(rep.hessian, k, probe)
            assert np.min(np.abs(np.linalg.eigvalsh(t))) > 1e-6


def test_nonresonance_checks():
    cands = analysis.analyze(*quadratic(np.diag([9.0, 4.0, 1.0, 1.0])))
    assert np.allclose([c.beta for c in cands], [3.0, 2.0], atol=1e-12)
    # the largest beta always passes, and 3/2 is not an integer
    assert [c.nonresonant for c in cands] == [True, True]

    cands2 = analysis.analyze(*quadratic(np.diag([4.0, 1.0, 1.0, 1.0])))  # betas 2, 1
    assert [c.nonresonant for c in cands2] == [True, False]  # 2/1 = 2
    assert analysis._index_components(analysis.matrix_report(np.diag([4.0, 1.0, 1.0, 1.0])), 1.0) == {(2, 1): 2, (1, 2): 2}


def lattice_report(rng, n):
    """Report of a quadratic H whose frequencies are integer multiples of one base, each off by 0 or 1e-12..1e-7 relative.

    Block-diagonal in canonical (q_i, p_i) pairs, some negative definite,
    conjugated by the orthogonal symplectic ``[[X, -Y], [Y, X]]`` of a random
    unitary ``X + iY``, which keeps the spectrum of J A.
    """
    offsets = rng.choice([0.0, 1.0], n) * rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, -7, n)
    freq = rng.uniform(0.5, 1.5) * rng.integers(1, 5, n) * (1.0 + offsets)
    ratio, sign = rng.uniform(0.5, 2.0, n), rng.choice([-1.0, 1.0], n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = np.block([[u.real, -u.imag], [u.imag, u.real]])
    a = s @ np.diag(np.concatenate([sign * freq * ratio, sign * freq / ratio])) @ s.T
    return analysis.matrix_report(0.5 * (a + a.T))


def test_every_resonance_reader_takes_the_contributors_rule():
    rng = np.random.default_rng(27)
    for trial in range(60):
        rep = lattice_report(rng, 1 + trial % 4)
        m = len(rep.betas)
        system, eq = quadratic(rep.hessian)
        cands = analysis.analyze(system, eq)
        assert [c.j0 for c in cands] == list(range(1, m + 1))
        for cand in cands:
            assert cand.nonresonant == (rep.contributors(cand.lambda0) == ((1, cand.j0),))
        ladder = [k / beta for beta in rep.betas for k in range(1, 6)]
        for lam in ladder + [lam * (1.0 + 3e-9) for lam in ladder]:
            pairs = rep.contributors(lam)
            # the k = round(lam beta_j) shortcut finds every pair of the brute-force k <= 5 ladder
            brute = {
                (k, j) for j, beta in enumerate(rep.betas, 1) for k in range(1, 6) if abs(k / beta - lam) <= 1e-9 * lam
            }
            assert {p for p in pairs if p[0] <= 5} == brute
            ones = [j for k, j in pairs if k == 1]
            pos, neg, kernel = rep.inertias[ones[0] - 1] if ones else (0, 0, 0)
            if kernel:
                with pytest.raises(Degenerate):
                    analysis.morse_jump(rep.hessian, lam, rep)
            else:
                assert analysis.morse_jump(rep.hessian, lam, rep) == pos - neg
            for j0 in range(m + 2):
                candidate = SimpleNamespace(j0=j0, lambda0=lam)
                if (1, j0) in pairs:
                    orbits.kernel_direction(system, eq, candidate)
                else:
                    with pytest.raises(EmptyKernel):
                        orbits.kernel_direction(system, eq, candidate)
        for level in analysis.resonance_set(rep, k_max=5).entries:
            assert level.contributors == tuple(p for p in rep.contributors(level.lam) if p[0] <= 5)


RESONANT_INLINE = "0.5 2 0 0 0 ; -2 0 2 0 0 ; 0.5 0 0 2 0 ; -0.5 0 0 0 2 ; 0.25 4 0 0 0 ; 0.25 0 4 0 0"


def _index_table_sources():
    """``(name, system, eq)`` of every analyzing source: the satellite's three evaluator variants, the analyzing
    ``tests/data/*.ini`` and the resonant inline example (``H = (p1^2 + q1^2)/2 - (p2^2 + 4 q2^2)/2 + quartics``)."""
    sat = model.preset("satellite", omega=1.0, c=0.1)
    for name, system in [
        ("satellite", sat),
        ("satellite-gradient-only", replace(sat, hessian=None)),
        ("satellite-energy-only", replace(sat, gradient=None, hessian=None)),
    ]:
        yield name, system, model.refine_equilibrium(system, model.preset_guess("satellite", omega=1.0, c=0.1))
    for path in sorted(DATA.glob("*.ini")):
        system, guess = cli.build_system(cli.parse_config(path.read_text(encoding="utf-8")))
        if path.stem not in ("broken-symmetry", "overflow-guess"):  # no equilibrium to analyze
            yield path.stem, system, model.refine_equilibrium(system, guess)
    system, guess = cli.build_system(cli.parse_config(f"[system]\nn = 2\nmonomials = {RESONANT_INLINE}\n"))
    yield "resonant-inline", system, model.refine_equilibrium(system, guess)


def _check_index_tables(rep) -> dict:
    """Each level's index table against ``contributors`` and ``morse_jump``; the tables by j0."""
    tables = {}
    for j0, beta in enumerate(rep.betas, start=1):
        table = tables[j0] = analysis._index_components(rep, 1.0 / beta)
        assert list(table) == list(rep.contributors(1.0 / beta))
        assert [pair for pair in table if pair[0] == 1] == [(1, j0)]
        if table[1, j0] is None:
            with pytest.raises(Degenerate):
                analysis.morse_jump(rep.hessian, 1.0 / beta, rep)
        else:
            assert analysis.morse_jump(rep.hessian, 1.0 / beta, rep) == table[1, j0]
    return tables


def test_one_index_table_gives_each_levels_contributors_jump_and_nonresonance():
    seen = set()
    for name, system, eq in _index_table_sources():
        tables = _check_index_tables(analysis.spectral_report(system, eq))
        for cand in analysis.analyze(system, eq):
            table = tables[cand.j0]
            assert (cand.morse_jump, cand.nonresonant) == (table[1, cand.j0], list(table) == [(1, cand.j0)]), name
        seen.add(name)
    assert len(seen) == 14  # 3 satellites, 10 configs and the inline example, the last source
    # its beta = 1 level (j0 = 2) meets the mode-2 level of beta = 2: two entries, its own jump +2
    top = analysis.analyze(system, eq)[1]
    assert abs(top.beta - 1.0) < 1e-12
    assert (tables[2], top.morse_jump, top.degree_on_section) == ({(2, 1): -2, (1, 2): 2}, 2, 1)
    assert (top.nonresonant, top.verdict, top.theorem_path) == (False, "inconclusive", None)
    assert top.reasons == ("resonant level; multi-mode jump analysis not implemented and no global criterion applies",)
    pytest.importorskip("scipy")  # the acceptance suite's lattice matrices take scipy's expm
    import test_acceptance

    rng = np.random.default_rng(2024)
    for i in range(20):
        _check_index_tables(test_acceptance._random_symmetric_with_pairs(rng, [2, 4, 6][i % 3])[1])


def test_nonresonance_cost_does_not_grow_with_the_level_ratio():
    # a k ladder reaching the level 1 from 1/300000 takes seconds
    a = np.diag([3e5, 1.0, 3e5, 1.0])  # betas 3e5, 1
    rep = analysis.matrix_report(a)
    start = time.perf_counter()
    tables = [analysis._index_components(rep, 1.0 / beta) for beta in rep.betas]
    assert time.perf_counter() - start < 0.01
    assert tables == [{(1, 1): 2}, {(300000, 1): 2, (1, 2): 2}]
    assert [c.nonresonant for c in analysis.analyze(*quadratic(a))] == [True, False]


def test_morse_jump_harmonic():
    rep = analysis.matrix_report(np.eye(2))
    jump = analysis.morse_jump(np.eye(2), 1.0, rep)
    assert abs(jump) == 2
    # explicit two-sided eigenvalue oracle: eigenvalues of T are -lam +/- 1, double
    for lam, expected in [(0.9, 2), (1.1, 4)]:
        t = analysis.t_matrix(np.eye(2), 1, lam)
        assert linalg.morse_index_negative(t) == expected
    assert jump == 4 - 2


def test_morse_jump_newtonian_blocks():
    # simple positive stiffness eigenvalue eta -> jump 2 * multiplicity
    for etas, beta, expected in [
        ([2.0, 0.3], np.sqrt(2.0), 2),
        ([2.0, 2.0, 0.3], np.sqrt(2.0), 4),
    ]:
        n = len(etas)
        a = np.diag(np.concatenate([np.asarray(etas), np.ones(n)]))
        rep = analysis.matrix_report(a)
        assert analysis.morse_jump(a, 1.0 / beta, rep) == expected


def test_morse_jump_away_from_levels():
    rep = analysis.matrix_report(np.eye(2))
    assert analysis.morse_jump(np.eye(2), 0.7, rep) == 0


def interval_jump(a, lambda0, report):
    """Reference: T_1's negative index at both ends of an interval isolating lambda0.

    The interval ``[lambda0 (1 - eps), lambda0 (1 + eps)]`` starts at
    eps = 1e-2 and halves until no other level k/beta_j (k <= 20) lies in it.
    """
    lams = analysis.resonance_set(report, k_max=20).values()
    others = lams[np.abs(lams - lambda0) > 1e-9 * lambda0]
    eps = 1e-2
    while np.any(np.abs(others - lambda0) <= eps * lambda0):
        eps *= 0.5
        assert eps >= 1e-10
    lo, hi = lambda0 * (1.0 - eps), lambda0 * (1.0 + eps)
    t_lo, t_hi = analysis.t_matrix(a, 1, lo), analysis.t_matrix(a, 1, hi)
    return linalg.morse_index_negative(t_hi) - linalg.morse_index_negative(t_lo)


def random_symplectic(rng, n):
    """Product of two symmetric shears and a block-diagonal ``diag(M, M^-T)``."""
    eye, zero = np.eye(n), np.zeros((n, n))
    b, c, m = (0.3 / np.sqrt(n) * rng.standard_normal((n, n)) for _ in range(3))
    m += eye
    upper = np.block([[eye, b + b.T], [zero, eye]])
    lower = np.block([[eye, zero], [c + c.T, eye]])
    diag = np.block([[m, zero], [zero, np.linalg.inv(m).T]])
    return upper @ lower @ diag


def clustered_hessian(rng):
    """Hessian with elliptic clusters of multiplicity 1-3 and mixed Krein signs.

    Each elliptic degree of freedom is ``s beta (q^2 + p^2) / 2`` with a
    random sign ``s``; a hyperbolic one is ``h q p``.  A random symplectic
    change of variables keeps the frequencies and the signature on each
    invariant subspace, so the jump at ``1/beta`` is ``2 sum s`` over its
    cluster.  Returns the Hessian and ``{beta: [s, ...]}``.
    """
    betas = rng.permutation([0.4, 0.7, 1.1, 1.6, 2.3])[: int(rng.integers(1, 3))]
    dofs = []
    for beta in betas:
        dofs += [(beta, float(rng.choice([1.0, -1.0]))) for _ in range(int(rng.integers(1, 4)))]
    dofs += [(None, float(rng.uniform(0.5, 2.0))) for _ in range(int(rng.integers(0, 2)))]
    n = len(dofs)
    a = np.zeros((2 * n, 2 * n))
    signs = {}
    for i, (beta, value) in enumerate(dofs):
        if beta is None:
            a[i, n + i] = a[n + i, i] = value
        else:
            a[i, i] = a[n + i, n + i] = value * beta
            signs.setdefault(beta, []).append(int(value))
    s = random_symplectic(rng, n)
    return s.T @ a @ s, signs


def test_morse_jump_matches_two_sided_index_on_mixed_clusters():
    rng = np.random.default_rng(31)
    mixed = {2: 0, 3: 0}
    for _ in range(60):
        a, signs = clustered_hessian(rng)
        rep = analysis.matrix_report(a)
        levels = sorted(signs, reverse=True)
        assert np.allclose(rep.betas, levels, atol=1e-8)
        assert rep.multiplicities == tuple(len(signs[beta]) for beta in levels)
        for j, beta in enumerate(rep.betas):
            cluster = signs[levels[j]]
            if len(set(cluster)) > 1:
                mixed[len(cluster)] += 1
            jump = analysis.morse_jump(a, 1.0 / beta, rep)
            assert jump == 2 * sum(cluster) == interval_jump(a, 1.0 / beta, rep)
            assert analysis.check_szulkin_zj(rep, j + 1) == (jump != 0)
    assert min(mixed.values()) >= 5  # both cluster sizes with mixed signs are exercised


def hessian_with_quartets(rng):
    """Elliptic clusters plus complex quartets next to them, in random symplectic coordinates.

    An elliptic degree of freedom is ``s beta (q^2 + p^2) / 2``; a quartet
    on the pair (i, k) is ``eps (q_i p_i + q_k p_k) + b (q_k p_i - q_i p_k)``,
    whose eigenvalues ``+/-eps +/- i b`` sit ``eps`` (1e-7 to 1e-5) from the
    level ``b``, an elliptic beta.  Returns the Hessian and ``{beta: count}``.
    """
    betas = rng.permutation([0.4, 0.7, 1.1, 1.6, 2.3])[: int(rng.integers(1, 3))]
    elliptic = [float(beta) for beta in betas for _ in range(int(rng.integers(1, 3)))]
    quartets = [float(rng.choice(betas)) for _ in range(int(rng.integers(1, 3)))]
    n = len(elliptic) + 2 * len(quartets)
    a = np.zeros((2 * n, 2 * n))
    for i, beta in enumerate(elliptic):
        a[i, i] = a[n + i, n + i] = float(rng.choice([1.0, -1.0])) * beta
    for m, b in enumerate(quartets):
        i = len(elliptic) + 2 * m
        k, eps = i + 1, 10.0 ** rng.uniform(-7.0, -5.0)
        a[i, n + i] = a[n + i, i] = a[k, n + k] = a[n + k, k] = eps
        a[k, n + i] = a[n + i, k] = b
        a[i, n + k] = a[n + k, i] = -b
    s = random_symplectic(rng, n)
    return s.T @ a @ s, {beta: elliptic.count(beta) for beta in set(elliptic)}


def test_invariant_subspaces_have_two_columns_per_multiplicity():
    rng = np.random.default_rng(41)
    for _ in range(40):
        a, counts = hessian_with_quartets(rng)
        rep = analysis.matrix_report(a)
        levels = sorted(counts, reverse=True)
        assert np.allclose(rep.betas, levels, atol=1e-8)
        assert rep.multiplicities == tuple(counts[beta] for beta in levels)
        for mult, basis in zip(rep.multiplicities, rep.subspaces):
            assert basis.shape == (a.shape[0], 2 * mult)
        for j, basis in enumerate(rep.subspaces):
            assert rep.inertias[j] == linalg._inertia(np.linalg.eigvalsh(basis.T @ rep.hessian @ basis))


def _reference_levels(a):
    """``matrix_report``'s subspaces and inertias as they were made, one SVD, residual and ``eigvalsh`` per level (reference)."""
    a = linalg.check_symmetric(a)
    ja = linalg.standard_symplectic(a.shape[0] // 2) @ a
    wja, vja = linalg._general_eigensystem(ja)
    scale = 1.0 + float(np.max(np.abs(wja)))
    imaginary = [i for i, v in enumerate(wja) if abs(v.real) < 1e-8 * scale and v.imag > 1e-6 * scale]
    clusters = []
    for i in sorted(imaginary, key=lambda i: wja[i].imag, reverse=True):
        head = wja[clusters[-1][0]].imag if clusters else None
        if head is not None and abs(wja[i].imag - head) < 1e-8 * (1.0 + head):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    subspaces = []
    for cluster in clusters:
        vectors = vja[:, sorted(cluster)]
        basis = linalg._orthonormal_columns(np.column_stack([part for col in vectors.T for part in (col.real, col.imag)]))
        assert basis.shape[1] == 2 * len(cluster)
        assert float(np.linalg.norm(ja @ basis - basis @ (basis.T @ ja @ basis))) <= 1e-8 * scale
        subspaces.append(basis)
    return subspaces, [linalg._inertia(np.linalg.eigvalsh(e.T @ a @ e)) for e in subspaces]


def test_stacked_report_equals_the_per_level_computation_to_the_bit():
    rng = np.random.default_rng(43)

    def repeated(two_n):
        # elliptic degrees of freedom s beta (q^2 + p^2) / 2 whose betas repeat, in random symplectic coordinates
        n = two_n // 2
        betas = rng.choice([0.6, 1.3, 2.1], size=n)
        a = np.diag(np.concatenate([betas, betas]) * np.tile(rng.choice([1.0, -1.0], size=n), 2))
        s = random_symplectic(rng, n)
        return s.T @ a @ s

    def indefinite(two_n):
        a = rng.standard_normal((two_n, two_n))
        return a + a.T

    kinds = {
        "definite": lambda two_n: random_definite_matrix(rng, two_n),
        "indefinite": indefinite,
        "repeated": repeated,
        "clustered": lambda two_n: clustered_hessian(rng)[0],
        "quartets": lambda two_n: hessian_with_quartets(rng)[0],
    }
    sizes, mixed = set(), 0
    for kind, make in kinds.items():
        for two_n in range(2, 18, 2):
            for _ in range(4):
                a = make(two_n)
                rep = analysis.matrix_report(a)
                subspaces, inertias = _reference_levels(a)
                assert rep.inertias == tuple(inertias), kind
                for e, ref in zip(rep.subspaces, subspaces, strict=True):
                    assert e.shape == ref.shape and e.tobytes() == ref.tobytes(), kind
                sizes.add(a.shape[0])
                mixed += len(set(rep.multiplicities)) > 1
    assert sizes == set(range(2, 18, 2)) and mixed >= 20


def test_report_makes_one_svd_and_one_level_eigvalsh_per_multiplicity(monkeypatch):
    # the N = 8 spring chain at its equilibrium, U = sum f_i^2 q_i^2 / 2 + quartic
    # couplings, in random symplectic coordinates: 8 simple levels, which made 8
    # SVDs and 8 level eigvalsh calls, one set per level
    rng = np.random.default_rng(8)
    f = np.array([1.0, 1.23, 1.41, 1.67, 1.93, 2.18, 2.47, 2.71])
    s = random_symplectic(rng, 8)
    chain = s.T @ np.diag(np.concatenate([f**2, np.ones(8)])) @ s
    # and three levels of multiplicities 3, 1 and 2, one stack each
    betas = np.array([0.7, 0.7, 1.1, 1.6, 1.6, 1.6])
    s = random_symplectic(rng, 6)
    mixed = s.T @ np.diag(np.concatenate([betas, betas])) @ s
    calls = {"svd": 0, "eigvalsh": 0}

    def counted(name):
        solver = getattr(np.linalg, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    for a, multiplicities in ((chain, (1,) * 8), (mixed, (3, 1, 2))):
        calls.update(svd=0, eigvalsh=0)
        rep = analysis.matrix_report(a)
        assert rep.multiplicities == multiplicities
        # one eigvalsh is the Hessian's own spectrum
        assert calls == {"svd": len(set(multiplicities)), "eigvalsh": 1 + len(set(multiplicities))}


def test_quartet_next_to_a_level_stays_out_of_its_subspace():
    system, start = cli.build_system(cli.parse_config((DATA / "quartet.ini").read_text(encoding="utf-8")))
    eq = model.refine_equilibrium(system, start)
    rep = analysis.spectral_report(system, eq)
    assert rep.multiplicities == (1,)
    assert rep.subspaces[0].shape == (6, 2)
    assert np.allclose(rep.subspaces[0].T @ rep.hessian @ rep.subspaces[0], np.eye(2), atol=1e-10)
    assert rep.inertias == ((2, 0, 0),)
    (cand,) = analysis.analyze(system, eq)
    assert cand.a7_results["definite-zj"] and cand.a7_results["definite-z"]


def test_morse_jump_singular_restriction_is_degenerate():
    # q2 has stiffness 1e-10: its level 1/beta = 1e5 exists, but the
    # Hessian on its invariant subspace, diag(1e-10, 1), is singular at
    # the kernel threshold 2e-8
    a = np.diag([1.0, 1e-10, 1.0, 1.0])
    rep = analysis.matrix_report(a)
    assert np.allclose(rep.betas, [1.0, 1e-5])
    assert analysis.morse_jump(a, 1.0, rep) == 2
    with pytest.raises(Degenerate, match="singular on the level's invariant subspace"):
        analysis.morse_jump(a, 1e5, rep)


def test_morse_jump_rejects_a_matrix_other_than_the_reports():
    # the jump is read from the report's per-level inertia, so a matrix the
    # report was not made from must not be silently ignored
    a = np.diag([3.0, 0.4, 1.0, 1.0])
    rep = analysis.matrix_report(a)
    assert analysis.morse_jump(a, 1.0 / np.sqrt(3.0), rep) == 2
    with pytest.raises(ValueError, match="not the Hessian"):
        analysis.morse_jump(2.0 * a, 1.0 / np.sqrt(3.0), rep)


def test_analyze_reads_each_jump_from_the_report_without_revalidating_its_hessian(monkeypatch):
    # morse_jump's check that its matrix is the report's Hessian was ~95% of
    # its cost, and analyze always passed the report's own; the jumps, the
    # Degenerate of the spurious level and the verdicts are unchanged
    sat = replace(model.preset("satellite", omega=1.0, c=0.1), hessian=None)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0, 0, 0, -1.0, 0.0]))
    expected = analysis.analyze(sat, eq)
    rep = analysis.spectral_report(sat, eq)
    jumps = []
    for cand in expected:
        try:
            jumps.append(analysis.morse_jump(rep.hessian, cand.lambda0, rep))
        except Degenerate:
            jumps.append(None)
    assert jumps == [c.morse_jump for c in expected] == [2, 2, None]
    monkeypatch.setattr(analysis, "check_symmetric", None)
    assert analysis.analyze(sat, eq) == expected


def test_gradient_only_satellite_spurious_level_is_inconclusive():
    # the finite-difference Hessian splits the group-orbit block into a
    # third level with beta ~ 3e-6, on which the restricted Hessian is singular
    sat = replace(model.preset("satellite", omega=1.0, c=0.1), hessian=None)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0, 0, 0, -1.0, 0.0]))
    cands = analysis.analyze(sat, eq)
    assert [(c.morse_jump, c.verdict) for c in cands[:2]] == [(2, "confirmed"), (2, "confirmed")]
    (third,) = cands[2:]
    assert third.beta < 1e-5
    assert (third.morse_jump, third.verdict, third.theorem_path) == (None, "inconclusive", None)
    assert third.reasons[:2] == (
        "morse jump unavailable: the Hessian is singular on the level's invariant subspace (kernel dimension 1)",
        "no index certificate available for this level",
    )


def test_newtonian_block_polynomial():
    rng = np.random.default_rng(9)
    for _ in range(10):
        eta = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.2, 3.0))
        block = analysis.newtonian_blocks([eta], lam)[0]
        quad = np.array([1.0, lam * (1.0 + eta), lam**2 * eta - 1.0])
        expected = np.convolve(quad, quad)
        assert np.max(np.abs(np.poly(block) - expected)) < 1e-10


def test_szulkin_definite_and_indefinite():
    # positive definite restriction -> signature imbalance holds
    rep = analysis.matrix_report(np.eye(2))
    assert analysis.check_szulkin_zj(rep, 1)
    assert analysis._definite(*rep.inertias[0])
    (cand,) = analysis.analyze(*quadratic(np.eye(2)))
    assert cand.a7_results["szulkin"] and cand.a7_results["definite-zj"]
    # signature (1,1) on a multiplicity-2 cluster -> no imbalance, no jump
    a = np.diag([1.0, -1.0, 1.0, -1.0])
    rep2 = analysis.matrix_report(a)
    assert rep2.betas == (1.0,)
    assert rep2.multiplicities == (2,)
    assert not analysis.check_szulkin_zj(rep2, 1)
    assert not analysis._definite(*rep2.inertias[0])
    (cand2,) = analysis.analyze(*quadratic(a))
    assert not cand2.a7_results["szulkin"] and not cand2.a7_results["definite-zj"]
    assert analysis.morse_jump(a, 1.0, rep2) == 0


def test_szulkin_agrees_with_jump_on_random_matrices():
    rng = np.random.default_rng(12)
    done = 0
    while done < 10:
        two_n = int(rng.choice([2, 4, 6]))
        a = random_definite_matrix(rng, two_n) * float(rng.choice([1.0, -1.0]))
        rep = analysis.matrix_report(a)
        if not rep.betas or max(rep.multiplicities) > 1:
            continue
        for j, beta in enumerate(rep.betas, start=1):
            jump = analysis.morse_jump(a, 1.0 / beta, rep)
            assert analysis.check_szulkin_zj(rep, j) == (jump != 0)
        done += 1


def test_check_definite_z_and_mplus():
    a = np.diag([1.0, 4.0, 1.0, 1.0])
    rep = analysis.matrix_report(a)
    assert rep.m_plus == 4 and rep.n == 2
    assert analysis.check_mplus(rep)
    assert [(c.a7_results["definite-z"], c.a7_results["mplus"]) for c in analysis.analyze(*quadratic(a))] == [(True, True)] * 2
    a2 = np.diag([1.0, -1.0, 1.0, -1.0])
    rep2 = analysis.matrix_report(a2)
    assert not analysis.check_mplus(rep2)  # m+ = 2 = N
    (cand2,) = analysis.analyze(*quadratic(a2))
    assert (cand2.a7_results["definite-z"], cand2.a7_results["mplus"]) == (False, False)
    # a saddle has no level, so there is no subspace to be definite on, and no candidate
    a3 = np.diag([1.0, -1.0])
    assert analysis.matrix_report(a3).betas == () and analysis.analyze(*quadratic(a3)) == []


def stacked_definite_z(rep):
    """A7.4 from one orthonormal basis of all the level subspaces: the reference computation."""
    basis = linalg._orthonormal_columns(np.hstack(rep.subspaces))
    pos, neg, kernel = linalg._inertia(np.linalg.eigvalsh(basis.T @ rep.hessian @ basis))
    return kernel == 0 and min(pos, neg) == 0


def test_definite_z_from_per_level_inertias_matches_the_stacked_subspace():
    rng = np.random.default_rng(17)

    def singular(two_n):
        # degrees of freedom s beta (q^2 + p^2) / 2, (1e-10 q^2 + p^2) / 2 (a
        # level 1e-5 whose subspace holds a kernel direction) and p^2 / 2 (a
        # kernel outside every level subspace), in random symplectic coordinates
        n = two_n // 2
        a = np.zeros((two_n, two_n))
        for i in range(n):
            kind = int(rng.integers(3))
            if kind == 0:
                a[i, i] = a[n + i, n + i] = float(rng.choice([1.0, -1.0])) * rng.uniform(0.5, 2.5)
            else:
                a[i, i], a[n + i, n + i] = (1e-10 if kind == 1 else 0.0), 1.0
        s = random_symplectic(rng, n)
        return s.T @ a @ s

    def indefinite(two_n):
        a = rng.standard_normal((two_n, two_n))
        return a + a.T

    def newtonian(two_n):
        etas = rng.uniform(0.2, 3.0, size=two_n // 2) * rng.choice([1.0, 0.0, -1.0], size=two_n // 2)
        return np.diag(np.concatenate([etas, np.ones(two_n // 2)]))

    kinds = {
        "definite": lambda two_n: random_definite_matrix(rng, two_n) * float(rng.choice([1.0, -1.0])),
        "indefinite": indefinite,
        "singular": singular,
        "newtonian": newtonian,
    }
    seen = {kind: set() for kind in kinds}
    for kind, make in kinds.items():
        for _ in range(60):
            system, eq = quadratic(make(2 * int(rng.integers(1, 5))))
            rep = analysis.spectral_report(system, eq)
            if rep.betas:
                values = {cand.a7_results["definite-z"] for cand in analysis.analyze(system, eq)}
                assert values == {stacked_definite_z(rep)}, kind
                seen[kind] |= values
    # a Newtonian level's subspace only ever meets positive eta q^2 + p^2
    assert seen == {"definite": {True}, "indefinite": {True, False}, "singular": {True, False}, "newtonian": {True}}
    system, start = cli.build_system(cli.parse_config((DATA / "quartet.ini").read_text(encoding="utf-8")))
    eq = model.refine_equilibrium(system, start)
    (cand,) = analysis.analyze(system, eq)
    assert cand.a7_results["definite-z"] and stacked_definite_z(analysis.spectral_report(system, eq))


def test_analyze_satellite_confirms():
    sat = model.preset("satellite", omega=1.0, c=0.1)
    eq = model.refine_equilibrium(sat, np.array([1.0, 0, 0, 0, -1.0, 0.0]))
    cands = analysis.analyze(sat, eq)
    assert len(cands) == 2
    assert any(c.confirmed for c in cands)
    top = cands[0]
    assert top.a7_results["mplus"]
    assert top.degree_on_section in (-1, 1)
    assert abs(top.predicted_period * top.beta - 2.0 * np.pi) < 1e-12 * 2.0 * np.pi
    assert analysis.spectral_report(sat, eq).kernel_dim == eq.orbit_dim  # the orbit is nondegenerate


def analyze_inline(monomials, seed=0, guess=None, generator=None):
    text = f"[system]\nn = 2\nmonomials = {monomials}\n" + (f"guess = {guess}\n" if guess else "")
    text += f"generator1 = {generator}\n" if generator else ""
    system, start = cli.build_system(cli.parse_config(text))
    eq = model.refine_equilibrium(system, start)
    return analysis.analyze(system, eq, analysis.AnalyzeOptions(seed=seed))


# From the off-equilibrium guess the refinement stops at q2 ~ 2.4e-7, where
# the Hessian eigenvalue 2 q2 ~ 5e-7 is nonzero but below the degree's
# kernel threshold; the nondegenerate path must not read its sign.
@pytest.mark.parametrize("guess", [None, "0.001 0.002 -0.001 0.0005"], ids=["origin", "off-equilibrium"])
def test_analyze_cubic_section_is_not_confirmed(guess):
    # H = (q1^2 + p1^2 + p2^2) / 2 + q2^3 / 3: the reduced section field is
    # q2^2, whose degree is 0, so the criteria are silent
    cands = analyze_inline("0.5 2 0 0 0 ; 0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.3333333333333333 0 3 0 0", guess=guess)
    assert cands
    for cand in cands:
        assert (cand.degree_on_section, cand.degree_path, cand.degree_reliable) == (0, "reduced", True)
        assert not cand.confirmed
        assert "section degree vanishes; the criteria are silent here" in cand.reasons
    if guess is None:  # at the origin q2 is exactly a kernel direction
        reason = "orbit isolatedness unverified (kernel dimension 1 differs from orbit dimension 0)"
        assert all(reason in cand.reasons for cand in cands)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_analyze_indefinite_quartic_section_degree(seed):
    # H = (q1^2 + p1^2 - p2^2) / 2 + q2^4 / 4: sign det A_R = -1 times the
    # degree +1 of g(c) = c^3; the seed changes nothing
    (cand,) = analyze_inline("0.5 2 0 0 0 ; 0.5 0 0 2 0 ; -0.5 0 0 0 2 ; 0.25 0 4 0 0", seed=seed)
    assert (cand.degree_on_section, cand.degree_path, cand.degree_reliable) == (-1, "reduced", True)


def test_analyze_rejects_a_generator_that_is_not_a_symmetry():
    # the last monomial breaks the declared rotation: its direction at the
    # refined point is not flat, so no level may be read off a section
    # orthogonal to it
    with pytest.raises(NotASymmetry, match="generator 1 is not a symmetry of H"):
        analyze_inline(
            "0.25 4 0 0 0 ; 0.25 0 4 0 0 ; 0.5 2 2 0 0 ; -0.5 2 0 0 0 ; -0.5 0 2 0 0 ; "
            "0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.1 2 0 0 0",
            guess="0 1 0 0",
            generator="0 -1 0 0 ; 1 0 0 0 ; 0 0 0 -1 ; 0 0 1 0",
        )


def test_analyze_coupled_springs_paths():
    sys = model.preset("coupled-springs", frequencies=[1.0, 2.0])
    eq = model.refine_equilibrium(sys, 0.05 * np.ones(4))
    cands = analysis.analyze(sys, eq)
    assert len(cands) == 2
    first = cands[0]  # beta = 2, nonresonant
    assert abs(first.beta - 2.0) < 1e-7
    assert first.verdict == "confirmed"
    assert abs(first.predicted_period - np.pi) < 1e-7
    assert first.morse_jump == 2
    second = cands[1]  # beta = 1, resonant against beta = 2
    assert not second.nonresonant
    assert second.verdict == "confirmed (period not certified minimal)"
    assert second.theorem_path == "definite-total"


def test_analyze_no_imaginary_pairs_empty():
    sys = model.HamiltonianSystem(
        n=1,
        energy=lambda z: 0.5 * (z[0] ** 2 - z[1] ** 2),
        gradient=lambda z: np.array([z[0], -z[1]]),
        hessian=lambda z: np.diag([1.0, -1.0]),
    )
    eq = model.refine_equilibrium(sys, np.array([0.3, 0.2]))
    assert analysis.analyze(sys, eq) == []


def test_analyze_j0_filter():
    sys = model.preset("coupled-springs", frequencies=[1.0, 2.0])
    eq = model.refine_equilibrium(sys, 0.05 * np.ones(4))
    only_second = analysis.analyze(sys, eq, analysis.AnalyzeOptions(j0=2))
    assert len(only_second) == 1 and only_second[0].j0 == 2


def test_analyze_out_of_range_j0_raises():
    sys = model.preset("coupled-springs", frequencies=[1.0, 2.0])
    eq = model.refine_equilibrium(sys, 0.05 * np.ones(4))
    for j0 in (3, 0, -1):  # an integer out of range, 0 too, is no level; a non-integer is a ValueError (test_contracts)
        with pytest.raises(NoSuchLevel, match=rf"j0 must be in 1\.\.2, got {j0}"):
            analysis.analyze(sys, eq, analysis.AnalyzeOptions(j0=j0))


def test_morse_limits_random():
    rng = np.random.default_rng(21)
    for two_n in (2, 4, 6):
        a = random_definite_matrix(rng, two_n) * float(rng.choice([1.0, -1.0]))
        rep = analysis.matrix_report(a)
        if not rep.betas:
            continue
        lams = analysis.resonance_set(rep, k_max=1).values()
        below = analysis.t_matrix(a, 1, 0.5 * lams.min())
        above = analysis.t_matrix(a, 1, 2.0 * lams.max())
        assert linalg.morse_index_negative(below) == two_n
        assert linalg.morse_index_negative(above) == 2 * rep.m_plus


def test_unavailable_degree_reason_names_the_kernel():
    # tests/data/kernel3.ini: a section kernel of dimension 3 is beyond the
    # reduced degree, and the reason must say so
    system, guess = cli.build_system(cli.parse_config((DATA / "kernel3.ini").read_text(encoding="utf-8")))
    (cand,) = analysis.analyze(system, model.refine_equilibrium(system, guess))
    assert (cand.degree_on_section, cand.verdict) == (None, "inconclusive")
    assert cand.reasons[0] == (
        "section degree unavailable (section Hessian has a near-zero eigenvalue; section kernel of dimension 3; "
        "the reduced degree is certified up to dimension 2); existence chain cannot close"
    )


# Every outcome of the verdict chain, in its order: (the level j0 = 1's index
# table {(k, j): jump}, A7 results, section degree) -> (verdict, theorem path,
# reason).  A table with more than the entry (1, 1) is a resonant level.
@pytest.mark.parametrize(
    "components, a7, value, verdict, path, reason",
    [
        ({(1, 1): 2}, {}, None, "inconclusive", None,
         "section degree unavailable (section kernel of dimension 3); existence chain cannot close"),
        ({(1, 1): 2}, {}, 0, "inconclusive", None, "section degree vanishes; the criteria are silent here"),
        ({(1, 1): 2}, {}, 1, "confirmed", "nonresonant-jump",
         "index jump at an isolated, nonresonant level; minimal periods certified"),
        ({(1, 1): -2, (2, 2): 2}, {"definite-z": True, "mplus": True}, 1, "confirmed (period not certified minimal)",
         "definite-total", "definite Hessian on the full oscillatory subspace; periods may be non-minimal"),
        ({(2, 2): None, (1, 1): 2}, {"definite-z": False, "mplus": True}, -1, "confirmed (period not certified minimal)",
         "index-count", "positive index count differs from N; periods may be non-minimal"),
        ({(1, 1): 2, (3, 2): 0}, {"definite-z": False, "mplus": False}, 1, "inconclusive", None,
         "resonant level; multi-mode jump analysis not implemented and no global criterion applies"),
        ({(1, 1): 0}, {"definite-z": True, "mplus": True}, 1, "rejected", None,
         "mode-1 negative index does not change at this level"),
        ({(1, 1): None}, {"definite-z": True, "mplus": True}, 1, "inconclusive", None,
         "no index certificate available for this level"),
    ],
    ids=["no-degree", "degree-0", "nonresonant-jump", "definite-total", "index-count", "resonant", "jump-0", "no-jump"],
)
def test_candidate_verdict_outcomes(components, a7, value, verdict, path, reason):
    detail = "section kernel of dimension 3" if value is None else ""
    report = degree.DegreeReport(value=value, path="reduced", detail=detail)
    assert analysis._candidate_verdict(components, 1, a7, report) == (verdict, path, reason)
