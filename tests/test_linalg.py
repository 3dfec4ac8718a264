import re
import warnings

import numpy as np
import pytest

from hambif import linalg
from hambif.errors import ConvergenceFailure, NonSymmetric


def test_standard_symplectic_2x2():
    j = linalg.standard_symplectic(1)
    assert np.array_equal(j, np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_symplectic_square_and_antisymmetry(n):
    j = linalg.standard_symplectic(n)
    assert np.array_equal(j @ j, -np.eye(2 * n))
    assert np.array_equal(j.T, -j)


def test_the_public_symplectic_matrix_is_the_callers_own():
    j = linalg.standard_symplectic(1)
    assert j.flags.writeable and not np.shares_memory(j, linalg.standard_symplectic(1))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", ["point", "stack", "matrix-stack"])
def test_apply_j_is_the_product_with_standard_symplectic_along_every_axis(n, shape):
    j, rng = linalg.standard_symplectic(n), np.random.default_rng(n)
    v = rng.standard_normal({"point": (2 * n,), "stack": (5, 2 * n), "matrix-stack": (5, 2 * n, 2 * n)}[shape])
    for axis in [axis for axis, length in enumerate(v.shape) if length == 2 * n]:
        expected = np.moveaxis(np.tensordot(j, v, axes=(1, axis)), 0, axis)
        assert np.array_equal(linalg._apply_j(v, axis=axis), expected)
        assert np.array_equal(linalg._apply_j(v, axis=axis - v.ndim), expected)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: linalg.standard_symplectic(0), ValueError),
        (lambda: linalg.check_symmetric(np.ones((2, 3))), NonSymmetric),
    ],
    ids=["symplectic-n-0", "check-symmetric-not-square"],
)
def test_bad_shapes_raise(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("mat", [np.zeros((3, 0)), np.zeros((3, 2))], ids=["no-columns", "zero-columns"])
def test_orthonormal_columns_of_an_empty_span_have_no_columns(mat):
    assert linalg._orthonormal_columns(mat).shape == (3, 0)


def test_morse_indices_diagonal():
    a = np.diag([-1.0, 2.0, -3.0])
    assert linalg.morse_index_negative(a) == 2
    assert linalg._inertia(np.linalg.eigvalsh(a)) == (1, 2, 0)


def test_morse_indices_edges():
    assert linalg.morse_index_negative(np.zeros((3, 3))) == 0
    assert linalg._inertia(np.linalg.eigvalsh(np.zeros((3, 3)))) == (0, 0, 3)
    assert linalg._inertia(np.linalg.eigvalsh(np.eye(4))) == (4, 0, 0)


def test_morse_counts_complete():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        pos, neg, kernel = linalg._inertia(np.linalg.eigvalsh(a))
        assert neg == linalg.morse_index_negative(a)
        assert pos + neg + kernel == n


def test_morse_index_rejects_nonsymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonSymmetric):
        linalg.morse_index_negative(m)


def test_general_eigenvalues_rotation():
    w = linalg._general_eigensystem(linalg.standard_symplectic(1))[0]
    assert sorted(np.round(v.imag, 12) for v in w) == [-1.0, 1.0]
    assert max(abs(v.real) for v in w) < 1e-12


def test_general_eigenvalues_scaled_rotation():
    # J * diag(1, 4) has characteristic polynomial t^2 + 4, roots +/- 2i.
    m = linalg.standard_symplectic(1) @ np.diag([1.0, 4.0])
    w = np.sort_complex(linalg._general_eigensystem(m)[0])
    assert np.allclose(w, [-2j, 2j], atol=1e-12)


def test_general_eigenvalues_conjugation_closed():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        w = linalg._general_eigensystem(rng.standard_normal((n, n)))[0]
        remaining = list(w)
        while remaining:
            lam = remaining.pop()
            match = min(range(len(remaining)), key=lambda i: abs(remaining[i] - lam.conjugate()), default=None)
            if abs(lam.imag) < 1e-12:
                continue
            assert match is not None
            assert abs(remaining[match] - lam.conjugate()) < 1e-9
            remaining.pop(match)


def cluster_subspace(m, beta):
    """The invariant subspace of the eigenvalues of ``m`` within 1e-9 of ``i*beta``: ``_invariant_subspaces`` of that one cluster."""
    w, v = linalg._general_eigensystem(m)
    cluster = np.nonzero(np.abs(w - 1j * beta) < 1e-9)[0]
    return one_cluster(m, v, cluster, 1.0 + float(np.max(np.abs(w))))


def one_cluster(m, vectors, cluster, scale):
    """The basis ``_invariant_subspaces`` gives a list of one cluster, with the identity as the form."""
    return linalg._invariant_subspaces(m, np.eye(len(m)), vectors, [cluster], scale)[0][0]


def test_general_eigensystem_pairs():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5))
    w, v = linalg._general_eigensystem(m)
    assert np.array_equal(w, np.linalg.eigvals(m))
    assert np.allclose(m @ v, v * w, atol=1e-10)
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)


def test_general_eigensystem_rejects_non_finite():
    # numpy's own finiteness check raises LinAlgError before LAPACK runs
    with pytest.raises(ConvergenceFailure, match="eigensolver did not converge: Array must not contain infs or NaNs"):
        linalg._general_eigensystem(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_general_eigensystem_turns_an_eigensolver_failure_into_convergence_failure(monkeypatch):
    def failing(m):
        raise np.linalg.LinAlgError("planted")

    monkeypatch.setattr(np.linalg, "eig", failing)
    with pytest.raises(ConvergenceFailure, match="eigensolver did not converge: planted"):
        linalg._general_eigensystem(np.eye(2))


def test_real_invariant_subspace_full_plane():
    basis = cluster_subspace(linalg.standard_symplectic(1), 1.0)
    assert basis.shape == (2, 2)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)


def test_real_invariant_subspace_block():
    j = linalg.standard_symplectic(1)
    m = np.zeros((4, 4))
    m[:2, :2] = j
    m[2:, 2:] = 2.0 * j
    basis = cluster_subspace(m, 2.0)
    assert basis.shape == (4, 2)
    # span of the last two coordinate axes
    assert np.max(np.abs(basis[:2, :])) < 1e-10
    proj = basis @ basis.T
    assert np.allclose(proj[2:, 2:], np.eye(2), atol=1e-10)


def test_real_invariant_subspace_invariance_residual():
    rng = np.random.default_rng(3)
    j = linalg.standard_symplectic(3)
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        a = a @ a.T + 0.5 * np.eye(6)  # positive definite -> imaginary spectrum of JA
        m = j @ a
        w = linalg._general_eigensystem(m)[0]
        beta = max(v.imag for v in w)
        basis = cluster_subspace(m, beta)
        resid = np.linalg.norm(m @ basis - basis @ (basis.T @ m @ basis))
        assert resid < 1e-8
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)


def test_real_invariant_subspace_rejects_non_invariant_span():
    # a unit vector of a rotation plane mixed with the other plane spans no invariant subspace
    m = np.zeros((4, 4))
    m[:2, :2] = linalg.standard_symplectic(1)
    m[2:, 2:] = 2.0 * linalg.standard_symplectic(1)
    vector = np.array([1.0, 1j, 1.0, 0.0]) / np.sqrt(3.0)
    with pytest.raises(ConvergenceFailure, match="invariance residual"):
        one_cluster(m, vector[:, None], [0], 3.0)


def test_real_invariant_subspace_rejects_defective():
    # 0-eigenvalue Jordan block shifted to +/- i: [[i, 1], [0, i]] realified.
    m = np.array(
        [
            [0.0, 1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )
    w, v = linalg._general_eigensystem(m)
    upper = np.nonzero(w.imag > 0.0)[0]
    assert upper.size == 2
    with pytest.raises(ConvergenceFailure, match="defective"):
        one_cluster(m, v, upper, 1.0 + float(np.max(np.abs(w))))


@pytest.mark.parametrize(
    "a, entry",
    [
        ([[1.0, np.nan], [0.0, 1.0]], "nan at (0, 1)"),
        ([[np.nan, 0.0], [0.0, 1.0]], "nan at (0, 0)"),
        ([[-1.0, np.nan], [0.0, -1.0]], "nan at (0, 1)"),
        ([[1.0, 0.0], [np.inf, 1.0]], "inf at (1, 0)"),
        ([[-np.inf, 0.0], [0.0, 1.0]], "-inf at (0, 0)"),
    ],
)
@pytest.mark.parametrize("call", [linalg.check_symmetric, linalg.morse_index_negative], ids=["check-symmetric", "morse-index"])
def test_a_non_finite_entry_is_not_symmetric(call, a, entry):
    # a NaN scale let every gap pass: check_symmetric returned NaN entries and
    # morse_index_negative counted a NaN eigenvalue as kernel, so gave 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonSymmetric, match=rf"non-finite entry {re.escape(entry)}"):
            call(np.array(a))


def three_clusters():
    """``m = diag(3 J, D)`` with D a defective Jordan pair at +-i, a form, and three clusters of its eigenvectors.

    Column 0 spans the +3i plane (good), columns 1-2 are D's two eigenvectors
    for +i (defective), and column 3 mixes both blocks (not invariant).
    """
    m = np.zeros((6, 6))
    m[:2, :2] = 3.0 * linalg.standard_symplectic(1)
    m[2:, 2:] = [[0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
    w, v = linalg._general_eigensystem(m)
    good = v[:, np.argmin(np.abs(w - 3j))]
    defective = v[:, np.nonzero(np.abs(w - 1j) < 1e-6)[0]]
    assert defective.shape == (6, 2)
    mixed = np.array([1.0, 1j, 1.0, 0.0, 0.0, 0.0]) / np.sqrt(3.0)
    vectors = np.column_stack([good, defective, mixed])
    return m, np.eye(6), vectors, {"good": [0], "defective": [1, 2], "non-invariant": [3]}, 4.0


@pytest.mark.parametrize(
    "order, failure",
    [
        (("good", "defective"), "defective"),
        (("defective", "good"), "defective"),
        (("good", "non-invariant"), "non-invariant"),
        (("non-invariant", "good"), "non-invariant"),
        (("defective", "non-invariant"), "defective"),
        (("non-invariant", "defective"), "non-invariant"),
        (("good", "non-invariant", "good", "defective"), "non-invariant"),
    ],
)
def test_invariant_subspaces_raise_the_first_failing_clusters_text(order, failure):
    # sizes 1 and 2 go into separate stacks, the size-1 stack first; the error
    # is still the one of the first failing cluster in the caller's order
    m, a, vectors, clusters, scale = three_clusters()
    with pytest.raises(ConvergenceFailure) as alone:
        linalg._invariant_subspaces(m, a, vectors, [clusters[failure]], scale)
    assert re.fullmatch(r"eigenvalue cluster of multiplicity 2 is defective \(real span [0-3] < 4\)|invariance residual .* too large for a cluster of multiplicity 1", str(alone.value))
    with pytest.raises(ConvergenceFailure) as stacked:
        linalg._invariant_subspaces(m, a, vectors, [clusters[name] for name in order], scale)
    assert str(stacked.value) == str(alone.value)


def test_invariant_subspaces_of_good_clusters_are_the_one_cluster_bases():
    m, a, vectors, clusters, scale = three_clusters()
    bases, inertias = linalg._invariant_subspaces(m, a, vectors, [clusters["good"]] * 3, scale)
    alone = linalg._invariant_subspaces(m, a, vectors, [clusters["good"]], scale)[0][0]
    assert all(e.tobytes() == alone.tobytes() for e in bases) and inertias == ((2, 0, 0),) * 3


@pytest.mark.parametrize("mult", [1, 2, 3])
def test_stacked_invariance_residual_is_numpys_norm_to_the_bit(mult):
    # the residual in a failure's text is np.linalg.norm of the one-cluster
    # residual, whichever place the cluster takes in its stack
    rng = np.random.default_rng(mult)
    a = rng.standard_normal((8, 8))
    m = linalg.standard_symplectic(4) @ (a @ a.T + np.eye(8))
    w, v = linalg._general_eigensystem(m)
    top = np.argsort(-w.imag)[:mult]
    assert min(w[top].imag) > 0.0
    for place in range(4):
        vectors = np.column_stack([v[:, top], rng.standard_normal((8, mult)) + 1j * rng.standard_normal((8, mult))])
        clusters = [list(range(mult))] * 4
        clusters[place] = list(range(mult, 2 * mult))
        basis = linalg._orthonormal_columns(np.column_stack([p for col in vectors[:, clusters[place]].T for p in (col.real, col.imag)]))
        residual = float(np.linalg.norm(m @ basis - basis @ (basis.T @ m @ basis)))
        with pytest.raises(ConvergenceFailure) as failure:
            linalg._invariant_subspaces(m, np.eye(8), vectors, clusters, 1.0)
        assert str(failure.value) == f"invariance residual {residual:.3e} too large for a cluster of multiplicity {mult}"


def test_inertia_counts_at_the_zero_threshold():
    w = np.array([-2.0, -1e-9, 0.0, 1e-9, 3.0])
    assert linalg._inertia(w) == (1, 1, 3)
    assert linalg._inertia(np.array([])) == (0, 0, 0)


def test_inertia_rejects_non_finite_eigenvalues():
    # a NaN or infinite eps made every comparison false, so each eigenvalue counted as kernel
    for w, bad in (([np.nan, 1.0], "nan"), ([np.inf, 1.0], "inf"), ([1.0, -np.inf, 0.0], "-inf")):
        with pytest.raises(ValueError, match=f"w must be finite, got {bad}$"):
            linalg._inertia(np.array(w))


def test_check_symmetric_near_the_float_maximum_neither_overflows_nor_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = np.full((2, 2), 1e308)
        assert np.array_equal(linalg.check_symmetric(big), big)
        with pytest.raises(NonSymmetric, match="symmetry violation"):
            linalg.check_symmetric(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_check_symmetric_reports_a_gap_above_the_float_maximum_as_a_finite_number():
    # twice the halved gap overflowed, and the message read "symmetry violation inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, shown in (
            ([[0.0, 1e308], [-1e308, 0.0]], "2 * 1.000e+308"),
            ([[0.0, 1e308], [-5e307, 0.0]], "1.500e+308"),
            ([[0.0, 1.0], [0.0, 0.0]], "1.000e+00"),
        ):
            with pytest.raises(NonSymmetric, match=re.escape(f"symmetry violation {shown} exceeds 1.0e-10 * scale")):
                linalg.check_symmetric(np.array(a))


def test_check_symmetric_has_the_bits_of_the_unhalved_formula():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        magnitudes, signs = 10.0 ** rng.uniform(-300, 300, (n, n)), rng.standard_normal((n, n))
        s = (magnitudes + magnitudes.T) * np.sign(signs + signs.T)  # symmetric: no sum cancels
        a = s * (1.0 + 1e-13 * rng.standard_normal((n, n)))  # a gap far inside the tolerance
        assert linalg.check_symmetric(a).tobytes() == (0.5 * (a + a.T)).tobytes()
