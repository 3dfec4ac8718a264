"""Dense linear-algebra kernels for small phase spaces.

All routines are pure functions on plain numpy arrays, sized for phase
dimensions of a few dozen at most.  Eigenvalue classification is
scale-aware: anything inside ``(-eps, +eps)`` with
``eps = 1e-8 * (1 + spectral radius)`` counts as numerical kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NonSymmetric, NotAnEigenvalue

__all__ = [
    "standard_symplectic",
    "zero_threshold",
    "check_symmetric",
    "morse_index_negative",
    "morse_index_positive",
    "kernel_dimension",
    "general_eigenvalues",
    "real_invariant_subspace",
    "orthogonal_complement",
    "orthonormal_columns",
    "compress",
]


def standard_symplectic(n: int) -> np.ndarray:
    """Return the 2n x 2n block matrix [[0, I], [-I, 0]]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def zero_threshold(values) -> float:
    """Scale-aware cutoff separating numerical kernel from signed spectrum."""
    vals = np.asarray(values)
    radius = float(np.max(np.abs(vals))) if vals.size else 0.0
    return 1e-8 * (1.0 + radius)


def check_symmetric(a) -> np.ndarray:
    """Validate symmetry of ``a`` up to 1e-10 (relative) and return (a + a^T)/2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {a.shape}")
    scale = 1.0 + (float(np.max(np.abs(a))) if a.size else 0.0)
    gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if gap > 1e-10 * scale:
        raise NonSymmetric(f"symmetry violation {gap:.3e} exceeds 1.0e-10 * scale")
    return 0.5 * (a + a.T)


def _signed_counts(a) -> tuple[int, int, int]:
    w = np.linalg.eigvalsh(check_symmetric(a))
    eps = zero_threshold(w)
    neg = int(np.sum(w < -eps))
    pos = int(np.sum(w > eps))
    return neg, pos, w.size - neg - pos


def morse_index_negative(a) -> int:
    """Number of negative eigenvalues of a symmetric matrix, with multiplicity."""
    return _signed_counts(a)[0]


def morse_index_positive(a) -> int:
    """Number of positive eigenvalues of a symmetric matrix, with multiplicity."""
    return _signed_counts(a)[1]


def kernel_dimension(a) -> int:
    """Dimension of the numerical kernel of a symmetric matrix."""
    return _signed_counts(a)[2]


def general_eigenvalues(m) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a real square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


def orthonormal_columns(mat) -> np.ndarray:
    """Orthonormal basis of the column span (SVD, rank: singular values above 1e-10 of the largest)."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((mat.shape[0], 0))
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank]


def real_invariant_subspace(m, beta: float, cluster_tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the real invariant subspace for the pair {+i*beta, -i*beta}.

    Parameters
    ----------
    m : array_like, shape (n, n)
        Real matrix whose spectrum contains +/- i*beta.
    beta : float
        Positive imaginary part of the target eigenvalue pair.
    cluster_tol : float
        Relative tolerance for matching eigenvalues of ``m`` to ``i*beta``.

    Returns
    -------
    basis : ndarray, shape (n, 2*mult)
        Orthonormal columns spanning the maximal real invariant subspace of
        the cluster; ``mult`` is the complex multiplicity of ``i*beta``.

    Notes
    -----
    The basis is assembled from real and imaginary parts of the complex
    eigenvectors of the cluster and then orthonormalized.  Defective
    (non-diagonalizable) clusters are rejected rather than silently
    mishandled.
    """
    m = np.asarray(m, dtype=float)
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    scale = 1.0 + float(np.max(np.abs(w)))
    sel = np.nonzero(np.abs(w - 1j * beta) < cluster_tol * scale)[0]
    if sel.size == 0:
        raise NotAnEigenvalue(f"no eigenvalue within tolerance of {beta}i")
    mult = int(sel.size)
    cols = []
    for col in sel:
        cols.append(v[:, col].real)
        cols.append(v[:, col].imag)
    basis = orthonormal_columns(np.column_stack(cols))
    if basis.shape[1] != 2 * mult:
        raise ConvergenceFailure(
            f"eigenvalue cluster at {beta}i is defective "
            f"(real span {basis.shape[1]} < {2 * mult})"
        )
    residual = float(np.linalg.norm(m @ basis - basis @ (basis.T @ m @ basis)))
    if residual > 1e-8 * scale:
        raise ConvergenceFailure(
            f"invariance residual {residual:.3e} too large for cluster at {beta}i"
        )
    return basis


def orthogonal_complement(vectors, ambient_dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(vectors)``.

    An empty input returns the full standard basis; rank-deficient inputs
    are handled through the SVD rank decision.
    """
    vecs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not vecs:
        return np.eye(ambient_dim)
    mat = np.column_stack(vecs)
    if mat.shape[0] != ambient_dim:
        raise ValueError(f"vectors live in R^{mat.shape[0]}, expected R^{ambient_dim}")
    u, s, _ = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0.0 else 0
    return u[:, rank:]


def compress(a, basis) -> np.ndarray:
    """Restriction ``basis^T a basis`` of a quadratic form to a subspace."""
    basis = np.asarray(basis, dtype=float)
    return basis.T @ np.asarray(a, dtype=float) @ basis
