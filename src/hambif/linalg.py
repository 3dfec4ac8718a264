"""Dense linear-algebra kernels for small phase spaces.

All routines are pure functions on plain numpy arrays, sized for phase
dimensions of a few dozen at most.  Eigenvalue classification is
scale-aware: anything inside ``(-eps, +eps)`` with
``eps = 1e-8 * (1 + spectral radius)`` counts as numerical kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NonSymmetric

__all__ = [
    "standard_symplectic",
    "check_symmetric",
    "inertia",
    "morse_index_negative",
    "general_eigensystem",
    "real_invariant_subspace",
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


def inertia(w) -> tuple[int, int, int]:
    """``(m+, m-, kernel)`` of symmetric-matrix eigenvalues ``w``, the kernel within ``1e-8 (1 + max|w|)`` of 0."""
    w = np.asarray(w)
    eps = 1e-8 * (1.0 + (float(np.max(np.abs(w))) if w.size else 0.0))
    pos, neg = int(np.sum(w > eps)), int(np.sum(w < -eps))
    return pos, neg, w.size - pos - neg


def morse_index_negative(a) -> int:
    """Number of negative eigenvalues of a symmetric matrix, with multiplicity."""
    return inertia(np.linalg.eigvalsh(check_symmetric(a)))[1]


def general_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues ``w`` (with multiplicity) of a real square matrix and unit eigenvectors ``v[:, i]`` for ``w[i]``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return w, v


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


def real_invariant_subspace(m, vectors, scale: float) -> np.ndarray:
    """Orthonormal basis of the real invariant subspace spanned by one eigenvalue cluster.

    Parameters
    ----------
    m : array_like, shape (n, n)
        Real matrix.
    vectors : array_like, shape (n, mult)
        Complex eigenvectors of ``m``, one for each eigenvalue of a cluster
        that holds no conjugate pair (for instance all near ``+i*beta``).
    scale : float
        ``1 + max|eigenvalue of m|``; the invariance residual must stay
        below ``1e-8 * scale``.

    Returns
    -------
    basis : ndarray, shape (n, 2*mult)
        Orthonormal columns spanning the real and imaginary parts of
        ``vectors``.

    Raises
    ------
    ConvergenceFailure
        If the cluster is defective (the real span has fewer than
        ``2*mult`` dimensions) or the span is not invariant under ``m``.
    """
    m = np.asarray(m, dtype=float)
    vectors = np.asarray(vectors)
    mult = vectors.shape[1]
    basis = orthonormal_columns(np.column_stack([part for col in vectors.T for part in (col.real, col.imag)]))
    if basis.shape[1] != 2 * mult:
        raise ConvergenceFailure(
            f"eigenvalue cluster of multiplicity {mult} is defective (real span {basis.shape[1]} < {2 * mult})"
        )
    residual = float(np.linalg.norm(m @ basis - basis @ (basis.T @ m @ basis)))
    if residual > 1e-8 * scale:
        raise ConvergenceFailure(f"invariance residual {residual:.3e} too large for a cluster of multiplicity {mult}")
    return basis


def compress(a, basis) -> np.ndarray:
    """Restriction ``basis^T a basis`` of a quadratic form to a subspace."""
    basis = np.asarray(basis, dtype=float)
    return basis.T @ np.asarray(a, dtype=float) @ basis
