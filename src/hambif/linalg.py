"""Dense linear-algebra kernels for small phase spaces.

All routines are pure functions on plain numpy arrays, sized for phase
dimensions of a few dozen at most.  Eigenvalue classification is
scale-aware: anything inside ``(-eps, +eps)`` with
``eps = 1e-8 * (1 + spectral radius)`` counts as numerical kernel.
``invariant_subspaces`` treats every eigenvalue cluster of one size in one
stacked SVD, invariance residual and ``eigvalsh``; numpy applies the same
LAPACK/BLAS call to each matrix of a stack, so each cluster gets the bits it
would get alone, and ``real_invariant_subspace`` is its one-cluster case.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, NonSymmetric

__all__ = [
    "standard_symplectic",
    "check_symmetric",
    "inertia",
    "morse_index_negative",
    "general_eigensystem",
    "real_invariant_subspace",
    "invariant_subspaces",
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
    """Validate symmetry of ``a`` up to 1e-10 (relative) and return (a + a^T)/2; a non-finite entry is rejected.

    ``a`` is halved before the sum and the gap ``max|a - a^T|`` are taken, so
    finite entries near the float maximum neither overflow nor warn.  Outside
    the subnormal range halving is exact, so both have the bits of the
    unhalved formulas wherever those do not overflow.  A gap above the float
    maximum is reported as twice the halved gap, a finite number.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {a.shape}")
    scale = 1.0 + (float(np.abs(a).max()) if a.size else 0.0)
    if not math.isfinite(scale):
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise NonSymmetric(f"matrix has a non-finite entry {a[i, j]} at ({i}, {j})")
    half = 0.5 * a
    half_gap = float(np.abs(half - half.T).max()) if a.size else 0.0
    gap = 2.0 * half_gap  # inf where the gap is above the float maximum: then shown as 2 * the halved gap
    if gap > 1e-10 * scale:
        shown = f"{gap:.3e}" if math.isfinite(gap) else f"2 * {half_gap:.3e}"
        raise NonSymmetric(f"symmetry violation {shown} exceeds 1.0e-10 * scale")
    return half + half.T


def inertia(w) -> tuple[int, int, int]:
    """``(m+, m-, kernel)`` of symmetric-matrix eigenvalues ``w``, the kernel within ``1e-8 (1 + max|w|)`` of 0.

    Raises ``ValueError`` naming a non-finite eigenvalue: ``eps`` is finite exactly when every ``|w|`` is.
    """
    w = np.asarray(w)
    eps = 1e-8 * (1.0 + (float(np.abs(w).max()) if w.size else 0.0))
    if not math.isfinite(eps):
        raise ValueError(f"eigenvalues must be finite, got {w[~np.isfinite(w)][0]}")
    pos, neg = int((w > eps).sum()), int((w < -eps).sum())
    return pos, neg, w.size - pos - neg


def morse_index_negative(a) -> int:
    """Number of negative eigenvalues of a symmetric matrix, with multiplicity."""
    return inertia(np.linalg.eigvalsh(check_symmetric(a)))[1]


def general_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues ``w`` (with multiplicity) of a real square matrix and unit eigenvectors ``v[:, i]`` for ``w[i]``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
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

    The one-cluster case of :func:`invariant_subspaces`, without the form.

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
    bases, (failure,) = _real_spans(np.asarray(m, dtype=float), np.asarray(vectors)[None], scale)
    if failure:
        raise ConvergenceFailure(failure)
    return bases[0]


def invariant_subspaces(m, a, vectors, clusters, scale: float) -> tuple[tuple, tuple]:
    """Bases ``E_j`` of the real invariant subspaces of ``m`` that eigenvalue clusters span, and each inertia of ``compress(a, E_j)``.

    ``clusters`` are lists of column indices into the eigenvectors
    ``vectors`` of ``m``, each a cluster as :func:`real_invariant_subspace`
    takes it; ``a`` is symmetric.  The clusters of one size share one
    stacked SVD, one invariance residual and one ``eigvalsh``, and each
    gets the bits that :func:`real_invariant_subspace`, ``compress`` and
    ``eigvalsh`` give it alone.  Returns the bases and the inertias in
    cluster order.

    Raises
    ------
    ConvergenceFailure
        With the text :func:`real_invariant_subspace` gives the first
        cluster, in cluster order, that is defective or not invariant.
    """
    m, a, vectors = np.asarray(m, dtype=float), np.asarray(a, dtype=float), np.asarray(vectors)
    bases, inertias, failures = [None] * len(clusters), [None] * len(clusters), []
    for mult in sorted({len(c) for c in clusters}):
        at = [i for i, c in enumerate(clusters) if len(c) == mult]
        spans, texts = _real_spans(m, vectors[:, [clusters[i] for i in at]].transpose(1, 0, 2), scale)
        failures += [(i, text) for i, text in zip(at, texts) if text]
        for i, basis, w in zip(at, spans, np.linalg.eigvalsh(spans.transpose(0, 2, 1) @ a @ spans)):
            bases[i], inertias[i] = basis, inertia(w)
    if failures:
        raise ConvergenceFailure(min(failures)[1])
    return tuple(bases), tuple(inertias)


def _real_spans(m, vectors, scale: float) -> tuple[np.ndarray, list]:
    """Orthonormal bases of the real spans of a ``(count, n, mult)`` stack of clusters, with each one's failure text or ``""``.

    Each basis is ``orthonormal_columns`` of ``[Re v_1, Im v_1, ...]`` where
    that has full rank, and each residual norm is ``np.linalg.norm``'s own
    ``sqrt(x . x)`` of the flattened residual, to the bit.
    """
    count, n, mult = vectors.shape
    u, s, _ = np.linalg.svd(np.stack((vectors.real, vectors.imag), axis=-1).reshape(count, n, 2 * mult), full_matrices=False)
    ranks = (s > 1e-10 * s[:, :1]).sum(axis=1)
    residual = (m @ u - u @ (u.transpose(0, 2, 1) @ m @ u)).reshape(count, 1, -1)
    norms = np.sqrt(residual @ residual.transpose(0, 2, 1)).ravel()
    return u, [
        f"eigenvalue cluster of multiplicity {mult} is defective (real span {rank} < {2 * mult})" if rank != 2 * mult
        else f"invariance residual {norm:.3e} too large for a cluster of multiplicity {mult}" if norm > 1e-8 * scale else ""
        for rank, norm in zip(ranks.tolist(), norms.tolist())
    ]


def compress(a, basis) -> np.ndarray:
    """Restriction ``basis^T a basis`` of a quadratic form to a subspace."""
    basis = np.asarray(basis, dtype=float)
    return basis.T @ np.asarray(a, dtype=float) @ basis
