"""Dense linear-algebra kernels for small phase spaces.

All routines are pure functions on plain numpy arrays, sized for phase
dimensions of a few dozen at most.  Eigenvalue classification is
scale-aware: anything inside ``(-eps, +eps)`` with
``eps = 1e-8 * (1 + spectral radius)`` counts as numerical kernel.
``_invariant_subspaces`` treats every eigenvalue cluster of one size in one
stacked SVD, invariance residual and ``eigvalsh``; numpy applies the same
LAPACK/BLAS call to each matrix of a stack, so each cluster gets the bits it
would get in a list of its own.

The public names are ``standard_symplectic``, ``check_symmetric`` and
``morse_index_negative``.  The private kernels (``_inertia``,
``_general_eigensystem``, ``_invariant_subspaces``) take arrays the package
has just made, so they check no argument; they keep every check on a value
they compute: a non-finite eigenvalue, an eigensolver failure, a defective
cluster and an invariance residual.  ``_symplectic(n)`` is
``standard_symplectic(n)``, read-only, for the package's own products with
``J``; it keeps the ``J`` of the 8 dimensions used last, so a caller who works
through many dimensions holds no more than 8 of them.  The public function
returns a fresh array.

The package's argument kinds live here, beside ``check_symmetric``, because
this is the lowest numeric module and every other one imports it: an integer
in a range (``_integer``), a finite real, positive unless stated otherwise
(``_real``), and a float array of a given shape, finite unless stated
otherwise (``_array``: a point of length ``2N``, a ``(P, 2N)`` stack of
points, a matrix).  Each public function of the package checks its arguments
once, at its entry, with these kinds, and a bad argument is a ``ValueError``
that names it (``NonSymmetric``, also a ``ValueError``, for a matrix that is
not finite and symmetric).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure, NonSymmetric

__all__ = ["standard_symplectic", "check_symmetric", "morse_index_negative"]


def _integer(name: str, value, low=1, high=None):
    """``value`` as an ``int``, unless it is not an integer (a numpy one is, a bool is not) in ``low..high``: then ``ValueError`` naming ``name``.

    ``high=None`` leaves the range open above, and ``low=None`` too below.
    The ``int`` keeps a numpy integer's own width out of the caller's arithmetic.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if (low is None or value >= low) and (high is None or value <= high):
            return int(value)
    span = "" if low is None else f" of at least {low}" if high is None else f" in {low}..{high}"
    raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def _real(name: str, value, positive: bool = True):
    """``value``, unless it is not a finite Python or numpy real number (a bool is not), or, with ``positive``, not above 0: then ``ValueError`` naming ``name``."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if real and not isinstance(value, bool) and math.isfinite(value):
        if value > 0.0 or not positive:
            return value
    raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite, got {value if real else repr(value)}")


def _array(name: str, value, shape: tuple, finite: bool = True) -> np.ndarray:
    """``value`` as a float array, unless its shape is not ``shape`` or, with ``finite``, an entry is not finite: then ``ValueError`` naming ``name``.

    ``shape`` may start with ``None`` axes, each of any length.  A value
    numpy makes no float array of (a string of numbers, a ragged nested list,
    a dict) is a ``ValueError`` naming ``name`` too.
    """
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a float array, got {value!r}") from None
    free = shape.count(None)
    if array.ndim != len(shape) or array.shape[free:] != shape[free:]:
        raise ValueError(f"{name} must have shape {str(shape).replace('None', 'P')}, got {array.shape}")
    if finite and np.count_nonzero(np.isfinite(array)) != array.size:
        raise ValueError(f"{name} must be finite, got {array[~np.isfinite(array)][0]}")
    return array


def standard_symplectic(n: int) -> np.ndarray:
    """Return the 2n x 2n block matrix [[0, I], [-I, 0]]."""
    n = _integer("n", n)
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


@lru_cache(maxsize=8)
def _symplectic(n: int) -> np.ndarray:
    """``standard_symplectic(n)``, read-only, kept for the 8 dimensions used last: the ``J`` that the package's own products read."""
    j = standard_symplectic(n)
    j.flags.writeable = False
    return j


def check_symmetric(a) -> np.ndarray:
    """Validate symmetry of ``a`` up to 1e-10 (relative) and return (a + a^T)/2; a non-finite entry is rejected.

    ``a`` is halved before the sum and the gap ``max|a - a^T|`` are taken, so
    finite entries near the float maximum neither overflow nor warn.  Outside
    the subnormal range halving is exact, so both have the bits of the
    unhalved formulas wherever those do not overflow.  A gap above the float
    maximum is reported as twice the halved gap, a finite number.
    """
    a = _array("a", a, (None, None), finite=False)
    if a.shape[0] != a.shape[1]:
        raise NonSymmetric(f"a must be a square matrix, got shape {a.shape}")
    scale = 1.0 + (float(np.abs(a).max()) if a.size else 0.0)
    if not math.isfinite(scale):
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise NonSymmetric(f"a has a non-finite entry {a[i, j]} at ({i}, {j})")
    half = 0.5 * a
    half_gap = float(np.abs(half - half.T).max()) if a.size else 0.0
    gap = 2.0 * half_gap  # inf where the gap is above the float maximum: then shown as 2 * the halved gap
    if gap > 1e-10 * scale:
        shown = f"{gap:.3e}" if math.isfinite(gap) else f"2 * {half_gap:.3e}"
        raise NonSymmetric(f"a: symmetry violation {shown} exceeds 1.0e-10 * scale")
    return half + half.T


def _inertia(w) -> tuple[int, int, int]:
    """``(m+, m-, kernel)`` of the 1-D array ``w`` of symmetric-matrix eigenvalues, the kernel within ``1e-8 (1 + max|w|)`` of 0.

    A non-finite eigenvalue is a ``ValueError`` naming ``w``: ``eps`` is
    finite exactly when every ``|w|`` is.
    """
    eps = 1e-8 * (1.0 + (float(np.abs(w).max()) if w.size else 0.0))
    if not math.isfinite(eps):
        raise ValueError(f"w must be finite, got {w[~np.isfinite(w)][0]}")
    pos, neg = int((w > eps).sum()), int((w < -eps).sum())
    return pos, neg, w.size - pos - neg


def morse_index_negative(a) -> int:
    """Number of negative eigenvalues of a symmetric matrix, with multiplicity."""
    return _inertia(np.linalg.eigvalsh(check_symmetric(a)))[1]


def _general_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues ``w`` (with multiplicity) of a real square array and unit eigenvectors ``v[:, i]`` for ``w[i]``.

    numpy's own failures, a non-finite entry among them, are ``ConvergenceFailure``.
    """
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return w, v


def _numerical_rank(s):
    """Numerical rank of descending singular values along the last axis: the count above 1e-10 of the largest."""
    return (s.T > 1e-10 * s.T[0]).sum(axis=0)


def _orthonormal_columns(mat) -> np.ndarray:
    """Orthonormal basis of the column span of a 2-D array (SVD, rank ``_numerical_rank``): the per-cluster reference of ``_real_spans``."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((mat.shape[0], 0))
    return u[:, : _numerical_rank(s)]


def _invariant_subspaces(m, a, vectors, clusters, scale: float) -> tuple[tuple, tuple]:
    """Bases ``E_j`` of the real invariant subspaces of ``m`` that eigenvalue clusters span, and each inertia of ``E_j^T a E_j``.

    ``clusters`` are lists of column indices into the eigenvectors
    ``vectors`` of ``m``, each a cluster of eigenvalues that holds no
    conjugate pair (for instance all near ``+i beta``); ``a`` is the
    symmetric array ``matrix_report`` checked, and ``scale`` is
    ``1 + max|eigenvalue of m|``.  Each basis ``E_j`` has
    orthonormal columns spanning the real and imaginary parts of its
    cluster's vectors, two per vector.  The clusters of one size share one
    stacked SVD, one invariance residual and one ``eigvalsh``, and each
    gets the bits that a list of that cluster alone, ``E_j^T a E_j`` and
    ``eigvalsh`` give it.  Returns the bases and the inertias in cluster
    order.  ``vectors`` and ``clusters`` are taken as the eigensolver gave
    them.

    Raises
    ------
    ConvergenceFailure
        For the first cluster, in cluster order, that is defective (its real
        span has fewer than two dimensions per vector) or whose span's
        invariance residual is above ``1e-8 * scale``.
    """
    bases, inertias, failures = [None] * len(clusters), [None] * len(clusters), []
    for mult in sorted({len(c) for c in clusters}):
        at = [i for i, c in enumerate(clusters) if len(c) == mult]
        spans, texts = _real_spans(m, vectors[:, [clusters[i] for i in at]].transpose(1, 0, 2), scale)
        failures += [(i, text) for i, text in zip(at, texts) if text]
        for i, basis, w in zip(at, spans, np.linalg.eigvalsh(spans.transpose(0, 2, 1) @ a @ spans)):
            bases[i], inertias[i] = basis, _inertia(w)
    if failures:
        raise ConvergenceFailure(min(failures)[1])
    return tuple(bases), tuple(inertias)


def _real_spans(m, vectors, scale: float) -> tuple[np.ndarray, list]:
    """Orthonormal bases of the real spans of a ``(count, n, mult)`` stack of clusters, with each one's failure text or ``""``.

    Each basis is ``_orthonormal_columns`` of ``[Re v_1, Im v_1, ...]`` where
    that has full rank, and each residual norm is ``np.linalg.norm``'s own
    ``sqrt(x . x)`` of the flattened residual, to the bit.
    """
    count, n, mult = vectors.shape
    u, s, _ = np.linalg.svd(np.stack((vectors.real, vectors.imag), axis=-1).reshape(count, n, 2 * mult), full_matrices=False)
    ranks = _numerical_rank(s)
    residual = (m @ u - u @ (u.transpose(0, 2, 1) @ m @ u)).reshape(count, 1, -1)
    norms = np.sqrt(residual @ residual.transpose(0, 2, 1)).ravel()
    return u, [
        f"eigenvalue cluster of multiplicity {mult} is defective (real span {rank} < {2 * mult})" if rank != 2 * mult
        else f"invariance residual {norm:.3e} too large for a cluster of multiplicity {mult}" if norm > 1e-8 * scale else ""
        for rank, norm in zip(ranks.tolist(), norms.tolist())
    ]
