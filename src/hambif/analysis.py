"""Computable bifurcation criteria near a symmetric equilibrium.

Candidate levels are lambda = 1/beta_j, where +/- i beta_j runs through the
purely imaginary eigenvalue pairs of J * hessian(H).  One eigendecomposition
of J * hessian(H), formed by ``linalg._apply_j`` along the rows (the
package's one product with J, a swap of halves), decides them: its purely
imaginary eigenvalues are clustered as sets of indices, and each level's
beta_j, multiplicity and invariant subspace E_j come from its one index set.
The levels' subspaces and the Hessian's inertia on each come from
``linalg._invariant_subspaces``: one stacked SVD, invariance residual and
``eigvalsh`` per cluster size, not one set of calls per level.  The report
also holds the equilibrium's own facts, the Hessian's inertia
``(m_plus, m_minus, kernel_dim)``; it is kept on the equilibrium, and a
candidate does not copy them.  Each candidate is put through the checks
below and aggregated into a verdict:

* resonance: one rule, ``SpectralReport.contributors``, gives the levels
  k/beta_j (where the mode-k linearization is singular) that coincide with a
  level lambda; the index table, the resonance set and the branch's kernel
  all read it;
* index table: a level's index facts come from one table,
  ``_index_components``, the one reader of ``contributors`` plus
  ``inertias`` for them.  It holds one jump per contributor ``(k, j)``: the
  signature of the Hessian restricted to E_j, since ``T_k(lam) =
  T_1(lam / k)``, undefined (``None``) when that restriction is singular.
  The level is nonresonant (minimal periods for the emanating orbits) when
  the table is the single entry ``(1, j0)``, and that entry's jump is the
  Morse jump: the change of the negative index of the mode-1 block matrix
  across the level.  ``analyze`` builds it once per level, and its verdict,
  its ``nonresonant`` flag and ``morse_jump`` read it;
* index criteria on the invariant subspaces (the signature imbalance on the
  level's own subspace is a nonzero jump wherever the jump is defined);
* Brouwer degree of the section-restricted gradient (delegated to
  :mod:`hambif.degree`).

The verdicts rest on the symmetric Liapunov center theorem on the slice at
``z0`` (Perez-Chavela, Rybicki & Strzelecki, Calc. Var. PDE 56, 2017; Palais,
Ann. Math. 73, 1961), which needs no fact about the isotropy group of ``z0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import degree as degree_mod
from .errors import Degenerate, NoImaginaryPairs, NoSuchLevel
from .linalg import _apply_j, _array, _general_eigensystem, _inertia, _integer, _invariant_subspaces, _real, check_symmetric, standard_symplectic
from .model import EquilibriumOrbit, HamiltonianSystem

__all__ = [
    "SpectralReport",
    "ResonanceLevel",
    "ResonanceSet",
    "BifurcationCandidate",
    "AnalyzeOptions",
    "spectral_report",
    "matrix_report",
    "t_matrix",
    "resonance_set",
    "morse_jump",
    "check_szulkin_zj",
    "check_mplus",
    "newtonian_blocks",
    "analyze",
]

@dataclass(frozen=True)
class SpectralReport:
    """Eigen-data of the linearization at an equilibrium.

    ``betas`` are the distinct imaginary parts beta_1 > ... > beta_m > 0 of
    the eigenvalue pairs of J A, ``multiplicities`` their cluster sizes,
    ``subspaces`` the matching orthonormal real invariant subspace bases E_j
    and ``inertias`` the inertia ``(m+, m-, kernel)`` of ``E_j^T A E_j``,
    read by the Morse jump and the A7.1/A7.3 checks.  Both come from
    ``linalg._invariant_subspaces``: one stacked ``eigvalsh`` for all the
    levels of one multiplicity, with the bits of one ``eigvalsh`` each.
    ``m_plus``, ``m_minus`` and ``kernel_dim`` are the inertia of the whole
    Hessian, which ``analyze``'s isolatedness reason and the CLI's
    ``hessian:`` line read.
    """

    n: int
    hessian: np.ndarray
    hessian_eigenvalues: np.ndarray
    betas: tuple
    multiplicities: tuple
    subspaces: tuple
    inertias: tuple
    m_plus: int
    m_minus: int
    kernel_dim: int

    def beta(self, j0: int) -> float:
        """``beta_{j0}``: ``ValueError`` unless ``j0`` is an integer, ``NoSuchLevel`` unless it is in ``1..len(betas)``."""
        if not 1 <= _integer("j0", j0, None) <= len(self.betas):
            raise NoSuchLevel(f"j0 must be in 1..{len(self.betas)}, got {j0}")
        return self.betas[j0 - 1]

    def contributors(self, lam: float) -> tuple:
        """The ``(k, j)`` pairs, ``k >= 1``, whose level ``k/beta_j`` is ``lam`` to within ``1e-9 lam``.

        The one resonance rule: per pair, only ``k = round(lam beta_j)`` can
        qualify, so the cost is one test per level however far apart the
        levels are.
        """
        pairs = []
        for j, beta in enumerate(self.betas, start=1):
            k = round(lam * beta)
            if k >= 1 and abs(k / beta - lam) <= 1e-9 * lam:
                pairs.append((k, j))
        return tuple(pairs)


@dataclass(frozen=True)
class ResonanceLevel:
    lam: float
    contributors: tuple  # of (k, j) pairs, j 1-based into report.betas


@dataclass(frozen=True)
class ResonanceSet:
    entries: tuple

    def values(self) -> np.ndarray:
        return np.array([e.lam for e in self.entries])


def spectral_report(system: HamiltonianSystem, eq: EquilibriumOrbit) -> SpectralReport:
    """Spectral data of J * hessian(H) from ``eq.hessian`` (``system`` is not evaluated), made once and kept on ``eq``.

    ``ValueError`` unless ``eq`` is an equilibrium of ``system``'s dimension.
    """
    _array("eq.z0", eq.z0, (system.dim,))
    if eq._report is None:
        object.__setattr__(eq, "_report", matrix_report(eq.hessian))
    return eq._report


def _hamiltonian(a) -> np.ndarray:
    """``check_symmetric(a)``; ``ValueError`` unless ``a`` acts on a non-empty even-dimensional space."""
    a = check_symmetric(a)
    if a.shape[0] % 2 or not a.size:
        raise ValueError(f"a must act on a non-empty even-dimensional space, got shape {a.shape}")
    return a


def matrix_report(a) -> SpectralReport:
    """Spectral report for a bare symmetric matrix acting as the Hessian."""
    a = _hamiltonian(a)
    wa = np.linalg.eigvalsh(a)
    m_plus, m_minus, kernel_dim = _inertia(wa)
    ja = _apply_j(a, axis=0)
    wja, vja = _general_eigensystem(ja)
    scale = 1.0 + float(np.abs(wja).max())
    # the degenerate-orbit modes sit numerically near 0 and are not
    # oscillation frequencies; require beta well above the splitting noise
    beta_floor = 1e-6 * scale
    # selected and clustered on Python floats: the bits of numpy's scalars at a fraction of their cost
    real, imag = wja.real.tolist(), wja.imag.tolist()
    imaginary = [i for i, v in enumerate(imag) if abs(real[i]) < 1e-8 * scale and v > beta_floor]
    # clusters of indices, by decreasing beta; each level's beta, multiplicity
    # and invariant subspace come from its one index set
    clusters = []
    for i in sorted(imaginary, key=imag.__getitem__, reverse=True):
        head = imag[clusters[-1][0]] if clusters else None
        if head is not None and abs(imag[i] - head) < 1e-8 * (1.0 + head):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    subspaces, inertias = _invariant_subspaces(ja, a, vja, [sorted(c) for c in clusters], scale)
    return SpectralReport(
        n=a.shape[0] // 2,
        hessian=a,
        hessian_eigenvalues=wa,
        betas=tuple(float(wja[c].imag.mean()) for c in clusters),
        multiplicities=tuple(len(c) for c in clusters),
        subspaces=subspaces,
        inertias=inertias,
        m_plus=m_plus,
        m_minus=m_minus,
        kernel_dim=kernel_dim,
    )


def t_matrix(a, k: int, lam: float) -> np.ndarray:
    """Mode-k block matrix [[-(lam/k) A, -J], [J, -(lam/k) A]] (size 4N)."""
    a = _hamiltonian(a)
    k = _integer("k", k)
    _real("lam", lam)
    two_n = a.shape[0]
    out = np.zeros((2 * two_n, 2 * two_n))
    out[:two_n, :two_n] = -(lam / k) * a
    out[two_n:, two_n:] = -(lam / k) * a
    j = standard_symplectic(two_n // 2)
    out[:two_n, two_n:] = -j
    out[two_n:, :two_n] = j
    return out


def resonance_set(report: SpectralReport, k_max: int = 20) -> ResonanceSet:
    """The distinct levels k/beta_j, 1 <= k <= k_max, sorted, each with its ``report.contributors`` up to ``k_max``."""
    _integer("k_max", k_max)
    if not report.betas:
        raise NoImaginaryPairs("the linearization has no purely imaginary pairs")
    ladder = sorted((k / beta, k, j) for j, beta in enumerate(report.betas, start=1) for k in range(1, k_max + 1))
    entries, seen = [], set()
    for lam, k, j in ladder:
        if (k, j) not in seen:
            pairs = tuple(p for p in report.contributors(lam) if p[0] <= k_max)
            seen.update(pairs)
            entries.append(ResonanceLevel(lam=lam, contributors=pairs))
    return ResonanceSet(entries=tuple(entries))


def _index_components(report: SpectralReport, lam: float) -> dict:
    """The level's index table: each ``(k, j)`` of ``report.contributors(lam)``, in order, to its jump.

    One integer component per contributor, as in the S^1-equivariant degree
    of the level (Dancer & Rybicki, Differential Integral Equations 12,
    1999).  Since ``T_k(lam) = T_1(lam / k)``, the jump of ``(k, j)`` is the
    signature ``m+ - m-`` of ``report.inertias[j - 1]`` (see
    :func:`morse_jump`), and ``None`` where that restriction is singular.
    """
    components = {}
    for k, j in report.contributors(lam):
        pos, neg, kernel = report.inertias[j - 1]
        components[k, j] = None if kernel else pos - neg
    return components


def _singular(report: SpectralReport, j: int) -> str:
    return f"the Hessian is singular on the level's invariant subspace (kernel dimension {report.inertias[j - 1][2]})"


def _definite(pos: int, neg: int, kernel: int) -> bool:
    """Whether a form of inertia ``(pos, neg, kernel)`` is definite: no kernel and one sign."""
    return pos + neg + kernel in (pos, neg)


def morse_jump(a, lambda0: float, report: SpectralReport) -> int:
    """Change of the mode-1 negative index across the level ``lambda0``.

    The crossing form of ``T_1`` at ``lambda0 = 1/beta_j`` is congruent to
    the Hessian restricted to the level's invariant subspace ``E_j``, so the
    jump is the signature ``m+(C) - m-(C)`` of ``C = E_j^T a E_j``
    (Robbin & Salamon, Bull. LMS 27, 1995).  A ``lambda0`` with no ``k = 1``
    contributor gives 0.  The jump is the mode-1 entry of the level's index
    table (``_index_components``), read from ``report.inertias``.

    Raises
    ------
    ValueError
        If ``check_symmetric(a)`` is not exactly ``report.hessian``; ``a``
        that is ``report.hessian`` itself is not checked again.
    Degenerate
        If ``C`` has a kernel: the Hessian is singular on the level's
        invariant subspace and the jump is not defined.
    """
    if a is not report.hessian and not np.array_equal(check_symmetric(a), report.hessian):
        raise ValueError("a is not the Hessian the spectral report was made from")
    _real("lambda0", lambda0)
    for (k, j), jump in _index_components(report, lambda0).items():
        if k == 1:
            if jump is None:
                raise Degenerate(_singular(report, j))
            return jump
    return 0


def check_szulkin_zj(report: SpectralReport, j0: int) -> bool:
    """Signature imbalance of the Hessian on the level's invariant subspace.

    Equivalent to a nonzero mode-1 index jump at lambda = 1/beta_{j0}
    wherever that restriction is nonsingular (see :func:`morse_jump`).
    """
    report.beta(j0)
    pos, neg, _ = report.inertias[j0 - 1]
    return pos != neg


def check_mplus(report: SpectralReport) -> bool:
    """Positive-index count criterion: m+(hessian) != N."""
    return report.m_plus != report.n


def newtonian_blocks(etas, lam: float):
    """4x4 diagonal blocks of the permuted mode-1 matrix of a second-order system.

    For ``hessian = diag(etas, 1, ..., 1)`` the mode-1 matrix splits, after
    reordering the basis by columns (i, N+i, 2N+i, 3N+i), into one 4x4
    block per eta with characteristic polynomial
    ``((lam*eta + t) (lam + t) - 1)^2``.
    """
    etas = _array("etas", etas, (None,))
    n = etas.size
    a = np.diag(np.concatenate([etas, np.ones(n)]))
    t = t_matrix(a, 1, lam)
    blocks = []
    for i in range(n):
        idx = np.array([i, n + i, 2 * n + i, 3 * n + i])
        blocks.append(t[np.ix_(idx, idx)])
    return blocks


@dataclass(frozen=True)
class BifurcationCandidate:
    """One candidate level lambda0 = 1/beta_{j0} and everything checked for it."""

    j0: int
    beta: float
    multiplicity: int
    lambda0: float
    predicted_period: float
    nonresonant: bool
    morse_jump: Optional[int]
    degree_on_section: Optional[int]
    degree_path: Optional[str]
    a7_results: dict
    verdict: str
    theorem_path: Optional[str]
    reasons: tuple

    @property
    def confirmed(self) -> bool:
        return self.verdict.startswith("confirmed")

    @property
    def degree_reliable(self) -> bool:  # every section degree with a value is a certificate
        return self.degree_on_section is not None


@dataclass(frozen=True)
class AnalyzeOptions:
    """``j0``, when set, must be an integer (``ValueError``); ``analyze`` raises ``NoSuchLevel`` for one out of range."""

    j0: Optional[int] = None
    seed: int = 0  # accepted for compatibility; nothing in the analysis is randomized

    def __post_init__(self):
        if self.j0 is not None:
            _integer("j0", self.j0, None)


def _candidate_verdict(components: dict, j0: int, a7: dict, degree) -> tuple:
    """``(verdict, theorem path, reason)`` of level ``j0`` from its index table, A7 results and section degree."""
    jump = components[1, j0]
    if degree.value is None:
        return "inconclusive", None, f"section degree unavailable ({degree.detail}); existence chain cannot close"
    if degree.value == 0:
        return "inconclusive", None, "section degree vanishes; the criteria are silent here"
    if jump == 0:
        return "rejected", None, "mode-1 negative index does not change at this level"
    if jump is None:
        return "inconclusive", None, "no index certificate available for this level"
    if len(components) == 1:  # the level's own (1, j0) alone: nonresonant
        return "confirmed", "nonresonant-jump", "index jump at an isolated, nonresonant level; minimal periods certified"
    unproven = "confirmed (period not certified minimal)"
    if a7.get("definite-z", False):
        return unproven, "definite-total", "definite Hessian on the full oscillatory subspace; periods may be non-minimal"
    if a7.get("mplus", False):
        return unproven, "index-count", "positive index count differs from N; periods may be non-minimal"
    return "inconclusive", None, "resonant level; multi-mode jump analysis not implemented and no global criterion applies"


def analyze(
    system: HamiltonianSystem,
    eq: EquilibriumOrbit,
    options: Optional[AnalyzeOptions] = None,
) -> list:
    """Run every candidate level through the full criteria chain.

    Returns one :class:`BifurcationCandidate` per distinct beta (only the
    one of ``options.j0`` when that is set), ordered by decreasing beta; an
    empty list when there is no level.  Sub-check failures downgrade the
    affected candidate to "inconclusive" instead of failing the whole
    analysis.

    Raises
    ------
    NoSuchLevel
        If ``options.j0`` is set and there are levels, but not that many.
    """
    opts = options or AnalyzeOptions()
    report = spectral_report(system, eq)
    if not report.betas:
        return []
    levels = range(1, len(report.betas) + 1) if opts.j0 is None else [opts.j0]
    report.beta(levels[0])  # NoSuchLevel for an out-of-range j0
    degree_report = degree_mod.section_degree(system, eq)
    # A7.4: distinct levels' subspaces are J A-invariant and symplectically orthogonal, hence
    # A-orthogonal, so the inertia on their sum is the sum of the per-level inertias
    report_a7 = {"definite-z": _definite(*map(sum, zip(*report.inertias))), "mplus": check_mplus(report)}
    candidates = []
    for j0 in levels:
        beta = report.betas[j0 - 1]
        lambda0 = 1.0 / beta
        components = _index_components(report, lambda0)
        jump = components[1, j0]
        a7 = {
            "szulkin": check_szulkin_zj(report, j0),
            "definite-zj": _definite(*report.inertias[j0 - 1]),
            **report_a7,
        }
        verdict, path, reason = _candidate_verdict(components, j0, a7, degree_report)
        reasons = [reason] if jump is not None else [f"morse jump unavailable: {_singular(report, j0)}", reason]
        if report.multiplicities[j0 - 1] > 1:
            reasons.append(f"multiplicity > 1 (cluster size {report.multiplicities[j0 - 1]})")
        if report.kernel_dim != eq.orbit_dim:
            reasons.append(
                f"orbit isolatedness unverified (kernel dimension {report.kernel_dim} "
                f"differs from orbit dimension {eq.orbit_dim})"
            )
        candidates.append(
            BifurcationCandidate(
                j0=j0,
                beta=beta,
                multiplicity=report.multiplicities[j0 - 1],
                lambda0=lambda0,
                predicted_period=2.0 * np.pi / beta,
                nonresonant=len(components) == 1,
                morse_jump=jump,
                degree_on_section=degree_report.value,
                degree_path=degree_report.path,
                a7_results=a7,
                verdict=verdict,
                theorem_path=path,
                reasons=tuple(reasons),
            )
        )
    return candidates
