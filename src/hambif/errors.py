"""Exception hierarchy used across the toolkit."""


class HambifError(Exception):
    """Base class for all toolkit errors."""


class NonSymmetric(HambifError, ValueError):
    """A matrix required to be symmetric is not square, has a non-finite entry or violates the symmetry tolerance."""


class ConvergenceFailure(HambifError):
    """An eigensolver failed, or an eigenvalue cluster is defective."""


class NoSuchLevel(HambifError, IndexError):
    """A candidate level index j0 lies outside 1..(number of levels)."""


class EvaluationFailure(HambifError):
    """A user-supplied energy/derivative evaluator raised an exception."""


class NoConvergence(HambifError):
    """An iterative solve (Newton) failed to reach its tolerance."""


class NotASymmetry(HambifError):
    """A declared generator is not a symmetry of H at the refined equilibrium."""


class SectionNotZero(HambifError, ValueError):
    """The section field does not vanish at ``z0`` to its noise bound: ``z0`` is no equilibrium."""


class DegenerateSection(HambifError):
    """The section-restricted Hessian is singular beyond tolerance."""


class UnknownPreset(HambifError):
    """Requested preset name is not registered."""


class MissingParameter(HambifError):
    """A preset parameter without a default was not supplied."""


class NoImaginaryPairs(HambifError):
    """The linearization has no purely imaginary eigenvalue pairs."""


class Degenerate(HambifError):
    """A matrix is too singular for the computation asked of it.

    The section Jacobian for a degree path (any kernel for the nondegenerate
    one, over 2 for the reduction), or the Hessian on a level's invariant
    subspace for the Morse jump.
    """


class NotAMinimum(HambifError):
    """Certification of an isolated local minimum on the section failed."""


class BoundaryZero(HambifError):
    """The reduced section field comes within its evaluation error of zero at a sample."""


class EmptyKernel(HambifError):
    """The mode-1 linearization has no numerical kernel at the candidate level."""


class WrongBranch(HambifError):
    """The solver left the mode-1 branch (dominant Fourier mode is not k = 1)."""


class ConfigParse(HambifError):
    """A run configuration file or flag set could not be parsed."""
