"""Bifurcation detection and periodic-orbit verification for symmetric
Hamiltonian systems z' = J grad H(z) on R^(2N).

The toolkit locates candidate bifurcation levels lambda = 1/beta from the
purely imaginary spectrum of the linearization at a group orbit of
equilibria, checks the computable criteria for each level (nonresonance,
Morse-index jumps of the mode-1 block matrix, signature conditions on
invariant subspaces, Brouwer degree on the orthogonal section), and
verifies confirmed predictions by computing the emanating branch of
periodic orbits with a harmonic-balance Newton solver.  The library is
used through its modules (``from hambif import analysis, model, orbits``).
"""

import importlib

from . import analysis, degree, errors, linalg, model, orbits

__version__ = "0.1.0"


def __getattr__(name):
    # ``cli`` loads on first use, so ``python -m hambif.cli`` runs a module
    # that importing the package has not already executed
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["analysis", "cli", "degree", "errors", "linalg", "model", "orbits", "__version__"]
