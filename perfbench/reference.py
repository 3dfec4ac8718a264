"""The fixed reference computation that request times are divided by.

This machine's speed swings by up to 2x over tens of seconds, for every
process alike.  Raw medians of 15-second runs spread by 20-50% across
runs; request times divided by reference times measured in between them
spread by a few percent.  A gain in the program lowers the ratio, a slower
machine moves both sides.

* ``kernel()`` times an in-process mix of what hambif's time goes to:
  Python calls on 6-vectors and small dense LAPACK calls.  In-process
  requests are divided by it.
* ``cold()`` times a fresh interpreter that imports numpy and the stdlib
  modules the CLI uses and runs the kernel a few times.  CLI calls, which
  are mostly interpreter start-up and imports, are divided by it.

Neither touches hambif or scipy.  Both must stay fixed, or runs stop being
comparable.  ``python3 perfbench/reference.py`` is the cold reference.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bootstrap import ROOT, child_env

_RNG = np.random.default_rng(20191906)
_MATRIX = _RNG.standard_normal((48, 48)) + 48.0 * np.eye(48)
_VECTOR = _RNG.standard_normal(48)
COLD_REPEATS = 10


def _field(z):
    q, p = z[:3], z[3:]
    d = np.sqrt(float(q @ q))
    return np.concatenate([q / d**3 + 0.1 * p, p - 0.1 * q])


def kernel() -> float:
    """Seconds taken by the in-process reference computation."""
    start = time.perf_counter()
    z = np.linspace(0.5, 1.5, 6)
    for _ in range(400):
        z = z + 1e-9 * _field(z)
    for _ in range(8):
        np.linalg.solve(_MATRIX, _VECTOR)
    np.linalg.eigvals(_MATRIX[:24, :24])
    return time.perf_counter() - start


def cold() -> float:
    """Seconds from spawning the cold reference interpreter to its exit."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        cwd=ROOT,
        env=child_env(),
        check=True,
        capture_output=True,
        timeout=60,
    )
    return time.perf_counter() - start


if __name__ == "__main__":
    import argparse  # noqa: F401  imported as the CLI imports it
    import configparser  # noqa: F401
    import json  # noqa: F401

    for _ in range(COLD_REPEATS):
        kernel()
