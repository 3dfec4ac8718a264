"""Locate the hambif checkout and pin the interpreter environment.

Every benchmark entry script imports this module first, before numpy is
imported anywhere, so that the BLAS thread count is fixed for the process
and for every child it starts.  The checkout root is the parent of this
directory; the package is imported from ``<root>/src``, never from an
installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# One BLAS thread: the largest dense solve is 274 x 274, where threads buy
# nothing and add run-to-run noise.  It is also no more than nproc.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout does not contain the hambif sources."""


def child_env() -> dict:
    """Environment for child interpreters: same BLAS threads, same sources."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def setup() -> Path:
    """Pin BLAS threads, put ``src`` first on the path and return the work dir."""
    if not (SRC / "hambif" / "__init__.py").is_file():
        raise MissingProgram(f"no hambif sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return WORK


def check_import(module) -> None:
    """Refuse a hambif imported from anywhere but this checkout."""
    where = Path(module.__file__).resolve()
    if SRC not in where.parents:
        raise MissingProgram(f"hambif was imported from {where}, not from {SRC}")
