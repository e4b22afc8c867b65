"""Process environment shared by every benchmark entry point.

``configure()`` must run before numpy is imported: it pins the BLAS/OpenMP
thread count and makes ``spacetimeq`` importable only from this checkout's
``src`` directory, for this process and for every child it starts.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# One BLAS thread, never more than nproc. The kernels here multiply 2x2 to
# 256x256 matrices; at two OpenBLAS threads the 40x40 Fock-space products ran
# about 8x slower and far less steadily on a 2-core machine. Keep this
# constant across commits so that runs of different commits compare.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The package under test cannot be imported from this checkout."""


def configure() -> None:
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_entry(module: str):
    """Import ``module`` and insist that it comes from this checkout."""
    import importlib

    if not (SRC / "spacetimeq" / "__init__.py").is_file():
        raise CheckoutError(f"no spacetimeq package under {SRC}")
    mod = importlib.import_module(module)
    origin = Path(mod.__file__).resolve()
    if SRC not in origin.parents:
        raise CheckoutError(f"{module} was imported from {origin}, not from {SRC}")
    return mod
