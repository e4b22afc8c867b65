"""Numerical laboratory for quantum correlations in space and time.

Dense simulators for spacetime quantum states built from measurement
correlations (pseudo-density matrices and their continuous-variable
cousins), quantum channels and their Choi matrices, process matrices
with indefinite causal order, decoherence functionals, out-of-time-order
correlators, and time-crystal correlation dynamics.

Importing the package loads none of the submodules in ``__all__``: each is
imported on its first access as an attribute (``spacetimeq.pdm``, ``from
spacetimeq import pdm``, ``from spacetimeq import *``), so a caller pays only
for the modules it uses.
"""

import importlib

__all__ = [
    "channels",
    "cv_wigner",
    "gaussian",
    "histories",
    "linalg",
    "otoc",
    "pdm",
    "process_matrix",
    "timecrystal",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
