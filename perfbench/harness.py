"""What every workload shares: its description, its oracle record, input digests.

This module imports numpy but not ``spacetimeq``, so that a set-up probe of
``cli-batch`` imports the package only through the CLI's own imports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable

import numpy as np


class OpCheck:
    """Outcome of one op's oracle checks: failures and the largest deviation."""

    def __init__(self):
        self.max_err = 0.0
        self.failures: list[str] = []

    def close(self, what: str, got, want, tol: float) -> None:
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        self.max_err = max(self.max_err, err)
        if not err <= tol:  # also catches NaN
            self.failures.append(f"{what}: deviation {err:.3g} > {tol:g}")

    def true(self, what: str, cond: bool) -> None:
        if not cond:
            self.failures.append(what)


@dataclass
class Workload:
    name: str
    entry: str  # module a user imports before the first op
    make_inputs: Callable[[int], list]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any, OpCheck], None]
    # substitutes run-specific paths into the inputs after fingerprinting
    bind: Callable[[list, str], list] = lambda pool, tmp: pool
    sizes: dict = field(default_factory=dict)
    # speed reference matched to the op's kind of work, see speed.py
    reference: str = "kernel"
    # Nominal seconds of one pass over the pool. When set, a run takes a fixed
    # number of ops from the head of the pool, len(pool) per pass_s seconds,
    # so that it covers the same ops however fast the program is.
    pass_s: float | None = None
    # ops run in child processes whose peak memory each op output carries
    # as ``maxrss_kb``; otherwise peak memory is this process's
    child_rss: bool = False
    # oracle checks run once per run, after peak memory has been read,
    # for oracles that allocate much more than an op
    final_check: Callable[[list, OpCheck], None] | None = None


def load_workload(name: str) -> Workload:
    if name == "cli-batch":
        import cli_batch

        return cli_batch.WORKLOAD
    import workloads

    return workloads.LIBRARY[name]


def fingerprint(obj) -> str:
    """Stable digest of generated inputs, for the same-seed/different-seed checks."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif is_dataclass(x) and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            for f in fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            for k in sorted(x, key=repr):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()
