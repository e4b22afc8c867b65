"""Machine-speed references for normalising timings on a shared, noisy host.

On the 2-vCPU sandboxes this benchmark was built on, identical work took
anywhere from 0.43 s to 0.68 s as other tenants came and went, in drifts of
several seconds; CPU time drifted just as much. A fixed piece of work timed
right next to each op moves with it, so dividing by it cancels most of the
drift. Two references, matched to the kind of work timed:

- ``kernel``: a numpy matrix kernel in a long-lived child process, for ops
  that compute in this process. It cut the run-to-run spread of median op
  time from 0.06-0.19 to 0.04-0.05.
- ``startup``: a fresh ``python -c "import numpy"``, for ops and set-up that
  start an interpreter. On CLI calls it cut the spread from 0.11 to 0.04,
  where the kernel reached only 0.08.

Both run outside the process under test, so nothing the package does to its
own process (threads, BLAS settings) can change them. Timings are reported as
seconds at reference speed: raw seconds times ``NOMINAL_S[kind]`` over the
reference time measured around them.
"""

from __future__ import annotations

import subprocess
import sys
import time

from bootstrap import ROOT

# Typical time of each reference on the 2-vCPU x86-64 host the benchmark was
# built on, with one OpenBLAS thread. Only scales: they must stay fixed so
# that commits compare.
NOMINAL_S = {"kernel": 0.016, "startup": 0.125}

_KERNEL = r"""
import sys, time
import numpy as np
a = np.random.default_rng(0).normal(size=(128, 128)) + 0j
for _ in sys.stdin:
    t0 = time.perf_counter()
    x = a
    for _ in range(40):
        x = a @ x
        x /= np.abs(x).max()
    print(time.perf_counter() - t0, flush=True)
"""


class SpeedReference:
    """Times the references on request; owns the kernel's child process."""

    def __init__(self):
        self._kernel = subprocess.Popen(
            [sys.executable, "-c", _KERNEL],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def sample(self, kind: str) -> float:
        """Seconds the ``kind`` reference takes right now."""
        if kind == "startup":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, cwd=ROOT)
            return time.perf_counter() - t0
        self._kernel.stdin.write("\n")
        self._kernel.stdin.flush()
        line = self._kernel.stdout.readline()
        if not line:
            raise RuntimeError(f"speed reference exited with {self._kernel.wait()}")
        return float(line)

    def close(self) -> None:
        self._kernel.stdin.close()
        try:
            self._kernel.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._kernel.kill()
            self._kernel.wait()
        self._kernel.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def normalise(raw: list, refs: list, kind: str) -> list:
    """Scale ``raw[i]`` by the mean of the reference samples on either side of it."""
    nominal = NOMINAL_S[kind]
    return [t * nominal / ((before + after) / 2) for t, before, after in zip(raw, refs, refs[1:])]
