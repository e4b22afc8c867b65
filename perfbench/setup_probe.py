"""One set-up of a workload in a fresh process, as ``run.py`` times it.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the workload's entry module and generates its seeded inputs, then
prints ``ready``; the parent's clock runs from starting this process to that
line. Only then does it print the inputs' fingerprint, so that the parent can
check that every set-up made the same inputs. Nothing else is imported before
``ready``: the workload module brings numpy, and for the library workloads the
``spacetimeq`` modules their inputs are made with.
"""

import bootstrap

bootstrap.configure()

import sys  # noqa: E402

from harness import fingerprint, load_workload  # noqa: E402

workload = load_workload(sys.argv[1])
bootstrap.import_entry(workload.entry)
inputs = workload.make_inputs(int(sys.argv[2]))
print("ready", flush=True)
print(fingerprint(inputs), flush=True)
