"""Check that workload inputs depend on the seed and on nothing else.

    python3 perfbench/check_inputs.py

For every workload in BENCHMARK.json, generating the inputs twice from one
seed must give identical inputs, and another seed must give different ones.
Exits 1 and names the workload when either fails. (Each end-to-end run also
compares the inputs of its set-up processes with its own.)
"""

from __future__ import annotations

import bootstrap

bootstrap.configure()

import json  # noqa: E402
import sys  # noqa: E402

from harness import fingerprint, load_workload  # noqa: E402
from run import BENCHMARK_JSON  # noqa: E402


def main() -> int:
    bad = []
    for entry in json.loads(BENCHMARK_JSON.read_text())["workloads"]:
        workload = load_workload(entry["name"])
        first, again, other = (fingerprint(workload.make_inputs(s)) for s in (1, 1, 2))
        ok = first == again and first != other
        print(f"{entry['name']:16s} same seed identical: {first == again}  other seed differs: {first != other}")
        if not ok:
            bad.append(entry["name"])
    if bad:
        print(f"seed dependence broken for {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
