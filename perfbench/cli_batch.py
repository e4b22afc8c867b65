"""The cli-batch workload and the CLI layer probes.

One op is one ``python -m spacetimeq.cli ...`` subprocess taken from a fixed
cycle of 30 invocations, in five blocks of six. Each block holds one
invalid-argument probe whose contract exit code is 2. Seeds and parameter
values come from the workload seed; ``{tmp}`` in an argument stands for the
run's scratch directory, so the generated inputs do not depend on it.

A run takes one pass over the cycle per 20 s of ``--seconds``, from its first
call, so that every run times the same calls however fast the CLI is: the
end-to-end run at 20 s times all 30, and each half of a traced run the first
15. Each call's
stdout and stderr go to files in the scratch directory, and the child is
reaped with ``os.wait4``, which gives its own peak memory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from bootstrap import ROOT
from harness import OpCheck, Workload

SIZES = {"probe_repeats": 3}
OP_TIMEOUT_S = 120
# seconds of one pass over the cycle at reference speed (30 calls of about 0.7 s)
PASS_S = 20.0

# ROADMAP item 5's exit-code defects. They run outside the timed cycle, so
# that every op of the workload can pass at the seed, and are reported as
# cli.contract_failures on every traced run and in every cli-batch record.
CONTRACT_PROBES = (
    ("cv-wigner", "normcheck", "--points", "0"),
    ("--config",),
    ("tc", "decay", "--channel", "depolarizing", "--p", "0.1", "--n", "-3"),
)


@dataclass(frozen=True)
class Call:
    argv: tuple
    experiment: str | None = None  # None marks an invalid-argument probe
    csv_columns: tuple = ()  # a CSV payload must carry these columns
    out_file: str | None = None  # payload goes to this file, not stdout

    @property
    def code(self) -> int:
        return 0 if self.experiment else 2


def make_cycle(seed: int) -> list:
    rng = np.random.default_rng([seed, 0])

    def seed_arg():
        return str(int(rng.integers(1, 10**6)))

    def num(lo, hi):
        return f"{rng.uniform(lo, hi):.4f}"

    def state():
        return str(rng.choice(["zero", "one", "plus", "mixed"]))

    def paulis(n):
        return ",".join(rng.choice(list("XYZ"), size=n))

    def cplx():  # passed as --flag=value, since a leading minus would read as a flag
        return f"{num(-1, 1)},{num(-1, 1)}"

    return [
        # block 0
        Call(("pdm", "eigen", "--state", state(), "--steps", f"depolarizing:{num(0, 1)},haar",
              "--seed", seed_arg()), "pdm.eigen"),
        Call(("process", "vertices", "--enumerate"), "process.vertices"),
        Call(("tc", "spectrum", "--length", "6", "--epsilon", num(0, 0.1), "--seed", seed_arg()),
             "tc.spectrum"),
        Call(("cv-wigner", "point", f"--alpha={cplx()}", f"--beta={cplx()}", "--channel", "phase-damping"),
             "cv-wigner.point"),
        Call(("gaussian", "temporal", "--initial", f"thermal:{num(0, 2)}", "--step",
              f"rotation:{num(0, 3)}", "--format", "csv"), "gaussian.temporal", ("experiment",)),
        Call(("nosuchgroup",)),
        # block 1
        Call(("histories", "df", "--state", state(), "--paulis", paulis(3), "--unitary", "haar",
              "--seed", seed_arg(), "--format", "csv"), "histories.df", ("hist", "hist_prime", "re", "im")),
        Call(("otoc", "direct", "--d", "4", "--seed", seed_arg()), "otoc.direct"),
        Call(("pdm", "correlation", "--state", state(), "--steps", f"hadamard,dephasing:{num(0, 1)}",
              "--paulis", paulis(3)), "pdm.correlation"),
        Call(("cj", "roundtrip", "--channel", "dephasing", "--lam", num(0, 1)), "cj.roundtrip"),
        Call(("pdm", "tetra", "--state", state(), "--steps", "haar", "--seed", seed_arg()), "pdm.tetra"),
        Call(("pdm", "eigen", "--state", "bogus")),
        # block 2
        Call(("--config", "{tmp}/config.json"), "pdm.monotone"),
        Call(("histories", "corr", "--state", state(), "--paulis", paulis(3), "--unitary", "hadamard"),
             "histories.corr"),
        Call(("gaussian", "pt", "--r", num(3.0, 3.5)), "gaussian.pt"),
        Call(("otoc", "finalstate", "--n", str(int(rng.integers(4, 9))), "--seed", seed_arg(),
              "--out", "{tmp}/finalstate.json"), "otoc.finalstate", out_file="{tmp}/finalstate.json"),
        Call(("tc", "decay", "--channel", "depolarizing", "--p", num(0, 1), "--n", "20", "--obs", "X",
              "--format", "csv", "--out", "{tmp}/decay.csv"), "tc.decay", ("N", "corr"),
             out_file="{tmp}/decay.csv"),
        Call(("otoc", "direct", "--d", "4")),  # missing seed
        # block 3
        Call(("cj", "check", "--channel", "haar", "--seed", seed_arg()), "cj.check"),
        Call(("game", "gyni", "--demo", "paper"), "process.gyni"),
        Call(("histories", "consistent", "--state", state(), "--paulis", paulis(2), "--unitary", "haar",
              "--seed", seed_arg()), "histories.consistent"),
        Call(("tc", "symm", "--p", num(0, 0.25), "--n", "50", "--format", "csv"), "tc.symm", ("N", "corr")),
        Call(("otoc", "pdm", "--d", "4", "--seed", seed_arg()), "otoc.pdm"),
        Call(("cj", "check", "--channel", "depolarizing")),  # missing --p
        # block 4
        Call(("process", "correlate", "--u", "haar", "--seed", seed_arg(), "--i", paulis(1),
              "--j", paulis(1)), "process.correlate"),
        Call(("tc", "phaseflip", "--p", num(0, 0.5), "--n", "10", "--format", "csv"), "tc.phaseflip",
             ("xx", "zz")),
        Call(("pdm", "build", "--state", state(), "--steps", f"dephasing:{num(0, 1)},haar",
              "--seed", seed_arg(), "--out", "{tmp}/pdm.json"), "pdm.build", out_file="{tmp}/pdm.json"),
        Call(("otoc", "harmonic", "--m", num(0.5, 2), "--omega", num(0.5, 2), "--tau", num(0.1, 3)),
             "otoc.harmonic"),
        Call(("tc", "floquet", "--length", "6", "--epsilon", num(0, 0.1), "--periods", "32",
              "--seed", seed_arg(), "--format", "csv"), "tc.floquet", ("period", "corr")),
        Call(("gaussian", "state", "--kind", "tmss:abc")),
    ]


def make_inputs(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    config = {
        "experiment": "pdm.monotone",
        "params": {
            "state": str(rng.choice(["zero", "one", "plus", "mixed"])),
            "steps": f"depolarizing:{rng.uniform(0, 1):.4f},haar",
            "seed": int(rng.integers(1, 10**6)),
        },
    }
    return [{"call": call, "config": config} for call in make_cycle(seed)]


def bind(pool: list, tmp: str) -> list:
    """Write the config file into ``tmp`` and substitute it for ``{tmp}``."""
    with open(os.path.join(tmp, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(pool[0]["config"], fh)

    def sub(text):
        return text.replace("{tmp}", tmp) if text else text

    return [
        {
            "argv": [sub(a) for a in inp["call"].argv],
            "call": inp["call"],
            "out_file": sub(inp["call"].out_file),
            "tmp": tmp,
        }
        for inp in pool
    ]


def op(inp):
    """Run one CLI call; return its exit code, output, payload file and peak memory."""
    with tempfile.TemporaryFile(dir=inp["tmp"]) as out, tempfile.TemporaryFile(dir=inp["tmp"]) as err:
        proc = subprocess.Popen([sys.executable, "-m", "spacetimeq.cli", *inp["argv"]],
                                stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    text = None
    if inp["out_file"] and os.path.exists(inp["out_file"]):
        with open(inp["out_file"], encoding="utf-8") as fh:
            text = fh.read()
        os.remove(inp["out_file"])
    return {"code": proc.returncode, "stdout": stdout, "stderr": stderr, "file": text,
            "maxrss_kb": usage.ru_maxrss}


def check(inp, out, chk: OpCheck) -> None:
    call = inp["call"]
    cmd = " ".join(call.argv)
    chk.true(f"{cmd}: exit {out['code']}, expected {call.code}", out["code"] == call.code)
    chk.true(f"{cmd}: traceback on stderr", "Traceback" not in out["stderr"])
    if call.code != 0 or out["code"] != 0:
        return
    text = out["file"] if call.out_file else out["stdout"]
    if text is None:
        chk.true(f"{cmd}: no payload in {call.out_file}", False)
        return
    try:
        if call.csv_columns:
            rows = list(csv.DictReader(io.StringIO(text)))
            chk.true(f"{cmd}: empty CSV", bool(rows))
            missing = [c for c in call.csv_columns if rows and c not in rows[0]]
            chk.true(f"{cmd}: CSV lacks {missing}", not missing)
            if "experiment" in call.csv_columns and rows:
                named = rows[0]["experiment"]
                chk.true(f"{cmd}: CSV names {named}", named == call.experiment)
        else:
            named = json.loads(text).get("experiment")
            chk.true(f"{cmd}: payload names {named}", named == call.experiment)
    except (ValueError, csv.Error) as exc:
        chk.true(f"{cmd}: payload does not parse ({exc})", False)


WORKLOAD = Workload(
    "cli-batch", "spacetimeq.cli", make_inputs, op, check, bind=bind, sizes=SIZES,
    reference="startup", pass_s=PASS_S, child_rss=True,
)


# -- CLI layer probes ---------------------------------------------------------


def run_main(cli, argv) -> int:
    """Run ``cli.main(argv)`` in-process and return the exit code a shell would see."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # the interpreter would print it and exit 1
            traceback.print_exc()
            return 1


def _scipy_import_seconds() -> float:
    """Sum of self times of scipy modules in ``-X importtime`` of the CLI."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import spacetimeq.cli"],
        check=True, capture_output=True, text=True, cwd=ROOT,
    )
    total_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if self_us.isdigit() and (name == "scipy" or name.startswith("scipy.")):
            total_us += int(self_us)
    return total_us / 1e6


def layer_probes(seed: int, tmp: str, speed) -> dict:
    """Per-layer CLI figures: interpreter start, import, scipy's share, in-process main.

    Interpreter start is the ``startup`` speed reference itself: a fresh
    ``python -c "import numpy"``.
    """
    repeats = SIZES["probe_repeats"]
    import_code = (
        "import time; t = time.perf_counter(); import spacetimeq.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", import_code], check=True, capture_output=True,
                              text=True, cwd=ROOT)
        imports.append(float(proc.stdout.strip()))

    import spacetimeq.cli as cli

    pool = bind(make_inputs(seed), tmp)
    main_s = []
    for inp in pool:
        t0 = time.perf_counter()
        run_main(cli, inp["argv"])
        main_s.append(time.perf_counter() - t0)
        if inp["out_file"] and os.path.exists(inp["out_file"]):
            os.remove(inp["out_file"])
    return {
        "cli.python_startup_s": statistics.median(speed.sample("startup") for _ in range(repeats)),
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": statistics.median(_scipy_import_seconds() for _ in range(repeats)),
        "cli.main_s": statistics.fmean(main_s),
        "cli.contract_failures": len(contract_failures(cli)),
    }


def contract_failures(cli) -> list:
    """The contract probes whose exit code is not 2."""
    failed = []
    for argv in CONTRACT_PROBES:
        code = run_main(cli, argv)
        if code != 2:
            failed.append(f"{' '.join(argv)}: exit {code}, expected 2")
    return failed
