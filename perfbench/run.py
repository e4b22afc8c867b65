"""spacetimeq benchmark: one workload, one closed loop, one JSON line.

    python3 perfbench/run.py --workload qubit-timeline --seed 1 --seconds 20 --trace 0

One client runs ops back to back for ``--seconds`` seconds of op time, or,
on cli-batch, for a fixed number of calls, one whole pass over its cycle per
20 s; each op starts when the previous one has finished. Each op's outputs are checked
against an independent oracle right after its timer stops. The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics. A traced run spends half its time untraced and half
traced, which gives the tracing overhead; its spans are written to
``perfbench/out``. Every run also writes a record there with the
environment, the seed, the problem sizes and the raw timings.

Times are seconds at reference speed (see ``speed.py``): each raw time is
scaled by a fixed piece of reference work timed in another process around
it, so that the drifting speed of a shared host cancels out.

The package is imported from this checkout's ``src`` only; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import bootstrap

bootstrap.configure()  # pins BLAS threads; must precede the numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from harness import OpCheck, fingerprint, load_workload  # noqa: E402
from speed import NOMINAL_S, SpeedReference, normalise  # noqa: E402

SETUP_PROBES = 5
REFERENCE_EVERY_S = 0.25
WALL_CAP = 4
MAX_SPANS = 2_000_000  # about 250 MB of span tuples
BENCHMARK_JSON = bootstrap.ROOT / "BENCHMARK.json"


def measure_setup(name: str, seed: int, expected_fingerprint: str, speed) -> tuple[list, list]:
    """Wall seconds from process start until the first op could start, per probe.

    Returns the raw times and the interpreter-start reference samples taken
    between them.
    """
    cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / "setup_probe.py"), name, str(seed)]
    times, refs = [], [speed.sample("startup")]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            digest = proc.stdout.read().strip()
            code = proc.wait()
        if code != 0 or ready.strip() != "ready" or digest != expected_fingerprint:
            raise RuntimeError(f"set-up probe exited {code} with {ready!r} {digest!r}; "
                               "the same seed must give identical inputs in every process")
        refs.append(speed.sample("startup"))
    return times, refs


def closed_loop(workload, pool, seconds: float, first_op: int, speed, tracer=None) -> dict:
    """Run ops back to back from the head of the pool; check each after its timer stops.

    The loop runs for ``seconds`` of op time, or, if the workload sets
    ``pass_s``, for a fixed number of ops: ``seconds / pass_s`` passes over
    the pool, rounded to whole ops. The speed reference is
    sampled before the first op and then after every ``REFERENCE_EVERY_S`` of
    op time; each op is normalised by the samples around it. The loop also
    ends after ``WALL_CAP`` times ``seconds`` of wall time, or ``MAX_SPANS``
    spans when traced, so that a much faster op, whose oracle checks then
    dominate, cannot run the benchmark past its time limit or memory. Peak
    memory is read when the loop ends, before any final check.
    """
    kind = workload.reference
    raw, normalised, failures, refs, segment = [], [], [], [speed.sample(kind)], []
    max_err = 0.0
    child_kb = 0
    op_time = 0.0
    n_ops = max(1, round(seconds / workload.pass_s * len(pool))) if workload.pass_s else None
    wall_start = time.perf_counter()

    def flush():
        refs.append(speed.sample(kind))
        scale = NOMINAL_S[kind] / ((refs[-2] + refs[-1]) / 2)
        normalised.extend(t * scale for t in segment)
        segment.clear()

    while (len(raw) < n_ops if n_ops else op_time < seconds) and \
            time.perf_counter() - wall_start < WALL_CAP * seconds:
        if tracer and len(tracer.spans) > MAX_SPANS:
            break
        op_id = first_op + len(raw)
        inp = pool[len(raw) % len(pool)]
        if tracer:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            out, error = workload.op(inp), None
        except Exception:  # an op that raises is a failed op, not a failed run
            out, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        raw.append(latency)
        segment.append(latency)
        op_time += latency
        chk = OpCheck()
        if error is None:
            try:
                workload.check(inp, out, chk)
            except Exception:
                chk.failures.append("oracle raised: " + traceback.format_exc(limit=3))
            if workload.child_rss:
                child_kb = max(child_kb, out["maxrss_kb"])
        else:
            chk.failures.append("op raised: " + error)
        if chk.failures:
            failures.append((op_id, chk.failures))
        max_err = max(max_err, chk.max_err)
        if sum(segment) >= REFERENCE_EVERY_S:
            flush()
    if segment:
        flush()
    peak_kb = child_kb if workload.child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"raw_latencies": raw, "latencies": normalised, "refs": refs, "failures": failures,
            "max_err": max_err, "peak_rss_mb": peak_kb / 1024.0,  # Linux reports KiB
            "next_op": first_op + len(raw), "wall_s": time.perf_counter() - wall_start}


def final_check(workload, pool, result: dict) -> None:
    """Run the workload's once-per-run oracle; a failure makes the run incorrect."""
    if workload.final_check is None:
        return
    chk = OpCheck()
    try:
        workload.final_check(pool, chk)
    except Exception:
        chk.failures.append("oracle raised: " + traceback.format_exc(limit=3))
    result["max_err"] = max(result["max_err"], chk.max_err)
    result["final_failures"] = chk.failures


def tail(latencies: list) -> tuple[int, float]:
    """Highest whole percentile with at least 10 samples above it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = 100 * (n - 10) // n
    return p, xs[max(1, math.ceil(p * n / 100)) - 1]


def environment(args, workload, pool) -> dict:
    import numpy
    import scipy

    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, cwd=bootstrap.ROOT, timeout=10).stdout.split()
        sha = top[1] if len(top) == 2 and os.path.samefile(top[0], bootstrap.ROOT) else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {**workload.sizes, "input_pool": len(pool)},
    }


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        workload = load_workload(args.workload)
        bootstrap.import_entry(workload.entry)
    except (ImportError, bootstrap.CheckoutError) as exc:
        print(f"perfbench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2

    inputs = workload.make_inputs(args.seed)
    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.TemporaryDirectory(dir=bootstrap.OUT, prefix="tmp-")
    with SpeedReference() as speed, scratch as tmp:
        pool = workload.bind(inputs, tmp)
        if args.trace:
            metrics, runs, extra = traced_run(args, workload, pool, spec, tmp, speed)
        else:
            setup = measure_setup(args.workload, args.seed, fingerprint(inputs), speed)
            metrics, runs, extra = end_to_end_run(args, workload, pool, spec, setup, speed)
        if args.workload == "cli-batch":
            import cli_batch
            import spacetimeq.cli

            extra["contract_failures"] = cli_batch.contract_failures(spacetimeq.cli)

    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    final_failures = [f for r in runs for f in r.get("final_failures", [])]
    record = {"environment": environment(args, workload, pool), "metrics": metrics,
              "attempted": attempted, "failed": len(failures), "failures": failures[:20],
              "final_failures": final_failures,
              "loops": [{"ops": len(r["raw_latencies"]), "op_s": sum(r["raw_latencies"]),
                         "wall_s": r["wall_s"]} for r in runs],
              **extra}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = bootstrap.OUT / f"result-{stem}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {len(failures)} failed (failed_ratio {len(failures) / attempted:.4g}); "
          f"times in seconds at reference speed")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for key in ("op_s.tail", "raw", "contract_failures"):
        if key in extra:
            print(f"  {key}: {extra[key]}")
    for op_id, msgs in failures[:5]:
        print(f"  op {op_id} failed: {msgs[0]}")
    for msg in final_failures:
        print(f"  final check failed: {msg}")
    print(f"  record: {record_path.relative_to(bootstrap.ROOT)}")
    print(json.dumps({"correct": not failures and not final_failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _emit(spec_metrics, values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark computed no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def end_to_end_run(args, workload, pool, spec, setup, speed):
    result = closed_loop(workload, pool, args.seconds, 0, speed)
    final_check(workload, pool, result)
    lat = result["latencies"]
    passed = len(lat) - len(result["failures"])
    pct, tail_s = tail(lat)
    setup_times = normalise(*setup, "startup")
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": passed / sum(lat),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": tail_s,
        "pass_ratio": passed / len(lat),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = result["raw_latencies"]
    extra = {
        "op_s.tail": {"percentile": pct, "samples": len(lat)},
        "raw": {"setup_s": statistics.median(setup[0]), "ops_per_s": passed / sum(raw),
                "op_s.p50": statistics.median(raw), "op_s.tail": tail(raw)[1],
                "reference_s": statistics.median(result["refs"])},
        "oracle.max_abs_err": result["max_err"],
        "op_latencies_s": lat,
    }
    return _emit(spec["end_to_end"], values), [result], extra


def traced_run(args, workload, pool, spec, tmp, speed):
    import cli_batch
    import spacetimeq
    from tracing import Tracer

    untraced = closed_loop(workload, pool, args.seconds / 2, 0, speed)
    refs = [speed.sample(workload.reference)]
    values = cli_batch.layer_probes(args.seed, tmp, speed)
    refs.append(speed.sample(workload.reference))

    tracer = Tracer()
    tracer.install(spacetimeq)
    try:
        traced = closed_loop(workload, pool, args.seconds / 2, untraced["next_op"], speed, tracer)
    finally:
        tracer.uninstall()
    final_check(workload, pool, traced)

    n_ops = len(traced["latencies"])
    names = [m["name"] for m in spec["per_layer"]]
    values.update(tracer.layer_metrics(names, n_ops))
    # per-layer times to reference speed, like the end-to-end ones
    all_refs = untraced["refs"] + refs + traced["refs"]
    scale = NOMINAL_S[workload.reference] / statistics.median(all_refs)
    for m in spec["per_layer"]:
        if m["unit"] == "s" and m["name"] in values:
            values[m["name"]] *= scale

    def rate(r):
        return len(r["latencies"]) / sum(r["latencies"])

    values.update({
        "trace.coverage_ratio": tracer.coverage(),
        "trace.overhead_ratio": rate(traced) / rate(untraced),
        "oracle.max_abs_err": max(untraced["max_err"], traced["max_err"]),
    })
    spans_path = bootstrap.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "first_traced_op": untraced["next_op"],
                              "times": "raw perf_counter_ns", "reference_scale": scale})
    extra = {"spans": str(spans_path.relative_to(bootstrap.ROOT)), "traced_ops": n_ops,
             "untraced_ops": len(untraced["latencies"]), "reference_scale": scale}
    return _emit(spec["per_layer"], values), [untraced, traced], extra


if __name__ == "__main__":
    sys.exit(main())
