"""The three library workloads: seeded inputs, one op each, and its oracle checks.

Every workload is a closed loop over a pool of inputs generated from the
workload seed during set-up. An op calls only public ``spacetimeq``
functions through their module attributes, so that the tracer sees every
call. Problem sizes live in ``SIZES`` and are recorded with every result;
they must never shrink to make a path faster.
"""

from __future__ import annotations

import numpy as np

from harness import OpCheck, Workload
from spacetimeq import channels, cv_wigner, gaussian, histories, linalg, pdm, timecrystal

SIZES = {
    "qubit-timeline": {
        "one_qubit_chain_events": [2, 3, 4],
        "two_qubit_chain_events": 2,
        "kraus_rank": 2,
        "history_times": 5,
        "pauli_string_checks": 3,
        "input_pool": 64,
    },
    "phase-space": {
        "n_max": 40,
        "radius": 4.0,
        "points": 12,
        # cells of the points x points grid inside the disc: a fixed problem
        # size, not a measurement; parity_projectors.calls counts evaluations
        "grid_points": 112,
        "max_coherent_amplitude": 0.6,
        "wigner_points_per_op": 4,
        "max_point_amplitude": 1.0,
        "channels": ["fock_phase_damping", "discard_and_prepare(vacuum)"],
        "gaussian_squeezing_r": [0.5, 3.0],
        "input_pool": 128,
    },
    "floquet-dtc": {
        "length": 8,
        "periods": 64,
        "epsilon": [0.0, 0.1],
        "lro_window": 16,
        "lro_threshold": 0.5,
        "input_pool": 64,
    },
}


def _seeds(rng):
    return lambda: int(rng.integers(2**31))


def _kraus(ops, rho):
    return sum(k @ rho @ k.conj().T for k in ops)


def _disc(rng, radius):
    """Uniform point in the disc |z| <= radius."""
    return complex(radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


# -- qubit-timeline -------------------------------------------------------------


def qubit_timeline_inputs(seed: int) -> list:
    size = SIZES["qubit-timeline"]
    rank = size["kraus_rank"]
    pool = []
    for k in range(size["input_pool"]):
        rng = np.random.default_rng([seed, k])
        s = _seeds(rng)
        rho = linalg.random_density_matrix(2, s())
        steps = [
            channels.random_channel(2, rank, s())
            for _ in range(max(size["one_qubit_chain_events"]) - 1)
        ]
        procs = [pdm.TemporalProcess(rho, steps[: n - 1]) for n in size["one_qubit_chain_events"]]
        rho2 = linalg.random_density_matrix(4, s())
        steps2 = [
            channels.random_channel(4, rank, s())
            for _ in range(size["two_qubit_chain_events"] - 1)
        ]
        procs.append(pdm.TemporalProcess(rho2, steps2))
        times = size["history_times"]
        paulis = tuple(int(p) for p in rng.integers(1, 4, size=times))
        gaps = tuple(linalg.haar_random_unitary(2, s()) for _ in range(times - 1))
        longest = max(size["one_qubit_chain_events"])
        strings = [
            tuple(int(i) for i in rng.integers(0, 4, size=longest))
            for _ in range(size["pauli_string_checks"])
        ]
        pool.append(
            {
                "procs": procs,
                "family": histories.pauli_history_family(rho, paulis, gaps),
                "paulis": paulis,
                "gaps": gaps,
                "strings": strings,
            }
        )
    return pool


def qubit_timeline_op(inp):
    pdms = [pdm.build_pdm(proc) for proc in inp["procs"]]
    return {
        "pdms": pdms,
        "monotones": [pdm.causality_monotone(r) for r in pdms],
        "dm": histories.decoherence_matrix(inp["family"]),
        "strong": histories.is_consistent(inp["family"], strong=True),
    }


def qubit_timeline_check(inp, out, chk: OpCheck) -> None:
    for proc, r, mono in zip(inp["procs"], out["pdms"], out["monotones"]):
        state = proc.initial
        for t in range(proc.n_events):
            chk.close(f"{proc.n_events}-event marginal at event {t}", pdm.marginal(r, t), state, 1e-9)
            if t < len(proc.steps):
                state = _kraus(proc.steps[t].operators, state)
        eig = np.linalg.eigvalsh(r.matrix)
        chk.close("causality monotone", mono, max(0.0, np.abs(eig).sum() - 1.0), 1e-9)
    # procs holds the one-qubit chains by length, then the two-qubit chain
    proc, r = inp["procs"][-2], out["pdms"][-2]
    for s in inp["strings"]:
        chk.close(
            f"expectation of {s}",
            pdm.expectation_from_pdm(r, s),
            pdm.event_correlation(proc, s),
            1e-9,
        )
    dm = out["dm"]
    chk.close("decoherence matrix sum", sum(dm.values()), 1.0, 1e-9)
    off = max(abs(v) for (a, b), v in dm.items() if a != b)
    chk.true("strong consistency disagrees with the decoherence matrix", out["strong"] == (off <= 1e-10))
    fam = inp["family"]
    chk.close(
        "signed diagonal sum vs cascade correlation",
        histories.pdm_correlation_from_df(fam),
        histories.matching_process_correlation(fam.initial, inp["paulis"], inp["gaps"]),
        1e-9,
    )


# -- phase-space ----------------------------------------------------------------


def _vacuum(n_max: int) -> np.ndarray:
    vac = np.zeros((n_max, n_max), dtype=complex)
    vac[0, 0] = 1.0
    return vac


def phase_space_inputs(seed: int) -> list:
    size = SIZES["phase-space"]
    n = size["n_max"]
    # The identity channel is left out: its temporal Wigner function is not
    # resolved on a 12-point grid (the normalization reads 8.6 there) and only
    # converges near 64 points, which takes about 36 s per call.
    chans = (cv_wigner.fock_phase_damping(n), channels.discard_and_prepare(_vacuum(n)))
    r_lo, r_hi = size["gaussian_squeezing_r"]
    pool = []
    for k in range(size["input_pool"]):
        rng = np.random.default_rng([seed, k])
        gamma = _disc(rng, size["max_coherent_amplitude"])
        psi = cv_wigner.coherent_state(gamma, n)
        r = float(rng.uniform(r_lo, r_hi))
        pool.append(
            {
                "gamma": gamma,
                "rho": np.outer(psi, psi.conj()),
                "channel": chans[k % 2],
                "discard": k % 2 == 1,
                "points": [
                    (_disc(rng, size["max_point_amplitude"]), _disc(rng, size["max_point_amplitude"]))
                    for _ in range(size["wigner_points_per_op"])
                ],
                "r": r,
                "thermal": gaussian.thermal(np.sinh(r) ** 2),
            }
        )
    return pool


def phase_space_op(inp):
    size = SIZES["phase-space"]
    n = size["n_max"]
    rho, ch = inp["rho"], inp["channel"]
    return {
        "norm": cv_wigner.wigner_normalization_check(rho, ch, size["radius"], size["points"], n),
        "wigner": [cv_wigner.spacetime_wigner_point(rho, ch, a, b, n) for a, b in inp["points"]],
        "temporal": gaussian.temporal_gaussian(inp["thermal"], np.eye(2)),
    }


def phase_space_check(inp, out, chk: OpCheck) -> None:
    chk.close("normalization", out["norm"], 1.0, 0.02)  # the CLI's tolerance
    if inp["discard"]:
        # discard-and-prepare(vacuum) factorizes: W = W_coherent(alpha) W_vacuum(beta)
        for (a, b), w in zip(inp["points"], out["wigner"]):
            want = 4.0 * np.exp(-2.0 * abs(a - inp["gamma"]) ** 2 - 2.0 * abs(b) ** 2)
            chk.close(f"W({a:.3f}, {b:.3f}) vs product closed form", w, want, 1e-8)
    # the partial transpose of the temporal state sits exactly e^{-2r} from the TMSS
    r = inp["r"]
    pt = gaussian.partial_transpose_gaussian(out["temporal"].cov, 0)
    gap = np.max(np.abs(pt - gaussian.two_mode_squeezed(r).cov))
    chk.close("Gaussian partial-transpose gap vs e^{-2r}", gap, np.exp(-2.0 * r), 1e-9)


def phase_space_final_check(pool, chk: OpCheck) -> None:
    """Temporal vs spatial Wigner value of the product state, on one discard input.

    The two-mode oracle builds n_max^2-dimensional operators, far more memory
    than an op, so it runs once per run.
    """
    n = SIZES["phase-space"]["n_max"]
    inp = next(p for p in pool if p["discard"])
    a, b = inp["points"][0]
    chk.close(
        "temporal vs spatial Wigner of the product state",
        cv_wigner.spacetime_wigner_point(inp["rho"], inp["channel"], a, b, n),
        cv_wigner.spatial_wigner_point(np.kron(inp["rho"], _vacuum(n)), a, b, n),
        1e-8,
    )


# -- floquet-dtc ----------------------------------------------------------------


def floquet_inputs(seed: int) -> list:
    size = SIZES["floquet-dtc"]
    length = size["length"]
    pool = []
    for k in range(size["input_pool"]):
        rng = np.random.default_rng([seed, k])
        spec = timecrystal.FloquetChainSpec(
            length=length,
            epsilon=float(rng.uniform(*size["epsilon"])),
            disorder_seed=int(rng.integers(2**31)),
        )
        pool.append(
            {
                "spec": spec,
                "site": int(rng.integers(length)),
                "signs": [int(s) for s in rng.choice([-1, 1], size=length)],
                "check_period": int(rng.integers(1, size["periods"] + 1)),
            }
        )
    return pool


def floquet_op(inp):
    size = SIZES["floquet-dtc"]
    series = timecrystal.floquet_correlation_series(
        inp["spec"], inp["site"], size["periods"], inp["signs"]
    )
    return {
        "series": series,
        "peak": timecrystal.subharmonic_peak(series),
        "lro": timecrystal.long_range_order_in_time(series, size["lro_window"], size["lro_threshold"]),
    }


def floquet_check(inp, out, chk: OpCheck) -> None:
    size = SIZES["floquet-dtc"]
    vals = np.asarray(out["series"].values)
    chk.close("series[0]", vals[0], 1.0, 1e-12)
    k = inp["check_period"]
    chk.close(
        f"period {k} vs floquet_correlation_at",
        vals[k],
        timecrystal.floquet_correlation_at(inp["spec"], inp["site"], k, inp["signs"]),
        1e-9,
    )
    window = vals[-size["lro_window"]:]
    chk.true("long-range order flag", out["lro"] == bool(np.min(np.abs(window)) >= size["lro_threshold"]))
    # direct DFT of the even-length tail, independent of numpy.fft
    v = vals[1:] if vals.size % 2 else vals
    m = v.size
    spectrum = np.abs(np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) @ v)
    peak = out["peak"]
    chk.close("subharmonic peak weight", peak.peak_weight, spectrum[1:].max(), 1e-9)
    chk.close("subharmonic peak bin weight", spectrum[int(round(peak.peak_freq * m))], spectrum[1:].max(), 1e-9)


LIBRARY = {
    "qubit-timeline": Workload(
        "qubit-timeline",
        "spacetimeq",
        qubit_timeline_inputs,
        qubit_timeline_op,
        qubit_timeline_check,
        sizes=SIZES["qubit-timeline"],
    ),
    "phase-space": Workload(
        "phase-space",
        "spacetimeq",
        phase_space_inputs,
        phase_space_op,
        phase_space_check,
        final_check=phase_space_final_check,
        sizes=SIZES["phase-space"],
    ),
    "floquet-dtc": Workload(
        "floquet-dtc",
        "spacetimeq",
        floquet_inputs,
        floquet_op,
        floquet_check,
        sizes=SIZES["floquet-dtc"],
    ),
}
