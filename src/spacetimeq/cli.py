"""Batch experiment runner: ``spacetimeq GROUP COMMAND [flags]`` runs experiment ``group.command``.

``EXPERIMENTS`` is the one table of them (``game`` is an alias of ``process``): body function,
typed parameters with defaults and domains, and CSV rows builder. ``main`` parses with the tree
``build_parser`` makes from it, merges a JSON config under the explicit flags, checks every domain,
and stamps ``experiment`` and every resolved parameter (``params``) onto the payload, written as
JSON or CSV to stdout or ``--out``. Exit codes: 0 success, 2 validation error (a result holding a
NaN or an infinity included), 3 invariant violation, 4 I/O failure. Seeds are mandatory for
stochastic experiments.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.util
import io
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np


def _lazy_submodule(name: str):
    """``spacetimeq.<name>``, compiled and executed on its first attribute access (an import
    that already happened is reused), so a call loads only the modules its experiment runs."""
    full = f"spacetimeq.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[full]


(channels, cv_wigner, gaussian, histories, linalg, otoc, pdm, process_matrix, timecrystal) = map(
    _lazy_submodule, ("channels", "cv_wigner", "gaussian", "histories", "linalg", "otoc", "pdm",
                      "process_matrix", "timecrystal"))

EXIT_OK, EXIT_VALIDATION, EXIT_INVARIANT, EXIT_IO = 0, 2, 3, 4

#: Bounds of ``process vertices``: the most vertices ``--enumerate`` lists (about 8 us and 0.75 kB
#: each), and the largest log2 of the closed-form count it computes (about 1200 digits)
MAX_ENUMERATED_VERTICES, MAX_COUNT_BITS = 100_000, 4096
#: Bounds of ``cv-wigner``: the most Fock levels (the phase-damping channel holds nmax^3 complex
#: entries, 32 MiB at 128), and the most points^2 * (nmax^2 / 256 + nmax + 16) of a normcheck, the
#: cost of its octant grid sum in units of about 2 ns (per cell: a fixed part, a part per level for
#: the angle phases and radial exponentials, and their product, quadratic in the levels), fit by
#: timing the sum at 2 to 128 levels. At the bound, from 679 points at 128 levels to 2308 at 2
#: levels, the grid sum takes 0.17-0.28 s and a call 0.34-0.45 s, and the 2308-point call peaks at
#: 84 MB (2-vCPU x86-64)
MAX_FOCK_LEVELS, MAX_NORMCHECK_WORK = 128, 96_000_000
#: The most events of a ``pdm`` process (its matrix is 2^n x 2^n; at 10 events it builds in about
#: 0.4 s and diagonalizes in 0.5 s)
MAX_PDM_EVENTS = 10
#: The most times of a ``histories`` family, per command: ``df`` writes all 4^n entries (0.67 MB of
#: JSON at 6 times), ``consistent`` holds the 4^n complex decoherence array (16 MiB at 10 times), and
#: ``corr`` pays for its measurement-cascade cross-check (about 0.2 s at 12 times)
MAX_HISTORY_TIMES = {"df": 6, "consistent": 10, "corr": 12}
#: The largest ``otoc --d`` (dense d x d Haar unitaries), the largest ``otoc finalstate --n`` (its
#: state holds n^3 complex entries, 32 MiB at 128) and the longest ``tc`` series (``--n``, and
#: ``--periods`` + 1 entries of a Floquet series)
MAX_OTOC_DIM, MAX_FINAL_STATE_DIM, MAX_SERIES_LENGTH = 512, 128, 10_000
#: The longest ``tc floquet|spectrum --length``: ``timecrystal.MAX_CHAIN_LENGTH``, restated (a test
#: keeps the two equal) so that parsing the flag does not load timecrystal
MAX_CHAIN_LENGTH = 12

OBS_INDEX = {"I": 0, "X": 1, "Y": 2, "Z": 3}

QUBIT_STATES = {"zero": np.diag([1.0, 0.0]).astype(complex), "one": np.diag([0.0, 1.0]).astype(complex),
                "plus": np.full((2, 2), 0.5, dtype=complex), "mixed": np.eye(2, dtype=complex) / 2.0}
FIXED_UNITARIES = {"identity": np.eye(2, dtype=complex),
                   "hadamard": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)}

# constructors of the ``name[:arg]`` specs of Gaussian states and symplectic steps
GAUSSIAN_STATES = {
    "vacuum": lambda arg: gaussian.vacuum(),
    "thermal": lambda arg: gaussian.thermal(float(arg or 1.0)),
    "tmss": lambda arg: gaussian.two_mode_squeezed(float(arg or 1.0)),
}
SYMPLECTIC_STEPS = {
    "identity": lambda arg: np.eye(2),
    "rotation": lambda arg: gaussian.rotation_symplectic(float(arg or 0.0)),
    "squeeze": lambda arg: gaussian.squeeze_symplectic(float(arg or 0.0)),
}


class InvariantViolation(RuntimeError):
    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


@dataclasses.dataclass(frozen=True)
class Param:
    """A declared parameter: flag, text conversion, default and domain (``lo`` and
    ``hi`` inclusive, or ``choices``; a ``float`` one is finite). A ``bool`` one is a switch
    storing ``not default``; ``None`` (unset) is allowed only where it is the default."""

    flag: str
    type: Callable = str
    default: object = None
    lo: float | None = None
    hi: float | None = None
    choices: tuple = ()
    help: str | None = None
    dest: str | None = None
    aliases: tuple = ()

    @property
    def name(self) -> str:
        return self.dest or self.flag[2:]

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        kind = ({"action": "store_false" if self.default else "store_true"} if self.type is bool
                else {"type": self.type, "choices": self.choices or None, "help": self.help})
        parser.add_argument(self.flag, *self.aliases, dest=self.name, default=argparse.SUPPRESS, **kind)

    def check(self, value) -> None:
        if value is None:
            if self.default is not None:
                raise ValueError(f"{self.flag} needs a value")
        elif self.type is bool:
            if not isinstance(value, bool):
                raise ValueError(f"{self.flag} takes true or false, got {value!r}")
        elif self.type is float and not np.isfinite(value):
            raise ValueError(f"{self.flag} must be finite, got {value}")
        elif self.choices and value not in self.choices:
            raise ValueError(f"{self.flag} must be one of {'|'.join(self.choices)}, got {value!r}")
        elif self.lo is not None and not value >= self.lo:
            raise ValueError(f"{self.flag} must be >= {self.lo}, got {value}")
        elif self.hi is not None and value > self.hi:
            raise ValueError(f"{self.flag} {value} exceeds {self.hi}")


class Experiment(NamedTuple):
    run: Callable  # resolved parameters -> payload body
    params: tuple
    rows: Callable | None = None  # (parameters, body) -> CSV rows


#: ``group.command`` -> Experiment, declared by ``@experiment`` in catalog order
EXPERIMENTS: dict[str, Experiment] = {}


def experiment(name: str, *params: Param, rows: Callable | None = None):
    def declare(run: Callable) -> Callable:
        EXPERIMENTS[name] = Experiment(run, params, rows)
        return run
    return declare


STATE = Param("--state", default="zero", choices=tuple(QUBIT_STATES))
SEED = Param("--seed", int)
TOL = Param("--tol", float, 1e-8)
P = Param("--p", float)
LAM = Param("--lam", float, aliases=("--lambda",))
PDM_PARAMS = (STATE, Param("--steps", default="identity",
                           help="comma list: identity, depolarizing:p, dephasing:l, haar, hadamard"), SEED)
CHANNEL_PARAMS = (Param("--channel", default="depolarizing",
                        choices=("identity", "depolarizing", "dephasing", "haar", "hadamard")),
                  P, LAM, SEED)
CV_CHANNEL = Param("--channel", default="identity", choices=("identity", "phase-damping"))
NMAX = Param("--nmax", int, 40, lo=2, hi=MAX_FOCK_LEVELS)
HISTORY_PARAMS = (STATE, Param("--paulis", default="Z,Z"),
                  Param("--unitary", default="identity", choices=("identity", "hadamard", "haar")),
                  SEED, TOL)
# a Floquet series costs O(length 2^length) per period (the largest call, 9999 periods at 12 sites,
# takes about 4 s)
FLOQUET_PARAMS = (Param("--length", int, 8, lo=2, hi=MAX_CHAIN_LENGTH),
                  Param("--epsilon", float, 0.05), Param("--site", int, 3),
                  Param("--periods", int, 64, lo=0, hi=MAX_SERIES_LENGTH - 1),
                  Param("--no-interactions", bool, True, dest="interactions"), SEED)
# the global flags, accepted after the command too; unset ones keep the global values
OUTPUT_PARAMS = (Param("--format", choices=("json", "csv")),
                 Param("--out", help="write the payload to a file"),
                 Param("--config", help="JSON config supplying defaults"))


def _fmt_float(x) -> str:
    if not isinstance(x, float):
        return str(x)
    return f"{x:.12e}" if x != 0.0 and abs(x) < 1e-4 else repr(x)


def _require(ok: bool, message: str, body: dict) -> dict:
    if not ok:
        raise InvariantViolation(message, body)
    return body


def _finite(value) -> bool:
    """Whether every float in a payload value is finite: JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _unitary(name: str, seed: int | None, offset: int = 0, d: int = 2) -> np.ndarray:
    """A named qubit unitary, or a Haar-random d x d one drawn from ``seed + offset``."""
    if name == "haar":
        if seed is None:
            raise ValueError("--seed is required for a Haar-random unitary")
        return linalg.haar_random_unitary(d, seed + offset)
    if name not in FIXED_UNITARIES:
        raise ValueError(f"unknown unitary {name!r}")
    return FIXED_UNITARIES[name]


def _make_channel(name: str, p: float | None, lam: float | None, seed: int | None, offset: int = 0):
    if name in ("depolarizing", "dephasing"):
        flag, value = ("--p", p) if name == "depolarizing" else ("--lam", lam)
        if value is None:
            raise ValueError(f"{flag} is required for the {name} channel")
        return channels.depolarizing(value) if name == "depolarizing" else channels.dephasing(value)
    return channels.unitary_channel(_unitary(name, seed, offset))


def _temporal_process(p) -> pdm.TemporalProcess:
    """``--state`` followed by the ``--steps`` channels; step k draws from seed + k."""
    tokens = [part.strip() for part in p.steps.split(",")]
    n_events = 1 + sum(map(bool, tokens))
    if n_events > MAX_PDM_EVENTS:
        raise ValueError(f"--steps makes {n_events} events, which exceeds {MAX_PDM_EVENTS}")
    steps = []
    for k, token in enumerate(tokens):
        if token:
            name, _, arg = token.partition(":")
            value = float(arg) if arg and name in ("depolarizing", "dephasing") else None
            steps.append(_make_channel(name, value, value, p.seed, k))
    return pdm.TemporalProcess(QUBIT_STATES[p.state], steps)


def _from_spec(spec: str, makers: dict, what: str):
    name, _, arg = spec.partition(":")
    if name not in makers:
        raise ValueError(f"unknown {what} {spec!r}")
    return makers[name](arg)


def _parse_complex(text: str) -> complex:
    re_part, _, im_part = text.partition(",")
    value = complex(float(re_part), float(im_part or 0.0))
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite complex number")
    return value


def _paulis(spec: str) -> list:
    tokens = [t.strip().upper() for t in spec.split(",")]
    for k, t in enumerate(tokens, 1):
        if t not in OBS_INDEX:
            raise ValueError(f"--paulis entry {k} is {t!r}, expected one of I, X, Y, Z")
    return [OBS_INDEX[t] for t in tokens]


# -- the experiments, in catalog order; each returns its payload body ------------

@experiment("pdm.build", *PDM_PARAMS)
def _pdm_build(p):
    m = pdm.build_pdm(_temporal_process(p)).matrix
    return {"matrix_real": np.real(m).tolist(), "matrix_imag": np.imag(m).tolist(),
            "trace": float(np.real(np.trace(m)))}

@experiment("pdm.eigen", *PDM_PARAMS, rows=lambda p, body: [
    {"state": p.state, "steps": p.steps, "index": i, "eigenvalue": v}
    for i, v in enumerate(body["eigenvalues"])])
def _pdm_eigen(p):
    m = pdm.build_pdm(_temporal_process(p)).matrix
    return {"eigenvalues": linalg.hermitian_eigenvalues(m).tolist()}

@experiment("pdm.correlation", *PDM_PARAMS, Param("--paulis", default="Z,Z", help="comma list like Z,Z"))
def _pdm_correlation(p):
    return {"correlation": pdm.event_correlation(_temporal_process(p), _paulis(p.paulis))}

@experiment("pdm.monotone", *PDM_PARAMS)
def _pdm_monotone(p):
    return {"causality_monotone": pdm.causality_monotone(pdm.build_pdm(_temporal_process(p)))}

@experiment("pdm.tetra", *PDM_PARAMS)
def _pdm_tetra(p):
    point = pdm.tetrahedron_point(_temporal_process(p))
    return {"point": [point.t11, point.t22, point.t33], **dataclasses.asdict(pdm.classify(point))}

def _gaussian_body(state: gaussian.GaussianState) -> dict:
    return {"mean": state.mean.tolist(), "cov": state.cov.tolist(),
            "uncertainty_ok": gaussian.uncertainty_ok(state.cov)}

@experiment("gaussian.state", Param("--kind", default="vacuum", help="vacuum|thermal:n|tmss:r"))
def _gaussian_state(p):
    return _gaussian_body(_from_spec(p.kind, GAUSSIAN_STATES, "gaussian state"))

@experiment("gaussian.temporal", Param("--initial", default="vacuum"),
            Param("--step", default="identity", help="identity|rotation:t|squeeze:r"))
def _gaussian_temporal(p):
    initial = _from_spec(p.initial, GAUSSIAN_STATES, "gaussian state")
    step = _from_spec(p.step, SYMPLECTIC_STEPS, "symplectic step")
    return _gaussian_body(gaussian.temporal_gaussian(initial, step))

@experiment("gaussian.uncertainty", Param("--kind", default="vacuum"))
def _gaussian_uncertainty(p):
    state = _from_spec(p.kind, GAUSSIAN_STATES, "gaussian state")
    return {"uncertainty_ok": gaussian.uncertainty_ok(state.cov)}

@experiment("gaussian.pt", Param("--r", float, 3.0, lo=0.0), Param("--tol", float, 2e-5))
def _gaussian_pt(p):
    tmss = gaussian.two_mode_squeezed(p.r)  # refuses an r whose cosh(2r) overflows, before sinh(r)
    omts = gaussian.temporal_gaussian(gaussian.thermal(np.sinh(p.r) ** 2), np.eye(2))
    pt = gaussian.partial_transpose_gaussian(omts.cov, 0)
    # the cross entries differ by cosh(2r) - sinh(2r) = e^{-2r} exactly; checked is the distance from that
    gap, exact, scale = linalg.margin(pt, tmss.cov), np.exp(-2 * p.r), np.cosh(2 * p.r)
    rel, residual = float(gap / scale), float(abs(gap - exact) / scale)
    return _require(residual <= p.tol, f"partial transpose gap off e^-2r by {residual}, above tol {p.tol}",
                    {"max_relative_entry_error": rel, "pt_matches_tmss": bool(rel <= p.tol),
                     "exact_relative_entry_error": float(exact / scale), "gap_residual": residual})

def _vacuum_and_channel(p):
    damped = p.channel == "phase-damping"
    ch = cv_wigner.fock_phase_damping(p.nmax) if damped else channels.identity_channel(p.nmax)
    return np.diag(np.eye(p.nmax, dtype=complex)[0]), ch  # the Fock vacuum |0><0|

@experiment("cv-wigner.point", Param("--alpha", default="0,0", help="re,im"),
            Param("--beta", default="0,0"), CV_CHANNEL, NMAX)
def _cv_point(p):
    alpha, beta = _parse_complex(p.alpha), _parse_complex(p.beta)
    return {"wigner": cv_wigner.spacetime_wigner_point(*_vacuum_and_channel(p), alpha, beta, p.nmax)}

@experiment("cv-wigner.normcheck", CV_CHANNEL, Param("--radius", float, 4.0, lo=0.0),
            Param("--points", int, 64, lo=1), NMAX, Param("--tol", float, 0.02))
def _cv_normcheck(p):
    if p.points ** 2 * (p.nmax ** 2 + 256 * p.nmax + 4096) > 256 * MAX_NORMCHECK_WORK:
        raise ValueError(f"--points {p.points} with --nmax {p.nmax} exceeds the budget "
                         f"points^2 * (nmax^2 / 256 + nmax + 16) <= {MAX_NORMCHECK_WORK}")
    val = cv_wigner.wigner_normalization_check(*_vacuum_and_channel(p), p.radius, p.points, p.nmax)
    return _require(abs(val - 1.0) <= p.tol, f"normalization {val} deviates beyond {p.tol}",
                    {"normalization": val, "within_tolerance": bool(abs(val - 1.0) <= p.tol)})

@experiment("process.validate", Param("--which", default="ocb", choices=("ocb", "identity")))
def _process_validate(p):
    w = process_matrix.ocb_process() if p.which == "ocb" else process_matrix.identity_process()
    v = process_matrix.is_valid_process(w)
    return _require(v.is_valid, "process matrix failed validity conditions",
                    {"is_valid": v.is_valid, **dataclasses.asdict(v)})

@experiment("process.correlate", Param("--u", default="identity", choices=("identity", "haar")), SEED,
            Param("--i", str.upper, "Z", choices=tuple(OBS_INDEX)),
            Param("--j", str.upper, "Z", choices=tuple(OBS_INDEX)))
def _process_correlate(p):
    u = _unitary(p.u, p.seed)
    i, j = OBS_INDEX[p.i], OBS_INDEX[p.j]
    value = process_matrix.pauli_pair_correlation(process_matrix.identity_process(u=u), i, j)
    closed = 0.5 * float(np.real(np.trace(linalg.PAULIS[j] @ u @ linalg.PAULIS[i] @ linalg.dag(u))))
    return {"correlation": value, "closed_form": closed}

@experiment("process.gyni", Param("--demo", default="paper", choices=("paper",)))
def _process_gyni(p):
    (g, l), (g2, l2) = process_matrix.gyni_demo(), process_matrix.pdm_gyni_demo()
    return _require(abs(g - g2) <= 1e-10 and abs(l - l2) <= 1e-10,
                    "process and spacetime-state routes disagree",
                    {"gyni": g, "lgyni": l, "pdm_gyni": g2, "pdm_lgyni": l2,
                     "violates_gyni": bool(g > 0.5), "violates_lgyni": bool(l > 0.75)})

@experiment("process.vertices", *(Param(flag, int, 2, lo=1) for flag in ("--ma", "--mb", "--ka", "--kb")),
            Param("--enumerate", bool, False))
def _process_vertices(p):
    sizes = (p.ma, p.mb, p.ka, p.kb)
    if p.ma * p.mb * np.log2(max(p.ka, p.kb)) > MAX_COUNT_BITS:  # the count is at least 2^that
        raise ValueError(f"the vertex count at {sizes} exceeds 2^{MAX_COUNT_BITS}")
    count = process_matrix.count_causal_vertices(*sizes)
    if not p.enumerate:
        return {"count_formula": count}
    if count > MAX_ENUMERATED_VERTICES:
        raise ValueError(f"--enumerate refuses {count} vertices, more than {MAX_ENUMERATED_VERTICES}")
    enumerated = len(process_matrix.enumerate_causal_vertices(*sizes))
    return _require(enumerated == count, "vertex enumeration disagrees with the closed form",
                    {"count_formula": count, "count_enumerated": enumerated})

def _history_family(p, command: str):
    paulis, bound = _paulis(p.paulis), MAX_HISTORY_TIMES[command]
    if len(paulis) > bound:
        raise ValueError(f"--paulis names {len(paulis)} times, which exceeds {bound} for histories {command}")
    us = [_unitary(p.unitary, p.seed) for _ in range(len(paulis) - 1)]
    return histories.pauli_history_family(QUBIT_STATES[p.state], paulis, us), paulis

@experiment("histories.df", *HISTORY_PARAMS, rows=lambda p, body: body["entries"])
def _histories_df(p):
    entries = histories.decoherence_matrix(_history_family(p, "df")[0])
    total = sum(entries.values())
    rows = [{"state": p.state, "paulis": p.paulis, "unitary": p.unitary, "hist": "".join(map(str, ha)),
             "hist_prime": "".join(map(str, hb)), "re": v.real, "im": v.imag}
            for (ha, hb), v in entries.items()]
    return {"entries": rows, "total_re": total.real, "total_im": total.imag}

@experiment("histories.consistent", *HISTORY_PARAMS)
def _histories_consistent(p):
    d = histories.decoherence_array(_history_family(p, "consistent")[0])
    return {"weak_consistent": histories.max_interference(d) <= p.tol,
            "strong_consistent": histories.max_interference(d, strong=True) <= p.tol}

@experiment("histories.corr", *HISTORY_PARAMS)
def _histories_corr(p):
    fam, paulis = _history_family(p, "corr")
    df_value = histories.pdm_correlation_from_df(fam)
    pdm_value = histories.matching_process_correlation(fam.initial, paulis, fam.unitaries)
    return _require(abs(df_value - pdm_value) <= 1e-10,
                    "history and measurement-cascade correlations disagree",
                    {"signed_diagonal_sum": df_value, "pdm_correlation": pdm_value})

OTOC_DIM = Param("--d", int, 4, lo=1, hi=MAX_OTOC_DIM)

@experiment("otoc.direct", OTOC_DIM, SEED)
def _otoc_direct(p):
    u, v, w = (_unitary("haar", p.seed, k, p.d) for k in range(3))
    val = otoc.otoc_direct(otoc.OtocSpec(v=v, w=w, u=u, rho=np.eye(p.d, dtype=complex) / p.d))
    return {"otoc_re": val.real, "otoc_im": val.imag}

@experiment("otoc.pdm", OTOC_DIM, SEED)
def _otoc_pdm(p):
    u, basis, b = (_unitary("haar", p.seed, k, p.d) for k in range(3))
    a = basis[:, : p.d // 2] @ linalg.dag(basis[:, : p.d // 2])
    rho = np.eye(p.d, dtype=complex) / p.d
    via, direct = otoc.otoc_via_pdm(a, b, u, rho), otoc.otoc_direct(otoc.OtocSpec(v=a, w=b, u=u, rho=rho))
    return _require(abs(via - direct) <= 1e-12, "forward-backward route deviates from the direct OTOC",
                    {"via_pdm_re": via.real, "via_pdm_im": via.imag,
                     "direct_re": direct.real, "direct_im": direct.imag})

@experiment("otoc.finalstate", Param("--n", int, 4, lo=1, hi=MAX_FINAL_STATE_DIM), SEED)
def _otoc_finalstate(p):
    s, psi = _unitary("haar", p.seed, 0, p.n), _unitary("haar", p.seed, 1, p.n)[:, 0]
    prob, out = otoc.final_state_conditional_output(psi, s)
    fidelity = float(abs(np.vdot(s @ psi, out)) ** 2)
    return _require(abs(fidelity - 1.0) <= 1e-10, "conditional state is not S|psi>",
                    {"probability": prob, "fidelity_with_s_psi": fidelity})

@experiment("otoc.harmonic", Param("--m", float, 1.0), Param("--omega", float, 1.0),
            Param("--tau", float, 1.0))
def _otoc_harmonic(p):
    pdm_value = otoc.harmonic_pdm_correlation(p.m, p.omega, p.tau)
    pi_value = otoc.harmonic_pi_correlation(p.omega, p.tau)
    return {"pdm": pdm_value, "path_integral": pi_value, "ratio": pdm_value / pi_value}

@experiment("tc.decay", *CHANNEL_PARAMS, STATE, Param("--n", int, 20, lo=1, hi=MAX_SERIES_LENGTH),
            Param("--obs", str.upper, "X", choices=tuple(OBS_INDEX)), rows=lambda p, body: [
                {"channel": p.channel, "p": "" if p.p is None else p.p,
                 "lam": "" if p.lam is None else p.lam, "obs": p.obs, "N": k + 1, "corr": v}
                for k, v in enumerate(body["series"])])
def _tc_decay(p):
    ch = _make_channel(p.channel, p.p, p.lam, p.seed)
    series = timecrystal.channel_decay_series(QUBIT_STATES[p.state], ch, OBS_INDEX[p.obs], p.n)
    return {"series": list(series.values)}

@experiment("tc.symm", P, LAM, Param("--n", int, 50, lo=1, hi=MAX_SERIES_LENGTH), rows=lambda p, body: [
    {**({"lam": p.lam} if p.lam is not None else {"p": p.p}), "N": k + 1, "corr": v}
    for k, v in enumerate(body["series"])])
def _tc_symm(p):
    if p.lam is not None:
        return {"series": list(timecrystal.dephasing_symmetrization_series(p.lam, p.n).values)}
    if p.p is None:
        raise ValueError("provide --p (depolarizing) or --lam (dephasing)")
    return {"series": list(timecrystal.symmetrization_series(p.p, p.n).values)}

@experiment("tc.phaseflip", Param("--p", float, 0.05), Param("--n", int, 10, lo=1, hi=MAX_SERIES_LENGTH),
            rows=lambda p, body: [{"p": p.p, "N": k + 1, "xx": xv, "zz": zv}
                                  for k, (xv, zv) in enumerate(zip(body["xx"], body["zz"]))])
def _tc_phaseflip(p):
    xx, zz = timecrystal.phase_flip_code_series(p.p, p.n)
    return {"xx": list(xx.values), "zz": list(zz.values)}

def _floquet_series(p, min_length: int = 1) -> timecrystal.CorrelationSeries:
    """The ``--periods`` + 1 entries of the series, refused before any work when fewer than ``min_length``."""
    if p.seed is None:
        raise ValueError("--seed is required (disorder realization)")
    if p.periods + 1 < min_length:
        raise ValueError(f"--periods must be >= {min_length - 1} ({min_length} samples), got {p.periods}")
    spec = timecrystal.FloquetChainSpec(length=p.length, epsilon=p.epsilon,
                                        interactions=p.interactions, disorder_seed=p.seed)
    return timecrystal.floquet_correlation_series(spec, p.site, p.periods)

@experiment("tc.floquet", *FLOQUET_PARAMS, rows=lambda p, body: [
    {"length": p.length, "epsilon": p.epsilon, "interactions": int(p.interactions), "seed": p.seed,
     "site": p.site, "period": k, "corr": v} for k, v in enumerate(body["series"])])
def _tc_floquet(p):
    return {"series": list(_floquet_series(p).values)}

@experiment("tc.spectrum", *FLOQUET_PARAMS)
def _tc_spectrum(p):
    series = _floquet_series(p, min_length=timecrystal.MIN_SPECTRAL_SAMPLES)
    return dataclasses.asdict(timecrystal.subharmonic_peak(series))

@experiment("cj.of-channel", *CHANNEL_PARAMS)
def _cj_of_channel(p):
    choi = channels.choi_of_channel(_make_channel(p.channel, p.p, p.lam, p.seed))
    return {"choi_real": np.real(choi.matrix).tolist(), "choi_imag": np.imag(choi.matrix).tolist(),
            **dataclasses.asdict(channels.check_choi(choi))}

@experiment("cj.check", *CHANNEL_PARAMS)
def _cj_check(p):
    choi = channels.choi_of_channel(_make_channel(p.channel, p.p, p.lam, p.seed))
    flags = dataclasses.asdict(channels.check_choi(choi))
    return _require(all(flags.values()), "constructed channel failed the Choi conditions", flags)

@experiment("cj.roundtrip", *CHANNEL_PARAMS, TOL)
def _cj_roundtrip(p):
    ch = _make_channel(p.channel, p.p, p.lam, p.seed)
    action = channels.channel_of_choi(channels.choi_of_channel(ch))
    worst = max(linalg.margin(action(b), channels.apply(ch, b)) for b in linalg.PAULIS)
    return _require(worst <= p.tol, f"roundtrip deviation {worst} above tol {p.tol}",
                    {"max_deviation": worst})


# -- the generic runner ------------------------------------------------------------


def build_parser(configured: str | None = None) -> argparse.ArgumentParser:
    """The argument tree of ``EXPERIMENTS``; the flags of ``configured`` work without GROUP COMMAND."""
    parser = argparse.ArgumentParser(prog="spacetimeq",
                                     description="spacetime quantum correlation experiments")
    parser.add_argument("--list", action="store_true", help="print the experiment catalog")
    for param in OUTPUT_PARAMS + (EXPERIMENTS[configured].params if configured in EXPERIMENTS else ()):
        param.add_to(parser)
    parser.set_defaults(format=None, out=None, config=None)
    groups = parser.add_subparsers(dest="group")
    commands = {}
    for name, exp in EXPERIMENTS.items():
        group, command = name.split(".")
        if group not in commands:
            group_parser = groups.add_parser(group, aliases=["game"] if group == "process" else [])
            commands[group] = group_parser.add_subparsers(dest="command", required=True)
        sub = commands[group].add_parser(command, help=name)
        for param in OUTPUT_PARAMS + exp.params:
            param.add_to(sub)
        sub.set_defaults(experiment=name)
    return parser


def list_experiments(fmt: str = "text") -> str:
    catalog = {name: [p.flag for p in exp.params] for name, exp in EXPERIMENTS.items()}
    if fmt == "json":
        return json.dumps({"experiments": catalog}, indent=2, sort_keys=True)
    lines = [f"  {name:24s} {' '.join(catalog[name])}" for name in sorted(catalog)]
    return "\n".join(["available experiments:"] + lines)


def _payload_to_csv(payload: dict, rows) -> str:
    if not rows:  # one row: the scalar entries, then the parameters
        rows = [{**{k: v for k, v in payload.items() if not isinstance(v, (dict, list))},
                 **{f"param_{k}": v for k, v in payload["params"].items()}}]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows({k: _fmt_float(v) for k, v in row.items()} for row in rows)
    return buf.getvalue()


def _emit_payload(payload: dict, rows, fmt: str, out_path) -> int:
    text = _payload_to_csv(payload, rows) if fmt == "csv" else json.dumps(payload, sort_keys=True)
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _load_config(path) -> dict:
    """The JSON config document: optional ``experiment``, ``params``, ``format`` and ``out``."""
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict) or config.get("experiment") not in (None, *EXPERIMENTS):
        raise ValueError(f"{path} must hold an object whose 'experiment' is in the catalog")
    if not (isinstance(config.get("params", {}), dict) and isinstance(config.get("out", ""), str)
            and config.get("format") in (None, "json", "csv")):
        raise ValueError("'params' must be an object, 'out' a path and 'format' json or csv")
    return config


def main(argv=None) -> int:
    """Parse, merge ``{**defaults, **config params, **explicit flags}``, check, run and emit."""
    argv = sys.argv[1:] if argv is None else list(argv)
    locate = argparse.ArgumentParser(prog="spacetimeq", add_help=False)
    locate.add_argument("--config")
    path = locate.parse_known_args(argv)[0].config
    try:
        config = {} if path is None else _load_config(path)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION
    args = build_parser(config.get("experiment")).parse_args(argv)
    fmt = args.format or config.get("format")
    name = getattr(args, "experiment", None) or config.get("experiment")
    if args.list or not name:
        print(list_experiments(fmt))
        return EXIT_OK
    exp, given, params = EXPERIMENTS[name], config.get("params", {}), {}
    out_path = args.out if args.out is not None else config.get("out")
    try:
        unknown = sorted(set(given) - {p.name for p in exp.params})
        if unknown:
            raise ValueError(f"{name} has no parameter {', '.join(unknown)}")
        for p in exp.params:
            if hasattr(args, p.name):
                value = getattr(args, p.name)
            elif given.get(p.name) is not None and p.type is not bool:
                value = p.type(str(given[p.name]))  # a config value converts like flag text
            else:
                value = given.get(p.name, p.default)
            p.check(value)
            params[p.name] = value
        resolved = argparse.Namespace(**params)
        violation = None
        with np.errstate(all="ignore"):  # overflow and NaN are refused below, not warned about
            try:
                body = exp.run(resolved)
            except InvariantViolation as exc:
                body, violation = exc.payload, exc
        if not _finite(body):
            raise ValueError("the result holds a NaN or an infinity")
        rows = exp.rows(resolved, body) if exp.rows and violation is None else None
    except (ValueError, IndexError, KeyError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    code = _emit_payload({"experiment": name, "params": params, **body}, rows, fmt, out_path)
    if violation is None:
        return code
    print(f"invariant violation: {violation}", file=sys.stderr)
    return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
