"""Long-range order in time: decay, restoration, and Floquet dynamics.

Temporal correlation series index the two-point correlation between the
first time and the N-th time of a repeated process, so entry N involves
N - 1 applications of the evolution (series[0] is the trivial same-time
value 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from spacetimeq import linalg
from spacetimeq.channels import KrausChannel, apply, depolarizing
from spacetimeq.linalg import I2, X, Z, dag
from spacetimeq.pdm import TemporalProcess, event_correlation


@dataclass(frozen=True)
class CorrelationSeries:
    """Correlation values indexed by the time label N = 1, 2, ..."""

    values: tuple[float, ...]
    label: str = ""

    def __init__(self, values, label: str = ""):
        vals = tuple(float(v) for v in values)
        if any(abs(v) > 1.0 + 1e-9 for v in vals):
            raise ValueError("temporal correlations cannot exceed 1 in magnitude")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "label", label)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> float:
        return self.values[n]


def channel_decay_series(rho, ch: KrausChannel, obs: int, n_max: int) -> CorrelationSeries:
    """Two-point correlations <obs(t1), obs(tN)> with the channel iterated.

    Entry index k (0-based) is the correlation between t1 and t_{k+1},
    i.e. after k channel applications.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("channel_decay_series is a single-qubit construction")
    sigma = linalg.PAULIS[obs]
    plus, minus = linalg.dichotomic_projectors(sigma)
    # signed conditional state after the first measurement
    signed = plus @ rho @ plus - minus @ rho @ minus
    vals = []
    current = signed
    for _ in range(n_max):
        vals.append(float(np.real(np.trace(sigma @ current))))
        current = apply(ch, current)
    return CorrelationSeries(vals, label=f"obs={obs}")


def kraus_contraction_factor(ch: KrausChannel) -> float:
    """gamma = max operator norm over the Kraus family."""
    return max(
        float(np.linalg.svd(k, compute_uv=False).max()) for k in ch.operators
    )


def general_decay_bound_check(ch: KrausChannel, n: int, obs: int = 1, rho=None) -> bool:
    """Check |X-correlation after n rounds| <= gamma^{2n} for a contracting channel.

    gamma is the largest Kraus operator norm and must be strictly below 1
    (a genuinely decohering channel), otherwise ValueError is raised. The
    bound concerns the transverse (default X) correlation; a dephasing
    channel keeps its Z correlation at 1 forever, which is the known
    loophole of the statement rather than a violation of it.
    """
    gamma = kraus_contraction_factor(ch)
    if gamma >= 1.0 - 1e-12:
        raise ValueError(f"channel is not strictly contracting (gamma={gamma})")
    if rho is None:
        rho = I2 / 2.0
    bound = gamma ** (2 * n) + 1e-10
    series = channel_decay_series(rho, ch, obs, n + 1)
    return bool(abs(series[n]) <= bound)


# -- symmetrization error correction -------------------------------------------

SWAP = 0.5 * sum(linalg.tensor(p, p) for p in linalg.PAULIS)
SYMMETRIZER = 0.5 * (np.eye(4, dtype=complex) + SWAP)


def symmetrization_series(p: float, n_max: int) -> CorrelationSeries:
    """<X(1), X(N)> under depolarizing noise with pairwise symmetrization.

    Iterates the closed-form recurrence a_{n+1} = 4 a_n (1-p) /
    (3 + a_n^2 (1-p)^2) from a_1 = 1. For p <= 1/4 the series converges to
    sqrt(1-4p)/(1-p); above that threshold it decays to zero, slower than
    the uncorrected (1-p)^{N-1}.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return CorrelationSeries(_symmetrized(1.0 - p, (1.0 - p) ** 2, n_max), label=f"symmetrization p={p}")


def dephasing_symmetrization_series(lam: float, n_max: int) -> CorrelationSeries:
    """Dephasing analog, b_{n+1} = 4 b_n sqrt(1-lam) / (3 + b_n^2 (1-lam))."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    return CorrelationSeries(_symmetrized(np.sqrt(1.0 - lam), 1.0 - lam, n_max),
                             label=f"symmetrization lambda={lam}")


def _symmetrized(c: float, c2: float, n_max: int) -> list:
    """x_1 = 1, x_{n+1} = 4 x_n c / (3 + x_n^2 c2) for a Bloch contraction c per round.

    ``c2`` is c^2 as the caller computes it, so that each series keeps its own rounding.
    """
    vals = [1.0]
    for _ in range(n_max - 1):
        vals.append(4.0 * vals[-1] * c / (3.0 + vals[-1] * vals[-1] * c2))
    return vals


def symmetrization_fixed_point(p: float) -> float:
    """Large-N limit sqrt(1-4p)/(1-p) of the corrected series, for p <= 1/4."""
    if not 0.0 <= p <= 0.25:
        raise ValueError("the finite fixed point exists for p <= 1/4")
    return float(np.sqrt(1.0 - 4.0 * p) / (1.0 - p))


def _symmetrize_pair(rho: np.ndarray) -> np.ndarray:
    """Single round of the two-copy protocol: duplicate, project, keep one."""
    doubled = linalg.tensor(rho, rho)
    conditioned = SYMMETRIZER @ doubled @ SYMMETRIZER
    norm = np.trace(conditioned).real
    return linalg.partial_trace(conditioned / norm, (2, 2), keep=0)


def symmetrization_bruteforce_series(ch: KrausChannel, n_max: int) -> CorrelationSeries:
    """Full density-matrix simulation of the corrected <X(1), X(N)> series.

    Measures X at t1 (Lueders), then per round duplicates the state, sends
    both copies through the channel, projects onto the symmetric subspace,
    renormalizes and keeps one copy; finally measures X again. Independent
    of the recurrence path.
    """
    plus, minus = linalg.dichotomic_projectors(X)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    vals = []
    for n in range(1, n_max + 1):
        total = 0.0
        for sign, proj in ((1.0, plus), (-1.0, minus)):
            weight = np.trace(proj @ rho0 @ proj).real
            if weight < 1e-300:
                continue
            state = proj @ rho0 @ proj / weight
            for _ in range(n - 1):
                two = linalg.tensor(apply(ch, state), apply(ch, state))
                two = SYMMETRIZER @ two @ SYMMETRIZER
                norm = np.trace(two).real
                state = linalg.partial_trace(two / norm, (2, 2), keep=0)
            total += weight * sign * np.real(np.trace(X @ state))
        vals.append(total)
    return CorrelationSeries(vals, label="bruteforce symmetrization")


# -- phase flip code -----------------------------------------------------------


def phase_flip_round_probability(p: float) -> float:
    """Probability q = 3p^2 - 2p^3 that a round leaves a logical flip."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return 3.0 * p * p - 2.0 * p**3


def phase_flip_code_series(p: float, n_max: int) -> tuple[CorrelationSeries, CorrelationSeries]:
    """(<XX>, <ZZ>) series under the three-qubit phase flip code.

    Per round the corrected logical state is either intact (probability
    1 - q) or bit-flipped in the computational basis (probability
    q = 3p^2 - 2p^3). A flip leaves X eigenstates alone, so <X(1), X(N)>
    is exactly 1; the Z correlation follows the two-state Markov chain,
    <Z(1), Z(N)> = (1 - 2q)^{N-1}.
    """
    q = phase_flip_round_probability(p)
    xx = [1.0] * n_max
    zz = [(1.0 - 2.0 * q) ** k for k in range(n_max)]
    return (
        CorrelationSeries(xx, label=f"phase-flip XX p={p}"),
        CorrelationSeries(zz, label=f"phase-flip ZZ p={p}"),
    )


def phase_flip_first_order(p: float, n_rounds: int) -> float:
    """First-order approximation 1 - 2 n q of the Z correlation after n rounds.

    The exact chain gives (1-2q)^n; the difference is the binomial
    remainder, bounded by 2 n^2 q^2 <= 18 p^4 n^2.
    """
    return 1.0 - 2.0 * n_rounds * phase_flip_round_probability(p)


# -- Floquet many-body localized chain ------------------------------------------


@dataclass(frozen=True)
class FloquetChainSpec:
    """Binary-drive spin chain: kick by (g - epsilon) sum X, then Ising layer.

    The second half-period Hamiltonian is
    sum_i J_i Z_i Z_{i+1} + h^z_i Z_i + h^x_i X_i (open chain). Disorder
    draws J_i from j_range and h^z_i from hz_range with the given seed;
    h^x defaults to zero.
    """

    length: int
    epsilon: float = 0.0
    g: float = np.pi / 2.0
    j_range: tuple[float, float] = (0.1, 0.3)
    hz_range: tuple[float, float] = (0.0, 1.0)
    hx: float = 0.0
    interactions: bool = True
    disorder_seed: int = 0
    t1: float = 1.0
    t2: float = 1.0

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("chain length must be at least 2")
        if self.length > 12:
            raise ValueError("dense diagonalization is limited to 12 sites")

    def couplings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.disorder_seed)
        if self.interactions:
            j = rng.uniform(*self.j_range, size=self.length - 1)
        else:
            j = np.zeros(self.length - 1)
        hz = rng.uniform(*self.hz_range, size=self.length)
        hx = np.full(self.length, self.hx)
        return j, hz, hx


def floquet_unitary(spec: FloquetChainSpec) -> np.ndarray:
    """One-period evolution U_f = exp(-i H_2 t2) exp(-i H_1 t1)."""
    L = spec.length
    j, hz, hx = spec.couplings()

    # kick layer is a product of single-site rotations
    kick_site = expm(-1j * spec.t1 * (spec.g - spec.epsilon) * X)
    u1 = linalg.tensor(*([kick_site] * L))

    h2 = np.zeros((2**L, 2**L), dtype=complex)
    for i in range(L - 1):
        h2 += j[i] * linalg.site_operator(Z, i, L) @ linalg.site_operator(Z, i + 1, L)
    for i in range(L):
        h2 += hz[i] * linalg.site_operator(Z, i, L)
        if hx[i] != 0.0:
            h2 += hx[i] * linalg.site_operator(X, i, L)
    u2 = expm(-1j * spec.t2 * h2)
    return u2 @ u1


def basis_product_state(signs, length: int) -> np.ndarray:
    """Density matrix of a z-basis product state |{s_i}> with s_i = +/-1."""
    signs = list(signs)
    if len(signs) != length:
        raise ValueError("need one sign per site")
    vecs = [linalg.KET0 if s > 0 else linalg.KET1 for s in signs]
    psi = linalg.tensor(*vecs)
    return np.outer(psi, psi.conj())


def floquet_correlation_series(
    spec: FloquetChainSpec, site: int, n_periods: int, signs=None
) -> CorrelationSeries:
    """<Z_site(0), Z_site(nT)> for n = 1 .. n_periods via the projective cascade.

    The initial state is the z-basis product state given by ``signs`` (all
    up when omitted). Entry k (0-based) corresponds to k periods, so the
    series starts at the trivial same-time value 1.
    """
    L = spec.length
    if signs is None:
        signs = [1] * L
    rho = basis_product_state(signs, L)
    uf = floquet_unitary(spec)
    sigma = linalg.site_operator(Z, site, L)
    plus, minus = linalg.dichotomic_projectors(sigma)
    signed = plus @ rho @ plus - minus @ rho @ minus
    vals = []
    current = signed
    for _ in range(n_periods + 1):
        vals.append(float(np.real(np.trace(sigma @ current))))
        current = uf @ current @ dag(uf)
    return CorrelationSeries(vals, label=f"floquet site={site}")


def floquet_correlation_at(spec: FloquetChainSpec, site: int, n_periods: int, signs=None) -> float:
    """Single-period-count correlation through the generic event cascade."""
    L = spec.length
    if signs is None:
        signs = [1] * L
    rho = basis_product_state(signs, L)
    uf = floquet_unitary(spec)
    u_total = np.linalg.matrix_power(uf, n_periods)
    proc = TemporalProcess(rho, [KrausChannel([u_total])])
    sigma = linalg.site_operator(Z, site, L)
    return event_correlation(proc, (sigma, sigma))


# -- spectral diagnostics --------------------------------------------------------


@dataclass(frozen=True)
class SubharmonicPeak:
    peak_freq: float
    peak_weight: float
    split: bool


def subharmonic_peak(series: CorrelationSeries | list | tuple) -> SubharmonicPeak:
    """Locate the dominant Fourier peak of a correlation series.

    Returns the dominant non-DC frequency in cycles per period, its
    magnitude, and whether the response is split: the two largest non-DC
    bins straddling 1/2 with a weight ratio below 2 signals a broken
    period-doubled response. An odd-length series is trimmed by its first
    sample so the grid carries an exact Nyquist bin; a locked alternation
    then lands on it and never counts as split.
    """
    vals = np.asarray(
        series.values if isinstance(series, CorrelationSeries) else series, dtype=float
    )
    if vals.size < 16:
        raise ValueError("need at least 16 samples for the spectral diagnostic")
    if vals.size % 2 == 1:
        vals = vals[1:]
    n = vals.size
    spectrum = np.abs(np.fft.fft(vals))
    freqs = np.arange(n) / n
    order = np.argsort(spectrum[1:])[::-1] + 1  # skip the DC bin
    top, second = order[0], order[1]
    peak_freq = float(freqs[top])
    peak_weight = float(spectrum[top])
    straddle = (freqs[top] - 0.5) * (freqs[second] - 0.5) < 0.0
    ratio = spectrum[top] / max(spectrum[second], 1e-300)
    split = bool(straddle and ratio < 2.0)
    return SubharmonicPeak(peak_freq=peak_freq, peak_weight=peak_weight, split=split)


def long_range_order_in_time(series, window: int, threshold: float) -> bool:
    """True when min |value| over the trailing window stays >= threshold."""
    vals = np.asarray(
        series.values if isinstance(series, CorrelationSeries) else series, dtype=float
    )
    if window > vals.size:
        raise ValueError("window longer than the series")
    return bool(np.min(np.abs(vals[-window:])) >= threshold)


def flips_basis_state(ch: KrausChannel, signs, length: int, atol: float = 1e-9) -> bool:
    """Whether the channel maps |{s}><{s}| onto |{-s}><{-s}| exactly.

    Magnitude-level sufficient condition for period-two order in an open
    chain. A completely positive map cannot output a negated projector, so
    only this unsigned form of the condition is checkable.
    """
    rho = basis_product_state(signs, length)
    flipped = basis_product_state([-s for s in signs], length)
    return bool(np.allclose(apply(ch, rho), flipped, atol=atol, rtol=0.0))
