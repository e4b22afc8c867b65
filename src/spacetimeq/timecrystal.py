"""Long-range order in time: decay, restoration, and Floquet dynamics.

Temporal correlation series index the two-point correlation between the
first time and the N-th time of a repeated process, so entry N involves
N - 1 applications of the evolution (series[0] is the trivial same-time
value 1).

The Floquet chain has two routes to the same correlations. The op,
``floquet_correlation_series``, evolves a state vector through the kick
site by site and the diagonal Ising phases, O(L 2^L) per period. Its
check, ``floquet_correlation_at``, takes matvecs of the dense one-period
unitary ``floquet_unitary``. The two share only the couplings and the
Ising phases. The routes they replaced, the dense density-matrix
conjugation loop and the generic event cascade, are the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spacetimeq import linalg
from spacetimeq.channels import KrausChannel, apply
from spacetimeq.linalg import I2, X


class CorrelationSeries(tuple):
    """Correlation values indexed by the time label N = 1, 2, ..., each at most 1 in magnitude."""

    __slots__ = ()

    def __new__(cls, values):
        vals = tuple(float(v) for v in values)
        if any(abs(v) > 1.0 + 1e-9 for v in vals):
            raise ValueError("temporal correlations cannot exceed 1 in magnitude")
        return super().__new__(cls, vals)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self)


def channel_decay_series(rho, ch: KrausChannel, obs: int, n_max: int) -> CorrelationSeries:
    """Two-point correlations <obs(t1), obs(tN)> with the channel iterated.

    Entry index k (0-based) is the correlation between t1 and t_{k+1},
    i.e. after k channel applications.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("channel_decay_series is a single-qubit construction")
    sigma = linalg.pauli_string_matrix([obs])
    # signed conditional state after the first measurement, P+ rho P+ - P- rho P- = (sigma rho + rho sigma)/2
    signed = (sigma @ rho + rho @ sigma) / 2
    vals = []
    current = signed
    for k in range(n_max):
        if k:
            current = apply(ch, current)
        vals.append(float(np.real(np.trace(sigma @ current))))
    return CorrelationSeries(vals)


def kraus_contraction_factor(ch: KrausChannel) -> float:
    """gamma = max operator norm over the Kraus family."""
    return float(np.linalg.norm(ch.operators, 2, axis=(1, 2)).max())


def general_decay_bound_check(ch: KrausChannel, n: int) -> bool:
    """Check |<X(1), X(n+1)>| <= gamma^{2n} on the maximally mixed qubit for a contracting channel.

    gamma is the largest Kraus operator norm and must be strictly below 1
    (a genuinely decohering channel), otherwise ValueError is raised. The
    bound concerns the transverse X correlation; a dephasing channel keeps
    its Z correlation at 1 forever, which is the known loophole of the
    statement rather than a violation of it.
    """
    gamma = kraus_contraction_factor(ch)
    if gamma >= 1.0 - 1e-12:
        raise ValueError(f"channel is not strictly contracting (gamma={gamma})")
    bound = gamma ** (2 * n) + 1e-10
    series = channel_decay_series(I2 / 2.0, ch, 1, n + 1)
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
    return CorrelationSeries(_symmetrized(1.0 - p, (1.0 - p) ** 2, n_max))


def dephasing_symmetrization_series(lam: float, n_max: int) -> CorrelationSeries:
    """Dephasing analog, b_{n+1} = 4 b_n sqrt(1-lam) / (3 + b_n^2 (1-lam))."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    return CorrelationSeries(_symmetrized(np.sqrt(1.0 - lam), 1.0 - lam, n_max))


def _symmetrized(c: float, c2: float, n_max: int) -> list:
    """x_1 ... x_{n_max}, x_1 = 1, x_{n+1} = 4 x_n c / (3 + x_n^2 c2) for a Bloch contraction c per round.

    ``c2`` is c^2 as the caller computes it, so that each series keeps its own rounding.
    """
    vals, x = [], 1.0
    for _ in range(n_max):
        vals.append(x)
        x = 4.0 * x * c / (3.0 + x * x * c2)
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
                state = _symmetrize_pair(apply(ch, state))
            total += weight * sign * np.real(np.trace(X @ state))
        vals.append(total)
    return CorrelationSeries(vals)


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
    return CorrelationSeries(xx), CorrelationSeries(zz)


def phase_flip_first_order(p: float, n_rounds: int) -> float:
    """First-order approximation 1 - 2 n q of the Z correlation after n rounds.

    The exact chain gives (1-2q)^n; the difference is the binomial
    remainder, bounded by 2 n^2 q^2 <= 18 p^4 n^2.
    """
    return 1.0 - 2.0 * n_rounds * phase_flip_round_probability(p)


# -- Floquet many-body localized chain ------------------------------------------


#: The most sites of a FloquetChainSpec: ``floquet_unitary``, the check route, holds 2^L x 2^L
#: complex entries (256 MiB at 12 sites)
MAX_CHAIN_LENGTH = 12


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
        if self.length > MAX_CHAIN_LENGTH:
            raise ValueError(f"chain length {self.length} exceeds MAX_CHAIN_LENGTH = {MAX_CHAIN_LENGTH}")

    def couplings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.disorder_seed)
        if self.interactions:
            j = rng.uniform(*self.j_range, size=self.length - 1)
        else:
            j = np.zeros(self.length - 1)
        hz = rng.uniform(*self.hz_range, size=self.length)
        hx = np.full(self.length, self.hx)
        return j, hz, hx


def _site_signs(length: int) -> np.ndarray:
    """z[b, i]: the Z_i eigenvalue of basis state b; site 0 is the highest bit of b."""
    return 1 - 2 * (np.arange(2**length)[:, None] >> np.arange(length - 1, -1, -1) & 1)


def _second_half(spec: FloquetChainSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """exp(-i H_2 t2) as (phases, V): V diag(phases) V^T, or diag(phases) when V is None.

    The Ising part of H_2 is diagonal, sum J_i z_i z_{i+1} + h^z_i z_i, so for h^x = 0 its
    exponential is a phase per basis state; otherwise the real symmetric H_2 is diagonalized.
    """
    L = spec.length
    j, hz, hx = spec.couplings()
    z = _site_signs(L)
    ising = (z[:, :-1] * z[:, 1:]) @ j + z @ hz
    if not np.any(hx):
        return np.exp(-1j * spec.t2 * ising), None
    states = np.arange(2**L)
    h2 = np.diag(ising)
    for i in range(L):
        h2[states, states ^ (1 << (L - 1 - i))] += hx[i]  # X_i flips the bit of site i
    lam, v = np.linalg.eigh(h2)
    return np.exp(-1j * spec.t2 * lam), v


def floquet_unitary(spec: FloquetChainSpec) -> np.ndarray:
    """One-period evolution U_f = exp(-i H_2 t2) exp(-i H_1 t1), in closed form, as a dense matrix.

    The kick is the product of cos(theta) 1 - i sin(theta) X over the sites, theta = t1 (g - epsilon);
    the second half is ``_second_half``.
    """
    theta = spec.t1 * (spec.g - spec.epsilon)
    u1 = linalg.tensor(*([np.cos(theta) * I2 - 1j * np.sin(theta) * X] * spec.length))
    phases, v = _second_half(spec)
    if v is None:
        return phases[:, None] * u1
    return (v * phases) @ (v.T @ u1)


def basis_product_state(signs, length: int) -> np.ndarray:
    """Density matrix of a z-basis product state |{s_i}> with s_i = +/-1."""
    signs = list(signs)
    if len(signs) != length:
        raise ValueError("need one sign per site")
    vecs = [linalg.KET0 if s > 0 else linalg.KET1 for s in signs]
    psi = linalg.tensor(*vecs)
    return np.outer(psi, psi.conj())


def _basis_read(signs, site: int, length: int) -> tuple[int, np.ndarray]:
    """The basis index of |{s_i}> and the weights s_site diag(Z_site) of the signed read.

    The initial state is a Z_site eigenstate, so the Lueders-signed state
    P+ rho P+ - P- rho P- is s_site rho and <Z_site(0), Z_site(nT)> is
    s_site <psi(n)| Z_site |psi(n)>.
    """
    signs = list(signs)
    if len(signs) != length:
        raise ValueError("need one sign per site")
    if not 0 <= site < length:
        raise IndexError(f"site {site} out of range for {length} qubits")
    idx = sum(1 << (length - 1 - i) for i, s in enumerate(signs) if not s > 0)
    return idx, (1 if signs[site] > 0 else -1) * _site_signs(length)[:, site]


def _floquet_step(psi: np.ndarray, kick: np.ndarray, phases: np.ndarray, v: np.ndarray | None) -> np.ndarray:
    """One period on a state vector: the kick site by site, then exp(-i H_2 t2).

    Each contraction applies ``kick`` to the leading site and rotates it to the end, so L of
    them cover every site and restore the order, in O(L 2^L) work.
    """
    for _ in range(psi.size.bit_length() - 1):
        psi = (kick @ psi.reshape(2, -1)).T.reshape(-1)
    if v is None:
        return phases * psi
    return v @ (phases * (v.T @ psi))


def floquet_correlation_series(
    spec: FloquetChainSpec, site: int, n_periods: int, signs=None
) -> CorrelationSeries:
    """<Z_site(0), Z_site(nT)> for n = 0 .. n_periods, evolving a state vector.

    The initial state is the z-basis product state given by ``signs`` (all
    up when omitted). Entry k (0-based) corresponds to k periods, so the
    series starts at the trivial same-time value 1. Each period costs
    O(L 2^L) (``_floquet_step``); no 2^L x 2^L matrix is formed, except
    the eigenvectors of H_2 when h^x is nonzero.
    """
    L = spec.length
    idx, weights = _basis_read([1] * L if signs is None else signs, site, L)
    theta = spec.t1 * (spec.g - spec.epsilon)
    kick = np.array([[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]])
    phases, v = _second_half(spec)
    psi = np.zeros(2**L, dtype=complex)
    psi[idx] = 1.0
    vals = [float(weights[idx])]
    for _ in range(n_periods):
        psi = _floquet_step(psi, kick, phases, v)
        vals.append(float(weights @ (psi.real**2 + psi.imag**2)))
    return CorrelationSeries(vals)


def floquet_correlation_at(spec: FloquetChainSpec, site: int, n_periods: int, signs=None) -> float:
    """The series entry at one period count, through the dense ``floquet_unitary``.

    Column idx(signs) of U_f is the state after one period; n_periods - 1
    matvecs follow. It shares only the couplings and the Ising phases with
    ``floquet_correlation_series``, whose check it is.
    """
    if n_periods < 0:
        raise ValueError(f"n_periods must be non-negative, got {n_periods}")
    L = spec.length
    idx, weights = _basis_read([1] * L if signs is None else signs, site, L)
    if n_periods == 0:
        return float(weights[idx])
    uf = floquet_unitary(spec)
    psi = uf[:, idx]
    for _ in range(n_periods - 1):
        psi = uf @ psi
    return float(weights @ np.abs(psi) ** 2)


# -- spectral diagnostics --------------------------------------------------------

MIN_SPECTRAL_SAMPLES = 16  # the fewest samples subharmonic_peak accepts


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
    vals = np.asarray(series, dtype=float)
    if vals.size < MIN_SPECTRAL_SAMPLES:
        raise ValueError(f"need at least {MIN_SPECTRAL_SAMPLES} samples for the spectral diagnostic")
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
    vals = np.asarray(series, dtype=float)
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
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
    return linalg.within(apply(ch, rho), flipped, atol)
