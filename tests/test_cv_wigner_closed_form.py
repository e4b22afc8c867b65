"""The closed-form displaced-parity kernels of ``cv_wigner`` against the routes they replaced.

The oracles below build every T(alpha) from a fresh ``expm`` of the truncated
generator, take its parity projectors from an ``eigh`` thresholded at zero, and
sum the Wigner normalization one grid cell at a time. A further, independent
oracle is the Cahill-Glauber closed form of the displacement matrix elements.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

from spacetimeq import channels, cv_wigner, linalg
from spacetimeq.channels import apply

# -- oracles: the expm / eigh / per-cell route ----------------------------------


def expm_displacement(alpha, n_max):
    a = cv_wigner.annihilation(n_max)
    return expm(alpha * linalg.dag(a) - np.conj(alpha) * a)


def expm_displaced_parity(alpha, n_max):
    d = expm_displacement(alpha, n_max)
    return 2.0 * d @ cv_wigner.parity(n_max) @ linalg.dag(d)


def eigh_projectors(alpha, n_max):
    """(odd, even) eigenprojectors of T(alpha)/2, the eigenvalue sign thresholded at zero."""
    vals, vecs = np.linalg.eigh(expm_displaced_parity(alpha, n_max) / 2.0)
    odd, even = vecs[:, vals < 0], vecs[:, vals >= 0]
    return odd @ linalg.dag(odd), even @ linalg.dag(even)


def per_cell_wigner_point(rho, ch, alpha, beta, n_max):
    pi_odd, pi_even = eigh_projectors(alpha, n_max)
    t_beta = expm_displaced_parity(beta, n_max)
    total = sum(sign * np.trace(t_beta @ apply(ch, proj @ rho @ proj))
                for sign, proj in ((-1.0, pi_odd), (1.0, pi_even)))
    return float(np.real(2.0 * total))


def per_cell_normalization_check(rho, ch, radius, points, n_max):
    h = 2.0 * radius / points
    centers = -radius + h * (np.arange(points) + 0.5)
    re, im = np.meshgrid(centers, centers, indexing="ij")
    alphas = (re + 1j * im).ravel()
    signed_mix = np.zeros((n_max, n_max), dtype=complex)
    t_sum = np.zeros((n_max, n_max), dtype=complex)
    for a in alphas[np.abs(alphas) <= radius]:
        pi_odd, pi_even = eigh_projectors(a, n_max)
        signed_mix += pi_even @ rho @ pi_even - pi_odd @ rho @ pi_odd
        t_sum += expm_displaced_parity(a, n_max)
    scale = h * h / np.pi
    return float(np.real(2.0 * np.trace((t_sum * scale) @ apply(ch, signed_mix * scale))))


def full_grid_parity_sum(radius, points, n_max):
    """The grid parity sum with every cell of the square enumerated: the radii and the angles of
    all points^2 cells, one phase sum per radius and offset, then the same closed form per block."""
    k = 2 * np.arange(points) - (points - 1)
    kx, ky = (axis.ravel() for axis in np.meshgrid(k, k, indexing="ij"))
    key = kx * kx + ky * ky
    inside = key <= points * points
    keys, which = np.unique(key[inside], return_inverse=True)
    offsets = np.arange(0, n_max, 4)
    phases = np.zeros((len(keys), len(offsets)))
    np.add.at(phases, which, np.cos(np.outer(np.arctan2(ky[inside], kx[inside]), offsets)))
    h = 2.0 * radius / points
    a = cv_wigner.annihilation(n_max)
    lam, v = np.linalg.eigh(1j * (linalg.dag(a) - a))  # the complex eigenbasis, independent of the kernel's
    f = phases.T @ np.exp(-2j * np.outer(0.5 * h * np.sqrt(keys), lam))
    total = np.zeros((n_max, n_max), dtype=complex)
    for first in range(min(4, n_max)):
        idx = np.arange(first, n_max, 4)
        distance = np.abs(idx[:, None] - idx[None, :]) // 4
        total[np.ix_(idx, idx)] = np.einsum("aj,abj,bj->ab", v[idx], f[distance], v[idx].conj())
    return total * (cv_wigner.parity(n_max).real.diagonal() * (h * h / np.pi))


def loop_cascade_monte_carlo(rho, ch, alpha, beta, n_max, samples, seed):
    """One pair of scalar draws per sample, outcome at t1 first."""
    rng = np.random.default_rng(seed)
    pi_odd, pi_even = eigh_projectors(alpha, n_max)
    sig_even = eigh_projectors(beta, n_max)[1]
    first = {-2.0: pi_odd @ rho @ pi_odd, 2.0: pi_even @ rho @ pi_even}
    probs1 = {k: max(np.trace(v).real, 0.0) for k, v in first.items()}
    p_even_2 = {k: np.trace(sig_even @ apply(ch, v / probs1[k]) @ sig_even).real if probs1[k] > 0 else 0.0
                for k, v in first.items()}
    outcomes = np.empty(samples)
    for i in range(samples):
        o1 = 2.0 if rng.random() < probs1[2.0] else -2.0
        o2 = 2.0 if rng.random() < p_even_2[o1] else -2.0
        outcomes[i] = o1 * o2
    return float(outcomes.mean()), float(outcomes.std(ddof=1) / np.sqrt(samples))


def cahill_glauber_element(m, n, alpha):
    """<m|D(alpha)|n> of the untruncated displacement (Cahill & Glauber 1969)."""
    if m < n:
        return np.conj(cahill_glauber_element(n, m, -alpha))
    x = abs(alpha) ** 2
    return (math.sqrt(math.factorial(n) / math.factorial(m)) * alpha ** (m - n)
            * np.exp(-x / 2.0) * eval_genlaguerre(n, m - n, x))


# -- strategies -------------------------------------------------------------------

CUTOFFS = st.integers(2, 16)  # odd and even


@st.composite
def cutoff_and_alpha(draw, r_lo=0.0, r_hi=1.0):
    """A cutoff and a displacement with |alpha| in [r_lo, r_hi] * sqrt(n_max)."""
    n_max = draw(CUTOFFS)
    r = draw(st.floats(r_lo, r_hi)) * math.sqrt(n_max)
    return n_max, r * np.exp(1j * draw(st.floats(-math.pi, math.pi)))


@st.composite
def state_and_channel(draw, n_max):
    seed = draw(st.integers(0, 2**16))
    rho = linalg.random_density_matrix(n_max, seed)
    kind = draw(st.sampled_from(["identity", "phase-damping", "discard", "haar"]))
    if kind == "identity":
        ch = channels.identity_channel(n_max)
    elif kind == "phase-damping":
        ch = cv_wigner.fock_phase_damping(n_max)
    elif kind == "discard":
        ch = channels.discard_and_prepare(linalg.random_density_matrix(n_max, seed + 1))
    else:
        ch = channels.unitary_channel(linalg.haar_random_unitary(n_max, seed + 1))
    return rho, ch


# -- the kernels --------------------------------------------------------------------


class TestKernels:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cutoff_and_alpha())
    def test_matches_expm_oracle(self, case):
        n_max, alpha = case
        assert np.max(np.abs(cv_wigner.displacement(alpha, n_max) - expm_displacement(alpha, n_max))) < 1e-11
        got = cv_wigner.displaced_parity(alpha, n_max)
        assert np.max(np.abs(got - expm_displaced_parity(alpha, n_max))) < 1e-11

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cutoff_and_alpha(0.5, 2.0))
    def test_unitary_and_hermitian_near_truncation_edge(self, case):
        n_max, alpha = case
        u = cv_wigner.displaced_parity(alpha, n_max) / 2.0
        assert np.max(np.abs(u @ u - np.eye(n_max))) < 1e-12
        assert np.max(np.abs(u - linalg.dag(u))) < 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(cutoff_and_alpha(0.0, 1.5))
    def test_projectors_match_eigh_oracle(self, case):
        n_max, alpha = case
        for got, want in zip(cv_wigner.parity_projectors(alpha, n_max), eigh_projectors(alpha, n_max)):
            assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 1.2 - 0.7j, -1.5j, 2.0 + 0.5j])
    def test_displacement_matches_cahill_glauber(self, alpha):
        # low-lying elements at a cutoff far above |alpha|^2 are those of the untruncated D
        d = cv_wigner.displacement(alpha, 60)
        want = np.array([[cahill_glauber_element(m, n, alpha) for n in range(6)] for m in range(6)])
        assert np.max(np.abs(d[:6, :6] - want)) < 1e-10

    def test_kernel_arrays_are_read_only(self):
        # the spectrum, the real eigenbasis and the grid sum's per-cutoff pair arrays
        for n_max in (7, 12):
            for array in cv_wigner._generator_spectrum(n_max):
                with pytest.raises(ValueError):
                    array[0] = 0

    @settings(max_examples=43, deadline=None, derandomize=True)
    @given(st.integers(2, 44))
    def test_real_eigenbasis_diagonalizes_the_generator(self, n_max):
        lam, w = cv_wigner._generator_spectrum(n_max)[:2]
        assert w.dtype == np.float64
        assert np.max(np.abs(w.T @ w - np.eye(n_max))) < 1e-12
        a = cv_wigner.annihilation(n_max)
        v = np.diag(1j ** np.arange(n_max)) @ w
        assert np.max(np.abs(linalg.dag(v) @ (1j * (linalg.dag(a) - a)) @ v - np.diag(lam))) < 1e-12


# -- the Wigner values --------------------------------------------------------------


class TestAgainstPerCellRoute:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_normalization_check(self, data):
        n_max = data.draw(st.integers(2, 12))
        points = data.draw(st.integers(1, 8))
        radius = data.draw(st.floats(0.2, 3.0))
        rho, ch = data.draw(state_and_channel(n_max))
        got = cv_wigner.wigner_normalization_check(rho, ch, radius, points, n_max)
        want = per_cell_normalization_check(rho, ch, radius, points, n_max)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_wigner_point(self, data):
        n_max = data.draw(st.integers(2, 12))
        rho, ch = data.draw(state_and_channel(n_max))
        alpha, beta = (complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2))) for _ in range(2))
        got = cv_wigner.spacetime_wigner_point(rho, ch, alpha, beta, n_max)
        assert abs(got - per_cell_wigner_point(rho, ch, alpha, beta, n_max)) < 1e-10

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_spatial_point_matches_product_operator(self, data):
        n_max = data.draw(st.integers(2, 8))
        rho12 = linalg.random_density_matrix(n_max * n_max, data.draw(st.integers(0, 2**16)))
        alpha, beta = (complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2))) for _ in range(2))
        op = linalg.tensor(expm_displaced_parity(alpha, n_max), expm_displaced_parity(beta, n_max))
        want = np.real(np.trace(op @ rho12))
        assert abs(cv_wigner.spatial_wigner_point(rho12, alpha, beta, n_max) - want) < 1e-10

    @pytest.mark.parametrize("entries", [1, 3 * 12 * 12])
    def test_normalization_independent_of_block_size(self, monkeypatch, entries):
        rho = linalg.random_density_matrix(12, 4)
        ch = cv_wigner.fock_phase_damping(12)
        whole = cv_wigner.wigner_normalization_check(rho, ch, 2.5, 16, 12)
        monkeypatch.setattr(cv_wigner, "GRID_BLOCK_ENTRIES", entries)
        assert abs(cv_wigner.wigner_normalization_check(rho, ch, 2.5, 16, 12) - whole) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 70), st.integers(2, 44), st.floats(0.0, 5.0))
    def test_octant_grid_sum_matches_the_full_grid(self, points, n_max, radius):
        got = cv_wigner._grid_parity_sum(radius, points, n_max)
        want = full_grid_parity_sum(radius, points, n_max)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("points, n_max", [(1, 40), (2, 40), (7, 40), (12, 40), (13, 40), (64, 40)])
    def test_octant_grid_sum_at_edge_and_benchmark_grids(self, points, n_max):
        got = cv_wigner._grid_parity_sum(4.0, points, n_max)
        want = full_grid_parity_sum(4.0, points, n_max)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_non_hermitian_state_raises(self):
        # the signed state stays (U rho + rho U)/2, so an anti-Hermitian part shows as an imaginary value
        rho = linalg.random_density_matrix(6, 2) + 0.3j * np.eye(6)
        with pytest.raises(ValueError, match="complex"):
            cv_wigner.spacetime_wigner_point(rho, channels.identity_channel(6), 0.3, 0.5 - 0.2j, 6)

    def test_empty_and_invalid_discs(self):
        rho, ch = linalg.random_density_matrix(6, 1), channels.identity_channel(6)
        assert cv_wigner.wigner_normalization_check(rho, ch, 0.0, 5, 6) == 0.0
        for radius in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                cv_wigner.wigner_normalization_check(rho, ch, radius, 5, 6)

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_cascade_draws_in_loop_order(self, seed):
        # the vectorised sampler consumes the stream as the per-sample loop did
        rho = linalg.random_density_matrix(10, seed)
        ch = cv_wigner.fock_phase_damping(10)
        got = cv_wigner.cascade_monte_carlo(rho, ch, 0.4, 0.9 - 0.2j, 10, 3000, seed)
        want = loop_cascade_monte_carlo(rho, ch, 0.4, 0.9 - 0.2j, 10, 3000, seed)
        assert got == pytest.approx(want, abs=1e-12)
