import numpy as np
import pytest
from numpy.testing import assert_allclose

from spacetimeq import channels, cv_wigner, linalg
from spacetimeq.cv_wigner import (
    cascade_monte_carlo,
    coherent_state,
    displaced_parity,
    displacement,
    fock_phase_damping,
    parity_projectors,
    spacetime_wigner_point,
    spatial_wigner_point,
    wigner_normalization_check,
)

N_MAX = 40


def fock_vacuum(n_max=N_MAX):
    rho = np.zeros((n_max, n_max), dtype=complex)
    rho[0, 0] = 1.0
    return rho


class TestDisplacedParity:
    def test_zero_displacement(self):
        t0 = displaced_parity(0.0, N_MAX)
        assert_allclose(t0, 2.0 * np.diag((-1.0) ** np.arange(N_MAX)), atol=1e-14)

    def test_truncated_trace_artifact(self):
        # alternating sum: 0 at even cutoffs, 2 at odd ones
        assert abs(np.trace(displaced_parity(0.0, 40))) < 1e-12
        assert abs(np.trace(displaced_parity(0.0, 41)) - 2.0) < 1e-12

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 0.6 + 0.5j, -0.9j])
    def test_eigenvalues(self, alpha):
        eigs = np.linalg.eigvalsh(displaced_parity(alpha, N_MAX))
        assert np.max(np.abs(np.abs(eigs) - 2.0)) < 1e-6

    def test_hermitian(self):
        t = displaced_parity(0.7 - 0.4j, N_MAX)
        assert linalg.is_hermitian(t, atol=1e-10)

    def test_displacement_accuracy(self):
        # vacuum-to-vacuum element of D(xi) is e^{-|xi|^2/2}
        for xi in (0.5, 1.5, 2.0, 1.0 + 1.0j):
            got = displacement(xi, N_MAX)[0, 0]
            assert abs(got - np.exp(-abs(xi) ** 2 / 2)) < 1e-10

    def test_coherent_state_norm(self):
        psi = coherent_state(1.5, N_MAX)
        assert abs(np.vdot(psi, psi) - 1.0) < 1e-12

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            displaced_parity(0.0, 1)


class TestProjectors:
    @pytest.mark.parametrize("alpha", [0.0, 0.8, 1.5 - 1.0j, 2.0])
    def test_complete_and_reconstruct(self, alpha):
        pi_odd, pi_even = parity_projectors(alpha, N_MAX)
        assert np.max(np.abs(pi_odd + pi_even - np.eye(N_MAX))) < 1e-8
        t = displaced_parity(alpha, N_MAX)
        assert np.max(np.abs(t - 2.0 * (pi_even - pi_odd))) < 1e-8

    def test_orthogonal(self):
        pi_odd, pi_even = parity_projectors(0.9, N_MAX)
        assert np.max(np.abs(pi_odd @ pi_even)) < 1e-10


class TestSpacetimeWigner:
    def test_real_for_admissible_inputs(self):
        rho = fock_vacuum()
        ch = channels.identity_channel(N_MAX)
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            val = cv_wigner._spacetime_wigner_complex(rho, ch, a / 2, b / 2, N_MAX)
            assert abs(val.imag) < 1e-9

    def test_vacuum_identity_value(self):
        # vacuum stays even under the measurement at alpha=0, so W(0, 0) = 4
        rho = fock_vacuum()
        ch = channels.identity_channel(N_MAX)
        assert abs(spacetime_wigner_point(rho, ch, 0.0, 0.0, N_MAX) - 4.0) < 1e-10

    def test_spatial_reduction(self):
        rho1 = fock_vacuum()
        psi = coherent_state(0.6, N_MAX)
        rho2 = np.outer(psi, psi.conj())
        swap_in = channels.discard_and_prepare(rho2)
        for a, b in [(0.3, -0.2 + 0.4j), (1.0 + 0.2j, 0.5)]:
            temporal = spacetime_wigner_point(rho1, swap_in, a, b, N_MAX)
            spatial = spatial_wigner_point(linalg.tensor(rho1, rho2), a, b, N_MAX)
            assert abs(temporal - spatial) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spacetime_wigner_point(fock_vacuum(10), channels.identity_channel(10), 0, 0, 20)


class TestNormalization:
    def test_vacuum_identity(self):
        val = wigner_normalization_check(fock_vacuum(), channels.identity_channel(N_MAX))
        assert abs(val - 1.0) < 0.02

    def test_spatial_product_case(self):
        swap_in = channels.discard_and_prepare(fock_vacuum())
        val = wigner_normalization_check(fock_vacuum(), swap_in)
        assert abs(val - 1.0) < 0.02

    def test_phase_damping(self):
        val = wigner_normalization_check(fock_vacuum(), fock_phase_damping(N_MAX))
        assert abs(val - 1.0) < 0.02

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="state dimension does not match n_max"):
            wigner_normalization_check(fock_vacuum(10), channels.identity_channel(20), points=12, n_max=20)


class TestCascadeMonteCarlo:
    def test_matches_exact_value(self):
        rho = fock_vacuum()
        ch = channels.identity_channel(N_MAX)
        alpha, beta = 0.4, 0.9
        exact = spacetime_wigner_point(rho, ch, alpha, beta, N_MAX)
        mean, se = cascade_monte_carlo(rho, ch, alpha, beta, N_MAX, 20000, seed=7)
        assert abs(mean - exact) <= max(3.0 * se, 1e-9)

    def test_degenerate_branch(self):
        # same displacement twice with identity evolution: outcomes repeat
        rho = fock_vacuum()
        ch = channels.identity_channel(N_MAX)
        mean, se = cascade_monte_carlo(rho, ch, 0.4, 0.4, N_MAX, 2000, seed=3)
        assert se < 1e-12
        assert abs(mean - 4.0) < 1e-9
