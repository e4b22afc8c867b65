import numpy as np
import pytest
from numpy.testing import assert_allclose

from spacetimeq import gaussian
from spacetimeq.gaussian import (
    GaussianState,
    SpacetimeGaussian,
    characteristic_function,
    extrapolated_temporal_correlation,
    partial_transpose_gaussian,
    quadrature_temporal_correlation,
    rotation_symplectic,
    squeeze_symplectic,
    symplectic_form,
    temporal_gaussian,
    thermal,
    two_mode_squeezed,
    uncertainty_ok,
    vacuum,
)

SIGMA_VS = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
)


class TestConstructors:
    def test_vacuum(self):
        state = vacuum()
        assert_allclose(state.mean, np.zeros(2))
        assert_allclose(state.cov, np.eye(2))

    def test_thermal(self):
        assert_allclose(thermal(1.0).cov, 3.0 * np.eye(2))
        with pytest.raises(ValueError):
            thermal(-0.1)

    def test_two_mode_squeezed(self):
        assert_allclose(two_mode_squeezed(0.0).cov, np.eye(4))
        cov = two_mode_squeezed(0.7).cov
        assert abs(cov[0, 0] - np.cosh(1.4)) < 1e-14
        assert abs(cov[0, 2] - np.sinh(1.4)) < 1e-14
        assert abs(cov[1, 3] + np.sinh(1.4)) < 1e-14

    @pytest.mark.parametrize("nbar", [float("nan"), float("inf"), 1e308])
    def test_thermal_refuses_overflowing_occupation(self, nbar):
        with pytest.raises(ValueError, match="nbar"):
            thermal(nbar)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 1e6, -355.0])
    def test_two_mode_squeezed_refuses_overflowing_squeezing(self, r):
        with pytest.raises(ValueError, match="squeezing r"):
            two_mode_squeezed(r)

    def test_largest_squeezing_is_finite(self):
        assert np.all(np.isfinite(two_mode_squeezed(354.8).cov))

    def test_constructors_satisfy_uncertainty(self):
        for state in (vacuum(), thermal(0.5), thermal(4.0), two_mode_squeezed(1.3)):
            assert uncertainty_ok(state.cov)

    def test_symmetry_accepts_equal_infinities(self):
        # an overflowing covariance, symmetric with equal infinities, reaches the CLI's payload guard
        inf = float("inf")
        state = GaussianState(np.zeros(2), [[inf, inf], [inf, 1.0]])
        assert np.isinf(state.cov[0, 1])

    @pytest.mark.parametrize("cov", [
        [[1.0, float("nan")], [float("nan"), 1.0]],
        [[1.0, 0.5 + 2e-10], [0.5, 1.0]],
        [[1.0, float("inf")], [-float("inf"), 1.0]],
        [[1.0, 1e308], [-1e308, 1.0]],
    ])
    def test_symmetry_refuses_nan_and_asymmetry(self, cov):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(np.zeros(2), cov)

    def test_symmetry_accepts_an_asymmetry_within_tolerance(self):
        GaussianState(np.zeros(2), [[1.0, 0.5 + 5e-11], [0.5, 1.0]])

    def test_symplectic_form(self):
        omega = symplectic_form(2)
        assert_allclose(omega.T, -omega)
        assert_allclose(omega @ omega, -np.eye(4))


class TestUncertainty:
    def test_vacuum_ok(self):
        assert uncertainty_ok(np.eye(2))

    def test_below_vacuum_fails(self):
        # eigenvalues of 0.5 I + i omega are 0.5 +/- 1
        assert not uncertainty_ok(0.5 * np.eye(2))

    def test_temporal_states_fail(self):
        assert not uncertainty_ok(SIGMA_VS)
        omts = temporal_gaussian(thermal(np.sinh(1.0) ** 2), np.eye(2))
        assert not uncertainty_ok(omts.cov)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_ok(np.eye(3))


class TestTemporalGaussian:
    def test_vacuum_two_times(self):
        st = temporal_gaussian(vacuum(), np.eye(2))
        assert isinstance(st, SpacetimeGaussian)
        assert_allclose(st.cov, SIGMA_VS, atol=1e-10)
        assert_allclose(st.mean, np.zeros(4))

    def test_thermal_two_times(self):
        r = 1.2
        st = temporal_gaussian(thermal(np.sinh(r) ** 2), np.eye(2))
        expected = np.cosh(2 * r) * SIGMA_VS
        assert_allclose(st.cov, expected, rtol=1e-12)

    def test_qp_cross_entry_vanishes(self):
        corr = extrapolated_temporal_correlation(vacuum(), np.eye(2), "q", "p")
        assert abs(corr) < 1e-12

    def test_event_blocks(self):
        state = thermal(0.8)
        s = rotation_symplectic(0.6)
        st = temporal_gaussian(state, s)
        assert_allclose(st.cov[:2, :2], state.cov, atol=1e-9)
        assert_allclose(st.cov[2:, 2:], s @ state.cov @ s.T, atol=1e-9)

    def test_identity_second_block_matches_first(self):
        st = temporal_gaussian(thermal(2.0), np.eye(2))
        assert_allclose(st.cov[2:, 2:], st.cov[:2, :2], atol=1e-12)

    def test_cross_block_analytic(self):
        # the cascade cross block must equal sigma S^T for symplectic steps
        state = thermal(1.5)
        for s in (rotation_symplectic(0.3), squeeze_symplectic(0.4),
                  rotation_symplectic(1.0) @ squeeze_symplectic(-0.2)):
            st = temporal_gaussian(state, s)
            assert_allclose(st.cov[:2, 2:], state.cov @ s.T, atol=1e-9)

    def test_resolution_convergence(self):
        states = (vacuum(), thermal(np.sinh(1.0) ** 2))
        for state in states:
            for labels in (("q", "q"), ("p", "p"), ("q", "p")):
                a = quadrature_temporal_correlation(state, np.eye(2), *labels, resolution=1e3)
                b = quadrature_temporal_correlation(state, np.eye(2), *labels, resolution=1e6)
                assert abs(a - b) < 1e-4

    def test_additive_noise_enters_second_block_only(self):
        noise = np.diag([0.3, 0.7])
        st = temporal_gaussian(vacuum(), np.eye(2), noise=noise)
        assert_allclose(st.cov[:2, :2], np.eye(2), atol=1e-12)
        assert_allclose(st.cov[2:, 2:], np.eye(2) + noise, atol=1e-12)
        assert_allclose(st.cov[:2, 2:], np.eye(2), atol=1e-9)

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError):
            temporal_gaussian(vacuum(), np.array([[2.0, 0.0], [0.0, 2.0]]))


class TestPartialTranspose:
    def test_tmss_sign_flip(self):
        cov = two_mode_squeezed(0.9).cov
        pt = partial_transpose_gaussian(cov, 0)
        flipped = cov.copy()
        flipped[1, 3] *= -1
        flipped[3, 1] *= -1
        assert_allclose(pt, flipped)

    def test_involution(self):
        cov = two_mode_squeezed(1.1).cov
        assert_allclose(partial_transpose_gaussian(partial_transpose_gaussian(cov, 1), 1), cov)

    def test_preserves_symmetry_and_diagonal(self):
        cov = temporal_gaussian(thermal(1.0), rotation_symplectic(0.4)).cov
        pt = partial_transpose_gaussian(cov, 0)
        assert_allclose(pt, pt.T)
        assert_allclose(np.diag(pt), np.diag(cov))

    def test_high_temperature_match(self):
        r = 3.0
        omts = temporal_gaussian(thermal(np.sinh(r) ** 2), np.eye(2))
        pt = partial_transpose_gaussian(omts.cov, 0)
        rel = np.max(np.abs(pt - two_mode_squeezed(r).cov)) / np.cosh(2 * r)
        assert rel <= 2e-5

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            partial_transpose_gaussian(np.eye(4), 2)


class TestCharacteristicFunction:
    def test_normalization_point(self):
        for state in (vacuum(), thermal(2.0), temporal_gaussian(vacuum(), np.eye(2))):
            assert characteristic_function(state, np.zeros(state.mean.size)) == 1.0

    def test_vacuum_value(self):
        assert abs(characteristic_function(vacuum(), [1.0, 0.0]) - np.exp(-0.25)) < 1e-14

    def test_vacuum_two_time_pattern(self):
        # log chi must be proportional to q1^2 + 2 q1 q2 + q2^2 + (same in p)
        st = temporal_gaussian(vacuum(), np.eye(2))

        def logchi(xi):
            return -np.log(np.real(characteristic_function(st, xi)))

        qq = logchi([1, 0, 0, 0])
        cross_q = logchi([1, 0, 1, 0]) - logchi([1, 0, 0, 0]) - logchi([0, 0, 1, 0])
        pp = logchi([0, 1, 0, 0])
        cross_p = logchi([0, 1, 0, 1]) - logchi([0, 1, 0, 0]) - logchi([0, 0, 0, 1])
        assert abs(cross_q - 2 * qq) < 1e-12
        assert abs(cross_p - 2 * pp) < 1e-12
        assert abs(logchi([1, 0, -1, 0])) < 1e-12  # delta-ridge direction

    def test_bounded_for_physical_states(self):
        rng = np.random.default_rng(0)
        for state in (vacuum(), thermal(1.7), two_mode_squeezed(0.8)):
            for _ in range(20):
                xi = rng.normal(size=state.mean.size)
                assert abs(characteristic_function(state, xi)) <= 1.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            characteristic_function(vacuum(), [1.0, 0.0, 0.0])
