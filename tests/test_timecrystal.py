import numpy as np
import pytest
from numpy.testing import assert_allclose

from spacetimeq import channels, linalg, timecrystal as tc
from spacetimeq.channels import dephasing, depolarizing, identity_channel
from spacetimeq.linalg import I2, X, Z
from spacetimeq.timecrystal import (
    CorrelationSeries,
    FloquetChainSpec,
    basis_product_state,
    channel_decay_series,
    dephasing_symmetrization_series,
    flips_basis_state,
    floquet_correlation_at,
    floquet_correlation_series,
    floquet_unitary,
    general_decay_bound_check,
    long_range_order_in_time,
    phase_flip_code_series,
    phase_flip_first_order,
    phase_flip_round_probability,
    subharmonic_peak,
    symmetrization_bruteforce_series,
    symmetrization_fixed_point,
    symmetrization_series,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


class TestDecaySeries:
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3])
    def test_depolarizing_power_law(self, p):
        rho = linalg.random_density_matrix(2, 17)
        series = channel_decay_series(rho, depolarizing(p), 1, 25)
        for k in range(25):
            assert abs(series[k] - (1 - p) ** k) < 1e-10

    @pytest.mark.parametrize("lam", [0.1, 0.19, 0.5])
    def test_dephasing_power_law(self, lam):
        rho = linalg.random_density_matrix(2, 18)
        series = channel_decay_series(rho, dephasing(lam), 1, 25)
        for k in range(25):
            assert abs(series[k] - np.sqrt(1 - lam) ** k) < 1e-10

    def test_identity_preserves_order(self):
        series = channel_decay_series(PLUS, identity_channel(), 3, 15)
        assert all(abs(v - 1.0) < 1e-12 for v in series.values)

    def test_unital_channels_follow_bloch_power(self):
        for seed in range(5):
            p = 0.1 + 0.05 * seed
            ch = depolarizing(p)
            series = channel_decay_series(I2 / 2, ch, 2, 12)
            for k in range(12):
                assert abs(series[k] - (1 - p) ** k) < 1e-10

    def test_magnitude_bounded(self):
        with pytest.raises(ValueError):
            CorrelationSeries([1.5])


class TestDecayBound:
    def test_depolarizing_bound(self):
        ch = depolarizing(0.5)
        for n in range(11):
            assert general_decay_bound_check(ch, n)

    def test_strong_dephasing_bound(self):
        ch = dephasing(0.96)
        for n in range(11):
            assert general_decay_bound_check(ch, n)

    def test_trivial_round(self):
        assert general_decay_bound_check(depolarizing(0.3), 0)

    def test_non_contracting_rejected(self):
        with pytest.raises(ValueError):
            general_decay_bound_check(identity_channel(), 3)


class TestSymmetrization:
    def test_noiseless(self):
        series = symmetrization_series(0.0, 30)
        assert all(abs(v - 1.0) < 1e-12 for v in series.values)

    def test_fixed_point(self):
        series = symmetrization_series(0.2, 200)
        assert abs(series[199] - symmetrization_fixed_point(0.2)) < 1e-6
        assert abs(symmetrization_fixed_point(0.2) - 0.559017) < 1e-6

    def test_supercritical_decays_slower(self):
        series = symmetrization_series(0.5, 40)
        assert series[39] < 1e-3
        for k in range(1, 40):
            assert series[k] >= 0.5**k - 1e-12

    def test_bruteforce_match_depolarizing(self):
        p = 0.2
        recurrence = symmetrization_series(p, 6)
        brute = symmetrization_bruteforce_series(depolarizing(p), 6)
        for k in range(6):
            assert abs(recurrence[k] - brute[k]) < 1e-8

    def test_bruteforce_match_dephasing(self):
        lam = 0.3
        recurrence = dephasing_symmetrization_series(lam, 6)
        brute = symmetrization_bruteforce_series(dephasing(lam), 6)
        for k in range(6):
            assert abs(recurrence[k] - brute[k]) < 1e-8

    @pytest.mark.parametrize("noise", [0.0, 0.1, 0.2, 0.37, 0.9, 1.0])
    def test_series_are_their_recurrences_exactly(self, noise):
        a, b, want_a, want_b = 1.0, 1.0, [1.0], [1.0]
        for _ in range(59):
            a = 4.0 * a * (1.0 - noise) / (3.0 + a * a * (1.0 - noise) ** 2)
            b = 4.0 * b * np.sqrt(1.0 - noise) / (3.0 + b * b * (1.0 - noise))
            want_a.append(a)
            want_b.append(b)
        assert symmetrization_series(noise, 60).values == tuple(want_a)
        assert dephasing_symmetrization_series(noise, 60).values == tuple(want_b)

    def test_fixed_point_domain(self):
        with pytest.raises(ValueError):
            symmetrization_fixed_point(0.3)


class TestPhaseFlip:
    def test_xx_always_one(self):
        xx, _ = phase_flip_code_series(0.17, 30)
        assert all(v == 1.0 for v in xx.values)

    def test_noiseless_zz(self):
        _, zz = phase_flip_code_series(0.0, 20)
        assert all(v == 1.0 for v in zz.values)

    def test_zz_markov_chain(self):
        p = 0.08
        q = phase_flip_round_probability(p)
        _, zz = phase_flip_code_series(p, 12)
        for k in range(12):
            assert abs(zz[k] - (1 - 2 * q) ** k) < 1e-14

    def test_first_order_expression(self):
        # exact chain vs 1 - 2 n q: the gap is the binomial remainder,
        # nonnegative and bounded by 2 n^2 q^2 <= 18 p^4 n^2
        p = 0.05
        q = phase_flip_round_probability(p)
        for n_rounds in range(1, 11):
            exact = (1 - 2 * q) ** n_rounds
            approx = phase_flip_first_order(p, n_rounds)
            diff = exact - approx
            assert diff >= -1e-15
            assert diff <= 18.0 * p**4 * n_rounds**2


class TestFloquet:
    def test_even_periods_exact(self):
        spec = FloquetChainSpec(length=6, epsilon=0.0, disorder_seed=3)
        series = floquet_correlation_series(spec, site=2, n_periods=12)
        for k in range(0, 13, 2):
            assert abs(abs(series[k]) - 1.0) < 1e-10
        for k in range(1, 13, 2):
            assert abs(series[k] + 1.0) < 1e-10

    def test_free_spins_single_period_flip(self):
        spec = FloquetChainSpec(length=6, epsilon=0.0, interactions=False, disorder_seed=3)
        series = floquet_correlation_series(spec, site=2, n_periods=2)
        assert abs(series[1] + 1.0) < 1e-10
        assert abs(series[2] - 1.0) < 1e-10

    def test_magnitudes_bounded(self):
        spec = FloquetChainSpec(length=6, epsilon=0.07, disorder_seed=5)
        series = floquet_correlation_series(spec, site=2, n_periods=24)
        assert max(abs(v) for v in series.values) <= 1.0 + 1e-9

    def test_robust_alternation_with_interactions(self):
        for seed in range(3):
            spec = FloquetChainSpec(length=6, epsilon=0.05, disorder_seed=seed)
            series = floquet_correlation_series(spec, site=2, n_periods=20)
            vals = np.array(series.values)
            assert np.abs(vals[1:21]).min() >= 0.5
            signs = np.sign(vals)
            assert all(signs[k] == (-1.0) ** k for k in range(21))

    def test_generic_cascade_agreement(self):
        spec = FloquetChainSpec(length=4, epsilon=0.04, disorder_seed=7)
        series = floquet_correlation_series(spec, site=1, n_periods=4)
        for n in range(1, 5):
            assert abs(floquet_correlation_at(spec, 1, n) - series[n]) < 1e-10

    def test_unitary_is_unitary(self):
        spec = FloquetChainSpec(length=4, epsilon=0.1, hx=0.2, disorder_seed=1)
        u = floquet_unitary(spec)
        assert np.max(np.abs(linalg.dag(u) @ u - np.eye(16))) < 1e-10

    def test_length_limits(self):
        with pytest.raises(ValueError, match="chain length 13 exceeds MAX_CHAIN_LENGTH = 12"):
            FloquetChainSpec(length=13)
        with pytest.raises(ValueError):
            FloquetChainSpec(length=1)


class TestSubharmonicPeak:
    def test_perfect_alternation(self):
        peak = subharmonic_peak([(-1.0) ** n for n in range(32)])
        assert peak.peak_freq == 0.5
        assert not peak.split

    def test_locked_crystal_not_split(self):
        spec = FloquetChainSpec(length=6, epsilon=0.05, disorder_seed=2)
        series = floquet_correlation_series(spec, site=2, n_periods=64)
        peak = subharmonic_peak(series)
        assert abs(peak.peak_freq - 0.5) < 1e-12
        assert not peak.split

    def test_free_spins_split(self):
        spec = FloquetChainSpec(length=6, epsilon=0.05, interactions=False, disorder_seed=2)
        series = floquet_correlation_series(spec, site=2, n_periods=64)
        assert subharmonic_peak(series).split

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            subharmonic_peak([1.0, -1.0] * 4)


class TestLongRangeOrder:
    def test_identity_series(self):
        series = channel_decay_series(PLUS, identity_channel(), 1, 40)
        assert long_range_order_in_time(series, window=10, threshold=0.99)

    def test_depolarizing_dies_out(self):
        series = channel_decay_series(PLUS, depolarizing(0.1), 1, 40)
        # trailing window N in [30, 40]: values 0.9^29 .. 0.9^39, min ~ 0.016
        assert not long_range_order_in_time(series, window=11, threshold=0.05)

    def test_symmetrization_survives(self):
        series = symmetrization_series(0.2, 100)
        assert long_range_order_in_time(series, window=20, threshold=0.5)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            long_range_order_in_time([1.0, 1.0], window=5, threshold=0.1)


class TestKrausFlipPredicate:
    def test_collective_flip_channel(self):
        flip = linalg.tensor(X, X)
        ch = channels.unitary_channel(flip)
        assert flips_basis_state(ch, [1, -1], 2)

    def test_identity_does_not_flip(self):
        assert not flips_basis_state(identity_channel(4), [1, 1], 2)

    def test_non_finite_output_refused(self, monkeypatch):
        monkeypatch.setattr(tc, "apply", lambda ch, rho: np.full_like(rho, np.nan))
        assert not flips_basis_state(identity_channel(4), [1, -1], 2, atol=1e300)
