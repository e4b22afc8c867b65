import numpy as np
import pytest
from numpy.testing import assert_allclose

from spacetimeq import channels, linalg
from spacetimeq.channels import (
    ChoiOperator,
    KrausChannel,
    apply,
    apply_n,
    channel_of_choi,
    check_choi,
    choi_of_channel,
    dephasing,
    depolarizing,
    identity_channel,
    lindblad_dephasing_evolve,
    random_channel,
)
from spacetimeq.linalg import I2, PAULIS, X, Y, Z, dag

KET0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def bloch(rho):
    return np.array([np.real(np.trace(p @ rho)) for p in (X, Y, Z)])


class TestApply:
    def test_identity(self):
        rho = linalg.random_density_matrix(2, 0)
        assert_allclose(apply(identity_channel(), rho), rho)

    def test_full_depolarizing(self):
        rho = np.outer(KET0, KET0.conj())
        assert_allclose(apply(depolarizing(1.0), rho), I2 / 2, atol=1e-14)

    def test_bloch_shrink(self):
        rho = linalg.random_density_matrix(2, 3)
        p = 0.37
        out = apply(depolarizing(p), rho)
        assert abs(np.trace(Z @ out) - (1 - p) * np.trace(Z @ rho)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity_channel(2), np.eye(3, dtype=complex) / 3)

    def test_trace_and_hermiticity_preserved(self):
        for seed in range(100):
            ch = random_channel(2, 3, seed)
            rho = linalg.random_density_matrix(2, seed + 500)
            out = apply(ch, rho)
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert linalg.is_hermitian(out, atol=1e-10)


class TestNonFiniteRefused:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ops", [
        [I2],  # column-sparse: the scatter route
        [linalg.haar_random_unitary(2, 3)],  # dense: the Kraus sum
    ])
    def test_kraus_channel(self, bad, ops):
        for entry in ((0, 0), (1, 0)):
            k = ops[0].copy()
            k[entry] = bad
            with pytest.raises(ValueError):
                KrausChannel([k])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unitary_channel(self, bad):
        # U^dag U of an infinite entry holds inf * 0: a ValueError, not a RuntimeWarning
        with pytest.raises(ValueError, match="not unitary"):
            channels.unitary_channel(np.array([[bad, 0], [0, 1]], dtype=complex))


@pytest.mark.parametrize("shape", [(0, 0), (2, 0), (0, 2)])
def test_empty_kraus_operators_refused(shape):
    # an empty array is within any tolerance of another, so the completeness check cannot refuse it
    with pytest.raises(ValueError, match="nonzero dimensions"):
        KrausChannel([np.zeros(shape, dtype=complex)])


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_unitary_channel_refuses_a_non_square_matrix(shape):
    with pytest.raises(ValueError, match="not unitary"):
        channels.unitary_channel(np.ones(shape, dtype=complex))


class TestConstructors:
    def test_depolarizing_matches_affine_form(self):
        ch = depolarizing(0.42)
        for seed in range(5):
            rho = linalg.random_density_matrix(2, seed)
            assert_allclose(apply(ch, rho), 0.58 * rho + 0.42 * I2 / 2, atol=1e-12)

    def test_depolarizing_edge_cases(self):
        rho = linalg.random_density_matrix(2, 8)
        assert_allclose(apply(depolarizing(0.0), rho), rho, atol=1e-14)
        psi = linalg.haar_random_state(2, 4)
        assert_allclose(apply(depolarizing(1.0), np.outer(psi, psi.conj())), I2 / 2, atol=1e-14)

    def test_depolarizing_range(self):
        with pytest.raises(ValueError):
            depolarizing(1.1)

    def test_dephasing_bloch_action(self):
        lam = 0.3
        ch = dephasing(lam)
        rho = linalg.random_density_matrix(2, 11)
        rx, ry, rz = bloch(rho)
        ox, oy, oz = bloch(apply(ch, rho))
        assert abs(ox - rx * np.sqrt(1 - lam)) < 1e-12
        assert abs(oy - ry * np.sqrt(1 - lam)) < 1e-12
        assert abs(oz - rz) < 1e-12

    def test_dephasing_examples(self):
        plus_state = np.outer(PLUS, PLUS.conj())
        assert_allclose(apply(dephasing(0.0), plus_state), plus_state, atol=1e-14)
        assert_allclose(apply(dephasing(1.0), plus_state), I2 / 2, atol=1e-14)
        out = apply(dephasing(0.19), plus_state)
        assert abs(np.trace(X @ out) - 0.9) < 1e-12

    def test_iterated_shrink(self):
        ch = depolarizing(0.2)
        rho = np.outer(PLUS, PLUS.conj())
        out = apply_n(ch, rho, 7)
        assert abs(np.trace(X @ out) - 0.8**7) < 1e-12

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel([0.5 * I2])

    def test_discard_and_prepare_refuses_a_non_hermitian_sigma(self):
        # unit trace but not Hermitian; eigh would read only its lower triangle
        with pytest.raises(ValueError, match="Hermitian"):
            channels.discard_and_prepare(np.array([[0.5, 1.0], [0.0, 0.5]]))


class TestLindbladDephasing:
    def test_time_zero(self):
        rho = linalg.random_density_matrix(2, 2)
        assert_allclose(lindblad_dephasing_evolve(rho, 1.3, 0.7, 0.0), rho)

    def test_half_life(self):
        rho = np.outer(PLUS, PLUS.conj())
        out = lindblad_dephasing_evolve(rho, 0.0, 1.0, np.log(2))
        assert abs(out[0, 1] - rho[0, 1] / 2) < 1e-14
        assert abs(out[1, 0] - rho[1, 0] / 2) < 1e-14

    def test_xx_correlation(self):
        # measurement cascade around the closed-form evolution
        omega, gamma, t = 1.7, 0.4, 0.9
        plus_proj, minus_proj = linalg.dichotomic_projectors(X)
        rho = np.outer(PLUS, PLUS.conj())
        corr = 0.0
        for a, pa in ((1, plus_proj), (-1, minus_proj)):
            mid = lindblad_dephasing_evolve(pa @ rho @ pa, omega, gamma, t)
            for b, pb in ((1, plus_proj), (-1, minus_proj)):
                corr += a * b * np.real(np.trace(pb @ mid @ pb))
        assert abs(corr - np.cos(omega * t) * np.exp(-gamma * t)) < 1e-12

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            lindblad_dephasing_evolve(np.eye(3, dtype=complex) / 3, 1, 1, 1)


class TestChoi:
    def test_identity_choi(self):
        choi = choi_of_channel(identity_channel())
        expected = np.zeros((4, 4), dtype=complex)
        eye = np.eye(2)
        for i in range(2):
            for j in range(2):
                expected += np.kron(np.outer(eye[i], eye[j]), np.outer(eye[i], eye[j]))
        assert_allclose(choi.matrix, expected, atol=1e-14)

    def test_full_depolarizing_choi(self):
        choi = choi_of_channel(depolarizing(1.0))
        assert_allclose(choi.matrix, np.eye(4) / 2, atol=1e-12)

    def test_channel_flags(self):
        for ch in (identity_channel(), depolarizing(0.3), dephasing(0.6), random_channel(2, 2, 1)):
            flags = check_choi(choi_of_channel(ch))
            assert flags.tp and flags.hermitian_preserving and flags.cp

    def test_zz_not_cp(self):
        flags = check_choi(ChoiOperator(matrix=linalg.tensor(Z, Z), dims=(2, 2)))
        assert flags.hermitian_preserving
        assert not flags.cp
        assert not flags.tp

    def test_scaled_maxent_not_tp(self):
        doubled = 2.0 * choi_of_channel(identity_channel()).matrix
        flags = check_choi(ChoiOperator(matrix=doubled, dims=(2, 2)))
        assert not flags.tp
        assert flags.cp

    def test_roundtrip_identity_action(self):
        action = channel_of_choi(choi_of_channel(identity_channel()))
        assert_allclose(action(X), X, atol=1e-12)
        assert_allclose(action(Z), Z, atol=1e-12)

    def test_constant_map(self):
        action = channel_of_choi(ChoiOperator(matrix=np.eye(4, dtype=complex) / 2, dims=(2, 2)))
        rho = linalg.random_density_matrix(2, 5)
        assert_allclose(action(rho), I2 / 2, atol=1e-12)

    def test_dephasing_roundtrip(self):
        ch = dephasing(0.3)
        action = channel_of_choi(choi_of_channel(ch))
        for basis in PAULIS:
            assert_allclose(action(basis), apply(ch, basis), atol=1e-10)

    def test_matches_the_definition_on_dimension_changing_maps(self):
        # M = sum_ij E(|i><j|) (x) |i><j|, with E a random 2 -> 3 and 3 -> 2 map of Kraus rank 2
        for d_in, d_out in ((2, 3), (3, 2)):
            iso = linalg.haar_random_unitary(2 * d_out, d_in)[:, :d_in]
            ch = KrausChannel([iso[:d_out], iso[d_out:]])
            eye = np.eye(d_in)
            want = sum(np.kron(apply(ch, np.outer(eye[i], eye[j])), np.outer(eye[i], eye[j]))
                       for i in range(d_in) for j in range(d_in))
            assert np.max(np.abs(choi_of_channel(ch).matrix - want)) <= 1e-14

    def test_random_roundtrips(self):
        for seed in range(20):
            ch = random_channel(2, 3, seed)
            action = channel_of_choi(choi_of_channel(ch))
            for basis in PAULIS:
                assert np.max(np.abs(action(basis) - apply(ch, basis))) < 1e-10
