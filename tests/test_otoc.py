import numpy as np
import pytest

from spacetimeq import linalg, otoc
from spacetimeq.linalg import I2, X, Z, dag
from spacetimeq.otoc import (
    OtocSpec,
    final_state_conditional_output,
    final_state_otoc_probability,
    haar_averaged_otoc,
    harmonic_kernel_moment,
    harmonic_pdm_correlation,
    harmonic_pi_correlation,
    otoc_direct,
    otoc_via_pdm,
)


def random_projector(d, rank, seed):
    cols = linalg.haar_random_unitary(d, seed)[:, :rank]
    return cols @ dag(cols)


class TestOtocDirect:
    def test_commuting_early_time(self):
        spec = OtocSpec(v=Z, w=Z, u=np.eye(2, dtype=complex), rho=I2 / 2)
        assert abs(otoc_direct(spec) - 1.0) < 1e-14

    def test_pauli_anticommutation(self):
        spec = OtocSpec(v=X, w=Z, u=np.eye(2, dtype=complex), rho=I2 / 2)
        assert abs(otoc_direct(spec) + 1.0) < 1e-14

    def test_haar_scrambled_is_small(self):
        d = 16
        v = linalg.site_operator(X, 0, 4)
        w = linalg.site_operator(Z, 3, 4)
        avg = haar_averaged_otoc(v, w, d, samples=200, seed=0)
        assert abs(avg) <= 0.2

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            OtocSpec(v=X, w=Z, u=np.ones((2, 2), dtype=complex), rho=I2 / 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="u must be unitary"):
            OtocSpec(v=X, w=Z, u=np.eye(2, 3, dtype=complex), rho=I2 / 2)


class TestOtocViaPdm:
    def test_identity_probe_reduces(self):
        d = 4
        b = linalg.haar_random_unitary(d, 5)
        u = linalg.haar_random_unitary(d, 6)
        value = otoc_via_pdm(np.eye(d, dtype=complex), b, u, np.eye(d, dtype=complex) / d)
        assert abs(value - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_equals_direct(self, d):
        for seed in range(5):
            a = random_projector(d, max(1, d // 2), seed)
            b = linalg.haar_random_unitary(d, seed + 50)
            u = linalg.haar_random_unitary(d, seed + 100)
            rho = np.eye(d, dtype=complex) / d
            via = otoc_via_pdm(a, b, u, rho)
            direct = otoc_direct(OtocSpec(v=a, w=b, u=u, rho=rho))
            assert abs(via - direct) < 1e-12

    def test_projective_example(self):
        a = (I2 + Z) / 2
        u = linalg.haar_random_unitary(2, 9)
        via = otoc_via_pdm(a, X, u, I2 / 2)
        direct = otoc_direct(OtocSpec(v=a, w=X, u=u, rho=I2 / 2))
        assert abs(via - direct) < 1e-12

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):
            otoc_via_pdm(X + 0.1 * I2, Z, np.eye(2, dtype=complex), I2 / 2)
        with pytest.raises(ValueError):
            otoc_via_pdm((I2 + Z) / 2, Z, np.eye(2, dtype=complex), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("a, b, u, rho", [
        (np.eye(3), I2, I2, I2 / 2), (I2, np.eye(3), I2, I2 / 2), (I2, I2, np.eye(3), I2 / 2),
        (I2, I2, I2, np.eye(3) / 3), (np.eye(2, 3), I2, I2, I2 / 2)])
    def test_operands_of_another_size_refused(self, a, b, u, rho):
        with pytest.raises(ValueError, match="square matrices of one size"):
            otoc_via_pdm(a, b, u, rho)


class TestFinalState:
    def test_trivial_case(self):
        prob, out = final_state_conditional_output([1, 0], np.eye(2, dtype=complex))
        assert abs(prob - 0.25) < 1e-12
        assert abs(abs(np.vdot([1, 0], out)) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_unitarity_of_evaporation(self, n):
        for seed in range(20):
            s = linalg.haar_random_unitary(n, seed)
            psi = linalg.haar_random_state(n, seed + 1000)
            prob, out = final_state_conditional_output(psi, s)
            fidelity = abs(np.vdot(s @ psi, out)) ** 2
            assert abs(fidelity - 1.0) < 1e-10
            assert abs(prob - 1.0 / n**2) < 1e-12

    def test_seeded_unitary(self):
        prob, out = final_state_conditional_output([1, 0, 0, 0], seed=11)
        s = linalg.haar_random_unitary(4, 11)
        assert abs(abs(np.vdot(s[:, 0], out)) - 1.0) < 1e-10

    def test_probability_invariant_under_out_unitary(self):
        # the projection touches only (matter, in); rotating the out factor
        # cannot change the success probability
        n = 4
        s = linalg.haar_random_unitary(n, 3)
        psi = linalg.haar_random_state(n, 4)
        prob, out = final_state_conditional_output(psi, s)
        v = linalg.haar_random_unitary(n, 5)
        prob2, out2 = final_state_conditional_output(psi, s)
        assert abs(prob - prob2) < 1e-14
        assert abs(np.linalg.norm(v @ out) - np.linalg.norm(out)) < 1e-12

    def test_commuting_probe_leaves_probability(self):
        n = 4
        for seed in range(10):
            s = linalg.haar_random_unitary(n, seed)
            psi = linalg.haar_random_state(n, seed + 500)
            bare = final_state_otoc_probability(psi, s)
            probe = np.outer(psi, psi.conj())
            probed = final_state_otoc_probability(psi, s, probe_out=probe)
            assert abs(bare - probed) < 1e-12
            assert abs(bare - 1.0 / n**2) < 1e-12

    def test_requires_unitary(self):
        with pytest.raises(ValueError):
            final_state_conditional_output([1, 0], np.ones((2, 2), dtype=complex))

    @pytest.mark.parametrize("s", [np.eye(2, 3, dtype=complex), linalg.haar_random_unitary(3, 1)])
    def test_requires_a_unitary_of_the_state_dimension(self, s):
        with pytest.raises(ValueError, match="s must be unitary"):
            final_state_conditional_output([1, 0], s)


class TestHarmonicCorrelations:
    def test_closed_forms(self):
        assert abs(harmonic_pdm_correlation(1, 1, 1) - 1 / (8 * np.sinh(1.0) ** 2)) < 1e-15
        assert abs(harmonic_pi_correlation(1, 1) - 1 / (2 * np.tanh(0.5))) < 1e-15
        assert abs(harmonic_pdm_correlation(1, 1, 1) - 0.09050770762) < 1e-9
        assert abs(harmonic_pi_correlation(1, 1) - 1.08197670687) < 1e-9

    def test_limits(self):
        assert harmonic_pdm_correlation(1, 1, 40.0) < 1e-30
        assert abs(harmonic_pi_correlation(1.0, 40.0) - 0.5) < 1e-12

    def test_strictly_decreasing(self):
        taus = np.linspace(0.2, 4.0, 25)
        pdm_vals = [harmonic_pdm_correlation(1, 1, t) for t in taus]
        pi_vals = [harmonic_pi_correlation(1, t) for t in taus]
        assert all(a > b for a, b in zip(pdm_vals, pdm_vals[1:]))
        assert all(a > b for a, b in zip(pi_vals, pi_vals[1:]))

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_conventions_differ(self, tau):
        ratio = harmonic_pdm_correlation(1, 1, tau) / harmonic_pi_correlation(1, tau)
        assert abs(ratio - 1.0) > 0.1

    @pytest.mark.parametrize("m,omega,tau", [(1, 1, 1), (0.5, 2.0, 0.7), (2.0, 0.8, 1.5)])
    def test_quadrature_oracle(self, m, omega, tau):
        # closed form = half the raw squared-kernel moment
        moment = harmonic_kernel_moment(m, omega, tau)
        assert abs(moment / 2.0 - harmonic_pdm_correlation(m, omega, tau)) < 1e-6

    def test_positivity_check(self):
        with pytest.raises(ValueError):
            harmonic_pdm_correlation(1, 1, -1)
        with pytest.raises(ValueError):
            harmonic_pi_correlation(0, 1)
