import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spacetimeq import channels, cv_wigner, histories, linalg, pdm
from spacetimeq.channels import (KrausChannel, depolarizing, discard_and_prepare, identity_channel,
                                 random_channel, unitary_channel)
from spacetimeq.linalg import I2, PAULIS, X, Y, Z, dag
from spacetimeq.pdm import (
    PDM,
    TemporalProcess,
    UndefinedPostselectionError,
    build_pdm,
    build_postselected_pdm,
    causality_monotone,
    classify,
    ctc_probability,
    ctc_probability_via_projection,
    event_correlation,
    expectation_from_pdm,
    marginal,
    postselected_correlation,
    tetrahedron_point,
)

KET0 = np.array([1, 0], dtype=complex)
ZERO = np.outer(KET0, KET0.conj())
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SWAP = 0.5 * sum(linalg.tensor(p, p) for p in PAULIS)

TWO_TIME_ZERO = np.array(
    [[1, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0, 0, 0, 0]], dtype=complex
)


def zero_process():
    return TemporalProcess(ZERO, [identity_channel()])


def mixed_process():
    return TemporalProcess(I2 / 2, [identity_channel()])


class TestEventCorrelation:
    def test_zero_state_zz(self):
        assert abs(event_correlation(zero_process(), (3, 3)) - 1.0) < 1e-14

    def test_zero_state_xy(self):
        assert abs(event_correlation(zero_process(), (1, 2))) < 1e-14

    def test_zero_state_table(self):
        # nonzero correlations of |0> with identity evolution: II, XX, YY, ZZ, ZI, IZ
        nonzero = {(0, 0), (1, 1), (2, 2), (3, 3), (3, 0), (0, 3)}
        for i in range(4):
            for j in range(4):
                val = event_correlation(zero_process(), (i, j))
                target = 1.0 if (i, j) in nonzero else 0.0
                assert abs(val - target) < 1e-14, (i, j, val)

    def test_unitary_closed_form(self):
        for seed in range(20):
            u = linalg.haar_random_unitary(2, seed)
            proc = TemporalProcess(I2 / 2, [unitary_channel(u)])
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    got = event_correlation(proc, (i, j))
                    want = 0.5 * np.real(np.trace(PAULIS[j] @ u @ PAULIS[i] @ dag(u)))
                    assert abs(got - want) < 1e-12

    def test_hadamard_zx(self):
        proc = TemporalProcess(I2 / 2, [unitary_channel(HADAMARD)])
        assert abs(event_correlation(proc, (3, 1)) - 1.0) < 1e-12

    def test_values_in_range(self):
        for seed in range(10):
            proc = TemporalProcess(
                linalg.random_density_matrix(2, seed), [random_channel(2, 2, seed)]
            )
            for i in range(4):
                for j in range(4):
                    assert abs(event_correlation(proc, (i, j))) <= 1.0 + 1e-10

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            event_correlation(zero_process(), (3, 3, 3))

    def test_matrix_observable_must_square_to_identity(self):
        with pytest.raises(ValueError, match="square to the identity"):
            event_correlation(zero_process(), (2 * Z, 3))


def branch_event_correlation(proc, observables):
    """The cascade one outcome branch at a time: sum over branches of sign-product times weight."""
    branches = [(1.0, proc.initial)]
    for t, m in enumerate(observables):
        plus, minus = linalg.dichotomic_projectors(m)
        new = []
        for sign, state in branches:
            for outcome, proj in ((1.0, plus), (-1.0, minus)):
                cond = proj @ state @ proj
                if np.trace(cond).real > 1e-300:
                    new.append((sign * outcome, cond))
        if t < len(proc.steps):
            new = [(s, channels.apply(proc.steps[t], c)) for s, c in new]
        branches = new
    return float(sum(sign * np.trace(state).real for sign, state in branches))


def stinespring_channel(d_in, d_out, extra_rank, seed):
    """Random CPTP map C^d_in -> C^d_out: the Kraus blocks of a Haar isometry into C^d_out (x) C^r."""
    rank = -(-d_in // d_out) + extra_rank  # d_out * rank >= d_in, so the isometry exists
    iso = linalg.haar_random_unitary(d_out * rank, seed)[:, :d_in]
    return KrausChannel([iso[k * d_out:(k + 1) * d_out, :] for k in range(rank)])


@st.composite
def dichotomic_chains(draw, min_events=1):
    """A process whose events each have d = 2..4, with min_events..4 events and steps that may
    change the dimension; each observable is V diag(+/-1) V^dag for a Haar V."""
    dims = draw(st.lists(st.integers(2, 4), min_size=min_events, max_size=4))
    seed = draw(st.integers(0, 10**6))
    steps = [stinespring_channel(d_in, d_out, draw(st.integers(0, 2)), seed + 1 + k)
             for k, (d_in, d_out) in enumerate(zip(dims, dims[1:]))]
    proc = TemporalProcess(linalg.random_density_matrix(dims[0], seed), steps)
    observables = []
    for k, d in enumerate(dims):
        v = linalg.haar_random_unitary(d, seed + 100 + k)
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d))
        observables.append(v @ np.diag(signs) @ dag(v))
    return proc, observables


class TestSignedStateAgainstBranches:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=dichotomic_chains())
    def test_matches_branch_enumeration(self, case):
        proc, observables = case
        assert abs(event_correlation(proc, observables) - branch_event_correlation(proc, observables)) <= 1e-12


class TestEventsOfAnyDimension:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=dichotomic_chains(min_events=2))
    def test_pdm_reproduces_cascade_correlations(self, case):
        proc, observables = case
        r = build_pdm(proc)
        assert r.event_dims == (proc.initial.shape[0],) + tuple(ch.out_dim for ch in proc.steps)
        assert abs(expectation_from_pdm(r, observables) - event_correlation(proc, observables)) <= 1e-12

    def test_qutrit_then_qubit(self):
        # keeps |0> and |1>, sends |2> to |0>; E^dag(Z) = diag(1, -1, 1)
        step = KrausChannel([np.array([[1, 0, 0], [0, 1, 0]]), np.array([[0, 0, 1], [0, 0, 0]])])
        rho = linalg.random_density_matrix(3, 5)
        proc = TemporalProcess(rho, [step])
        # the signed state after diag(1, -1, -1) is rho_00 |0><0| - (the {1, 2} block of rho)
        want = np.real(rho[0, 0] + rho[1, 1] - rho[2, 2])
        observables = [np.diag([1.0, -1.0, -1.0]), 3]
        assert abs(event_correlation(proc, observables) - want) < 1e-12
        r = build_pdm(proc)
        assert r.event_dims == (3, 2)
        assert abs(expectation_from_pdm(r, observables) - want) < 1e-12
        assert_allclose(marginal(r, 1), channels.apply(step, rho), atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fock_events_give_the_spacetime_wigner_function(self, data):
        # Tr[(T(alpha) (x) T(beta)) R] is the two-time Wigner value of the process
        n_max = data.draw(st.integers(4, 12))
        rho = linalg.random_density_matrix(n_max, data.draw(st.integers(0, 2**16)))
        ch = data.draw(st.sampled_from([cv_wigner.fock_phase_damping, identity_channel]))(n_max)
        alpha, beta = (complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2))) for _ in range(2))
        r = build_pdm(TemporalProcess(rho, [ch]))
        want = cv_wigner.spacetime_wigner_point(rho, ch, alpha, beta, n_max)
        assert abs(cv_wigner.spatial_wigner_point(r.matrix, alpha, beta, n_max) - want) <= 1e-12

    def test_pdm_checks_its_event_dims(self):
        with pytest.raises(ValueError):
            PDM(event_dims=(3, 2), matrix=SWAP / 2)
        assert PDM(event_dims=(2, 2), matrix=SWAP / 2).n_events == 2


class TestBuildPdm:
    def test_zero_state_matrix(self):
        r = build_pdm(zero_process())
        assert_allclose(r.matrix, TWO_TIME_ZERO, atol=1e-12)
        assert_allclose(
            linalg.hermitian_eigenvalues(r.matrix), [-0.5, 0.0, 0.5, 1.0], atol=1e-12
        )

    def test_mixed_state_is_half_swap(self):
        r = build_pdm(mixed_process())
        assert_allclose(r.matrix, SWAP / 2, atol=1e-12)

    def test_spacelike_product(self):
        rho_a = linalg.random_density_matrix(2, 0)
        rho_b = linalg.random_density_matrix(2, 1)
        proc = TemporalProcess(linalg.tensor(rho_a, rho_b))
        r = build_pdm(proc)
        assert_allclose(r.matrix, linalg.tensor(rho_a, rho_b), atol=1e-12)
        # spacelike pseudo-density matrices are genuinely positive
        assert linalg.hermitian_eigenvalues(r.matrix).min() >= -1e-12

    def test_hermitian_unit_trace_random(self):
        for seed in range(100):
            proc = TemporalProcess(
                linalg.random_density_matrix(2, seed), [random_channel(2, 2, seed + 1000)]
            )
            r = build_pdm(proc)
            assert linalg.is_hermitian(r.matrix, atol=1e-10)
            assert abs(np.trace(r.matrix) - 1.0) < 1e-10

    @pytest.mark.parametrize("n_events", [2, 3])
    def test_reproduces_correlations(self, n_events):
        proc = TemporalProcess(
            linalg.random_density_matrix(2, 7),
            [random_channel(2, 2, 70 + k) for k in range(n_events - 1)],
        )
        r = build_pdm(proc)
        for combo in itertools.product(range(4), repeat=n_events):
            got = expectation_from_pdm(r, combo)
            want = event_correlation(proc, combo)
            assert abs(got - want) < 1e-10, combo


def pauli_sum_pdm(proc):
    """The definition (1/d^n) sum_s <sigma_s> sigma_s, with <sigma_s> from the cascade."""
    d = proc.initial.shape[0]
    per_event = [linalg.pauli_string_matrix(s) for s in itertools.product(range(4), repeat=int(np.log2(d)))]
    acc = np.zeros((d**proc.n_events,) * 2, dtype=complex)
    for combo in itertools.product(per_event, repeat=proc.n_events):
        acc += event_correlation(proc, combo) * linalg.tensor(*combo)
    return acc / d**proc.n_events


def depolarizing_on(d, p, seed):
    """Depolarizing noise on each qubit of a d-dimensional event, in a random basis."""
    ops = depolarizing(p).operators
    for _ in range(int(np.log2(d)) - 1):
        ops = [linalg.tensor(a, b) for a in ops for b in depolarizing(p).operators]
    u = linalg.haar_random_unitary(d, seed)
    return KrausChannel([u @ k @ dag(u) for k in ops])


@st.composite
def steps(draw, d):
    kind = draw(st.sampled_from(["random", "identity", "depolarizing", "discard"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "random":
        return random_channel(d, draw(st.integers(1, 4)), seed)
    if kind == "identity":
        return identity_channel(d)
    if kind == "depolarizing":
        return depolarizing_on(d, draw(st.floats(0.0, 1.0)), seed)
    return discard_and_prepare(linalg.random_density_matrix(d, seed))


@st.composite
def processes(draw):
    qubits = draw(st.sampled_from([1, 2]))
    d = 2**qubits
    n_events = draw(st.integers(2, 4)) if qubits == 1 else 2
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        ket = linalg.haar_random_unitary(d, seed)[:, 0]
        initial = np.outer(ket, ket.conj())
    else:
        initial = linalg.random_density_matrix(d, seed)
    return TemporalProcess(initial, [draw(steps(d)) for _ in range(n_events - 1)])


class TestClosedFormOracle:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(proc=processes())
    def test_matches_pauli_sum_of_cascade_correlations(self, proc):
        got = build_pdm(proc).matrix
        assert np.max(np.abs(got - pauli_sum_pdm(proc))) <= 1e-12

    def test_three_two_qubit_events(self):
        proc = TemporalProcess(
            linalg.random_density_matrix(4, 5),
            [random_channel(4, 3, 6), random_channel(4, 1, 7)],
        )
        assert np.max(np.abs(build_pdm(proc).matrix - pauli_sum_pdm(proc))) <= 1e-12


def kron_build_pdm(proc):
    """The Jordan-product recurrence with both Kronecker products formed: R <- (1/2){R (x) 1, 1 (x) J(E)}."""
    r = proc.initial.copy()
    for ch in proc.steps:
        d_in, d_out = ch.in_dim, ch.out_dim
        j = channels.choi_of_channel(ch).matrix.reshape(d_out, d_in, d_out, d_in).transpose(3, 0, 1, 2)
        left = np.kron(r, np.eye(d_out))
        right = np.kron(np.eye(r.shape[0] // d_in), j.reshape(d_in * d_out, d_in * d_out))
        r = (left @ right + right @ left) / 2
    return r


def kron_expectation(r, observables):
    """Tr[(O_1 (x) ... (x) O_n) R] with the product operator formed."""
    return float(np.real(np.trace(linalg.tensor(*observables) @ r.matrix)))


class TestKronOracles:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=dichotomic_chains(min_events=2))
    def test_build_pdm_matches_the_kron_recurrence(self, case):
        proc, _ = case
        assert np.max(np.abs(build_pdm(proc).matrix - kron_build_pdm(proc))) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=dichotomic_chains(min_events=2))
    def test_expectation_matches_the_full_product_operator(self, case):
        proc, observables = case
        r = build_pdm(proc)
        assert abs(expectation_from_pdm(r, observables) - kron_expectation(r, observables)) <= 1e-12

    def test_expectation_refuses_an_observable_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="not match"):
            expectation_from_pdm(build_pdm(zero_process()), (np.eye(3), 1))
        # the swapped pair has the right total size, but not the event dimensions (2, 4)
        r = build_pdm(TemporalProcess(ZERO, [stinespring_channel(2, 4, 0, 8)]))
        with pytest.raises(ValueError, match="not match"):
            expectation_from_pdm(r, (np.diag([1.0, -1.0, 1.0, -1.0]), Z))

    def test_readers_and_builder_form_no_kron(self, monkeypatch):
        rho = linalg.random_density_matrix(2, 3)
        proc = TemporalProcess(rho, [random_channel(2, 2, 4), stinespring_channel(2, 3, 1, 5)])
        observables = [1, Z, np.diag([1.0, -1.0, 1.0])]
        fam = histories.pauli_history_family(rho, [1, 3, 2], [linalg.haar_random_unitary(2, s) for s in (6, 7)])
        want = event_correlation(proc, observables)

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", no_kron)
        r = build_pdm(proc)
        assert abs(expectation_from_pdm(r, observables) - want) <= 1e-12
        assert abs(event_correlation(proc, observables) - want) <= 1e-12
        assert_allclose(marginal(r, 2), channels.apply(proc.steps[1], channels.apply(proc.steps[0], rho)), atol=1e-12)
        histories.pdm_correlation_from_df(fam)
        action = channels.channel_of_choi(channels.choi_of_channel(proc.steps[1]))
        assert_allclose(action(rho), channels.apply(proc.steps[1], rho), atol=1e-12)


class TestExpectation:
    def test_half_swap_xx(self):
        r = PDM(event_dims=(2, 2), matrix=SWAP / 2)
        assert abs(expectation_from_pdm(r, (1, 1)) - 1.0) < 1e-12

    def test_zero_state_zi(self):
        r = build_pdm(zero_process())
        assert abs(expectation_from_pdm(r, (3, 0)) - 1.0) < 1e-12

    def test_unit_trace_via_identities(self):
        r = build_pdm(mixed_process())
        assert abs(expectation_from_pdm(r, (0, 0)) - 1.0) < 1e-12


class TestMarginal:
    def test_zero_state(self):
        r = build_pdm(zero_process())
        assert_allclose(marginal(r, 0), ZERO, atol=1e-12)

    def test_half_swap_marginals(self):
        r = build_pdm(mixed_process())
        for event in (0, 1):
            assert_allclose(marginal(r, event), I2 / 2, atol=1e-12)

    def test_spacelike(self):
        rho_b = linalg.random_density_matrix(2, 4)
        r = pdm.spacelike_pdm(linalg.tensor(ZERO, rho_b), 2)
        assert_allclose(marginal(r, 1), rho_b, atol=1e-12)

    def test_first_marginal_is_initial(self):
        for seed in range(10):
            rho = linalg.random_density_matrix(2, seed)
            proc = TemporalProcess(rho, [random_channel(2, 2, seed + 60)])
            assert_allclose(marginal(build_pdm(proc), 0), rho, atol=1e-10)

    def test_last_marginal_is_evolved(self):
        rho = linalg.random_density_matrix(2, 12)
        ch = random_channel(2, 2, 13)
        proc = TemporalProcess(rho, [ch])
        assert_allclose(marginal(build_pdm(proc), 1), channels.apply(ch, rho), atol=1e-10)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            marginal(build_pdm(zero_process()), 2)


class TestCausalityMonotone:
    def test_positive_matrix_gives_zero(self):
        r = pdm.spacelike_pdm(linalg.tensor(ZERO, I2 / 2), 2)
        assert causality_monotone(r) == 0.0

    def test_closed_two_time_gives_one(self):
        assert abs(causality_monotone(build_pdm(zero_process())) - 1.0) < 1e-12
        assert abs(causality_monotone(build_pdm(mixed_process())) - 1.0) < 1e-12

    def test_depolarized_in_between(self):
        proc = TemporalProcess(I2 / 2, [depolarizing(0.5)])
        value = causality_monotone(build_pdm(proc))
        assert 0.0 < value < 1.0

    def test_local_unitary_invariance(self):
        r = build_pdm(zero_process())
        for seed in range(10):
            u = linalg.tensor(
                linalg.haar_random_unitary(2, seed), linalg.haar_random_unitary(2, seed + 40)
            )
            rotated = PDM(event_dims=(2, 2), matrix=u @ r.matrix @ dag(u))
            assert abs(causality_monotone(rotated) - causality_monotone(r)) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=dichotomic_chains(min_events=2))
    def test_matches_the_singular_value_trace_norm(self, case):
        r = build_pdm(case[0])
        assert abs(causality_monotone(r) - max(0.0, linalg.trace_norm(r.matrix) - 1.0)) <= 1e-12


class TestTetrahedron:
    def test_identity_on_mixed(self):
        point = tetrahedron_point(mixed_process())
        assert_allclose(point.as_array(), [1, 1, 1], atol=1e-12)
        member = classify(point)
        assert member.in_temporal and not member.in_spatial

    def test_bell_state_point_is_spatial_vertex(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        point = pdm.CorrelationTriple(
            *(np.real(np.trace(linalg.tensor(PAULIS[i], PAULIS[i]) @ rho)) for i in (1, 2, 3))
        )
        assert_allclose(point.as_array(), [1, -1, 1], atol=1e-12)
        member = classify(point)
        assert member.in_spatial and not member.in_temporal

    def test_full_depolarizing_in_both(self):
        proc = TemporalProcess(I2 / 2, [depolarizing(1.0)])
        point = tetrahedron_point(proc)
        assert_allclose(point.as_array(), [0, 0, 0], atol=1e-12)
        member = classify(point)
        assert member.in_spatial and member.in_temporal

    def test_unitary_processes_stay_temporal(self):
        for seed in range(20):
            u = linalg.haar_random_unitary(2, seed)
            proc = TemporalProcess(I2 / 2, [unitary_channel(u)])
            assert classify(tetrahedron_point(proc)).in_temporal

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            tetrahedron_point(TemporalProcess(I2 / 2, [identity_channel(), identity_channel()]))


def branch_postselected_correlation(rho, ch, i, j, eta):
    """sum_ab ab p_ab / sum_ab p_ab over the four Lueders branches, p_ab = Tr[eta P_j^b E(P_i^a rho P_i^a) P_j^b]."""
    pi = linalg.dichotomic_projectors(linalg.pauli_string_matrix([i]))
    pj = linalg.dichotomic_projectors(linalg.pauli_string_matrix([j]))
    probs = {}
    for alpha, pa in zip((1, -1), pi):
        mid = channels.apply(ch, pa @ rho @ pa)
        for beta, pb in zip((1, -1), pj):
            probs[(alpha, beta)] = np.trace(eta @ pb @ mid @ pb).real
    return sum(a * b * p for (a, b), p in probs.items()) / sum(probs.values())


class TestPostselection:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), i=st.integers(0, 3), j=st.integers(0, 3))
    def test_matches_the_four_branch_oracle(self, seed, i, j):
        rho = linalg.random_density_matrix(2, seed)
        ch = random_channel(2, 2, seed + 1)
        eta = linalg.random_density_matrix(2, seed + 2)
        want = branch_postselected_correlation(rho, ch, i, j, eta)
        assert abs(postselected_correlation(rho, ch, i, j, eta) - want) <= 1e-12

    def test_trivial_postselection_reduces(self):
        rho = linalg.random_density_matrix(2, 21)
        ch = random_channel(2, 2, 22)
        proc = TemporalProcess(rho, [ch])
        for i in range(4):
            for j in range(4):
                got = postselected_correlation(rho, ch, i, j, I2)
                want = event_correlation(proc, (i, j))
                assert abs(got - want) < 1e-12

    def test_matched_projector(self):
        assert abs(postselected_correlation(ZERO, identity_channel(), 3, 3, ZERO) - 1.0) < 1e-12

    def test_impossible_postselection(self):
        one = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(UndefinedPostselectionError):
            postselected_correlation(ZERO, identity_channel(), 3, 3, one)

    def test_scale_invariance(self):
        rho = linalg.random_density_matrix(2, 31)
        ch = depolarizing(0.2)
        eta = linalg.random_density_matrix(2, 32)
        a = postselected_correlation(rho, ch, 1, 3, eta)
        b = postselected_correlation(rho, ch, 1, 3, 1.7 * eta)
        assert abs(a - b) < 1e-12

    def test_postselected_pdm_shape(self):
        eta = linalg.random_density_matrix(2, 33)
        r = build_postselected_pdm(ZERO, depolarizing(0.1), eta)
        assert r.matrix.shape == (8, 8)
        assert r.event_dims == (2, 2, 2)
        assert linalg.is_hermitian(r.matrix, atol=1e-10)
        assert abs(np.trace(r.matrix) - 1.0) < 1e-10


    def test_eta_beyond_one_qubit_is_refused(self):
        eta = linalg.random_density_matrix(4, 34)
        for call in (lambda: build_postselected_pdm(ZERO, depolarizing(0.1), eta),
                     lambda: postselected_correlation(ZERO, depolarizing(0.1), 3, 3, eta)):
            with pytest.raises(ValueError, match="one-qubit"):
                call()

    def test_state_or_channel_beyond_one_qubit_is_refused(self):
        for rho, ch in ((np.eye(3) / 3, identity_channel(3)), (ZERO, stinespring_channel(2, 3, 0, 35))):
            with pytest.raises(ValueError, match="one-qubit state and a one-qubit channel"):
                postselected_correlation(rho, ch, 1, 1, I2)
            with pytest.raises(ValueError, match="one-qubit state and a one-qubit channel"):
                build_postselected_pdm(rho, ch, I2)


class TestCtc:
    def test_identity_unitary(self):
        rho = linalg.random_density_matrix(2, 41)
        assert abs(ctc_probability(np.eye(8, dtype=complex), rho, 4) - 1.0) < 1e-12

    def test_swap_unitary(self):
        d = 2
        swap = SWAP.copy()
        rho = linalg.random_density_matrix(2, 42)
        assert abs(ctc_probability(swap, rho, d) - 1.0 / d**2) < 1e-12

    def test_matches_projection_construction(self):
        for seed in range(10):
            u = linalg.haar_random_unitary(4, seed)
            rho = linalg.random_density_matrix(2, seed + 80)
            a = ctc_probability(u, rho, 2)
            b = ctc_probability_via_projection(u, rho, 2)
            assert abs(a - b) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            ctc_probability(np.ones((4, 4), dtype=complex), I2 / 2, 2)
