import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spacetimeq import channels, histories, linalg, pdm
from spacetimeq.histories import (
    HistoryFamily,
    _chains,
    coarse_grained_family,
    coarse_grained_functional,
    decoherence_array,
    decoherence_functional,
    decoherence_matrix,
    is_consistent,
    matching_process_correlation,
    max_interference,
    pauli_history_family,
    pdm_correlation_from_df,
    signalling_game_probability,
    signed_game_correlation,
)
from spacetimeq.linalg import I2, X, Z

KET0 = np.array([1, 0], dtype=complex)
ZERO = np.outer(KET0, KET0.conj())
PLUS_KET = np.array([1, 1], dtype=complex) / np.sqrt(2)
PLUS = np.outer(PLUS_KET, PLUS_KET.conj())
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
EYE = np.eye(2, dtype=complex)


class TestFamilyValidation:
    def test_rejects_non_exhaustive(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            HistoryFamily(ZERO, [(p0,)], ())

    def test_rejects_non_exclusive(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="not exhaustive"):
            HistoryFamily(ZERO, [(p0, EYE - 0.5 * p0)], ())

    def test_rejects_an_exhaustive_pair_that_is_not_exclusive(self):
        with pytest.raises(ValueError, match="projectors at time 0 are not exclusive"):
            HistoryFamily(ZERO, [(EYE / 2, EYE / 2)], ())

    def test_rejects_non_unitary_gap(self):
        plus, minus = linalg.dichotomic_projectors(Z)
        with pytest.raises(ValueError):
            HistoryFamily(ZERO, [(plus, minus), (plus, minus)], [np.ones((2, 2))])

    @pytest.mark.parametrize("u", [np.eye(2, 3), linalg.haar_random_unitary(3, 1)])
    def test_rejects_a_gap_of_the_wrong_shape(self, u):
        plus, minus = linalg.dichotomic_projectors(Z)
        with pytest.raises(ValueError, match="gap evolutions must be unitary"):
            HistoryFamily(ZERO, [(plus, minus), (plus, minus)], [u])

    @pytest.mark.parametrize("initial, projector", [(EYE / 2, np.eye(3)), (np.eye(3) / 3, EYE)])
    def test_rejects_projectors_of_another_size(self, initial, projector):
        with pytest.raises(ValueError, match="projectors at time 0 must be"):
            HistoryFamily(initial, [(projector,)], ())

    @pytest.mark.parametrize("initial", [np.ones(2) / 2, np.ones((2, 3)) / 2])
    def test_rejects_a_non_square_state(self, initial):
        with pytest.raises(ValueError, match="initial state must be a square matrix"):
            HistoryFamily(initial, [(EYE,)], ())

    @pytest.mark.parametrize("make", [lambda rho: HistoryFamily(rho, [(EYE,)], ()), pdm.TemporalProcess],
                             ids=["HistoryFamily", "TemporalProcess"])
    @pytest.mark.parametrize("initial, message", [
        (EYE, "unit trace"),
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "Hermitian"),
        (np.diag([1.5, -0.5]), "positive semi-definite"),
    ], ids=["trace-2", "non-hermitian", "negative-eigenvalue"])
    def test_rejects_a_state_that_is_not_a_density_matrix(self, make, initial, message):
        with pytest.raises(ValueError, match=f"initial state must (have|be) {message}"):
            make(initial)


class TestDecoherenceFunctional:
    def test_eigenstate_history(self):
        fam = pauli_history_family(ZERO, [3, 3], [EYE])
        d = decoherence_matrix(fam)
        assert abs(d[((0, 0), (0, 0))] - 1.0) < 1e-14
        for labels in [(0, 1), (1, 0), (1, 1)]:
            assert abs(d[(labels, labels)]) < 1e-14

    def test_total_sum_is_one(self):
        for seed in range(5):
            u = linalg.haar_random_unitary(2, seed)
            rho = linalg.random_density_matrix(2, seed + 10)
            fam = pauli_history_family(rho, [1, 3], [u])
            total = sum(decoherence_matrix(fam).values())
            assert abs(total - 1.0) < 1e-10

    def test_hermitian_pairing(self):
        u = linalg.haar_random_unitary(2, 3)
        fam = pauli_history_family(linalg.random_density_matrix(2, 4), [1, 2], [u])
        d = decoherence_matrix(fam)
        for (ha, hb), v in d.items():
            assert abs(v - np.conj(d[(hb, ha)])) < 1e-12

    def test_diagonal_probabilities(self):
        u = linalg.haar_random_unitary(2, 9)
        fam = pauli_history_family(linalg.random_density_matrix(2, 8), [2, 3], [u])
        diag = [decoherence_functional(fam, h, h) for h in fam.labels()]
        assert all(abs(v.imag) < 1e-12 and v.real >= -1e-12 for v in diag)
        assert abs(sum(v.real for v in diag) - 1.0) < 1e-10

    def test_plus_state_off_diagonals(self):
        fam = pauli_history_family(PLUS, [3, 3], [EYE])
        # opposite-at-both-times entry vanishes, single-flip entries pair up
        assert abs(decoherence_functional(fam, (0, 0), (1, 1))) < 1e-14
        v = decoherence_functional(fam, (0, 0), (1, 0))
        assert abs(v - np.conj(decoherence_functional(fam, (1, 0), (0, 0)))) < 1e-14

    def test_label_out_of_range(self):
        fam = pauli_history_family(ZERO, [3, 3], [EYE])
        with pytest.raises(IndexError):
            decoherence_functional(fam, (0, 2), (0, 0))


class TestConsistency:
    def test_z_families_consistent(self):
        for rho in (ZERO, PLUS, linalg.random_density_matrix(2, 5)):
            fam = pauli_history_family(rho, [3, 3], [EYE])
            assert is_consistent(fam, tol=1e-10)

    def test_hadamard_gap_inconsistent(self):
        fam = pauli_history_family(PLUS, [3, 3], [HADAMARD])
        assert not is_consistent(fam, tol=1e-10)

    def test_strong_implies_weak(self):
        for seed in range(10):
            u = linalg.haar_random_unitary(2, seed)
            rho = linalg.random_density_matrix(2, seed + 30)
            fam = pauli_history_family(rho, [3, 1], [u])
            if is_consistent(fam, tol=1e-10, strong=True):
                assert is_consistent(fam, tol=1e-10)


class TestPdmCorrelationIdentity:
    def test_zero_state_zz(self):
        fam = pauli_history_family(ZERO, [3, 3], [EYE])
        assert abs(pdm_correlation_from_df(fam) - 1.0) < 1e-12

    def test_hadamard_zx(self):
        fam = pauli_history_family(I2 / 2, [3, 1], [HADAMARD])
        assert abs(pdm_correlation_from_df(fam) - 1.0) < 1e-12

    def test_random_processes_all_pairs(self):
        for seed in range(10):
            u = linalg.haar_random_unitary(2, seed + 100)
            rho = linalg.random_density_matrix(2, seed + 200)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    fam = pauli_history_family(rho, [i, j], [u])
                    a = pdm_correlation_from_df(fam)
                    b = matching_process_correlation(rho, [i, j], [u])
                    assert abs(a - b) < 1e-12

    def test_three_times(self):
        u1 = linalg.haar_random_unitary(2, 61)
        u2 = linalg.haar_random_unitary(2, 62)
        rho = linalg.random_density_matrix(2, 63)
        fam = pauli_history_family(rho, [3, 1, 2], [u1, u2])
        a = pdm_correlation_from_df(fam)
        b = matching_process_correlation(rho, [3, 1, 2], [u1, u2])
        assert abs(a - b) < 1e-12

    def test_requires_pairs(self):
        basis = np.eye(3, dtype=complex)
        projectors = tuple(np.outer(basis[i], basis[i].conj()) for i in range(3))
        fam = HistoryFamily(basis @ np.diag([1.0, 0, 0]) @ basis / 1.0, [projectors], ())
        with pytest.raises(ValueError):
            pdm_correlation_from_df(fam)


class TestCoarseGraining:
    def test_qutrit_sum_rule(self):
        basis = np.eye(3, dtype=complex)
        projectors = tuple(np.outer(basis[i], basis[i].conj()) for i in range(3))
        rho = linalg.random_density_matrix(3, 77)
        u = linalg.haar_random_unitary(3, 78)
        fam = HistoryFamily(rho, [projectors, projectors], [u])
        partitions = [[(0, 1), (2,)], [(0, 1), (2,)]]
        coarse = coarse_grained_family(fam, partitions)
        for bar_a in coarse.labels():
            for bar_b in coarse.labels():
                direct = decoherence_functional(coarse, bar_a, bar_b)
                summed = coarse_grained_functional(fam, partitions, bar_a, bar_b)
                assert abs(direct - summed) < 1e-12


class TestPartitionValidation:
    @pytest.mark.parametrize("partitions", [
        [[(0, 0)], [(0, 1)]],  # a label repeated within one group, and label 1 missing at time 0
        [[(0, 1), (1,)], [(0,), (1,)]],  # overlapping groups
        [[(0,)], [(0,), (1,)]],  # a missing label
        [[(0,), (1, 2)], [(0,), (1,)]],  # a label out of range
        [[(0,), (1,)]],  # one time short
    ])
    def test_invalid_partitions_refused(self, partitions):
        fam = pauli_history_family(PLUS, [1, 3], [HADAMARD])
        with pytest.raises(ValueError):
            coarse_grained_functional(fam, partitions, (0, 0), (0, 0))
        with pytest.raises(ValueError):
            coarse_grained_family(fam, partitions)

    @pytest.mark.parametrize("bar, error, message", [
        ((-1, 0), IndexError, "label out of range at time 0"),
        ((2, 0), IndexError, "label out of range at time 0"),
        ((0,), ValueError, "one projector per time"),
    ])
    def test_coarse_labels_are_checked(self, bar, error, message):
        fam = pauli_history_family(PLUS, [1, 3], [linalg.haar_random_unitary(2, 5)])
        partitions = [[(0,), (1,)], [(0,), (1,)]]
        for pair in ((bar, (0, 0)), ((0, 0), bar)):
            with pytest.raises(error, match=message):
                coarse_grained_functional(fam, partitions, *pair)

    def test_empty_group_is_a_zero_block(self):
        fam = pauli_history_family(PLUS, [1, 3], [HADAMARD])
        partitions = [[(0, 1), ()], [(1,), (0,)]]
        assert coarse_grained_functional(fam, partitions, (1, 0), (0, 1)) == 0
        coarse = coarse_grained_family(fam, partitions)
        assert not np.any(coarse.projector_sets[0][1])
        assert decoherence_functional(coarse, (1, 0), (1, 0)) == 0
        assert abs(coarse_grained_functional(fam, partitions, (0, 0), (0, 0))
                   - decoherence_functional(fam, (0, 1), (0, 1))
                   - decoherence_functional(fam, (1, 1), (1, 1))
                   - 2 * decoherence_functional(fam, (0, 1), (1, 1)).real) < 1e-12


# -- the chain route against the entry-by-entry definition ----------------------


def pairwise_is_consistent(f, tol, strong):
    """Consistency by one decoherence_functional call per off-diagonal pair."""
    for ha in f.labels():
        for hb in f.labels():
            if ha == hb:
                continue
            d = decoherence_functional(f, ha, hb)
            size = abs(d) if strong else abs(d.real)
            if size > tol:
                return False
    return True


def signed_diagonal_sum(f):
    """sum_a sign(a) Re D(a, a), one decoherence_functional call per history."""
    total = 0.0
    for labels in f.labels():
        sign = 1.0
        for a in labels:
            sign *= 1.0 if a == 0 else -1.0
        total += sign * decoherence_functional(f, labels, labels).real
    return total


def fine_double_sum(f, partitions, bar_a, bar_b):
    groups = [partitions[t][bar_a[t]] for t in range(f.n_times)]
    groups_prime = [partitions[t][bar_b[t]] for t in range(f.n_times)]
    return sum(
        (decoherence_functional(f, fine, fine_prime)
         for fine in itertools.product(*groups) for fine_prime in itertools.product(*groups_prime)),
        0.0j,
    )


def rank_split(basis, sizes):
    """Projectors onto consecutive blocks of basis columns, one per size."""
    cuts = np.cumsum((0,) + tuple(sizes))
    return [basis[:, lo:hi] @ basis[:, lo:hi].conj().T for lo, hi in zip(cuts[:-1], cuts[1:])]


@st.composite
def families(draw, pairs=False):
    """A family at d in {2, 3} over 1-4 times: rank splits of a Haar basis per time, Haar gaps.

    With ``commuting``, every time shares one basis and every gap is the identity, so that the
    family is strongly consistent and the consistency oracles see both answers.
    """
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    commuting = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def seed():
        return int(rng.integers(2**31))

    shared = linalg.haar_random_unitary(d, seed())
    sets = []
    for _ in range(n):
        m = 2 if pairs else draw(st.integers(1, min(3, d)))
        cuts = sorted(rng.choice(np.arange(1, d), size=m - 1, replace=False)) if m > 1 else []
        sizes = np.diff([0, *cuts, d])
        basis = shared if commuting else linalg.haar_random_unitary(d, seed())
        sets.append(rank_split(basis, sizes))
    gaps = [np.eye(d) if commuting else linalg.haar_random_unitary(d, seed()) for _ in range(n - 1)]
    return HistoryFamily(linalg.random_density_matrix(d, seed()), sets, gaps)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(f=families())
def test_matrix_equals_the_functional_on_every_pair(f):
    dm = decoherence_matrix(f)
    labels = list(f.labels())
    assert list(dm) == [(a, b) for a in labels for b in labels]
    for (a, b), v in dm.items():
        assert abs(v - decoherence_functional(f, a, b)) <= 1e-12
    c = _chains(f)
    assert c.shape == (len(labels),) + f.initial.shape
    w = np.eye(f.initial.shape[0])  # W_n = U_{n-1} ... U_1, so that C_a = W_n^dagger X_a
    for u in f.unitaries:
        w = u @ w
    for op, a in zip(linalg.dag(w) @ c, labels):
        chain = np.eye(f.initial.shape[0])
        for t, label in enumerate(a):
            chain = f.heisenberg_projector(t, label) @ chain
        assert np.max(np.abs(op - chain)) <= 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(f=families())
def test_consistency_equals_the_pairwise_loop(f):
    d = decoherence_array(f)
    off = [v for (a, b), v in decoherence_matrix(f).items() if a != b]
    for strong in (False, True):
        biggest = max((abs(v) if strong else abs(v.real) for v in off), default=0.0)
        assert abs(max_interference(d, strong) - biggest) <= 1e-12
        # away from the boundary, where 1e-16 differences cannot flip the answer
        tols = [1e-10] + ([biggest / 2, 2 * biggest] if biggest > 1e-9 else [])
        for tol in tols:
            assert is_consistent(f, tol, strong) == pairwise_is_consistent(f, tol, strong)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f=families(), data=st.data())
def test_coarse_functional_equals_the_fine_double_sum(f, data):
    partitions = []
    for group in f.projector_sets:
        k = data.draw(st.integers(1, len(group)))
        owner = data.draw(st.lists(st.integers(0, k - 1), min_size=len(group), max_size=len(group)))
        partitions.append([tuple(i for i, o in enumerate(owner) if o == g) for g in range(k)])
    bar = st.tuples(*(st.integers(0, len(groups) - 1) for groups in partitions))
    bar_a, bar_b = data.draw(bar), data.draw(bar)
    value = coarse_grained_functional(f, partitions, bar_a, bar_b)
    assert abs(value - fine_double_sum(f, partitions, bar_a, bar_b)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f=families(pairs=True))
def test_signed_diagonal_equals_the_per_label_sum(f):
    assert abs(pdm_correlation_from_df(f) - signed_diagonal_sum(f)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    paulis=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    seed=st.integers(0, 2**31 - 1),
)
def test_signed_diagonal_equals_the_cascade(paulis, seed):
    rng = np.random.default_rng(seed)
    rho = linalg.random_density_matrix(2, int(rng.integers(2**31)))
    gaps = [linalg.haar_random_unitary(2, int(rng.integers(2**31))) for _ in paulis[1:]]
    f = pauli_history_family(rho, paulis, gaps)
    value = pdm_correlation_from_df(f)
    assert abs(value - signed_diagonal_sum(f)) <= 1e-12
    assert abs(value - matching_process_correlation(rho, paulis, gaps)) <= 1e-12


class TestSignallingGame:
    """Outcome 0 of each round is the + outcome, read as +1."""

    def test_sharp_repeated_measurement(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        tau = np.diag([0.7, 0.3]).astype(complex)
        phi = np.array([[p0], [p1]])
        psi = np.array([[p0, p1], [p0, p1]])
        table = signalling_game_probability(tau, phi, channels.identity_channel(), psi)
        assert abs(table[0, 0] - 0.7) < 1e-12
        assert abs(table[1, 1] - 0.3) < 1e-12
        assert abs(table[0, 1]) < 1e-12 and abs(table[1, 0]) < 1e-12

    def test_rows_sum_to_one(self):
        plus, minus = linalg.dichotomic_projectors(X)
        phi = np.array([[plus], [minus]])
        psi = np.array([[plus, minus], [plus, minus]])
        tau = linalg.random_density_matrix(2, 91)
        table = signalling_game_probability(tau, phi, channels.depolarizing(0.3), psi)
        assert abs(table.sum() - 1.0) < 1e-10

    def test_signed_sum_equals_pdm_correlation(self):
        plus, minus = linalg.dichotomic_projectors(X)
        phi = np.array([[plus], [minus]])
        psi = np.array([[plus, minus], [plus, minus]])
        for seed in range(5):
            tau = linalg.random_density_matrix(2, seed + 300)
            memory = channels.random_channel(2, 2, seed + 400)
            table = signalling_game_probability(tau, phi, memory, psi)
            proc = pdm.TemporalProcess(tau, [memory])
            assert abs(signed_game_correlation(table) - pdm.event_correlation(proc, (1, 1))) < 1e-12

    def test_depolarizing_memory_contracts(self):
        plus, minus = linalg.dichotomic_projectors(X)
        phi = np.array([[plus], [minus]])
        psi = np.array([[plus, minus], [plus, minus]])
        tau = PLUS
        p = 0.35
        noiseless = signed_game_correlation(
            signalling_game_probability(tau, phi, channels.identity_channel(), psi)
        )
        noisy = signed_game_correlation(
            signalling_game_probability(tau, phi, channels.depolarizing(p), psi)
        )
        assert abs(noisy - (1 - p) * noiseless) < 1e-12

    def test_incomplete_instrument_rejected(self):
        plus, _ = linalg.dichotomic_projectors(X)
        with pytest.raises(ValueError):
            signalling_game_probability(
                PLUS, np.array([[plus]]), channels.identity_channel(), np.array([[EYE]])
            )

    def test_one_povm_per_first_round_outcome(self):
        plus, minus = linalg.dichotomic_projectors(X)
        phi = np.array([[plus], [minus]])
        with pytest.raises(ValueError, match="one per first-round outcome"):
            signalling_game_probability(PLUS, phi, channels.identity_channel(), np.array([[plus, minus]]))

    def test_incomplete_povm_rejected(self):
        plus, minus = linalg.dichotomic_projectors(X)
        phi = np.array([[plus], [minus]])
        psi = np.array([[plus, minus], [plus, plus]])
        with pytest.raises(ValueError, match="outcome 1 is incomplete"):
            signalling_game_probability(PLUS, phi, channels.identity_channel(), psi)

    def test_zero_padded_kraus_operators(self):
        """Outcome 0 has two Kraus operators and outcome 1 one, padded by a zero matrix."""
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        flip = X @ p0
        phi = np.array([[p0 / np.sqrt(2), flip / np.sqrt(2)], [p1, 0 * p1]])
        psi = np.array([[p0, p1], [p0, p1]])
        table = signalling_game_probability(np.diag([0.6, 0.4]), phi, channels.identity_channel(), psi)
        assert np.max(np.abs(table - np.array([[0.3, 0.3], [0.0, 0.4]]))) < 1e-12

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 3), (1, 2, 2)])
    def test_signed_correlation_needs_a_two_by_two_table(self, shape):
        with pytest.raises(ValueError, match="2 x 2"):
            signed_game_correlation(np.full(shape, 0.25))
