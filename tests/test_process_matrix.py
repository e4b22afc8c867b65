import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spacetimeq import channels, linalg, process_matrix as pmx
from spacetimeq.linalg import I2, PAULIS, X, Z, dag
from spacetimeq.process_matrix import (
    Instrument,
    ProcessMatrix,
    SLOTS,
    ancilla_probability_table,
    count_causal_vertices,
    enumerate_causal_vertices,
    gyni_demo,
    gyni_score,
    identity_process,
    is_valid_process,
    lgyni_score,
    lv_project,
    maxent_choi,
    ocb_process,
    pauli_measure_forward_instrument,
    pauli_pair_correlation,
    pdm_gyni_demo,
    probability_table,
    vertex_probability_table,
    violating_operations,
)

CLOSED_FORM_GYNI = (5.0 / 16.0) * (1.0 + 1.0 / np.sqrt(2.0))
INV_SQRT8 = 1.0 / (2.0 * np.sqrt(2.0))

#: Subsets of slots on which a term may act nontrivially in a valid W: the term-type oracle of
#: ``lv_project``, which must keep exactly these components.
ALLOWED_TERM_TYPES = frozenset(
    [
        frozenset(),
        frozenset({"A_I"}),
        frozenset({"B_I"}),
        frozenset({"A_I", "B_I"}),
        frozenset({"A_O", "B_I"}),
        frozenset({"A_I", "A_O", "B_I"}),
        frozenset({"A_I", "B_O"}),
        frozenset({"A_I", "B_I", "B_O"}),
    ]
)


def _component(w, dims, nontrivial):
    """Part of w acting nontrivially exactly on the named slots."""
    out = np.asarray(w, dtype=complex)
    for k, name in enumerate(SLOTS):
        replaced = pmx.trace_and_replace(out, dims, [k])
        out = out - replaced if name in nontrivial else replaced
    return out


def term_type_projection(w, dims):
    """The valid-subspace projector as the sum of the allowed term-type components."""
    return sum(_component(w, dims, term_type) for term_type in ALLOWED_TERM_TYPES)


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return h + dag(h)


def per_entry_table(w, a, b):
    """p[a, b, x, y] = Re Tr[W^T (A_{a|x} (x) B_{b|y})], one Kronecker product and trace per entry.

    The oracle of ``probability_table``'s single contraction.
    """
    (k_a, m_a), (k_b, m_b) = a.ops.shape[:2], b.ops.shape[:2]
    table = np.zeros((k_a, k_b, m_a, m_b))
    for ao, bo, x, y in np.ndindex(table.shape):
        table[ao, bo, x, y] = np.real(np.trace(w.w.T @ linalg.tensor(a.ops[ao, x], b.ops[bo, y])))
    return table


def assert_same_tables(w, a, b):
    direct = probability_table(w, a, b)
    ancilla = ancilla_probability_table(w, a, b)
    assert ancilla.shape == direct.shape
    assert np.max(np.abs(ancilla - direct)) < 1e-12


def random_instrument(rng, outcomes, inputs, dims):
    """Random Hermitian operators of unit Frobenius norm, shaped (outcomes, inputs, d, d), d = d_in d_out."""
    d = dims[0] * dims[1]
    h = rng.normal(size=(outcomes, inputs, d, d)) + 1j * rng.normal(size=(outcomes, inputs, d, d))
    h = h + h.conj().swapaxes(-1, -2)
    return Instrument(ops=h / np.linalg.norm(h, axis=(-2, -1), keepdims=True), dims=dims)


def pauli_term(pattern):
    """Random-signed Pauli word acting nontrivially exactly on `pattern`."""
    ops = [Z if name in pattern else I2 for name in SLOTS]
    return linalg.tensor(*ops)


class TestProjector:
    def test_fixed_points(self):
        rho = linalg.random_density_matrix(2, 3)
        u = linalg.haar_random_unitary(2, 4)
        w_channel = ProcessMatrix(w=linalg.tensor(rho, maxent_choi(u), I2))
        assert_allclose(lv_project(w_channel).w, w_channel.w, atol=1e-12)
        w_identity = ProcessMatrix(w=np.eye(16, dtype=complex) / 4)
        assert_allclose(lv_project(w_identity).w, w_identity.w, atol=1e-12)

    def test_global_loop_killed(self):
        loop = ProcessMatrix(w=linalg.tensor(maxent_choi(), maxent_choi()).real + 0j)
        projected = lv_project(loop).w
        assert np.max(np.abs(projected - loop.w)) > 1e-3

    def test_term_type_characterization(self):
        for pattern in ALLOWED_TERM_TYPES:
            term = ProcessMatrix(w=pauli_term(pattern))
            assert_allclose(lv_project(term).w, term.w, atol=1e-12)
        all_patterns = [
            frozenset(s)
            for k in range(5)
            for s in itertools.combinations(SLOTS, k)
        ]
        for pattern in all_patterns:
            if pattern in ALLOWED_TERM_TYPES:
                continue
            term = ProcessMatrix(w=pauli_term(pattern))
            assert np.max(np.abs(lv_project(term).w)) < 1e-12, pattern

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            h = h + dag(h)
            once = lv_project(ProcessMatrix(w=h)).w
            twice = lv_project(ProcessMatrix(w=once)).w
            assert np.max(np.abs(twice - once)) < 1e-12
        a = rng.normal(size=(16, 16)); a = (a + a.T) + 0j
        b = rng.normal(size=(16, 16)); b = (b + b.T) + 0j
        combo = lv_project(ProcessMatrix(w=2.0 * a - 0.5 * b)).w
        parts = 2.0 * lv_project(ProcessMatrix(w=a)).w - 0.5 * lv_project(ProcessMatrix(w=b)).w
        assert np.max(np.abs(combo - parts)) < 1e-12

    def test_trace_preserved_on_fixed_space(self):
        w = ocb_process()
        assert abs(np.trace(lv_project(w).w) - np.trace(w.w)) < 1e-12

    @pytest.mark.parametrize("dims", list(itertools.product((1, 2, 3), repeat=4)))
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_seven_term_form_equals_the_term_type_oracle(self, dims, seed):
        h = random_hermitian(int(np.prod(dims)), seed)
        projected = lv_project(ProcessMatrix(w=h, dims=dims)).w
        assert_allclose(projected, term_type_projection(h, dims), rtol=0, atol=1e-12)


@st.composite
def product_operators(draw):
    """Random factors F_0..F_3 of local dimension 1-3 and a slot set to replace."""
    dims = draw(st.tuples(*[st.integers(1, 3)] * 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
    return dims, factors, draw(st.sets(st.integers(0, 3)))


class TestTraceAndReplace:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(product_operators())
    def test_replaces_each_named_factor_by_its_normalized_trace(self, case):
        dims, factors, slots = case
        want = linalg.tensor(*[np.trace(f) * np.eye(len(f)) / len(f) if k in slots else f
                               for k, f in enumerate(factors)])
        got = pmx.trace_and_replace(linalg.tensor(*factors), dims, slots)
        assert_allclose(got, want, rtol=0, atol=1e-12)


class TestValidity:
    def test_identity_evolution_process(self):
        v = is_valid_process(identity_process())
        assert v.is_valid and v.psd and v.trace_ok and v.projector_fixed

    def test_ocb_process(self):
        v = is_valid_process(ocb_process())
        assert v.is_valid
        assert abs(v.trace - 4.0) < 1e-12

    def test_negative_identity_invalid(self):
        v = is_valid_process(ProcessMatrix(w=-np.eye(16, dtype=complex) / 4))
        assert not v.psd and not v.is_valid


class TestCorrelations:
    def test_pauli_closed_form(self):
        for seed in range(20):
            u = linalg.haar_random_unitary(2, seed)
            w = identity_process(u=u)
            for i in range(4):  # index 0 is the unmeasured event
                for j in range(4):
                    got = pauli_pair_correlation(w, i, j)
                    want = 0.5 * np.real(np.trace(PAULIS[j] @ u @ PAULIS[i] @ dag(u)))
                    assert abs(got - want) < 1e-12

    def test_tables_normalized(self):
        inst = violating_operations()
        table = probability_table(ocb_process(), inst, inst)
        assert table.shape == (2, 2, 2, 2)
        assert np.max(np.abs(table.sum(axis=(0, 1)) - 1.0)) < 1e-8

    def test_instrument_completeness(self):
        inst = violating_operations()
        for x in range(inst.ops.shape[1]):
            assert inst.completeness_defect(x) < 1e-12

    def test_sixteen_entry_closed_form(self):
        inst = violating_operations()
        table = probability_table(ocb_process(), inst, inst)
        expected = {
            (1, 1, 0, 0): 1.0,
            (1, 0, 0, 1): 0.5 + INV_SQRT8,
            (1, 1, 0, 1): 0.5 - INV_SQRT8,
            (0, 1, 1, 0): 0.5 + INV_SQRT8,
            (1, 1, 1, 0): 0.5 - INV_SQRT8,
            (0, 0, 1, 1): 0.25 - INV_SQRT8 / 2,
            (0, 1, 1, 1): 0.25 + INV_SQRT8 / 2,
            (1, 0, 1, 1): 0.25 - INV_SQRT8 / 2,
            (1, 1, 1, 1): 0.25 + INV_SQRT8 / 2,
        }
        want = np.zeros((2, 2, 2, 2))
        for key, value in expected.items():
            want[key] = value
        assert np.max(np.abs(table - want)) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_contraction_equals_the_per_entry_oracle(self, data):
        dims = data.draw(st.tuples(*[st.integers(1, 3)] * 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        h = random_hermitian(int(np.prod(dims)), rng.integers(2**32))
        w = ProcessMatrix(w=h / np.linalg.norm(h), dims=dims)  # |p| <= ||W|| ||A (x) B|| = 1
        a, b = (random_instrument(rng, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), pair)
                for pair in (dims[:2], dims[2:]))
        table = probability_table(w, a, b)
        assert table.shape == (len(a.ops), len(b.ops), a.ops.shape[1], b.ops.shape[1])
        assert_allclose(table, per_entry_table(w, a, b), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2, 4), (2, 2, 4, 3), (2, 2, 9, 9), (1, 1, 1, 4, 4)])
    def test_instrument_refuses_operators_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="instrument operators must be shaped"):
            Instrument(ops=np.zeros(shape))


class TestGames:
    def test_gyni_lgyni_values(self):
        g, l = gyni_demo()
        assert abs(g - CLOSED_FORM_GYNI) < 1e-12
        assert abs(l - CLOSED_FORM_GYNI - 0.25) < 1e-12
        assert g > 0.5 and l > 0.75

    def test_uniform_noise(self):
        table = np.full((2, 2, 2, 2), 0.25)
        assert abs(gyni_score(table) - 0.25) < 1e-12
        assert lgyni_score(table) <= 0.75

    def test_unnormalized_rejected(self):
        table = np.full((1, 1, 1, 1), 0.7)
        with pytest.raises(ValueError):
            gyni_score(table)

    def test_unnormalized_table_of_the_right_shape_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            gyni_score(np.full((2, 2, 2, 2), 0.3))

    @pytest.mark.parametrize("score", [gyni_score, lgyni_score])
    @pytest.mark.parametrize("table", [np.full((3, 3, 3, 3), 1 / 9), np.full((2, 2, 2), 0.25)],
                             ids=["uniform-3333", "three-axes"])
    def test_tables_other_than_two_by_two_are_refused(self, score, table):
        with pytest.raises(ValueError, match=r"a \(2, 2, 2, 2\) table, got shape"):
            score(table)

    def test_spacetime_route_equals_process_route(self):
        g, l = gyni_demo()
        g2, l2 = pdm_gyni_demo()
        assert abs(g - g2) < 1e-10
        assert abs(l - l2) < 1e-10

    def test_ancilla_table_equals_direct_table_on_the_violating_pair(self):
        inst = violating_operations()
        assert_same_tables(ocb_process(), inst, inst)

    @pytest.mark.parametrize("i,j", list(itertools.product((1, 2, 3), repeat=2)))
    def test_ancilla_table_equals_direct_table_on_pauli_events(self, i, j):
        w = identity_process(u=linalg.haar_random_unitary(2, 10 * i + j))
        assert_same_tables(w, pauli_measure_forward_instrument(i), pauli_measure_forward_instrument(j))

    def test_ancilla_state_shares_signal_terms(self):
        w = ocb_process().w
        for x in (0, 1):
            for y in (0, 1):
                r = pmx.ancilla_pdm(x, y)
                assert abs(np.trace(r) - 1.0) < 1e-12
                assert linalg.is_hermitian(r)
                for word in (linalg.tensor(Z, Z, Z, I2), linalg.tensor(Z, I2, X, X)):
                    a = np.trace(word @ r).real
                    b = np.trace(word @ w).real
                    assert abs(a - b) < 1e-12


class TestCausalPolytope:
    def test_counts(self):
        assert count_causal_vertices(2, 2, 2, 2) == 112
        assert count_causal_vertices(1, 1, 2, 2) == 4
        assert count_causal_vertices(1, 1, 1, 1) == 1

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2, 2), (1, 1, 2, 2), (1, 2, 2, 2), (2, 1, 3, 2)]
    )
    def test_enumeration_matches_formula(self, dims):
        assert len(enumerate_causal_vertices(*dims)) == count_causal_vertices(*dims)

    def test_all_vertices_respect_inequalities(self):
        worst_g, worst_l = 0.0, 0.0
        for vertex in enumerate_causal_vertices(2, 2, 2, 2):
            table = vertex_probability_table(vertex, 2, 2, 2, 2)
            worst_g = max(worst_g, gyni_score(table))
            worst_l = max(worst_l, lgyni_score(table))
        assert worst_g <= 0.5
        assert worst_l <= 0.75
        # the classical bounds are attained
        assert worst_g == 0.5
        assert worst_l == 0.75

    @pytest.mark.parametrize("length", [3, 5])
    def test_rejects_a_vertex_of_the_wrong_length(self, length):
        with pytest.raises(ValueError, match="a vertex holds 4 outcome pairs"):
            vertex_probability_table([(0, 0)] * length, 2, 2, 2, 2)

    @pytest.mark.parametrize("outcome", [-1, 2])
    def test_rejects_an_outcome_out_of_range(self, outcome):
        for vertex in ([(outcome, 0)] * 4, [(0, outcome)] * 4):
            with pytest.raises(ValueError, match="is outside 0..1 x 0..1"):
                vertex_probability_table(vertex, 2, 2, 2, 2)

    def test_rejects_bad_cardinalities(self):
        with pytest.raises(ValueError):
            count_causal_vertices(0, 1, 2, 2)


@st.composite
def kraus_families(draw):
    """Kraus operators of a random channel from a Haar isometry, non-square ones included."""
    d_out, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d_in = draw(st.integers(1, d_out * rank))
    u = linalg.haar_random_unitary(d_out * rank, draw(st.integers(0, 2**32 - 1)))
    return [u[k * d_out:(k + 1) * d_out, :d_in] for k in range(rank)]


haar_unitaries = st.builds(linalg.haar_random_unitary, st.integers(1, 4), st.integers(0, 2**32 - 1))


def basis_units(d):
    eye = np.eye(d, dtype=complex)
    return [np.outer(eye[i], eye[j]) for i in range(d) for j in range(d)]


class TestChoiConventions:
    @settings(max_examples=40, deadline=None)
    @given(haar_unitaries)
    def test_input_first_is_the_factor_swap_of_output_first(self, u):
        d = len(u)
        t = channels.choi_of_channel(channels.unitary_channel(u)).matrix.reshape(d, d, d, d)
        swapped = t.transpose(1, 0, 3, 2).reshape(d * d, d * d)
        assert_allclose(maxent_choi(u), swapped, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(haar_unitaries)
    def test_both_match_their_definitions(self, u):
        ch = channels.unitary_channel(u)
        units = basis_units(len(u))
        output_first = sum(np.kron(u @ e @ dag(u), e) for e in units)
        input_first = sum(np.kron(e, u @ e @ dag(u)) for e in units)
        assert_allclose(channels.choi_of_channel(ch).matrix, output_first, atol=1e-12)
        assert_allclose(maxent_choi(u), input_first, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(kraus_families())
    def test_output_first_matches_its_definition_on_non_square_kraus_operators(self, ops):
        ch = channels.KrausChannel(ops)
        output_first = sum(np.kron(channels.apply(ch, e), e) for e in basis_units(ch.in_dim))
        assert_allclose(channels.choi_of_channel(ch).matrix, output_first, atol=1e-12)
