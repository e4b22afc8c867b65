import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import spacetimeq
from spacetimeq import channels, histories, linalg, pdm, process_matrix, timecrystal
from spacetimeq.linalg import I2, PAULIS, X, Y, Z, dag


SWAP = 0.5 * sum(linalg.tensor(p, p) for p in PAULIS)


def maxent():
    """Unnormalized maximally entangled projector sum_ij |ii><jj|."""
    out = np.zeros((4, 4), dtype=complex)
    eye = np.eye(2)
    for i in range(2):
        for j in range(2):
            out += np.kron(np.outer(eye[i], eye[j]), np.outer(eye[i], eye[j]))
    return out


class TestTensor:
    def test_identity(self):
        assert_allclose(linalg.tensor(I2, I2), np.eye(4))

    def test_zz_diagonal(self):
        assert_allclose(linalg.tensor(Z, Z), np.diag([1, -1, -1, 1]).astype(complex))

    def test_xz_entry(self):
        # expanding the Kronecker definition by hand: (X (x) Z)[0, 2] = X[0,1] Z[0,0]
        assert linalg.tensor(X, Z)[0, 2] == 1.0

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = linalg.tensor(linalg.tensor(a, b), c)
        right = linalg.tensor(a, linalg.tensor(b, c))
        assert np.max(np.abs(left - right)) < 1e-14


def looped_partial_trace(m, dims, keep):
    """Trace the factors not in ``keep`` one np.trace at a time, highest axis first."""
    keep = sorted(keep)
    n = len(dims)
    t = m.reshape(tuple(dims) * 2)
    traced = 0
    for ax in range(n - 1, -1, -1):
        if ax not in keep:
            t = np.trace(t, axis1=ax, axis2=ax + n - traced)
            traced += 1
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d_keep, d_keep)


@st.composite
def traced_matrices(draw):
    """A random complex matrix over 1-4 factors of dimension 1-4, and a subset of factors to keep."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    keep = draw(st.lists(st.integers(0, len(dims) - 1), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = int(np.prod(dims))
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), dims, keep


class TestPartialTrace:
    def test_bell_marginal(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert_allclose(linalg.partial_trace(rho, (2, 2), keep=0), I2 / 2, atol=1e-14)

    def test_swap_marginal(self):
        # summing <ik|S|jk> over k by hand gives the identity/2 from S/2
        assert_allclose(linalg.partial_trace(SWAP / 2, (2, 2), keep=0), I2 / 2, atol=1e-14)

    def test_product(self):
        rng = np.random.default_rng(1)
        rho = linalg.random_density_matrix(2, 1)
        sigma = linalg.random_density_matrix(2, 2)
        assert_allclose(
            linalg.partial_trace(linalg.tensor(rho, sigma), (2, 2), keep=1),
            sigma * np.trace(rho),
            atol=1e-12,
        )

    def test_tensor_factor_rule(self):
        for seed in range(10):
            a = linalg.random_density_matrix(3, seed)
            b = linalg.random_density_matrix(2, seed + 100)
            got = linalg.partial_trace(linalg.tensor(a, b), (3, 2), keep=0)
            assert np.max(np.abs(got - a * np.trace(b))) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            linalg.partial_trace(np.eye(4, dtype=complex), (2, 2), keep=2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=traced_matrices())
    def test_matches_the_factor_by_factor_trace(self, case):
        m, dims, keep = case
        assert np.max(np.abs(linalg.partial_trace(m, dims, keep) - looped_partial_trace(m, dims, keep))) <= 1e-12

    def test_keeping_nothing_gives_the_trace(self):
        m = linalg.random_density_matrix(6, 2)
        assert_allclose(linalg.partial_trace(m, (2, 3), keep=()), [[1.0]], atol=1e-14)


class TestPartialTranspose:
    def test_swap_to_maxent(self):
        assert_allclose(linalg.partial_transpose(SWAP, (2, 2), 0), maxent(), atol=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        twice = linalg.partial_transpose(linalg.partial_transpose(m, (2, 2), 1), (2, 2), 1)
        assert_allclose(twice, m, atol=1e-15)

    def test_product_state(self):
        rho = linalg.random_density_matrix(2, 5)
        sigma = linalg.random_density_matrix(2, 6)
        got = linalg.partial_transpose(linalg.tensor(rho, sigma), (2, 2), 0)
        assert_allclose(got, linalg.tensor(rho.T, sigma), atol=1e-14)

    def test_preserves_trace_and_hermiticity(self):
        for seed in range(5):
            rho = linalg.random_density_matrix(4, seed)
            pt = linalg.partial_transpose(rho, (2, 2), 1)
            assert abs(np.trace(pt) - np.trace(rho)) < 1e-12
            assert linalg.is_hermitian(pt)


class TestEigenvalues:
    def test_trivial(self):
        assert_allclose(linalg.hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)
        assert_allclose(linalg.hermitian_eigenvalues(X), [-1, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_recovers_diagonal(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            u = linalg.haar_random_unitary(5, seed)
            d = np.sort(rng.normal(size=5))
            m = u @ np.diag(d) @ dag(u)
            assert np.max(np.abs(linalg.hermitian_eigenvalues(m) - d)) < 1e-10

    def test_sum_equals_trace(self):
        rho = linalg.random_density_matrix(6, 9)
        eigs = linalg.hermitian_eigenvalues(rho)
        assert abs(eigs.sum() - np.trace(rho).real) < 1e-10


HALF = I2 / 2
IDLE = channels.KrausChannel([I2])

#: Each public entry point that takes a scalar Pauli index, called with index k.
SCALAR_PAULI_INDEX_CALLS = {
    "event_correlation": lambda k: pdm.event_correlation(pdm.TemporalProcess(HALF, [IDLE]), (k, k)),
    "expectation_from_pdm": lambda k: pdm.expectation_from_pdm(
        pdm.build_pdm(pdm.TemporalProcess(HALF, [IDLE])), (k, k)),
    "postselected_correlation": lambda k: pdm.postselected_correlation(HALF, IDLE, k, k, I2),
    "channel_decay_series": lambda k: timecrystal.channel_decay_series(HALF, IDLE, k, 3),
    "pauli_history_family": lambda k: histories.pauli_history_family(HALF, [k], []),
    "pauli_measure_forward_instrument": process_matrix.pauli_measure_forward_instrument,
    "pauli_pair_correlation": lambda k: process_matrix.pauli_pair_correlation(
        process_matrix.identity_process(), k, k),
}


@pytest.mark.parametrize("index", [-1, 4])
@pytest.mark.parametrize("name", sorted(SCALAR_PAULI_INDEX_CALLS))
def test_a_scalar_pauli_index_out_of_range_is_refused(name, index):
    with pytest.raises(ValueError, match="Pauli indices must be in 0..3"):
        SCALAR_PAULI_INDEX_CALLS[name](index)


class TestNonFiniteRefused:
    """The max-abs tolerance checks refuse NaN and infinite entries, on and off the diagonal."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_is_hermitian(self, bad, entry):
        m = linalg.random_density_matrix(3, 2)
        m[entry] = bad
        assert not linalg.is_hermitian(m)
        assert not linalg.is_hermitian(m, atol=1e300)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_dichotomic_projectors(self, bad, entry):
        obs = X.copy()
        obs[entry] = bad
        with pytest.raises(ValueError):
            linalg.dichotomic_projectors(obs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_is_unitary(self, bad, entry):
        u = linalg.haar_random_unitary(3, 2)
        u[entry] = bad
        assert not linalg.is_unitary(u)
        assert not linalg.is_unitary(u, atol=1e300)


@st.composite
def finite_pairs(draw):
    """Two finite complex arrays of one shape and a tolerance, often exactly at or just below their margin."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5))
    entries = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)
    a = draw(hnp.arrays(complex, shape, elements=entries))
    b = draw(hnp.arrays(complex, shape, elements=entries))
    gap = float(np.max(np.abs(a - b)))
    atol = draw(st.sampled_from([gap, np.nextafter(gap, 0.0), gap * 2, gap / 2, 0.0, 1e-10]))
    return a, b, float(atol)


class TestClosenessRule:
    """margin, within and is_unitary: np.allclose(..., rtol=0) and np.max(np.abs(a - b)) are the oracles."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(finite_pairs())
    def test_matches_the_old_route_on_finite_arrays(self, case):
        a, b, atol = case
        assert linalg.margin(a, b) == np.max(np.abs(a - b))
        assert linalg.within(a, b, atol) == np.allclose(a, b, atol=atol, rtol=0)

    def test_margin_is_nan_for_nan_or_equal_infinities(self):
        assert np.isnan(linalg.margin(np.array([1.0, np.nan]), np.array([1.0, 2.0])))
        assert np.isnan(linalg.margin(np.array([np.inf, 0.0]), np.array([np.inf, 0.0])))
        assert linalg.margin(np.array([np.inf]), np.array([0.0])) == np.inf
        assert not linalg.within(np.array([np.inf]), np.array([np.inf]), 1e300)

    def test_empty_arrays_are_within_any_tolerance(self):
        empty = np.zeros((0, 0))
        assert linalg.margin(empty, empty) == 0.0
        assert linalg.within(empty, empty, 0.0) == np.allclose(empty, empty, atol=0.0, rtol=0)
        assert linalg.is_unitary(empty)

    def test_haar_unitary(self):
        for d in (1, 2, 5):
            assert linalg.is_unitary(linalg.haar_random_unitary(d, d))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
    def test_non_square_is_not_unitary(self, shape):
        assert not linalg.is_unitary(np.ones(shape, dtype=complex))

    def test_perturbed_by_twice_the_tolerance(self):
        u = linalg.haar_random_unitary(4, 11)
        for atol in (1e-8, 1e-4):
            assert linalg.is_unitary(u * (1 + atol / 4), atol)
            # (1 + 2 atol)^2 - 1 > atol on the diagonal of U^dag U
            assert not linalg.is_unitary(u * (1 + 2 * atol), atol)
        assert not linalg.is_unitary(u * (1 + 2e-8))  # the default tolerance is 1e-8


def test_closeness_checks_go_through_linalg():
    """No tolerance check outside linalg repeats the closeness rule by hand.

    The one exception is the covariance symmetry check, whose comment says why: an
    overflowing covariance is symmetric with equal infinities, which np.allclose accepts.
    """
    allowed = {("gaussian.py", "if not np.allclose(cov, cov.T, atol=1e-10, rtol=0.0):")}
    found = set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if "allclose(" in line or "np.max(np.abs(" in line:
                found.add((path.name, line.strip()))
                if (path.name, line.strip()) in allowed:
                    assert lines[i - 1].strip().startswith("#"), f"{path.name}:{i + 1} lost its comment"
    assert found <= allowed, sorted(found - allowed)


#: The public parameters named like a tolerance or a setting knob, each with the reason it is settable.
SETTABLE_TOLERANCES = {
    ("linalg", "within", "atol"): "the closeness rule itself; its callers pass many tolerances",
    ("linalg", "is_unitary", "atol"): "a closeness primitive; tests pass 1e-8, 1e-4 and 1e300",
    ("linalg", "is_hermitian", "atol"): "a closeness primitive; the library passes 1e-8 and keeps 1e-10",
    ("histories", "is_consistent", "tol"): "tests compare it at 1e-8 and 1e-10 against the pairwise oracle",
    ("timecrystal", "flips_basis_state", "atol"): "a test sets 1e300 to show that a NaN is refused",
}


def test_only_the_closeness_primitives_take_a_tolerance():
    """Every other check fixes its tolerance as a literal at its one use."""
    knobs = {"atol", "tol", "slack", "quad_limit", "resolutions", "label"}
    found = set()
    for module_name in spacetimeq.__all__:
        module = importlib.import_module(f"spacetimeq.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, Exception)):
                found |= {(module_name, name, p) for p in inspect.signature(obj).parameters if p in knobs}
    assert found == set(SETTABLE_TOLERANCES), sorted(found ^ set(SETTABLE_TOLERANCES))


class TestHaar:
    def test_scalar_case(self):
        u = linalg.haar_random_unitary(1, 0)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitary(self):
        for seed in range(5):
            u = linalg.haar_random_unitary(4, seed)
            assert np.max(np.abs(dag(u) @ u - np.eye(4))) < 1e-12

    def test_deterministic(self):
        assert_allclose(linalg.haar_random_unitary(3, 42), linalg.haar_random_unitary(3, 42))

    def test_column_statistics(self):
        # Haar columns are uniform on the sphere: E|U_00|^2 = 1/d
        vals = [abs(linalg.haar_random_unitary(4, seed)[0, 0]) ** 2 for seed in range(10_000)]
        assert abs(np.mean(vals) - 0.25) < 0.01


class TestTraceNorm:
    def test_examples(self):
        assert abs(linalg.trace_norm(I2) - 2.0) < 1e-12
        assert abs(linalg.trace_norm(np.diag([1.0, -0.5, 0.5, 0.0])) - 2.0) < 1e-12
        assert abs(linalg.trace_norm(Z / 2) - 1.0) < 1e-12


class TestMaximallyEntangled:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_normalized_and_traces(self, n):
        phi = linalg.maximally_entangled_ket(n)
        assert abs(np.vdot(phi, phi) - 1.0) < 1e-14
        a = linalg.random_density_matrix(n, n) + 1j * np.eye(n)
        # <Phi| A (x) 1 |Phi> = Tr A / n
        assert abs(np.vdot(phi, linalg.tensor(a, np.eye(n)) @ phi) - np.trace(a) / n) < 1e-12

    def test_two_qubit_bell_state(self):
        assert_allclose(linalg.maximally_entangled_ket(2), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
