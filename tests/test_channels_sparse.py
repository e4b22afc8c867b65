"""The cached sparse superoperator of column-sparse Kraus families against the Kraus sum.

A family in which every column of every Kraus operator holds at most one nonzero entry is applied
by gathering and scattering the nonzeros of sum_k K_k (x) conj(K_k); the oracle here is the sum
sum_k K rho K^dag written out with dense products.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spacetimeq import channels, cv_wigner, linalg
from spacetimeq.channels import KrausChannel


def kraus_sum(ops, rho):
    out = np.zeros((ops[0].shape[0],) * 2, dtype=complex)
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


def column_sparse_family(kind, d_in, d_out, extra, rng):
    """A CPTP family of Kraus operators, each with at most one nonzero entry per column."""
    supports = []  # per operator: {column: row}
    if kind == "diagonal":
        supports = [dict(enumerate(range(d_in)))]
        supports += [{i: i for i in range(d_in) if rng.random() < 0.6} for _ in range(extra)]
    elif kind == "permutation":
        supports = [dict(enumerate(rng.permutation(d_in))) for _ in range(1 + extra)]
    elif kind == "single":  # rank one each: every column reaches one row, plus repeats
        cols = list(range(d_in)) + list(rng.integers(0, d_in, size=extra))
        supports = [{int(i): int(rng.integers(d_out))} for i in cols]
    elif kind == "partial":  # injective partial maps into d_out rows; after the first, rank-deficient
        for rep in range(1 + extra):
            cols = rng.permutation(d_in)
            for lo in range(0, d_in, d_out):
                chunk = cols[lo : lo + d_out]
                rows = rng.permutation(d_out)[: len(chunk)]
                keep = [rep == 0 or rng.random() < 0.6 for _ in chunk]
                supports.append({int(i): int(a) for i, a, kept in zip(chunk, rows, keep) if kept})
    ops = np.zeros((len(supports), d_out, d_in), dtype=complex)
    for k, support in enumerate(supports):
        for i, a in support.items():
            ops[k, a, i] = rng.normal() + 1j * rng.normal()
    # rows are distinct within each operator, so sum_k K^dag K is diagonal: normalize its columns
    ops /= np.sqrt(np.sum(np.abs(ops) ** 2, axis=(0, 1)))
    return list(ops)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["diagonal", "permutation", "single", "partial"]),
    d_in=st.integers(1, 6),
    d_out=st.integers(1, 6),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_superoperator_route_matches_the_kraus_sum(kind, d_in, d_out, extra, seed):
    rng = np.random.default_rng(seed)
    if kind in ("diagonal", "permutation"):
        d_out = d_in
    ops = column_sparse_family(kind, d_in, d_out, extra, rng)
    ch = KrausChannel(ops)
    assert ch._superop is not None
    # a non-Hermitian operator, so that a transposed or conjugated result shows
    rho = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    out = channels.apply(ch, rho)
    assert out.shape == (d_out, d_out)
    assert np.max(np.abs(out - kraus_sum(ch.operators, rho))) <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d_in=st.integers(1, 6), d_out=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_rows_shared_within_one_operator(d_in, d_out, seed):
    """K_m = |a_m><f_m| for a Haar basis f: every column of K_m lands in the same row a_m."""
    rng = np.random.default_rng(seed)
    f = linalg.haar_random_unitary(d_in, seed % 2**31)
    ops = [np.outer(np.eye(d_out)[rng.integers(d_out)], f[:, m].conj()) for m in range(d_in)]
    ch = KrausChannel(ops)
    assert ch._superop is not None
    rho = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    assert np.max(np.abs(channels.apply(ch, rho) - kraus_sum(ch.operators, rho))) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    d_in=st.integers(1, 5),
    d_out=st.integers(1, 5),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_dense_route_matches_the_kraus_sum(d_in, d_out, rank, seed):
    """The batched product (K rho K^dag).sum(axis=0) against the loop, on unit-trace states."""
    assume(d_out * rank >= d_in)  # a Stinespring isometry needs d_out r >= d_in
    iso = linalg.haar_random_unitary(d_out * rank, seed)[:, :d_in]
    ch = KrausChannel(iso.reshape(rank, d_out, d_in))
    assert ch._superop is None or d_out == 1  # a one-row operator has one entry per column
    rho = linalg.random_density_matrix(d_in, seed + 1)
    assert np.max(np.abs(channels.apply(ch, rho) - kraus_sum(ch.operators, rho))) <= 1e-14


def test_trace_check_on_both_routes():
    """The first family's sum_k K^dag K has a unit diagonal but ones off it: not trace preserving."""
    h = np.sqrt(0.5)
    with pytest.raises(ValueError):
        KrausChannel([[[h, h], [0, 0]], [[0, 0], [h, h]]])
    with pytest.raises(ValueError):
        KrausChannel([np.diag([1.0, 0.5])])
    with pytest.raises(ValueError):
        KrausChannel([0.9 * linalg.haar_random_unitary(3, 2)])


def vacuum(n):
    v = np.zeros((n, n), dtype=complex)
    v[0, 0] = 1.0
    return v


SPARSE = {
    "identity(2)": lambda: channels.identity_channel(2),
    "identity(40)": lambda: channels.identity_channel(40),
    "dephasing": lambda: channels.dephasing(0.3),
    "depolarizing": lambda: channels.depolarizing(0.4),
    "fock_phase_damping(40)": lambda: cv_wigner.fock_phase_damping(40),
    "discard_and_prepare(vacuum)": lambda: channels.discard_and_prepare(vacuum(40)),
}
DENSE = {
    "haar unitary": lambda: channels.unitary_channel(linalg.haar_random_unitary(3, 7)),
    "random_channel(rank 1)": lambda: channels.random_channel(2, 1, 6),
    "random_channel": lambda: channels.random_channel(3, 2, 5),
    "discard_and_prepare(plus)": lambda: channels.discard_and_prepare(np.full((2, 2), 0.5)),
}


@pytest.mark.parametrize("name", [*SPARSE, *DENSE])
def test_every_builder_holds_one_complex_array(name):
    ch = {**SPARSE, **DENSE}[name]()
    assert isinstance(ch.operators, np.ndarray) and ch.operators.dtype == complex
    assert ch.operators.ndim == 3 and ch.operators.shape[1:] == (ch.out_dim, ch.in_dim)


@pytest.mark.parametrize("name", SPARSE)
def test_column_sparse_constructors_take_the_superoperator_route(name):
    ch = SPARSE[name]()
    assert ch._superop is not None
    rng = np.random.default_rng(3)
    rho = rng.normal(size=(ch.in_dim,) * 2) + 1j * rng.normal(size=(ch.in_dim,) * 2)
    assert np.max(np.abs(channels.apply(ch, rho) - kraus_sum(ch.operators, rho))) <= 1e-15


@pytest.mark.parametrize("name", DENSE)
def test_dense_families_keep_the_kraus_sum(name):
    assert DENSE[name]()._superop is None


@pytest.mark.parametrize("name", ["fock_phase_damping(40)", "discard_and_prepare(vacuum)"])
def test_phase_space_channels_are_exact(name):
    """Unit weights: the gather and scatter copy entries, as the one-entry dense products do."""
    ch = SPARSE[name]()
    rng = np.random.default_rng(4)
    rho = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert np.array_equal(channels.apply(ch, rho), kraus_sum(ch.operators, rho))


def test_constructor_takes_an_array_or_a_sequence():
    ops = channels.depolarizing(0.3).operators
    from_list = KrausChannel(list(ops))
    assert np.array_equal(KrausChannel(ops).operators, from_list.operators)
    assert from_list.operators.shape == (4, 2, 2)


@pytest.mark.parametrize("operators, message", [
    ([], "at least one Kraus operator"),
    ([np.eye(2), np.eye(3)], "share one shape"),  # ragged
    ([np.eye(2)[0]], "share one shape"),  # a vector is not a matrix
])
def test_constructor_refusals(operators, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(operators)


def test_cache_stays_out_of_repr_equality_and_signature():
    ch = channels.dephasing(0.3)
    assert "_superop" not in repr(ch)
    assert list(inspect.signature(KrausChannel).parameters) == ["operators"]
    (cache,) = [f for f in dataclasses.fields(KrausChannel) if f.name == "_superop"]
    assert not (cache.init or cache.repr or cache.compare)
