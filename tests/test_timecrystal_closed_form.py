"""The closed-form Floquet unitary and the two state-vector routes against the routes they replaced.

The oracle unitary sums the dense H_2 from embedded Pauli operators and exponentiates it and the
single-site kick with ``expm``; the oracle series conjugates the density matrix with U_f each period
and takes Tr[sigma C] from the full product; the oracle of ``floquet_correlation_at`` is the generic
event cascade on U_f^n.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from spacetimeq import channels, linalg, timecrystal as tc
from spacetimeq.channels import KrausChannel
from spacetimeq.linalg import X, Z, dag
from spacetimeq.pdm import TemporalProcess, event_correlation


def expm_floquet_unitary(spec):
    L = spec.length
    j, hz, hx = spec.couplings()
    u1 = linalg.tensor(*([expm(-1j * spec.t1 * (spec.g - spec.epsilon) * X)] * L))
    h2 = np.zeros((2**L, 2**L), dtype=complex)
    for i in range(L - 1):
        h2 += j[i] * linalg.site_operator(Z, i, L) @ linalg.site_operator(Z, i + 1, L)
    for i in range(L):
        h2 += hz[i] * linalg.site_operator(Z, i, L) + hx[i] * linalg.site_operator(X, i, L)
    return expm(-1j * spec.t2 * h2) @ u1


def trace_loop_series(spec, site, n_periods, signs):
    rho = tc.basis_product_state(signs, spec.length)
    uf = tc.floquet_unitary(spec)
    sigma = linalg.site_operator(Z, site, spec.length)
    plus, minus = linalg.dichotomic_projectors(sigma)
    current = plus @ rho @ plus - minus @ rho @ minus
    vals = []
    for _ in range(n_periods + 1):
        vals.append(float(np.real(np.trace(sigma @ current))))
        current = uf @ current @ dag(uf)
    return vals


def cascade_correlation_at(spec, site, n_periods, signs):
    rho = tc.basis_product_state(signs, spec.length)
    u_total = np.linalg.matrix_power(tc.floquet_unitary(spec), n_periods)
    proc = TemporalProcess(rho, [KrausChannel([u_total])])
    sigma = linalg.site_operator(Z, site, spec.length)
    return event_correlation(proc, (sigma, sigma))


@st.composite
def chain_specs(draw, max_length=6):
    return tc.FloquetChainSpec(
        length=draw(st.integers(2, max_length)),
        epsilon=draw(st.floats(-0.5, 0.5)),
        hx=draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
        interactions=draw(st.booleans()),
        disorder_seed=draw(st.integers(0, 10_000)),
        t1=draw(st.floats(0.1, 2.0)),
        t2=draw(st.floats(0.1, 2.0)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=chain_specs())
def test_floquet_unitary_matches_expm(spec):
    assert np.max(np.abs(tc.floquet_unitary(spec) - expm_floquet_unitary(spec))) <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True)
@given(spec=chain_specs(max_length=5), data=st.data())
def test_series_matches_the_trace_loop(spec, data):
    site = data.draw(st.integers(0, spec.length - 1))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=spec.length, max_size=spec.length))
    n_periods = data.draw(st.integers(0, 24))
    got = tc.floquet_correlation_series(spec, site, n_periods, signs).values
    assert np.max(np.abs(np.array(got) - trace_loop_series(spec, site, n_periods, signs))) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=chain_specs(), data=st.data())
def test_correlation_at_matches_the_cascade(spec, data):
    site = data.draw(st.integers(0, spec.length - 1))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=spec.length, max_size=spec.length))
    k = data.draw(st.integers(1, 40))
    got = tc.floquet_correlation_at(spec, site, k, signs)
    assert abs(got - cascade_correlation_at(spec, site, k, signs)) <= 1e-12


def test_ten_site_series_matches_correlation_at():
    spec = tc.FloquetChainSpec(length=10, epsilon=0.07, disorder_seed=11)
    signs = [1, -1, -1, 1, 1, 1, -1, 1, -1, 1]
    series = tc.floquet_correlation_series(spec, 4, 24, signs)
    for k in (1, 13, 24):
        assert abs(series[k] - tc.floquet_correlation_at(spec, 4, k, signs)) <= 1e-12


def test_correlation_at_zero_periods_and_negative_counts():
    spec = tc.FloquetChainSpec(length=3, epsilon=0.2, hx=0.3)
    assert tc.floquet_correlation_at(spec, 1, 0, [1, -1, 1]) == 1.0
    with pytest.raises(ValueError):
        tc.floquet_correlation_at(spec, 1, -1)


@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_series_evolve_only_between_reads(monkeypatch, n):
    """A series of k values takes k - 1 evolutions: none after its last read."""
    counts = {"apply": 0, "_floquet_step": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(tc, "apply", counting("apply", tc.apply))
    monkeypatch.setattr(tc, "_floquet_step", counting("_floquet_step", tc._floquet_step))
    rho = linalg.random_density_matrix(2, n)
    assert len(tc.channel_decay_series(rho, channels.dephasing(0.4), 1, n)) == n
    assert counts["apply"] == max(n - 1, 0)
    assert len(tc.floquet_correlation_series(tc.FloquetChainSpec(length=3), 1, n)) == n + 1
    assert counts["_floquet_step"] == n
