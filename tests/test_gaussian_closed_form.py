"""The closed-form two-time Gaussian state against the measurement cascade it replaced.

The oracle fills the cross block entry by entry from ``extrapolated_temporal_correlation``, the
Richardson-extrapolated quadrature cascade, exactly as ``temporal_gaussian`` used to.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spacetimeq import gaussian as g


def cascade_cross_block(initial, step):
    mu1, mu2 = initial.mean, step @ initial.mean
    return np.array([[2.0 * g.extrapolated_temporal_correlation(initial, step, a, b) - 2.0 * mu1[i] * mu2[j]
                      for j, b in enumerate(g.QUADS)] for i, a in enumerate(g.QUADS)])


def symplectic_steps():
    factor = st.tuples(st.floats(0.0, 2 * np.pi), st.floats(-1.0, 1.0)).map(
        lambda tr: g.rotation_symplectic(tr[0]) @ g.squeeze_symplectic(tr[1]))
    return st.lists(factor, min_size=1, max_size=3).map(lambda fs: np.linalg.multi_dot([np.eye(2), *fs]))


@st.composite
def one_mode_states(draw):
    """A thermal state, squeezed, rotated and displaced."""
    cov = g.thermal(draw(st.floats(0.0, 5.0))).cov
    s = g.rotation_symplectic(draw(st.floats(0.0, 2 * np.pi))) @ g.squeeze_symplectic(draw(st.floats(-1.0, 1.0)))
    mean = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    cov = s @ cov @ s.T
    return g.GaussianState(np.array(mean), (cov + cov.T) / 2.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(initial=one_mode_states(), step=symplectic_steps(),
       a=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_closed_form_matches_the_cascade(initial, step, a):
    noise = np.reshape(a, (2, 2)) @ np.reshape(a, (2, 2)).T  # positive semidefinite
    state = g.temporal_gaussian(initial, step, noise=noise)
    cross = cascade_cross_block(initial, step)
    mu2 = step @ initial.mean
    # the cascade reads raw second moments, whose size is the covariance plus the means' product
    tol = 1e-12 * (np.max(np.abs(state.cov)) + np.max(np.abs(initial.mean)) * np.max(np.abs(mu2)))
    assert np.max(np.abs(state.cov[:2, 2:] - cross)) <= tol  # the noise does not reach the cross block
    assert np.max(np.abs(state.cov[2:, :2] - cross.T)) <= tol
    assert np.array_equal(state.cov[:2, :2], initial.cov)
    assert np.max(np.abs(state.cov[2:, 2:] - (step @ initial.cov @ step.T + noise))) <= tol
    assert np.array_equal(state.mean, np.concatenate([initial.mean, mu2]))


@pytest.mark.parametrize("labels", [("q", "q"), ("q", "p"), ("p", "q"), ("p", "p")])
def test_cascade_does_not_depend_on_the_resolution(labels):
    initial = g.GaussianState(np.array([0.7, -1.2]), g.squeeze_symplectic(0.5) @ g.thermal(1.3).cov
                              @ g.squeeze_symplectic(0.5).T)
    step = g.rotation_symplectic(0.9) @ g.squeeze_symplectic(-0.3)
    values = [g.quadrature_temporal_correlation(initial, step, *labels, resolution=r) for r in (1e2, 1e4, 1e8)]
    assert max(values) - min(values) <= 1e-14 * max(1.0, max(map(abs, values)))


def test_closed_form_runs_no_cascade(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("cascade started")

    monkeypatch.setattr(g, "quadrature_temporal_correlation", never)
    monkeypatch.setattr(g, "extrapolated_temporal_correlation", never)
    state = g.temporal_gaussian(g.thermal(1.5), g.rotation_symplectic(0.4))
    assert np.allclose(state.cov[:2, 2:], 4.0 * g.rotation_symplectic(0.4).T, atol=1e-15, rtol=0.0)
