"""Gaussian states in space and in time.

Quadrature ordering is (q1, p1, ..., qN, pN). The covariance matrix
follows the doubled convention

    sigma_ij = 2 <{x_i, x_j}> - 2 <x_i><x_j>,

so the vacuum has sigma = I and a physical state obeys sigma + i Omega >= 0.
Spacetime Gaussian states are defined by the statistics of sequential
quadrature measurements (``quadrature_temporal_correlation``) and built in
closed form by ``temporal_gaussian``; their covariance may violate that
uncertainty relation, which is the temporal signature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spacetimeq import linalg

QUADS = ("q", "p")
#: The largest finite float, which bounds the covariance entries of thermal and squeezed states
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of an N-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a vector of even length")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean vector")
        # not linalg.within: an overflowing covariance, symmetric with equal infinities, must reach the CLI's payload guard
        if not np.allclose(cov, cov.T, atol=1e-10, rtol=0.0):
            raise ValueError("covariance matrix must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


class SpacetimeGaussian(GaussianState):
    """Gaussian moments gathered across time; uncertainty not required."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Omega = direct sum of [[0, 1], [-1, 0]] blocks."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def vacuum(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal(nbar: float) -> GaussianState:
    """One-mode thermal state with mean photon number nbar, cov = (2 nbar + 1) I."""
    if not 0.0 <= nbar <= _FLOAT_MAX / 4:  # also refuses NaN
        raise ValueError(f"mean photon number nbar must be in [0, {_FLOAT_MAX / 4:.3g}], got {nbar}")
    return GaussianState(np.zeros(2), (2 * nbar + 1) * np.eye(2))


def two_mode_squeezed(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with cosh/sinh(2r) covariance blocks."""
    if not abs(2 * r) <= np.log(_FLOAT_MAX):  # also refuses NaN
        raise ValueError(f"squeezing r must satisfy |r| <= {np.log(_FLOAT_MAX) / 2:.2f}, beyond which "
                         f"cosh(2r) overflows, got {r}")
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    cov = np.array(
        [
            [c, 0, s, 0],
            [0, c, 0, -s],
            [s, 0, c, 0],
            [0, -s, 0, c],
        ]
    )
    return GaussianState(np.zeros(4), cov)


def uncertainty_ok(cov: np.ndarray) -> bool:
    """True when sigma + i Omega >= 0 (up to -1e-9 on the lowest eigenvalue)."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0:
        raise ValueError("covariance must be square with even dimension")
    omega = symplectic_form(cov.shape[0] // 2)
    m = cov + 1j * omega
    return bool(np.linalg.eigvalsh(m).min() >= -1e-9)


def is_symplectic(s: np.ndarray) -> bool:
    """S Omega S^T = Omega within 1e-9."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0] // 2
    omega = symplectic_form(n)
    return linalg.within(s @ omega @ s.T, omega, 1e-9)


def rotation_symplectic(theta: float) -> np.ndarray:
    """One-mode phase-space rotation."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def squeeze_symplectic(r: float) -> np.ndarray:
    """One-mode squeezer, q -> e^-r q, p -> e^r p."""
    return np.diag([np.exp(-r), np.exp(r)])


def _quad_index(label: str) -> int:
    try:
        return QUADS.index(label)
    except ValueError:
        raise ValueError(f"quadrature label must be 'q' or 'p', got {label!r}") from None


def quadrature_temporal_correlation(
    initial: GaussianState,
    step: np.ndarray,
    first: str,
    second: str,
    resolution: float,
) -> float:
    """<{x_first(t1), x_second(t2)}> from a finite-resolution measurement cascade.

    The first quadrature is measured with a squeezed-state POVM whose
    outcome noise variance is 1/resolution; the conditioned Gaussian state
    evolves through the symplectic ``step`` and the second quadrature is
    measured the same way. Returned is the expectation of the product of
    the two outcomes. Zero-mean additive evolution noise never enters this
    cross moment, so only the symplectic part is needed here.
    """
    if initial.n_modes != 1:
        raise ValueError("the measurement cascade is defined for one mode")
    s = np.asarray(step, dtype=float)
    if s.shape != (2, 2) or not is_symplectic(s):
        raise ValueError("step must be a one-mode symplectic matrix")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    c1, c2 = _quad_index(first), _quad_index(second)
    gamma = initial.cov / 2.0  # ordinary second moments
    mu = initial.mean
    v_meas = 1.0 / resolution

    var_y1 = gamma[c1, c1] + v_meas
    gain = gamma[:, c1] / var_y1  # posterior-mean response to the outcome
    mean_shift = s @ gain
    e_y1y2 = mu[c1] * (s @ mu)[c2] + mean_shift[c2] * var_y1
    return float(e_y1y2)


def extrapolated_temporal_correlation(
    initial: GaussianState,
    step: np.ndarray,
    first: str,
    second: str,
) -> float:
    """Sharp-measurement limit via Richardson extrapolation in 1/resolution, from 1e2, 1e3 and 1e4."""
    rs = (1e2, 1e3, 1e4)
    hs = np.array([1.0 / r for r in rs])
    vals = np.array(
        [
            quadrature_temporal_correlation(initial, step, first, second, r)
            for r in rs
        ]
    )
    # polynomial extrapolation to h = 0 (Neville's scheme)
    for level in range(1, len(rs)):
        for i in range(len(rs) - level):
            vals[i] = vals[i + 1] + (vals[i + 1] - vals[i]) * hs[i + 1] / (
                hs[i] - hs[i + 1]
            )
    return float(vals[0])


def temporal_gaussian(
    initial: GaussianState,
    step: np.ndarray,
    noise: np.ndarray | None = None,
) -> SpacetimeGaussian:
    """Two-time spacetime Gaussian state of one mode, in closed form.

    Gamma = [[sigma_1, sigma_1 S^T], [S sigma_1, S sigma_1 S^T + Y]] with means (mu_1, S mu_1).
    The cross block is what the measurement cascade reads at every resolution: in
    ``quadrature_temporal_correlation`` the outcome gain 1/var_y1 cancels the factor var_y1, so
    its sharp limit needs no extrapolation. Zero-mean additive noise Y enters only the event-2 block,
    the covariance of the evolved marginal.
    """
    if initial.n_modes != 1:
        raise ValueError("temporal_gaussian handles a single mode at two times")
    s = np.asarray(step, dtype=float)
    if s.shape != (2, 2) or not is_symplectic(s):
        raise ValueError("step must be a one-mode symplectic matrix")
    y = np.zeros((2, 2)) if noise is None else np.asarray(noise, dtype=float)

    sig1 = initial.cov
    cross = sig1 @ s.T
    cov = np.block([[sig1, cross], [cross.T, s @ sig1 @ s.T + y]])
    cov = (cov + cov.T) / 2.0
    return SpacetimeGaussian(np.concatenate([initial.mean, s @ initial.mean]), cov)


def partial_transpose_gaussian(cov: np.ndarray, mode: int) -> np.ndarray:
    """Flip the sign of one mode's momentum rows and columns (q^T=q, p^T=-p)."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    if mode < 0 or mode >= n:
        raise IndexError(f"mode {mode} out of range for {n} modes")
    flip = np.ones(2 * n)
    flip[2 * mode + 1] = -1.0
    f = np.diag(flip)
    return f @ cov @ f


def characteristic_function(state: GaussianState, xi) -> complex:
    """chi(xi) = exp[-xi^T (Omega sigma Omega^T) xi / 4 - i (Omega d)^T xi]."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != state.mean.shape:
        raise ValueError("xi length must be twice the number of modes")
    omega = symplectic_form(state.n_modes)
    quad = xi @ (omega @ state.cov @ omega.T) @ xi
    lin = (omega @ state.mean) @ xi
    return complex(np.exp(-quad / 4.0 - 1j * lin))
