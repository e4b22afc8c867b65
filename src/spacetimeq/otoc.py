"""Out-of-time-order correlators and two related toy calculations.

The OTOC <V W(t) V^dag W^dag(t)> is evaluated directly, and through its
representation as a forward-backward temporal correlation: evolving once
forward and once back past a projective event reproduces the four-point
function at half the number of evolution legs. Also here: the
black-hole-evaporation final-state projection toy model and the harmonic
oscillator two-point correlations in their two inequivalent conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spacetimeq import linalg
from spacetimeq.linalg import dag


@dataclass(frozen=True)
class OtocSpec:
    v: np.ndarray
    w: np.ndarray
    u: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if not linalg.is_unitary(u):
            raise ValueError("u must be unitary")
        rho = np.asarray(self.rho, dtype=complex)
        if abs(np.trace(rho) - 1.0) > 1e-8:
            raise ValueError("rho must have unit trace")


def otoc_direct(spec: OtocSpec) -> complex:
    """Tr[rho V U^dag W U V^dag U^dag W^dag U]."""
    v = np.asarray(spec.v, dtype=complex)
    w = np.asarray(spec.w, dtype=complex)
    u = np.asarray(spec.u, dtype=complex)
    rho = np.asarray(spec.rho, dtype=complex)
    wt = dag(u) @ w @ u
    return complex(np.trace(rho @ v @ wt @ dag(v) @ dag(wt)))


def otoc_via_pdm(a: np.ndarray, b: np.ndarray, u: np.ndarray, rho: np.ndarray) -> complex:
    """Forward-backward three-event evaluation, Tr[A U^d B U A rho A^d U^d B^d U A^d].

    Requires A A^dag = A (an orthogonal projector) and rho maximally mixed
    for the value to coincide with the direct OTOC with V = A, W = B; both
    preconditions are enforced. U and U^dag each enter once.
    """
    a = np.asarray(a, dtype=complex)
    u = np.asarray(u, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or any(m.shape != a.shape for m in (b, u, rho)):
        raise ValueError(f"A, B, U and rho must be square matrices of one size, got shapes "
                         f"{a.shape}, {b.shape}, {u.shape} and {rho.shape}")
    d = a.shape[0]
    if not linalg.within(a @ dag(a), a, 1e-10):
        raise ValueError("A must satisfy A A^dag = A (projector)")
    if not linalg.within(rho, np.eye(d) / d, 1e-10):
        raise ValueError("the reduction to the OTOC needs the maximally mixed state")
    bt = dag(u) @ b @ u  # single forward-backward leg
    return complex(np.trace(a @ bt @ a @ rho @ dag(a) @ dag(bt) @ dag(a)))


def haar_averaged_otoc(v, w, d: int, samples: int, seed: int) -> complex:
    """Monte-Carlo Haar average of the OTOC on the maximally mixed state."""
    rho = np.eye(d, dtype=complex) / d
    total = 0.0 + 0.0j
    for k in range(samples):
        u = linalg.haar_random_unitary(d, seed + k)
        total += otoc_direct(OtocSpec(v=v, w=w, u=u, rho=rho))
    return total / samples


# -- black hole final-state projection ----------------------------------------


def _final_state_bra(s: np.ndarray) -> np.ndarray:
    """Coefficients of the normalized final-state bra on (matter, in).

    The bra is (1/sqrt N) sum_{mi} S_{im} <m| <i|; note the matrix elements
    enter unconjugated, so as an array over (m, i) this is S^T / sqrt(N).
    """
    n = s.shape[0]
    return s.T / np.sqrt(n)


def final_state_conditional_output(psi, s=None, seed: int | None = None):
    """Evaporation toy model: conditional state after the final projection.

    The matter state |psi> rides along the entangled (in, out) pair and the
    (matter, in) factor is projected onto the entangled state twisted by S.
    Under the properly normalized projector the postselection succeeds with
    probability 1/N^2 regardless of psi and S, and the surviving out factor
    is exactly S|psi>.

    Returns ``(probability, conditional_out_state)``. When ``s`` is None a
    Haar-random unitary drawn from ``seed`` is used.
    """
    psi = linalg.ket(psi)
    n = psi.size
    if s is None:
        if seed is None:
            raise ValueError("provide a unitary or a seed to draw one")
        s = linalg.haar_random_unitary(n, seed)
    s = np.asarray(s, dtype=complex)
    if s.shape != (n, n) or not linalg.is_unitary(s):
        raise ValueError("s must be unitary")

    state = linalg.tensor(psi, linalg.maximally_entangled_ket(n))  # M (x) in (x) out
    amp = np.tensordot(
        _final_state_bra(s), state.reshape(n, n, n), axes=([0, 1], [0, 1])
    )
    prob = float(np.real(np.vdot(amp, amp)))
    if prob <= 0:
        raise ValueError("projection annihilated the state")
    return prob, amp / np.sqrt(prob)


def final_state_otoc_probability(psi, s, probe_out=None) -> float:
    """OTOC-style branch probability of the final-state circuit.

    Evaluates || P_hat U A |Psi> ||^2 with |Psi> = |psi>_M (x) |Phi>,
    U = S^dag on the matter factor, P_hat the normalized final-state
    projection on (matter, in), and A an optional probe on the out factor.
    A commutes with both U and the projection, so inserting a projector
    probe onto the conditional out state leaves the probability at the bare
    value 1/N^2.
    """
    psi = linalg.ket(psi)
    n = psi.size
    s = np.asarray(s, dtype=complex)
    state = linalg.tensor(psi, linalg.maximally_entangled_ket(n)).reshape(n, n, n)
    if probe_out is not None:
        probe = np.asarray(probe_out, dtype=complex)
        state = np.einsum("mio,po->mip", state, probe, optimize=True)
    evolved = np.einsum("nm,mio->nio", dag(s), state, optimize=True)
    amp = np.tensordot(_final_state_bra(s), evolved, axes=([0, 1], [0, 1]))
    return float(np.real(np.vdot(amp, amp)))


# -- harmonic oscillator two-point correlations --------------------------------


def harmonic_pdm_correlation(m: float, omega: float, tau: float) -> float:
    """Sequential-measurement convention: 1 / (8 m omega sinh^2(omega tau)).

    This is half the raw second moment of the squared Euclidean kernel (see
    ``harmonic_kernel_moment``); the factor 1/2 is the symmetrized-product
    convention for the outcome correlation, kept as the documented global
    constant of this pair of functions.
    """
    _check_positive(m=m, omega=omega, tau=tau)
    return 1.0 / (8.0 * m * omega * np.sinh(omega * tau) ** 2)


def harmonic_pi_correlation(omega: float, tau: float) -> float:
    """Generating-functional convention: 1 / (2 omega tanh(omega tau / 2))."""
    _check_positive(omega=omega, tau=tau)
    return 1.0 / (2.0 * omega * np.tanh(omega * tau / 2.0))


def harmonic_kernel_moment(m: float, omega: float, tau: float, quad_limit: float | None = None) -> float:
    """Numerical integral q1 q2 |<q2|U|q1>|^2 dq1 dq2 for the Euclidean kernel.

    The squared kernel is an unnormalized Gaussian of finite total mass
    1/(2 sinh(omega tau)); the moment is taken against that raw measure.
    Serves as the independent quadrature oracle for
    ``harmonic_pdm_correlation`` (closed form = moment / 2).
    """
    from scipy import integrate  # imported here so that importing the package loads no scipy

    _check_positive(m=m, omega=omega, tau=tau)
    s = np.sinh(omega * tau)
    c = np.cosh(omega * tau)
    pref = m * omega / (2.0 * np.pi * s)

    def integrand(q2, q1):
        expo = -(m * omega / s) * ((q1 * q1 + q2 * q2) * c - 2.0 * q1 * q2)
        return q1 * q2 * pref * np.exp(expo)

    if quad_limit is None:
        # scale of the Gaussian: variances ~ s / (2 m omega (c - 1)) at worst
        quad_limit = 12.0 * np.sqrt(s / (m * omega * max(c - 1.0, 1e-12)) + 1.0)
    val, _ = integrate.dblquad(
        integrand, -quad_limit, quad_limit, -quad_limit, quad_limit,
        epsabs=1e-12, epsrel=1e-10,
    )
    return float(val)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
