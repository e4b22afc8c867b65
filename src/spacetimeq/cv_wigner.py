"""Spacetime Wigner functions from displaced-parity measurements.

Works on a truncated Fock space. The observable T(alpha) is twice the
displaced parity U(alpha) = D(alpha) (-1)^n D(alpha)^dag; its expectation is
the Wigner function value at alpha (Royer, PRA 15, 449 (1977)). Across two
times the value is built from the projective measurement of the parity sign
at t1, channel evolution, and a second parity readout at t2.

Every displaced parity comes from one real eigendecomposition per cutoff.
With Q = diag(i^n), Q^dag G Q = a + a^dag for the generator G = i(a^dag - a):
a real Jacobi matrix with sqrt(n) on both off-diagonals, W Lambda W^T with W
real orthogonal, so that G = V Lambda V^dag with V = QW. With
R(theta) = e^{i theta n}, D(r e^{i theta}) = R(theta) D(r) R(theta)^dag holds
exactly on the truncated space, and D(r) = V e^{-i r Lambda} V^dag, so

    D(r e^{i theta}) = diag(c) W e^{-i r Lambda} W^T diag(c*),   c_n = (i e^{i theta})^n.

W times a complex matrix is one real matrix product over its interleaved real
and imaginary parts. G couples n only to n +/- 1, so Pi G Pi = -G with
Pi = (-1)^n, and D(alpha)^dag = D(-alpha) holds exactly as well; hence
D(alpha) Pi D(alpha)^dag = D(alpha) D(alpha) Pi = D(2 alpha) Pi, one matrix
product. So U is exactly Hermitian and unitary, its parity projectors are
(1 -/+ U)/2 (odd, even), and the signed post-measurement state
Pi_even rho Pi_even - Pi_odd rho Pi_odd is (U rho + rho U)/2.

Truncation notes: the displacement is the exponential of the truncated
generator, accurate for |alpha|^2 well below n_max. The trace of the
truncated T(0) oscillates with n_max (0 for even, 2 for odd cutoffs) instead
of converging to 1; that artifact only matters for diagnostics, never for
the smoothed integrals below.
"""

from __future__ import annotations

import functools

import numpy as np

from spacetimeq.channels import KrausChannel, apply

#: Entries per block of radii times Fock levels in the grid sum of ``wigner_normalization_check``
#: (64 KiB per complex block array), so that its memory does not grow with the grid
GRID_BLOCK_ENTRIES = 1 << 12


def annihilation(n_max: int) -> np.ndarray:
    """Truncated annihilation operator on n_max Fock levels."""
    a = np.zeros((n_max, n_max), dtype=complex)
    for n in range(1, n_max):
        a[n - 1, n] = np.sqrt(n)
    return a


@functools.lru_cache(maxsize=8)
def _generator_spectrum(n_max: int) -> tuple[np.ndarray, ...]:
    """(lambda, W, pairs, distance, products) of one cutoff, read-only.

    W diag(lambda) W^T = a + a^dag = Q^dag i(a^dag - a) Q with Q = diag(i^n), W real orthogonal
    and Fortran-ordered, so that W^T is C-contiguous. ``pairs`` are the flat indices m n_max + n
    of the entries with m = n (mod 4), ``distance`` their |m - n| / 4, and ``products[p, j]`` is
    W_mj W_nj: the grid parity sum's terms, which depend on the cutoff alone.
    """
    a = annihilation(n_max).real
    lam, w = np.linalg.eigh(a + a.T)
    w = np.asfortranarray(w)
    rows, cols = np.nonzero((np.arange(n_max)[:, None] - np.arange(n_max)) % 4 == 0)
    kernel = (lam, w, rows * n_max + cols, np.abs(rows - cols) // 4, w[rows] * w[cols])
    for array in kernel:
        array.flags.writeable = False
    return kernel


def _parity_signs(n_max: int) -> np.ndarray:
    """The diagonal (-1)^n of the parity."""
    return (-1.0) ** np.arange(n_max)


def _rotated_exponential(alpha: complex, n_max: int, column) -> np.ndarray:
    """diag(c) W e^{-i |alpha| Lambda} W^T diag(c* column), c_n = (i e^{i arg alpha})^n.

    The phases and the column weights are folded into the right factor X, so that W X is one
    real matrix product over X's interleaved real and imaginary parts.
    """
    lam, w = _generator_spectrum(n_max)[:2]
    c = np.exp(1j * (np.angle(alpha) + np.pi / 2.0) * np.arange(n_max))
    x = w.T * np.exp(-1j * abs(alpha) * lam)[:, None]  # C-contiguous, as the real view needs
    x *= c.conj() * column
    product = (w @ x.view(float)).view(complex)
    product *= c[:, None]
    return product


def _parity_unitary(alpha: complex, n_max: int) -> np.ndarray:
    """U(alpha) = D(alpha) (-1)^n D(alpha)^dag = D(2 alpha) (-1)^n, Hermitian and unitary."""
    if n_max < 2:
        raise ValueError("need at least two Fock levels")
    return _rotated_exponential(2 * alpha, n_max, _parity_signs(n_max))


def displacement(alpha: complex, n_max: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space (see the module docstring)."""
    return _rotated_exponential(alpha, n_max, 1.0)


def parity(n_max: int) -> np.ndarray:
    """(-1)^{a^dag a}."""
    return np.diag(_parity_signs(n_max)).astype(complex)


def displaced_parity(alpha: complex, n_max: int) -> np.ndarray:
    """T(alpha) = 2 D(alpha) (-1)^n D(alpha)^dag, Hermitian with eigenvalues +/-2."""
    return 2.0 * _parity_unitary(alpha, n_max)


def parity_projectors(alpha: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors (odd, even) of the displaced parity at alpha: (1 -/+ U(alpha))/2."""
    u, one = _parity_unitary(alpha, n_max), np.eye(n_max)
    return (one - u) / 2.0, (one + u) / 2.0


def _trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr[A B] as one contraction, without forming the product."""
    return np.einsum("ij,ji->", a, b)


def _mode_state(rho, n_max: int) -> np.ndarray:
    """``rho`` as a complex array, once it is n_max x n_max."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n_max, n_max):
        raise ValueError("state dimension does not match n_max")
    return rho


def _spacetime_wigner_complex(rho, ch: KrausChannel, alpha, beta, n_max: int) -> complex:
    rho = _mode_state(rho, n_max)
    u_alpha = _parity_unitary(alpha, n_max)
    # twice the signed state: 4 Tr[U E(X/2)] = 2 Tr[U E(X)] exactly
    signed = apply(ch, u_alpha @ rho + rho @ u_alpha)
    return 2.0 * _trace_product(_parity_unitary(beta, n_max), signed)


def spacetime_wigner_point(rho, ch: KrausChannel, alpha, beta, n_max: int) -> float:
    """Two-time Wigner value W(alpha, beta) for initial state rho and channel ch.

    W = 2 sum_i (-1)^i Tr{ T(beta) E[ Pi_i(alpha) rho Pi_i(alpha) ] } with
    Pi_1/Pi_2 the odd/even displaced-parity projectors. The result is real;
    a large imaginary residue signals invalid (non-Hermitian) inputs.
    """
    val = _spacetime_wigner_complex(rho, ch, alpha, beta, n_max)
    if abs(val.imag) > 1e-6 * max(1.0, abs(val.real)):
        raise ValueError("Wigner value came out complex; check that inputs are Hermitian")
    return float(val.real)


def spatial_wigner_point(rho12, alpha, beta, n_max: int) -> float:
    """Two-mode Wigner value Tr[(T(alpha) (x) T(beta)) rho12]."""
    rho12 = np.asarray(rho12, dtype=complex)
    if rho12.shape != (n_max * n_max, n_max * n_max):
        raise ValueError("two-mode state dimension does not match n_max")
    # sum_ijkl T(alpha)_ij T(beta)_kl <jl|rho12|ik>, without forming the n_max^2 x n_max^2 product
    value = np.einsum("ij,kl,jlik->", displaced_parity(alpha, n_max), displaced_parity(beta, n_max),
                      rho12.reshape((n_max,) * 4))
    return float(np.real(value))


def _grid_parity_sum(radius: float, points: int, n_max: int) -> np.ndarray:
    """S = sum of U(alpha) cell / pi over the midpoint grid of the square, masked to the disc.

    Cell centres sit at odd (even points) or even (odd points) multiples k of half a cell
    h/2, so cells share a radius exactly when they share kx^2 + ky^2, and the disc is
    kx^2 + ky^2 <= points^2 (never an equality). Within a radius r, U differs only by
    R(theta), which multiplies entry (m, n) of D(2 alpha) by e^{i theta (m - n)}; the
    angles of a radius sum to one phase c_r(d) per offset d = |m - n|, real because the
    grid is symmetric under theta -> -theta. The grid is also invariant under quarter
    turns, which multiply the phase by i^d, so c_r(d) = 0 unless 4 divides d (the centre
    cell of an odd grid has no angle, but D(0) = 1 has no off-diagonal entries): only the
    entries m = n (mod 4) are nonzero. For such d, cos(d theta) is invariant under the
    whole dihedral symmetry of the grid, so only the octant 0 <= ky <= kx is enumerated,
    each cell weighted by its orbit: 8 inside, 4 on the diagonal or the axis, 1 at the
    centre. With D(2r) = V e^{-2i r Lambda} V^dag and V_mj V*_nj = i^{m - n} W_mj W_nj,
    where i^{m - n} = 1 on those entries,

        S_mn = sum_j W_mj W_nj F_{|m - n| / 4}(j),   F_k(j) = sum_r c_r(4k) e^{-2i r lambda_j},

    so the radii meet in one product C^T E per block of radii, every same-residue pair in
    one contraction with the cutoff's cached products W_mj W_nj, and the parity's column
    signs are applied once to the sum.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    k = np.arange((points - 1) % 2, points, 2)  # the non-negative half-cell multiples
    square = (k * k)[:, None] + k * k
    ix, iy = np.nonzero((square <= points * points) & (k <= k[:, None]))  # the octant in the disc
    key = square[ix, iy]
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    kx, ky = k[ix[order]], k[iy[order]]
    theta = np.arctan2(ky, kx)
    weight = np.where(kx == 0, 1.0, np.where((ky == 0) | (ky == kx), 4.0, 8.0))
    h = 2.0 * radius / points
    radii = 0.5 * h * np.sqrt(keys)

    lam, _, pairs, distance, products = _generator_spectrum(n_max)
    offsets = np.arange(0, n_max, 4)
    bounds = np.append(starts, len(order))
    f = np.zeros((len(offsets), n_max), dtype=complex)
    block = max(1, GRID_BLOCK_ENTRIES // n_max)
    for lo in range(0, len(keys), block):
        hi = min(lo + block, len(keys))
        cells = slice(bounds[lo], bounds[hi])
        cosines = weight[cells, None] * np.cos(np.outer(theta[cells], offsets))
        phases = np.add.reduceat(cosines, starts[lo:hi] - starts[lo], axis=0)
        f += phases.T @ np.exp(-2j * np.outer(radii[lo:hi], lam))
    total = np.zeros(n_max * n_max, dtype=complex)
    total[pairs] = np.einsum("pj,pj->p", products, f[distance])
    return total.reshape(n_max, n_max) * (_parity_signs(n_max) * (h * h / np.pi))


def wigner_normalization_check(
    rho,
    ch: KrausChannel,
    radius: float = 4.0,
    points: int = 64,
    n_max: int = 40,
) -> float:
    """Midpoint-rule value of  integral W(alpha,beta) d2a d2b / pi^2.

    The double phase-space sum factorizes exactly through the trace and the
    linearity of the channel: with S = sum_alpha U(alpha) cell / pi, the
    value is 4 Tr[S E((S rho + rho S)/2)] = 2 Tr[S E(S rho + rho S)]. Expected close to 1 for
    trace-preserving evolution.

    Pick the radius so the state's tail mass beyond it is negligible while
    radius^2 stays a few standard deviations below n_max; beyond that the
    truncated displacement pollutes the readout operator.
    """
    rho = _mode_state(rho, n_max)
    s = _grid_parity_sum(radius, points, n_max)
    value = 2.0 * _trace_product(s, apply(ch, s @ rho + rho @ s))
    return float(np.real(value))


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent state vector from the truncated displacement of the vacuum."""
    vac = np.zeros(n_max, dtype=complex)
    vac[0] = 1.0
    return displacement(alpha, n_max) @ vac


def fock_phase_damping(n_max: int) -> KrausChannel:
    """Full phase damping: keeps Fock populations, kills all coherences."""
    eye = np.eye(n_max, dtype=complex)
    return KrausChannel(eye[:, :, None] * eye[:, None, :])  # K_n = |n><n|


def cascade_monte_carlo(
    rho, ch: KrausChannel, alpha, beta, n_max: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of W(alpha, beta) from the measurement cascade.

    Samples the +/-2 parity outcome at t1, collapses, evolves, samples the
    +/-2 outcome at t2, and averages the product. Returns (mean, standard
    error of the mean).
    """
    rho = np.asarray(rho, dtype=complex)
    sig_even = parity_projectors(beta, n_max)[1]
    p_first, p_even_next = [], []  # per t1 outcome (-2, +2): its probability, P(+2 at t2 | it)
    for proj in parity_projectors(alpha, n_max):
        collapsed = proj @ rho @ proj
        prob = max(np.trace(collapsed).real, 0.0)
        p_first.append(prob)
        p_even_next.append(np.trace(sig_even @ apply(ch, collapsed / prob)).real if prob > 0 else 0.0)
    draws = np.random.default_rng(seed).random((samples, 2))
    first_even = draws[:, 0] < p_first[1]
    second_even = draws[:, 1] < np.where(first_even, p_even_next[1], p_even_next[0])
    outcomes = np.where(first_even == second_even, 4.0, -4.0)
    return float(outcomes.mean()), float(outcomes.std(ddof=1) / np.sqrt(samples))
