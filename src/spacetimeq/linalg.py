"""Dense complex linear algebra and qubit/Pauli utilities.

Conventions used across the package:

* operators are complex numpy arrays in row-major order;
* subsystem index 0 is the leftmost tensor factor;
* each check fixes its own tolerance; only the closeness primitives take one:
  ``within``, ``is_unitary`` and ``is_hermitian`` below, and
  ``histories.is_consistent`` and ``timecrystal.flips_basis_state``;
* ``margin``, ``within`` and ``is_unitary`` are the one closeness rule: a
  tolerance check is max |a - b| <= atol, and a NaN or infinite entry fails it.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Pauli basis indexed 0..3 as (I, X, Y, Z).
PAULIS = (I2, X, Y, Z)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack (the last two axes)."""
    return np.conj(np.swapaxes(m, -1, -2))


def ket(vec) -> np.ndarray:
    """Normalize a sequence into a unit column state vector (1-d array)."""
    v = np.asarray(vec, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def projector(vec) -> np.ndarray:
    """Rank-1 projector |v><v| for a (not necessarily normalized) vector."""
    v = ket(vec)
    return np.outer(v, v.conj())


def maximally_entangled_ket(n: int) -> np.ndarray:
    """Normalized |Phi> = sum_i |i>|i> / sqrt(n) on C^n (x) C^n."""
    return np.eye(n, dtype=complex).ravel() / np.sqrt(n)


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators (or vectors)."""
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def check_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    """Validate that the subsystem dimensions multiply to the matrix size."""
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"dims {dims} inconsistent with matrix shape {m.shape}")
    return dims


def partial_trace(m: np.ndarray, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``keep`` is an index or iterable of indices into ``dims`` (factor 0 is
    the leftmost). The kept factors stay in their original order.
    """
    dims = check_dims(m, dims)
    keep = [int(keep)] if np.isscalar(keep) else sorted(int(k) for k in keep)
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise IndexError(f"keep indices {keep} out of range for {n} factors")
    # one contraction: a traced factor carries one label for its row and column axes
    rows = list(range(n))
    cols = [n + k if k in keep else k for k in range(n)]
    out = np.einsum(m.reshape(dims + dims), rows + cols, keep + [n + k for k in keep])
    d_keep = math.prod(dims[k] for k in keep)
    return out.reshape(d_keep, d_keep)


def partial_transpose(m: np.ndarray, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose a single tensor factor, leaving the others untouched."""
    dims = check_dims(m, dims)
    n = len(dims)
    if subsystem < 0 or subsystem >= n:
        raise IndexError(f"subsystem {subsystem} out of range for {n} factors")
    t = m.reshape(dims + dims)
    t = np.swapaxes(t, subsystem, subsystem + n)
    d = int(np.prod(dims))
    return t.reshape(d, d)


def margin(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, the distance every tolerance check compares with its atol.

    NaN when an entry is NaN or infinite on both sides (inf - inf is a NaN); 0 for empty arrays.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.abs(np.subtract(a, b)).max(initial=0.0))


def within(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """margin(a, b) <= atol: np.allclose(a, b, atol=atol, rtol=0), except that a NaN or inf fails."""
    return bool(margin(a, b) <= atol)


def is_unitary(u: np.ndarray, atol: float = 1e-8) -> bool:
    """U^dag U = 1 within ``atol``; False for a non-square matrix or a NaN or infinite entry."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 makes a NaN, which within() refuses
        gram = dag(u) @ u
    return within(gram, np.eye(u.shape[0]), atol)


def is_hermitian(m: np.ndarray, atol: float = ATOL) -> bool:
    return within(m, dag(m), atol)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Raises ValueError when the input is not Hermitian within ``ATOL`` = 1e-10.
    """
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.sort(np.linalg.eigvalsh(m))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic for a given seed.

    QR of a complex Gaussian matrix with the R diagonal phase-corrected,
    which makes the distribution exactly Haar.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_random_state(d: int, seed: int) -> np.ndarray:
    """Haar-random pure state vector of dimension d."""
    return haar_random_unitary(d, seed)[:, 0]


def random_density_matrix(d: int, seed: int) -> np.ndarray:
    """Full-rank random density matrix (Hilbert-Schmidt-ish ensemble)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ dag(g)
    return rho / np.trace(rho).real


def pauli_string_matrix(indices: Iterable[int]) -> np.ndarray:
    """Tensor product of single-qubit Paulis, index 0..3 = (I, X, Y, Z)."""
    idx = list(indices)
    if not idx:
        raise ValueError("empty Pauli string")
    if any(i not in (0, 1, 2, 3) for i in idx):
        raise ValueError(f"Pauli indices must be in 0..3, got {idx}")
    return tensor(*(PAULIS[i] for i in idx))


def site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-qubit operator at ``site`` of an n-qubit register."""
    if site < 0 or site >= n_sites:
        raise IndexError(f"site {site} out of range for {n_sites} qubits")
    ops = [I2] * n_sites
    ops[site] = op
    return tensor(*ops)


def checked_initial_state(rho) -> np.ndarray:
    """``rho`` as a complex array, once it is a square, unit-trace, Hermitian, positive semi-definite matrix.

    Each check holds within 1e-8.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("initial state must be a square matrix")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise ValueError("initial state must have unit trace")
    if not is_hermitian(rho, atol=1e-8):
        raise ValueError("initial state must be Hermitian")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise ValueError("initial state must be positive semi-definite")
    return rho


def require_involution(obs: np.ndarray) -> None:
    """Raise ValueError unless O^2 = 1 within 1e-8, as a +/-1-valued observable must."""
    with np.errstate(invalid="ignore"):  # inf * 0 makes a NaN, which within() refuses
        square = obs @ obs
    if not within(square, np.eye(obs.shape[0]), 1e-8):
        raise ValueError("observable does not square to the identity")


def dichotomic_projectors(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (P+, P-) = (1 +/- O)/2 for an observable with O^2 = 1."""
    require_involution(obs)
    eye = np.eye(obs.shape[0], dtype=complex)
    return (eye + obs) / 2.0, (eye - obs) / 2.0
