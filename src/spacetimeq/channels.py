"""Quantum channels as Kraus families and their Choi matrices.

A channel holds its r Kraus operators as one complex (r, d_out, d_in) array.
``apply`` takes one of two routes, chosen once from the operators when the
channel is built. When every column of every Kraus operator holds at most one
nonzero entry (diagonal, permutation-times-diagonal and single-entry families,
such as dephasing, depolarizing, phase damping and discard-and-prepare of a
basis state), K_k sends |i> to c_i |a_i>, and the superoperator
S = sum_k K_k (x) conj(K_k) has one nonzero c_i conj(c_j) from entry (i, j) to
entry (a_i, a_j) per ordered pair of nonzeros of one operator. Those nonzeros
are cached, and ``apply`` gathers and scatters them in O(sum_k nnz(K_k)^2)
instead of 2 r d^3 for the dense products. Every other family (Haar unitaries,
random channels, preparation of a non-basis state) takes the Kraus sum
``sum_k K rho K^dag`` as one batched product summed over the first axis.

Choi convention: the unnormalized maximally entangled vector
``|I>> = sum_n |n>|n>`` with the *output* factor first, so the Choi matrix
of a map E from dimension d0 to d1 is

    M = sum_{ij} E(|i><j|) (x) |i><j|   on  H_out (x) H_in,

trace preservation reads ``Tr_out M = I_in`` and the inverse map is
``E(X) = Tr_in[(I (x) X^T) M]``. This output-first convention holds for every
channel here; process matrices put the input factor first
(``process_matrix.maxent_choi``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spacetimeq import linalg
from spacetimeq.linalg import I2, X, Y, Z, dag


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map held as one (r, out_dim, in_dim) stack of Kraus operators, complete within 1e-8."""

    operators: np.ndarray
    in_dim: int = field(init=False)
    out_dim: int = field(init=False)
    # nonzeros of the superoperator of a column-sparse family (see _sparse_superoperator), else None
    _superop: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, compare=False
    )

    def __init__(self, operators):
        """Take the (r, out_dim, in_dim) array, or any sequence of r equal-shape matrices.

        The channel holds its own read-only copy, so that ``operators`` and the superoperator
        cached from it cannot drift apart.
        """
        try:
            ops = np.array(operators, dtype=complex)
        except ValueError:  # a ragged sequence
            raise ValueError("all Kraus operators must share one shape") from None
        if len(ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.ndim != 3:
            raise ValueError("all Kraus operators must share one shape")
        _, out_dim, in_dim = ops.shape
        if out_dim == 0 or in_dim == 0:
            raise ValueError("Kraus operators must have nonzero dimensions")
        superop = _sparse_superoperator(ops, out_dim, in_dim)
        with np.errstate(invalid="ignore"):  # inf * 0 makes a NaN, which within() refuses
            if superop is None:
                total = (dag(ops) @ ops).sum(axis=0)
            else:  # Tr E(|i><j|) = (sum_k K^dag K)[j, i]: the weights landing on the diagonal
                dst, src, left, right = superop
                on_diagonal = dst % (out_dim + 1) == 0
                total = _scatter(src[on_diagonal], left[on_diagonal] * right[on_diagonal], in_dim).T
        if not linalg.within(total, np.eye(in_dim), 1e-8):
            raise ValueError("Kraus operators do not sum to the identity (not CPTP)")
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)
        object.__setattr__(self, "_superop", superop)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply(self, rho)


def _sparse_superoperator(ops, out_dim: int, in_dim: int):
    """Nonzeros of sum_k K_k (x) conj(K_k), or None unless every column of every K_k holds at most
    one nonzero entry.

    One entry per ordered pair of nonzeros K[a, i] = c_i, K[b, j] = c_j of one operator, as flat
    arrays: destination a d_out + b, source i d_in + j, and the weight c_i conj(c_j) kept as its
    two factors, so that ``apply`` multiplies in the order of the Kraus sum's products.
    """
    dst, src, left, right = [], [], [], []
    for k in ops:
        nonzero = k != 0
        if np.any(np.count_nonzero(nonzero, axis=0) > 1):
            return None
        a, i = np.nonzero(nonzero)
        c = k[a, i]
        dst.append((a[:, None] * out_dim + a).ravel())
        src.append((i[:, None] * in_dim + i).ravel())
        left.append(np.repeat(c, c.size))
        right.append(np.tile(c.conj(), c.size))
    return tuple(np.concatenate(part) for part in (dst, src, left, right))


def _scatter(index: np.ndarray, values: np.ndarray, d: int) -> np.ndarray:
    """The d x d matrix whose flat entry m is the sum of the values at index m."""
    out = np.empty(d * d, dtype=complex)
    out.real = np.bincount(index, values.real, minlength=d * d)
    out.imag = np.bincount(index, values.imag, minlength=d * d)
    return out.reshape(d, d)


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel, rho -> sum_k K rho K^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.in_dim, ch.in_dim):
        raise ValueError(f"state shape {rho.shape} does not match in_dim {ch.in_dim}")
    if ch._superop is not None:
        dst, src, left, right = ch._superop
        return _scatter(dst, left * rho.ravel()[src] * right, ch.out_dim)
    return (ch.operators @ rho @ dag(ch.operators)).sum(axis=0)


def apply_n(ch: KrausChannel, rho: np.ndarray, n: int) -> np.ndarray:
    """Apply the channel n times (in_dim must equal out_dim for n > 1)."""
    out = np.asarray(rho, dtype=complex)
    for _ in range(n):
        out = apply(ch, out)
    return out


def identity_channel(d: int = 2) -> KrausChannel:
    return KrausChannel(np.eye(d, dtype=complex)[None])


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if not linalg.is_unitary(u):
        raise ValueError("matrix is not unitary")
    return KrausChannel(u[None])


def discard_and_prepare(sigma: np.ndarray) -> KrausChannel:
    """Channel rho -> Tr[rho] * sigma (trace out everything, prepare sigma).

    The Kraus operators are sqrt(lambda_k) |v_k><j| over the eigenpairs of sigma with
    lambda_k >= 1e-14 and every input basis state j, j varying fastest.
    """
    sigma = linalg.checked_initial_state(sigma)
    vals, vecs = np.linalg.eigh(sigma)
    kept = vals >= 1e-14
    d = len(sigma)
    ops = np.einsum("k,ak,ij->kjai", np.sqrt(vals[kept]), vecs[:, kept], np.eye(d))
    return KrausChannel(ops.reshape(-1, d, d))


def random_channel(d: int, kraus_rank: int, seed: int) -> KrausChannel:
    """Random CPTP channel from a Haar isometry (Stinespring dilation)."""
    u = linalg.haar_random_unitary(d * kraus_rank, seed)
    iso = u[:, :d]  # isometry from the system into system (x) environment
    return KrausChannel(iso.reshape(kraus_rank, d, d))


def depolarizing(p: float) -> KrausChannel:
    """Depolarizing qubit channel, rho -> (1-p) rho + p I/2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return KrausChannel(
        [
            np.sqrt(1 - 3 * p / 4) * I2,
            np.sqrt(p / 4) * X,
            np.sqrt(p / 4) * Y,
            np.sqrt(p / 4) * Z,
        ]
    )


def dephasing(lam: float) -> KrausChannel:
    """Dephasing qubit channel.

    Bloch action (rx, ry, rz) -> (rx sqrt(1-lam), ry sqrt(1-lam), rz),
    realized as a phase flip with probability q = (1 - sqrt(1-lam))/2.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    q = (1.0 - np.sqrt(1.0 - lam)) / 2.0
    return KrausChannel([np.sqrt(1 - q) * I2, np.sqrt(q) * Z])


def lindblad_dephasing_evolve(rho: np.ndarray, omega: float, gamma: float, t: float) -> np.ndarray:
    """Closed-form qubit evolution for H = omega Z/2 with Z-dephasing at rate gamma.

    Off-diagonals rotate and damp, rho01(t) = rho01(0) e^{-i omega t - gamma t};
    populations are constants of motion.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("lindblad_dephasing_evolve expects a 2x2 density matrix")
    out = rho.copy()
    out[0, 1] = rho[0, 1] * np.exp(-1j * omega * t - gamma * t)
    out[1, 0] = rho[1, 0] * np.exp(1j * omega * t - gamma * t)
    return out


@dataclass(frozen=True)
class ChoiOperator:
    """Choi matrix of a linear map, on H_out (x) H_in."""

    matrix: np.ndarray
    dims: tuple[int, int]  # (d_out, d_in)


@dataclass(frozen=True)
class ChoiFlags:
    tp: bool
    hermitian_preserving: bool
    cp: bool

    @property
    def is_cptp(self) -> bool:
        return self.tp and self.hermitian_preserving and self.cp


def choi_of_channel(ch: KrausChannel) -> ChoiOperator:
    """Choi matrix sum_{ij} E(|i><j|) (x) |i><j| = sum_k vec(K) vec(K)^dag, vec(K) = K.ravel()."""
    v = ch.operators.reshape(len(ch.operators), -1)  # row k is vec(K_k)
    return ChoiOperator(matrix=v.T @ v.conj(), dims=(ch.out_dim, ch.in_dim))


def channel_of_choi(c: ChoiOperator):
    """Return the map action X -> Tr_in[(I (x) X^T) M] as a callable.

    Contracted in one step, E(X)[a, b] = sum_{ij} M[(a, i), (b, j)] X[i, j].
    """
    d1, d0 = c.dims
    m = np.asarray(c.matrix, dtype=complex)

    def action(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (d0, d0):
            raise ValueError(f"operator shape {x.shape} does not match input dim {d0}")
        return np.einsum("aibj,ij->ab", m.reshape(d1, d0, d1, d0), x)

    return action


def check_choi(c: ChoiOperator) -> ChoiFlags:
    """Report trace preservation, Hermiticity preservation and complete positivity, each within 1e-8."""
    d1, d0 = c.dims
    m = np.asarray(c.matrix, dtype=complex)
    marg = linalg.partial_trace(m, (d1, d0), keep=1)
    tp = linalg.within(marg, np.eye(d0), 1e-8)
    hp = linalg.is_hermitian(m, atol=1e-8)
    if hp:
        cp = bool(np.linalg.eigvalsh(m).min() >= -1e-8)
    else:
        cp = False
    return ChoiFlags(tp=tp, hermitian_preserving=hp, cp=cp)
