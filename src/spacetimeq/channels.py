"""Quantum channels as Kraus families and their Choi matrices.

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
``sum_k K rho K^dag``.

Choi convention: the unnormalized maximally entangled vector
``|I>> = sum_n |n>|n>`` with the *output* factor first, so the Choi matrix
of a map E from dimension d0 to d1 is

    M = sum_{ij} E(|i><j|) (x) |i><j|   on  H_out (x) H_in,

trace preservation reads ``Tr_out M = I_in`` and the inverse map is
``E(X) = Tr_in[(I (x) X^T) M]``. This convention is fixed package-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spacetimeq import linalg
from spacetimeq.linalg import I2, X, Y, Z, dag


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map represented by a list of Kraus operators (out_dim x in_dim)."""

    operators: tuple[np.ndarray, ...]
    in_dim: int = field(init=False)
    out_dim: int = field(init=False)
    # nonzeros of the superoperator of a column-sparse family (see _sparse_superoperator), else None
    _superop: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, compare=False
    )

    def __init__(self, operators, atol: float = 1e-8):
        ops = tuple(np.asarray(k, dtype=complex) for k in operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        out_dim, in_dim = ops[0].shape
        if any(k.shape != (out_dim, in_dim) for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        if out_dim == 0 or in_dim == 0:
            raise ValueError("Kraus operators must have nonzero dimensions")
        superop = _sparse_superoperator(ops, out_dim, in_dim)
        with np.errstate(invalid="ignore"):  # inf * 0 makes a NaN, which within() refuses
            if superop is None:
                total = sum(dag(k) @ k for k in ops)
            else:  # Tr E(|i><j|) = (sum_k K^dag K)[j, i]: the weights landing on the diagonal
                dst, src, left, right = superop
                on_diagonal = dst % (out_dim + 1) == 0
                total = _scatter(src[on_diagonal], left[on_diagonal] * right[on_diagonal], in_dim).T
        if not linalg.within(total, np.eye(in_dim), atol):
            raise ValueError("Kraus operators do not sum to the identity (not CPTP)")
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
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.operators:
        out += k @ rho @ dag(k)
    return out


def apply_n(ch: KrausChannel, rho: np.ndarray, n: int) -> np.ndarray:
    """Apply the channel n times (in_dim must equal out_dim for n > 1)."""
    out = np.asarray(rho, dtype=complex)
    for _ in range(n):
        out = apply(ch, out)
    return out


def identity_channel(d: int = 2) -> KrausChannel:
    return KrausChannel([np.eye(d, dtype=complex)])


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if not linalg.is_unitary(u, 1e-8):
        raise ValueError("matrix is not unitary")
    return KrausChannel([u])


def discard_and_prepare(sigma: np.ndarray) -> KrausChannel:
    """Channel rho -> Tr[rho] * sigma (trace out everything, prepare sigma)."""
    sigma = np.asarray(sigma, dtype=complex)
    d_out = sigma.shape[0]
    vals, vecs = np.linalg.eigh(sigma)
    vals = np.clip(vals.real, 0.0, None)
    d_in = d_out
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam < 1e-14:
            continue
        for j in range(d_in):
            e = np.zeros((1, d_in), dtype=complex)
            e[0, j] = 1.0
            ops.append(np.sqrt(lam) * np.outer(v, e[0].conj()))
    return KrausChannel(ops)


def random_channel(d: int, kraus_rank: int, seed: int) -> KrausChannel:
    """Random CPTP channel from a Haar isometry (Stinespring dilation)."""
    u = linalg.haar_random_unitary(d * kraus_rank, seed)
    iso = u[:, :d]  # isometry from the system into system (x) environment
    ops = [iso[k * d : (k + 1) * d, :] for k in range(kraus_rank)]
    return KrausChannel(ops)


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
    m = sum(np.outer(k.ravel(), k.ravel().conj()) for k in ch.operators)
    return ChoiOperator(matrix=m, dims=(ch.out_dim, ch.in_dim))


def channel_of_choi(c: ChoiOperator):
    """Return the map action X -> Tr_in[(I (x) X^T) M] as a callable."""
    d1, d0 = c.dims
    m = np.asarray(c.matrix, dtype=complex)

    def action(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (d0, d0):
            raise ValueError(f"operator shape {x.shape} does not match input dim {d0}")
        full = np.kron(np.eye(d1, dtype=complex), x.T) @ m
        return linalg.partial_trace(full, (d1, d0), keep=0)

    return action


def check_choi(c: ChoiOperator, atol: float = 1e-8) -> ChoiFlags:
    """Report trace preservation, Hermiticity preservation and complete positivity."""
    d1, d0 = c.dims
    m = np.asarray(c.matrix, dtype=complex)
    marg = linalg.partial_trace(m, (d1, d0), keep=1)
    tp = linalg.within(marg, np.eye(d0), atol)
    hp = linalg.is_hermitian(m, atol=atol)
    if hp:
        cp = bool(np.linalg.eigvalsh(m).min() >= -atol)
    else:
        cp = False
    return ChoiFlags(tp=tp, hermitian_preserving=hp, cp=cp)
