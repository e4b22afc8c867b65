"""Decoherence functionals of projector histories, and signalling games.

A history family is an initial state, one exhaustive mutually exclusive
projector set per time, and a unitary per gap. The decoherence functional

    D([a], [a']) = Tr[ P^n_{a_n} ... P^1_{a_1} rho P^1_{a'_1} ... P^n_{a'_n} ]

is evaluated in the Heisenberg picture built from the supplied
Schroedinger-picture unitaries. Diagonal entries are history probabilities
whenever the family is consistent.

``decoherence_functional`` is the definition, one entry at a time. Every other
reader works from the class operators C_a = P~_n(a_n) ... P~_1(a_1) of all
histories at once (``class_operators``), grown as a prefix tree: each time
multiplies every class operator so far by each of its Heisenberg projectors.
With rows A_a = vec(C_a rho) and B_a = vec(C_a), the whole matrix is one
product, D = A B^dagger (``decoherence_array``); consistency, coarse-grained
entries and the signed diagonal sum are read off D or its diagonal.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from spacetimeq import linalg
from spacetimeq.channels import KrausChannel, apply
from spacetimeq.linalg import dag
from spacetimeq.pdm import TemporalProcess, event_correlation


@dataclass(frozen=True)
class HistoryFamily:
    initial: np.ndarray
    projector_sets: tuple[tuple[np.ndarray, ...], ...]
    unitaries: tuple[np.ndarray, ...]

    def __init__(self, initial, projector_sets, unitaries=()):
        rho = np.asarray(initial, dtype=complex)
        sets = tuple(tuple(np.asarray(p, dtype=complex) for p in s) for s in projector_sets)
        us = tuple(np.asarray(u, dtype=complex) for u in unitaries)
        if len(us) != len(sets) - 1:
            raise ValueError("need one unitary per gap between successive times")
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"the initial state must be a square matrix, got shape {rho.shape}")
        d = rho.shape[0]
        for t, group in enumerate(sets):
            if any(p.shape != (d, d) for p in group):
                raise ValueError(f"projectors at time {t} must be {d} x {d}, like the initial state")
            total = sum(group)
            if not linalg.within(total, np.eye(d), 1e-10):
                raise ValueError(f"projectors at time {t} are not exhaustive")
            for i, p in enumerate(group):
                for j, q in enumerate(group):
                    expected = p if i == j else np.zeros_like(p)
                    if not linalg.within(p @ q, expected, 1e-9):
                        raise ValueError(f"projectors at time {t} are not exclusive")
        for u in us:
            if u.shape != (d, d) or not linalg.is_unitary(u):
                raise ValueError("gap evolutions must be unitary")
        object.__setattr__(self, "initial", rho)
        object.__setattr__(self, "projector_sets", sets)
        object.__setattr__(self, "unitaries", us)

    @property
    def n_times(self) -> int:
        return len(self.projector_sets)

    def labels(self):
        """All history label tuples, one index per time."""
        return itertools.product(*(range(len(s)) for s in self.projector_sets))

    def heisenberg_projector(self, t: int, label: int) -> np.ndarray:
        """Projector at time t conjugated back to the initial time."""
        p = self.projector_sets[t][label]
        u_total = np.eye(p.shape[0], dtype=complex)  # U_{t-1} ... U_1
        for u in self.unitaries[:t]:
            u_total = u @ u_total
        return dag(u_total) @ p @ u_total


def decoherence_functional(f: HistoryFamily, hist, hist_prime) -> complex:
    """D([a],[a']) for a pair of history label tuples."""
    hist = tuple(hist)
    hist_prime = tuple(hist_prime)
    if len(hist) != f.n_times or len(hist_prime) != f.n_times:
        raise ValueError("history labels must name one projector per time")
    for t, (a, ap) in enumerate(zip(hist, hist_prime)):
        n_out = len(f.projector_sets[t])
        if not (0 <= a < n_out and 0 <= ap < n_out):
            raise IndexError(f"label out of range at time {t}")
    left = f.initial.copy()
    chain = np.eye(f.initial.shape[0], dtype=complex)
    for t in range(f.n_times):
        chain = f.heisenberg_projector(t, hist[t]) @ chain
    chain_prime = np.eye(f.initial.shape[0], dtype=complex)
    for t in range(f.n_times):
        chain_prime = f.heisenberg_projector(t, hist_prime[t]) @ chain_prime
    return complex(np.trace(chain @ left @ dag(chain_prime)))


def class_operators(f: HistoryFamily) -> np.ndarray:
    """The class operators C_a = P~_n(a_n) ... P~_1(a_1), shape (N, d, d), in ``f.labels()`` order."""
    d = f.initial.shape[0]
    u_total = np.eye(d, dtype=complex)  # U_{t-1} ... U_1, one conjugation per projector
    ops = u_total[None]
    for t, group in enumerate(f.projector_sets):
        if t:
            u_total = f.unitaries[t - 1] @ u_total
        heis = np.array([dag(u_total) @ p @ u_total for p in group])
        # the label at time t varies fastest, as in itertools.product
        ops = (heis[None] @ ops[:, None]).reshape(-1, d, d)
    return ops


def _vec_rows(f: HistoryFamily) -> tuple[np.ndarray, np.ndarray]:
    """Rows A_a = vec(C_a rho) and B_a = vec(C_a), so that D = A B^dagger."""
    c = class_operators(f)
    return (c @ f.initial).reshape(len(c), -1), c.reshape(len(c), -1)


def decoherence_array(f: HistoryFamily) -> np.ndarray:
    """D as an N x N array, rows and columns in ``f.labels()`` order."""
    a, b = _vec_rows(f)
    return a @ b.conj().T


def decoherence_matrix(f: HistoryFamily) -> dict:
    """The full complex map over pairs of history labels."""
    labels = list(f.labels())
    return dict(zip(itertools.product(labels, labels), decoherence_array(f).ravel().tolist()))


def max_interference(d: np.ndarray, strong: bool = False) -> float:
    """Largest off-diagonal |D| (strong) or |Re D| (weak) of a decoherence array; 0 for one history."""
    size = np.abs(d) if strong else np.abs(d.real)
    np.fill_diagonal(size, 0.0)
    return float(size.max())


def is_consistent(f: HistoryFamily, tol: float = 1e-10, strong: bool = False) -> bool:
    """Weak (real-part) or strong (modulus) consistency of the family."""
    return max_interference(decoherence_array(f), strong) <= tol


def _check_partitions(f: HistoryFamily, partitions) -> None:
    """Each time's label groups must be disjoint and cover every fine label once."""
    if len(partitions) != f.n_times:
        raise ValueError("partitions must hold one list of label groups per time")
    for t, groups in enumerate(partitions):
        fine = sorted(i for g in groups for i in g)
        if fine != list(range(len(f.projector_sets[t]))):
            raise ValueError(
                f"label groups at time {t} must be disjoint and cover labels "
                f"0..{len(f.projector_sets[t]) - 1} once each, got {fine}"
            )


def coarse_grained_functional(f: HistoryFamily, partitions, bar_hist, bar_hist_prime) -> complex:
    """D over coarse labels, a block sum of the fine-grained decoherence array.

    ``partitions`` holds, per time, a list of label groups; coarse label k
    at time t stands for every fine label in partitions[t][k].
    """
    _check_partitions(f, partitions)
    groups = [partitions[t][bar_hist[t]] for t in range(f.n_times)]
    groups_prime = [partitions[t][bar_hist_prime[t]] for t in range(f.n_times)]
    sizes = tuple(len(s) for s in f.projector_sets)
    block = np.ix_(*(np.asarray(g, dtype=np.intp) for g in groups + groups_prime))
    return complex(decoherence_array(f).reshape(sizes + sizes)[block].sum())


def coarse_grained_family(f: HistoryFamily, partitions) -> HistoryFamily:
    """New family whose projectors are the sums over each label group."""
    _check_partitions(f, partitions)
    sets = []
    for t, groups in enumerate(partitions):
        zero = np.zeros_like(f.projector_sets[t][0])  # the projector of an empty group
        sets.append(tuple(sum((f.projector_sets[t][i] for i in g), zero) for g in groups))
    return HistoryFamily(f.initial, sets, f.unitaries)


def pauli_history_family(initial, pauli_indices, unitaries) -> HistoryFamily:
    """Family whose projector pair at each time is (1 +/- sigma)/2."""
    sets = []
    for idx in pauli_indices:
        plus, minus = linalg.dichotomic_projectors(linalg.PAULIS[idx])
        sets.append((plus, minus))
    return HistoryFamily(initial, sets, unitaries)


def pdm_correlation_from_df(f: HistoryFamily) -> float:
    """Signed sum of diagonal decoherence entries over +/- projector pairs.

    Requires every time to carry exactly two projectors, ordered (+, -).
    Equals the pseudo-density-matrix correlation of the matching process.
    """
    if any(len(s) != 2 for s in f.projector_sets):
        raise ValueError("signed sum needs a (+, -) projector pair at every time")
    a, b = _vec_rows(f)
    diagonal = np.einsum("ij,ij->i", a, b.conj()).real  # Re D(a, a) = Re Tr(C_a rho C_a^dagger)
    signs = functools.reduce(np.kron, [np.array([1.0, -1.0])] * f.n_times)
    return float(signs @ diagonal)


def matching_process_correlation(initial, pauli_indices, unitaries) -> float:
    """Same correlation through the pseudo-density measurement cascade."""
    steps = [KrausChannel([u]) for u in unitaries]
    proc = TemporalProcess(initial, steps)
    return event_correlation(proc, tuple(pauli_indices))


def signalling_game_probability(tau_x, phi, memory: KrausChannel, psi) -> dict:
    """Outcome table of a one-player signalling game at two times.

    ``phi`` maps each first-round outcome ``a`` to its list of Kraus
    operators (together forming one trace-preserving instrument), ``memory``
    carries the output between the rounds, and ``psi`` maps each ``a`` to
    the POVM {psi[a][b]} read out at the second time. Returns
    {(a, b): p(a, b | x)} with rows summing to one.
    """
    tau = np.asarray(tau_x, dtype=complex)
    d = tau.shape[0]
    completeness = sum(
        dag(k) @ k for ops in phi.values() for k in map(np.asarray, ops)
    )
    if not linalg.within(completeness, np.eye(d), 1e-8):
        raise ValueError("first-round instrument is not trace preserving overall")
    table = {}
    for a, ops in phi.items():
        branch = np.zeros_like(tau)
        for k in ops:
            k = np.asarray(k, dtype=complex)
            branch += k @ tau @ dag(k)
        evolved = apply(memory, branch)
        povm = psi[a]
        total_povm = sum(np.asarray(e, dtype=complex) for e in povm.values())
        if not linalg.within(total_povm, np.eye(evolved.shape[0]), 1e-8):
            raise ValueError(f"second-round POVM for outcome {a} is incomplete")
        for b, effect in povm.items():
            table[(a, b)] = float(np.real(np.trace(np.asarray(effect, dtype=complex) @ evolved)))
    return table


def signed_game_correlation(table: dict) -> float:
    """sum_ab a b p(a, b) for +/-1-labelled outcomes."""
    return float(sum(a * b * p for (a, b), p in table.items()))
