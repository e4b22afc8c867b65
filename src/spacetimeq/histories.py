"""Decoherence functionals of projector histories, and signalling games.

A history family is an initial state, one exhaustive mutually exclusive
projector set per time, and a unitary per gap. The decoherence functional

    D([a], [a']) = Tr[ C_a rho C_a'^dagger ],   C_a = P~_n(a_n) ... P~_1(a_1),

is defined in the Heisenberg picture, P~_t = W_t^dagger P_t W_t with the gap
product W_t = U_{t-1} ... U_1. Diagonal entries are history probabilities
whenever the family is consistent.

``decoherence_functional`` is the definition, one entry at a time, and
``heisenberg_projector`` its conjugation. Every other reader works in the
Schroedinger picture: the chains X_a = P_n(a_n) U_{n-1} ... U_1 P_1(a_1) of
all histories are grown as a prefix tree, each time one product by the gap
unitary and one batched product by that time's (k, d, d) projector array.
Since C_a = W_n^dagger X_a, the gap product telescopes out of every trace,
D(a, a') = Tr[X_a rho X_a'^dagger]. With rows A_a = vec(X_a rho) and
B_a = vec(X_a), the whole matrix is one product, D = A B^dagger
(``decoherence_array``); consistency, coarse-grained entries and the signed
diagonal sum are read off D or its diagonal.
"""

from __future__ import annotations

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
    projector_sets: tuple[np.ndarray, ...]  # one (k_t, d, d) array per time
    unitaries: tuple[np.ndarray, ...]

    def __init__(self, initial, projector_sets, unitaries=()):
        rho = linalg.checked_initial_state(initial)
        projector_sets = tuple(projector_sets)
        us = tuple(np.asarray(u, dtype=complex) for u in unitaries)
        if len(us) != len(projector_sets) - 1:
            raise ValueError("need one unitary per gap between successive times")
        d = rho.shape[0]
        sets = []
        for t, group in enumerate(projector_sets):
            if any(np.shape(p) != (d, d) for p in group):
                raise ValueError(f"projectors at time {t} must be {d} x {d}, like the initial state")
            group = np.array(group, dtype=complex).reshape(-1, d, d)
            if not linalg.within(group.sum(axis=0), np.eye(d), 1e-10):
                raise ValueError(f"projectors at time {t} are not exhaustive")
            for i, p in enumerate(group):  # pairwise: a stacked product would hold k^2 d^2 entries
                for j, q in enumerate(group):
                    if not linalg.within(p @ q, p if i == j else 0 * p, 1e-9):
                        raise ValueError(f"projectors at time {t} are not exclusive")
            sets.append(group)
        for u in us:
            if u.shape != (d, d) or not linalg.is_unitary(u):
                raise ValueError("gap evolutions must be unitary")
        object.__setattr__(self, "initial", rho)
        object.__setattr__(self, "projector_sets", tuple(sets))
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


def _checked_labels(hist, hist_prime, sizes) -> tuple[tuple, tuple]:
    """Both label tuples, once each names one label per time, label t in 0..sizes[t] - 1."""
    hist, hist_prime = tuple(hist), tuple(hist_prime)
    if len(hist) != len(sizes) or len(hist_prime) != len(sizes):
        raise ValueError("history labels must name one projector per time")
    for t, (a, ap, n_out) in enumerate(zip(hist, hist_prime, sizes)):
        if not (0 <= a < n_out and 0 <= ap < n_out):
            raise IndexError(f"label out of range at time {t}")
    return hist, hist_prime


def decoherence_functional(f: HistoryFamily, hist, hist_prime) -> complex:
    """D([a],[a']) for a pair of history label tuples."""
    hist, hist_prime = _checked_labels(hist, hist_prime, [len(s) for s in f.projector_sets])
    left = f.initial.copy()
    chain = np.eye(f.initial.shape[0], dtype=complex)
    for t in range(f.n_times):
        chain = f.heisenberg_projector(t, hist[t]) @ chain
    chain_prime = np.eye(f.initial.shape[0], dtype=complex)
    for t in range(f.n_times):
        chain_prime = f.heisenberg_projector(t, hist_prime[t]) @ chain_prime
    return complex(np.trace(chain @ left @ dag(chain_prime)))


def _chains(f: HistoryFamily) -> np.ndarray:
    """The chains X_a = P_n(a_n) U_{n-1} ... U_1 P_1(a_1), shape (N, d, d), in ``f.labels()`` order."""
    d = f.initial.shape[0]
    chains = f.projector_sets[0]
    for u, group in zip(f.unitaries, f.projector_sets[1:]):
        # the label at time t varies fastest, as in itertools.product
        chains = (group[None] @ (u @ chains)[:, None]).reshape(-1, d, d)
    return chains


def _vec_rows(f: HistoryFamily) -> tuple[np.ndarray, np.ndarray]:
    """Rows A_a = vec(X_a rho) and B_a = vec(X_a), so that D = A B^dagger."""
    x = _chains(f)
    return (x @ f.initial).reshape(len(x), -1), x.reshape(len(x), -1)


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
    bar_hist, bar_hist_prime = _checked_labels(bar_hist, bar_hist_prime, [len(g) for g in partitions])
    groups = [partitions[t][bar_hist[t]] for t in range(f.n_times)]
    groups_prime = [partitions[t][bar_hist_prime[t]] for t in range(f.n_times)]
    sizes = tuple(len(s) for s in f.projector_sets)
    block = np.ix_(*(np.asarray(g, dtype=np.intp) for g in groups + groups_prime))
    return complex(decoherence_array(f).reshape(sizes + sizes)[block].sum())


def coarse_grained_family(f: HistoryFamily, partitions) -> HistoryFamily:
    """New family whose projectors are the sums over each label group."""
    _check_partitions(f, partitions)
    # an empty group sums to the zero projector
    sets = [[group[list(g)].sum(axis=0) for g in groups] for group, groups in zip(f.projector_sets, partitions)]
    return HistoryFamily(f.initial, sets, f.unitaries)


def pauli_history_family(initial, pauli_indices, unitaries) -> HistoryFamily:
    """Family whose projector pair at each time is (1 +/- sigma)/2."""
    sets = []
    for idx in pauli_indices:
        plus, minus = linalg.dichotomic_projectors(linalg.pauli_string_matrix([idx]))
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
    signed = np.einsum("ij,ij->i", a, b.conj()).real  # Re D(a, a) = Re Tr(X_a rho X_a^dagger)
    for _ in range(f.n_times):  # the last time's label varies fastest: its + branch minus its - branch
        signed = signed.reshape(-1, 2) @ np.array([1.0, -1.0])
    return float(signed[0])


def matching_process_correlation(initial, pauli_indices, unitaries) -> float:
    """Same correlation through the pseudo-density measurement cascade."""
    steps = [KrausChannel([u]) for u in unitaries]
    proc = TemporalProcess(initial, steps)
    return event_correlation(proc, tuple(pauli_indices))


def signalling_game_probability(tau_x, phi, memory: KrausChannel, psi) -> np.ndarray:
    """Outcome table p[a, b] of a one-player signalling game at two times.

    ``phi`` is a (k_a, r, d_mid, d) array: outcome a's Kraus operators, zero-padded to one
    count r, together forming one trace-preserving instrument. ``memory`` carries the output
    between the rounds, and ``psi`` is a (k_a, k_b, d_out, d_out) array: psi[a] is the POVM
    read out at the second time after outcome a. Outcomes are indexed from 0; each row of
    the table sums to one.
    """
    tau = np.asarray(tau_x, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    d = tau.shape[0]
    if not linalg.within((dag(phi) @ phi).sum(axis=(0, 1)), np.eye(d), 1e-8):
        raise ValueError("first-round instrument is not trace preserving overall")
    d_out = memory.out_dim
    if psi.ndim != 4 or psi.shape[2:] != (d_out, d_out):
        raise ValueError(f"psi must be shaped (k_a, k_b, {d_out}, {d_out}), effects on the memory's "
                         f"output, got {psi.shape}")
    if len(psi) != len(phi):
        raise ValueError(f"psi holds {len(psi)} second-round POVMs, one per first-round outcome, "
                         f"but phi has {len(phi)} outcomes")
    for a, povm in enumerate(psi):
        if not linalg.within(povm.sum(axis=0), np.eye(d_out), 1e-8):
            raise ValueError(f"second-round POVM for outcome {a} is incomplete")
    branches = (phi @ tau @ dag(phi)).sum(axis=1)  # outcome a's unnormalized state
    evolved = np.array([apply(memory, branch) for branch in branches])
    return np.einsum("abij,aji->ab", psi, evolved).real


def signed_game_correlation(p: np.ndarray) -> float:
    """sum_ab s_a s_b p[a, b] for two outcomes per round, s = (1, -1): outcome 0 reads as +1."""
    p = np.asarray(p, dtype=float)
    if p.shape != (2, 2):
        raise ValueError(f"the signed correlation needs a 2 x 2 table, got shape {p.shape}")
    s = np.array([1.0, -1.0])
    return float(s @ p @ s)
