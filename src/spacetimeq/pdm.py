"""Pseudo-density matrices over temporal processes.

A process is an initial state plus a chain of CPTP steps, one per gap
between successive events; an event may have any dimension, and a step
may change it. Correlations are expectation values of products of +/-1
measurement outcomes obtained from a projective cascade with Lueders
updates. The pseudo-density matrix is the operator whose product-observable
expectations Tr[(O_1 (x) ... (x) O_n) R] are those correlations; on qubit
events its Pauli components are the correlations. It is built in closed
form by an iterated Jordan product, and the cascade is its definition and
test oracle. It is Hermitian and unit-trace but, unlike a density matrix,
may carry negative eigenvalues; those are the signature of temporal
correlations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spacetimeq import linalg
from spacetimeq.channels import KrausChannel, apply, choi_of_channel
from spacetimeq.linalg import dag


@dataclass(frozen=True)
class TemporalProcess:
    """Initial density matrix and one CPTP step per inter-event gap."""

    initial: np.ndarray
    steps: tuple[KrausChannel, ...]

    def __init__(self, initial, steps=()):
        rho = linalg.checked_initial_state(initial)
        steps = tuple(steps)
        d = rho.shape[0]
        for ch in steps:
            if ch.in_dim != d:
                raise ValueError("channel input dimension does not chain")
            d = ch.out_dim
        object.__setattr__(self, "initial", rho)
        object.__setattr__(self, "steps", steps)

    @property
    def n_events(self) -> int:
        return len(self.steps) + 1


@dataclass(frozen=True)
class PDM:
    """Pseudo-density matrix over events of the given dimensions, one tensor factor each.

    Tr[(O_1 (x) ... (x) O_n) R] is the cascade correlation of the per-event
    observables O_k; when every event is a qubit, these are its Pauli components.
    """

    event_dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dims = linalg.check_dims(m, self.event_dims)
        if not linalg.is_hermitian(m, atol=1e-8):
            raise ValueError("pseudo-density matrix must be Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-8:
            raise ValueError("pseudo-density matrix must have unit trace")
        object.__setattr__(self, "event_dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def n_events(self) -> int:
        return len(self.event_dims)


def _event_observable(spec, dim: int) -> np.ndarray:
    """Resolve a per-event observable of a ``dim``-dimensional event: Pauli index, index tuple, or matrix."""
    if np.isscalar(spec):
        if dim != 2:
            raise ValueError("a single Pauli index needs a one-qubit event")
        return linalg.pauli_string_matrix([int(spec)])
    arr = np.asarray(spec)
    m = linalg.pauli_string_matrix(arr.tolist()) if arr.ndim == 1 else np.asarray(spec, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"observable of shape {m.shape} does not match a {dim}-dimensional event")
    return m


def event_correlation(proc: TemporalProcess, paulis) -> float:
    """Expectation of the product of +/-1 outcomes over the event chain.

    ``paulis`` holds one observable per event: a Pauli index 0..3, a tuple
    of indices (multi-qubit event), or an explicit matrix squaring to the
    identity. Measurements are ideal projective ones with Lueders update,
    interleaved with the process steps.
    """
    obs = list(paulis)
    if len(obs) != proc.n_events:
        raise ValueError(f"need {proc.n_events} observables, got {len(obs)}")
    # one signed state: the sum over outcome branches of sign-product times conditional state
    signed = proc.initial
    for t, o in enumerate(obs):
        m = _event_observable(o, signed.shape[0])
        if np.ndim(o) == 2:  # Pauli indices name exact involutions; a matrix is checked
            linalg.require_involution(m)
        # P+ S P+ - P- S P- = (O S + S O)/2 when O^2 = 1: the cross terms cancel
        signed = (m @ signed + signed @ m) / 2
        if t < len(proc.steps):
            signed = apply(proc.steps[t], signed)
    return float(np.trace(signed).real)


def build_pdm(proc: TemporalProcess) -> PDM:
    """The pseudo-density matrix of the process, over events of any dimensions.

    It is the state over time R_1 = rho, R_{k+1} = (1/2){R_k (x) 1, 1 (x) J(E_k)}
    with J(E) = sum_ij |i><j| (x) E(|j><i|) (Horsman et al., Proc. R. Soc. A 473,
    20170395 (2017); Fullwood & Parzygnat, Proc. R. Soc. A 478, 20220104 (2022)).
    Its product-observable expectations are the cascade correlations of
    ``event_correlation``; on qubit events it is (1/d^n) sum_s <sigma_s> sigma_s.

    Neither Kronecker product is formed: with R's column split as (mu, i), i the
    latest event's index, the product is
    (R (x) 1)(1 (x) J)[(x, a), (mu, j, b)] = sum_i R[x, (mu, i)] J[(i, a), (j, b)],
    one matrix product per step.
    """
    r = proc.initial.copy()
    for ch in proc.steps:
        d_in, d_out = ch.in_dim, ch.out_dim
        d = r.shape[0]
        # J(E) is the Choi matrix with its factors swapped and its input transposed, rows split as (i, a)
        j = choi_of_channel(ch).matrix.reshape(d_out, d_in, d_out, d_in).transpose(3, 0, 1, 2)
        prod = (r.reshape(-1, d_in) @ j.reshape(d_in, -1)).reshape(d, d // d_in, d_out, d_in * d_out)
        prod = prod.transpose(0, 2, 1, 3).reshape(d * d_out, d * d_out)
        r = (prod + dag(prod)) / 2  # both factors are Hermitian, so (1 (x) J)(R (x) 1) = dag(prod)
    dims = (proc.initial.shape[0],) + tuple(ch.out_dim for ch in proc.steps)
    return PDM(event_dims=dims, matrix=r)


def spacelike_pdm(rho: np.ndarray, n_events: int) -> PDM:
    """Pseudo-density matrix of simultaneously measured qubits.

    For spacelike events the outcome-product expectations are the ordinary
    joint expectations Tr[(sigma_{i_1} (x) ... (x) sigma_{i_n}) rho], so the
    Pauli reconstruction returns rho itself and the object is genuinely
    positive semi-definite.
    """
    return PDM(event_dims=(2,) * n_events, matrix=rho)


def expectation_from_pdm(r: PDM, ops) -> float:
    """Tr[(O_1 (x) ... (x) O_n) R] for per-event +/-1-eigenvalue observables.

    Each O_k is contracted into its own pair of axes of R as a tensor
    R[b_1 ... b_n, a_1 ... a_n]; the product operator is never formed.
    """
    ops = list(ops)
    if len(ops) != r.n_events:
        raise ValueError(f"need {r.n_events} observables, got {len(ops)}")
    n = r.n_events
    operands = [r.matrix.reshape(r.event_dims * 2), list(range(2 * n))]
    for k, (o, d) in enumerate(zip(ops, r.event_dims)):
        operands += [_event_observable(o, d), [n + k, k]]  # O_k[a_k, b_k]
    return float(np.einsum(*operands, []).real)


def marginal(r: PDM, event: int) -> np.ndarray:
    """Single-event marginal under the partial trace."""
    if event < 0 or event >= r.n_events:
        raise IndexError(f"event {event} out of range")
    return linalg.partial_trace(r.matrix, r.event_dims, keep=event)


def causality_monotone(r: PDM) -> float:
    """Trace norm minus one, clamped at zero.

    R is Hermitian, so its trace norm is the sum of its absolute eigenvalues.
    Vanishes exactly on positive semi-definite pseudo-density matrices and
    equals 1 for a closed single-qubit system at two times.
    """
    return max(0.0, float(np.abs(np.linalg.eigvalsh(r.matrix)).sum() - 1.0))


# -- bipartite correlation geometry -----------------------------------------

#: Vertices of the spatial correlation tetrahedron (Bell states).
SPATIAL_TETRA = np.array(
    [(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)], dtype=float
)
#: Vertices of the temporal correlation tetrahedron (its reflection).
TEMPORAL_TETRA = np.array(
    [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)], dtype=float
)


@dataclass(frozen=True)
class CorrelationTriple:
    t11: float
    t22: float
    t33: float

    def as_array(self) -> np.ndarray:
        return np.array([self.t11, self.t22, self.t33])


@dataclass(frozen=True)
class TetraMembership:
    in_spatial: bool
    in_temporal: bool


def tetrahedron_point(proc: TemporalProcess) -> CorrelationTriple:
    """Diagonal correlations (<XX>, <YY>, <ZZ>) of a two-event qubit process."""
    if proc.initial.shape != (2, 2) or proc.n_events != 2:
        raise ValueError("tetrahedron_point needs a single qubit at two times")
    vals = [event_correlation(proc, (i, i)) for i in (1, 2, 3)]
    return CorrelationTriple(*vals)


def in_hull(point: np.ndarray, vertices: np.ndarray) -> bool:
    """Barycentric-coordinate membership test for a simplex, with 1e-9 of slack."""
    v0 = vertices[0]
    basis = (vertices[1:] - v0).T  # 3x3
    coeff = np.linalg.solve(basis, np.asarray(point, dtype=float) - v0)
    bary = np.concatenate([[1.0 - coeff.sum()], coeff])
    return bool(np.all(bary >= -1e-9))


def classify(point: CorrelationTriple) -> TetraMembership:
    p = point.as_array()
    return TetraMembership(
        in_spatial=in_hull(p, SPATIAL_TETRA),
        in_temporal=in_hull(p, TEMPORAL_TETRA),
    )


# -- postselection -----------------------------------------------------------


class UndefinedPostselectionError(ValueError):
    """All cascade branches are incompatible with the postselection."""


def postselected_correlation(rho, ch: KrausChannel, i: int, j: int, eta) -> float:
    """Two-time Pauli correlation conditioned on a final projection eta.

    Returns sum_{ab} ab p_ab / sum_{ab} p_ab with
    p_ab = Tr[eta P_j^b E(P_i^a rho P_i^a) P_j^b]. Summing the Lueders
    branches of O = P^+ - P^- gives the Jordan map J_O(X) = {O, X}/2 with
    signs and the dephasing D_O(X) = (X + O X O)/2 without, so the value is
    Tr[eta J_j E J_i rho] / Tr[eta D_j E D_i rho]. It is invariant under
    rescaling eta. Raises UndefinedPostselectionError when every branch has
    zero weight.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2) or (ch.in_dim, ch.out_dim) != (2, 2):
        raise ValueError(
            f"postselection needs a one-qubit state and a one-qubit channel, got state shape {rho.shape} "
            f"and a {ch.in_dim} -> {ch.out_dim} channel"
        )
    o_i, o_j = linalg.pauli_string_matrix([i]), linalg.pauli_string_matrix([j])
    eta = np.asarray(eta, dtype=complex)
    if eta.shape != (2, 2):
        raise ValueError(f"eta must be a 2 x 2 one-qubit operator, got shape {eta.shape}")
    signed = apply(ch, (o_i @ rho + rho @ o_i) / 2)
    dephased = apply(ch, (rho + o_i @ rho @ o_i) / 2)
    total = np.trace(eta @ (dephased + o_j @ dephased @ o_j)).real / 2
    if total <= 1e-14:
        raise UndefinedPostselectionError(
            "postselection is incompatible with every measurement branch"
        )
    return float(np.trace(eta @ (o_j @ signed + signed @ o_j)).real / 2 / total)


def build_postselected_pdm(rho, ch: KrausChannel, eta) -> PDM:
    """Three-factor postselected pseudo-density matrix.

    R = (1/4) sum_{ij} < sigma_i, sigma_j, eta > sigma_i (x) sigma_j (x) eta,
    with eta normalized to unit trace so that R keeps unit trace.
    """
    eta = np.asarray(eta, dtype=complex)
    tr = np.trace(eta).real
    if tr <= 0:
        raise ValueError("eta must have positive trace")
    eta = eta / tr
    acc = np.zeros((8, 8), dtype=complex)
    for i in range(4):
        for j in range(4):
            corr = postselected_correlation(rho, ch, i, j, eta)
            acc += corr * linalg.tensor(linalg.PAULIS[i], linalg.PAULIS[j], eta)
    return PDM(event_dims=(2, 2, 2), matrix=acc / 4.0)


def ctc_probability(u_sa: np.ndarray, rho_s: np.ndarray, d: int) -> float:
    """Success probability of a postselected closed-timelike-curve circuit.

    The chronology-respecting system S and curve system A evolve under
    U_SA; A is half of a maximally entangled pair with B, and AB is finally
    projected back onto that pair. With C = Tr_A U the probability is
    Tr[C rho_S C^dag] / d^2.
    """
    u = np.asarray(u_sa, dtype=complex)
    rho_s = np.asarray(rho_s, dtype=complex)
    d_s = rho_s.shape[0]
    if u.shape != (d_s * d, d_s * d):
        raise ValueError("unitary dimension does not match d_S * d_A")
    if not linalg.is_unitary(u):
        raise ValueError("u_sa is not unitary")
    c = linalg.partial_trace(u, (d_s, d), keep=0)
    return float(np.real(np.trace(c @ rho_s @ dag(c))) / d**2)


def ctc_probability_via_projection(u_sa: np.ndarray, rho_s: np.ndarray, d: int) -> float:
    """Same probability from the explicit entangled-pair construction."""
    u = np.asarray(u_sa, dtype=complex)
    rho_s = np.asarray(rho_s, dtype=complex)
    d_s = rho_s.shape[0]
    phi = linalg.maximally_entangled_ket(d)
    phi_proj = np.outer(phi, phi.conj())
    state = linalg.tensor(rho_s, phi_proj)
    u_full = linalg.tensor(u, np.eye(d, dtype=complex))
    evolved = u_full @ state @ dag(u_full)
    projector = linalg.tensor(np.eye(d_s, dtype=complex), phi_proj)
    return float(np.real(np.trace(projector @ evolved)))
