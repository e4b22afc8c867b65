"""Pseudo-density matrices over temporal processes.

A process is an initial state plus a chain of CPTP steps, one per gap
between successive events. Correlations are expectation values of products
of +/-1 measurement outcomes obtained from a projective cascade with
Lueders updates; the pseudo-density matrix is the operator whose Pauli
components are those correlations. It is built in closed form by an
iterated Jordan product, and the cascade is its definition and test
oracle. It is Hermitian and unit-trace but, unlike a density matrix, may
carry negative eigenvalues; those are the signature of temporal
correlations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spacetimeq import linalg
from spacetimeq.channels import KrausChannel, apply, choi_of_channel
from spacetimeq.linalg import ATOL, dag


@dataclass(frozen=True)
class TemporalProcess:
    """Initial density matrix and one CPTP step per inter-event gap."""

    initial: np.ndarray
    steps: tuple[KrausChannel, ...]

    def __init__(self, initial, steps=(), atol: float = ATOL):
        rho = np.asarray(initial, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("initial state must be a square matrix")
        if abs(np.trace(rho) - 1.0) > max(atol, 1e-8):
            raise ValueError("initial state must have unit trace")
        if not linalg.is_hermitian(rho, atol=max(atol, 1e-8)):
            raise ValueError("initial state must be Hermitian")
        if np.linalg.eigvalsh(rho).min() < -max(atol, 1e-8):
            raise ValueError("initial state must be positive semi-definite")
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
    """Pseudo-density matrix over n events of one or more qubits each."""

    n_events: int
    qubits_per_event: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = (2**self.qubits_per_event) ** self.n_events
        if m.shape != (d, d):
            raise ValueError("matrix shape inconsistent with event structure")
        if not linalg.is_hermitian(m, atol=1e-8):
            raise ValueError("pseudo-density matrix must be Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-8:
            raise ValueError("pseudo-density matrix must have unit trace")
        object.__setattr__(self, "matrix", m)

    @property
    def event_dims(self) -> tuple[int, ...]:
        return (2**self.qubits_per_event,) * self.n_events


def _event_observable(spec, dim: int) -> np.ndarray:
    """Resolve a per-event observable: Pauli index, index tuple, or matrix."""
    if np.isscalar(spec):
        if dim != 2:
            raise ValueError("a single Pauli index needs a one-qubit event")
        return linalg.PAULIS[int(spec)]
    arr = np.asarray(spec)
    if arr.ndim == 1:
        return linalg.pauli_string_matrix(arr.tolist())
    return np.asarray(spec, dtype=complex)


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
    d0 = proc.initial.shape[0]
    mats = [_event_observable(o, d0) for o in obs]

    # one signed state: the sum over outcome branches of sign-product times conditional state
    signed = proc.initial
    for t, m in enumerate(mats):
        if m.shape[0] != signed.shape[0]:
            raise ValueError("observable dimension does not match the state")
        plus, minus = linalg.dichotomic_projectors(m)
        signed = plus @ signed @ plus - minus @ signed @ minus
        if t < len(proc.steps):
            signed = apply(proc.steps[t], signed)
    return float(np.trace(signed).real)


def build_pdm(proc: TemporalProcess) -> PDM:
    """The pseudo-density matrix (1/d^n) sum_s <sigma_s> sigma_s of the process.

    It is the state over time R_1 = rho, R_{k+1} = (1/2){R_k (x) 1, 1 (x) J(E_k)}
    with J(E) = sum_ij |i><j| (x) E(|j><i|) (Horsman et al., Proc. R. Soc. A 473,
    20170395 (2017); Fullwood & Parzygnat, Proc. R. Soc. A 478 (2022)); the Pauli
    components of the result are the cascade correlations of ``event_correlation``.
    """
    d0 = proc.initial.shape[0]
    nq = int(round(np.log2(d0)))
    if 2**nq != d0:
        raise ValueError("pseudo-density construction needs qubit event spaces")
    for ch in proc.steps:
        if ch.in_dim != d0 or ch.out_dim != d0:
            raise ValueError("all event spaces must share the qubit dimension")
    r = proc.initial.copy()
    for ch in proc.steps:
        # J(E) is the Choi matrix with its factors swapped and its input transposed
        j = choi_of_channel(ch).matrix.reshape(d0, d0, d0, d0).transpose(3, 0, 1, 2)
        left = np.kron(r, np.eye(d0))
        right = np.kron(np.eye(r.shape[0] // d0), j.reshape(d0 * d0, d0 * d0))
        prod = left @ right
        r = (prod + dag(prod)) / 2  # both factors are Hermitian, so right @ left = dag(prod)
    return PDM(n_events=proc.n_events, qubits_per_event=nq, matrix=r)


def spacelike_pdm(rho: np.ndarray, n_events: int) -> PDM:
    """Pseudo-density matrix of simultaneously measured qubits.

    For spacelike events the outcome-product expectations are the ordinary
    joint expectations Tr[(sigma_{i_1} (x) ... (x) sigma_{i_n}) rho], so the
    Pauli reconstruction returns rho itself and the object is genuinely
    positive semi-definite.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2**n_events, 2**n_events):
        raise ValueError("state dimension must be one qubit per event")
    return PDM(n_events=n_events, qubits_per_event=1, matrix=rho)


def expectation_from_pdm(r: PDM, ops) -> float:
    """Tr[(O_1 (x) ... (x) O_n) R] for per-event +/-1-eigenvalue observables."""
    d_event = 2**r.qubits_per_event
    mats = [_event_observable(o, d_event) for o in ops]
    full = linalg.tensor(*mats)
    if full.shape != r.matrix.shape:
        raise ValueError("observable dimensions do not match the pseudo-density matrix")
    return float(np.real(np.trace(full @ r.matrix)))


def marginal(r: PDM, event: int) -> np.ndarray:
    """Single-event marginal under the partial trace."""
    if event < 0 or event >= r.n_events:
        raise IndexError(f"event {event} out of range")
    return linalg.partial_trace(r.matrix, r.event_dims, keep=event)


def causality_monotone(r: PDM) -> float:
    """Trace norm minus one, clamped at zero.

    Vanishes exactly on positive semi-definite pseudo-density matrices and
    equals 1 for a closed single-qubit system at two times.
    """
    return max(0.0, trace_norm_minus_one(r.matrix))


def trace_norm_minus_one(m: np.ndarray) -> float:
    return float(linalg.trace_norm(m) - 1.0)


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


def in_hull(point: np.ndarray, vertices: np.ndarray, slack: float = 1e-9) -> bool:
    """Barycentric-coordinate membership test for a simplex."""
    v0 = vertices[0]
    basis = (vertices[1:] - v0).T  # 3x3
    coeff = np.linalg.solve(basis, np.asarray(point, dtype=float) - v0)
    bary = np.concatenate([[1.0 - coeff.sum()], coeff])
    return bool(np.all(bary >= -slack))


def classify(point: CorrelationTriple, slack: float = 1e-9) -> TetraMembership:
    p = point.as_array()
    return TetraMembership(
        in_spatial=in_hull(p, SPATIAL_TETRA, slack),
        in_temporal=in_hull(p, TEMPORAL_TETRA, slack),
    )


# -- postselection -----------------------------------------------------------


class UndefinedPostselectionError(ValueError):
    """All cascade branches are incompatible with the postselection."""


def _postselected_branch_probs(rho, ch: KrausChannel, i: int, j: int, eta):
    pi_plus, pi_minus = linalg.dichotomic_projectors(linalg.PAULIS[i])
    pj_plus, pj_minus = linalg.dichotomic_projectors(linalg.PAULIS[j])
    eta = np.asarray(eta, dtype=complex)
    probs = {}
    for alpha, pa in ((1, pi_plus), (-1, pi_minus)):
        mid = apply(ch, pa @ rho @ pa)
        for beta, pb in ((1, pj_plus), (-1, pj_minus)):
            probs[(alpha, beta)] = np.real(np.trace(eta @ pb @ mid @ pb))
    return probs


def postselected_correlation(rho, ch: KrausChannel, i: int, j: int, eta) -> float:
    """Two-time Pauli correlation conditioned on a final projection eta.

    Returns sum_{ab} ab p_ab / sum_{ab} p_ab with
    p_ab = Tr[eta P_j^b E(P_i^a rho P_i^a) P_j^b]. The value is invariant
    under rescaling eta. Raises UndefinedPostselectionError when every
    branch has zero weight.
    """
    probs = _postselected_branch_probs(rho, ch, i, j, eta)
    total = sum(probs.values())
    if total <= 1e-14:
        raise UndefinedPostselectionError(
            "postselection is incompatible with every measurement branch"
        )
    signed = sum(a * b * p for (a, b), p in probs.items())
    return float(signed / total)


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
    d_eta = eta.shape[0]
    nq_eta = int(round(np.log2(d_eta)))
    if 2**nq_eta != d_eta:
        raise ValueError("eta must act on qubits")
    acc = np.zeros((4 * d_eta, 4 * d_eta), dtype=complex)
    for i in range(4):
        for j in range(4):
            corr = postselected_correlation(rho, ch, i, j, eta)
            acc += corr * linalg.tensor(linalg.PAULIS[i], linalg.PAULIS[j], eta)
    # the eta factor is carried verbatim; bookkeeping treats the two measured
    # qubits plus the eta register as 2 + nq_eta single-qubit slots
    return PDM(n_events=2 + nq_eta, qubits_per_event=1, matrix=acc / 4.0)


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
