"""Process matrices with indefinite causal order.

A bipartite process matrix W lives on A_I (x) A_O (x) B_I (x) B_O (global
past and future trivial). Local operations enter as Choi matrices with the
input factor first, C(M) = sum_{ij} |i><j| (x) M(|i><j|), and correlations
read p(a,b|x,y) = Tr[W^T (A_{a|x} (x) B_{b|y})] with the transpose taken
over all four factors. A probability table is the float array p[a, b, x, y],
and an instrument holds its Choi matrices as ops[a, x]; outcomes a, b and
inputs x, y are indexed from 0.

Validity requires W >= 0, Tr W = d_{A_O} d_{B_O}, and L_V(W) = W for the
projector onto the valid subspace, in closed form as seven signed
trace-and-replace terms (Araujo et al., New J. Phys. 17, 102001 (2015)):

    L_V(W) = _{A_O}W + _{B_O}W - _{A_O B_O}W - _{B_I B_O}W + _{A_O B_I B_O}W
             - _{A_I A_O}W + _{A_I A_O B_O}W,   _X W = (1_X / d_X) (x) Tr_X W.

In the traceless-basis decomposition a valid W contains only the identity,
reduced states on the input spaces, and the two one-way signalling families;
L_V keeps exactly those and projects away everything touching an output space
alone (local or global loops).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from spacetimeq import linalg
from spacetimeq.linalg import I2, KET0, KET1, X, Z

SLOTS = ("A_I", "A_O", "B_I", "B_O")
KETS = (KET0, KET1)

#: The (sign, slot indices) of L_V's seven trace-and-replace terms, slots indexing ``SLOTS``.
VALID_SUBSPACE_TERMS = (
    (1, (1,)), (1, (3,)), (-1, (1, 3)), (-1, (2, 3)), (1, (1, 2, 3)), (-1, (0, 1)), (1, (0, 1, 3)),
)


@dataclass(frozen=True)
class ProcessMatrix:
    """Operator on A_I (x) A_O (x) B_I (x) B_O."""

    w: np.ndarray
    dims: tuple[int, int, int, int] = (2, 2, 2, 2)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        d = int(np.prod(self.dims))
        if w.shape != (d, d):
            raise ValueError("matrix shape inconsistent with subsystem dims")
        if not linalg.is_hermitian(w, atol=1e-8):
            raise ValueError("process matrix must be Hermitian")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class ProcessValidity:
    psd: bool
    trace_ok: bool
    projector_fixed: bool
    min_eigenvalue: float
    trace: float
    projector_residual: float

    @property
    def is_valid(self) -> bool:
        return self.psd and self.trace_ok and self.projector_fixed


def trace_and_replace(w: np.ndarray, dims, slots) -> np.ndarray:
    """The prescript map _X W = (1_X / d_X) (x) Tr_X W over the slot indices in ``slots``.

    Works on the (dims) x 2 tensor: per slot, trace the row and column axes, tensor in 1/d, and
    move the two new axes back into place.
    """
    n = len(dims)
    t = np.asarray(w, dtype=complex).reshape(tuple(dims) * 2)
    for k in sorted(slots):
        t = np.multiply.outer(np.trace(t, axis1=k, axis2=n + k), np.eye(dims[k]) / dims[k])
        t = np.moveaxis(t, (-2, -1), (k, n + k))
    return t.reshape(np.shape(w))


def lv_project(w: ProcessMatrix) -> ProcessMatrix:
    """Project onto the valid subspace: the signed sum of _X W over ``VALID_SUBSPACE_TERMS``."""
    acc = sum(sign * trace_and_replace(w.w, w.dims, slots) for sign, slots in VALID_SUBSPACE_TERMS)
    return ProcessMatrix(w=acc, dims=w.dims)


def is_valid_process(w: ProcessMatrix) -> ProcessValidity:
    """Check positivity, trace normalization, and the projector fixed point, each within 1e-8."""
    eigs = np.linalg.eigvalsh(w.w)
    trace = float(np.real(np.trace(w.w)))
    expected_trace = w.dims[1] * w.dims[3]  # d_{A_O} d_{B_O}, past/future trivial
    projected = lv_project(w).w
    residual = linalg.margin(projected, w.w)
    return ProcessValidity(
        psd=bool(eigs.min() >= -1e-8),
        trace_ok=bool(abs(trace - expected_trace) <= 1e-8 * max(1.0, expected_trace)),
        projector_fixed=bool(residual <= 1e-8),
        min_eigenvalue=float(eigs.min()),
        trace=trace,
        projector_residual=residual,
    )


# -- local operations ---------------------------------------------------------


def maxent_choi(u: np.ndarray | None = None) -> np.ndarray:
    """[[U]] = sum_{ij} |i><j| (x) U|i><j|U^dag = vec(U^T) vec(U^T)^dag, vec = ravel; U = 1_2 if None.

    The input-first Choi matrix of U: the factor swap of ``channels.choi_of_channel``, the
    package's one Choi builder, on ``channels.unitary_channel(U)``.
    """
    v = (np.eye(2, dtype=complex) if u is None else np.asarray(u, dtype=complex)).T.ravel()
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class Instrument:
    """CP maps A_{a|x} as input-first Choi matrices ``ops[a, x]`` on X_I (x) X_O.

    ``ops`` is shaped (outcomes, inputs, d_in d_out, d_in d_out); a branch that an input never
    produces is a zero matrix.
    """

    ops: np.ndarray
    dims: tuple[int, int] = (2, 2)

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=complex)
        d = self.dims[0] * self.dims[1]
        if ops.ndim != 4 or ops.shape[2:] != (d, d):
            raise ValueError(f"instrument operators must be shaped (outcomes, inputs, {d}, {d}), "
                             f"got {ops.shape}")
        object.__setattr__(self, "ops", ops)

    def completeness_defect(self, x: int) -> float:
        """Max deviation of sum_a Tr_out A_{a|x} from the identity on the input."""
        marg = linalg.partial_trace(self.ops[:, x].sum(axis=0), self.dims, keep=0)
        return linalg.margin(marg, np.eye(self.dims[0]))


def probability_table(w: ProcessMatrix, a: Instrument, b: Instrument) -> np.ndarray:
    """The table p[a, b, x, y] = Tr[W^T (A_{a|x} (x) B_{b|y})] over both parties' outcomes and inputs."""
    d_a, d_b = w.dims[0] * w.dims[1], w.dims[2] * w.dims[3]
    if a.ops.shape[2] != d_a or b.ops.shape[2] != d_b:
        raise ValueError("instrument dimensions do not match the process matrix")
    return np.einsum("uvUV,axuU,byvV->abxy", w.w.reshape(d_a, d_b, d_a, d_b), a.ops, b.ops).real


def _checked_indices(p: np.ndarray) -> np.ndarray:
    """The index grids a, b, x, y of a (2, 2, 2, 2) table ``p``, once the entries of every input pair sum to 1."""
    if p.shape != (2, 2, 2, 2):
        raise ValueError("GYNI and LGYNI need two outcomes and two inputs per party, a (2, 2, 2, 2) table, "
                         f"got shape {p.shape}")
    off = np.argwhere(np.abs(p.sum(axis=(0, 1)) - 1.0) > 1e-8)
    if len(off):
        raise ValueError(f"probability table not normalized at inputs {tuple(off[0].tolist())}")
    return np.indices(p.shape)


def gyni_score(p: np.ndarray) -> float:
    """Guess-your-neighbour's-input success, (1/4) sum delta_{a,y} delta_{b,x} p."""
    a, b, x, y = _checked_indices(p)
    return 0.25 * float(p[(a == y) & (b == x)].sum())


def lgyni_score(p: np.ndarray) -> float:
    """Lazy GYNI success, (1/4) sum [x(a+y)=0][y(b+x)=0] p (mod-2 sums)."""
    a, b, x, y = _checked_indices(p)
    return 0.25 * float(p[(x * ((a + y) % 2) == 0) & (y * ((b + x) % 2) == 0)].sum())


# -- the causal-inequality-violating example ----------------------------------


def ocb_process() -> ProcessMatrix:
    """The qubit process matrix whose correlations beat GYNI and LGYNI.

    W = (1/4)[ 1 + (Z_{A_I} Z_{A_O} Z_{B_I} + Z_{A_I} X_{B_I} X_{B_O}) / sqrt 2 ].
    """
    w = 0.25 * (
        linalg.tensor(I2, I2, I2, I2)
        + (linalg.tensor(Z, Z, Z, I2) + linalg.tensor(Z, I2, X, X)) / np.sqrt(2.0)
    )
    return ProcessMatrix(w=w)


def violating_operations() -> Instrument:
    """Two-input, two-outcome strategy achieving (5/16)(1 + 1/sqrt 2) on GYNI.

    Input 0: always answer 1 and forward the qubit untouched. Input 1:
    measure Z, answer the outcome, and re-prepare the opposite Z eigenstate.
    Both instruments are trace-preserving per input.
    """
    p0, p1 = linalg.projector(KET0), linalg.projector(KET1)
    return Instrument(ops=[[np.zeros((4, 4)), linalg.tensor(p0, p1)],
                           [maxent_choi(), linalg.tensor(p1, p0)]])


def identity_process(u: np.ndarray | None = None) -> ProcessMatrix:
    """Causally ordered qubit process: the maximally mixed state into A, channel U from A_O to B_I.

    W = (1/2)^{A_I} (x) [[U]]^{A_O B_I} (x) 1^{B_O}, with U = 1 when omitted.
    """
    return ProcessMatrix(w=linalg.tensor(I2 / 2.0, maxent_choi(u), I2))


def pauli_measure_forward_instrument(i: int) -> Instrument:
    """Measure sigma_i and forward the post-measurement eigenstate; outcome 0 is +1, outcome 1 is -1.

    The Choi matrix of X -> P X P is P^T (x) P, so the transposed input leg
    is part of the operator; for X and Z projectors the transpose is
    invisible and the signed sum collapses to (1 (x) sigma + sigma (x) 1)/2,
    while Y keeps the extra transpose.
    """
    plus, minus = linalg.dichotomic_projectors(linalg.pauli_string_matrix([i]))
    return Instrument(ops=[[linalg.tensor(plus.T, plus)], [linalg.tensor(minus.T, minus)]])


def pauli_pair_correlation(w: ProcessMatrix, i: int, j: int) -> float:
    """Signed outcome correlation of Pauli events at the two laboratories.

    The sum s p[:, :, 0, 0] s over the two Pauli instruments' table, s = (1, -1). It
    equals Tr[W^T (Sigma_i (x) Sigma_j)] and, for a state-plus-unitary process,
    reproduces (1/2) Tr[sigma_j U sigma_i U^dag].
    """
    s = np.array([1.0, -1.0])
    p = probability_table(w, pauli_measure_forward_instrument(i), pauli_measure_forward_instrument(j))
    return float(s @ p[:, :, 0, 0] @ s)


def gyni_demo() -> tuple[float, float]:
    """GYNI and LGYNI scores of the violating process and operations."""
    w = ocb_process()
    inst = violating_operations()
    p = probability_table(w, inst, inst)
    return gyni_score(p), lgyni_score(p)


# -- the same game played through an ancilla-augmented spacetime state --------


def ancilla_pdm(x: int, y: int) -> np.ndarray:
    """Four-qubit spacetime state with the inputs loaded into ancillas.

    (1/4)[ |x><x| (x) 1 (x) |y><y| (x) 1 + (Z Z Z 1 + Z 1 X X)/sqrt 2 ]
    on X (x) A (x) Y (x) B. Hermitian and unit trace; the signalling terms
    coincide with those of the process matrix.
    """
    px, py = linalg.projector(KETS[x]), linalg.projector(KETS[y])
    return 0.25 * (
        linalg.tensor(px, I2, py, I2)
        + (linalg.tensor(Z, Z, Z, I2) + linalg.tensor(Z, I2, X, X)) / np.sqrt(2.0)
    )


def ancilla_probability_table(w: ProcessMatrix, a: Instrument, b: Instrument) -> np.ndarray:
    """``probability_table`` through the ancilla route: the inputs live in ancilla registers.

    Each party applies one fixed input-controlled instrument
    hat A_a = sum_x |x><x| (x) A_{a|x} to its ancilla-process pair; the
    ancilla preparation |x><x| selects the branch, so pairing the controlled
    instruments against ancilla (x) process reproduces the direct traces.
    """
    (k_a, m_a), (k_b, m_b) = a.ops.shape[:2], b.ops.shape[:2]
    controlled_a, controlled_b = _controlled_ops(a), _controlled_ops(b)
    dims = (controlled_a.shape[1], controlled_b.shape[1]) * 2
    table = np.empty((k_a, k_b, m_a, m_b))
    for x, y in np.ndindex(m_a, m_b):  # Tr[B^T (hat A_a (x) hat B_b)] for every outcome pair at once
        background = _expand_ancilla(_ancilla(m_a, x), _ancilla(m_b, y), w).reshape(dims)
        table[:, :, x, y] = np.einsum("pqPQ,apP,bqQ->ab", background, controlled_a, controlled_b).real
    return table


def pdm_gyni_demo() -> tuple[float, float]:
    """GYNI and LGYNI scores of the violating process and operations, through the ancilla route."""
    inst = violating_operations()
    p = ancilla_probability_table(ocb_process(), inst, inst)
    return gyni_score(p), lgyni_score(p)


def _ancilla(n_inputs: int, x: int) -> np.ndarray:
    """|x><x| on one ancilla level per input."""
    return np.diag(np.eye(n_inputs)[x])


def _controlled_ops(inst: Instrument) -> np.ndarray:
    """hat A_a = sum_x |x><x| (x) A_{a|x} on ancilla (x) input (x) output, as one (k, m D, m D) array."""
    k, m, d = inst.ops.shape[:3]
    return np.einsum("xy,axij->axiyj", np.eye(m), inst.ops).reshape(k, m * d, m * d)


def _expand_ancilla(anc_a: np.ndarray, anc_b: np.ndarray, w: ProcessMatrix) -> np.ndarray:
    """Arrange the X (x) Y ancillas and W into X A_I A_O Y B_I B_O order.

    The ancilla transposes cancel because the preparations are real
    projectors, so the combined background pairs against the controlled
    instruments exactly as W^T pairs against A (x) B.
    """
    dims = (len(anc_a), len(anc_b), w.dims[0] * w.dims[1], w.dims[2] * w.dims[3])
    t = linalg.tensor(anc_a, anc_b, w.w).reshape(dims * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return t.reshape(int(np.prod(dims)), -1)


# -- causal polytope -----------------------------------------------------------


def count_causal_vertices(m_a: int, m_b: int, k_a: int, k_b: int) -> int:
    """Closed-form vertex count of the bipartite causal polytope."""
    if min(m_a, m_b, k_a, k_b) < 1:
        raise ValueError("all input/output cardinalities must be >= 1")
    return k_a**m_a * k_b ** (m_a * m_b) + k_a ** (m_a * m_b) * k_b**m_b - k_a**m_a * k_b**m_b


def enumerate_causal_vertices(m_a: int, m_b: int, k_a: int, k_b: int) -> list:
    """Deterministic one-way-signalling strategies, deduplicated.

    A-first strategies: a = f(x), b = g(x, y); B-first strategies:
    a = f(x, y), b = g(y). Each strategy is returned as a tuple of
    outcome pairs indexed by (x, y).
    """
    tables = set()
    xs, ys = range(m_a), range(m_b)

    for f in itertools.product(range(k_a), repeat=m_a):
        for g in itertools.product(range(k_b), repeat=m_a * m_b):
            tables.add(
                tuple((f[x], g[x * m_b + y]) for x in xs for y in ys)
            )
    for f in itertools.product(range(k_a), repeat=m_a * m_b):
        for g in itertools.product(range(k_b), repeat=m_b):
            tables.add(
                tuple((f[x * m_b + y], g[y]) for x in xs for y in ys)
            )
    return sorted(tables)


def vertex_probability_table(vertex, m_a: int, m_b: int, k_a: int, k_b: int) -> np.ndarray:
    """Deterministic strategy as the 0/1 table p[a, b, x, y].

    ``vertex`` lists the outcome pair (a, b) of each input pair (x, y), y varying fastest.
    """
    if len(vertex) != m_a * m_b:
        raise ValueError(f"a vertex holds {m_a * m_b} outcome pairs, one per input pair, got {len(vertex)}")
    table = np.zeros((k_a, k_b, m_a, m_b))
    for (a, b), (x, y) in zip(vertex, itertools.product(range(m_a), range(m_b))):
        if not (0 <= a < k_a and 0 <= b < k_b):
            raise ValueError(f"outcome pair {(a, b)} at inputs {(x, y)} is outside 0..{k_a - 1} x 0..{k_b - 1}")
        table[a, b, x, y] = 1.0
    return table
