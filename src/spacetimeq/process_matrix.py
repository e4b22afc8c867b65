"""Process matrices with indefinite causal order.

A bipartite process matrix W lives on A_I (x) A_O (x) B_I (x) B_O (global
past and future trivial). Local operations enter as Choi matrices with the
input factor first, C(M) = sum_{ij} |i><j| (x) M(|i><j|), and correlations
read p(a,b|x,y) = Tr[W^T (A_{a|x} (x) B_{b|y})] with the transpose taken
over all four factors.

Validity requires W >= 0, Tr W = d_{A_O} d_{B_O}, and invariance under the
projector onto the span of allowed term types: in the traceless-basis
decomposition a valid W contains only the identity, reduced states on the
input spaces, and the two one-way signalling families; everything touching
an output space alone (local or global loops) is projected away.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from spacetimeq import linalg
from spacetimeq.linalg import I2, KET0, KET1, X, Z

SLOTS = ("A_I", "A_O", "B_I", "B_O")
KETS = (KET0, KET1)

#: Subsets of slots on which a term may act nontrivially in a valid W.
ALLOWED_TERM_TYPES = frozenset(
    [
        frozenset(),
        frozenset({"A_I"}),
        frozenset({"B_I"}),
        frozenset({"A_I", "B_I"}),
        frozenset({"A_O", "B_I"}),
        frozenset({"A_I", "A_O", "B_I"}),
        frozenset({"A_I", "B_O"}),
        frozenset({"A_I", "B_I", "B_O"}),
    ]
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
    """Replace the listed tensor factors by normalized identities.

    This is the prescript map _X W = (1_X / d_X) (x) Tr_X W, applied to
    every slot index in ``slots``.
    """
    out = np.asarray(w, dtype=complex)
    for slot in sorted(slots):
        n = len(dims)
        keep = [k for k in range(n) if k != slot]
        reduced = linalg.partial_trace(out, dims, keep=keep)
        eye = np.eye(dims[slot], dtype=complex) / dims[slot]
        out = _insert_factor(reduced, [dims[k] for k in keep], eye, slot)
    return out


def _insert_factor(m: np.ndarray, dims_wo, factor: np.ndarray, position: int) -> np.ndarray:
    """Tensor ``factor`` into ``m`` so it sits at ``position`` among the factors."""
    left = int(np.prod(dims_wo[:position])) if position > 0 else 1
    right = int(np.prod(dims_wo[position:])) if position < len(dims_wo) else 1
    d_f = factor.shape[0]
    t = m.reshape(left, right, left, right)
    # row axes (left, factor, right), column axes likewise
    out = np.einsum("abcd,ef->aebcfd", t, factor, optimize=True)
    return out.reshape(left * d_f * right, left * d_f * right)


def _component(w: np.ndarray, dims, nontrivial: frozenset) -> np.ndarray:
    """Part of w acting nontrivially exactly on the named slots."""
    out = np.asarray(w, dtype=complex)
    for k, name in enumerate(SLOTS):
        replaced = trace_and_replace(out, dims, [k])
        if name in nontrivial:
            out = out - replaced  # traceless part on this slot
        else:
            out = replaced  # identity part on this slot
    return out


def lv_project(w: ProcessMatrix) -> ProcessMatrix:
    """Project onto the linear span of valid process-matrix terms."""
    acc = np.zeros_like(np.asarray(w.w, dtype=complex))
    for term_type in ALLOWED_TERM_TYPES:
        acc += _component(w.w, w.dims, term_type)
    return ProcessMatrix(w=acc, dims=w.dims)


def is_valid_process(w: ProcessMatrix, tol: float = 1e-8) -> ProcessValidity:
    """Check positivity, trace normalization, and the projector fixed point."""
    eigs = np.linalg.eigvalsh(w.w)
    trace = float(np.real(np.trace(w.w)))
    expected_trace = w.dims[1] * w.dims[3]  # d_{A_O} d_{B_O}, past/future trivial
    projected = lv_project(w).w
    residual = float(np.max(np.abs(projected - w.w)))
    return ProcessValidity(
        psd=bool(eigs.min() >= -max(tol, 1e-9)),
        trace_ok=bool(abs(trace - expected_trace) <= tol * max(1.0, expected_trace)),
        projector_fixed=bool(residual <= tol),
        min_eigenvalue=float(eigs.min()),
        trace=trace,
        projector_residual=residual,
    )


# -- local operations ---------------------------------------------------------


def choi_input_first(kraus_ops) -> np.ndarray:
    """Choi matrix sum_{ij} |i><j| (x) M(|i><j|) of a CP map (input first).

    In closed form sum_k vec(K^T) vec(K^T)^dag with vec = ravel, the factor swap of
    ``channels.choi_of_channel``.
    """
    vecs = [np.asarray(k, dtype=complex).T.ravel() for k in kraus_ops]
    return sum(np.outer(v, v.conj()) for v in vecs)


def maxent_choi(u: np.ndarray | None = None, d: int = 2) -> np.ndarray:
    """[[U]] = (1 (x) U) sum_{ij}|ii><jj| (1 (x) U^dag); identity when U is None."""
    if u is None:
        u = np.eye(d, dtype=complex)
    return choi_input_first([u])


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed CP maps per classical input, as input-first Choi matrices."""

    cj_ops: dict  # (outcome, input) -> matrix on X_I (x) X_O
    dims: tuple[int, int] = (2, 2)

    def outcomes(self, x: int):
        return sorted(a for (a, xx) in self.cj_ops if xx == x)

    def inputs(self):
        return sorted({xx for (_, xx) in self.cj_ops})

    def completeness_defect(self, x: int) -> float:
        """Max deviation of sum_a Tr_out A_{a|x} from the identity on the input."""
        d_in, d_out = self.dims
        total = sum(np.asarray(self.cj_ops[(a, x)], dtype=complex) for a in self.outcomes(x))
        marg = linalg.partial_trace(total, (d_in, d_out), keep=0)
        return float(np.max(np.abs(marg - np.eye(d_in))))


def process_correlation(
    w: ProcessMatrix, a: Instrument, b: Instrument, x: int, y: int, a_out: int, b_out: int
) -> float:
    """p(a,b|x,y) = Tr[W^T (A_{a|x} (x) B_{b|y})]."""
    op_a = np.asarray(a.cj_ops[(a_out, x)], dtype=complex)
    op_b = np.asarray(b.cj_ops[(b_out, y)], dtype=complex)
    joint = linalg.tensor(op_a, op_b)
    if joint.shape != w.w.shape:
        raise ValueError("instrument dimensions do not match the process matrix")
    return float(np.real(np.trace(w.w.T @ joint)))


def probability_table(w: ProcessMatrix, a: Instrument, b: Instrument) -> dict:
    """Full table {(a, b, x, y): p} over both parties' inputs and outcomes."""
    table = {}
    for x in a.inputs():
        for y in b.inputs():
            for ao in a.outcomes(x):
                for bo in b.outcomes(y):
                    table[(ao, bo, x, y)] = process_correlation(w, a, b, x, y, ao, bo)
    return table


def _check_normalized(p: dict, tol: float = 1e-8):
    pairs = sorted({(x, y) for (_, _, x, y) in p})
    for x, y in pairs:
        total = sum(v for (a, b, xx, yy), v in p.items() if (xx, yy) == (x, y))
        if abs(total - 1.0) > tol:
            raise ValueError(f"probability table not normalized at inputs {(x, y)}")


def gyni_score(p: dict) -> float:
    """Guess-your-neighbour's-input success, (1/4) sum delta_{a,y} delta_{b,x} p."""
    _check_normalized(p)
    return 0.25 * sum(v for (a, b, x, y), v in p.items() if a == y and b == x)


def lgyni_score(p: dict) -> float:
    """Lazy GYNI success, (1/4) sum [x(a+y)=0][y(b+x)=0] p (mod-2 sums)."""
    _check_normalized(p)
    return 0.25 * sum(
        v
        for (a, b, x, y), v in p.items()
        if (x * ((a + y) % 2)) == 0 and (y * ((b + x) % 2)) == 0
    )


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
    ops = {
        (0, 0): np.zeros((4, 4), dtype=complex),
        (1, 0): maxent_choi(),
        (0, 1): linalg.tensor(p0, p1),
        (1, 1): linalg.tensor(p1, p0),
    }
    return Instrument(cj_ops=ops)


def identity_process(u: np.ndarray | None = None, rho: np.ndarray | None = None) -> ProcessMatrix:
    """Causally ordered process: state rho into A, channel U from A_O to B_I.

    W = rho^{A_I} (x) [[U]]^{A_O B_I} (x) 1^{B_O}.
    """
    if rho is None:
        rho = I2 / 2.0
    return ProcessMatrix(w=linalg.tensor(np.asarray(rho, dtype=complex), maxent_choi(u), I2))


def pauli_measure_forward_instrument(i: int) -> Instrument:
    """Measure sigma_i and forward the post-measurement eigenstate.

    The Choi matrix of X -> P X P is P^T (x) P, so the transposed input leg
    is part of the operator; for X and Z projectors the transpose is
    invisible and the signed sum collapses to (1 (x) sigma + sigma (x) 1)/2,
    while Y keeps the extra transpose.
    """
    plus, minus = linalg.dichotomic_projectors(linalg.PAULIS[i])
    ops = {
        (1, 0): linalg.tensor(plus.T, plus),
        (-1, 0): linalg.tensor(minus.T, minus),
    }
    return Instrument(cj_ops=ops)


def pauli_observable_cj(i: int) -> np.ndarray:
    """Signed Choi observable sum_a a (P_i^a)^T (x) P_i^a of the Pauli event."""
    inst = pauli_measure_forward_instrument(i)
    return inst.cj_ops[(1, 0)] - inst.cj_ops[(-1, 0)]


def pauli_pair_correlation(w: ProcessMatrix, i: int, j: int) -> float:
    """Signed outcome correlation of Pauli events at the two laboratories.

    Equals Tr[W^T (Sigma_i (x) Sigma_j)] and, for a state-plus-unitary
    process, reproduces (1/2) Tr[sigma_j U sigma_i U^dag].
    """
    op = linalg.tensor(pauli_observable_cj(i), pauli_observable_cj(j))
    return float(np.real(np.trace(w.w.T @ op)))


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


def pdm_gyni_demo() -> tuple[float, float]:
    """Scores of the ancilla route: inputs live in ancilla registers.

    Each party applies one fixed input-controlled instrument
    hat A_a = sum_x |x><x| (x) A_{a|x} to its ancilla-process pair; the
    ancilla preparation |x><x| selects the branch. Evaluating the controlled
    instruments against ancilla (x) process reproduces the same traces as
    the direct process pairing.
    """
    w = ocb_process()
    inst = violating_operations()
    table = {}
    for x in (0, 1):
        for y in (0, 1):
            anc = linalg.tensor(linalg.projector(KETS[x]), linalg.projector(KETS[y]))
            background = _expand_ancilla(anc, w.w)
            for a in (0, 1):
                for b in (0, 1):
                    joint = linalg.tensor(_controlled_op(inst, a), _controlled_op(inst, b))
                    table[(a, b, x, y)] = float(np.real(np.trace(background.T @ joint)))
    return gyni_score(table), lgyni_score(table)


def _controlled_op(inst: Instrument, outcome: int) -> np.ndarray:
    """hat A_a = sum_x |x><x| (x) A_{a|x} on ancilla (x) input (x) output."""
    blocks = [np.asarray(inst.cj_ops[(outcome, x)], dtype=complex) for x in (0, 1)]
    out = np.zeros((8, 8), dtype=complex)
    for x, blk in enumerate(blocks):
        out += linalg.tensor(linalg.projector(KETS[x]), blk)
    return out


def _expand_ancilla(anc: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Arrange X (x) Y ancillas and W into X A_I A_O Y B_I B_O order.

    The ancilla transposes cancel because the preparations are real
    projectors, so the combined background pairs against the controlled
    instruments exactly as W^T pairs against A (x) B.
    """
    # anc on X (x) Y ; w on A_I A_O B_I B_O
    full = linalg.tensor(anc, w)  # X Y A_I A_O B_I B_O
    dims = (2, 2, 4, 4)
    # permute to X A_IA_O Y B_IB_O
    t = full.reshape(dims + dims)
    perm = (0, 2, 1, 3)
    t = t.transpose(perm + tuple(p + 4 for p in perm))
    d = 64
    return t.reshape(d, d)


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


def vertex_probability_table(vertex, m_a: int, m_b: int, k_a: int, k_b: int) -> dict:
    """Deterministic strategy as a {(a, b, x, y): 0/1} probability table."""
    table = {
        (a, b, x, y): 0.0
        for a in range(k_a)
        for b in range(k_b)
        for x in range(m_a)
        for y in range(m_b)
    }
    idx = 0
    for x in range(m_a):
        for y in range(m_b):
            a, b = vertex[idx]
            idx += 1
            table[(a, b, x, y)] = 1.0
    return table
