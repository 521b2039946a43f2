"""Labeled multi-qubit registers and dense operators on them.

Conventions: qubit 0 is the first label and the most significant bit of a
basis index, matching ``np.kron`` composition order.  All matrices are dense
complex128.  Entropic quantities elsewhere are in nats.

An operator stores (conj(m^T) + m) * 0.5 of the matrix m it is given.  A
matrix the package owns, one a package routine made and nothing else holds,
is averaged in place: the outer product in `state_from_vector`, the
identity in `maximally_mixed`, a Kronecker product (`tensor`, the inputs
`thermo` extends with ancillas), a partial trace, and what
`gates.apply_circuit` and `thermo.run_protocol` made once a gate, RESET or
EXTRACT has written a new matrix.  Any other matrix, such as the argument
of a public constructor, is never written.

`_trace_out` is the package's one partial trace, for `partial_trace_matrix`
and for the RESET runs of `thermo`, and `_check_same_register` its one rule
that two operands share a register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import RegisterMismatchError

HERMITIAN_TOL = 1e-10
# _hermitize averages a matrix of up to HERMITIZE_WHOLE rows against one
# full adjoint, a larger one a mirrored pair of HERMITIZE_TILE-square tiles
# at a time: below the first, the tiles' per-call cost outweighs the buffer
# they save; the second makes a pair and its adjoints fit in a core's cache
HERMITIZE_WHOLE = 256
HERMITIZE_TILE = 64
EIGENVALUE_FLOOR = -1e-10
# excursions smaller than this are left in place: clamping rebuilds the
# matrix, which is not bit-stable and would break exact round trips
CLAMP_THRESHOLD = -1e-13
MAX_QUBITS = 12
LABEL_PREFIX = "q"


@dataclass(frozen=True)
class QubitRegister:
    """An ordered collection of named qubits."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not (1 <= len(self.labels) <= MAX_QUBITS):
            raise ValueError(f"register size must be in [1, {MAX_QUBITS}]")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("register labels must be unique")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise RegisterMismatchError(f"unknown label {label!r}") from None


def register(n: int) -> QubitRegister:
    """The register q0, ..., q{n-1}."""
    return QubitRegister(tuple(f"{LABEL_PREFIX}{i}" for i in range(n)))


def _hermitize(matrix: np.ndarray, owned: bool = False) -> np.ndarray:
    """(conj(m^T) + m) * 0.5 of a finite m that is Hermitian to HERMITIAN_TOL
    in the row-sum norm.  An owned m is overwritten.  Any other gets one new
    buffer and is never written: up to HERMITIZE_WHOLE rows the average goes
    into the adjoint, above that into a copy of m."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError("operator matrix must be square and non-empty")
    if m.shape[0] <= HERMITIZE_WHOLE:
        # one full adjoint, the row sums a block of rows at a time
        adj = np.conjugate(m.T, order="C")
        dev = scale = 0.0
        step = max(1, 2 ** 14 // m.shape[0])
        for a in range(0, m.shape[0], step):
            # max() would drop a NaN, so each block is looked at first
            block = np.abs(m[a : a + step]).sum(axis=1).max()
            if not math.isfinite(block):
                scale = block
                break
            scale = max(scale, block)
            dev = max(dev, np.abs(m[a : a + step] - adj[a : a + step]).sum(axis=1).max())
        else:
            if not (owned and m.flags.c_contiguous):
                m, adj = adj, m  # the new, C-ordered adjoint is the one copy
            m += adj
            m *= 0.5
    else:
        if not m.flags.c_contiguous or not owned and np.may_share_memory(m, matrix):
            m = np.array(m, order="C")  # every stored matrix is C-ordered
        # an infinite entry makes NaNs on the way; the checks below reject them
        with np.errstate(invalid="ignore"):
            scale, dev = _hermitize_tiles(m)
    # a row sum of |m| is finite iff the row is
    if not math.isfinite(scale):
        raise ValueError("operator matrix has non-finite entries")
    if dev > HERMITIAN_TOL * max(scale, 1.0):
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3g})")
    return m


def _hermitize_tiles(m: np.ndarray) -> tuple[float, float]:
    """Overwrite m with (conj(m^T) + m) * 0.5 a mirrored pair of tiles at a
    time; return the largest row sums of |m| and of |m - conj(m^T)| as they
    were, each accumulated over its tiles."""
    d = m.shape[0]
    sums = np.zeros((2, d))
    for a in range(0, d, HERMITIZE_TILE):
        rows = slice(a, a + HERMITIZE_TILE)
        for b in range(a, d, HERMITIZE_TILE):
            cols = slice(b, b + HERMITIZE_TILE)
            upper, lower = m[rows, cols], m[cols, rows]
            # contiguous copies: each sum is formed in one and copied back
            # once, faster than two passes over a strided tile
            upper_adj = np.conjugate(upper.T, order="C")
            lower_adj = upper_adj if a == b else np.conjugate(lower.T, order="C")
            dev = np.abs(upper - lower_adj)
            sums[0, rows] += np.abs(upper).sum(axis=1)
            sums[1, rows] += dev.sum(axis=1)
            if a != b:
                sums[0, cols] += np.abs(lower).sum(axis=1)
                sums[1, cols] += dev.sum(axis=0)  # |conj z| = |z|, bit for bit
                upper_adj += lower
                upper_adj *= 0.5
                lower[...] = upper_adj
            lower_adj += upper
            lower_adj *= 0.5
            upper[...] = lower_adj
    return tuple(sums.max(axis=1))


def _fitted(reg: QubitRegister, matrix: np.ndarray, owned: bool = False) -> np.ndarray:
    m = _hermitize(matrix, owned)
    if m.shape[0] != reg.dim:
        raise ValueError("matrix dimension does not match register")
    return m


def _clamp_spectrum(matrix: np.ndarray, lo: float | None, hi: float | None) -> np.ndarray:
    """Clamp eigenvalues into [lo, hi]; tiny excursions beyond the stated
    tolerance are rejected upstream, so this only removes numerical noise."""
    w, v = np.linalg.eigh(matrix)
    clipped = np.clip(w, lo, hi)
    if np.array_equal(clipped, w):
        return matrix
    return (v * clipped) @ v.conj().T


@dataclass(frozen=True)
class HermitianOperator:
    register: QubitRegister
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _fitted(self.register, self.matrix))

    @property
    def n(self) -> int:
        return self.register.n

    @property
    def dim(self) -> int:
        return self.register.dim

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class DensityOperator(HermitianOperator):
    """Positive-semidefinite operator with trace in (0, 1]; subnormalized
    states are allowed."""

    def __post_init__(self):
        super().__post_init__()
        w = np.linalg.eigvalsh(self.matrix)
        if w.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"density operator has eigenvalue {w.min():.3g} < {EIGENVALUE_FLOOR}")
        tr = float(np.trace(self.matrix).real)
        if not (0.0 < tr <= 1.0 + 1e-10):
            raise ValueError(f"density operator trace {tr:.12g} outside (0, 1]")
        if w.min() < CLAMP_THRESHOLD:
            object.__setattr__(self, "matrix", _clamp_spectrum(self.matrix, 0.0, None))

    @classmethod
    def _derived(
        cls, reg: QubitRegister, matrix: np.ndarray, owned: bool = False
    ) -> "DensityOperator":
        """A state the package built from checked states by a map that keeps
        states valid (a CPTP gate, RESET, a partial trace, a tensor product).
        The matrix is hermitized exactly as the public constructor stores it,
        in place if `owned`, but its spectrum and trace are not re-checked:
        the inputs were."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "register", reg)
        object.__setattr__(rho, "matrix", _fitted(reg, matrix, owned))
        return rho


@dataclass(frozen=True)
class PovmEffect(HermitianOperator):
    """Measurement effect 0 <= Q <= I, optionally tagged with the provenance
    (circuit, mask bits) of the circuit and simple projector that generated it;
    the bits are None for an effect pulled back from a given effect."""

    provenance: tuple | None = None

    def __post_init__(self):
        super().__post_init__()
        w = np.linalg.eigvalsh(self.matrix)
        if w.min() < EIGENVALUE_FLOOR or w.max() > 1.0 - EIGENVALUE_FLOOR:
            raise ValueError(
                f"effect eigenvalues [{w.min():.3g}, {w.max():.3g}] outside [0, 1]"
            )
        if w.min() < CLAMP_THRESHOLD or w.max() > 1.0 - CLAMP_THRESHOLD:
            object.__setattr__(self, "matrix", _clamp_spectrum(self.matrix, 0.0, 1.0))


def _result_type(a, b):
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator
    if isinstance(a, PovmEffect) and isinstance(b, PovmEffect):
        return PovmEffect
    return HermitianOperator


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product on the concatenated register."""
    if set(a.register.labels) & set(b.register.labels):
        raise RegisterMismatchError("tensor factors share labels")
    reg = QubitRegister(a.register.labels + b.register.labels)
    cls = _result_type(a, b)
    if cls is DensityOperator:
        return DensityOperator._derived(reg, np.kron(a.matrix, b.matrix), owned=True)
    return cls(reg, np.kron(a.matrix, b.matrix))


def partial_trace(op: HermitianOperator, keep: Iterable[str]) -> HermitianOperator:
    """Trace out every qubit not in `keep`; keeps label order of the input."""
    keep = set(keep)
    for lbl in keep:
        op.register.index_of(lbl)
    kept_idx = [i for i, lbl in enumerate(op.register.labels) if lbl in keep]
    if len(kept_idx) == op.n:
        return op
    reduced = partial_trace_matrix(op.matrix, op.n, kept_idx)
    reg = QubitRegister(tuple(op.register.labels[i] for i in kept_idx))
    if isinstance(op, DensityOperator):
        return DensityOperator._derived(reg, reduced, owned=True)
    return HermitianOperator(reg, reduced)


def partial_trace_matrix(matrix: np.ndarray, n: int, kept_idx: Sequence[int]) -> np.ndarray:
    """Partial trace on a 2^n x 2^n matrix, keeping the given qubit positions."""
    if not kept_idx:
        raise ValueError("cannot trace out every qubit")
    dk = 2 ** len(kept_idx)
    traced = [i for i in range(n) if i not in set(kept_idx)]
    return np.ascontiguousarray(_trace_out(matrix, n, traced).reshape(dk, dk))


def _trace_out(matrix: np.ndarray, n: int, qubits: Sequence[int]) -> np.ndarray:
    """The package's one partial trace: the listed qubits of a 2^n x 2^n
    matrix traced out in this order, a repeated one once, each trace into a
    quarter of the last; the first two go straight into sixteenth-size
    buffers, with the sums of one trace after the other.  The axes left are
    the other qubits in register order, for rows and then for columns."""
    traced = list(dict.fromkeys(qubits))
    reduced, left, rest = matrix, list(range(n)), traced
    if len(traced) > 1:
        a, b = traced[:2]
        t = matrix.reshape((2,) * (2 * n))

        def part(x, y):
            at = [slice(None)] * (2 * n)
            at[a], at[n + a], at[b], at[n + b] = x, x, y, y
            return t[tuple(at)]

        # the first trace at b = y is (0 + s_0y) + s_1y, never -0.0, so the
        # second trace's leading 0 + would leave it as it is
        reduced = 0.0 + part(0, 0)
        reduced += part(1, 0)
        ones = 0.0 + part(0, 1)
        ones += part(1, 1)
        reduced += ones
        del ones
        left = [q for q in left if q not in (a, b)]
        rest = traced[2:]
    for q in rest:
        i, k = left.index(q), len(left)
        v = reduced.reshape((2 ** i, 2, 2 ** (k - 1 - i)) * 2)
        # summed from +0.0 as np.trace does: -0.0 + -0.0 alone would keep the sign
        reduced = 0.0 + v[:, 0, :, :, 0, :]
        reduced += v[:, 1, :, :, 1, :]
        left.remove(q)
    return reduced


def hermitian_eig(h: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending, eigenvectors as matching orthonormal columns."""
    w, v = np.linalg.eigh(h.matrix)
    return w[::-1].copy(), v[:, ::-1].copy()


def _psd_factor(matrix: np.ndarray) -> np.ndarray:
    """A with A A^dag = matrix, from eigh: V sqrt(w).  Eigenvalues below
    4 d eps ||matrix|| are the eigensolver's noise on a rank-deficient
    matrix (at most 3.2 eps ||matrix|| on random pure states up to n = 7)
    and count as 0: kept, their square roots would add ~1e-8 to a fidelity."""
    w, v = np.linalg.eigh(matrix)
    floor = 4.0 * len(w) * np.finfo(float).eps * w[-1]
    return v * np.sqrt(np.where(w > floor, w, 0.0))


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """F(rho, sigma) = tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    For any factors rho = A A^dag and sigma = B B^dag, F is the trace norm
    of A^dag B, the sum of its singular values; unlike square roots of
    eigenvalues of sqrt(rho) sigma sqrt(rho), these carry absolute error
    ~eps, so F is exact to rounding on rank-deficient states too."""
    _check_same_register(rho, sigma)
    a = _psd_factor(rho.matrix)
    b = _psd_factor(sigma.matrix)
    return float(min(np.linalg.svd(a.conj().T @ b, compute_uv=False).sum(), 1.0))


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    _check_same_register(rho, sigma)
    w = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.abs(w).sum())


def state_distance(rho: DensityOperator, sigma: DensityOperator, metric: str) -> float:
    if metric == "fidelity":
        return fidelity(rho, sigma)
    if metric == "trace":
        return trace_distance(rho, sigma)
    raise ValueError(f"unknown metric {metric!r}")


def _check_same_register(a: HermitianOperator, b: HermitianOperator):
    if a.register.labels != b.register.labels:
        raise RegisterMismatchError("operators live on different registers")


# ---------------------------------------------------------------------------
# common states


def state_from_vector(vec: np.ndarray, reg: QubitRegister | None = None) -> DensityOperator:
    """|v><v| / <v|v>; a nonzero finite v makes it rank one with unit trace,
    so it needs no eigensolver."""
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"state vector must be finite and nonzero, norm {norm:.3g}")
    v = v / norm
    n = int(round(np.log2(v.size)))
    if 2 ** n != v.size:
        raise ValueError("vector length is not a power of two")
    return DensityOperator._derived(reg or register(n), np.outer(v, v.conj()), owned=True)


def zero_state(n: int) -> DensityOperator:
    v = np.zeros(2 ** n)
    v[0] = 1.0
    return state_from_vector(v)


def ones_state(n: int) -> DensityOperator:
    v = np.zeros(2 ** n)
    v[-1] = 1.0
    return state_from_vector(v)


def ghz_state(n: int) -> DensityOperator:
    v = np.zeros(2 ** n)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return state_from_vector(v)


def maximally_mixed(n: int) -> DensityOperator:
    """I / 2^n, valid by construction, so it needs no eigensolver."""
    d = 2 ** n
    m = np.eye(d, dtype=complex)
    m /= d
    return DensityOperator._derived(register(n), m, owned=True)
