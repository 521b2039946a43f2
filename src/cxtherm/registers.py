"""Labeled multi-qubit registers and dense operators on them.

Conventions: qubit 0 is the first label and the most significant bit of a
basis index, matching ``np.kron`` composition order.  All matrices are dense
complex128.  Entropic quantities elsewhere are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import sqrtm

from .errors import RegisterMismatchError

HERMITIAN_TOL = 1e-10
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


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("operator matrix must be square")
    # one d x d buffer: the result is built in place, the norms a row block at a time
    out = np.empty_like(m, order="C")
    np.conjugate(m.T, out=out)
    dev = scale = 0.0
    step = max(1, 2 ** 14 // m.shape[0])
    for a in range(0, m.shape[0], step):
        dev = max(dev, np.abs(m[a : a + step] - out[a : a + step]).sum(axis=1).max())
        scale = max(scale, np.abs(m[a : a + step]).sum(axis=1).max())
    if dev > HERMITIAN_TOL * max(scale, 1.0):
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3g})")
    out += m
    out *= 0.5
    return out


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
        m = _hermitize(self.matrix)
        if m.shape[0] != self.register.dim:
            raise ValueError("matrix dimension does not match register")
        object.__setattr__(self, "matrix", m)

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


@dataclass(frozen=True)
class PovmEffect(HermitianOperator):
    """Measurement effect 0 <= Q <= I, optionally tagged with the circuit and
    simple effect that generated it."""

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
    return _result_type(a, b)(reg, np.kron(a.matrix, b.matrix))


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
    cls = DensityOperator if isinstance(op, DensityOperator) else HermitianOperator
    return cls(reg, reduced)


def partial_trace_matrix(matrix: np.ndarray, n: int, kept_idx: Sequence[int]) -> np.ndarray:
    """Partial trace on a 2^n x 2^n matrix, keeping the given qubit positions."""
    if not kept_idx:
        raise ValueError("cannot trace out every qubit")
    traced = [i for i in range(n) if i not in set(kept_idx)]
    t = matrix.reshape((2,) * (2 * n))
    for off, ax in enumerate(sorted(traced)):
        k = n - off  # qubits remaining in the tensor
        t = np.trace(t, axis1=ax - off, axis2=ax - off + k)
    dk = 2 ** len(kept_idx)
    return np.ascontiguousarray(t.reshape(dk, dk))


def hermitian_eig(h: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending, eigenvectors as matching orthonormal columns."""
    w, v = np.linalg.eigh(h.matrix)
    return w[::-1].copy(), v[:, ::-1].copy()


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """F(rho, sigma) = tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    _check_same_register(rho, sigma)
    s = sqrtm(rho.matrix)
    inner = sqrtm(s @ sigma.matrix @ s)
    return float(min(np.trace(inner).real, 1.0))


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
    v = np.asarray(vec, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    n = int(round(np.log2(v.size)))
    if 2 ** n != v.size:
        raise ValueError("vector length is not a power of two")
    return DensityOperator(reg or register(n), np.outer(v, v.conj()))


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
    d = 2 ** n
    return DensityOperator(register(n), np.eye(d) / d)
