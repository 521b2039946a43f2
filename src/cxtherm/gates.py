"""Two-qubit gate sets, placed gates, circuits, and simple effects.

A gate is always a 4x4 unitary or a 4x4-Kraus channel; single-qubit actions
are carried as u (x) I factors.  A gate applied once acts locally on the
(2,)*n view of a statevector or the (2,)*2n view of a matrix; only
`placed_alphabet` builds full 2^n x 2^n embeddings (`PlacedGate`), for the
effect-set engine, which reuses one alphabet many times.  Circuit cost
counts placed non-identity gates.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .registers import DensityOperator, PovmEffect, register

MATRIX_HASH_DECIMALS = 10


# ---------------------------------------------------------------------------
# gates and gate sets

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
T = np.diag([1.0, np.exp(1j * math.pi / 4)]).astype(complex)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT_R = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class Gate:
    """A 4x4 unitary gate or Kraus channel acting on one edge.

    Identity-based equality: matrices make value equality ill-defined."""

    name: str
    unitary: np.ndarray | None = field(default=None, repr=False)
    kraus: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.unitary is None) == (self.kraus is None):
            raise ValueError("gate needs exactly one of unitary / kraus")
        if self.unitary is not None:
            u = np.asarray(self.unitary, dtype=complex)
            if u.shape != (4, 4):
                raise ValueError("gate unitary must be 4x4")
            if np.linalg.norm(u @ u.conj().T - np.eye(4), ord=2) > 1e-10:
                raise ValueError(f"gate {self.name!r} is not unitary")
            object.__setattr__(self, "unitary", u)
        else:
            ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
            if any(k.shape != (4, 4) for k in ks):
                raise ValueError("kraus operators must be 4x4")
            tp = sum(k.conj().T @ k for k in ks)
            if np.linalg.norm(tp - np.eye(4), ord=2) > 1e-9:
                raise ValueError(f"channel {self.name!r} is not trace-preserving")
            object.__setattr__(self, "kraus", ks)

    @property
    def is_unitary(self) -> bool:
        return self.unitary is not None

    @property
    def is_identity(self) -> bool:
        return self.is_unitary and bool(np.allclose(self.unitary, np.eye(4), atol=1e-12))

    @cached_property
    def superoperator(self) -> np.ndarray:
        """sum_K K (x) conj(K) as a (2,)*8 tensor with axes (out row i, j,
        out column i, j, in row i, j, in column i, j)."""
        ks = np.stack((self.unitary,) if self.is_unitary else self.kraus)
        return np.einsum("kac,kbd->abcd", ks, ks.conj()).reshape((2,) * 8)


def unitary_gate(name: str, matrix: np.ndarray) -> Gate:
    return Gate(name, unitary=np.asarray(matrix, dtype=complex))


def channel_gate(name: str, kraus: Sequence[np.ndarray]) -> Gate:
    return Gate(name, kraus=tuple(kraus))


@dataclass(frozen=True)
class GateSet:
    """Finite alphabet (or the continuous SU(4) family) plus connectivity.

    The identity is always available and never counts toward circuit cost.
    `placed_extra` holds edge-specific gates (e.g. thermal channels whose
    Kraus operators depend on the qubit energies of that edge).
    """

    kind: str  # "finite" | "continuous_su4"
    gates: tuple[Gate, ...] = ()
    connectivity: str = "all-to-all"
    placed_extra: tuple[tuple[Gate, tuple[int, int]], ...] = ()

    def __post_init__(self):
        if self.kind not in ("finite", "continuous_su4"):
            raise ValueError(f"unknown gate-set kind {self.kind!r}")
        if self.connectivity not in ("all-to-all", "chain"):
            raise ValueError(f"unknown connectivity {self.connectivity!r}")

    @property
    def is_unitary_only(self) -> bool:
        return all(g.is_unitary for g in self.gates) and all(
            g.is_unitary for g, _ in self.placed_extra
        )


def gate_set_key(gate_set: GateSet) -> tuple:
    """Content key of a gate set: kind, connectivity, and every gate's name
    and matrices.  Names count because witness circuits print them."""

    def gate_key(gate: Gate) -> tuple[str, bytes]:
        mats = (gate.unitary,) if gate.is_unitary else gate.kraus
        return gate.name, b"".join(m.tobytes() for m in mats)

    return (
        gate_set.kind,
        gate_set.connectivity,
        tuple(gate_key(g) for g in gate_set.gates),
        tuple((gate_key(g), e) for g, e in gate_set.placed_extra),
    )


def edges(connectivity: str, n: int) -> list[tuple[int, int]]:
    """Unordered edges (i < j) of the connectivity graph on n qubits."""
    if connectivity == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def default_gate_set(connectivity: str = "all-to-all") -> GateSet:
    """Small universal-ish set used for exact enumerations.

    Closed under adjoints (T and its inverse are both present), so every
    circuit's inverse is again a circuit of the same length.
    """
    gates = (
        unitary_gate("cnot", CNOT),
        unitary_gate("cnot_r", CNOT_R),
        unitary_gate("cz", CZ),
        unitary_gate("swap", SWAP),
        unitary_gate("xx", np.kron(X, X)),
        unitary_gate("x_a", np.kron(X, I2)),
        unitary_gate("x_b", np.kron(I2, X)),
        unitary_gate("h_a", np.kron(H, I2)),
        unitary_gate("h_b", np.kron(I2, H)),
        unitary_gate("t_a", np.kron(T, I2)),
        unitary_gate("t_b", np.kron(I2, T)),
        unitary_gate("tdg_a", np.kron(T.conj().T, I2)),
        unitary_gate("tdg_b", np.kron(I2, T.conj().T)),
    )
    return GateSet("finite", gates, connectivity)


def continuous_su4_gate_set(connectivity: str = "all-to-all") -> GateSet:
    return GateSet("continuous_su4", (), connectivity)


# ---------------------------------------------------------------------------
# local application and embedding into the full register


def expand_operator(mat: np.ndarray, n: int, positions: Sequence[int]) -> np.ndarray:
    """Embed an operator on the given qubit positions (in that order) into the
    full 2^n register, acting as identity elsewhere."""
    positions = [int(p) for p in positions]
    k = len(positions)
    if len(set(positions)) != k or not all(0 <= p < n for p in positions):
        raise ValueError(f"invalid qubit positions {positions} on {n} qubits")
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2 ** k, 2 ** k):
        raise ValueError("operator dimension does not match position count")
    if positions == list(range(n)):
        return mat
    rest = [q for q in range(n) if q not in positions]
    order = positions + rest
    big = np.kron(mat, np.eye(2 ** (n - k), dtype=complex)) if rest else mat
    t = big.reshape((2,) * (2 * n))
    perm = [0] * n
    for pos, q in enumerate(order):
        perm[q] = pos
    axes = perm + [p + n for p in perm]
    return np.ascontiguousarray(t.transpose(axes).reshape(2 ** n, 2 ** n))


def _contract(tensor: np.ndarray, edge: tuple[int, int], x: np.ndarray) -> np.ndarray:
    """Contract the trailing half of a (2,)*2k gate tensor with the axes of
    ordered qubits `edge` in the (2,)*... view of x, a 2^n statevector (k = 2)
    or 2^n x 2^n matrix (k = 4); its leading half takes their place."""
    k = tensor.ndim // 2
    view = (2,) * (x.size.bit_length() - 1)
    n = 2 * len(view) // k
    i, j = int(edge[0]), int(edge[1])
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid edge ({i}, {j}) on {n} qubits")
    axes = [i, j, n + i, n + j][:k]
    out = np.tensordot(tensor, x.reshape(view), axes=(list(range(k, 2 * k)), axes))
    return np.ascontiguousarray(np.moveaxis(out, range(k), axes)).reshape(x.shape)


def apply_local(gate: Gate, edge: tuple[int, int], sigma: np.ndarray) -> np.ndarray:
    """sum_K K sigma K^dag for the gate on ordered qubits `edge`, in O(16 d^2)."""
    return _contract(gate.superoperator, edge, sigma)


def pullback_local(gate: Gate, edge: tuple[int, int], effect: np.ndarray) -> np.ndarray:
    """sum_K K^dag Q K: the conjugated superoperator, input and output swapped."""
    return _contract(gate.superoperator.conj().transpose(4, 5, 6, 7, 0, 1, 2, 3), edge, effect)


def apply_local_vector(gate: Gate, edge: tuple[int, int], vec: np.ndarray) -> np.ndarray:
    """U psi for a unitary gate on ordered qubits `edge`, in O(4 d)."""
    if not gate.is_unitary:
        raise ValueError(f"channel {gate.name!r} cannot act on a statevector")
    return _contract(gate.unitary.reshape((2,) * 4), edge, vec)


class PlacedGate:
    """A gate bound to an edge of an n-qubit register, with cached embeddings."""

    __slots__ = ("gate", "edge", "n", "unitary_full", "kraus_full")

    def __init__(self, gate: Gate, edge: tuple[int, int], n: int):
        self.gate = gate
        self.edge = (int(edge[0]), int(edge[1]))
        self.n = n
        mats = (gate.unitary,) if gate.is_unitary else gate.kraus
        self.kraus_full = tuple(expand_operator(k, n, self.edge) for k in mats)
        self.unitary_full = self.kraus_full[0] if gate.is_unitary else None

    def apply_matrix(self, sigma: np.ndarray) -> np.ndarray:
        out = None
        for k in self.kraus_full:
            term = k @ sigma @ k.conj().T
            out = term if out is None else out + term
        return out

    def apply_vector(self, vec: np.ndarray) -> np.ndarray:
        return self.unitary_full @ vec

    def pullback(self, effect: np.ndarray) -> np.ndarray:
        """Heisenberg-picture adjoint applied to an effect matrix."""
        out = None
        for k in self.kraus_full:
            term = k.conj().T @ effect @ k
            out = term if out is None else out + term
        return out

    def matrix_key(self) -> bytes:
        return b"".join(np.round(m, MATRIX_HASH_DECIMALS).tobytes() for m in self.kraus_full)


class BoundedCache:
    """A lock-guarded map that keeps its `maxsize` most recently used entries;
    a missing entry is built once, under the lock."""

    def __init__(self, maxsize: int = 16):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
            value = self._data[key] = build()
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            return value


_ALPHABETS = BoundedCache()


def placed_alphabet(gate_set: GateSet, n: int) -> tuple[PlacedGate, ...]:
    """All distinct placed gates on the connectivity graph, identity excluded.

    Gates whose full-register action coincides (e.g. H (x) I on edges (0,1)
    and (0,2)) are deduplicated.  Cached per gate-set content and n.
    """
    if gate_set.kind != "finite":
        raise ValueError("placed alphabet requires a finite gate set")
    return _ALPHABETS.get((gate_set_key(gate_set), n), lambda: _place(gate_set, n))


def _place(gate_set: GateSet, n: int) -> tuple[PlacedGate, ...]:
    out: list[PlacedGate] = []
    seen: set[bytes] = set()
    pairs = list(edges(gate_set.connectivity, n))
    for gate in gate_set.gates:
        if gate.is_identity:
            continue
        for e in pairs:
            pg = PlacedGate(gate, e, n)
            key = pg.matrix_key()
            if key not in seen:
                seen.add(key)
                out.append(pg)
    for gate, e in gate_set.placed_extra:
        if max(e) >= n:
            continue
        pg = PlacedGate(gate, e, n)
        key = pg.matrix_key()
        if key not in seen:
            seen.add(key)
            out.append(pg)
    return tuple(out)


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class Circuit:
    """Ordered placed operations; cost counts non-identity gates."""

    n: int
    ops: tuple[tuple[Gate, tuple[int, int]], ...] = ()

    @property
    def complexity(self) -> int:
        return sum(1 for g, _ in self.ops if not g.is_identity)


def apply_circuit(circuit: Circuit, rho: DensityOperator) -> DensityOperator:
    if rho.register.n != circuit.n:
        raise ValueError("register size does not match circuit")
    sigma = rho.matrix
    for gate, edge in circuit.ops:
        sigma = apply_local(gate, edge, sigma)
    return DensityOperator(rho.register, sigma)


@dataclass(frozen=True)
class SimpleEffect:
    """Tensor product of |0><0| (masked qubits) and identity factors."""

    mask: tuple[bool, ...]

    @property
    def n(self) -> int:
        return len(self.mask)

    @property
    def trace(self) -> float:
        return float(2 ** sum(1 for m in self.mask if not m))

    def matrix(self) -> np.ndarray:
        diag = mask_matrix(self.n)[mask_bits(self.mask)]
        return np.diag(diag.astype(complex))


def mask_bits(mask: Sequence[bool]) -> int:
    """Mask as an integer whose bit layout matches basis-state indices."""
    n = len(mask)
    return sum(1 << (n - 1 - i) for i, m in enumerate(mask) if m)


def simple_effect_from_bits(n: int, bits: int) -> SimpleEffect:
    return SimpleEffect(tuple(bool((bits >> (n - 1 - i)) & 1) for i in range(n)))


def iter_simple_effects(n: int) -> Iterator[SimpleEffect]:
    for bits in range(2 ** n):
        yield simple_effect_from_bits(n, bits)


@lru_cache(maxsize=16)
def mask_matrix(n: int) -> np.ndarray:
    """Row m, column b: 1.0 iff basis state b is accepted by mask m.

    With bit-aligned masks this is just b & m == 0, so mask traces of a state
    are mask_matrix(n) @ diag(sigma).
    """
    d = 2 ** n
    b = np.arange(d)
    return ((b[None, :] & b[:, None]) == 0).astype(float)


@lru_cache(maxsize=16)
def mask_traces_identity(n: int) -> np.ndarray:
    """tr(P_m) for every mask m."""
    return mask_matrix(n).sum(axis=1)


def pullback_effect(circuit: Circuit, effect: SimpleEffect | PovmEffect) -> PovmEffect:
    """Q = E_1^dag ... E_r^dag(P) for the circuit E_r ... E_1."""
    simple = effect if isinstance(effect, SimpleEffect) else None
    p = effect.matrix() if simple is not None else effect.matrix
    for gate, edge in reversed(circuit.ops):
        p = pullback_local(gate, edge, p)
    return PovmEffect(register(circuit.n), p, provenance=(circuit, simple))


def inverse_circuit(circuit: Circuit, gate_set: GateSet | None = None) -> Circuit | None:
    """The reversed-adjoint circuit, or None when some adjoint gate is not in
    the gate set.  For a state psi = V|0^n>, pulling a simple projector back
    through this circuit yields the rank-1 certificate V P V^dag in M_r."""
    ops = []
    pool: list[Gate] | None = None
    if gate_set is not None:
        pool = [g for g in gate_set.gates if g.is_unitary]
        pool.extend(g for g, _ in gate_set.placed_extra if g.is_unitary)
    for gate, edge in reversed(circuit.ops):
        if not gate.is_unitary:
            return None
        adj = gate.unitary.conj().T
        if pool is None:
            ops.append((unitary_gate(gate.name + "_inv", adj), edge))
            continue
        match = next((g for g in pool if np.allclose(g.unitary, adj, atol=1e-12)), None)
        if match is None:
            return None
        ops.append((match, edge))
    return Circuit(circuit.n, tuple(ops))


# ---------------------------------------------------------------------------
# unitary geometry


def entangling_power(u: np.ndarray) -> tuple[float, float]:
    """(e(U), half diamond distance to the identity process).

    e(U) is the half-angle of the shortest arc on the unit circle containing
    every eigenphase of U; the distance is sin(min(e, pi/2)).
    """
    u = np.asarray(u, dtype=complex)
    if np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0]), ord=2) > 1e-9:
        raise ValueError("input is not unitary")
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(phases, append=phases[0] + 2.0 * math.pi)
    arc = 2.0 * math.pi - float(gaps.max())
    e = 0.5 * arc
    dist = math.sin(min(e, 0.5 * math.pi))
    if dist > np.linalg.norm(u - np.eye(u.shape[0]), ord=2) + 1e-9:
        raise AssertionError("diamond distance exceeded ||U - I||")
    return e, dist


# ---------------------------------------------------------------------------
# channels


def gibbs_check(gate: Gate, gamma_pair: np.ndarray) -> bool:
    """True iff the gate leaves the two-qubit Gibbs weight invariant.

    The gate is CPTP already: its Kraus operators are trace-preserving (checked
    when the `Gate` was built) and any Kraus list is completely positive."""
    kraus = (gate.unitary,) if gate.is_unitary else gate.kraus
    gamma_pair = np.asarray(gamma_pair, dtype=complex)
    image = sum(k @ gamma_pair @ k.conj().T for k in kraus)
    w = np.linalg.eigvalsh(image - gamma_pair)
    return bool(np.abs(w).sum() <= 1e-9)


# ---------------------------------------------------------------------------
# gate-set files

_COMPLEX_FMT = "%.17g %.17g"


def format_matrix(m: np.ndarray) -> list[str]:
    """One "re im" line per entry, row-major, exact on reading back."""
    return [_COMPLEX_FMT % (z.real, z.imag) for z in np.asarray(m, dtype=complex).ravel()]


def parse_matrix(lines: list[str], dim: int) -> np.ndarray:
    pairs = [ln.split() for ln in lines]
    return np.array([complex(float(re), float(im)) for re, im in pairs], dtype=complex).reshape(dim, dim)


def format_gate_set(gate_set: GateSet) -> str:
    if gate_set.kind != "finite" or gate_set.placed_extra:
        raise ValueError("only uniform finite gate sets can be serialized")
    lines = [f"connectivity {gate_set.connectivity}"]
    for gate in gate_set.gates:
        if gate.is_unitary:
            lines.append(f"gate {gate.name} unitary")
            lines.extend(format_matrix(gate.unitary))
        else:
            lines.append(f"gate {gate.name} channel {len(gate.kraus)}")
            for k in gate.kraus:
                lines.extend(format_matrix(k))
    return "\n".join(lines) + "\n"


def parse_gate_set(text: str) -> GateSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("connectivity"):
        raise ValueError("gate-set file must start with a connectivity line")
    connectivity = lines[0].split()[1]
    gates: list[Gate] = []
    pos = 1
    while pos < len(lines):
        parts = lines[pos].split()
        if parts[0] != "gate":
            raise ValueError(f"expected gate declaration, got {lines[pos]!r}")
        name, kind = parts[1], parts[2]
        pos += 1
        if kind == "unitary":
            gates.append(unitary_gate(name, parse_matrix(lines[pos : pos + 16], 4)))
            pos += 16
        elif kind == "channel":
            count = int(parts[3])
            gates.append(channel_gate(name, [parse_matrix(lines[pos + 16 * c : pos + 16 * c + 16], 4)
                                             for c in range(count)]))
            pos += 16 * count
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
    return GateSet("finite", tuple(gates), connectivity)
