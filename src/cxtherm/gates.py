"""Two-qubit gate sets, placed gates, circuits, and simple projectors.

A gate is always a 4x4 unitary or a 4x4-Kraus channel; single-qubit actions
are carried as u (x) I factors.  One kernel, `_contract`, applies every gate
locally to a batch of statevectors or matrices: it moves the edge's axes to
the front and multiplies by the gate as one 2^k x 2^k matrix.  An input of
more than BLOCK_ENTRIES entries is contracted a block at a time into one
preallocated output, so a gate on a 2^n x 2^n matrix holds the input, the
output and blocks of 1 MiB, where one product over the whole matrix would
keep two full temporaries alive (16 MiB each at n = 10).  A `PlacedGate`
binds a gate to an edge and runs the same kernel, so no gate is ever
embedded in the full register.  `placed_alphabet` deduplicates placements
on the gates' own qubits.  Circuit cost counts placed non-identity gates.

A simple projector |0><0|_S (x) I is named by the int mask bits m of the
qubit set S: qubit i is in S iff bit n-1-i of m is set, the bit that qubit i
sets in a basis-state index.  So P_m accepts basis state b iff b & m == 0.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .registers import DensityOperator, PovmEffect, register

MATRIX_HASH_DECIMALS = 10
# the most entries that one product of the local kernel takes at a time:
# 1 MiB of complex entries
BLOCK_ENTRIES = 2 ** 16


def _rounded(a: np.ndarray) -> np.ndarray:
    """The one dedup rule of rows and placed gates: round, fold -0.0 into 0.0."""
    return np.round(a, MATRIX_HASH_DECIMALS) + 0.0


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

    @cached_property
    def adjoint_superoperator(self) -> np.ndarray:
        """sum_K K^dag (x) K^T, the Heisenberg-picture map: `superoperator`
        conjugated, with input and output swapped."""
        return np.ascontiguousarray(self.superoperator.conj().transpose(4, 5, 6, 7, 0, 1, 2, 3))

    @cached_property
    def content_key(self) -> tuple[str, bytes]:
        """Name and matrix bytes, the gate's part of `gate_set_key`."""
        mats = (self.unitary,) if self.is_unitary else self.kraus
        return self.name, b"".join(m.tobytes() for m in mats)


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
    return (
        gate_set.kind,
        gate_set.connectivity,
        tuple(g.content_key for g in gate_set.gates),
        tuple((g.content_key, e) for g, e in gate_set.placed_extra),
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


@lru_cache(maxsize=1024)
def _layout(k: int, n: int, m: int, i: int, j: int) -> tuple[tuple, tuple, tuple]:
    """For a (2,)*2k tensor on ordered qubits (i, j) of batch items with m
    indices of 2^n: the (2,)*nm view after the batch axis, the input axis
    order that moves the k contracted axes to the front, and the
    permutation that puts the product's axes back in place."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid edge ({i}, {j}) on {n} qubits")
    axes = (1 + i, 1 + j, 1 + n + i, 1 + n + j)[:k]
    order = axes + tuple(a for a in range(1 + n * m) if a not in axes)
    return (2,) * (n * m), order, tuple(np.argsort(order))


@lru_cache(maxsize=1024)
def _blocks(k: int, n: int, m: int, i: int, j: int, limit: int) -> tuple[tuple, tuple, tuple, tuple]:
    """`_layout` for one batch item of more than `limit` entries, a block at
    a time: the leading free axes that are fixed so that a block holds at
    most `limit` entries, the axis order that puts them in front, and a
    block's input axis order and output permutation."""
    _, order, _ = _layout(k, n, m, i, j)
    free, fixed, rest = list(order[k + 1 :]), [], 2 ** (n * m)
    while rest > limit and free:
        fixed.append(free.pop(0))
        rest //= 2
    inner = [a for a in range(1, 1 + n * m) if a not in fixed]
    block_order = tuple(inner.index(a) for a in order[:k] + tuple(free))
    split = tuple(a - 1 for a in fixed + inner)  # an item has no batch axis
    return (2,) * len(fixed), split, block_order, tuple(np.argsort(block_order))


def _contract(tensor: np.ndarray, edge: tuple[int, int], x: np.ndarray) -> np.ndarray:
    """Contract the trailing half of a (2,)*2k gate tensor with the axes of
    ordered qubits `edge` in each item of x, a batch (leading axis, any length)
    of 2^n statevectors or 2^n x 2^n matrices; its leading half takes their
    place.  k = 2 acts on a matrix's row index, k = 4 on both indices.  One
    2^k x 2^k matrix product on x with the contracted axes moved to the front.
    An x of more than BLOCK_ENTRIES entries goes into one preallocated output
    a block of at most that many entries at a time: a slice of the batch, or
    part of one item with its leading free axes fixed.  A block's columns are
    a run of the single product's columns, so every bit is the same."""
    k = tensor.ndim // 2
    n = x.shape[-1].bit_length() - 1
    if x.size <= BLOCK_ENTRIES:
        return _product(tensor, edge, x, k, n)
    out = np.empty(x.shape, np.result_type(tensor, x))
    if x[0].size <= BLOCK_ENTRIES:
        # a lone one-column item joins the slice before it: alone, numpy
        # would take it as a matrix-vector product, which rounds differently
        step, lone = BLOCK_ENTRIES // x[0].size, x[0].size == 2 ** k
        starts = range(0, len(x) - lone, step)
        for a, b in zip(starts, [*starts[1:], len(x)]):
            out[a:b] = _product(tensor, edge, x[a:b], k, n)
        return out
    fixed, split, order, perm = _blocks(k, n, x.ndim - 1, int(edge[0]), int(edge[1]), BLOCK_ENTRIES)
    gate, view = tensor.reshape(2 ** k, 2 ** k), (2,) * (n * (x.ndim - 1))
    for item, dest in zip(x, out):
        xs, outs = item.reshape(view).transpose(split), dest.reshape(view).transpose(split)
        for at in np.ndindex(*fixed):
            block = xs[at]
            outs[at] = (gate @ block.transpose(order).reshape(2 ** k, -1)).reshape(block.shape).transpose(perm)
    return out


def _product(tensor: np.ndarray, edge: tuple[int, int], x: np.ndarray, k: int, n: int) -> np.ndarray:
    """`_contract` as one product over the whole batch."""
    view, order, perm = _layout(k, n, x.ndim - 1, int(edge[0]), int(edge[1]))
    # the moved copy of x is a temporary of the product, freed before the last copy
    y = tensor.reshape(2 ** k, 2 ** k) @ x.reshape(x.shape[:1] + view).transpose(order).reshape(2 ** k, -1)
    return y.reshape(view[:k] + x.shape[:1] + view[k:]).transpose(perm).reshape(x.shape)


def apply_local(gate: Gate, edge: tuple[int, int], sigma: np.ndarray) -> np.ndarray:
    """sum_K K sigma K^dag for the gate on ordered qubits `edge`, in O(16 d^2),
    on a matrix or a batch of them."""
    d = sigma.shape[-1]
    return _contract(gate.superoperator, edge, sigma.reshape(-1, d, d)).reshape(sigma.shape)


def pullback_local(gate: Gate, edge: tuple[int, int], effect: np.ndarray) -> np.ndarray:
    """sum_K K^dag Q K on a matrix or a batch of them."""
    d = effect.shape[-1]
    return _contract(gate.adjoint_superoperator, edge, effect.reshape(-1, d, d)).reshape(effect.shape)


def apply_local_vector(gate: Gate, edge: tuple[int, int], vec: np.ndarray) -> np.ndarray:
    """U psi for a unitary gate on ordered qubits `edge`, in O(4 d), on each
    statevector along the last axis of vec."""
    if not gate.is_unitary:
        raise ValueError(f"channel {gate.name!r} cannot act on a statevector")
    return _contract(gate.unitary.reshape((2,) * 4), edge, vec.reshape(-1, vec.shape[-1])).reshape(vec.shape)


class PlacedGate:
    """A gate bound to an edge of an n-qubit register, applied by the local
    kernel."""

    def __init__(self, gate: Gate, edge: tuple[int, int], n: int):
        self.gate = gate
        self.edge = (int(edge[0]), int(edge[1]))
        self.n = n

    def apply_matrix(self, sigma: np.ndarray) -> np.ndarray:
        """sum_K K sigma K^dag on a matrix or a batch of them."""
        return apply_local(self.gate, self.edge, sigma)

    def apply_vector(self, vec: np.ndarray) -> np.ndarray:
        """U psi for each statevector along the last axis."""
        return apply_local_vector(self.gate, self.edge, vec)

    def pullback(self, effect: np.ndarray) -> np.ndarray:
        """Heisenberg-picture adjoint sum_K K^dag Q K on an effect matrix or a
        batch of them."""
        return pullback_local(self.gate, self.edge, effect)


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

    Of the placements whose rounded full-register action coincides (e.g.
    H (x) I on edges (0,1) and (0,2)) the first is kept, found by a key on
    the gate's own qubits.  Cached per gate-set content and n.
    """
    if gate_set.kind != "finite":
        raise ValueError("placed alphabet requires a finite gate set")
    return _ALPHABETS.get((gate_set_key(gate_set), n), lambda: _place(gate_set, n))


def _placement_key(gate: Gate, edge: tuple[int, int]) -> tuple:
    """The rounded Kraus tensor on the qubits the gate acts on, ascending:
    equal for two placements exactly when their rounded embeddings are."""
    ks = _rounded(np.stack((gate.unitary,) if gate.is_unitary else gate.kraus))
    qubits = sorted(edge)
    if edge[0] > edge[1]:  # swap the gate into sorted order
        ks = ks.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3).reshape(-1, 4, 4)
    if np.array_equal(ks, np.kron(ks[:, ::2, ::2], I2)):  # a (x) I
        ks, qubits = ks[:, ::2, ::2], qubits[:1]
    elif np.array_equal(ks, np.kron(I2, ks[:, :2, :2])):  # I (x) b
        ks, qubits = ks[:, :2, :2], qubits[1:]
    if len(qubits) == 1 and np.array_equal(ks, ks[:, :1, :1] * I2):  # a phase times I
        ks, qubits = ks[:, :1, :1], []
    return tuple(qubits), ks.tobytes()


def _place(gate_set: GateSet, n: int) -> tuple[PlacedGate, ...]:
    pairs = edges(gate_set.connectivity, n)
    placements = [(g, e) for g in gate_set.gates if not g.is_identity for e in pairs]
    placements += [(g, e) for g, e in gate_set.placed_extra if max(e) < n]
    first: dict[tuple, PlacedGate] = {}
    for gate, e in placements:
        first.setdefault(_placement_key(gate, e), PlacedGate(gate, e, n))
    return tuple(first.values())


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
    return DensityOperator._derived(rho.register, sigma, owned=sigma is not rho.matrix)


@lru_cache(maxsize=16)
def mask_matrix(n: int) -> np.ndarray:
    """Row m, column b: 1.0 iff basis state b is accepted by mask m, i.e.
    b & m == 0, so the mask traces of a state are mask_matrix(n) @ diag(sigma).
    """
    d = 2 ** n
    b = np.arange(d)
    return ((b[None, :] & b[:, None]) == 0).astype(float)


@lru_cache(maxsize=16)
def mask_traces_identity(n: int) -> np.ndarray:
    """tr(P_m) for every mask m."""
    return mask_matrix(n).sum(axis=1)


def pullback_effect(circuit: Circuit, effect: int | PovmEffect) -> PovmEffect:
    """Q = E_1^dag ... E_r^dag(P) for the circuit E_r ... E_1, where P is the
    simple projector of these mask bits or a given effect."""
    if isinstance(effect, PovmEffect):
        p, bits = effect.matrix, None
    else:
        p, bits = np.diag(mask_matrix(circuit.n)[effect].astype(complex)), effect
    for gate, edge in reversed(circuit.ops):
        p = pullback_local(gate, edge, p)
    return PovmEffect(register(circuit.n), p, provenance=(circuit, bits))


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
    entries = []
    for ln in lines:
        try:
            re, im = map(float, ln.split())
        except ValueError:
            raise ValueError(f"malformed entry line {ln!r}, expected 're im'") from None
        entries.append(complex(re, im))
    return np.array(entries, dtype=complex).reshape(dim, dim)


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
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "connectivity":
        raise ValueError(f"gate-set file must start with 'connectivity <graph>', got {' '.join(head)!r}")
    connectivity = head[1]
    gates: list[Gate] = []
    pos = 1
    while pos < len(lines):
        decl, parts = lines[pos], lines[pos].split()
        kind = parts[2] if len(parts) > 2 else None
        if (parts[0] != "gate" or len(parts) != (4 if kind == "channel" else 3)
                or kind == "channel" and not parts[3].isdecimal()):
            raise ValueError(f"malformed gate declaration {decl!r}")
        if kind not in ("unitary", "channel"):
            raise ValueError(f"unknown gate kind {kind!r}")
        count = int(parts[3]) if kind == "channel" else 1
        block = lines[pos + 1 : pos + 1 + 16 * count]
        try:
            mats = [parse_matrix(block[16 * c : 16 * c + 16], 4) for c in range(count)]
        except ValueError:
            raise ValueError(f"gate declaration {decl!r} needs {16 * count} 're im' lines") from None
        gates.append(unitary_gate(parts[1], mats[0]) if kind == "unitary" else channel_gate(parts[1], mats))
        pos += 1 + 16 * count
    return GateSet("finite", tuple(gates), connectivity)
