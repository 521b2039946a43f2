"""What placed gates reach, level by level, and exact minimization over
complexity-restricted effect sets.

`ReachableSet` is the package's one growth loop: the chain R_0 <= R_1 <= ...
grown from start rows as R_k = R_{k-1} u {step(g, x) : x in R_{k-1}, g in the
alphabet} and deduplicated on entries rounded to 1e-10.  Complex rows are
stored as real views, so one rounding rule, index and provenance serve
effects (`effect_set`: simple projectors pulled back, Q -> E^dag(Q), as packed
Hermitian rows), unitaries (`circuit_complexity`: the identity, V -> U V) and
states (`approx_state_complexity`: |0^n>, psi -> U psi with its global phase
fixed).  `least_level` finds the first level holding a row with a given
property.  `CXTHERM_BUDGET` caps every query, see `check_budget`.

Every exact solver minimizes a score over M_r, the effects
Q = E_1^dag ... E_k^dag(P) that k <= r placed gates pull back from a simple
projector P.  Effects are keyed on Q alone for unitary gate sets, where every
mask-dependent score in this package (tr P, the RESET work) is fixed by Q,
and on (Q, mask) for channel sets, so that a score may read the mask freely
there.  One effect set is cached per (gate-set content, n).

A query at r splits off the first gate, tr(E^dag(Q) X) = tr(Q E(X)): every
operator X is pushed through the identity and each placed gate, and one
matrix product per block of packed rows of M_{r-1} with the packed images
scores all of M_r.  Ties break toward the first candidate in (level, row,
gate) order.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError
from .gates import (
    MATRIX_HASH_DECIMALS,
    BoundedCache,
    Circuit,
    GateSet,
    PlacedGate,
    gate_set_key,
    mask_matrix,
    placed_alphabet,
    simple_effect_from_bits,
)
from .registers import DensityOperator, PovmEffect, register

ScoreFn = Callable[[list[np.ndarray], np.ndarray], np.ndarray]

# rows per batch when R_k is grown and when a query is scored; both bound the
# transient memory
CHUNK_ROWS = 32
QUERY_ROWS = 256
# circuit-count cap used when CXTHERM_BUDGET is unset
DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class BestCandidate:
    value: float
    circuit: Circuit
    mask_bits: int
    effects: int  # rows of M_{r-1} scored
    candidates: int  # (effect, first gate) pairs scored
    cache_hit: bool  # M_{r-1} was already built

    @property
    def circuits_visited(self) -> int:
        """Alias of `candidates`, the count the benchmark tracer reads."""
        return self.candidates


def circuit_count(alphabet_size: int, r: int) -> int:
    return sum(alphabet_size ** k for k in range(r + 1))


def check_budget(alphabet_size: int, r: int) -> None:
    """Refuse r before anything is built when the circuits of at most r
    gates outnumber the cap read from CXTHERM_BUDGET."""
    cap = int(os.environ.get("CXTHERM_BUDGET", DEFAULT_BUDGET))
    total = circuit_count(alphabet_size, r)
    if total > cap:
        raise BudgetExceededError(total, cap)


# ---------------------------------------------------------------------------
# packed Hermitian rows


@lru_cache(maxsize=16)
def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(d, 1)


def pack(mats: np.ndarray) -> np.ndarray:
    """Hermitian (..., d, d) to real (..., d*d) with pack(A) . pack(B) = tr(A B):
    the diagonal, then sqrt(2) times the real and imaginary upper triangle."""
    d = mats.shape[-1]
    i, j = _upper(d)
    off = math.sqrt(2.0) * mats[..., i, j]
    diag = np.diagonal(mats, axis1=-2, axis2=-1).real
    return np.concatenate([diag, off.real, off.imag], axis=-1)


def unpack(rows: np.ndarray, d: int) -> np.ndarray:
    i, j = _upper(d)
    k = len(i)
    out = np.zeros(rows.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    out[..., diag, diag] = rows[..., :d]
    off = (rows[..., d : d + k] + 1j * rows[..., d + k :]) / math.sqrt(2.0)
    out[..., i, j] = off
    out[..., j, i] = off.conj()
    return out


def _rounded(rows: np.ndarray) -> np.ndarray:
    return np.round(rows, MATRIX_HASH_DECIMALS) + 0.0  # + 0.0 turns -0.0 into 0.0


# ---------------------------------------------------------------------------
# the reachable-set chain

Step = Callable[[PlacedGate, np.ndarray], np.ndarray]


class ReachableSet:
    """The chain R_0 <= R_1 <= ... of one alphabet on n qubits, grown on demand.

    rows[:ends[k]] holds R_k.  Row i was found as step(alphabet[gates[i]],
    rows[parents[i]]); level-0 rows (parent -1) are the start rows, and every
    row carries the index of its level-0 root in `masks` (for effects, the
    mask of its simple projector).  With `keyed_by_mask`, equal rows with
    different roots are kept apart.
    """

    def __init__(self, alphabet: tuple[PlacedGate, ...], n: int, start: np.ndarray, step: Step,
                 keyed_by_mask: bool = False):
        self.alphabet = alphabet
        self.n = n
        self.step = step
        self.keyed_by_mask = keyed_by_mask
        self.rows = start
        self.masks = np.arange(len(start))
        self.parents = np.full(len(start), -1)
        self.gates = np.full(len(start), -1)
        self.ends = [len(start)]
        self._index: dict[int, list[int]] = {}
        for i, key in enumerate(_rounded(self.rows)):
            self._index.setdefault(self._hash(key, i), []).append(i)
        self._lock = threading.Lock()

    def _hash(self, key_row: np.ndarray, mask: int) -> int:
        return hash((key_row.tobytes(), mask) if self.keyed_by_mask else key_row.tobytes())

    def upto(self, level: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """(rows, masks) of R_level, and whether they had to be built."""
        with self._lock:
            built = len(self.ends) <= level
            while len(self.ends) <= level:
                self._grow()
            end = self.ends[level]
            return self.rows[:end], self.masks[:end], built

    def _grow(self) -> None:
        lo = self.ends[-2] if len(self.ends) > 1 else 0
        hi = self.ends[-1]
        kept: list[np.ndarray] = []
        masks: list[int] = []
        parents: list[int] = []
        gates: list[int] = []

        def same(j: int, key_row: np.ndarray, mask: int) -> bool:
            row, row_mask = (self.rows[j], self.masks[j]) if j < hi else (kept[j - hi], masks[j - hi])
            return (not self.keyed_by_mask or row_mask == mask) and np.array_equal(_rounded(row), key_row)

        for g, pg in enumerate(self.alphabet):
            for start in range(lo, hi, CHUNK_ROWS):
                stepped = self.step(pg, self.rows[start : start + CHUNK_ROWS])
                for t, key_row in enumerate(_rounded(stepped)):
                    parent = start + t
                    mask = int(self.masks[parent])
                    bucket = self._index.setdefault(self._hash(key_row, mask), [])
                    if any(same(j, key_row, mask) for j in bucket):
                        continue
                    bucket.append(hi + len(kept))
                    kept.append(stepped[t].copy())  # a view would pin the whole batch
                    masks.append(mask)
                    parents.append(parent)
                    gates.append(g)
        self.rows = np.vstack([self.rows, *kept])  # one copy per level
        self.masks = np.concatenate([self.masks, np.array(masks, dtype=int)])
        self.parents = np.concatenate([self.parents, np.array(parents, dtype=int)])
        self.gates = np.concatenate([self.gates, np.array(gates, dtype=int)])
        self.ends.append(hi + len(kept))

    def circuit(self, row: int, first: int | None = None) -> Circuit:
        """The circuit reaching rows[row], preceded by alphabet[first]."""
        placed = [] if first is None else [self.alphabet[first]]
        while self.parents[row] >= 0:
            placed.append(self.alphabet[self.gates[row]])
            row = self.parents[row]
        return Circuit(self.n, tuple((pg.gate, pg.edge) for pg in placed))


def least_level(reach: ReachableSet, r_max: int, hit: Callable[[np.ndarray], np.ndarray]) -> int | float:
    """The least k <= r_max at which `hit(rows)` marks a row of R_k, or
    math.inf.  Each level's circuit count 1 + A + ... + A^k is checked
    against the enumeration budget before the level is built, and the search
    stops once a level adds nothing, since no later level can."""
    for k in range(r_max + 1):
        check_budget(len(reach.alphabet), k)
        new = reach.upto(k)[0][reach.ends[k - 1] if k else 0 :]
        if len(new) == 0:
            break
        if np.any(hit(new)):
            return k
    return math.inf


def _pull_back(pg: PlacedGate, rows: np.ndarray) -> np.ndarray:
    return pack(pg.pullback(unpack(rows, 2 ** pg.n)))


_EFFECT_SETS = BoundedCache()


def effect_set(gate_set: GateSet, n: int) -> ReachableSet:
    """The cached chain M_0 <= M_1 <= ... of this gate-set content on n qubits."""
    alphabet = placed_alphabet(gate_set, n)

    def build() -> ReachableSet:
        projectors = pack(mask_matrix(n)[:, :, None] * np.eye(2 ** n))
        return ReachableSet(alphabet, n, projectors, _pull_back, not gate_set.is_unitary_only)

    return _EFFECT_SETS.get((gate_set_key(gate_set), n), build)


def enumerate_effects(gate_set: GateSet, r: int, n: int) -> Iterator[PovmEffect]:
    """All effects in M_r = {pullbacks of simple effects through <= r gates},
    each with the circuit and simple effect that first reached it.

    Effects equal after rounding to 1e-10 are yielded once (once per mask for
    channel gate sets); this affects only the number of items yielded, never
    the set realized.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if gate_set.kind != "finite":
        raise ValueError("exact enumeration requires a finite gate set")
    effects = effect_set(gate_set, n)
    check_budget(len(effects.alphabet), r)
    rows, masks, _ = effects.upto(r)
    for i in range(len(rows)):
        provenance = (effects.circuit(i), simple_effect_from_bits(n, int(masks[i])))
        yield PovmEffect(register(n), unpack(rows[i], 2 ** n), provenance=provenance)


# ---------------------------------------------------------------------------
# circuit and state complexity


def _real_rows(z: np.ndarray) -> np.ndarray:
    """A stack of complex arrays as real rows, the form a ReachableSet stores."""
    return np.ascontiguousarray(z).reshape(len(z), -1).view(float)


def circuit_complexity(gate_set: GateSet, target: np.ndarray, r_max: int) -> int | float:
    """Least number of placed gates composing to `target` within 1e-8 in
    operator norm; math.inf when r_max is exhausted."""
    target = np.asarray(target, dtype=complex)
    d = target.shape[0]
    n = int(round(math.log2(d)))
    alphabet = placed_alphabet(gate_set, n)
    if not all(pg.gate.is_unitary for pg in alphabet):
        raise ValueError("circuit complexity is defined for unitary gate sets")

    def left_multiply(pg: PlacedGate, rows: np.ndarray) -> np.ndarray:
        return _real_rows(pg.apply_vector(rows.view(complex).reshape(-1, d, d)))

    def matches(rows: np.ndarray) -> np.ndarray:
        return np.linalg.norm(rows.view(complex).reshape(-1, d, d) - target, ord=2, axis=(1, 2)) <= 1e-8

    identity = _real_rows(np.eye(d, dtype=complex)[None])
    return least_level(ReachableSet(alphabet, n, identity, left_multiply), r_max, matches)


def approx_state_complexity(
    psi: DensityOperator | np.ndarray, gate_set: GateSet, eps: float, r_max: int
) -> int | float:
    """Least gate count preparing a state within trace distance eps of psi,
    starting from |0^n>; math.inf when r_max is exhausted."""
    if isinstance(psi, DensityOperator):
        w, v = np.linalg.eigh(psi.matrix)
        if w[-1] < 1.0 - 1e-9:
            raise ValueError("approximate state complexity is defined for pure states")
        target = v[:, -1]
    else:
        target = np.asarray(psi, dtype=complex).ravel()
        target = target / np.linalg.norm(target)
    d = target.size
    n = int(round(math.log2(d)))
    alphabet = placed_alphabet(gate_set, n)
    if not all(pg.gate.is_unitary for pg in alphabet):
        raise ValueError("state complexity is defined for unitary gate sets")

    def prepare(pg: PlacedGate, rows: np.ndarray) -> np.ndarray:
        # the global phase is fixed by making the first nonzero amplitude real
        vecs = pg.apply_vector(rows.view(complex).T).T
        lead = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs) > 1e-12, axis=1)]
        return _real_rows(vecs / (lead / np.abs(lead))[:, None])

    def close(rows: np.ndarray) -> np.ndarray:
        # trace distance between pure states; near zero it carries
        # sqrt(machine-eps) noise, so the slack sits at 1e-7, not finer
        overlap = np.abs(rows.view(complex) @ target.conj()) ** 2
        return np.sqrt(np.maximum(0.0, 1.0 - overlap)) <= eps + 1e-7

    zero = _real_rows(np.eye(1, d, dtype=complex))
    return least_level(ReachableSet(alphabet, n, zero, prepare), r_max, close)


# ---------------------------------------------------------------------------
# queries


def minimize_over_effects(
    gate_set: GateSet,
    n: int,
    r: int,
    operators: Sequence[np.ndarray],
    score_fn: ScoreFn,
) -> BestCandidate:
    """Minimize score_fn over M_r.

    `score_fn(traces, masks)` is called on blocks of at most QUERY_ROWS rows
    of M_{r-1}.  It receives one array per input operator X holding tr(Q X)
    for every candidate Q of the block, shaped (rows, first gates), and the
    candidates' masks shaped (rows, 1).  It returns the scores, broadcastable
    to that shape; np.inf marks an infeasible candidate.
    """
    effects = effect_set(gate_set, n)
    check_budget(len(effects.alphabet), r)
    rows, masks, built = effects.upto(max(r - 1, 0))
    first = effects.alphabet if r > 0 else ()
    width = len(first) + 1
    images = [pack(np.stack([x] + [pg.apply_matrix(x) for pg in first])).T for x in operators]
    best_value, best = math.inf, 0
    for lo in range(0, len(rows), QUERY_ROWS):
        traces = [rows[lo : lo + QUERY_ROWS] @ im for im in images]
        scores = np.broadcast_to(score_fn(traces, masks[lo : lo + QUERY_ROWS, None]), traces[0].shape)
        i = int(np.argmin(scores))
        if scores.flat[i] < best_value:
            best_value, best = float(scores.flat[i]), lo * width + i
    row, g = divmod(best, width)
    circuit = effects.circuit(row, g - 1 if g else None)
    return BestCandidate(best_value, circuit, int(masks[row]), len(rows), len(rows) * width, not built)
