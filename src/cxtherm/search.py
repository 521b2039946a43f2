"""Exact minimization over complexity-restricted effect sets.

Every exact solver in this package minimizes a score over M_r, the effects
Q = E_1^dag ... E_k^dag(P) that k <= r placed gates pull back from a simple
projector P.  `EffectSet` holds the chain M_0 <= M_1 <= ... of one gate set on
n qubits, grown level by level as M_k = M_{k-1} u {E^dag(Q) : Q in M_{k-1}}
and deduplicated on entries rounded to 1e-10.  The key is Q alone for unitary
gate sets, where every mask-dependent score in this package (tr P, the RESET
work) is fixed by Q, and (Q, mask) for channel sets, so that a score may read
the mask freely there.  One EffectSet is cached per (gate-set content, n).

A query at r splits off the first gate, tr(E^dag(Q) X) = tr(Q E(X)): every
operator X is pushed through the identity and each placed gate, and one
matrix product per block of packed rows of M_{r-1} with the packed images
scores all of M_r.  Ties break toward the first candidate in (level, row,
gate) order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .gates import (
    MATRIX_HASH_DECIMALS,
    BoundedCache,
    Circuit,
    GateSet,
    PlacedGate,
    enumeration_budget,
    gate_set_key,
    mask_matrix,
    placed_alphabet,
)

ScoreFn = Callable[[list[np.ndarray], np.ndarray], np.ndarray]

# rows per batch when M_k is grown and when a query is scored; both bound the
# transient memory
CHUNK_ROWS = 32
QUERY_ROWS = 256


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


def check_budget(alphabet_size: int, r: int, budget: int | None) -> None:
    """Refuse r before anything is built when the circuits of at most r
    gates outnumber the enumeration budget."""
    cap = enumeration_budget(budget)
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
# the effect-set chain


class EffectSet:
    """The chain M_0 <= M_1 <= ... of one gate set on n qubits, grown on demand.

    rows[:ends[k]] packs M_k.  Row i was found as E^dag(rows[parents[i]]) for
    the placed gate alphabet[gates[i]]; level-0 rows (parent -1) are the simple
    projectors, and every row carries the mask of its level-0 root.
    """

    def __init__(self, alphabet: tuple[PlacedGate, ...], n: int, keyed_by_mask: bool):
        self.alphabet = alphabet
        self.n = n
        self.keyed_by_mask = keyed_by_mask
        d = 2 ** n
        self.rows = pack(mask_matrix(n)[:, :, None] * np.eye(d))
        self.masks = np.arange(d)
        self.parents = np.full(d, -1)
        self.gates = np.full(d, -1)
        self.ends = [d]
        self._index: dict[int, list[int]] = {}
        for i, key in enumerate(_rounded(self.rows)):
            self._index.setdefault(self._hash(key, i), []).append(i)
        self._lock = threading.Lock()

    def _hash(self, key_row: np.ndarray, mask: int) -> int:
        return hash((key_row.tobytes(), mask) if self.keyed_by_mask else key_row.tobytes())

    def upto(self, level: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """(rows, masks) of M_level, and whether they had to be built."""
        with self._lock:
            built = len(self.ends) <= level
            while len(self.ends) <= level:
                self._grow()
            end = self.ends[level]
            return self.rows[:end], self.masks[:end], built

    def _grow(self) -> None:
        d = 2 ** self.n
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
            adjoints = [(k.conj().T, k) for k in pg.kraus_full]
            for start in range(lo, hi, CHUNK_ROWS):
                q = unpack(self.rows[start : start + CHUNK_ROWS], d)
                pulled = pack(sum(kd @ q @ k for kd, k in adjoints))
                for t, key_row in enumerate(_rounded(pulled)):
                    parent = start + t
                    mask = int(self.masks[parent])
                    bucket = self._index.setdefault(self._hash(key_row, mask), [])
                    if any(same(j, key_row, mask) for j in bucket):
                        continue
                    bucket.append(hi + len(kept))
                    kept.append(pulled[t].copy())  # a view would pin the whole batch
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


_EFFECT_SETS = BoundedCache()


def effect_set(gate_set: GateSet, n: int) -> EffectSet:
    """The cached EffectSet of this gate-set content on n qubits."""
    alphabet = placed_alphabet(gate_set, n)
    key = (gate_set_key(gate_set), n)
    return _EFFECT_SETS.get(key, lambda: EffectSet(alphabet, n, not gate_set.is_unitary_only))


# ---------------------------------------------------------------------------
# queries


def minimize_over_effects(
    gate_set: GateSet,
    n: int,
    r: int,
    operators: Sequence[np.ndarray],
    score_fn: ScoreFn,
    *,
    budget: int | None = None,
) -> BestCandidate:
    """Minimize score_fn over M_r.

    `score_fn(traces, masks)` is called on blocks of at most QUERY_ROWS rows
    of M_{r-1}.  It receives one array per input operator X holding tr(Q X)
    for every candidate Q of the block, shaped (rows, first gates), and the
    candidates' masks shaped (rows, 1).  It returns the scores, broadcastable
    to that shape; np.inf marks an infeasible candidate.
    """
    effects = effect_set(gate_set, n)
    check_budget(len(effects.alphabet), r, budget)
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
