"""What placed gates reach, level by level, and exact minimization over
complexity-restricted effect sets.

`ReachableSet` is the package's one growth loop: the chain R_0 <= R_1 <= ...
grown from start rows as R_k = R_{k-1} u {step(g, x) : x in R_{k-1}, g in the
alphabet} and deduplicated on entries rounded to 1e-10.  Complex rows are
stored as real views, so one rounding rule, index and provenance serve
effects (`effect_set`: simple projectors pulled back, Q -> E^dag(Q), as rows
Re Q + Im Q), unitaries (`circuit_complexity`: the identity, V -> U V,
stored as V^T so that U acts on each of its rows as on a statevector) and
states (`approx_state_complexity`: |0^n>, psi -> U psi with its global phase
fixed).  `least_level` finds the first level holding a row with a given
property.  `CXTHERM_BUDGET` caps every query, see `check_budget`.

Every exact solver minimizes a caller's cost over M_r, the effects
Q = E_1^dag ... E_k^dag(P) that k <= r placed gates pull back from a simple
projector P, subject to tr(Q rho) >= eta - FEASIBILITY_SLACK; a query that
no candidate meets raises ValueError.  Effects are keyed on Q alone for
unitary gate sets, where every mask-dependent score in this package (tr P,
the RESET work) is fixed by Q, and on (Q, mask) for channel sets, so that a
score may read the mask freely there.  One effect set is cached per
(gate-set content, n).

A query at r splits off the first gate, tr(E^dag(Q) X) = tr(Q E(X)): the
stack of operators X is pushed through the identity and each placed gate,
one kernel call per edge for all of that edge's gates (`edge_layers`), and
one matrix product per block of rows of M_{r-1} with the images' rows, in
alphabet order, scores all of M_r.  Growing M_r still steps one gate at a
time.  Scores within a relative TIE of the least are ties, and ties break
toward the first candidate in (level, row, gate) order, so last-bit noise
never picks the witness.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, ConfigError
from .gates import (
    BoundedCache,
    Circuit,
    GateSet,
    PlacedGate,
    _rounded,
    edge_layers,
    mask_matrix,
    placed_alphabet,
)
from .registers import DensityOperator, PovmEffect, register

ScoreFn = Callable[[list[np.ndarray], np.ndarray], np.ndarray]

# rows per batch when R_k is grown and when a query is scored; both bound the
# transient memory
CHUNK_ROWS = 32
QUERY_ROWS = 256
# circuit-count cap used when CXTHERM_BUDGET is unset
DEFAULT_BUDGET = 10 ** 7
# relative gap below which two candidates' scores tie
TIE = 1e-12
# slack on the acceptance constraint tr(Q rho) >= eta that rounding may take
FEASIBILITY_SLACK = 1e-12


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


def check_r(r: int) -> None:
    """The one rule on a query's gate budget, checked before any work."""
    if not r >= 0:
        raise ValueError(f"r must be at least 0, got {r!r}")


def circuit_count(alphabet_size: int, r: int) -> int:
    return sum(alphabet_size ** k for k in range(r + 1))


def check_budget(alphabet_size: int, r: int) -> None:
    """Refuse r before anything is built when the circuits of at most r
    gates outnumber the cap read from CXTHERM_BUDGET, a non-negative
    integer."""
    raw = os.environ.get("CXTHERM_BUDGET", str(DEFAULT_BUDGET))
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ConfigError(f"CXTHERM_BUDGET must be a non-negative integer, got {raw!r}")
    total = circuit_count(alphabet_size, r)
    if total > cap:
        raise BudgetExceededError(total, cap)


# ---------------------------------------------------------------------------
# rows Re Q + Im Q


def pack(mats: np.ndarray) -> np.ndarray:
    """Hermitian (..., d, d) to the real row (..., d*d) of Re Q + Im Q.

    Re Q is symmetric and Im Q antisymmetric, so the cross terms cancel and
    pack(A) . pack(B) = tr(A B)."""
    d = mats.shape[-1]
    return (mats.real + mats.imag).reshape(mats.shape[:-2] + (d * d,))


def unpack(rows: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrices of rows R: Re Q = (R + R^T)/2, Im Q = (R - R^T)/2."""
    r = rows.reshape(rows.shape[:-1] + (d, d))
    rt = np.swapaxes(r, -1, -2)
    out = np.empty(r.shape, dtype=complex)
    out.real = (r + rt) * 0.5
    out.imag = (r - rt) * 0.5
    return out


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
        self._lock = threading.Lock()

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
        # the rounded key of every stored row, taken once per level, and of
        # each new row as it is kept
        seen = {
            (key.tobytes(), int(mask)) if self.keyed_by_mask else key.tobytes()
            for key, mask in zip(_rounded(self.rows), self.masks)
        }
        for g, pg in enumerate(self.alphabet):
            for start in range(lo, hi, CHUNK_ROWS):
                stepped = self.step(pg, self.rows[start : start + CHUNK_ROWS])
                for t, key_row in enumerate(_rounded(stepped)):
                    parent = start + t
                    mask = int(self.masks[parent])
                    key = (key_row.tobytes(), mask) if self.keyed_by_mask else key_row.tobytes()
                    if key in seen:
                        continue
                    seen.add(key)
                    kept.append(stepped[t].copy())  # a view would pin the whole batch
                    masks.append(mask)
                    parents.append(parent)
                    gates.append(g)
        del seen  # freed before the copy, which sets the peak
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
        return Circuit(self.n, tuple((pg.gates[0], pg.edge) for pg in placed))


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
    return pack(pg.pullback(unpack(rows, 2 ** pg.n))[0])


_EFFECT_SETS = BoundedCache()


def effect_set(gate_set: GateSet, n: int) -> ReachableSet:
    """The cached chain M_0 <= M_1 <= ... of this gate-set content on n qubits."""

    def build() -> ReachableSet:
        projectors = pack(mask_matrix(n)[:, :, None] * np.eye(2 ** n))
        return ReachableSet(
            placed_alphabet(gate_set, n), n, projectors, _pull_back, not gate_set.is_unitary_only
        )

    return _EFFECT_SETS.get((gate_set.content_key, n), build)


def enumerate_effects(gate_set: GateSet, r: int, n: int) -> Iterator[PovmEffect]:
    """All effects in M_r = {pullbacks of simple projectors through <= r gates},
    each as provenance (circuit, mask bits) of the circuit and simple
    projector that first reached it.

    Effects equal after rounding to 1e-10 are yielded once (once per mask for
    channel gate sets); this affects only the number of items yielded, never
    the set realized.
    """
    check_r(r)
    effects = effect_set(gate_set, n)
    check_budget(len(effects.alphabet), r)
    rows, masks, _ = effects.upto(r)
    for i in range(len(rows)):
        provenance = (effects.circuit(i), int(masks[i]))
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
    if not gate_set.is_unitary_only:
        raise ValueError("circuit complexity is defined for unitary gate sets")
    alphabet = placed_alphabet(gate_set, n)

    # a row holds V^T, whose rows are the images V|b> of the basis states
    def left_multiply(pg: PlacedGate, rows: np.ndarray) -> np.ndarray:
        return _real_rows(pg.apply_vector(rows.view(complex).reshape(-1, d, d))[0])

    def matches(rows: np.ndarray) -> np.ndarray:
        return np.linalg.norm(rows.view(complex).reshape(-1, d, d) - target.T, ord=2, axis=(1, 2)) <= 1e-8

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
    if not gate_set.is_unitary_only:
        raise ValueError("state complexity is defined for unitary gate sets")
    alphabet = placed_alphabet(gate_set, n)

    def prepare(pg: PlacedGate, rows: np.ndarray) -> np.ndarray:
        # the global phase is fixed by making the first nonzero amplitude real
        vecs = pg.apply_vector(rows.view(complex))[0]
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
    *,
    eta: float | None = None,
) -> BestCandidate:
    """Minimize score_fn over M_r, subject to tr(Q X_0) >= eta if eta is set.

    `score_fn(traces, masks)` is called on blocks of at most QUERY_ROWS rows
    of M_{r-1}.  It receives one array per input operator X holding tr(Q X)
    for every candidate Q of the block, shaped (rows, first gates), and the
    candidates' masks shaped (rows, 1).  It returns the scores, finite or
    np.inf for an infeasible candidate, broadcastable to that shape.  With
    eta, a candidate with tr(Q X_0) < eta - FEASIBILITY_SLACK, X_0 the first
    operator, scores np.inf too.  When no candidate scores finite, ValueError
    names r and any eta.  The first candidate within a relative TIE of a
    block's least score stands for the block, and a later block replaces it
    only when lower by more than that.
    """
    check_r(r)
    effects = effect_set(gate_set, n)
    check_budget(len(effects.alphabet), r)
    rows, masks, built = effects.upto(max(r - 1, 0))
    width = len(effects.alphabet) + 1 if r > 0 else 1
    xs = np.stack(operators)
    # the images of operator b sit at images[b, :, g]: the operator itself at
    # g = 0, its image under alphabet[g - 1] at g
    images = np.empty((len(xs), width, xs[0].size))
    images[:, 0] = pack(xs)
    for at, layer in edge_layers(gate_set, n) if r > 0 else ():
        images[:, at + 1] = pack(layer.apply_matrix(xs)).swapaxes(0, 1)
    images = images.transpose(0, 2, 1)
    # a block replaces the best only with a score below `bar`, which stays
    # inf until a finite score is kept: inf - TIE * inf would be NaN
    best_value, best, bar = math.inf, 0, math.inf
    for lo in range(0, len(rows), QUERY_ROWS):
        traces = [rows[lo : lo + QUERY_ROWS] @ im for im in images]
        scores = np.broadcast_to(score_fn(traces, masks[lo : lo + QUERY_ROWS, None]), traces[0].shape)
        if eta is not None:
            scores = np.where(traces[0] >= eta - FEASIBILITY_SLACK, scores, math.inf)
        low = float(scores.min())
        if low < bar:
            i = int(np.argmax(scores <= low + TIE * abs(low)))
            best_value, best = float(scores.flat[i]), lo * width + i
            bar = best_value - TIE * abs(best_value)
    if not math.isfinite(best_value):
        floor = "" if eta is None else f" with tr(Q rho) >= {eta!r}"
        raise ValueError(f"no effect in M_{r} is feasible{floor}")
    row, g = divmod(best, width)
    circuit = effects.circuit(row, g - 1 if g else None)
    return BestCandidate(best_value, circuit, int(masks[row]), len(rows), len(rows) * width, not built)
