"""Complexity-restricted entropic quantities.

Values are exact minima over the finite effect sets M_r (enumeration), or
certified one-sided bounds from a penalized parameter search when the gate
set is the continuous two-qubit family.  All values in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropies import LOG2, check_eta, check_test_args
from .gates import (
    GateSet,
    expand_operator,
    mask_traces_identity,
    pullback_effect,
)
from .registers import (
    DensityOperator, HermitianOperator, PovmEffect, _check_same_register, _fitted, partial_trace,
)
from .search import check_r, minimize_over_effects

WITNESS_SLACK = 1e-10


@dataclass(frozen=True)
class EntropyEstimate:
    """A complexity-entropy value with its provenance.

    `certainty` is "exact" only for full enumerations; a heuristic feasible
    candidate lower-bounds a relative entropy (equivalently upper-bounds an
    entropy).  The witness, when present, satisfies tr(Q rho) >= eta - 1e-10
    and lies in the declared M_r.
    """

    value: float
    certainty: str
    witness: PovmEffect | None
    solver: dict

    def in_bits(self) -> float:
        return self.value / LOG2


@dataclass(frozen=True)
class ConditionalSpec:
    part_a: tuple[str, ...]
    part_b: tuple[str, ...]
    r: int
    eta: float

    def __post_init__(self):
        if set(self.part_a) & set(self.part_b):
            raise ValueError("conditional partition labels overlap")
        if not self.part_a or not self.part_b:
            raise ValueError("conditional partition needs nonempty A and B")


def _is_scalar_identity(matrix: np.ndarray) -> float | None:
    """c when ||matrix - c I||_2 <= 1e-14 max(|c|, 1) for c = tr(matrix)/d,
    else None.  Every entry of a matrix is at most its spectral norm, and its
    Frobenius norm at least that, so an SVD is run only when neither bound
    decides."""
    d = matrix.shape[0]
    c = float(np.trace(matrix).real) / d
    tol = 1e-14 * max(abs(c), 1.0)
    dev = matrix - c * np.eye(d)
    if np.abs(dev).max() > tol:
        return None
    if np.linalg.norm(dev) <= tol or np.linalg.norm(dev, ord=2) <= tol:
        return c
    return None


def _verify_witness(effect: PovmEffect, rho: DensityOperator, eta: float):
    got = float(np.trace(effect.matrix @ rho.matrix).real)
    if got < eta - WITNESS_SLACK:
        raise AssertionError(f"witness infeasible: tr(Q rho) = {got:.12g} < {eta:.12g}")


def _enumeration_estimate(
    rho: DensityOperator,
    gamma: np.ndarray,
    scalar: float | None,
    gate_set: GateSet,
    r: int,
    eta: float,
    reduced: bool,
) -> EntropyEstimate:
    n = rho.n
    mats = [rho.matrix] if scalar is not None else [rho.matrix, gamma]
    id_traces = mask_traces_identity(n)

    def score(traces, masks):
        if scalar is not None:
            # 0 <= Q <= I and a density operator give tr(Q rho) <= tr Q exactly,
            # so the ratio takes the smaller and rounding cannot push it below c
            gamma_tr, accept = scalar * id_traces[masks], np.minimum(traces[0], id_traces[masks])
        else:
            gamma_tr, accept = traces[1], traces[0]
        return gamma_tr if reduced else gamma_tr / np.maximum(accept, 1e-300)

    best = minimize_over_effects(gate_set, n, r, mats, score, eta=eta)
    witness = pullback_effect(best.circuit, best.mask_bits)
    _verify_witness(witness, rho, eta)
    value = math.inf if best.value <= 0.0 else -math.log(best.value)
    solver = {
        "method": "enumeration",
        "r": r,
        "effects": best.effects,
        "candidates": best.candidates,
        "cache_hit": best.cache_hit,
    }
    return EntropyEstimate(value, "exact", witness, solver)


def _relative_entropy(
    rho: DensityOperator,
    gamma: np.ndarray,
    gate_set: GateSet,
    r: int,
    eta: float,
    *,
    identity: bool = False,
    reduced: bool = False,
    threads: int = 1,
    seed: int = 0,
    restarts: int = 32,
    iterations: int = 50,
) -> EntropyEstimate:
    """`cx_relative_entropy` on arguments the caller has checked: r >= 0,
    eta in (0, tr rho], and a Gamma matrix on rho's register that is
    positive-semidefinite and stored as the public constructor stores it.
    `identity` says that Gamma is I, which then is not examined."""
    if gate_set.kind == "finite":
        scalar = None
        if gate_set.is_unitary_only:
            scalar = 1.0 if identity else _is_scalar_identity(gamma)
        return _enumeration_estimate(rho, gamma, scalar, gate_set, r, eta, reduced)

    from .heuristic import heuristic_search

    cand = heuristic_search(
        rho.matrix, gamma, rho.n, r, eta,
        connectivity=gate_set.connectivity, reduced=reduced,
        seed=seed, restarts=restarts, iterations=iterations, threads=threads,
    )
    witness = PovmEffect(rho.register, cand.effect)
    _verify_witness(witness, rho, eta)
    value = math.inf if cand.score <= 0.0 else -math.log(cand.score)
    return EntropyEstimate(value, "lower_bound", witness, cand.meta)


def cx_relative_entropy(
    rho: DensityOperator,
    gamma: HermitianOperator,
    gate_set: GateSet,
    r: int,
    eta: float,
    *,
    reduced: bool = False,
    threads: int = 1,
    seed: int = 0,
    restarts: int = 32,
    iterations: int = 50,
) -> EntropyEstimate:
    """Complexity relative entropy D_H^{r,eta}(rho || Gamma).

    Normalized form: -log inf tr(Q Gamma)/tr(Q rho); with `reduced=True` the
    normalization is dropped: -log inf tr(Q Gamma), both over Q in M_r with
    tr(Q rho) >= eta.  The identity effect is always in M_0, so the candidate
    set is never empty for eta <= tr(rho).

    A finite gate set is enumerated exactly; the continuous SU(4) family is
    searched by the heuristic, whose feasible candidate is a lower bound.
    `threads` parallelizes the heuristic's restarts; enumeration runs in the
    calling thread.
    """
    check_r(r)
    check_test_args(rho, gamma, eta)
    return _relative_entropy(
        rho, gamma.matrix, gate_set, r, eta,
        reduced=reduced, threads=threads, seed=seed, restarts=restarts, iterations=iterations,
    )


def cx_entropy(
    rho: DensityOperator,
    gate_set: GateSet,
    r: int,
    eta: float,
    *,
    reduced: bool = False,
    threads: int = 1,
    seed: int = 0,
    restarts: int = 32,
    iterations: int = 50,
) -> EntropyEstimate:
    """Complexity entropy H_H^{r,eta}(rho) = -D_H^{r,eta}(rho || I).

    I is positive-semidefinite and on rho's register by construction, so
    only r and eta are checked."""
    check_r(r)
    check_eta(rho.trace(), eta)
    est = _relative_entropy(
        rho, np.eye(rho.dim, dtype=complex), gate_set, r, eta, identity=True,
        reduced=reduced, threads=threads, seed=seed, restarts=restarts, iterations=iterations,
    )
    certainty = {"exact": "exact", "lower_bound": "upper_bound"}[est.certainty]
    return EntropyEstimate(-est.value, certainty, est.witness, est.solver)


def conditional_cx_entropy(
    rho: DensityOperator,
    spec: ConditionalSpec,
    gate_set: GateSet,
    *,
    threads: int = 1,
) -> EntropyEstimate:
    """Complexity conditional entropy H(A|B) = -D_H^{r,eta}(rho_AB || I_A x rho_B).

    I_A x rho_B is derived from a checked state, so it is hermitized as the
    public constructor stores it but its spectrum is not re-checked."""
    check_r(spec.r)
    check_eta(rho.trace(), spec.eta)
    labels = set(spec.part_a) | set(spec.part_b)
    if not labels <= set(rho.register.labels):
        raise ValueError("partition labels missing from register")
    rho_ab = partial_trace(rho, labels) if labels < set(rho.register.labels) else rho
    rho_b = partial_trace(rho_ab, spec.part_b)
    positions = [rho_ab.register.index_of(lbl) for lbl in rho_b.register.labels]
    gamma = _fitted(rho_ab.register, expand_operator(rho_b.matrix, rho_ab.n, positions), owned=True)
    est = _relative_entropy(rho_ab, gamma, gate_set, spec.r, spec.eta, threads=threads)
    certainty = {"exact": "exact", "lower_bound": "upper_bound"}[est.certainty]
    return EntropyEstimate(-est.value, certainty, est.witness, est.solver)


def success_probability(
    rho: DensityOperator,
    gate_set: GateSet,
    r: int,
    m: float,
) -> float:
    """Best acceptance probability over effects in M_r with log2 tr(Q) pinned
    to floor(m / log 2)."""
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m!r}")
    n = rho.n
    w = math.floor(m / LOG2 + 1e-12)
    if not 0 <= w <= n:
        raise ValueError(f"no candidate effects with log2 tr(Q) = {w} on {n} qubits")
    unital = gate_set.is_unitary_only
    mats = [rho.matrix] if unital else [rho.matrix, np.eye(2 ** n, dtype=complex)]
    id_traces = mask_traces_identity(n)

    def score(traces, masks):
        q_tr = id_traces[masks] if unital else traces[1]
        ok = np.abs(np.log2(np.maximum(q_tr, 1e-300)) - w) <= 1e-9
        return np.where(ok, -traces[0], math.inf)

    return -minimize_over_effects(gate_set, n, r, mats, score).value


def distinguishability_beta(
    rho: DensityOperator,
    sigma: DensityOperator,
    gate_set: GateSet,
    r: int,
) -> float:
    """beta^r(rho, sigma) = max over M_r of |tr(Q (rho - sigma))|."""
    _check_same_register(rho, sigma)

    def score(traces, masks):
        return -np.abs(traces[0])

    best = minimize_over_effects(gate_set, rho.n, r, [rho.matrix - sigma.matrix], score)
    return -best.value


def hypothesis_test_witness(
    rho: DensityOperator,
    sigma: DensityOperator,
    gate_set: GateSet,
    r: int,
    eta: float,
    delta: float,
    *,
    threads: int = 1,
) -> tuple[PovmEffect, float] | None:
    """A pair (Q, q) with tr(qQ rho) = eta and tr(qQ sigma) <= delta, or None.

    Such a test exists iff D_H^{r,eta}(rho || sigma) >= -log(delta/eta).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    est = cx_relative_entropy(rho, sigma, gate_set, r, eta, threads=threads)
    threshold = -math.log(delta / eta)
    if est.value < threshold - 1e-12:
        return None
    q_effect = est.witness
    accept = float(np.trace(q_effect.matrix @ rho.matrix).real)
    q = eta / accept
    false_accept = q * float(np.trace(q_effect.matrix @ sigma.matrix).real)
    if abs(q * accept - eta) > WITNESS_SLACK or false_accept > delta + WITNESS_SLACK:
        raise AssertionError("witness failed numerical re-verification")
    return q_effect, q
