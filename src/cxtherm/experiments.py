"""Experiment drivers: random-circuit transition, entanglement measure and
its continuity/lower bounds, Ising quench, and decoupling probes.

Every driver takes an explicit seed, derives per-trial generators by counter
splitting, and returns plain dataclasses ready for CSV/JSON emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cxentropy import (
    WITNESS_SLACK,
    ConditionalSpec,
    conditional_cx_entropy,
    cx_entropy,
    cx_relative_entropy,
)
from .entropies import LOG2, binary_entropy, von_neumann
from .gates import (
    Circuit,
    GateSet,
    apply_circuit,
    apply_local_vector,
    entangling_power,
    expand_operator,
    inverse_circuit,
    placed_alphabet,
    unitary_gate,
)
from .parallel import deterministic_map
from .registers import (
    DensityOperator,
    HermitianOperator,
    partial_trace,
    register,
    state_from_vector,
)
from .sampling import haar_unitary, random_density_matrix, task_rng


# ---------------------------------------------------------------------------
# brickwork circuits and the complexity-entropy transition


def brickwork_layers(n: int, t: int) -> list[list[tuple[int, int]]]:
    """Alternating staggered nearest-neighbor layers; layer 1 starts at the
    chain edge (pairs (0,1), (2,3), ...)."""
    layers = []
    for layer in range(1, t + 1):
        start = 0 if layer % 2 == 1 else 1
        layers.append([(i, i + 1) for i in range(start, n - 1, 2)])
    return layers


def brickwork_circuit(
    n: int, t: int, source: str, seed: int, gate_set: GateSet | None = None
) -> Circuit:
    """Depth-t brickwork circuit with gates drawn from the Haar measure on
    SU(4) or uniformly from a finite set's placeable gates."""
    if n < 2 or t < 0:
        raise ValueError("need n >= 2 and t >= 0")
    ops = []
    position = 0
    for layer in brickwork_layers(n, t):
        for edge in layer:
            rng = task_rng(seed, position)
            if source == "haar_su4":
                ops.append((unitary_gate(f"haar{position}", haar_unitary(4, rng)), edge))
            elif source == "finite":
                if gate_set is None:
                    raise ValueError("finite source needs a gate set")
                pool = [g for g in gate_set.gates if not g.is_identity]
                ops.append((pool[int(rng.integers(len(pool)))], edge))
            else:
                raise ValueError(f"unknown gate source {source!r}")
            position += 1
    return Circuit(n, tuple(ops))


@dataclass(frozen=True)
class TransitionRow:
    """Exact entropies for finite gate sets; a (lower, upper) bound pair when
    the gate family is continuous (then mean/min refer to the upper side; the
    lower side is H_hyp of the pure output state, which is exactly 0)."""

    depth: int
    gate_count: int
    samples: int
    zero_certified_fraction: float
    mean_entropy: float
    min_entropy: float
    mean_entropy_lower: float
    certainty: str


def _transition_sample(
    n: int, depth: int, r: int, eta: float, gate_set: GateSet,
    source: str, seed: int, sample: int,
) -> tuple[bool, float, float, str]:
    circuit = brickwork_circuit(n, depth, source, seed * 100003 + depth * 1009 + sample,
                                gate_set if source == "finite" else None)
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = 1.0
    for gate, edge in circuit.ops:
        vec = apply_local_vector(gate, edge, vec)

    certified = False
    if circuit.complexity <= r:
        inv = inverse_circuit(circuit, gate_set if source == "finite" else None)
        if inv is not None:
            # the certificate V |0^n><0^n| V^dag accepts psi with |<0^n| V^dag psi>|^2
            back = vec
            for gate, edge in inv.ops:
                back = apply_local_vector(gate, edge, back)
            certified = abs(back[0]) ** 2 >= eta - WITNESS_SLACK
    if source == "finite":
        est = cx_entropy(state_from_vector(vec), gate_set, r, eta)
        return certified, est.value, est.value, "exact"
    # continuous gates: the certificate gives the upper bound; the lower bound
    # H_hyp^eta(psi) is 0, since tr Q >= <psi|Q|psi> >= eta for every feasible
    # Q, with equality at Q = eta |psi><psi|
    upper = 0.0 if certified else n * LOG2
    return certified, upper, 0.0, "upper_bound"


def transition_scan(
    n: int,
    depths: list[int],
    r: int,
    eta: float,
    gate_set: GateSet,
    samples: int,
    seed: int,
    *,
    source: str = "finite",
    threads: int = 1,
) -> list[TransitionRow]:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not depths:
        raise ValueError("depths must hold at least one depth")
    rows = []
    for depth in depths:
        gate_count = sum(len(layer) for layer in brickwork_layers(n, depth))
        results = deterministic_map(
            lambda s: _transition_sample(n, depth, r, eta, gate_set, source, seed, s),
            list(range(samples)),
            threads,
        )
        zero_frac = sum(1 for c, _, _, _ in results if c) / samples
        uppers = [v for _, v, _, _ in results]
        lowers = [v for _, _, v, _ in results]
        rows.append(
            TransitionRow(
                depth, gate_count, samples, zero_frac,
                float(np.mean(uppers)), float(min(uppers)),
                float(np.mean(lowers)), results[0][3],
            )
        )
    return rows


# ---------------------------------------------------------------------------
# entanglement measure on a 1D chain


def entanglement_E(rho: DensityOperator) -> float:
    """Mean quantum mutual information over the n-1 contiguous cuts."""
    n = rho.n
    if n < 2:
        raise ValueError("the chain entanglement measure needs n >= 2")
    labels = rho.register.labels
    marginals = sum(
        von_neumann(partial_trace(rho, labels[:j])) + von_neumann(partial_trace(rho, labels[j:]))
        for j in range(1, n)
    )
    return marginals / (n - 1) - von_neumann(rho)


def pure_chain_entanglement(psi: np.ndarray, dpsi: np.ndarray, n: int) -> tuple[float, float]:
    """E of the pure chain state psi and its rate along dpsi = d psi/dt: cut j
    has I(A_j:B_j) = 2 S(A_j) from the Schmidt weights p_k of M =
    psi.reshape(2^j, -1), and dS(A_j)/dt = -sum_k log(p_k) p'_k with
    p'_k = 2 Re <u_k| dM M^dag |u_k>.  Only 0 < p_k < 1 enter, so E >= 0."""
    e = de = 0.0
    for j in range(1, n):
        m = psi.reshape(2 ** j, -1)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        p = s * s
        dp = 2.0 * np.einsum("ik,ik->k", u.conj(), dpsi.reshape(m.shape) @ (m.conj().T @ u)).real
        keep = (p > 0.0) & (p < 1.0)
        log_p = np.log(p[keep])
        e -= float(p[keep] @ log_p)
        de -= float(dp[keep] @ log_p)
    return 2.0 * e / (n - 1), 2.0 * de / (n - 1)


def gate_bound_nu(nu: float, n: int) -> float:
    """Per-gate bound on |Delta E|: min(8 log 2, 8 nu log 2 + 3(1+nu) h(nu/(1+nu))) / (n-1)."""
    refined = 8.0 * nu * LOG2 + 3.0 * (1.0 + nu) * binary_entropy(nu / (1.0 + nu))
    return min(8.0 * LOG2, refined) / (n - 1)


def worst_case_gate_bound(gate_set: GateSet, n: int) -> float:
    """mu(G): the per-gate bound at the gate set's potential entangling power."""
    e_max = 0.0
    for g in gate_set.gates:
        if g.is_unitary and not g.is_identity:
            e_max = max(e_max, entangling_power(g.unitary)[0])
    nu = math.sin(min(e_max, 0.5 * math.pi))
    return gate_bound_nu(nu, n)


def _exp_minus_i(h: np.ndarray) -> np.ndarray:
    """exp(-i h) of a Hermitian h as V exp(-i Lambda) V^dag, from its eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


@dataclass(frozen=True)
class ContinuityReport:
    trials: int
    max_abs_delta: float
    coarse_violations: int
    refined_violations: int


def continuity_trial(
    n: int, trials: int, seed: int, gate_source: str = "haar", *, threads: int = 1
) -> ContinuityReport:
    """Random (state, placed nearest-neighbor gate) trials checking the coarse
    8 log2/(n-1) bound and its entangling-power refinement."""
    if n < 2:
        raise ValueError(f"n must be at least 2 for the chain measure, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")

    def one(t: int):
        rng = task_rng(seed, t)
        rho = DensityOperator(
            register(n), random_density_matrix(2 ** n, int(rng.integers(1, 2 ** n + 1)), rng)
        )
        pos = int(rng.integers(n - 1))
        if gate_source == "haar":
            u4 = haar_unitary(4, rng)
        elif gate_source == "near_identity":
            # the Hermitian generator h + h^dag, entries of h at scale 0.01
            h = rng.normal(scale=0.01, size=(4, 4)) + 1j * rng.normal(scale=0.01, size=(4, 4))
            u4 = _exp_minus_i(h + h.conj().T)
        else:
            raise ValueError(f"unknown gate source {gate_source!r}")
        evolved = apply_circuit(Circuit(n, ((unitary_gate("u", u4), (pos, pos + 1)),)), rho)
        delta = abs(entanglement_E(evolved) - entanglement_E(rho))
        nu = math.sin(min(entangling_power(u4)[0], 0.5 * math.pi))
        coarse_ok = delta <= 8.0 * LOG2 / (n - 1) + 1e-9
        refined_ok = delta <= gate_bound_nu(nu, n) + 1e-9
        return delta, coarse_ok, refined_ok

    results = deterministic_map(one, list(range(trials)), threads)
    return ContinuityReport(
        trials,
        max(d for d, _, _ in results),
        sum(1 for _, c, _ in results if not c),
        sum(1 for _, _, r in results if not r),
    )


@dataclass(frozen=True)
class EntanglementBoundResult:
    lhs: float
    rhs: float
    slack: float


def entanglement_bound_check(
    rho: DensityOperator, gate_set: GateSet, r: int, eta: float,
    *, threads: int = 1,
) -> EntanglementBoundResult:
    """H_H^{r,eta}(rho) against its entanglement lower bound on a 1D chain."""
    if gate_set.connectivity != "chain":
        raise ValueError("the entanglement bound needs a nearest-neighbor gate set")
    n = rho.n
    lhs = cx_entropy(rho, gate_set, r, eta, threads=threads).value
    mu = worst_case_gate_bound(gate_set, n)
    rhs = (
        entanglement_E(rho)
        - r * mu
        + von_neumann(rho)
        - 2.0 * binary_entropy(eta)
        - (1.0 - eta) * n * LOG2
    ) / eta - 2.0 * math.log(eta)
    return EntanglementBoundResult(lhs, rhs, lhs - rhs)


# ---------------------------------------------------------------------------
# quench dynamics


@dataclass(frozen=True)
class QuenchTrace:
    times: tuple[float, ...]
    values: tuple[float, ...]
    derivatives: tuple[float, ...]
    bound: float
    bond_norm: float


def ising_bond(coupling: float, transverse: float) -> np.ndarray:
    """Two-site bond term J ZZ + (g/2)(XI + IX); each X is shared by the two
    bonds meeting it on a periodic chain."""
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    return coupling * np.kron(z, z) + 0.5 * transverse * (np.kron(x, i2) + np.kron(i2, x))


def ising_quench(
    n: int,
    coupling: float,
    transverse: float,
    times: list[float],
    *,
    initial: str = "ones",
) -> QuenchTrace:
    """Exact evolution under the periodic transverse-field Ising chain with
    the incremental-entangling bound 22 log2 (n-1) ||h|| on dE/dt.  E and
    dE/dt come exactly from the Schmidt values of psi(t) and -i H psi(t)."""
    if not 2 <= n <= 10:
        raise ValueError(f"n must lie in [2, 10] for the exact quench, got {n}")
    ts = [float(t) for t in times]
    if not ts:
        raise ValueError("times must hold at least one time point")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be strictly increasing")
    for name, field in (("coupling", coupling), ("transverse", transverse)):
        if not math.isfinite(field):
            raise ValueError(f"{name} must be finite, got {field!r}")
    bond = ising_bond(coupling, transverse)
    ham = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        ham += expand_operator(bond, n, [i, (i + 1) % n])
    w, v = np.linalg.eigh(ham)

    if initial == "ones":
        psi0 = np.zeros(2 ** n, dtype=complex)
        psi0[-1] = 1.0
    elif initial == "plus":
        psi0 = np.full(2 ** n, 2.0 ** (-n / 2.0), dtype=complex)
    else:
        raise ValueError(f"unknown initial state {initial!r}")
    coeff = v.conj().T @ psi0

    evolved = [np.exp(-1j * w * t) * coeff for t in ts]
    values, derivs = zip(*(pure_chain_entanglement(v @ c, v @ (-1j * w * c), n) for c in evolved))
    bond_norm = float(np.linalg.norm(bond, ord=2))
    bound = 22.0 * LOG2 * (n - 1) * bond_norm
    return QuenchTrace(tuple(ts), values, derivs, bound, bond_norm)


# ---------------------------------------------------------------------------
# decoupling


@dataclass(frozen=True)
class ConjectureProbeResult:
    trials: int
    min_slack: float
    violation: dict | None


def _chain_rule_slack(
    rho: DensityOperator, na: int, nb: int, gate_set: GateSet,
    r: int, eta: float,
) -> float:
    labels = rho.register.labels
    a = labels[:na]
    b = labels[na : na + nb]
    rr = labels[na + nb :]
    h_ab = conditional_cx_entropy(rho, ConditionalSpec(a + b, rr, r, eta), gate_set).value
    h_b = conditional_cx_entropy(rho, ConditionalSpec(b, rr, r, eta), gate_set).value
    return h_ab + na * LOG2 - h_b


def decoupling_probe(
    dims: tuple[int, int, int],
    gate_set: GateSet,
    r: int,
    eta: float,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
) -> ConjectureProbeResult:
    """Random probes of the conjectured chain rule
    H(B|R) <= H(AB|R) + n_A log 2; a negative slack below -1e-8 is serialized
    as a candidate counterexample."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    na, nb, nr = dims
    n = na + nb + nr

    def one(t: int):
        rng = task_rng(seed, t)
        rho = DensityOperator(
            register(n), random_density_matrix(2 ** n, int(rng.integers(1, 2 ** n + 1)), rng)
        )
        return t, _chain_rule_slack(rho, na, nb, gate_set, r, eta), rho

    results = deterministic_map(one, list(range(trials)), threads)
    min_t, min_slack, min_rho = min(results, key=lambda x: (x[1], x[0]))
    violation = None
    if min_slack < -1e-8:
        violation = {
            "trial": min_t,
            "slack": min_slack,
            "dims": [na, nb, nr],
            "r": r,
            "eta": eta,
            "rho_re": np.real(min_rho.matrix).tolist(),
            "rho_im": np.imag(min_rho.matrix).tolist(),
        }
    return ConjectureProbeResult(trials, min_slack, violation)


@dataclass(frozen=True)
class DecouplingResult:
    success: bool
    relative_entropy: float
    threshold: float
    bound_k_bits: float
    bound_conditional_on_conjecture: bool = True


def decoupling_simulate(
    rho_ar: DensityOperator,
    n_a: int,
    gate_set: GateSet,
    r0: int,
    r1: int,
    k: int,
    eta: float,
    delta: float,
    seed: int,
    *,
    threads: int = 1,
) -> DecouplingResult:
    """Alice applies a random <= r0-gate unitary to A, discards k qubits, and
    a complexity-r1 referee tries to tell the remainder from maximally mixed.

    The reported qubit-count bound assumes the conjectured chain rule and is
    tagged as such.
    """
    if not 1 <= n_a < rho_ar.n:
        raise ValueError(f"n_a must lie in [1, n - 1] to leave a reference, got {n_a} on n = {rho_ar.n}")
    if not 0 <= k <= n_a:
        raise ValueError(f"k must lie in [0, n_a = {n_a}], got {k}")
    if not 0 <= r0 <= r1:
        raise ValueError(f"r0 must lie in [0, r1 = {r1}] (the referee's budget), got {r0}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    if not gate_set.is_unitary_only:
        raise ValueError("decoupling is defined for unitary computations")
    labels = rho_ar.register.labels
    a_labels, r_labels = labels[:n_a], labels[n_a:]

    # random circuit on A only
    alpha = placed_alphabet(gate_set, n_a) if n_a >= 2 else []
    rng = task_rng(seed)
    picks = [alpha[int(rng.integers(len(alpha)))] for _ in range(r0 if alpha else 0)]
    rho_prime = apply_circuit(Circuit(rho_ar.n, tuple((pg.gates[0], pg.edge) for pg in picks)), rho_ar)

    keep = labels[k:]  # discard the first k qubits of A
    rho_a2r = partial_trace(rho_prime, keep)
    n_a2 = n_a - k
    rho_r = partial_trace(rho_prime, r_labels)
    d_a2 = 2 ** n_a2
    pi_part = np.kron(np.eye(d_a2, dtype=complex) / d_a2, rho_r.matrix)
    gamma = HermitianOperator(rho_a2r.register, pi_part)
    est = cx_relative_entropy(rho_a2r, gamma, gate_set, r1, eta, threads=threads)
    threshold = -math.log(delta / eta)
    success = est.value <= threshold + 1e-12

    h_cond = conditional_cx_entropy(
        rho_ar, ConditionalSpec(a_labels, r_labels, r1 - r0, eta), gate_set
    ).value
    bound_k = 0.5 * (n_a - h_cond / LOG2 + math.log2(delta / eta))
    return DecouplingResult(success, est.value, threshold, bound_k)
