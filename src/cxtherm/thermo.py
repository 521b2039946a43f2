"""Thermodynamic model: RESET/EXTRACT/gate primitives with cost ledgers,
optimal erasure search, midcircuit lifting, and compression search.

Work is tracked dimensionless as beta*W; multiplying by k_B T is a display
concern.  A RESET of qubit i costs log Z_i, an EXTRACT refunds it, and each
non-identity gate costs one unit of complexity and no work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cxentropy import cx_entropy
from .errors import ProtocolError
from .gates import (
    SWAP,
    Gate,
    GateSet,
    apply_local,
    channel_gate,
    edges,
    gibbs_check,
    mask_matrix,
    mask_traces_identity,
    simple_effect_from_bits,
    unitary_gate,
)
from .registers import DensityOperator, partial_trace_matrix, register
from .search import minimize_over_effects

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class ThermalModel:
    """Per-qubit excited-state energies in units of k_B T (i.e. beta*E >= 0)."""

    energies: tuple[float, ...]

    def __post_init__(self):
        if any(e < 0.0 for e in self.energies):
            raise ValueError("excited-state energies must be >= 0")

    @classmethod
    def degenerate(cls, n: int) -> "ThermalModel":
        return cls((0.0,) * n)

    @property
    def n(self) -> int:
        return len(self.energies)

    def z(self, i: int) -> float:
        return 1.0 + math.exp(-self.energies[i])

    def beta_f(self, i: int) -> float:
        return -math.log(self.z(i))

    def gamma_qubit(self, i: int) -> np.ndarray:
        return np.diag([1.0, math.exp(-self.energies[i])]).astype(complex)

    def thermal_qubit(self, i: int) -> np.ndarray:
        return self.gamma_qubit(i) / self.z(i)

    def gamma_full(self) -> np.ndarray:
        out = np.array([[1.0]], dtype=complex)
        for i in range(self.n):
            out = np.kron(out, self.gamma_qubit(i))
        return out

    def gamma_pair(self, i: int, j: int) -> np.ndarray:
        return np.kron(self.gamma_qubit(i), self.gamma_qubit(j))

    def reset_work(self, i: int) -> float:
        return math.log(self.z(i))


@dataclass(frozen=True)
class Reset:
    qubit: int


@dataclass(frozen=True)
class Extract:
    qubit: int


@dataclass(frozen=True)
class GateStep:
    gate: Gate
    edge: tuple[int, int]


Step = Reset | Extract | GateStep


@dataclass(frozen=True)
class Protocol:
    n: int
    steps: tuple[Step, ...] = ()


@dataclass(frozen=True)
class CostLedger:
    complexity: int = 0
    beta_work: float = 0.0


EXTRACT_FIDELITY_TOL = 1e-9


def _replace_qubit(sigma: np.ndarray, n: int, i: int, local: np.ndarray) -> np.ndarray:
    """local (x) tr_i(sigma) with the local factor back on qubit i: trace
    axes (i, n+i) of the (2,)*2n view out and move the 2x2 factor's axes in."""
    reduced = np.trace(sigma.reshape((2,) * (2 * n)), axis1=i, axis2=n + i)
    out = np.moveaxis(np.multiply.outer(local, reduced), [0, 1], [i, n + i])
    return np.ascontiguousarray(out).reshape(sigma.shape)


def run_protocol(
    protocol: Protocol, rho: DensityOperator, model: ThermalModel
) -> tuple[DensityOperator, CostLedger]:
    if protocol.n != rho.register.n or model.n != protocol.n:
        raise ProtocolError("protocol, state, and model sizes disagree")
    sigma = rho.matrix
    complexity = 0
    beta_work = 0.0
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for step in protocol.steps:
        if isinstance(step, (Reset, Extract)) and not 0 <= step.qubit < protocol.n:
            raise ProtocolError(f"{step!r} acts outside the {protocol.n}-qubit register")
        if isinstance(step, Reset):
            sigma = _replace_qubit(sigma, protocol.n, step.qubit, ket0)
            beta_work += model.reset_work(step.qubit)
        elif isinstance(step, Extract):
            local = partial_trace_matrix(sigma, protocol.n, [step.qubit])
            ground = float(local[0, 0].real) / max(float(np.trace(local).real), 1e-300)
            if ground < 1.0 - EXTRACT_FIDELITY_TOL:
                raise ProtocolError(
                    f"EXTRACT on qubit {step.qubit}: population in |0> is {ground:.12g}"
                )
            sigma = _replace_qubit(sigma, protocol.n, step.qubit, model.thermal_qubit(step.qubit))
            beta_work -= model.reset_work(step.qubit)
        elif isinstance(step, GateStep):
            sigma = apply_local(step.gate, step.edge, sigma)
            if not step.gate.is_identity:
                complexity += 1
        else:
            raise ProtocolError(f"unknown protocol step {step!r}")
    return DensityOperator(rho.register, sigma), CostLedger(complexity, beta_work)


# ---------------------------------------------------------------------------
# Gibbs-preserving finite computations


def _diagonal_sign_gates() -> list[Gate]:
    gates = []
    seen = set()
    for bits in range(16):
        signs = tuple(1.0 if not (bits >> k) & 1 else -1.0 for k in range(4))
        if signs[0] < 0:  # global sign, same operation
            continue
        if signs in seen or all(s > 0 for s in signs):
            continue
        seen.add(signs)
        gates.append(unitary_gate(f"diag{bits:04b}", np.diag(signs).astype(complex)))
    return gates


def _thermalizing_channel(model: ThermalModel, i: int, j: int, q: float, u: np.ndarray, name: str) -> Gate:
    """rho -> (1-q) U rho U^dag + q gamma_i (x) gamma_j."""
    gamma_pair = np.kron(model.thermal_qubit(i), model.thermal_qubit(j))
    w, v = np.linalg.eigh(gamma_pair)
    kraus = [math.sqrt(1.0 - q) * u]
    for a in range(4):
        if w[a] <= 1e-15:
            continue
        for b in range(4):
            kraus.append(math.sqrt(q * w[a]) * np.outer(v[:, a], np.conj(np.eye(4)[:, b])))
    return channel_gate(name, kraus)


def gibbs_preserving_gate_set(model: ThermalModel, connectivity: str = "all-to-all") -> GateSet:
    """Finite Gibbs-preserving computations: energy-eigenbasis sign unitaries
    plus partially thermalizing channels at q in {1/4, 1/2}.

    Every element is verified to fix the pair Gibbs weight on each edge it is
    placed on; construction fails otherwise.
    """
    sign_gates = _diagonal_sign_gates()
    placed_extra = []
    for (i, j) in edges(connectivity, model.n):
        cz_energy = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        for q, u, tag in ((0.25, np.eye(4, dtype=complex), "q25_id"),
                          (0.5, np.eye(4, dtype=complex), "q50_id"),
                          (0.25, cz_energy, "q25_cz")):
            ch = _thermalizing_channel(model, i, j, q, u, f"thermal_{tag}_{i}{j}")
            placed_extra.append((ch, (i, j)))
    gs = GateSet("finite", tuple(sign_gates), connectivity, tuple(placed_extra))
    validate_gibbs_gate_set(gs, model)
    return gs


def validate_gibbs_gate_set(gate_set: GateSet, model: ThermalModel):
    placed = [(g, e) for g in gate_set.gates for e in edges(gate_set.connectivity, model.n)]
    for gate, (i, j) in placed + list(gate_set.placed_extra):
        if not (0 <= i < model.n and 0 <= j < model.n):
            raise ValueError(
                f"gate {gate.name!r} is placed on edge ({i},{j}), outside the {model.n}-qubit model"
            )
        if not gibbs_check(gate, model.gamma_pair(i, j)):
            raise ValueError(f"gate {gate.name!r} does not preserve the Gibbs weight on edge ({i},{j})")


# ---------------------------------------------------------------------------
# optimal erasure


def _unmasked(n: int, bits: int) -> tuple[int, ...]:
    """The qubits that the simple effect with these mask bits leaves free."""
    return tuple(i for i, m in enumerate(simple_effect_from_bits(n, bits).mask) if not m)


@dataclass(frozen=True)
class ErasureResult:
    beta_work: float
    protocol: Protocol
    reset_set: tuple[int, ...]
    success_probability: float


def erasure_search(
    rho: DensityOperator,
    model: ThermalModel,
    gate_set: GateSet,
    r: int,
    eta: float,
) -> ErasureResult:
    """Minimal-work protocol of <= r computations followed by RESETs reaching
    <0^n| rho' |0^n> >= eta.  Exhaustive over the finite gate set."""
    n = rho.n
    if model.n != n:
        raise ValueError("model size does not match the state")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    validate_gibbs_gate_set(gate_set, model)

    # a masked qubit is projected to |0>; the RESET set is the rest
    work = np.array([sum(model.reset_work(i) for i in _unmasked(n, m)) for m in range(2 ** n)], float)
    eta_eff = eta - 1e-12

    def score(traces, masks):
        return np.where(traces[0] >= eta_eff, work[masks], math.inf)

    best = minimize_over_effects(gate_set, n, r, [rho.matrix], score)
    if not math.isfinite(best.value):
        raise ValueError("no protocol reaches the requested success probability")
    reset_set = _unmasked(n, best.mask_bits)
    steps: list[Step] = [GateStep(g, e) for g, e in best.circuit.ops]
    steps.extend(Reset(i) for i in reset_set)
    protocol = Protocol(n, tuple(steps))
    final, ledger = run_protocol(protocol, rho, model)
    success = float(final.matrix[0, 0].real)
    assert abs(ledger.beta_work - best.value) < 1e-9
    return ErasureResult(best.value, protocol, reset_set, success)


# ---------------------------------------------------------------------------
# midcircuit lifting


@dataclass(frozen=True)
class LiftedProtocol:
    protocol: Protocol
    model: ThermalModel
    m1: int  # lifted midcircuit RESETs
    m2: int  # lifted midcircuit EXTRACTs
    original_n: int


def _swap_gate() -> Gate:
    return unitary_gate("swap", SWAP)


def lift_midcircuit(protocol: Protocol, model: ThermalModel, gate_set: GateSet) -> LiftedProtocol:
    """Rewrite midcircuit RESET/EXTRACT steps onto fresh ancillas so that all
    EXTRACTs come first and all RESETs last; the action on the original
    register and the work cost are unchanged, and the gate count grows by one
    SWAP per lifted step."""
    if not any(
        g.is_unitary and np.allclose(g.unitary, SWAP, atol=1e-12)
        for g in gate_set.gates
    ):
        raise ProtocolError("lifting midcircuit steps requires SWAP in the computation set")

    steps = list(protocol.steps)
    last_gate = max((k for k, s in enumerate(steps) if isinstance(s, GateStep)), default=-1)
    first_gate = min((k for k, s in enumerate(steps) if isinstance(s, GateStep)), default=len(steps))

    mid_resets = [k for k, s in enumerate(steps) if isinstance(s, Reset) and k < last_gate]
    mid_extracts = [k for k, s in enumerate(steps) if isinstance(s, Extract) and k > first_gate]
    m1, m2 = len(mid_resets), len(mid_extracts)
    if m1 == 0 and m2 == 0:
        return LiftedProtocol(protocol, model, 0, 0, protocol.n)

    n_new = protocol.n + m1 + m2
    anc_reset = {k: protocol.n + j for j, k in enumerate(mid_resets)}
    anc_extract = {k: protocol.n + m1 + j for j, k in enumerate(mid_extracts)}

    energies = list(model.energies)
    energies += [model.energies[steps[k].qubit] for k in mid_resets]
    energies += [model.energies[steps[k].qubit] for k in mid_extracts]
    new_model = ThermalModel(tuple(energies))

    head: list[Step] = [Extract(anc_extract[k]) for k in mid_extracts]
    body: list[Step] = []
    tail: list[Step] = []
    for k, s in enumerate(steps):
        if k in anc_reset:
            body.append(GateStep(_swap_gate(), (s.qubit, anc_reset[k])))
            tail.append(Reset(anc_reset[k]))
        elif k in anc_extract:
            body.append(GateStep(_swap_gate(), (s.qubit, anc_extract[k])))
        elif isinstance(s, Extract) and k <= first_gate:
            head.append(s)
        elif isinstance(s, Reset) and k > last_gate:
            tail.append(s)
        else:
            body.append(s)
    lifted = Protocol(n_new, tuple(head + body + tail))
    return LiftedProtocol(lifted, new_model, m1, m2, protocol.n)


def lifted_input(rho: DensityOperator, lift: LiftedProtocol) -> DensityOperator:
    """Executable input of the lifted protocol: every ancilla starts in |0>
    (the protocol's own leading EXTRACT steps thermalize the m2 ancillas)."""
    sigma = rho.matrix
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for _ in range(lift.m1 + lift.m2):
        sigma = np.kron(sigma, ket0)
    return DensityOperator(register(lift.protocol.n), sigma)


# ---------------------------------------------------------------------------
# lower bound on general-protocol work


@dataclass(frozen=True)
class AncillaBound:
    value: float
    m1: int
    m2: int
    m_max: int
    truncated: bool = True


def g_lower_bound(
    rho: DensityOperator,
    gate_set: GateSet,
    r: int,
    eta: float,
    m_max: int,
    *,
    threads: int = 1,
) -> AncillaBound:
    """min over m1, m2 <= m_max of H_H^{r+m1+m2, eta}(rho x |0^m1> x pi^m2)
    - m2 log 2; an upper bound on the untruncated infimum."""
    best = (math.inf, 0, 0)
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for m1 in range(m_max + 1):
        for m2 in range(m_max + 1):
            sigma = rho.matrix
            for _ in range(m1):
                sigma = np.kron(sigma, ket0)
            for _ in range(m2):
                sigma = np.kron(sigma, np.eye(2, dtype=complex) / 2.0)
            tilde = DensityOperator(register(rho.n + m1 + m2), sigma)
            est = cx_entropy(tilde, gate_set, r + m1 + m2, eta, threads=threads)
            candidate = est.value - m2 * LOG2
            if candidate < best[0]:
                best = (candidate, m1, m2)
    return AncillaBound(best[0], best[1], best[2], m_max)


# ---------------------------------------------------------------------------
# data compression


@dataclass(frozen=True)
class CompressionResult:
    m: int
    circuit: "object"
    kept_qubits: tuple[int, ...]
    success_probability: float


def compression_search(
    rho: DensityOperator,
    gate_set: GateSet,
    r: int,
    eps: float,
) -> CompressionResult:
    """Least m such that some <= r-gate unitary compresses rho onto m qubits
    with fidelity^2 >= 1 - eps; exhaustive, so exact."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if not gate_set.is_unitary_only:
        raise ValueError("compression is defined for unitary computations")
    n = rho.n
    target = 1.0 - eps - 1e-12
    kept = np.round(np.log2(mask_traces_identity(n)))  # |W| per mask

    def score(traces, masks):
        return np.where(traces[0] >= target, kept[masks], math.inf)

    best = minimize_over_effects(gate_set, n, r, [rho.matrix], score)
    circuit = best.circuit
    kept_qubits = _unmasked(n, best.mask_bits)
    sigma = rho.matrix
    for gate, edge in circuit.ops:
        sigma = apply_local(gate, edge, sigma)
    success = float((mask_matrix(n)[best.mask_bits] * np.real(np.diag(sigma))).sum())
    return CompressionResult(int(best.value), circuit, kept_qubits, success)


# ---------------------------------------------------------------------------
# protocol files


def format_protocol(protocol: Protocol) -> str:
    lines = []
    for s in protocol.steps:
        if isinstance(s, Reset):
            lines.append(f"RESET {s.qubit}")
        elif isinstance(s, Extract):
            lines.append(f"EXTRACT {s.qubit}")
        else:
            lines.append(f"GATE {s.gate.name} {s.edge[0]} {s.edge[1]}")
    return "\n".join(lines) + "\n"


def parse_protocol(text: str, n: int, gate_set: GateSet) -> Protocol:
    by_name = {g.name: g for g in gate_set.gates}
    for g, _ in gate_set.placed_extra:
        by_name.setdefault(g.name, g)
    by_name.setdefault("swap", _swap_gate())
    steps: list[Step] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "RESET":
            steps.append(Reset(int(parts[1])))
        elif parts[0] == "EXTRACT":
            steps.append(Extract(int(parts[1])))
        elif parts[0] == "GATE":
            if parts[1] not in by_name:
                raise ProtocolError(f"unknown gate {parts[1]!r}")
            steps.append(GateStep(by_name[parts[1]], (int(parts[2]), int(parts[3]))))
        else:
            raise ProtocolError(f"unknown protocol line {ln!r}")
    return Protocol(n, tuple(steps))
