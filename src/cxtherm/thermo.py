"""Thermodynamic model: RESET/EXTRACT/gate primitives with cost ledgers,
optimal erasure search, midcircuit lifting, and compression search.

Work is tracked dimensionless as beta*W; multiplying by k_B T is a display
concern.  A RESET of qubit i costs log Z_i, an EXTRACT refunds it, and each
non-identity gate costs one unit of complexity and no work.

`run_protocol` applies a gate step with the local kernel, which holds the
previous matrix and its output.  A run of RESETs, or an EXTRACT, overwrites
a matrix the protocol owns in one pass, after tracing its qubits out: one
qubit into a quarter-size buffer, two or more into two sixteenth-size ones
and then smaller ones; the result is hermitized in place, above 256 rows a
pair of tiles at a time.  With the caller's matrix, a gate step thus peaks
at three 2^n x 2^n matrices plus 1 MiB blocks, a lone RESET or an EXTRACT
at two and a quarter, and a longer run of RESETs at two and an eighth
(768, 576 and 544 MiB at n = 12, where one matrix is 256 MiB).

The qubits a simple projector leaves free come from `gates.unmasked`; the
|0><0| that a RESET writes and an ancilla starts in is the read-only `KET0`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cxentropy import WITNESS_SLACK, cx_entropy
from .entropies import LOG2
from .errors import ProtocolError
from .gates import (
    SWAP,
    BoundedCache,
    Gate,
    GateSet,
    _read_only,
    apply_circuit,
    apply_local,
    channel_gate,
    edges,
    gibbs_check,
    mask_matrix,
    mask_traces_identity,
    unitary_gate,
    unmasked,
)
from .registers import DensityOperator, register
from .search import minimize_over_effects

KET0 = _read_only(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


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


def _replace_qubits(sigma: np.ndarray, n: int, qubits: Sequence[int], local: np.ndarray) -> None:
    """Overwrite sigma, a C-contiguous 2^n x 2^n matrix, with what replacing
    the qubits one at a time in this order leaves: local on the last,
    |0><0| on the others, (x) the partial trace over all of them.

    The qubits are traced out in order, a repeated one once, each trace
    into a quarter of the last; the first two go straight into
    sixteenth-size buffers, with the sums of one trace after the other.
    Then sigma is written once: local (x) the trace where the other qubits
    are in |0><0|, and +0.0 elsewhere, which is also what one replacement
    at a time leaves there: a trace sums from +0.0."""
    traced = list(dict.fromkeys(qubits))
    reduced, left, rest = sigma, list(range(n)), traced
    if len(traced) > 1:
        a, b = traced[:2]
        t = sigma.reshape((2,) * (2 * n))

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
    last, others = qubits[-1], set(traced) - {qubits[-1]}
    if others:
        sigma.fill(0.0)
    at = tuple(0 if ax % n in others else slice(None) for ax in range(2 * n))
    block = sigma.reshape((2,) * (2 * n))[at]
    # the block's axes are the qubits left and the last, in register order
    j = sum(q < last for q in left)
    shape = (2,) * j + (1,) + (2,) * (len(left) - j)
    spot = (1,) * j + (2,) + (1,) * (len(left) - j)
    np.multiply(local.reshape(spot * 2), reduced.reshape(shape * 2), out=block)


def _runs(steps: Sequence[Step]):
    """The steps in order, a maximal run of RESETs as one tuple, any other
    step alone."""
    for is_reset, group in itertools.groupby(steps, lambda s: isinstance(s, Reset)):
        yield from [tuple(group)] if is_reset else ((s,) for s in group)


def run_protocol(
    protocol: Protocol, rho: DensityOperator, model: ThermalModel
) -> tuple[DensityOperator, CostLedger]:
    """Apply the steps in order.  A gate step makes a new matrix; a run of
    RESETs and an EXTRACT overwrite a matrix the protocol owns, copied from
    rho's on the first of them that comes before any gate, so rho is never
    written.  A run of RESETs is one replacement, but each RESET adds its
    work, in step order."""
    if protocol.n != rho.register.n or model.n != protocol.n:
        raise ProtocolError("protocol, state, and model sizes disagree")
    sigma = rho.matrix
    complexity = 0
    beta_work = 0.0
    for run in _runs(protocol.steps):
        step = run[0]
        if isinstance(step, (Reset, Extract)):
            for s in run:
                if not 0 <= s.qubit < protocol.n:
                    raise ProtocolError(f"{s!r} acts outside the {protocol.n}-qubit register")
            local, sign = KET0, 1.0
            if isinstance(step, Extract):
                # the qubit's populations from the diagonal alone, an O(d) read
                pops = sigma.diagonal().real.reshape(2 ** step.qubit, 2, -1).sum(axis=(0, 2))
                ground = float(pops[0]) / max(float(pops.sum()), 1e-300)
                if ground < 1.0 - EXTRACT_FIDELITY_TOL:
                    raise ProtocolError(
                        f"EXTRACT on qubit {step.qubit}: population in |0> is {ground:.12g}"
                    )
                local, sign = model.thermal_qubit(step.qubit), -1.0
            if sigma is rho.matrix:
                sigma = sigma.copy()  # C-ordered, so the block views are views
            _replace_qubits(sigma, protocol.n, [s.qubit for s in run], local)
            for s in run:
                beta_work += sign * model.reset_work(s.qubit)
        elif isinstance(step, GateStep):
            sigma = apply_local(step.gate, step.edge, sigma)
            if not step.gate.is_identity:
                complexity += 1
        else:
            raise ProtocolError(f"unknown protocol step {step!r}")
    final = DensityOperator._derived(rho.register, sigma, owned=sigma is not rho.matrix)
    return final, CostLedger(complexity, beta_work)


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


_GIBBS_CHECKED = BoundedCache()


def validate_gibbs_gate_set(gate_set: GateSet, model: ThermalModel) -> None:
    """Raise ValueError unless every placement of the gate set fixes the pair
    Gibbs weight of the model.  A passing verdict is kept per gate-set
    content and energies; a failing set is checked, and raises, every time."""
    _GIBBS_CHECKED.get((gate_set.content_key, model.energies), lambda: _check_gibbs(gate_set, model))


def _check_gibbs(gate_set: GateSet, model: ThermalModel) -> bool:
    placed = [(g, e) for g in gate_set.gates for e in edges(gate_set.connectivity, model.n)]
    for gate, (i, j) in placed + list(gate_set.placed_extra):
        if not (0 <= i < model.n and 0 <= j < model.n):
            raise ValueError(
                f"gate {gate.name!r} is placed on edge ({i},{j}), outside the {model.n}-qubit model"
            )
        if not gibbs_check(gate, model.gamma_pair(i, j)):
            raise ValueError(f"gate {gate.name!r} does not preserve the Gibbs weight on edge ({i},{j})")
    return True


# ---------------------------------------------------------------------------
# optimal erasure


_RESET_WORK = BoundedCache()


def _reset_work(model: ThermalModel) -> np.ndarray:
    """The RESET work of every mask: a masked qubit is projected to |0>, and
    the RESET set is the rest.  Read-only, as it is shared per energies."""
    n = model.n
    return _read_only(np.array([sum(model.reset_work(i) for i in unmasked(n, m)) for m in range(2 ** n)], float))


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
    <0^n| rho' |0^n> >= eta, exhaustive over the finite gate set; ValueError
    when none does.  The protocol is replayed, and AssertionError is raised
    unless the replay reaches eta within WITNESS_SLACK at the optimal work."""
    n = rho.n
    if model.n != n:
        raise ValueError("model size does not match the state")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    validate_gibbs_gate_set(gate_set, model)

    work = _RESET_WORK.get(model.energies, lambda: _reset_work(model))
    best = minimize_over_effects(gate_set, n, r, [rho.matrix], lambda traces, masks: work[masks], eta=eta)
    reset_set = unmasked(n, best.mask_bits)
    steps: list[Step] = [GateStep(g, e) for g, e in best.circuit.ops]
    steps.extend(Reset(i) for i in reset_set)
    protocol = Protocol(n, tuple(steps))
    final, ledger = run_protocol(protocol, rho, model)
    success = float(final.matrix[0, 0].real)
    if success < eta - WITNESS_SLACK:
        raise AssertionError(f"erasure protocol reaches <0^n|rho'|0^n> = {success!r} < eta = {eta!r}")
    if abs(ledger.beta_work - best.value) > 1e-9:
        raise AssertionError(f"erasure protocol costs {ledger.beta_work!r}, its optimum {best.value!r}")
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


def _with_ancillas(rho: DensityOperator, zeros: int, mixed: int) -> DensityOperator:
    """rho (x) |0><0|^zeros (x) (I/2)^mixed, one ancilla at a time."""
    sigma = rho.matrix
    for local in [KET0] * zeros + [np.eye(2, dtype=complex) / 2.0] * mixed:
        sigma = np.kron(sigma, local)
    return DensityOperator._derived(register(rho.n + zeros + mixed), sigma, owned=sigma is not rho.matrix)


def lifted_input(rho: DensityOperator, lift: LiftedProtocol) -> DensityOperator:
    """Executable input of the lifted protocol: every ancilla starts in |0>
    (the protocol's own leading EXTRACT steps thermalize the m2 ancillas)."""
    if rho.n != lift.original_n:
        raise ValueError("matrix dimension does not match register")
    return _with_ancillas(rho, lift.m1 + lift.m2, 0)


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
    for m1 in range(m_max + 1):
        for m2 in range(m_max + 1):
            est = cx_entropy(_with_ancillas(rho, m1, m2), gate_set, r + m1 + m2, eta, threads=threads)
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
    with fidelity^2 >= 1 - eps; exhaustive, so exact; ValueError when none
    does.  The circuit is replayed, and AssertionError is raised unless the
    replay reaches 1 - eps within WITNESS_SLACK."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if not gate_set.is_unitary_only:
        raise ValueError("compression is defined for unitary computations")
    n = rho.n
    # tr P_m = 2^(qubits kept) orders the masks as their kept counts do
    sizes = mask_traces_identity(n)
    best = minimize_over_effects(gate_set, n, r, [rho.matrix], lambda traces, masks: sizes[masks], eta=1.0 - eps)
    kept_qubits = unmasked(n, best.mask_bits)
    sigma = apply_circuit(best.circuit, rho).matrix
    success = float((mask_matrix(n)[best.mask_bits] * np.real(np.diag(sigma))).sum())
    if success < 1.0 - eps - WITNESS_SLACK:
        raise AssertionError(f"compression keeps {success!r} < 1 - eps = {1.0 - eps!r}")
    return CompressionResult(len(kept_qubits), best.circuit, kept_qubits, success)


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
        qubits = parts[2:] if parts[0] == "GATE" else parts[1:]
        if len(parts) != {"RESET": 2, "EXTRACT": 2, "GATE": 4}.get(parts[0]) or not all(
                q.removeprefix("-").isdecimal() for q in qubits):
            raise ProtocolError(f"malformed protocol line {ln!r}")
        if parts[0] == "RESET":
            steps.append(Reset(int(parts[1])))
        elif parts[0] == "EXTRACT":
            steps.append(Extract(int(parts[1])))
        else:
            if parts[1] not in by_name:
                raise ProtocolError(f"unknown gate {parts[1]!r}")
            steps.append(GateStep(by_name[parts[1]], (int(parts[2]), int(parts[3]))))
    return Protocol(n, tuple(steps))
