"""States the package derives from checked states skip the eigensolver.

Every site that builds its result with `DensityOperator._derived` must return
what the public, fully checked constructor would have stored: the checked
constructor accepts the matrix and returns it bitwise unchanged, so its
-1e-13 clamp would not have fired.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from cxtherm import experiments, thermo
from cxtherm.gates import Circuit, apply_circuit, channel_gate, default_gate_set
from cxtherm.registers import (
    DensityOperator,
    QubitRegister,
    ghz_state,
    ones_state,
    partial_trace,
    register,
    state_from_vector,
    tensor,
    zero_state,
)
from cxtherm.sampling import haar_state_vector, random_density_matrix, task_rng
from cxtherm.thermo import Extract, GateStep, Protocol, Reset, ThermalModel

NS = [2, 3, 4, 5]
SEEDS = range(3)

# a CPTP channel that is not unitary: amplitude damping of the first qubit
_GAMMA = 0.3
DAMP = channel_gate("damp", [
    np.kron(np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - _GAMMA)]]), np.eye(2)),
    np.kron(np.array([[0.0, math.sqrt(_GAMMA)], [0.0, 0.0]]), np.eye(2)),
])


def assert_as_checked(out):
    assert type(out) is DensityOperator
    again = DensityOperator(out.register, out.matrix)
    assert np.array_equal(again.matrix, out.matrix)


def random_state(n, seed, rank=None):
    rng = task_rng(seed, n)
    rank = rank or int(rng.integers(1, 2 ** n + 1))
    return DensityOperator(register(n), random_density_matrix(2 ** n, rank, rng))


def random_ops(n, seed, count):
    rng = task_rng(seed, 100 + n)
    pool = [g for g in default_gate_set().gates if not g.is_identity] + [DAMP]
    ops = []
    for _ in range(count):
        i, j = (int(q) for q in rng.choice(n, 2, replace=False))
        ops.append((pool[int(rng.integers(len(pool)))], (i, j)))
    return ops


@pytest.mark.parametrize("n", NS)
def test_run_protocol_and_apply_circuit(n):
    for seed in SEEDS:
        for rho in (random_state(n, seed), random_state(n, seed, rank=1)):
            ops = random_ops(n, seed, 2 * n)
            assert_as_checked(apply_circuit(Circuit(n, tuple(ops)), rho))
            steps = [GateStep(g, e) for g, e in ops] + [Reset(0), Extract(0), Reset(n - 1)]
            out, _ = thermo.run_protocol(Protocol(n, tuple(steps)), rho, ThermalModel.degenerate(n))
            assert_as_checked(out)


@pytest.mark.parametrize("n", NS)
def test_lifted_input_and_g_lower_bound_states(n, monkeypatch, gate_set):
    cnot = next(g for g in gate_set.gates if g.name == "cnot")
    proto = Protocol(n, (GateStep(cnot, (0, 1)), Extract(1), Reset(0), GateStep(cnot, (0, 1))))
    lift = thermo.lift_midcircuit(proto, ThermalModel.degenerate(n), gate_set)
    assert (lift.m1, lift.m2) == (1, 1)
    tildes = []
    monkeypatch.setattr(
        thermo, "cx_entropy", lambda tilde, *a, **k: tildes.append(tilde) or SimpleNamespace(value=0.0)
    )
    for seed in SEEDS:
        rho = random_state(n, seed)
        assert_as_checked(thermo.lifted_input(rho, lift))
        thermo.g_lower_bound(rho, gate_set, 0, 0.9, 1)
    assert len(tildes) == 4 * len(SEEDS)
    for tilde in tildes:
        assert_as_checked(tilde)


@pytest.mark.parametrize("n", NS)
def test_continuity_trial_evolved_states(n, monkeypatch):
    seen = []
    monkeypatch.setattr(experiments, "entanglement_E", lambda rho: seen.append(rho) or 0.0)
    for source in ("haar", "near_identity"):
        experiments.continuity_trial(n, 3, 11 + n, source)
    assert len(seen) == 2 * 2 * 3
    for rho in seen:
        assert_as_checked(rho)


@pytest.mark.parametrize("n", [3, 4])
def test_decoupling_rho_prime_and_its_marginals(n, monkeypatch, gate_set):
    traced = []
    original = experiments.partial_trace

    def recording(op, keep):
        out = original(op, keep)
        traced.extend([op, out])
        return out

    monkeypatch.setattr(experiments, "partial_trace", recording)
    for seed in SEEDS:
        experiments.decoupling_simulate(random_state(n, seed), n - 1, gate_set, 1, 1, 1, 0.9, 0.25, seed)
    assert len(traced) == 4 * len(SEEDS)
    for rho in traced:
        assert_as_checked(rho)


@pytest.mark.parametrize("n", NS)
def test_partial_trace_tensor_and_state_from_vector(n):
    for seed in SEEDS:
        rho = random_state(n, seed)
        for keep in (rho.register.labels[:1], rho.register.labels[1:], rho.register.labels[::2]):
            assert_as_checked(partial_trace(rho, keep))
        b = DensityOperator(QubitRegister(("b",)), random_state(1, seed).matrix)
        assert_as_checked(tensor(rho, b))
        assert_as_checked(tensor(b, rho))
        assert_as_checked(state_from_vector(haar_state_vector(2 ** n, task_rng(seed, 7))))
    for builder in (zero_state, ones_state, ghz_state):
        assert_as_checked(builder(n))


def test_derived_sites_run_no_eigensolver(monkeypatch):
    n = 4
    rho = random_state(n, 0)
    b = DensityOperator(QubitRegister(("b",)), np.eye(2) / 2)
    ops = random_ops(n, 0, 6)
    vec = haar_state_vector(2 ** n, task_rng(0, 7))

    def refuse(*args, **kwargs):
        raise AssertionError("a derived state ran the eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    apply_circuit(Circuit(n, tuple(ops)), rho)
    steps = tuple(GateStep(g, e) for g, e in ops) + (Reset(1),)
    thermo.run_protocol(Protocol(n, steps), rho, ThermalModel.degenerate(n))
    partial_trace(rho, ["q0", "q2"])
    tensor(rho, b)
    state_from_vector(vec)


@pytest.mark.parametrize("vec", [np.zeros(4), np.array([np.nan, 1.0, 0.0, 0.0]), np.full(2, np.inf)])
def test_state_from_vector_rejects_zero_and_non_finite(vec):
    with pytest.raises(ValueError, match="state vector must be finite and nonzero"):
        state_from_vector(vec)
