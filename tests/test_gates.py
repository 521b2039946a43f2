import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cxtherm.cxentropy as cxentropy_module
import cxtherm.experiments as experiments_module
import cxtherm.gates as gates_module
import cxtherm.thermo as thermo_module
from cxtherm.cxentropy import cx_entropy
from cxtherm.errors import BudgetExceededError
from cxtherm.experiments import continuity_trial, decoupling_simulate, transition_scan
from cxtherm.gates import (
    CNOT,
    CZ,
    I2,
    SWAP,
    Z,
    Circuit,
    GateSet,
    PlacedGate,
    apply_circuit,
    apply_local,
    apply_local_vector,
    channel_gate,
    default_gate_set,
    edge_layers,
    edges,
    entangling_power,
    expand_operator,
    format_matrix,
    gibbs_check,
    inverse_circuit,
    mask_matrix,
    mask_traces_identity,
    parse_gate_set,
    placed_alphabet,
    pullback_effect,
    pullback_local,
    format_gate_set,
    unitary_gate,
    unmasked,
)
from cxtherm.registers import DensityOperator, ghz_state, register, state_from_vector, zero_state
from cxtherm.sampling import haar_unitary, random_density_matrix, sample_haar_unitary, task_rng
from cxtherm.search import (
    approx_state_complexity,
    circuit_complexity,
    circuit_count,
    effect_set,
    enumerate_effects,
)
from cxtherm.thermo import (
    Extract,
    GateStep,
    Protocol,
    Reset,
    ThermalModel,
    compression_search,
    erasure_search,
    gibbs_preserving_gate_set,
    run_protocol,
)

from oracles import (
    bell_by_hand,
    brute_force_state_distance,
    dense_apply,
    dense_placed_alphabet,
    dense_pullback,
    embedded_kraus,
    entangling_power_grid_oracle,
    iter_circuits,
    simple_projector,
    tensordot_contract,
)


def find_gate(gate_set, name):
    return next(g for g in gate_set.gates if g.name == name)


def circuit_unitary(circuit):
    """Full-register unitary of a unitary circuit, gates applied left to right."""
    u = np.eye(2 ** circuit.n, dtype=complex)
    for gate, edge in circuit.ops:
        u = embedded_kraus(gate, edge, circuit.n)[0] @ u
    return u


@lru_cache(maxsize=None)
def word_unitaries(connectivity, n, r):
    """(gate count, unitary) of every word of at most r placed gates."""
    return [(c.complexity, circuit_unitary(c)) for c in iter_circuits(default_gate_set(connectivity), n, r)]


def pure_distance(target, vec):
    return math.sqrt(max(0.0, 1.0 - abs(np.vdot(target, vec)) ** 2))


class TestApplyCircuit:
    def test_empty_circuit(self, gate_set):
        rho = ghz_state(2)
        assert np.allclose(apply_circuit(Circuit(2), rho).matrix, rho.matrix)

    def test_bell_preparation_matches_hand_matrices(self, gate_set):
        circuit = Circuit(2, ((find_gate(gate_set, "h_a"), (0, 1)),
                              (find_gate(gate_set, "cnot"), (0, 1))))
        out = apply_circuit(circuit, zero_state(2))
        assert np.allclose(out.matrix, bell_by_hand(), atol=1e-12)

    def test_circuit_then_inverse(self, gate_set):
        ops = ((find_gate(gate_set, "h_a"), (0, 1)),
               (find_gate(gate_set, "t_b"), (1, 2)),
               (find_gate(gate_set, "cnot"), (0, 2)))
        circ = Circuit(3, ops)
        inv = inverse_circuit(circ, gate_set)
        rho = DensityOperator(register(3), random_density_matrix(8, 8, task_rng(5)))
        back = apply_circuit(inv, apply_circuit(circ, rho))
        assert np.linalg.norm(back.matrix - rho.matrix) < 1e-9

    def test_trace_preserved(self, gate_set):
        circuit = Circuit(2, ((find_gate(gate_set, "cnot"), (0, 1)),))
        rho = DensityOperator(register(2), random_density_matrix(4, 2, task_rng(1)))
        assert apply_circuit(circuit, rho).trace() == pytest.approx(rho.trace(), abs=1e-10)

    def test_off_graph_target_rejected(self, gate_set):
        circuit = Circuit(2, ((find_gate(gate_set, "cnot"), (0, 5)),))
        with pytest.raises(ValueError):
            apply_circuit(circuit, zero_state(2))


class TestEmbedding:
    @pytest.mark.parametrize("n_a, n", [(2, 3), (3, 4), (2, 4)])
    def test_edge_embedding_equals_nested_embedding(self, gate_set, n_a, n):
        # placing a gate of the n_a-qubit alphabet straight on the n-qubit
        # register is bit for bit the embedding of its n_a-qubit embedding
        for pg in placed_alphabet(gate_set, n_a):
            nested = expand_operator(embedded_kraus(pg.gates[0], pg.edge, n_a)[0], n, list(range(n_a)))
            assert np.array_equal(expand_operator(pg.gates[0].unitary, n, pg.edge), nested)


def _parsed_factor_set():
    """A parsed gate set holding -I, a dephasing channel whose Kraus operators
    factor as k (x) I, and cz twice, once written with signed zeros."""
    cz_signed = np.where(CZ == 0, complex(-0.0, -0.0), CZ)
    kraus = (math.sqrt(0.5) * np.eye(4), math.sqrt(0.5) * np.kron(Z, I2))
    blocks = [("minus_i unitary", [-np.eye(4)]), ("dephase_a channel 2", kraus),
              ("cz unitary", [CZ]), ("cz_signed unitary", [cz_signed])]
    lines = ["connectivity all-to-all"]
    for decl, mats in blocks:
        lines += [f"gate {decl}"] + [ln for m in mats for ln in format_matrix(m)]
    return parse_gate_set("\n".join(lines))


class TestPlacedAlphabet:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_the_rounded_dense_embedding_key(self, n):
        # the local key keeps, in order, the first placement of every rounded
        # full-register action; the Gibbs sets hold value-equal channels on
        # different edges whose zeros differ in sign; the last set places cnot
        # and h_a on reversed edges, where they equal cnot_r and h_b
        model = ThermalModel(tuple(task_rng(n).uniform(0.2, 2.0, n)))
        by_name = {g.name: g for g in default_gate_set().gates}
        extra = [(by_name[name], e[::-1] if name in ("cnot", "h_a") else e)
                 for name in ("cnot", "h_a", "cnot_r", "h_b") for e in edges("all-to-all", n)]
        sets = [default_gate_set(), default_gate_set("chain"), gibbs_preserving_gate_set(model),
                gibbs_preserving_gate_set(ThermalModel.degenerate(n)), _parsed_factor_set(),
                GateSet("finite", (), "chain", tuple(extra))]
        for gate_set in sets:
            want = [(g.name, e) for g, e in dense_placed_alphabet(gate_set, n)]
            assert [(pg.gates[0].name, pg.edge) for pg in placed_alphabet(gate_set, n)] == want

    def test_parsed_set_collapses_phases_and_factors(self):
        names = [(pg.gates[0].name, pg.edge) for pg in placed_alphabet(_parsed_factor_set(), 3)]
        assert names[:4] == [("minus_i", (0, 1)), ("dephase_a", (0, 1)), ("dephase_a", (1, 2)), ("cz", (0, 1))]
        assert "cz_signed" not in {name for name, _ in names}

    def test_state_and_unitary_sets_build_no_embedding(self, monkeypatch):
        # a gate-set content no other test caches, so its 7-qubit alphabet is
        # built here, under the refusal
        n = 7
        gate_set = GateSet("finite", tuple(unitary_gate(g.name + "_copy", g.unitary)
                                           for g in default_gate_set().gates))
        cnot = expand_operator(CNOT, n, [0, 1])
        bell = np.zeros(2 ** n, dtype=complex)
        bell[0] = bell[2 ** (n - 2) * 3] = math.sqrt(0.5)
        original = gates_module.expand_operator

        def refuse(mat, n_arg, positions):
            if n_arg == n:
                raise AssertionError(f"{n}-qubit embedding built")
            return original(mat, n_arg, positions)

        monkeypatch.setattr(gates_module, "expand_operator", refuse)
        assert approx_state_complexity(bell, gate_set, 1e-9, 2) == 2
        assert circuit_complexity(gate_set, cnot, 1) == 1

    def test_effect_sets_build_no_embedding(self, monkeypatch):
        # the engine pulls effects back and pushes query operators through
        # the first gate locally: gate-set contents no other test caches grow
        # M_2, answer an exact query and an erasure search with every 5-qubit
        # embedding refused
        n = 5
        by_name = {g.name: g for g in default_gate_set().gates}
        small = GateSet("finite", tuple(unitary_gate(name + "_copy", by_name[name].unitary)
                                        for name in ("cnot", "h_a")), "chain")
        model = ThermalModel(tuple(task_rng(55).uniform(0.2, 2.0, n)))
        gibbs = gibbs_preserving_gate_set(model, "chain")
        rho = DensityOperator(register(n), random_density_matrix(2 ** n, 3, task_rng(56)))
        original = gates_module.expand_operator

        def refuse(mat, n_arg, positions):
            if n_arg == n:
                raise AssertionError(f"{n}-qubit embedding built")
            return original(mat, n_arg, positions)

        for module in (gates_module, cxentropy_module, thermo_module, experiments_module):
            monkeypatch.setattr(module, "expand_operator", refuse, raising=False)
        rows, _, built = effect_set(small, n).upto(2)
        assert built and len(rows) > 2 ** n
        assert cx_entropy(rho, small, 2, 0.9).certainty == "exact"
        assert erasure_search(rho, model, gibbs, 1, 0.9).success_probability >= 0.9 - 1e-9


class TestLocalApplication:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_the_dense_embedding_on_both_orientations(self, gate_set, n):
        model = ThermalModel(tuple(task_rng(40 + n).uniform(0.2, 2.0, n)))
        gibbs = gibbs_preserving_gate_set(model)
        gates = list(gate_set.gates) + list(gibbs.gates) + [g for g, _ in gibbs.placed_extra]
        assert any(not g.is_unitary for g in gates)
        rng = task_rng(n)
        for i, j in edges("all-to-all", n):
            for edge in ((i, j), (j, i)):
                sigma, effect = (random_density_matrix(2 ** n, int(rng.integers(1, 2 ** n + 1)), rng)
                                 for _ in range(2))
                vecs = rng.normal(size=(3, 2 ** n)) + 1j * rng.normal(size=(3, 2 ** n))
                vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
                # the kernel acts on each statevector along the last axis: one,
                # a batch of 3, the rows of a matrix, the rows of a stack of unitaries
                statevectors = (vecs[0], vecs, sigma, np.stack([haar_unitary(2 ** n, rng) for _ in range(2)]))
                for g in gates:
                    kraus_full = embedded_kraus(g, edge, n)
                    dense = dense_apply(kraus_full, sigma)
                    assert np.abs(apply_local(g, edge, sigma) - dense).max() <= 1e-14
                    dense = dense_pullback(kraus_full, effect)
                    assert np.abs(pullback_local(g, edge, effect) - dense).max() <= 1e-14
                    if g.is_unitary:
                        for x in statevectors:
                            dense = x @ kraus_full[0].T
                            assert np.abs(apply_local_vector(g, edge, x) - dense).max() <= 1e-14
                        # U X on the row index, the heuristic's sweep step
                        local = gates_module._contract(g.unitary.reshape((2,) * 4), edge, sigma[None])[0]
                        assert np.abs(local - kraus_full[0] @ sigma).max() <= 1e-14

    @pytest.mark.parametrize("edge", [(0, 0), (0, 3), (-1, 1)])
    def test_edge_off_the_register_rejected(self, gate_set, edge):
        for apply in (apply_local, pullback_local):
            with pytest.raises(ValueError, match="invalid edge"):
                apply(gate_set.gates[0], edge, np.eye(8, dtype=complex) / 8)
        with pytest.raises(ValueError, match="invalid edge"):
            apply_local_vector(gate_set.gates[0], edge, np.eye(8, dtype=complex)[0])

    def test_channel_refused_on_a_statevector(self):
        channel, _ = gibbs_preserving_gate_set(ThermalModel((0.5, 1.0))).placed_extra[0]
        with pytest.raises(ValueError, match="cannot act on a statevector"):
            apply_local_vector(channel, (0, 1), np.eye(4, dtype=complex)[0])
        mixed = PlacedGate((default_gate_set().gates[0], channel), (0, 1), 2)
        with pytest.raises(ValueError, match=f"channel {channel.name!r} cannot act on a statevector"):
            mixed.apply_vector(np.eye(4, dtype=complex)[0])

    @pytest.mark.parametrize("entry", [
        "run_protocol", "apply_circuit", "compression_search", "decoupling_simulate", "continuity_trial",
        "pullback_effect", "transition_scan", "cx_entropy",
    ])
    def test_register_simulation_builds_no_embedding(self, gate_set, monkeypatch, entry):
        # a gate applied once on the register (6 qubits; 4 for cx_entropy's
        # witness) acts locally; the warm-up call builds the search's cached
        # alphabets, so the second call places no gate either
        n = 4 if entry == "cx_entropy" else 6
        model = ThermalModel(tuple(task_rng(6).uniform(0.2, 2.0, 6)))
        channel = next(g for g, e in gibbs_preserving_gate_set(model).placed_extra if e == (1, 4))
        gates = {g.name: g for g in gate_set.gates}
        rho = DensityOperator(register(n), random_density_matrix(2 ** n, 5, task_rng(7)))
        bell = np.zeros(2 ** n)
        bell[0] = bell[2 ** (n - 2) * 3] = math.sqrt(0.5)  # Bell pair on qubits 0, 1
        call = {
            "run_protocol": lambda: run_protocol(Protocol(n, (
                GateStep(gates["h_a"], (5, 0)), GateStep(gates["cnot"], (0, 2)),
                GateStep(channel, (1, 4)), Reset(3), Extract(3),
            )), rho, model)[0].matrix,
            "apply_circuit": lambda: apply_circuit(
                Circuit(n, ((gates["cnot"], (4, 1)), (gates["t_b"], (2, 3)))), rho
            ).matrix,
            "compression_search": lambda: compression_search(state_from_vector(bell), gate_set, 1, 0.1),
            "decoupling_simulate": lambda: decoupling_simulate(rho, 3, gate_set, 2, 2, 1, 0.9, 0.25, 3),
            "continuity_trial": lambda: continuity_trial(n, 2, 5),
            "pullback_effect": lambda: pullback_effect(
                Circuit(n, ((gates["cnot"], (4, 1)), (channel, (1, 4)), (gates["t_b"], (2, 3)))),
                0b100101,
            ).matrix,
            "transition_scan": lambda: transition_scan(n, [1, 2], 3, 0.9, gate_set, 2, 0, source="haar_su4"),
            # the r = 1 witness of a Bell pair holds a gate
            "cx_entropy": lambda: cx_entropy(state_from_vector(bell), gate_set, 1, 0.9),
        }[entry]
        before = call()  # also builds the cached alphabets

        def refuse_at_n(original, n_arg):
            def wrapper(*args):
                if args[n_arg] == n:
                    raise AssertionError(f"{n}-qubit embedding built")
                return original(*args)
            return wrapper

        refuse = refuse_at_n(gates_module.expand_operator, 1)
        for module in (gates_module, thermo_module, experiments_module):
            monkeypatch.setattr(module, "expand_operator", refuse, raising=False)
        monkeypatch.setattr(PlacedGate, "__init__", refuse_at_n(PlacedGate.__init__, 3))
        after = call()
        if entry == "compression_search":
            assert before.circuit.ops and after == before
        elif entry == "cx_entropy":
            assert before.witness.provenance[0].ops and after.value == before.value
            assert np.array_equal(after.witness.matrix, before.witness.matrix)
        elif isinstance(before, np.ndarray):
            assert np.array_equal(after, before)
        else:
            assert after == before

    @staticmethod
    def kernel_cases(n, batches, stack=None, pairs=None):
        """(tensor, edge, x) for k = 2 on statevectors and on a matrix's row
        index, k = 4 on matrices, every ordered edge (or those of `pairs`) and
        each batch length; with a `stack`, that many gate tensors on a
        leading axis."""
        rng = task_rng(90 + n)
        d = 2 ** n
        lead = () if stack is None else (stack,)
        for k, m in ((2, 1), (2, 2), (4, 2)):
            size = (stack or 1) * 4 ** k
            tensor = (rng.normal(size=(size,)) + 1j * rng.normal(size=(size,))).reshape(lead + (2,) * (2 * k))
            for batch in batches:
                x = rng.normal(size=(batch,) + (d,) * m) + 1j * rng.normal(size=(batch,) + (d,) * m)
                for edge in pairs or ((i, j) for i in range(n) for j in range(n) if i != j):
                    yield tensor, edge, x

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_kernel_equals_tensordot_bitwise(self, n):
        for tensor, edge, x in self.kernel_cases(n, (1, 3)):
            assert np.array_equal(gates_module._contract(tensor, edge, x),
                                  tensordot_contract(tensor, edge, x)), (tensor.ndim, x.shape, edge)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_blocked_kernel_equals_tensordot_bitwise(self, monkeypatch, n):
        # 64 entries hold 4 columns of a k = 4 product, the fewest that take
        # the matrix-matrix kernel; 37 items of a 2-qubit matrix leave a
        # lone one-column item after the last full slice
        monkeypatch.setattr(gates_module, "BLOCK_ENTRIES", 64)
        paths = set()
        for tensor, edge, x in self.kernel_cases(n, (1, 3, 37) if n <= 3 else (1, 3)):
            paths.add("one product" if x.size <= 64 else "batch slices" if x[0].size <= 64 else "item parts")
            assert np.array_equal(gates_module._contract(tensor, edge, x),
                                  tensordot_contract(tensor, edge, x)), (tensor.ndim, x.shape, edge)
        assert ("batch slices" if n <= 3 else "item parts") in paths

    @staticmethod
    def kernel_path(x):
        limit = gates_module.BLOCK_ENTRIES
        return "one product" if x.size <= limit else "batch slices" if x[0].size <= limit else "item blocks"

    @pytest.mark.parametrize("n, batches, pairs, path", [
        (2, (1, 3), None, "one product"),
        (4, (1, 3), None, "one product"),
        (6, (1, 3), None, "one product"),
        (7, (5,), None, "batch slices"),
        (8, (2,), ((0, 7), (6, 1), (3, 4)), "batch slices"),
        (9, (1,), ((0, 8), (8, 3), (4, 5)), "item blocks"),
    ])
    def test_stacked_kernel_equals_single_calls_bitwise(self, n, batches, pairs, path):
        # a stack of 3 gate tensors gives the 3 single-gate results on a
        # leading axis, bit for bit, on each of the kernel's three paths
        paths = set()
        for tensor, edge, x in self.kernel_cases(n, batches, stack=3, pairs=pairs):
            paths.add(self.kernel_path(x))
            got = gates_module._contract(tensor, edge, x)
            assert got.shape == (3,) + x.shape
            for single, image in zip(tensor, got):
                assert np.array_equal(image, gates_module._contract(single, edge, x)), (tensor.ndim, x.shape, edge)
        assert path in paths

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_blocked_stacked_kernel_equals_single_calls_bitwise(self, monkeypatch, n):
        # the small bound of the blocked test: batch slices with a lone
        # one-column item after the last full one, and item blocks
        monkeypatch.setattr(gates_module, "BLOCK_ENTRIES", 64)
        paths = set()
        for tensor, edge, x in self.kernel_cases(n, (1, 37) if n <= 3 else (1, 3), stack=2):
            paths.add(self.kernel_path(x))
            got = gates_module._contract(tensor, edge, x)
            for single, image in zip(tensor, got):
                assert np.array_equal(image, gates_module._contract(single, edge, x)), (tensor.ndim, x.shape, edge)
        assert ("batch slices" if n <= 3 else "item blocks") in paths

    def test_apply_local_holds_one_output_at_ten_qubits(self, gate_set):
        sigma = random_density_matrix(2 ** 10, 2, task_rng(10))
        cnot = find_gate(gate_set, "cnot")
        apply_local(cnot, (0, 1), sigma[:4, :4])  # the gate's tensor, built once
        tracemalloc.start()
        try:
            out = apply_local(cnot, (7, 2), sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == sigma.nbytes
        # the output, plus one block's moved copy and its product at a time
        block = gates_module.BLOCK_ENTRIES * sigma.itemsize
        assert peak <= sigma.nbytes + 2.5 * block, (peak - sigma.nbytes) / block

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("connectivity", ["all-to-all", "chain"])
    def test_placed_gate_runs_the_local_kernel(self, n, connectivity):
        # apply_matrix and pullback of the alphabet's one-gate letters and of
        # the edge layers on a matrix, a batch of 5 and a batch of more than
        # BLOCK_ENTRIES entries, which goes a slice at a time: per gate, bit
        # for bit the kernel's contraction, within 1e-14 of the dense
        # embedding; the engine's inputs are effects and states, of norm <= 1
        rng = task_rng(70 + n)
        d = 2 ** n
        model = ThermalModel(tuple(float(e) for e in rng.uniform(0.1, 2.0, n)))
        sets = (default_gate_set(connectivity), gibbs_preserving_gate_set(model, connectivity))
        inputs = []
        for shape in ((d, d), (5, d, d), (gates_module.BLOCK_ENTRIES // d ** 2 + 1, d, d)):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            x = x + np.swapaxes(x, -1, -2).conj()
            inputs.append(x / np.linalg.norm(x, ord=2, axis=(-2, -1))[..., None, None])
        assert inputs[-1].size > gates_module.BLOCK_ENTRIES
        channels = 0
        for gs in sets:
            alphabet = placed_alphabet(gs, n)
            layers = [layer for _, layer in edge_layers(gs, n)]
            assert all(len(pg.gates) == 1 for pg in alphabet) and max(len(pg.gates) for pg in layers) > 1
            for pg in alphabet + tuple(layers):
                channels += sum(not gate.is_unitary for gate in pg.gates)
                for x in inputs:
                    batch = x.reshape(-1, d, d)
                    images, pullbacks = pg.apply_matrix(x), pg.pullback(x)
                    assert images.shape == pullbacks.shape == (len(pg.gates),) + x.shape
                    for gate, image, pulled in zip(pg.gates, images, pullbacks):
                        kraus_full = embedded_kraus(gate, pg.edge, n)
                        for got, tensor, dense in (
                            (image, gate.superoperator, dense_apply),
                            (pulled, gate.adjoint_superoperator, dense_pullback),
                        ):
                            want = tensordot_contract(tensor, pg.edge, batch).reshape(x.shape)
                            assert np.array_equal(got, want), (gate.name, pg.edge, x.shape)
                            assert np.abs(got - dense(kraus_full, x)).max() <= 1e-14, (gate.name, x.shape)
        assert channels > 0


class TestPullback:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_identity(self, seed):
        gate_set = default_gate_set()
        rng = task_rng(seed)
        alphabet = placed_alphabet(gate_set, 2)
        ops = tuple(
            (alphabet[i].gates[0], alphabet[i].edge)
            for i in rng.integers(len(alphabet), size=2)
        )
        circuit = Circuit(2, ops)
        rho = DensityOperator(register(2), random_density_matrix(4, 4, rng))
        for bits in range(4):
            q = pullback_effect(circuit, bits)
            lhs = np.trace(q.matrix @ rho.matrix).real
            rhs = np.trace(simple_projector(2, bits) @ apply_circuit(circuit, rho).matrix).real
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_empty_circuit_returns_simple(self):
        # qubit i is masked by bit n-1-i: bits 0b10 project qubit 0 alone
        for n in (1, 2, 3):
            for bits in range(2 ** n):
                q = pullback_effect(Circuit(n), bits)
                assert np.array_equal(q.matrix, simple_projector(n, bits))
                assert q.provenance == (Circuit(n), bits)
        assert np.array_equal(simple_projector(2, 0b10), np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_given_effect_has_no_mask_bits(self):
        q = pullback_effect(Circuit(2), pullback_effect(Circuit(2), 3))
        assert q.provenance == (Circuit(2), None)
        assert np.array_equal(q.matrix, simple_projector(2, 3))

    def test_unitary_chain_preserves_trace(self, gate_set):
        circuit = Circuit(2, ((find_gate(gate_set, "h_a"), (0, 1)),
                              (find_gate(gate_set, "cnot"), (0, 1))))
        for bits in range(4):
            q = pullback_effect(circuit, bits)
            assert np.trace(q.matrix).real == pytest.approx(mask_traces_identity(2)[bits], abs=1e-10)

    def test_unitary_equals_conjugation(self, gate_set):
        circuit = Circuit(2, ((find_gate(gate_set, "h_a"), (0, 1)),
                              (find_gate(gate_set, "cnot"), (0, 1))))
        u = circuit_unitary(circuit)
        q = pullback_effect(circuit, 3)
        assert np.allclose(q.matrix, u.conj().T @ simple_projector(2, 3) @ u, atol=1e-12)


class TestEnumeration:
    def test_r0_is_simple_effects(self, gate_set):
        effs = list(enumerate_effects(gate_set, 0, 2))
        assert len(effs) == 4
        expect = {np.round(simple_projector(2, bits), 10).tobytes() for bits in range(4)}
        got = {np.round(e.matrix, 10).tobytes() for e in effs}
        assert got == expect

    def test_monotone_in_r(self, gate_set):
        small = {np.round(e.matrix, 10).tobytes() for e in enumerate_effects(gate_set, 0, 2)}
        large = {np.round(e.matrix, 10).tobytes() for e in enumerate_effects(gate_set, 1, 2)}
        assert small <= large

    def test_single_qubit_register_has_no_placed_gates(self, gate_set):
        effs = list(enumerate_effects(gate_set, 3, 1))
        assert len(effs) == 2  # |0><0| and I only

    def test_effect_validity(self, gate_set):
        for eff in enumerate_effects(gate_set, 1, 2):
            w = np.linalg.eigvalsh(eff.matrix)
            assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10


class TestCircuitComplexity:
    def test_identity_zero(self, gate_set):
        assert circuit_complexity(gate_set, np.eye(4), 2) == 0

    def test_single_gate_one(self, gate_set):
        assert circuit_complexity(gate_set, expand_operator(CNOT, 2, [0, 1]), 2) == 1

    def test_saturates(self, gate_set):
        u = sample_haar_unitary(4, 5)
        assert circuit_complexity(gate_set, u, 1) == math.inf

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_subadditive_under_composition(self, seed):
        gate_set = default_gate_set()
        rng = task_rng(seed)
        alphabet = placed_alphabet(gate_set, 2)
        a, b = (embedded_kraus(pg.gates[0], pg.edge, 2)[0]
                for pg in (alphabet[int(rng.integers(len(alphabet)))] for _ in range(2)))
        c_ab = circuit_complexity(gate_set, b @ a, 2)
        assert c_ab <= 2


class TestStateComplexity:
    def test_zero_state(self, gate_set):
        assert approx_state_complexity(zero_state(2), gate_set, 0.0, 2) == 0

    def test_bell_matches_brute_force(self, gate_set):
        alphabet = placed_alphabet(gate_set, 2)
        mats = [embedded_kraus(pg.gates[0], pg.edge, 2)[0] for pg in alphabet]
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        table = brute_force_state_distance(mats, bell, 2)
        expected = min(k for k, dist in table.items() if dist <= 1e-9)
        assert approx_state_complexity(ghz_state(2), gate_set, 0.0, 3) == expected

    def test_nonincreasing_in_eps(self, gate_set):
        psi = ghz_state(2)
        values = [approx_state_complexity(psi, gate_set, eps, 3) for eps in (0.0, 0.3, 0.8)]
        assert values[0] >= values[1] >= values[2]


class TestEngineBackedMeasures:
    """Both measures are level queries on the reachable-set engine; a scan
    over every gate word, undeduplicated, must give the same least level."""

    @pytest.mark.parametrize("connectivity, n, r", [("all-to-all", 2, 3), ("chain", 3, 2)])
    def test_equal_a_brute_force_over_words(self, connectivity, n, r):
        gate_set = default_gate_set(connectivity)
        words = word_unitaries(connectivity, n, r)
        rng = task_rng(17 + n)
        targets = [words[int(i)][1] for i in rng.integers(len(words), size=6)]
        targets.append(sample_haar_unitary(2 ** n, n))
        for target in targets:
            least = min((k for k, u in words if np.linalg.norm(u - target, 2) <= 1e-8), default=math.inf)
            assert circuit_complexity(gate_set, target, r) == least
            psi = target[:, 0]
            for eps in (0.0, 0.2, 0.5):
                least = min((k for k, u in words if pure_distance(psi, u[:, 0]) <= eps + 1e-7),
                            default=math.inf)
                assert approx_state_complexity(psi, gate_set, eps, r) == least

    def test_global_phase_counts_for_unitaries_only(self, gate_set):
        words = word_unitaries("all-to-all", 2, 2)
        for _, u in words[1::23]:
            shifted = np.exp(0.3j) * u
            assert circuit_complexity(gate_set, shifted, 2) == math.inf
            level = approx_state_complexity(u[:, 0], gate_set, 0.0, 2)
            assert level <= 2
            assert approx_state_complexity(shifted[:, 0], gate_set, 0.0, 2) == level

    def test_budget_is_checked_level_by_level(self, gate_set, monkeypatch):
        # level 1 fits the budget and level 2 does not
        monkeypatch.setenv("CXTHERM_BUDGET", str(circuit_count(len(placed_alphabet(gate_set, 2)), 1)))
        flipped = np.zeros(4)
        flipped[2] = 1.0  # x_a |00>
        assert circuit_complexity(gate_set, expand_operator(CNOT, 2, [0, 1]), 3) == 1
        assert approx_state_complexity(flipped, gate_set, 0.0, 3) == 1
        with pytest.raises(BudgetExceededError):
            circuit_complexity(gate_set, sample_haar_unitary(4, 5), 3)
        with pytest.raises(BudgetExceededError):
            approx_state_complexity(ghz_state(2), gate_set, 0.0, 3)


class TestEntanglingPower:
    def test_identity(self):
        e, dist = entangling_power(np.eye(4))
        assert e == pytest.approx(0.0, abs=1e-12)
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_pauli_z(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        e, dist = entangling_power(z)
        assert e == pytest.approx(math.pi / 2, abs=1e-12)
        assert dist == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_grid_oracle(self, seed):
        u = sample_haar_unitary(4, seed)
        e, _ = entangling_power(u)
        oracle = entangling_power_grid_oracle(u)
        assert e == pytest.approx(oracle, abs=2e-3)

    def test_global_phase_invariance(self):
        u = sample_haar_unitary(4, 3)
        e0, _ = entangling_power(u)
        e1, _ = entangling_power(np.exp(1j * 0.7) * u)
        assert e0 == pytest.approx(e1, abs=1e-10)

    def test_diamond_below_operator_distance(self):
        for seed in range(100):
            u = sample_haar_unitary(4, seed)
            _, dist = entangling_power(u)
            assert dist <= np.linalg.norm(u - np.eye(4), ord=2) + 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            entangling_power(np.diag([1.0, 0.5]))


class TestGibbsCheck:
    def test_energy_conserving_unitary(self):
        model = ThermalModel((0.5, 1.0))
        u = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        assert gibbs_check(unitary_gate("signs", u), model.gamma_pair(0, 1))

    def test_thermalizing_mixture(self):
        model = ThermalModel((0.5, 1.0))
        rng = task_rng(8)
        for _ in range(5):
            q = float(rng.uniform(0.05, 0.95))
            gamma = np.kron(model.thermal_qubit(0), model.thermal_qubit(1))
            w, v = np.linalg.eigh(gamma)
            kraus = [math.sqrt(1 - q) * np.eye(4, dtype=complex)]
            for a in range(4):
                for b in range(4):
                    kraus.append(math.sqrt(q * w[a]) * np.outer(v[:, a], np.eye(4)[:, b]))
            assert gibbs_check(channel_gate("thermal", kraus), model.gamma_pair(0, 1))

    def test_swap_of_different_energies_fails(self):
        model = ThermalModel((0.5, 1.0))
        assert not gibbs_check(unitary_gate("swap", SWAP), model.gamma_pair(0, 1))

    def test_non_cptp_rejected(self):
        with pytest.raises(ValueError):
            channel_gate("double", [2 * np.eye(4)])

    @staticmethod
    def _apply_on_edge(k4, sigma, n, i, j):
        """K sigma K^dag with the 4x4 K acting on qubits (i, j) of n, by
        contracting tensor axes of sigma (no embedded matrix is built)."""
        k = np.asarray(k4).reshape(2, 2, 2, 2)
        t = np.tensordot(k, sigma.reshape((2,) * (2 * n)), axes=([2, 3], [i, j]))
        t = np.moveaxis(t, [0, 1], [i, j])
        t = np.tensordot(t, k.conj(), axes=([n + i, n + j], [2, 3]))
        t = np.moveaxis(t, [-2, -1], [n + i, n + j])
        return t.reshape(2 ** n, 2 ** n)

    def _oracle(self, gate, edge, model):
        """Does the channel, placed on `edge`, fix the full-register Gibbs
        weight?  ||E(G) - G||_1 = tr(G_rest) ||E(G_ij) - G_ij||_1, so the
        pair tolerance 1e-9 scales by tr(G_rest)."""
        n = model.n
        gamma = model.gamma_full()
        kraus = (gate.unitary,) if gate.is_unitary else gate.kraus
        image = sum(self._apply_on_edge(k, gamma, n, *edge) for k in kraus)
        residual = float(np.abs(np.linalg.eigvalsh(image - gamma)).sum())
        rest = math.prod(model.z(q) for q in range(n) if q not in edge)
        return residual / rest

    @staticmethod
    def _models(n, seed):
        rng = task_rng(seed, n)
        return (
            ThermalModel.degenerate(n),
            ThermalModel(tuple(float(e) for e in rng.uniform(0.1, 2.0, n))),
            ThermalModel(tuple(float(e) for e in rng.choice([0.5, 1.5], n))),
        )

    def test_verdicts_match_full_register_oracle(self):
        checked = {True: 0, False: 0}
        for n in (2, 3, 4):
            models = self._models(n, 61)
            sets = [default_gate_set("all-to-all"), default_gate_set("chain")]
            sets += [gibbs_preserving_gate_set(m, c) for m in models for c in ("all-to-all", "chain")]
            for model in models:
                for gs in sets:
                    pairs = [(g, e) for g in gs.gates for e in edges(gs.connectivity, n)]
                    for gate, edge in pairs + list(gs.placed_extra):
                        residual = self._oracle(gate, edge, model)
                        # every pair is far from the tolerance, so the verdict is robust
                        assert residual < 1e-12 or residual > 1e-6
                        verdict = gibbs_check(gate, model.gamma_pair(*edge))
                        assert verdict == (residual <= 1e-9), (gate.name, edge, model)
                        checked[verdict] += 1
        assert checked[True] > 100 and checked[False] > 100


class TestGateSetFiles:
    def test_round_trip(self, gate_set):
        text = format_gate_set(gate_set)
        back = parse_gate_set(text)
        assert back.connectivity == gate_set.connectivity
        assert [g.name for g in back.gates] == [g.name for g in gate_set.gates]
        for a, b in zip(back.gates, gate_set.gates):
            assert np.array_equal(a.unitary, b.unitary)

    def test_channel_round_trip(self):
        kraus = [math.sqrt(0.5) * np.eye(4, dtype=complex),
                 math.sqrt(0.5) * expand_operator(np.diag([1, -1]).astype(complex), 2, [0])]
        gs = GateSet("finite", (channel_gate("dephase", kraus),), "chain")
        back = parse_gate_set(format_gate_set(gs))
        assert back.gates[0].kraus is not None
        assert len(back.gates[0].kraus) == 2

    def test_malformed_rejected(self):
        # the error names the bad line, the last one of each text
        for text in ("gate foo unitary\n", "connectivity\n", "connectivity all-to-all\ngate cnot\n",
                     "connectivity all-to-all\ngate\n", "connectivity chain\ngate dephase channel\n",
                     "connectivity chain\ngate dephase channel two\n"):
            with pytest.raises(ValueError, match=repr(text.splitlines()[-1])):
                parse_gate_set(text)

    @pytest.mark.parametrize("block", [["1 0"] * 4, ["1 0"] * 4 + ["gate cz unitary"] + ["1 0"] * 16,
                                       ["1 0 0"] * 16, ["1 x"] * 16],
                             ids=["four-lines", "next-declaration", "three-fields", "not-a-number"])
    def test_short_or_malformed_matrix_names_its_declaration(self, block):
        text = "\n".join(["connectivity chain", "gate g unitary", *block]) + "\n"
        with pytest.raises(ValueError, match="gate declaration 'gate g unitary' needs 16 're im' lines"):
            parse_gate_set(text)


class TestMaskMachinery:
    def test_mask_traces(self):
        mm = mask_matrix(2)
        # mask 3 = both qubits projected: accepts only |00>
        assert mm[3].sum() == 1
        # mask 0 = identity
        assert mm[0].sum() == 4

    def test_simple_effect_trace(self):
        assert mask_traces_identity(2).tolist() == [4.0, 2.0, 2.0, 1.0]
        for n in (1, 2, 3):
            for bits in range(2 ** n):
                assert np.array_equal(np.diag(mask_matrix(n)[bits]), simple_projector(n, bits))

    def test_unmasked_equals_the_projector_oracle(self):
        # qubit i is free iff P_m accepts the basis state with qubit i alone set
        for n in range(1, 5):
            for bits in range(2 ** n):
                p = np.diag(simple_projector(n, bits))
                free = tuple(i for i in range(n) if p[2 ** (n - 1 - i)] == 1)
                assert unmasked(n, bits) == free
                assert mask_traces_identity(n)[bits] == 2.0 ** len(free)

    @pytest.mark.parametrize("table", [mask_matrix, mask_traces_identity])
    def test_mask_tables_are_read_only(self, table, gate_set):
        # every query shares the tables: a refused write leaves later queries' bits alone
        rho = DensityOperator(register(3), random_density_matrix(8, 3, task_rng(5)))

        def query():
            est = cx_entropy(rho, gate_set, 1, 0.9)
            return est.value.hex(), est.witness.matrix.tobytes(), est.witness.provenance[1]

        before = query()
        for n in (2, 3):
            with pytest.raises(ValueError, match="read-only"):
                table(n)[1] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                table(n).fill(0.0)
        assert query() == before

    def test_simple_effects_closed_under_identity_tensor(self):
        # an unmasked qubit appended after the last one shifts the bits left
        for bits in range(4):
            extended = bits << 1
            assert np.array_equal(mask_matrix(3)[extended], np.kron(mask_matrix(2)[bits], [1.0, 1.0]))
            assert mask_traces_identity(3)[extended] == mask_traces_identity(2)[bits] * 2
