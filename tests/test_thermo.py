import math
import tracemalloc

import numpy as np
import pytest

import cxtherm.thermo as thermo_module
from cxtherm.cxentropy import WITNESS_SLACK, cx_entropy
from cxtherm.errors import ProtocolError
from cxtherm.gates import (
    CNOT,
    CZ,
    BoundedCache,
    GateSet,
    apply_circuit,
    apply_local,
    channel_gate,
    edges,
    gibbs_check,
    placed_alphabet,
    unitary_gate,
)
from cxtherm.registers import (
    DensityOperator,
    ghz_state,
    maximally_mixed,
    partial_trace,
    partial_trace_matrix,
    register,
    zero_state,
)
from cxtherm.sampling import random_density_matrix, task_rng
from cxtherm.thermo import (
    AncillaBound,
    CostLedger,
    Extract,
    GateStep,
    Protocol,
    Reset,
    ThermalModel,
    compression_search,
    erasure_search,
    format_protocol,
    g_lower_bound,
    gibbs_preserving_gate_set,
    lift_midcircuit,
    lifted_input,
    parse_protocol,
    run_protocol,
    validate_gibbs_gate_set,
)

from oracles import brute_force_protocol_work, embedded_kraus, kron_replace_qubit, outer_replace_qubit

CNOT_GATE = unitary_gate("cnot", CNOT)

LOG2 = math.log(2.0)


def rand_state(n, seed, rank=None):
    rank = rank or 2 ** n
    return DensityOperator(register(n), random_density_matrix(2 ** n, rank, task_rng(seed)))


class TestThermalModel:
    def test_derived_quantities(self):
        model = ThermalModel((0.0, 1.5))
        assert model.z(0) == pytest.approx(2.0, abs=1e-12)
        assert model.z(1) == pytest.approx(1.0 + math.exp(-1.5), abs=1e-12)
        assert model.beta_f(0) == pytest.approx(-LOG2, abs=1e-12)
        gamma = model.gamma_full()
        expect = np.kron(np.diag([1.0, 1.0]), np.diag([1.0, math.exp(-1.5)]))
        assert np.linalg.norm(gamma - expect) < 1e-12

    def test_degenerate_reset_is_landauer(self):
        model = ThermalModel.degenerate(1)
        assert model.reset_work(0) == pytest.approx(LOG2, abs=1e-12)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel((-0.1,))


class TestRunProtocol:
    def test_reset_on_maximally_mixed(self):
        model = ThermalModel.degenerate(1)
        out, ledger = run_protocol(Protocol(1, (Reset(0),)), maximally_mixed(1), model)
        assert np.allclose(out.matrix, np.diag([1.0, 0.0]))
        assert ledger.beta_work == pytest.approx(LOG2, abs=1e-12)
        assert ledger.complexity == 0

    def test_extract_then_reset_nets_zero(self):
        model = ThermalModel.degenerate(1)
        _, ledger = run_protocol(Protocol(1, (Extract(0), Reset(0))), zero_state(1), model)
        assert ledger.beta_work == pytest.approx(0.0, abs=1e-12)

    def test_n_resets_on_maximally_mixed(self):
        n = 3
        model = ThermalModel.degenerate(n)
        proto = Protocol(n, tuple(Reset(i) for i in range(n)))
        out, ledger = run_protocol(proto, maximally_mixed(n), model)
        assert ledger.beta_work == pytest.approx(n * LOG2, abs=1e-12)
        assert out.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_extract_illegal_off_zero(self):
        model = ThermalModel.degenerate(1)
        with pytest.raises(ProtocolError):
            run_protocol(Protocol(1, (Extract(0),)), maximally_mixed(1), model)

    def test_extract_off_zero_names_the_population(self):
        # qubit 1 of |0><0| (x) diag(3/4, 1/4) (x) |1><1|, on a matrix the
        # protocol does not own and after a RESET on one it does
        model = ThermalModel.degenerate(3)
        rho = DensityOperator(register(3), np.kron(np.kron(np.diag([1.0, 0.0]), np.diag([0.75, 0.25])),
                                                   np.diag([0.0, 1.0])))
        for steps in ((Extract(1),), (Reset(2), Extract(1))):
            with pytest.raises(ProtocolError, match=r"^EXTRACT on qubit 1: population in \|0> is 0\.75$"):
                run_protocol(Protocol(3, steps), rho, model)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extract_verdicts_equal_the_partial_trace_oracle(self, n):
        # states |0> on the qubit mixed with a random state at weight p: the
        # verdict is the reduced state's, none lies within 1e-11 of the bar
        model = ThermalModel.degenerate(n)
        rng = task_rng(60 + n)
        verdicts = set()
        for q in range(n):
            noise = random_density_matrix(2 ** n, 2 ** n, rng)
            keep = np.array([(b >> (n - 1 - q)) & 1 == 0 for b in range(2 ** n)], dtype=float)
            zero = keep[:, None] * noise * keep[None, :]
            zero /= np.trace(zero).real
            for p in (0.0, 1e-13, 1e-11, 1e-8, 0.3, 1.0):
                rho = DensityOperator(register(n), (1 - p) * zero + p * noise)
                reduced = partial_trace_matrix(rho.matrix, n, [q])
                ground = reduced[0, 0].real / np.trace(reduced).real
                assert abs(ground - (1 - thermo_module.EXTRACT_FIDELITY_TOL)) > 1e-11
                legal = ground >= 1 - thermo_module.EXTRACT_FIDELITY_TOL
                try:
                    run_protocol(Protocol(n, (Extract(q),)), rho, model)
                    verdicts.add(True)
                    assert legal, (q, p)
                except ProtocolError:
                    verdicts.add(False)
                    assert not legal, (q, p)
        assert verdicts == {True, False}

    def test_gate_counts_complexity(self, gate_set):
        cnot = next(g for g in gate_set.gates if g.name == "cnot")
        model = ThermalModel.degenerate(2)
        _, ledger = run_protocol(
            Protocol(2, (GateStep(cnot, (0, 1)),)), zero_state(2), model
        )
        assert ledger.complexity == 1
        assert ledger.beta_work == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_reset_and_extract_equal_the_kron_oracle(self, n):
        model = ThermalModel(tuple(task_rng(20 + n).uniform(0.2, 2.0, n)))
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        for i in range(n):
            rho = rand_state(n, 10 * n + i, rank=1 + i)
            reset, _ = run_protocol(Protocol(n, (Reset(i),)), rho, model)
            expect = kron_replace_qubit(rho.matrix, n, i, ket0)
            assert np.abs(reset.matrix - expect).max() <= 1e-15
            out, ledger = run_protocol(Protocol(n, (Reset(i), Extract(i))), rho, model)
            expect = kron_replace_qubit(expect, n, i, model.thermal_qubit(i))
            assert np.abs(out.matrix - expect).max() <= 1e-15
            assert ledger.beta_work == 0.0

    @staticmethod
    def signed_zero_states(n, rng):
        """Product, GHZ and random states whose entries include +0.0 and
        -0.0 in real and imaginary parts."""
        product = np.array([[1.0]], dtype=complex)
        for q in range(n):
            product = np.kron(product, np.diag([1.0, 0.0]) if q % 2 else random_density_matrix(2, 1, rng))
        for m in (product, ghz_state(n).matrix, random_density_matrix(2 ** n, 2, rng)):
            m = m.copy()
            for part in (m.real, m.imag):
                hit = rng.random(m.shape) < 0.4
                part[hit] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=hit.sum()))
            yield m

    @pytest.mark.parametrize("n", range(1, 9))
    def test_replace_qubit_equals_the_outer_oracle_bitwise(self, n):
        # the in-place block update against the outer product over a (2,)*2n
        # tensor; the oracle's np.trace sums from +0.0, which decides the
        # sign of a zero
        rng = task_rng(60 + n)
        model = ThermalModel(tuple(rng.uniform(0.2, 2.0, n)))
        for sigma in self.signed_zero_states(n, rng):
            for i in range(n):
                for local in (np.diag([1.0, 0.0]).astype(complex), model.thermal_qubit(i)):
                    buffer = sigma.copy()
                    thermo_module._replace_qubits(buffer, n, [i], local)
                    assert buffer.tobytes() == outer_replace_qubit(sigma, n, i, local).tobytes(), (i, local)

    @staticmethod
    def reset_runs(n):
        """Ascending, descending, interleaved and repeated runs of RESETs."""
        runs = [list(range(n)), list(range(n))[::-1], list(range(0, n, 2)) + list(range(1, n, 2))]
        if n > 1:
            runs += [[n - 1, 0, n - 1], [0, 0], [1, 0, 1, 0], list(range(n)) + [0]]
        return runs

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reset_run_equals_the_outer_oracle_in_step_order(self, n):
        # one pass per run must leave what one RESET at a time leaves, value
        # for value and down to the sign of every zero
        rng = task_rng(80 + n)
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        for sigma in self.signed_zero_states(n, rng):
            for run in self.reset_runs(n):
                buffer = sigma.copy()
                thermo_module._replace_qubits(buffer, n, run, ket0)
                expect = sigma
                for i in run:
                    expect = outer_replace_qubit(expect, n, i, ket0)
                assert np.array_equal(buffer.view(float), expect.view(float)), run
                assert buffer.tobytes() == expect.tobytes(), run

    @staticmethod
    def oracle_protocol(steps, sigma, n, model):
        """One step at a time: gates by the local kernel, RESET and EXTRACT
        by the outer-product oracle, then hermitized as the package stores
        states; the work added in step order."""
        work = 0.0
        for s in steps:
            if isinstance(s, GateStep):
                sigma = apply_local(s.gate, s.edge, sigma)
            elif isinstance(s, Reset):
                sigma = outer_replace_qubit(sigma, n, s.qubit, np.diag([1.0, 0.0]).astype(complex))
                work += model.reset_work(s.qubit)
            else:
                sigma = outer_replace_qubit(sigma, n, s.qubit, model.thermal_qubit(s.qubit))
                work += -model.reset_work(s.qubit)
        return np.ascontiguousarray((np.conjugate(sigma.T) + sigma) * 0.5), work

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_protocol_runs_equal_the_oracle(self, n):
        # runs split by a gate or an EXTRACT, on a state whose qubit 0 starts
        # in |0>; distinct energies make the order of the work sum matter
        rng = task_rng(90 + n)
        model = ThermalModel(tuple(rng.uniform(0.2, 2.0, n)))
        rest = random_density_matrix(2 ** (n - 1), 2, rng)
        rho = DensityOperator(register(n), np.kron(np.diag([1.0, 0.0]), rest))
        top = n - 1
        cases = [
            [Reset(q) for q in run] for run in self.reset_runs(n)
        ] + [
            [Reset(top), Reset(0), GateStep(CNOT_GATE, (0, top)), Reset(top), Reset(1 % n)],
            [Extract(0), Reset(top), Reset(1 % n), Extract(top), Reset(0), Reset(top)],
            [Reset(1 % n), Reset(top), Extract(1 % n), GateStep(CNOT_GATE, (top, 0)), Reset(0), Reset(0)],
            [GateStep(CNOT_GATE, (0, top)), Reset(top), Reset(top), Reset(1 % n), Reset(top)],
        ]
        for steps in cases:
            out, ledger = run_protocol(Protocol(n, tuple(steps)), rho, model)
            expect, work = self.oracle_protocol(steps, rho.matrix, n, model)
            assert np.array_equal(out.matrix.view(float), expect.view(float)), steps
            assert out.matrix.tobytes() == expect.tobytes(), steps
            assert ledger.beta_work.hex() == work.hex(), steps

    def test_every_reset_of_a_run_adds_its_work(self):
        model = ThermalModel((0.3, 1.1, 2.0))
        steps = (Reset(2), Reset(0), Reset(2), Reset(2), Reset(1))
        _, ledger = run_protocol(Protocol(3, steps), maximally_mixed(3), model)
        expect = 0.0
        for s in steps:
            expect += model.reset_work(s.qubit)
        assert ledger.beta_work.hex() == expect.hex()

    def test_reset_run_peaks_at_a_quarter_above_its_copy(self):
        # the protocol's copy, two sixteenth-size traces and the tiles of
        # the in-place hermitize: no second full matrix, and no quarter-size
        # trace beside the next (1.34 when the first trace was made whole)
        n = 9
        rho = rand_state(n, 5, rank=2)
        proto = Protocol(n, tuple(Reset(q) for q in range(n)))
        tracemalloc.start()
        try:
            out, _ = run_protocol(proto, rho, ThermalModel.degenerate(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * out.matrix.nbytes, peak / out.matrix.nbytes

    @pytest.mark.parametrize("steps, raises", [
        ((Reset(1),), False),
        ((Extract(0), Reset(2)), False),
        ((Reset(0), GateStep(CNOT_GATE, (0, 1)), Reset(1), Extract(1)), False),
        ((Extract(1),), True),
        ((Reset(0), Reset(2), Extract(1)), True),
        ((GateStep(CNOT_GATE, (1, 2)), Reset(0), Extract(2)), True),
        ((), False),
        ((Reset(1), Reset(2)), False),
        ((Reset(2), Reset(0), Reset(2), Reset(1)), False),
        ((Extract(0), Reset(2), Reset(1), Extract(2)), False),
    ])
    def test_caller_matrix_is_never_written(self, steps, raises):
        # qubit 0 starts in |0>, qubits 1 and 2 do not
        rho = DensityOperator(register(3), np.kron(np.diag([1.0, 0.0]), random_density_matrix(4, 2, task_rng(3))))
        before = rho.matrix.tobytes()
        if raises:
            with pytest.raises(ProtocolError, match="EXTRACT"):
                run_protocol(Protocol(3, steps), rho, ThermalModel.degenerate(3))
        else:
            out, _ = run_protocol(Protocol(3, steps), rho, ThermalModel.degenerate(3))
            assert not np.shares_memory(out.matrix, rho.matrix)
        assert rho.matrix.tobytes() == before

    def test_ket0_is_read_only(self):
        # every RESET and |0> ancilla reads the one KET0: a refused write
        # leaves later protocols' bits alone
        rho, model = rand_state(2, 7), ThermalModel.degenerate(2)
        proto = Protocol(2, (GateStep(CNOT_GATE, (0, 1)), Reset(0)))
        before = run_protocol(proto, rho, model)[0].matrix.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            thermo_module.KET0[1, 1] = 1.0
        assert np.array_equal(thermo_module.KET0, np.diag([1.0, 0.0]))
        assert run_protocol(proto, rho, model)[0].matrix.tobytes() == before

    @pytest.mark.parametrize("n", [3, 9])
    def test_reset_writes_through_a_view_of_an_owned_buffer(self, monkeypatch, n):
        # a non-C-contiguous buffer would make reshape copy, and the write
        # would land in the copy; n = 9 gates take the blocked kernel
        rho = rand_state(n, 8, rank=2)
        seen = []
        original = thermo_module._replace_qubits

        def spy(sigma, n_arg, qubits, local):
            view = sigma.reshape((2,) * (2 * n_arg))
            seen.append((sigma.flags.c_contiguous, np.shares_memory(view, sigma),
                         np.shares_memory(sigma, rho.matrix)))
            original(sigma, n_arg, qubits, local)

        monkeypatch.setattr(thermo_module, "_replace_qubits", spy)
        steps = (Reset(n - 1), GateStep(CNOT_GATE, (0, n - 1)), Reset(0), Extract(0),
                 GateStep(CNOT_GATE, (n - 1, 1)), Reset(1))
        out, _ = run_protocol(Protocol(n, steps), rho, ThermalModel.degenerate(n))
        assert seen == [(True, True, False)] * 4
        assert not np.shares_memory(out.matrix, rho.matrix)

    @pytest.mark.parametrize("step", [Reset(2), Extract(-1)])
    def test_step_off_the_register_rejected(self, step):
        with pytest.raises(ProtocolError, match="outside the 2-qubit register"):
            run_protocol(Protocol(2, (step,)), zero_state(2), ThermalModel.degenerate(2))

    def test_ledger_reproducible(self, gate_set):
        model = ThermalModel.degenerate(2)
        rho = rand_state(2, 4)
        proto = Protocol(2, (Reset(0), Reset(1)))
        a = run_protocol(proto, rho, model)[1]
        b = run_protocol(proto, rho, model)[1]
        assert a == b


class TestErasureSearch:
    def test_ghz4_two_gates(self, gate_set):
        model = ThermalModel.degenerate(4)
        res = erasure_search(ghz_state(4), model, gate_set, 2, 0.999)
        assert res.beta_work == pytest.approx(2 * LOG2, abs=1e-9)

    def test_zero_state_free(self, gate_set):
        model = ThermalModel.degenerate(3)
        res = erasure_search(zero_state(3), model, gate_set, 1, 0.999)
        assert res.beta_work == pytest.approx(0.0, abs=1e-12)
        assert res.reset_set == ()
        assert all(not isinstance(s, Reset) for s in res.protocol.steps)

    def test_betting_on_maximally_mixed(self, gate_set):
        model = ThermalModel.degenerate(1)
        res = erasure_search(maximally_mixed(1), model, gate_set, 0, 0.5)
        assert res.beta_work == pytest.approx(0.0, abs=1e-12)

    def test_equals_reduced_complexity_entropy(self, gate_set):
        model = ThermalModel.degenerate(3)
        for seed in range(4):
            rho = rand_state(3, seed)
            for eta in (0.7, 0.999):
                res = erasure_search(rho, model, gate_set, 1, eta)
                red = cx_entropy(rho, gate_set, 1, eta, reduced=True)
                assert res.beta_work == pytest.approx(red.value, abs=1e-9)

    def test_sandwich(self, gate_set):
        model = ThermalModel.degenerate(3)
        rho = rand_state(3, 17)
        eta = 0.9
        res = erasure_search(rho, model, gate_set, 1, eta)
        h = cx_entropy(rho, gate_set, 1, eta).value
        assert h - math.log(1 / eta) - 1e-9 <= res.beta_work <= h + 1e-9

    def test_protocol_replays_to_claimed_work(self, gate_set):
        model = ThermalModel.degenerate(2)
        rho = rand_state(2, 23)
        res = erasure_search(rho, model, gate_set, 1, 0.8)
        out, ledger = run_protocol(res.protocol, rho, model)
        assert ledger.beta_work == pytest.approx(res.beta_work, abs=1e-12)
        assert out.matrix[0, 0].real >= 0.8 - 1e-9


    def test_reset_work_is_tabled_once_per_energies(self, monkeypatch):
        # energies no other test uses, so the first search builds the table
        energies = (0.137, 1.29, 0.071)
        gibbs = thermo_module.gibbs_preserving_gate_set(ThermalModel(energies), "chain")
        builds = []
        build = thermo_module._reset_work
        monkeypatch.setattr(thermo_module, "_reset_work", lambda m: builds.append(m) or build(m))
        rho = rand_state(3, 24)
        results = [erasure_search(rho, ThermalModel(energies), gibbs, r, 0.8) for r in (0, 1, 1)]
        assert len(builds) == 1
        table = build(ThermalModel(energies))
        assert not table.flags.writeable
        for m in range(8):
            want = sum(ThermalModel(energies).reset_work(i) for i in range(3) if not (m >> (2 - i)) & 1)
            assert table[m].hex() == float(want).hex()
        for res in results:
            assert res.beta_work == table[sum(1 << (2 - i) for i in range(3) if i not in res.reset_set)]


class TestWitnessChecks:
    # erasure_search and compression_search replay what they found and raise
    # AssertionError, an explicit check that `python -O` keeps, when the
    # replay falls short by more than the slack

    @staticmethod
    def lose(state, loss):
        """The state with `loss` taken off <0^n|rho|0^n>."""
        m = state.matrix.copy()
        m[0, 0] -= loss
        return DensityOperator._derived(state.register, m, owned=True)

    def replay(self, monkeypatch, loss=0.0, extra_work=0.0):
        """Make thermo's `run_protocol` and `apply_circuit` lose population,
        and `run_protocol` add work."""
        def protocol(*args):
            final, ledger = run_protocol(*args)
            return self.lose(final, loss), CostLedger(ledger.complexity, ledger.beta_work + extra_work)

        monkeypatch.setattr(thermo_module, "run_protocol", protocol)
        monkeypatch.setattr(thermo_module, "apply_circuit", lambda *args: self.lose(apply_circuit(*args), loss))

    def test_erasure_refuses_a_replay_below_eta(self, gate_set, monkeypatch):
        rho, model = rand_state(2, 23), ThermalModel.degenerate(2)
        eta = erasure_search(rho, model, gate_set, 1, 0.8).success_probability
        self.replay(monkeypatch, loss=0.5 * WITNESS_SLACK)
        assert erasure_search(rho, model, gate_set, 1, eta).success_probability < eta
        self.replay(monkeypatch, loss=2 * WITNESS_SLACK)
        with pytest.raises(AssertionError, match="< eta"):
            erasure_search(rho, model, gate_set, 1, eta)

    def test_erasure_refuses_a_replay_off_the_optimal_work(self, gate_set, monkeypatch):
        rho, model = rand_state(2, 23), ThermalModel.degenerate(2)
        self.replay(monkeypatch, extra_work=0.5e-9)
        erasure_search(rho, model, gate_set, 1, 0.8)
        self.replay(monkeypatch, extra_work=2e-9)
        with pytest.raises(AssertionError, match="its optimum"):
            erasure_search(rho, model, gate_set, 1, 0.8)

    def test_compression_refuses_a_replay_below_one_minus_eps(self, gate_set, monkeypatch):
        rho = rand_state(3, 91)
        eps = 1.0 - compression_search(rho, gate_set, 1, 0.3).success_probability
        self.replay(monkeypatch, loss=0.5 * WITNESS_SLACK)
        compression_search(rho, gate_set, 1, eps)
        self.replay(monkeypatch, loss=2 * WITNESS_SLACK)
        with pytest.raises(AssertionError, match="compression keeps"):
            compression_search(rho, gate_set, 1, eps)

    def test_compression_of_a_subnormalized_state_is_refused(self, gate_set):
        # no effect accepts more than tr(rho) = 0.5 < 1 - eps, so the query is
        # refused before M_r is built and nothing is replayed
        rho = DensityOperator(register(2), 0.5 * rand_state(2, 99).matrix)
        with pytest.raises(ValueError, match=r"^1 - eps must lie in \(0, tr\(rho\)\] = \(0, 0\.5\], got 0\.9$"):
            compression_search(rho, gate_set, 1, 0.1)

    def test_checks_survive_python_O(self, run_python, tmp_path):
        code = ("import sys\n"
                "import cxtherm.thermo as t\n"
                "from cxtherm import DensityOperator, default_gate_set, maximally_mixed, register\n"
                "print(sys.flags.optimize)\n"
                "run, apply, gs = t.run_protocol, t.apply_circuit, default_gate_set()\n"
                "t.run_protocol = lambda p, rho, m: (rho, run(p, rho, m)[1])\n"
                "t.apply_circuit = lambda c, rho: DensityOperator(register(2), 0.5 * apply(c, rho).matrix)\n"
                "for call in (lambda: t.erasure_search(maximally_mixed(2), t.ThermalModel.degenerate(2), gs, 1, 0.9),\n"
                "             lambda: t.compression_search(maximally_mixed(2), gs, 1, 0.1)):\n"
                "    try:\n"
                "        call()\n"
                "    except Exception as exc:\n"
                "        print(type(exc).__name__)\n")
        res = run_python(code, tmp_path, PYTHONOPTIMIZE="1")
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "AssertionError", "AssertionError"]


class TestAncillas:
    @pytest.mark.parametrize("zeros, mixed", [(0, 0), (1, 0), (0, 2), (2, 1)])
    def test_ancillas_follow_the_state_in_kron_order(self, zeros, mixed):
        rho = rand_state(2, 31)
        before = rho.matrix.tobytes()
        want = rho.matrix
        for local in [np.diag([1.0, 0.0])] * zeros + [np.eye(2) / 2.0] * mixed:
            want = np.kron(want, local)
        got = thermo_module._with_ancillas(rho, zeros, mixed)
        assert got.n == 2 + zeros + mixed
        assert np.array_equal(got.matrix, want)
        assert rho.matrix.tobytes() == before

    def test_lifted_input_refuses_a_state_of_another_size(self, gate_set):
        proto = Protocol(2, (Reset(0), GateStep(CNOT_GATE, (0, 1))))
        lift = lift_midcircuit(proto, ThermalModel.degenerate(2), gate_set)
        assert lifted_input(rand_state(2, 3), lift).n == 3
        with pytest.raises(ValueError, match="does not match"):
            lifted_input(rand_state(3, 3), lift)


class TestProductHamiltonian:
    def test_work_equals_relative_entropy(self):
        from cxtherm.cxentropy import cx_relative_entropy
        from cxtherm.registers import HermitianOperator

        model = ThermalModel((0.5, 1.0))
        gs = gibbs_preserving_gate_set(model)
        gamma = HermitianOperator(register(2), model.gamma_full())
        for seed in range(5):
            rho = rand_state(2, 40 + seed)
            for r in (0, 1, 2):
                res = erasure_search(rho, model, gs, r, 0.9)
                dh = cx_relative_entropy(rho, gamma, gs, r, 0.9, reduced=True)
                assert res.beta_work == pytest.approx(-dh.value, abs=1e-9)

    def test_gibbs_validation_rejects_swap(self, gate_set):
        model = ThermalModel((0.5, 1.0))
        for _ in range(3):  # a failing verdict is never cached
            with pytest.raises(ValueError, match=r"'cnot' does not preserve the Gibbs weight on edge \(0,1\)"):
                erasure_search(rand_state(2, 1), model, gate_set, 1, 0.9)

    def test_gibbs_validation_names_a_placed_extra_edge(self):
        model = ThermalModel((0.5, 1.0, 1.5))
        reset_pair = channel_gate("reset_pair", [np.outer(np.eye(4)[0], np.eye(4)[b]) for b in range(4)])
        signs = GateSet("finite", (unitary_gate("cz", CZ),), "chain")
        validate_gibbs_gate_set(signs, model)
        bad = GateSet("finite", signs.gates, "chain", ((reset_pair, (1, 2)),))
        for _ in range(3):  # a failing verdict is never cached
            with pytest.raises(ValueError, match=r"'reset_pair' does not preserve the Gibbs weight on edge \(1,2\)"):
                validate_gibbs_gate_set(bad, model)
            with pytest.raises(ValueError, match=r"edge \(1,2\)"):
                erasure_search(rand_state(3, 2), model, bad, 1, 0.9)

    def test_gibbs_validation_rejects_an_edge_beyond_the_model(self):
        # a gate set built for three qubits places channels on edges that a
        # two-qubit model has no energies for
        wide = gibbs_preserving_gate_set(ThermalModel((0.5, 1.0, 1.5)))
        model = ThermalModel((0.5, 1.0))
        message = r"'thermal_q25_id_02' is placed on edge \(0,2\), outside the 2-qubit model"
        for _ in range(3):  # a failing verdict is never cached
            with pytest.raises(ValueError, match=message):
                validate_gibbs_gate_set(wide, model)
            with pytest.raises(ValueError, match=message):
                erasure_search(maximally_mixed(2), model, wide, 1, 0.9)

    def test_gibbs_validation_runs_once_per_content_and_energies(self, monkeypatch):
        model = ThermalModel((0.4, 1.1, 1.7))
        other = ThermalModel((0.9, 0.3, 1.2))
        gibbs = gibbs_preserving_gate_set(model)
        signs = GateSet("finite", gibbs.gates, gibbs.connectivity)  # Gibbs-preserving for any energies
        # rebuilt gates: equal content, new objects
        copy = GateSet(gibbs.kind, tuple(unitary_gate(g.name, g.unitary) for g in gibbs.gates),
                       gibbs.connectivity,
                       tuple((channel_gate(g.name, g.kraus), e) for g, e in gibbs.placed_extra))
        monkeypatch.setattr(thermo_module, "_GIBBS_CHECKED", BoundedCache())
        calls = []

        def counting(gate, gamma_pair):
            calls.append(gate.name)
            return gibbs_check(gate, gamma_pair)

        monkeypatch.setattr(thermo_module, "gibbs_check", counting)

        def checks(gate_set, m):
            before = len(calls)
            erasure_search(rand_state(3, 5), m, gate_set, 1, 0.9)
            return len(calls) - before

        def placements(gate_set):
            return len(gate_set.gates) * len(edges(gate_set.connectivity, 3)) + len(gate_set.placed_extra)

        assert checks(gibbs, model) == placements(gibbs) == 7 * 3 + 9
        assert checks(copy, model) == 0
        assert checks(signs, model) == placements(signs)
        assert checks(signs, other) == placements(signs)
        assert (checks(signs, other), checks(signs, model), checks(gibbs, model)) == (0, 0, 0)


class TestLifting:
    def _cnot(self, gate_set):
        return next(g for g in gate_set.gates if g.name == "cnot")

    def test_no_midcircuit_unchanged(self, gate_set):
        proto = Protocol(2, (GateStep(self._cnot(gate_set), (0, 1)), Reset(0)))
        lift = lift_midcircuit(proto, ThermalModel.degenerate(2), gate_set)
        assert lift.protocol == proto
        assert (lift.m1, lift.m2) == (0, 0)

    def test_single_midcircuit_reset_structure(self, gate_set):
        proto = Protocol(2, (Reset(0), GateStep(self._cnot(gate_set), (0, 1))))
        lift = lift_midcircuit(proto, ThermalModel.degenerate(2), gate_set)
        assert (lift.m1, lift.m2) == (1, 0)
        assert lift.protocol.n == 3
        kinds = [type(s).__name__ for s in lift.protocol.steps]
        assert kinds == ["GateStep", "GateStep", "Reset"]  # swap, cnot, final reset

    def test_action_and_ledger_preserved(self, gate_set):
        model = ThermalModel.degenerate(2)
        proto = Protocol(2, (
            Reset(1),
            GateStep(self._cnot(gate_set), (0, 1)),
            Reset(0),
        ))
        lift = lift_midcircuit(proto, model, gate_set)
        for seed in range(4):
            rho = rand_state(2, 60 + seed)
            out_orig, ledger_orig = run_protocol(proto, rho, model)
            tilde = lifted_input(rho, lift)
            out_lift, ledger_lift = run_protocol(lift.protocol, tilde, lift.model)
            reduced = partial_trace(out_lift, ["q0", "q1"])
            assert np.linalg.norm(reduced.matrix - out_orig.matrix) < 1e-9
            assert ledger_lift.beta_work == pytest.approx(ledger_orig.beta_work, abs=1e-12)
            assert ledger_lift.complexity <= ledger_orig.complexity + lift.m1 + lift.m2

    def test_midcircuit_extract_lift(self, gate_set):
        model = ThermalModel.degenerate(2)
        proto = Protocol(2, (
            GateStep(self._cnot(gate_set), (0, 1)),
            Extract(0),
        ))
        lift = lift_midcircuit(proto, model, gate_set)
        assert (lift.m1, lift.m2) == (0, 1)
        assert isinstance(lift.protocol.steps[0], Extract)
        rho = zero_state(2)
        out_orig, w_orig = run_protocol(proto, rho, model)
        tilde = lifted_input(rho, lift)
        out_lift, w_lift = run_protocol(lift.protocol, tilde, lift.model)
        reduced = partial_trace(out_lift, ["q0", "q1"])
        assert np.linalg.norm(reduced.matrix - out_orig.matrix) < 1e-9
        assert w_lift.beta_work == pytest.approx(w_orig.beta_work, abs=1e-12)

    def test_swap_required(self):
        from cxtherm.gates import CNOT, GateSet, unitary_gate

        no_swap = GateSet("finite", (unitary_gate("cnot", CNOT),), "all-to-all")
        proto = Protocol(2, (Reset(0), GateStep(no_swap.gates[0], (0, 1))))
        with pytest.raises(ProtocolError):
            lift_midcircuit(proto, ThermalModel.degenerate(2), no_swap)


class TestGBound:
    def test_m_max_zero_is_plain_entropy(self, gate_set):
        rho = rand_state(2, 70)
        bound = g_lower_bound(rho, gate_set, 1, 0.9, 0)
        h = cx_entropy(rho, gate_set, 1, 0.9).value
        assert bound.value == pytest.approx(h, abs=1e-10)
        assert isinstance(bound, AncillaBound)

    def test_nonincreasing_in_m_max(self, gate_set):
        rho = rand_state(2, 71)
        b0 = g_lower_bound(rho, gate_set, 1, 0.9, 0).value
        b1 = g_lower_bound(rho, gate_set, 1, 0.9, 1).value
        assert b1 <= b0 + 1e-9

    def test_lower_bounds_brute_force_protocols(self, gate_set):
        # tiny instance: value - log(1/eta) <= min work over interleaved
        # protocols with the same resources
        alphabet = placed_alphabet(gate_set, 2)
        gate_mats = [embedded_kraus(pg.gates[0], pg.edge, 2)[0] for pg in alphabet[:6]]
        eta = 0.8
        for seed in (0, 1):
            rho = rand_state(2, 80 + seed, rank=2)
            brute = brute_force_protocol_work(
                rho.matrix, 2, gate_mats, eta, max_ops=3,
                log_z=[LOG2, LOG2], r_cap=1, m_cap=1,
            )
            bound = g_lower_bound(rho, gate_set, 1, eta, 1)
            if math.isfinite(brute):
                assert bound.value - math.log(1 / eta) <= brute + 1e-9


class TestCompression:
    def test_zero_state(self, gate_set):
        res = compression_search(zero_state(3), gate_set, 0, 0.0)
        assert res.m == 0

    def test_ghz4_r3(self, gate_set):
        res = compression_search(ghz_state(4), gate_set, 3, 1e-6)
        assert res.m == 1

    def test_matches_reduced_entropy(self, gate_set):
        for seed in range(6):
            rng = task_rng(seed)
            rho = rand_state(3, 90 + seed, rank=int(rng.integers(1, 9)))
            r = int(rng.integers(0, 3))
            eps = float(rng.uniform(0.0, 0.6))
            res = compression_search(rho, gate_set, r, eps)
            red = cx_entropy(rho, gate_set, r, 1.0 - eps, reduced=True)
            assert res.m == round(red.value / LOG2)

    def test_always_feasible_at_full_size(self, gate_set):
        rho = rand_state(2, 99)
        res = compression_search(rho, gate_set, 0, 0.0)
        assert res.m <= 2


class TestProtocolFiles:
    def test_round_trip(self, gate_set):
        proto = Protocol(3, (
            Extract(2),
            GateStep(next(g for g in gate_set.gates if g.name == "cnot"), (0, 1)),
            Reset(0),
            Reset(1),
        ))
        text = format_protocol(proto)
        back = parse_protocol(text, 3, gate_set)
        assert format_protocol(back) == text
        assert [type(s).__name__ for s in back.steps] == [
            "Extract", "GateStep", "Reset", "Reset"
        ]

    def test_unknown_gate_rejected(self, gate_set):
        with pytest.raises(ProtocolError):
            parse_protocol("GATE nope 0 1\n", 2, gate_set)

    @pytest.mark.parametrize("text", ["RESET\n", "EXTRACT 0 1\n", "GATE cnot 0\n", "GATE\n", "RESET x\n",
                                      "GATE cnot 0 y\n"],
                             ids=["bare-reset", "extract-two-qubits", "gate-one-qubit", "bare-gate",
                                  "reset-non-integer", "gate-non-integer"])
    def test_wrong_field_count_names_the_line(self, gate_set, text):
        with pytest.raises(ProtocolError, match=f"malformed protocol line {text.strip()!r}"):
            parse_protocol(text, 2, gate_set)
