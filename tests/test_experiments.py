import json
import math
import warnings

import numpy as np
import pytest

from cxtherm import experiments
from cxtherm.experiments import (
    ConjectureProbeResult,
    brickwork_circuit,
    brickwork_layers,
    continuity_trial,
    decoupling_probe,
    decoupling_simulate,
    entanglement_E,
    entanglement_bound_check,
    gate_bound_nu,
    ising_bond,
    ising_quench,
    pure_chain_entanglement,
    transition_scan,
    worst_case_gate_bound,
)
from cxtherm.entropies import mutual_information, von_neumann
from cxtherm.gates import I2, GateSet, Z, channel_gate, expand_operator
from cxtherm.registers import (
    DensityOperator,
    ghz_state,
    register,
    state_from_vector,
    zero_state,
)
from cxtherm.sampling import (
    haar_state_vector,
    random_density_matrix,
    sample_haar_unitary,
    task_rng,
)

from oracles import expm_minus_i

LOG2 = math.log(2.0)


def rand_state(n, seed, rank=None):
    rank = rank or 2 ** n
    return DensityOperator(register(n), random_density_matrix(2 ** n, rank, task_rng(seed)))


class TestBrickwork:
    def test_layer_layout(self):
        assert brickwork_layers(4, 2) == [[(0, 1), (2, 3)], [(1, 2)]]
        assert brickwork_layers(3, 3) == [[(0, 1)], [(1, 2)], [(0, 1)]]

    def test_zero_depth_empty(self):
        assert brickwork_circuit(4, 0, "haar_su4", 1).ops == ()

    def test_seed_reproducible(self):
        a = brickwork_circuit(4, 3, "haar_su4", 9)
        b = brickwork_circuit(4, 3, "haar_su4", 9)
        for (ga, ea), (gb, eb) in zip(a.ops, b.ops):
            assert ea == eb
            assert np.array_equal(ga.unitary, gb.unitary)

    def test_finite_source(self, gate_set):
        c = brickwork_circuit(3, 4, "finite", 2, gate_set)
        assert c.complexity == 4
        names = {g.name for g in gate_set.gates}
        assert all(g.name in names for g, _ in c.ops)


class TestTransition:
    def test_shallow_certified(self, gate_set):
        rows = transition_scan(3, [0, 1, 2], 2, 1.0, gate_set, 8, 5)
        for row in rows:
            assert row.zero_certified_fraction == 1.0
            assert row.min_entropy == pytest.approx(0.0, abs=1e-9)

    def test_certificate_consistent_with_enumeration(self, gate_set):
        # whenever the inverse-circuit witness is feasible, exact H is 0
        rows = transition_scan(3, [1, 2], 2, 1.0, gate_set, 10, 21)
        for row in rows:
            if row.zero_certified_fraction == 1.0:
                assert row.min_entropy <= 1e-9
                assert row.mean_entropy <= 1e-9

    def test_deep_circuits_near_maximal(self, gate_set):
        rows = transition_scan(3, [60], 2, 1.0, gate_set, 6, 3)
        assert rows[0].zero_certified_fraction == 0.0
        assert rows[0].mean_entropy >= 2 * LOG2 - 1e-9

    def test_haar_source_reports_bounds(self):
        from cxtherm.gates import continuous_su4_gate_set

        rows = transition_scan(
            3, [1, 8], 2, 0.9, continuous_su4_gate_set(), 4, 7, source="haar_su4"
        )
        assert rows[0].certainty == "upper_bound"
        assert rows[0].zero_certified_fraction == 1.0
        for row in rows:
            assert row.mean_entropy_lower <= row.mean_entropy + 1e-9
            assert row.mean_entropy <= 3 * LOG2 + 1e-12

    def test_finite_rows_have_collapsed_bound_pair(self, gate_set):
        rows = transition_scan(3, [1], 2, 0.9, gate_set, 3, 9)
        assert rows[0].mean_entropy_lower == rows[0].mean_entropy

    def test_haar_lower_bound_is_exactly_zero_without_a_solver(self, monkeypatch):
        # H_hyp of a pure state is 0, so no Neyman-Pearson solve is needed
        import cxtherm.entropies
        from cxtherm.gates import continuous_su4_gate_set

        def fail(*args, **kwargs):
            raise AssertionError("hyp_relative_entropy called")

        monkeypatch.setattr(cxtherm.entropies, "hyp_relative_entropy", fail)
        rows = transition_scan(
            4, [0, 2, 6], 2, 0.9, continuous_su4_gate_set(), 3, 11, source="haar_su4"
        )
        assert all(row.mean_entropy_lower == 0.0 for row in rows)


class TestEntanglementMeasure:
    def test_product_state_zero(self):
        assert entanglement_E(zero_state(4)) == pytest.approx(0.0, abs=1e-10)

    def test_ghz_value(self):
        # every contiguous cut of GHZ_n carries I = 2 log 2
        for n in (2, 3, 4):
            assert entanglement_E(ghz_state(n)) == pytest.approx(2 * LOG2, abs=1e-9)

    def test_local_unitary_invariance(self):
        rho = rand_state(3, 3)
        u = expand_operator(sample_haar_unitary(2, 5), 3, [1])
        rotated = DensityOperator(rho.register, u @ rho.matrix @ u.conj().T)
        assert entanglement_E(rotated) == pytest.approx(entanglement_E(rho), abs=1e-9)

    def test_cut_cap(self):
        # each cut mutual information is at most 2 min(j, n-j) log 2
        rho = rand_state(4, 9, rank=1)
        for j in (1, 2, 3):
            cap = 2 * min(j, 4 - j) * LOG2
            assert mutual_information(rho, [f"q{i}" for i in range(j)]) <= cap + 1e-9


class TestPureChainEntanglement:
    @staticmethod
    def e_of(vec):
        return pure_chain_entanglement(vec, np.zeros_like(vec), int(math.log2(vec.size)))[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_mixed_route_on_haar_states(self, n):
        for seed in range(4):
            vec = haar_state_vector(2 ** n, task_rng(900 + n, seed))
            assert self.e_of(vec) == pytest.approx(
                entanglement_E(state_from_vector(vec)), abs=1e-10
            )

    def test_matches_mixed_route_on_ghz_and_product_states(self):
        for n in (2, 3, 4, 5):
            ghz = np.zeros(2 ** n, dtype=complex)
            ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
            assert self.e_of(ghz) == pytest.approx(2 * LOG2, abs=1e-10)
            assert self.e_of(ghz) == pytest.approx(entanglement_E(ghz_state(n)), abs=1e-10)
            product = np.full(2 ** n, 2.0 ** (-n / 2.0), dtype=complex)
            assert self.e_of(product) == pytest.approx(
                entanglement_E(state_from_vector(product)), abs=1e-10
            )

    def test_product_states_never_negative(self):
        for seed in range(20):
            rng = task_rng(77, seed)
            vec = np.ones(1, dtype=complex)
            for _ in range(5):
                vec = np.kron(vec, haar_state_vector(2, rng))
            dvec = haar_state_vector(vec.size, rng)
            e, _ = pure_chain_entanglement(vec, dvec, 5)
            assert e >= 0.0


class TestContinuity:
    def test_identity_gate_no_change(self):
        rho = rand_state(4, 11)
        u = expand_operator(np.eye(4, dtype=complex), 4, [1, 2])
        evolved = DensityOperator(rho.register, u @ rho.matrix @ u.conj().T)
        assert entanglement_E(evolved) == pytest.approx(entanglement_E(rho), abs=1e-12)

    def test_no_violations(self):
        rep = continuity_trial(4, 120, 17)
        assert rep.coarse_violations == 0
        assert rep.refined_violations == 0
        assert rep.max_abs_delta <= 8 * LOG2 / 3 + 1e-9

    def test_near_identity_refined_much_tighter(self):
        rep = continuity_trial(4, 40, 19, gate_source="near_identity")
        assert rep.refined_violations == 0
        # weak gates cannot move E anywhere near the coarse cap
        assert rep.max_abs_delta < 0.2 * (8 * LOG2 / 3)

    def test_near_identity_exponential_equals_expm(self, monkeypatch):
        # every gate continuity_trial draws, against scipy's expm
        draws = []
        exp_minus_i = experiments._exp_minus_i

        def recording(h):
            u = exp_minus_i(h)
            draws.append((h, u))
            return u

        monkeypatch.setattr(experiments, "_exp_minus_i", recording)
        continuity_trial(4, 40, 19, gate_source="near_identity")
        assert len(draws) == 40
        for h, u in draws:
            assert np.abs(u - expm_minus_i(h)).max() <= 1e-14

    def test_refined_bound_formula_limits(self):
        assert gate_bound_nu(0.0, 4) == pytest.approx(0.0, abs=1e-12)
        assert gate_bound_nu(1.0, 4) == pytest.approx(8 * LOG2 / 3, abs=1e-12)


class TestEntanglementBound:
    def test_product_pure_r0(self, chain_gate_set):
        res = entanglement_bound_check(zero_state(3), chain_gate_set, 0, 1.0)
        assert res.rhs <= 1e-9
        assert res.lhs >= -1e-9
        assert res.slack >= -1e-9

    def test_random_instances(self, chain_gate_set):
        for seed in range(8):
            rho = rand_state(3, 100 + seed)
            for r, eta in ((0, 0.9), (1, 0.99)):
                res = entanglement_bound_check(rho, chain_gate_set, r, eta)
                assert res.slack >= -1e-9

    def test_error_terms_vanish_as_eta_to_one(self):
        from cxtherm.entropies import binary_entropy

        for eta in (0.99, 0.999, 0.9999):
            err = 2 * binary_entropy(eta) + (1 - eta) * 3 * LOG2
            assert err < 2 * binary_entropy(0.99) + 0.01 * 3 * LOG2 + 1e-12
        assert 2 * binary_entropy(0.9999) + 0.0001 * 3 * LOG2 < 0.01

    def test_requires_chain(self, gate_set):
        with pytest.raises(ValueError):
            entanglement_bound_check(zero_state(3), gate_set, 0, 0.9)


class TestQuench:
    def test_initial_product_state(self):
        trace = ising_quench(4, 1.0, 1.0, [0.0, 0.5, 1.0])
        assert trace.values[0] == pytest.approx(0.0, abs=1e-9)

    def test_zz_only_from_plus_grows_then_saturates(self):
        times = list(np.linspace(0.0, 2.0, 9))
        trace = ising_quench(4, 1.0, 0.0, times, initial="plus")
        assert trace.values[1] > trace.values[0] + 1e-3
        assert max(trace.values) <= 4 * LOG2 + 1e-9
        assert all(d <= trace.bound + 1e-6 for d in trace.derivatives)

    def test_bound_scales_with_coupling(self):
        t1 = ising_quench(4, 1.0, 1.0, [0.0, 0.4])
        t2 = ising_quench(4, 2.0, 2.0, [0.0, 0.4])
        assert t2.bound == pytest.approx(2 * t1.bound, abs=1e-9)
        assert all(abs(d) <= t2.bound + 1e-6 for d in t2.derivatives)

    def test_bond_norm(self):
        bond = ising_bond(1.0, 0.0)
        assert np.linalg.norm(bond, ord=2) == pytest.approx(1.0, abs=1e-12)

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            ising_quench(3, 1.0, 1.0, [0.0, 0.0])

    @pytest.mark.parametrize("initial", ["ones", "plus"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_derivative_matches_central_difference(self, n, initial):
        # the grid is coarse, so the derivative cannot come from it
        times = [0.0, 1e-3, 0.4, 2.9]
        h = 1e-5
        trace = ising_quench(n, 1.0, 1.0, times, initial=initial)
        for t, d in zip(times, trace.derivatives):
            lo, hi = ising_quench(n, 1.0, 1.0, [t - h, t + h], initial=initial).values
            assert d == pytest.approx((hi - lo) / (2 * h), abs=1e-6)

    def test_coarse_grid_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = ising_quench(6, 1.0, 1.0, [0.0, 3.0])
        assert len(trace.derivatives) == 2


class TestDecoupling:
    def test_probe_runs_clean(self, gate_set):
        res = decoupling_probe((1, 1, 1), gate_set, 1, 0.9, 25, 3)
        assert isinstance(res, ConjectureProbeResult)
        assert res.min_slack >= -1e-8
        assert res.violation is None

    def test_product_state_slack_nonnegative(self, gate_set):
        from cxtherm.experiments import _chain_rule_slack

        a = rand_state(1, 1).matrix
        br = random_density_matrix(4, 4, task_rng(2))
        rho = DensityOperator(register(3), np.kron(a, br))
        assert _chain_rule_slack(rho, 1, 1, gate_set, 1, 0.9) >= -1e-9

    def test_von_neumann_analogue(self):
        from cxtherm.registers import partial_trace

        for seed in range(6):
            rho = rand_state(3, 200 + seed)
            h_abr = von_neumann(rho) - von_neumann(partial_trace(rho, ["q2"]))
            rho_br = partial_trace(rho, ["q1", "q2"])
            h_br = von_neumann(rho_br) - von_neumann(partial_trace(rho_br, ["q2"]))
            assert h_br <= h_abr + LOG2 + 1e-9

    def test_violation_serializable(self, gate_set):
        res = decoupling_probe((1, 1, 1), gate_set, 1, 0.9, 5, 4)
        if res.violation is not None:
            json.dumps(res.violation)

    def test_decoupled_input_succeeds(self, gate_set):
        rho_r = random_density_matrix(2, 2, task_rng(5))
        rho = DensityOperator(register(2), np.kron(np.eye(2) / 2, rho_r))
        res = decoupling_simulate(rho, 1, gate_set, 0, 1, 0, 0.9, 0.9, 0)
        assert res.success
        assert res.relative_entropy == pytest.approx(0.0, abs=1e-9)

    def test_maximally_entangled_boundary(self, gate_set):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        rho = DensityOperator(register(2), np.outer(bell, bell))
        res = decoupling_simulate(rho, 1, gate_set, 0, 2, 0, 1.0, 0.25, 0)
        # an unrestricted-strength referee pins D at exactly 2(n-k) bits
        assert res.relative_entropy == pytest.approx(2 * LOG2, abs=1e-9)
        assert res.success  # D == -log(delta/eta): boundary counts as success
        # the success rule flips exactly at delta/eta = 2^{-2(n-k)}
        res_above = decoupling_simulate(rho, 1, gate_set, 0, 2, 0, 1.0, 0.3, 0)
        assert not res_above.success
        res_below = decoupling_simulate(rho, 1, gate_set, 0, 2, 0, 1.0, 0.2, 0)
        assert res_below.success

    def test_channel_gate_set_rejected(self):
        dephase = GateSet("finite", (
            channel_gate("dephase_a", [np.eye(4) / math.sqrt(2.0), np.kron(Z, I2) / math.sqrt(2.0)]),
        ))
        with pytest.raises(ValueError, match="decoupling is defined for unitary computations"):
            decoupling_simulate(rand_state(3, 5), 2, dephase, 1, 2, 1, 0.9, 0.25, 0)

    def test_bound_k_reported_conditional(self, gate_set):
        rho = rand_state(2, 6)
        res = decoupling_simulate(rho, 1, gate_set, 0, 1, 0, 0.9, 0.5, 1)
        assert res.bound_conditional_on_conjecture
        assert math.isfinite(res.bound_k_bits)
