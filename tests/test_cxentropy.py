import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cxtherm import cxentropy as cxentropy_module, registers
from cxtherm.cxentropy import (
    ConditionalSpec,
    _is_scalar_identity,
    conditional_cx_entropy,
    cx_entropy,
    cx_relative_entropy,
    distinguishability_beta,
    hypothesis_test_witness,
    success_probability,
)
from cxtherm.entropies import hyp_entropy, hyp_relative_entropy
from cxtherm.experiments import brickwork_circuit
from cxtherm import heuristic
from cxtherm.gates import continuous_su4_gate_set, default_gate_set, expand_operator, mask_matrix
from cxtherm.registers import (
    DensityOperator,
    HermitianOperator,
    QubitRegister,
    ghz_state,
    maximally_mixed,
    ones_state,
    partial_trace,
    register,
    state_from_vector,
    tensor,
    zero_state,
)
from cxtherm.sampling import random_density_matrix, sample_pure_state, task_rng
from cxtherm.thermo import ThermalModel, gibbs_preserving_gate_set

from oracles import central_difference, dense_su4_effect, dfs_enumerate_effects, embedded_kraus

try:  # norm(ord=2) calls the svd of the module that defines it
    from numpy.linalg import _linalg as linalg_impl
except ImportError:  # numpy < 2
    from numpy.linalg import linalg as linalg_impl

LOG2 = math.log(2.0)


def rand_state(n, seed, rank=None):
    rng = task_rng(seed)
    rank = rank or 2 ** n
    return DensityOperator(register(n), random_density_matrix(2 ** n, rank, rng))


def brute_force_reduced(rho, gate_set, r, eta):
    """Second route: materialize M_r by the depth-first oracle and scan."""
    best = math.inf
    for eff in dfs_enumerate_effects(gate_set, r, rho.n):
        if np.trace(eff.matrix @ rho.matrix).real >= eta - 1e-12:
            best = min(best, np.trace(eff.matrix).real)
    return math.log(best)


class TestWorkedExamples:
    def test_zero_state_any_r_eta(self, gate_set):
        for r in (0, 1, 2):
            for eta in (0.5, 0.999):
                est = cx_entropy(zero_state(3), gate_set, r, eta)
                assert est.value == pytest.approx(0.0, abs=1e-9)
                assert est.certainty == "exact"

    def test_ones_state_flip_pairs(self, gate_set):
        # n - 2r bits while r < n/2, zero once every pair can be flipped
        est = cx_entropy(ones_state(2), gate_set, 0, 0.999)
        assert est.in_bits() == pytest.approx(2.0, abs=1e-9)
        est = cx_entropy(ones_state(2), gate_set, 1, 0.999)
        assert est.in_bits() == pytest.approx(0.0, abs=1e-9)

    def test_ghz3_ladder(self, gate_set):
        for r in (0, 1, 2, 3):
            est = cx_entropy(ghz_state(3), gate_set, r, 0.999)
            assert est.in_bits() == pytest.approx(max(3 - r, 0), abs=1e-9)

    def test_reachable_pure_state_not_below_zero(self, gate_set):
        # a depth-25 brickwork state whose witness has tr(Q rho) a rounding
        # error above tr Q = 1; the ratio is taken with min(tr(Q rho), tr Q)
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        for gate, edge in brickwork_circuit(3, 25, "finite", 25 * 1009 + 18, gate_set).ops:
            vec = embedded_kraus(gate, edge, 3)[0] @ vec
        est = cx_entropy(state_from_vector(vec), gate_set, 2, 1.0)
        assert 0.0 <= est.value <= 1e-12

    def test_maximally_mixed_flat(self, gate_set):
        for r in (0, 1):
            est = cx_entropy(maximally_mixed(2), gate_set, r, 0.9)
            assert est.in_bits() == pytest.approx(2.0, abs=1e-9)

    def test_mixture_bound(self, gate_set):
        eps = 0.05
        psi = sample_pure_state(3, 5)
        mat = (1 - eps) * zero_state(3).matrix + eps * psi.matrix
        rho = DensityOperator(register(3), mat)
        est = cx_entropy(rho, gate_set, 0, 0.9)
        assert est.value <= -math.log(1 - eps) + 1e-9


class TestRelativeEntropy:
    def test_vanishes_on_equal_args(self, gate_set):
        for seed in range(3):
            rho = rand_state(2, seed)
            gamma = HermitianOperator(rho.register, rho.matrix)
            for r in (0, 1):
                for eta in (0.4, 0.9):
                    est = cx_relative_entropy(rho, gamma, gate_set, r, eta)
                    assert abs(est.value) < 1e-10

    @given(st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_reduced_normalized_gap(self, seed):
        gate_set = default_gate_set()
        rng = task_rng(seed)
        rho = rand_state(2, seed + 1)
        gamma = HermitianOperator(register(2), random_density_matrix(4, 4, rng) * 2.0)
        eta = float(rng.uniform(0.2, 0.99))
        norm = cx_relative_entropy(rho, gamma, gate_set, 1, eta).value
        red = cx_relative_entropy(rho, gamma, gate_set, 1, eta, reduced=True).value
        gap = red - norm
        assert -1e-9 <= gap <= math.log(1 / eta) + 1e-9

    @given(st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_bounded_by_hyp_test(self, seed):
        gate_set = default_gate_set()
        rng = task_rng(seed)
        rho = rand_state(2, seed + 2)
        gamma = HermitianOperator(register(2), random_density_matrix(4, 4, rng))
        eta = float(rng.uniform(0.2, 0.99))
        restricted = cx_relative_entropy(rho, gamma, gate_set, 1, eta).value
        unrestricted = hyp_relative_entropy(rho, gamma, eta).value
        assert restricted <= unrestricted + 1e-9

    def test_matches_effect_set_route(self, gate_set):
        # dual route: streamed DFS vs materialized effect enumeration
        for seed in range(5):
            rho = rand_state(2, 100 + seed)
            est = cx_entropy(rho, gate_set, 1, 0.8, reduced=True)
            other = brute_force_reduced(rho, gate_set, 1, 0.8)
            assert est.value == pytest.approx(other, abs=1e-10)

    def test_eta_infeasible(self, gate_set):
        rho = DensityOperator(register(1), np.diag([0.3, 0.2]))
        with pytest.raises(ValueError):
            cx_entropy(rho, gate_set, 1, 0.9)

    @pytest.mark.parametrize("case", ["register", "eta", "psd"])
    def test_rejects_what_the_unrestricted_test_rejects(self, case, gate_set):
        rho = rand_state(2, 3)
        gamma = HermitianOperator(register(2), np.eye(4))
        eta = 0.9
        if case == "register":
            gamma = HermitianOperator(QubitRegister(("a", "b")), np.eye(4))
        elif case == "eta":
            eta = 1.5
        else:
            gamma = HermitianOperator(register(2), np.diag([1.0, 1.0, 1.0, -0.1]))
        with pytest.raises(ValueError) as unrestricted:
            hyp_relative_entropy(rho, gamma, eta)
        with pytest.raises(ValueError) as restricted:
            cx_relative_entropy(rho, gamma, gate_set, 1, eta)
        assert str(restricted.value) == str(unrestricted.value)

    def test_negative_budget(self, gate_set):
        rho = rand_state(2, 3)
        gamma = HermitianOperator(register(2), np.eye(4))
        with pytest.raises(ValueError, match="r must be at least 0, got -1"):
            cx_relative_entropy(rho, gamma, gate_set, -1, 0.9)


class TestMonotonicity:
    @given(st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_r_and_eta(self, seed):
        gate_set = default_gate_set()
        rho = rand_state(2, seed)
        vals_r = [cx_entropy(rho, gate_set, r, 0.8).value for r in (0, 1, 2)]
        assert vals_r[0] >= vals_r[1] - 1e-9 >= vals_r[2] - 2e-9
        vals_eta = [cx_entropy(rho, gate_set, 1, eta).value for eta in (0.3, 0.6, 0.95)]
        assert vals_eta[0] <= vals_eta[1] + 1e-9 <= vals_eta[2] + 2e-9

    def test_sandwich(self, gate_set):
        for seed in range(5):
            rho = rand_state(3, seed)
            h_low = hyp_entropy(rho, 0.9).value
            h_cx = cx_entropy(rho, gate_set, 1, 0.9).value
            assert h_low - 1e-9 <= h_cx <= 3 * LOG2 + 1e-9


class TestStructuralBounds:
    def test_subadditivity_tensor_products(self, gate_set):
        for seed in range(3):
            a = rand_state(2, seed)
            b_mat = random_density_matrix(4, 4, task_rng(50 + seed))
            b = DensityOperator(QubitRegister(("r0", "r1")), b_mat)
            joint = tensor(a, b)
            h_joint = cx_entropy(joint, gate_set, 2, 0.7 * 0.8).value
            h_a = cx_entropy(a, gate_set, 1, 0.7).value
            h_b = cx_entropy(
                DensityOperator(register(2), b.matrix), gate_set, 1, 0.8
            ).value
            assert h_joint <= h_a + h_b + 1e-9

    def test_partial_trace_bound(self, gate_set):
        for seed in range(3):
            rho = rand_state(3, 70 + seed)
            h_full = cx_entropy(rho, gate_set, 1, 0.8).value
            h_red = cx_entropy(partial_trace(rho, ["q0", "q1"]), gate_set, 1, 0.8).value
            assert h_full <= h_red + LOG2 + 1e-9

    def test_unitary_prerotation(self, gate_set):
        # U is a word over self-inverse gates, so C(U^dag) <= its length
        from cxtherm.gates import placed_alphabet

        unitaries = [embedded_kraus(pg.gates[0], pg.edge, 2)[0] for pg in placed_alphabet(gate_set, 2)]
        self_inv = [u for u in unitaries if np.allclose(u @ u, np.eye(4), atol=1e-12)]
        for seed in range(3):
            rng = task_rng(seed)
            u = self_inv[int(rng.integers(len(self_inv)))]
            rho = rand_state(2, 80 + seed)
            rotated = DensityOperator(rho.register, u @ rho.matrix @ u.conj().T)
            h_rot = cx_entropy(rotated, gate_set, 2, 0.8).value
            h_orig = cx_entropy(rho, gate_set, 1, 0.8).value
            assert h_rot <= h_orig + 1e-9

    def test_r0_product_referee_bound(self, gate_set):
        for seed in range(3):
            rho = rand_state(3, 90 + seed)
            gammas = [random_density_matrix(2, 2, task_rng(1000 + 10 * seed + j))
                      for j in range(3)]
            gamma_full = gammas[0]
            for g in gammas[1:]:
                gamma_full = np.kron(gamma_full, g)
            gamma = HermitianOperator(register(3), gamma_full)
            eta = 0.8
            lhs = cx_relative_entropy(rho, gamma, gate_set, 0, eta).value
            rhs = 0.0
            for j, g in enumerate(gammas):
                rho_j = partial_trace(rho, [f"q{j}"])
                gam_j = HermitianOperator(rho_j.register, g)
                rhs += hyp_relative_entropy(rho_j, gam_j, eta).value
            assert lhs <= rhs + 1e-9


class TestConditional:
    def test_product_with_maximally_mixed_a(self, gate_set):
        b = rand_state(1, 3).matrix
        rho = DensityOperator(register(2), np.kron(np.eye(2) / 2, b))
        for r in (0, 1):
            est = conditional_cx_entropy(rho, ConditionalSpec(("q0",), ("q1",), r, 0.9), gate_set)
            assert est.value == pytest.approx(LOG2, abs=1e-9)

    @given(st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_range(self, seed):
        gate_set = default_gate_set()
        rho = rand_state(2, seed)
        est = conditional_cx_entropy(rho, ConditionalSpec(("q0",), ("q1",), 1, 0.8), gate_set)
        assert -LOG2 - 1e-9 <= est.value <= LOG2 + 1e-9

    @given(st.integers(0, 5_000))
    @settings(max_examples=8, deadline=None)
    def test_strong_subadditivity(self, seed):
        gate_set = default_gate_set()
        rho = rand_state(3, seed)
        h_abc = conditional_cx_entropy(
            rho, ConditionalSpec(("q0",), ("q1", "q2"), 1, 0.8), gate_set
        ).value
        h_ab = conditional_cx_entropy(
            rho, ConditionalSpec(("q0",), ("q1",), 1, 0.8), gate_set
        ).value
        assert h_abc <= h_ab + 1e-9

    def test_bell_pair_minus_one_bit(self, gate_set):
        # a two-gate referee reaches the Bell projector, so H(A|B) hits the
        # usual quantum value -1 bit
        est = conditional_cx_entropy(
            ghz_state(2), ConditionalSpec(("q0",), ("q1",), 2, 0.999), gate_set
        )
        assert est.value == pytest.approx(-LOG2, abs=1e-9)

    def test_partition_validation(self, gate_set):
        with pytest.raises(ValueError):
            ConditionalSpec(("q0",), ("q0",), 1, 0.9)
        with pytest.raises(ValueError):
            conditional_cx_entropy(
                rand_state(2, 1), ConditionalSpec(("q0",), ("nope",), 1, 0.9), gate_set
            )


class TestSuccessProbability:
    def test_preparable_pure_state(self, gate_set):
        # GHZ_2 needs two gates; with r = 2 and m = 0 it is identified w.p. 1
        p = success_probability(ghz_state(2), gate_set, 2, 0.0)
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_r_and_m(self, gate_set):
        rho = rand_state(2, 8)
        p_r = [success_probability(rho, gate_set, r, 0.0) for r in (0, 1, 2)]
        assert p_r[0] <= p_r[1] + 1e-12 <= p_r[2] + 2e-12
        p_m = [success_probability(rho, gate_set, 1, m * LOG2) for m in (0, 1, 2)]
        assert p_m[0] <= p_m[1] + 1e-12 <= p_m[2] + 2e-12

    def test_convex_under_mixing(self, gate_set):
        a, b = rand_state(2, 11), rand_state(2, 12)
        lam = 0.3
        mix = DensityOperator(register(2), lam * a.matrix + (1 - lam) * b.matrix)
        p_mix = success_probability(mix, gate_set, 1, LOG2)
        p_a = success_probability(a, gate_set, 1, LOG2)
        p_b = success_probability(b, gate_set, 1, LOG2)
        assert p_mix <= lam * p_a + (1 - lam) * p_b + 1e-10

    def test_empty_class(self, gate_set):
        with pytest.raises(ValueError):
            success_probability(rand_state(2, 1), gate_set, 1, 5 * LOG2)


class TestBeta:
    def test_equal_states_zero(self, gate_set):
        rho = rand_state(2, 4)
        assert distinguishability_beta(rho, rho, gate_set, 1) == pytest.approx(0.0, abs=1e-12)

    def test_nondecreasing_in_r(self, gate_set):
        a, b = rand_state(2, 5), rand_state(2, 6)
        vals = [distinguishability_beta(a, b, gate_set, r) for r in (0, 1, 2)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    @given(st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_relative_entropy_bound(self, seed):
        gate_set = default_gate_set()
        a, b = rand_state(2, seed), rand_state(2, seed + 1)
        eta = 0.9
        beta = distinguishability_beta(a, b, gate_set, 1)
        if beta < eta:
            d = cx_relative_entropy(
                a, HermitianOperator(b.register, b.matrix), gate_set, 1, eta
            ).value
            assert d <= -math.log(1 - beta / eta) + 1e-9


class TestWitness:
    def test_same_state_trivial_witness(self, gate_set):
        rho = rand_state(2, 7)
        out = hypothesis_test_witness(rho, rho, gate_set, 1, 0.7, 0.7)
        assert out is not None
        q_eff, q = out
        assert 0.7 - 1e-12 <= q <= 1.0 + 1e-12

    def test_delta_above_eta_always_exists(self, gate_set):
        a, b = rand_state(2, 8), rand_state(2, 9)
        assert hypothesis_test_witness(a, b, gate_set, 1, 0.5, 0.9) is not None

    def test_witness_matches_entropy_threshold(self, gate_set):
        a, b = rand_state(2, 10), rand_state(2, 11)
        eta = 0.8
        d = cx_relative_entropy(a, HermitianOperator(b.register, b.matrix),
                                gate_set, 1, eta).value
        delta_easy = eta * math.exp(-d) * 1.05
        delta_hard = eta * math.exp(-d) * 0.9
        assert hypothesis_test_witness(a, b, gate_set, 1, eta, delta_easy) is not None
        assert hypothesis_test_witness(a, b, gate_set, 1, eta, delta_hard) is None


class TestHeuristic:
    def test_upper_bounds_floor_and_tags(self):
        cont = continuous_su4_gate_set()
        rho = rand_state(2, 21)
        est = cx_entropy(rho, cont, 1, 0.9, restarts=4, iterations=25, seed=3)
        assert est.certainty == "upper_bound"
        assert est.value >= hyp_entropy(rho, 0.9).value - 1e-9
        assert est.value <= 2 * LOG2 + 1e-9

    def test_r0_matches_enumeration(self, gate_set):
        cont = continuous_su4_gate_set()
        rho = rand_state(2, 22)
        heur = cx_entropy(rho, cont, 0, 0.8)
        exact = cx_entropy(rho, gate_set, 0, 0.8)
        assert heur.value == pytest.approx(exact.value, abs=1e-10)

    @pytest.mark.parametrize("connectivity", ["all-to-all", "chain"])
    def test_one_qubit_places_no_gate(self, connectivity):
        # with no edge to place a gate on, M_r = M_0 for every r
        cont = continuous_su4_gate_set(connectivity)
        rho = DensityOperator(register(1), np.diag([0.7, 0.3]))
        at_r0 = cx_entropy(rho, cont, 0, 0.6).value
        assert at_r0 == pytest.approx(-math.log(0.7), abs=1e-12)
        for r in (1, 2):
            assert cx_entropy(rho, cont, r, 0.6).value == at_r0

    def test_ghz2_single_gate_preparable(self):
        cont = continuous_su4_gate_set()
        est = cx_entropy(ghz_state(2), cont, 1, 0.99, restarts=6, iterations=30, seed=5)
        assert est.value <= 0.05  # the continuous optimum is 0


    @pytest.mark.parametrize("n,r", [(n, r) for n in (2, 3, 4) for r in (1, 2, 3)])
    def test_exact_gradient_matches_central_differences(self, n, r):
        rng = task_rng(50, n, r)
        d = 2 ** n
        rho = random_density_matrix(d, d, rng)
        gamma = 2.0 * random_density_matrix(d, d, rng)
        p_diag = mask_matrix(n)[int(rng.integers(1, d))]
        params = rng.normal(scale=0.4, size=15 * r)
        # a zero gate: all eigenvalues of its generator coincide
        zero = int(rng.integers(r))
        params[15 * zero : 15 * (zero + 1)] = 0.0
        edges = [tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(r)]
        penalty = 1e3
        for layout in (edges, [(j, i) for i, j in edges]):
            q = dense_su4_effect(params, layout, n, p_diag)
            accept = np.trace(q @ rho).real
            cost = np.trace(q @ gamma).real
            for reduced in (False, True):
                for shortfall in (0.05, -0.05):  # penalty active, then inactive
                    eta = accept + shortfall

                    def objective(x):
                        return heuristic._objective(x, layout, p_diag, rho, gamma, eta, penalty, reduced)

                    value, grad = objective(params)
                    expected = math.log(cost) + penalty * max(0.0, shortfall) ** 2
                    if not reduced:
                        expected -= math.log(accept)
                    assert value == pytest.approx(expected, abs=1e-12)
                    fd = central_difference(lambda x: objective(x)[0], params)
                    assert np.all(np.abs(grad - fd) <= 1e-6 * np.maximum(1.0, np.abs(grad)))

    @pytest.mark.parametrize("n,r", [(2, 1), (3, 2), (4, 3)])
    def test_identity_gamma_skips_its_sweep(self, n, r, monkeypatch):
        rng = task_rng(51, n, r)
        d = 2 ** n
        rho = random_density_matrix(d, d, rng)
        p_diag = mask_matrix(n)[int(rng.integers(1, d))]
        params = rng.normal(scale=0.4, size=15 * r)
        layout = [tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(r)]
        for reduced in (False, True):
            args = (layout, p_diag, rho)
            swept = heuristic._objective(params, *args, np.eye(d), 0.9, 1e3, reduced)
            skipped = heuristic._objective(params, *args, None, 0.9, 1e3, reduced)
            assert skipped[0] == pytest.approx(swept[0], abs=1e-12)
            assert np.abs(skipped[1] - swept[1]).max() <= 1e-12
        sweeps = []
        forward = heuristic._forward
        monkeypatch.setattr(heuristic, "_forward", lambda *a: sweeps.append(1) or forward(*a))
        cand = heuristic.heuristic_search(rho, np.eye(d), n, r, 0.9, restarts=2, iterations=5, seed=1)
        assert len(sweeps) == sum(x["evaluations"] for x in cand.meta["restarts_detail"])

    def test_one_forward_sweep_per_evaluation(self, monkeypatch):
        counts = {"expm": 0, "nfev": 0, "nit": 0}
        expm, minimize = heuristic.expm, heuristic.minimize

        def counted_expm(a):
            counts["expm"] += 1
            return expm(a)

        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            counts["nfev"] += int(res.nfev)
            counts["nit"] += int(res.nit)
            return res

        monkeypatch.setattr(heuristic, "expm", counted_expm)
        monkeypatch.setattr(heuristic, "minimize", counted_minimize)
        rho = rand_state(3, 40)
        r, restarts = 2, 3
        cand = heuristic.heuristic_search(
            rho.matrix, np.eye(8), 3, r, 0.9, restarts=restarts, iterations=20, seed=2
        )
        assert counts["nfev"] > 0
        # one forward sweep per evaluation, plus the final build of each restart
        assert counts["expm"] == r * (counts["nfev"] + restarts)
        # nor inside minimize: a finite-difference gradient there would cost
        # 15 r + 1 evaluations per iteration
        calls = restarts * len(heuristic.PENALTY_STAGES)
        assert counts["nfev"] <= 3 * (counts["nit"] + calls)
        assert sum(d["evaluations"] for d in cand.meta["restarts_detail"]) == counts["nfev"]

    def test_restart_details_independent_of_threads(self):
        cont = continuous_su4_gate_set()
        rho = rand_state(3, 41)
        one, two = (
            cx_entropy(rho, cont, 2, 0.9, restarts=6, iterations=20, seed=4, threads=t)
            for t in (1, 2)
        )
        detail = one.solver["restarts_detail"]
        assert detail == two.solver["restarts_detail"]
        assert one.value == two.value
        assert np.array_equal(one.witness.matrix, two.witness.matrix)
        assert len(detail) == 6
        for entry in detail:
            assert entry["penalty"] == heuristic.PENALTY_STAGES[-1]
            assert 0 <= entry["iterations"] <= entry["evaluations"]
            assert entry["evaluations"] >= len(heuristic.PENALTY_STAGES)
            assert entry["feasible"] == (entry["accept"] >= 0.9 - 1e-10)
        feasible = [entry["score"] for entry in detail if entry["feasible"]]
        assert one.value == math.log(min(feasible))
        assert cx_entropy(rho, cont, 0, 0.9).solver["restarts_detail"] == []

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("connectivity", ["all-to-all", "chain"])
    @pytest.mark.parametrize("reduced", [False, True])
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=3, deadline=None)
    def test_witness_feasible_and_value_bracketed(self, n, r, connectivity, reduced, seed):
        rng = task_rng(seed)
        d = 2 ** n
        rho = DensityOperator(register(n), random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
        eta = float(rng.uniform(0.5, 0.99))
        cont = continuous_su4_gate_set(connectivity)
        est = cx_entropy(rho, cont, r, eta, reduced=reduced, restarts=4, iterations=20, seed=seed)
        assert np.trace(est.witness.matrix @ rho.matrix).real >= eta - 1e-10
        # unrestricted lower side: log(beta*/eta), or log beta* without the
        # normalization; the Q = I fallback gives log(d / tr rho), or log d
        lower = hyp_entropy(rho, eta).value + (math.log(eta) if reduced else 0.0)
        fallback = math.log(d) - (0.0 if reduced else math.log(rho.trace()))
        assert lower - 1e-9 <= est.value <= fallback + 1e-9


class TestEstimateInvariants:
    def test_witness_feasibility_recorded(self, gate_set):
        rho = rand_state(2, 30)
        est = cx_entropy(rho, gate_set, 1, 0.85)
        got = np.trace(est.witness.matrix @ rho.matrix).real
        assert got >= 0.85 - 1e-10

    def test_exact_only_from_enumeration(self, gate_set):
        est = cx_entropy(rand_state(2, 31), gate_set, 1, 0.8)
        assert est.certainty == "exact"
        assert est.solver["method"] == "enumeration"


class TestIdentityReference:
    """Gamma = I, and the conditional's I_A x rho_B, are built by the package
    and not re-checked; the results must keep the bits of the checked route
    through `cx_relative_entropy` and `hyp_relative_entropy`."""

    @staticmethod
    def assert_same(est, ref):
        assert est.value.hex() == (-ref.value).hex()
        assert est.certainty == {"exact": "exact", "lower_bound": "upper_bound"}[ref.certainty]
        assert est.witness.matrix.tobytes() == ref.witness.matrix.tobytes()
        assert est.witness.provenance == ref.witness.provenance
        assert repr(est.solver) == repr(ref.solver)

    @pytest.mark.parametrize("kind", ["all-to-all", "chain", "gibbs", "continuous"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_entropy_equals_the_identity_reference_bitwise(self, kind, n):
        if kind == "gibbs":
            gs = gibbs_preserving_gate_set(ThermalModel(tuple(np.linspace(0.3, 1.7, n))))
        elif kind == "continuous":
            gs = continuous_su4_gate_set()
        else:
            gs = default_gate_set(kind)
        rs = (0, 1) if kind == "continuous" or (kind == "gibbs" and n == 3) else (0, 1, 2)
        search = dict(seed=5, restarts=3, iterations=10) if kind == "continuous" else {}
        for seed, rank in ((60 + n, 1), (70 + n, 2 ** n)):
            rho = rand_state(n, seed, rank)
            identity = HermitianOperator(rho.register, np.eye(2 ** n))
            for r in rs:
                for eta, reduced in ((0.9, False), (0.7, True), (1.0, False)):
                    cx_entropy(rho, gs, r, eta, **search)  # so both find M_{r-1} built
                    est = cx_entropy(rho, gs, r, eta, reduced=reduced, **search)
                    ref = cx_relative_entropy(rho, identity, gs, r, eta, reduced=reduced, **search)
                    self.assert_same(est, ref)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hyp_entropy_equals_the_identity_reference_bitwise(self, n):
        for seed, rank, eta in ((80 + n, 1, 0.9), (90 + n, 2 ** n, 0.6), (95 + n, 2, 1.0)):
            rho = rand_state(n, seed, rank)
            res = hyp_entropy(rho, eta)
            ref = hyp_relative_entropy(rho, HermitianOperator(rho.register, np.eye(2 ** n)), eta)
            for got, want in ((res.value, ref.value), (res.primal_value, ref.primal_value),
                              (res.dual_value, ref.dual_value)):
                assert got.hex() == (-want).hex()
            assert res.mu_star == ref.mu_star
            assert res.optimal_effect.matrix.tobytes() == ref.optimal_effect.matrix.tobytes()

    @pytest.mark.parametrize("connectivity", ["all-to-all", "chain"])
    def test_conditional_equals_the_checked_reference_bitwise(self, connectivity):
        gs = default_gate_set(connectivity)
        for n, part_a, part_b in ((2, ("q0",), ("q1",)), (3, ("q1",), ("q0", "q2")), (3, ("q2",), ("q0",))):
            rho = rand_state(n, 100 + n, 3)
            labels = set(part_a) | set(part_b)
            rho_ab = partial_trace(rho, labels) if len(labels) < n else rho
            rho_b = partial_trace(rho_ab, part_b)
            at = [rho_ab.register.index_of(lbl) for lbl in rho_b.register.labels]
            gamma = HermitianOperator(rho_ab.register, expand_operator(rho_b.matrix, rho_ab.n, at))
            for r in (0, 1, 2):
                cx_entropy(rho_ab, gs, r, 0.8)  # so both find M_{r-1} built
                est = conditional_cx_entropy(rho, ConditionalSpec(part_a, part_b, r, 0.8), gs)
                self.assert_same(est, cx_relative_entropy(rho_ab, gamma, gs, r, 0.8))

    def test_eta_and_budget_still_checked(self, gate_set):
        rho = rand_state(2, 7)
        with pytest.raises(ValueError, match="r must be at least 0, got -1"):
            cx_entropy(rho, gate_set, -1, 0.9)
        for eta in (0.0, 1.5):
            with pytest.raises(ValueError, match="eta must lie"):
                cx_entropy(rho, gate_set, 1, eta)
            with pytest.raises(ValueError, match="eta must lie"):
                hyp_entropy(rho, eta)
            with pytest.raises(ValueError, match="eta must lie"):
                conditional_cx_entropy(rho, ConditionalSpec(("q0",), ("q1",), 1, eta), gate_set)

    def test_exact_entropy_runs_no_svd_and_checks_only_its_witness(self, monkeypatch):
        # a warm n = 3 query: the one operator built and diagonalized is the
        # witness; Gamma = I is neither built, nor checked, nor examined
        gs = default_gate_set()
        rho = rand_state(3, 110, 3)
        cx_entropy(rho, gs, 1, 0.9)
        calls = {"svd": 0, "eigvalsh": 0, "operators": 0, "scalar": 0}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(linalg_impl, "svd", spy("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(registers, "_fitted", spy("operators", registers._fitted))
        monkeypatch.setattr(cxentropy_module, "_is_scalar_identity", spy("scalar", _is_scalar_identity))
        for reduced in (False, True):
            calls.update(dict.fromkeys(calls, 0))
            est = cx_entropy(rho, gs, 1, 0.9, reduced=reduced)
            assert est.certainty == "exact"
            assert calls == {"svd": 0, "eigvalsh": 1, "operators": 1, "scalar": 0}


def _svd_oracle(m):
    """The decision `_is_scalar_identity` makes, by the spectral norm."""
    d = m.shape[0]
    c = float(np.trace(m).real) / d
    return c if np.linalg.norm(m - c * np.eye(d), ord=2) <= 1e-14 * max(abs(c), 1.0) else None


class TestScalarIdentity:
    X4 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(4))  # eigenvalues +-1, entries 0 or 1

    @pytest.mark.parametrize("c", [0.0, 1e-3])
    @pytest.mark.parametrize("rel", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_boundary_cases_decide_as_the_svd(self, c, rel):
        tol = 1e-14
        delta = tol * rel
        cases = [c * np.eye(8, dtype=complex) + m for m in (
            # a diagonal off by tol (1 +- 1e-3) in two places, trace unchanged:
            # below, only the SVD tells, since its Frobenius norm exceeds tol
            np.diag([delta, -delta] + [0.0] * 6),
            # off the diagonal, spectral norm delta and Frobenius norm
            # sqrt(8) delta > tol
            delta * self.X4,
            # entries at most tol / 2 but spectral norm 3.5 tol
            0.5 * tol * (np.ones((8, 8)) - np.eye(8)),
        )]
        for m in cases:
            assert _is_scalar_identity(m) == _svd_oracle(m)
        assert (_is_scalar_identity(cases[0]) is None) == (rel > 1.0)
        assert _is_scalar_identity(cases[2]) is None

    def test_clear_cases_run_no_svd(self, monkeypatch):
        # c I is accepted by its Frobenius norm, a state or a Gibbs weight is
        # rejected by its entries
        rho = rand_state(2, 120)
        gibbs = ThermalModel((0.4, 1.3)).gamma_full()
        refuse = lambda *a, **k: pytest.fail("SVD run")  # noqa: E731
        monkeypatch.setattr(linalg_impl, "svd", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for c in (0.0, 1.0, 0.25, 3.0):
            assert _is_scalar_identity(c * np.eye(4, dtype=complex)) == c
        assert _is_scalar_identity(rho.matrix) is None
        assert _is_scalar_identity(gibbs) is None
        monkeypatch.undo()
        assert _svd_oracle(rho.matrix) is None is _svd_oracle(gibbs)
