import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cxtherm.cxentropy import (
    ConditionalSpec,
    conditional_cx_entropy,
    cx_entropy,
    cx_relative_entropy,
    distinguishability_beta,
    hypothesis_test_witness,
    success_probability,
)
from cxtherm.entropies import hyp_entropy, hyp_relative_entropy
from cxtherm.experiments import brickwork_circuit
from cxtherm.gates import continuous_su4_gate_set, default_gate_set
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

from oracles import dfs_enumerate_effects, embedded_kraus

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

        alphabet = placed_alphabet(gate_set, 2)
        self_inv = [pg for pg in alphabet
                    if np.allclose(pg.unitary_full @ pg.unitary_full, np.eye(4), atol=1e-12)]
        for seed in range(3):
            rng = task_rng(seed)
            pg = self_inv[int(rng.integers(len(self_inv)))]
            rho = rand_state(2, 80 + seed)
            rotated = DensityOperator(
                rho.register, pg.unitary_full @ rho.matrix @ pg.unitary_full.conj().T
            )
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
