import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cxtherm.entropies import (
    binary_entropy,
    eigenvalue_padding,
    hyp_entropy,
    hyp_relative_entropy,
    mutual_information,
    umegaki_relative,
    von_neumann,
)
from cxtherm.registers import (
    DensityOperator,
    HermitianOperator,
    ghz_state,
    maximally_mixed,
    partial_trace,
    register,
    zero_state,
)
from cxtherm.sampling import haar_state_vector, random_density_matrix, task_rng

from oracles import diagonal_hyp_exact, diagonal_hyp_oracle

LOG2 = math.log(2.0)


def rand_state(n, seed, rank=None, trace=1.0):
    rng = task_rng(seed)
    rank = rank or 2 ** n
    mat = random_density_matrix(2 ** n, rank, rng) * trace
    return DensityOperator(register(n), mat)


def rand_psd(n, seed, rank=None):
    rng = task_rng(seed)
    d = 2 ** n
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return HermitianOperator(register(n), g @ g.conj().T / d)


class TestVonNeumann:
    def test_pure(self):
        assert von_neumann(zero_state(2)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann(maximally_mixed(1)) == pytest.approx(LOG2, abs=1e-12)

    def test_diagonal_formula(self):
        rho = DensityOperator(register(1), np.diag([0.7, 0.3]))
        expect = -0.7 * math.log(0.7) - 0.3 * math.log(0.3)
        assert von_neumann(rho) == pytest.approx(expect, abs=1e-12)


class TestUmegaki:
    def test_self(self):
        rho = rand_state(2, 1)
        assert umegaki_relative(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_against_maximally_mixed(self):
        gamma = HermitianOperator(register(1), np.eye(2) / 2)
        assert umegaki_relative(zero_state(1), gamma) == pytest.approx(LOG2, abs=1e-12)

    def test_support_mismatch_infinite(self):
        gamma = HermitianOperator(register(1), np.diag([0.0, 1.0]))
        assert umegaki_relative(zero_state(1), gamma) == math.inf


class TestMutualInformation:
    def test_product_state(self):
        rho = DensityOperator(register(2), np.kron(np.diag([0.6, 0.4]), np.eye(2) / 2))
        assert mutual_information(rho, ["q0"]) == pytest.approx(0.0, abs=1e-10)

    def test_bell_pair(self):
        assert mutual_information(ghz_state(2), ["q0"]) == pytest.approx(2 * LOG2, abs=1e-10)

    def test_classically_correlated(self):
        mat = np.zeros((4, 4))
        mat[0, 0] = mat[3, 3] = 0.5
        rho = DensityOperator(register(2), mat)
        assert mutual_information(rho, ["q0"]) == pytest.approx(LOG2, abs=1e-12)

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            mutual_information(ghz_state(2), ["q0", "q1"])


class TestHypTest:
    def test_diagonal_worked_example(self):
        rho = DensityOperator(register(1), np.diag([0.7, 0.3]))
        res = hyp_entropy(rho, 0.7)
        assert res.value == pytest.approx(math.log(1 / 0.7), abs=1e-9)
        grid = diagonal_hyp_oracle([0.7, 0.3], [1.0, 1.0], 0.7)
        assert math.log(grid) >= res.value - 1e-9

    @given(st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_diagonal_greedy_oracle(self, seed):
        rng = task_rng(seed)
        d = int(rng.choice([2, 4]))
        rho_d = rng.dirichlet(np.ones(d))
        gam_d = rng.uniform(0.05, 2.0, size=d)
        eta = float(rng.uniform(0.1, 0.99))
        rho = DensityOperator(register(int(math.log2(d))), np.diag(rho_d))
        gamma = HermitianOperator(register(int(math.log2(d))), np.diag(gam_d))
        res = hyp_relative_entropy(rho, gamma, eta)
        expect = -math.log(diagonal_hyp_exact(rho_d, gam_d, eta))
        assert res.value == pytest.approx(expect, abs=1e-9)

    def test_self_relative_zero_any_eta(self):
        for seed, eta in [(1, 0.2), (2, 0.5), (3, 0.9), (4, 1.0)]:
            rho = rand_state(2, seed)
            res = hyp_relative_entropy(rho, HermitianOperator(rho.register, rho.matrix), eta)
            assert abs(res.value) < 1e-10

    def test_maximally_mixed_full_eta(self):
        for n in (1, 2, 3):
            res = hyp_entropy(maximally_mixed(n), 1.0)
            assert res.value == pytest.approx(n * LOG2, abs=1e-10)

    def test_pure_state_entropy_zero(self):
        for eta in (0.2, 0.7, 1.0):
            rng = task_rng(17)
            v = haar_state_vector(4, rng)
            rho = DensityOperator(register(2), np.outer(v, v.conj()))
            assert hyp_entropy(rho, eta).value == pytest.approx(0.0, abs=1e-10)

    def test_support_case_infinite(self):
        gamma = HermitianOperator(register(1), np.diag([0.0, 1.0]))
        res = hyp_relative_entropy(zero_state(1), gamma, 0.9)
        assert res.value == math.inf

    # Seeds at which the unpadded dual crossed the primal (weak duality
    # failed); 2479 and 1370 are also the worst-conditioned, beta* ~ 3e-9
    # and 1e-6 against ||Gamma|| ~ 1.5 and 4.
    @example(250)
    @example(1370)
    @example(1387)
    @example(1427)
    @example(1617)
    @example(1934)
    @example(2479)
    @example(2947)
    @example(3181)
    @example(3208)
    @given(st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_duality_gap_and_witness(self, seed):
        rng = task_rng(seed)
        n = int(rng.choice([1, 2, 3]))
        rho = rand_state(n, seed + 1, rank=int(rng.integers(1, 2 ** n + 1)))
        gamma = rand_psd(n, seed + 2, rank=int(rng.integers(1, 2 ** n + 1)))
        eta = float(rng.uniform(0.05, 1.0)) * rho.trace()
        res = hyp_relative_entropy(rho, gamma, eta)
        if math.isinf(res.value):
            return
        assert math.isfinite(res.dual_value)
        # The certificate is computed in float64, so the gap may also hold
        # the rounding term -log(1 - f), f = 3 d tau / (eta beta_primal),
        # derived in entropies._neyman_pearson.  It is taken at beta_primal,
        # which does not depend on the dual and is >= beta_dual, so a dual
        # that is too small cannot widen its own allowance.  Over seeds
        # 0..5000, f has a median of 3e-13 and passes 1e-8 at only 6 seeds,
        # where beta* < 1e-5 ||Gamma||; the largest gap is 0.24 of the bound.
        tau = eigenvalue_padding(rho.matrix, gamma.matrix, res.mu_star)
        f = 3 * rho.dim * tau / (eta * math.exp(-res.primal_value))
        assert f < 0.5
        assert abs(res.primal_value - res.dual_value) <= 1e-8 - math.log1p(-f)
        assert res.dual_value >= res.primal_value - 1e-12  # weak duality
        q = res.optimal_effect.matrix
        w = np.linalg.eigvalsh(q)
        assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10
        assert np.trace(q @ rho.matrix).real >= eta - 1e-10

    def test_full_eta_dual_is_a_finite_mu_certificate(self):
        # At eta = tr(rho) the optimal test is the support projector and mu*
        # is infinite.  The dual comes from finite mu, so with Gamma coupling
        # supp(rho) to its kernel it lies strictly below beta*: in D terms
        # dual >= primal, by a small but nonzero gap.
        for seed in range(5):
            rho = rand_state(2, 40 + seed, rank=2)
            gamma = rand_psd(2, 50 + seed)
            res = hyp_relative_entropy(rho, gamma, rho.trace())
            assert math.isfinite(res.dual_value)
            assert 0.0 < res.dual_value - res.primal_value < 1e-6

    def test_kernel_mix_takes_cheapest_direction(self):
        # At the threshold both light directions sit inside the kernel band;
        # the optimum fills the cheaper one (Gamma = g) before the dearer one.
        g, delta = 1e-6, 1e-11
        rho = DensityOperator(register(2), np.diag([0.45, 0.45, 0.1, 0.0]))
        gamma = HermitianOperator(register(2), np.diag([g + delta, g, 10.0, 10.0]))
        res = hyp_relative_entropy(rho, gamma, 0.5)
        exact = -math.log((g + (g + delta) / 9) / 0.5)
        assert res.primal_value == pytest.approx(exact, abs=1e-12)
        assert res.dual_value >= res.primal_value - 1e-12

    @given(st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_eta(self, seed):
        rho = rand_state(2, seed)
        gamma = rand_psd(2, seed + 7)
        values = [hyp_relative_entropy(rho, gamma, eta).value for eta in (0.3, 0.6, 0.9)]
        assert values[0] >= values[1] - 1e-9 >= values[2] - 2e-9

    @given(st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_data_processing_partial_trace(self, seed):
        rho = rand_state(2, seed)
        gamma = rand_psd(2, seed + 3)
        eta = 0.7
        full = hyp_relative_entropy(rho, gamma, eta).value
        red = hyp_relative_entropy(
            partial_trace(rho, ["q0"]), partial_trace(gamma, ["q0"]), eta
        ).value
        assert full >= red - 1e-9

    def test_scaling_second_argument(self):
        rho = rand_state(2, 12)
        gamma = rand_psd(2, 13)
        for a in (0.5, 2.0, 7.5):
            scaled = HermitianOperator(gamma.register, a * gamma.matrix)
            d0 = hyp_relative_entropy(rho, gamma, 0.8).value
            d1 = hyp_relative_entropy(rho, scaled, 0.8).value
            assert d1 == pytest.approx(d0 - math.log(a), abs=1e-9)

    def test_range_bounds_full_rank(self):
        rho = rand_state(2, 21)
        gamma = rand_psd(2, 22)
        val = hyp_relative_entropy(rho, gamma, 0.6).value
        w = np.linalg.eigvalsh(gamma.matrix)
        assert -math.log(w.sum()) - 1e-9 <= val <= -math.log(w.min()) + 1e-9

    def test_infeasible_eta(self):
        rho = DensityOperator(register(1), np.diag([0.3, 0.2]))
        with pytest.raises(ValueError):
            hyp_entropy(rho, 0.9)

    def test_cvxpy_cross_check(self):
        cp = pytest.importorskip("cvxpy")
        rng = task_rng(77)
        for t in range(8):
            d = int(rng.choice([2, 4]))
            n = int(math.log2(d))
            rho = rand_state(n, 1000 + t)
            gamma = rand_psd(n, 2000 + t, rank=int(rng.integers(1, d + 1)))
            eta = float(rng.uniform(0.2, 0.95))
            ours = hyp_relative_entropy(rho, gamma, eta)
            q = cp.Variable((d, d), hermitian=True)
            cons = [q >> 0, np.eye(d) - q >> 0,
                    cp.real(cp.trace(q @ rho.matrix)) >= eta]
            prob = cp.Problem(cp.Minimize(cp.real(cp.trace(q @ gamma.matrix))), cons)
            prob.solve(solver=cp.SCS, eps=1e-9)
            if math.isinf(ours.value):
                assert prob.value / eta < 1e-7
            else:
                assert -math.log(max(prob.value / eta, 1e-300)) == pytest.approx(
                    ours.value, abs=5e-5
                )


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(LOG2)
