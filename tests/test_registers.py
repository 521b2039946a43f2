import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cxtherm.errors import RegisterMismatchError
from cxtherm.registers import (
    DensityOperator,
    HermitianOperator,
    PovmEffect,
    QubitRegister,
    fidelity,
    ghz_state,
    hermitian_eig,
    maximally_mixed,
    ones_state,
    partial_trace,
    register,
    state_distance,
    tensor,
    trace_distance,
    zero_state,
)
from cxtherm.sampling import haar_state_vector, random_density_matrix, task_rng

from oracles import fidelity_from_factors, ghz2_reduced_by_hand


def herm(reg, mat):
    return HermitianOperator(reg, mat)


class TestRegister:
    def test_labels_unique(self):
        with pytest.raises(ValueError):
            QubitRegister(("a", "a"))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            QubitRegister(tuple(f"q{i}" for i in range(13)))

    def test_dim(self):
        assert register(3).dim == 8


class TestTensor:
    def test_identity_case(self):
        a = herm(QubitRegister(("a",)), np.eye(2))
        b = herm(QubitRegister(("b",)), np.eye(2))
        out = tensor(a, b)
        assert np.allclose(out.matrix, np.eye(4))
        assert out.trace() == pytest.approx(4.0)

    def test_basis_projectors(self):
        p0 = PovmEffect(QubitRegister(("a",)), np.diag([1.0, 0.0]))
        p1 = PovmEffect(QubitRegister(("b",)), np.diag([0.0, 1.0]))
        out = tensor(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01><01|
        assert np.allclose(out.matrix, expected)

    def test_overlapping_labels_rejected(self):
        a = herm(register(1), np.eye(2))
        with pytest.raises(RegisterMismatchError):
            tensor(a, a)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_trace_multiplicative(self, seed):
        rng = task_rng(seed)
        ma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = herm(QubitRegister(("a",)), ma + ma.conj().T)
        b = herm(QubitRegister(("b",)), mb + mb.conj().T)
        assert tensor(a, b).trace() == pytest.approx(a.trace() * b.trace(), abs=1e-10)


class TestPartialTrace:
    def test_product_recovers_factor(self):
        a = DensityOperator(QubitRegister(("a",)), random_density_matrix(2, 2, task_rng(3)))
        b = DensityOperator(QubitRegister(("b",)), random_density_matrix(2, 1, task_rng(4)))
        ab = tensor(a, b)
        back = partial_trace(ab, ["a"])
        assert np.allclose(back.matrix, a.matrix * b.trace(), atol=1e-12)

    def test_ghz2_reduction_matches_hand_computation(self):
        red = partial_trace(ghz_state(2), ["q1"])
        assert np.allclose(red.matrix, ghz2_reduced_by_hand(), atol=1e-12)
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_empty_trace_is_identity(self):
        rho = ghz_state(2)
        same = partial_trace(rho, ["q0", "q1"])
        assert np.allclose(same.matrix, rho.matrix)

    def test_unknown_label(self):
        with pytest.raises(RegisterMismatchError):
            partial_trace(ghz_state(2), ["nope"])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pinching_partial_order(self, seed):
        # I_X (x) rho_Y - rho_XY / d_X is positive-semidefinite
        rng = task_rng(seed)
        mat = random_density_matrix(4, int(rng.integers(1, 5)), rng)
        mat *= rng.uniform(0.3, 1.0)  # subnormalized too
        rho = DensityOperator(register(2), mat)
        rho_y = partial_trace(rho, ["q1"])
        gap = np.kron(np.eye(2), rho_y.matrix) - rho.matrix / 2.0
        assert np.linalg.eigvalsh(gap).min() >= -1e-9


class TestEig:
    def test_pauli_z(self):
        w, v = hermitian_eig(herm(register(1), np.diag([1.0, -1.0])))
        assert np.allclose(w, [1.0, -1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_identity(self):
        w, v = hermitian_eig(herm(register(2), np.eye(4)))
        assert np.allclose(w, np.ones(4))
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_and_trace(self, seed):
        rng = task_rng(seed)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = herm(register(3), m + m.conj().T)
        w, v = hermitian_eig(h)
        assert list(w) == sorted(w, reverse=True)
        assert np.linalg.norm((v * w) @ v.conj().T - h.matrix) <= 1e-9 * np.linalg.norm(h.matrix)
        assert w.sum() == pytest.approx(h.trace(), abs=1e-9)


class TestDistances:
    def test_self_fidelity(self):
        rho = DensityOperator(register(2), random_density_matrix(4, 3, task_rng(9)))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_ghz_against_zero(self):
        assert abs(fidelity(ghz_state(2), zero_state(2)) - 1.0 / math.sqrt(2.0)) <= 1e-12

    @given(st.integers(1, 3), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pure_state_fidelity_is_the_overlap(self, n, seed):
        rng = task_rng(seed)
        u = haar_state_vector(2 ** n, rng)
        v = haar_state_vector(2 ** n, rng)
        a = DensityOperator(register(n), np.outer(u, u.conj()))
        b = DensityOperator(register(n), np.outer(v, v.conj()))
        assert abs(fidelity(a, b) - abs(np.vdot(u, v))) <= 1e-12

    @pytest.mark.parametrize("n, rank_a, rank_b", [(2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 5, 1)])
    def test_rank_deficient_mixed_pair(self, n, rank_a, rank_b):
        rng = task_rng(10 * n + rank_a + rank_b)
        d = 2 ** n
        a, b = (rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)) for k in (rank_a, rank_b))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)  # unit trace
        rho = DensityOperator(register(n), a @ a.conj().T)
        sigma = DensityOperator(register(n), b @ b.conj().T)
        assert abs(fidelity(rho, sigma) - fidelity_from_factors(a, b)) <= 1e-12
        assert abs(fidelity(sigma, rho) - fidelity_from_factors(a, b)) <= 1e-12

    def test_orthogonal_trace_distance(self):
        assert trace_distance(zero_state(1), ones_state(1)) == pytest.approx(1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pure_state_relation(self, seed):
        # 1/2 ||phi - psi||_1 = sqrt(1 - |<phi|psi>|^2)
        rng = task_rng(seed)
        u = haar_state_vector(4, rng)
        v = haar_state_vector(4, rng)
        a = DensityOperator(register(2), np.outer(u, u.conj()))
        b = DensityOperator(register(2), np.outer(v, v.conj()))
        lhs = trace_distance(a, b)
        rhs = math.sqrt(1.0 - abs(np.vdot(u, v)) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_metric_dispatch(self):
        rho = maximally_mixed(1)
        assert state_distance(rho, rho, "trace") == pytest.approx(0.0)
        assert state_distance(rho, rho, "fidelity") == pytest.approx(1.0)
        with pytest.raises(ValueError):
            state_distance(rho, rho, "bures")

    def test_register_mismatch(self):
        a = DensityOperator(QubitRegister(("a",)), np.eye(2) / 2)
        b = DensityOperator(QubitRegister(("b",)), np.eye(2) / 2)
        with pytest.raises(RegisterMismatchError):
            trace_distance(a, b)


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            herm(register(1), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            DensityOperator(register(1), np.diag([1.1, -0.1]))

    def test_tiny_negative_clamped(self):
        rho = DensityOperator(register(1), np.diag([1.0, -5e-11]))
        assert np.linalg.eigvalsh(rho.matrix).min() >= 0.0

    def test_effect_range(self):
        with pytest.raises(ValueError):
            PovmEffect(register(1), np.diag([1.5, 0.0]))
        eff = PovmEffect(register(1), np.diag([1.0 + 5e-11, 0.0]))
        assert np.linalg.eigvalsh(eff.matrix).max() <= 1.0

    def test_subnormalized_allowed(self):
        rho = DensityOperator(register(1), np.diag([0.3, 0.2]))
        assert rho.trace() == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [HermitianOperator, DensityOperator, PovmEffect, DensityOperator._derived])
    def test_non_finite_rejected(self, build, bad):
        # on the diagonal and off it; a NaN must not pass as a zero deviation
        for m in (np.diag([bad, 0.5]), np.array([[0.5, bad], [bad, 0.5]])):
            with pytest.raises(ValueError, match="non-finite"):
                build(register(1), m)

    @pytest.mark.parametrize("build", [HermitianOperator, DensityOperator, PovmEffect])
    def test_empty_matrix_rejected(self, build):
        with pytest.raises(ValueError, match="non-empty"):
            build(register(1), np.zeros((0, 0)))


class TestHermitize:
    @staticmethod
    def near_hermitian(n, seed, asymmetry):
        rng = task_rng(seed)
        d = 2 ** n
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return m + m.conj().T + asymmetry * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_stored_matrix_equals_the_two_copy_formula(self, n):
        for seed in range(3):
            m = self.near_hermitian(n, 100 * n + seed, 1e-13)
            for mat in (m, m.T):  # C- and Fortran-ordered input
                stored = HermitianOperator(register(n), mat).matrix
                assert stored.flags.c_contiguous
                assert np.array_equal(stored, 0.5 * (mat + mat.conj().T))

    @pytest.mark.parametrize("n", [2, 9])
    def test_deviation_is_the_infinity_norm(self, n):
        m = self.near_hermitian(n, 7, 1e-3)
        dev = np.linalg.norm(m - m.conj().T, ord=np.inf)
        with pytest.raises(ValueError, match=re.escape(f"not Hermitian (deviation {dev:.3g})")):
            HermitianOperator(register(n), m)

    def test_one_buffer_at_nine_qubits(self):
        m = self.near_hermitian(9, 3, 1e-13)
        tracemalloc.start()
        try:
            op = HermitianOperator(register(9), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.matrix.nbytes == m.nbytes
        assert peak <= 1.25 * m.nbytes, peak / m.nbytes
