import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cxtherm.errors import RegisterMismatchError
from cxtherm import registers as registers_module
from cxtherm.gates import Circuit, apply_circuit
from cxtherm.registers import (
    HERMITIAN_TOL,
    HERMITIZE_WHOLE,
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
    partial_trace_matrix,
    register,
    state_distance,
    state_from_vector,
    tensor,
    trace_distance,
    zero_state,
    _hermitize,
)
from cxtherm.sampling import haar_state_vector, random_density_matrix, task_rng

from oracles import fidelity_from_factors, ghz2_reduced_by_hand, trace_loop


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

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_axis_by_axis_loop_bytewise(self, n):
        # the one partial trace, which RESET runs share, is the np.trace loop
        # bit for bit in ascending order, signed zeros included: on a dense
        # matrix, one with 70% zeros of either sign, and one of zeros alone
        rng = task_rng(n)
        d = 2 ** n
        for share in (0.0, 0.7, 1.0):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            zeros = rng.random((d, d)) < share
            m.real[zeros] = np.copysign(0.0, rng.normal(size=zeros.sum()))
            m.imag[zeros] = np.copysign(0.0, rng.normal(size=zeros.sum()))
            for bits in range(1, 2 ** n):
                kept = [i for i in range(n) if bits >> i & 1]
                assert partial_trace_matrix(m, n, kept).tobytes() == trace_loop(m, n, kept).tobytes()

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

    @staticmethod
    def near_hermitian_d(d, seed):
        """A d x d matrix 1e-13 off Hermitian, with signed zeros at mirrored
        places in both parts and a real-only row and column."""
        rng = task_rng(seed)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m + m.conj().T + 1e-13 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for part in (m.real, m.imag):
            hit = rng.random(m.shape) < 0.1
            hit |= hit.T
            part[hit] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=hit.sum()))
        m.imag[d // 2] = m.imag[:, d // 2] = 0.0
        return m

    @pytest.fixture(params=["whole", "tiles"])
    def route(self, request, monkeypatch):
        """Send every size through one full adjoint or through tile pairs."""
        if request.param == "tiles":
            monkeypatch.setattr(registers_module, "HERMITIZE_WHOLE", 0)
        else:
            monkeypatch.setattr(registers_module, "HERMITIZE_WHOLE", 2 ** 12)
        return request.param

    @pytest.mark.parametrize("d", [1, 3, 16, 200, 1024])
    def test_result_equals_the_formula_bytewise(self, route, d):
        # 200 is no multiple of the tile, 1024 takes many tile pairs
        m = self.near_hermitian_d(d, d)
        for mat in (m, m.T):
            expect = np.ascontiguousarray((np.conjugate(mat.T) + mat) * 0.5).tobytes()
            before = mat.tobytes()
            assert _hermitize(mat).tobytes() == expect
            assert mat.tobytes() == before
            owned = np.array(mat, order="C")
            got = _hermitize(owned, owned=True)
            assert got is owned and got.tobytes() == expect

    @pytest.mark.parametrize("d", [3, 200, 1024])
    def test_checks_keep_their_messages_and_thresholds(self, route, d):
        # rows of |m| sum to 0.5, so the bound is HERMITIAN_TOL itself; each
        # spot lies in a different tile pair at d = 1024
        base = np.eye(d, dtype=complex) * 0.5
        for i, j in ((0, d - 1), (d - 1, 0), (d // 2, 0), (d - 1, d - 2)):
            for eps in (0.9e-10, 1.1e-10):
                m = base.copy()
                m[i, j] += eps
                if eps < 1e-10:
                    _hermitize(m)
                    continue
                with pytest.raises(ValueError, match=re.escape("not Hermitian (deviation 1.1e-10)")):
                    _hermitize(m)
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
                m = base.copy()
                m[i, j] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    _hermitize(m)
                with pytest.raises(ValueError, match="non-finite"):
                    _hermitize(m, owned=True)

    @pytest.mark.parametrize("d", [3, 200, 1024])
    def test_bound_scales_with_the_largest_row_sum(self, route, d):
        # the last row of |m| sums to about 2 d, almost all of it left of
        # the diagonal tile, so a row sum that missed a tile would set a
        # bound below the deviation
        m = np.eye(d, dtype=complex) * 0.5
        m[-1, :-1] = m[:-1, -1] = 2.0
        scale = np.abs(m).sum(axis=1).max()
        for factor, fails in ((0.9, False), (1.1, True)):
            bad = m.copy()
            bad[0, 1] += factor * HERMITIAN_TOL * scale
            if not fails:
                _hermitize(bad)
                continue
            with pytest.raises(ValueError, match="not Hermitian"):
                _hermitize(bad)

    @pytest.mark.parametrize("d", [3, 200, 1024])
    def test_deviation_sums_the_whole_row(self, route, d):
        # the last row deviates at every column left of the diagonal, most
        # of them in tiles below the diagonal
        m = np.eye(d, dtype=complex) * 0.5
        m[-1, :-1] += 1e-9
        dev = np.abs(m - m.conj().T).sum(axis=1).max()
        with pytest.raises(ValueError, match=re.escape(f"not Hermitian (deviation {dev:.3g})")):
            _hermitize(m)

    @pytest.mark.parametrize("n", [2, HERMITIZE_WHOLE.bit_length()])
    def test_caller_matrix_is_never_written(self, n):
        # one full adjoint and tile pairs; the matrix is a valid state and
        # effect, 1e-14 off Hermitian, so a write would show in its bytes
        rng = task_rng(40 + n)
        d = 2 ** n
        m = 0.5 * random_density_matrix(d, 2, rng) + 1e-14 * rng.normal(size=(d, d))
        before = m.tobytes()
        for build in (HermitianOperator, DensityOperator, PovmEffect, DensityOperator._derived):
            op = build(register(n), m)
            assert m.tobytes() == before
            assert not np.shares_memory(op.matrix, m)
        rho = DensityOperator(register(n), m)
        kept = rho.matrix.tobytes()
        out = apply_circuit(Circuit(n, ()), rho)
        assert rho.matrix.tobytes() == kept
        assert not np.shares_memory(out.matrix, rho.matrix)

    def test_owned_matrices_are_hermitized_in_place(self):
        # built at ten qubits, either state peaks at its own matrix and a
        # few tiles: no copy and no second matrix
        vec = haar_state_vector(2 ** 10, task_rng(11))
        nbytes = 16 * 4 ** 10
        for build in (lambda: state_from_vector(vec), lambda: maximally_mixed(10)):
            tracemalloc.start()
            try:
                rho = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rho.matrix.nbytes == nbytes
            assert peak <= 1.05 * nbytes, peak / nbytes
