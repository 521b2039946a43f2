import numpy as np
import pytest

from cxtherm.parallel import deterministic_map
from cxtherm.sampling import (
    haar_state_vector,
    haar_unitary,
    random_density_matrix,
    sample_density,
    sample_haar_unitary,
    sample_pure_state,
    task_rng,
)


def test_haar_unitary_is_unitary():
    for seed in range(10):
        u = sample_haar_unitary(8, seed)
        assert np.linalg.norm(u @ u.conj().T - np.eye(8), ord=2) < 1e-10


def test_pure_state_normalized():
    psi = sample_pure_state(2, 3)
    assert psi.trace() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(psi.matrix, tol=1e-10) == 1


def test_density_rank():
    for rank in (1, 2, 4):
        rho = sample_density(2, rank, 5)
        w = np.linalg.eigvalsh(rho.matrix)
        assert (w > 1e-12).sum() == rank


def test_invalid_dims():
    with pytest.raises(ValueError):
        haar_unitary(0, task_rng(0))
    with pytest.raises(ValueError):
        random_density_matrix(4, 5, task_rng(0))


def test_fixed_seed_bit_identical():
    a = sample_haar_unitary(4, 11, 3)
    b = sample_haar_unitary(4, 11, 3)
    assert np.array_equal(a, b)
    c = sample_haar_unitary(4, 11, 4)
    assert not np.array_equal(a, c)


def test_thread_count_does_not_change_samples():
    def draw(counter):
        return sample_haar_unitary(4, 99, counter)

    serial = deterministic_map(draw, list(range(16)), threads=1)
    threaded = deterministic_map(draw, list(range(16)), threads=8)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_cli_import_starts_no_thread_pool_machinery(run_python, tmp_path):
    # exact queries run serially; the pool's module is imported only when a
    # map runs on more than one thread
    code = ("import sys, cxtherm.cli\n"
            "print('concurrent.futures' in sys.modules)\n"
            "from cxtherm.parallel import deterministic_map\n"
            "deterministic_map(abs, [-1, -2], threads=1)\n"
            "print('concurrent.futures' in sys.modules)\n"
            "assert deterministic_map(abs, [-1, -2], threads=2) == [1, 2]\n"
            "print('concurrent.futures' in sys.modules)\n")
    res = run_python(code, tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False", "True"]


def test_haar_z_expectation_monte_carlo():
    # <psi|Z|psi> is uniform on [-1, 1] under the Haar measure: mean 0,
    # variance 1/3, so a 1e4-sample mean lies within 3 sigma of 0.
    n_samples = 10_000
    rng = task_rng(2024)
    total = 0.0
    for _ in range(n_samples):
        v = haar_state_vector(2, rng)
        total += abs(v[0]) ** 2 - abs(v[1]) ** 2
    mean = total / n_samples
    assert abs(mean) < 3.0 * np.sqrt(1.0 / 3.0 / n_samples)


def test_left_invariance_statistic():
    # |tr U|^2 has Haar mean 1; the same must hold for W U with fixed W.
    n_samples = 4000
    w = sample_haar_unitary(2, 7)
    rng = task_rng(31)
    plain, rotated = 0.0, 0.0
    for _ in range(n_samples):
        u = haar_unitary(2, rng)
        plain += abs(np.trace(u)) ** 2
        rotated += abs(np.trace(w @ u)) ** 2
    # variance of |tr U|^2 for d=2 is 1; allow 4 sigma on each mean
    sigma = 4.0 / np.sqrt(n_samples)
    assert abs(plain / n_samples - 1.0) < sigma
    assert abs(rotated / n_samples - 1.0) < sigma
