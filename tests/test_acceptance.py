"""Acceptance criteria, one test per numbered item.

Each test prints a single `[criterion NN] PASS/FAIL ...` line (shown in the
pytest summary via -rA).  Tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import pytest

from cxtherm.cxentropy import (
    ConditionalSpec,
    conditional_cx_entropy,
    cx_entropy,
    cx_relative_entropy,
    distinguishability_beta,
)
from cxtherm.entropies import hyp_relative_entropy
from cxtherm.experiments import (
    _transition_sample,
    continuity_trial,
    decoupling_probe,
    entanglement_bound_check,
    ising_quench,
    transition_scan,
)
from cxtherm.gates import default_gate_set, entangling_power, placed_alphabet
from cxtherm.registers import (
    DensityOperator,
    HermitianOperator,
    QubitRegister,
    ghz_state,
    maximally_mixed,
    ones_state,
    partial_trace,
    register,
    tensor,
    zero_state,
)
from cxtherm.sampling import (
    random_density_matrix,
    sample_haar_unitary,
    task_rng,
)
from cxtherm.thermo import ThermalModel, compression_search, erasure_search, gibbs_preserving_gate_set

from oracles import embedded_kraus

LOG2 = math.log(2.0)
GS = default_gate_set()
GS_CHAIN = default_gate_set("chain")


def report(number: int, ok: bool, text: str):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {number} failed: {text}"


def rand_state(n, seed, rank=None):
    rng = task_rng(seed)
    rank = rank or int(rng.integers(1, 2 ** n + 1))
    return DensityOperator(register(n), random_density_matrix(2 ** n, rank, rng))


def test_criterion_01_worked_example_table():
    eta = 0.999
    checks = []
    for n, r in [(2, 0), (3, 1), (3, 3)]:
        checks.append((cx_entropy(zero_state(n), GS, r, eta).in_bits(), 0.0))
    checks.append((cx_entropy(ones_state(4), GS, 1, eta).in_bits(), 2.0))
    checks.append((cx_entropy(ones_state(4), GS, 2, eta).in_bits(), 0.0))
    for r in (0, 1, 2):
        checks.append((cx_entropy(maximally_mixed(3), GS, r, eta).in_bits(), 3.0))
    for r in (0, 1, 2, 3):
        checks.append((cx_entropy(ghz_state(4), GS, r, eta).in_bits(), 4.0 - r))
    checks.append((cx_entropy(ghz_state(4), GS, 4, eta).in_bits(), 0.0))
    worst = max(abs(got - want) for got, want in checks)
    report(1, worst <= 1e-9, f"worked-example table, max deviation {worst:.2e} bits")


def test_criterion_02_erasure_theorem_equality():
    model = ThermalModel.degenerate(3)
    worst_eq, sandwich_ok = 0.0, True
    for idx in range(50):
        rho = rand_state(3, 1000 + idx)
        for eta in (0.7, 0.9, 0.999):
            for r in (0, 1, 2):
                res = erasure_search(rho, model, GS, r, eta)
                reduced = cx_entropy(rho, GS, r, eta, reduced=True).value
                worst_eq = max(worst_eq, abs(res.beta_work - reduced))
                h = cx_entropy(rho, GS, r, eta).value
                if not (h - math.log(1 / eta) - 1e-9 <= res.beta_work <= h + 1e-9):
                    sandwich_ok = False
    ok = worst_eq <= 1e-9 and sandwich_ok
    report(2, ok, f"erasure equality on 50 states x 3 eta x 3 r, max |dW| {worst_eq:.2e}")


def test_criterion_03_product_hamiltonian_theorem():
    model = ThermalModel((0.5, 1.0))
    gs = gibbs_preserving_gate_set(model)
    gamma = HermitianOperator(register(2), model.gamma_full())
    eta = 0.9
    worst = 0.0
    for idx in range(25):
        rho = rand_state(2, 2000 + idx)
        for r in (0, 1, 2):
            res = erasure_search(rho, model, gs, r, eta)
            dh = cx_relative_entropy(rho, gamma, gs, r, eta, reduced=True).value
            worst = max(worst, abs(res.beta_work - (-dh)))
    report(3, worst <= 1e-9, f"beta*W = -D_h for betaE=(0.5,1.0), max deviation {worst:.2e}")


def test_criterion_04_hypothesis_testing_solver():
    rng = task_rng(4)
    worst_gap, mono_ok, worst_self = 0.0, True, 0.0
    for idx in range(200):
        d = int(rng.choice([2, 4, 8]))
        n = int(round(math.log2(d)))
        rho = rand_state(n, 3000 + idx)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gamma = HermitianOperator(register(n), g @ g.conj().T / d)
        eta = float(rng.uniform(0.05, 1.0))
        res = hyp_relative_entropy(rho, gamma, eta)
        if math.isfinite(res.value):
            worst_gap = max(worst_gap, abs(res.primal_value - res.dual_value))
        if idx % 10 == 0:
            vals = [hyp_relative_entropy(rho, gamma, e).value for e in (0.3, 0.6, 0.9)]
            if not (vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9):
                mono_ok = False
        self_res = hyp_relative_entropy(rho, HermitianOperator(rho.register, rho.matrix), eta)
        worst_self = max(worst_self, abs(self_res.value))
    ok = worst_gap <= 1e-8 and mono_ok and worst_self <= 1e-10
    report(4, ok, f"200 instances: max duality gap {worst_gap:.2e}, "
                  f"max |D(rho||rho)| {worst_self:.2e}")


def _prop_monotonicity(idx):
    rho = rand_state(2, 10_000 + idx)
    in_r = [cx_entropy(rho, GS, r, 0.8).value for r in (0, 1, 2)]
    in_eta = [cx_entropy(rho, GS, 1, e).value for e in (0.3, 0.6, 0.95)]
    return (in_r[0] >= in_r[1] - 1e-8 >= in_r[2] - 2e-8
            and in_eta[0] <= in_eta[1] + 1e-8 <= in_eta[2] + 2e-8)


def _prop_subadditivity(idx):
    a = rand_state(2, 11_000 + idx)
    b = DensityOperator(QubitRegister(("r0", "r1")),
                        random_density_matrix(4, 4, task_rng(11_500 + idx)))
    joint = tensor(a, b)
    h_joint = cx_entropy(joint, GS, 2, 0.7 * 0.8).value
    h_a = cx_entropy(a, GS, 1, 0.7).value
    h_b = cx_entropy(DensityOperator(register(2), b.matrix), GS, 1, 0.8).value
    return h_joint <= h_a + h_b + 1e-8


def _prop_partial_trace(idx):
    rho = rand_state(3, 12_000 + idx)
    h_full = cx_entropy(rho, GS, 1, 0.8).value
    h_red = cx_entropy(partial_trace(rho, ["q0", "q1"]), GS, 1, 0.8).value
    return h_full <= h_red + LOG2 + 1e-8


_SELF_INVERSE = [u for u in (embedded_kraus(pg.gates[0], pg.edge, 2)[0] for pg in placed_alphabet(GS, 2))
                 if np.allclose(u @ u, np.eye(4), atol=1e-12)]


def _prop_prerotation(idx):
    rng = task_rng(13_000 + idx)
    u = _SELF_INVERSE[int(rng.integers(len(_SELF_INVERSE)))]
    rho = rand_state(2, 13_500 + idx)
    rotated = DensityOperator(rho.register, u @ rho.matrix @ u.conj().T)
    return (cx_entropy(rotated, GS, 2, 0.8).value
            <= cx_entropy(rho, GS, 1, 0.8).value + 1e-8)


def _prop_reduced_gap(idx):
    rng = task_rng(14_000 + idx)
    rho = rand_state(2, 14_500 + idx)
    gamma = HermitianOperator(register(2), random_density_matrix(4, 4, rng) * 1.5)
    eta = float(rng.uniform(0.3, 0.99))
    norm = cx_relative_entropy(rho, gamma, GS, 1, eta).value
    red = cx_relative_entropy(rho, gamma, GS, 1, eta, reduced=True).value
    return -1e-8 <= red - norm <= math.log(1 / eta) + 1e-8


def _prop_conditional(idx):
    rho2 = rand_state(2, 15_000 + idx)
    est = conditional_cx_entropy(rho2, ConditionalSpec(("q0",), ("q1",), 1, 0.8), GS)
    if not (-LOG2 - 1e-8 <= est.value <= LOG2 + 1e-8):
        return False
    rho3 = rand_state(3, 15_500 + idx)
    h_abc = conditional_cx_entropy(
        rho3, ConditionalSpec(("q0",), ("q1", "q2"), 1, 0.8), GS).value
    h_ab = conditional_cx_entropy(
        rho3, ConditionalSpec(("q0",), ("q1",), 1, 0.8), GS).value
    return h_abc <= h_ab + 1e-8


def _prop_beta_bound(idx):
    a = rand_state(2, 16_000 + idx)
    b = rand_state(2, 16_500 + idx)
    eta = 0.9
    beta = distinguishability_beta(a, b, GS, 1)
    if beta >= eta:
        return True
    d = cx_relative_entropy(a, HermitianOperator(b.register, b.matrix), GS, 1, eta).value
    return d <= -math.log(1 - beta / eta) + 1e-8


def _prop_r0_product_referee(idx):
    rho = rand_state(3, 17_000 + idx)
    parts = [random_density_matrix(2, 2, task_rng(17_500 + 10 * idx + j)) for j in range(3)]
    gamma_full = parts[0]
    for p in parts[1:]:
        gamma_full = np.kron(gamma_full, p)
    eta = 0.8
    lhs = cx_relative_entropy(rho, HermitianOperator(register(3), gamma_full), GS, 0, eta).value
    rhs = sum(
        hyp_relative_entropy(partial_trace(rho, [f"q{j}"]),
                             HermitianOperator(QubitRegister((f"q{j}",)), parts[j]),
                             eta).value
        for j in range(3)
    )
    return lhs <= rhs + 1e-8


def _prop_pinching(idx):
    rng = task_rng(18_000 + idx)
    mat = random_density_matrix(8, int(rng.integers(1, 9)), rng) * float(rng.uniform(0.3, 1.0))
    rho = DensityOperator(register(3), mat)
    rho_y = partial_trace(rho, ["q1", "q2"])
    gap = np.kron(np.eye(2), rho_y.matrix) - rho.matrix / 2.0
    return np.linalg.eigvalsh(gap).min() >= -1e-9


def test_criterion_05_property_suite():
    properties = [
        ("monotonicity", _prop_monotonicity),
        ("subadditivity", _prop_subadditivity),
        ("partial-trace", _prop_partial_trace),
        ("pre-rotation", _prop_prerotation),
        ("reduced-gap", _prop_reduced_gap),
        ("conditional", _prop_conditional),
        ("beta-bound", _prop_beta_bound),
        ("r0-product", _prop_r0_product_referee),
        ("pinching", _prop_pinching),
    ]
    violations = {}
    for name, fn in properties:
        bad = sum(1 for idx in range(200) if not fn(idx))
        violations[name] = bad
    total = sum(violations.values())
    report(5, total == 0,
           f"property suite, 9 x 200 instances, violations {violations}")


def test_criterion_06_random_circuit_transition():
    shallow = transition_scan(3, [1, 2], 2, 1.0, GS, 15, 606)
    shallow_ok = all(row.zero_certified_fraction == 1.0 for row in shallow)
    vals = [_transition_sample(3, 100, 2, 1.0, GS, "finite", 606, s)[1]
            for s in range(20)]
    high = sum(1 for v in vals if v >= 2 * LOG2 - 1e-9)
    deep_ok = high >= 18  # >= 90% of 20
    report(6, shallow_ok and deep_ok,
           f"transition: shallow certified 100%, deep H >= 2 log 2 in {high}/20")


def test_criterion_07_entanglement_continuity():
    rep = continuity_trial(4, 1000, 707)
    ok = rep.coarse_violations == 0 and rep.refined_violations == 0
    report(7, ok, f"1000 trials, coarse={rep.coarse_violations} "
                  f"refined={rep.refined_violations}, max |dE| {rep.max_abs_delta:.4f}")


def test_criterion_08_entanglement_lower_bound():
    worst = math.inf
    for idx in range(100):
        rho = rand_state(3, 8000 + idx)
        for r in (0, 1):
            for eta in (0.9, 0.99):
                res = entanglement_bound_check(rho, GS_CHAIN, r, eta)
                worst = min(worst, res.slack)
    report(8, worst >= -1e-9, f"100 states x r x eta, min slack {worst:.3e}")


def test_criterion_09_ising_quench():
    times = list(np.linspace(0.0, 3.0, 31))
    trace = ising_quench(6, 1.0, 1.0, times)
    worst = max(trace.derivatives)
    ok = all(d <= trace.bound + 1e-6 for d in trace.derivatives)
    report(9, ok, f"n=6 quench, max dE/dt {worst:.3f} vs bound {trace.bound:.1f}")


def test_criterion_10_data_compression():
    mismatches = 0
    for idx in range(50):
        rng = task_rng(9000 + idx)
        rho = rand_state(3, 9100 + idx)
        r = int(rng.integers(0, 3))
        eps = float(rng.uniform(0.0, 0.7))
        res = compression_search(rho, GS, r, eps)
        reduced_bits = cx_entropy(rho, GS, r, 1.0 - eps, reduced=True).value / LOG2
        if res.m != round(reduced_bits):
            mismatches += 1
    report(10, mismatches == 0, f"50 instances, m_opt vs H_h/log2 mismatches {mismatches}")


def test_criterion_11_conjecture_probe():
    res = decoupling_probe((1, 1, 1), GS, 1, 0.9, 500, 1111)
    # exit-0 path when no violation; a serialized violation is also a pass
    ok = res.min_slack >= -1e-8 or res.violation is not None
    report(11, ok, f"500 probes, min slack {res.min_slack:.4e}, "
                   f"violation={'yes' if res.violation else 'no'}")


def test_criterion_12_diamond_distance():
    e_i, d_i = entangling_power(np.eye(4))
    z_i = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
    e_z, d_z = entangling_power(z_i)
    exact_ok = abs(d_i) <= 1e-12 and abs(d_z - 1.0) <= 1e-9
    bound_ok = True
    for idx in range(100):
        u = sample_haar_unitary(4, 12_000 + idx)
        _, dist = entangling_power(u)
        if dist > np.linalg.norm(u - np.eye(4), ord=2) + 1e-9:
            bound_ok = False
    report(12, exact_ok and bound_ok,
           "diamond distance: Z (x) I -> 1, I -> 0, 100 random bounds hold")


def test_criterion_13_determinism_across_threads(tmp_path, run_cli):
    def run(args):
        res = run_cli(args, tmp_path)
        assert res.returncode == 0, res.stderr
        return res.stdout

    blobs = {}
    for threads in (1, 2, 8):
        t = str(threads)
        selftest = run(["selftest", "--threads", t])
        parts = [selftest]
        for name, args in (
            ("transition", ["--n", "3", "--r", "1", "--eta", "0.9",
                            "--depths", "0,1,2", "--samples", "4"]),
            ("entangle", ["--n", "4", "--samples", "6"]),
            ("probe-conjecture", ["--r", "1", "--eta", "0.9", "--samples", "6"]),
        ):
            out = tmp_path / f"accept13-{name}-{threads}.csv"
            run([name, *args, "--seed", "13", "--threads", t, "--output", str(out)])
            parts.append(out.read_bytes())
        blobs[threads] = tuple(parts)
    ok = blobs[1] == blobs[2] == blobs[8]
    report(13, ok, "selftest, transition, entangle, probe outputs "
                   "byte-identical for 1/2/8 threads")
