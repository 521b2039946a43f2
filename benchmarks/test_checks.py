"""The benchmark's own tests: every check passes on real results and rejects
the same results perturbed (a value moved by 1e-6, a witness scaled out of
feasibility, a flag flipped).

Run from the root of a checkout: python3 -m pytest benchmarks/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import cxtherm  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

LOG2 = math.log(2.0)


def _moved(est, delta=1e-6):
    return dataclasses.replace(est, value=est.value + delta)


def _scaled_witness(est, factor):
    return dataclasses.replace(est, witness=SimpleNamespace(matrix=est.witness.matrix * factor))


# ---------------------------------------------------------------------------
# check functions on hand-made inputs


def test_embed_matches_kron_on_adjacent_and_reversed_pairs():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    eye = np.eye(2)
    assert np.allclose(checks.embed(np.kron(a, b), 3, 0, 1), np.kron(np.kron(a, b), eye))
    assert np.allclose(checks.embed(np.kron(a, b), 3, 2, 0), np.kron(np.kron(b, eye), a))


def test_statevector_matches_dense_embedding():
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(checks.statevector(psi, 3, [(u, (2, 0))]), checks.embed(u, 3, 2, 0) @ psi)


def test_witness_check_rejects_scaled_witness():
    rho = np.diag([0.9, 0.1]).astype(complex)
    q = np.diag([1.0, 0.0]).astype(complex)
    checks.check_witness(q, rho, 0.9)
    with pytest.raises(CheckError):
        checks.check_witness(q * (1.0 + 1e-6), rho, 0.9)  # Q > I
    with pytest.raises(CheckError):
        checks.check_witness(q * (1.0 - 1e-6), rho, 0.9)  # tr(Q rho) < eta
    with pytest.raises(CheckError):
        checks.check_witness(np.diag([1.0, -1e-6]).astype(complex), rho, 0.9)  # Q not >= 0


def test_property_checks_reject_moved_values():
    checks.check_not_increasing("H", [1.0, 0.5, 0.5])
    with pytest.raises(CheckError):
        checks.check_not_increasing("H", [1.0, 1.0 + 1e-6])
    checks.check_not_decreasing("beta", [0.1, 0.2])
    with pytest.raises(CheckError):
        checks.check_not_decreasing("beta", [0.2, 0.2 - 1e-6])
    h, eta = 2 * LOG2, 0.9
    checks.check_erasure_window(h, h, eta)
    with pytest.raises(CheckError):
        checks.check_erasure_window(h, h + 1e-6, eta)
    with pytest.raises(CheckError):
        checks.check_erasure_window(h, h - math.log(1 / eta) - 1e-6, eta)
    checks.check_compression(2, 2 * LOG2)
    with pytest.raises(CheckError):
        checks.check_compression(3, 2 * LOG2)
    with pytest.raises(CheckError):
        checks.check_compression(2, 2 * LOG2 + 1e-6)
    checks.check_conditional_one_qubit(-LOG2)
    with pytest.raises(CheckError):
        checks.check_conditional_one_qubit(LOG2 + 1e-6)


def test_distinguishability_check_rejects_beta_beyond_trace_distance():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    checks.check_distinguishability(0.5, rho, sigma, 1)
    with pytest.raises(CheckError):
        checks.check_distinguishability(0.5 + 1e-6, rho, sigma, 1)
    with pytest.raises(CheckError):
        checks.check_distinguishability(0.5 - 1e-6, rho, sigma, 1)  # below the r = 0 value


def test_reset_check_rejects_state_and_work():
    d = 8
    zero = np.zeros((d, d), dtype=complex)
    zero[0, 0] = 1.0
    checks.check_reset_to_zero(zero, 3 * LOG2, 3)
    moved = zero.copy()
    moved[1, 1] = 1e-9
    with pytest.raises(CheckError):
        checks.check_reset_to_zero(moved, 3 * LOG2, 3)
    with pytest.raises(CheckError):
        checks.check_reset_to_zero(zero, 3 * LOG2 + 1e-6, 3)


def test_brute_force_agrees_with_library_and_catches_a_moved_value():
    rng = np.random.default_rng(3)
    rho_m = workloads.random_density(rng, 2, 2)
    sigma_m = workloads.random_density(rng, 2, 4)
    gs = cxtherm.default_gate_set()
    rho = workloads.density(rho_m)
    brute = checks.brute_force(rho_m, sigma_m, [g.unitary for g in gs.gates], 2, 2, 0.9, [(0, 1)])
    h = cxtherm.cx_entropy(rho, gs, 2, 0.9).value
    checks.require_close("H", h, brute["H"])
    checks.require_close("H_red", cxtherm.cx_entropy(rho, gs, 2, 0.9, reduced=True).value, brute["H_red"])
    beta = cxtherm.distinguishability_beta(rho, workloads.density(sigma_m), gs, 2)
    checks.require_close("beta", beta, brute["beta"])
    with pytest.raises(CheckError):
        checks.require_close("H", h + 1e-6, brute["H"])


# ---------------------------------------------------------------------------
# the workloads' own checks on real results


def _run_and_check(op):
    result = op.run()
    op.check(result)
    return result


def _rejects(op, good, bad):
    with pytest.raises(CheckError):
        op.check(bad)
    op.check(good)  # restores what later checks read from the shared context


@pytest.fixture(scope="module")
def exact():
    return workloads.build("exact_sweep", 5, ROOT)


def test_exact_sweep_checks_reject_perturbed_results(exact):
    # the first state: n = 2, r = 0 and 1, all eight query kinds
    ops = exact.ops[:16]
    assert [op.key for op in ops[:6]] == ["default/2/0"] * 6
    for op in ops:
        good = _run_and_check(op)
        if op.name in ("cx_entropy", "cx_entropy_reduced", "cx_relative_entropy"):
            _rejects(op, good, _moved(good))
            _rejects(op, good, _scaled_witness(good, 1.0 + 1e-6))
            _rejects(op, good, _scaled_witness(good, 0.5))
        elif op.name == "conditional_cx_entropy":
            _rejects(op, good, _moved(good))
        elif op.name.startswith("erasure_search"):
            _rejects(op, good, dataclasses.replace(good, beta_work=good.beta_work + 1e-6))
            _rejects(op, good, dataclasses.replace(good, success_probability=good.success_probability - 1e-6))
        elif op.name == "compression_search":
            _rejects(op, good, dataclasses.replace(good, m=good.m + 1))
        elif op.name == "distinguishability_beta":
            _rejects(op, good, 2.0)


def test_exact_sweep_closed_forms_reject_moved_values(exact):
    assert exact.facts["brute_force_checked"], "the seeded brute-force subset is empty"
    closed = [op for op in exact.ops if op.name == "cx_entropy_closed_form"]
    assert len(closed) == 6
    for op in closed:
        good = _run_and_check(op)
        _rejects(op, good, _moved(good))


def test_dense_checks_reject_perturbed_results():
    wl = workloads.build("dense_dynamics", 5, ROOT)
    by_name = {}
    for op in wl.ops:
        by_name.setdefault(op.name, op)
    op = by_name["ising_quench"]
    good = _run_and_check(op)
    _rejects(op, good, dataclasses.replace(good, values=(good.values[0] + 1e-6,) + good.values[1:]))
    _rejects(op, good, dataclasses.replace(good, derivatives=(good.bound * 1.01,) + good.derivatives[1:]))
    op = by_name["transition_scan"]
    good = _run_and_check(op)
    certified = [i for i, row in enumerate(good) if row.gate_count <= 3]
    assert certified
    bad = list(good)
    bad[certified[0]] = dataclasses.replace(bad[certified[0]], zero_certified_fraction=0.5)
    _rejects(op, good, bad)
    bad = [dataclasses.replace(good[0], mean_entropy_lower=1e-6)] + list(good[1:])
    _rejects(op, good, bad)
    op = by_name["continuity_trial"]
    good = _run_and_check(op)
    _rejects(op, good, dataclasses.replace(good, refined_violations=1))
    for name in ("run_protocol", "run_protocol_reset"):
        op = by_name[name]
        final, ledger = _run_and_check(op)
        moved = final.matrix.copy()
        moved[-1, -1] += 1e-9
        _rejects(op, (final, ledger), (SimpleNamespace(matrix=moved), ledger))
        _rejects(op, (final, ledger), (final, dataclasses.replace(ledger, complexity=ledger.complexity + 1)))
    op = by_name["decoupling_simulate"]
    good = _run_and_check(op)
    _rejects(op, good, dataclasses.replace(good, success=not good.success))


def test_continuous_checks_reject_perturbed_results():
    wl = workloads.build("continuous_search", 5, ROOT)
    for op in wl.ops[:2]:  # n = 2, r = 0 (mask scan) and r = 1 (L-BFGS)
        good = _run_and_check(op)
        _rejects(op, good, _moved(good))
        _rejects(op, good, _scaled_witness(good, 0.5))


def test_cold_query_check_rejects_a_moved_output():
    wl = workloads.build("cold_query", 5, ROOT)
    try:
        op = next(o for o in wl.ops if o.name == "cli_cx-entropy" and o.key.endswith("/2"))
        proc, spans = op.run()
        out = Path(wl.tmpdir) / next(p.name for p in Path(wl.tmpdir).glob("*.json"))
        payload = json.loads(out.read_text())
        payload["rows"][0]["value"] += 1e-6
        out.write_text(json.dumps(payload))
        with pytest.raises(CheckError):
            op.check((proc, spans))
    finally:
        wl.close()


# ---------------------------------------------------------------------------
# tracer and metric list


def test_traced_counts_repeat_and_uninstall_restores(exact):
    original = cxtherm.search.minimize_over_effects
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            for i, op in enumerate(exact.ops[:16]):
                t.op_id = i
                op.run()
        finally:
            t.uninstall()
        red = tracer.reduce_spans(t)
        counts.append((red["calls"], dict(t.counters)))
    assert counts[0][0] == counts[1][0]
    assert counts[0][1]["search.circuit_count"] == counts[1][1]["search.circuit_count"]
    assert counts[0][0]["search.score_fn"] > 0 and counts[0][0]["gates.apply"] > 0
    assert cxtherm.search.minimize_over_effects is original
    assert cxtherm.cxentropy.minimize_over_effects is original


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
