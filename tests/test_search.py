"""The cached effect-set engine against the depth-first oracle.

The oracle walks every circuit of at most r gates and pulls every simple
effect back gate by gate; the engine grows M_r level by level with
deduplication and scores a query with one matrix product.  Both must realize
the same sets, and every exact solver must agree with a scan of the oracle's
(circuit, mask) pairs.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest

from cxtherm.cxentropy import (
    ConditionalSpec,
    conditional_cx_entropy,
    cx_entropy,
    cx_relative_entropy,
    distinguishability_beta,
    success_probability,
)
from cxtherm.errors import BudgetExceededError
from cxtherm.gates import (
    SWAP,
    GateSet,
    Z,
    channel_gate,
    default_gate_set,
    placed_alphabet,
    unitary_gate,
)
from cxtherm.registers import DensityOperator, HermitianOperator, ghz_state, partial_trace, register
from cxtherm.sampling import random_density_matrix, sample_haar_unitary, task_rng
from cxtherm.search import (
    ReachableSet,
    approx_state_complexity,
    circuit_complexity,
    circuit_count,
    effect_set,
    enumerate_effects,
    minimize_over_effects,
)
from cxtherm.thermo import ThermalModel, compression_search, erasure_search, gibbs_preserving_gate_set

from oracles import dense_pullback, dfs_enumerate_effects, embedded_kraus

TOL = 1e-12
SLACK = 1e-12  # the solvers' feasibility slack on tr(Q rho) >= eta
PRODUCT_MODEL = ThermalModel((0.3, 1.1))
GIBBS = gibbs_preserving_gate_set(PRODUCT_MODEL)
DEFAULT = default_gate_set()
# SWAP maps the mask of one qubit onto the other's, so equal effects arise
# from different masks; the dephasing channel makes it a channel set
SWAP_DEPHASE = GateSet("finite", (
    unitary_gate("swap", SWAP),
    channel_gate("dephase_a", [np.eye(4) / math.sqrt(2.0), np.kron(Z, np.eye(2)) / math.sqrt(2.0)]),
))


def rand_state(n, seed, rank=None):
    rng = task_rng(seed)
    return DensityOperator(register(n), random_density_matrix(2 ** n, rank or 2 ** n, rng))


def keys(effects, with_mask):
    """Rounded matrices, paired with their masks for channel sets."""
    out = set()
    for e in effects:
        key = (np.round(e.matrix, 10) + 0.0).tobytes()
        out.add((key, e.provenance[1].mask) if with_mask else key)
    return out


@lru_cache(maxsize=None)
def oracle_pairs(gate_set, n, r):
    """Every (Q, mask) pair of M_r, one per (circuit, mask), undeduplicated."""
    return [(e.matrix, e.provenance[1]) for e in dfs_enumerate_effects(gate_set, r, n, dedup=False)]


def tr(a, b):
    return float(np.trace(a @ b).real)


@pytest.mark.parametrize(
    "gate_set, n, r_max",
    [(DEFAULT, 2, 3), (DEFAULT, 3, 2), (default_gate_set("chain"), 4, 2), (GIBBS, 2, 2),
     (SWAP_DEPHASE, 2, 2)],
    ids=["default-n2", "default-n3", "chain-n4", "gibbs-n2", "swap-dephase-n2"],
)
def test_effect_sets_equal_the_oracle(gate_set, n, r_max):
    # unitary sets hold each Q once; channel sets once per (Q, mask)
    with_mask = not gate_set.is_unitary_only
    for r in range(r_max + 1):
        engine = list(enumerate_effects(gate_set, r, n))
        oracle = keys(dfs_enumerate_effects(gate_set, r, n, dedup=False), with_mask)
        assert keys(engine, with_mask) == oracle, (n, r)
        assert len(engine) == len(oracle), (n, r)


def test_provenance_reaches_each_effect():
    for gate_set, n in ((DEFAULT, 3), (GIBBS, 2)):
        for eff in enumerate_effects(gate_set, 2, n):
            circuit, simple = eff.provenance
            assert circuit.complexity <= 2
            q = simple.matrix()
            for gate, edge in reversed(circuit.ops):
                q = dense_pullback(embedded_kraus(gate, edge, circuit.n), q)
            assert np.allclose(q, eff.matrix, atol=1e-12)


@pytest.mark.parametrize("n, r", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_entropies_equal_the_oracle_scan(n, r):
    for seed in range(3):
        rho = rand_state(n, 500 + 10 * n + seed, rank=1 + seed)
        eta = (0.7, 0.9, 0.999)[seed]
        pairs = oracle_pairs(DEFAULT, n, r)
        feasible = [(q, tr(q, rho.matrix)) for q, _ in pairs if tr(q, rho.matrix) >= eta - SLACK]
        normalized = math.log(min(np.trace(q).real / acc for q, acc in feasible))
        reduced = math.log(min(np.trace(q).real for q, _ in feasible))
        est = cx_entropy(rho, DEFAULT, r, eta)
        assert est.value == pytest.approx(normalized, abs=TOL)
        assert cx_entropy(rho, DEFAULT, r, eta, reduced=True).value == pytest.approx(reduced, abs=TOL)
        assert est.solver["candidates"] == est.solver["effects"] * (1 + (r > 0) * len(effect_set(DEFAULT, n).alphabet))


@pytest.mark.parametrize("r", [0, 1, 2])
def test_other_exact_solvers_equal_the_oracle_scan(r):
    n = 2
    pairs = oracle_pairs(DEFAULT, n, r)
    rho, sigma = rand_state(n, 610 + r), rand_state(n, 620 + r, rank=2)

    beta = max(abs(tr(q, rho.matrix - sigma.matrix)) for q, _ in pairs)
    assert distinguishability_beta(rho, sigma, DEFAULT, r) == pytest.approx(beta, abs=TOL)

    for w in range(n + 1):
        best = max(tr(q, rho.matrix) for q, _ in pairs if round(np.trace(q).real) == 2 ** w)
        assert success_probability(rho, DEFAULT, r, w * math.log(2.0)) == pytest.approx(best, abs=TOL)

    eps = 0.2
    m = min(math.log2(np.trace(q).real) for q, _ in pairs if tr(q, rho.matrix) >= 1 - eps - SLACK)
    assert compression_search(rho, DEFAULT, r, eps).m == round(m)

    spec = ConditionalSpec(("q0",), ("q1",), r, 0.9)
    gamma = np.kron(np.eye(2), partial_trace(rho, ["q1"]).matrix)
    cond = min(tr(q, gamma) / tr(q, rho.matrix) for q, _ in pairs if tr(q, rho.matrix) >= 0.9 - SLACK)
    assert conditional_cx_entropy(rho, spec, DEFAULT).value == pytest.approx(math.log(cond), abs=TOL)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_channel_set_solvers_equal_the_oracle_scan(r):
    # under a product Hamiltonian the RESET work differs between masks
    n = 2
    pairs = oracle_pairs(GIBBS, n, r)
    work = [sum(PRODUCT_MODEL.reset_work(i) for i in range(n) if not simple.mask[i]) for _, simple in pairs]
    gamma = PRODUCT_MODEL.gamma_full()
    for seed in range(3):
        rho = rand_state(n, 700 + 10 * r + seed, rank=1 + seed)
        eta = (0.6, 0.8, 0.95)[seed]
        ok = [tr(q, rho.matrix) >= eta - SLACK for q, _ in pairs]
        best_work = min(w for w, f in zip(work, ok) if f)
        res = erasure_search(rho, PRODUCT_MODEL, GIBBS, r, eta)
        assert res.beta_work == pytest.approx(best_work, abs=TOL)
        assert res.success_probability >= eta - 1e-10

        best_gamma = min(tr(q, gamma) for (q, _), f in zip(pairs, ok) if f)
        est = cx_relative_entropy(rho, HermitianOperator(rho.register, gamma), GIBBS, r, eta, reduced=True)
        assert est.value == pytest.approx(-math.log(best_gamma), abs=TOL)


def test_equal_content_shares_one_entry_and_names_do_not():
    a, b = default_gate_set(), default_gate_set()
    assert effect_set(a, 2) is effect_set(b, 2)
    renamed = GateSet("finite", (unitary_gate("cnot_renamed", a.gates[0].unitary),) + a.gates[1:])
    assert effect_set(renamed, 2) is not effect_set(a, 2)
    rho = rand_state(2, 801)
    cx_entropy(rho, a, 2, 0.9)
    assert cx_entropy(rho, b, 2, 0.9).solver["cache_hit"]


# content no other test uses, so no level of it is built before these queries
BUDGET_SET = GateSet("finite", DEFAULT.gates[:9], "chain")
BUDGET_QUERIES = {
    "cx_entropy": lambda gs, rho: cx_entropy(rho, gs, 3, 0.9),
    "cx_relative_entropy": lambda gs, rho: cx_relative_entropy(
        rho, HermitianOperator(rho.register, np.eye(8)), gs, 3, 0.9),
    "conditional_cx_entropy": lambda gs, rho: conditional_cx_entropy(
        rho, ConditionalSpec(("q0",), ("q1", "q2"), 3, 0.9), gs),
    "success_probability": lambda gs, rho: success_probability(rho, gs, 3, math.log(2.0)),
    "distinguishability_beta": lambda gs, rho: distinguishability_beta(rho, rand_state(3, 804), gs, 3),
    "erasure_search": lambda gs, rho: erasure_search(rho, ThermalModel.degenerate(3), gs, 3, 0.9),
    "compression_search": lambda gs, rho: compression_search(rho, gs, 3, 0.1),
    "enumerate_effects": lambda gs, rho: list(enumerate_effects(gs, 3, 3)),
    "circuit_complexity": lambda gs, rho: circuit_complexity(gs, sample_haar_unitary(8, 5), 3),
    "approx_state_complexity": lambda gs, rho: approx_state_complexity(ghz_state(3), gs, 0.0, 3),
}


@pytest.mark.parametrize("entry", list(BUDGET_QUERIES))
def test_budget_is_checked_before_any_level_is_built(entry, monkeypatch):
    # CXTHERM_BUDGET admits the circuits of at most one gate
    monkeypatch.setenv("CXTHERM_BUDGET", str(circuit_count(len(placed_alphabet(BUDGET_SET, 3)), 1)))
    built = []
    grow = ReachableSet._grow

    def recording_grow(reach):
        built.append(len(reach.ends))
        grow(reach)

    monkeypatch.setattr(ReachableSet, "_grow", recording_grow)
    with pytest.raises(BudgetExceededError):
        BUDGET_QUERIES[entry](BUDGET_SET, rand_state(3, 802))
    assert all(level <= 1 for level in built)


@pytest.mark.parametrize("query", [
    lambda rho: success_probability(rho, DEFAULT, -1, 0.0),
    lambda rho: distinguishability_beta(rho, rand_state(2, 803), DEFAULT, -1),
    lambda rho: erasure_search(rho, ThermalModel.degenerate(2), DEFAULT, -1, 0.9),
])
def test_negative_r_is_rejected(query):
    with pytest.raises(ValueError, match="r must be at least 0, got -1"):
        query(rand_state(2, 804))


@pytest.mark.parametrize("n, r", [(2, 2), (4, 3)])  # M_2 on 4 qubits is scored in several blocks
def test_ties_break_toward_the_first_candidate(n, r):
    # every candidate scores 0: the first (row 0, no gate) must win
    best = minimize_over_effects(DEFAULT, n, r, [np.eye(2 ** n)], lambda traces, masks: 0.0 * traces[0])
    assert best.circuit.ops == () and best.mask_bits == 0


def test_concurrent_queries_share_one_build():
    gate_set = GateSet("finite", DEFAULT.gates[:6])  # content no other test uses
    rho = rand_state(3, 803)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(cx_entropy, rho, gate_set, 3, 0.9) for _ in range(8)]
            values = {f.result(timeout=120).value for f in futures}
    finally:
        sys.setswitchinterval(old)
    assert len(values) == 1
    shared = effect_set(gate_set, 3)
    sequential = ReachableSet(placed_alphabet(gate_set, 3), 3, shared.rows[: shared.ends[0]], shared.step)
    sequential.upto(2)
    assert shared.ends == sequential.ends
