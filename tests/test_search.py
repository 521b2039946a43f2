"""The cached effect-set engine against the depth-first oracle.

The oracle walks every circuit of at most r gates and pulls every simple
effect back gate by gate; the engine grows M_r level by level with
deduplication and scores a query with one matrix product.  Both must realize
the same sets, and every exact solver must agree with a scan of the oracle's
(circuit, mask) pairs.
"""

import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest

from cxtherm import cxentropy, experiments, search, thermo
from cxtherm.cxentropy import (
    ConditionalSpec,
    conditional_cx_entropy,
    cx_entropy,
    cx_relative_entropy,
    distinguishability_beta,
    hypothesis_test_witness,
    success_probability,
)
from cxtherm.errors import BudgetExceededError
from cxtherm.gates import (
    SWAP,
    GateSet,
    PlacedGate,
    Z,
    apply_local,
    channel_gate,
    default_gate_set,
    placed_alphabet,
    unitary_gate,
)
from cxtherm.registers import DensityOperator, HermitianOperator, ghz_state, partial_trace, register
from cxtherm.sampling import random_density_matrix, sample_haar_unitary, task_rng
from cxtherm.search import (
    QUERY_ROWS,
    ReachableSet,
    approx_state_complexity,
    circuit_complexity,
    circuit_count,
    effect_set,
    enumerate_effects,
    minimize_over_effects,
    pack,
    unpack,
)
from cxtherm.experiments import (
    decoupling_probe,
    decoupling_simulate,
    entanglement_bound_check,
    transition_scan,
)
from cxtherm.thermo import (
    ThermalModel,
    compression_search,
    erasure_search,
    g_lower_bound,
    gibbs_preserving_gate_set,
)

from oracles import (
    dense_pullback,
    dfs_enumerate_effects,
    embedded_kraus,
    first_occurrence_chain,
    simple_projector,
)

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
        out.add((key, e.provenance[1]) if with_mask else key)
    return out


@lru_cache(maxsize=None)
def oracle_pairs(gate_set, n, r):
    """Every (Q, mask) pair of M_r, one per (circuit, mask), undeduplicated."""
    return [(e.matrix, e.provenance[1]) for e in dfs_enumerate_effects(gate_set, r, n, dedup=False)]


def tr(a, b):
    return float(np.trace(a @ b).real)


def hermitian_stack(count, d, seed):
    rng = task_rng(seed)
    z = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    return z + np.swapaxes(z.conj(), -1, -2)


ROW_DIMS = [1, 2, 4, 8, 16, 32]


@pytest.mark.parametrize("d", ROW_DIMS)
def test_row_products_are_traces(d):
    a, b = hermitian_stack(6, d, d), hermitian_stack(5, d, 100 + d)
    want = np.einsum("aij,bji->ab", a, b).real
    bound = 1e-14 * np.outer(np.linalg.norm(a, axis=(1, 2)), np.linalg.norm(b, axis=(1, 2)))
    assert np.all(np.abs(pack(a) @ pack(b).T - want) <= bound)


@pytest.mark.parametrize("d", ROW_DIMS)
def test_rows_unpack_to_their_matrices(d):
    for scale in (1e-8, 1.0, 1e8):
        a = scale * hermitian_stack(4, d, 200 + d)
        back = unpack(pack(a), d)
        assert back.shape == a.shape and back.dtype == complex
        assert np.all(np.abs(back - a) <= 4 * np.spacing(np.abs(a)))


def test_a_real_diagonal_packs_to_its_entries():
    v = task_rng(3).normal(size=(3, 8))
    diag = np.zeros((3, 8, 8), dtype=complex)
    diag[:, np.arange(8), np.arange(8)] = v
    assert np.array_equal(pack(diag), np.stack([np.diag(x) for x in v]).reshape(3, 64))
    assert np.array_equal(unpack(pack(diag), 8), diag)


def test_empty_stacks_round_trip():
    for d in (1, 4):
        assert pack(np.zeros((0, d, d), dtype=complex)).shape == (0, d * d)
        assert unpack(np.zeros((0, d * d)), d).shape == (0, d, d)


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


ENERGIES = (0.3, 1.1, 0.7, 1.9)
CHAIN_FAMILIES = {
    "default": lambda n, connectivity: default_gate_set(connectivity),
    "gibbs": lambda n, connectivity: gibbs_preserving_gate_set(ThermalModel(ENERGIES[:n]), connectivity),
    # equal rows under different masks, which a channel set keeps apart
    "swap-dephase": lambda n, connectivity: GateSet("finite", SWAP_DEPHASE.gates, connectivity),
}


@pytest.mark.parametrize("connectivity", ["all-to-all", "chain"])
@pytest.mark.parametrize("family", list(CHAIN_FAMILIES))
@pytest.mark.parametrize("n, levels", [(2, 3), (3, 2), (4, 2)])
def test_growth_equals_first_occurrence_dedup(n, levels, family, connectivity):
    # a fresh chain, grown here: rows bitwise, and masks, parents and gates
    gate_set = CHAIN_FAMILIES[family](n, connectivity)
    cached = effect_set(gate_set, n)
    reach = ReachableSet(cached.alphabet, n, cached.rows[: cached.ends[0]], cached.step,
                         cached.keyed_by_mask)
    reach.upto(levels)
    rows, masks, parents, gates = first_occurrence_chain(reach, levels)
    assert np.array_equal(reach.rows, rows)
    assert np.array_equal(reach.masks, masks)
    assert np.array_equal(reach.parents, parents)
    assert np.array_equal(reach.gates, gates)


def test_provenance_reaches_each_effect():
    for gate_set, n in ((DEFAULT, 3), (GIBBS, 2)):
        for eff in enumerate_effects(gate_set, 2, n):
            circuit, bits = eff.provenance
            assert circuit.complexity <= 2
            q = simple_projector(circuit.n, bits)
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
    # qubit i is masked by bit n-1-i, and every unmasked qubit is RESET
    work = [sum(PRODUCT_MODEL.reset_work(i) for i in range(n) if not (bits >> (n - 1 - i)) & 1)
            for _, bits in pairs]
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


# a subnormalized state, tr = 0.5, so that eta = 0.9 passes every older
# "eta <= 1" rule and only the acceptance rule eta <= tr(rho) refuses it
HALF = DensityOperator(register(3), 0.5 * random_density_matrix(8, 3, task_rng(805)))
# each entry point as a call on (r, eta), with the argument names its r and
# eta rules report and the eta above tr(rho) that it must refuse; None marks
# an entry point that takes no eta
REFUSING = {
    "minimize_over_effects": (lambda r, eta: minimize_over_effects(
        DEFAULT, 3, r, [HALF.matrix], lambda traces, masks: traces[0]), "r", None, None),
    "enumerate_effects": (lambda r, eta: list(enumerate_effects(DEFAULT, r, 3)), "r", None, None),
    "distinguishability_beta": (lambda r, eta: distinguishability_beta(
        HALF, rand_state(3, 806), DEFAULT, r), "r", None, None),
    "success_probability": (lambda r, eta: success_probability(HALF, DEFAULT, r, 0.0), "r", None, None),
    "cx_entropy": (lambda r, eta: cx_entropy(HALF, DEFAULT, r, eta), "r", "eta", 0.9),
    "cx_relative_entropy": (lambda r, eta: cx_relative_entropy(
        HALF, HermitianOperator(register(3), 0.7 * np.eye(8)), DEFAULT, r, eta), "r", "eta", 0.9),
    "conditional_cx_entropy": (lambda r, eta: conditional_cx_entropy(
        HALF, ConditionalSpec(("q0",), ("q1",), r, eta), DEFAULT), "r", "eta", 0.9),
    "hypothesis_test_witness": (lambda r, eta: hypothesis_test_witness(
        HALF, rand_state(3, 806), DEFAULT, r, eta, 0.25), "r", "eta", 0.9),
    "erasure_search": (lambda r, eta: erasure_search(
        HALF, ThermalModel.degenerate(3), DEFAULT, r, eta), "r", "eta", 0.9),
    "compression_search": (lambda r, eta: compression_search(HALF, DEFAULT, r, 1.0 - eta), "r", "eps", 0.9),
    "g_lower_bound": (lambda r, eta: g_lower_bound(HALF, DEFAULT, r, eta, 1), "r", "eta", 0.9),
    "entanglement_bound_check": (lambda r, eta: entanglement_bound_check(
        HALF, default_gate_set("chain"), r, eta), "r", "eta", 0.9),
    "decoupling_simulate": (lambda r, eta: decoupling_simulate(
        HALF, 2, DEFAULT, r, 2, 1, eta, 0.25, 0), "r0", "eta", 0.9),
    "decoupling_probe": (lambda r, eta: decoupling_probe((1, 1, 1), DEFAULT, r, eta, 1, 0), "r", "eta", 1.5),
    **{f"transition_scan-{source}": (lambda r, eta, source=source: transition_scan(
        3, [2], r, eta, DEFAULT, 1, 0, source=source), "r", "eta", 1.5) for source in ("finite", "haar_su4")},
}


def refused_cases():
    for entry, (call, r_name, eta_name, over) in REFUSING.items():
        yield pytest.param(call, -1, 0.4, r_name, id=f"{entry}-r")
        if eta_name is not None:
            yield pytest.param(call, 1, math.nan, eta_name, id=f"{entry}-nan")
            yield pytest.param(call, 1, over, "1 - eps" if eta_name == "eps" else eta_name, id=f"{entry}-over")


@pytest.mark.parametrize("call, r, eta, name", refused_cases())
def test_bad_arguments_are_refused_before_any_work(call, r, eta, name, monkeypatch):
    # no effect set, alphabet, partial trace or circuit may be touched before
    # the argument's one rule refuses it
    def forbidden(*args, **kwargs):
        raise AssertionError("work began before the arguments were checked")

    for module, attr in [(search, "effect_set"), (search, "placed_alphabet"), (experiments, "placed_alphabet"),
                         (cxentropy, "partial_trace"), (experiments, "partial_trace"),
                         (experiments, "apply_circuit"), (experiments, "apply_local_vector"),
                         (thermo, "validate_gibbs_gate_set"), (thermo, "_with_ancillas")]:
        monkeypatch.setattr(module, attr, forbidden)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must"):
        call(r, eta)


@pytest.mark.parametrize("call, name", [
    (lambda: ThermalModel((0.5, math.nan)), "energies"),
    (lambda: g_lower_bound(HALF, DEFAULT, 1, 0.4, -1), "m_max"),
    (lambda: success_probability(HALF, DEFAULT, 1, math.inf), "m"),
    (lambda: success_probability(HALF, DEFAULT, 1, math.nan), "m"),
], ids=["nan-energy", "negative-m_max", "inf-m", "nan-m"])
def test_non_finite_or_negative_arguments_name_the_argument(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call()


@pytest.mark.parametrize("n, r", [(2, 2), (4, 3)])  # M_2 on 4 qubits is scored in several blocks
def test_ties_break_toward_the_first_candidate(n, r):
    # every candidate scores 0: the first (row 0, no gate) must win
    best = minimize_over_effects(DEFAULT, n, r, [np.eye(2 ** n)], lambda traces, masks: 0.0 * traces[0])
    assert best.circuit.ops == () and best.mask_bits == 0


def indexed_score(values):
    """A score_fn that scores each block by values(rows, gates), given the
    candidates' row indices in M_{r-1} and their first-gate columns."""
    seen = [0]

    def score(traces, masks):
        height, width = traces[0].shape
        rows = seen[0] + np.arange(height)[:, None]
        seen[0] += height
        return values(rows, np.arange(width)[None, :])

    return score


def tie_query(values):
    """minimize_over_effects at r = 3 on 4 qubits under indexed_score(values),
    and the masks of M_2, which spans three blocks."""
    rows, masks, _ = effect_set(DEFAULT, 4).upto(2)
    assert len(rows) > 2 * QUERY_ROWS
    return minimize_over_effects(DEFAULT, 4, 3, [np.eye(16)], indexed_score(values)), masks


def noise(rows, gates):
    return task_rng(811).random(np.broadcast_shapes(rows.shape, gates.shape))


def test_scores_within_a_tie_keep_the_first_candidate():
    # 1 + 1e-15 * noise ties everywhere, the first candidate scoring highest
    best, _ = tie_query(lambda rows, gates: np.where((rows == 0) & (gates == 0), 1 + 1e-15,
                                                     1 + 1e-15 * noise(rows, gates)))
    assert best.circuit.ops == () and best.mask_bits == 0 and best.value == 1 + 1e-15


@pytest.mark.parametrize("row, gate", [(3, 2), (580, 5)])
def test_a_later_candidate_lower_than_a_tie_wins(row, gate):
    best, masks = tie_query(lambda rows, gates: np.where((rows == row) & (gates == gate), 1 - 1e-9, 1.0))
    assert best.value == 1 - 1e-9
    assert best.circuit == effect_set(DEFAULT, 4).circuit(row, gate - 1)
    assert best.mask_bits == masks[row]


def test_infeasible_blocks_before_the_first_feasible_one():
    # no finite score in the first block, nor in the second's first rows
    first = QUERY_ROWS + 10
    best, masks = tie_query(lambda rows, gates: np.where(rows < first, math.inf,
                                                         1 + 1e-15 * noise(rows, gates)))
    assert math.isfinite(best.value)
    assert best.circuit == effect_set(DEFAULT, 4).circuit(first) and best.mask_bits == masks[first]


def test_no_feasible_candidate_scores_inf():
    # a query that no candidate meets is refused with an error naming r
    with pytest.raises(ValueError, match=r"^no effect in M_3 is feasible$"):
        tie_query(lambda rows, gates: np.full(np.broadcast_shapes(rows.shape, gates.shape), math.inf))


@pytest.mark.parametrize("gate_set", [DEFAULT, GIBBS, SWAP_DEPHASE], ids=["default", "gibbs", "channel"])
@pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
def test_eta_masks_exactly_the_candidates_below_the_floor(gate_set, eta):
    # the engine's constraint picks the same candidate, bit for bit, as a
    # score that sets inf itself below eta - SLACK; its error names r and eta
    rho = rand_state(2, 840)
    ops = [rho.matrix, rand_state(2, 841).matrix]

    def cost(traces, masks):
        return traces[1]

    def masked(traces, masks):
        return np.where(traces[0] >= eta - SLACK, traces[1], math.inf)

    for r in (0, 1, 2):
        want = minimize_over_effects(gate_set, 2, r, ops, masked)
        got = minimize_over_effects(gate_set, 2, r, ops, cost, eta=eta)
        assert (got.value, got.circuit, got.mask_bits) == (want.value, want.circuit, want.mask_bits)
    with pytest.raises(ValueError, match=r"^no effect in M_2 is feasible with tr\(Q rho\) >= 1\.5$"):
        minimize_over_effects(gate_set, 2, 2, ops, cost, eta=1.5)


def test_eta_is_keyword_only():
    with pytest.raises(TypeError):
        minimize_over_effects(DEFAULT, 2, 1, [np.eye(4)], lambda traces, masks: traces[0], 0.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("connectivity", ["all-to-all", "chain"])
def test_query_images_equal_per_letter_images(n, connectivity):
    # the first-gate images, taken one edge per kernel call, score every
    # candidate bit for bit as one apply_local per letter, in alphabet order
    rng = task_rng(830 + n)
    model = ThermalModel(tuple(rng.uniform(0.2, 2.0, n)))
    for gate_set in (default_gate_set(connectivity), gibbs_preserving_gate_set(model, connectivity)):
        rows = effect_set(gate_set, n).upto(0)[0]
        alphabet = placed_alphabet(gate_set, n)
        for batch in (1, 3):
            xs = rng.normal(size=(batch, 2 ** n, 2 ** n)) + 1j * rng.normal(size=(batch, 2 ** n, 2 ** n))
            xs = xs + np.swapaxes(xs, 1, 2).conj()
            seen = []
            minimize_over_effects(gate_set, n, 1, list(xs), lambda traces, masks: seen.append(traces) or traces[0])
            images = pack(np.stack([xs] + [apply_local(pg.gates[0], pg.edge, xs) for pg in alphabet], axis=1))
            want = [rows @ im for im in images.transpose(0, 2, 1)]
            assert len(seen) == 1 and len(seen[0]) == batch
            for got, expected in zip(seen[0], want):
                assert got.shape == (2 ** n, len(alphabet) + 1)
                assert np.array_equal(got, expected), (gate_set.connectivity, n, batch)


@pytest.mark.parametrize("n, edge_count", [(3, 3), (4, 6)])
def test_query_images_take_one_kernel_call_per_edge(monkeypatch, n, edge_count):
    calls = []
    original = PlacedGate.apply_matrix

    def spy(self, sigma):
        calls.append(len(self.gates))
        return original(self, sigma)

    monkeypatch.setattr(PlacedGate, "apply_matrix", spy)
    ops = [rand_state(n, 850).matrix, np.eye(2 ** n)]
    minimize_over_effects(DEFAULT, n, 2, ops, lambda traces, masks: traces[0] - traces[1])
    assert len(calls) == edge_count and sum(calls) == len(placed_alphabet(DEFAULT, n))


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
