"""The benchmark's four workloads.

Each workload is built once from the seed: its inputs, gate sets, thermal
models and placed alphabets (the set-up), and a round of operations.  An
operation is one public cxtherm call, or for ``cold_query`` one
``python -m cxtherm`` process, paired with a check that compares the result
with ``checks`` (independent computations and properties).  A run repeats
whole rounds, so every run attempts the same operations in the same
proportions whatever its length.

Operations look cxtherm functions up on their modules at call time, so that
a traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import cxtherm
from cxtherm import experiments, gates, thermo

import checks
from checks import LOG2, require, require_close

ETAS = (0.7, 0.9, 0.999)
HEURISTIC_RESTARTS = 4
CONTINUOUS_STATES = ((2, 1), (2, 2), (2, 4), (3, 1), (3, 4), (3, 8))  # (n, rank)
COLD_THREADS = 2  # the machine's core count


@dataclass
class Op:
    name: str
    key: str | None  # "<gate set>/n/r" of the effect set M_r an exact query sweeps
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # input make-up, for the result file
    tracer: object = None  # set during a traced run of a process workload
    tmpdir: str | None = None

    def close(self) -> None:
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None


NAMES = ("exact_sweep", "cold_query", "dense_dynamics", "continuous_search")


def build(name: str, seed: int, root: Path) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    return globals()["build_" + name](seed, root)


# ---------------------------------------------------------------------------
# inputs


def random_density(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    d = 2 ** n
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def density(matrix: np.ndarray) -> cxtherm.DensityOperator:
    n = int(round(math.log2(matrix.shape[0])))
    return cxtherm.DensityOperator(cxtherm.register(n), matrix)


def gate_steps(protocol) -> tuple[list, list]:
    """(Kraus operators, edge) of each gate step; the RESETs listed apart."""
    steps, resets = [], []
    for s in protocol.steps:
        if isinstance(s, thermo.GateStep):
            kraus = (s.gate.unitary,) if s.gate.is_unitary else s.gate.kraus
            steps.append((kraus, s.edge))
        elif isinstance(s, thermo.Reset):
            resets.append(s.qubit)
        else:
            raise checks.CheckError(f"unexpected protocol step {s!r}")
    return steps, resets


# ---------------------------------------------------------------------------
# exact_sweep


def build_exact_sweep(seed: int, root: Path) -> Workload:
    """Exact queries at threads=1 on a few (gate set, n, r) keys.

    n = 2: ranks 1-4, r 0-3, all eight query kinds; n = 3: ranks 1-8, r 0-2
    (the Kraus-channel queries at r <= 1) and one state at r = 3; n = 4: two
    states at r <= 2; plus the closed forms of GHZ, zero and maximally mixed
    states.  eta cycles through 0.7, 0.9, 0.999 over the states.
    """
    rng = np.random.default_rng([seed, 1])
    wl = Workload("exact_sweep")
    gs = cxtherm.default_gate_set()
    models = {n: thermo.ThermalModel(tuple(float(e) for e in rng.uniform(0.2, 2.0, n))) for n in (2, 3)}
    flat = {n: thermo.ThermalModel.degenerate(n) for n in (2, 3)}
    gibbs = {n: thermo.gibbs_preserving_gate_set(models[n]) for n in (2, 3)}
    for g, n in ((gs, 2), (gs, 3), (gs, 4), (gibbs[2], 2), (gibbs[3], 3)):
        gates.placed_alphabet(g, n)
    gates4 = [g.unitary for g in gs.gates]
    sigma = {n: random_density(rng, n, 2 ** n) for n in (2, 3)}

    # (n, rank, r values, r values of the Kraus-channel queries)
    plan = [(2, rank, range(4), range(4)) for rank in range(1, 5)]
    plan += [(3, rank, range(3), range(2)) for rank in range(1, 9)]
    # every (state, r) pair the brute force can afford: it runs once per run,
    # outside the timed calls
    brute_pick = {(i, r) for i, (n, _, rs, _) in enumerate(plan) for r in rs if n == 2 or r <= 1}
    brute_cache: dict = {}

    def brute(i, n, r, rho_m, eta):
        if (i, r) not in brute_cache:
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
            brute_cache[(i, r)] = checks.brute_force(rho_m, sigma[n], gates4, n, r, eta, edges)
        return brute_cache[(i, r)]

    for i, (n, rank, rs, channel_rs) in enumerate(plan):
        eta = ETAS[i % 3]
        rho_m = random_density(rng, n, rank)
        rho = density(rho_m)
        sig = density(sigma[n])
        gamma_m = models[n].gamma_full()
        gamma = cxtherm.HermitianOperator(rho.register, gamma_m)
        cond_gamma = np.kron(np.eye(2), checks.reduced_state(rho_m, n, list(range(1, n))))
        ctx = {"H": {}, "H_red": {}, "D_gibbs": {}, "beta": {}}
        for r in rs:
            key = f"default/{n}/{r}"
            wl.ops += _entropy_ops(i, n, r, eta, rho, rho_m, gs, key, ctx,
                                   brute if (i, r) in brute_pick else None)
            wl.ops += _erasure_ops(n, r, eta, rho, rho_m, gs, flat[n], key, ctx)
            wl.ops += _other_exact_ops(i, n, r, eta, rho, rho_m, sig, gs, key, ctx, cond_gamma,
                                       brute if (i, r) in brute_pick else None)
            if r in channel_rs:
                wl.ops += _gibbs_ops(n, r, eta, rho, rho_m, gamma, gamma_m, gibbs[n], models[n],
                                     f"gibbs/{n}/{r}", ctx)

    # the largest key: one n = 3 state at r = 3
    rho_m = random_density(rng, 3, 4)
    rho = density(rho_m)
    ctx = {"H": {}, "H_red": {}}
    for r in (2, 3):
        wl.ops += _entropy_ops(None, 3, r, 0.9, rho, rho_m, gs, f"default/3/{r}", ctx, None)

    # n = 4 at r <= 2
    for rank in (1, 16):
        rho_m = random_density(rng, 4, rank)
        rho = density(rho_m)
        ctx = {"H": {}, "H_red": {}}
        for r in range(3):
            wl.ops += _entropy_ops(None, 4, r, 0.999, rho, rho_m, gs, f"default/4/{r}", ctx, None)[:1]

    # closed forms of the worked example: ghz_n at r < n has n - r bits, the
    # maximally mixed state n bits, |0^n> zero
    closed = [(cxtherm.ghz_state(3), r, (3 - r) * LOG2) for r in range(3)]
    closed += [(cxtherm.ghz_state(4), 2, 2 * LOG2), (cxtherm.maximally_mixed(3), 3, 3 * LOG2),
               (cxtherm.zero_state(3), 3, 0.0)]
    for state, r, expected in closed:
        wl.ops.append(_closed_form_op(state, r, expected, gs))

    wl.facts = {
        "states": {"n2_ranks": [1, 2, 3, 4], "n3_ranks": list(range(1, 9)), "n3_r3_ranks": [4],
                   "n4_ranks": [1, 16], "closed_forms": ["ghz3 r0-2", "ghz4 r2", "maxmixed3 r3", "zero3 r3"]},
        "etas": list(ETAS),
        "brute_force_checked": sorted(f"state{i}/r{r}" for i, r in brute_pick),
        "thermal_energies": {n: list(m.energies) for n, m in models.items()},
    }
    return wl


def _entropy_ops(i, n, r, eta, rho, rho_m, gs, key, ctx, brute):
    def run_h():
        return cxtherm.cx_entropy(rho, gs, r, eta)

    def check_h(est):
        checks.check_entropy(est.value, est.witness.matrix, rho_m, eta, reduced=False)
        require(est.certainty == "exact", f"certainty {est.certainty!r}")
        require(est.value >= -math.log(np.linalg.eigvalsh(rho_m).max()) - checks.VALUE_TOL,
                f"H = {est.value!r} below the min-entropy")
        ctx["H"][r] = est.value
        checks.check_not_increasing("H", [ctx["H"][k] for k in sorted(ctx["H"]) if k <= r])
        if brute is not None:
            require_close("H against the brute force", est.value, brute(i, n, r, rho_m, eta)["H"])

    def run_red():
        return cxtherm.cx_entropy(rho, gs, r, eta, reduced=True)

    def check_red(est):
        checks.check_entropy(est.value, est.witness.matrix, rho_m, eta, reduced=True)
        ctx["H_red"][r] = est.value
        checks.check_erasure_window(ctx["H"][r], est.value, eta)
        checks.check_not_increasing("H_red", [ctx["H_red"][k] for k in sorted(ctx["H_red"]) if k <= r])
        if brute is not None:
            require_close("H_red against the brute force", est.value, brute(i, n, r, rho_m, eta)["H_red"])

    return [Op("cx_entropy", key, run_h, check_h), Op("cx_entropy_reduced", key, run_red, check_red)]


def _check_erasure_protocol(res, rho_m, n, eta, model):
    steps, resets = gate_steps(res.protocol)
    require(tuple(resets) == tuple(res.reset_set), "protocol RESETs differ from the reset set")
    final = checks.simulate_gates_and_resets(rho_m, n, steps, resets)
    p0 = float(final[0, 0].real)
    require(p0 >= eta - checks.WITNESS_TOL, f"erasure protocol reaches |0^n> with {p0!r} < {eta!r}")
    require_close("erasure success probability", res.success_probability, p0, checks.WITNESS_TOL)
    work = sum(math.log(1.0 + math.exp(-model.energies[q])) for q in resets)
    require_close("beta W against the RESET costs", res.beta_work, work)


def _erasure_ops(n, r, eta, rho, rho_m, gs, model, key, ctx):
    def run():
        return thermo.erasure_search(rho, model, gs, r, eta)

    def check(res):
        _check_erasure_protocol(res, rho_m, n, eta, model)
        # erasure theorem, degenerate Hamiltonian: beta W = H_red
        require_close("beta W = H_red", res.beta_work, ctx["H_red"][r])
        checks.check_erasure_window(ctx["H"][r], res.beta_work, eta)

    return [Op("erasure_search", key, run, check)]


def _other_exact_ops(i, n, r, eta, rho, rho_m, sig, gs, key, ctx, cond_gamma, brute):
    eps = 1.0 - eta

    def run_compress():
        return thermo.compression_search(rho, gs, r, eps)

    def check_compress(res):
        checks.check_compression(res.m, ctx["H_red"][r])
        require(res.success_probability >= 1.0 - eps - checks.WITNESS_TOL,
                f"compression fidelity {res.success_probability!r} < 1 - eps")

    spec = cxtherm.ConditionalSpec(("q0",), tuple(f"q{k}" for k in range(1, n)), r, eta)

    def run_cond():
        return cxtherm.conditional_cx_entropy(rho, spec, gs)

    def check_cond(est):
        checks.check_conditional_one_qubit(est.value)
        checks.check_entropy(est.value, est.witness.matrix, rho_m, eta, reduced=False, gamma=cond_gamma)

    def run_beta():
        return cxtherm.distinguishability_beta(rho, sig, gs, r)

    def check_beta(beta):
        checks.check_distinguishability(beta, rho_m, sig.matrix, n)
        ctx["beta"][r] = beta
        checks.check_not_decreasing("beta", [ctx["beta"][k] for k in sorted(ctx["beta"]) if k <= r])
        if brute is not None:
            require_close("beta against the brute force", beta, brute(i, n, r, rho_m, eta)["beta"])

    return [
        Op("compression_search", key, run_compress, check_compress),
        Op("conditional_cx_entropy", key, run_cond, check_cond),
        Op("distinguishability_beta", key, run_beta, check_beta),
    ]


def _gibbs_ops(n, r, eta, rho, rho_m, gamma, gamma_m, gibbs_gs, model, key, ctx):
    def run_rel():
        return cxtherm.cx_relative_entropy(rho, gamma, gibbs_gs, r, eta, reduced=True)

    def check_rel(est):
        checks.check_entropy(-est.value, est.witness.matrix, rho_m, eta, reduced=True, gamma=gamma_m)
        ctx["D_gibbs"][r] = est.value

    def run_erase():
        return thermo.erasure_search(rho, model, gibbs_gs, r, eta)

    def check_erase(res):
        _check_erasure_protocol(res, rho_m, n, eta, model)
        # erasure theorem, product Hamiltonian: beta W = -D_h(rho || Gamma)
        require_close("beta W = -D_h(rho||Gamma)", res.beta_work, -ctx["D_gibbs"][r])

    return [Op("cx_relative_entropy", key, run_rel, check_rel),
            Op("erasure_search_gibbs", key, run_erase, check_erase)]


def _closed_form_op(state, r, expected, gs):
    rho_m = state.matrix.copy()

    def run():
        return cxtherm.cx_entropy(state, gs, r, 0.999)

    def check(est):
        checks.check_entropy(est.value, est.witness.matrix, rho_m, 0.999, reduced=False)
        require_close(f"closed form at r={r}", est.value, expected)

    return Op("cx_entropy_closed_form", f"default/{state.n}/{r}", run, check)


# ---------------------------------------------------------------------------
# cold_query


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build_cold_query(seed: int, root: Path) -> Workload:
    """One-off CLI queries on ghz4: cx-entropy, erasure and compress at
    r in {2, 3}, all-to-all and chain, plus the reduced cx-entropy at r = 3,
    all at --threads 2.  The seed draws eta, epsilon and the order of the
    queries; the closed form n - r bits holds for all of them."""
    rng = np.random.default_rng([seed, 2])
    wl = Workload("cold_query")
    wl.tmpdir = tempfile.mkdtemp(prefix="cold-", dir=root / "benchmarks" / "results")
    env = cli_env(root)
    queries = []
    for sub in ("cx-entropy", "erasure", "compress"):
        for r in (2, 3):
            for conn in ("all-to-all", "chain"):
                queries.append((sub, r, conn, False))
    # Six queries at r = 2 take about 0.6 s each, and six at r = 3 take
    # 1.3 s or more.  The two reduced ones put the median inside the
    # chain-r = 3 group, not on the gap between the groups.
    queries += [("cx-entropy", 3, conn, True) for conn in ("all-to-all", "chain")]
    order = rng.permutation(len(queries))
    eta = float(rng.choice([0.9, 0.99, 0.999]))
    eps = float(rng.choice([0.001, 0.01, 0.05]))
    for k in order:
        sub, r, conn, reduced = queries[k]
        out = os.path.join(wl.tmpdir, f"q{k}.json")
        args = [sub, "--state", "ghz4", "--r", str(r), "--connectivity", conn,
                "--threads", str(COLD_THREADS), "--units", "bits", "--output", out]
        args += ["--epsilon", repr(eps)] if sub == "compress" else ["--eta", repr(eta)]
        args += ["--reduced"] if reduced else []
        wl.ops.append(_cli_op(wl, root, env, sub, r, conn, args, out, eta, eps))
    wl.facts = {"queries": [list(queries[k]) for k in order], "eta": eta, "epsilon": eps,
                "threads": COLD_THREADS}
    return wl


def _cli_op(wl, root, env, sub, r, conn, args, out, eta, eps):
    expected_bits = 4 - r

    def run():
        tracer = wl.tracer
        if tracer is None:
            argv = [sys.executable, "-m", "cxtherm", *args]
            spans = None
        else:
            spans = out + ".spans.json"
            argv = [sys.executable, str(root / "benchmarks" / "trace_child.py"), spans, *args]
        proc = subprocess.run(argv, env=env, cwd=wl.tmpdir, capture_output=True, text=True, timeout=170)
        return proc, spans

    def check(result):
        proc, spans = result
        if spans is not None and os.path.exists(spans):
            wl.tracer.merge(spans, wl.tracer.current_op_span)
            os.remove(spans)
        require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        with open(out) as fh:
            row = json.load(fh)["rows"][0]
        os.remove(out)
        if sub == "cx-entropy":
            require(row["certainty"] == "exact", f"certainty {row['certainty']!r}")
            require(row["reduced"] == ("--reduced" in args), "reduced flag not echoed")
            require_close(f"H(ghz4, r={r}) in bits", float(row["value"]), expected_bits)
        elif sub == "erasure":
            require_close(f"beta W(ghz4, r={r}) in bits", float(row["beta_work"]), expected_bits)
            require(float(row["success_probability"]) >= eta - checks.WITNESS_TOL, "erasure success < eta")
        else:
            require(int(row["m"]) == expected_bits, f"m = {row['m']} != {expected_bits}")
            require(float(row["success_probability"]) >= 1.0 - eps - checks.WITNESS_TOL,
                    "compression fidelity < 1 - eps")

    name = f"cli_{sub}" + ("_reduced" if "--reduced" in args else "")
    return Op(name, f"cli/{conn}/4/{r}", run, check)


# ---------------------------------------------------------------------------
# dense_dynamics


def build_dense_dynamics(seed: int, root: Path) -> Workload:
    """Register-scale simulation, no enumeration of M_r beyond decoupling's
    small referee: quenches at n = 6, 7; Haar transition scans at n = 6-8;
    continuity trials at n = 5, 6; gate-and-RESET protocols at n = 10;
    decoupling at n = 3, 4."""
    rng = np.random.default_rng([seed, 3])
    wl = Workload("dense_dynamics")
    gs = cxtherm.default_gate_set()
    for n_a in (2, 3):
        gates.placed_alphabet(gs, n_a)

    times = [0.0, 0.4, 0.8, 1.2]
    for n, initial in ((6, "ones"), (7, "plus")):
        coupling, transverse = (float(x) for x in rng.uniform(0.8, 1.2, 2))
        wl.ops.append(_quench_op(n, coupling, transverse, times, initial))

    for n, depths, samples, r in ((6, [0, 1, 2], 2, 3), (7, [0, 1], 2, 3), (8, [1], 1, 4)):
        wl.ops.append(_transition_op(n, depths, samples, r, 0.9, gs, int(rng.integers(2 ** 31))))

    for n in (5, 6):
        wl.ops.append(_continuity_op(n, 10, int(rng.integers(2 ** 31))))

    n = 10
    model = thermo.ThermalModel.degenerate(n)
    phi0 = random_pure(rng, n)
    rho = density(np.outer(phi0, phi0.conj()))
    pool = [g for g in gs.gates if not g.is_identity]
    steps = []
    for _ in range(3):
        i, j = (int(q) for q in rng.choice(n, 2, replace=False))
        steps.append(thermo.GateStep(pool[int(rng.integers(len(pool)))], (i, j)))
    phi = checks.statevector(phi0, n, [(s.gate.unitary, s.edge) for s in steps])
    wl.ops.append(_protocol_op(thermo.Protocol(n, tuple(steps)), rho, model, phi, reset=False))
    full = thermo.Protocol(n, tuple(steps) + tuple(thermo.Reset(q) for q in range(n)))
    wl.ops.append(_protocol_op(full, rho, model, phi, reset=True))

    for n_total in (3, 4):
        rho_ar = density(random_density(rng, n_total, 4))
        wl.ops.append(_decoupling_op(rho_ar, n_total - 1, gs, int(rng.integers(2 ** 31))))

    wl.facts = {"quench": {"n": [6, 7], "times": times}, "transition": "n6 d0-2 x2, n7 d0-1 x2, n8 d1 x1",
                "continuity": {"n": [5, 6], "trials": 10}, "protocol": {"n": 10, "gates": 3},
                "decoupling": {"n": [3, 4], "r0": 1, "r1": 2, "k": 1}}
    return wl


def _quench_op(n, coupling, transverse, times, initial):
    def run():
        return experiments.ising_quench(n, coupling, transverse, times, initial=initial)

    def check(trace):
        ham = checks.ising_hamiltonian(n, coupling, transverse)
        w, v = np.linalg.eigh(ham)
        psi0 = np.zeros(2 ** n, dtype=complex)
        if initial == "ones":
            psi0[-1] = 1.0
        else:
            psi0[:] = 2.0 ** (-n / 2.0)
        coeff = v.conj().T @ psi0
        for t, value in zip(trace.times, trace.values):
            psi = v @ (np.exp(-1j * w * t) * coeff)
            require_close(f"E({t})", value, checks.entanglement_chain(psi, n))
        for d in trace.derivatives:
            require(math.isfinite(d) and abs(d) <= trace.bound, f"dE/dt = {d!r} beyond {trace.bound!r}")

    return Op("ising_quench", None, run, check)


def _transition_op(n, depths, samples, r, eta, gs, seed):
    def run():
        return experiments.transition_scan(n, depths, r, eta, gs, samples, seed, source="haar_su4")

    def check(rows):
        require([row.depth for row in rows] == depths, "transition rows do not match the depths")
        for row in rows:
            if row.gate_count <= r:
                require(row.zero_certified_fraction == 1.0,
                        f"depth {row.depth}: {row.gate_count} gates <= r but certified {row.zero_certified_fraction}")
            # pure states have H_hyp = 0; the upper side is 0 or n log 2 per sample
            require_close(f"depth {row.depth} lower mean", row.mean_entropy_lower, 0.0)
            require_close(f"depth {row.depth} upper mean", row.mean_entropy,
                          (1.0 - row.zero_certified_fraction) * n * LOG2)

    return Op("transition_scan", None, run, check)


def _continuity_op(n, trials, seed):
    def run():
        return experiments.continuity_trial(n, trials, seed)

    def check(rep):
        require(rep.trials == trials, "trial count")
        require(rep.coarse_violations == 0 and rep.refined_violations == 0,
                f"continuity violations {rep.coarse_violations}/{rep.refined_violations}")
        require(0.0 <= rep.max_abs_delta <= 8.0 * LOG2 / (n - 1) + checks.VALUE_TOL,
                f"max |dE| = {rep.max_abs_delta!r}")

    return Op("continuity_trial", None, run, check)


def _protocol_op(protocol, rho, model, phi, reset):
    n = protocol.n
    gate_count = sum(1 for s in protocol.steps if isinstance(s, thermo.GateStep))

    def run():
        return thermo.run_protocol(protocol, rho, model)

    def check(result):
        final, ledger = result
        require(ledger.complexity == gate_count, f"complexity {ledger.complexity} != {gate_count}")
        if reset:
            checks.check_reset_to_zero(final.matrix, ledger.beta_work, n)
        else:
            require(ledger.beta_work == 0.0, "gates alone cost work")
            checks.check_pure_protocol_state(final.matrix, phi)

    return Op("run_protocol_reset" if reset else "run_protocol", None, run, check)


def _decoupling_op(rho_ar, n_a, gs, seed):
    eta, delta = 0.9, 0.25

    def run():
        return experiments.decoupling_simulate(rho_ar, n_a, gs, 1, 2, 1, eta, delta, seed)

    def check(res):
        require_close("decoupling threshold", res.threshold, -math.log(delta / eta))
        # Q = I is feasible and Gamma has unit trace, so D >= 0
        require(res.relative_entropy >= -checks.VALUE_TOL, f"D = {res.relative_entropy!r} < 0")
        require(res.success == (res.relative_entropy <= res.threshold + 1e-12), "success flag")

    return Op("decoupling_simulate", None, run, check)


# ---------------------------------------------------------------------------
# continuous_search


def build_continuous_search(seed: int, root: Path) -> Workload:
    """cx_entropy over continuous SU(4) circuits at n = 2, 3 and r = 0-2,
    with a fixed number of seeded restarts and threads=1."""
    import cxtherm.heuristic  # noqa: F401  (the layer this workload times)

    rng = np.random.default_rng([seed, 4])
    wl = Workload("continuous_search")
    cs = gates.continuous_su4_gate_set()
    for k, (n, rank) in enumerate(CONTINUOUS_STATES):
        rho_m = random_density(rng, n, rank)
        rho = density(rho_m)
        for r in range(3):
            # the restarts' own seed is fixed: the optimizer's work then varies
            # with the state alone (+-5% of objective evaluations per round
            # across workload seeds, against +-10% with seeded restarts)
            wl.ops.append(_heuristic_op(rho, rho_m, n, r, ETAS[k % 3], cs, 3 * k + r))
    wl.facts = {"states": "n2 ranks 1,2,4; n3 ranks 1,4,8", "r": [0, 1, 2], "restarts": HEURISTIC_RESTARTS}
    return wl


def _heuristic_op(rho, rho_m, n, r, eta, cs, seed):
    def run():
        return cxtherm.cx_entropy(rho, cs, r, eta, seed=seed, restarts=HEURISTIC_RESTARTS, threads=1)

    def check(est):
        require(est.certainty == "upper_bound", f"certainty {est.certainty!r}")
        checks.check_entropy(est.value, est.witness.matrix, rho_m, eta, reduced=False)
        h_min = -math.log(np.linalg.eigvalsh(rho_m).max())
        require(h_min - checks.VALUE_TOL <= est.value <= n * LOG2 + checks.VALUE_TOL,
                f"H = {est.value!r} outside [H_min, n log 2]")
        if r == 0:
            require_close("r = 0 against the mask scan", est.value, checks.simple_effect_entropy(rho_m, n, eta))

    return Op("cx_entropy_continuous", f"su4/{n}/{r}", run, check)
