"""Independent oracles used to freeze expected values.

Each oracle recomputes a quantity through a route disjoint from the library
implementation it checks: grid scans, brute-force sequence enumeration, and
hand-built matrices.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from cxtherm.gates import (
    MATRIX_HASH_DECIMALS,
    Circuit,
    expand_operator,
    iter_simple_effects,
    placed_alphabet,
)
from cxtherm.registers import PovmEffect, partial_trace_matrix, register


def diagonal_hyp_oracle(rho_diag, gamma_diag, eta, steps=200):
    """Grid scan over diagonal effects for min tr(Q Gamma)/eta subject to
    tr(Q rho) >= eta; exhaustive up to grid resolution."""
    rho_diag = np.asarray(rho_diag, dtype=float)
    gamma_diag = np.asarray(gamma_diag, dtype=float)
    grid = np.linspace(0.0, 1.0, steps + 1)
    best = math.inf
    for qs in itertools.product(grid, repeat=len(rho_diag)):
        q = np.array(qs)
        if q @ rho_diag >= eta - 1e-12:
            best = min(best, q @ gamma_diag)
    return best / eta


def diagonal_hyp_exact(rho_diag, gamma_diag, eta):
    """Greedy likelihood-ratio solution for commuting inputs: fill levels by
    ascending gamma/rho cost with one fractional level."""
    rho_diag = np.asarray(rho_diag, dtype=float)
    gamma_diag = np.asarray(gamma_diag, dtype=float)
    order = np.argsort(
        [g / r if r > 0 else math.inf for g, r in zip(gamma_diag, rho_diag)]
    )
    need = eta
    cost = 0.0
    for i in order:
        if need <= 0:
            break
        take = min(1.0, need / rho_diag[i]) if rho_diag[i] > 0 else 0.0
        cost += take * gamma_diag[i]
        need -= take * rho_diag[i]
    if need > 1e-12:
        return math.inf
    return cost / eta


def ghz2_reduced_by_hand():
    """tr_A |GHZ_2><GHZ_2| written out entry by entry."""
    ghz = np.zeros((4, 4), dtype=complex)
    for a in (0, 3):
        for b in (0, 3):
            ghz[a, b] = 0.5
    red = np.zeros((2, 2), dtype=complex)
    # index (a0 a1, b0 b1); sum over qubit-0 values 0 and 1
    for a1 in (0, 1):
        for b1 in (0, 1):
            red[a1, b1] = ghz[a1, b1] + ghz[2 + a1, 2 + b1]
    return red


def bell_by_hand():
    """CNOT_(0,1) H_0 |00> via explicit 4x4 matrices."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    h0 = np.kron(h, np.eye(2))
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    v = cnot @ h0 @ np.array([1, 0, 0, 0], dtype=complex)
    return np.outer(v, v.conj())


def brute_force_state_distance(gate_mats, target_vec, max_len):
    """Per sequence length, the least trace distance to the target reached by
    any gate word (itertools.product, no pruning)."""
    target = np.asarray(target_vec, dtype=complex)
    target = target / np.linalg.norm(target)
    d = target.size
    start = np.zeros(d, dtype=complex)
    start[0] = 1.0

    def dist(vec):
        return math.sqrt(max(0.0, 1.0 - abs(np.vdot(target, vec)) ** 2))

    out = {0: dist(start)}
    for length in range(1, max_len + 1):
        best = math.inf
        for seq in itertools.product(gate_mats, repeat=length):
            vec = start
            for g in seq:
                vec = g @ vec
            best = min(best, dist(vec))
        out[length] = best
    return out


def entangling_power_grid_oracle(u, chi_steps=20000):
    """min over global phases chi of max |eigenphases of e^{-i chi} U| on a
    dense grid; equals the shortest-arc half-angle."""
    phases = np.angle(np.linalg.eigvals(u))
    best = math.inf
    for chi in np.linspace(-math.pi, math.pi, chi_steps, endpoint=False):
        shifted = np.angle(np.exp(1j * (phases - chi)))
        best = min(best, np.abs(shifted).max())
    return best


def _reduced_single_qubit(sigma, n, i):
    sub = sigma.reshape((2,) * (2 * n))
    off = 0
    for ax in [a for a in range(n) if a != i]:
        k_rem = n - off
        sub = np.trace(sub, axis1=ax - off, axis2=ax - off + k_rem)
        off += 1
    return sub


def embedded_kraus(gate, edge, n):
    """The gate's Kraus operators (a unitary gate: its unitary alone), each
    placed on ordered qubits `edge` of an n-qubit register by
    `expand_operator` as a dense 2^n x 2^n matrix."""
    mats = (gate.unitary,) if gate.is_unitary else gate.kraus
    return [expand_operator(k, n, list(edge)) for k in mats]


def dense_apply(kraus_full, sigma):
    """sum_K K sigma K^dag with embedded Kraus operators, as matrix products."""
    return functools.reduce(np.add, (k @ sigma @ k.conj().T for k in kraus_full))


def dense_pullback(kraus_full, effect):
    """sum_K K^dag Q K with embedded Kraus operators, as matrix products."""
    return functools.reduce(np.add, (k.conj().T @ effect @ k for k in kraus_full))


def kron_replace_qubit(sigma, n, i, local):
    """local (x) tr_i(sigma) with the local factor on qubit i, built as a
    Kronecker product and permuted into place by `expand_operator`."""
    if n == 1:
        return local * float(np.trace(sigma).real)
    keep = [k for k in range(n) if k != i]
    reduced = partial_trace_matrix(sigma, n, keep)
    return expand_operator(np.kron(local, reduced), n, [i] + keep)


def brute_force_protocol_work(rho_mat, n, gate_list, eta, max_ops, log_z,
                              r_cap=None, m_cap=None):
    """Minimum dimensionless work over ALL interleaved protocols of at most
    max_ops steps (RESET/EXTRACT per qubit plus the given placed full-register
    unitaries) reaching <0^n| out |0^n> >= eta.  Degenerate Hamiltonian.

    `r_cap` limits the gate count, `m_cap` the RESET and EXTRACT counts, so
    the searched class matches the resources of the bound being checked.
    """
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    thermal = np.eye(2, dtype=complex) / 2.0

    steps = []
    for i in range(n):
        steps.append(("reset", i))
        steps.append(("extract", i))
    for k in range(len(gate_list)):
        steps.append(("gate", k))

    best = math.inf
    for length in range(max_ops + 1):
        for seq in itertools.product(steps, repeat=length):
            kinds = [kind for kind, _ in seq]
            if r_cap is not None and kinds.count("gate") > r_cap:
                continue
            if m_cap is not None and (
                kinds.count("reset") > m_cap or kinds.count("extract") > m_cap
            ):
                continue
            sigma = rho_mat.copy()
            work = 0.0
            legal = True
            for kind, arg in seq:
                if kind == "reset":
                    sigma = kron_replace_qubit(sigma, n, arg, ket0)
                    work += log_z[arg]
                elif kind == "extract":
                    sub = _reduced_single_qubit(sigma, n, arg)
                    pop = float(sub[0, 0].real) / max(float(np.trace(sub).real), 1e-300)
                    if pop < 1.0 - 1e-9:
                        legal = False
                        break
                    sigma = kron_replace_qubit(sigma, n, arg, thermal)
                    work -= log_z[arg]
                else:
                    g = gate_list[arg]
                    sigma = g @ sigma @ g.conj().T
            if legal and float(sigma[0, 0].real) >= eta - 1e-12:
                best = min(best, work)
    return best


def iter_circuits(gate_set, n, r):
    """Every circuit of at most r placed gates, in lexicographic order of
    the placed alphabet, depth first."""
    alphabet = placed_alphabet(gate_set, n)
    stack = [()]
    while stack:
        ops = stack.pop()
        yield Circuit(n, tuple((alphabet[i].gate, alphabet[i].edge) for i in ops))
        if len(ops) < r:
            stack.extend(ops + (i,) for i in reversed(range(len(alphabet))))


def dfs_enumerate_effects(gate_set, r, n, dedup=True):
    """M_r by depth-first search over every circuit of at most r gates, each
    simple effect pulled back gate by gate through dense embeddings built
    here, independent of the engine's placed alphabet.  With dedup=False every
    (circuit, mask) pair is yielded.  Deduplication hashes matrices rounded
    to 1e-10; it affects only the number of items yielded, never the set."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if gate_set.kind != "finite":
        raise ValueError("exact enumeration requires a finite gate set")
    seen = set()
    simple = list(iter_simple_effects(n))
    for circuit in iter_circuits(gate_set, n, r):
        placed = [embedded_kraus(g, e, n) for g, e in circuit.ops]
        pulled = []
        for eff in simple:
            p = eff.matrix()
            for kraus_full in reversed(placed):
                p = dense_pullback(kraus_full, p)
            pulled.append(p)
        for eff, p in zip(simple, pulled):
            if dedup:
                key = np.round(p, MATRIX_HASH_DECIMALS).tobytes()
                if key in seen:
                    continue
                seen.add(key)
            yield PovmEffect(register(n), p, provenance=(circuit, eff))
