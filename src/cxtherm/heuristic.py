"""Penalized parameter search over continuous two-qubit circuits.

Each placed gate is exp(-i sum_a theta_a T_a) with the 15 traceless Hermitian
su(4) generators.  The objective is the log candidate ratio plus a quadratic
feasibility penalty whose weight ramps x10 per stage; any feasible candidate
certifies a one-sided bound, so only feasibility matters for soundness and
the optimizer is free to be greedy.

L-BFGS-B gets the objective's exact gradient, not finite differences: one
forward sweep carries rho and Gamma through the circuit (Gamma = I is left
out: U I U^dag = I), one backward sweep pulls the mask projector back, and
each gate's derivative along the 15 generators comes from the
Daleckii-Krein divided differences of its exponential.  Gates act through
`gates._contract`, and a gate's edge block is a partial trace.
`solver["restarts_detail"]` reports each restart in restart order: its
iterations and evaluations summed over the penalty stages, the last stage's
weight, and its candidate's acceptance, feasibility and score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .cxentropy import WITNESS_SLACK
from .gates import _contract, edges, mask_matrix
from .parallel import deterministic_map
from .registers import partial_trace_matrix
from .sampling import task_rng
from .search import FEASIBILITY_SLACK

PENALTY_STAGES = (1e2, 1e3, 1e4, 1e5)


def su4_generators() -> list[np.ndarray]:
    """15 generalized Gell-Mann matrices on dimension 4."""
    gens = []
    for i in range(4):
        for j in range(i + 1, 4):
            sym = np.zeros((4, 4), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            gens.append(sym)
            asym = np.zeros((4, 4), dtype=complex)
            asym[i, j] = -1j
            asym[j, i] = 1j
            gens.append(asym)
    for k in range(1, 4):
        diag = np.zeros(4)
        diag[:k] = 1.0
        diag[k] = -k
        gens.append(np.diag(diag / math.sqrt(k * (k + 1) / 2.0)).astype(complex))
    return gens


_GENERATOR_ROWS = np.stack(su4_generators()).reshape(15, 16)


@dataclass(frozen=True)
class HeuristicCandidate:
    score: float
    effect: np.ndarray
    meta: dict


def _gate(theta: np.ndarray):
    """exp(-iH), as a (2,)*4 tensor, for H = sum_a theta_a T_a = V diag(lam)
    V^dag, with V and the divided differences F_ij of exp(-ix) at (lam_i,
    lam_j), written -i exp(-i(lam_i + lam_j)/2) sinc((lam_i - lam_j)/2) so
    that degenerate eigenvalues need no special case."""
    h = (_GENERATOR_ROWS.T @ theta).reshape(4, 4)
    lam, v = np.linalg.eigh(h)
    mean = 0.5 * (lam[:, None] + lam[None, :])
    half_gap = 0.5 * (lam[:, None] - lam[None, :])
    return expm(-1j * h).reshape((2,) * 4), v, -1j * np.exp(-1j * mean) * np.sinc(half_gap / np.pi)


def _backward(circuit, layout, p_diag: np.ndarray, forward=None):
    """Pull the projector P back through the circuit to Q = U^dag P U.

    With `forward` (for each gate k, U_k X_k of some Hermitian X carried
    forward to that gate) it also returns the gradient of tr(P U X U^dag):
    at gate k it is 2 Re tr(M dU_k) with M the edge block of (U_k X_k)^dag
    E_k, where E_k is P pulled back to just after gate k, and dU_k along
    T_a is V (F o V^dag T_a V) V^dag (Daleckii-Krein).
    """
    n = len(p_diag).bit_length() - 1
    effect = np.diag(p_diag.astype(complex))
    grad = None if forward is None else np.empty(15 * len(layout))
    for k in reversed(range(len(layout))):
        u, v, divided = circuit[k]
        edge = layout[k]
        if forward is not None:
            m = partial_trace_matrix(forward[k].conj().T @ effect, n, sorted(edge))
            if edge[0] > edge[1]:
                m = m.reshape((2,) * 4).transpose(1, 0, 3, 2).reshape(4, 4)
            w = (v.conj().T @ m @ v).T * divided
            grad[15 * k : 15 * (k + 1)] = 2.0 * np.real(_GENERATOR_ROWS @ (v.conj() @ w @ v.T).ravel())
        uh = u.conj().transpose(2, 3, 0, 1)
        effect = _contract(uh, edge, _contract(uh, edge, effect[None])[0].conj().T[None])[0].conj().T
    return effect, grad


def _forward(circuit, layout, x: np.ndarray):
    """Carry x through the circuit: U_k X_k for each gate k, and U X U^dag."""
    fed = []
    for (u, _, _), edge in zip(circuit, layout):
        fed.append(_contract(u, edge, x[None])[0])
        x = _contract(u, edge, fed[-1].conj().T[None])[0].conj().T
    return fed, x


def _circuit(params: np.ndarray, layout):
    return [_gate(params[15 * k : 15 * (k + 1)]) for k in range(len(layout))]


def _objective(params, layout, p_diag, rho, gamma, eta, penalty, reduced):
    """The penalized log candidate ratio and its exact gradient.

    log tr(Q Gamma) - log tr(Q rho) (the second term dropped when `reduced`)
    + penalty max(0, eta - tr(Q rho))^2 for Q = U^dag P U; a max(., 1e-300)
    clamp that is active contributes no derivative.  One forward sweep of
    rho and Gamma and one backward sweep of P give the gradient.  `gamma`
    None stands for Gamma = I: then tr(Q Gamma) = tr P, with no gradient,
    and Gamma needs no sweep.
    """
    circuit = _circuit(params, layout)
    fed_rho, rho_out = _forward(circuit, layout, rho)
    accept = float(p_diag @ np.real(np.diag(rho_out)))
    if gamma is None:
        cost = float(p_diag.sum())
    else:
        fed_gamma, gamma_out = _forward(circuit, layout, gamma)
        cost = float(p_diag @ np.real(np.diag(gamma_out)))
    shortfall = max(0.0, eta - accept)
    value = math.log(max(cost, 1e-300)) + penalty * shortfall ** 2
    d_cost = 1.0 / cost if cost > 1e-300 else 0.0
    d_accept = -2.0 * penalty * shortfall
    if not reduced:
        value -= math.log(max(accept, 1e-300))
        if accept > 1e-300:
            d_accept -= 1.0 / accept
    # tr(P U X U^dag) is linear in X, so one backward sweep serves both terms
    if gamma is None:
        fed = [d_accept * a for a in fed_rho]
    else:
        fed = [d_accept * a + d_cost * b for a, b in zip(fed_rho, fed_gamma)]
    return value, _backward(circuit, layout, p_diag, fed)[1]


def heuristic_search(
    rho: np.ndarray,
    gamma: np.ndarray,
    n: int,
    r: int,
    eta: float,
    *,
    connectivity: str = "all-to-all",
    reduced: bool = False,
    seed: int = 0,
    restarts: int = 32,
    iterations: int = 50,
    threads: int = 1,
) -> HeuristicCandidate:
    """Best feasible candidate ratio found; falls back to Q = I.

    Restarts are independent (seeded by counter) and reduced by an
    associative min, so the result does not depend on scheduling.
    """
    mm = mask_matrix(n)
    masks = np.arange(2 ** n)
    pair_list = edges(connectivity, n)
    tr_rho = float(np.trace(rho).real)
    swept_gamma = None if np.array_equal(gamma, np.eye(2 ** n)) else gamma
    meta = {"method": "heuristic", "restarts": restarts, "iterations": iterations, "restarts_detail": []}

    def candidate_score(q: np.ndarray) -> tuple[float, float]:
        accept = float(np.trace(q @ rho).real)
        cost = float(np.trace(q @ gamma).real)
        score = cost if reduced else cost / max(accept, 1e-300)
        return accept, score

    # Q = I is always feasible (eta <= tr rho).
    best = HeuristicCandidate(
        float(np.trace(gamma).real) if reduced else float(np.trace(gamma).real) / tr_rho,
        np.eye(2 ** n, dtype=complex),
        meta,
    )

    if r <= 0 or not pair_list:
        # no gate can be placed, so M_r = M_0: scan the simple projectors directly
        rho_tr = mm @ np.real(np.diag(rho))
        gam_tr = mm @ np.real(np.diag(gamma))
        for m in masks:
            if rho_tr[m] >= eta - FEASIBILITY_SLACK:
                score = gam_tr[m] if reduced else gam_tr[m] / rho_tr[m]
                if score < best.score:
                    q = np.diag(mm[m].astype(complex))
                    best = HeuristicCandidate(score, q, meta)
        return best

    def one_restart(restart: int):
        rng = task_rng(seed, restart)
        layout = [pair_list[int(rng.integers(len(pair_list)))] for _ in range(r)]
        mask_bits = int(masks[restart % masks.size])
        p_diag = mm[mask_bits]
        if float(p_diag @ np.real(np.diag(rho))) < 1e-6 and mask_bits != 0:
            p_diag = mm[0]
        x = rng.normal(scale=0.4, size=15 * r)
        nit = nfev = 0

        for penalty in PENALTY_STAGES:
            res = minimize(
                _objective,
                x,
                args=(layout, p_diag, rho, swept_gamma, eta, penalty, reduced),
                method="L-BFGS-B",
                jac=True,
                options={"maxiter": iterations},
            )
            x = res.x
            nit += int(res.nit)
            nfev += int(res.nfev)

        q = _backward(_circuit(x, layout), layout, p_diag)[0]
        # clamp numerical noise outside [0, 1]
        w, v = np.linalg.eigh(q)
        q = (v * np.clip(w, 0.0, 1.0)) @ v.conj().T
        accept, score = candidate_score(q)
        detail = {
            "iterations": nit,
            "evaluations": nfev,
            "penalty": penalty,
            "accept": accept,
            "feasible": accept >= eta - WITNESS_SLACK,
            "score": score,
        }
        return detail, q

    for detail, q in deterministic_map(one_restart, list(range(restarts)), threads):
        meta["restarts_detail"].append(detail)
        if detail["feasible"] and detail["score"] < best.score:
            best = HeuristicCandidate(detail["score"], q, meta)
    return best
