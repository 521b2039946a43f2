"""Penalized parameter search over continuous two-qubit circuits.

Each placed gate is exp(-i sum_a theta_a T_a) with the 15 traceless Hermitian
su(4) generators.  The objective is the log candidate ratio plus a quadratic
feasibility penalty whose weight ramps x10 per stage; any feasible candidate
certifies a one-sided bound, so only feasibility matters for soundness and
the optimizer is free to be greedy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .gates import edges, expand_operator, mask_matrix
from .parallel import deterministic_map
from .sampling import task_rng

FD_STEP = 1e-5
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


_GENERATORS = su4_generators()


def _central_diff(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


@dataclass(frozen=True)
class HeuristicCandidate:
    score: float
    effect: np.ndarray
    meta: dict


def _build_effect(params: np.ndarray, layout, n: int, p_diag: np.ndarray) -> np.ndarray:
    u = np.eye(2 ** n, dtype=complex)
    for k, (i, j) in enumerate(layout):
        theta = params[15 * k : 15 * (k + 1)]
        gen = sum(t * g for t, g in zip(theta, _GENERATORS))
        u = expand_operator(expm(-1j * gen), n, (i, j)) @ u
    return u.conj().T @ (p_diag[:, None] * u)


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
    meta = {"method": "heuristic", "restarts": restarts, "iterations": iterations}

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
        # no gate can be placed, so M_r = M_0: scan the simple effects directly
        rho_tr = mm @ np.real(np.diag(rho))
        gam_tr = mm @ np.real(np.diag(gamma))
        for m in masks:
            if rho_tr[m] >= eta - 1e-12:
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

        for penalty in PENALTY_STAGES:

            def objective(params):
                q = _build_effect(params, layout, n, p_diag)
                accept = float(np.trace(q @ rho).real)
                cost = float(np.trace(q @ gamma).real)
                raw = math.log(max(cost, 1e-300))
                if not reduced:
                    raw -= math.log(max(accept, 1e-300))
                return raw + penalty * max(0.0, eta - accept) ** 2

            res = minimize(
                objective,
                x,
                method="L-BFGS-B",
                jac=lambda p: _central_diff(objective, p),
                options={"maxiter": iterations},
            )
            x = res.x

        q = _build_effect(x, layout, n, p_diag)
        # clamp numerical noise outside [0, 1]
        w, v = np.linalg.eigh(q)
        q = (v * np.clip(w, 0.0, 1.0)) @ v.conj().T
        accept, score = candidate_score(q)
        return accept, score, q

    results = deterministic_map(one_restart, list(range(restarts)), threads)
    for accept, score, q in results:
        if accept >= eta - 1e-10 and score < best.score:
            best = HeuristicCandidate(score, q, meta)
    return best
