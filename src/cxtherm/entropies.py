"""Standard and one-shot entropies, all in nats.

The hypothesis-testing solver finds the exact Neyman-Pearson optimum

    beta* = min { tr(Q Gamma) / eta : 0 <= Q <= I, tr(Q rho) >= eta }

by locating the threshold multiplier mu* of the test Q = {mu rho - Gamma > 0}.
The acceptance probability t(mu) = tr(P_+(mu) rho) is nondecreasing in mu, so
mu* is found by bisection; if t jumps past eta at mu* (a generalized
eigenvalue of the pencil), the kernel of mu* rho - Gamma is weighted
fractionally so the witness satisfies tr(Q rho) = eta exactly.  The Lagrange
dual  g(mu) = mu - tr[(mu rho - Gamma)_+]/eta  (Wang & Renner, PRL 108,
200501, 2012) evaluated at the same mu* attains the optimum; it is reported
with each eigenvalue padded by the standard eigensolver error estimate, so
that it stays a lower bound on beta* in floating point and not only in
exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .registers import (
    EIGENVALUE_FLOOR,
    DensityOperator,
    HermitianOperator,
    PovmEffect,
    _check_same_register,
    partial_trace,
)

_SUPPORT_RTOL = 1e-12
LOG2 = math.log(2.0)


def binary_entropy(x: float) -> float:
    """h(x) = -x log x - (1-x) log(1-x), natural log."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def von_neumann(rho: DensityOperator) -> float:
    w = np.linalg.eigvalsh(rho.matrix)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def umegaki_relative(rho: DensityOperator, gamma: HermitianOperator) -> float:
    """D(rho || Gamma); +inf when supp(rho) is not contained in supp(Gamma)."""
    wg, vg = np.linalg.eigh(gamma.matrix)
    if wg.min() < -1e-10 * max(abs(wg).max(), 1.0):
        raise ValueError("second argument must be positive-semidefinite")
    support = wg > _SUPPORT_RTOL * max(wg.max(), 1e-300)
    if not support.all():
        kernel = vg[:, ~support]
        leak = np.einsum("ij,jk,ki->", kernel.conj().T, rho.matrix, kernel).real
        if leak > 1e-12:
            return math.inf
    wr, vr = np.linalg.eigh(rho.matrix)
    pos = wr > 0.0
    term1 = float((wr[pos] * np.log(wr[pos])).sum())
    log_gamma = (vg[:, support] * np.log(wg[support])) @ vg[:, support].conj().T
    term2 = float(np.trace(rho.matrix @ log_gamma).real)
    return term1 - term2


def mutual_information(rho: DensityOperator, part_a: list[str]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) for a bipartition by labels."""
    labels = set(rho.register.labels)
    a = set(part_a)
    if not a or not a < labels:
        raise ValueError("partition must be a proper nonempty subset of the register")
    b = labels - a
    h_a = von_neumann(partial_trace(rho, a))
    h_b = von_neumann(partial_trace(rho, b))
    return h_a + h_b - von_neumann(rho)


@dataclass(frozen=True)
class HypTestResult:
    """Exact value of D_H with a primal witness and a dual certificate."""

    value: float
    optimal_effect: PovmEffect
    mu_star: float
    primal_value: float
    dual_value: float


def eigenvalue_padding(rho: np.ndarray, gamma: np.ndarray, mu: float) -> float:
    """Error estimate tau for the computed eigenvalues of mu rho - Gamma.

    tau = (d + 1) eps (mu ||rho||_F + ||Gamma||_F): eps ||.|| for forming
    the matrix and d eps ||.|| for the eigensolver's backward error.
    """
    norm = mu * np.linalg.norm(rho) + np.linalg.norm(gamma)
    return (rho.shape[0] + 1) * np.finfo(float).eps * float(norm)


def _neyman_pearson(rho: np.ndarray, gamma: np.ndarray, eta: float):
    """Return (beta_primal, beta_dual, Q, mu_star) for the minimization above.

    beta_primal is achieved by the returned feasible Q.  beta_dual is the
    Lagrange dual at mu* with each computed eigenvalue of A = mu rho - Gamma
    padded by ``eigenvalue_padding`` (tau below), so that it stays below
    beta* in floating point too: tr(A_+) <= sum_i (w_i + tau)_+ holds as long
    as each computed eigenvalue w_i lies within tau of an exact one.  tau is
    the standard estimate of that error, the rounding of A plus the backward
    error p(d) eps ||A||_2 of a Hermitian eigensolver taken with p(d) = d
    (LAPACK only states that p(d) is a modest function of d), carried over
    to the eigenvalues by Weyl's inequality.  It is an estimate, not a
    proof: the evidence that it suffices is a 50-digit mpmath evaluation of
    the exact dual and primal at the instances where the unpadded dual
    crossed the primal, at each of which the padded dual lies below both.

    The padding costs at most 2 d tau/eta and the rounding of Q and
    tr(Q Gamma) at most d tau/eta, so with f = 3 d tau / (eta beta_primal)

        log(beta_primal / beta_dual) <= slack - log(1 - f)  ~  slack + f,

    where slack is the exact-arithmetic gap left by the bisection and the
    kernel split (below 1e-8).  f is the float64 conditioning of beta*
    itself, since a rounding-sized change of Gamma moves beta* by
    ~eps ||Gamma|| / eta: it is negligible for beta* ~ ||Gamma||, but
    reaches ~1e-6 at beta* ~ 1e-9 ||Gamma||.

    At eta == tr(rho) with a rank-deficient rho, mu* is infinite and slack
    is larger.  The exact dual then lies about c / (mu eta) below beta*,
    with c = sum |<i|Gamma|k>|^2 / lambda_i over the eigenpairs (lambda_i, i)
    of supp(rho) and the vectors k of its kernel, so no finite mu closes the
    gap, while the padding grows like d^2 eps mu.  The best mu of the ladder
    leaves a log-gap of order d sqrt(c eps) / (eta beta*): between 3e-8 and
    6e-7 in random probes at d = 4 to 16 and ranks 2 to 5.
    """
    tr_rho = float(np.trace(rho).real)

    def spectrum(mu):
        return np.linalg.eigh(mu * rho - gamma)

    def accept_prob(mu):
        w, v = spectrum(mu)
        pos = v[:, w > 0.0]
        if pos.size == 0:
            return 0.0
        return float(np.einsum("ij,jk,ki->", pos.conj().T, rho, pos).real)

    def dual_at(mu):
        # Padding each computed eigenvalue by its error estimate makes the
        # sum an upper bound on tr[(mu rho - Gamma)_+].
        w = np.linalg.eigvalsh(mu * rho - gamma)
        tau = eigenvalue_padding(rho, gamma, mu)
        return mu - np.maximum(w + tau, 0.0).sum() / eta

    # eta == tr(rho): the constraint pins Q to the support projector of rho,
    # and mu* is infinite.  Weak duality holds at every finite mu >= 0, so the
    # best padded dual on a geometric ladder of mu certifies the primal.
    if eta >= tr_rho * (1.0 - 1e-13):
        w, v = np.linalg.eigh(rho)
        keep = w > _SUPPORT_RTOL * max(w.max(), 1e-300)
        q = v[:, keep] @ v[:, keep].conj().T
        beta = float(np.trace(q @ gamma).real) / eta
        scale = max(float(np.linalg.norm(gamma, 2)), 1e-300) / float(w[keep].min())
        dual = max(dual_at(scale * 10.0 ** k) for k in range(10))
        return beta, max(dual, 0.0), q, math.inf

    # rho mass on ker(Gamma) already covers eta: type-II error is zero.
    wg, vg = np.linalg.eigh(gamma)
    ker = vg[:, wg <= _SUPPORT_RTOL * max(wg.max(), 1e-300)]
    if ker.shape[1]:
        ker_mass = float(np.einsum("ij,jk,ki->", ker.conj().T, rho, ker).real)
        if ker_mass >= eta:
            return 0.0, 0.0, ker @ ker.conj().T, 0.0

    hi = 1.0
    while accept_prob(hi) < eta:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("threshold bracketing failed")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if accept_prob(mid) >= eta:
            hi = mid
        else:
            lo = mid

    mu = hi
    w, v = spectrum(mu)
    scale = max(float(np.abs(w).max()), 1e-300)
    kappa = max(1e-10 * scale, 4.0 * (hi - lo) * float(np.linalg.norm(rho, 2)))
    strict = w > kappa
    proj = v[:, strict] @ v[:, strict].conj().T if strict.any() else np.zeros_like(rho)
    q_mass = float(np.trace(proj @ rho).real)
    q = proj
    if q_mass < eta:
        # jump at a generalized eigenvalue: mix in kernel directions until
        # tr(Q rho) = eta.  A direction buys r_i of acceptance for mu r_i - w_i
        # of type-II error, so the largest w_i / r_i go first.
        need = eta - q_mass
        band = np.where(np.abs(w) <= kappa)[0]
        r = np.einsum("ji,jk,ki->i", v[:, band].conj(), rho, v[:, band]).real
        for k in np.argsort(-w[band] / np.maximum(r, 1e-300), kind="stable"):
            if r[k] <= 1e-300:
                continue
            col = v[:, band[k] : band[k] + 1]
            weight = min(1.0, need / r[k])
            q = q + weight * (col @ col.conj().T)
            need -= weight * r[k]
            if need <= 1e-15:
                break
    else:
        q = q * (eta / q_mass)
    beta_primal = float(np.trace(q @ gamma).real) / eta
    beta_dual = max(dual_at(mu), 0.0)
    return beta_primal, beta_dual, q, mu


def check_eta(trace: float, eta: float, name: str = "eta") -> None:
    """The one rule on an acceptance floor: no effect 0 <= Q <= I accepts
    more than tr(rho) = `trace`.  `name` labels the message only."""
    if not 0.0 < eta <= trace + 1e-12:
        raise ValueError(f"{name} must lie in (0, tr(rho)] = (0, {trace:.12g}], got {eta!r}")


def check_test_args(rho: DensityOperator, gamma: HermitianOperator, eta: float) -> None:
    """What every hypothesis test of rho against Gamma at acceptance eta
    needs: one register, eta in (0, tr rho], Gamma positive-semidefinite."""
    _check_same_register(rho, gamma)
    check_eta(rho.trace(), eta)
    if np.linalg.eigvalsh(gamma.matrix).min() < EIGENVALUE_FLOOR:
        raise ValueError("reference operator must be positive-semidefinite")


def _hyp_test(rho: DensityOperator, gamma: np.ndarray, eta: float) -> HypTestResult:
    """`hyp_relative_entropy` on checked arguments."""
    eta = min(eta, rho.trace())
    beta_p, beta_d, q, mu = _neyman_pearson(rho.matrix, gamma, eta)
    effect = PovmEffect(rho.register, q)
    if beta_p <= 0.0:
        return HypTestResult(math.inf, effect, mu, math.inf, math.inf)
    primal = -math.log(beta_p)
    dual = math.inf if beta_d <= 0.0 else -math.log(beta_d)
    return HypTestResult(primal, effect, mu, primal, dual)


def hyp_relative_entropy(
    rho: DensityOperator, gamma: HermitianOperator, eta: float
) -> HypTestResult:
    """Hypothesis-testing relative entropy D_H^eta(rho || Gamma), exact."""
    check_test_args(rho, gamma, eta)
    return _hyp_test(rho, gamma.matrix, eta)


def hyp_entropy(rho: DensityOperator, eta: float) -> HypTestResult:
    """H_hyp^eta(rho) = -D_H^eta(rho || I).  I is positive-semidefinite and
    on rho's register by construction, so only eta is checked."""
    check_eta(rho.trace(), eta)
    res = _hyp_test(rho, np.eye(rho.dim, dtype=complex), eta)
    return HypTestResult(
        -res.value, res.optimal_effect, res.mu_star, -res.primal_value, -res.dual_value
    )
