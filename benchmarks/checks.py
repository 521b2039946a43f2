"""Independent checks for the benchmark's results.

Everything here is plain numpy and never calls a cxtherm solver: full-register
matrices are built from single-qubit factors with ``np.kron``, mask projectors
and partial traces are written out by hand, and the reachable effects of a
finite gate set are enumerated as ``itertools.product`` gate words.  Each
check raises ``CheckError`` with a message naming the quantity that is off.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LOG2 = math.log(2.0)

# Absolute tolerances, fixed before any measurement: values are compared in
# nats, witnesses in probability, protocol states entrywise.
VALUE_TOL = 1e-9
WITNESS_TOL = 1e-10
STATE_TOL = 1e-10
FEASIBILITY_SLACK = 1e-12


class CheckError(AssertionError):
    """A result disagrees with an independent computation or a property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def require_close(name: str, got: float, want: float, tol: float = VALUE_TOL) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{name}: got {got!r}, independent value {want!r} (tol {tol:g})",
    )


# ---------------------------------------------------------------------------
# register algebra, written independently of cxtherm.gates / registers

_KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_UNIT = [[np.zeros((2, 2), dtype=complex) for _ in range(2)] for _ in range(2)]
for _a in range(2):
    for _b in range(2):
        _UNIT[_a][_b][_a, _b] = 1.0


def embed(mat4: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Full-register matrix of a 4x4 operator on the ordered qubits (i, j).

    Qubit 0 is the most significant bit.  The operator is expanded in matrix
    units, sum m[ab, cd] |a><c|_i (x) |b><d|_j, and each term is one Kronecker
    product over the register in qubit order, so no axis permutation of the
    library is shared.
    """
    mat4 = np.asarray(mat4, dtype=complex)
    eye = np.eye(2, dtype=complex)
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for a, b, c, d in itertools.product(range(2), repeat=4):
        coeff = mat4[2 * a + b, 2 * c + d]
        if coeff == 0:
            continue
        term = np.ones((1, 1), dtype=complex)
        for q in range(n):
            if q == i:
                factor = _UNIT[a][c]
            elif q == j:
                factor = _UNIT[b][d]
            else:
                factor = eye
            term = np.kron(term, factor)
        out += coeff * term
    return out


def mask_projector(n: int, projected: tuple[int, ...]) -> np.ndarray:
    """|0><0| on the listed qubits, identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, _KET0 if q in projected else np.eye(2, dtype=complex))
    return out


def all_mask_projectors(n: int) -> list[np.ndarray]:
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    )
    return [mask_projector(n, s) for s in subsets]


def trace_out(matrix: np.ndarray, n: int, traced: int) -> np.ndarray:
    """Partial trace over one qubit, by summing the two diagonal blocks."""
    t = matrix.reshape((2 ** traced, 2, 2 ** (n - traced - 1)) * 2)
    return np.einsum("aibcid->abcd", t).reshape(2 ** (n - 1), 2 ** (n - 1))


def reduced_state(matrix: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    out, m = matrix, n
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        out = trace_out(out, m, q)
        m -= 1
    return out


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def simulate_gates_and_resets(rho, n, gate_steps, resets):
    """Apply embedded gates/channels, then RESET each listed qubit to |0>."""
    sigma = np.asarray(rho, dtype=complex)
    for kraus4, (i, j) in gate_steps:
        sigma = apply_kraus([embed(k, n, i, j) for k in kraus4], sigma)
    for q in resets:
        rest = trace_out(sigma, n, q).reshape((2 ** q, 2 ** (n - q - 1)) * 2)
        full = np.einsum("xy,aebf->axebyf", _KET0, rest)
        sigma = full.reshape(2 ** n, 2 ** n)
    return sigma


def statevector(psi: np.ndarray, n: int, gates) -> np.ndarray:
    """Apply 4x4 unitaries on ordered qubit pairs by tensordot on (2,)*n."""
    t = np.asarray(psi, dtype=complex).reshape((2,) * n)
    for u4, (i, j) in gates:
        g = np.asarray(u4, dtype=complex).reshape(2, 2, 2, 2)
        t = np.tensordot(g, t, axes=([2, 3], [i, j]))
        t = np.moveaxis(t, [0, 1], [i, j])
    return t.reshape(-1)


def entanglement_chain(psi: np.ndarray, n: int) -> float:
    """Mean mutual information over the n-1 contiguous cuts of a pure state,
    I(A:B) = 2 S(A), with S(A) from the Schmidt values of psi."""
    total = 0.0
    for cut in range(1, n):
        s = np.linalg.svd(psi.reshape(2 ** cut, 2 ** (n - cut)), compute_uv=False)
        p = s ** 2
        p = p[p > 0.0]
        total += 2.0 * float(-(p * np.log(p)).sum())
    return total / (n - 1)


def ising_hamiltonian(n: int, coupling: float, transverse: float) -> np.ndarray:
    """Periodic chain sum_i J Z_i Z_{i+1} + (g/2)(X_i + X_{i+1})."""
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    bond = coupling * np.kron(z, z) + 0.5 * transverse * (np.kron(x, i2) + np.kron(i2, x))
    return sum(embed(bond, n, i, (i + 1) % n) for i in range(n))


# ---------------------------------------------------------------------------
# brute-force complexity quantities over gate words


def brute_force(rho, sigma, gates4, n: int, r: int, eta: float, edges) -> dict:
    """Exact minima over every word of <= r placed gates and every mask.

    Returns the normalized entropy H = log min tr Q / tr(Q rho), the reduced
    entropy log min tr Q (both over tr(Q rho) >= eta) and the
    distinguishability max |tr Q (rho - sigma)|, with Q = U^dag P U.
    """
    placed = [embed(g, n, i, j) for g in gates4 for (i, j) in edges]
    projectors = all_mask_projectors(n)
    proj_diag = np.array([np.real(np.diag(p)) for p in projectors])
    proj_tr = proj_diag.sum(axis=1)
    best_ratio = math.inf
    best_tr = math.inf
    best_beta = 0.0
    for length in range(r + 1):
        for word in itertools.product(range(len(placed)), repeat=length):
            u = np.eye(2 ** n, dtype=complex)
            for w in word:
                u = placed[w] @ u
            rho_d = np.real(np.diag(u @ rho @ u.conj().T))
            acc = proj_diag @ rho_d
            ok = acc >= eta - FEASIBILITY_SLACK
            if ok.any():
                best_ratio = min(best_ratio, float((proj_tr[ok] / acc[ok]).min()))
                best_tr = min(best_tr, float(proj_tr[ok].min()))
            if sigma is not None:
                sig_d = np.real(np.diag(u @ sigma @ u.conj().T))
                best_beta = max(best_beta, float(np.abs(proj_diag @ (rho_d - sig_d)).max()))
    return {"H": math.log(best_ratio), "H_red": math.log(best_tr), "beta": best_beta}


def simple_effect_beta(rho: np.ndarray, sigma: np.ndarray, n: int) -> float:
    diff = np.real(np.diag(rho - sigma))
    return max(abs(float(np.real(np.diag(p)) @ diff)) for p in all_mask_projectors(n))


def simple_effect_entropy(rho: np.ndarray, n: int, eta: float) -> float:
    best = math.inf
    diag = np.real(np.diag(rho))
    for p in all_mask_projectors(n):
        pd = np.real(np.diag(p))
        acc = float(pd @ diag)
        if acc >= eta - FEASIBILITY_SLACK:
            best = min(best, float(pd.sum()) / acc)
    return math.log(best)


# ---------------------------------------------------------------------------
# properties of single results


def check_witness(q: np.ndarray, rho: np.ndarray, eta: float) -> None:
    """0 <= Q <= I and tr(Q rho) >= eta, with this module's own eigvalsh."""
    q = np.asarray(q, dtype=complex)
    w = np.linalg.eigvalsh(0.5 * (q + q.conj().T))
    require(
        w.min() >= -WITNESS_TOL and w.max() <= 1.0 + WITNESS_TOL,
        f"witness spectrum [{w.min():.3g}, {w.max():.3g}] leaves [0, 1]",
    )
    accept = float(np.trace(q @ rho).real)
    require(accept >= eta - WITNESS_TOL, f"witness accepts {accept!r} < eta {eta!r}")


def witness_entropy(q: np.ndarray, rho: np.ndarray, gamma: np.ndarray | None, reduced: bool) -> float:
    """log tr(Q Gamma) / tr(Q rho), or log tr(Q Gamma) when reduced;
    Gamma = I when omitted."""
    cost = float(np.trace(q).real) if gamma is None else float(np.trace(q @ gamma).real)
    if reduced:
        return math.log(cost)
    return math.log(cost / float(np.trace(q @ rho).real))


def check_entropy(value: float, q, rho, eta: float, reduced: bool, gamma=None) -> None:
    """A complexity entropy (-D_H) matches its own witness, which is feasible."""
    check_witness(q, rho, eta)
    require_close("value recomputed from the witness", value, witness_entropy(q, rho, gamma, reduced))


def check_not_increasing(name: str, values: list[float]) -> None:
    for a, b in zip(values, values[1:]):
        require(b <= a + VALUE_TOL, f"{name} increased with r: {values}")


def check_not_decreasing(name: str, values: list[float]) -> None:
    for a, b in zip(values, values[1:]):
        require(b >= a - VALUE_TOL, f"{name} decreased with r: {values}")


def check_erasure_window(h: float, beta_work: float, eta: float) -> None:
    """H - log(1/eta) <= beta W <= H."""
    lo = h - math.log(1.0 / eta)
    require(
        lo - VALUE_TOL <= beta_work <= h + VALUE_TOL,
        f"beta W = {beta_work!r} outside [H - log(1/eta), H] = [{lo!r}, {h!r}]",
    )


def check_compression(m: int, h_reduced: float) -> None:
    bits = h_reduced / LOG2
    require(abs(bits - round(bits)) <= VALUE_TOL, f"reduced entropy {bits!r} bits is not whole")
    require(m == round(bits), f"compression length {m} != reduced entropy {bits!r} bits")


def check_conditional_one_qubit(h: float) -> None:
    require(-LOG2 - VALUE_TOL <= h <= LOG2 + VALUE_TOL, f"H(A|B) = {h!r} outside [-log 2, log 2]")


def check_distinguishability(beta: float, rho: np.ndarray, sigma: np.ndarray, n: int) -> None:
    """beta^r lies between its r = 0 value and the trace distance."""
    trace_distance = 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())
    floor = simple_effect_beta(rho, sigma, n)
    require(
        floor - VALUE_TOL <= beta <= trace_distance + VALUE_TOL,
        f"beta = {beta!r} outside [{floor!r}, trace distance {trace_distance!r}]",
    )


def check_pure_protocol_state(final: np.ndarray, phi: np.ndarray) -> None:
    worst = 0.0
    for lo in range(0, phi.size, 64):
        block = np.outer(phi[lo : lo + 64], phi.conj())
        worst = max(worst, float(np.abs(final[lo : lo + 64] - block).max()))
    require(worst <= STATE_TOL, f"protocol state off by {worst:.3g} from the statevector")


def check_reset_to_zero(final: np.ndarray, beta_work: float, n: int) -> None:
    expected_zero = np.zeros(final.shape[0], dtype=complex)
    expected_zero[0] = 1.0
    check_pure_protocol_state(final, expected_zero)
    require_close("beta W of a full RESET", beta_work, n * LOG2)
