"""Deterministic invariant battery behind the `selftest` subcommand.

Each check recomputes a known identity from fixed seeds; output lines are
formatted canonically so the report is byte-identical for any thread count.
"""

from __future__ import annotations

import math

import numpy as np

from .cxentropy import cx_entropy
from .entropies import LOG2, hyp_entropy, hyp_relative_entropy, von_neumann
from .gates import default_gate_set, entangling_power, Z, I2
from .registers import (
    DensityOperator,
    HermitianOperator,
    QubitRegister,
    ghz_state,
    maximally_mixed,
    partial_trace,
    register,
    tensor,
    zero_state,
)
from .reporting import fmt_value
from .sampling import sample_density, sample_haar_unitary, task_rng
from .thermo import ThermalModel, erasure_search


def run_selftest(seed: int = 0, threads: int = 1) -> list[str]:
    lines: list[str] = []

    def check(name: str, ok: bool, value: float):
        lines.append(f"{'ok' if ok else 'FAIL'} {name} {fmt_value(float(value))}")

    # tensor / partial trace round trip
    a = sample_density(1, 2, seed, 1)
    b_raw = sample_density(1, 1, seed, 2)
    b = DensityOperator(QubitRegister(("r0",)), b_raw.matrix)
    ab = tensor(a, b)
    back = partial_trace(ab, [a.register.labels[0]])
    err = float(np.abs(back.matrix - a.matrix * b.trace()).max())
    check("partial-trace-tensor", err < 1e-12, err)

    # haar sampling determinism
    u1 = sample_haar_unitary(4, seed, 7)
    u2 = sample_haar_unitary(4, seed, 7)
    same = bool(np.array_equal(u1, u2))
    check("haar-determinism", same, 0.0 if same else 1.0)

    # hypothesis-testing solver: diagonal worked value and duality gap
    rho = DensityOperator(register(1), np.diag([0.7, 0.3]).astype(complex))
    res = hyp_entropy(rho, 0.7)
    expected = math.log(1.0 / 0.7)
    check("hyp-entropy-diagonal", abs(res.value - expected) < 1e-9, res.value)
    gaps = []
    for t in range(5):
        rng = task_rng(seed, 100 + t)
        d = 4
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gamma = HermitianOperator(register(2), g @ g.conj().T / d)
        state = sample_density(2, 4, seed, 200 + t)
        r = hyp_relative_entropy(state, gamma, 0.8)
        gaps.append(abs(r.primal_value - r.dual_value))
    check("hyp-duality-gap", max(gaps) < 1e-8, max(gaps))

    # pinching partial order
    worst = 0.0
    for t in range(5):
        rho_xy = sample_density(2, 3, seed, 300 + t)
        rho_y = partial_trace(rho_xy, [rho_xy.register.labels[1]])
        gap = np.kron(np.eye(2), rho_y.matrix) - rho_xy.matrix / 2.0
        worst = min(worst, float(np.linalg.eigvalsh(gap).min()))
    check("pinching-order", worst > -1e-9, worst)

    # complexity entropy worked example: GHZ_3 at r = 1
    gs = default_gate_set()
    est = cx_entropy(ghz_state(3), gs, 1, 0.999, threads=threads)
    check("cx-entropy-ghz3", abs(est.value - 2 * LOG2) < 1e-9, est.value / LOG2)

    # erasure equality with the reduced complexity entropy
    worst_eq = 0.0
    for t in range(3):
        state = sample_density(2, 2, seed, 400 + t)
        model = ThermalModel.degenerate(2)
        res_e = erasure_search(state, model, gs, 1, 0.9)
        red = cx_entropy(state, gs, 1, 0.9, reduced=True, threads=threads)
        worst_eq = max(worst_eq, abs(res_e.beta_work - red.value))
    check("erasure-reduced-entropy", worst_eq < 1e-9, worst_eq)

    # entangling power exact values
    e_z, dia_z = entangling_power(np.kron(Z, I2))
    ok = abs(e_z - math.pi / 2) < 1e-9 and abs(dia_z - 1.0) < 1e-9
    check("entangling-power-z", ok, dia_z)

    # entropy sanity
    check("von-neumann-maxmixed", abs(von_neumann(maximally_mixed(2)) - 2 * LOG2) < 1e-12,
          von_neumann(maximally_mixed(2)))
    check("von-neumann-pure", von_neumann(zero_state(2)) < 1e-12, von_neumann(zero_state(2)))
    return lines
