"""Complexity-restricted one-shot entropies and thermodynamic erasure at desk
scale: exact enumeration over finite gate sets, certified bounds otherwise."""

from .cxentropy import (
    ConditionalSpec,
    EntropyEstimate,
    conditional_cx_entropy,
    cx_entropy,
    cx_relative_entropy,
    distinguishability_beta,
    hypothesis_test_witness,
    success_probability,
)
from .entropies import (
    HypTestResult,
    binary_entropy,
    hyp_entropy,
    hyp_relative_entropy,
    mutual_information,
    umegaki_relative,
    von_neumann,
)
from .errors import BudgetExceededError, ConfigError, ProtocolError, RegisterMismatchError
from .gates import (
    Circuit,
    Gate,
    GateSet,
    apply_circuit,
    default_gate_set,
    entangling_power,
    gibbs_check,
    parse_gate_set,
    pullback_effect,
)
from .registers import (
    DensityOperator,
    HermitianOperator,
    PovmEffect,
    QubitRegister,
    fidelity,
    ghz_state,
    hermitian_eig,
    maximally_mixed,
    ones_state,
    partial_trace,
    register,
    state_distance,
    tensor,
    trace_distance,
    zero_state,
)
from .sampling import sample_density, sample_haar_unitary, sample_pure_state, task_rng
from .search import approx_state_complexity, circuit_complexity, enumerate_effects
from .thermo import (
    CostLedger,
    ErasureResult,
    Extract,
    GateStep,
    Protocol,
    Reset,
    ThermalModel,
    compression_search,
    erasure_search,
    g_lower_bound,
    gibbs_preserving_gate_set,
    lift_midcircuit,
    run_protocol,
)

__version__ = "0.1.0"
