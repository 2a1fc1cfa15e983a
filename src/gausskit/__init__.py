"""Gaussian quantum state preparation: circuit synthesis, simulation, and
Clifford+T resource estimation for exponential-window block-encodings."""

from .circuit import Circuit, Layer, LayeredCircuit, MeasureBarrier, validate
from .builders import (
    build_exponential,
    build_full_gaussian,
    build_gaussian_2d,
    build_half_gaussian,
    build_poly_phase,
    layered_full_gaussian,
)
from .expansion import MonomialExpansion, monomial_coefficients
from .gates import (
    Control,
    Gate,
    GateKind,
    GaussianSpec,
    ParameterError,
)
from .optimizer import (
    ErrorBudget,
    OrderingPlan,
    alpha_matching_gate_error,
    expected_t_depth,
    order_layers,
    pack_layers,
    prune_circuit,
    prune_layered,
    qubit_threshold,
)
from .resources import (
    EstimateReport,
    estimate,
    layered_t_depth,
    rotation_t_cost,
)
from .simulator import (
    CapacityError,
    RusStats,
    SimReport,
    StateVector,
    ideal_exponential,
    ideal_gaussian,
    ideal_gaussian_2d,
    ideal_half_gaussian,
    ideal_phase_state,
    l2_error,
    simulate_exact,
    simulate_postselected,
)
from . import textio

__version__ = "0.1.0"
