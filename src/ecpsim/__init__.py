"""Exact simulator and closed-form calculator for a three-spin W-state
concentration protocol built on photon-spin parity gates.

The simulation route (:mod:`ecpsim.protocol`) tracks amplitudes through the
gates and measurements; the analytic route (:mod:`ecpsim.analytics`)
evaluates the per-round and total success probabilities in closed form.
:mod:`ecpsim.oracle` holds the machinery that checks the two routes against
each other.
"""

from .analytics import (
    CurvePoint,
    SweepSpec,
    p1_round,
    p1_total,
    p2_round,
    p2_simplified,
    p2_total,
    practical_p1,
    practical_p2,
    practical_total,
    pt_one_round,
    sweep,
    write_sweep_csv,
)
from .cavity import (
    CavityParams,
    DenominatorConvention,
    DetectorLabel,
    LossyOperators,
    ScatterCoefficients,
    Station,
    scatter_coefficients,
)
from .errors import (
    CircularBasisPhotonError,
    ConfigError,
    DegenerateCoefficientsError,
    DomainError,
    EcpError,
    InvalidCoefficientsError,
    LinearBasisPhotonError,
    RoutingError,
    ShapeMismatchError,
    ZeroStateError,
)
from .hilbert import (
    BasisKet,
    Direction,
    PhotonLabel,
    Polarization,
    SpinLabel,
    StateVector,
)
from .oracle import (
    BranchNode,
    ComparisonReport,
    compare_all,
    enumerate_tree,
    simplex_grid,
)
from .protocol import (
    BranchRecord,
    OutcomeClass,
    ProtocolConfig,
    ProtocolTrace,
    RoundOutcome,
    WCoefficients,
    WState,
    alice_round,
    charlie_round,
    coefficient_update_alice,
    coefficient_update_charlie,
    prepare_w_state,
    run_protocol,
)

__all__ = [
    "BasisKet",
    "BranchNode",
    "BranchRecord",
    "CavityParams",
    "CircularBasisPhotonError",
    "ComparisonReport",
    "ConfigError",
    "CurvePoint",
    "DegenerateCoefficientsError",
    "DenominatorConvention",
    "DetectorLabel",
    "Direction",
    "DomainError",
    "EcpError",
    "InvalidCoefficientsError",
    "LinearBasisPhotonError",
    "LossyOperators",
    "OutcomeClass",
    "PhotonLabel",
    "Polarization",
    "ProtocolConfig",
    "ProtocolTrace",
    "RoundOutcome",
    "RoutingError",
    "ScatterCoefficients",
    "ShapeMismatchError",
    "SpinLabel",
    "Station",
    "StateVector",
    "SweepSpec",
    "WCoefficients",
    "WState",
    "ZeroStateError",
    "alice_round",
    "charlie_round",
    "coefficient_update_alice",
    "coefficient_update_charlie",
    "compare_all",
    "enumerate_tree",
    "p1_round",
    "p1_total",
    "p2_round",
    "p2_simplified",
    "p2_total",
    "practical_p1",
    "practical_p2",
    "practical_total",
    "prepare_w_state",
    "pt_one_round",
    "run_protocol",
    "scatter_coefficients",
    "simplex_grid",
    "sweep",
    "write_sweep_csv",
]

__version__ = "0.1.0"
