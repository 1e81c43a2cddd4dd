"""Exact simulator and closed-form calculator for a three-spin W-state
concentration protocol built on photon-spin parity gates.

The simulation route (:mod:`ecpsim.protocol`) tracks amplitudes through the
gates and measurements; the analytic route (:mod:`ecpsim.analytics`)
evaluates the per-round and total success probabilities in closed form.
:mod:`ecpsim.oracle` holds the machinery that checks the two routes against
each other.

``import ecpsim`` loads no submodule, and ``import ecpsim.cli`` adds only
``errors``.  Each public name, ``ecpsim.<name>`` or ``from ecpsim import
<name>``, imports the module that defines it on first use and is read from
that module on every access, never copied here.  Each subcommand imports
what it runs when it runs: ``coeffs`` loads ``cavity``, tree ``simulate``
also ``protocol``, Monte Carlo ``simulate`` also ``sampling`` and numpy,
``sweep`` ``protocol`` and ``analytics``, and ``verify`` those and
``oracle``, the one module that imports ``dataclasses``.  No subcommand loads
``hilbert``, the reference route's general states.
"""

# The public names, by the submodule that defines them.
_EXPORTS = {
    "analytics": (
        "CurvePoint", "SweepSpec", "p1_round", "p1_total", "p2_round", "p2_simplified",
        "p2_total", "practical_p1", "practical_p2", "practical_total", "pt_one_round",
        "sweep", "write_sweep_csv",
    ),
    "cavity": (
        "CavityParams", "DenominatorConvention", "DetectorLabel", "Direction", "LossyOperators",
        "Polarization", "ScatterCoefficients", "SpinLabel", "Station", "scatter_coefficients",
    ),
    "errors": (
        "CircularBasisPhotonError", "ConfigError", "DegenerateCoefficientsError",
        "DomainError", "EcpError", "InvalidCoefficientsError", "LinearBasisPhotonError",
        "ShapeMismatchError", "ZeroStateError",
    ),
    "hilbert": ("BasisKet", "PhotonLabel", "StateVector"),
    "oracle": ("BranchNode", "ComparisonReport", "compare_all", "enumerate_tree", "simplex_grid"),
    "protocol": (
        "BranchRecord", "OutcomeClass", "ProtocolConfig", "ProtocolTrace", "RoundOutcome",
        "WCoefficients", "WState", "alice_round", "charlie_round", "coefficient_update_alice",
        "coefficient_update_charlie", "prepare_w_state", "run_protocol",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
