"""The package namespace: every public name resolves, on first use, to the object
its defining module holds at that moment."""

import importlib
import math

import pytest

import ecpsim
from ecpsim import BasisKet, Direction, PhotonLabel, Polarization, SpinLabel, Station, StateVector, errors
from ecpsim.cavity import detect, hwp45

_DEFINING_MODULE = {
    name: module
    for module in ("analytics", "cavity", "errors", "hilbert", "oracle", "protocol")
    for name, obj in vars(importlib.import_module(f"ecpsim.{module}")).items()
    if getattr(obj, "__module__", None) == f"ecpsim.{module}" and not name.startswith("_")
}


@pytest.mark.parametrize("name", ecpsim.__all__)
def test_each_public_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"ecpsim.{_DEFINING_MODULE[name]}")
    assert getattr(ecpsim, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(ecpsim.__all__) <= set(dir(ecpsim))
    assert "__version__" in dir(ecpsim)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ecpsim import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(ecpsim.__all__)
    assert all(namespace[name] is getattr(ecpsim, name) for name in ecpsim.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        ecpsim.nope
    assert not hasattr(ecpsim, "nope")


def test_from_import_of_a_submodule_gives_the_submodule():
    from ecpsim import oracle

    assert oracle is importlib.import_module("ecpsim.oracle")


def test_version_is_unchanged():
    assert ecpsim.__version__ == "0.1.0"


def test_a_patched_function_shows_through_the_package_and_is_gone_after_undo():
    from ecpsim import protocol

    original = protocol.run_protocol

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("ecpsim.protocol.run_protocol", patched)
        assert ecpsim.run_protocol is patched
    assert ecpsim.run_protocol is original
    assert "run_protocol" not in vars(ecpsim)


def _photon_state(polarization):
    return StateVector({BasisKet(PhotonLabel(polarization, Direction.MINUS_Z), (SpinLabel.UP,)): 1.0})


# One public call per named error, each raising exactly that class: an error class
# that no input reaches has no entry here.
RAISED_BY = {
    "ZeroStateError": lambda: StateVector({}).normalize(),
    "ShapeMismatchError": lambda: StateVector({BasisKet.from_spins("u"): 1.0, BasisKet.from_spins("uu"): 1.0}),
    "LinearBasisPhotonError": lambda: hwp45(_photon_state(Polarization.H)),
    "CircularBasisPhotonError": lambda: detect(_photon_state(Polarization.R), Station.ALICE),
    "InvalidCoefficientsError": lambda: ecpsim.WCoefficients(0.5, 0.5, 0.5),
    "DegenerateCoefficientsError": lambda: ecpsim.coefficient_update_alice(ecpsim.WCoefficients(0.0, 0.0, 1.0)),
    "DomainError": lambda: ecpsim.p1_round(0, ecpsim.WCoefficients.symmetric()),
    "ConfigError": lambda: ecpsim.ProtocolConfig(n_shots=-1),
}


def test_every_named_error_has_a_raising_call():
    named = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.EcpError)}
    assert set(RAISED_BY) == named - {"EcpError"}


@pytest.mark.parametrize("name", sorted(RAISED_BY))
def test_each_named_error_is_raised_by_a_public_call(name):
    with pytest.raises(errors.EcpError) as info:
        RAISED_BY[name]()
    assert type(info.value) is getattr(errors, name)


def test_float_sums_are_a_left_fold_from_zero():
    # A compensated sum, which built-in sum() is from Python 3.12 on, keeps the 1.0s.
    values = [1.0, 1e100, 1.0, -1e100]
    assert errors._left_sum(values) == 0.0
    assert math.fsum(values) == 2.0
    assert type(errors._left_sum(())) is float
