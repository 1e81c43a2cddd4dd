"""The package namespace: every public name resolves, on first use, to the object
its defining module holds at that moment."""

import importlib

import pytest

import ecpsim

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
