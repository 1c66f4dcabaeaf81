"""The library names the benchmark's tracer binds by name must exist.

``perfbench/tracing.py`` looks up every function of its ``TARGETS`` table in
the ``heunconn`` modules and rebinds it; a rename or deletion in the library
would break the traced benchmark without failing any other test.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "heunconn" or name.startswith("heunconn."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_resolves_every_target_and_restores_the_bindings(tracing):
    originals = {}
    for mod_name, fn_name, _, _ in tracing.TARGETS:
        module = importlib.import_module("heunconn." + mod_name)
        assert hasattr(module, fn_name), f"heunconn.{mod_name}.{fn_name}"
        originals[mod_name, fn_name] = module, getattr(module, fn_name)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod_name, fn_name), (module, fn) in originals.items():
            assert getattr(module, fn_name) is not fn, f"{mod_name}.{fn_name} not wrapped"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
