"""The library names the benchmark's tracer binds by name must exist, and
the traced ops must run.

``perfbench/tracing.py`` looks up every function of its ``TARGETS`` table in
the ``heunconn`` modules and rebinds it; a rename or deletion in the library
would break the traced benchmark without failing any other test, and so
would a changed call shape of a function whose arguments a probe reads.
"""

from __future__ import annotations

import importlib
import math
import numbers
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heunconn as hc

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_traced_ops_give_finite_metrics(tracing, request):
    # One op of each shape the benchmark's workloads time, called through
    # the heunconn namespace, which the tracer rebinds.
    rche, che, he, hyp = (
        request.getfixturevalue(f"{f}_example") for f in ("rche", "che", "he", "hyp")
    )
    ops = [
        lambda: hc.connection_matrix(rche, "cf"),
        lambda: hc.connection_matrix(che, "recurrence"),
        lambda: hc.connection_matrix(he, "wronskian"),
        lambda: hc.connection_matrix(he, "ss"),
        lambda: hc.c_coefficients(che, 6),
        lambda: hc.log_a_series_from_traces(rche, 3),
        lambda: hc.full_report(he, hc.CheckConfig(include_slow=False)),
        lambda: hc.extract_sigma(hc.connection_matrix(hyp)),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            tracer.run_op(op_id, op)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, {})
    assert tracer.ops == len(ops) and metrics
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, numbers.Real) and math.isfinite(value), (name, value)


def test_output_digest_tool_runs():
    # The tool reads the workloads by name; a digest is the same in two processes.
    script = ROOT / "tools" / "output_digest.py"

    def digests(*args):
        run = subprocess.run(
            [sys.executable, str(script), "--seed", "3", *args],
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout.splitlines()

    lines = digests()
    assert [line.split()[0] for line in lines] == ["scan", "verify", "expand", "closed"]
    assert all(re.fullmatch(r"\w+ [1-9]\d* [0-9a-f]{64}", line) for line in lines)
    assert digests("--workload", "expand") == [lines[2]]
