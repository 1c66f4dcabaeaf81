"""The package namespace: each public name is defined in one module's
``__all__`` and re-exported unchanged, and a call loads only the modules
it needs."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import heunconn

# heunconn.__all__ before it was built from the modules' lists, less
# "__version__": no name may leave it.
PUBLIC = {
    "FAMILIES", "EquationSpec", "hyp_spec", "rche_spec", "che_spec", "he_spec", "validate",
    "alpha_beta", "coefficient_table", "canonical_recurrence_step", "u_lambda0_sequence",
    "rescaled_a", "METHODS", "ConnectionMatrix", "connection_matrix", "connection_scalar",
    "fusion_cl", "log_a_infinity_cf", "wronskian_connection", "schafke_schmidt_connection",
    "extract_sigma", "tail_determinant_limit", "det_residual", "FrobeniusSolution",
    "frobenius_series", "local_basis", "evaluate", "evaluate_deriv", "wronskian",
    "ode_residual", "potential", "convergence_radius", "Jet", "jet_from_scalar",
    "jet_variable", "jet_add", "jet_sub", "jet_scale", "jet_mul", "jet_div", "jet_log",
    "jet_exp", "c_coefficients", "c1_closed_rche", "c2_closed_rche", "sigma1_closed",
    "f1_closed_he", "c1_closed_he", "compositions", "walk_type", "n_mu",
    "enumerate_walk_types", "trace_power", "log_a_series_from_traces", "gamma", "log_gamma",
    "digamma", "polygamma", "pochhammer", "extrapolate", "geometric_ladder", "DOUBLE", "HIGH",
    "default_precision", "spec_to_precision", "CheckResult", "CheckConfig",
    "ValidationReport", "verify_connection_identity", "verify_che_as_he_limit",
    "verify_reflection", "full_report", "HeunConnError", "PoleError", "OrderError",
    "ResonantExponents", "DomainError", "FamilyFieldError", "AccessoryResonance",
    "RadiusError", "TailError", "CFBreakdown", "NonConvergence", "DetCheckFailed",
    "MonodromyInconsistent", "JetDivByZero", "ParameterResonance", "SizeError",
    "ReflectionMismatch",
}


def _module_lists() -> dict:
    """``__all__`` of every module of the package that has one."""
    lists = {}
    for info in pkgutil.iter_modules(heunconn.__path__):
        module = importlib.import_module(f"heunconn.{info.name}")
        if hasattr(module, "__all__"):
            lists[module] = module.__all__
    return lists


def test_no_public_name_leaves_the_package():
    assert len(PUBLIC) == 89
    assert PUBLIC <= set(heunconn.__all__)
    assert "__version__" in heunconn.__all__
    assert len(set(heunconn.__all__)) == len(heunconn.__all__)


def test_each_exported_name_is_its_modules_object():
    home = {name: module for module, names in _module_lists().items() for name in names}
    for name in heunconn.__all__:
        if name != "__version__":
            assert getattr(heunconn, name) is getattr(home[name], name), name


def test_no_name_is_in_two_modules_lists():
    seen = {}
    for module, names in _module_lists().items():
        assert len(set(names)) == len(names), module.__name__
        for name in names:
            assert name not in seen, (name, seen.get(name), module.__name__)
            seen[name] = module.__name__


def test_star_import_and_dir_are_complete():
    namespace: dict = {}
    exec("from heunconn import *", namespace)
    assert set(heunconn.__all__) <= namespace.keys()
    assert set(heunconn.__all__) <= set(dir(heunconn))


# ---------------------------------------------------------------------------
# Import footprint, each case in a fresh interpreter.

SRC = os.path.dirname(os.path.dirname(heunconn.__file__))
# The modules that neither `import heunconn` nor the parser needs.
ROUTES = {"connection", "tails", "special", "frobenius", "fixedpoint", "validation",
          "perturbative", "combinatorics", "richardson"}
RCHE = ["--family", "rche", "--theta0", "0.1", "--theta1", "0.2", "--omega", "0.3",
        "--lambda", "0.1"]


def _loaded(code: str) -> tuple[set, bool]:
    """The heunconn submodules loaded after ``code``, and whether mpmath is."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps([[m[9:] for m in sys.modules if m.startswith('heunconn.')],"
        " 'mpmath' in sys.modules]))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    modules, mpmath = json.loads(run.stdout.splitlines()[-1])
    return set(modules), mpmath


def _cli(*argv: str) -> str:
    return (
        "import contextlib, io\nfrom heunconn import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
    )


@pytest.mark.parametrize("code", [
    "import heunconn\nheunconn.rche_spec(0.1, 0.2, 0.3, 0.1)",
    "import heunconn.cli",
    "from heunconn import cli",
])
def test_import_and_parser_load_the_core_alone(code):
    modules, mpmath = _loaded(code)
    assert not modules & ROUTES and not mpmath, modules


def test_binary64_connect_loads_its_route_alone():
    modules, mpmath = _loaded(_cli("connect", *RCHE))
    assert "connection" in modules
    assert not modules & {"frobenius", "fixedpoint", "validation", "perturbative",
                          "combinatorics"} and not mpmath, modules


def test_binary64_expand_loads_its_route_alone():
    modules, mpmath = _loaded(_cli("expand", *RCHE))
    assert "perturbative" in modules
    assert not modules & {"connection", "frobenius", "validation"} and not mpmath, modules


@pytest.mark.parametrize("flags", [["--method", "ss"], ["--precision", "high"]])
def test_mpmath_loads_where_a_call_needs_it(flags):
    assert _loaded(_cli("connect", *RCHE, *flags))[1]


def test_is_mp_needs_no_mpmath():
    code = (
        "from heunconn.precision import is_mp\n"
        "assert not is_mp(0.5) and not is_mp(0.5j)\n"
        "import sys\nassert 'mpmath' not in sys.modules\n"
        "import mpmath\nassert is_mp(mpmath.mpf(1)) and is_mp(mpmath.mpc(1, 1))\n"
        "assert not is_mp(0.5)"
    )
    assert _loaded(code)[1]


def test_startup_tool_runs():
    # The CI digest job reports this tool's output at the base and the change.
    script = os.path.join(os.path.dirname(SRC), "tools", "startup.py")
    run = subprocess.run([sys.executable, script, "--src", SRC, "--runs", "1", "--json"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    cases = json.loads(run.stdout)[SRC]
    assert list(cases) == ["import", "connect", "expand", "verify"]
    assert cases["import"]["modules"] == ["equations", "errors", "precision"]
    assert [cases[c]["mpmath"] for c in cases] == [False, False, False, True]
    assert all(len(c["runs_ms"]) == 1 and c["median_ms"] > 0 for c in cases.values())
