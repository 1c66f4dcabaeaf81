"""The package namespace: each public name is defined in one module's
``__all__`` and re-exported unchanged."""

from __future__ import annotations

import importlib
import pkgutil

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
