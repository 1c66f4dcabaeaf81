"""Connection coefficients for Heun-class equations.

Computes the 2x2 matrix relating the normalized Frobenius solution bases at
the regular singular points z = 0 and z = 1 of the hypergeometric (HYP),
reduced confluent Heun (RCHE), confluent Heun (CHE), and Heun (HE) equations
in normal form, by four mutually verifying routes (continued fraction,
recurrence limit, large-order series asymptotics, numerical Wronskians),
together with the coupling-series coefficients of the connection constant,
closed-form references for the leading coefficients, and the lattice-walk
combinatorics underlying the series.

Entry points: build a spec with :func:`hyp_spec` / :func:`rche_spec` /
:func:`che_spec` / :func:`he_spec`, then call :func:`connection_matrix`;
see :mod:`heunconn.validation` for the consistency harness and
:mod:`heunconn.cli` for the command line.
"""

from .combinatorics import (
    compositions,
    enumerate_walk_types,
    log_a_series_from_traces,
    n_mu,
    trace_power,
    walk_type,
)
from .connection import (
    METHODS,
    ConnectionMatrix,
    connection_matrix,
    connection_scalar,
    det_residual,
    extract_sigma,
    fusion_cl,
    log_a_infinity_cf,
    schafke_schmidt_connection,
    tail_determinant_limit,
    wronskian_connection,
)
from .equations import (
    FAMILIES,
    EquationSpec,
    alpha_beta,
    canonical_recurrence_step,
    che_spec,
    coefficient_table,
    he_spec,
    hyp_spec,
    rche_spec,
    rescaled_a,
    u_lambda0_sequence,
    validate,
)
from .errors import (
    AccessoryResonance,
    CFBreakdown,
    DetCheckFailed,
    DomainError,
    FamilyFieldError,
    HeunConnError,
    JetDivByZero,
    MonodromyInconsistent,
    NonConvergence,
    OrderError,
    ParameterResonance,
    PoleError,
    RadiusError,
    ReflectionMismatch,
    ResonantExponents,
    SizeError,
    TailError,
)
from .frobenius import (
    FrobeniusSolution,
    convergence_radius,
    evaluate,
    evaluate_deriv,
    frobenius_series,
    local_basis,
    ode_residual,
    potential,
    wronskian,
)
from .perturbative import (
    Jet,
    c1_closed_he,
    c1_closed_rche,
    c2_closed_rche,
    c_coefficients,
    f1_closed_he,
    jet_add,
    jet_div,
    jet_exp,
    jet_from_scalar,
    jet_log,
    jet_mul,
    jet_scale,
    jet_sub,
    jet_variable,
    sigma1_closed,
)
from .precision import (
    DOUBLE,
    HIGH,
    default_precision,
    spec_to_precision,
)
from .richardson import extrapolate, geometric_ladder
from .special import digamma, gamma, log_gamma, pochhammer, polygamma
from .validation import (
    CheckConfig,
    CheckResult,
    ValidationReport,
    full_report,
    verify_che_as_he_limit,
    verify_connection_identity,
    verify_reflection,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # families and specs
    "FAMILIES",
    "EquationSpec",
    "hyp_spec",
    "rche_spec",
    "che_spec",
    "he_spec",
    "validate",
    "alpha_beta",
    "coefficient_table",
    "canonical_recurrence_step",
    "u_lambda0_sequence",
    "rescaled_a",
    # connection problem
    "METHODS",
    "ConnectionMatrix",
    "connection_matrix",
    "connection_scalar",
    "fusion_cl",
    "log_a_infinity_cf",
    "wronskian_connection",
    "schafke_schmidt_connection",
    "extract_sigma",
    "tail_determinant_limit",
    "det_residual",
    # series solutions
    "FrobeniusSolution",
    "frobenius_series",
    "local_basis",
    "evaluate",
    "evaluate_deriv",
    "wronskian",
    "ode_residual",
    "potential",
    "convergence_radius",
    # coupling series
    "Jet",
    "jet_from_scalar",
    "jet_variable",
    "jet_add",
    "jet_sub",
    "jet_scale",
    "jet_mul",
    "jet_div",
    "jet_log",
    "jet_exp",
    "c_coefficients",
    "c1_closed_rche",
    "c2_closed_rche",
    "sigma1_closed",
    "f1_closed_he",
    "c1_closed_he",
    # walk combinatorics
    "compositions",
    "walk_type",
    "n_mu",
    "enumerate_walk_types",
    "trace_power",
    "log_a_series_from_traces",
    # special functions and numerics
    "gamma",
    "log_gamma",
    "digamma",
    "polygamma",
    "pochhammer",
    "extrapolate",
    "geometric_ladder",
    "DOUBLE",
    "HIGH",
    "default_precision",
    "spec_to_precision",
    # validation harness
    "CheckResult",
    "CheckConfig",
    "ValidationReport",
    "verify_connection_identity",
    "verify_che_as_he_limit",
    "verify_reflection",
    "full_report",
    # errors
    "HeunConnError",
    "PoleError",
    "OrderError",
    "ResonantExponents",
    "DomainError",
    "FamilyFieldError",
    "AccessoryResonance",
    "RadiusError",
    "TailError",
    "CFBreakdown",
    "NonConvergence",
    "DetCheckFailed",
    "MonodromyInconsistent",
    "JetDivByZero",
    "ParameterResonance",
    "SizeError",
    "ReflectionMismatch",
]
