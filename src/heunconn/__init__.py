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
:mod:`heunconn.cli` for the command line.  The package re-exports the
``__all__`` of each module below.
"""

from . import (
    combinatorics, connection, equations, errors, frobenius, perturbative, precision,
    richardson, special, validation,
)
from .combinatorics import *  # noqa: F403
from .connection import *  # noqa: F403
from .equations import *  # noqa: F403
from .errors import *  # noqa: F403
from .frobenius import *  # noqa: F403
from .perturbative import *  # noqa: F403
from .precision import *  # noqa: F403
from .richardson import *  # noqa: F403
from .special import *  # noqa: F403
from .validation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (combinatorics, connection, equations, errors, frobenius, perturbative,
                   precision, richardson, special, validation)
    for name in module.__all__
]
