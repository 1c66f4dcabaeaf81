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
``__all__`` of each module of :data:`_MODULES`.

``import heunconn`` loads only :mod:`~heunconn.errors`,
:mod:`~heunconn.equations` and :mod:`~heunconn.precision`: the spec
constructors, the named errors and the precision switch.  The first use of
any other public name loads the other modules (PEP 562); a submodule named
as an attribute, as ``from heunconn import cli`` does, loads alone.
"""

import importlib

from . import equations, errors, precision
from .equations import *  # noqa: F403
from .errors import *  # noqa: F403
from .precision import *  # noqa: F403

__version__ = "0.1.0"

# The modules whose __all__ the package re-exports, in the order of __all__.
_MODULES = (
    "combinatorics", "connection", "equations", "errors", "frobenius", "perturbative",
    "precision", "richardson", "special", "validation",
)


def _all() -> list:
    """``__all__``.  The first call loads the modules not yet loaded and binds
    their names here, as ``from .x import *`` would, so that later lookups
    find them without this module's ``__getattr__``."""
    if "__all__" not in globals():
        names = ["__version__"]
        for module_name in _MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            for name in module.__all__:
                globals().setdefault(name, getattr(module, name))
            names += module.__all__
        globals()["__all__"] = names
    return globals()["__all__"]


def __getattr__(name: str):
    if name == "__all__":
        return _all()
    if not name.startswith("__"):
        try:  # a submodule loads alone
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        if name in _all():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_all()})
