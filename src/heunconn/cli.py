"""Command-line front end: ``connect``, ``verify``, ``expand``, ``walks``.

Outputs are machine-readable (json/csv) or human-readable (text); every
JSON output echoes the flags the subcommand takes.  JSON uses the versioned
schema ``heun-connect/1`` with complex numbers as ``[re, im]`` pairs and all
floats printed to 17 significant digits, so parsing and re-emitting is
idempotent at binary64.

Exit codes: 0 success, 1 computational failure (the error name goes to
stderr), 2 usage error (bad flags, missing family fields, order caps).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import tempfile
from dataclasses import fields
from typing import Any, Optional

from . import __version__
from .combinatorics import compositions, enumerate_walk_types, n_mu
from .connection import _KEYS, METHODS, connection_matrix, det_residual
from .equations import _REQUIRED, FAMILIES, EquationSpec, validate
from .errors import FamilyFieldError, HeunConnError, SizeError
from .perturbative import CLOSED_FORMS, c_coefficients
from .precision import DOUBLE, HIGH, default_precision, spec_to_precision
from .validation import CheckConfig, CheckResult, full_report

SCHEMA = "heun-connect/1"

# Flags echoed under "config", where the subcommand takes them.
_ECHO = ("method", "tol", "max_depth", "precision", "output")


# ---------------------------------------------------------------------------
# parsing helpers


def parse_complex(text: str):
    """Complex flag literal: ``0.1`` (real) or ``0.1+0.05i``."""
    s = text.strip().replace(" ", "")
    if s.endswith("i"):  # the imaginary unit; "inf" and "infinity" keep their i
        s = s[:-1] + "j"
    try:
        val = complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a real or a+bi complex literal: {text!r}")
    return val.real if val.imag == 0.0 else val


_FAMILY_ALIASES = {**{name.lower(): name for name in FAMILIES}, "heun": "HE"}


# The flag (argparse dest) of each family field of ``equations._REQUIRED``.
_FIELD_FLAGS = {"omega": "omega", "theta_t": "thetat", "theta_inf": "thetainf",
                "theta_star": "thetastar", "theta_inf_hyp": "thetainf"}


def build_spec(args: argparse.Namespace) -> EquationSpec:
    family = _FAMILY_ALIASES[args.family.lower()]
    lam = args.lam if args.lam is not None else 0.0
    if family == "HYP" and lam:
        raise FamilyFieldError("HYP has no coupling; drop --lambda")
    fields = {name: getattr(args, _FIELD_FLAGS[name]) for name in _REQUIRED[family]}
    return validate(EquationSpec(family, args.theta0, args.theta1, lam, **fields))


def _spec_params(spec: EquationSpec) -> dict:
    out: dict = {"theta0": spec.theta0, "theta1": spec.theta1}
    if spec.family != "HYP":
        out["lambda"] = spec.lam
    for name in _REQUIRED[spec.family]:
        out["theta_inf" if name == "theta_inf_hyp" else name] = getattr(spec, name)
    return out


def _header(command: str, spec: EquationSpec) -> dict:
    """The first keys of a ``command`` payload on ``spec``."""
    return {"schema": SCHEMA, "command": command, "family": spec.family,
            "params": _spec_params(spec)}


# ---------------------------------------------------------------------------
# output formatting


def format_float(x: float) -> str:
    """17 significant digits: bit-faithful round-trip at binary64."""
    return "%.17g" % x


def _json_scalar(v: Any) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return format_float(v)
        return "null"
    if isinstance(v, complex):
        return f"[{format_float(v.real)}, {format_float(v.imag)}]"
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"not JSON-serializable here: {type(v)}")


def _is_scalar(v: Any) -> bool:
    return v is None or isinstance(v, (bool, int, float, complex, str))


def dump_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON emitter with fixed float formatting."""
    pad = "  " * indent
    if _is_scalar(obj):
        return _json_scalar(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {_json_scalar(str(k))}: {dump_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(_is_scalar(v) and not isinstance(v, str) for v in seq):
            return "[" + ", ".join(_json_scalar(v) for v in seq) + "]"
        items = [f"{pad}  {dump_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"not JSON-serializable here: {type(obj)}")


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, complex):
        return f"{format_float(v.real)}{'+' if v.imag >= 0 else '-'}{format_float(abs(v.imag))}i"
    s = str(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _csv(rows: list) -> str:
    return "\n".join(",".join(_csv_cell(c) for c in row) for row in rows) + "\n"


def _fmt_c(v: complex) -> str:
    return f"{format_float(v.real)} {'+' if v.imag >= 0 else '-'} {format_float(abs(v.imag))}i"


def _strip_runtimes(obj: Any) -> Any:
    """Golden files must be reproducible; wall-clock fields are zeroed."""
    if isinstance(obj, dict):
        return {
            k: (0.0 if k == "runtime" else _strip_runtimes(v)) for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_strip_runtimes(v) for v in obj]
    return obj


def _emit(args: argparse.Namespace, payload: dict, rows: list, lines: list) -> None:
    """Echo the flags into ``payload``, print it as ``--output`` asks, and
    write the ``--golden-out`` artifact atomically."""
    payload["config"] = {k: getattr(args, k) for k in _ECHO if hasattr(args, k)}
    if args.output == "json":
        sys.stdout.write(dump_json(payload) + "\n")
    elif args.output == "csv":
        sys.stdout.write(_csv(rows))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    if args.golden_out:
        golden = dump_json(_strip_runtimes(payload)) + "\n"
        directory = os.path.dirname(os.path.abspath(args.golden_out))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(golden)
            os.replace(tmp, args.golden_out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# subcommands


def cmd_connect(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    mat = connection_matrix(
        spec_to_precision(spec, args.precision),
        method=args.method,
        tol=args.tol,
        allow_large_coupling=args.allow_large_coupling,
        max_depth=args.max_depth,
    )
    entries = {k: complex(mat[k]) for k in _KEYS}
    det, resid = complex(mat.det()), float(det_residual(mat))
    payload = {
        **_header("connect", spec),
        "method": mat.method,
        "precision": args.precision,
        "depth": mat.depth_or_K,
        "est_error": mat.err_estimate,
        "C": entries,
        "det": det,
        "det_residual": resid,
    }
    rows = [["entry", "re", "im"]]
    rows += [[k, v.real, v.imag] for k, v in entries.items()]
    rows += [
        ["det", det.real, det.imag],
        ["det_residual", resid, 0.0],
        ["est_error", mat.err_estimate, 0.0],
    ]
    lines = [
        f"connection matrix  family={spec.family}  method={mat.method}  "
        f"precision={args.precision}",
        f"params: " + ", ".join(f"{k}={v}" for k, v in _spec_params(spec).items()),
    ]
    lines += [f"  C[{k}] = {_fmt_c(v)}" for k, v in entries.items()]
    lines += [
        f"  det    = {_fmt_c(det)}",
        f"  det residual {resid:.3e}   est error {mat.err_estimate:.3e}   "
        f"depth {mat.depth_or_K}",
    ]
    _emit(args, payload, rows, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    report = full_report(spec, CheckConfig(tol=args.tol, include_slow=not args.fast))
    payload = {
        **_header("verify", spec),
        "passed": report.passed,
        "checks": report.as_dict()["checks"],
    }
    rows = [[f.name for f in fields(CheckResult)]] + [list(c.values()) for c in payload["checks"]]
    _emit(args, payload, rows, [report.summary()])
    return 0 if report.passed else 1


def cmd_expand(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    table = []
    rows = [["n", "re", "im", "closed_re", "closed_im", "abs_diff"]]
    lines = [f"series coefficients of ln a_inf  family={spec.family}  N={args.order}"]
    forms = CLOSED_FORMS.get(spec.family, ())
    for n, c in enumerate(c_coefficients(spec, args.order), start=1):
        ref = forms[n - 1](spec) if n <= len(forms) else None
        diff = None if ref is None else abs(c - ref)
        table.append({"n": n, "c": c, "closed": ref, "diff": diff})
        rows.append([n, c.real, c.imag, None if ref is None else ref.real,
                     None if ref is None else ref.imag, diff])
        line = f"  c_{n} = {_fmt_c(c)}"
        if ref is not None:
            line += f"   closed {_fmt_c(ref)}   |diff| {diff:.3e}"
        lines.append(line)
    payload = {
        **_header("expand", spec),
        "N": args.order,
        "coefficients": table,
    }
    _emit(args, payload, rows, lines)
    return 0


def cmd_walks(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise SizeError(f"--n must be at least 1, got {n}")
    formula = {mu: n_mu(mu) for mu in compositions(n)}
    census = enumerate_walk_types(n) if n <= 8 else None
    total = sum(formula.values())
    binom = math.comb(2 * n, n)
    table = []
    rows = [["mu", "n_mu", "enumerated", "equal"]]
    lines = [f"walk types for n={n} ({len(formula)} compositions)"]
    for mu, count in formula.items():
        found = None if census is None else census.get(mu, 0)
        equal = None if census is None else found == count
        table.append({"mu": list(mu), "n_mu": count, "enumerated": found, "equal": equal})
        rows.append(["(" + " ".join(map(str, mu)) + ")", count, found, equal])
        mu_s = "(" + ",".join(map(str, mu)) + ")"
        line = f"  {mu_s:>16}  N_mu {count:>8}"
        if census is not None:
            line += f"   enumerated {found:>8}   equal {equal}"
        lines.append(line)
    rows.append(["sum", total, binom, total == binom])
    lines.append(
        f"  sum {total} vs binom(2n,n) {binom}: " + ("match" if total == binom else "MISMATCH")
    )
    payload = {
        "schema": SCHEMA,
        "command": "walks",
        "n": n,
        "types": table,
        "sum": total,
        "binomial": binom,
        "sum_matches_binomial": total == binom,
    }
    _emit(args, payload, rows, lines)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family",
        required=True,
        choices=sorted(_FAMILY_ALIASES),
        help="equation family (heun is an alias for he)",
    )
    sub.add_argument("--theta0", type=parse_complex, required=True,
                     help="exponent parameter at z=0")
    sub.add_argument("--theta1", type=parse_complex, required=True,
                     help="exponent parameter at z=1")
    sub.add_argument("--lambda", dest="lam", type=parse_complex, default=None,
                     help="coupling (default 0; HYP forbids it)")
    sub.add_argument("--omega", type=parse_complex, default=None,
                     help="spectral parameter (RCHE/CHE/HE)")
    sub.add_argument("--thetat", type=parse_complex, default=None,
                     help="exponent parameter at the movable point (HE)")
    sub.add_argument("--thetainf", type=parse_complex, default=None,
                     help="exponent parameter at infinity (HYP/HE)")
    sub.add_argument("--thetastar", type=parse_complex, default=None,
                     help="irregular-point parameter (CHE)")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", choices=("json", "csv", "text"), default="text",
                     help="output format (default text)")
    sub.add_argument("--golden-out", default=None, metavar="PATH",
                     help="also write a reproducible JSON artifact (runtimes zeroed)")


# Flags that take a number.  argparse reads only plain decimals such as "-0.3"
# as negative numbers, and any other value that starts with "-" ("-1e-3",
# "-inf", "-0.3+0.01i") as an option.
_NUMBER_FLAGS = {"--theta0", "--theta1", "--lambda", "--omega", "--thetat", "--thetainf",
                 "--thetastar", "--tol", "--max-depth", "--order", "--n"}


def _join_negative_values(argv: list) -> list:
    """``argv`` with each number flag and a following negative number joined
    into one ``--flag=value`` argument, the form argparse reads as a value."""
    out: list = []
    for arg in argv:
        if out and out[-1] in _NUMBER_FLAGS and arg.startswith("-"):
            with contextlib.suppress(argparse.ArgumentTypeError):  # no number: an option
                parse_complex(arg)
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


@functools.cache  # built on first use, then shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heunconn",
        description="Connection matrices between Frobenius bases at z=0 and z=1 "
        "for the Heun family of equations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("connect", help="compute the 2x2 connection matrix")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--method", choices=METHODS, default="cf",
                   help="route (default cf)")
    p.add_argument("--precision", choices=(DOUBLE, HIGH), default=None,
                   help="working precision; default from HEUN_PRECISION or double")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="largest error estimate the cf/recurrence routes accept (default 1e-10)")
    p.add_argument("--max-depth", type=int, default=2**20,
                   help="cap on the sweep depth K of the cf/recurrence/ss routes (default 2^20)")
    p.add_argument("--allow-large-coupling", action="store_true",
                   help="bypass the |lambda| < 0.9 safety gate")
    p.set_defaults(func=cmd_connect)

    p = subs.add_parser("verify", help="run the consistency-check suite")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--tol", type=float, default=None,
                   help="override every check tolerance with one value")
    p.add_argument("--fast", action="store_true",
                   help="skip the slow checks (family limits, slopes, tails)")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("expand", help="coupling-series coefficients of ln a_inf")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--order", type=int, default=6, metavar="N",
                   help="number of coefficients, at most 8 (default 6)")
    p.set_defaults(func=cmd_expand)

    p = subs.add_parser("walks", help="walk-type counts and cross-checks")
    _add_common_flags(p)
    p.add_argument("--n", type=int, required=True,
                   help="composition weight; formula to 16, enumeration to 8")
    p.set_defaults(func=cmd_walks)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if hasattr(args, "precision"):
            args.precision = args.precision or default_precision()
        return args.func(args)
    except HeunConnError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (SizeError, FamilyFieldError)) else 1


if __name__ == "__main__":
    sys.exit(main())
