"""The four workloads: their inputs, the op each input drives, and the checks.

Every workload holds a pool of inputs drawn from the seed and runs them in a
fixed order, ``cycle`` ops per balanced round (one round has the same mix of
families, routes or kinds whatever the seed).  ``run`` is the timed op and
returns a small comparable output; ``check`` judges the outputs of the
distinct inputs after the timed loop and returns one :class:`Verdict` each.
Tolerances are the ones the tier-1 tests pin for the same quantity.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
import math
import os
from typing import Any, Optional

import heunconn as hc
import oracles
from heunconn import cli
from inputs import COUPLED, FAMILIES, SpecGenerator, example, oracle_matrix

KEYS = ("++", "+-", "-+", "--")
CORE = ("cf", "recurrence", "wronskian")

# tests/test_connection.py METHOD_TOL: each route against the frozen oracle.
ORACLE_TOL = {"cf": 1e-11, "recurrence": 1e-11, "wronskian": 1e-11}
PAIR_TOL = 1e-8  # test_acceptance criterion 2: core routes pairwise
DET_TOL = 1e-10  # criterion 4: |det C + theta0/theta1|
SERIES_TOL = 1e-9  # test_perturbative: c_n against C_SERIES; trace route against jets
C1_TOL, C2_TOL = 1e-8, 1e-6  # criterion 6: jets against the closed forms
A_INF_TOL = 1e-10  # test_connection: a_inf of two routes, relative
FCL_TOL = 1e-13  # test_connection: fusion factor against FCL_SPOTS
CLOSED_TOL = 1e-12  # test_perturbative: closed forms against CLOSED_FORMS
SIGMA_TOL = 1e-11  # test_connection: extract_sigma against SIGMA_HE

# Coupling at which c_1..c_6 are summed against the cf route's ln a_inf: small
# against the series' radius of convergence (about 0.2 at the closest seeded
# specs), so the truncation error stays below 1e-15.
SUM_LAM = 1e-3
ORDER = 6  # c_1 .. c_6, the default of `heunconn expand`
TRACE_ORDER = 3


class Raised:
    """Output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__
        self.exc = exc

    def __eq__(self, other):
        return isinstance(other, Raised) and other.name == self.name

    def __repr__(self):
        return f"Raised({self.name}: {self.exc})"


@dataclasses.dataclass(frozen=True)
class Verdict:
    ok: bool
    # -log10 of the worst relative error: 0 for a failed op without a usable
    # result, None where nothing is measured (an expected error)
    digits: Optional[float]
    detail: str = ""


def rel_diff(a: complex, b: complex) -> float:
    """Relative difference scaled by the larger magnitude (as tests/conftest.py)."""
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def matrix_rel_diff(m: dict, ref: dict) -> float:
    return max(rel_diff(m[k], ref[k]) for k in KEYS)


def digits(err: float) -> float:
    """Correct decimal digits of a relative error, capped at 17 (binary64)."""
    return 17.0 if err <= 1e-17 else min(17.0, -math.log10(err))


def _judge(errors: list[tuple[str, float, float]]) -> Verdict:
    """Verdict from ``(name, error, tolerance)`` triples."""
    if any(e != e for _, e, _ in errors):
        return Verdict(False, 0.0, "NaN error")
    bad = [f"{n} {e:.2e} > {t:.0e}" for n, e, t in errors if e > t]
    return Verdict(not bad, digits(max(e for _, e, _ in errors)), "; ".join(bad))


@contextlib.contextmanager
def _high_precision_default():
    """Run closed forms with mpmath special functions (HEUN_PRECISION=high)."""
    old = os.environ.get("HEUN_PRECISION")
    os.environ["HEUN_PRECISION"] = hc.HIGH
    try:
        yield
    finally:
        if old is None:
            del os.environ["HEUN_PRECISION"]
        else:
            os.environ["HEUN_PRECISION"] = old


class Workload:
    name = ""
    cycle = 1  # ops per round
    min_rounds = 1
    checked_rounds = 1  # leading rounds always run and checked: the min_digits set

    def __init__(self, seed: int):
        self.pool = self.build(SpecGenerator(seed))

    def build(self, gen: SpecGenerator) -> list:
        raise NotImplementedError

    def run(self, item) -> Any:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Whether a repeated input reproduced its first output."""
        return a == b

    def check(self, outputs: dict) -> dict:
        raise NotImplementedError

    def check_runtimes(self, outputs: dict, hits: list) -> dict:
        """Summed ``CheckResult.runtime`` per validation check over the ops run."""
        return dict.fromkeys(CHECK_NAMES, 0.0)


# ---------------------------------------------------------------------------
# scan


@dataclasses.dataclass(frozen=True)
class ScanItem:
    spec: Any
    method: str
    group: int  # index of the spec: the three routes of one spec share it
    expected: tuple = ()  # named errors the op must raise; empty for a matrix
    oracle: Optional[str] = None  # family of a worked example


class Scan(Workload):
    """``connection_matrix`` by ``cf``, ``recurrence`` and ``wronskian``.

    A round is two specs of each coupled family, each solved by the three
    routes, plus one input that must raise a named error (1 op in 19).
    """

    name = "scan"
    cycle = 19
    rounds = 20
    checked_rounds = 10

    def build(self, gen):
        specs = gen.specs(COUPLED, 2 * self.rounds)
        pool = []
        for r in range(self.rounds):
            for g in range(6 * r, 6 * r + 6):
                oracle = specs[g].family if g < len(COUPLED) else None
                pool += [ScanItem(specs[g], m, g, oracle=oracle) for m in CORE]
            spec, expected = gen.resonant_spec()
            method = gen.rng.choice(("cf", "recurrence"))
            pool.append(ScanItem(spec, method, -1 - r, expected=expected))
        return pool

    def run(self, item):
        return dict(hc.connection_matrix(item.spec, method=item.method).entries)

    def check(self, outputs):
        matrices: dict = {}
        for i, out in outputs.items():
            item = self.pool[i]
            if not item.expected and not isinstance(out, Raised):
                matrices[(item.group, item.method)] = out
        verdicts = {}
        for i, out in outputs.items():
            item = self.pool[i]
            if item.expected:
                names = tuple(e.__name__ for e in item.expected)
                ok = isinstance(out, Raised) and isinstance(out.exc, item.expected)
                verdicts[i] = Verdict(ok, None, "" if ok else f"expected {names}, got {out!r}")
                continue
            if isinstance(out, Raised):
                verdicts[i] = Verdict(False, 0.0, repr(out))
                continue
            errors = []
            try:
                for m in CORE:
                    if m == item.method:
                        continue
                    ref = matrices.get((item.group, m))
                    if ref is None:
                        ref = matrices[(item.group, m)] = dict(
                            hc.connection_matrix(item.spec, method=m).entries
                        )
                    errors.append((f"vs {m}", matrix_rel_diff(out, ref), PAIR_TOL))
            except hc.HeunConnError as exc:
                verdicts[i] = Verdict(False, 0.0, f"reference route raised {exc!r}")
                continue
            if item.oracle:
                err = matrix_rel_diff(out, oracle_matrix(item.oracle))
                errors.append(("vs oracle", err, ORACLE_TOL[item.method]))
            v = _judge(errors)
            det = out["++"] * out["--"] - out["+-"] * out["-+"]
            det_res = abs(det + complex(item.spec.theta0) / complex(item.spec.theta1))
            if not det_res <= DET_TOL:
                v = Verdict(False, v.digits, f"{v.detail}; det residual {det_res:.2e}")
            verdicts[i] = v
        return verdicts


# ---------------------------------------------------------------------------
# verify


def verify_argv(spec) -> list:
    """`heunconn verify --fast --output json` for one spec."""
    argv = ["verify", "--fast", "--output", "json", "--family", spec.family.lower()]
    fields = {
        "theta0": spec.theta0,
        "theta1": spec.theta1,
        "lambda": None if spec.family == "HYP" else spec.lam,
        "omega": spec.omega,
        "thetat": spec.theta_t,
        "thetainf": spec.theta_inf_hyp if spec.family == "HYP" else spec.theta_inf,
        "thetastar": spec.theta_star,
    }
    return argv + [f"--{k}={v!r}" for k, v in fields.items() if v is not None]


# Checks `verify --fast` runs per family (validation.full_report, include_slow=False).
FAST_CHECKS = {
    "HYP": [
        "connection_identity", "determinant", "method_agreement_recurrence",
        "method_agreement_wronskian", "method_agreement_ss", "monodromy_products",
    ],
}
FAST_CHECKS["RCHE"] = FAST_CHECKS["HYP"] + ["series_vs_closed_forms", "reflection"]
FAST_CHECKS["CHE"] = FAST_CHECKS["HYP"] + ["reflection"]
FAST_CHECKS["HE"] = FAST_CHECKS["HYP"] + ["series_vs_closed_forms"]
CHECK_NAMES = FAST_CHECKS["RCHE"]  # every check name of a fast report


def _without_runtimes(doc: dict) -> dict:
    return {**doc, "checks": [{**c, "runtime": 0.0} for c in doc["checks"]]}


class Verify(Workload):
    """`heunconn verify --fast --output json` through ``heunconn.cli.main``.

    A round is one spec of each family; the first two rounds alternate the
    worked examples with seeded specs, and every run has at least these two.
    """

    name = "verify"
    cycle = 4
    min_rounds = 2
    rounds = 6

    def build(self, gen):
        seeded = [gen.spec(f) for _ in range(self.rounds) for f in FAMILIES]
        pool = []
        for r in range(self.rounds):
            for j, family in enumerate(FAMILIES):
                use_example = r < self.min_rounds and (j + r) % 2 == 0
                spec = example(family) if use_example else seeded[4 * r + j]
                pool.append((spec, verify_argv(spec)))
        return pool

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(item[1])
        return code, json.loads(buf.getvalue())

    def same(self, a, b):
        return a[0] == b[0] and _without_runtimes(a[1]) == _without_runtimes(b[1])

    def check_runtimes(self, outputs, hits):
        sums = dict.fromkeys(CHECK_NAMES, 0.0)
        for i, out in outputs.items():
            if not isinstance(out, Raised):
                for c in out[1]["checks"]:
                    sums[c["name"]] += hits[i] * c["runtime"]
        return sums

    def check(self, outputs):
        verdicts = {}
        for i, out in outputs.items():
            spec = self.pool[i][0]
            if isinstance(out, Raised):
                verdicts[i] = Verdict(False, 0.0, repr(out))
                continue
            code, doc = out
            names = [c["name"] for c in doc["checks"]]
            residuals = [c["residual"] for c in doc["checks"]]
            worst = max((r if r is not None else float("nan") for r in residuals), default=0.0)
            problems = []
            if code != 0 or doc["passed"] is not True:
                failed = [c["name"] for c in doc["checks"] if not c["passed"]]
                problems.append(f"exit {code}, failed checks {failed}")
            if names != FAST_CHECKS[spec.family]:
                problems.append(f"checks {names}")
            if doc["family"] != spec.family:
                problems.append(f"family {doc['family']}")
            ok = not problems and worst == worst
            verdicts[i] = Verdict(ok, digits(worst) if worst == worst else 0.0, "; ".join(problems))
        return verdicts


# ---------------------------------------------------------------------------
# expand


def _closed_references(spec) -> list:
    """The closed forms `heunconn expand` prints beside c_1, c_2."""
    if spec.family == "RCHE":
        return [hc.c1_closed_rche(spec), hc.c2_closed_rche(spec)]
    if spec.family == "HE":
        return [hc.c1_closed_he(spec)]
    return []


class Expand(Workload):
    """``c_coefficients(spec, 6)`` with the closed-form references, plus the
    trace route ``log_a_series_from_traces(spec, 3)`` for RCHE.

    A round is one spec of each coupled family, the worked examples first.
    """

    name = "expand"
    cycle = 3
    rounds = 12
    checked_rounds = 4

    def build(self, gen):
        return gen.specs(COUPLED, self.rounds)

    def run(self, spec):
        cs = hc.c_coefficients(spec, ORDER)
        closed = _closed_references(spec)
        traces = hc.log_a_series_from_traces(spec, TRACE_ORDER) if spec.family == "RCHE" else []
        return tuple(cs), tuple(closed), tuple(traces)

    def check(self, outputs):
        verdicts = {}
        for i, out in outputs.items():
            spec = self.pool[i]
            if isinstance(out, Raised):
                verdicts[i] = Verdict(False, 0.0, repr(out))
                continue
            cs, closed, traces = out
            errors = []
            if i < len(COUPLED):
                want = [oracles.cplx(t) for t in oracles.C_SERIES[spec.family]]
                errors += [(f"c_{n + 1} vs C_SERIES", rel_diff(c, w), SERIES_TOL)
                           for n, (c, w) in enumerate(zip(cs, want))]
            for n, (ref, tol) in enumerate(zip(closed, (C1_TOL, C2_TOL))):
                err = abs(cs[n] - ref) / max(1.0, abs(cs[n]))
                errors.append((f"c_{n + 1} vs closed", err, tol))
            errors += [(f"c_{n + 1} vs trace", rel_diff(c, t), SERIES_TOL)
                       for n, (c, t) in enumerate(zip(cs, traces))]
            # The series summed at a small coupling against the cf route's a_inf.
            try:
                small = hc.validate(dataclasses.replace(spec, lam=SUM_LAM))
                log_a, _, _ = hc.log_a_infinity_cf(small)
            except hc.HeunConnError as exc:
                verdicts[i] = Verdict(False, 0.0, f"reference route raised {exc!r}")
                continue
            series = sum(c * SUM_LAM ** (n + 1) for n, c in enumerate(cs))
            errors.append(("sum vs cf", rel_diff(cmath.exp(series), cmath.exp(log_a)), A_INF_TOL))
            verdicts[i] = _judge(errors)
        return verdicts


# ---------------------------------------------------------------------------
# closed


def _fcl_spot_specs() -> list:
    """HYP specs whose ``++`` entry is a frozen FCL_SPOTS value."""
    out = []
    for key in oracles.FCL_SPOTS:
        t0, t1, ti = (float(p) for p in key.split("|"))
        out.append((hc.hyp_spec(t0, t1, ti), key))
    return out


@dataclasses.dataclass(frozen=True)
class ClosedItem:
    kind: str  # "HYP": matrix and sigma; "RCHE": c1, c2 closed; "HE": c1, sigma1 closed
    spec: Any
    example: bool = False
    fcl_spot: Optional[str] = None


class Closed(Workload):
    """Cheap gamma-ratio and closed-form ops where ``special`` does most work:
    a zero-coupling (HYP) matrix with its monodromy exponent, the RCHE closed
    forms ``c_1, c_2`` and the HE closed forms ``c_1, sigma_1``.

    A round is one op of each kind; the pool repeats after ``rounds`` rounds.
    """

    name = "closed"
    cycle = 3
    rounds = 256
    checked_rounds = 256

    def build(self, gen):
        spots = _fcl_spot_specs()
        pool = []
        for r in range(self.rounds):
            if r == 0:
                pool.append(ClosedItem("HYP", example("HYP"), example=True))
            elif r <= len(spots):
                pool.append(ClosedItem("HYP", spots[r - 1][0], fcl_spot=spots[r - 1][1]))
            else:
                pool.append(ClosedItem("HYP", gen.spec("HYP")))
            for family in ("RCHE", "HE"):
                spec = example(family) if r == 0 else gen.spec(family)
                pool.append(ClosedItem(family, spec, example=r == 0))
        return pool

    def run(self, item):
        if item.kind == "HYP":
            mat = hc.connection_matrix(item.spec)
            return dict(mat.entries), hc.extract_sigma(mat)
        if item.kind == "RCHE":
            return hc.c1_closed_rche(item.spec), hc.c2_closed_rche(item.spec)
        return hc.c1_closed_he(item.spec), hc.sigma1_closed(item.spec)

    def check(self, outputs):
        verdicts = {}
        for i, out in outputs.items():
            item = self.pool[i]
            if isinstance(out, Raised):
                verdicts[i] = Verdict(False, 0.0, repr(out))
                continue
            errors = []
            if item.kind == "HYP":
                entries, sigma = out
                high = hc.connection_matrix(hc.spec_to_precision(item.spec, hc.HIGH))
                errors.append(("vs high", matrix_rel_diff(entries, high.entries), FCL_TOL))
                ti = item.spec.theta_inf_hyp
                err = min(rel_diff(sigma, ti % 1.0), rel_diff(sigma, -ti % 1.0))
                errors.append(("sigma vs theta_inf", err, SIGMA_TOL))
                if item.example:
                    errors.append(("vs oracle", matrix_rel_diff(entries, oracle_matrix("HYP")),
                                   ORACLE_TOL["cf"]))
                if item.fcl_spot:
                    want = oracles.cplx(oracles.FCL_SPOTS[item.fcl_spot])
                    errors.append(("vs FCL_SPOTS", rel_diff(entries["++"], want), FCL_TOL))
            else:
                high_spec = hc.spec_to_precision(item.spec, hc.HIGH)
                with _high_precision_default():
                    refs = self.run(dataclasses.replace(item, spec=high_spec))
                # Absolute below unit magnitude, as the special-function spot tests.
                errors += [(f"value {n} vs high", abs(g - w) / max(1.0, abs(w)), CLOSED_TOL)
                           for n, (g, w) in enumerate(zip(out, refs))]
                if item.example:
                    keys = ("c1_rche", "c2_rche") if item.kind == "RCHE" else ("c1_he", "sigma1_he")
                    errors += [(f"{k} vs CLOSED_FORMS",
                                rel_diff(g, oracles.cplx(oracles.CLOSED_FORMS[k])), CLOSED_TOL)
                               for g, k in zip(out, keys)]
            verdicts[i] = _judge(errors)
        return verdicts


WORKLOADS = {w.name: w for w in (Scan, Verify, Expand, Closed)}
