"""Per-layer tracing of heunconn from outside the library.

The tracer replaces functions of ``src/heunconn`` with timing wrappers.  A
function is reachable under several names, because ``from .equations import
alpha_beta`` copies the binding into ``connection``, ``perturbative``,
``combinatorics`` and the ``heunconn`` namespace, so every module of the
package is searched and every binding of a target is replaced.

Three kinds of wrapper:

* ``SPAN``  -- a coarse call: counted, timed and kept as an in-memory span
  ``(name, start, end, parent span, op id)``; spans are written out when the
  run ends.
* ``LEAF``  -- a hot call (``alpha_beta``, ``canonical_recurrence_step``,
  ``jet_*``, ``log_gamma``, ``evaluate`` ...): counted and timed into
  per-label totals only.
* ``PROBE`` -- not timed: records one size argument on the calling frame,
  from which the doubling loops' useful-work ratios are formed.

Self time is a call's duration minus the durations of the traced calls made
directly inside it, so over one op the self times of all labels plus the
harness's own share add up to the op's wall time.  A traced call's wrapper
cost lands in its caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN, LEAF, PROBE = "span", "leaf", "probe"

_JETS = (
    "jet_from_scalar", "jet_variable", "jet_add", "jet_sub", "jet_scale",
    "jet_mul", "jet_div", "jet_log", "jet_exp",
)
_CLOSED = ("c1_closed_rche", "c2_closed_rche", "sigma1_closed", "f1_closed_he", "c1_closed_he")

# (module, function, label, kind); labels are the names of the per-layer metrics.
TARGETS = (
    [
        ("equations", "alpha_beta", "equations.alpha_beta", LEAF),
        ("equations", "canonical_recurrence_step", "equations.canonical_recurrence_step", LEAF),
        ("connection", "connection_matrix", "connection.connection_matrix", SPAN),
        ("connection", "log_a_infinity_cf", "connection.cf", SPAN),
        ("connection", "_recurrence_limit", "connection.recurrence", SPAN),
        ("connection", "schafke_schmidt_connection", "connection.ss", SPAN),
        ("connection", "wronskian_connection", "connection.wronskian", SPAN),
        ("connection", "fusion_cl", "connection.fusion_cl", LEAF),
        ("connection", "extract_sigma", "connection.extract_sigma", SPAN),
        ("connection", "_eta_sweep", "connection._eta_sweep", PROBE),
        ("richardson", "extrapolate", "richardson.extrapolate", LEAF),
        ("richardson", "geometric_ladder", "richardson.geometric_ladder", PROBE),
        ("frobenius", "frobenius_series", "frobenius.frobenius_series", LEAF),
        ("frobenius", "evaluate", "frobenius.evaluate", LEAF),
        ("perturbative", "c_coefficients", "perturbative.c_coefficients", SPAN),
        ("combinatorics", "trace_power", "combinatorics.trace_power", SPAN),
        ("special", "log_gamma", "special.log_gamma", LEAF),
        ("special", "polygamma", "special.polygamma", LEAF),
        ("special", "gamma", "special.gamma", LEAF),
        ("validation", "full_report", "validation.full_report", SPAN),
        ("cli", "main", "cli.main", SPAN),
    ]
    + [("perturbative", f, "perturbative.jet", LEAF) for f in _JETS]
    + [("perturbative", f, "perturbative.closed_forms", LEAF) for f in _CLOSED]
)

# Size recorded by each probe: the indices one doubling round sweeps.
_PROBE_SIZE = {
    "connection._eta_sweep": lambda args: args[1] + args[2],  # k_top + seed buffer
    "richardson.geometric_ladder": lambda args: args[0],  # k_max of the round
}
# Route label -> probe whose sizes give its rounds.
USEFUL = {
    "connection.cf": "connection._eta_sweep",
    "connection.recurrence": "richardson.geometric_ladder",
}
HARNESS = "bench.op"


def _matrix_key(fn):
    """``(spec, method, tol)`` of a ``connection_matrix`` call, defaults filled."""
    params = list(inspect.signature(fn).parameters.values())[:3]
    names = [p.name for p in params]
    defaults = [p.default for p in params]

    def key_of(args, kwargs):
        spec, method, tol = (
            args[i] if i < len(args) else kwargs.get(names[i], defaults[i]) for i in range(3)
        )
        return spec, str(method).lower(), tol

    return key_of


class _Frame:
    __slots__ = ("child", "span", "sizes")

    def __init__(self, span):
        self.child = 0.0
        self.span = span
        self.sizes = None


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "heunconn" or name.startswith("heunconn."))
    ]


def patch_bindings(replacements: dict) -> list:
    """Rebind every name in the heunconn modules that refers to a key of
    ``replacements`` (keyed by ``id`` of the original function).  Returns the
    undo list for :func:`restore_bindings`."""
    undo = []
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            new = replacements.get(id(value))
            if new is not None and callable(value):
                undo.append((module, name, value))
                setattr(module, name, new)
    return undo


def restore_bindings(undo: list) -> None:
    for module, name, value in reversed(undo):
        setattr(module, name, value)


class Tracer:
    """Counts, self times and spans of the TARGETS over a sequence of ops."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self.useful = defaultdict(lambda: [0, 0])  # label -> [final round, all rounds]
        self.matrix_keys = [0, 0]  # [distinct (spec, method, tol) per op, calls]
        self.op_wall = 0.0
        self.ops = 0
        self._stack = []
        self._op_id = -1
        self._op_keys = set()
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, label, kind):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        if kind == PROBE:
            size_of = _PROBE_SIZE[label]

            def probe(*args, **kwargs):
                frame = stack[-1]
                if frame.sizes is None:
                    frame.sizes = defaultdict(list)
                frame.sizes[label].append(size_of(args))
                return fn(*args, **kwargs)

            return probe

        if kind == LEAF:

            def leaf(*args, **kwargs):
                frame = _Frame(stack[-1].span)
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    stack[-1].child += dt
                    calls[label] += 1
                    self_s[label] += dt - frame.child

            return leaf

        key_of = _matrix_key(fn) if label == "connection.connection_matrix" else None
        useful_probe = USEFUL.get(label)

        def span(*args, **kwargs):
            if key_of is not None:
                self._op_keys.add(key_of(args, kwargs))
                self.matrix_keys[1] += 1
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            frame = _Frame(index)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent.child += dt
                calls[label] += 1
                self_s[label] += dt - frame.child
                spans[index] = (label, t0, t1, parent.span, self._op_id)
                if useful_probe and frame.sizes and frame.sizes.get(useful_probe):
                    rounds = frame.sizes[useful_probe]
                    self.useful[label][0] += rounds[-1]
                    self.useful[label][1] += sum(rounds)

        return span

    def install(self) -> None:
        replacements = {}
        for mod_name, fn_name, label, kind in TARGETS:
            fn = getattr(importlib.import_module("heunconn." + mod_name), fn_name)
            replacements[id(fn)] = self._wrap(fn, label, kind)
        self._undo = patch_bindings(replacements)

    def uninstall(self) -> None:
        restore_bindings(self._undo)
        self._undo = []

    # -- op boundaries ----------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a harness frame; returns ``fn(*args)``."""
        self._op_id = op_id
        self._op_keys = set()
        index = len(self.spans)
        self.spans.append(None)
        frame = _Frame(index)
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.op_wall += t1 - t0
            self.ops += 1
            self.calls[HARNESS] += 1
            self.self_s[HARNESS] += (t1 - t0) - frame.child
            self.spans[index] = (HARNESS, t0, t1, None, op_id)
            self.matrix_keys[0] += len(self._op_keys)

    # -- results ----------------------------------------------------------

    def layer_share(self) -> float:
        """Share of traced op wall time attributed to library layers."""
        if self.op_wall <= 0:
            return 0.0
        return 1.0 - self.self_s[HARNESS] / self.op_wall

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for label, t0, t1, parent, op_id in self.spans:
                handle.write(json.dumps([label, t0, t1, parent, op_id]) + "\n")


# Per-layer metrics: label -> statistics reported for it.
LAYER_STATS = (
    ("equations.alpha_beta", ("calls_per_op", "self_ms_per_op")),
    ("equations.canonical_recurrence_step", ("calls_per_op", "self_ms_per_op")),
    ("connection.connection_matrix", ("calls_per_op", "self_ms_per_op", "distinct_ratio")),
    ("connection.cf", ("self_ms_per_op", "useful_ratio")),
    ("connection.recurrence", ("self_ms_per_op", "useful_ratio")),
    ("connection.ss", ("self_ms_per_op",)),
    ("connection.wronskian", ("self_ms_per_op",)),
    ("connection.fusion_cl", ("calls_per_op", "self_ms_per_op")),
    ("connection.extract_sigma", ("self_ms_per_op",)),
    ("richardson.extrapolate", ("calls_per_op", "self_ms_per_op")),
    ("frobenius.frobenius_series", ("calls_per_op", "self_ms_per_op")),
    ("frobenius.evaluate", ("calls_per_op", "self_ms_per_op")),
    ("perturbative.c_coefficients", ("self_ms_per_op",)),
    ("perturbative.jet", ("calls_per_op", "self_ms_per_op")),
    ("perturbative.closed_forms", ("calls_per_op", "self_ms_per_op")),
    ("combinatorics.trace_power", ("self_ms_per_op",)),
    ("special.log_gamma", ("calls_per_op", "self_ms_per_op")),
    ("special.polygamma", ("calls_per_op", "self_ms_per_op")),
    ("special.gamma", ("calls_per_op",)),
    ("validation.full_report", ("self_ms_per_op",)),
    ("cli.main", ("self_ms_per_op",)),
)
_UNITS = {"calls_per_op": "count", "self_ms_per_op": "ms", "distinct_ratio": "ratio",
          "useful_ratio": "ratio", "ms_per_op": "ms"}


def layer_metrics(tracer: Tracer, check_runtimes: dict) -> dict:
    """Per-layer metrics of a traced run; ``check_runtimes`` maps each
    ``validation`` check name to its summed ``CheckResult.runtime``."""
    n = max(tracer.ops, 1)
    out = {}
    for label, stats in LAYER_STATS:
        for stat in stats:
            if stat == "calls_per_op":
                value = tracer.calls[label] / n
            elif stat == "self_ms_per_op":
                value = 1e3 * tracer.self_s[label] / n
            elif stat == "distinct_ratio":
                distinct, calls = tracer.matrix_keys
                value = distinct / calls if calls else 0.0
            else:
                useful, swept = tracer.useful[label]
                value = useful / swept if swept else 0.0
            out[f"{label}.{stat}"] = {"value": value, "unit": _UNITS[stat]}
    for name, seconds in check_runtimes.items():
        out[f"validation.{name}.ms_per_op"] = {"value": 1e3 * seconds / n, "unit": "ms"}
    out["trace.layer_share"] = {"value": tracer.layer_share(), "unit": "ratio"}
    return out
