"""Benchmark of heunconn: one workload per run, closed loop, one caller.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``scan`` (connection matrices by the cf,
recurrence and wronskian routes), ``verify`` (``heunconn verify --fast
--output json`` through ``heunconn.cli.main``), ``expand`` (jet series
``c_1..c_6`` with closed forms and the trace route) and ``closed`` (cheap
gamma-ratio and closed-form calls).  Every op runs at the library defaults
(``tol=1e-10``, binary64).  ``all`` runs each workload in a fresh
interpreter.

The loop runs whole rounds of the workload's input pool until ``--seconds``
have passed, timing each op; the outputs are checked afterwards, outside the
timed region.  The library is imported from ``src/`` of the checkout and the
frozen references from ``tests/oracles.py``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of the time from process start until the first op is ready,
covering ``import heunconn`` and building the inputs), ``ops_per_s``,
``op_p50_ms``, ``cpu_ms_per_op``, ``min_digits`` and ``peak_rss_mb``;
``op_tail_ms`` and ``fail_share`` are printed in the table only, since the
tail is undefined for short runs and the failure share is zero when all is
well.  Timings are normalised by the machine's speed around each op (see
``speed.py``); the table gives the raw values beside them.

``--trace 1`` runs the same ops untraced for half the time and then traced
(see ``tracing.py``), prints the per-layer metrics with
``trace_overhead_ratio``, and writes the spans to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter, process_time

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("scan", "verify", "expand", "closed")
SETUP_PROBES = 9
MAX_SAMPLES = 1 << 17  # ops whose times are kept one by one; fixed memory
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
TAIL_BEYOND = 10


def import_library():
    """Import heunconn from ``src/`` and the oracles from ``tests/`` of this
    checkout; raises ImportError when either is missing."""
    for sub in ("tests", "src"):
        path = os.path.join(ROOT, sub)
        if not os.path.isdir(path):
            raise ImportError(f"{path} not found")
        sys.path.insert(0, path)
    import heunconn
    import oracles

    for module, sub in ((heunconn, "src"), (oracles, "tests")):
        if not os.path.abspath(module.__file__).startswith(os.path.join(ROOT, sub) + os.sep):
            raise ImportError(f"{module.__name__} imported from {module.__file__}")


class Measurement:
    """Timings and outputs of one timed loop over a workload's pool."""

    def __init__(self, pool_size: int):
        self.ops = 0  # timed ops
        self.untimed = 0  # ops run after the loop to complete the checked set
        self.wall = 0.0
        self.cpu = 0.0
        # start, wall and CPU time of the first MAX_SAMPLES ops
        self.starts = array("d", bytes(8 * MAX_SAMPLES))
        self.walls = array("d", bytes(8 * MAX_SAMPLES))
        self.cpus = array("d", bytes(8 * MAX_SAMPLES))
        self.hits = [0] * pool_size  # ops run per pool input
        self.differs = [0] * pool_size  # repeats whose output changed
        self.outputs = {}  # pool index -> output of its first op

    def normalised(self, probe: SpeedProbe) -> tuple[list, float, float]:
        """Per-op wall times, total wall and total CPU time, each op divided
        by the slowdown around it (ops past MAX_SAMPLES by the overall one)."""
        kept = min(self.ops, MAX_SAMPLES)
        walls, cpu = [], 0.0
        for j in range(kept):
            slow = probe.slowdown_between(self.starts[j], self.starts[j] + self.walls[j])
            walls.append(self.walls[j] / slow)
            cpu += self.cpus[j] / slow
        rest = probe.slowdown()
        wall = sum(walls) + (self.wall - sum(self.walls[:kept])) / rest
        cpu += (self.cpu - sum(self.cpus[:kept])) / rest
        return walls, wall, cpu


def measure(workload, seconds: float, count=None, tracer=None) -> Measurement:
    """Run whole rounds, at least ``workload.min_rounds``, until ``seconds``
    have passed; or exactly ``count`` ops."""
    from workloads import Raised

    pool, cycle = workload.pool, workload.cycle
    m = Measurement(len(pool))
    start = perf_counter()
    n = 0
    while True:
        if count is not None:
            if n >= count:
                break
        elif (n % cycle == 0 and n >= workload.min_rounds * cycle
              and perf_counter() - start >= seconds):
            break
        i = n % len(pool)
        c0 = process_time()
        t0 = perf_counter()
        try:
            if tracer is None:
                out = workload.run(pool[i])
            else:
                out = tracer.run_op(n, workload.run, pool[i])
        except Exception as exc:  # a failing op is counted; the run goes on
            out = Raised(exc)
        t1 = perf_counter()
        cpu = process_time() - c0
        m.cpu += cpu
        m.wall += t1 - t0
        if n < MAX_SAMPLES:
            m.starts[n] = t0
            m.walls[n] = t1 - t0
            m.cpus[n] = cpu
        m.hits[i] += 1
        if i in m.outputs:
            if not workload.same(m.outputs[i], out):
                m.differs[i] += 1
        else:
            m.outputs[i] = out
        n += 1
    m.ops = n
    if count is None:
        # A timed run's min_digits covers a fixed set of inputs, whatever the
        # speed: run any of them the loop did not reach, untimed.
        for i in range(min(workload.checked_rounds * cycle, len(pool))):
            if i not in m.outputs:
                try:
                    m.outputs[i] = workload.run(pool[i])
                except Exception as exc:
                    m.outputs[i] = Raised(exc)
                m.hits[i] = 1
                m.untimed += 1
    return m


def judge(workload, m: Measurement) -> tuple[int, list, dict]:
    """Failed op count, min digits and failing inputs of one measurement."""
    verdicts = workload.check(m.outputs)
    failed = 0
    bad = {}
    for i, v in verdicts.items():
        if not v.ok:
            failed += m.hits[i]
            bad[i] = v.detail
        elif m.differs[i]:
            failed += m.differs[i]
            bad[i] = f"{m.differs[i]} repeats changed output"
    checked = workload.checked_rounds * workload.cycle
    found = [v.digits for i, v in verdicts.items() if v.digits is not None and i < checked]
    return failed, found, bad


def tail(samples: list):
    """(percentile, value, samples beyond) at the highest listed percentile
    with at least TAIL_BEYOND samples beyond it; None for too few ops."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= TAIL_BEYOND:
            return p, samples[n - beyond - 1], beyond
    return None


def setup_seconds(args, probe: SpeedProbe) -> float:
    """Median over fresh interpreters of process start to first op ready.

    ``probe`` samples the machine's speed before each interpreter starts, not
    while it runs, so the sample does not compete with it for the CPU.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        probe.sample()
        probe.sample()
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != b"ready\n" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, {line!r})")
        times.append(t1 - t0)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload) -> tuple[dict, int, int]:
    setup_probe = SpeedProbe()
    setup_raw = setup_seconds(args, setup_probe)
    with SpeedProbe() as probe:
        m = measure(workload, args.seconds, count=args.ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, found, bad = judge(workload, m)
    # Timings are normalised by the slowdown around each op (see speed.py);
    # the table also gives the raw values.
    walls, wall, cpu = m.normalised(probe)
    samples = sorted(walls)
    setup_slow = setup_probe.slowdown()
    metrics = {
        "ops_per_s": metric(m.ops / wall, "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(samples), "ms"),
        "cpu_ms_per_op": metric(1e3 * cpu / m.ops, "ms"),
        "min_digits": metric(min(found) if found else 0.0, "digits"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(setup_raw / setup_slow, "s"),
    }
    t = tail(samples)
    rows = [
        ("setup_s", f"{metrics['setup_s']['value']:.4f}", "s",
         f"median of {SETUP_PROBES} fresh interpreters, raw {setup_raw:.4f}, "
         f"slowdown {setup_slow:.3f}"),
        ("ops_per_s", f"{metrics['ops_per_s']['value']:.4f}", "1/s",
         f"{m.ops} ops, raw {m.ops / m.wall:.4f}, slowdown {probe.slowdown():.3f}"),
        ("op_p50_ms", f"{metrics['op_p50_ms']['value']:.4f}", "ms",
         f"n={len(samples)}, raw {1e3 * statistics.median(m.walls[:len(walls)]):.4f}"),
        ("op_tail_ms", f"{1e3 * t[1]:.4f}" if t else "-", "ms",
         f"p{t[0]:g}, n={len(samples)}, {t[2]} beyond" if t
         else f"omitted: n={len(samples)} leaves fewer than {TAIL_BEYOND} beyond p90"),
        ("cpu_ms_per_op", f"{metrics['cpu_ms_per_op']['value']:.4f}", "ms",
         f"process CPU, raw {1e3 * m.cpu / m.ops:.4f}"),
        ("fail_share", f"{failed / (m.ops + m.untimed):.4f}", "share",
         f"{failed} of {m.ops + m.untimed} ops failed ({m.untimed} untimed)"),
        ("min_digits", f"{metrics['min_digits']['value']:.4f}", "digits",
         f"over {len(found)} checked inputs"),
        ("peak_rss_mb", f"{peak_rss_mb:.4f}", "MB", "max RSS of this process"),
    ]
    print(f"workload {workload.name}  seed {args.seed}  pool {len(workload.pool)}")
    for row in rows:
        print("  {:<14} {:>14} {:<7} {}".format(*row))
    _print_failures(workload, bad)
    return metrics, m.ops + m.untimed, failed


def _print_failures(workload, bad: dict) -> None:
    for i, detail in sorted(bad.items())[:20]:
        print(f"  FAILED input {i}: {workload.pool[i]!r:.200}: {detail}")


def per_layer(args, workload) -> tuple[dict, int, int]:
    from tracing import Tracer, layer_metrics

    plain = measure(workload, args.seconds / 2.0, count=args.ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, 0.0, count=plain.ops, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, workload.check_runtimes(traced.outputs, traced.hits))
    metrics["trace_overhead_ratio"] = metric(traced.wall / plain.wall, "ratio")
    failed = 0
    for m in (plain, traced):
        f, _, bad = judge(workload, m)
        failed += f
        _print_failures(workload, bad)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{workload.name}-{args.seed}.jsonl"))
    print(f"workload {workload.name}  seed {args.seed}  traced ops {traced.ops}")
    for name, v in metrics.items():
        print(f"  {name:<48} {v['value']:>14.6g} {v['unit']}")
    return metrics, plain.ops + plain.untimed + traced.ops + traced.untimed, failed


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; the last line maps each
    workload to its result."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of timed rounds (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    run = per_layer if args.trace else end_to_end
    metrics, attempted, failed = run(args, workload)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
