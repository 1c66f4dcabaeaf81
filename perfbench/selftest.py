"""Self-test of the benchmark, run from the repository root::

    python3 perfbench/selftest.py

1. Every workload runs at a tiny size through the real command, untraced and
   traced.  The table must name every end-to-end metric with its unit, and
   the last line must carry exactly the metrics and units BENCHMARK.json
   lists for that mode.
2. A wrapper corrupts results while the ops run: one connection-matrix entry
   scaled by ``1 + 1e-6`` (scan, verify, closed) or ``c_1`` shifted by
   ``1e-6`` (expand).  The checker must count those ops as failed and report
   fewer digits than on the clean run of the same inputs.

Exits with status 1 and a message on the first failed assertion.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import run

# Ops per tiny run: enough to cover each workload's routes, kinds or families.
TINY_OPS = {"scan": 4, "verify": 1, "expand": 1, "closed": 3}
TABLE_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms", "fail_share": "share", "min_digits": "digits", "peak_rss_mb": "MB",
}
SEED = 3
SCALE = 1.0 + 1e-6


class SelfTestFailure(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def check_command(workload: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--ops", str(TINY_OPS[workload])]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    expect(proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {set(result)}")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{workload} trace {trace}: metrics {got} != {wanted}")
    if not trace:
        table = {}
        for line in lines[1:-1]:
            parts = line.split()
            if len(parts) >= 3 and parts[0] in TABLE_UNITS:
                table[parts[0]] = parts[2]
        expect(table == TABLE_UNITS, f"{workload}: table units {table}")


def _corrupt_matrix(fn):
    def wrapper(*args, **kwargs):
        mat = fn(*args, **kwargs)
        if mat.method != "cf":
            return mat
        return dataclasses.replace(mat, entries={**mat.entries, "++": mat["++"] * SCALE})

    return wrapper


def _corrupt_series(fn):
    def wrapper(*args, **kwargs):
        cs = fn(*args, **kwargs)
        return [cs[0] + 1e-6 * max(1.0, abs(cs[0]))] + list(cs[1:])

    return wrapper


def check_corruption(name: str) -> None:
    import heunconn as hc
    from tracing import patch_bindings, restore_bindings
    from workloads import WORKLOADS

    workload = WORKLOADS[name](SEED)
    count = TINY_OPS[name]
    clean = run.measure(workload, 0.0, count=count)
    failed, found, bad = run.judge(workload, clean)
    expect(failed == 0 and found, f"{name}: clean run failed {bad}")
    target, corrupt = (
        (hc.c_coefficients, _corrupt_series) if name == "expand"
        else (hc.connection_matrix, _corrupt_matrix)
    )
    undo = patch_bindings({id(target): corrupt(target)})
    try:
        dirty = run.measure(workload, 0.0, count=count)
    finally:
        restore_bindings(undo)
    failed_dirty, found_dirty, _ = run.judge(workload, dirty)
    expect(failed_dirty > 0, f"{name}: corrupted results were not counted as failed")
    expect(min(found_dirty) < min(found) - 3,
           f"{name}: min_digits {min(found_dirty):.2f} not below clean {min(found):.2f}")
    print(f"{name}: corruption caught, {failed_dirty}/{dirty.ops} ops failed, "
          f"min_digits {min(found):.2f} -> {min(found_dirty):.2f}")


def main() -> int:
    run.import_library()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    try:
        for name in TINY_OPS:
            check_corruption(name)
            for trace in (0, 1):
                check_command(name, trace, spec)
            print(f"{name}: metrics and units printed")
    except SelfTestFailure as exc:
        print(f"self-test FAILED: {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
