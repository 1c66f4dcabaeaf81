#!/usr/bin/env python3
"""Digest every op output of the benchmark's input pools.

For each workload of ``perfbench/workloads.py`` it builds the pool from the
seed, runs every op once in pool order as ``perfbench/run.py`` does (an op
that raises gives its ``Raised`` record), and prints a SHA-256 of the
``repr`` of the outputs, with the check runtimes of the ``verify`` reports
zeroed.  It only reads ``perfbench/``.  Two checkouts that print the same
digests give the same outputs bit for bit on those pools.

Run:  python3 tools/output_digest.py --seed 101 [--workload expand]

It prints one line per workload: its name, the number of ops and the digest.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import WORKLOAD_NAMES, import_library  # noqa: E402


def digest(name: str, seed: int) -> tuple[int, str]:
    """Number of ops and SHA-256 of the outputs of ``name``'s pool at ``seed``."""
    from workloads import WORKLOADS, Raised, _without_runtimes

    workload = WORKLOADS[name](seed)
    sha = hashlib.sha256()
    for item in workload.pool:
        try:
            out = workload.run(item)
        except Exception as exc:  # recorded as the benchmark records it
            out = Raised(exc)
        if name == "verify" and not isinstance(out, Raised):
            out = out[0], _without_runtimes(out[1])
        sha.update(repr(out).encode() + b"\n")
    return len(workload.pool), sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    args = parser.parse_args(argv)
    import_library()
    for name in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        ops, hexdigest = digest(name, args.seed)
        print(f"{name} {ops} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
