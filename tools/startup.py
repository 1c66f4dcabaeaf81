#!/usr/bin/env python3
"""Startup footprint of ``import heunconn`` and three command-line calls.

For each case and each ``--src`` tree it prints the median wall time of
``--runs`` fresh interpreters (process start to exit), whether the call
loads mpmath, and the ``heunconn.*`` modules it loads.  The calls run on the
RCHE example of ``tests/conftest.py``:

* ``import``  -- ``python -c "import heunconn"``;
* ``connect`` -- ``python -m heunconn.cli connect`` (``cf``, binary64);
* ``expand``  -- ``python -m heunconn.cli expand``;
* ``verify``  -- ``python -m heunconn.cli verify --fast``.

Each tree's ``heunconn`` package is copied to a temporary directory, and the
trees take turns run by run, so that all of them see the same machine.  By
default every interpreter runs with ``PYTHONDONTWRITEBYTECODE=1`` and
compiles the package from source; with ``--warm`` an untimed first run of
each case writes the bytecode cache that the timed runs read.

Run:  python3 tools/startup.py [--src src] [--src OTHER/src] [--runs 9] [--warm] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

RCHE = ["--family", "rche", "--theta0", "0.1", "--theta1", "0.2", "--omega", "0.3",
        "--lambda", "0.1"]
CLI = {"connect": ["connect", *RCHE], "expand": ["expand", *RCHE],
       "verify": ["verify", "--fast", *RCHE]}
CASES = {"import": ["-c", "import heunconn"],
         **{name: ["-m", "heunconn.cli", *argv] for name, argv in CLI.items()}}
# The same call in one interpreter, which then names what it has loaded.
PROBE = """import contextlib, io, json, sys
argv = {argv!r}
if argv:
    from heunconn import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
else:
    import heunconn
print(json.dumps([sorted(m[9:] for m in sys.modules if m.startswith("heunconn.")),
                  "mpmath" in sys.modules]))
"""


def _run(args: list, env: dict, cwd: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, *args], env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                   check=True, timeout=120)
    return perf_counter() - t0


def _loaded(case: str, env: dict, cwd: str) -> tuple[list, bool]:
    code = PROBE.format(argv=CLI.get(case, []))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    modules, mpmath = json.loads(out.splitlines()[-1])
    return modules, mpmath


def measure(srcs: list, runs: int, warm: bool) -> dict:
    """``{src: {case: {"median_ms", "runs_ms", "mpmath", "modules"}}}``."""
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for i, src in enumerate(srcs):
            root = os.path.join(tmp, str(i))
            shutil.copytree(os.path.join(src, "heunconn"), os.path.join(root, "heunconn"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {**os.environ, "PYTHONPATH": root}
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            if not warm:
                env["PYTHONDONTWRITEBYTECODE"] = "1"
            trees[src] = root, env
        out = {src: {} for src in srcs}
        for src, (root, env) in trees.items():
            for case, args in CASES.items():
                if warm:
                    _run(args, env, root)
                modules, mpmath = _loaded(case, env, root)
                out[src][case] = {"mpmath": mpmath, "modules": modules, "runs_ms": []}
        for _ in range(runs):
            for case, args in CASES.items():
                for src, (root, env) in trees.items():
                    out[src][case]["runs_ms"].append(1e3 * _run(args, env, root))
    for cases in out.values():
        for row in cases.values():
            row["median_ms"] = statistics.median(row["runs_ms"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append",
                        help="a tree holding the heunconn package (repeatable; default src)")
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--warm", action="store_true",
                        help="time with a bytecode cache written by an untimed first run")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    result = measure(args.src or ["src"], args.runs, args.warm)
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    print(f"{'case':<8} {'median_ms':>9}  mpmath  modules  (tree)")
    for case in CASES:
        for src, cases in result.items():
            row = cases[case]
            print(f"{case:<8} {row['median_ms']:>9.1f}  {'yes' if row['mpmath'] else 'no':<6}  "
                  f"{' '.join(row['modules'])}  ({src})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
