"""The formal 1/k tail: its one home, its entry point, its stopping rule, and
the tool that reads it."""

from __future__ import annotations

import ast
import random
import subprocess
import sys
from itertools import count, islice
from pathlib import Path

import mpmath as mp
import pytest

from heunconn import (
    NonConvergence, c_coefficients, connection_matrix, log_a_series_from_traces,
)
from heunconn.precision import HIGH, is_mp, spec_to_precision
from heunconn import che_spec, he_spec, rche_spec, tails
from heunconn.tails import (
    _TAIL_MAX_ORDER, a_space, d_space, formal_tail, inverse_depth, root_depth, sum_tail,
    summed_tail,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "heunconn"

# What decides how the rest of a recurrence beyond depth K is formed and summed.
MOVED = {
    "formal_tail", "_binomial_rows", "_INV_FACT", "_ALT_INV_FACT", "_ZERO",
    "a_space", "d_space", "u_space", "sum_tail", "_TAIL_STALL", "_TAIL_MAX_ORDER",
    "log_second_mode", "root_depth", "tail_depth", "inverse_depth", "_TAIL_MIN_DEPTH",
    "_ROOT_FACTOR", "_MODE_MARGIN", "unit_roundoff", "is_mp_spec", "Orders", "series_log",
    "summed_tail", "EPS64",
}
# The names they had before they moved, without the module's API.
FORMER = {"_" + name for name in MOVED if not name.startswith("_")}


def _top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _imports_from(tree: ast.Module, module: str) -> list:
    """Names a module imports from the sibling ``module``."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in ((module, 1), (f"heunconn.{module}", 0))
        for alias in node.names
    ]


class TestOneHome:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

    def test_only_tails_defines_the_tail_machinery(self):
        for name, tree in self.trees.items():
            defined = _top_level_names(tree)
            if name == "tails.py":
                assert MOVED <= defined
            else:
                assert not defined & (MOVED | FORMER), name

    @pytest.mark.parametrize("module", ["perturbative.py", "combinatorics.py"])
    def test_the_series_modules_import_nothing_from_connection(self, module):
        assert _imports_from(self.trees[module], "connection") == []

    def test_combinatorics_imports_nothing_private_from_perturbative(self):
        imported = _imports_from(self.trees["combinatorics.py"], "perturbative")
        assert [name for name in imported if name.startswith("_")] == []


class TestStoppingRule:
    def test_slowly_decreasing_terms_stop_at_the_length_cap(self):
        # 0.9^n sets a new smallest pair at every term, so the stall rule never
        # fires; the sum would meet 2^-53 only near n = 330.
        taken = []
        terms = (taken.append(n) or 0.9**n for n in count())
        with pytest.raises(NonConvergence, match=r"terms 1\.0e\+00, 9\.0e-01, 8\.1e-01") as err:
            sum_tail(terms, 2.0**-53, True, "test")
        assert len(taken) == _TAIL_MAX_ORDER
        assert len(str(err.value).split("terms ")[1].split(", ")) == _TAIL_MAX_ORDER


class TestSummedTail:
    def test_mpmath_spec_is_summed_in_its_own_numbers(self, che_example):
        K = root_depth(che_example)
        double, _ = summed_tail(che_example, a_space, K, "tail")
        with mp.workdps(30):
            spec = spec_to_precision(che_example, HIGH)
            total, omitted = summed_tail(spec, a_space, K, "tail")
            assert is_mp(total)
            assert omitted < 2.0**-mp.mp.prec * abs(total)
        assert abs(total - double) <= 1e-15


    def test_stop_rule_follows_the_order(self, rche_example, monkeypatch):
        # Relative at the coupling's value (N = 0), absolute for the orders (N > 0).
        seen = []

        def spy(terms, eps, relative, what):
            seen.append(relative)
            return sum_tail(terms, eps, relative, what)

        monkeypatch.setattr(tails, "sum_tail", spy)
        for run, want in [
            (lambda: connection_matrix(rche_example, method="recurrence"), True),
            (lambda: c_coefficients(rche_example, 3), False),
            (lambda: log_a_series_from_traces(rche_example, 3), False),
        ]:
            seen.clear()
            run()
            assert seen and all(relative is want for relative in seen)


def _seeded_specs(seed: int) -> list:
    """One real and one complex spec of each coupled family."""
    rng = random.Random(seed)
    specs = []
    for cplx in (False, True):
        def x(lo, hi):
            v = rng.uniform(lo, hi)
            return complex(v, rng.uniform(-0.2, 0.2)) if cplx else v

        t0, t1, om, lam = x(-0.45, 0.45), x(-0.45, 0.45), x(0.1, 1.5), x(-0.3, 0.3)
        specs += [
            rche_spec(t0, t1, om, lam),
            che_spec(t0, t1, om, x(-0.45, 0.45), lam),
            he_spec(t0, t1, x(-0.45, 0.45), x(-0.45, 0.45), om, lam),
        ]
    return specs


class TestBinomialRows:
    rows = staticmethod(tails._binomial_rows)  # the module's, before any monkeypatch

    def test_float_rows_are_the_int_rows_in_binary64(self):
        for n in range(_TAIL_MAX_ORDER + 1):
            for ints, floats in zip(self.rows(n, True), self.rows(n, False)):
                assert len(floats) == n + 1
                assert all(type(f) is float and f == float(i) for i, f in zip(ints, floats))

    @pytest.mark.parametrize("space", [a_space, d_space])
    def test_float_rows_give_the_int_rows_terms(self, space, monkeypatch):
        # Past n = 57 some C(n, i) round in binary64, as an int times a float does.
        def terms(spec, N):
            inv_k = inverse_depth(spec, root_depth(spec))
            lam = spec.lam if N == 0 else 0
            return repr(list(islice(formal_tail(space(spec), lam, 0, inv_k, N), 80)))

        specs = _seeded_specs(17)
        default = [terms(spec, N) for spec in specs for N in (0, 3, 6)]
        monkeypatch.setattr(tails, "_binomial_rows", lambda n, exact: self.rows(n, True))
        assert [terms(spec, N) for spec in specs for N in (0, 3, 6)] == default

    def test_mpmath_spec_takes_the_int_rows(self, che_example, monkeypatch):
        taken = []

        def spy(n, exact):
            taken.append(exact)
            return self.rows(n, exact)

        monkeypatch.setattr(tails, "_binomial_rows", spy)
        K = root_depth(che_example)
        summed_tail(che_example, a_space, K, "tail", 3)
        assert taken and not any(taken)
        taken.clear()
        with mp.workdps(30):
            spec = spec_to_precision(che_example, HIGH)
            for N in (0, 3):
                summed_tail(spec, a_space, K, "tail", N)
            assert taken and all(taken)
            taken.clear()
            list(islice(formal_tail(a_space(spec), 0, 0, 1 / K, 3), 80))  # a float 1/K
        assert taken and all(taken)


def test_sweep_roundings_tool_runs():
    # The tool imports the tail machinery and the sweeps by name.
    script = ROOT / "tools" / "sweep_roundings.py"
    run = subprocess.run(
        [sys.executable, str(script), "--count", "2", "--near", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6
    assert all(" per row (" in line for line in lines)
