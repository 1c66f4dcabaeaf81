"""Command-line interface: outputs, exit codes, and golden reproducibility."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from conftest import rel_diff
from heunconn import c1_closed_he, cli, he_spec
from heunconn.cli import main

RCHE_ARGS = [
    "--family", "rche",
    "--theta0", "0.1",
    "--theta1", "0.2",
    "--omega", "0.3",
    "--lambda", "0.1",
]


HE_ARGS = [
    "--family", "he",
    "--theta0", "0.11",
    "--theta1", "0.27",
    "--thetat", "0.33",
    "--thetainf", "0.41",
    "--omega", "0.37",
    "--lambda", "0.1",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConnect:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["connect", *RCHE_ARGS, "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "heun-connect/1"
        assert doc["family"] == "RCHE"
        ref = {k: oracles.cplx(v) for k, v in oracles.RUN_RCHE["matrix"].items()}
        for key, (re, im) in doc["C"].items():
            assert rel_diff(complex(re, im), ref[key]) <= 1e-10
        assert doc["det_residual"] <= 1e-10
        assert doc["params"]["lambda"] == pytest.approx(0.1)

    def test_json_idempotent(self, capsys):
        _, out1, _ = run_cli(capsys, ["connect", *RCHE_ARGS, "--output", "json"])
        _, out2, _ = run_cli(capsys, ["connect", *RCHE_ARGS, "--output", "json"])
        assert out1 == out2

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, ["connect", *RCHE_ARGS])
        assert code == 0
        assert "C[++]" in out and "det" in out

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, ["connect", *RCHE_ARGS, "--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "entry,re,im"
        assert any(line.startswith("++,") for line in lines)
        assert any(line.startswith("det,") for line in lines)

    def test_method_selection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["connect", *RCHE_ARGS, "--method", "wronskian", "--output", "json"],
        )
        assert code == 0
        assert json.loads(out)["method"] == "wronskian"

    def test_golden_reproducible(self, capsys, tmp_path):
        g1 = tmp_path / "a.json"
        g2 = tmp_path / "b.json"
        run_cli(capsys, ["connect", *RCHE_ARGS, "--golden-out", str(g1)])
        run_cli(capsys, ["connect", *RCHE_ARGS, "--golden-out", str(g2)])
        assert g1.read_bytes() == g2.read_bytes()

    def test_high_precision_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["connect", *RCHE_ARGS, "--precision", "high", "--output", "json"],
        )
        assert code == 0
        assert json.loads(out)["precision"] == "high"

    @pytest.mark.parametrize("output", ["text", "csv"])
    def test_high_precision_flag_prints(self, capsys, output):
        code, out, _ = run_cli(
            capsys, ["connect", *RCHE_ARGS, "--precision", "high", "--output", output]
        )
        assert code == 0
        assert "est" in out

    def test_precision_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HEUN_PRECISION", "high")
        code, out, _ = run_cli(capsys, ["connect", *RCHE_ARGS, "--output", "json"])
        assert code == 0
        assert json.loads(out)["precision"] == "high"

    def test_precision_env_text_output(self, capsys, monkeypatch):
        monkeypatch.setenv("HEUN_PRECISION", "high")
        code, out, _ = run_cli(capsys, ["connect", *HE_ARGS])
        assert code == 0
        assert "precision=high" in out

    def test_bad_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HEUN_PRECISION", "quadruple")
        code, _, err = run_cli(capsys, ["connect", *RCHE_ARGS])
        assert code != 0


class TestVerify:
    def test_fast_verify_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", *RCHE_ARGS, "--fast", "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_impossible_tolerance_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", *RCHE_ARGS, "--fast", "--tol", "1e-16", "--output", "json"],
        )
        assert code == 1

    def test_golden_zeroes_runtimes(self, capsys, tmp_path):
        g = tmp_path / "verify.json"
        run_cli(capsys, ["verify", *RCHE_ARGS, "--fast", "--golden-out", str(g)])
        doc = json.loads(g.read_text())
        assert all(c["runtime"] == 0 for c in doc["checks"])


class TestExpand:
    def test_table_with_closed_forms(self, capsys):
        code, out, _ = run_cli(capsys, ["expand", *RCHE_ARGS, "--order", "2"])
        assert code == 0
        assert "c_1" in out and "c_2" in out and "closed" in out

    def test_json_coefficients_match_frozen(self, capsys):
        code, out, _ = run_cli(
            capsys, ["expand", *RCHE_ARGS, "--order", "3", "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        want = [oracles.cplx(t) for t in oracles.C_SERIES["RCHE"]][:3]
        rows = doc["coefficients"]
        assert [row["n"] for row in rows] == [1, 2, 3]
        for row, w in zip(rows, want):
            assert rel_diff(complex(*row["c"]), w) <= 1e-9
        # Closed forms exist for n = 1, 2 only; the diff column reflects it.
        assert rows[0]["diff"] <= 1e-8 and rows[1]["diff"] <= 1e-8
        assert rows[2]["closed"] is None

    def test_precision_env_is_ignored(self, capsys, monkeypatch):
        argv = ["expand", *RCHE_ARGS, "--order", "2", "--output", "json"]
        _, plain, _ = run_cli(capsys, argv)
        monkeypatch.setenv("HEUN_PRECISION", "high")
        _, env, _ = run_cli(capsys, argv)
        assert env == plain


    def test_he_closed_form_column(self, capsys):
        code, out, _ = run_cli(capsys, ["expand", *HE_ARGS, "--order", "2", "--output", "json"])
        assert code == 0
        first, second = json.loads(out)["coefficients"]
        closed = complex(*first["closed"])
        assert closed == c1_closed_he(he_spec(0.11, 0.27, 0.33, 0.41, 0.37, 0.1))
        assert abs(complex(*first["c"]) - closed) == first["diff"] <= 1e-12
        assert second["closed"] is None and second["diff"] is None


    def test_a_closed_form_at_its_pole_prints_null(self, capsys):
        # omega = 1 is a pole of c2's closed form, not of c1's.
        spec_args = ["--family", "rche", "--theta0", "0.1", "--theta1", "0.2",
                     "--omega", "1.0", "--lambda", "0.1"]
        argv = ["expand", *spec_args, "--order", "2", "--output", "json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        first, second = json.loads(out)["coefficients"]
        assert first["diff"] <= 1e-15
        assert second["closed"] is None and second["diff"] is None
        code, out, _ = run_cli(capsys, ["verify", *spec_args, "--fast"])
        assert code == 0, out


class TestWalks:
    def test_census_table(self, capsys):
        code, out, _ = run_cli(capsys, ["walks", "--n", "2"])
        assert code == 0
        assert "(1,1)" in out and "match" in out

    def test_large_n_formula_only(self, capsys):
        code, out, _ = run_cli(capsys, ["walks", "--n", "12", "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        total = sum(row["n_mu"] for row in doc["types"])
        assert total == math.comb(24, 12)

    def test_bad_precision_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("HEUN_PRECISION", "quadruple")
        code, _, _ = run_cli(capsys, ["walks", "--n", "2"])
        assert code == 0


BASE_ARGV = {
    "connect": ["connect", *RCHE_ARGS],
    "verify": ["verify", *RCHE_ARGS, "--fast"],
    "expand": ["expand", *RCHE_ARGS, "--order", "1"],
    "walks": ["walks", "--n", "2"],
}


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("connect", "--seed", "1"),
            ("verify", "--seed", "1"),
            ("expand", "--seed", "1"),
            ("walks", "--seed", "1"),
            ("connect", "--K", "400"),
            ("verify", "--K", "400"),
            ("verify", "--precision", "high"),
            ("expand", "--precision", "high"),
            ("walks", "--precision", "high"),
        ],
    )
    def test_removed_flag_is_usage_error(self, capsys, command, flag, value):
        code, _, err = run_cli(capsys, [*BASE_ARGV[command], flag, value])
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "command, echoed",
        [
            ("connect", {"method", "tol", "max_depth", "precision", "output"}),
            ("verify", {"tol", "output"}),
            ("expand", {"output"}),
            ("walks", {"output"}),
        ],
        ids=["connect", "verify", "expand", "walks"],
    )
    def test_config_echoes_the_flags_taken(self, capsys, command, echoed):
        _, out, _ = run_cli(capsys, [*BASE_ARGV[command], "--output", "json"])
        assert set(json.loads(out)["config"]) == echoed

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("connect", ["method", "precision", "depth", "est_error", "C", "det", "det_residual"]),
            ("verify", ["passed", "checks"]),
            ("expand", ["N", "coefficients"]),
        ],
    )
    def test_payload_key_order(self, capsys, command, keys):
        _, out, _ = run_cli(capsys, [*BASE_ARGV[command], "--output", "json"])
        assert list(json.loads(out)) == ["schema", "command", "family", "params", *keys, "config"]

    def test_family_choices(self):
        # The four families in lower case and the alias heun, on each subcommand.
        subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
        for command in ("connect", "verify", "expand"):
            family = next(a for a in subs.choices[command]._actions if a.dest == "family")
            assert family.choices == ["che", "he", "heun", "hyp", "rche"]


def test_parser_is_built_once_and_on_first_use(capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import heunconn.cli as c; "
        "print(c.build_parser.cache_info().currsize)"
    )
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert fresh.stdout.strip() == "0", fresh.stderr
    run_cli(capsys, BASE_ARGV["walks"])
    parser = cli.build_parser()
    assert run_cli(capsys, BASE_ARGV["walks"])[0] == 0
    assert cli.build_parser() is parser


def test_import_stays_pure_python():
    # numpy alone would push the import time and peak RSS past the benchmark's bounds.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, heunconn, heunconn.cli; "
        "print(sorted({'numpy', 'scipy'} & {m.partition('.')[0] for m in sys.modules}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "[]"


class TestExitCodes:
    def test_hyp_rejects_coupling(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "connect",
                "--family", "hyp",
                "--theta0", "0.1",
                "--theta1", "0.2",
                "--thetainf", "0.3",
                "--lambda", "0.1",
            ],
        )
        assert code == 2
        assert "coupling" in err or "lam" in err

    def test_he_coupling_domain_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "connect",
                "--family", "he",
                "--theta0", "0.11",
                "--theta1", "0.27",
                "--thetat", "0.33",
                "--thetainf", "0.41",
                "--omega", "0.37",
                "--lambda", "1.2",
            ],
        )
        assert code == 1

    @pytest.mark.parametrize(
        "value, shown", [("nan", "nan"), ("1e999", "inf"), ("inf", "inf"), ("-inf", "-inf")]
    )
    def test_verify_rejects_a_non_finite_parameter(self, capsys, value, shown):
        # the "--omega=-inf" form (TestNegativeValues passes "-inf" alone)
        argv = ["verify", *RCHE_ARGS, "--fast"]
        at = argv.index("--omega")
        argv[at : at + 2] = [f"--omega={value}"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"DomainError: omega = {shown} is not finite")

    def test_connect_rejects_a_nan_tol(self, capsys):
        code, out, err = run_cli(capsys, ["connect", *RCHE_ARGS, "--tol", "nan"])
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError: tol must be a real number other than nan")

    def test_expand_order_cap(self, capsys):
        code, _, _ = run_cli(capsys, ["expand", *RCHE_ARGS, "--order", "9"])
        assert code == 2

    def test_walks_size_cap(self, capsys):
        code, _, _ = run_cli(capsys, ["walks", "--n", "17"])
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_walks_n_below_one_is_a_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, ["walks", "--n", n])
        assert code == 2 and out == ""
        assert err == f"SizeError: --n must be at least 1, got {n}\n"

    def test_verify_rejects_a_nan_tol_as_connect_does(self, capsys):
        _, _, want = run_cli(capsys, ["connect", *RCHE_ARGS, "--tol", "nan"])
        code, out, err = run_cli(capsys, ["verify", *RCHE_ARGS, "--fast", "--tol", "nan"])
        assert code == 1 and out == ""
        assert err == want

    def test_unknown_family_is_parse_error(self, capsys):
        code = main(
            ["connect", "--family", "nope", "--theta0", "0.1", "--theta1", "0.2"]
        )
        assert code == 2

    def test_non_number_is_parse_error(self, capsys):
        argv = ["connect", *RCHE_ARGS]
        argv[argv.index("--theta0") + 1] = "abc"
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "not a real or a+bi complex literal: 'abc'" in err

    @pytest.mark.parametrize(
        "family, fields",
        [
            ("hyp", ["--thetainf", "0.3"]),
            ("che", ["--omega", "0.3", "--thetastar", "0.25", "--lambda", "0.1"]),
        ],
    )
    def test_connect_every_family(self, capsys, family, fields):
        argv = ["connect", "--family", family, "--theta0", "0.1", "--theta1", "0.2", *fields]
        code, out, _ = run_cli(capsys, [*argv, "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        run = getattr(oracles, "RUN_" + family.upper())
        ref = {k: oracles.cplx(v) for k, v in run["matrix"].items()}
        assert max(rel_diff(complex(*doc["C"][k]), ref[k]) for k in ref) <= 1e-10

    def test_heun_alias(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "connect",
                "--family", "heun",
                "--theta0", "0.11",
                "--theta1", "0.27",
                "--thetat", "0.33",
                "--thetainf", "0.41",
                "--omega", "0.37",
                "--lambda", "0.1",
                "--output", "json",
            ],
        )
        assert code == 0
        assert json.loads(out)["family"] == "HE"


class TestNegativeValues:
    """A number flag takes a negative value that is not a plain decimal as
    its own argument, as it does in the ``--flag=value`` form."""

    def test_complex_value(self, capsys):
        argv = ["connect", *RCHE_ARGS, "--output", "json"]
        at = argv.index("--omega")
        joined, apart = list(argv), list(argv)
        joined[at : at + 2] = ["--omega=-0.3+0.01i"]
        apart[at + 1] = "-0.3+0.01i"
        _, want, _ = run_cli(capsys, joined)
        code, out, _ = run_cli(capsys, apart)
        assert code == 0 and out == want
        assert json.loads(out)["params"]["omega"] == [-0.3, 0.01]

    def test_exponent_value(self, capsys):
        argv = ["connect", *RCHE_ARGS, "--output", "json"]
        argv[argv.index("--lambda") + 1] = "-1e-3"
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["params"]["lambda"] == -1e-3

    def test_infinite_value(self, capsys):
        argv = ["connect", *RCHE_ARGS]
        argv[argv.index("--lambda") + 1] = "-inf"
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("DomainError: lam = -inf is not finite")

    def test_an_option_after_a_number_flag_stays_an_option(self, capsys):
        argv = ["connect", *RCHE_ARGS]
        at = argv.index("--omega")
        del argv[at + 1]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "argument --omega: expected one argument" in err
