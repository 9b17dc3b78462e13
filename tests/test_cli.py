import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stripwalks
from stripwalks.cli import ENV_CEILING, MAX_SERIES, MAX_STRIP_WIDTH, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestCount:
    def test_bridge_csv(self, capsys):
        code, out = run_cli(
            capsys, "count", "--strip", "-1,1", "--class", "bridge", "--n", "6",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[:4] == ["n,count", "0,1", "1,1", "2,3"]
        assert out.splitlines()[7] == "6,33"

    def test_saw_json(self, capsys):
        code, env = run_json(
            capsys, "count", "--strip", "0,1", "--class", "saw", "--n", "3"
        )
        assert code == 0
        assert env["command"] == "count"
        assert env["pass"] is True
        assert env["results"]["counts"] == ["1", "3", "6", "12"]

    def test_irreducible(self, capsys):
        code, env = run_json(
            capsys, "count", "--strip", "-1,1", "--class", "irreducible",
            "--type", "IO", "--start-line", "0", "--n", "4",
        )
        assert code == 0
        assert env["results"]["counts"][2] == "2"

    def test_negative_n_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "-1"])
        assert exc.value.code == 2

    def test_bad_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--class", "nonsense"])
        assert exc.value.code == 2

    def test_ceiling_guard(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_CEILING, "5")
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "6"])
        assert exc.value.code == 2
        assert main(["count", "--n", "5", "--format", "csv"]) == 0
        capsys.readouterr()

    def test_widest_strip_is_served(self, capsys):
        top = MAX_STRIP_WIDTH - 1
        code, env = run_json(capsys, "count", "--strip", f"0,{top}", "--n", "3")
        assert code == 0
        assert env["parameters"]["strip"] == ["0", str(top)]

    def test_invalid_ceiling_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_CEILING, "abc")
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "6"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert errors == [f"stripwalks: error: invalid {ENV_CEILING}='abc': not an integer"]


class TestGF:
    def test_bridge3_series(self, capsys):
        code, env = run_json(capsys, "gf", "bridge3", "--series", "8")
        assert code == 0
        series = env["results"]["bridge3"]["series"]
        assert series == ["1", "1", "3", "5", "9", "17", "33", "63", "121"]

    def test_lower4_series(self, capsys):
        code, env = run_json(capsys, "gf", "lower4", "--series", "5")
        assert env["results"]["lower4"]["series"] == ["1", "1", "3", "6", "12", "24"]

    def test_upper4_prints_all_coefficients(self, capsys):
        code, env = run_json(capsys, "gf", "upper4")
        coeffs = env["results"]["denominator_coefficients"]
        assert len(coeffs) == 45
        assert coeffs[:3] == ["1", "-12", "65"]
        assert coeffs[-1] == "55764"

    def test_table1_atoms(self, capsys):
        code, env = run_json(capsys, "gf", "table1", "--series", "4")
        assert env["results"]["IO"]["series"] == ["0", "0", "2", "2", "2"]

    def test_table4_atoms(self, capsys):
        code, env = run_json(capsys, "gf", "table4", "--series", "4")
        assert env["results"]["OI"] == env["results"]["IO"]


class TestMu:
    def test_width3(self, capsys):
        code, env = run_json(capsys, "mu", "width3")
        assert code == 0
        res = env["results"]["width3"]
        assert res["root"] == 0.522295
        assert res["mu"] == 1.914627

    def test_width4_bracket(self, capsys):
        code, env = run_json(capsys, "mu", "width4")
        results = env["results"]
        assert results["bracket_mu"] == [2.050672, 2.165804]
        for side in ("lower", "upper"):
            assert list(results[side]) == ["polynomial", "root", "mu", "tol", "bracket"]
        assert results["upper"]["polynomial"] == "degree-44 loop denominator"

    def test_tighter_tolerance(self, capsys):
        code, env = run_json(capsys, "mu", "width3", "--tol", "1e-14")
        res = env["results"]["width3"]
        assert res["tol"] == 1e-14
        assert res["bracket"] == [0.522295, 0.522295]

    @pytest.mark.parametrize("target, tol", [("width3", "1e-5"), ("width4", "1e-6")])
    def test_coarse_tolerance(self, capsys, target, tol):
        code, env = run_json(capsys, "mu", target, "--tol", tol)
        assert code == 0


class TestVerify:
    def test_zeilberger(self, capsys):
        code, env = run_json(capsys, "verify", "zeilberger", "--n", "12")
        assert code == 0
        assert env["pass"] is True
        rows = env["results"]["zeilberger"]["rows"]
        assert rows[0] == {"n": "2", "formula": "6", "enumerated": "6", "ok": True}

    def test_sandwich_perturbed_fails(self, capsys):
        code, env = run_json(
            capsys, "verify", "sandwich", "--mu", "2.3", "--strip", "-1,1", "--n", "12"
        )
        assert code == 1
        assert env["pass"] is False

    def test_halfspace(self, capsys):
        code, env = run_json(capsys, "verify", "halfspace", "--n", "10")
        assert code == 0
        assert env["pass"] is True

    def test_multiplicativity_single_strip(self, capsys):
        code, env = run_json(
            capsys, "verify", "multiplicativity", "--strip", "-1,1", "--n", "10"
        )
        assert code == 0

    def test_tables(self, capsys):
        code, env = run_json(capsys, "verify", "tables", "--n", "10")
        assert code == 0
        assert env["results"]["tables"]["failures"] == []

    def test_all_passes(self, capsys):
        code, env = run_json(capsys, "verify", "all", "--n", "8")
        assert code == 0
        assert env["pass"] is True
        assert set(env["results"]) == {
            "zeilberger", "sandwich", "halfspace", "multiplicativity", "tables"
        }

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "verify", "zeilberger", "--n", "10")
        _, second = run_cli(capsys, "verify", "zeilberger", "--n", "10")
        scrub = lambda s: "\n".join(
            l for l in s.splitlines() if "runtime_ms" not in l
        )
        assert scrub(first) == scrub(second)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--strip", "0,1", "--class", "irreducible", "--n", "5"],
        ["count", "--class", "irreducible", "--type", "OO", "--start-line", "0"],
        ["count", "--class", "irreducible", "--type", "IO", "--start-line", "5"],
        ["mu", "width3", "--tol", "0"],
        ["mu", "width3", "--tol", "-1"],
        ["mu", "width3", "--tol", "nan"],
        ["mu", "width4", "--tol", "inf"],
        ["verify", "sandwich", "--strip", "0,1", "--n", "6"],
        ["verify", "halfspace", "--strip", "-2,2", "--n", "6"],
        ["gf", "bridge3", "--series", str(MAX_SERIES + 1)],
        ["count", "--strip", f"0,{MAX_STRIP_WIDTH}", "--n", "4"],
        ["verify", "multiplicativity", "--strip", f"-5,{MAX_STRIP_WIDTH - 5}", "--n", "4"],
        ["verify", "sandwich", "--mu", "nan"],
        ["verify", "sandwich", "--mu", "inf"],
        ["verify", "sandwich", "--mu", "0"],
        ["verify", "sandwich", "--mu", "-2"],
        ["verify", "all", "--mu", "nan"],
    ],
)
def test_input_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("stripwalks: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--strip", "1,2"],
        ["count", "--strip", "1e3,2"],
        ["count", "--class", "nonsense"],
        ["count", "--n", "abc"],
        ["mu", "width5"],
    ],
)
def test_parse_errors_exit_2_with_subcommand_prefix(capsys, argv):
    # argparse reports its own errors under the subcommand's name, after the
    # subcommand's usage.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(f"stripwalks {argv[0]}: error: ")
    assert "Traceback" not in err


def test_sandwich_bound_beyond_float_range_is_null(capsys):
    # mu^(n+1) P(n) leaves the float range from n = 12 at mu = 1e25; the
    # report still prints, as strict JSON, and the verdict fails.
    code, out = run_cli(capsys, "verify", "sandwich", "--mu", "1e25", "--n", "14")
    assert code == 1
    assert "Infinity" not in out
    env = json.loads(out)
    assert env["pass"] is False
    for report in env["results"]["sandwich"].values():
        rows = report["rows"]
        assert [r["n"] for r in rows[10:]] == ["11", "12", "13", "14"]
        assert [r["upper"] is None for r in rows[10:]] == [False, True, True, True]
        assert [r["lower"] is None for r in rows[10:]] == [False, False, True, True]


def _module_cli(*argv):
    """Start `python -m stripwalks ARGV` with the package importable."""
    src = str(Path(stripwalks.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "stripwalks", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_entry_point():
    proc = _module_cli("count", "--strip", "0,1", "--n", "3")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == b""
    assert json.loads(out)["results"]["counts"] == ["1", "3", "6", "12"]


def test_closed_pipe_exits_quietly():
    # As `... gf bridge3 --series 2000 | head -1`: about 1 MB of output into a
    # pipe whose reader leaves after the first line.
    proc = _module_cli("gf", "bridge3", "--series", "2000")
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
