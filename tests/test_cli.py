import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stripwalks
from stripwalks import StripGeometry, cli, count_half_space, count_irreducible, genfunc
from stripwalks.cli import MAX_N, MAX_SERIES, MAX_STRIP_WIDTH, main


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

    def test_irreducible_on_two_rows(self, capsys):
        # Both rows of a two-row strip are outer: the default OO type from
        # the top row counts RD and its tailed forms R^k RD.
        code, env = run_json(
            capsys, "count", "--strip", "0,1", "--class", "irreducible", "--n", "5"
        )
        assert code == 0
        expected = count_irreducible(StripGeometry(0, 1), "OO", 5, 1).counts
        assert env["results"]["counts"] == [str(c) for c in expected]
        assert expected == (0, 0, 1, 1, 1, 1)

    @pytest.mark.parametrize("strip, bridge_type", [("0,0", "IO"), ("0,1", "II")])
    def test_i_type_needs_an_inner_line(self, capsys, strip, bridge_type):
        # With no --start-line the error names the missing inner line, not a
        # start line the user never gave.
        error = _assert_input_error(
            capsys, ["count", "--strip", strip, "--class", "irreducible",
                     "--type", bridge_type, "--n", "5"],
        )
        assert error.endswith(f"strip has no inner line for type {bridge_type}")

    def test_negative_n_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "-1"])
        assert exc.value.code == 2

    def test_bad_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--class", "nonsense"])
        assert exc.value.code == 2

    def test_ceiling_guard(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", str(MAX_N + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--n {MAX_N + 1} exceeds the enumeration ceiling {MAX_N}" in err
        assert main(["count", "--n", str(MAX_N), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"{MAX_N},")

    def test_halfspace_matches_library(self, capsys):
        table = count_half_space(StripGeometry(-1, 2), 10)
        argv = ["count", "--strip", "-1,2", "--class", "halfspace", "--n", "10"]
        code, env = run_json(capsys, *argv)
        assert code == 0
        assert env["parameters"]["class"] == "halfspace"
        assert env["results"]["counts"] == [str(c) for c in table.counts]
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == table.to_csv()

    def test_widest_strip_is_served(self, capsys):
        top = MAX_STRIP_WIDTH - 1
        code, env = run_json(capsys, "count", "--strip", f"0,{top}", "--n", "3")
        assert code == 0
        assert env["parameters"]["strip"] == ["0", str(top)]


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

    @pytest.mark.parametrize(
        "target, sides", [("width3", ["width3"]), ("width4", ["lower", "upper"])]
    )
    def test_smallest_positive_tolerance_is_served(self, capsys, target, sides):
        # 5e-324 is the least positive double: a 2^-1074 bracket.
        code, env = run_json(capsys, "mu", target, "--tol", "5e-324")
        assert code == 0
        for side in sides:
            res = env["results"][side]
            assert res["tol"] == 5e-324
            assert res["bracket"][0] <= res["root"] <= res["bracket"][1]


class TestVerify:
    def test_zeilberger(self, capsys):
        code, env = run_json(capsys, "verify", "zeilberger", "--n", "12")
        assert code == 0
        assert env["pass"] is True
        rows = env["results"]["zeilberger"]["rows"]
        assert rows[0] == {"n": "2", "formula": "6", "enumerated": "6", "ok": True}

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_zeilberger_below_closed_form_checks_nothing(self, capsys, n):
        # The closed form starts at n = 2: shorter requests check no length.
        code, env = run_json(capsys, "verify", "zeilberger", "--n", n)
        assert code == 0
        assert env["results"]["zeilberger"]["rows"] == []

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "halfspace", "--strip", "-2,2", "--n", "14"],
            ["verify", "sandwich", "--strip", "-2,2", "--mu", "2", "--n", "14"],
            ["verify", "sandwich", "--strip", "0,0", "--mu", "1", "--n", "14"],
        ],
    )
    def test_any_width_with_known_constant(self, capsys, argv):
        # The half-space proposition holds on every strip; the sandwich runs
        # on any strip once --mu supplies the constant.
        code, env = run_json(capsys, *argv)
        assert code == 0
        assert env["pass"] is True
        assert list(env["results"][argv[1]]) == [argv[3]]

    def test_multiplicativity_single_strip(self, capsys):
        code, env = run_json(
            capsys, "verify", "multiplicativity", "--strip", "-1,1", "--n", "10"
        )
        assert code == 0

    def test_tables(self, capsys):
        code, env = run_json(capsys, "verify", "tables", "--n", "10")
        assert code == 0
        assert env["results"]["tables"]["failures"] == []

    @pytest.mark.parametrize(
        "atoms, bridge_type, perturb, failures",
        [
            ("atoms_width3", "OI", lambda gf: gf + gf, [
                "width3 atom OI series != enumerated counts",
                "width3 composed bridge function != displayed quotient",
            ]),
            ("atoms_width4_lower", "II", lambda gf: gf * genfunc.RationalGF.from_polynomial(
                genfunc._poly(100)), ["width4 lower atom II exceeds exact counts"]),
            ("atoms_width4_upper", "OO", lambda gf: genfunc.RationalGF.zero(), [
                "width4 upper atom OO below exact counts",
                "width4 upper atom OO != pipeline form",
                "width4 loop denominator != displayed coefficients",
            ]),
        ],
        ids=["width3", "width4_lower", "width4_upper"],
    )
    def test_tables_reports_a_perturbed_atom(
        self, capsys, monkeypatch, atoms, bridge_type, perturb, failures
    ):
        original = getattr(genfunc, atoms)

        def perturbed():
            out = original()
            out[bridge_type] = perturb(out[bridge_type])
            return out

        monkeypatch.setattr(genfunc, atoms, perturbed)
        code, env = run_json(capsys, "verify", "tables", "--n", "10")
        assert code == 1
        assert env["pass"] is False
        assert env["results"]["tables"]["failures"] == failures

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


def _assert_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("stripwalks: error: ")
    assert "Traceback" not in err
    return errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--class", "irreducible", "--type", "OO", "--start-line", "0"],
        ["count", "--class", "irreducible", "--type", "IO", "--start-line", "5"],
        ["mu", "width3", "--tol", "0"],
        ["mu", "width3", "--tol", "-1"],
        ["mu", "width3", "--tol", "nan"],
        ["mu", "width4", "--tol", "inf"],
        ["verify", "sandwich", "--strip", "0,1", "--n", "6"],
        ["verify", "sandwich", "--strip", "-2,2", "--n", "6"],
        ["gf", "bridge3", "--series", str(MAX_SERIES + 1)],
        ["gf", "bridge3", "--series", "-1"],
        ["count", "--strip", f"0,{MAX_STRIP_WIDTH}", "--n", "4"],
        ["verify", "multiplicativity", "--strip", f"-5,{MAX_STRIP_WIDTH - 5}", "--n", "4"],
        ["verify", "sandwich", "--mu", "nan"],
        ["verify", "sandwich", "--mu", "inf"],
        ["verify", "sandwich", "--mu", "0"],
        ["verify", "sandwich", "--mu", "-2"],
        ["verify", "all", "--mu", "nan"],
        ["verify", "zeilberger", "--strip", "-1,1"],
        ["verify", "tables", "--strip", "-1,2", "--n", "6"],
        ["verify", "zeilberger", "--mu", "2"],
        ["verify", "halfspace", "--mu", "2"],
        ["verify", "multiplicativity", "--mu", "2"],
        ["verify", "tables", "--mu", "2"],
        ["gf", "upper4", "--series", "5"],
        ["count", "--class", "saw", "--type", "II"],
        ["count", "--class", "bridge", "--start-line", "0"],
    ],
)
def test_input_errors_exit_2(capsys, argv):
    _assert_input_error(capsys, argv)


@pytest.mark.parametrize("suite", list(cli._SUITES))
def test_verify_suite_refuses_flags_it_does_not_read(capsys, suite):
    # Each suite's row in the table says which optional flags it reads; every
    # other flag is refused, and the flags it reads are served.
    row = cli._SUITES[suite]
    flags = [(["--strip", "-1,1"], row.per_strip), (["--mu", "2"], row.reads_mu)]
    for flag, read in flags:
        argv = ["verify", suite, *flag, "--n", "2"]
        if read:
            assert main(argv) in (0, 1)
            capsys.readouterr()
        else:
            _assert_input_error(capsys, argv)


# Each argv that fails while its command's arguments are parsed, with the
# text after the "stripwalks <command>: error: " prefix.
PARSE_ERRORS = {
    ("count", "--strip", "1,2"):
        "argument --strip: bad strip '1,2': strip [1, 2] must contain the origin row 0",
    ("count", "--strip", "1e3,2"):
        "argument --strip: bad strip '1e3,2': expected two integers A,B",
    ("count", "--class", "nonsense"): "argument --class: invalid choice: 'nonsense' "
        "(choose from 'saw', 'bridge', 'halfspace', 'irreducible')",
    ("count", "--n", "abc"): "argument --n: invalid int value: 'abc'",
    ("mu", "width5"): "argument target: invalid choice: 'width5' (choose from 'width3', 'width4')",
    ("count", "--strip", "1"): "argument --strip: bad strip '1': expected two integers A,B",
    ("count", "--strip", "-1,1,2"):
        "argument --strip: bad strip '-1,1,2': expected two integers A,B",
    ("count", "--strip", "a,b"): "argument --strip: bad strip 'a,b': expected two integers A,B",
    ("count", "--n"): "argument --n: expected one argument",
    ("count", "--n", "--strip", "0,1"): "argument --n: expected one argument",
    ("mu", "width3", "--tol", "-h"): "argument --tol: expected one argument",
    ("count", "--st", "0,1"): "ambiguous option: --st could match --strip, --start-line",
    ("gf", "--series", "3"): "the following arguments are required: name",
    ("mu", "--tol", "x", "width3"): "argument --tol: invalid float value: 'x'",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in PARSE_ERRORS])
def test_parse_errors_exit_2_with_subcommand_prefix(capsys, argv):
    # Errors found while parsing a command's arguments come under the
    # command's name, after the command's usage.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"stripwalks {argv[0]}: error: {PARSE_ERRORS[tuple(argv)]}"]
    assert err.startswith(f"usage: stripwalks {argv[0]} [-h] ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["--n", "3"], "argument command: invalid choice: '3' "
                       "(choose from 'count', 'gf', 'mu', 'verify')"),
        (["foo"], "argument command: invalid choice: 'foo' "
                  "(choose from 'count', 'gf', 'mu', 'verify')"),
        (["count", "--foo", "1"], "unrecognized arguments: --foo 1"),
        (["mu", "width3", "width4"], "unrecognized arguments: width4"),
        (["gf", "-x", "bridge3", "--series=2"], "unrecognized arguments: -x"),
    ],
)
def test_top_level_parse_errors(capsys, argv, message):
    assert _assert_input_error(capsys, argv) == f"stripwalks: error: {message}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "sandwich", "--mu", "-inf"], "--mu must be positive and finite, got -inf"),
        (["mu", "width3", "--tol", "-nan"], "--tol must be positive and finite, got nan"),
        (["mu", "width3", "--tol", "-Infinity"], "--tol must be positive and finite, got -inf"),
    ],
)
def test_signed_non_finite_values_reach_range_errors(capsys, argv, message):
    # A token that float() reads is a value, even with a minus sign and a
    # letter; -x is still an unknown flag (test_top_level_parse_errors).
    assert _assert_input_error(capsys, argv) == f"stripwalks: error: {message}"


@pytest.mark.parametrize(
    "argv, same",
    [
        # --flag=value, unique prefixes, and the last of a repeated flag.
        (["count", "--strip=-1,2", "--n=5", "--format", "csv"],
         ["count", "--str", "-1,2", "--n", "3", "--fo", "csv", "--n", "5"]),
        # The positional anywhere among the flags; `--` ends the flags.
        (["gf", "bridge3", "--series", "8"], ["gf", "--series", "8", "bridge3"]),
        (["gf", "bridge3", "--series", "8"], ["gf", "--series=8", "--", "bridge3"]),
        # Values that start with a minus sign.
        (["count", "--strip", "-1,1", "--class", "irreducible", "--start-line", "-1",
          "--n", "6", "--format", "csv"],
         ["count", "--class=irreducible", "--start-line=-1", "--n=6", "--format=csv"]),
        (["mu", "width3", "--tol", "0.5"], ["mu", "--tol", ".5", "width3"]),
    ],
)
def test_flag_syntax(capsys, argv, same):
    outputs = []
    for args in (argv, same):
        code, out = run_cli(capsys, *args)
        assert code == 0
        outputs.append([line for line in out.splitlines() if "runtime_ms" not in line])
    assert outputs[0] == outputs[1]


def test_start_line_takes_a_negative_value(capsys):
    argv = ["count", "--class", "irreducible", "--start-line", "-1", "--n", "6"]
    code, env = run_json(capsys, *argv)
    assert code == 0
    expected = count_irreducible(StripGeometry(-1, 1), "OO", 6, -1).counts
    assert env["results"]["counts"] == [str(c) for c in expected]


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], *([c, "-h"] for c in ("count", "gf", "mu", "verify")),
     ["count", "--n", "3", "--he"], ["gf", "bridge3", "-h"]],
)
def test_help_lists_commands_flags_and_choices(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    command = argv[0] if argv[0] in cli._COMMANDS else None
    usage = "usage: stripwalks" + (f" {command}" if command else "")
    assert out.startswith(usage + " [-h] ")
    names = list(cli._COMMANDS) if command is None else [
        name for key, arg in cli._COMMANDS[command].args.items() for name in (key, *arg.choices)
    ]
    words = set(re.findall(r"[\w-]+", out))
    assert {*names, "-h", "--help"} <= words


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


def test_json_writes_big_integers_as_strings():
    # Counts outgrow the 53-bit float mantissa.
    assert cli._json((1, 10**30)) == f'[\n  "1",\n  "{10**30}"\n]'


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
    # As `... gf bridge3 --series 2000 | head -c 1`: about 590 KB of output,
    # more than a pipe buffer holds, into a pipe whose reader leaves after
    # the first byte.
    proc = _module_cli("gf", "bridge3", "--series", "2000")
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_readme_cli_examples_run(capsys):
    # Each line of the README's CLI block runs as written: exit 1 where its
    # comment says so, 0 otherwise.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = command.split()
        assert program == "stripwalks", line
        assert main(argv) == (1 if "exit 1" in comment else 0), line
    capsys.readouterr()
