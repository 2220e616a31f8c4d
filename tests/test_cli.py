"""Front-end parsing, report determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import smalldivlab
from smalldivlab import bounds, cli, smalldiv
from smalldivlab.cli import (
    EXIT_CRASH,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERDICT,
    main,
)
from smalldivlab.contfrac import ExpansionError, parse_frequency

SRC = Path(smalldivlab.__file__).resolve().parents[1]


def run_cli(*argv, timeout):
    """``python -m smalldivlab.cli ARGV`` in a fresh process, importing this
    source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "smalldivlab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


# ---------------------------------------------------------------------------
# mini-language
# ---------------------------------------------------------------------------


def test_parse_golden():
    spec = parse_frequency("golden")
    assert spec.head == () and spec.period == (1,) and not spec.rule


def test_parse_quotients():
    spec = parse_frequency("quotients:[7,15,1,292]")
    assert spec.head == (7, 15, 1, 292)
    assert spec.period == () and not spec.rule and spec.exact is None


def test_parse_rule():
    spec = parse_frequency("rule:exp-liouville(c=0.5,a1=1)")
    assert spec.rule == "exp-liouville"
    assert spec.c == Fraction(1, 2) and spec.head == (1,)


def test_parse_surd_and_rational():
    spec = parse_frequency("surd:[;2]")
    assert spec.head == () and spec.period == (2,)
    spec = parse_frequency("surd:[1,2;3]")
    assert spec.head == (1, 2) and spec.period == (3,)
    spec = parse_frequency("rational:355/113000")
    assert spec.exact == Fraction(71, 22600)


@pytest.mark.parametrize(
    "bad",
    [
        "gold",
        "quotients:[3,0]",
        "quotients:[a]",
        "surd:[2]",
        "rational:7/3",  # not in (0, 1)
        "rational:x/y",
        "rule:unknown(c=1)",
        "rule:exp-liouville(c)",
        "rule:exp-liouville(c=-1)",
        "rule:omega-star(alpha=1/n^2)",
        "rule:omega-star(a1=0)",
    ],
)
def test_parse_rejects_with_hint(bad):
    with pytest.raises(ExpansionError):
        parse_frequency(bad)


@pytest.mark.parametrize(
    "text, key",
    [
        ("rule:exp-liouville(C=0.7)", "C"),
        ("rule:omega-star(a1=2,typo=1)", "typo"),
        ("rule:omega-star(c=1)", "c"),
        ("rule:exp-liouville(alpha=1/n)", "alpha"),
    ],
)
def test_rule_rejects_a_key_it_does_not_take(text, key):
    with pytest.raises(ExpansionError, match=f"no parameter '{key}'"):
        parse_frequency(text)
    proc = run_cli("classify", "--freq", text, timeout=60)
    assert proc.returncode == EXIT_INPUT
    assert f"'{key}'" in proc.stderr and proc.stdout == ""


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_constants_command(tmp_path, capsys):
    out = tmp_path / "constants.json"
    code = main(["--out", str(out), "constants", "--tolerance", "1e-7"])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["command"] == "constants"
    assert abs(data["results"]["kappa"] - 0.9878) < 1e-3
    assert data["version"]


def test_table1_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["--out", str(a), "table1"]) == EXIT_OK
    assert main(["--out", str(b), "table1"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert len(lines) == 12


def test_partition_command(tmp_path):
    out = tmp_path / "p.json"
    code = main(
        ["--out", str(out), "partition", "--freq", "golden", "--delta", "0.2", "--Q", "40"]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["verdicts"]["oracle_match"] is True
    assert data["verdicts"]["counts_tile_box"] is True
    dump = tmp_path / "dump.csv"
    code = main(
        [
            "--out", str(out), "partition", "--freq", "surd:[;2]",
            "--delta", "0.3", "--Q", "10", "--dump", str(dump),
        ]
    )
    assert code == EXIT_OK
    assert dump.read_text().startswith("q,p,class,k,a,strip_n,L")


def test_partition_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["partition", "--freq", "golden", "--delta", "0.15", "--Q", "30"]
    assert main(["--out", str(a)] + args) == EXIT_OK
    assert main(["--out", str(b)] + args) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_legendre_command(tmp_path):
    out = tmp_path / "leg.json"
    code = main(["--out", str(out), "legendre", "--freq", "golden", "--Q", "500"])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["verdicts"]["all_pass"] is True


def test_brj_and_gamma_commands(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["--out", str(out), "brj", "--freq", "surd:[;2]", "--Delta", "0.5",
         "--C", "0.1666", "--tau", "1.0"]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"]["brj1"]["tail_kind"] == "rigorous"
    code = main(["--out", str(out), "gamma", "--freq", "golden", "--delta", "0.1"])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"]["Gamma0"] > 0


def test_classify_command(tmp_path):
    out = tmp_path / "c.json"
    code = main(
        ["--out", str(out), "classify", "--freq", "quotients:[1,40,1,40,1,40,1,40,1,40,1,40]",
         "--tau", "1.0", "--depth", "10"]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"]["diophantine"]["C_certified"] <= data["results"][
        "diophantine"
    ]["C_empirical_hi"]


def test_solve_and_thm1_commands(tmp_path):
    modes = tmp_path / "modes.json"
    modes.write_text(
        json.dumps(
            [
                {"p": 1, "q": 1, "re": 1.0, "im": 0.0},
                {"p": -1, "q": -1, "re": 1.0, "im": 0.0},
            ]
        )
    )
    out = tmp_path / "s.json"
    gout = tmp_path / "g.json"
    code = main(
        ["--out", str(out), "solve", "--freq", "golden", "--modes", str(modes),
         "--R", "0.5", "--out-modes", str(gout)]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"]["mode_count"] == 2
    g = json.loads(gout.read_text())
    assert len(g) == 2

    code = main(
        ["--out", str(out), "thm1", "--freq", "golden", "--delta", "0.2",
         "--seed", "1", "--count", "3"]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["verdicts"]["all_pass"] is True


def test_counterexample_command(tmp_path):
    out = tmp_path / "ce.json"
    csv_path = tmp_path / "witness.csv"
    code = main(
        ["--out", str(out), "counterexample", "--freq", "rule:exp-liouville(c=0.5,a1=1)",
         "--delta-prime", "0.05", "--n-max", "4", "--witness-csv", str(csv_path)]
    )
    assert code == EXIT_OK
    assert csv_path.read_text().startswith("n,p_n,q_n,log_w_lo,log_w_hi")
    data = json.loads(out.read_text())
    assert data["verdicts"]["normalization_in_band"] is True
    assert data["verdicts"]["norm_below_epsilon"] is True


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["--out", str(out), "sweep", "--freq", "golden", "--check", "away",
         "--deltas", "0.05,0.1,0.2", "--Q", "60"]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,computed,bound,margin,verdict"
    assert len(lines) == 4
    assert all(line.endswith("True") for line in lines[1:])


def test_exit_codes_distinguish_input_errors(tmp_path):
    # malformed frequency -> input error
    code = main(["partition", "--freq", "nope", "--delta", "0.1", "--Q", "5"])
    assert code == EXIT_INPUT
    # missing required argument -> argparse input error
    code = main(["partition", "--freq", "golden"])
    assert code == EXIT_INPUT
    # domain violation -> input error
    code = main(["gamma", "--freq", "golden", "--delta", "0.9"])
    assert code == EXIT_INPUT
    # unknown command -> argparse input error
    assert main(["bogus"]) == EXIT_INPUT


def test_exit_code_verdict_failure(tmp_path):
    # a margin factor far below 1 makes the away bound fail: verdict exit
    out = tmp_path / "sweep.csv"
    code = main(
        ["--out", str(out), "sweep", "--freq", "golden", "--check", "away",
         "--deltas", "0.1", "--Q", "60", "--mu", "0.001"]
    )
    assert code == EXIT_VERDICT
    assert out.read_text().strip().endswith("False")


def test_text_format_rounds_to_six_digits(tmp_path):
    out = tmp_path / "c.txt"
    code = main(["--out", str(out), "--format", "text", "constants"])
    assert code == EXIT_OK
    text = out.read_text()
    assert "kappa = 0.987849" in text
    assert "G_example = 3.96586" in text


def test_sweep_const_type(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["--out", str(out), "sweep", "--freq", "golden", "--check", "const_type",
         "--deltas", "0.1,0.2", "--Q", "40"]
    )
    assert code == EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 3


def _write_modes(path, p):
    path.write_text(
        json.dumps(
            [
                {"p": p, "q": 1, "re": 1.0, "im": 0.0},
                {"p": -p, "q": -1, "re": 1.0, "im": 0.0},
            ]
        )
    )


# one invocation per command; side files go to the run's directory OUT, the
# input mode map is shared as TMP/modes.json so both runs get equal params
COMMANDS = {
    "classify": ["classify", "--freq", "surd:[;2]", "--tau", "1.0"],
    "brj": ["brj", "--freq", "golden", "--Delta", "0.3", "--C", "0.5"],
    "gamma": ["gamma", "--freq", "golden", "--delta", "0.1"],
    "table1": ["table1"],
    "constants": ["constants", "--tolerance", "1e-7"],
    "partition": ["partition", "--freq", "golden", "--delta", "0.2", "--Q", "20",
                  "--dump", "OUT/dump.csv"],
    "legendre": ["legendre", "--freq", "golden", "--Q", "200"],
    "solve": ["solve", "--freq", "golden", "--modes", "TMP/modes.json", "--R", "0.5",
              "--out-modes", "OUT/g.json"],
    "thm1": ["thm1", "--freq", "golden", "--delta", "0.2", "--count", "2"],
    "counterexample": ["counterexample", "--freq", "golden", "--delta-prime", "0.05",
                       "--n-max", "4", "--witness-csv", "OUT/w.csv",
                       "--out-modes", "OUT/ce.json"],
    "sweep": ["sweep", "--freq", "golden", "--check", "away", "--deltas", "0.1,0.2",
              "--Q", "30"],
    "sweep-failing": ["sweep", "--freq", "golden", "--check", "away", "--deltas", "0.1",
                      "--Q", "30", "--mu", "0.001"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_deterministic_and_exit_matches_verdicts(tmp_path, name):
    _write_modes(tmp_path / "modes.json", 1)
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        argv = [
            arg.replace("OUT", str(out)).replace("TMP", str(tmp_path))
            for arg in COMMANDS[name]
        ]
        code = main(["--out", str(out / "report")] + argv)
        runs.append((code, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    (code, files), (code_b, files_b) = runs
    assert code == code_b and files == files_b
    report = files["report"].decode()
    if name == "table1":
        verdicts = []
    elif name.startswith("sweep"):
        rows = report.splitlines()[1:]
        verdicts = [row.rsplit(",", 1)[1] == "True" for row in rows]
    else:
        verdicts = json.loads(report)["verdicts"].values()
    assert code == (EXIT_OK if all(verdicts) else EXIT_VERDICT)


def test_report_is_strict_json_with_non_finite_values(capsys):
    # a 10^400 quotient overflows the brj series to +inf
    code = main(
        ["brj", "--freq", f"quotients:[1,{10**400},1,1,1]", "--Delta", "1e-300"]
    )
    assert code == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    data = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert data["results"]["brj1"]["value"] == "inf"
    assert data["results"]["brj_combined"]["value"] == "inf"


def test_crash_exits_with_its_own_code(monkeypatch, capsys):
    # an unexpected exception in a handler is a defect, not a failed verdict
    def crash(args):
        raise RuntimeError("handler defect")

    monkeypatch.setitem(cli._HANDLERS, "gamma", crash)
    code = main(["gamma", "--freq", "golden", "--delta", "0.1"])
    assert code == EXIT_CRASH
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError")
    assert "Traceback" in err


def test_solve_past_the_float_range_saturates(tmp_path, capsys):
    # e^(R (|p| + |q|)) = e^801 is beyond the float range
    modes = tmp_path / "modes.json"
    _write_modes(modes, 800)
    code = main(["solve", "--freq", "golden", "--modes", str(modes), "--R", "1"])
    assert code == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    for norm in (results["data_norm"], results["solution_norm"]):
        assert norm["upper"] == "inf"
        assert norm["sampled_lower"] == sys.float_info.max


@pytest.mark.parametrize("p", [2**60 + 1, 2**63], ids=["2^60+1", "2^63"])
def test_solve_index_past_int64(tmp_path, capsys, p):
    modes = tmp_path / "modes.json"
    modes.write_text(json.dumps([{"p": s * p, "q": 0, "re": 1.0, "im": 0.0} for s in (1, -1)]))
    code = main(["solve", "--freq", "golden", "--modes", str(modes), "--R", "0.5"])
    assert code == EXIT_OK
    norm = json.loads(capsys.readouterr().out)["results"]["solution_norm"]
    assert norm["upper"] == "inf" and norm["sampled_lower"] == sys.float_info.max


@pytest.mark.parametrize("p", [2**63, -(2**63)], ids=["2^63", "-2^63"])
@pytest.mark.parametrize("R", ["1", "1e300"])
def test_solve_shift_past_2_53_and_the_float_range(tmp_path, capsys, p, R):
    # exit 0 with no overflow RuntimeWarning (an error in this suite) and no nan
    modes = tmp_path / "modes.json"
    _write_modes(modes, p)
    code = main(["solve", "--freq", "golden", "--modes", str(modes), "--R", R])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "nan" not in out
    results = json.loads(out)["results"]
    for norm in (results["data_norm"], results["solution_norm"]):
        assert norm["upper"] == "inf"
        assert norm["sampled_lower"] == sys.float_info.max


def test_solve_rejects_huge_grid_before_solving(tmp_path, capsys):
    modes = tmp_path / "modes.json"
    _write_modes(modes, 1)
    argv = ["solve", "--freq", "golden", "--modes", str(modes), "--R", "0.5"]
    code = main(argv + ["--grid-n", "100000000"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "grid_n must be between 8 and 4096" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{"p": 1, "q": 1, "re": 1.0, "im": 0.0}, {"p": -1, "q": -1, "re": 1.0}], "record 1 "),
        ({"p": 1, "q": 1, "re": 1.0, "im": 0.0}, "JSON list"),
        ([{"p": 1.5, "q": 1, "re": 1.0, "im": 0.0}], "record 0 "),
        ([{"p": 1, "q": 1, "re": float("nan"), "im": 0.0}], "record 0 "),
        ([{"p": 1, "q": 1, "re": 1.0, "im": 0.0}, {"p": 1, "q": 1, "re": 2.0, "im": 0.0}],
         "record 1 repeats mode (1, 1)"),
        ([{"p": 10**400, "q": 0, "re": 1.0, "im": 0.0}, {"p": -(10**400), "q": 0, "re": 1.0, "im": 0.0}],
         "record 0 "),
    ],
    ids=["missing-im", "top-level-object", "fractional-p", "nan-coefficient", "duplicate-mode",
         "huge-p"],
)
def test_solve_rejects_malformed_mode_file(tmp_path, capsys, rows, message):
    modes = tmp_path / "modes.json"
    modes.write_text(json.dumps(rows))  # float nan is written as NaN
    code = main(["solve", "--freq", "golden", "--modes", str(modes), "--R", "0.5"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("R", ["nan", "inf"])
def test_solve_rejects_non_finite_R(tmp_path, capsys, R):
    modes = tmp_path / "modes.json"
    _write_modes(modes, 1)
    code = main(["solve", "--freq", "golden", "--modes", str(modes), "--R", R])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "R must be a finite number > 0" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--span", "1"], "--modes-per-map"),  # 50 modes cannot fit in 8 cells
        (["--count", "0"], "--count"),
        (["--modes-per-map", "0"], "--modes-per-map"),
    ],
    ids=["span-too-small", "count-zero", "modes-per-map-zero"],
)
def test_thm1_rejects_impossible_inputs_before_computing(extra, flag):
    proc = run_cli("thm1", "--freq", "golden", "--delta", "0.2", *extra, timeout=60)
    assert proc.returncode == EXIT_INPUT
    assert flag in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", "--delta", "nan", "--Q", "5"], "delta must be finite, got nan"),
        (["partition", "--delta", "inf", "--Q", "5"], "delta must be finite, got inf"),
        (["partition", "--delta", "1e-17", "--Q", "5"], "e^(-delta) rounds to 1"),
        (["partition", "--delta", "0", "--Q", "5"], "delta must be > 0"),
        (["sweep", "--check", "away", "--deltas", "0.1,nan", "--Q", "5"], "finite, got nan"),
        (["sweep", "--check", "brjuno", "--deltas", "0.1,inf", "--Q", "5"], "finite, got inf"),
        (["sweep", "--check", "const_type", "--deltas", "0.2,1e-17", "--Q", "5"], "rounds to 1"),
        (["sweep", "--check", "away", "--deltas", "0.1,-1", "--Q", "5"], "delta must be > 0"),
        (["brj", "--Delta", "nan"], "Delta must be finite, got nan"),
        (["brj", "--Delta", "inf", "--C", "0.5"], "Delta must be finite, got inf"),
        (["brj", "--Delta", "0"], "Delta must be > 0"),
    ],
)
def test_unusable_delta_is_an_input_error_before_any_scan(monkeypatch, capsys, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a scan or series ran")

    # the first exact work of every box scan and of every series
    monkeypatch.setattr(smalldiv, "_box_rows", no_work)
    monkeypatch.setattr(bounds, "_brj_terms", no_work)
    command, *rest = argv
    assert main([command, "--freq", "golden", *rest]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_commands_import_numpy_and_mpmath_only_where_used(tmp_path):
    # a fresh interpreter per command; the five layer modules stay imported
    # at the top of the CLI, where perfbench/tracer.py reads them
    script = (
        "import json, sys\n"
        "from smalldivlab import cli\n"
        "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
        "layers = ('contfrac', 'classify', 'bounds', 'smalldiv', 'cohom')\n"
        "print(json.dumps([code, 'numpy' in sys.modules, 'mpmath' in sys.modules,\n"
        "                  all('smalldivlab.' + m in sys.modules for m in layers)]))\n"
    )
    cases = [
        (["brj", "--freq", "golden", "--Delta", "0.3"], False, False),
        (["gamma", "--freq", "golden", "--delta", "0.1"], False, False),
        (["legendre", "--freq", "golden", "--Q", "1000"], False, False),
        (["partition", "--freq", "golden", "--delta", "0.1", "--Q", "20"], True, False),
        (["brj", "--freq", "rule:omega-star(a1=2)", "--Delta", "0.3"], False, True),
    ]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for argv, numpy, mpmath in cases:
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "report"), *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [EXIT_OK, numpy, mpmath, True], argv


def test_truncation_reported_on_stderr(capsys):
    argv = ["brj", "--freq", "rule:exp-liouville(c=0.5,a1=1)", "--Delta", "0.3"]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert "truncated" in err and "5 of the 64 requested" in err
    assert "warning" not in out and json.loads(out)["params"]["depth"] == 4
    assert main(["brj", "--freq", "golden", "--Delta", "0.3"]) == EXIT_OK
    assert capsys.readouterr().err == ""
