"""Front-end parsing, report determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import pytest

import smalldivlab
from smalldivlab import bounds, classify, cli, smalldiv
from smalldivlab.cli import (
    EXIT_CRASH,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERDICT,
    main,
)
from smalldivlab.cohom import load_modes
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
        # keys that name make_rule's own arguments
        ("rule:omega-star(name=1)", "name"),
        ("rule:exp-liouville(cls=1)", "cls"),
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


def _hermitian_modes(path):
    """The mode map written to ``path``, checked to be real: each mirror
    (-p, -q) is present and is the conjugate of (p, q)."""
    entries = load_modes(path).entries
    for (p, q), c in entries.items():
        assert entries.get((-p, -q)) == c.conjugate(), (path, p, q)
    return entries


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
    assert len(_hermitian_modes(gout)) == 2

    code = main(
        ["--out", str(out), "thm1", "--freq", "golden", "--delta", "0.2",
         "--seed", "1", "--count", "3"]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["verdicts"]["all_pass"] is True


def test_counterexample_command(tmp_path):
    out = tmp_path / "ce.json"
    csv_path = tmp_path / "witness.csv"
    modes = tmp_path / "modes.json"
    code = main(
        ["--out", str(out), "counterexample", "--freq", "rule:exp-liouville(c=0.5,a1=1)",
         "--delta-prime", "0.05", "--n-max", "4", "--witness-csv", str(csv_path),
         "--out-modes", str(modes)]
    )
    assert code == EXIT_OK
    assert _hermitian_modes(modes)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--freq", "golden", "--delta", "0.2", "--Q", "20"],
        ["sweep", "--freq", "golden", "--check", "away", "--deltas", "0.2", "--Q", "20"],
    ],
    ids=["partition", "sweep"],
)
def test_partition_oracle_catches_a_kernel_defect(monkeypatch, capsys, argv):
    # a divisor off by 1e-9 relative in every row q >= 1 of the kernel: the
    # class sums still add up to the all-cell sum, so only the scalar oracle
    # sees it, at the first row q = 1 cell it checks; a kernel defect is an
    # internal error, not a failed verdict
    box_rows = smalldiv._box_rows

    def defective(cf, Q):
        table, floors, f, g = box_rows(cf, Q)
        f, g = ([v[0]] + [x * (1.0 + 1e-9) for x in v[1:]] for v in (f, g))
        return table, floors, f, g

    monkeypatch.setattr(smalldiv, "_box_rows", defective)
    assert main(argv) == EXIT_CRASH
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: RuntimeError: box kernel at (q=1, p=-12): ")


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


def test_brj_sum_of_finite_terms_past_the_float_range_is_inf(capsys):
    # terms 2.7e307, 2.7e307, 5.4e307 and 8.1e307 are each finite, but their
    # sum is not: math.fsum raises there instead of returning inf
    freq = f"quotients:[1,{27 * 10**306},1,1,1,1,1]"
    assert main(["brj", "--freq", freq, "--Delta", "5e-324"]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["brj1"]["value"] == "inf"
    assert results["brj_combined"]["value"] == "inf"


def test_crash_exits_with_its_own_code(monkeypatch, capsys):
    # an unexpected exception in a handler is a defect, not a failed verdict
    def crash(args):
        raise RuntimeError("handler defect")

    monkeypatch.setattr(cli, "_cmd_gamma", crash)
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


def test_solve_large_coefficients_saturate_without_overflow(tmp_path, capsys):
    # R k_max = 286 alone needs no shift, but |c| e^(R k) = 1.4e300 e^140
    # overflows; a RuntimeWarning is an error in this suite
    rows = [
        {"p": 0, "q": 700, "re": 1e300, "im": 1e300},
        {"p": 0, "q": -700, "re": 1e300, "im": -1e300},
        {"p": 1430, "q": 0, "re": 1e-320, "im": 0.0},
        {"p": -1430, "q": 0, "re": 1e-320, "im": 0.0},
    ]
    modes = tmp_path / "modes.json"
    modes.write_text(json.dumps(rows))
    code = main(["solve", "--freq", "surd:[;2]", "--modes", str(modes), "--R", "0.2"])
    assert code == EXIT_OK
    norm = json.loads(capsys.readouterr().out)["results"]["data_norm"]
    assert norm["upper"] == "inf" and norm["sampled_lower"] == sys.float_info.max


def test_solve_norm_past_e709_is_the_finite_product(tmp_path, capsys):
    # e^1430 overflows a float while 2e-320 e^1430 ~ 2.2e301 does not: the
    # upper bound is that finite product, and it bounds the sampled value
    modes = tmp_path / "modes.json"
    rows = [{"p": s * 1430, "q": 0, "re": 1e-320, "im": 0.0} for s in (1, -1)]
    modes.write_text(json.dumps(rows))
    code = main(["solve", "--freq", "golden", "--modes", str(modes), "--R", "1", "--grid-n", "8"])
    assert code == EXIT_OK
    norm = json.loads(capsys.readouterr().out)["results"]["data_norm"]
    want = math.exp(math.log(2e-320) + 1430)
    assert math.isfinite(norm["upper"]) and norm["upper"] == pytest.approx(want, rel=1e-9)
    assert norm["sampled_lower"] <= norm["upper"]


def test_solve_solution_past_the_float_range_is_an_input_error(tmp_path, capsys):
    # 1.7e308 / |0 - 1 omega| with omega = sqrt(2) - 1 = 0.41 overflows
    c = 1.7e308
    rows = [{"p": 0, "q": 1, "re": c, "im": c}, {"p": 0, "q": -1, "re": c, "im": -c}]
    modes = tmp_path / "modes.json"
    modes.write_text(json.dumps(rows))
    code = main(["solve", "--freq", "surd:[;2]", "--modes", str(modes), "--R", "0.2"])
    assert code == EXIT_INPUT
    assert "mode (p=0, q=1): the solution" in capsys.readouterr().err


# 10 (2/5) - 4 = 0: no depth resolves the divisor of the modes +-(4, 10), so
# the message names the resonance instead of asking for a deeper expansion
_RESONANT = "error: resonant mode (q=10, p=4): q omega = p exactly, so its divisor is 0\n"


def test_solve_names_a_resonant_mode(tmp_path, capsys):
    modes = tmp_path / "modes.json"
    modes.write_text(
        json.dumps([{"p": s * 4, "q": s * 10, "re": 1.0, "im": 0.0} for s in (1, -1)])
    )
    for depth in ("64", "200"):
        argv = ["solve", "--freq", "rational:2/5", "--modes", str(modes), "--R", "0.5"]
        assert main(argv + ["--depth", depth]) == EXIT_INPUT
        assert capsys.readouterr() == ("", _RESONANT)


def test_thm1_names_a_resonant_mode(capsys):
    # seed 2^200 + 3 draws the mode (4, 10) into its maps, but the mode
    # (5, 2) of omega = 2/5 itself makes Gamma0 infinite before any is solved
    seed = str(2**200 + 3)
    for depth in ("64", "200"):
        argv = ["thm1", "--freq", "rational:2/5", "--delta", "0.2", "--count", "3",
                "--seed", seed, "--depth", depth]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == (
            "",
            "error: resonant mode (q=5, p=2): q omega = p exactly, so Gamma0 is infinite\n",
        )


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
        ([{"p": 1, "q": 1, "re": 1.0, "im": 0.0},
          {"p": {"p": 2, "q": 1, "re": 1.0, "im": 0.0}, "q": 1, "re": 1.0, "im": 0.0}],
         "record 1 "),
        ([{"p": 1, "q": 1, "re": 1.0, "im": 0.0}, 2.5], "record 1 "),
    ],
    ids=["missing-im", "top-level-object", "fractional-p", "nan-coefficient", "duplicate-mode",
         "huge-p", "object-p", "number-record"],
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
        (["--span", "-3", "--modes-per-map", "5"], "--span"),
        (["--mu", "nan"], "mu must be a finite number >= 1, got nan"),
        (["--mu", "inf"], "mu must be a finite number >= 1, got inf"),
        (["--rho", "inf"], "rho must be finite, got inf"),
    ],
    ids=["span-too-small", "count-zero", "modes-per-map-zero", "span-negative", "mu-nan",
         "mu-inf", "rho-inf"],
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
        (["brj", "--Delta", "0.3", "--C", "0"], "C must be > 0"),
        (["brj", "--Delta", "0.3", "--C", "-1"], "C must be > 0"),
        (["brj", "--Delta", "0.3", "--C", "nan"], "C must be finite, got nan"),
        (["brj", "--Delta", "0.3", "--C", "0.5", "--tau", "inf"], "tau must be a finite"),
        (["classify", "--T-minus", "nan"], "band widths must be finite numbers >= 0"),
        (["classify", "--T-plus", "inf"], "band widths must be finite numbers >= 0"),
        (["classify", "--tau", "nan"], "tau must be a finite number >= 1, got nan"),
        (["classify", "--tau", "inf"], "tau must be a finite number >= 1, got inf"),
        (["counterexample", "--delta-prime", "0.05", "--epsilon", "nan"],
         "epsilon must be finite, got nan"),
        (["counterexample", "--delta-prime", "0.05", "--rho", "inf"],
         "rho must be finite, got inf"),
        (["sweep", "--check", "away", "--deltas", "0.1,0.5", "--Q", "20"], "delta < 1/e"),
        (["sweep", "--check", "away", "--deltas", "0.1", "--Q", "20", "--mu", "nan"],
         "mu must be finite, got nan"),
        (["sweep", "--check", "brjuno", "--deltas", "0.1", "--Q", "20", "--mu", "inf"],
         "mu must be finite, got inf"),
        (["gamma", "--delta", "0.1", "--rho", "inf"], "rho must be finite, got inf"),
        (["partition", "--delta", "0.2", "--Q", "0"], "box radius must be >= 1"),
        (["legendre", "--Q", "0"], "box radius must be >= 1"),
        (["sweep", "--check", "away", "--deltas", "0.1", "--Q", "0"], "box radius must be >= 1"),
        (["counterexample", "--delta-prime", "0.05", "--n-max", "0"], "n_max must be >= 1"),
        (["counterexample", "--delta-prime", "5"], "need 0 < delta_prime < rho"),
        # the modes file does not exist: R and grid_n are checked before it is read
        (["solve", "--modes", "missing.json", "--R", "nan"], "R must be a finite number > 0"),
        (["solve", "--modes", "missing.json", "--R", "0.5", "--grid-n", "4"],
         "grid_n must be between 8 and 4096"),
    ],
)
def test_unusable_delta_is_an_input_error_before_any_scan(monkeypatch, capsys, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the frequency was expanded, or a scan or series ran")

    # the expansion, then the first exact work of every box scan and of every series
    monkeypatch.setattr(cli, "expand", no_work)
    monkeypatch.setattr(smalldiv, "_box_rows", no_work)
    monkeypatch.setattr(bounds, "_brj_terms", no_work)
    command, *rest = argv
    assert main([command, "--freq", "golden", *rest]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["--span", str(2**63)], f"--span must be below 2^63, got {2**63}"),
        (["--span", str(2**64)], f"--span must be below 2^63, got {2**64}"),
    ],
    ids=["seed-negative", "span-2^63", "span-2^64"],
)
def test_thm1_seed_and_span_are_input_errors_before_the_expansion(
    monkeypatch, capsys, extra, message
):
    # the expansion once ran first, and numpy then rejected the seed with
    # "expected non-negative integer" and the span with "high is out of
    # bounds for int64", naming neither option
    def no_work(*args, **kwargs):
        raise AssertionError("the frequency was expanded")

    monkeypatch.setattr(cli, "expand", no_work)
    for freq in ("golden", "rational:2/5"):
        assert main(["thm1", "--freq", freq, "--delta", "0.2", *extra]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""


def test_thm1_leaves_numpy_random_unloaded(tmp_path):
    # the maps come from smalldivlab._pcg64; numpy is loaded by the strip norm.
    # numpy 1.x imports numpy.random together with numpy, so only numpy 2
    # can show that thm1 leaves it unloaded
    script = (
        "import json, sys\n"
        "from smalldivlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, 'numpy' in sys.modules, 'numpy.random' in sys.modules]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = ["--out", str(tmp_path / "report"), "thm1", "--freq", "golden", "--delta", "0.2",
            "--count", "100"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded, random_loaded = json.loads(proc.stdout)
    assert [code, numpy_loaded] == [EXIT_OK, True]
    if int(metadata.version("numpy").split(".")[0]) >= 2:
        assert not random_loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--delta", "1e-200"],
        ["gamma", "--delta", "1e-162"],
        ["thm1", "--delta", "1e-300", "--count", "1"],
    ],
)
def test_delta_whose_square_underflows_is_an_input_error(monkeypatch, capsys, argv):
    # the const-type term divides by delta^2; this used to crash with
    # ZeroDivisionError (exit 3)
    def no_work(*args, **kwargs):
        raise AssertionError("the frequency was expanded")

    monkeypatch.setattr(cli, "expand", no_work)
    command, *rest = argv
    assert main([command, "--freq", "golden", *rest]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "delta**2 underflows to 0" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["constants", "table1"])
@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_non_finite_tolerance_is_an_input_error(monkeypatch, capsys, command, tolerance):
    # a NaN tolerance passed "tolerance < 1e-10", and the kappa series then
    # doubled its terms up to 2^26; the tail enclosure is its first work
    def no_work(*args, **kwargs):
        raise AssertionError("the kappa series ran")

    monkeypatch.setattr(classify, "_gauss_tail_enclosure", no_work)
    assert main([command, "--tolerance", tolerance]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "tolerance must be a finite number >= 1e-10" in captured.err
    assert captured.out == ""


def test_every_command_runs_traced(tmp_path):
    # perfbench/tracer.py wraps the layers' public functions and binds their
    # call arguments by signature (partition_sums's Q, strip_norm's grid_n,
    # ...); a signature it cannot read crashes the traced run
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    _write_modes(tmp_path / "modes.json", 1)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for name, argv in sorted(COMMANDS.items()):
        out = tmp_path / name
        out.mkdir()
        argv = [arg.replace("OUT", str(out)).replace("TMP", str(tmp_path)) for arg in argv]
        record = out / "record.json"
        proc = subprocess.run(
            [sys.executable, str(child), str(record), "1", str(SRC), "--",
             "--out", str(out / "report"), *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode in (EXIT_OK, EXIT_VERDICT), (name, proc.stderr)
        assert json.loads(record.read_text())["spans"], name


def test_commands_import_numpy_and_mpmath_only_where_used(tmp_path):
    # a fresh interpreter per command; the five layer modules stay imported
    # at the top of the CLI, where perfbench/tracer.py reads them.  No command
    # loads mpmath or dataclasses (the records share one base class), and
    # numpy is loaded only by the box kernel, the strip norm and thm1.  thm1
    # draws its maps in Python ints (smalldivlab._pcg64), so no command loads
    # numpy.random; numpy 1.x imports it together with numpy, so only numpy
    # 2 can show that
    script = (
        "import json, sys\n"
        "from smalldivlab import cli\n"
        "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
        "layers = ('contfrac', 'classify', 'bounds', 'smalldiv', 'cohom')\n"
        "print(json.dumps([code, 'numpy' in sys.modules, 'numpy.random' in sys.modules,\n"
        "                  'mpmath' in sys.modules, 'dataclasses' in sys.modules,\n"
        "                  all('smalldivlab.' + m in sys.modules for m in layers)]))\n"
    )
    numpy_2 = int(metadata.version("numpy").split(".")[0]) >= 2
    omega_star, liouville = "rule:omega-star(a1=2)", "rule:exp-liouville(c=0.5,a1=1)"
    cases = [
        (["brj", "--freq", "golden", "--Delta", "0.3"], False),
        (["gamma", "--freq", "golden", "--delta", "0.1"], False),
        (["legendre", "--freq", "golden", "--Q", "1000"], False),
        (["partition", "--freq", "golden", "--delta", "0.1", "--Q", "20"], True),
        (["classify", "--freq", omega_star], False),
        (["classify", "--freq", liouville], False),
        (["brj", "--freq", omega_star, "--Delta", "0.3"], False),
        (["gamma", "--freq", liouville, "--delta", "0.2"], False),
        (["counterexample", "--freq", liouville, "--delta-prime", "0.05"], False),
        (["constants"], False),
        (["table1"], False),
        (["thm1", "--freq", "golden", "--delta", "0.2", "--count", "1"], True),
    ]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for argv, numpy in cases:
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "report"), *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        code, numpy_loaded, random_loaded, *others = json.loads(proc.stdout)
        assert [code, numpy_loaded, *others] == [EXIT_OK, numpy, False, False, True], argv
        if numpy_2:
            assert not random_loaded, argv


def test_every_command_runs_without_mpmath(tmp_path):
    # one fresh interpreter in which "import mpmath" fails runs every command
    _write_modes(tmp_path / "modes.json", 1)
    script = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from smalldivlab import cli\n"
        "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    runs = []
    for name, argv in sorted(COMMANDS.items()):
        out = tmp_path / name
        out.mkdir()
        argv = [arg.replace("OUT", str(out)).replace("TMP", str(tmp_path)) for arg in argv]
        runs.append(["--out", str(out / "report"), *argv])
    runs.append(["--out", str(tmp_path / "rule"), "classify", "--freq", "rule:omega-star(a1=2)"])
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    expected = [EXIT_VERDICT if name == "sweep-failing" else EXIT_OK for name in sorted(COMMANDS)]
    assert json.loads(proc.stdout) == expected + [EXIT_OK], proc.stderr


# a_2 = 2^1100 + 1: 3 omega - 1 and the terms built on q_2 leave the float range
HUGE_QUOTIENT = f"quotients:[3,{2**1100 + 1},2,5,7]"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["classify", "--tau", "1"], EXIT_OK, ""),
        (["classify", "--tau", "2"], EXIT_OK, ""),
        (["classify", "--tau", "2.5"], EXIT_OK, ""),
        (["brj", "--Delta", "0.3"], EXIT_OK, ""),
        (["gamma", "--delta", "0.1"], EXIT_OK, ""),
        (["legendre", "--Q", "1000"], EXIT_OK, ""),
        (["counterexample", "--delta-prime", "0.05"], EXIT_OK, ""),
        (["solve", "--modes", "TMP/modes.json", "--R", "0.5"], EXIT_INPUT, "mode (p=1, q=3)"),
        (["thm1", "--delta", "0.2", "--count", "2"], EXIT_INPUT, "mode (p="),
        (["partition", "--delta", "0.2", "--Q", "20"], EXIT_INPUT, "pair (q=3, p=1)"),
        (["sweep", "--check", "brjuno", "--deltas", "0.1,0.2", "--Q", "20"], EXIT_INPUT,
         "pair (q=3, p=1)"),
    ],
    ids=["classify-tau1", "classify-tau2", "classify-tau2.5", "brj", "gamma", "legendre",
         "counterexample", "solve", "thm1", "partition", "sweep"],
)
def test_denominator_past_the_float_range_is_no_crash(tmp_path, capsys, argv, code, message):
    (tmp_path / "modes.json").write_text(
        json.dumps([{"p": s, "q": 3 * s, "re": 1.0, "im": 0.0} for s in (1, -1)])
    )
    argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
    assert main([argv[0], "--freq", HUGE_QUOTIENT] + argv[1:]) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        json.loads(out)
    else:
        assert out == "" and message in err and "internal error" not in err


def test_brj_certificate_with_tau_past_1024_exits_0():
    # the decay test 2^tau (weight growth) e^(-x1) <= 1/2 is decided in
    # logs: 2.0 ** 1100 raised OverflowError (exit 3)
    proc = run_cli("brj", "--freq", "golden", "--Delta", "0.3", "--C", "0.5", "--tau", "1100",
                   timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    results = json.loads(proc.stdout)["results"]
    for name in ("brj1", "brj2", "brj_combined"):
        assert results[name]["tail_kind"] == "rigorous"


@pytest.mark.parametrize("tau", ["100000", "1e308"])
def test_classify_with_a_huge_integer_tau_finishes(tau):
    # Fraction(q_n) ** tau took 38 s at tau = 1e5 and never ended at 1e308
    proc = run_cli("classify", "--freq", "golden", "--tau", tau, timeout=30)
    assert proc.returncode == EXIT_OK, proc.stderr
    cert = json.loads(proc.stdout)["results"]["diophantine"]
    omega = (5**0.5 - 1) / 2
    assert 0.0 <= cert["C_empirical_lo"] <= 1.0 - omega <= cert["C_empirical_hi"]


def test_truncation_reported_on_stderr(capsys):
    argv = ["brj", "--freq", "rule:exp-liouville(c=0.5,a1=1)", "--Delta", "0.3"]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert "truncated" in err and "5 of the 64 requested" in err
    assert "warning" not in out and json.loads(out)["params"]["depth"] == 4
    assert main(["brj", "--freq", "golden", "--Delta", "0.3"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_depth_past_the_ceiling_reads_10000_quotients(capsys):
    # --depth is the one way to ask for quotients; past the fixed ceiling
    # the expansion stops there and says so
    argv = ["gamma", "--freq", "golden", "--delta", "0.1"]
    assert main(argv + ["--depth", "20000"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "truncated: 10000 of the 20000 requested" in err
    assert main(argv + ["--depth", "20000", "--depth-cap", "6"]) == EXIT_INPUT
    assert "unrecognized arguments: --depth-cap" in capsys.readouterr().err


def test_sweep_delta_whose_square_overflows_is_no_crash(capsys):
    # 1e300 squared is past the float range: the bound is 0.0, as is the sum
    argv = ["sweep", "--freq", "golden", "--check", "const_type", "--deltas", "1e300", "--Q", "5"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "1e+300,0.0,0.0,0.0,True"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--freq", "rational:1/2"],
         "classify needs at least 2 partial quotients; "
         "--freq rational:1/2 expanded to 1 of the 64 requested"),
        (["classify", "--freq", "quotients:[3]"],
         "classify needs at least 2 partial quotients; "
         "--freq quotients:[3] expanded to 1 of the 64 requested"),
        (["classify", "--freq", "golden", "--depth", "1"],
         "classify needs at least 2 partial quotients; "
         "--freq golden expanded to 1 of the 1 requested"),
        (["counterexample", "--freq", "rational:1/2", "--delta-prime", "0.05"],
         "counterexample needs at least 2 partial quotients; "
         "--freq rational:1/2 expanded to 1 of the 64 requested"),
        (["sweep", "--freq", "golden", "--check", "away", "--deltas", "0.1,abc", "--Q", "5"],
         "--deltas takes comma-separated numbers, got '0.1,abc'"),
        (["partition", "--freq", "rational:1/20", "--delta", "0.2", "--Q", "5"],
         "expansion of depth 1 too shallow for box radius 5: "
         "the exact expansion of 1/20 ends there, so no deeper one helps"),
        (["sweep", "--freq", "rational:1/3", "--check", "away", "--deltas", "0.1", "--Q", "5"],
         "expansion of depth 1 too shallow for box radius 5: "
         "the exact expansion of 1/3 ends there, so no deeper one helps"),
        (["legendre", "--freq", "rational:1/2", "--Q", "5"],
         "legendre needs an irrational frequency; 1/2 is rational"),
        (["gamma", "--freq", "golden", "--delta", "0.1", "--bit-cap", "7"],
         "bit_cap must be at least 8, got 7"),
        (["sweep", "--freq", "golden", "--check", "away", "--deltas", ",", "--Q", "5"],
         "--deltas takes comma-separated numbers, got ','"),
        (["gamma", "--freq", "rational:1/2", "--delta", "0.1"],
         "resonant mode (q=2, p=1): q omega = p exactly, so Gamma0 is infinite"),
        (["thm1", "--freq", "rational:355/1133", "--delta", "0.2", "--count", "3"],
         "resonant mode (q=1133, p=355): q omega = p exactly, so Gamma0 is infinite"),
    ],
    ids=["classify-rational", "classify-quotients", "classify-depth1", "counterexample",
         "sweep-deltas", "partition-rational", "sweep-rational", "legendre-rational",
         "bit-cap", "sweep-empty-deltas", "gamma-rational", "thm1-rational"],
)
def test_input_error_names_the_cause(capsys, argv, message):
    # these once read "depth must be >= 1" and "n_max must be >= 1" (the
    # depth and --n-max clipped to the expansion's length less one), "could
    # not convert string to float", "verify_legendre needs ...", "bit_cap
    # too small", "sweep needs a nonempty delta list" and, for a rational
    # whose expansion has ended, "expand deeper"; gamma and thm1 exited 0
    # with a finite Gamma0 for a rational
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: {message}\n")


def test_every_subcommand_help_names_its_options(capsys):
    # each subcommand gets the shared options from the parent parsers of
    # build_parser: a subcommand left without them would not show them here
    (action,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    helps = {}
    for command in action.choices:
        assert main([command, "-h"]) == EXIT_OK
        helps[command] = capsys.readouterr().out
        assert "--out" in helps[command] and "--format" in helps[command]
    freq_commands = {
        command for command, text in helps.items()
        if all(opt in text for opt in ("--freq", "--depth", "--bit-cap"))
    }
    assert freq_commands == set(helps) - {"table1", "constants"}
    assert len(freq_commands) == 9
    # the module docstring lists the subcommands in the parser's order
    listed = " ".join(cli.__doc__.split("Subcommands: ")[1].split(".")[0].split())
    assert listed.split(", ") == list(action.choices)
