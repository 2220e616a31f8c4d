"""Contract fuzzer: every command line the parser accepts ends in exit 0, 1 or 2.

Options are drawn by walking ``build_parser()``'s actions, so a new option
is fuzzed with no edit here: a choice from its choices, a float from a pool
running from 5e-324 to 1.7e308 plus 0, negatives and non-finite values, an
int up to a small cap.  The caps keep each case small (Q <= 30, grid <= 64,
two thm1 maps).  A report must be strict JSON (or the documented CSV), and
exit 1 must come from a false verdict in it.
"""

import contextlib
import io
import itertools
import json
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smalldivlab.cli import EXIT_INPUT, EXIT_OK, EXIT_VERDICT, build_parser, main

FLOATS = (
    "5e-324", "1e-300", "1e-10", "0.001", "0.05", "0.1", "0.2", "0.3", "0.49", "0.5",
    "1", "1.25", "2", "2.5", "1e5", "1e300", "1.7e308", "0", "-1", "nan", "inf", "-inf",
)
# half of the floats come from here, so that commands with several float
# options still get past their input checks often
TYPICAL_FLOATS = ("0.05", "0.1", "0.2", "0.3")

FREQS = (
    "golden",
    "surd:[;2]",
    "surd:[1,2;3]",
    "surd:[;1,40]",
    "quotients:[7,15,1,292,1,1,1,2]",
    "quotients:[1,2]",
    # q_2 past the float range, as in the CI step
    f"quotients:[3,{2**1100 + 1},2,5,7]",
    "rational:355/113",
    "rational:2/5",
    "rule:omega-star(a1=2)",
    "rule:exp-liouville(c=0.5,a1=1)",
    "rule:exp-liouville(c=3/4,a1=2)",
    "rule:omega-star(name=1)",
    "surd:[;0]",
    "golden!",
)

# the largest value an int option is drawn up to; -1 is the smallest
INT_CAPS = {"Q": 30, "grid_n": 64, "count": 2, "bit_cap": 256}

# written once per module; "missing.json" is never written
MODE_FILES = {
    "pair.json": [
        {"p": 1, "q": 1, "re": 1.0, "im": 0.5},
        {"p": -1, "q": -1, "re": 1.0, "im": -0.5},
    ],
    # |c| e^(R k) past the float range at a small R k
    "large.json": [
        {"p": 0, "q": 700, "re": 1e300, "im": 1e300},
        {"p": 0, "q": -700, "re": 1e300, "im": -1e300},
        {"p": 1430, "q": 0, "re": 1e-320, "im": 0.0},
        {"p": -1430, "q": 0, "re": 1e-320, "im": 0.0},
    ],
    # abs(c) overflows, and so does the solution c / (i(p - q omega))
    "huge.json": [
        {"p": 0, "q": 1, "re": 1.7e308, "im": 1.7e308},
        {"p": 0, "q": -1, "re": 1.7e308, "im": -1.7e308},
    ],
    "single.json": [{"p": 0, "q": 1, "re": 1.0, "im": 0.0}],
    "malformed.json": {"p": 1},
}

OUTPUT_DESTS = ("out", "out_modes", "dump", "witness_csv")
CASE_SECONDS = 20

PARSER = build_parser()


def _options(parser):
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]


def _subparsers(parser):
    (action,) = (a for a in parser._actions if a.dest == "command")
    return action.choices


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name, rows in MODE_FILES.items():
        (root / name).write_text(json.dumps(rows))
    return root


_floats = st.sampled_from(TYPICAL_FLOATS) | st.sampled_from(FLOATS)


def _value(action, files):
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest in OUTPUT_DESTS:
        return st.just(str(files / action.dest))
    if action.dest == "freq":
        return st.sampled_from(FREQS)
    if action.dest == "modes":
        return st.sampled_from(sorted(MODE_FILES) + ["missing.json"]).map(
            lambda name: str(files / name)
        )
    if action.dest == "deltas":
        return st.lists(_floats, max_size=3).map(",".join)
    if action.type is float:
        return _floats
    if action.type is None:  # a free string option
        return st.sampled_from(("", "x"))
    return st.integers(-1, INT_CAPS.get(action.dest, 64)).map(str)


@st.composite
def _options_of(draw, parser, files):
    argv = []
    for action in _options(parser):
        if action.required or draw(st.booleans()):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(draw(_value(action, files)))
    return argv


@st.composite
def command_lines(draw, files):
    command = draw(st.sampled_from(sorted(_subparsers(PARSER))))
    top = draw(_options_of(PARSER, files))
    return top + [command] + draw(_options_of(_subparsers(PARSER)[command], files))


def _alarm(signum, frame):
    raise TimeoutError(f"a case ran past {CASE_SECONDS} s")


def _verdicts(command, fmt, report):
    """The verdict values a report states; raises if it is not well formed."""
    if command == "table1":
        assert report.startswith("T_minus,T_plus,")
        return []
    if command == "sweep":
        lines = report.splitlines()
        assert lines[0] == "delta,computed,bound,margin,verdict"
        return [line.rsplit(",", 1)[1] == "True" for line in lines[1:]]
    if fmt == "text":
        lines = report.splitlines()
        block = itertools.takewhile(
            lambda line: line.startswith("  "), lines[lines.index("verdicts:") + 1 :]
        )
        return [line.endswith(" = True") for line in block if " = " in line]

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    data = json.loads(report, parse_constant=reject)
    assert data["command"] == command
    return list(data["verdicts"].values())


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_command_line_keeps_the_exit_code_contract(files, data):
    argv = data.draw(command_lines(files))
    out = files / "out"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (EXIT_OK, EXIT_VERDICT, EXIT_INPUT), (argv, stderr.getvalue())
    if code == EXIT_INPUT:
        assert stderr.getvalue(), argv
        return
    args = PARSER.parse_args(argv)
    report = out.read_text() if args.out else stdout.getvalue()
    verdicts = _verdicts(args.command, args.fmt, report)
    assert code == (EXIT_OK if all(verdicts) else EXIT_VERDICT), (argv, verdicts)
