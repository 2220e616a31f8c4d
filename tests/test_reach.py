"""Every package function is reached by a command, or it is listed here.

``test_every_function_is_reached_or_listed`` runs a fixed corpus of
``cli.main`` command lines in process, at small sizes, under
``sys.setprofile``.  The profiler sees each Python frame that is entered,
so the code objects of every module-level function and class method of
``smalldivlab`` that a command runs are collected.  The set left
unreached must equal ``UNREACHED``, whose entries each give the reason
the function stays.  A listed function that a command starts to reach,
or that is deleted, fails the test too, so the list can only shrink: an
entry leaves by getting a caller, or by being deleted with it.

The corpus runs every subcommand, every frequency form, ``--format
text``, ``--out``, ``--dump``, ``--out-modes``, ``--witness-csv``,
``brj --C`` and all three ``sweep --check`` kinds.  Functions are named
``module.function`` or ``module.Class.attribute`` from the module and
class dicts, not from ``co_qualname``, which Python 3.10 lacks.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from functools import cached_property

import smalldivlab
from smalldivlab import classify, cli

ESTIMATE = (
    "a paper estimate that only acceptance criteria 6 and 9 read; "
    "ROADMAP item 7 makes it a verdict of brj"
)
# the key of a one-field record is one code object, made by Record.__init_subclass__
ONE_FIELD_KEY = "compares and hashes a one-field record; no command compares or hashes this one"

UNREACHED = {
    "bounds.dioph_bound_rhs": ESTIMATE,
    "bounds.dioph_smallness_threshold": ESTIMATE,
    "bounds.kl_bound_rhs": ESTIMATE,
    "bounds.brj_fin_diff": ESTIMATE,
    "bounds.dph_series": ESTIMATE,
    "bounds.sigma_series": ESTIMATE,
    "bounds.sigma1_integral_bound_check": ESTIMATE,
    "bounds.KLGrowth.__post_init__": ESTIMATE + "; brj builds only a DiophGrowth",
    "bounds.KLGrowth._key": ONE_FIELD_KEY,
    "cohom.ModeMap._key": ONE_FIELD_KEY,
    "contfrac.FrequencySpec.describe": (
        "the README documents it as the inverse of parse_frequency, and the "
        "parser's round-trip test reads it"
    ),
    "_record.Record.__repr__": "records print as dataclasses do, in tests and at a prompt",
    "_record.Record.__hash__": "records hash as frozen dataclasses do",
    "_record.Record.__setattr__": "keeps every record frozen; no command assigns a field",
    "_record.Record.__delattr__": "keeps every record frozen; no command deletes a field",
    "_record.Record.__init_subclass__": "reads a record's fields when its class is made, at import",
    "_record.Record._replace": "tests derive records with it, and it validates them again",
    "_record.Record._key": "the base's key, which every record replaces with its own",
    "cli.console_main": "the entry point of the smalldiv script, which runs main out of process",
}

# the names of the frequency forms, for the corpus
GOLDEN = "golden"
SURD = "surd:[;1,40]"
QUOTIENTS = "quotients:[7,15,1,292,1,1,1,2,1,3,1,14,2,1,1,2,2,2,2,1,84,2,1]"
RATIONAL = "rational:355/1133"
OMEGA_STAR = "rule:omega-star(a1=2)"
EXP_LIOUVILLE = "rule:exp-liouville(c=0.5,a1=1)"


def corpus(tmp):
    """The command lines, each of which exits 0; side files go to ``tmp``."""
    modes = tmp / "modes.json"
    modes.write_text(json.dumps([
        {"p": 1, "q": 2, "re": 1.0, "im": 0.5},
        {"p": -1, "q": -2, "re": 1.0, "im": -0.5},
        {"p": 3, "q": -1, "re": 0.25, "im": 0.0},
        {"p": -3, "q": 1, "re": 0.25, "im": 0.0},
    ]))
    return [
        ["--format", "text", "classify", "--freq", GOLDEN],
        ["classify", "--freq", OMEGA_STAR, "--tau", "2.5"],
        ["classify", "--freq", RATIONAL],
        ["brj", "--freq", GOLDEN, "--Delta", "0.3", "--C", "0.5"],
        ["brj", "--freq", EXP_LIOUVILLE, "--Delta", "0.3"],
        ["gamma", "--freq", "surd:[;2]", "--delta", "0.1"],
        ["--out", str(tmp / "table.csv"), "table1"],
        ["constants"],
        ["partition", "--freq", SURD, "--delta", "0.2", "--Q", "20",
         "--dump", str(tmp / "pairs.csv")],
        ["legendre", "--freq", QUOTIENTS, "--Q", "300"],
        ["solve", "--freq", GOLDEN, "--modes", str(modes), "--R", "0.5",
         "--out-modes", str(tmp / "solved.json")],
        ["thm1", "--freq", GOLDEN, "--delta", "0.2", "--count", "2"],
        ["counterexample", "--freq", EXP_LIOUVILLE, "--delta-prime", "0.05",
         "--witness-csv", str(tmp / "witness.csv"), "--out-modes", str(tmp / "ce.json")],
        ["sweep", "--freq", GOLDEN, "--check", "away", "--deltas", "0.1,0.2", "--Q", "30"],
        ["sweep", "--freq", GOLDEN, "--check", "const_type", "--deltas", "0.1,0.2", "--Q", "30"],
        ["sweep", "--freq", "surd:[;2]", "--check", "brjuno", "--deltas", "0.1,0.2", "--Q", "30"],
    ]


def _functions_of(member):
    """The plain functions behind a class-dict entry."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f is not None]
    if isinstance(member, cached_property):
        return [member.func]
    return [member] if inspect.isfunction(member) else []


def package_functions() -> dict:
    """{name: code object} of every module-level function and class method."""
    found = {}
    for info in pkgutil.iter_modules(smalldivlab.__path__):
        module = importlib.import_module(f"smalldivlab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    for fn in _functions_of(member):
                        found[f"{info.name}.{name}.{attr}"] = fn.__code__
    return found


def run_profiled(argvs) -> tuple:
    """(exit codes, code objects entered) of ``cli.main`` over ``argvs``."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    return codes, entered


def test_every_function_is_reached_or_listed(tmp_path, monkeypatch, capsys):
    # khintchine_constants memoizes per process: start from an empty memo so
    # that the series it sums count as reached whatever ran before
    monkeypatch.setattr(classify, "_CONSTANTS_MEMO", {})
    argvs = corpus(tmp_path)
    codes, entered = run_profiled(argvs)
    capsys.readouterr()
    assert codes == [0] * len(argvs)
    functions = package_functions()
    left = {name for name, code in functions.items() if code not in entered}
    listed = set(UNREACHED)
    assert left == listed, {
        "unreached and not listed (give it a caller or delete it)": sorted(left - listed),
        "listed but reached (take it off the list)": sorted(listed & set(functions) - left),
        "listed but gone (take it off the list)": sorted(listed - set(functions)),
    }
