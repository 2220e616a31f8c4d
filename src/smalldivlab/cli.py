"""Command-line front end.

Subcommands: classify, brj, gamma, table1, constants, partition,
legendre, solve, thm1, counterexample, sweep.  Reports are emitted as
strict JSON objects {command, params, results, verdicts, version} (or CSV
for tabular artifacts); non-finite floats are encoded as the strings
"inf", "-inf" and "nan".  Identical configurations produce byte-identical
files (fixed ordering, no timestamps).  A frequency expansion that stops
short of the requested depth is reported on stderr.  Exit codes: 0
success, 1 a verdict failed, 2 input error, 3 internal error (a crash).

``--freq`` takes the frequency mini-language of
``contfrac.parse_frequency``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

# numpy and mpmath are imported by the functions that call them, so a command
# loads only what it runs.  Every layer module is imported here all the same:
# perfbench/tracer.py wraps their public functions through sys.modules.
from . import __version__
from .bounds import (
    BoundReport,
    DiophGrowth,
    _brjuno_box_bound,
    _const_type_leading,
    brj1,
    brj2,
    brj_combined,
    format_table1_csv,
    gamma_delta,
    table1_rows,
)
from .classify import (
    brjuno_partial_sum,
    diophantine_constant,
    khintchine_constants,
    kl_membership,
    kl_params,
    levy_example_bound,
)
from .cohom import (
    ModeMap,
    blowup_witness,
    check_thm1,
    counterexample_modes,
    load_modes,
    save_modes,
    solve_modes,
    strip_norm,
)
from .contfrac import ContinuedFraction, ExpansionError, expand, parse_frequency, verify_nint_lemma
from .smalldiv import (
    _check_delta,
    away_bound_check,
    box_sum,
    partition_dump,
    partition_sums,
    verify_legendre,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_CRASH = 3

def _scalar_text(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _render_text(value, indent=0) -> str:
    """Human-readable rendering: floats rounded to 6 significant digits."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return f"{pad}(none)"
        lines = []
        for key in sorted(value, key=str):
            v = value[key]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{key} = {_scalar_text(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        if not value:
            return f"{pad}(empty)"
        lines = []
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
        return "\n".join(lines)
    return pad + _scalar_text(value)


def _plain(value):
    """``value`` as plain JSON data: dataclasses become dicts, tuples lists,
    numpy scalars Python scalars, and non-finite floats the strings "inf",
    "-inf" and "nan"."""
    if hasattr(value, "__dataclass_fields__"):
        value = asdict(value)
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    np = sys.modules.get("numpy")  # without numpy loaded there are no numpy scalars
    if np is not None and isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _render(report: dict, fmt: str) -> str:
    report = _plain(report)
    if fmt == "text":
        return _render_text(report) + "\n"
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _report(command: str, params: dict, results: dict, verdicts: dict) -> dict:
    return {
        "command": command,
        "params": params,
        "results": results,
        "verdicts": verdicts,
        "version": __version__,
    }


def _expand_freq(args) -> ContinuedFraction:
    spec = parse_frequency(args.freq, args.depth_cap, args.bit_cap)
    cf = expand(spec, args.depth)
    if cf.truncated:
        sys.stderr.write(
            f"warning: --freq {args.freq} truncated: {cf.depth} of the "
            f"{args.depth} requested partial quotients\n"
        )
    return cf


def _bound_report_dict(rep: BoundReport) -> dict:
    return {**asdict(rep), "margin": rep.margin, "verdict": rep.verdict}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> dict:
    cf = _expand_freq(args)
    depth = min(args.depth, cf.depth - 1)
    cert = diophantine_constant(cf, args.tau, depth)
    params = kl_params(args.T_minus, args.T_plus, args.N)
    kl = kl_membership(cf, params, min(cf.depth, max(params.N, depth)))
    bps = brjuno_partial_sum(cf, depth)
    nint = verify_nint_lemma(cf, min(10, cf.depth - 1))
    return _report(
        "classify",
        {
            "freq": args.freq,
            "tau": args.tau,
            "depth": depth,
            "T_minus": args.T_minus,
            "T_plus": args.T_plus,
            "N": args.N,
        },
        {
            "diophantine": cert,
            "kl": kl,
            "brjuno_partial_sum": bps,
            "quotients_head": list(cf.quotients[:12]),
            "truncated": cf.truncated,
        },
        {"nint_lemma_all_true": all(ok for _, _, ok in nint)},
    )


def _cmd_brj(args) -> dict:
    cf = _expand_freq(args)
    depth = min(args.depth, cf.depth - 1)
    growth = None
    if args.C is not None:
        growth = DiophGrowth(C=args.C, tau=args.tau)
    b1 = brj1(cf, args.Delta, depth, growth)
    b2 = brj2(cf, args.Delta, depth, growth)
    comb = brj_combined(cf, args.Delta, depth, growth)
    return _report(
        "brj",
        {"freq": args.freq, "Delta": args.Delta, "depth": depth},
        {"brj1": b1, "brj2": b2, "brj_combined": comb},
        {},
    )


def _cmd_gamma(args) -> dict:
    cf = _expand_freq(args)
    gd = gamma_delta(cf, args.rho, args.delta, mu=args.mu)
    return _report(
        "gamma",
        {"freq": args.freq, "rho": args.rho, "delta": args.delta, "mu": args.mu},
        {
            "Gamma0": gd.Gamma0,
            "brj_term": gd.brj_term,
            "const_type_term": gd.const_type_term,
            "away_term": gd.away_term,
            "Delta": gd.Delta,
            "omega": gd.omega,
            "omega_halfwidth": gd.omega_halfwidth,
            "G_away_leading": gd.G_away_leading,
            "G_const_type_leading": gd.G_const_type_leading,
        },
        {},
    )


def _cmd_table1(args) -> tuple:
    rows = table1_rows(tolerance=args.tolerance)
    return format_table1_csv(rows), True


def _cmd_constants(args) -> dict:
    consts = khintchine_constants(args.tolerance)
    ell, G = levy_example_bound()
    return _report(
        "constants",
        {"tolerance": args.tolerance},
        {
            "kappa": consts.kappa,
            "kappa_prime": consts.kappa_prime,
            "kappa_ratio": consts.ratio,
            "T_minus_max": consts.t_minus_max,
            "tail_bound": consts.tail_bound,
            "ell": ell,
            "G_example": G,
        },
        {},
    )


def _cmd_partition(args) -> dict:
    cf = _expand_freq(args)
    sums = partition_sums(cf, args.delta, args.Q)
    oracle = box_sum(cf, args.delta, args.Q)
    count_total = sum(sums.counts.values())
    box_cells = (2 * args.Q + 1) ** 2 - 1
    rel = abs(sums.total - oracle) / oracle if oracle else 0.0
    ok = rel <= 1e-12 and count_total == box_cells
    if args.dump:
        partition_dump(cf, args.delta, args.Q, args.dump)
    return _report(
        "partition",
        {"freq": args.freq, "delta": args.delta, "Q": args.Q},
        {
            "away": sums.away,
            "const_type": sums.const_type,
            "brjuno": sums.brjuno,
            "brjuno_k0": sums.brjuno_k0,
            "total": sums.total,
            "counts": sums.counts,
            "away_tail_bound": sums.away_tail_bound,
            "oracle_total": oracle,
            "oracle_rel_diff": rel,
        },
        {"oracle_match": ok, "counts_tile_box": count_total == box_cells},
    )


def _cmd_legendre(args) -> dict:
    cf = _expand_freq(args)
    rep = verify_legendre(cf, args.Q)
    return _report(
        "legendre",
        {"freq": args.freq, "Q": args.Q},
        _bound_report_dict(rep),
        {"all_pass": rep.verdict and not rep.params["violations"]},
    )


def _cmd_solve(args) -> dict:
    cf = _expand_freq(args)
    a = load_modes(args.modes)
    a_norm = strip_norm(a, args.R, args.grid_n)  # checks R and grid_n before the solve
    solved = solve_modes(a, cf)
    g_norm = strip_norm(solved.modes, args.R, args.grid_n)
    if args.out_modes:
        save_modes(solved.modes, args.out_modes)
    return _report(
        "solve",
        {"freq": args.freq, "modes": args.modes, "R": args.R},
        {
            "mode_count": len(a),
            "max_rel_err": solved.max_rel_err,
            "data_norm": a_norm,
            "solution_norm": g_norm,
        },
        {},
    )


def _random_decay_modes(rng, rho: float, count: int, span: int) -> ModeMap:
    """Seeded random zero-mean hermitian data with enforced strip decay."""
    entries = {}
    while len(entries) < 2 * count:
        p = int(rng.integers(-span, span + 1))
        q = int(rng.integers(-span, span + 1))
        if (p, q) == (0, 0) or (p, q) in entries or (-p, -q) in entries:
            continue
        magnitude = float(rng.uniform(0.1, 1.0)) * math.exp(-(abs(p) + abs(q)) * rho)
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        c = magnitude * complex(math.cos(phase), math.sin(phase))
        entries[(p, q)] = c
        entries[(-p, -q)] = c.conjugate()
    return ModeMap.build(entries, hermitian=True)


def _cmd_thm1(args) -> dict:
    cells = (2 * args.span + 1) ** 2 - 1
    if 2 * args.modes_per_map > cells:
        raise ValueError(
            f"--modes-per-map {args.modes_per_map} needs {2 * args.modes_per_map} "
            f"distinct modes, but --span {args.span} has only {cells} nonzero cells"
        )
    import numpy as np

    cf = _expand_freq(args)
    rng = np.random.default_rng(args.seed)
    failures = 0
    margins = []
    for _ in range(args.count):
        a = _random_decay_modes(rng, args.rho, args.modes_per_map, args.span)
        rep = check_thm1(a, cf, args.rho, args.delta, mu=args.mu)
        margins.append(rep.margin)
        if not rep.verdict:
            failures += 1
    return _report(
        "thm1",
        {
            "freq": args.freq,
            "rho": args.rho,
            "delta": args.delta,
            "mu": args.mu,
            "seed": args.seed,
            "count": args.count,
        },
        {"min_margin": min(margins), "failures": failures},
        {"all_pass": failures == 0},
    )


def _cmd_counterexample(args) -> dict:
    cf = _expand_freq(args)
    n_max = min(args.n_max, cf.depth - 1)
    ce = counterexample_modes(cf, args.rho, args.epsilon, n_max)
    points = blowup_witness(cf, args.rho, args.delta_prime, args.epsilon, n_max)
    if args.witness_csv:
        with open(args.witness_csv, "w") as fh:
            fh.write("n,p_n,q_n,log_w_lo,log_w_hi\n")
            for pt in points:
                fh.write(
                    f"{pt.n},{pt.p},{pt.q},{pt.log_w_lo!r},{pt.log_w_hi!r}\n"
                )
    if args.out_modes:
        save_modes(ce.modes, args.out_modes)
    return _report(
        "counterexample",
        {
            "freq": args.freq,
            "rho": args.rho,
            "delta_prime": args.delta_prime,
            "epsilon": args.epsilon,
            "n_max": n_max,
        },
        {
            "alpha": ce.alpha,
            "norm_upper": ce.norm_upper,
            "witness": points,
        },
        {
            "normalization_in_band": 1.0 - ce.alpha.deficit
            <= ce.alpha.two_sum_alpha
            <= 1.0,
            "norm_below_epsilon": ce.norm_upper <= ce.epsilon,
        },
    )


def _cmd_sweep(args) -> tuple:
    cf = _expand_freq(args)
    deltas = [float(tok) for tok in args.deltas.split(",") if tok]
    if not deltas:
        raise ExpansionError("sweep needs a nonempty delta list")
    for delta in deltas:
        _check_delta(delta)
    rows = []
    for delta in deltas:
        if args.check == "away":
            rep = away_bound_check(cf, delta, args.Q, mu=args.mu)
        elif args.check == "const_type":
            rep = BoundReport(
                quantity="const_type box sum",
                computed=partition_sums(cf, delta, args.Q).const_type,
                bound=_const_type_leading(cf.omega_float(), args.mu) / delta**2,
                params={"delta": delta, "Q": args.Q, "mu": args.mu},
            )
        else:  # brjuno; argparse choices admit nothing else
            rep = BoundReport(
                quantity="brjuno box sum",
                computed=partition_sums(cf, delta, args.Q).brjuno,
                bound=_brjuno_box_bound(cf, delta, args.mu),
                params={"delta": delta, "Q": args.Q, "mu": args.mu},
            )
        rows.append((delta, rep))
    lines = ["delta,computed,bound,margin,verdict"]
    for delta, rep in rows:
        lines.append(
            f"{delta!r},{rep.computed!r},{rep.bound!r},{rep.margin!r},{rep.verdict}"
        )
    return "\n".join(lines) + "\n", all(rep.verdict for _, rep in rows)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_io_opts(sp):
    # also accepted before the subcommand; SUPPRESS keeps the subparser
    # from clobbering a value parsed at the top level
    sp.add_argument("--out", default=argparse.SUPPRESS, help="output file")
    sp.add_argument(
        "--format", dest="fmt", choices=("json", "text"), default=argparse.SUPPRESS
    )


def _add_freq_opts(sp, depth_default=64):
    sp.add_argument("--freq", required=True, help="frequency mini-language string")
    sp.add_argument("--depth", type=int, default=depth_default)
    sp.add_argument("--depth-cap", dest="depth_cap", type=int, default=None)
    sp.add_argument("--bit-cap", dest="bit_cap", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smalldiv",
        description="small-divisor laboratory: continued fractions, weighted "
        "convergent series, partitioned divisor sums, and certified strip-norm "
        "bounds for the torus cohomological equation",
    )
    ap.add_argument("--out", default=None, help="write the report here instead of stdout")
    ap.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "text"),
        default="json",
        help="report style: lossless json (17 significant digits) or "
        "human-readable text (6 significant digits)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="diophantine / band-membership diagnostics")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--T-minus", dest="T_minus", type=float, default=0.1)
    sp.add_argument("--T-plus", dest="T_plus", type=float, default=0.1)
    sp.add_argument("--N", type=int, default=1)

    sp = sub.add_parser("brj", help="weighted convergent series values and tails")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument("--Delta", type=float, required=True)
    sp.add_argument("--C", type=float, default=None, help="attach a growth certificate")
    sp.add_argument("--tau", type=float, default=1.0)

    sp = sub.add_parser("gamma", help="loss-of-domain factor components")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--mu", type=float, default=1.25)

    sp = sub.add_parser("table1", help="band-constant grid as CSV")
    _add_io_opts(sp)
    sp.add_argument("--tolerance", type=float, default=1e-8)

    sp = sub.add_parser("constants", help="universal constants")
    _add_io_opts(sp)
    sp.add_argument("--tolerance", type=float, default=1e-8)

    sp = sub.add_parser("partition", help="partitioned box sums + oracle check")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--dump", default=None, help="write the per-pair audit CSV here")

    sp = sub.add_parser("legendre", help="exact critical-strip divisor check")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument("--Q", type=int, required=True)

    sp = sub.add_parser("solve", help="solve modes and report strip norms")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument("--modes", required=True, help="input ModeMap JSON")
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--grid-n", dest="grid_n", type=int, default=64)
    sp.add_argument("--out-modes", dest="out_modes", default=None)

    sp = sub.add_parser("thm1", help="end-to-end shrunk-strip bound check")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--mu", type=float, default=1.25)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_positive_int, default=20)
    sp.add_argument(
        "--modes-per-map", dest="modes_per_map", type=_positive_int, default=25
    )
    sp.add_argument("--span", type=int, default=12)

    sp = sub.add_parser("counterexample", help="blow-up data and witness")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--delta-prime", dest="delta_prime", type=float, required=True)
    sp.add_argument("--epsilon", type=float, default=1.0)
    sp.add_argument("--n-max", dest="n_max", type=int, default=8)
    sp.add_argument("--witness-csv", dest="witness_csv", default=None)
    sp.add_argument("--out-modes", dest="out_modes", default=None)

    sp = sub.add_parser("sweep", help="bound check over a delta grid, CSV out")
    _add_io_opts(sp)
    _add_freq_opts(sp)
    sp.add_argument(
        "--check", required=True, choices=("away", "const_type", "brjuno")
    )
    sp.add_argument("--deltas", required=True, help="comma-separated deltas")
    sp.add_argument("--Q", type=int, default=200)
    sp.add_argument("--mu", type=float, default=1.25)

    return ap


_HANDLERS = {
    "classify": _cmd_classify,
    "brj": _cmd_brj,
    "gamma": _cmd_gamma,
    "table1": _cmd_table1,
    "constants": _cmd_constants,
    "partition": _cmd_partition,
    "legendre": _cmd_legendre,
    "solve": _cmd_solve,
    "thm1": _cmd_thm1,
    "counterexample": _cmd_counterexample,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    """Run one command; returns the process exit code.

    Handlers return a JSON report, or ``(csv_text, ok)`` for the CSV
    commands; this is the one place that renders it, writes it to
    ``--out`` or stdout and turns its verdicts into the exit code.
    Malformed inputs return 2 before any computation starts; an
    unexpected exception returns 3, never the verdict code 1.
    """
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        result = _HANDLERS[args.command](args)
        if isinstance(result, tuple):
            text, ok = result
        else:
            text, ok = _render(result, args.fmt), all(result["verdicts"].values())
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:  # ExpansionError and JSONDecodeError included
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        import traceback  # imported here: only a crash needs it

        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return EXIT_CRASH
    return EXIT_OK if ok else EXIT_VERDICT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
