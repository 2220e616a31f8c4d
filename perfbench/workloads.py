"""Seeded invocation lists of the two benchmark workloads.

Frequencies, box radii Q, mode counts and grid sizes are fixed, so the
work of a pass does not depend on the seed.  The seed picks only the
deltas, the mode-map coefficients and the ``thm1 --seed``, each from a
range where every verdict holds.  Mode maps are written here, not by the
package, so the program receives nothing but the generated files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

# first 49 partial quotients of pi - 3, enough for sandwiches far finer
# than the Q = 400 box needs
PI_MINUS_3 = (
    "quotients:[7,15,1,292,1,1,1,2,1,3,1,14,2,1,1,2,2,2,2,1,84,2,1,1,15,3,13,"
    "1,4,2,6,6,99,1,2,2,6,3,5,1,1,6,8,1,7,1,2,3,7]"
)
OMEGA_STAR = "rule:omega-star(a1=2)"
EXP_LIOUVILLE = "rule:exp-liouville(c=0.5,a1=1)"


@dataclass(frozen=True)
class Invocation:
    """One ``smalldiv`` command line, minus its output flags.

    ``report`` names the report format (``json``, ``sweep`` or ``table1``
    CSV); ``dump`` adds a ``--dump`` audit CSV next to the report.
    """

    name: str
    args: tuple
    report: str = "json"
    dump: bool = False


def _delta(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def mode_file_bytes(rng: random.Random, count: int, span: int) -> bytes:
    """Hermitian zero-mean mode map with ``count`` entries, |c| <= e^(-(|p|+|q|)).

    Encoded like ``cohom.save_modes``: a JSON array of ``{p, q, re, im}``
    records in sorted mode order.
    """
    if count % 2 or count > (2 * span + 1) ** 2 - 1:
        raise ValueError(f"cannot place {count} hermitian modes in span {span}")
    entries = {}
    while len(entries) < count:
        p, q = rng.randint(-span, span), rng.randint(-span, span)
        if (p, q) == (0, 0) or (p, q) in entries:
            continue
        magnitude = rng.uniform(0.1, 1.0) * math.exp(-(abs(p) + abs(q)))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        c = complex(magnitude * math.cos(phase), magnitude * math.sin(phase))
        entries[(p, q)] = c
        entries[(-p, -q)] = c.conjugate()
    rows = [
        {"p": p, "q": q, "re": c.real, "im": c.imag}
        for (p, q), c in sorted(entries.items())
    ]
    return (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode()


def _box_sums(rng):
    """Q^2 box scans in smalldiv, where a vectorized box kernel shows, then
    short commands of the modules around it: tiny boxes, the exact O(Q)
    Legendre path and the series bounds, about half of each import time, so
    a kernel that trades per-call overhead for large-input speed shows too.
    Nothing in cohom runs."""
    invocations = [
        Invocation(
            f"partition_q{Q}",
            ("partition", "--freq", freq, "--delta", _delta(rng, 0.08, 0.25), "--Q", str(Q)),
        )
        for freq, Q in (("golden", 800), ("surd:[;2]", 600), (PI_MINUS_3, 400))
    ]
    invocations.append(
        Invocation(
            "partition_dump_q200",
            ("partition", "--freq", "surd:[;1,40]", "--delta", _delta(rng, 0.08, 0.25),
             "--Q", "200"),
            dump=True,
        )
    )
    for check, freq in (("away", "golden"), ("brjuno", "surd:[;2]")):
        deltas = ",".join(_delta(rng, 0.05 + 0.0625 * i, 0.1125 + 0.0625 * i) for i in range(4))
        invocations.append(
            Invocation(
                f"sweep_{check}_q300",
                ("sweep", "--freq", freq, "--check", check, "--deltas", deltas, "--Q", "300"),
                report="sweep",
            )
        )
    invocations += [
        Invocation("legendre_q100000", ("legendre", "--freq", "golden", "--Q", "100000")),
        Invocation("legendre_q50000", ("legendre", "--freq", "surd:[;2]", "--Q", "50000")),
        Invocation(
            "partition_q30",
            ("partition", "--freq", "surd:[;3]", "--delta", _delta(rng, 0.05, 0.3), "--Q", "30"),
        ),
        Invocation("classify_omega_star", ("classify", "--freq", OMEGA_STAR)),
        Invocation("classify_exp_liouville", ("classify", "--freq", EXP_LIOUVILLE)),
        Invocation("brj_omega_star", ("brj", "--freq", OMEGA_STAR, "--Delta", "0.3", "--C", "0.5")),
        Invocation("brj_exp_liouville", ("brj", "--freq", EXP_LIOUVILLE, "--Delta", "0.3")),
        Invocation("gamma_omega_star", ("gamma", "--freq", OMEGA_STAR, "--delta", "0.1")),
        Invocation("gamma_exp_liouville", ("gamma", "--freq", EXP_LIOUVILLE, "--delta", "0.2")),
        Invocation("constants", ("constants",)),
        Invocation("table1", ("table1",), report="table1"),
    ]
    return invocations, {}


def _strip_norms(rng):
    """Strip norms of 1000- and 4000-mode maps, where an FFT strip norm
    shows, then 200 small strip norms (thm1) and two short cohom commands,
    where per-call overhead shows.  No box scan runs."""
    inputs = {}
    invocations = []
    for freq, count, span, grid in (
        ("golden", 1000, 20, 256),
        ("surd:[;2]", 4000, 40, 128),
        (PI_MINUS_3, 4000, 40, 64),
    ):
        path = f"inputs/modes_{count}_grid{grid}.json"
        inputs[path] = mode_file_bytes(rng, count, span)
        invocations.append(
            Invocation(
                f"solve_{count}_grid{grid}",
                ("solve", "--freq", freq, "--modes", path, "--R", "0.5", "--grid-n", str(grid)),
            )
        )
    modes = "inputs/modes_50.json"
    inputs[modes] = mode_file_bytes(rng, 50, 8)
    invocations += [
        Invocation(
            "thm1_count100",
            ("thm1", "--freq", "golden", "--delta", _delta(rng, 0.1, 0.3),
             "--seed", str(rng.randrange(1 << 31)), "--count", "100"),
        ),
        Invocation("solve_50", ("solve", "--freq", "golden", "--modes", modes, "--R", "0.5")),
        Invocation(
            "counterexample_exp_liouville",
            ("counterexample", "--freq", EXP_LIOUVILLE, "--delta-prime", "0.05"),
        ),
    ]
    return invocations, inputs


_GENERATORS = {"box_sums": _box_sums, "strip_norms": _strip_norms}
NAMES = tuple(_GENERATORS)


def build(workload: str, seed: int):
    """(invocations, {relative input path: bytes}) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)
