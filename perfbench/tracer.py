"""Spans and work counts around the package's public functions.

``Recorder.install`` replaces every public function of the ``contfrac``,
``classify``, ``bounds``, ``smalldiv`` and ``cohom`` modules by a wrapper
that records a span ``[id, parent, layer, name, start, end]``, and it
rebinds the wrapper in every ``smalldivlab`` namespace that imported the
name with ``from ... import``.  Work counts are computed from call
arguments and return values, never from timing, so they repeat exactly.
The spans stay in memory until the child writes them out at exit;
``summarize`` turns the records of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("contfrac", "classify", "bounds", "smalldiv", "cohom")
# called once per box pair or series term: a span there would cost more
# than the work it measures
UNWRAPPED = frozenset({"L_value", "mul_big_float", "legendre_astar"})
BOX_SCANS = frozenset({"partition_sums", "box_sum", "partition_dump", "away_bound_check"})


def _box(rec, args, result):
    Q = args["Q"]
    rec.add("smalldiv.box_pairs", (2 * Q + 1) ** 2 - 1)
    rec.add("smalldiv.floors", Q)


def _away(rec, args, result):
    # without n_max the scan is the nested partition_sums call
    if args["n_max"] is not None:
        _box(rec, args, result)


def _legendre(rec, args, result):
    rec.add("smalldiv.legendre_checked", result.params["checked"])
    rec.add("smalldiv.floors", args["Q"])


def _expand(rec, args, cf):
    rec.add("contfrac.expand_calls")
    rec.add("contfrac.truncated_count", int(cf.truncated))
    rec.peak("contfrac.depth_max", cf.depth)
    rec.peak("contfrac.q_bits_max", cf.q[-1].bit_length())


def _kappa(rec, args, result):
    # repeated calls return the memoized object; its terms were summed once
    if all(seen is not result for seen in rec.kappa_results):
        rec.kappa_results.append(result)
        rec.add("classify.kappa_terms", result.terms)


def _series(rec, args, result):
    rec.add("bounds.series_calls")
    rec.add("bounds.series_terms", result.depth)
    rec.add("bounds.rigorous_tails", int(result.tail_kind == "rigorous"))


def _strip_norm(rec, args, result):
    rec.add("cohom.strip_norm_calls")
    rec.add("cohom.strip_evals", len(args["modes"]) * args["grid_n"] ** 2 * 4)


HOOKS = {
    "contfrac.expand": _expand,
    "contfrac.divisor_interval": lambda rec, a, r: rec.add("contfrac.divisor_interval_calls"),
    "classify.khintchine_constants": _kappa,
    "bounds.brj1": _series,
    "bounds.brj2": _series,
    "bounds.gamma_delta": lambda rec, a, r: rec.add("bounds.gamma_delta_calls"),
    "smalldiv.partition_sums": _box,
    "smalldiv.box_sum": _box,
    "smalldiv.partition_dump": _box,
    "smalldiv.away_bound_check": _away,
    "smalldiv.verify_legendre": _legendre,
    "cohom.strip_norm": _strip_norm,
    "cohom.solve_modes": lambda rec, a, r: rec.add("cohom.modes_solved", len(a["a"])),
}


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self.kappa_results: list = []
        self._stack: list = [None]
        self._depth_exhausted = None

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def call(self, layer: str, name: str, fn, args=(), kwargs=None, hook=None, sig=None):
        span = [len(self.spans), self._stack[-1], layer, name, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except self._depth_exhausted as exc:
            # count each raise once, not once per wrapped frame it crosses
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                self.add("contfrac.depth_exhausted")
            raise
        finally:
            span[5] = time.perf_counter()
            span[4] = start
            self._stack.pop()
        if hook is not None:
            bound = sig.bind(*args, **(kwargs or {}))
            bound.apply_defaults()
            hook(self, bound.arguments, result)
        return result

    def _wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(f"{layer}.{name}")
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, hook, sig)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        from smalldivlab.contfrac import DepthExhausted

        self._depth_exhausted = DepthExhausted
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"smalldivlab.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for modname, module in list(sys.modules.items()):
            if modname == "smalldivlab" or modname.startswith("smalldivlab."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, name, wrappers[obj])
        smalldiv = sys.modules["smalldivlab.smalldiv"]
        floor_mult = smalldiv.floor_mult

        def counted_floor_mult(*args, **kwargs):
            self.add("smalldiv.floor_mult_calls")
            return floor_mult(*args, **kwargs)

        smalldiv.floor_mult = counted_floor_mult

    def record(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": dict(self.maxima)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(records: list) -> dict:
    """Per-layer metrics of one pass from the child records of its invocations.

    A layer's self time is its spans' durations minus the time their
    child spans cover; ``<layer>.<function>_s`` is inclusive time.
    """
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    box_s = 0.0
    counts = defaultdict(int)
    maxima = defaultdict(int)
    for record in records:
        spans = record["spans"]
        covered = [0.0] * len(spans)
        in_box = [False] * len(spans)
        for sid, parent, layer, name, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        for sid, parent, layer, name, start, end in spans:
            self_s[layer] += end - start - covered[sid]
            inclusive[f"{layer}.{name}"] += end - start
            outer_box = parent is not None and in_box[parent]
            in_box[sid] = outer_box or (layer == "smalldiv" and name in BOX_SCANS)
            if in_box[sid] and not outer_box:
                box_s += end - start
        for name, n in record["counts"].items():
            counts[name] += n
        for name, v in record["maxima"].items():
            maxima[name] = max(maxima[name], v)

    metrics = {f"{layer}.self_s": self_s[layer] for layer in ("cli",) + LAYERS}
    for name in ("expand_calls", "truncated_count", "divisor_interval_calls", "depth_exhausted"):
        metrics[f"contfrac.{name}"] = counts[f"contfrac.{name}"]
    metrics["contfrac.depth_max"] = maxima["contfrac.depth_max"]
    metrics["contfrac.q_bits_max"] = maxima["contfrac.q_bits_max"]
    metrics["classify.kappa_terms"] = counts["classify.kappa_terms"]
    metrics["bounds.series_terms"] = counts["bounds.series_terms"]
    metrics["bounds.rigorous_tail_frac"] = _ratio(
        counts["bounds.rigorous_tails"], counts["bounds.series_calls"]
    )
    metrics["bounds.gamma_delta_calls"] = counts["bounds.gamma_delta_calls"]
    for name in ("partition_sums", "box_sum", "away_bound_check", "partition_dump",
                 "verify_legendre"):
        metrics[f"smalldiv.{name}_s"] = inclusive[f"smalldiv.{name}"]
    metrics["smalldiv.box_pairs"] = counts["smalldiv.box_pairs"]
    metrics["smalldiv.pairs_per_s"] = _ratio(counts["smalldiv.box_pairs"], box_s)
    metrics["smalldiv.legendre_checked"] = counts["smalldiv.legendre_checked"]
    metrics["smalldiv.floor_fallbacks"] = _ratio(
        counts["smalldiv.floor_mult_calls"], counts["smalldiv.floors"]
    )
    metrics["cohom.strip_norm_s"] = inclusive["cohom.strip_norm"]
    metrics["cohom.strip_norm_calls"] = counts["cohom.strip_norm_calls"]
    metrics["cohom.strip_evals"] = counts["cohom.strip_evals"]
    metrics["cohom.strip_evals_per_s"] = _ratio(
        counts["cohom.strip_evals"], inclusive["cohom.strip_norm"]
    )
    metrics["cohom.solve_modes_s"] = inclusive["cohom.solve_modes"]
    metrics["cohom.modes_solved"] = counts["cohom.modes_solved"]
    return metrics
