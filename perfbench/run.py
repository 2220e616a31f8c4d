"""End-to-end benchmark of the ``smalldiv`` command line.

    python3 perfbench/run.py --workload box_sums|strip_norms|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload is a fixed, seeded
list of ``smalldiv`` invocations (see ``workloads.py``), run one after
another from this process: a closed loop with one client.  Every
invocation is a fresh interpreter running ``perfbench/child.py``, which
imports ``smalldivlab.cli`` from the checkout's ``src`` and calls its
``main`` exactly as ``python -m smalldivlab.cli ... --out FILE`` does, so
it pays the import and the JSON emission a user pays.  When the package
has no bytecode cache yet (the first run in a checkout), one untimed
warm-up pass creates it; then passes repeat until about ``--seconds`` of
passes have been measured: no pass starts that would likely end more than
half a pass past that.

With ``--trace 0`` the run reports the end-to-end metrics: ``pass_s``
(median wall time of one pass, without the probes below), ``cmd_p50_s``
(median wall time of one invocation, spawn to exit), ``setup_s`` (median
time from spawn until ``smalldivlab.cli`` is imported) and
``peak_rss_mb`` (largest child max-RSS, from ``os.wait4``).  The three
times are given at the reference host speed: on a shared host the speed
of the same code drifts by a third over minutes, so between invocations,
every ``PROBE_EVERY_S``, the run times ``probe.py``, a fixed job that runs
no package code, and scales the times by ``PROBE_REF_S`` over the run's
median probe time.  The table prints the raw medians too.  ``fail_frac``
is printed with them; the result line carries it as ``failed`` /
``attempted``.  With ``--trace 1`` untraced and traced passes alternate,
and the run reports per-layer metrics, not scaled, from spans recorded
around the package's public functions (``tracer.py``) plus
``trace.overhead_frac``.

Every output is checked (``verify.py``); every pass must reproduce the
first pass of its run byte for byte, the traced ones included.  On the reference
seed the outputs must match ``reference/``; traced runs compare the exact
work counts with ``reference/`` and print any drift as a workload change.
``--write-reference`` rewrites ``reference/`` from the current code.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

import tracer
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0
WORK_DIR = ".perfbench_run"
CHILD_TIMEOUT_S = 120.0
# no new pass starts after this much of a run has gone, so a run ends well
# inside three minutes even when a pass is slow
PASS_START_LIMIT_S = 100.0
COUNT_UNITS = ("count", "bit")
# invocation seconds between two probes: enough probes in a run that their
# median follows the host, few enough to cost about a tenth of the run
PROBE_EVERY_S = 2.5
# median time of probe.py on the reference host, a 2-vCPU Xeon VM
PROBE_REF_S = 0.27


@dataclass
class Call:
    """One finished invocation."""

    name: str
    code: int
    wall_s: float
    setup_s: float = float("nan")
    import_s: float = float("nan")
    rss_mb: float = 0.0
    record: dict = field(default_factory=dict)
    stderr: str = ""


@dataclass
class Pass:
    traced: bool
    wall_s: float
    calls: list
    probe_s: list
    problems: dict = field(default_factory=dict)  # invocation name -> messages
    report_bytes: int = 0


class Bench:
    """Runs the passes of one workload in a private work directory."""

    def __init__(self, workload: str, seed: int, src: str):
        self.workload = workload
        self.seed = seed
        self.src = src
        self.invocations, inputs = workloads.build(workload, seed)
        if workloads.build(workload, seed)[1] != inputs:
            raise RuntimeError("input generation is not deterministic")
        self.work = os.path.abspath(WORK_DIR)
        shutil.rmtree(self.work, ignore_errors=True)
        for rel, data in inputs.items():
            os.makedirs(os.path.dirname(os.path.join(self.work, rel)), exist_ok=True)
            with open(os.path.join(self.work, rel), "wb") as fh:
                fh.write(data)
        self.env = dict(os.environ, PYTHONPATH=src)
        # sweep must take its default single-thread path
        self.env.pop("SMALLDIV_THREADS", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.baseline = None  # output digests of the first pass
        self.passes = 0

    def _outputs(self, inv, pass_dir):
        ext = "json" if inv.report == "json" else "csv"
        outs = {"report": f"{pass_dir}/{inv.name}.{ext}"}
        if inv.dump:
            outs["dump"] = f"{pass_dir}/{inv.name}.dump.csv"
        return outs

    def _spawn(self, inv, pass_dir, traced: bool) -> Call:
        outs = self._outputs(inv, pass_dir)
        argv = list(inv.args) + ["--out", outs["report"]]
        if "dump" in outs:
            argv += ["--dump", outs["dump"]]
        record_path = os.path.join(self.work, pass_dir, f"{inv.name}.record.json")
        stderr_path = os.path.join(self.work, pass_dir, f"{inv.name}.stderr")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path,
               "1" if traced else "0", self.src, "--", *argv]
        with open(stderr_path, "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(inv.name, proc.returncode, end - spawn, rss_mb=usage.ru_maxrss / 1024.0)
        with open(stderr_path, errors="replace") as fh:
            call.stderr = fh.read()
        try:
            with open(record_path) as fh:
                call.record = json.load(fh)
        except (OSError, ValueError):
            return call
        call.setup_s = call.record["import_done"] - spawn
        call.import_s = call.record["import_done"] - call.record["import_start"]
        return call

    def _probe(self) -> float:
        """Wall seconds of one ``probe.py`` run: the host's current speed."""
        start = time.monotonic()
        subprocess.run([sys.executable, os.path.join(HERE, "probe.py")], cwd=self.work,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
                       timeout=CHILD_TIMEOUT_S)
        return time.monotonic() - start

    def run_pass(self, traced: bool = False) -> Pass:
        pass_dir = f"pass{self.passes}"
        self.passes += 1
        os.makedirs(os.path.join(self.work, pass_dir))
        calls, probes = [], []
        since_probe = PROBE_EVERY_S
        for inv in self.invocations:
            if since_probe >= PROBE_EVERY_S:
                probes.append(self._probe())
                since_probe = 0.0
            calls.append(self._spawn(inv, pass_dir, traced))
            since_probe += calls[-1].wall_s
        result = Pass(traced, sum(c.wall_s for c in calls), calls, probes)
        self._check(result, pass_dir)
        shutil.rmtree(os.path.join(self.work, pass_dir))
        return result

    def _check(self, result: Pass, pass_dir: str) -> None:
        digests = {}
        for inv, call in zip(self.invocations, result.calls):
            problems = []
            outs = {k: os.path.join(self.work, v) for k, v in self._outputs(inv, pass_dir).items()}
            if call.code != 0:
                problems.append(f"exit code {call.code}: {call.stderr.strip()[-400:]}")
            try:
                report = verify.load_report(outs["report"], inv.report)
                dump = verify.dump_summary(outs["dump"]) if inv.dump else None
                result.report_bytes += os.path.getsize(outs["report"])
                digests[inv.name] = {k: _sha256(p) for k, p in outs.items()}
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable output: {exc}")
            else:
                problems += verify.builtin_problems(inv, report, dump)
                if self.seed == REFERENCE_SEED:
                    problems += _reference_problems(self.workload, inv, call.code, report, dump)
            if self.baseline is not None and digests.get(inv.name) != self.baseline.get(inv.name):
                problems.append("outputs differ from the first pass of this run")
            if problems:
                result.problems[inv.name] = problems
        if self.baseline is None:
            self.baseline = digests

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _reference_path(workload: str, name: str) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"{name}.json")


def _reference_problems(workload, inv, code, report, dump) -> list:
    try:
        with open(_reference_path(workload, inv.name)) as fh:
            ref = json.load(fh)
    except OSError as exc:
        return [f"no reference output: {exc}"]
    got = {"exit_code": code, "report": report, "dump": dump}
    return [f"reference mismatch {m}" for m in verify.compare(ref, got)]


def _write_reference(bench: Bench, workload: str, layer: dict) -> None:
    """Rewrite the reference outputs from one fresh pass of the current code."""
    os.makedirs(os.path.join(REFERENCE_DIR, workload), exist_ok=True)
    pass_dir = "reference_pass"
    os.makedirs(os.path.join(bench.work, pass_dir))
    for inv in bench.invocations:
        call = bench._spawn(inv, pass_dir, traced=False)
        outs = {k: os.path.join(bench.work, v) for k, v in bench._outputs(inv, pass_dir).items()}
        ref = {
            "exit_code": call.code,
            "report": verify.load_report(outs["report"], inv.report),
            "dump": verify.dump_summary(outs["dump"]) if inv.dump else None,
        }
        with open(_reference_path(workload, inv.name), "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(REFERENCE_DIR, workload, "work_counts.json"), "w") as fh:
        json.dump(layer, fh, indent=1, sort_keys=True)
        fh.write("\n")


def environment(root: str) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "revision": "unknown (not a git checkout)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            env["cpu"] = models[0]
    except OSError:
        pass
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            env["revision"] = done.stdout.strip()
    return env


def end_to_end(passes: list) -> tuple:
    calls = [c for p in passes for c in p.calls]
    probes = [t for p in passes for t in p.probe_s]
    scale = PROBE_REF_S / statistics.median(probes)
    raw = {
        "pass_s": statistics.median([p.wall_s for p in passes]),
        "cmd_p50_s": statistics.median([c.wall_s for c in calls]),
        "setup_s": statistics.median([c.setup_s for c in calls]),
    }
    values = {name: t * scale for name, t in raw.items()}
    values["peak_rss_mb"] = max(c.rss_mb for c in calls)
    host = f"{scale:.3f} x raw {{:.4g}} s, host scale from n={len(probes)} probes"
    notes = {
        "pass_s": f"median of {len(passes)} passes; " + host.format(raw["pass_s"]),
        "cmd_p50_s": f"median of n={len(calls)} invocations; " + host.format(raw["cmd_p50_s"]),
        "setup_s": f"median of n={len(calls)} invocations; " + host.format(raw["setup_s"]),
        "peak_rss_mb": f"max of n={len(calls)} invocations",
    }
    return values, notes


def per_layer(untraced: list, traced: list) -> tuple:
    summaries = [tracer.summarize([c.record for c in p.calls]) for p in traced]
    values = {name: statistics.median([s[name] for s in summaries]) for name in summaries[0]}
    imports = [c.import_s for p in traced for c in p.calls]
    values["cli.import_s"] = statistics.median(imports)
    values["cli.report_bytes"] = traced[0].report_bytes
    values["trace.overhead_frac"] = (
        statistics.median([p.wall_s for p in traced])
        / statistics.median([p.wall_s for p in untraced]) - 1.0
    )
    notes = {"cli.import_s": f"median of n={len(imports)} invocations",
             "trace.overhead_frac": f"{len(traced)} traced / {len(untraced)} untraced passes"}
    drift = [f"{name} differs between traced passes: {[s[name] for s in summaries]}"
             for name in summaries[0] if len({s[name] for s in summaries}) > 1
             and isinstance(summaries[0][name], int)]
    return values, notes, drift


def _count_drift(workload: str, values: dict, units: dict) -> list:
    path = os.path.join(REFERENCE_DIR, workload, "work_counts.json")
    try:
        with open(path) as fh:
            ref = json.load(fh)
    except OSError:
        return [f"no reference work counts at {os.path.relpath(path)}"]
    return [
        f"{name}: reference {ref.get(name)!r}, measured {values[name]!r}"
        for name, unit in units.items()
        if unit in COUNT_UNITS and ref.get(name) != values[name]
    ]


def bytecode_cached(src: str) -> bool:
    """True when every package module has a bytecode cache for this interpreter."""
    pkg = os.path.join(src, "smalldivlab")
    return all(
        os.path.exists(importlib.util.cache_from_source(os.path.join(pkg, name)))
        for name in os.listdir(pkg) if name.endswith(".py")
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
                 src: str, write_reference: bool = False) -> dict:
    started = time.monotonic()
    bench = Bench(workload, seed, src)
    try:
        # the first run in a checkout compiles the package; later runs find
        # the bytecode caches and would time nothing new in a warm-up pass
        warmup = [] if bytecode_cached(src) else [bench.run_pass()]
        timed = []
        measured = 0.0
        while True:
            traced = trace and len(timed) % 2 == 1
            timed.append(bench.run_pass(traced))
            measured += timed[-1].wall_s
            kinds = {p.traced for p in timed}
            enough = (measured + timed[-1].wall_s / 2 >= seconds
                      and (not trace or kinds == {False, True}))
            late = time.monotonic() - started > PASS_START_LIMIT_S
            if enough or (late and len(kinds) == 1 + trace):
                break
        all_passes = warmup + timed
        untraced = [p for p in timed if not p.traced]
        if trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, notes, drift = per_layer(untraced, [p for p in timed if p.traced])
            drift += _count_drift(workload, values, units)
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values, notes = end_to_end(untraced)
            drift = []
        if set(values) != set(units):
            raise RuntimeError(
                f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
        if write_reference and trace:
            _write_reference(bench, workload, {n: v for n, v in values.items()
                                               if units[n] in COUNT_UNITS})
    finally:
        bench.close()
    problems = {}
    for i, p in enumerate(all_passes):
        for name, msgs in p.problems.items():
            problems[f"pass {i} {name}"] = msgs
    attempted = sum(len(p.calls) for p in all_passes)
    failed = sum(len(p.problems) for p in all_passes)
    return {
        "workload": workload,
        "trace": trace,
        "passes": f"{len(warmup)} untimed warm-up + {len(timed)} timed",
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "drift": drift,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "notes": notes,
    }


def print_result(res: dict) -> None:
    mode = "traced (per layer)" if res["trace"] else "untraced (end to end)"
    print(f"== {res['workload']}: {mode}, passes: {res['passes']}")
    for name, metric in res["metrics"].items():
        note = res["notes"].get(name, "")
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']:<6} {note}")
    print(f"  {'fail_frac':<28} {res['failed'] / res['attempted']:>16.6g} {'ratio':<6} "
          f"{res['failed']}/{res['attempted']} invocations failed")
    for line in res["drift"]:
        print(f"  WORKLOAD CHANGE (not a speed change): {line}")
    for where, msgs in list(res["problems"].items())[:20]:
        for msg in msgs[:5]:
            print(f"  FAILED {where}: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help=f"rewrite reference/ from seed {REFERENCE_SEED} with the current code")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "smalldivlab", "cli.py")):
        print(f"error: no smalldivlab source under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != REFERENCE_SEED or not args.trace):
        print(f"error: --write-reference needs --seed {REFERENCE_SEED} --trace 1", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    env = environment(root)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"seed {args.seed}, {seconds:g} measured seconds per run")
    if args.workload == "all":
        plan = [(w, trace) for w in workloads.NAMES for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = [run_workload(w, args.seed, seconds, trace, spec, src, args.write_reference)
               for w, trace in plan]
    for res in results:
        print_result(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{n}": m for r in results for n, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
