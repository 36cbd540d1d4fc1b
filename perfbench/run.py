"""Benchmark of the markedgroups command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads and the metric names and
units come from BENCHMARK.json; METRICS.md says what each metric means and
what it should move.  Every pass is one cold start in a fresh interpreter
(child.py) that drives ``markedgroups.cli.main`` in-process, and every
answer is checked (workloads.py).

With ``--trace 0`` the run spreads at least four cold timed passes over
at least ``--seconds`` seconds and reports the end-to-end metrics: median
times over the passes, set-up included, in seconds at a fixed host speed
(see ``end_to_end``).  With
``--trace 1`` it makes one untraced pass, one tracemalloc pass and two
traced passes (tracer.py), reports the per-layer metrics with the
tracing overhead, checks that every count repeats exactly between the two
traced passes, and writes the aggregated spans to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every answer is right and, with ``--trace 1``, no count drifted.
The seed only shapes the wp-long stream; the other workloads have fixed
inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
import wpgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 4
# Times are reported in seconds at the host speed at which child.py's
# reference loop takes REF_S, its typical time on 2 vCPU with CPython 3.11.
REF_S = 0.005
HNN_LEVELS = ("G", "E", "cond")
TIME_LIMIT_S = 170.0
MIB = 1024 * 1024


class ChildFailed(RuntimeError):
    pass


class Run:
    """One benchmark run: its calls, scratch files, deadline and operation tally."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.stream = wpgen.make_stream(seed) if workload == "wp-long" else None
        self.calls = workloads.calls(workload, scratch, self.stream)
        self.threads = max(
            int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
            for argv, _ in self.calls
        )

    def child(self, mode: str, calls: list[list[str]]) -> dict:
        job = self.scratch / "job.json"
        job.write_text(json.dumps({
            "root": str(ROOT), "mode": mode, "calls": calls,
            "groups": workloads.GROUPS[self.workload], "threads": self.threads,
        }))
        # A fixed hash seed makes set and dict order, and so the work, repeat.
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("out of time before the next pass")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job)],
                capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} pass did not finish in time") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def checked(self, mode: str) -> dict | None:
        """Run one pass and check its answers; None if it failed outright."""
        calls = self.calls
        if mode == "memory":
            calls = calls[::workloads.MEMORY_STRIDE.get(self.workload, 1)]
        try:
            result = self.child(mode, [argv for argv, _ in calls])
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            self.attempted += len(calls)
            self.failed += len(calls)
            return None
        answers = zip(calls, result["rcs"], result["stdouts"], result["reports"], strict=True)
        for (_, check), rc, out, report in answers:
            self._tally(check(rc, out, report or {}))
        return result

    def setup_sample(self) -> dict | None:
        """One fresh interpreter that sets up and makes no call."""
        self.attempted += 1
        try:
            return self.child("setup", [])
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            self.failed += 1
            return None

    def _tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"wrong answer ({self.workload}): {problem}", file=sys.stderr)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolating between the samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def scaled_setup(result: dict) -> float:
    return result["setup_s"] * REF_S / statistics.mean(result["setup_refs"])


def end_to_end(run: Run, seconds: float) -> dict:
    # The host's speed wanders: a fixed loop takes from 0.6 to 1.8 times
    # its typical time, in spells of seconds to minutes, and cold calls
    # move with it.  So every time is divided by the host's slowness while
    # it was taken: the mean time of child.py's reference loop, run in as
    # many threads as the timed code, in the same interpreter around the
    # calls (or around set-up), over REF_S.  A run makes at least
    # MIN_PASSES cold timed passes over at least ``seconds``, samples
    # set-up (about 60 ms) once more after each pass, and reports medians.
    passes = []
    setups = []
    begin = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - begin < seconds:
        result = run.checked("time")
        if result is None:
            break
        slowness = statistics.mean(result["refs"]) / REF_S
        passes.append([t / slowness for t in result["calls"]])
        print(f"# pass: raw wall_s {sum(result['calls']):.4g}, host slowness {slowness:.4g}")
        sample = run.setup_sample()
        if sample is None:
            return {}
        setups += [scaled_setup(result), scaled_setup(sample)]
    if not passes:
        return {}
    totals = [sum(p) for p in passes]
    latencies = [statistics.median(samples) for samples in zip(*passes)]
    if len(latencies) > 1 and not run.stream:
        for (argv, _), latency in zip(run.calls, latencies):
            print(f"# {' '.join(argv[:2])} median = {latency:.6g} s")
    wall_s = statistics.median(totals)
    words = len(run.stream) if run.stream else workloads.WORDS[run.workload]
    return {
        "wall_s": wall_s,
        "words_per_s": words / wall_s,
        "call_p50_ms": statistics.median(latencies) * 1000,
        "call_p95_ms": percentile(latencies, 95) * 1000,
        "setup_s": statistics.median(setups),
    }


def layer_values(trace: dict, names: list[str]) -> dict:
    """Per-layer metrics of one traced pass (experiment and CPU figures aside)."""
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    edges: dict[tuple[str, str], int] = {}
    for name, parent, _, n, _, self_s in trace["spans"]:
        calls[name] = calls.get(name, 0) + n
        own[name] = own.get(name, 0.0) + self_s
        edges[(name, parent)] = edges.get((name, parent), 0) + n
    counts, maxima = trace["counts"], trace["maxima"]
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(base, 0)
        elif field == "self_s":
            out[name] = own.get(base, 0.0)
        elif field in ("letters", "words", "built", "pinch_tries", "pinches"):
            out[name] = counts.get(name, 0)
        elif field == "max_stable":
            out[name] = maxima.get(name, 0)
    out["marked.relation_ball.self_s"] += own.get("marked.relation_ball.scan", 0.0)
    for lvl in HNN_LEVELS:
        tries = counts.get(f"hnn.{lvl}.pinch_tries", 0)
        out[f"hnn.{lvl}.pinch_yield"] = counts.get(f"hnn.{lvl}.pinches", 0) / tries if tries else 0.0
        asked = calls.get(f"hnn.{lvl}.is_trivial", 0)
        reduced = edges.get((f"hnn.{lvl}.reduce", f"hnn.{lvl}.is_trivial"), 0)
        out[f"hnn.{lvl}.cache_hit_ratio"] = (asked - reduced) / asked if asked else 0.0
    return out


def per_layer(run: Run, units: dict[str, str]) -> tuple[dict, list[str], dict]:
    untraced = run.checked("time")
    memory = run.checked("memory")
    traced = [run.checked("trace") for _ in range(2)]
    if untraced is None or memory is None or None in traced:
        return {}, [], {}
    first, second = (layer_values(t["trace"], list(units)) for t in traced)
    drift = sorted(
        name for name in first
        if units[name] == "count" and first[name] != second[name]
    )
    for name in drift:
        print(f"count drift: {name} {first[name]} != {second[name]}", file=sys.stderr)
    values = {
        name: (first[name] + second[name]) / 2 if units[name] != "count" else first[name]
        for name in first
    }
    checks = [c for report in untraced["reports"] if report for c in report.get("checks", [])]
    for name in units:
        if name.startswith("experiments."):
            check = name.split(".")[1]
            values[name] = sum(
                c["ms"] for c in checks if c["id"].rstrip("-0123456789") == check
            )
    values["marked.cpu_per_wall"] = untraced["cpu_per_wall"]
    values["memory.peak_mib"] = memory["peak_bytes"] / MIB
    values["memory.retained_mib"] = memory["retained_bytes"] / MIB
    traced_wall = statistics.median(sum(t["calls"]) for t in traced)
    values["trace.overhead"] = traced_wall / sum(untraced["calls"])
    values["trace.count_drift"] = len(drift)
    spans = {"workload": run.workload, "seed": run.seed,
             "passes": [t["trace"] for t in traced], "count_drift": drift}
    return values, drift, spans


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "markedgroups" / "cli.py").is_file():
        print(f"error: no markedgroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench-tmp"
    scratch = scratch_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, scratch)
        stats = wpgen.stream_stats(run.stream) if run.stream else None
        if stats:
            print("# wp-long stream " + " ".join(f"{k}={v}" for k, v in stats.items()))
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if args.trace else "end_to_end"]}
        drift: list[str] = []
        if args.trace:
            values, drift, spans = per_layer(run, units)
            if spans:
                spans["stream"] = stats
                out_dir = ROOT / ".perfbench-out"
                out_dir.mkdir(exist_ok=True)
                path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
                path.write_text(json.dumps(spans) + "\n")
                print(f"# spans written to {path.relative_to(ROOT)}")
        else:
            values = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    if not values:
        print("error: no complete pass; nothing to report", file=sys.stderr)
        return 1
    missing = [name for name in units if name not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this run does not make: {missing}",
              file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 1 if run.failed or drift else 0


if __name__ == "__main__":
    sys.exit(main())
