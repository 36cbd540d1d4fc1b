"""One pass of a workload in a fresh interpreter.

``python3 perfbench/child.py JOBFILE`` where JOBFILE holds a JSON object
with keys ``root``, ``mode`` (``setup``, ``time``, ``memory`` or ``trace``),
``groups`` (the built-in presentations set-up builds), ``calls`` (a list
of argument lists, one ``cli.main`` call each) and ``threads`` (how many
threads the calls run).  The pass result is printed
as one JSON line on standard output; each call's exit code, standard output
and ``--json`` report are returned in it.

Every call starts cold: the interpreter is new, and the oracle
constructors' caches are cleared and checked empty before each
``cli.main`` call, so no triviality verdict survives from set-up or from
an earlier call.

The host's speed wanders by half and more within a minute, so the pass
also times a fixed reference loop (``host_speed``): in one thread before
and after set-up, and in as many threads as the calls run before the
first call and after every ``CAL_EVERY_S`` seconds of calls.  ``run.py``
divides each time by the host speed the matching samples show.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc
from pathlib import Path

CAL_EVERY_S = 1.0
REF_LOOPS = 20


def reference_loops() -> None:
    for _ in range(REF_LOOPS):
        table: dict[int, int] = {}
        for i in range(20000):
            key = i * 7 % 2003
            table[key] = table.get(key, 0) + i


def host_speed(threads: int = 1) -> float:
    """Mean time per reference loop with ``threads`` threads running loops at once.

    A mean, not a median, so that the loops pay for a stall in the share a
    call would.  With two threads, each runs about 100 ms, so the loops
    hand the GIL over every switch interval as the workers of ``ball
    --workers 2`` do; the cost of those hand-offs moves with the host
    differently from the speed of one thread.
    """
    workers = [threading.Thread(target=reference_loops) for _ in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return (time.perf_counter() - start) / (threads * REF_LOOPS)


def setup(root: str, groups: list[str]):
    """Import the package and build the presentations of the workload's groups.

    The oracles are left out: ``cold`` would drop them, and ``cli.main``
    builds them again inside the timed call.
    """
    sys.path.insert(0, str(Path(root) / "src"))
    start = time.perf_counter()
    import markedgroups.cli as cli
    import markedgroups.hnn as hnn
    from markedgroups.presentations import builtin

    for name in groups:
        builtin(name)
    return time.perf_counter() - start, cli, hnn


def cold(hnn) -> None:
    """Drop every oracle built so far, with its triviality cache."""
    for name in ("g_oracle", "e_oracle"):
        constructor = getattr(hnn, name, None)
        if hasattr(constructor, "cache_clear"):
            constructor.cache_clear()
            if constructor.cache_info().currsize != 0:
                raise RuntimeError(f"{name} cache not empty")


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def run_pass(calls: list[list[str]], cli, hnn, memory: bool, threads: int) -> dict:
    """Make each call once; with ``memory`` also take tracemalloc figures."""
    times, rcs, stdouts, reports, peaks, retained = [], [], [], [], [], []
    refs = [host_speed(threads)]
    wall = busy = since_ref = 0.0
    for k, argv in enumerate(calls):
        report = Path(argv[argv.index("--json") + 1]) if "--json" in argv else None
        if report:
            report.unlink(missing_ok=True)
        cold(hnn)
        if memory:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        cpu0 = sum(os.times()[:4])
        rc, out, elapsed = call(cli, argv)
        busy += sum(os.times()[:4]) - cpu0
        wall += elapsed
        if memory:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0] - base)
        times.append(elapsed)
        rcs.append(rc)
        stdouts.append(out)
        reports.append(json.loads(report.read_text()) if report and report.exists() else None)
        since_ref += elapsed
        if since_ref >= CAL_EVERY_S or k == len(calls) - 1:
            refs.append(host_speed(threads))
            since_ref = 0.0
    result = {"calls": times, "refs": refs, "rcs": rcs, "stdouts": stdouts, "reports": reports,
              "cpu_per_wall": busy / wall if wall else 0.0}
    if memory:
        result["peak_bytes"] = statistics.median(peaks)
        result["retained_bytes"] = statistics.median(retained)
    return result


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    ref = host_speed()
    setup_s, cli, hnn = setup(job["root"], job["groups"])
    result: dict = {"setup_s": setup_s, "setup_refs": [ref, host_speed()]}
    mode = job["mode"]
    if mode == "setup":
        print(json.dumps(result))
        return
    if mode == "memory":
        tracemalloc.start()
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    result.update(run_pass(job["calls"], cli, hnn, mode == "memory", job["threads"]))
    if mode == "trace":
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
