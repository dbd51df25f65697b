#!/usr/bin/env python3
"""The repository's one benchmark: seven workloads, one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

generates every input from the seed, sets the workload up cold three
times (``setup_s`` is the median), measures for S seconds, checks the
outputs after the clock stops, and prints one JSON object as the last
line of standard output::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"throughput_eps": {"value": 431.8, "unit": "episodes/s"}, ...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
public callables of every layer with span recorders, reports the
per-layer metrics, and writes the spans to
``benchmarks/e2e/out/trace_<workload>.jsonl``.  Without ``--workload``
every workload runs in turn, one JSON line each.  ``--out FILE`` appends
each result (with its workload, seed, seconds and trace flag) to a
result set that ``compare.py`` reads.  README.md in this directory
explains every name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

SETUPS = 3
DEFAULT_SECONDS = 10

#: glibc malloc settings every run is made under: freed memory stays in
#: the heap (no mmap below 32 MiB, the largest threshold glibc accepts;
#: no trim), so timed calls reuse pages instead of faulting them in
#: again.  On this VM one page fault costs 3.5-70 us from one call to
#: the next, which was nearly all of the spread on the estuary mesh.
ALLOCATOR = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
}


def pin_allocator() -> None:
    """Re-execute this command under ``ALLOCATOR`` (same process id; the
    settings are read once, when malloc starts, and spawned workers
    inherit them)."""
    if sys.executable and any(os.environ.get(k) != v
                              for k, v in ALLOCATOR.items()):
        os.environ.update(ALLOCATOR)
        os.execv(sys.executable, [sys.executable] + sys.argv)


def bootstrap() -> None:
    """Put this checkout's ``src`` and this directory on the path; the
    benchmark measures the program next to it, never an installed one."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]


def run_untraced(wl, seed: int, seconds: float) -> dict:
    import harness as hz

    wl.inputs(seed)
    cal = hz.Calibrator(exponent=wl.speed_exponent)
    setups, live = [], None

    def timed_setup():
        t0 = time.perf_counter()
        return wl.setup(), time.perf_counter() - t0

    for _ in range(SETUPS):
        if live is not None:
            wl.teardown(live)
        (live, wall), speed = cal.between(timed_setup)
        setups.append(wall * speed)
    try:
        m = wl.measure(live, seconds, "full", cal)
        rss = hz.peak_rss_mb()
        checked, wrong = wl.check(live, m)
    finally:
        wl.teardown(live)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_eps": m.throughput_eps,
        "latency_p50_ms": 1e3 * hz.percentile(m.latencies, 50),
        "cpu_ms_per_episode": m.cpu_ms_per_episode,
        "peak_rss_mb": rss,
    }
    out = result(wl, m.attempted, m.failed, checked, wrong, values,
                 hz.E2E_UNITS)
    return out, {"host_speed": statistics.median(cal.samples)}


def run_traced(wl, seed: int, seconds: float) -> dict:
    import harness as hz
    import workloads

    wl.inputs(seed)
    cal = hz.Calibrator(exponent=wl.speed_exponent)
    live = wl.setup()
    tracer = hz.Tracer()
    try:
        plain = wl.measure(live, seconds, "plain", cal)
        workloads.install_tracer(tracer)
        try:
            traced = wl.measure(live, seconds, "traced", cal, tracer)
            values = wl.layers(live, traced, tracer)
        finally:
            tracer.uninstall()
        checked, wrong = wl.check(live, traced)
    finally:
        wl.teardown(live)
    tracer.write(str(HERE / "out" / f"trace_{wl.name}.jsonl"))
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    shed = plain.shed + traced.shed
    n = len(traced.latencies)
    host_speed = statistics.median(cal.samples)
    values.update({
        "client.offered": attempted,
        "client.completed": attempted - failed,
        "client.failed": failed - shed,
        "client.shed": shed,
        "client.mismatched": wrong,
        "client.failed_fraction": (failed + wrong) / attempted,
        "client.latency_p95_ms": 1e3 * hz.percentile(traced.latencies, 95),
        "client.latency_samples": n,
        "client.latency_tail_pct": hz.supported_tail(n),
        "client.host_speed": host_speed,
        "trace.overhead_fraction":
            1.0 - traced.throughput_eps / plain.throughput_eps,
    })
    full = {name: values.get(name, 0) for name in hz.LAYER_UNITS}
    out = result(wl, attempted, failed, checked, wrong, full,
                 hz.LAYER_UNITS)
    return out, {"host_speed": host_speed}


def result(wl, attempted: int, failed: int, checked: int, wrong: int,
           values: dict, units: dict) -> dict:
    # a run that checked too few of its outputs is not correct
    return {
        "correct": failed == 0 and wrong == 0
        and checked >= wl.min_checked,
        "attempted": int(attempted),
        "failed": int(failed + wrong),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None,
                    help="one workload name (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="length of the measured phases")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", default=None,
                    help="append each result to this JSON-lines result set")
    ap.add_argument("--fingerprint", action="store_true",
                    help="print this host's fingerprint and exit")
    args = ap.parse_args(argv)
    bootstrap()
    import harness as hz
    import workloads

    if args.fingerprint:
        print(json.dumps(hz.host_fingerprint(), indent=2))
        return 0

    names = [args.workload] if args.workload else list(hz.WORKLOADS)
    for name in names:
        if name not in hz.WORKLOADS:
            ap.error(f"unknown workload {name!r}; "
                     f"choose from {', '.join(hz.WORKLOADS)}")
    for name in names:
        wl = workloads.make(name)
        run = run_traced if args.trace else run_untraced
        try:
            out, notes = run(wl, args.seed, args.seconds)
        finally:
            # nothing this run started may outlive it, on any path out
            hz.stop_children()
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({
                    "workload": name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    **notes, **out}) + "\n")
        if len(names) > 1:
            out = {"workload": name, **out}
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    pin_allocator()
    raise SystemExit(main())
