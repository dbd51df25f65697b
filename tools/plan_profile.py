#!/usr/bin/env python
"""Where a plan replay's time goes: per-kernel and per-step cost.

Compiles the surrogate forward of one benchmark configuration (the
model configs are imported from ``benchmarks/e2e/workloads.py``, which
this tool only reads) at one batch size, replays it through
:meth:`repro.tensor.PlanExecutor.profile` and prints

* the per-kernel table — calls, milliseconds, share of the replay,
  microseconds per call;
* the 15 most expensive steps with their output shapes;
* the cost of the bare replay loop: the same plan with every kernel
  replaced by a stub, i.e. what ``PlanExecutor.run`` itself spends on
  gathering inputs, storing outputs and releasing slots;
* the plan's arena next to its live-set peak — the most bytes of
  arena-backed buffers alive at any one step, which no packing can go
  below.

::

    python tools/plan_profile.py --config serving --batch 8
    python tools/plan_profile.py --config estuary --batch 8 --repeats 3

Runs under the benchmark's allocator settings (``run.pin_allocator``).
Exits 1 if the printed kernel shares do not sum to 100 ± 1 %, or if
the arena exceeds the live-set peak by more than 5 % (CI's test job
runs it so the instrument cannot rot).  The numbers are one
host's; ``docs/architecture.md`` § "Where a replay's time goes" records
them next to ``benchmarks/e2e/reference/host.json``.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import harness  # noqa: E402 — needs the two path entries above
import run as benchmark  # noqa: E402
import workloads  # noqa: E402
from repro.tensor import PlanExecutor  # noqa: E402
from repro.workflow import ForecastEngine  # noqa: E402

CONFIGS = {"serving": workloads.SERVING_CFG,
           "estuary": workloads.ESTUARY_CFG}
TOP_STEPS = 15


def bare_loop_seconds(plan, inputs) -> float:
    """Median wall time of ``run`` over ``plan`` with stubbed kernels."""
    bare = copy.copy(plan)
    bare.steps = [dataclasses.replace(s, fn=lambda out, ins, consts: out)
                  for s in plan.steps]
    executor = PlanExecutor(bare)
    return statistics.median(harness.repeat(lambda: executor.run(inputs)))


def live_set_peak(plan) -> int:
    """Most 64-byte-rounded bytes of compute slots alive at one step."""
    last = plan._last_uses()
    ending = {}                     # step -> bytes whose last use it is
    alive = peak = 0
    for i, step in enumerate(plan.steps):
        if step.kind == "compute":
            need = -(-plan.slots[step.out].nbytes // 64) * 64
            alive += need
            ending[last[step.out]] = ending.get(last[step.out], 0) + need
        peak = max(peak, alive)
        alive -= ending.pop(i, 0)
    return peak


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", choices=sorted(CONFIGS), required=True)
    ap.add_argument("--batch", type=int, required=True)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    engine = ForecastEngine(
        workloads.build_model(CONFIGS[args.config], seed=0),
        workloads.unit_normalizer())
    plan = engine.compile(args.batch).plan
    rng = np.random.default_rng(0)
    inputs = [rng.normal(size=plan.slots[sid].shape).astype(np.float32)
              for sid in plan.inputs]
    executor = PlanExecutor(plan)
    executor.run(inputs)                         # warm: pages, BLAS, scratch
    steps = executor.profile(inputs, args.repeats)

    total = sum(sec for *_, sec in steps)
    by_kernel = {}
    for _, name, _, sec in steps:
        calls, acc = by_kernel.get(name, (0, 0.0))
        by_kernel[name] = (calls + 1, acc + sec)

    print(f"{args.config} b{args.batch}: {plan.n_steps} steps, "
          f"{1e3 * total:.2f} ms profiled (median of {args.repeats})")
    print(f"\n{'kernel':<28}{'calls':>6}{'ms':>10}{'share %':>9}"
          f"{'us/call':>10}")
    shares = 0.0
    for name, (calls, sec) in sorted(by_kernel.items(),
                                     key=lambda kv: -kv[1][1]):
        share = round(100 * sec / total, 1)
        shares += share
        print(f"{name:<28}{calls:>6}{1e3 * sec:>10.3f}{share:>9.1f}"
              f"{1e6 * sec / calls:>10.1f}")
    print(f"\ntop {TOP_STEPS} steps")
    print(f"{'step':>5}  {'kernel':<28}{'ms':>10}{'share %':>9}  shape")
    for i, name, shape, sec in sorted(steps, key=lambda s: -s[3])[:TOP_STEPS]:
        print(f"{i:>5}  {name:<28}{1e3 * sec:>10.3f}"
              f"{100 * sec / total:>9.1f}  {shape}")
    bare = bare_loop_seconds(plan, inputs)
    print(f"\nbare loop (kernels stubbed): {1e6 * bare:.0f} us "
          f"= {100 * bare / total:.1f} % of the replay")
    peak = live_set_peak(plan)
    print(f"arena: {plan.arena_total / 1e6:.2f} MB")
    print(f"live-set peak: {peak / 1e6:.2f} MB")
    print(f"kernel shares sum to {shares:.1f} %")
    return 0 if abs(shares - 100.0) <= 1.0 \
        and plan.arena_total <= 1.05 * peak else 1


if __name__ == "__main__":
    # the malloc settings every benchmark run is made under, so a step's
    # milliseconds here are the ones inside tensor.plan.replay_ms_b8
    benchmark.pin_allocator()
    sys.exit(main())
