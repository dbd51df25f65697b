#!/usr/bin/env python
"""Where a gradient's time goes: phases, tape size and backward closures.

Runs ``ForecastEngine.sensitivity_batch`` on the ``adjoint_batch``
inputs of the benchmark (model config, windows and storm are imported
from ``benchmarks/e2e/workloads.py``, which this tool only reads) and
prints

* the phase table of one call — overlay apply, staging, tape forward,
  backward, assembly adjoint, overlay VJP — from clocks wrapped around
  the engine's own callables, next to the plan forward of the same
  batch;
* ``Tensor`` constructions per call — ``Tensor.__init__`` calls plus
  ``apply`` calls, which build their result without ``__init__`` — and
  the tape nodes reachable from the loss, for the model graph and the
  overlay graph;
* backward milliseconds by closure name: every reachable node's
  ``_backward`` is wrapped from outside, then the real
  ``Tensor.backward`` runs (it carries no clock of its own).

::

    python tools/tape_profile.py --batch 4

Runs under the benchmark's allocator settings (``run.pin_allocator``).
Exits 1 if the six phases do not sum to 100 ± 5 % of the call's wall,
or if fewer Tensors were counted than the two tapes hold nodes — a
construction path the counter does not see (CI's test job runs it so
the instrument cannot rot).  The numbers are
one host's; ``docs/differentiation.md`` § "Where a gradient's time
goes" records them.
"""

from __future__ import annotations

import argparse
import collections
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import harness  # noqa: E402 — needs the two path entries above
import run as benchmark  # noqa: E402
import workloads  # noqa: E402
from repro.tensor import Tensor  # noqa: E402
from repro.tensor import tensor as tensor_mod  # noqa: E402
from repro.tensor.gradcheck import tape_nodes  # noqa: E402
from repro.workflow import ForecastEngine  # noqa: E402
from repro.workflow import sensitivity  # noqa: E402

PHASES = ("overlay apply", "staging", "tape forward", "backward",
          "assembly adjoint", "overlay VJP")
REPEATS = 20      # probed calls; the table is the one with the median wall


class Probe:
    """Outside-in clocks and counters around one engine's gradient path."""

    def __init__(self, engine):
        self.spent = collections.defaultdict(float)   # phase -> seconds
        self.backwards = []        # wall of each Tensor.backward, in order
        self.graphs = []           # reachable tensors, first two backwards
        self.closures = None       # name -> [calls, seconds] when set
        self.constructions = 0
        self._undo = []
        self._wrap(sensitivity, "compose_batch", "overlay apply")
        self._wrap(sensitivity, "overlay_vjp", "overlay VJP")
        self._wrap(engine, "_stage", "staging")
        self._wrap(engine, "_assembly_adjoint", "assembly adjoint")
        self._patch(Tensor, "backward", self._backward)
        self._patch(Tensor, "__init__", self._counted)
        # an op's result is built by apply, not __init__ (outside a
        # trace); every module that imported the dispatcher by name
        # holds its own binding of it
        dispatcher = tensor_mod.apply
        for module in list(sys.modules.values()):
            if module.__dict__.get("apply") is dispatcher:
                self._patch(module, "apply", self._counted)

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._undo.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, make(original))

    def _wrap(self, owner, name, phase):
        def make(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.spent[phase] += time.perf_counter() - t0
            return timed
        self._patch(owner, name, make)

    def _counted(self, original):
        def counted(*args, **kwargs):
            self.constructions += 1
            return original(*args, **kwargs)
        return counted

    def _backward(self, original):
        def backward(root, grad=None):
            if len(self.graphs) < 2:         # model graph, overlay graph
                self.graphs.append(len(tape_nodes(root)))
            if self.closures is not None:
                for node in tape_nodes(root):
                    if node._backward is not None:
                        node._backward = self._timed_closure(node._backward)
            t0 = time.perf_counter()
            original(root, grad)
            self.backwards.append(time.perf_counter() - t0)
        return backward

    def _timed_closure(self, fn):
        entry = self.closures[len(self.backwards) % 2].setdefault(
            fn.__qualname__.replace(".<locals>._bw", ""), [0, 0.0])

        def timed(g):
            t0 = time.perf_counter()
            fn(g)
            entry[0] += 1
            entry[1] += time.perf_counter() - t0
        return timed

    def close(self):
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def closure_table(title, closures, backward_s):
    total = sum(sec for _, sec in closures.values())
    print(f"\n{title}: {1e3 * backward_s / REPEATS:.2f} ms per backward, "
          f"{1e3 * (backward_s - total) / REPEATS:.2f} of it outside the "
          f"closures (topological sort, the loop, freeing gradients)")
    print(f"{'closure':<28}{'calls':>6}{'ms':>10}{'share %':>9}{'us/call':>10}")
    for name, (calls, sec) in sorted(closures.items(),
                                     key=lambda kv: -kv[1][1]):
        print(f"{name:<28}{calls // REPEATS:>6}{1e3 * sec / REPEATS:>10.3f}"
              f"{100 * sec / backward_s:>9.1f}{1e6 * sec / calls:>10.1f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch", type=int, required=True)
    n = ap.parse_args(argv).batch

    engine = ForecastEngine(
        workloads.build_model(workloads.SERVING_CFG, seed=0),
        workloads.unit_normalizer())
    engine.compile(n)
    windows = workloads.make_windows(np.random.default_rng(0), n,
                                     workloads.SERVING_WINDOW)

    def call():
        return engine.sensitivity_batch(
            windows, wrt=workloads.AdjointWorkload.wrt,
            diagnostic=workloads.AdjointWorkload.diagnostic,
            storms=[workloads.STORM] * n)

    call()                                   # warm: pages, BLAS, scratch
    forward = statistics.median(harness.repeat(
        lambda: engine.forecast_batch(windows)))
    untouched = statistics.median(harness.repeat(call))

    probe = Probe(engine)
    try:
        calls = []
        for _ in range(REPEATS):
            before = len(probe.backwards)
            probe.spent.clear()
            t0 = time.perf_counter()
            results = call()
            wall = time.perf_counter() - t0
            spent = dict(probe.spent, backward=probe.backwards[before])
            spent["tape forward"] = \
                sum(r.backward_seconds for r in results) - spent["backward"]
            calls.append((wall, spent))
        # the call with the median wall: a neighbour's burst on a shared
        # host lands in the tail, not in the table
        wall, spent = sorted(calls, key=lambda c: c[0])[REPEATS // 2]
        constructions = probe.constructions // REPEATS
        model_nodes, overlay_nodes = probe.graphs[:2]

        probe.closures = collections.defaultdict(dict)
        probe.backwards.clear()
        for _ in range(REPEATS):
            call()
    finally:
        probe.close()

    print(f"serving b{n}, wrt={workloads.AdjointWorkload.wrt}: "
          f"{1e3 * untouched:.2f} ms per call unprobed "
          f"({untouched / forward:.2f} x the {1e3 * forward:.2f} ms plan "
          f"forward), {1e3 * wall:.2f} ms probed "
          f"(the median call of {REPEATS})")
    print(f"\n{'phase':<28}{'ms':>10}{'share %':>9}")
    shares = 0.0
    for phase in PHASES:
        share = round(100 * spent[phase] / wall, 1)
        shares += share
        print(f"{phase:<28}{1e3 * spent[phase]:>10.3f}{share:>9.1f}")
    print(f"{'(validation, flags, results)':<28}"
          f"{1e3 * (wall - sum(spent.values())):>10.3f}{100 - shares:>9.1f}")

    print(f"\nTensor constructions per call: {constructions}")
    print(f"tape nodes reachable from the loss: model graph {model_nodes}, "
          f"overlay graph {overlay_nodes}")
    for title, which in (("model backward", 0), ("overlay backward", 1)):
        closure_table(title, probe.closures[which],
                      sum(probe.backwards[which::2]))
    print(f"\nphases sum to {shares:.1f} % of the call")
    if constructions < model_nodes + overlay_nodes:
        print(f"{constructions} constructions counted for "
              f"{model_nodes + overlay_nodes} tape nodes: Tensors are "
              f"built somewhere this tool does not look")
        return 1
    return 0 if abs(shares - 100.0) <= 5.0 else 1


if __name__ == "__main__":
    # the malloc settings every benchmark run is made under, so a
    # phase's milliseconds here are the ones inside adjoint_batch
    benchmark.pin_allocator()
    sys.exit(main())
