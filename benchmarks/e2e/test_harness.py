"""Self-tests of the benchmark harness.

    python -m pytest benchmarks/e2e -q

Not part of the tier-1 suite (``testpaths`` stays ``tests``).
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for extra in (str(ROOT / "src"), str(HERE)):
    if extra not in sys.path:
        sys.path.insert(0, extra)

import compare  # noqa: E402
import harness as hz  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- seeded inputs ------------------------------------------------------
@pytest.mark.parametrize("name", ["serve_thread_unique",
                                  "serve_thread_repeat", "adjoint_batch"])
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    def generate(seed):
        wl = workloads.make(name)
        wl.inputs(seed)
        schedule = wl.schedule(2.0).tolist() \
            if hasattr(wl, "schedule") else []
        return schedule, wl.input_digests(40)

    assert generate(7) == generate(7)
    schedule_a, digests_a = generate(7)
    schedule_b, digests_b = generate(8)
    assert digests_a != digests_b
    if schedule_a:
        assert schedule_a != schedule_b
        assert len(schedule_a) == len(schedule_b) == 80   # 40 req/s · 2 s


def test_repeat_workload_mixes_hot_and_fresh():
    wl = workloads.make("serve_thread_repeat")
    wl.inputs(3)
    ids = [wl.next_input(k)[0] for k in range(2000)]
    hot = [i for i in ids if i < workloads.HOT_WINDOWS]
    fresh = [i for i in ids if i >= workloads.POOL_WINDOWS]
    assert len(hot) + len(fresh) == len(ids)
    assert 0.75 < len(hot) / len(ids) < 0.85
    assert len(set(fresh)) == len(fresh)          # never sent before
    assert window_bytes_differ(wl, fresh[0], fresh[1])


def window_bytes_differ(wl, a, b):
    return workloads.window_digest(wl.window_of(a)) \
        != workloads.window_digest(wl.window_of(b))


# -- statistics ---------------------------------------------------------
@pytest.mark.parametrize("n,want", [
    (9, 0), (19, 0), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (999, 95), (1000, 99)])
def test_percentile_rule_needs_ten_samples_beyond(n, want):
    assert hz.supported_tail(n) == want


# -- spans --------------------------------------------------------------
def test_self_time_subtracts_what_children_cover():
    spans = [
        # id, name, start, end, parent, request
        (0, "root", 0.0, 10.0, None, 1),
        (1, "child", 1.0, 4.0, 0, 1),
        (2, "child", 3.0, 6.0, 0, 1),       # overlaps span 1 by 1 s
        (3, "leaf", 1.5, 2.0, 1, 1),
        (4, "child", 9.0, 12.0, 0, 1),      # clipped to the parent's end
        (5, "other", 20.0, 21.0, None, None),
    ]
    own = hz.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)
    assert own[5] == pytest.approx(1.0)
    assert hz.self_durations(spans, "child") == \
        pytest.approx([2.5, 3.0, 3.0])


def test_tracer_records_parents_and_restores_originals():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = hz.Tracer()
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner")
    tracer.request_id = 42
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer().outer() == 2 and len(tracer.spans) == 2
    inner, outer = tracer.spans
    assert (inner[1], outer[1]) == ("layer.inner", "layer.outer")
    assert inner[4] == outer[0] and outer[4] is None
    assert inner[5] == outer[5] == 42


# -- compare ------------------------------------------------------------
def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [103.0, 102.0, 104.0], "lower",
                           0.10)[0] == "ok"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower",
                           0.10)[0] == "regression"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "higher",
                           0.10)[0] == "ok"          # every run beats
    noisy = [80.0, 100.0, 125.0, 140.0]
    assert compare.verdict(noisy, [90.0, 118.0, 130.0, 150.0], "lower",
                           0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [60.0, 70.0, 75.0], "lower",
                           0.10)[0] == "ok"          # settled by ranks


# -- names: BENCHMARK.json and run.py must agree ------------------------
def test_benchmark_json_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(hz.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == hz.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == hz.LAYER_UNITS
    names = list(hz.WORKLOADS) + list(hz.E2E_UNITS) + list(hz.LAYER_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,units", [(0, hz.E2E_UNITS),
                                         (1, hz.LAYER_UNITS)])
def test_run_emits_exactly_the_declared_metrics(trace, units, capsys):
    assert run.main(["--workload", "adjoint_batch", "--seed", "5",
                     "--seconds", "0.5", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())


# -- clean-up: nothing the benchmark starts may outlive it ---------------
def test_stop_children_reaps_workers_and_the_resource_tracker():
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    ctx = multiprocessing.get_context("spawn")      # starts the tracker
    worker = ctx.Process(target=time.sleep, args=(60,), daemon=True)
    worker.start()
    assert worker.pid in hz._direct_children()
    assert resource_tracker._resource_tracker._pid in hz._direct_children()
    hz.stop_children()
    assert hz._direct_children() == []
