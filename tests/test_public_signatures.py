"""The public parameter lists, pinned.

A parameter stays on these constructors and methods only while two
callers outside tests and examples pass different values for it, or it
is a deployment setting or a fault-detection timeout; everything else
is a constant or derived from what the code can observe.  Adding one
back is a deliberate act: it shows up here.
"""

import ast
import inspect

import pytest

import repro.tensor
import repro.tensor.tensor
from repro.serve import (AutoScaler, EngineWorkerPool, ForecastServer,
                         HostWorker, MicroBatchScheduler, ProcessWorker)
from repro.serve.remote import build_engine, serve_payload
from repro.tensor import PlanExecutor
from repro.workflow import ForecastEngine

SIGNATURES = [
    (ForecastServer,
     ["engine", "max_batch", "max_wait", "cache_bytes", "ocean", "verifier",
      "workers", "router", "max_queue", "warm_plans", "backend", "fabric",
      "autostart"]),
    (ForecastServer.deploy, ["self", "model_or_checkpoint", "source"]),
    (EngineWorkerPool,
     ["engines", "replicas", "max_batch", "max_queue", "router",
      "autostart", "warm_plans", "backend", "fabric"]),
    (EngineWorkerPool.deploy, ["self", "engine", "source"]),
    (MicroBatchScheduler,
     ["engine", "max_batch", "autostart", "warm_plans"]),
    (ProcessWorker,
     ["engine", "warm_batches", "on_death", "request_timeout"]),
    (HostWorker,
     ["engine", "fabric", "warm_batches", "on_death", "request_timeout",
      "heartbeat_s"]),
    (AutoScaler,
     ["pool", "min_workers", "max_workers", "high_water", "low_water",
      "scale_down_patience", "target_utilization", "capacity_model",
      "interval"]),
    (PlanExecutor, ["plan"]),
    (build_engine, ["payload"]),
    (serve_payload, ["channel", "payload"]),
    (PlanExecutor.profile, ["self", "inputs", "repeats"]),
    (repro.tensor.plan.register_kernel, ["name", "kind", "nonview"]),
    (repro.tensor.tensor.apply, ["name", "inputs", "consts"]),
    (repro.tensor.plan.trace_apply,
     ["name", "arrays", "slots", "stable", "consts"]),
    (ForecastEngine.compile_buckets, ["self", "max_batch"]),
]


@pytest.mark.parametrize("target, parameters", SIGNATURES,
                         ids=[t.__qualname__ for t, _ in SIGNATURES])
def test_parameter_list(target, parameters):
    assert list(inspect.signature(target).parameters) == parameters


def test_deploy_source_default():
    assert inspect.signature(EngineWorkerPool.deploy) \
        .parameters["source"].default == "deploy"


def test_server_max_wait_is_accepted_and_unused(engine, windows):
    """The scheduler has no flush timer; the keyword survives on the
    server only for ``benchmarks/e2e/workloads.py``, which passes it."""
    with ForecastServer(engine, max_wait=300.0) as server:
        future = server.submit(windows[0])
        future.result(timeout=60)
    assert future.queue_seconds < 1.0       # nothing held it for company
    assert server.scheduler.metrics.batches[0].trigger == "idle"
    with pytest.raises(ValueError, match="max_wait"):
        ForecastServer(engine, max_wait=-1.0)


def test_histogram_buckets_are_gone():
    assert not hasattr(repro.tensor, "plan_buckets_from_histogram")
    assert "plan_buckets_from_histogram" not in repro.tensor.__all__


def test_post_trace_passes_and_arena_pools_are_gone():
    """A compiled plan is what the tracer recorded, an executor owns
    its blob: no rewrite stage, no pool to hand one back to."""
    for name in ("optimize", "BufferArena", "plan_passes"):
        assert not hasattr(repro.tensor, name), name
        assert name not in repro.tensor.__all__
    assert not hasattr(PlanExecutor, "release")


def test_one_dispatcher_and_no_runtime_binding():
    """Every primitive executes through ``tensor.apply``; the tracer
    works on arrays, so ``plan`` needs no Tensor type handed to it and
    imports ``repro.tensor.tensor`` only inside ``trace()``."""
    plan = repro.tensor.plan
    for name in ("bind_runtime", "_tensor_type", "_no_grad",
                 "_is_grad_enabled"):
        assert not hasattr(plan, name), name
    assert not hasattr(repro.tensor.Tensor, "_make")
    package_imports = [
        ast.unparse(node) for node in ast.parse(inspect.getsource(plan)).body
        if isinstance(node, ast.ImportFrom)
        and (node.level or "repro" in (node.module or ""))
        or isinstance(node, ast.Import)
        and any("repro" in alias.name for alias in node.names)]
    assert package_imports == []
