"""The public parameter lists, pinned.

A parameter stays on these constructors and methods only while two
callers outside tests and examples pass different values for it, or it
is a deployment setting or a fault-detection timeout; everything else
is a constant or derived from what the code can observe.  Adding one
back is a deliberate act: it shows up here.
"""

import ast
import dataclasses
import importlib.util
import inspect

import pytest

import repro.data
import repro.eval
import repro.hpc
import repro.nn
import repro.swin
import repro.tensor
import repro.tensor.tensor
import repro.train
from repro.data import SnapshotStore
from repro.hpc import (DecomposedShallowWater, PipelineParams, ScalingModel,
                       SimComm)
from repro.ocean import (OceanConfig, RomsLikeModel, ShallowWaterSolver,
                         SWEConfig, TidalForcing)
from repro.physics import Verifier
from repro.scenario import BasinReport
import repro.serve
from repro.serve import (AutoScaler, EngineWorkerPool, ForecastServer,
                         HostWorker, MicroBatchScheduler, ProcessWorker,
                         RemoteWorkerDied, RemoteWorkerError)
from repro.serve import hostpool, procpool
from repro.serve.remote import (EngineService, RemoteWorker, build_engine,
                                engine_payload, serve_payload)
from repro.tensor import ExecutionPlan, PlanExecutor, Tensor
from repro.train import Optimizer, Trainer
from repro.workflow import FieldWindow, ForecastEngine
from repro.workflow.sensitivity import StormOverlay

SIGNATURES = [
    (ForecastServer,
     ["engine", "max_batch", "max_wait", "cache_bytes", "workers", "router",
      "max_queue", "backend", "fabric", "autostart"]),
    (ForecastServer.deploy, ["self", "model_or_checkpoint", "source"]),
    (EngineWorkerPool,
     ["engines", "replicas", "max_batch", "max_queue", "router",
      "autostart", "backend", "fabric"]),
    (EngineWorkerPool.deploy, ["self", "engine", "source"]),
    (MicroBatchScheduler, ["engine", "max_batch", "autostart"]),
    (ProcessWorker, ["engine", "on_death", "request_timeout"]),
    (HostWorker,
     ["engine", "fabric", "on_death", "request_timeout", "heartbeat_s"]),
    (AutoScaler,
     ["pool", "min_workers", "max_workers", "high_water", "low_water",
      "scale_down_patience", "target_utilization", "capacity_model",
      "interval"]),
    (PlanExecutor, ["plan"]),
    (build_engine, ["payload"]),
    (engine_payload, ["engine"]),
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


def test_plans_warm_by_one_rule_in_the_pool():
    """The engine picks the bucket set, the pool warms every replica it
    makes: no warm-up knob anywhere in the serving stack, no compile
    call across a remote tier, no batching policy in ``repro.tensor``."""
    for target in (ForecastServer, EngineWorkerPool, MicroBatchScheduler,
                   ProcessWorker, HostWorker, RemoteWorker, engine_payload):
        params = inspect.signature(target).parameters
        for knob in ("warm_plans", "warm_batches"):
            assert knob not in params, (target, knob)
    for name in ("compile", "compile_buckets", "compiled_batches"):
        assert not hasattr(RemoteWorker, name), name
    ops = EngineService(engine=None)._ops
    assert sorted(ops) == ["batch", "plan_stats", "stop"]
    assert not hasattr(repro.tensor, "plan_buckets")
    assert "plan_buckets" not in repro.tensor.__all__
    assert not hasattr(repro.tensor.plan, "plan_buckets")


def test_post_trace_passes_and_arena_pools_are_gone():
    """A compiled plan is what the tracer recorded, an executor owns
    its blob: no rewrite stage, no pool to hand one back to."""
    for name in ("optimize", "BufferArena", "plan_passes"):
        assert not hasattr(repro.tensor, name), name
        assert name not in repro.tensor.__all__
    assert not hasattr(PlanExecutor, "release")


def test_one_client_exchange_for_both_remote_tiers():
    """``RemoteWorker`` owns the exchange; a tier supplies a channel
    and a liveness poll, and the host tier's pipelining is gone."""
    assert not hasattr(HostWorker, "submit_batch")
    assert not hasattr(hostpool, "_Handle")
    for name in ("_call", "_await"):
        assert name in RemoteWorker.__dict__, name
        for tier in (ProcessWorker, HostWorker):
            assert name not in tier.__dict__, (tier, name)
    for tier in (ProcessWorker, HostWorker):
        assert "_poll" in tier.__dict__, tier


def test_one_exception_pair_for_both_remote_tiers():
    """``RemoteWorker`` raises ``RemoteWorkerError`` / ``RemoteWorkerDied``
    on every tier: no per-tier exception class, no per-tier attribute
    naming one."""
    assert issubclass(RemoteWorkerDied, RemoteWorkerError)
    for name in ("ProcessWorkerError", "ProcessWorkerDied",
                 "HostWorkerError", "HostWorkerDied"):
        assert name not in repro.serve.__all__, name
        for module in (repro.serve, procpool, hostpool):
            assert not hasattr(module, name), (module.__name__, name)
    for tier in (RemoteWorker, ProcessWorker, HostWorker):
        for attr in ("Error", "Died"):
            assert not hasattr(tier, attr), (tier, attr)


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


def test_what_only_its_own_tests_reached_is_gone():
    """The reach audit (``tools/reach.py``) deleted what no system path
    runs, with the tests that existed only for it; nothing of it comes
    back unnoticed.  ``erf`` stays: it is the GELU oracle.  The scheduler
    is not a batch executor; in serving, the pool is."""
    gone = {
        repro.train: ("DataParallelTrainer", "shard_batch", "SGD", "AdamW",
                      "ConstantLR", "StepLR", "mae"),
        repro.hpc: ("PipelineTrace", "StageEvent", "Tier", "TransferModel"),
        repro.swin: ("num_windows", "scale_compute_time"),
        repro.eval: ("ErrorGrowth", "error_growth", "compute_errors_many"),
        repro.data: ("CachedStore", "CacheStats"),
        repro.nn: ("ReLU", "Identity", "Sequential"),
        repro.tensor: ("stack", "where"),
    }
    for package, names in gone.items():
        for name in names:
            assert not hasattr(package, name), (package.__name__, name)
            assert name not in package.__all__, (package.__name__, name)
    for module in ("repro.train.parallel", "repro.hpc.trace",
                   "repro.eval.errorgrowth"):
        assert importlib.util.find_spec(module) is None, module
    assert not hasattr(repro.nn.init, "xavier_uniform")

    plan = repro.tensor.plan
    plan._ensure_kernels_registered()
    ops = ("relu", "clip", "pad", "stack", "where", "sigmoid",
           "log_softmax", "maximum", "copy", "log", "tanh")
    assert not set(ops) & set(plan.KERNELS)
    assert "erf" in plan.KERNELS
    for name in ops + ("var", "half", "float", "__rtruediv__",
                       "__matmul__", "T", "__len__", "numpy", "__gt__",
                       "__lt__", "__ge__", "__le__", "clone", "detach",
                       "__repr__"):
        assert name not in vars(Tensor), name

    for target, name in ((ExecutionPlan, "to_bytes"),
                         (ExecutionPlan, "from_bytes"),
                         (DecomposedShallowWater, "run"),
                         (Verifier, "residuals"),
                         (ForecastServer, "sensitivity"),
                         (StormOverlay, "params"),
                         (BasinReport, "latency_p50_ms"),
                         (ShallowWaterSolver, "_upwind_advect_u"),
                         (ShallowWaterSolver, "_upwind_advect_v"),
                         (MicroBatchScheduler, "forecast_batch"),
                         (MicroBatchScheduler, "forecast"),
                         (MicroBatchScheduler, "pending"),
                         (SimComm, "allreduce_sum"),
                         (PipelineParams, "from_surrogate"),
                         (ScalingModel, "for_surrogate"),
                         (OceanConfig, "paper_mesh"),
                         (RomsLikeModel, "boundary_rim"),
                         (TidalForcing, "max_amplitude"),
                         (Trainer, "save"),
                         (Trainer, "load"),
                         (Optimizer, "load_state_dict"),
                         (SnapshotStore, "append"),
                         (SnapshotStore, "times"),
                         (FieldWindow, "snapshot")):
        assert name not in vars(target), (target.__qualname__, name)
    assert "advection" not in {f.name for f in dataclasses.fields(SWEConfig)}
    assert "optimizer" not in \
        inspect.signature(repro.train.load_checkpoint).parameters
