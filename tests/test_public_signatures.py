"""The public parameter lists, pinned.

The rule is the one ``tools/reach.py`` measures: a defaulted parameter
(or ``*Config`` field) stays only while a system run — the e2e
workloads, the examples, the paper benches and CI's tools, not the
tests — binds it to a value other than its default, or while the keep
list ``tools/reach.txt`` gives it a reason (a deployment setting the
benchmark passes, a fault-detection timeout, a seed, a value a test
needs for an exact check).  Everything else is a constant or derived
from what the code can observe.  Adding one back is a deliberate act:
it shows up here.  So does a new export: each package's ``__all__`` is
pinned, and holds only what something outside the package uses.
"""

import ast
import dataclasses
import importlib.util
import inspect
import textwrap

import pytest

import repro
import repro.data
import repro.eval
import repro.hpc
import repro.nn
import repro.nn.layers
import repro.ocean
import repro.physics
import repro.scenario
import repro.serve
import repro.swin
import repro.tensor
import repro.tensor.tensor
import repro.train
import repro.workflow
from repro.data import DataLoader, SlidingWindowDataset, SnapshotStore
from repro.data.dataset import BOUNDARY_WIDTH, assemble_episode_input
from repro.hpc import DecomposedShallowWater, PipelineParams, ScalingModel
from repro.hpc.fabric import SimEndpoint, SocketEndpoint
from repro.hpc.mpi import BlockDecomposition
from repro.nn import (BatchNorm, Conv3d, ConvTranspose3d, LayerNorm, MLP,
                      Module, MultiHeadSelfAttention, Parameter)
from repro.ocean import (OceanConfig, RomsLikeModel, ShallowWaterSolver,
                         SWEConfig, TidalForcing)
from repro.ocean.bathymetry import BathymetryConfig
from repro.ocean.grid import CurvilinearGrid
from repro.ocean.sigma import VerticalStructure
from repro.physics import Verifier
from repro.scenario.harness import BasinReport
from repro.scenario.traffic import TrafficTrace
from repro.serve import (EngineWorkerPool, ForecastServer, hostpool, pool,
                         procpool, scheduler)
from repro.serve.autoscale import AutoScaler, LoadSample
from repro.serve.hostpool import HostWorker
from repro.serve.procpool import ProcessWorker
from repro.serve.remote import (EngineService, RemoteWorker,
                                RemoteWorkerDied, RemoteWorkerError,
                                build_engine, engine_payload, serve_payload)
from repro.serve.pool import EngineVersion, PoolMetrics
from repro.serve.scheduler import MicroBatchScheduler, ServeMetrics
from repro.swin import SurrogateConfig
from repro.swin.blocks import SwinBlock4d, SwinStage4d
from repro.tensor import PlanExecutor, Tensor, conv_nd, conv_transpose_nd
from repro.tensor.plan import ExecutionPlan
from repro.train import Adam, CosineWarmup, Trainer, TrainerConfig
from repro.train.trainer import episode_loss
from repro.workflow import FieldWindow, ForecastEngine
from repro.workflow.ensemble import EnsembleForecaster
from repro.workflow.forecast import SurrogateForecaster
from repro.workflow.sensitivity import StormOverlay

SIGNATURES = [
    (ForecastServer,
     ["engine", "max_batch", "max_wait", "cache_bytes", "workers", "router",
      "max_queue", "backend", "fabric", "autostart"]),
    (ForecastServer.deploy, ["self", "model_or_engine"]),
    (EngineWorkerPool,
     ["engine", "replicas", "max_batch", "max_queue", "router",
      "autostart", "backend", "fabric"]),
    (EngineWorkerPool.deploy, ["self", "engine", "source"]),
    (MicroBatchScheduler, ["engine", "max_batch", "autostart"]),
    (ProcessWorker, ["engine", "on_death", "request_timeout"]),
    (HostWorker,
     ["engine", "fabric", "on_death", "request_timeout", "heartbeat_s"]),
    (AutoScaler,
     ["pool", "min_workers", "max_workers", "high_water", "low_water",
      "scale_down_patience", "interval"]),
    (PlanExecutor, ["plan"]),
    (build_engine, ["payload"]),
    (engine_payload, ["engine"]),
    (serve_payload, ["channel", "payload"]),
    (PlanExecutor.profile, ["self", "inputs", "repeats"]),
    (repro.tensor.plan.register_kernel, ["name", "kind"]),
    (repro.tensor.tensor.apply, ["name", "inputs", "consts"]),
    (repro.tensor.plan.trace_apply,
     ["name", "arrays", "slots", "stable", "consts"]),
    (ForecastEngine.compile_buckets, ["self", "max_batch"]),
    # the knob audit: every parameter list it shortened
    (MultiHeadSelfAttention, ["dim", "num_heads", "rng"]),
    (MLP, ["dim", "rng"]),
    (LayerNorm, ["dim"]),
    (BatchNorm, ["num_features"]),
    (Conv3d, ["in_channels", "out_channels", "kernel_size", "rng"]),
    (ConvTranspose3d, ["in_channels", "out_channels", "kernel_size", "rng"]),
    (conv_nd, ["x", "w", "b"]),
    (conv_transpose_nd, ["x", "w", "b"]),
    (Tensor, ["data", "requires_grad"]),
    (Tensor.max, ["self", "axis"]),
    (Tensor.softmax, ["self"]),
    (Parameter, ["data"]),
    (Module.load_state_dict, ["self", "state"]),
    (SwinBlock4d,
     ["dim", "num_heads", "window", "shifted", "use_checkpoint", "rng"]),
    (SwinStage4d,
     ["dim", "num_heads", "window", "depth", "downsample", "use_checkpoint",
      "rng"]),
    (SurrogateConfig,
     ["mesh", "time_steps", "patch3d", "patch2d", "embed_dim", "num_heads",
      "depths", "window_first", "window_rest", "use_checkpoint", "seed"]),
    (Adam, ["params", "lr"]),
    (TrainerConfig, ["lr"]),
    (episode_loss, ["pred3d", "pred2d", "target3d", "target2d"]),
    (CosineWarmup, ["optimizer", "warmup_steps", "total_steps"]),
    (DataLoader,
     ["dataset", "batch_size", "shuffle", "num_workers", "seed"]),
    (SlidingWindowDataset, ["store", "normalizer", "window", "stride",
                            "pad_to"]),
    (assemble_episode_input, ["u3", "v3", "w3", "zeta"]),
    (ForecastEngine, ["model", "normalizer"]),
    (SurrogateForecaster, ["model", "normalizer"]),
    (EnsembleForecaster, ["forecaster", "n_members", "zeta_sigma", "seed"]),
    (OceanConfig, ["nx", "ny", "nz", "length_x", "length_y"]),
    (RomsLikeModel, ["config"]),
    (RomsLikeModel.simulate, ["self", "state", "n_snapshots"]),
    (RomsLikeModel.simulate_with_states,
     ["self", "state", "n_snapshots", "every"]),
    (RomsLikeModel.forecast, ["self", "initial", "n_snapshots"]),
    (SWEConfig, ["sponge_strength", "river_discharge"]),
    (BathymetryConfig, ["shelf_depth", "seed"]),
    (CurvilinearGrid, ["x_axis", "y_axis"]),
    (VerticalStructure, ["grid", "layers"]),
    (BlockDecomposition, ["ny", "nx", "pr", "pc"]),
    (DecomposedShallowWater, ["solver", "pr", "pc"]),
    (Verifier, ["grid", "depth", "dt"]),
]


@pytest.mark.parametrize("target, parameters", SIGNATURES,
                         ids=[t.__qualname__ for t, _ in SIGNATURES])
def test_parameter_list(target, parameters):
    assert list(inspect.signature(target).parameters) == parameters


#: each package's ``__all__``: the names something outside the package
#: uses (``tools/reach.py``'s export audit); an export is a reviewed change
EXPORTS = {
    repro: ("data", "eval", "hpc", "ocean", "physics", "scenario", "serve",
            "swin", "tensor", "train", "workflow"),
    repro.data: ("Batch", "DataLoader", "Normalizer", "SlidingWindowDataset",
                 "SnapshotStore", "assemble_episode_input_batch",
                 "build_archives", "pad_mesh", "resample_store"),
    repro.eval: ("aggregate_errors", "compare_surface_fields",
                 "compute_errors", "extract_series", "format_sci",
                 "format_series", "format_table", "series_skill"),
    repro.hpc: ("DecomposedShallowWater", "FabricError", "FabricTimeout",
                "FrameError", "NodeSpec", "PAPER_GPU_COUNTS", "PipelineParams",
                "RomsPerfModel", "RomsWorkload", "ScalingModel",
                "TrainingPipelineModel", "activation_nbytes",
                "halo_exchange_bytes", "pack_frame", "pipeline_memory_table",
                "sample_nbytes", "sim_pair", "unpack_frame"),
    repro.nn: ("BatchNorm", "Conv2d", "Conv3d", "ConvTranspose2d",
               "ConvTranspose3d", "GELU", "LayerNorm", "Linear", "MLP",
               "Module", "ModuleList", "MultiHeadSelfAttention", "Parameter",
               "init"),
    repro.ocean: ("BathymetryConfig", "CurvilinearGrid", "GRAVITY",
                  "GULF_CONSTITUENTS", "OceanConfig", "ParametricCyclone",
                  "RomsLikeModel", "SWEConfig", "ShallowWaterSolver",
                  "ShallowWaterState", "SigmaLayers", "Snapshot",
                  "StormForcedSolver", "StretchedAxis", "TidalConstituent",
                  "TidalForcing", "VerticalStructure", "make_charlotte_grid",
                  "synth_estuary_bathymetry", "wet_mask"),
    repro.physics: ("PAPER_THRESHOLDS", "VerificationResult", "Verifier"),
    repro.scenario: ("ScenarioFactory", "StormSpike", "TrafficModel",
                     "replay_trace", "simulate_trace"),
    repro.serve: ("EngineWorkerPool", "ForecastCache", "ForecastServer",
                  "PoolSaturated", "ServingCapacityModel"),
    repro.swin: ("CoastalSurrogate", "SurrogateConfig", "surrogate_flops"),
    repro.tensor: ("PlanExecutor", "Tensor", "TraceError", "astensor",
                   "concatenate", "conv_nd", "conv_transpose_nd",
                   "enable_grad", "gradcheck", "is_grad_enabled", "no_grad",
                   "trace", "tracing"),
    repro.train: ("Adam", "CosineWarmup", "Trainer", "TrainerConfig",
                  "load_checkpoint", "mse", "save_checkpoint"),
    repro.workflow: ("CompiledForward", "DualModelForecaster",
                     "EnsembleForecast", "EnsembleForecaster", "FieldWindow",
                     "ForecastEngine", "ForecastResult", "GradientRequest",
                     "HybridWorkflow", "StormOverlay", "SurrogateForecaster"),
}


@pytest.mark.parametrize("package", EXPORTS, ids=lambda p: p.__name__)
def test_package_exports(package):
    assert tuple(sorted(package.__all__)) == EXPORTS[package]
    assert all(hasattr(package, name) for name in package.__all__)


def test_what_no_system_run_set_is_a_constant():
    """Dropout is gone with every rate (the model trains without it, as
    the paper's does); the attributes ``benchmarks/e2e`` reads survive
    their parameters as constants."""
    assert not hasattr(repro.nn, "Dropout")
    assert not hasattr(repro.nn.layers, "Dropout")
    fields = {f.name for f in dataclasses.fields(SurrogateConfig)}
    assert not fields & {"dropout", "mlp_ratio", "n_vars_3d", "n_vars_2d"}
    assert "snapshot_interval" not in {
        f.name for f in dataclasses.fields(OceanConfig)}
    assert OceanConfig().snapshot_interval == 1800.0
    assert ForecastEngine.boundary_width == BOUNDARY_WIDTH == 1
    assert inspect.signature(repro.data.assemble_episode_input_batch) \
        .parameters["boundary_width"].default == BOUNDARY_WIDTH


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
    assert not hasattr(repro.tensor.plan, "plan_buckets")


def test_post_trace_passes_and_arena_pools_are_gone():
    """A compiled plan is what the tracer recorded, an executor owns
    its blob: no rewrite stage, no pool to hand one back to."""
    for name in ("optimize", "BufferArena", "plan_passes"):
        assert not hasattr(repro.tensor, name), name
    assert not hasattr(PlanExecutor, "release")
    # one kernel contract: a step is a view or writes its buffer, so no
    # slot is freed during a replay
    assert repro.tensor.plan.KERNEL_KINDS == (
        "compute", "view", "movement", "inplace")
    assert not hasattr(ExecutionPlan, "_build_releases")


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
                      "ConstantLR", "StepLR", "mae",
                      "Optimizer", "LRSchedule"),
        repro.hpc: ("PipelineTrace", "StageEvent", "Tier", "TransferModel",
                    "ServingCapacityModel"),
        repro.swin: ("num_windows", "scale_compute_time"),
        repro.eval: ("ErrorGrowth", "error_growth", "compute_errors_many"),
        repro.data: ("CachedStore", "CacheStats"),
        repro.nn: ("ReLU", "Identity", "Sequential"),
        repro.tensor: ("stack", "where"),
        pool: ("Router", "RoundRobinRouter", "LeastOutstandingRouter",
               "KeyAffinityRouter"),
        scheduler: ("RequestRecord",),
        repro.hpc.mpi: ("SimComm",),
        repro.swin.blocks: ("CheckpointStats",),
        repro.data.preprocess: ("faces_to_centers_u", "faces_to_centers_v",
                                "unpad_mesh"),
    }
    for package, names in gone.items():
        for name in names:
            assert not hasattr(package, name), (package.__name__, name)
    for module in ("repro.train.parallel", "repro.hpc.trace",
                   "repro.eval.errorgrowth", "repro.hpc.serving"):
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
                         (PipelineParams, "from_surrogate"),
                         (ScalingModel, "for_surrogate"),
                         (OceanConfig, "paper_mesh"),
                         (RomsLikeModel, "boundary_rim"),
                         (TidalForcing, "max_amplitude"),
                         (Trainer, "save"),
                         (Trainer, "load"),
                         (Adam, "load_state_dict"),
                         (SnapshotStore, "append"),
                         (SnapshotStore, "times"),
                         (FieldWindow, "snapshot"),
                         (EngineWorkerPool, "capacity_model"),
                         (PoolMetrics, "n_batches"),
                         (PoolMetrics, "n_requests"),
                         (TrafficTrace, "save"),
                         (TrafficTrace, "load"),
                         (LoadSample, "demand_qps"),
                         (EngineVersion, "engines"),
                         (ServeMetrics, "requests")):
        assert name not in vars(target), (target.__qualname__, name)
        if dataclasses.is_dataclass(target):     # fields with no default
            assert name not in {f.name for f in dataclasses.fields(target)}
    assert "advection" not in {f.name for f in dataclasses.fields(SWEConfig)}

    def stored(cls):            # every attribute its methods assign
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        return {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)}
    tallies = {"frames_sent", "frames_received", "bytes_sent",
               "bytes_received"}
    for cls, names in ((SimEndpoint, tallies | {"rank", "comm"}),
                       (SocketEndpoint, tallies),
                       (SnapshotStore, {"bytes_read", "bytes_written"}),
                       (DecomposedShallowWater, {"comm"}),
                       (HostWorker, {"comm"}),
                       (SlidingWindowDataset, {"orig_hw"})):
        left = names & stored(cls)
        assert not left, (cls.__qualname__, left)
    assert "optimizer" not in \
        inspect.signature(repro.train.load_checkpoint).parameters
