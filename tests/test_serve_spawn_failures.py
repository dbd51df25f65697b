"""Failures on the spawn path leave nothing behind.

A remote replica is a remote (a child process, or the sim fabric's
thread) plus (process tier) shared-memory segments, spawned *before*
the scheduler that will drive it exists.
Whatever fails after the spawn — the scheduler's constructor, the
loopback accept — must take the child and its segments down with it,
on every path that builds a replica: pool construction, ``add_worker``
and a ``deploy`` surge.  A child costs ~1s to spawn, so each tier
walks all three paths in one test.
"""

import os
from contextlib import closing

import pytest

from repro.hpc.fabric import FabricError
from repro.serve import DeploymentError, EngineWorkerPool, HostWorker
from repro.serve import hostpool as hostpool_mod
from repro.serve import pool as pool_mod
from repro.serve.scheduler import MicroBatchScheduler

from conftest import assert_windows_equal, segments_alive

pytestmark = pytest.mark.filterwarnings("error::UserWarning")


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_failed_scheduler_construction_leaks_no_child_and_no_segment(
        engine_factory, windows, monkeypatch, remote_tier):
    engine = engine_factory()   # the deploy below compiles plans on it
    spawned = []            # (executor, its segment names at birth)
    backend = remote_tier.backend
    real_worker = pool_mod._REMOTE_WORKERS[backend]

    def recording_worker(*args, **kwargs):
        executor = real_worker(*args, **kwargs)
        spawned.append((executor, executor.segment_names()))
        return executor

    class FlakyScheduler(MicroBatchScheduler):
        broken = False

        def __init__(self, *args, **kwargs):
            if FlakyScheduler.broken:
                raise RuntimeError("scheduler construction failed")
            super().__init__(*args, **kwargs)

    monkeypatch.setitem(pool_mod._REMOTE_WORKERS, backend, recording_worker)
    monkeypatch.setattr(pool_mod, "MicroBatchScheduler", FlakyScheduler)

    def assert_gone(executor, names):
        assert not executor.alive
        # a sim rank reports this process's pid: it has no child
        assert not (remote_tier.child and pid_alive(executor.pid))
        assert segments_alive(names + executor.segment_names()) == []

    def build():
        return EngineWorkerPool(engine, replicas=1, max_batch=2,
                                autostart=False, **remote_tier.pool_kwargs)

    # 1. pool construction
    FlakyScheduler.broken = True
    with pytest.raises(RuntimeError, match="scheduler construction"):
        build()
    assert len(spawned) == 1
    assert_gone(*spawned[-1])

    FlakyScheduler.broken = False
    with closing(build()) as pool:
        healthy = spawned[-1][0]
        FlakyScheduler.broken = True
        # 2. scale-up
        with pytest.raises(RuntimeError, match="scheduler construction"):
            pool.add_worker()
        assert len(spawned) == 3
        assert_gone(*spawned[-1])
        # 3. the surge of a deploy (rolled back: nothing was drained)
        with pytest.raises(DeploymentError):
            pool.deploy(engine)
        assert len(spawned) == 4
        assert_gone(*spawned[-1])
        # the replica that was serving all along still is
        assert healthy.alive and pool.current_version == 1
        assert [w.executor for w in pool.workers] == [healthy]
        served = pool.forecast_batch(windows[:2])
        for got, want in zip(served, engine.forecast_batch(windows[:2])):
            assert_windows_equal(got.fields, want.fields)
    for executor, names in spawned:
        assert_gone(executor, names)


def test_host_worker_failed_accept_joins_and_closes_the_child(
        engine, monkeypatch):
    """A child that never completes the loopback handshake goes through
    the same teardown as a failed ``ready`` handshake: terminated,
    joined, handle closed."""
    children = []
    real_get_context = hostpool_mod.get_context

    class RecordingContext:
        def __init__(self, method):
            self._ctx = real_get_context(method)

        def Process(self, *args, **kwargs):
            children.append(self._ctx.Process(*args, **kwargs))
            return children[-1]

    def refuse(listener, token, timeout):
        raise FabricError("peer failed the token handshake")

    monkeypatch.setattr(hostpool_mod, "get_context", RecordingContext)
    monkeypatch.setattr(hostpool_mod, "accept_loopback", refuse)
    with pytest.raises(FabricError, match="token handshake"):
        HostWorker(engine, fabric="socket")
    (child,) = children
    # Process.close() refuses a child that is still running, so a closed
    # handle means it was joined, not just signalled
    with pytest.raises(ValueError, match="closed"):
        child.is_alive()
