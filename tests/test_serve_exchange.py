"""The one client exchange, on every remote tier.

Both remote tiers drive their channel through ``RemoteWorker``: one
call lock, one ``seq``-matched await, one watchdog polling the channel
between calls.  What that makes the same everywhere is pinned here for
the process tier and the host tier on both fabrics: a death is found
during a call or while idle, ``on_death`` runs exactly once with no
lock held — so an owner may close the worker from it — and no watchdog
thread outlives its worker.
"""

import os
import signal
import sys
import threading
from contextlib import closing

import pytest

from repro.serve import HostWorker, ProcessWorker, ProcessWorkerDied

from conftest import assert_windows_equal

pytestmark = pytest.mark.filterwarnings("error::UserWarning")

TIERS = {
    "process": ProcessWorker,
    "host-sim": lambda engine, **kw: HostWorker(engine, fabric="sim", **kw),
    "host-socket": lambda engine, **kw: HostWorker(engine, fabric="socket",
                                                   **kw),
}


def kill(worker):
    """Kill the remote abruptly: ``SIGKILL`` to a child process,
    endpoint teardown for the sim fabric's in-process rank — the fault
    the client must then detect and surface."""
    if isinstance(worker, HostWorker) and worker.fabric == "sim":
        worker._remote_ep.close()
    else:
        os.kill(worker.pid, signal.SIGKILL)


@pytest.mark.parametrize("found", ["call", "idle"])
@pytest.mark.parametrize("tier", TIERS)
def test_on_death_may_close_the_worker(engine, windows, tier, found):
    deaths = []

    def close_on_death(worker):
        deaths.append(worker)
        worker.close()

    worker = TIERS[tier](engine, on_death=close_on_death)
    try:
        watchdog = worker._watchdog
        if found == "call":
            # stop the watchdog, so the request is what finds the death
            worker._watch_stop.set()
            watchdog.join(10)
            kill(worker)
            failure = []

            def call():
                try:
                    worker.forecast_batch(windows[:2])
                except ProcessWorkerDied as exc:
                    failure.append(exc)

            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(30)
            assert not caller.is_alive(), "on_death deadlocked the caller"
            assert len(failure) == 1
        else:
            kill(worker)
            # the watchdog finds the death, runs on_death, and exits
            watchdog.join(30)
            assert not watchdog.is_alive(), "on_death deadlocked the watchdog"
        assert deaths == [worker]
        assert not worker.alive and worker._closed
        assert not watchdog.is_alive()
    finally:
        worker.close()


@pytest.mark.parametrize("tier", TIERS)
def test_concurrent_callers_and_the_watchdog_share_one_exchange(
        engine, windows, tier):
    """More callers than cores drive one worker while its watchdog
    polls, with a short switch interval: every reply reaches the
    request that asked for it (bitwise), and no batch count is lost."""
    direct = {i: engine.forecast_batch(windows[i:i + 2]) for i in range(4)}
    errors = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with closing(TIERS[tier](engine)) as worker:
            def caller(i):
                try:
                    for _ in range(8):
                        got = worker.forecast_batch(windows[i:i + 2])
                        for g, d in zip(got, direct[i]):
                            assert_windows_equal(g.fields, d.fields)
                except Exception as exc:  # noqa: BLE001 — checked below
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(i,), daemon=True)
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert worker.alive
            assert worker.transport_stats()["batches"] == 4 * 8
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("tier", TIERS)
def test_no_watchdog_outlives_close(engine, windows, tier):
    with closing(TIERS[tier](engine)) as worker:
        watchdog = worker._watchdog
        assert watchdog.is_alive()
        for got, want in zip(worker.forecast_batch(windows[:2]),
                             engine.forecast_batch(windows[:2])):
            assert_windows_equal(got.fields, want.fields)
    assert not watchdog.is_alive()
