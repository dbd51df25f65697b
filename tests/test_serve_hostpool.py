"""Host execution tier: the frame codec and heartbeat liveness.

What the host tier shares with the process tier — bitwise equality on
both fabrics, the failure model, the pool over it — is tested once
over the ``remote_tier`` fixture in ``test_serve_exchange.py``.  This
module holds what only this tier tests: the sim fabric's wire
accounting, the fabric choice, a failed request that leaves its worker
serving, and the frame codec's and the heartbeat's ways of condemning
a worker — a corrupt frame, a remote's fatal error, a lapsed heartbeat
deadline — rather than hanging it.
"""

from contextlib import closing

import pytest

from repro.serve import EngineWorkerPool
from repro.serve.hostpool import HostWorker
from repro.serve.remote import RemoteWorkerDied, RemoteWorkerError

from conftest import make_window, wait_until

# any cleanup/resource warning during these tests is a failure
pytestmark = pytest.mark.filterwarnings("error::UserWarning")


# ----------------------------------------------------------------------
# single worker: fabric choice, codec and heartbeat faults
# ----------------------------------------------------------------------
class TestHostWorker:
    def test_unknown_fabric_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown fabric"):
            HostWorker(engine, fabric="carrier-pigeon")

    def test_corrupt_frame_marks_worker_dead(self, engine, windows):
        """Garbage injected into the client's receive stream (the sim
        remote's send side) must kill the worker explicitly — corrupt
        framing is unrecoverable, never a hang."""
        worker = HostWorker(engine, fabric="sim", heartbeat_s=0.0)
        try:
            worker._remote_ep.send_frame(b"GARBAGE-NOT-A-FRAME")
            assert wait_until(lambda: not worker.alive, timeout=10.0)
            with pytest.raises(RemoteWorkerDied, match="corrupt frame"):
                worker.forecast_batch(windows[:1])
        finally:
            worker.close()

    def test_remote_fatal_error_condemns_idle_worker(self, engine, windows):
        """Garbage injected into the remote's receive stream (the
        client's send side) is rejected there: the remote reports a
        fatal ``err`` that answers no request and hangs up.  The
        watchdog reads it between exchanges and condemns the worker by
        the remote's own reason."""
        deaths = []
        worker = HostWorker(engine, fabric="sim", heartbeat_s=0.0,
                            on_death=deaths.append)
        try:
            worker._channel.ep.send_frame(b"GARBAGE-NOT-A-FRAME")
            assert wait_until(lambda: not worker.alive, timeout=10.0)
            assert "frame rejected" in worker.death_reason
            assert wait_until(lambda: bool(deaths))
            assert deaths == [worker]
            with pytest.raises(RemoteWorkerDied, match="frame rejected"):
                worker.forecast_batch(windows[:1])
        finally:
            worker.close()

    def test_remote_request_error_keeps_worker_alive(self, engine):
        """A bad request fails its own handle with the remote
        traceback; the worker keeps serving."""
        with closing(HostWorker(engine, fabric="sim")) as worker:
            bad = [make_window(0, t=2)]   # wrong T: remote raises
            with pytest.raises(RemoteWorkerError):
                worker.forecast_batch(bad)
            assert worker.alive
            # and a good batch still serves
            assert worker.forecast_batch([make_window(1)])

    def test_heartbeat_deadline_detects_silent_death(self, engine):
        """With heartbeats on, a remote that stops talking (without a
        clean close) is declared dead by deadline."""
        worker = HostWorker(engine, fabric="sim", heartbeat_s=0.1)
        try:
            # a silent partition: the remote's frames stop arriving
            # (dropped on the floor), without a clean close
            worker._remote_ep.send_frame = lambda data: None
            assert wait_until(lambda: not worker.alive, timeout=10.0)
            assert "no heartbeat" in worker._death_reason
        finally:
            worker.close()


# ----------------------------------------------------------------------
# pool integration: the fabric is validated
# ----------------------------------------------------------------------
def test_pool_rejects_unknown_fabric(engine):
    with pytest.raises(ValueError, match="fabric"):
        EngineWorkerPool(engine, replicas=1, backend="host",
                         fabric="telegraph")
