"""The shared worker protocol, driven in-process.

``EngineService`` is the one op table and the one serve loop behind
both out-of-process tiers, so its contract — each op's reply shape, the
report-and-keep-serving error policy, what stops the loop, that the
channel is closed on every way out — is pinned here against a stub
engine and an in-memory channel: no spawn, no shm, no sockets.  The
payload round trip uses the real engine, because bit-equality of the
rebuilt weights and plans is the point.
"""

import pickle
from collections import deque

import numpy as np
import pytest

from repro.serve import remote
from repro.serve.remote import (
    ChannelClosed,
    EngineService,
    build_engine,
    engine_payload,
    serve_payload,
)
from repro.workflow import engine as engine_mod
from repro.workflow.engine import FieldWindow, ForecastResult

from conftest import assert_windows_equal, make_window


class StubEngine:
    """Just the engine surface the op table touches."""

    time_steps = 4

    def __init__(self):
        self.compiled = {2}
        self.raises = None          # exception forecast_batch raises next

    @property
    def compiled_batches(self):
        return sorted(self.compiled)

    def forecast_batch(self, refs):
        if self.raises is not None:
            exc, self.raises = self.raises, None
            raise exc
        hit = len(refs) in self.compiled
        return [ForecastResult(
            FieldWindow(r.u3 + 1, r.v3 + 2, r.w3 + 3, r.zeta + 4), 0.25,
            compiled=hit, plan_batch=len(refs) if hit else None)
            for r in refs]

    def plan_stats(self):
        return {"batches": self.compiled_batches}


class ScriptChannel:
    """Scripted requests in, replies recorded; ``recv`` reports EOF
    once the script runs out."""

    def __init__(self, requests=(), fail_send_after=None):
        self.requests = deque(requests)
        self.sent = []
        self.closed = False
        self.fail_send_after = fail_send_after

    def recv(self):
        return self.requests.popleft() if self.requests else None

    def send(self, op, seq, meta=None, arrays=()):
        if self.fail_send_after is not None \
                and len(self.sent) >= self.fail_send_after:
            raise ChannelClosed("peer gone")
        self.sent.append((op, seq, meta or {}, list(arrays)))

    def close(self):
        self.closed = True


def batch_request(seq, windows):
    return ("batch", seq, *remote.batch_request(windows))


class TestHandle:
    def test_batch_reply_shape(self):
        service = EngineService(StubEngine())
        windows = [make_window(0), make_window(1)]
        op, _, request_meta, request_arrays = batch_request(0, windows)
        meta, arrays = service.handle(op, request_meta, request_arrays)
        assert meta["batch_seconds"] >= 0
        assert meta["results"] == [(0.25, True, 2)] * 2
        assert len(arrays) == 8
        np.testing.assert_array_equal(arrays[0], windows[0].u3 + 1)
        np.testing.assert_array_equal(arrays[7], windows[1].zeta + 4)

    def test_plan_stats_and_stop(self):
        service = EngineService(StubEngine())
        assert service.handle("plan_stats", {}) == \
            ({"stats": {"batches": [2]}}, ())
        assert not service.stopped
        assert service.handle("stop", {}) == ({}, ())
        assert service.stopped

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown op 'teleport'"):
            EngineService(StubEngine()).handle("teleport", {})


class TestServe:
    def test_handshake_replies_echo_seq_then_eof_cleans_up(self):
        engine = StubEngine()
        channel = ScriptChannel([
            ("plan_stats", 7, {}, []),
            batch_request(8, [make_window(0)]),
        ])
        EngineService(engine).serve(channel)
        ready, stats, batch = channel.sent
        assert ready[:2] == ("ready", -1)
        assert set(ready[2]) == {"pid", "time_steps"}
        assert ready[2]["time_steps"] == 4
        assert stats[:3] == ("ok", 7, {"stats": {"batches": [2]}})
        assert batch[:2] == ("ok", 8) and len(batch[3]) == 4
        # EOF ended the loop; cleanup ran
        assert channel.closed

    def test_unknown_op_is_an_err_reply(self):
        channel = ScriptChannel([("teleport", 3, {}, [])])
        EngineService(StubEngine()).serve(channel)
        op, seq, meta, _ = channel.sent[1]
        assert (op, seq) == ("err", 3)
        assert "unknown op 'teleport'" in meta["trace"]

    def test_raising_op_reports_traceback_and_keeps_serving(self):
        engine = StubEngine()
        engine.raises = RuntimeError("kernel exploded")
        channel = ScriptChannel([
            batch_request(0, [make_window(0)]),
            batch_request(1, [make_window(1)]),
        ])
        EngineService(engine).serve(channel)
        _, failed, served = channel.sent
        assert failed[:2] == ("err", 0)
        assert "Traceback" in failed[2]["trace"]
        assert "kernel exploded" in failed[2]["trace"]
        assert served[:2] == ("ok", 1)

    def test_keyboard_interrupt_propagates_after_cleanup(self):
        engine = StubEngine()
        engine.raises = KeyboardInterrupt()
        channel = ScriptChannel([batch_request(0, [make_window(0)]),
                                 ("plan_stats", 1, {}, [])])
        with pytest.raises(KeyboardInterrupt):
            EngineService(engine).serve(channel)
        # nothing after the handshake was answered, but cleanup ran
        assert [m[0] for m in channel.sent] == ["ready"]
        assert channel.closed

    def test_stop_ends_the_loop_without_a_reply(self):
        engine = StubEngine()
        channel = ScriptChannel([("stop", -1, {}, []),
                                 ("plan_stats", 1, {}, [])])
        EngineService(engine).serve(channel)
        assert [m[0] for m in channel.sent] == ["ready"]
        assert len(channel.requests) == 1       # never read past stop
        assert channel.closed

    def test_peer_gone_mid_reply_ends_the_loop_cleanly(self):
        engine = StubEngine()
        channel = ScriptChannel([("plan_stats", 0, {}, []),
                                 ("plan_stats", 1, {}, [])],
                                fail_send_after=1)
        EngineService(engine).serve(channel)
        assert [m[0] for m in channel.sent] == ["ready"]
        assert channel.closed


def test_rebuild_failure_is_an_err_handshake():
    channel = ScriptChannel()
    serve_payload(channel, b"not a pickle")
    (op, seq, meta, _), = channel.sent
    assert (op, seq) == ("err", -1)
    assert "UnpicklingError" in meta["trace"]
    assert channel.closed


def test_payload_round_trip_is_bitwise(engine_factory, windows):
    engine = engine_factory()       # private: the test compiles plans
    engine.compile(2)
    engine.compile(3)
    payload = engine_payload(engine)
    # weights, staging config and plans: the engine has no other state
    assert set(pickle.loads(payload)) == {
        "model", "normalizer", "boundary_width", "plans"}
    rebuilt = build_engine(payload)
    assert rebuilt.compiled_batches == engine.compiled_batches == [2, 3]
    for n in (2, 3, 5):                 # two plan hits and an eager batch
        for direct, served in zip(engine.forecast_batch(windows[:n]),
                                  rebuilt.forecast_batch(windows[:n])):
            assert direct.compiled == served.compiled
            assert_windows_equal(direct.fields, served.fields)
    # the wire entry per result: (seconds, compiled, plan_batch)
    op, _, meta, arrays = batch_request(0, windows[:2])
    reply_meta, reply_arrays = EngineService(rebuilt).handle(op, meta, arrays)
    assert [(len(entry), *entry[1:]) for entry in reply_meta["results"]] \
        == [(3, True, 2)] * 2
    for direct, served in zip(engine.forecast_batch(windows[:2]),
                              remote.batch_results(reply_meta, reply_arrays)):
        assert (served.compiled, served.plan_batch) == (True, 2)
        assert_windows_equal(direct.fields, served.fields)


def test_payload_keeps_a_sharded_forward(monkeypatch, engine_factory,
                                         windows):
    """A b8 forward of two b4 shards ships as its shard plan plus its
    shard count and comes back a b8 forward: a b8 batch replays sharded
    on the rebuilt engine, bitwise, instead of falling back to eager."""
    monkeypatch.setattr(engine_mod, "SHARD_ROW_BYTES", 0)
    monkeypatch.setattr(engine_mod, "_cpus", lambda: 2)
    engine = engine_factory()
    engine.compile(8)
    rebuilt = build_engine(engine_payload(engine))
    assert rebuilt.compiled_batches == [8]
    assert rebuilt.plan_stats()["shards"] == {8: 2}
    assert rebuilt.compile(8).rows == 4
    eager = engine_factory()
    for served, want in zip(rebuilt.forecast_batch(windows[:8]),
                            eager.forecast_batch(windows[:8])):
        assert (served.compiled, served.plan_batch) == (True, 8)
        assert_windows_equal(served.fields, want.fields)
    assert rebuilt.plan_stats()["misses"] == 0
