"""Descriptor-frame fabric: format integrity, both transports.

The frame codec must be bitwise (arrays out == arrays in) and must
reject corruption explicitly — truncation, bad magic, unknown dtype,
descriptor overrun — rather than returning garbage views.  The two
transports must agree on semantics: timeouts are recoverable (framing
survives), a zero timeout still returns a frame already received, a
clean close is :class:`FabricClosed`, a mid-frame death is
:class:`FrameError`.
"""

import pickle
import select
import struct
import threading
import time

import numpy as np
import pytest

from repro.hpc.fabric import (
    FabricClosed,
    FabricError,
    FabricTimeout,
    FrameError,
    MAGIC,
    accept_loopback,
    connect_loopback,
    listen_loopback,
    pack_frame,
    sim_pair,
    unpack_frame,
)


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip_bitwise(self):
        r = np.random.default_rng(0)
        arrays = [r.normal(size=(2, 3, 4)),
                  r.normal(size=(3,)).astype(np.float32),
                  np.arange(7, dtype=np.int64)]
        data = pack_frame("batch", 42, {"n": 3, "tag": "x"}, arrays)
        frame = unpack_frame(data)
        assert frame.op == "batch"
        assert frame.seq == 42
        assert frame.meta == {"n": 3, "tag": "x"}
        assert frame.nbytes == len(data)
        for sent, got in zip(arrays, frame.arrays):
            assert got.dtype == sent.dtype
            np.testing.assert_array_equal(got, sent)

    def test_empty_payload(self):
        frame = unpack_frame(pack_frame("hb", -1))
        assert frame.op == "hb" and frame.seq == -1
        assert frame.meta == {} and frame.arrays == []

    def test_arrays_are_zero_copy_views(self):
        a = np.arange(16, dtype=np.float64)
        data = pack_frame("batch", 0, {}, [a])
        frame = unpack_frame(data)
        # a view over the received buffer, not a reallocation
        assert frame.arrays[0].base is not None

    def test_non_contiguous_input_packed_correctly(self):
        a = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        frame = unpack_frame(pack_frame("batch", 0, {}, [a]))
        np.testing.assert_array_equal(frame.arrays[0], a)

    def test_truncated_rejected(self):
        data = pack_frame("batch", 0, {}, [np.ones(5)])
        with pytest.raises(FrameError, match="truncated"):
            unpack_frame(data[:-3])
        with pytest.raises(FrameError, match="truncated"):
            unpack_frame(data[:8])

    def test_bad_magic_rejected(self):
        data = bytearray(pack_frame("batch", 0, {}, [np.ones(5)]))
        data[:4] = b"XXXX"
        with pytest.raises(FrameError, match="bad magic"):
            unpack_frame(bytes(data))

    def test_implausible_lengths_rejected(self):
        bogus = struct.pack("<4sIQ", MAGIC, 1 << 30, 0)
        with pytest.raises(FrameError, match="implausible"):
            unpack_frame(bogus)

    def test_unknown_dtype_rejected(self):
        header = pickle.dumps(
            ("batch", 0, {}, [((4,), "not-a-dtype", 0)]))
        data = struct.pack("<4sIQ", MAGIC, len(header), 64) \
            + header + b"\0" * 64
        with pytest.raises(FrameError, match="unknown dtype"):
            unpack_frame(data)

    def test_descriptor_overrun_rejected(self):
        # descriptor claims more bytes than the body holds
        header = pickle.dumps(
            ("batch", 0, {}, [((1000,), "<f8", 0)]))
        data = struct.pack("<4sIQ", MAGIC, len(header), 64) \
            + header + b"\0" * 64
        with pytest.raises(FrameError, match="overruns"):
            unpack_frame(data)

    def test_undecodable_header_rejected(self):
        data = struct.pack("<4sIQ", MAGIC, 8, 0) + b"\xff" * 8
        with pytest.raises(FrameError, match="undecodable"):
            unpack_frame(data)

    @pytest.mark.parametrize("dtype_str", ["|O", "V0"])
    def test_non_wire_dtype_rejected(self, dtype_str):
        # parses as a dtype but cannot view a byte buffer (object
        # arrays would unpickle attacker bytes; zero-itemsize voids
        # make frombuffer blow up) — must be FrameError, not a
        # ValueError that kills the caller's reaper thread
        header = pickle.dumps(
            ("batch", 0, {}, [((4,), dtype_str, 0)]))
        data = struct.pack("<4sIQ", MAGIC, len(header), 64) \
            + header + b"\0" * 64
        with pytest.raises(FrameError):
            unpack_frame(data)

    @pytest.mark.parametrize("header_obj", [
        ("batch", 0, {}, [(("x",), "<f8", 0)]),    # non-integral shape
        ("batch", 0, {}, [((-4,), "<f8", 0)]),     # negative extent
        ("batch", 0, {}, [(4, "<f8")]),            # not a triple
        ("batch", 0, {}, 7),                       # descs not a list
        ("batch", 0, None, []),                    # meta not a mapping
    ])
    def test_malformed_header_contents_rejected(self, header_obj):
        header = pickle.dumps(header_obj)
        data = struct.pack("<4sIQ", MAGIC, len(header), 64) \
            + header + b"\0" * 64
        with pytest.raises(FrameError):
            unpack_frame(data)


# ----------------------------------------------------------------------
# sim fabric
# ----------------------------------------------------------------------
class TestSimFabric:
    def test_delivery(self):
        a, b = sim_pair()
        data = pack_frame("batch", 0, {"k": 1}, [np.ones((3, 3))])
        a.send_frame(data)
        got = b.recv_frame(timeout=1.0)
        assert got == data
        frame = unpack_frame(got)
        np.testing.assert_array_equal(frame.arrays[0], np.ones((3, 3)))

    def test_timeout_is_recoverable(self):
        a, b = sim_pair()
        with pytest.raises(FabricTimeout):
            b.recv_frame(timeout=0.05)
        a.send_frame(pack_frame("hb", -1))
        assert unpack_frame(b.recv_frame(timeout=1.0)).op == "hb"

    def test_close_surfaces_as_fabric_closed(self):
        a, b = sim_pair()
        a.close()
        with pytest.raises(FabricClosed):
            b.recv_frame(timeout=1.0)
        with pytest.raises(FabricClosed):
            b.send_frame(b"x")
        with pytest.raises(FabricClosed):
            a.send_frame(b"x")

    def test_buffered_frames_drain_before_close(self):
        a, b = sim_pair()
        data = pack_frame("result", 3, {})
        a.send_frame(data)
        a.close()
        # the already-sent frame is still deliverable
        assert b.recv_frame(timeout=1.0) == data
        with pytest.raises(FabricClosed):
            b.recv_frame(timeout=1.0)


# ----------------------------------------------------------------------
# socket fabric
# ----------------------------------------------------------------------
def socket_pair():
    listener, port, token = listen_loopback()
    try:
        client = connect_loopback(port, token)
        server = accept_loopback(listener, token, timeout=10.0)
    finally:
        listener.close()
    return client, server


class TestSocketFabric:
    def test_delivery_over_real_wire(self):
        client, server = socket_pair()
        try:
            r = np.random.default_rng(1)
            arrays = [r.normal(size=(4, 5)), r.normal(size=(2,))]
            data = pack_frame("batch", 9, {"n": 2}, arrays)
            client.send_frame(data)
            frame = unpack_frame(server.recv_frame(timeout=5.0))
            assert frame.seq == 9
            for sent, got in zip(arrays, frame.arrays):
                np.testing.assert_array_equal(got, sent)
        finally:
            client.close()
            server.close()

    def test_zero_timeout_returns_a_received_frame(self):
        """``recv_frame(timeout=0)`` polls once, as on the sim fabric:
        a frame already sent and flushed is returned, not a
        :class:`FabricTimeout`; with nothing pending it times out."""
        a, b = sim_pair()
        data = pack_frame("hb", -1)
        a.send_frame(data)
        assert b.recv_frame(timeout=0) == data
        client, server = socket_pair()
        try:
            client.send_frame(data)
            deadline = time.perf_counter() + 5.0
            while not select.select([server._sock], [], [], 0.05)[0]:
                assert time.perf_counter() < deadline
            assert server.recv_frame(timeout=0) == data
            with pytest.raises(FabricTimeout):
                server.recv_frame(timeout=0)
        finally:
            client.close()
            server.close()

    def test_timeout_keeps_framing(self):
        """A short-timeout poll that catches a frame mid-flight must
        not lose bytes: the next call resumes and completes it."""
        client, server = socket_pair()
        try:
            data = pack_frame("batch", 0, {},
                              [np.zeros(1 << 16, np.float64)])
            # drip the frame so the first recv deadline lands mid-frame
            def drip():
                for i in range(0, len(data), 1 << 14):
                    client._sock.sendall(data[i:i + (1 << 14)])
                    time.sleep(0.02)
            t = threading.Thread(target=drip)
            t.start()
            frames, timeouts = [], 0
            deadline = time.perf_counter() + 10.0
            while not frames and time.perf_counter() < deadline:
                try:
                    frames.append(server.recv_frame(timeout=0.01))
                except FabricTimeout:
                    timeouts += 1
            t.join()
            assert frames and frames[0] == data
            assert timeouts > 0, "expected at least one mid-frame timeout"
        finally:
            client.close()
            server.close()

    def test_recv_polling_never_clips_blocking_send(self):
        """A reaper-style thread polling ``recv_frame`` with a short
        timeout must not impose that timeout on a concurrent
        ``send_frame``: a multi-MB frame that overfills the kernel
        buffers (peer busy, not draining) has to block until the peer
        drains, not spuriously raise and mark the worker dead."""
        client, server = socket_pair()
        stop = threading.Event()
        poll_errors = []

        def poll():
            while not stop.is_set():
                try:
                    client.recv_frame(timeout=0.02)
                except FabricTimeout:
                    continue
                except FabricError as exc:
                    poll_errors.append(exc)
                    return

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            # well past loopback socket buffering, so sendall must
            # block mid-frame while the "remote" is busy computing
            data = pack_frame("batch", 0, {},
                              [np.zeros(1 << 21, np.float64)])
            sent = threading.Event()
            send_errors = []

            def send():
                try:
                    client.send_frame(data)
                except FabricError as exc:
                    send_errors.append(exc)
                sent.set()

            sender = threading.Thread(target=send)
            sender.start()
            time.sleep(0.5)          # several poll timeouts elapse
            got = server.recv_frame(timeout=30.0)   # now drain
            assert sent.wait(30.0)
            sender.join()
            assert not send_errors, \
                f"send clipped by recv polling: {send_errors[0]}"
            assert got == data
        finally:
            stop.set()
            poller.join(5.0)
            client.close()
            server.close()
        assert not poll_errors

    def test_peer_close_at_boundary_is_clean(self):
        client, server = socket_pair()
        try:
            client.send_frame(pack_frame("stop", -1))
            client.close()
            assert unpack_frame(server.recv_frame(timeout=5.0)).op == "stop"
            with pytest.raises(FabricClosed):
                server.recv_frame(timeout=5.0)
        finally:
            server.close()

    def test_peer_death_mid_frame_is_frame_error(self):
        client, server = socket_pair()
        try:
            data = pack_frame("batch", 0, {}, [np.zeros(1 << 12)])
            client._sock.sendall(data[:100])     # partial frame...
            client.close()                       # ...then die
            with pytest.raises(FrameError, match="mid-frame"):
                server.recv_frame(timeout=5.0)
        finally:
            server.close()

    def test_garbage_on_wire_is_frame_error(self):
        client, server = socket_pair()
        try:
            client._sock.sendall(b"GARBAGE-NOT-A-FRAME-" * 4)
            with pytest.raises(FrameError, match="bad magic"):
                server.recv_frame(timeout=5.0)
        finally:
            client.close()
            server.close()

    def test_token_handshake_rejects_imposter(self):
        import socket as socketlib
        listener, port, token = listen_loopback()
        try:
            imposter = socketlib.create_connection(("127.0.0.1", port),
                                                   timeout=5.0)
            imposter.sendall(b"f" * len(token))
            with pytest.raises(FabricError, match="token"):
                accept_loopback(listener, token, timeout=5.0)
            imposter.close()
        finally:
            listener.close()
