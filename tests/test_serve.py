"""Tests for the repro.serve subsystem (protocol, store, server, loadgen)."""

from __future__ import annotations

import asyncio
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import protocol as P
from repro.serve.client import (
    AsyncServeClient,
    ServeNotLocked,
    ServeShuttingDown,
    ServeTimeout,
    ServeVersionExists,
    ServeVersionNotFound,
    SyncServeClient,
)
from repro.serve.loadgen import LoadGen, ReadChecker, flood
from repro.serve.server import ServeServer
from repro.serve.store import Shard, ShardedStore, TaskTracker, shard_of
from repro.sw.ostructure import SWClosed

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(coro):
    return asyncio.run(coro)


async def _boot(**kwargs) -> ServeServer:
    server = ServeServer(**kwargs)
    await server.start()
    return server


# -- protocol ---------------------------------------------------------------


class TestProtocol:
    def test_request_round_trip_every_op(self):
        for op in P.OP_NAMES:
            body = {"key": "k", "version": 3, "value": [1, "x", None]}
            frame = P.encode_request(op, 17, body)
            (msg,) = P.decode_stream(frame)
            assert msg.kind == P.KIND_REQUEST
            assert msg.code == op
            assert msg.request_id == 17
            assert msg.body == body

    def test_response_round_trip_every_status(self):
        for status in P.STATUS_NAMES:
            frame = P.encode_response(status, 0xFFFFFFFF, {"error": "e"})
            (msg,) = P.decode_stream(frame)
            assert msg.kind == P.KIND_RESPONSE
            assert msg.code == status
            assert msg.request_id == 0xFFFFFFFF

    def test_empty_body_round_trips_as_empty_dict(self):
        (msg,) = P.decode_stream(P.encode_request(P.OP_PING, 1))
        assert msg.body == {}

    def test_incremental_feed_reassembles_split_frames(self):
        frames = P.encode_request(P.OP_PING, 1) + P.encode_response(P.OK, 1, {"a": 2})
        dec = P.FrameDecoder()
        got = []
        for i in range(len(frames)):
            got.extend(dec.feed(frames[i:i + 1]))
        assert [m.request_id for m in got] == [1, 1]
        assert got[1].body == {"a": 2}
        assert dec.pending_bytes == 0

    def test_pipelined_frames_in_one_chunk(self):
        blob = b"".join(P.encode_request(P.OP_PING, i) for i in range(5))
        assert [m.request_id for m in P.decode_stream(blob)] == list(range(5))

    def test_truncated_frame_is_not_a_message(self):
        frame = P.encode_request(P.OP_PING, 1)
        dec = P.FrameDecoder()
        assert dec.feed(frame[:-1]) == []
        assert dec.pending_bytes == len(frame) - 1
        with pytest.raises(P.ProtocolError):
            list(P.decode_stream(frame[:-1]))

    def test_bad_magic_rejected(self):
        frame = bytearray(P.encode_request(P.OP_PING, 1))
        frame[4] ^= 0xFF  # first magic byte, after the length prefix
        with pytest.raises(P.ProtocolError, match="magic"):
            list(P.decode_stream(bytes(frame)))

    def test_oversized_length_rejected_before_buffering(self):
        huge = struct.pack(">I", P.MAX_FRAME + 1)
        with pytest.raises(P.ProtocolError, match="MAX_FRAME"):
            P.FrameDecoder().feed(huge)

    def test_undersized_length_rejected(self):
        tiny = struct.pack(">I", 3) + b"abc"
        with pytest.raises(P.ProtocolError, match="below"):
            P.FrameDecoder().feed(tiny)

    def test_garbage_json_body_rejected(self):
        good = P.encode_request(P.OP_PING, 1, {"k": 1})
        bad = bytearray(good)
        bad[-2] = 0xC0  # corrupt the JSON tail, length still consistent
        with pytest.raises(P.ProtocolError, match="JSON"):
            list(P.decode_stream(bytes(bad)))

    def test_non_object_body_rejected(self):
        payload = struct.pack(">HBBI", P.MAGIC, 0, P.OP_PING, 1) + b"[1,2]"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(P.ProtocolError, match="object"):
            list(P.decode_stream(frame))

    def test_unknown_kind_rejected(self):
        payload = struct.pack(">HBBI", P.MAGIC, 7, P.OP_PING, 1)
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(P.ProtocolError, match="kind"):
            list(P.decode_stream(frame))

    def test_poisoned_decoder_stays_poisoned(self):
        dec = P.FrameDecoder()
        with pytest.raises(P.ProtocolError):
            dec.feed(struct.pack(">I", P.MAX_FRAME + 1))
        with pytest.raises(P.ProtocolError, match="poisoned"):
            dec.feed(P.encode_request(P.OP_PING, 1))

    def test_unencodable_body_raises_protocol_error(self):
        with pytest.raises(P.ProtocolError, match="JSON"):
            P.encode_request(P.OP_PING, 1, {"v": object()})


# -- sharded store ----------------------------------------------------------


class TestShardedStore:
    def test_shard_routing_is_stable_across_runs(self):
        # Golden CRC32-derived values: if these move, cached clients and
        # cross-process shard maps silently break.
        golden = {"alpha": 2, "beta": 3, "gamma": 1, "delta": 1, "k0": 7}
        assert {k: shard_of(k, 8) for k in golden} == golden

    def test_routing_respects_shard_count(self):
        for n in (1, 2, 3, 8, 16):
            for key in ("a", "b", "c", "hello/world"):
                assert 0 <= shard_of(key, n) < n

    def test_same_key_same_ostructure(self):
        store = ShardedStore(num_shards=4)
        assert store.ostructure("k") is store.ostructure("k")

    def test_store_and_load_round_trip(self):
        store = ShardedStore(num_shards=4)
        store.store_version("k", 1, "v1")
        store.store_version("k", 5, "v5")
        assert store.load_version("k", 1, timeout=1) == "v1"
        assert store.load_latest("k", 9, timeout=1) == (5, "v5")
        assert store.probe_version("k", 2) is None
        assert store.probe_latest("k", 4) == (1, "v1")

    def test_watermark_reclaim_drops_shadowed_keeps_boundary_and_locked(self):
        store = ShardedStore(num_shards=1, reclaim_watermark=1000)
        shard = store.shards[0]
        for v in range(1, 8):
            store.store_version("k", v, v)
        store.lock_load_version("k", 2, task_id=9, timeout=1)
        removed = shard.reclaim(floor=6)
        # Keeps: boundary 6 (LOAD-LATEST(6) target), 7 (>= floor), and
        # the locked version 2.
        assert set(store.ostructure("k").versions()) == {2, 6, 7}
        assert removed == 4
        assert shard.reclaim_passes == 1
        assert shard.reclaimed_versions == 4

    def test_store_triggers_reclaim_at_watermark_with_live_floor(self):
        store = ShardedStore(num_shards=1, reclaim_watermark=4)
        store.task_begin(100)  # floor = 100: everything below is shadowed
        reclaimed = 0
        for v in range(1, 9):
            reclaimed += store.store_version("k", v, v)
        assert reclaimed > 0
        versions = set(store.ostructure("k").versions())
        assert 8 in versions  # newest always survives
        assert len(versions) < 8

    def test_no_reclaim_without_live_sessions(self):
        store = ShardedStore(num_shards=1, reclaim_watermark=2)
        for v in range(1, 7):
            assert store.store_version("k", v, v) == 0
        assert store.ostructure("k").versions() == [1, 2, 3, 4, 5, 6]

    def test_task_tracker_floor_and_refcount(self):
        t = TaskTracker()
        assert t.floor() is None
        t.begin(5)
        t.begin(3)
        t.begin(3)
        assert t.floor() == 3
        assert t.end(3) is True
        assert t.floor() == 3  # refcounted: one begin still open
        assert t.end(3) is True
        assert t.floor() == 5
        assert t.end(99) is False

    def test_close_ends_parked_and_later_waits(self):
        store = ShardedStore(num_shards=2)
        store.store_version("k", 1, "x")
        errors: list[BaseException] = []

        def park():
            try:
                store.load_version("k", 2, timeout=60)
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        waiter = threading.Thread(target=park)
        waiter.start()
        time.sleep(0.05)  # parked by now; a wait begun after the close fails too
        start = time.perf_counter()
        store.close()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert time.perf_counter() - start < 5
        assert len(errors) == 1 and isinstance(errors[0], SWClosed)
        # Later waits fail at once, also on keys created after the close;
        # probes, stores and unlocks still run.
        with pytest.raises(SWClosed):
            store.load_latest("new-key", 9, timeout=60)
        assert store.probe_version("k", 1) == ("x",)
        store.store_version("k", 2, "y")
        assert store.probe_lock_latest("k", 9, 4) == (2, "y")
        store.unlock_version("k", 2, 4)

    def test_stats_shape(self):
        store = ShardedStore(num_shards=2)
        store.store_version("a", 1, "x")
        store.task_begin(7)
        s = store.stats()
        assert s["shards"] == 2
        assert s["keys"] == 1
        assert s["versions"] == 1
        assert s["live_tasks"] == 1


# -- server + client --------------------------------------------------------


class TestServer:
    def test_full_op_surface_round_trip(self):
        async def scenario():
            server = await _boot(threads=2)
            try:
                async with AsyncServeClient(*server.address, pool_size=2) as c:
                    await c.ping()
                    await c.task_begin(10)
                    await c.store_version("k", 10, {"n": 1})
                    assert await c.load_version("k", 10) == {"n": 1}
                    assert await c.load_latest("k", 99) == (10, {"n": 1})
                    v = await c.lock_load_version("k", 10, task_id=10)
                    assert v == {"n": 1}
                    await c.unlock_version("k", 10, task_id=10, new_version=12)
                    assert await c.load_version("k", 12) == {"n": 1}
                    got = await c.lock_load_latest("k", 99, task_id=10)
                    assert got == (12, {"n": 1})
                    await c.unlock_version("k", 12, task_id=10)
                    stats = await c.stats()
                    assert stats["store"]["live_tasks"] == 1
                    await c.task_end(10)
                assert server.stats.protocol_errors == 0
            finally:
                assert await server.drain() is True

        run(scenario())

    def test_deadline_maps_to_timeout_with_structured_context(self):
        async def scenario():
            server = await _boot(threads=1)
            try:
                async with AsyncServeClient(*server.address, pool_size=1) as c:
                    await c.store_version("k", 1, "x")
                    with pytest.raises(ServeTimeout) as exc_info:
                        await c.load_version("k", 5, deadline_ms=100)
                    ctx = exc_info.value.body["context"]
                    assert ctx["op"] == "load-version"
                    assert ctx["wanted"] == 5
                    assert ctx["latest"] == 1
                    assert "k" in ctx["address"]
                assert server.stats.timeouts == 1
            finally:
                await server.drain()

        run(scenario())

    def test_zero_deadline_probes_instead_of_waiting(self):
        async def scenario():
            server = await _boot(threads=1)
            try:
                async with AsyncServeClient(*server.address, pool_size=1) as c:
                    await c.store_version("k", 1, "x")
                    with pytest.raises(ServeVersionNotFound):
                        await c.load_version("k", 5, deadline_ms=0)
                    with pytest.raises(ServeVersionNotFound):
                        await c.load_latest("nokey", 9, deadline_ms=0)
                    assert await c.load_version("k", 1, deadline_ms=0) == "x"
            finally:
                await server.drain()

        run(scenario())

    def test_semantic_errors_map_to_statuses(self):
        async def scenario():
            server = await _boot(threads=1)
            try:
                async with AsyncServeClient(*server.address, pool_size=1) as c:
                    await c.store_version("k", 1, "x")
                    with pytest.raises(ServeVersionExists):
                        await c.store_version("k", 1, "y")
                    with pytest.raises(ServeNotLocked):
                        await c.unlock_version("k", 1, task_id=3)
            finally:
                await server.drain()

        run(scenario())

    def test_failed_renaming_unlock_keeps_the_lock(self):
        async def scenario():
            server = await _boot(threads=1)
            try:
                async with AsyncServeClient(*server.address, pool_size=1) as c:
                    await c.store_version("k", 1, "a")
                    await c.store_version("k", 2, "b")
                    assert await c.lock_load_version("k", 1, task_id=7) == "a"
                    with pytest.raises(ServeVersionExists):
                        await c.unlock_version("k", 1, task_id=7, new_version=2)
                    # Still locked by task 7: a probe refuses v1, and the
                    # holder can release it.
                    with pytest.raises(ServeVersionNotFound):
                        await c.load_version("k", 1, deadline_ms=0)
                    await c.unlock_version("k", 1, task_id=7)
                    assert await c.load_version("k", 1, deadline_ms=0) == "a"
            finally:
                await server.drain()

        run(scenario())

    def test_malformed_request_fields_get_bad_request(self):
        async def scenario():
            server = await _boot(threads=1)
            try:
                async with AsyncServeClient(*server.address, pool_size=1) as c:
                    msg = await c.request_raw(P.OP_LOAD_VERSION, {"key": "k"})
                    assert msg.code == P.ERR_BAD_REQUEST
                    msg = await c.request_raw(
                        P.OP_LOAD_VERSION, {"key": "", "version": 1}
                    )
                    assert msg.code == P.ERR_BAD_REQUEST
                    msg = await c.request_raw(
                        P.OP_STORE_VERSION, {"key": "k", "version": 1}
                    )
                    assert msg.code == P.ERR_BAD_REQUEST  # no value field
                    msg = await c.request_raw(
                        P.OP_LOAD_VERSION,
                        {"key": "k", "version": 1, "deadline_ms": -5},
                    )
                    assert msg.code == P.ERR_BAD_REQUEST
                    msg = await c.request_raw(P.OP_PING, {})
                    assert msg.code == P.OK  # connection survives bad requests
            finally:
                await server.drain()

        run(scenario())

    def test_garbage_frame_answered_then_connection_closed(self):
        async def scenario():
            server = await _boot(threads=1)
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"\x00\x00\x00\x0cgarbagegarba")
                await writer.drain()
                dec = P.FrameDecoder()
                msgs = []
                while not msgs:
                    data = await asyncio.wait_for(reader.read(65536), timeout=5)
                    assert data, "server closed without answering"
                    msgs.extend(dec.feed(data))
                assert msgs[0].code == P.ERR_BAD_REQUEST
                # The stream is untrustworthy: the server hangs up.
                assert await asyncio.wait_for(reader.read(65536), timeout=5) == b""
                writer.close()
                assert server.stats.protocol_errors == 1
            finally:
                await server.drain()

        run(scenario())

    def test_overload_sheds_and_server_stays_live(self):
        async def scenario():
            server = await _boot(threads=1, max_inflight=2)
            try:
                report = await flood(
                    *server.address, requests=20, deadline_ms=300, pool_size=2
                )
                assert report.sheds > 0
                assert report.protocol_errors == 0
                assert server.stats.shed == report.sheds
                # Shed replies are cheap rejections; the server still works.
                async with AsyncServeClient(*server.address, pool_size=1) as c:
                    await c.store_version("k", 1, "alive")
                    assert await c.load_version("k", 1) == "alive"
            finally:
                assert await server.drain() is True

        run(scenario())

    def test_graceful_drain_finishes_inflight_then_rejects(self):
        async def scenario():
            server = await _boot(threads=1, drain_timeout=5)
            async with AsyncServeClient(*server.address, pool_size=2) as c:
                # Park one op server-side (nobody ever stores version 7).
                parked = asyncio.ensure_future(
                    c.request_raw(
                        P.OP_LOAD_VERSION,
                        {"key": "k", "version": 7, "deadline_ms": 400},
                    )
                )
                while server.inflight == 0:
                    await asyncio.sleep(0.005)
                drain = asyncio.ensure_future(server.drain())
                await asyncio.sleep(0.05)
                # Not yet drained: the parked op is still in flight.
                assert not drain.done()
                msg = await parked  # completes (with its deadline timeout)
                assert msg.code == P.ERR_TIMEOUT
                assert await drain is True
                assert server.inflight == 0

        run(scenario())

    def test_drain_rejects_new_requests_with_shutting_down(self):
        async def scenario():
            server = await _boot(threads=1, drain_timeout=5)
            async with AsyncServeClient(*server.address, pool_size=1) as c:
                parked = asyncio.ensure_future(
                    c.request_raw(
                        P.OP_LOAD_VERSION,
                        {"key": "k", "version": 7, "deadline_ms": 500},
                    )
                )
                while server.inflight == 0:
                    await asyncio.sleep(0.005)
                drain = asyncio.ensure_future(server.drain())
                await asyncio.sleep(0.02)
                with pytest.raises(ServeShuttingDown):
                    await c.ping()
                assert (await parked).code == P.ERR_TIMEOUT
                assert await drain is True

        run(scenario())

    def test_load_before_store_parks_once_then_answers(self):
        async def scenario():
            server = await _boot(threads=1)
            try:
                async with AsyncServeClient(*server.address, pool_size=2) as c:
                    parked = asyncio.ensure_future(c.load_version("k", 3))
                    while server.stats.parked == 0:
                        await asyncio.sleep(0.005)
                    await c.store_version("k", 3, "late")
                    assert await parked == "late"
                    # A ready read answers from the probe: nothing parks.
                    assert await c.load_version("k", 3) == "late"
                    stats = await c.stats()
                assert stats["server"]["parked"] == 1
                assert server.stats.parked == 1
            finally:
                assert await server.drain() is True

        run(scenario())

    def test_drain_timeout_ends_parked_waits_with_shutting_down(self):
        async def scenario():
            server = await _boot(threads=1, drain_timeout=0.2)
            async with AsyncServeClient(*server.address, pool_size=1) as c:
                parked = asyncio.ensure_future(
                    c.request_raw(
                        P.OP_LOAD_VERSION,
                        {"key": "k", "version": 7, "deadline_ms": 60_000},
                    )
                )
                while server.stats.parked == 0:
                    await asyncio.sleep(0.005)
                start = time.perf_counter()
                assert await server.drain() is False
                msg = await asyncio.wait_for(parked, 5)
                assert msg.code == P.ERR_SHUTTING_DOWN
                assert time.perf_counter() - start < 5
                assert server.stats.drained_inflight == 1
                assert server.inflight == 0

        run(scenario())

    def test_disconnect_auto_ends_sessions(self):
        async def scenario():
            server = await _boot(threads=1)
            try:
                c = await AsyncServeClient(*server.address, pool_size=1).connect()
                await c.task_begin(42)
                assert server.store.tracker.floor() == 42
                await c.close()
                for _ in range(200):
                    if server.store.tracker.floor() is None:
                        break
                    await asyncio.sleep(0.01)
                assert server.store.tracker.floor() is None
                assert server.stats.auto_ended_sessions == 1
            finally:
                await server.drain()

        run(scenario())

    def test_sync_client_wrapper(self):
        async def boot():
            return await _boot(threads=2)

        loop = asyncio.new_event_loop()
        server = loop.run_until_complete(boot())
        pump = __import__("threading").Thread(target=loop.run_forever, daemon=True)
        pump.start()
        try:
            with SyncServeClient(*server.address, pool_size=2) as c:
                c.ping()
                c.task_begin(5)
                c.store_version("k", 5, [1, 2])
                assert c.load_version("k", 5) == [1, 2]
                assert c.load_latest("k", 9) == (5, [1, 2])
                assert c.lock_load_latest("k", 9, task_id=5) == (5, [1, 2])
                c.unlock_version("k", 5, task_id=5, new_version=6)
                assert c.load_version("k", 6) == [1, 2]
                c.task_end(5)
                assert c.stats()["server"]["responses_ok"] > 0
        finally:
            asyncio.run_coroutine_threadsafe(server.drain(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            pump.join(timeout=5)
            loop.close()


# -- read-validity checker --------------------------------------------------


class TestReadChecker:
    def test_clean_history_passes(self):
        c = ReadChecker()
        c.record_store("k", 1, "a")
        c.record_store("k", 3, "b")
        c.record_read("k", 3, "b", cap=5)
        c.record_read("k", 1, "a")
        assert c.violations() == []

    def test_corrupted_value_caught(self):
        c = ReadChecker()
        c.record_store("k", 1, "a")
        c.record_read("k", 1, "CORRUPT")
        (v,) = c.violations()
        assert "CORRUPT" in v and "v1" in v

    def test_read_of_unknown_version_caught(self):
        c = ReadChecker()
        c.record_store("k", 1, "a")
        c.record_read("k", 2, "a")
        (v,) = c.violations()
        assert "never stored" in v

    def test_cap_discipline_caught(self):
        c = ReadChecker()
        c.record_store("k", 9, "a")
        c.record_read("k", 9, "a", cap=5, detail="scan")
        (v,) = c.violations()
        assert "above cap" in v and "scan" in v

    def test_duplicate_planned_store_is_a_loadgen_bug(self):
        from repro.errors import ReproError

        c = ReadChecker()
        c.record_store("k", 1, "a")
        with pytest.raises(ReproError, match="duplicate"):
            c.record_store("k", 1, "b")


# -- end-to-end loadgen -----------------------------------------------------


class TestLoadGenEndToEnd:
    @pytest.mark.parametrize(
        "mix", ["read_heavy", "write_heavy", "lock_contention", "snapshot_scan"]
    )
    def test_mix_runs_clean(self, mix):
        async def scenario():
            from repro.serve.store import ShardedStore

            watermark = 16 if mix == "write_heavy" else 0
            server = await _boot(
                store=ShardedStore(num_shards=4, reclaim_watermark=watermark),
                threads=4,
            )
            try:
                gen = LoadGen(
                    *server.address, mix, seed=7, ops=80, clients=4,
                    session_every=8,
                )
                report = await gen.run()
            finally:
                assert await server.drain() is True
            assert report.protocol_errors == 0
            assert report.violations == []
            assert report.ok > 0
            assert report.sheds == 0
            assert server.stats.protocol_errors == 0
            return report

        run(scenario())

    @pytest.mark.parametrize(
        "mix, watermark", [("read_heavy", 64), ("write_heavy", 24)]
    )
    def test_ready_ops_never_reach_the_pool(self, mix, watermark):
        # Every read of these mixes targets a version that is already
        # stored and unlocked, so each op is answered on the event loop.
        async def scenario():
            server = await _boot(
                store=ShardedStore(num_shards=8, reclaim_watermark=watermark),
                threads=2,
            )
            try:
                gen = LoadGen(*server.address, mix, seed=0, ops=600)
                report = await gen.run()
            finally:
                assert await server.drain() is True
            assert report.ok == report.ops == 600
            assert server.stats.parked == 0

        run(scenario())

    def test_lock_contention_on_two_threads_has_no_timeouts(self):
        # Parked lock waits fill both pool threads; the unlocks that end
        # them must not queue behind them.
        async def scenario():
            server = await _boot(
                store=ShardedStore(reclaim_watermark=24), threads=2
            )
            try:
                gen = LoadGen(*server.address, "lock_contention", seed=0, ops=100)
                report = await asyncio.wait_for(gen.run(), 30)
            finally:
                await server.drain()
            assert report.timeouts == 0
            assert report.protocol_errors == 0
            assert report.violations == []
            assert report.ok == report.ops

        run(scenario())

    def test_open_loop_mode_paces_arrivals(self):
        async def scenario():
            server = await _boot(threads=4)
            try:
                gen = LoadGen(
                    *server.address, "read_heavy", seed=1, ops=40,
                    clients=4, open_rate=400.0,
                )
                report = await gen.run()
            finally:
                await server.drain()
            assert report.mode == "open"
            assert report.protocol_errors == 0
            assert report.violations == []
            # 40 ops at 400/s is at least ~0.1s of schedule.
            assert report.wall_seconds > 0.05

        run(scenario())

    def test_deterministic_op_streams_share_no_version_ids(self):
        # Two generators with the same seed plan identical version ids;
        # within one run, workers can never collide (worker-partitioned).
        g1 = LoadGen("h", 0, "write_heavy", seed=3, clients=4)
        g2 = LoadGen("h", 0, "write_heavy", seed=3, clients=4)
        ids1 = [g1._alloc(w) for w in range(4) for _ in range(10)]
        ids2 = [g2._alloc(w) for w in range(4) for _ in range(10)]
        assert ids1 == ids2
        assert len(set(ids1)) == len(ids1)


# -- the serve process ------------------------------------------------------


def test_sigint_exit_is_bounded_with_a_parked_request():
    """``repro serve`` exits within drain_timeout + 2 s of SIGINT even
    while a request waits on a version nobody stores."""
    drain_timeout = ServeServer().drain_timeout
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "1"}
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--threads", "2",
         "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            port = int(re.search(r"listening on [^\s:]+:(\d+)", line).group(1))

            async def scenario() -> tuple[P.Message, float]:
                async with AsyncServeClient("127.0.0.1", port, pool_size=2) as c:
                    parked = asyncio.ensure_future(
                        c.request_raw(
                            P.OP_LOAD_VERSION,
                            {"key": "k", "version": 7, "deadline_ms": 60_000},
                        )
                    )
                    while (await c.stats())["server"]["parked"] == 0:
                        await asyncio.sleep(0.01)
                    sent = time.perf_counter()
                    proc.send_signal(signal.SIGINT)
                    msg = await asyncio.wait_for(parked, drain_timeout + 5)
                    return msg, sent

            msg, sent = run(scenario())
            proc.wait(timeout=drain_timeout + 5)
            elapsed = time.perf_counter() - sent
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        output = proc.stdout.read()
    assert msg.code == P.ERR_SHUTTING_DOWN, msg
    assert elapsed < drain_timeout + 2, output
    assert proc.returncode == 0, output
