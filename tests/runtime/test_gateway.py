"""Unit and property tests for the serving gateway's building blocks.

Covers the pieces the chaos gate (tests/runtime/test_chaos_serve.py)
composes: the consistent-hash shard map (determinism + bounded remap),
the write-ahead log (torn-tail recovery, typed corruption, bitwise float
round-trips), admission control (token buckets + overload ladder on a
virtual clock), and the idempotent sequence-aware ServingRuntime update
that makes WAL replay safe.
"""

import json
import struct

import numpy as np
import pytest

from repro.runtime import (
    ConsistentHashRing,
    TenantPolicy,
    WalCorruptionError,
    WriteAheadLog,
    load_streaming_state,
    save_streaming_state,
)
from repro.runtime.gateway import ZScoreDetector, make_fleet_series, read_wal
from repro.runtime.gateway.admission import (
    AdmissionController,
    OverloadLadder,
    OverloadState,
    TokenBucket,
)
from repro.runtime.serving import ServingRuntime

KEYS = [f"svc-{i}" for i in range(512)]


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        a = ConsistentHashRing(["w0", "w1", "w2"], seed=7)
        b = ConsistentHashRing(["w2", "w0", "w1"], seed=7)  # order-free
        assert a.assignment(KEYS) == b.assignment(KEYS)

    def test_seed_changes_layout(self):
        a = ConsistentHashRing(["w0", "w1", "w2"], seed=0)
        b = ConsistentHashRing(["w0", "w1", "w2"], seed=1)
        assert a.assignment(KEYS) != b.assignment(KEYS)

    def test_every_key_assigned_and_inverse_consistent(self):
        ring = ConsistentHashRing(["w0", "w1", "w2", "w3"])
        shards = ring.shards(KEYS)
        assert set(shards) == {"w0", "w1", "w2", "w3"}
        flattened = {key: worker for worker, keys in shards.items()
                     for key in keys}
        assert flattened == ring.assignment(KEYS)

    def test_add_worker_moves_bounded_keys_only_to_newcomer(self):
        """Growing N=4 -> 5 moves ~K/N keys, all of them to the new
        worker — the property that keeps failover/scale-out cheap."""
        ring = ConsistentHashRing([f"w{i}" for i in range(4)])
        before = ring.assignment(KEYS)
        ring.add_worker("w4")
        after = ring.assignment(KEYS)
        moved = [key for key in KEYS if before[key] != after[key]]
        assert all(after[key] == "w4" for key in moved)
        # Expectation is K/N = 102; double it for hash variance.
        assert 0 < len(moved) <= 2 * len(KEYS) // 5

    def test_remove_worker_only_remaps_its_keys(self):
        ring = ConsistentHashRing([f"w{i}" for i in range(4)])
        before = ring.assignment(KEYS)
        ring.remove_worker("w2")
        after = ring.assignment(KEYS)
        for key in KEYS:
            if before[key] != "w2":
                assert after[key] == before[key]
            else:
                assert after[key] != "w2"

    def test_membership_errors(self):
        ring = ConsistentHashRing(["w0"])
        with pytest.raises(ValueError):
            ring.add_worker("w0")
        with pytest.raises(KeyError):
            ring.remove_worker("w9")
        ring.remove_worker("w0")
        with pytest.raises(RuntimeError):
            ring.assign("svc-0")

    def test_spread_is_roughly_uniform(self):
        ring = ConsistentHashRing([f"w{i}" for i in range(4)], replicas=64)
        counts = [len(keys) for keys in ring.shards(KEYS).values()]
        assert min(counts) > 0
        assert max(counts) < 2.5 * len(KEYS) / 4


class TestWriteAheadLog:
    def _fill(self, directory, count=40, segment_bytes=512):
        with WriteAheadLog(directory, segment_bytes=segment_bytes) as wal:
            for index in range(count):
                wal.append({"service": "svc-0", "sequence": index + 1,
                            "observation": [float(index), -1.5]})
            wal.commit()
        return directory

    def test_round_trip_with_rotation(self, tmp_path):
        self._fill(tmp_path / "wal", count=40, segment_bytes=512)
        records = read_wal(tmp_path / "wal")
        assert [r.lsn for r in records] == list(range(40))
        assert [r.payload["sequence"] for r in records] == \
            list(range(1, 41))
        segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
        assert len(segments) > 1          # rotation actually happened

    def test_start_lsn_filter(self, tmp_path):
        self._fill(tmp_path / "wal")
        tail = read_wal(tmp_path / "wal", start_lsn=35)
        assert [r.lsn for r in tail] == [35, 36, 37, 38, 39]

    def test_torn_final_record_discarded_and_truncated(self, tmp_path):
        self._fill(tmp_path / "wal")
        last = sorted((tmp_path / "wal").glob("wal-*.seg"))[-1]
        intact = last.read_bytes()
        # Tear mid-body: full header, half the payload.
        last.write_bytes(intact + b"RW" + struct.pack("<II", 100, 0)
                         + b"{\"torn")
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.durable_lsn == 39  # the 40 intact records survive
            lsn = wal.append({"service": "svc-0", "sequence": 41,
                              "observation": [0.0]})
            wal.commit()
            assert lsn == 40
        assert last.read_bytes()[:len(intact)] == intact
        assert [r.lsn for r in read_wal(tmp_path / "wal")] == \
            list(range(41))

    def test_torn_header_discarded(self, tmp_path):
        self._fill(tmp_path / "wal")
        last = sorted((tmp_path / "wal").glob("wal-*.seg"))[-1]
        last.write_bytes(last.read_bytes() + b"RW\x10")  # 3 of 10 bytes
        assert len(read_wal(tmp_path / "wal")) == 40

    def test_crc_corruption_raises_typed_error(self, tmp_path):
        self._fill(tmp_path / "wal")
        first = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        data = bytearray(first.read_bytes())
        data[len(data) // 2] ^= 0xFF      # flip one payload byte mid-file
        first.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            read_wal(tmp_path / "wal")

    def test_damage_in_nonfinal_segment_never_silently_dropped(self,
                                                               tmp_path):
        """A 'torn tail' pattern in an *earlier* segment is corruption —
        only the final segment may legally end mid-record."""
        self._fill(tmp_path / "wal")
        first = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(WalCorruptionError):
            read_wal(tmp_path / "wal")

    def test_float64_round_trips_bitwise(self, tmp_path):
        values = [0.1, 1e-308, np.pi, -0.0, 1.0 / 3.0, 2.0 ** 52 + 1]
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append({"observation": values})
            wal.commit()
        (record,) = read_wal(tmp_path / "wal")
        for sent, received in zip(values, record.payload["observation"]):
            assert struct.pack("<d", sent) == struct.pack("<d", received)

    def test_durable_lsn_tracks_commit(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.durable_lsn == -1
            wal.append({"sequence": 1})
            wal.append({"sequence": 2})
            assert wal.durable_lsn == -1   # appended, not yet durable
            assert wal.commit() == 1
            assert wal.durable_lsn == 1


class _Clock:
    """Injectable monotonic clock for admission tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAdmission:
    def test_bucket_spends_burst_then_throttles_with_retry_after(self):
        clock = _Clock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire()[0] for _ in range(3)] == [True] * 3
        acquired, retry_after = bucket.try_acquire()
        assert not acquired
        assert retry_after == pytest.approx(0.1)
        clock.now += retry_after
        assert bucket.try_acquire() == (True, 0.0)

    def test_bucket_never_exceeds_burst(self):
        clock = _Clock()
        bucket = TokenBucket(rate=100.0, burst=5.0, clock=clock)
        clock.now += 60.0
        assert bucket.tokens == 5.0

    def test_controller_admits_per_tenant_and_rejects_unknown(self):
        clock = _Clock()
        controller = AdmissionController({
            "gold": TenantPolicy("gold", rate=100.0, burst=2.0, priority=2),
            "free": TenantPolicy("free", rate=100.0, burst=1.0, priority=0),
        }, clock=clock)
        assert controller.admit("gold")[0]
        assert controller.admit("free")[0]
        assert not controller.admit("free")[0]   # burst of 1 is spent
        assert controller.admit("gold")[0]       # gold unaffected
        assert controller.min_priority() == 0
        assert controller.priority("gold") == 2
        with pytest.raises(KeyError):
            controller.admit("stranger")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy("t", rate=0.0)
        with pytest.raises(ValueError):
            TenantPolicy("t", burst=0.5)
        with pytest.raises(ValueError):
            TenantPolicy("t", priority=-1)


class TestOverloadLadder:
    def test_ascends_immediately_possibly_multiple_rungs(self):
        ladder = OverloadLadder()
        assert ladder.observe(0.97) is OverloadState.REFUSE
        assert ladder.transitions == 1

    def test_descends_one_rung_at_a_time_with_hysteresis(self):
        ladder = OverloadLadder(shed_at=0.6, degrade_at=0.8, refuse_at=0.95,
                                hysteresis=0.1)
        ladder.observe(1.0)
        assert ladder.state is OverloadState.REFUSE
        # 0.9 is not hysteresis-clear of refuse_at (0.95 - 0.1 = 0.85).
        assert ladder.observe(0.9) is OverloadState.REFUSE
        assert ladder.observe(0.2) is OverloadState.DEGRADED
        assert ladder.observe(0.2) is OverloadState.SHED_LOW
        assert ladder.observe(0.2) is OverloadState.NORMAL
        assert ladder.observe(0.2) is OverloadState.NORMAL
        assert ladder.transitions == 4

    def test_boundary_hover_does_not_flap(self):
        ladder = OverloadLadder(shed_at=0.6, degrade_at=0.8, refuse_at=0.95,
                                hysteresis=0.1)
        ladder.observe(0.65)
        assert ladder.state is OverloadState.SHED_LOW
        for occupancy in (0.58, 0.61, 0.55, 0.62):
            ladder.observe(occupancy)
            assert ladder.state is OverloadState.SHED_LOW
        assert ladder.observe(0.49) is OverloadState.NORMAL

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            OverloadLadder(shed_at=0.8, degrade_at=0.6)
        with pytest.raises(ValueError):
            OverloadLadder(hysteresis=0.7)


def _tiny_runtime(num_services=1, history_len=64, updates=8, window=16):
    fleet = make_fleet_series(num_services, history_len, updates)
    histories = {sid: series[:history_len] for sid, series in fleet.items()}
    streams = {sid: series[history_len:] for sid, series in fleet.items()}
    detector = ZScoreDetector().fit(sorted(histories),
                                    [histories[sid]
                                     for sid in sorted(histories)])
    runtime = ServingRuntime(detector, window=window)
    for sid in sorted(histories):
        runtime.start_service(sid, histories[sid])
    return runtime, streams


class TestIdempotentUpdate:
    def test_duplicate_sequence_is_acknowledged_without_reapply(self):
        runtime, streams = _tiny_runtime()
        stream = streams["svc-0"]
        runtime.update("svc-0", stream[0], sequence=1)
        before = json.dumps(runtime.state_dict(), sort_keys=True)
        outcome = runtime.update("svc-0", stream[0], sequence=1)
        assert outcome.duplicate
        assert not outcome.is_alert
        assert json.dumps(runtime.state_dict(), sort_keys=True) == before
        assert runtime.applied_sequence("svc-0") == 1

    def test_replayed_prefix_converges_to_same_state(self):
        """Re-delivering an arbitrary already-applied prefix (what WAL
        replay after a crash does) must be a no-op."""
        runtime, streams = _tiny_runtime()
        reference, _ = _tiny_runtime()
        stream = streams["svc-0"]
        for index, row in enumerate(stream):
            runtime.update("svc-0", row, sequence=index + 1)
            reference.update("svc-0", row, sequence=index + 1)
        for index, row in enumerate(stream[:5]):      # replay a prefix
            assert runtime.update("svc-0", row, sequence=index + 1).duplicate
        assert json.dumps(runtime.state_dict(), sort_keys=True) == \
            json.dumps(reference.state_dict(), sort_keys=True)

    def test_unsequenced_updates_still_flow(self):
        runtime, streams = _tiny_runtime()
        outcome = runtime.update("svc-0", streams["svc-0"][0])
        assert not outcome.duplicate
        assert runtime.applied_sequence("svc-0") == 0

    def test_sequence_must_be_positive(self):
        runtime, streams = _tiny_runtime()
        with pytest.raises(ValueError):
            runtime.update("svc-0", streams["svc-0"][0], sequence=0)

    def test_force_fallback_routes_to_spectral_scorer(self):
        runtime, streams = _tiny_runtime(history_len=128)
        outcome = runtime.update("svc-0", streams["svc-0"][0],
                                 sequence=1, force_fallback=True)
        assert outcome.used_fallback


class TestServingStateSnapshot:
    def test_snapshot_restores_sequence_high_water(self, tmp_path):
        runtime, streams = _tiny_runtime()
        for index, row in enumerate(streams["svc-0"]):
            runtime.update("svc-0", row, sequence=index + 1)
        path = tmp_path / "serving.json"
        save_streaming_state(runtime, path)

        restored, _ = _tiny_runtime()
        load_streaming_state(restored, path)
        assert restored.applied_sequence("svc-0") == len(streams["svc-0"])
        assert json.dumps(restored.state_dict(), sort_keys=True) == \
            json.dumps(runtime.state_dict(), sort_keys=True)

    def test_serving_snapshot_loads_into_bare_streaming_detector(self,
                                                                 tmp_path):
        runtime, streams = _tiny_runtime()
        runtime.update("svc-0", streams["svc-0"][0], sequence=1)
        path = tmp_path / "serving.json"
        save_streaming_state(runtime, path)

        bare, _ = _tiny_runtime()
        load_streaming_state(bare.streaming, path)   # marks discarded
        assert bare.streaming.state_dict() == \
            runtime.streaming.state_dict()

    def test_streaming_snapshot_loads_into_serving_runtime(self, tmp_path):
        runtime, streams = _tiny_runtime()
        runtime.update("svc-0", streams["svc-0"][0], sequence=1)
        path = tmp_path / "streaming.json"
        save_streaming_state(runtime.streaming, path)

        restored, _ = _tiny_runtime()
        load_streaming_state(restored, path)
        assert restored.streaming.state_dict() == \
            runtime.streaming.state_dict()
        assert restored.applied_sequence("svc-0") == 0  # marks not in file


class TestFaultArming:
    """Faults may only be armed for services the gateway serves: a
    misspelt id would otherwise hash onto some shard and kill it."""

    def _gateway(self, tmp_path):
        from repro.runtime import ServingGateway

        fleet = make_fleet_series(2, 64, 0, seed=0)
        detector = ZScoreDetector().fit(sorted(fleet),
                                        [fleet[s] for s in sorted(fleet)])
        return ServingGateway(tmp_path, detector, fleet)

    def test_kill_for_unknown_service_raises(self, tmp_path):
        gateway = self._gateway(tmp_path)
        with pytest.raises(KeyError, match="svc-9"):
            gateway.schedule_worker_kill("svc-9", 1)
        assert gateway.schedule_worker_kill("svc-1", 1) == \
            gateway.ring.assign("svc-1")

    def test_fault_plan_for_unknown_service_raises(self, tmp_path):
        from repro.runtime import GatewayFault

        gateway = self._gateway(tmp_path)
        with pytest.raises(KeyError, match="svc-9"):
            gateway.apply_fault_plan({
                "svc-9": GatewayFault("worker_slow_start")})
        gateway.apply_fault_plan({"svc-0": GatewayFault("deliver_dropped")})
