"""Tests for the phase-signature MRC cache (repro.store.mrc_store)."""

import json

import pytest

from repro.core.mrc import MissRateCurve
from repro.store.mrc_store import MRCStore, StoreConfig, StoredCurve
from repro.store.signature import PhaseSignature, SignatureConfig


def sig(level, slope=0, workload="w"):
    return PhaseSignature(workload, level_bucket=level, slope_bucket=slope)


def curve(top=40.0):
    return MissRateCurve({i: top / i for i in range(1, 17)})


class TestGetPut:
    def test_miss_then_hit(self):
        store = MRCStore()
        assert store.get(sig(5)) is None
        store.put(sig(5), curve())
        entry = store.get(sig(5))
        assert entry is not None
        assert entry.mrc == curve()
        assert store.stats() == {
            "entries": 1, "hits": 1, "misses": 1,
            "evictions": 0, "expirations": 0,
        }

    def test_hit_counts_reuses(self):
        store = MRCStore()
        store.put(sig(5), curve())
        store.get(sig(5))
        entry = store.get(sig(5))
        assert entry.reuses == 2

    def test_put_replaces_existing_signature(self):
        store = MRCStore()
        store.put(sig(5), curve(40.0))
        store.put(sig(5), curve(80.0))
        assert len(store) == 1
        assert store.get(sig(5)).mrc == curve(80.0)

    def test_tolerant_lookup_matches_adjacent_bucket(self):
        # quantum 2.0, tolerance 2.5: buckets 10 and 11 are 2 MPKI apart.
        store = MRCStore()
        store.put(sig(10), curve())
        assert store.get(sig(11)) is not None
        assert store.get(sig(13)) is None     # 6 MPKI: out of tolerance

    def test_tolerant_lookup_prefers_nearest_level(self):
        config = StoreConfig(
            signature=SignatureConfig(match_tolerance_mpki=8.0)
        )
        store = MRCStore(config)
        store.put(sig(10), curve(40.0))        # 2 MPKI from the query
        store.put(sig(13), curve(80.0))        # 4 MPKI from the query
        entry = store.get(sig(11))
        assert entry.mrc == curve(40.0)


class TestLRU:
    def test_capacity_bounds_entries(self):
        store = MRCStore(StoreConfig(capacity=3))
        for level in (10, 20, 30, 40):
            store.put(sig(level), curve())
        assert len(store) == 3
        assert store.evictions == 1
        assert store.get(sig(10)) is None     # the oldest fell out

    def test_get_refreshes_recency(self):
        store = MRCStore(StoreConfig(capacity=2))
        store.put(sig(10), curve())
        store.put(sig(20), curve())
        store.get(sig(10))                    # 10 is now most recent
        store.put(sig(30), curve())           # evicts 20, not 10
        assert store.get(sig(10)) is not None
        assert store.get(sig(20)) is None

    def test_explicit_evict(self):
        store = MRCStore()
        store.put(sig(10), curve())
        assert store.evict(sig(10))
        assert not store.evict(sig(10))
        assert len(store) == 0


class TestTTL:
    def test_entries_expire_after_ttl(self):
        store = MRCStore(StoreConfig(ttl_instructions=1000))
        store.put(sig(10), curve(), now_instructions=0)
        assert store.get(sig(10), now_instructions=900) is not None
        assert store.get(sig(10), now_instructions=2000) is None
        assert store.expirations == 1
        assert len(store) == 0

    def test_no_ttl_means_no_expiry(self):
        store = MRCStore()
        store.put(sig(10), curve(), now_instructions=0)
        assert store.get(sig(10), now_instructions=10 ** 15) is not None

    def test_expired_tolerant_match_is_also_dropped(self):
        store = MRCStore(StoreConfig(ttl_instructions=1000))
        store.put(sig(10), curve(), now_instructions=0)
        assert store.get(sig(11), now_instructions=5000) is None
        assert len(store) == 0


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = MRCStore(StoreConfig(
            capacity=7,
            signature=SignatureConfig(level_quantum_mpki=4.0),
        ))
        store.put(sig(10), curve(40.0), stack_hit_rate=0.9,
                  warmup_fraction=0.1, trace_length=4800)
        store.put(sig(20, slope=1), curve(80.0))
        store.save(path)

        loaded = MRCStore.load(path)
        assert loaded.config.capacity == 7
        assert loaded.config.signature.level_quantum_mpki == 4.0
        assert len(loaded) == 2
        entry = loaded.get(sig(10))
        assert entry.mrc == curve(40.0)
        assert entry.stack_hit_rate == pytest.approx(0.9)
        assert entry.trace_length == 4800

    def test_save_crash_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store.json")
        store = MRCStore()
        store.put(sig(10), curve(40.0))
        store.put(sig(20), curve(80.0))
        store.save(path)

        def crash_mid_dump(payload, out, **kwargs):
            out.write(json.dumps(payload, **kwargs)[:40])
            out.flush()
            raise OSError("disk full")

        monkeypatch.setattr("repro.store.mrc_store.json.dump", crash_mid_dump)
        newer = MRCStore()
        newer.put(sig(30), curve(20.0))
        with pytest.raises(OSError, match="disk full"):
            newer.save(path)
        monkeypatch.undo()

        loaded = MRCStore.load(path)
        assert len(loaded) == 2
        assert loaded.get(sig(10)).mrc == curve(40.0)
        assert loaded.get(sig(20)).mrc == curve(80.0)
        assert [p.name for p in tmp_path.iterdir()] == ["store.json"]

    def test_load_resets_entry_ages(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = MRCStore(StoreConfig(ttl_instructions=1000))
        store.put(sig(10), curve(), now_instructions=10 ** 9)
        store.save(path)
        loaded = MRCStore.load(path)
        # The writing run's clock is meaningless here: the entry must be
        # fresh at this run's instruction 0, not instantly expired.
        assert loaded.get(sig(10), now_instructions=0) is not None

    def test_load_degrades_foreign_json_to_cold_store(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.warns(UserWarning, match="rapidmrc-store-v1"):
            loaded = MRCStore.load(str(path))
        assert len(loaded) == 0

    def test_load_degrades_truncated_json_to_cold_store(self, tmp_path):
        path = tmp_path / "store.json"
        store = MRCStore()
        store.put(sig(10), curve())
        store.save(str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.warns(UserWarning, match="starting cold"):
            loaded = MRCStore.load(str(path))
        assert len(loaded) == 0

    def test_load_degrades_wrong_shape_to_cold_store(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({
            "format": "rapidmrc-store-v1",
            "entries": [{"surprise": True}],
        }))
        with pytest.warns(UserWarning, match="starting cold"):
            loaded = MRCStore.load(str(path))
        assert len(loaded) == 0

    def test_load_failure_respects_override_config(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("not json at all")
        with pytest.warns(UserWarning):
            loaded = MRCStore.load(
                str(path), config=StoreConfig(capacity=3)
            )
        assert loaded.config.capacity == 3

    def test_load_failure_counts_on_registry(self, tmp_path):
        from repro.obs import Telemetry, use_telemetry

        path = tmp_path / "store.json"
        path.write_text("{}")
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            with pytest.warns(UserWarning):
                MRCStore.load(str(path))
        assert telemetry.registry.counter("store.load_failed").value == 1

    def test_load_missing_file_still_raises(self, tmp_path):
        with pytest.raises(OSError):
            MRCStore.load(str(tmp_path / "absent.json"))

    def test_load_with_override_config_trims_to_capacity(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = MRCStore()
        for level in (10, 20, 30):
            store.put(sig(level), curve())
        store.save(path)
        loaded = MRCStore.load(path, config=StoreConfig(capacity=2))
        assert len(loaded) == 2
        # LRU order persists: the oldest entry is the one trimmed.
        assert loaded.get(sig(10)) is None


class TestConfigValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            StoreConfig(capacity=0)

    def test_bad_ttl(self):
        with pytest.raises(ValueError):
            StoreConfig(ttl_instructions=0)

    def test_stored_curve_age(self):
        entry = StoredCurve(sig(1), curve(), stored_at_instructions=100)
        assert entry.age(350) == 250
