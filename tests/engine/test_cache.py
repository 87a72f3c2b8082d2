"""ResultCache: memory/disk round-trips, codecs, stats, corruption,
the segment layout and the batched API."""

import json
import sys
import threading
import zlib

import pytest

from repro.engine import Evaluator, ResultCache
from repro.errors import EngineError


def _double(x):
    return 2.0 * x


def _segments(directory):
    return sorted(directory.glob("*.seg"))


def _record_span(data, key):
    """(start, end) of the line holding ``key``'s record in a segment's
    bytes (``end`` is past its newline)."""
    marker = json.dumps(key).encode()
    at = data.index(b"[" + marker + b",")
    start = data.rfind(b"\n", 0, at) + 1
    return start, data.index(b"\n", at) + 1


def _flip_record(data, key):
    """Overwrite two bytes in the middle of ``key``'s record (never
    with a newline), leaving every other byte in place."""
    start, end = _record_span(data, key)
    damaged = bytearray(data)
    for at in ((start + end) // 2, (start + end) // 2 + 1):
        damaged[at] = 0x23 if damaged[at] != 0x23 else 0x25
    return bytes(damaged)


def _truncate_record(data, key):
    """Cut the segment mid-way through ``key``'s record, which must be
    its last (a writer that died mid-append)."""
    start, end = _record_span(data, key)
    assert end == len(data), "only a segment's last record can tear"
    return data[:(start + end) // 2]


def _damage(directory, key, damage):
    for segment in _segments(directory):
        data = segment.read_bytes()
        if json.dumps(key).encode() in data:
            segment.write_bytes(damage(data, key))
            return
    raise AssertionError(f"no record for {key!r}")


class TestMemoryLevel:
    def test_miss_then_hit(self):
        cache = ResultCache()
        hit, value = cache.get("k")
        assert not hit and value is None
        cache.put("k", 42.0)
        hit, value = cache.get("k")
        assert hit and value == 42.0
        assert cache.stats() == {"entries": 1, "hits": 1,
                                 "misses": 1, "disk_hits": 0,
                                 "evictions": 0}

    def test_clear(self):
        cache = ResultCache()
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0
        assert not cache.get("k")[0]


class TestBoundedMemory:
    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "a" is now most recently used
        cache.put("c", 3)  # evicts "b"
        assert cache.get("a")[0]
        assert not cache.get("b")[0]
        assert cache.get("c")[0]
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_put_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes "a", not a growth
        cache.put("c", 3)  # evicts "b"
        assert cache.get("a") == (True, 10)
        assert not cache.get("b")[0]

    def test_eviction_never_loses_disk_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=1)
        cache.put("a", 1)
        cache.put("b", 2)  # "a" evicted from memory, not from disk
        assert cache.stats()["evictions"] == 1
        hit, value = cache.get("a")
        assert hit and value == 1
        assert cache.stats()["disk_hits"] == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(EngineError):
            ResultCache(max_entries=0)


class TestMetricsPublishing:
    def test_counters_emitted(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResultCache(max_entries=1, metrics=registry)
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        cache.put("b", 2)  # evicts "a"
        assert registry.counter("engine.cache.misses").value == 1
        assert registry.counter("engine.cache.hits").value == 1
        assert registry.counter("engine.cache.evictions").value == 1


class TestDiskLevel:
    def test_round_trip_across_instances(self, tmp_path):
        first = ResultCache(str(tmp_path))
        first.put("deadbeef", {"v": 1.25})
        second = ResultCache(str(tmp_path))  # cold memory, warm disk
        hit, value = second.get("deadbeef")
        assert hit and value == {"v": 1.25}
        assert second.stats()["disk_hits"] == 1
        # Promoted: the next lookup stays in memory.
        second.get("deadbeef")
        assert second.stats()["disk_hits"] == 1
        assert second.stats()["hits"] == 2

    def test_infinity_round_trips(self, tmp_path):
        first = ResultCache(str(tmp_path))
        first.put("inf", float("inf"))
        hit, value = ResultCache(str(tmp_path)).get("inf")
        assert hit and value == float("inf")

    def test_codec(self, tmp_path):
        encode = lambda v: {"real": v.real, "imag": v.imag}  # noqa: E731
        decode = lambda d: complex(d["real"], d["imag"])  # noqa: E731
        first = ResultCache(str(tmp_path), encode=encode, decode=decode)
        first.put("z", complex(1, 2))
        second = ResultCache(str(tmp_path), encode=encode, decode=decode)
        hit, value = second.get("z")
        assert hit and value == complex(1, 2)

    def test_corrupt_entry_is_a_counted_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("bad", 1)
        _damage(tmp_path, "bad", _flip_record)
        fresh = ResultCache(str(tmp_path))
        assert fresh.get("bad") == (False, None)
        assert fresh.stats()["misses"] == 1
        assert fresh.metrics.value("engine.cache.corrupt") == 1
        # The re-priced value lands in a new segment and is what the
        # next open finds.
        fresh.put("bad", 2)
        assert ResultCache(str(tmp_path)).get("bad") == (True, 2)

    @pytest.mark.parametrize("damage", [_truncate_record, _flip_record],
                             ids=["truncated", "non-json"])
    def test_warm_store_reprices_only_bad_entries(self, tmp_path,
                                                  damage):
        candidates = list(range(10))
        expected = []
        # Three writers, three segments: 3 and 7 end the first two, so
        # either can be torn off its segment's tail.
        for part in (candidates[:4], candidates[4:8], candidates[8:]):
            cold = Evaluator(_double, cache=ResultCache(str(tmp_path)))
            expected += [r.value for r in cold.map_batch(part)]
        assert len(_segments(tmp_path)) == 3
        bad = [cold.key_for(c) for c in (3, 7)]
        for key in bad:
            _damage(tmp_path, key, damage)
        warm = Evaluator(_double, cache=ResultCache(str(tmp_path)))
        assert [r.value for r in warm.map_batch(candidates)] == expected
        assert warm.stats()["oracle_calls"] == len(bad)
        assert warm.cache.metrics.value("engine.cache.corrupt") \
            == len(bad)
        # The bad entries were rewritten: a third pass is all hits.
        replay = Evaluator(_double, cache=ResultCache(str(tmp_path)))
        replay.map_batch(candidates)
        assert replay.stats()["oracle_calls"] == 0
        # Segments are never compacted: the superseded bad records are
        # still met (and counted) when the store is opened.
        assert replay.cache.metrics.value("engine.cache.corrupt") \
            == len(bad)

    def test_disk_files_are_self_describing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("abc123", 7)
        segment, = _segments(tmp_path)
        data = segment.read_bytes()
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        crc, payload = data[:-1].split(b" ", 1)
        assert int(crc, 16) == zlib.crc32(payload)
        assert json.loads(payload) == ["abc123", 7]

    def test_clear_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", 1)
        cache.clear(disk=True)
        assert not _segments(tmp_path)
        assert not ResultCache(str(tmp_path)).get("k")[0]
        # The next write starts a fresh segment.
        cache.put("k", 2)
        assert ResultCache(str(tmp_path)).get("k") == (True, 2)


class TestSegmentStore:
    def test_awkward_keys_round_trip(self, tmp_path):
        keys = ['say "hi"', "tab\there", "new\nline", "back\\slash",
                "na\u00efve \u043a\u043b\u044e\u0447 \U0001f511", ""]
        writer = ResultCache(str(tmp_path))
        writer.put_many((key, i) for i, key in enumerate(keys))
        segment, = _segments(tmp_path)
        assert segment.read_bytes().count(b"\n") == len(keys)
        fresh = ResultCache(str(tmp_path))
        assert fresh.get_many(keys) == {key: i
                                        for i, key in enumerate(keys)}
        assert fresh.metrics.value("engine.cache.corrupt") == 0

    def test_later_record_of_a_key_wins(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", 1)
        cache.put("k", 2)
        assert ResultCache(str(tmp_path)).get("k") == (True, 2)

    def test_two_writers_are_visible_to_a_third(self, tmp_path):
        first = ResultCache(str(tmp_path))
        second = ResultCache(str(tmp_path))
        assert second.get("a") == (False, None)  # opens the empty store
        first.put("a", 1)
        second.put("b", 2)
        assert len(_segments(tmp_path)) == 2
        # Another writer's records appear at the next open, not before.
        assert second.get("a") == (False, None)
        third = ResultCache(str(tmp_path))
        assert third.get_many(["a", "b"]) == {"a": 1, "b": 2}

    def test_warm_pass_with_zero_misses_creates_no_segment(self, tmp_path):
        candidates = list(range(16))
        Evaluator(_double, cache=ResultCache(str(tmp_path))) \
            .map_batch(candidates)
        before = {p: p.read_bytes() for p in _segments(tmp_path)}
        assert len(before) == 1
        warm = Evaluator(_double, cache=ResultCache(str(tmp_path)))
        warm.map_batch(candidates)
        assert warm.stats()["oracle_calls"] == 0
        assert {p: p.read_bytes() for p in _segments(tmp_path)} == before

    def test_legacy_per_file_entries_are_a_miss(self, tmp_path):
        legacy = tmp_path / "abc123.json"
        legacy.write_text(json.dumps({"key": "abc123", "value": 7}))
        cache = ResultCache(str(tmp_path))
        assert cache.get("abc123") == (False, None)
        assert cache.metrics.value("engine.cache.corrupt") == 0
        cache.put("abc123", 7)
        assert ResultCache(str(tmp_path)).get("abc123") == (True, 7)
        assert legacy.exists()

    def test_unencodable_value_raises_before_writing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("ok", 1)
        segment, = _segments(tmp_path)
        before = segment.read_bytes()
        with pytest.raises(TypeError):
            cache.put_many([("x", 2), ("y", object())])
        assert segment.read_bytes() == before
        assert cache.get("x") == (False, None)
        fresh = ResultCache(str(tmp_path))
        assert fresh.get_many(["ok", "x", "y"]) == {"ok": 1}
        assert fresh.metrics.value("engine.cache.corrupt") == 0

    @pytest.mark.parametrize("damage, survivors", [
        # Cut mid-way through b's record: a's still reads.
        (lambda data: data[:-5], {"a": 0.25}),
        # Same length, bad JSON: b fails its checksum.
        (lambda data: data.replace(b"0.75]", b"0x75]"), {"a": 0.25}),
        # Both records swapped in place: each offset now holds a valid
        # record of the other key.
        (lambda data: b"".join(reversed(data.splitlines(keepends=True))),
         {}),
    ], ids=["shrunk", "rewritten", "swapped"])
    def test_segment_damaged_after_open_is_a_miss(self, tmp_path, damage,
                                                  survivors):
        ResultCache(str(tmp_path)).put_many([("a", 0.25), ("b", 0.75)])
        cache = ResultCache(str(tmp_path))
        assert cache.get("zz") == (False, None)  # opens the store
        segment, = _segments(tmp_path)
        segment.write_bytes(damage(segment.read_bytes()))
        assert cache.get_many(["a", "b"]) == survivors
        assert cache.metrics.value("engine.cache.corrupt") \
            == 2 - len(survivors)
        assert cache.get("b") == (False, None)

    def test_deleted_segment_is_never_recreated(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=1)
        cache.put("a", 1)
        cache.put("b", 2)  # evicts a: its value is on disk only
        old, = _segments(tmp_path)
        old.unlink()
        cache.put("c", 3)
        new, = _segments(tmp_path)
        assert new.name != old.name
        assert cache.get("a") == (False, None)
        assert ResultCache(str(tmp_path)).get_many(["a", "b", "c"]) \
            == {"c": 3}

    def test_unencodable_first_write_creates_no_segment(self, tmp_path):
        with pytest.raises(TypeError):
            ResultCache(str(tmp_path)).put("y", object())
        assert not _segments(tmp_path)


class TestBatchedLookups:
    def test_get_many_equals_per_key_get(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        writer.put_many([(key, {"v": i}) for i, key in enumerate("abcde")])
        writer.put("odd", 5)  # decodes badly under the codec below
        lookups = ["a", "b", "a", "zz", "c", "odd", "d", "a", "zz", "e",
                   "b", "c"]

        def reader():
            cache = ResultCache(str(tmp_path), max_entries=2,
                                encode=lambda v: {"v": v},
                                decode=lambda d: d["v"])
            cache.put("e", 40)  # one memory-level entry up front
            return cache

        single, batched = reader(), reader()
        expected = {}
        for key in lookups:
            hit, value = single.get(key)
            if hit:
                expected[key] = value
        assert batched.get_many(lookups) == expected
        assert batched.stats() == single.stats()
        assert batched.metrics.value("engine.cache.corrupt") \
            == single.metrics.value("engine.cache.corrupt") == 1
        assert list(batched._memory.items()) \
            == list(single._memory.items())

    def test_sparse_batch_round_trips(self, tmp_path):
        # Two records ~30 kB apart in one segment.
        values = {f"k{i}": "v" * 100 + str(i) for i in range(300)}
        ResultCache(str(tmp_path)).put_many(values.items())
        wanted = ["k0", "k299"]
        cache = ResultCache(str(tmp_path))
        assert cache.get_many(wanted) == {key: values[key]
                                          for key in wanted}
        assert cache.stats()["disk_hits"] == 2

    def test_memory_only_batches(self):
        cache = ResultCache()
        cache.put_many([("a", 1), ("b", 2)])
        assert cache.get_many(["a", "b", "c"]) == {"a": 1, "b": 2}
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 1

    def test_writer_and_reader_threads_share_one_cache(self, tmp_path):
        # The serve daemon's shape, stressed: writer threads append
        # batches while reader threads probe one cache, with a small
        # memory level so most probes re-read from the segment.
        cache = ResultCache(str(tmp_path), max_entries=8)
        ranges = [[f"w{w}-{i}" for i in range(1000)] for w in range(2)]
        written = [[] for _ in ranges]
        probes = []
        failures = []

        def value_of(key):
            writer, index = key[1:].split("-")
            return int(writer) * 10_000 + int(index)

        def write(w):
            for lo in range(0, len(ranges[w]), 50):
                batch = ranges[w][lo:lo + 50]
                cache.put_many((key, value_of(key)) for key in batch)
                written[w].extend(batch)

        def read():
            try:
                while sum(map(len, written)) < sum(map(len, ranges)):
                    known = written[0][-100:] + written[1][-100:]
                    found = cache.get_many(known)
                    assert found == {key: value_of(key) for key in known}
                    probes.append(len(known))
            except Exception as error:  # noqa: BLE001 -- reported below
                failures.append(error)

        threads = [threading.Thread(target=read) for _ in range(2)]
        threads += [threading.Thread(target=write, args=(w,))
                    for w in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        stats = cache.stats()
        assert stats["hits"] == sum(probes) and stats["misses"] == 0
        every = [key for keys in ranges for key in keys]
        fresh = ResultCache(str(tmp_path))
        assert fresh.get_many(every) == {key: value_of(key)
                                         for key in every}
        assert fresh.metrics.value("engine.cache.corrupt") == 0
