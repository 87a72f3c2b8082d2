"""Content-addressed result cache: in-memory always, on-disk optionally.

Keys are :func:`repro.engine.fingerprint.fingerprint` digests, so a
cache directory can be shared between runs, strategies, and processes:
any evaluation of a structurally identical candidate under the same
evaluator context resolves to the same key.

Values must round-trip through JSON.  For richer values (e.g.
:class:`~repro.benchmarksuite.runner.BenchmarkRow`) pass ``encode`` /
``decode`` callables; floats survive exactly (Python's ``json`` emits
shortest round-trip representations, and ``inf`` is legal).

On disk a store is a directory of append-only *segments*,
``<pid>-<random hex>.seg``.  Every :class:`ResultCache` that writes
creates its own segment on its first write and appends only to it, so
no two writers share a file and a crash can tear only its writer's own
tail.  A record is one line::

    <crc32 of the payload, 8 hex digits> <payload>\\n

where the payload is the JSON array ``[key, encoded value]``.  JSON
escapes quotes, control characters and non-ASCII, so a record is ASCII
and never holds a raw newline, whatever the key.

A cache *opens* its directory on first use (its first lookup or
write): every segment is scanned into an index ``key -> (segment,
offset, length)`` of each record, and each record's checksum is
verified.  A record that fails (damaged bytes, a torn tail) is skipped,
so its key is a miss and is priced again; the later valid record of a
key wins (segments are read oldest first, by modification time).  A
lookup reads the record again and checks both its checksum and its key,
so a record that no longer reads, or now holds other bytes (its segment
shrank or was rewritten since the open), is a miss too.  Records
another process appends become visible when a cache next opens the
directory; this instance's own writes are visible to it at once.  A
segment deleted while its writer is running is never recreated: the
writer's next write starts a new one.  Anything but ``*.seg`` in the
directory -- such as the ``<key>.json`` files of the older
one-file-per-result layout -- is ignored, so such a directory replays
cold.

:meth:`ResultCache.get_many` reads all of a batch's disk hits together
(one read of the span they cover in each segment) and decodes them with
one ``json.loads``; :meth:`ResultCache.put_many` encodes a batch and
appends it with one ``os.write``.  :meth:`ResultCache.get` /
:meth:`ResultCache.put` are the one-key forms of the same calls.  One
lock guards the memory level and the index, so one thread (the ``repro
serve`` oracle thread) may write while another (its event loop) reads.

Long-running processes (the ``repro serve`` daemon) can bound the
resident memory level with ``max_entries``: the least recently used
decoded value is evicted on overflow.  Eviction touches only the memory
level -- an evicted key stays indexed and is re-read from its segment
on the next lookup, so a bounded cache trades re-read cost for memory,
never correctness.

Counters live in one place: a
:class:`~repro.telemetry.metrics.MetricsRegistry` (the caller's, or a
private one).  ``engine.cache.hits`` / ``.misses`` / ``.disk_hits`` /
``.evictions`` are counted there as they happen, and
:meth:`ResultCache.stats` is a view over them (the serve layer
additionally namespaces hits/misses by tenant label).
``engine.cache.corrupt`` counts the bad records a cache meets: every
one in the segments when it opens them -- including one whose key a
later valid record has since replaced, since segments are never
compacted -- plus every record that fails when it is looked up.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import EngineError
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["ResultCache"]

_MISS = object()

#: Segment file suffix; nothing else in a store directory is read.
_SUFFIX = ".seg"

#: Bytes before a record's payload: 8 hex checksum digits and a space.
_HEAD = 9

_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODER = json.JSONDecoder()


def _payload(record: bytes) -> bytes:
    """A record's payload (``ValueError`` when its checksum fails)."""
    payload = record[_HEAD:]
    if int(record[:8], 16) != zlib.crc32(payload):
        raise ValueError("checksum mismatch")
    return payload


def _parse(encoded: bytes) -> Any:
    """One encoded value decoded alone (``_MISS`` when it is not
    JSON)."""
    try:
        return json.loads(encoded)
    except ValueError:
        return _MISS


class ResultCache:
    """A two-level (memory, optional disk) store of evaluation results.

    Args:
        directory: When given, entries are also appended to this
            instance's segment in ``directory`` and lookups fall through
            to the segment index on a memory miss (then promote).  The
            directory is indexed on first use and created on first
            write.
        encode: Value -> JSON-able structure (default: identity).
        decode: JSON-able structure -> value (default: identity).
        max_entries: Bound on the in-memory level (``None`` =
            unbounded).  On overflow the least recently used entry is
            evicted (counted as ``evictions``); the disk level, when
            enabled, is never evicted.
        metrics: The registry the ``engine.cache.*`` counters live in
            (a private one by default).  :meth:`stats` reads them back:
            ``hits`` (answered from memory or disk), ``misses``
            (answered by neither), ``disk_hits`` (the subset of hits
            that touched disk), and ``evictions``.
    """

    def __init__(self, directory: Optional[str] = None, *,
                 encode: Optional[Callable[[Any], Any]] = None,
                 decode: Optional[Callable[[Any], Any]] = None,
                 max_entries: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if max_entries is not None and max_entries < 1:
            raise EngineError(
                f"max_entries must be >= 1 (got {max_entries})")
        self._memory: Dict[str, Any] = {}
        self._index: Dict[str, Tuple[str, int, int]] = {}
        self._segment: Optional[str] = None
        self._lock = threading.Lock()
        self.directory = Path(directory) if directory else None
        self._unopened = self.directory is not None
        self._encode = encode if encode is not None else (lambda v: v)
        self._decode = decode if decode is not None else (lambda v: v)
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._hits = self.metrics.counter("engine.cache.hits")
        self._misses = self.metrics.counter("engine.cache.misses")
        self._disk_hits = self.metrics.counter("engine.cache.disk_hits")
        self._evictions = self.metrics.counter("engine.cache.evictions")

    def __len__(self) -> int:
        return len(self._memory)

    # -- the disk level -----------------------------------------------

    def _open(self) -> None:
        """Index every segment on first use, oldest first, so a later
        record of a key replaces an earlier one (call with the lock
        held)."""
        if not self._unopened:
            return
        self._unopened = False
        assert self.directory is not None
        segments = []
        try:
            with os.scandir(self.directory) as entries:
                for entry in entries:
                    if not entry.name.endswith(_SUFFIX):
                        continue
                    try:
                        with open(entry.path, "rb") as handle:
                            segments.append(
                                (os.fstat(handle.fileno()).st_mtime_ns,
                                 entry.name, handle.read()))
                    except OSError:  # removed since the listing
                        continue
        except FileNotFoundError:
            return
        bad = 0
        for _, name, data in sorted(segments):
            bad += self._scan(name, data)
        if bad:
            self.metrics.counter("engine.cache.corrupt").inc(bad)

    def _scan(self, name: str, data: bytes) -> int:
        """Index one segment's valid records; returns how many are bad
        (a checksum mismatch, a malformed line, a torn tail).  A record
        whose checksum holds is what its writer wrote:
        ``[<JSON string>,<value>]``."""
        index = self._index
        lines = data.split(b"\n")
        bad = 1 if lines.pop() else 0  # a torn tail: its writer died
        offset = 0
        for line in lines:
            try:
                _payload(line)
                quote = line.find(b'"', _HEAD + 2)
                key = line[_HEAD + 2:quote].decode("ascii")
                if "\\" in key:  # an escaped key: let json read it
                    key = _DECODER.raw_decode(line.decode("ascii"),
                                              _HEAD + 1)[0]
                index[key] = (name, offset, len(line))
            except (ValueError, TypeError):
                bad += 1
            offset += len(line) + 1
        return bad

    def _read(self, name: str,
              spans: List[Tuple[str, int, int]]) -> List[bytes]:
        """The records at index entries ``spans`` (all in segment
        ``name``), in order, from one read of the span they cover.  A
        record past a shrunk segment's end comes back short."""
        assert self.directory is not None
        lo = min(offset for _, offset, _ in spans)
        hi = max(offset + length for _, offset, length in spans)
        with open(self.directory / name, "rb") as handle:
            handle.seek(lo)
            chunk = handle.read(hi - lo)
        return [chunk[offset - lo:offset - lo + length]
                for _, offset, length in spans]

    def _load(self, keys: List[str]) -> Dict[str, Any]:
        """Decoded values of the indexed ``keys``: one read per
        segment, one ``json.loads`` for the batch.  A record that no
        longer reads, fails its checksum, holds another key or does not
        decode is counted as corrupt, dropped from the index and left
        out (a miss)."""
        if not keys:
            return {}
        index = self._index
        by_segment: Dict[str, List[str]] = {}
        for key in keys:
            by_segment.setdefault(index[key][0], []).append(key)
        order: List[str] = []
        records: List[bytes] = []
        for name, members in by_segment.items():
            try:
                records += self._read(name, [index[key] for key in members])
            except OSError:  # gone: every record misses
                records += [b""] * len(members)
            order += members
        good: List[str] = []
        payloads: List[bytes] = []
        bad = 0
        for key, record in zip(order, records):
            try:
                payloads.append(_payload(record))
                good.append(key)
            except ValueError:
                bad += 1
                del index[key]
        try:
            pairs = json.loads(b"[" + b",".join(payloads) + b"]")
            if len(pairs) != len(payloads):
                raise ValueError("a payload spans a comma")
        except ValueError:  # find the bad records one by one
            pairs = [_parse(payload) for payload in payloads]
        loaded: Dict[str, Any] = {}
        decode = self._decode
        for key, pair in zip(good, pairs):
            try:
                if pair is _MISS or pair[0] != key:
                    raise ValueError(key)
                loaded[key] = decode(pair[1])
            except (ValueError, KeyError, TypeError, IndexError):
                bad += 1
                del index[key]
        if bad:
            self.metrics.counter("engine.cache.corrupt").inc(bad)
        return loaded

    # -- the memory level ---------------------------------------------

    def _touch(self, key: str, value: Any) -> None:
        """Move ``key`` to the most-recently-used end (dicts preserve
        insertion order, so re-insertion is the LRU bookkeeping)."""
        if self.max_entries is not None:
            self._memory.pop(key, None)
        self._memory[key] = value

    def _insert(self, key: str, value: Any) -> None:
        """Memory-level insert with LRU eviction at ``max_entries``."""
        self._touch(key, value)
        if self.max_entries is None:
            return
        while len(self._memory) > self.max_entries:
            oldest = next(iter(self._memory))
            del self._memory[oldest]
            self._evictions.inc()

    # -- lookups and writes -------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key`` (``(False, None)`` on a miss)."""
        found = self.get_many((key,))
        if key in found:
            return True, found[key]
        return False, None

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """The hits among ``keys`` as ``{key: value}``; a key left out
        is a miss.

        Counts, promotes and evicts exactly as :meth:`get` on each key
        in order would, but every disk hit of the batch is read and
        decoded at once, before the memory level is updated.
        """
        keys = list(keys)
        with self._lock:
            self._open()
            memory, index = self._memory, self._index
            loaded = self._load([key for key in dict.fromkeys(keys)
                                 if key not in memory and key in index])
            found: Dict[str, Any] = {}
            hits = disk_hits = 0
            for key in keys:
                value = memory.get(key, _MISS)
                if value is not _MISS:
                    self._touch(key, value)
                else:
                    value = loaded.get(key, _MISS)
                    if value is _MISS and key in index:
                        # Evicted since the batch read: read it again.
                        value = self._load([key]).get(key, _MISS)
                    if value is _MISS:
                        continue
                    self._insert(key, value)
                    disk_hits += 1
                found[key] = value
                hits += 1
            self._hits.inc(hits)
            self._disk_hits.inc(disk_hits)
            self._misses.inc(len(keys) - hits)
        return found

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (memory, and disk when
        enabled)."""
        self.put_many(((key, value),))

    def put_many(self, items: Iterable[Tuple[str, Any]]) -> None:
        """Store every ``(key, value)`` pair, in order (memory, and
        disk when enabled).

        On disk the batch is one ``os.write`` to this instance's
        segment, created on the first write.  Every value is encoded
        before that write, so one that cannot be encoded raises and
        leaves the cache unchanged.  Index entries are added only once
        the write has returned.
        """
        items = list(items)
        if not items:
            return
        if self.directory is None:
            with self._lock:
                for key, value in items:
                    self._insert(key, value)
            return
        encode = self._encode
        records: List[bytes] = []
        for key, value in items:
            payload = _ENCODER.encode(
                [key, encode(value)]).encode("ascii")
            records.append(b"%08x %s\n" % (zlib.crc32(payload), payload))
        with self._lock:
            self._open()
            # A write that fails part-way leaves a torn tail, so the
            # segment is this instance's again only once the write has
            # returned; until then the next write starts a new one.
            name, self._segment = self._segment, None
            fd = None
            if name is not None:
                try:
                    fd = os.open(self.directory / name,
                                 os.O_WRONLY | os.O_APPEND)
                except FileNotFoundError:  # deleted: never recreate it
                    pass
            if fd is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                name = f"{os.getpid()}-{os.urandom(8).hex()}{_SUFFIX}"
                fd = os.open(self.directory / name,
                             os.O_WRONLY | os.O_APPEND | os.O_CREAT
                             | os.O_EXCL, 0o666)
            try:
                offset = os.lseek(fd, 0, os.SEEK_END)
                view = memoryview(b"".join(records))
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            self._segment = name
            for (key, value), record in zip(items, records):
                self._index[key] = (name, offset, len(record) - 1)
                offset += len(record)
                self._insert(key, value)

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory level (and, when asked, every segment in
        the directory; the next write starts a new one)."""
        with self._lock:
            self._memory.clear()
            if disk and self.directory is not None:
                self._unopened = False
                self._index.clear()
                self._segment = None
                for path in self.directory.glob("*" + _SUFFIX):
                    path.unlink(missing_ok=True)

    def stats(self) -> Dict[str, int]:
        """Current entry count plus a view of the hit/miss counters."""
        return {
            "entries": len(self._memory),
            "hits": int(self._hits.value),
            "misses": int(self._misses.value),
            "disk_hits": int(self._disk_hits.value),
            "evictions": int(self._evictions.value),
        }
