"""The evaluation daemon: cross-client batch coalescing over asyncio.

The paper's continuous-DSE argument (§3.1) needs pricing to be a
*service*, not a one-shot job: the SoA kernels amortize best at batch
sizes no single interactive client reaches (12x+ at 1k candidates per
EXPERIMENTS.md S3), so the server's job is to manufacture those batches
out of many small requests.

One :class:`EvalServer` owns, per objective, a :class:`Lane` — an
:class:`~repro.engine.evaluator.Evaluator` built with the CLI's exact
``dse-codesign`` context plus a *pending set* keyed by cache key.  A
``submit`` answers cache hits immediately and parks the request on
the pending entry of each of its misses (entries dedup across clients:
two tenants asking for the same candidate share one oracle slot).  The
pending set flushes as one ``map_batch`` call when it reaches
``max_batch`` occupancy or when the oldest entry has waited
``max_wait_ms`` — ten clients asking for 100 candidates each get
priced as one 1k-candidate kernel call instead of ten sub-critical
ones.

Connections: the daemon frames each socket read into lines itself and
dispatches every complete line at once, in order.  ``ping``,
``stats``, ``shutdown``, rejections and all-hit submits get their
response there and then; a submit with misses gets one future, which
the flush pricing its last miss resolves.  No request has a task of
its own, except a ``no_coalesce`` one (the per-request baseline).
Responses leave in request order, and each in-order run of finished
responses goes out with one ``write``.

Equivalence contract: the server changes *when* and *with whom*
candidates are priced, never *what* is priced.  Keys come from the
lane evaluator's ``key_for`` (CLI-identical context), seeds are
fingerprint-derived, and batch objectives are elementwise, so served
values — and the cache entries they leave behind — are byte-identical
to a serial ``repro dse`` run; a server-primed cache replays ``repro
run`` with zero oracle calls.

Backpressure: admission control rejects (never queues unboundedly) —
``overloaded`` when a tenant exceeds its in-flight candidate cap or
the pending set would exceed ``max_queue``, ``draining`` once shutdown
has begun.  All oracle work runs on a single worker thread: flushes
from every lane serialize there, which both bounds CPU pressure and
keeps the per-process scratch arena of the batch objectives
single-threaded.

Dashboard (one shared :class:`~repro.telemetry.MetricsRegistry`):
``serve.queue_depth`` gauge, ``serve.batch_occupancy`` histogram,
``serve.flushes`` / ``serve.coalesced_batches`` counters,
``serve.request_latency_s`` histogram (p50/p99 via ``summary()``),
``engine.cache.*`` totals from the shared cache, and
``engine.cache.tenant.<label>.hits`` / ``.misses`` per tenant.  Lane
evaluators count ``engine.*`` into private registries, one per lane.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (Any, Deque, Dict, Iterable, List, Mapping, Optional,
                    Set, Union)

from repro.engine import Evaluator, ResultCache
from repro.errors import ServeError, SpecError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    Submission,
    decode_line,
    decode_submission,
    encode_line,
    error_response,
    evaluator_context,
)
from repro.telemetry import MetricsRegistry

__all__ = ["ServeConfig", "EvalServer"]

_log = logging.getLogger(__name__)

#: What dispatching one wire line yields: the response itself, or a
#: future of it while the request's misses are being priced.
Reply = Union[Dict[str, Any], "asyncio.Future[Dict[str, Any]]"]


@dataclass(frozen=True)
class ServeConfig:
    """Daemon tuning knobs.

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; read the bound port back from
            :attr:`EvalServer.port`).
        max_batch: Flush the pending set at this occupancy.
        max_wait_ms: Flush a non-empty pending set after the oldest
            entry has waited this long (the latency bound a candidate
            pays for the chance to coalesce).
        max_queue: Admission bound on pending candidates per lane;
            submissions that would exceed it get ``overloaded``.
        max_inflight: Per-tenant bound on candidates submitted but not
            yet answered.
        cache_dir: Optional on-disk cache directory (what makes the
            server a cache *primer* for later ``repro run`` replays).
        cache_max_entries: In-memory cache bound (LRU eviction) for
            long-lived daemons.
        jobs: Evaluator process-pool width for flushes.
        chunk_size: Evaluator chunk size (bounds flush working set).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 1024
    max_wait_ms: float = 50.0
    max_queue: int = 8192
    max_inflight: int = 4096
    cache_dir: Optional[str] = None
    cache_max_entries: Optional[int] = None
    jobs: int = 1
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(
                f"max_batch must be >= 1 (got {self.max_batch})")
        if self.max_wait_ms < 0:
            raise ServeError(
                f"max_wait_ms must be >= 0 (got {self.max_wait_ms})")
        if self.max_queue < 1:
            raise ServeError(
                f"max_queue must be >= 1 (got {self.max_queue})")
        if self.max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1 (got {self.max_inflight})")


@dataclass(eq=False)
class _Request:
    """One admitted submit with misses still being priced.

    It is parked on the pending entry of each of its ``fresh`` keys.
    Every flush that prices one of them counts ``outstanding`` down;
    the last one resolves ``future`` with the finished response.  A
    failed flush resolves it with the ``internal`` envelope at once.
    """

    submission: Submission
    keys: List[str]
    values: Dict[str, Any]
    arrival: float
    future: "asyncio.Future[Dict[str, Any]]"
    fresh: Set[str] = field(default_factory=set)
    outstanding: int = 0


@dataclass
class _Pending:
    """One parked cache miss: the candidate plus every request waiting
    on it.  A disconnected tenant's request still counts down, so its
    unread response never holds up the rest of the batch."""

    candidate: Mapping[str, Any]
    requests: List[_Request] = field(default_factory=list)


class _Connection:
    """One client's replies in request order.

    Each outbox item is a finished response or a future of one; the
    delivery loop writes every in-order run of finished ones with one
    ``write``.
    """

    def __init__(self) -> None:
        self.outbox: Deque[Reply] = deque()
        self.reading = True
        self.closing = False
        self.wake = asyncio.Event()  # set on each push and at EOF

    def push(self, reply: Reply) -> None:
        self.outbox.append(reply)
        self.wake.set()


class Lane:
    """Per-objective pricing lane: evaluator + pending set + deadline."""

    def __init__(self, objective_name: str, evaluator: Evaluator):
        self.objective_name = objective_name
        self.evaluator = evaluator
        self.pending: Dict[str, _Pending] = {}
        self.timer: Optional[asyncio.TimerHandle] = None


class EvalServer:
    """The daemon.  Construct, then ``await run()`` (or drive
    :meth:`start` / :meth:`drain` yourself from tests)."""

    def __init__(self, config: ServeConfig = ServeConfig(), *,
                 metrics: Optional[MetricsRegistry] = None):
        self.config = config
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.cache = ResultCache(
            config.cache_dir,
            max_entries=config.cache_max_entries,
            metrics=self.metrics)
        self._lanes: Dict[str, Lane] = {}
        self._inflight: Dict[str, int] = {}
        self._oracle = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-oracle")
        self._flushes: Set["asyncio.Task[None]"] = set()
        self._connections: Dict["asyncio.Task[Any]",
                                asyncio.StreamWriter] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self.draining = False
        self.port: Optional[int] = None

    # -- lanes --------------------------------------------------------

    def lane(self, objective_name: str) -> Lane:
        """The lane for an objective (created on first use).  Every
        lane shares the server cache; contexts embed the objective
        name, so keys cannot collide across lanes.  Each lane's
        evaluator counts into its own private registry, so a lane's
        ``stats`` entry reports that lane alone."""
        existing = self._lanes.get(objective_name)
        if existing is not None:
            return existing
        from repro.spec.registry import OBJECTIVES

        evaluator = Evaluator(
            OBJECTIVES.get(objective_name),
            jobs=self.config.jobs,
            cache=self.cache,
            chunk_size=self.config.chunk_size,
            context=evaluator_context(objective_name),
        )
        created = Lane(objective_name, evaluator)
        self._lanes[objective_name] = created
        return created

    def _queue_depth(self) -> int:
        return sum(len(lane.pending) for lane in self._lanes.values())

    def _set_queue_gauge(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(
            self._queue_depth())

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host,
            self.config.port, limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> None:
        """Serve until :meth:`request_stop` (or a ``shutdown`` op),
        then drain and close."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        try:
            await self._stopped.wait()
        finally:
            await self.aclose()

    def request_stop(self) -> None:
        """Ask :meth:`run` to drain and exit (signal-handler safe)."""
        if self._stopped is not None:
            self._stopped.set()

    async def drain(self) -> None:
        """Stop admitting, flush every lane, wait for in-flight work."""
        self.draining = True
        for lane in self._lanes.values():
            if lane.timer is not None:
                lane.timer.cancel()
                lane.timer = None
            while lane.pending:
                await self._flush(lane)
        while self._flushes:
            await asyncio.gather(*list(self._flushes),
                                 return_exceptions=True)

    async def aclose(self) -> None:
        """Graceful shutdown: drain, close the listener and every open
        connection, stop the oracle thread."""
        await self.drain()
        # One scheduling breath so handlers whose waiters the drain
        # just resolved can deliver their responses before the loop
        # shuts down under them.
        await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
        # Each handler then sees EOF and returns, instead of being
        # cancelled mid-read when the loop stops.
        for writer in self._connections.values():
            writer.transport.abort()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._oracle.shutdown(wait=True)

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One connection: requests may be pipelined (a client can
        write many lines before reading), and responses are delivered
        in request order.  Every complete line of a read is dispatched
        at once; a submit needs no task of its own.  Pipelining is what
        lets a single client park many sub-critical submissions on the
        coalescer at once instead of paying one flush round-trip per
        request."""
        connection = _Connection()
        delivery = asyncio.get_running_loop().create_task(
            self._deliver(connection, writer))
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            await self._read(reader, connection)
        except ConnectionError:
            pass
        finally:
            connection.reading = False
            connection.wake.set()
            try:
                await delivery
            except ConnectionError:
                pass
            for leftover in connection.outbox:  # undelivered after shutdown
                if isinstance(leftover, asyncio.Future):
                    leftover.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._connections[handler]

    async def _read(self, reader: asyncio.StreamReader,
                    connection: _Connection) -> None:
        """Frame the byte stream into lines and dispatch each one.  A
        final line without a newline is answered at EOF; a line longer
        than :data:`MAX_LINE_BYTES` is answered with ``bad_request``
        after everything before it, and ends the connection."""
        partial = bytearray()
        while not connection.closing:
            data = await reader.read(MAX_LINE_BYTES)
            if not data:
                if partial:
                    connection.push(self._dispatch(bytes(partial)))
                return
            lines: List[bytes] = []
            if b"\n" in data:
                lines = data.split(b"\n")
                if partial:
                    lines[0] = bytes(partial + lines[0])
                partial = bytearray(lines.pop())
            else:
                partial += data
            for line in lines:
                if len(line) > MAX_LINE_BYTES:
                    break
                connection.push(self._dispatch(line))
            else:
                if len(partial) <= MAX_LINE_BYTES:
                    continue
            connection.push(error_response(
                "?", "bad_request",
                f"wire line exceeds {MAX_LINE_BYTES} bytes"))
            return

    async def _deliver(self, connection: _Connection,
                       writer: asyncio.StreamWriter) -> None:
        """Write replies in request order until reading has stopped and
        the outbox is empty, the peer is gone, or a ``shutdown`` was
        acknowledged."""
        outbox = connection.outbox
        while outbox or connection.reading:
            if not outbox:
                connection.wake.clear()
                await connection.wake.wait()
                continue
            if isinstance(outbox[0], asyncio.Future):
                await outbox[0]
            ready: List[Dict[str, Any]] = []
            while outbox and not connection.closing:
                head = outbox[0]
                if isinstance(head, asyncio.Future):
                    if not head.done():
                        break
                    head = head.result()
                outbox.popleft()
                ready.append(head)
                if head.get("op") == "shutdown":
                    connection.closing = True
            try:
                writer.write(b"".join(encode_line(response)
                                      for response in ready))
                await writer.drain()
            except (ConnectionError, OSError):
                # A disconnected peer's responses are counted and
                # dropped; its batch results are already cached for
                # everyone else.
                self.metrics.counter("serve.dropped_responses").inc(
                    len(ready))
                connection.closing = True
            if connection.closing:
                return

    def _dispatch(self, line: bytes) -> Reply:
        try:
            payload = decode_line(line)
        except SpecError as error:
            return error_response("?", "bad_request", str(error))
        op = payload["op"]
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", **self.stats()}
        if op == "shutdown":
            self.request_stop()
            return {"ok": True, "op": "shutdown"}
        try:
            submission = decode_submission(payload)
        except SpecError as error:
            return error_response("submit", "bad_request", str(error))
        return self._submit(submission)

    # -- the coalescer ------------------------------------------------

    def _submit(self, submission: Submission) -> Reply:
        """Admit one submission.  A rejection or an all-hit request is
        answered at once; otherwise the reply is a future that the
        flush pricing its last miss resolves."""
        loop = asyncio.get_running_loop()
        arrival = loop.time()
        if self.draining:
            return error_response("submit", "draining",
                                  "server is shutting down")
        tenant = submission.tenant
        count = len(submission.candidates)
        inflight = self._inflight.get(tenant, 0)
        if inflight + count > self.config.max_inflight:
            return error_response(
                "submit", "overloaded",
                f"tenant {tenant!r} would have {inflight + count}"
                f" candidates in flight"
                f" (cap {self.config.max_inflight})",
                retry_after_ms=self.config.max_wait_ms)
        lane = self.lane(submission.objective)
        # Classify before admitting: hits answer immediately whatever
        # the queue looks like; only genuinely new misses count
        # against the queue bound.
        keys = [lane.evaluator.key_for(candidate)
                for candidate in submission.candidates]
        probe = [key for key in dict.fromkeys(keys)
                 if key not in lane.pending]
        resolved = self.cache.get_many(probe)
        new_keys = [key for key in probe if key not in resolved]
        if new_keys and not submission.no_coalesce \
                and self._queue_depth() + len(new_keys) \
                > self.config.max_queue:
            return error_response(
                "submit", "overloaded",
                f"pending queue would exceed {self.config.max_queue}"
                f" candidates",
                retry_after_ms=self.config.max_wait_ms)
        hits = sum(1 for key in keys if key in resolved)
        self._tenant_count(tenant, "hits", hits)
        self._tenant_count(tenant, "misses", len(keys) - hits)
        if hits == len(keys):
            return self._respond(submission, keys, resolved, (),
                                 arrival)
        self._inflight[tenant] = inflight + count
        if submission.no_coalesce:
            return loop.create_task(self._price_direct(
                lane, submission, keys, resolved, arrival))
        return self._park(lane, submission, keys, resolved, arrival)

    def _release(self, submission: Submission) -> None:
        """Take a finished request's candidates out of its tenant's
        in-flight count."""
        tenant = submission.tenant
        remaining = self._inflight.get(tenant, 0) \
            - len(submission.candidates)
        if remaining > 0:
            self._inflight[tenant] = remaining
        else:
            self._inflight.pop(tenant, None)

    def _respond(self, submission: Submission, keys: List[str],
                 values: Mapping[str, Any], fresh: Iterable[str],
                 arrival: float) -> Dict[str, Any]:
        """The success envelope.  The first occurrence of a ``fresh``
        key was priced for this request; every other result is
        ``cached``."""
        unreported = set(fresh)
        results = []
        for key, candidate in zip(keys, submission.candidates):
            cached = key not in unreported
            unreported.discard(key)
            results.append({"candidate": dict(candidate),
                            "value": values[key], "key": key,
                            "cached": cached})
        self.metrics.histogram("serve.request_latency_s").record(
            asyncio.get_running_loop().time() - arrival)
        self.metrics.counter("serve.requests").inc()
        self.metrics.counter("serve.candidates").inc(len(keys))
        return {"ok": True, "op": "submit",
                "objective": submission.objective,
                "tenant": submission.tenant, "results": results}

    async def _price_direct(self, lane: Lane, submission: Submission,
                            keys: List[str], resolved: Dict[str, Any],
                            arrival: float) -> Dict[str, Any]:
        """Coalescing disabled: price this request's misses as their
        own batch (the benchmark baseline — keys and values are
        unchanged, only the batch population shrinks)."""
        misses: Dict[str, Any] = {}
        for key, candidate in zip(keys, submission.candidates):
            if key not in resolved and key not in misses:
                misses[key] = candidate
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._oracle, lane.evaluator.map_batch,
                list(misses.values()))
        except Exception as error:
            _log.exception("oracle failed on a %d-candidate %s batch",
                           len(misses), lane.objective_name)
            return error_response("submit", "internal",
                                  f"oracle failed: {error}")
        finally:
            self._release(submission)
        self.metrics.counter("serve.flushes").inc()
        self.metrics.histogram("serve.batch_occupancy").record(
            len(misses))
        for key, outcome in zip(misses, outcomes):
            resolved[key] = outcome.value
        return self._respond(submission, keys, resolved, misses,
                             arrival)

    def _park(self, lane: Lane, submission: Submission,
              keys: List[str], resolved: Dict[str, Any],
              arrival: float) -> "asyncio.Future[Dict[str, Any]]":
        """Park this request's misses on the shared pending set; the
        returned future resolves with its response."""
        loop = asyncio.get_running_loop()
        request = _Request(submission, keys, resolved, arrival,
                           loop.create_future())
        for key, candidate in zip(keys, submission.candidates):
            if key in resolved or key in request.fresh:
                continue
            entry = lane.pending.get(key)
            if entry is None:
                entry = lane.pending[key] = _Pending(candidate)
            entry.requests.append(request)
            request.fresh.add(key)
        request.outstanding = len(request.fresh)
        self._set_queue_gauge()
        if len(lane.pending) >= self.config.max_batch:
            self._schedule_flush(lane)
        elif lane.timer is None:
            lane.timer = loop.call_later(
                self.config.max_wait_ms / 1000.0,
                self._schedule_flush, lane)
        return request.future

    def _settle(self, request: _Request,
                response: Dict[str, Any]) -> None:
        request.outstanding = 0
        self._release(request.submission)
        if not request.future.done():  # cancelled if the peer left
            request.future.set_result(response)

    def _schedule_flush(self, lane: Lane) -> None:
        if lane.timer is not None:
            lane.timer.cancel()
            lane.timer = None
        task = asyncio.get_running_loop().create_task(
            self._flush(lane))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _flush(self, lane: Lane) -> None:
        """Price up to ``max_batch`` pending entries as one oracle
        batch and count down every request waiting on them."""
        if lane.timer is not None:
            lane.timer.cancel()
            lane.timer = None
        if not lane.pending:
            return
        taken = list(lane.pending.items())[:self.config.max_batch]
        for key, _ in taken:
            del lane.pending[key]
        self._set_queue_gauge()
        entries = [entry for _, entry in taken]
        self.metrics.counter("serve.flushes").inc()
        self.metrics.histogram("serve.batch_occupancy").record(
            len(entries))
        if len({request for entry in entries
                for request in entry.requests}) > 1:
            self.metrics.counter("serve.coalesced_batches").inc()
            self.metrics.counter("serve.coalesced_candidates").inc(
                len(entries))
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._oracle, lane.evaluator.map_batch,
                [entry.candidate for entry in entries])
        except Exception as error:
            # Whatever the objective raised, every waiting request gets
            # an answer now rather than its client timeout.
            _log.exception("oracle failed on a %d-candidate %s flush",
                           len(entries), lane.objective_name)
            failure = error_response("submit", "internal",
                                     f"oracle failed: {error}")
            for entry in entries:
                for request in entry.requests:
                    if request.outstanding:
                        self._settle(request, failure)
            return
        for (key, entry), outcome in zip(taken, outcomes):
            for request in entry.requests:
                if not request.outstanding:  # settled by a failure
                    continue
                request.values[key] = outcome.value
                request.outstanding -= 1
                if not request.outstanding:
                    self._settle(request, self._respond(
                        request.submission, request.keys,
                        request.values, request.fresh,
                        request.arrival))
        if len(lane.pending) >= self.config.max_batch:
            self._schedule_flush(lane)

    # -- accounting ---------------------------------------------------

    def _tenant_count(self, tenant: str, name: str,
                      amount: int) -> None:
        if amount:
            self.metrics.counter(
                f"engine.cache.tenant.{tenant}.{name}").inc(amount)

    def tenant_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant cache counters, recovered from the namespaced
        metrics (``engine.cache.tenant.<label>.<counter>``) — the
        registry IS the store; there is no parallel tree."""
        prefix = "engine.cache.tenant."
        tenants: Dict[str, Dict[str, float]] = {}
        snapshot = self.metrics.snapshot()
        for name, fields in snapshot.items():
            if not name.startswith(prefix):
                continue
            tenant, _, counter = name[len(prefix):].rpartition(".")
            tenants.setdefault(tenant, {})[counter] = fields["value"]
        return tenants

    def stats(self) -> Dict[str, Any]:
        """The dashboard snapshot the ``stats`` op returns."""
        snapshot = self.metrics.snapshot()

        def _value(name: str) -> float:
            return snapshot.get(name, {}).get("value", 0.0)

        latency = self.metrics.histogram(
            "serve.request_latency_s").summary()
        occupancy = self.metrics.histogram(
            "serve.batch_occupancy").summary()
        return {
            "serve": {
                "requests": _value("serve.requests"),
                "candidates": _value("serve.candidates"),
                "flushes": _value("serve.flushes"),
                "coalesced_batches": _value(
                    "serve.coalesced_batches"),
                "coalesced_candidates": _value(
                    "serve.coalesced_candidates"),
                "dropped_responses": _value(
                    "serve.dropped_responses"),
                "queue_depth": self._queue_depth(),
                "request_latency_s": latency,
                "batch_occupancy": occupancy,
            },
            "cache": self.cache.stats(),
            "tenants": self.tenant_stats(),
            "lanes": {name: lane.evaluator.stats()
                      for name, lane in self._lanes.items()},
        }
