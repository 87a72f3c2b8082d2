"""The Evaluator: candidate pricing as a cacheable, parallel service.

Every search loop and suite run in the repo used to own a private
``evaluate`` closure; this class centralizes that responsibility:

- **Content addressing** — each candidate is fingerprinted together
  with the evaluator's ``context`` (a description of *what question* is
  being asked: objective identity, mapping policy, ...), so results are
  shareable across runs and processes without identity games.
- **Caching** — a :class:`~repro.engine.cache.ResultCache` absorbs
  repeated candidates; a warm cache answers a whole re-run with zero
  oracle calls.
- **Batch parallelism** — :meth:`map_batch` prices a batch serially or
  on the shared :mod:`~repro.engine.pool`.  Results come back in input
  order and each candidate gets a seed derived from its fingerprint,
  never from batch position, so a parallel run is bit-identical to the
  serial one.
- **Vectorized batch pricing** — objectives exposing ``evaluate_batch``
  (the :class:`~repro.engine.protocol.BatchObjective` shape) get the
  whole pending set in one call, so a structure-of-arrays kernel can
  price a population at once instead of candidate-by-candidate.  The
  fast path changes only *how* values are computed: fingerprints,
  cache keys, per-candidate seeds, and result order are identical to
  the scalar path, and values must be too (batch objectives in this
  repo are bit-identical by construction — see :mod:`repro.hw.batch`).
  An objective can decline a batch by raising
  :class:`~repro.errors.BatchFallback`, which falls back to the scalar
  path transparently.
- **Sharded batch pricing** — with ``jobs > 1``, a large enough
  ``evaluate_batch`` window is split into contiguous shards priced on
  the shared pool and concatenated back in order.  The elementwise
  contract that makes chunking value-neutral makes sharding
  value-neutral for the same reason; small windows stay in-process
  (pickling would dominate), and an objective that cannot pickle is
  priced in-process on every path, so ``jobs`` never changes a result.
- **Chunked streaming** — with ``chunk_size`` set, :meth:`map_batch`
  pushes the pending set through the oracle in fixed-size windows, so
  an arbitrarily large population evaluates under a bounded working
  set (an arena-backed batch objective reuses the same buffers every
  chunk).  Chunking changes neither values nor order: candidates are
  independent, seeds are fingerprint-derived, and batch objectives are
  elementwise, so any chunking of the pending set computes the same
  results.

Telemetry: the evaluator's counters live in one place, a
:class:`~repro.telemetry.metrics.MetricsRegistry` (the caller's, or a
private one).  Oracle calls, cache hits, batch-path hits/fallbacks,
shards, chunk counts/occupancy, and per-candidate wall times are
counted there once, as they happen, under ``engine.*`` (and
``engine.tier.<name>.*`` for explicit fidelity tiers);
:meth:`Evaluator.stats` and :meth:`Evaluator.tier_stats` are views
over those metrics.  Per-batch wall spans go to the tracer.
"""

from __future__ import annotations

import time
from hashlib import sha256
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import pool
from repro.engine.cache import ResultCache
from repro.engine.fingerprint import fingerprint, try_fast_json
from repro.errors import BatchFallback, EngineError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer, get_tracer

__all__ = ["EvalResult", "Evaluator"]

Objective = Callable[..., Any]

#: Mask keeping derived seeds inside numpy's legal seed range.
_SEED_MASK = (1 << 63) - 1

#: Smallest evaluate_batch window worth sharding across the worker
#: pool; below this, pickling candidates and values dominates the kernel.
_SHARD_FLOOR = 64


@dataclass(frozen=True)
class EvalResult:
    """One priced candidate.

    Attributes:
        candidate: The candidate exactly as submitted.
        value: The objective's result for it.
        key: The content address the result is cached under.
        cached: Whether the value came from the cache (no oracle call).
        wall_time_s: Wall-clock cost of the oracle call (0 for hits;
            an even share of the batch call for candidates priced
            through an ``evaluate_batch`` fast path).
        seed: The deterministic per-candidate seed used (or available)
            for the evaluation.
    """

    candidate: Any
    value: Any
    key: str
    cached: bool
    wall_time_s: float
    seed: int


def _timed_call(objective: Objective, candidate: Any, seed: int,
                seeded: bool) -> Tuple[Any, float]:
    """Invoke the objective and self-time it (runs in pool workers too,
    hence module-level for picklability)."""
    started = time.perf_counter()
    value = objective(candidate, seed) if seeded else objective(candidate)
    return value, time.perf_counter() - started


def _batch_call(batch_fn: Callable[..., Any], candidates: List[Any],
                seeds: List[int], seeded: bool) -> List[Any]:
    """One evaluate_batch call (runs in pool workers too, hence
    module-level for picklability)."""
    return list(batch_fn(candidates, seeds) if seeded
                else batch_fn(candidates))


class Evaluator:
    """Prices candidates through an objective, with caching and batching.

    Args:
        objective: ``candidate -> value``; with ``seeded=True``,
            ``(candidate, seed) -> value``.  Runs in pool workers
            when ``jobs > 1`` only if picklable (a module-level
            callable or an instance of a module-level class).
        jobs: Process-pool width for :meth:`map_batch` (1 = in-process
            serial evaluation).
        cache: Result store (a private in-memory one by default).  Pass
            a :class:`ResultCache` with a directory for cross-run reuse.
        seed: Base seed mixed into every per-candidate seed.
        context: Anything fingerprintable describing the evaluation
            question (objective name/version, policy knobs).  Two
            evaluators sharing a cache directory MUST use distinct
            contexts unless their objectives agree.
        seeded: Whether the objective takes a per-candidate seed.
        chunk_size: Evaluate at most this many pending candidates per
            oracle pass (None = the whole pending set at once).  Bounds
            the peak working set without changing values, order, seeds,
            or cache keys.
        metrics: The registry the ``engine.*`` counters/histograms
            live in (a private one by default).  Evaluators sharing a
            registry share their counts, so each needs its own
            registry for :meth:`stats` to report it alone.
        tracer: Tracer receiving per-batch wall spans (defaults to the
            process-global tracer).
    """

    def __init__(self, objective: Objective, *, jobs: int = 1,
                 cache: Optional[ResultCache] = None, seed: int = 0,
                 context: Any = None, seeded: bool = False,
                 chunk_size: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1 (got {jobs})")
        if chunk_size is not None and chunk_size < 1:
            raise EngineError(
                f"chunk_size must be >= 1 (got {chunk_size})")
        self.objective = objective
        self.jobs = int(jobs)
        self.cache = cache if cache is not None else ResultCache()
        self.seed = int(seed)
        self.seeded = bool(seeded)
        self.chunk_size = int(chunk_size) if chunk_size else None
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._tracer = tracer
        self._context_fp = fingerprint(context) if context is not None \
            else ""
        self._key_suffixes: Dict[Optional[str], str] = {}
        self._tiers_cache: Optional[Tuple[Any, ...]] = None

    # -- content addressing -------------------------------------------

    def key_for(self, candidate: Any,
                tier: Optional[str] = None) -> str:
        """The content address of ``candidate`` under this context.

        ``tier`` names the fidelity namespace: ``None`` (the default,
        and the top tier) keys exactly as always, so full-fidelity
        results are shared between direct and funnel-driven runs;
        lower tiers mix their name into the fingerprint so a cheap
        screen can never masquerade as a full-price result.
        """
        # Fast path: the wrapper's canonical JSON is assembled from a
        # precomputed context/tier suffix and the fast-encoded candidate
        # ("candidate" < "context" < "tier" under the sorted-keys
        # encoding, and JSON composes), so only the candidate is encoded
        # per call.  Candidates needing the full canonical reduction
        # fall back to fingerprinting the whole wrapper — which takes
        # the identical slow path, so keys agree either way.
        body = try_fast_json(candidate)
        if body is None:
            if tier is None:
                return fingerprint({"context": self._context_fp,
                                    "candidate": candidate})
            return fingerprint({"context": self._context_fp,
                                "tier": tier, "candidate": candidate})
        suffix = self._key_suffixes.get(tier)
        if suffix is None:
            suffix = ',"context":' + try_fast_json(self._context_fp)
            if tier is not None:
                suffix += ',"tier":' + try_fast_json(tier)
            suffix += "}"
            self._key_suffixes[tier] = suffix
        return sha256(('{"candidate":' + body + suffix)
                      .encode("utf-8")).hexdigest()

    def seed_for(self, key: str) -> int:
        """Per-candidate seed: a pure function of (base seed, key).

        The key is the candidate's content fingerprint, so the seed is
        independent of batch composition, evaluation order, chunking,
        process-pool sharding, and transport — the same candidate gets
        the same seed whether it is priced serially, in a pickled pool
        shard, or through the shared-memory column transport.  That
        invariance is what makes parallel and chunked runs reproduce
        serial ones exactly (enforced by
        ``tests/engine/test_evaluator.py``).
        """
        return (self.seed ^ int(key[:16], 16)) & _SEED_MASK

    # -- evaluation ---------------------------------------------------

    def _fidelity_tiers(self) -> Tuple[Any, ...]:
        if self._tiers_cache is None:
            from repro.engine.protocol import fidelity_tiers
            self._tiers_cache = fidelity_tiers(self.objective)
        return self._tiers_cache

    def _resolve_tier(self, tier: Any) -> Any:
        """Map a tier name (or FidelityTier) to the objective's
        declared tier; None passes through (legacy full fidelity)."""
        if tier is None:
            return None
        name = getattr(tier, "name", tier)
        for declared in self._fidelity_tiers():
            if declared.name == name:
                return declared
        raise EngineError(
            f"objective does not declare fidelity tier {name!r};"
            f" declared: {[t.name for t in self._fidelity_tiers()]}")

    def evaluate(self, candidate: Any) -> Any:
        """Price a single candidate (cache-transparent)."""
        return self.map_batch([candidate])[0].value

    def map_batch(self, candidates: Sequence[Any], *,
                  tier: Any = None) -> List[EvalResult]:
        """Price a batch; results are returned in input order.

        Duplicate candidates within the batch are priced once; repeat
        occurrences (and anything already cached) are marked
        ``cached=True``.

        ``tier`` selects a fidelity rung by name (or
        :class:`~repro.engine.protocol.FidelityTier`) from the
        objective's declared ladder.  ``None`` — and, by the
        tier-equivalence contract, the *top* tier — prices at full
        fidelity under the unchanged legacy cache keys; lower tiers
        evaluate through their own ``evaluate``/``evaluate_batch`` and
        cache under a per-tier namespace.  Chunking, dedup, seeds, and
        parallelism behave identically at every tier.
        """
        resolved = self._resolve_tier(tier)
        tracer = self._tracer if self._tracer is not None else get_tracer()
        with tracer.wall_span("engine.map_batch", track="engine") as span:
            results = self._map_batch(list(candidates), resolved)
        if tracer.enabled and span.args is None:
            fresh = sum(1 for r in results if not r.cached)
            span.args = {"batch": len(results), "oracle_calls": fresh,
                         "jobs": self.jobs}
            if resolved is not None:
                span.args["tier"] = resolved.name
        return results

    def _map_batch(self, candidates: List[Any],
                   tier: Any = None) -> List[EvalResult]:
        if tier is None:
            namespace = None
            scalar_fn = self.objective
            batch_fn = getattr(self.objective, "evaluate_batch", None)
            tier_name = None
        else:
            is_top = tier is self._fidelity_tiers()[-1]
            namespace = None if is_top else tier.name
            scalar_fn = tier.evaluate
            batch_fn = tier.evaluate_batch
            tier_name = tier.name
        keys = [self.key_for(candidate, namespace)
                for candidate in candidates]
        # One probe per batch, over the distinct keys in first-seen
        # order (a duplicate is answered by its first occurrence).
        values = self.cache.get_many(dict.fromkeys(keys))
        fresh_keys: set = set()
        pending: Dict[str, Any] = {}
        for key, candidate in zip(keys, candidates):
            if key not in values:
                pending.setdefault(key, candidate)
        wall: Dict[str, float] = {}
        if pending:
            order = list(pending)
            step = self.chunk_size or len(order)
            windows = range(0, len(order), step)
            for lo in windows:
                window = order[lo:lo + step]
                outcomes = self._run_pending(
                    [pending[k] for k in window],
                    [self.seed_for(k) for k in window],
                    scalar_fn, batch_fn, tier_name,
                )
                self.cache.put_many(
                    (key, value) for key, (value, _) in zip(window, outcomes))
                for key, (value, wall_s) in zip(window, outcomes):
                    values[key] = value
                    wall[key] = wall_s
                    fresh_keys.add(key)
            self.metrics.counter("engine.oracle_passes").inc()
            if self.chunk_size is not None:
                self.metrics.counter("engine.chunks").inc(len(windows))
                occupancy = self.metrics.histogram(
                    "engine.chunk_occupancy")
                for lo in windows:
                    occupancy.record(
                        min(step, len(order) - lo) / step)
        self._publish(len(candidates), len(pending), tier_name)

        results: List[EvalResult] = []
        seen: set = set()
        for key, candidate in zip(keys, candidates):
            first_fresh = key in fresh_keys and key not in seen
            seen.add(key)
            results.append(EvalResult(
                candidate=candidate,
                value=values[key],
                key=key,
                cached=not first_fresh,
                wall_time_s=wall.get(key, 0.0) if first_fresh else 0.0,
                seed=self.seed_for(key),
            ))
        return results

    def _run_pending(self, candidates: List[Any], seeds: List[int],
                     scalar_fn: Objective,
                     batch_fn: Optional[Callable[..., Any]],
                     tier_name: Optional[str]
                     ) -> List[Tuple[Any, float]]:
        walls = [self.metrics.histogram("engine.eval_wall_s")]
        if tier_name is not None:
            walls.append(self.metrics.histogram(
                f"engine.tier.{tier_name}.eval_wall_s"))
        if batch_fn is not None:
            started = time.perf_counter()
            try:
                values = self._call_batch(batch_fn, candidates, seeds)
            except BatchFallback:
                self._count("batch_fallbacks", len(candidates),
                            tier_name)
            else:
                if len(values) != len(candidates):
                    raise EngineError(
                        f"evaluate_batch returned {len(values)} values"
                        f" for {len(candidates)} candidates")
                elapsed = time.perf_counter() - started
                self._count("batch_hits", len(values), tier_name)
                share = elapsed / len(values) if values else 0.0
                # One even share per candidate: one O(1) record.
                for histogram in walls:
                    histogram.record(share, len(values))
                return [(value, share) for value in values]
        if self.jobs == 1 or len(candidates) == 1 \
                or not pool.picklable(scalar_fn):
            outcomes = [_timed_call(scalar_fn, candidate, seed,
                                    self.seeded)
                        for candidate, seed in zip(candidates, seeds)]
        else:
            # One task per candidate: scalar oracles (the mission DES)
            # vary in cost, so the pool balances them dynamically.
            outcomes = pool.parallel_map(
                _timed_call,
                [scalar_fn] * len(candidates),
                candidates,
                seeds,
                [self.seeded] * len(candidates),
                jobs=self.jobs)
        for histogram in walls:
            for _, wall_s in outcomes:
                histogram.record(wall_s)
        return outcomes

    def _call_batch(self, batch_fn: Callable[..., Any],
                    candidates: List[Any],
                    seeds: List[int]) -> List[Any]:
        """One oracle window through ``evaluate_batch``.

        With ``jobs > 1`` and a window large enough to amortize the
        pickling, the window is split into ``jobs`` contiguous shards
        priced concurrently and concatenated back in submission order —
        value-identical to the single call because batch objectives are
        elementwise and seeds are fingerprint-derived (the same
        contract that makes chunking neutral).  A shard raising
        :class:`BatchFallback` falls the whole window back to the
        scalar path; an objective that cannot pickle is priced by the
        in-process batch call.
        """
        total = len(candidates)
        if self.jobs > 1 and total >= max(2 * self.jobs, _SHARD_FLOOR) \
                and pool.picklable(batch_fn):
            step = -(-total // self.jobs)  # ceil division
            bounds = [(lo, min(lo + step, total))
                      for lo in range(0, total, step)]
            parts = pool.parallel_map(
                _batch_call,
                [batch_fn] * len(bounds),
                [candidates[lo:hi] for lo, hi in bounds],
                [seeds[lo:hi] for lo, hi in bounds],
                [self.seeded] * len(bounds),
                jobs=self.jobs)
            for (lo, hi), part in zip(bounds, parts):
                if len(part) != hi - lo:
                    raise EngineError(
                        f"evaluate_batch shard returned"
                        f" {len(part)} values for {hi - lo}"
                        f" candidates")
            self.metrics.counter("engine.batch_shards").inc(len(bounds))
            return [value for part in parts for value in part]
        return _batch_call(batch_fn, candidates, seeds, self.seeded)

    def _count(self, name: str, amount: int,
               tier_name: Optional[str]) -> None:
        """Count ``amount`` under ``engine.<name>`` and, for an explicit
        tier, ``engine.tier.<tier>.<name>`` (zero amounts register
        nothing)."""
        if not amount:
            return
        self.metrics.counter(f"engine.{name}").inc(amount)
        if tier_name is not None:
            self.metrics.counter(
                f"engine.tier.{tier_name}.{name}").inc(amount)

    def _publish(self, batch: int, fresh: int,
                 tier_name: Optional[str] = None) -> None:
        self.metrics.counter("engine.batches").inc()
        self.metrics.counter("engine.candidates").inc(batch)
        if tier_name is not None:
            self.metrics.counter(
                f"engine.tier.{tier_name}.candidates").inc(batch)
        self._count("oracle_calls", fresh, tier_name)
        self._count("cache_hits", batch - fresh, tier_name)

    # -- introspection ------------------------------------------------

    def tier_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier counters, keyed by tier name, cheapest tier first.

        A view over the ``engine.tier.<name>.*`` metrics: only batches
        priced through an explicit ``tier=`` are counted there (legacy
        ``map_batch`` calls land in :meth:`stats` alone), and a tier
        appears once it has priced a batch.
        """
        value = self.metrics.value
        stats: Dict[str, Dict[str, int]] = {}
        for tier in self._fidelity_tiers():
            prefix = f"engine.tier.{tier.name}."
            if prefix + "candidates" in self.metrics:
                stats[tier.name] = {
                    name: int(value(prefix + name))
                    for name in ("candidates", "oracle_calls",
                                 "cache_hits", "batch_hits",
                                 "batch_fallbacks")}
        return stats

    def stats(self) -> Dict[str, int]:
        """Oracle/batch counters merged with the cache's own stats (a
        view over the ``engine.*`` metrics).  ``chunks`` counts oracle
        windows: ``engine.chunks`` when chunking, else one per
        ``map_batch`` that reached the oracle."""
        value = self.metrics.value
        chunks = "engine.chunks" if self.chunk_size is not None \
            else "engine.oracle_passes"
        return {"oracle_calls": int(value("engine.oracle_calls")),
                "batches": int(value("engine.batches")),
                "batch_hits": int(value("engine.batch_hits")),
                "batch_fallbacks": int(value("engine.batch_fallbacks")),
                "batch_shards": int(value("engine.batch_shards")),
                "chunks": int(value(chunks)),
                **self.cache.stats()}
