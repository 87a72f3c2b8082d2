"""Span shim: attribute wall time to the program's layers from outside.

The benchmark does not edit the program.  Instead it replaces a few
public functions of each layer with a wrapper that records a span
around the call (:func:`install`), runs the program in-process, and
aggregates per layer:

* ``calls`` -- spans recorded;
* ``self_ns`` -- span time minus the time covered by child spans
  (spans nest per thread, so a daemon's event-loop and oracle threads
  keep separate stacks);
* ``items`` -- work done, as counted by the layer's counter (candidates
  for batch calls, hits for cache lookups);
* ``child_spans`` -- direct child spans, whose shim cost lands in this
  layer's self time and is subtracted by :func:`corrected`.

:func:`calibrate` measures that shim cost on a wrapped no-op (the
minimum is the harness cost, median minus minimum the noise).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from statistics import median

Counter = Optional[Callable[[Tuple[Any, ...], Any], int]]

#: Name of the root span (``repro.cli.main``); its self time is the
#: wall the named layers do not account for.
ROOT = "cli.main"


def _one(args: Tuple[Any, ...], result: Any) -> int:
    return 1


def _arg_len(args: Tuple[Any, ...], result: Any) -> int:
    return len(args[1])


def _sample_n(args: Tuple[Any, ...], result: Any) -> int:
    return len(result)


def _hit(args: Tuple[Any, ...], result: Any) -> int:
    return 1 if result[0] else 0


#: (layer, module, attribute path, counter).  Every entry is a public
#: function or method of the program; a layer may own several.
LAYERS: Sequence[Tuple[str, str, str, Counter]] = (
    ("dse.propose", "repro.dse.space", "DesignSpace.sample", _sample_n),
    ("dse.propose", "repro.dse.space", "DesignSpace.config_at", _one),
    ("dse.tell", "repro.dse.search", "ConfigStrategy.tell", _arg_len),
    ("dse.funnel", "repro.dse.funnel", "FunnelStrategy.ask", None),
    ("dse.funnel", "repro.dse.funnel", "FunnelStrategy.tell", None),
    ("engine.map_batch", "repro.engine.evaluator", "Evaluator.map_batch",
     _arg_len),
    ("engine.key", "repro.engine.evaluator", "Evaluator.key_for", _one),
    ("engine.cache.get", "repro.engine.cache", "ResultCache.get", _hit),
    ("engine.cache.put", "repro.engine.cache", "ResultCache.put", _one),
    ("oracle.suite", "repro.dse.objectives",
     "SuiteObjective.evaluate_batch", _arg_len),
    ("oracle.pricing", "repro.dse.objectives",
     "MissionObjective.pricing_screen_batch", _arg_len),
    ("oracle.fleet", "repro.dse.objectives",
     "MissionObjective.evaluate_batch", _arg_len),
    ("oracle.mission", "repro.dse.objectives", "MissionObjective.__call__",
     _one),
)


class SpanStats:
    """Per-layer span aggregates with per-thread nesting.

    Each thread keeps its own stack and its own records, so recording
    a span takes no lock; :meth:`snapshot` merges the threads.  A
    record is ``[calls, self_ns, items, child_spans]``; a frame on a
    stack is ``[layer, start_ns, child_ns, children]``.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Dict[str, List[int]]] = []

    def _state(self) -> Tuple[List[List[Any]], Dict[str, List[int]]]:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {})
            with self._lock:
                self._threads.append(state[1])
            return state

    def enter(self, layer: str) -> List[Any]:
        frame = [layer, 0, 0, 0]
        self._state()[0].append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: List[Any], items: int = 0) -> int:
        """Close ``frame`` (the innermost open span); returns its
        duration in ns."""
        duration = self.clock() - frame[1]
        stack, records = self._state()
        stack.pop()
        layer = frame[0]
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent[3] += 1
            # Work is counted once, at the outermost span of a layer
            # (sample() calls config_at(): one candidate, not two).
            if parent[0] == layer:
                items = 0
        record = records.get(layer)
        if record is None:
            record = records[layer] = [0, 0, 0, 0]
        record[0] += 1
        record[1] += duration - frame[2]
        record[2] += items
        record[3] += frame[3]
        return duration

    def wrap(self, layer: str, fn: Callable[..., Any],
             counter: Counter = None) -> Callable[..., Any]:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(layer)
            items = 0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    items = counter(args, result)
                return result
            finally:
                exit_(frame, items)
        return traced

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-layer totals over every thread (call once spans have
        closed)."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            for records in self._threads:
                for layer, record in list(records.items()):
                    into = merged.setdefault(layer, [0, 0, 0, 0])
                    for i, value in enumerate(record):
                        into[i] += value
        return {name: {"calls": r[0], "self_ns": r[1], "items": r[2],
                       "child_spans": r[3]}
                for name, r in merged.items()}


def install(stats: SpanStats,
            layers: Sequence[Tuple[str, str, str, Counter]] = LAYERS
            ) -> List[Tuple[Any, str, Any]]:
    """Wrap every layer function in place; returns what to restore."""
    undo = []
    for layer, module_name, path, counter in layers:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, stats.wrap(layer, original, counter))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: Sequence[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _noop() -> None:
    return None


def calibrate(*, batches: int = 200, calls: int = 500
              ) -> Dict[str, float]:
    """Cost of one span, from a wrapped no-op against the bare no-op.

    Returns ``span_ns`` (the minimum per-call difference over batches:
    the shim's own cost) and ``noise_ns`` (median minus minimum: what
    the environment adds on top)."""
    stats = SpanStats()
    wrapped = stats.wrap("harness.noop", _noop)
    clock = time.perf_counter_ns
    costs = []
    for _ in range(batches):
        start = clock()
        for _ in range(calls):
            _noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        costs.append(max(0.0, (clock() - start - bare) / calls))
    low = min(costs)
    return {"span_ns": low, "noise_ns": median(costs) - low}


#: Layers whose corrected self time is below this many noise units are
#: reported as unresolved.
SNR_FLOOR = 3.0


def corrected(record: Dict[str, int], span_ns: float,
              noise_ns: float) -> Tuple[float, float]:
    """``(self_s, snr)`` of one layer with the shim cost of its child
    spans subtracted.  The noise of a layer is ``noise_ns`` per span it
    recorded or parented; ``snr`` is ``inf`` when that is zero."""
    spans = record["calls"] + record["child_spans"]
    self_ns = max(0.0, record["self_ns"] - span_ns * record["child_spans"])
    noise = noise_ns * spans
    snr = self_ns / noise if noise > 0 else float("inf")
    return self_ns / 1e9, snr
