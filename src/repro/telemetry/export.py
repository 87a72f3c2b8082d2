"""Exporters: Chrome trace-event JSON and metrics JSON with provenance.

The trace format is the Chrome/Perfetto trace-event JSON object form
(``{"traceEvents": [...]}``), loadable in ``chrome://tracing`` or
https://ui.perfetto.dev.  Simulated-time events are placed under pid 1
("simulated time") and wall-clock self-profiling spans under pid 2
("wall clock"), so the two clock domains never interleave on one track.
Each distinct span/instant track becomes a named thread via ``M``
(metadata) events.

Timestamps: the tracer records seconds; Chrome expects microseconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as _platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import TelemetryError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer

__all__ = [
    "chrome_trace_events",
    "machine_fingerprint",
    "run_provenance",
    "trace_summary",
    "write_chrome_trace",
    "write_metrics_json",
]

_SIM_PID = 1
_WALL_PID = 2


def _track_ids(tracer: Tracer) -> Dict[tuple, int]:
    """Stable (pid, track) -> tid assignment in first-seen order."""
    ids: Dict[tuple, int] = {}
    for span in tracer.spans:
        pid = _WALL_PID if span.wall else _SIM_PID
        ids.setdefault((pid, span.track), len(ids) + 1)
    for marker in tracer.instants:
        ids.setdefault((_SIM_PID, marker.track), len(ids) + 1)
    for name, track, _ts, _value in tracer.counters:
        ids.setdefault((_SIM_PID, track), len(ids) + 1)
    return ids


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Flatten a tracer into a list of Chrome trace-event dicts.

    Every event carries the required ``ph``/``ts``/``name`` keys:
    spans become ``X`` (complete) events with ``dur``, instants become
    ``i`` events, counter samples become ``C`` events, and track names
    are declared with ``M`` metadata events.
    """
    ids = _track_ids(tracer)
    events: List[Dict[str, Any]] = []
    for (pid, track), tid in sorted(ids.items(), key=lambda kv: kv[1]):
        events.append({
            "ph": "M", "ts": 0, "name": "thread_name",
            "pid": pid, "tid": tid, "args": {"name": track},
        })
    for pid, label in ((_SIM_PID, "simulated time"),
                       (_WALL_PID, "wall clock")):
        if any(p == pid for p, _ in ids):
            events.append({
                "ph": "M", "ts": 0, "name": "process_name",
                "pid": pid, "tid": 0, "args": {"name": label},
            })
    for span in tracer.spans:
        pid = _WALL_PID if span.wall else _SIM_PID
        end_s = span.end_s if span.end_s is not None else span.start_s
        event: Dict[str, Any] = {
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": (end_s - span.start_s) * 1e6,
            "name": span.name,
            "pid": pid,
            "tid": ids[(pid, span.track)],
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    for marker in tracer.instants:
        event = {
            "ph": "i",
            "ts": marker.start_s * 1e6,
            "name": marker.name,
            "pid": _SIM_PID,
            "tid": ids[(_SIM_PID, marker.track)],
            "s": "t",
        }
        if marker.args:
            event["args"] = dict(marker.args)
        events.append(event)
    for name, track, ts, value in tracer.counters:
        events.append({
            "ph": "C",
            "ts": ts * 1e6,
            "name": name,
            "pid": _SIM_PID,
            "tid": ids[(_SIM_PID, track)],
            "args": {"value": value},
        })
    return events


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _numpy_version() -> Optional[str]:
    try:
        import numpy
        return numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        return None


def machine_fingerprint() -> Dict[str, Any]:
    """A stable, privacy-light identity for the measuring machine.

    The hostname enters only as a truncated hash — enough to tell two
    measuring machines apart, not enough to leak the host name into
    committed artifacts.
    """
    return {
        "hostname_sha": hashlib.sha256(
            _platform.node().encode()).hexdigest()[:12],
        "system": _platform.system(),
        "machine": _platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_provenance(seed: Optional[int] = None,
                   config: Optional[Mapping[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Everything needed to re-run this run: seed, config echo, git SHA
    (best-effort ``None`` outside a checkout), interpreter + numpy
    versions, machine fingerprint, host, time."""
    return {
        "seed": seed,
        "config": dict(config) if config is not None else {},
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": _numpy_version(),
        "platform": _platform.platform(),
        "machine": machine_fingerprint(),
        "unix_time": time.time(),
        "argv": list(sys.argv),
    }


def write_chrome_trace(tracer: Tracer, path: str,
                       provenance: Optional[Mapping[str, Any]] = None
                       ) -> int:
    """Write the Chrome trace JSON; returns the event count written."""
    events = chrome_trace_events(tracer)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(provenance) if provenance is not None else {},
    }
    with open(path, "w") as handle:
        json.dump(document, handle)
    return len(events)


def write_metrics_json(path: str,
                       registry: Optional[MetricsRegistry] = None,
                       provenance: Optional[Mapping[str, Any]] = None,
                       extra: Optional[Mapping[str, Any]] = None) -> None:
    """Write a flat metrics document: provenance + registry snapshot +
    caller-supplied sections (rows, scores, ...).

    Keys are sorted on the way out, so two exports of the same data are
    byte-identical regardless of dict insertion order — diffable
    artifacts, cacheable hashes.
    """
    document: Dict[str, Any] = {
        "provenance": dict(provenance) if provenance is not None
        else run_provenance(),
        "metrics": registry.snapshot() if registry is not None else {},
    }
    if extra:
        document.update(extra)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, default=str,
                  sort_keys=True)


def trace_summary(document: Mapping[str, Any]) -> Dict[str, Any]:
    """Summarize a loaded Chrome trace document (or bare event list).

    Returns per-phase event counts and, per track, the span count and
    total span time — the quick sanity view behind ``repro trace
    summary``.
    """
    events = document.get("traceEvents", document) \
        if isinstance(document, Mapping) else document
    if not isinstance(events, list) or \
            not all(isinstance(e, Mapping) for e in events):
        raise TelemetryError(
            "not a Chrome trace: expected a list of event objects"
            " (or a document with a 'traceEvents' list)"
        )
    phases: Dict[str, int] = {}
    tracks: Dict[tuple, Dict[str, float]] = {}
    names: Dict[tuple, str] = {}
    for event in events:
        ph = event.get("ph", "?")
        phases[ph] = phases.get(ph, 0) + 1
        key = (event.get("pid", 0), event.get("tid", 0))
        if ph == "M" and event.get("name") == "thread_name":
            names[key] = event.get("args", {}).get("name", str(key))
        elif ph == "X":
            entry = tracks.setdefault(key, {"spans": 0, "busy_us": 0.0})
            entry["spans"] += 1
            entry["busy_us"] += float(event.get("dur", 0.0))
    return {
        "events": sum(phases.values()),
        "phases": phases,
        "tracks": {
            names.get(key, str(key)): stats
            for key, stats in sorted(tracks.items())
        },
    }
