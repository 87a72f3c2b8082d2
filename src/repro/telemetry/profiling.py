"""Span-scoped profiling: CPU hotspots, memory snapshots, allocation counters.

The tracer (PR 1) records *where time goes between spans*; this module
records *where it goes inside one* — the instrument the ROADMAP's
"kill the remaining scalar/allocation tax" item needs, and the
measurement substrate the paper's A2 ("pump the brakes": roofline-style
honesty about where cycles are spent) and O2 (standardized, comparable
benchmark reporting) both assume.

Three cooperating pieces, each opt-in and ~free when off:

- :class:`SpanProfiler` — a sidecar attached to a
  :class:`~repro.telemetry.tracer.Tracer` (``tracer.profiler = ...``).
  :meth:`Tracer.profile_span` then captures a cProfile run scoped to the
  span (top-N hotspot table), and optionally a tracemalloc window
  (current/peak bytes, plus bytes attributed to numpy's allocation
  domain) and the process peak-RSS watermark.  With no profiler
  installed ``profile_span`` degrades to a plain ``wall_span``.
- :class:`AllocationMeter` — *explicit, deterministic* byte accounting
  at kernel boundaries.  The SoA kernels
  (:mod:`repro.hw.batch`, :mod:`repro.system.fleet`) report the arrays
  they allocate per call, so a fleet run can state "N bytes allocated
  per rollout" exactly, independent of tracemalloc sampling.  Disabled
  (the default), the cost at each site is one attribute load + branch —
  the same discipline as ``tracer.enabled``.
- Report helpers — :func:`hotspot_rows` / :func:`format_hotspots` turn
  a captured profile into the table ``repro fleet --profile-out``
  prints, and
  :meth:`SpanProfiler.report` emits the JSON-friendly document the CLI
  writes.

cProfile cannot nest: if a capture is already active, inner
``profile_span`` captures record wall time and memory only (their CPU
samples are part of the enclosing capture).  ``ru_maxrss`` is a
process-lifetime high-water mark, monotone by definition; per-span
deltas of it are reported as 0 once the watermark stops moving.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

try:  # POSIX only; peak-RSS reporting degrades to None elsewhere
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

__all__ = [
    "AllocationMeter",
    "Hotspot",
    "ProfileRecord",
    "SpanProfiler",
    "format_hotspots",
    "get_alloc_meter",
    "hotspot_rows",
    "measure_allocations",
    "numpy_trace_domain",
    "peak_rss_kb",
]


def peak_rss_kb() -> Optional[int]:
    """Process peak resident-set size in KiB (``None`` off-POSIX).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalized
    here to KiB so reports compare across both.
    """
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys
    if sys.platform == "darwin":  # pragma: no cover - macOS
        peak //= 1024
    return int(peak)


def numpy_trace_domain() -> Optional[int]:
    """numpy's tracemalloc allocation domain (``None`` if unavailable).

    numpy >= 1.22 registers its data allocations with tracemalloc under
    a dedicated domain, so a snapshot can attribute array bytes
    separately from interpreter objects.
    """
    try:
        import numpy
        return int(numpy.lib.tracemalloc_domain)
    except (ImportError, AttributeError):  # pragma: no cover
        return None


def _domain_bytes(domain: Optional[int]) -> Optional[int]:
    """Bytes currently live in ``domain`` per tracemalloc (None = n/a)."""
    if domain is None or not tracemalloc.is_tracing():
        return None
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(inclusive=True, domain=domain)])
    return sum(trace.size for trace in snapshot.traces)


# -- CPU hotspots ------------------------------------------------------

@dataclass(frozen=True)
class Hotspot:
    """One function's share of a captured profile.

    Attributes:
        function: ``file:line(name)`` as pstats prints it.
        calls: Total call count (including recursive re-entries).
        total_s: Time inside the function itself (``tottime``).
        cumulative_s: Time including callees (``cumtime``).
    """

    function: str
    calls: int
    total_s: float
    cumulative_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "calls": self.calls,
            "total_s": self.total_s,
            "cumulative_s": self.cumulative_s,
        }


def hotspot_rows(profile: cProfile.Profile,
                 top_n: int = 10) -> List[Hotspot]:
    """The ``top_n`` functions by self-time from a finished profile."""
    stats = pstats.Stats(profile)
    rows = []
    for key, (cc, nc, tt, ct, _callers) in stats.stats.items():
        filename, line, name = key
        if filename == "~":  # builtins print as ~:0(<name>)
            label = name
        else:
            label = f"{filename}:{line}({name})"
        rows.append(Hotspot(function=label, calls=int(nc),
                            total_s=float(tt), cumulative_s=float(ct)))
    rows.sort(key=lambda h: (-h.total_s, h.function))
    return rows[:top_n]


def format_hotspots(hotspots: List[Hotspot],
                    title: str = "Hotspots") -> str:
    """Render a hotspot list as the aligned table the CLI prints."""
    header = f"{'self (ms)':>10} {'cum (ms)':>10} {'calls':>9}  function"
    lines = [title, header, "-" * len(header)]
    for spot in hotspots:
        lines.append(
            f"{spot.total_s * 1e3:>10.2f} {spot.cumulative_s * 1e3:>10.2f}"
            f" {spot.calls:>9d}  {spot.function}")
    return "\n".join(lines)


# -- span capture records ----------------------------------------------

@dataclass
class ProfileRecord:
    """Everything one profiled span captured.

    Attributes:
        name, track: The span the capture was scoped to.
        wall_s: Wall-clock duration of the capture.
        hotspots: Top-N self-time functions (empty if CPU capture was
            off or nested inside another capture).
        cpu_captured: Whether this record owns a cProfile run.
        tracemalloc_current_b: Net traced bytes allocated during the
            span (end minus start; negative if the span freed more than
            it allocated).  ``None`` when memory capture was off.
        tracemalloc_peak_b: Peak traced bytes during the span, relative
            to the span-start baseline.
        numpy_alloc_b: Net bytes in numpy's allocation domain over the
            span (``None`` when numpy or tracemalloc is unavailable).
        rss_peak_kb: Process peak RSS at span end (monotone watermark).
        alloc_sites: :class:`AllocationMeter` deltas recorded during the
            span, ``site -> {"bytes": ..., "arrays": ..., "calls": ...}``.
    """

    name: str
    track: str
    wall_s: float = 0.0
    hotspots: List[Hotspot] = field(default_factory=list)
    cpu_captured: bool = False
    tracemalloc_current_b: Optional[int] = None
    tracemalloc_peak_b: Optional[int] = None
    numpy_alloc_b: Optional[int] = None
    rss_peak_kb: Optional[int] = None
    alloc_sites: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "track": self.track,
            "wall_s": self.wall_s,
            "cpu_captured": self.cpu_captured,
            "hotspots": [spot.to_dict() for spot in self.hotspots],
            "tracemalloc_current_b": self.tracemalloc_current_b,
            "tracemalloc_peak_b": self.tracemalloc_peak_b,
            "numpy_alloc_b": self.numpy_alloc_b,
            "rss_peak_kb": self.rss_peak_kb,
            "alloc_sites": self.alloc_sites,
        }


class SpanProfiler:
    """Opt-in capture sidecar for :meth:`Tracer.profile_span`.

    Args:
        cpu: Capture a cProfile run per (outermost) profiled span.
        memory: Capture a tracemalloc window per profiled span — net and
            peak traced bytes, plus numpy-domain bytes.  Starts
            tracemalloc on demand and stops it again if this capture
            started it.
        top_n: Hotspot rows retained per record.
    """

    def __init__(self, cpu: bool = True, memory: bool = False,
                 top_n: int = 10):
        self.cpu = cpu
        self.memory = memory
        self.top_n = top_n
        self.records: List[ProfileRecord] = []
        self._cpu_active = False

    @contextlib.contextmanager
    def capture(self, name: str, track: str) -> Iterator[ProfileRecord]:
        """Capture one span; appends the finished record."""
        record = ProfileRecord(name=name, track=track)
        meter = get_alloc_meter()
        meter_before = meter.snapshot() if meter.enabled else None

        started_tracing = False
        numpy_before: Optional[int] = None
        if self.memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                started_tracing = True
            tracemalloc.reset_peak()
            current_before, _ = tracemalloc.get_traced_memory()
            numpy_before = _domain_bytes(numpy_trace_domain())
        profile: Optional[cProfile.Profile] = None
        if self.cpu and not self._cpu_active:
            profile = cProfile.Profile()
            self._cpu_active = True
            profile.enable()
        started = time.perf_counter()
        try:
            yield record
        finally:
            record.wall_s = time.perf_counter() - started
            if profile is not None:
                profile.disable()
                self._cpu_active = False
                record.cpu_captured = True
                record.hotspots = hotspot_rows(profile, self.top_n)
            if self.memory:
                current_after, peak = tracemalloc.get_traced_memory()
                record.tracemalloc_current_b = \
                    current_after - current_before
                record.tracemalloc_peak_b = max(
                    0, peak - current_before)
                numpy_after = _domain_bytes(numpy_trace_domain())
                if numpy_before is not None and numpy_after is not None:
                    record.numpy_alloc_b = numpy_after - numpy_before
                if started_tracing:
                    tracemalloc.stop()
            record.rss_peak_kb = peak_rss_kb()
            if meter_before is not None:
                record.alloc_sites = _site_delta(meter_before,
                                                 meter.snapshot())
            self.records.append(record)

    def hotspots(self, name: Optional[str] = None,
                 top_n: Optional[int] = None) -> List[Hotspot]:
        """Merged hotspot view across records (optionally one span
        name), re-ranked by self time."""
        merged: Dict[str, List[float]] = {}
        for record in self.records:
            if name is not None and record.name != name:
                continue
            for spot in record.hotspots:
                entry = merged.setdefault(spot.function, [0, 0.0, 0.0])
                entry[0] += spot.calls
                entry[1] += spot.total_s
                entry[2] += spot.cumulative_s
        rows = [Hotspot(function=fn, calls=int(c), total_s=t,
                        cumulative_s=ct)
                for fn, (c, t, ct) in merged.items()]
        rows.sort(key=lambda h: (-h.total_s, h.function))
        return rows[:top_n if top_n is not None else self.top_n]

    def report(self) -> Dict[str, object]:
        """JSON-friendly document: per-span records + merged hotspots."""
        return {
            "records": [record.to_dict() for record in self.records],
            "hotspots": [spot.to_dict() for spot in self.hotspots()],
        }

    def clear(self) -> None:
        self.records.clear()


# -- explicit allocation accounting ------------------------------------

def _site_delta(before: Dict[str, Dict[str, int]],
                after: Dict[str, Dict[str, int]]
                ) -> Dict[str, Dict[str, int]]:
    delta: Dict[str, Dict[str, int]] = {}
    for site, fields in after.items():
        base = before.get(site, {})
        changed = {key: value - base.get(key, 0)
                   for key, value in fields.items()}
        if any(changed.values()):
            delta[site] = changed
    return delta


class AllocationMeter:
    """Deterministic byte accounting for instrumented kernel sites.

    Producers (the SoA kernels) call :meth:`add` with the arrays they
    allocated; each call is guarded by ``meter.enabled`` at the site,
    so the disabled cost is one attribute load + branch — no tracemalloc
    needed, and the numbers are exact rather than sampled.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._sites: Dict[str, List[int]] = {}

    def add(self, site: str, *arrays) -> int:
        """Record ``arrays`` (anything with ``.nbytes``) against
        ``site``; returns the bytes added."""
        total = 0
        count = 0
        for array in arrays:
            nbytes = getattr(array, "nbytes", None)
            if nbytes is None:
                continue
            total += int(nbytes)
            count += 1
        entry = self._sites.setdefault(site, [0, 0, 0])
        entry[0] += total
        entry[1] += count
        entry[2] += 1
        return total

    def add_bytes(self, site: str, nbytes: int, arrays: int = 1) -> int:
        """Record a raw byte count against ``site`` (for producers that
        size buffers without holding array objects, e.g. arena growth);
        returns the bytes added."""
        entry = self._sites.setdefault(site, [0, 0, 0])
        entry[0] += int(nbytes)
        entry[1] += int(arrays)
        entry[2] += 1
        return int(nbytes)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """``site -> {"bytes", "arrays", "calls"}`` (copies)."""
        return {site: {"bytes": entry[0], "arrays": entry[1],
                       "calls": entry[2]}
                for site, entry in sorted(self._sites.items())}

    def total_bytes(self) -> int:
        return sum(entry[0] for entry in self._sites.values())

    def clear(self) -> None:
        self._sites.clear()


#: The process-global meter the kernel sites consult.  One instance for
#: the life of the process (sites may bind it at import time);
#: :func:`measure_allocations` toggles it in place.
_ALLOC_METER = AllocationMeter()


def get_alloc_meter() -> AllocationMeter:
    """The process-global :class:`AllocationMeter` (disabled unless a
    :func:`measure_allocations` scope is active)."""
    return _ALLOC_METER


@contextlib.contextmanager
def measure_allocations(clear: bool = True
                        ) -> Iterator[AllocationMeter]:
    """Enable the global meter for a scope; restores the prior state.

    Args:
        clear: Reset tallies on entry (default), so the scope reads as
            a self-contained measurement.
    """
    meter = _ALLOC_METER
    was_enabled = meter.enabled
    if clear:
        meter.clear()
    meter.enabled = True
    try:
        yield meter
    finally:
        meter.enabled = was_enabled
