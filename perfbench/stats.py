"""Summary statistics and decision rules of the benchmark.

Pure functions over plain lists, so each rule is unit-tested on its
own (``perfbench/tests/test_stats.py``):

* :func:`supported_percentile` -- the highest reported percentile that
  has at least ten samples beyond it;
* :func:`open_loop_accounting` -- latency and generator lateness of an
  open-loop schedule, both measured from each request's due time;
* :func:`capacity` -- the step rule that turns a rate step-up into the
  highest sustainable rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of unsorted ``values``."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supported_percentile(n: int) -> Optional[float]:
    """Highest of :data:`PERCENTILES` with >= ``TAIL_SAMPLES`` of ``n``
    samples beyond it (``None`` when not even the median qualifies)."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


@dataclass(frozen=True)
class OpenLoopRecord:
    """One request of an open-loop schedule (seconds, one clock)."""

    due: float
    sent: float
    answered: Optional[float]  # None: no answer within the timeout
    ok: bool


@dataclass(frozen=True)
class OpenLoopSummary:
    attempted: int
    failed: int
    latency_s: List[float]  # answered-ok requests, from due time
    late_s: List[float]  # generator lateness, sent - due, all requests


def open_loop_accounting(records: Sequence[OpenLoopRecord]
                         ) -> OpenLoopSummary:
    """Latency from each request's *due* time, so a stall also charges
    the requests it delayed; a request that was refused or never
    answered is a failure and has no latency (it misses every limit)."""
    latency: List[float] = []
    late: List[float] = []
    failed = 0
    for record in records:
        late.append(max(0.0, record.sent - record.due))
        if record.answered is None or not record.ok:
            failed += 1
            continue
        latency.append(record.answered - record.due)
    return OpenLoopSummary(attempted=len(records), failed=failed,
                           latency_s=latency, late_s=late)


@dataclass(frozen=True)
class Step:
    """One rate step of a capacity probe."""

    rate: float
    p99_s: Optional[float]  # None when no request succeeded
    failed: int
    backlog: int  # requests still unanswered when the step's sends end


def step_ok(step: Step, *, limit_s: float) -> bool:
    """A step is sustained when nothing failed, its tail latency is
    within ``limit_s`` and the queue left at the end of its sends is
    less than ``limit_s`` worth of arrivals (no growing backlog)."""
    return (step.failed == 0 and step.p99_s is not None
            and step.p99_s <= limit_s
            and step.backlog <= step.rate * limit_s)


def capacity(steps: Sequence[Step], *, limit_s: float) -> float:
    """Highest rate of an ascending step-up at which it and every
    lower step were sustained (0.0 when the first step fails)."""
    best = 0.0
    for step in steps:
        if not step_ok(step, limit_s=limit_s):
            break
        best = step.rate
    return best
