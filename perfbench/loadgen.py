"""Load generator for ``repro serve``: one connection, two threads.

A sender thread writes pre-encoded single-candidate ``submit`` lines on
a fixed schedule (open loop: it never waits for replies, so a slow
daemon builds a queue), or as fast as a window of outstanding requests
allows (a burst).  A reader thread takes the replies, which the daemon
delivers in request order, and stamps each one.  Latency is measured
from each request's due time (:mod:`perfbench.stats`).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from perfbench.stats import OpenLoopRecord

#: Share of requests drawn from the hot set (the daemon's in-memory
#: cache-hit path); the rest are distinct misses (the coalescer path).
HOT_FRAC = 0.25
HOT_SET = 256


class Mix:
    """Seeded request indices: a fixed hot set plus fresh misses.

    Misses are drawn without replacement from the whole space minus
    the hot set, so no miss repeats within a run.
    """

    def __init__(self, space_size: int, seed: int, capacity: int):
        rng = np.random.default_rng(seed)
        pool = rng.choice(space_size, size=HOT_SET + capacity,
                          replace=False)
        self._rng = rng
        self.hot = [int(i) for i in pool[:HOT_SET]]
        self._fresh = [int(i) for i in pool[HOT_SET:]]
        self._next = 0

    def draw(self, n: int) -> List[int]:
        """The next ``n`` request indices."""
        hot = self._rng.random(n) < HOT_FRAC
        picks = self._rng.integers(0, HOT_SET, size=n)
        out = []
        for is_hot, pick in zip(hot, picks):
            if is_hot:
                out.append(self.hot[int(pick)])
            else:
                out.append(self._fresh[self._next])
                self._next += 1
        return out


@dataclass
class PhaseResult:
    """Raw outcome of one schedule on one connection."""

    records: List[OpenLoopRecord]
    responses: List[Optional[Mapping[str, Any]]]
    decode_ns: int = 0
    wall_s: float = 0.0  # first send to last reply
    backlog: int = 0  # unanswered when the last request was sent
    errors: Dict[str, int] = field(default_factory=dict)


def run_schedule(sock: socket.socket, lines: Sequence[bytes],
                 due: Sequence[float], *,
                 decode: Callable[[bytes], Mapping[str, Any]],
                 window: Optional[int] = None,
                 timeout_s: float = 10.0) -> PhaseResult:
    """Send ``lines[i]`` at ``due[i]`` seconds after the start (or, with
    ``window``, as soon as fewer than ``window`` requests are
    outstanding) and collect the in-order replies.  A reply missing
    for ``timeout_s`` ends the phase; the rest count as unanswered."""
    n = len(lines)
    sent = [0.0] * n
    answered: List[Optional[float]] = [None] * n
    responses: List[Optional[Mapping[str, Any]]] = [None] * n
    slots = threading.Semaphore(window) if window else None
    decode_ns = [0]
    received = [0]
    sock.settimeout(timeout_s)
    reader_file = sock.makefile("rb")

    def read() -> None:
        clock, clock_ns = time.perf_counter, time.perf_counter_ns
        try:
            for i in range(n):
                line = reader_file.readline()
                if not line:
                    return
                stamp = clock()
                start = clock_ns()
                responses[i] = decode(line)
                decode_ns[0] += clock_ns() - start
                answered[i] = stamp
                received[0] = i + 1
                if slots is not None:
                    slots.release()
        except OSError:  # timeout or reset: the rest stay unanswered
            return

    reader = threading.Thread(target=read, name="loadgen-reader",
                              daemon=True)
    start = time.perf_counter() + 0.02
    reader.start()
    backlog = 0
    try:
        for i in range(n):
            if slots is not None and not slots.acquire(timeout=timeout_s):
                break
            target = start + due[i]
            now = time.perf_counter()
            if target > now:
                time.sleep(target - now)
            sent[i] = time.perf_counter()
            sock.sendall(lines[i])
        backlog = n - received[0]
    except OSError:
        pass
    reader.join(timeout_s + 1.0)
    if reader.is_alive():  # wedged connection: unblock the reader
        sock.close()
        reader.join(timeout_s)
    reader_file.close()
    last = max((t for t in answered if t is not None), default=start)
    records = []
    errors: Dict[str, int] = {}
    for i in range(n):
        response = responses[i]
        ok = bool(response and response.get("ok"))
        if response is not None and not ok:
            code = str(response.get("error"))
            errors[code] = errors.get(code, 0) + 1
        records.append(OpenLoopRecord(
            due=start + due[i], sent=sent[i] or start + due[i],
            answered=answered[i], ok=ok))
    return PhaseResult(records=records, responses=responses,
                       decode_ns=decode_ns[0], wall_s=last - start,
                       backlog=backlog, errors=errors)
