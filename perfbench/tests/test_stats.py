"""Decision rules of the benchmark: percentiles, open-loop accounting,
capacity steps, nested self time, and the declared metric tables.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from perfbench import spans
from perfbench.loadgen import run_schedule
from perfbench.stats import (
    OpenLoopRecord,
    Step,
    capacity,
    open_loop_accounting,
    quantile,
    supported_percentile,
)
from perfbench.workloads import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ----------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_nearest_rank_quantile():
    values = list(range(1, 1001))  # 1..1000
    assert quantile(values, 0.99) == 990
    assert quantile([3, 1, 2], 0.5) == 2
    assert quantile([5], 0.99) == 5
    with pytest.raises(ValueError):
        quantile([], 0.5)


# -- open loop ----------------------------------------------------------

def test_latency_counts_from_due_time_and_failures_have_none():
    records = [
        OpenLoopRecord(due=0.0, sent=0.0, answered=0.010, ok=True),
        # Sent 30 ms late because the generator stalled: the stall is
        # charged to the request, and reported as lateness.
        OpenLoopRecord(due=0.010, sent=0.040, answered=0.050, ok=True),
        OpenLoopRecord(due=0.020, sent=0.041, answered=0.060, ok=False),
        OpenLoopRecord(due=0.030, sent=0.042, answered=None, ok=False),
    ]
    summary = open_loop_accounting(records)
    assert summary.attempted == 4 and summary.failed == 2
    assert summary.latency_s == pytest.approx([0.010, 0.040])
    assert summary.late_s == pytest.approx([0.0, 0.030, 0.021, 0.012])


def _stalling_server(sock, stall_s, n):
    """Answer ``n`` lines in order; the first answer is held back."""
    with sock, sock.makefile("rb") as reader:
        for i in range(n):
            reader.readline()
            if i == 0:
                time.sleep(stall_s)
            sock.sendall(b'{"ok":true}\n')


def test_run_schedule_charges_a_stall_to_the_requests_behind_it():
    client, server = socket.socketpair()
    n, rate, stall = 20, 200.0, 0.100
    worker = threading.Thread(target=_stalling_server,
                              args=(server, stall, n))
    worker.start()
    try:
        phase = run_schedule(client, [b"{}\n"] * n,
                             [i / rate for i in range(n)],
                             decode=json.loads, timeout_s=5.0)
    finally:
        client.close()
        worker.join(5.0)
    assert not worker.is_alive()
    summary = open_loop_accounting(phase.records)
    assert summary.failed == 0
    # Request 5 was due 25 ms in, but its answer waited behind the
    # 100 ms stall of request 0: measured from its due time it waited
    # about 75 ms, which timing from the reply order alone would hide.
    assert summary.latency_s[5] == pytest.approx(stall - 5 / rate,
                                                 abs=0.03)
    assert max(summary.late_s) < 0.05  # the sender kept its schedule


# -- capacity step rule -------------------------------------------------

def test_capacity_is_last_step_sustained_before_the_first_miss():
    limit = 0.25
    steps = [
        Step(rate=1600, p99_s=0.10, failed=0, backlog=10),
        Step(rate=2000, p99_s=0.20, failed=0, backlog=20),
        Step(rate=2400, p99_s=0.30, failed=0, backlog=30),  # p99 over
        Step(rate=2800, p99_s=0.10, failed=0, backlog=0),  # ignored
    ]
    assert capacity(steps, limit_s=limit) == 2000


@pytest.mark.parametrize("bad", [
    Step(rate=2000, p99_s=0.1, failed=1, backlog=0),  # a failure
    Step(rate=2000, p99_s=None, failed=0, backlog=0),  # nothing answered
    Step(rate=2000, p99_s=0.1, failed=0, backlog=501),  # backlog grows
])
def test_capacity_stops_at_failures_and_backlog(bad):
    first = Step(rate=1600, p99_s=0.1, failed=0, backlog=0)
    assert capacity([first, bad], limit_s=0.25) == 1600
    assert capacity([bad], limit_s=0.25) == 0.0


# -- nested self time ---------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    stats = spans.SpanStats(clock=clock)
    a = stats.enter("a")            # a: 0..100
    clock.now = 10
    b = stats.enter("b")            # b: 10..40
    clock.now = 15
    c = stats.enter("c")            # c: 15..25
    clock.now = 25
    stats.exit(c, items=1)
    clock.now = 40
    stats.exit(b, items=2)
    clock.now = 50
    b2 = stats.enter("b")           # b: 50..60
    clock.now = 60
    stats.exit(b2, items=3)
    clock.now = 100
    stats.exit(a)
    layers = stats.snapshot()
    assert layers["a"] == {"calls": 1, "self_ns": 60, "items": 0,
                           "child_spans": 2}
    assert layers["b"] == {"calls": 2, "self_ns": 30, "items": 5,
                           "child_spans": 1}
    assert layers["c"]["self_ns"] == 10


def test_nested_spans_of_one_layer_count_work_once():
    clock = FakeClock()
    stats = spans.SpanStats(clock=clock)
    outer = stats.enter("propose")
    clock.now = 5
    inner = stats.enter("propose")
    clock.now = 7
    stats.exit(inner, items=1)
    clock.now = 10
    stats.exit(outer, items=4)
    record = stats.snapshot()["propose"]
    assert record["self_ns"] == 10 and record["items"] == 4


def test_threads_keep_separate_stacks():
    stats = spans.SpanStats()
    outer = stats.enter("main")
    wrapped = stats.wrap("worker", time.sleep)
    thread = threading.Thread(target=wrapped, args=(0.01,))
    thread.start()
    thread.join(5.0)
    assert not thread.is_alive()
    stats.exit(outer)
    layers = stats.snapshot()
    assert layers["main"]["child_spans"] == 0
    assert layers["worker"]["self_ns"] >= 10_000_000


def test_corrected_subtracts_shim_cost_of_child_spans():
    record = {"calls": 2, "self_ns": 10_000, "items": 0,
              "child_spans": 8}
    seconds, snr = spans.corrected(record, span_ns=500.0, noise_ns=100.0)
    assert seconds == pytest.approx(6_000 / 1e9)
    assert snr == pytest.approx(6_000 / (100.0 * 10))
    assert spans.corrected(record, 0.0, 0.0)[1] == float("inf")


def test_calibration_reports_cost_and_noise():
    result = spans.calibrate(batches=20, calls=50)
    assert result["span_ns"] > 0 and result["noise_ns"] >= 0


def test_every_layer_function_exists():
    stats = spans.SpanStats()
    pytest.importorskip("numpy")
    import sys
    sys.path.insert(0, str(ROOT / "src"))
    undo = spans.install(stats)
    try:
        assert len(undo) == len(spans.LAYERS)
    finally:
        spans.uninstall(undo)


# -- declared metrics ---------------------------------------------------

def test_benchmark_json_declares_what_the_runs_print():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
