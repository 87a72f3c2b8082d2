"""The three workloads, each in an untimed-layers run (``--trace 0``:
end-to-end metrics) and a traced run (``--trace 1``: per-layer
metrics).  See ``perfbench/README.md`` for why each was chosen and
what each metric should move.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import spans
from perfbench.loadgen import Mix, PhaseResult, run_schedule
from perfbench.programs import Daemon, Outcome, Programs
from perfbench.stats import (
    Step,
    capacity,
    open_loop_accounting,
    quantile,
    step_ok,
    supported_percentile,
)

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPS = 3
#: Timeout of one CLI pass.
PASS_TIMEOUT_S = 90.0
#: The traced DSE run fails when the named layers leave more than this
#: share of the traced wall unattributed.
SLACK = 0.05

DSE_SPACE = ["--space", "codesign_xl"]
STORE_ARGS = ["dse", "--strategy", "random", *DSE_SPACE,
              "--objective", "suite_objective"]
STORE_BUDGET = 20000
FUNNEL_ARGS = ["dse", "--strategy", "funnel", *DSE_SPACE,
               "--objective", "mission_objective"]
FUNNEL_BUDGET = 100000

#: Serve phases: (requests/s, seconds).
LIGHT = (400.0, 4.0)
HEAVY = (1600.0, 4.0)
STEP_START, STEP_RATE, STEP_SECONDS, STEP_MAX = 1600.0, 400.0, 2.0, 8
#: A capacity step is sustained while its p99 stays within this.
LATENCY_LIMIT_S = 0.250
#: Requests per burst and the most a burst keeps outstanding (below the
#: daemon's default per-tenant in-flight cap of 4096).
BURST, BURST_WINDOW = 2000, 2048
#: Each daemon of the end-to-end run answers this many bursts, so its
#: peak RSS is that of a fixed amount of work.
DAEMON_BURSTS, MAX_DAEMONS = 4, 12
#: Bursts each daemon of the traced run answers, in turn, to measure
#: the tracing overhead.
REFERENCE_BURSTS = 4

#: Per-layer metrics: name -> unit.  Every traced run reports all of
#: them; a layer a workload does not exercise reads 0.
PER_LAYER: Dict[str, str] = {
    "engine.cache.put.self_s": "s",
    "engine.cache.put.us_per_call": "us",
    "engine.cache.get.self_s": "s",
    "engine.cache.get.us_per_call": "us",
    "engine.cache.hit_frac": "ratio",
    "engine.cache.store_mb": "MB",
    "engine.key.self_s": "s",
    "engine.key.ns_per_cand": "ns",
    "engine.map_batch.self_s": "s",
    "engine.oracle_calls": "count",
    "dse.propose.self_s": "s",
    "dse.propose.ns_per_cand": "ns",
    "dse.tell.self_s": "s",
    "dse.funnel.self_s": "s",
    "dse.funnel.top_tier_frac": "ratio",
    "dse.cold_wall_s": "s",
    "dse.warm_wall_s": "s",
    "oracle.suite.self_s": "s",
    "oracle.suite.ns_per_cand": "ns",
    "oracle.pricing.self_s": "s",
    "oracle.pricing.ns_per_cand": "ns",
    "oracle.fleet.self_s": "s",
    "oracle.fleet.ns_per_cand": "ns",
    "oracle.mission.self_s": "s",
    "oracle.mission.us_per_call": "us",
    "cli.import_s": "s",
    "serve.light_p50_ms": "ms",
    "serve.light_p99_ms": "ms",
    "serve.heavy_p50_ms": "ms",
    "serve.heavy_p99_ms": "ms",
    "serve.capacity_per_s": "1/s",
    "serve.service_p50_ms": "ms",
    "serve.service_p99_ms": "ms",
    "serve.occupancy_mean": "count",
    "serve.flushes": "count",
    "serve.coalesced_frac": "ratio",
    "serve.hit_frac": "ratio",
    "serve.refused": "count",
    "serve.encode_us": "us",
    "serve.decode_us": "us",
    "serve.daemon_tracebacks": "count",
    "harness.span_ns": "ns",
    "harness.noise_ns": "ns",
    "harness.low_snr_layers": "count",
    "harness.trace_overhead_frac": "ratio",
    "harness.unattributed_frac": "ratio",
    "harness.generator_late_ms": "ms",
}

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Run:
    """One benchmark run: the programs, the seed, and the tallies."""

    programs: Programs
    seed: int
    seconds: float
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    def operation(self, ok: bool, what: str) -> bool:
        """Count one operation (a CLI pass or a served request)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def note(self, line: str) -> None:
        self.notes.append(line)


# -- shared helpers ---------------------------------------------------

_OBJECTIVE = re.compile(r"^objective: (\S+)$", re.M)
_CALLS = re.compile(r"^oracle calls: (\d+) \(cache hits: (\d+)", re.M)
_TOP_TIER = re.compile(r"^top-tier fraction: (\d+)/(\d+)", re.M)
_VOLATILE = re.compile(r"^(oracle calls|batch-priced|wrote metrics JSON)"
                       r".*\n", re.M)


def oracle_calls(outcome: Outcome) -> Optional[int]:
    match = _CALLS.search(outcome.stdout)
    return int(match.group(1)) if match else None


def best_part(stdout: str) -> str:
    """The CLI's result text without the lines that legitimately
    differ between a cold and a warm pass."""
    return _VOLATILE.sub("", stdout)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def allocated_mb(directory: Path) -> float:
    """Allocated size (``st_blocks``) of every file under a directory."""
    total = 0
    for path in directory.rglob("*"):
        total += path.lstat().st_blocks * 512
    return total / 1e6


def repro_import(root: Path):
    """Import the program in this process (for output checks, outside
    every timed window)."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.spec.registry import OBJECTIVES, SPACES

    return OBJECTIVES, SPACES


def timed_setup(run: Run, launch: Callable[[], float]) -> None:
    samples = [launch() for _ in range(SETUP_REPS)]
    run.metrics["setup_s"] = median(samples)
    run.note("setup_s samples: " + ", ".join(f"{s:.3f}" for s in samples))


def repeat_for(seconds: float, body: Callable[[], None],
               max_reps: int = 1000) -> int:
    """Run ``body`` until ``seconds`` have passed (at least once, at
    most ``max_reps`` times)."""
    start, reps = time.perf_counter(), 0
    while reps == 0 or (time.perf_counter() - start < seconds
                        and reps < max_reps):
        body()
        reps += 1
    return reps


def dse_setup(run: Run, base: List[str]) -> None:
    """``setup_s`` of a DSE workload: the same command at budget 1."""

    def launch() -> float:
        outcome = run.programs.run(
            [*base, "--budget", "1", "--seed", str(run.seed)],
            timeout_s=PASS_TIMEOUT_S)
        run.operation(outcome.code == 0 and bool(oracle_calls(outcome)),
                      f"setup pass exit {outcome.code}")
        return outcome.wall_s

    timed_setup(run, launch)


def import_seconds(programs: Programs) -> float:
    """``import repro.cli`` in a fresh interpreter (median of three)."""
    code = ("import time; t = time.perf_counter(); import repro.cli;"
            " print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", code],
                             cwd=programs.scratch("import"),
                             env=programs.env, capture_output=True,
                             text=True, timeout=PASS_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.strip()))
    return median(samples)


def layer_metrics(run: Run, traced: Sequence[Dict[str, Any]],
                  calibration: Dict[str, float]) -> float:
    """Per-layer metrics from the traced passes' span aggregates, with
    the shim cost subtracted.  Returns the unattributed share of the
    traced wall."""
    totals: Dict[str, Dict[str, int]] = {}
    wall_ns = 0
    for document in traced:
        wall_ns += document["wall_ns"]
        for name, record in document["layers"].items():
            into = totals.setdefault(name, dict.fromkeys(record, 0))
            for key, value in record.items():
                into[key] += value
    span_ns, noise_ns = calibration["span_ns"], calibration["noise_ns"]
    low_snr = []
    self_s: Dict[str, float] = {}
    for name, record in sorted(totals.items()):
        seconds, snr = spans.corrected(record, span_ns, noise_ns)
        self_s[name] = seconds
        flag = ""
        if name != spans.ROOT and snr < spans.SNR_FLOOR:
            low_snr.append(name)
            flag = "  (unresolved: SNR below floor)"
        run.note(f"layer {name:18s} self {seconds:8.4f} s"
                 f"  calls {record['calls']:7d}  items {record['items']:7d}"
                 f"  snr {snr:9.1f}{flag}")
    m = run.metrics

    def per(name: str, scale: float, by: str = "items") -> float:
        record = totals.get(name)
        if not record or not record[by]:
            return 0.0
        return self_s[name] * scale / record[by]

    for layer in ("engine.cache.put", "engine.cache.get", "engine.key",
                  "engine.map_batch", "dse.propose", "dse.tell",
                  "dse.funnel", "oracle.suite", "oracle.pricing",
                  "oracle.fleet", "oracle.mission"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["engine.cache.put.us_per_call"] = per("engine.cache.put", 1e6,
                                            "calls")
    m["engine.cache.get.us_per_call"] = per("engine.cache.get", 1e6,
                                            "calls")
    get = totals.get("engine.cache.get")
    m["engine.cache.hit_frac"] = (get["items"] / get["calls"]
                                  if get and get["calls"] else 0.0)
    m["engine.key.ns_per_cand"] = per("engine.key", 1e9)
    m["dse.propose.ns_per_cand"] = per("dse.propose", 1e9)
    for layer in ("oracle.suite", "oracle.pricing", "oracle.fleet"):
        m[f"{layer}.ns_per_cand"] = per(layer, 1e9)
    m["oracle.mission.us_per_call"] = per("oracle.mission", 1e6, "calls")
    m["harness.span_ns"] = span_ns
    m["harness.noise_ns"] = noise_ns
    m["harness.low_snr_layers"] = float(len(low_snr))
    unattributed = self_s.get(spans.ROOT, 0.0)
    frac = unattributed / (wall_ns / 1e9) if wall_ns else 0.0
    m["harness.unattributed_frac"] = frac
    run.note(f"traced wall {wall_ns / 1e9:.3f} s, unattributed"
             f" {unattributed:.3f} s ({frac:.1%}, slack {SLACK:.0%})")
    return frac


def read_trace(out: Path) -> Dict[str, Any]:
    """Span aggregates a traced process wrote (empty if it wrote none;
    its exit code already counts as a failure)."""
    if not out.exists():
        return {"wall_ns": 0, "layers": {}}
    return json.loads(out.read_text())


def traced_dse(run: Run, args: List[str], tag: str
               ) -> Tuple[Outcome, Dict[str, Any]]:
    out = run.programs.scratch("trace") / f"{tag}.json"
    outcome = run.programs.run(args, timeout_s=PASS_TIMEOUT_S,
                               traced_out=out)
    return outcome, read_trace(out)


def check_coverage(run: Run, frac: float) -> None:
    run.operation(frac <= SLACK,
                  f"named layers leave {frac:.1%} of the traced wall"
                  f" unattributed (slack {SLACK:.0%})")


def fill_per_layer(run: Run) -> None:
    for name in PER_LAYER:
        run.metrics.setdefault(name, 0.0)


# -- dse_store ------------------------------------------------------


def _store_pass(run: Run, store: Path, cold: Optional[Outcome] = None,
                traced: bool = False) -> Tuple[Outcome, Dict[str, Any]]:
    """A cold pass on the empty ``store`` or, given that ``cold`` pass,
    a warm replay of it; both checked."""
    args = [*STORE_ARGS, "--budget", str(STORE_BUDGET),
            "--seed", str(run.seed), "--cache", str(store / "cache")]
    tag = "warm" if cold else "cold"
    document: Dict[str, Any] = {}
    if traced:
        outcome, document = traced_dse(run, args, tag)
    else:
        outcome = run.programs.run(args, timeout_s=PASS_TIMEOUT_S)
    calls = oracle_calls(outcome)
    if cold is None:
        run.operation(outcome.code == 0 and calls == STORE_BUDGET
                      and _OBJECTIVE.search(outcome.stdout) is not None,
                      f"cold pass exit {outcome.code}, oracle calls"
                      f" {calls} (expected {STORE_BUDGET})")
    else:
        run.operation(outcome.code == 0 and calls == 0
                      and best_part(outcome.stdout) == best_part(cold.stdout),
                      f"warm pass exit {outcome.code}, oracle calls {calls}"
                      " (expected 0 and the cold pass's best config/value)")
    return outcome, document


def dse_store(run: Run, trace: bool) -> None:
    if not trace:
        dse_setup(run, STORE_ARGS)
        store = run.programs.scratch("store")
        cold, _ = _store_pass(run, store)
        run.note(f"cold pass {cold.wall_s:.3f} s, store"
                 f" {allocated_mb(store):.1f} MB allocated; output digest"
                 f" {digest(best_part(cold.stdout))}")
        walls: List[float] = []
        rss: List[float] = []

        def body() -> None:
            warm, _ = _store_pass(run, store, cold)
            walls.append(warm.wall_s)
            rss.append(warm.rss_mb)

        repeat_for(run.seconds, body)
        run.metrics["wall_s"] = median(walls)
        run.metrics["peak_rss_mb"] = max(cold.rss_mb, median(rss))
        run.note("warm passes: " + ", ".join(f"{w:.3f}" for w in walls)
                 + " s")
        return
    calibration = spans.calibrate()
    run.metrics["cli.import_s"] = import_seconds(run.programs)
    store, traced_store = (run.programs.scratch("store"),
                           run.programs.scratch("store"))
    cold, _ = _store_pass(run, store)
    store_mb = allocated_mb(store)
    warm, _ = _store_pass(run, store, cold)
    tcold, cold_doc = _store_pass(run, traced_store, traced=True)
    twarm, warm_doc = _store_pass(run, traced_store, tcold, traced=True)
    run.operation(best_part(tcold.stdout) == best_part(cold.stdout),
                  "traced cold pass differs from the untraced one")
    check_coverage(run, layer_metrics(run, [cold_doc, warm_doc],
                                      calibration))
    m = run.metrics
    # Warm passes write nothing, so their ratio is not disk noise.
    m["harness.trace_overhead_frac"] = twarm.wall_s / warm.wall_s - 1.0
    m["dse.cold_wall_s"] = cold.wall_s
    m["dse.warm_wall_s"] = warm.wall_s
    m["engine.cache.store_mb"] = store_mb
    m["engine.oracle_calls"] = float(oracle_calls(cold) or 0)
    fill_per_layer(run)


# -- funnel_mission -------------------------------------------------


def _top_tier(outcome: Outcome) -> Tuple[int, int]:
    """(candidates reaching the top tier, candidates screened)."""
    match = _TOP_TIER.search(outcome.stdout)
    return (int(match.group(1)), int(match.group(2))) if match else (0, 0)


def _funnel_pass(run: Run, traced: bool = False
                 ) -> Tuple[Outcome, Dict[str, Any], Dict[str, Any]]:
    """One checked funnel pass; returns it, its ``--json`` document and
    (when traced) its span aggregates."""
    out = run.programs.scratch("funnel") / "best.json"
    args = [*FUNNEL_ARGS, "--budget", str(FUNNEL_BUDGET),
            "--seed", str(run.seed), "--json", str(out)]
    document: Dict[str, Any] = {}
    if traced:
        outcome, document = traced_dse(run, args, "funnel")
    else:
        outcome = run.programs.run(args, timeout_s=PASS_TIMEOUT_S)
    reached, screened = _top_tier(outcome)
    best = json.loads(out.read_text()) if out.exists() else {}
    run.operation(outcome.code == 0 and screened == FUNNEL_BUDGET
                  and reached * 100 == screened and "best_config" in best,
                  f"funnel pass exit {outcome.code}, top tier"
                  f" {reached}/{screened} (expected exactly 1.00%)")
    return outcome, best, document


def _reprice(run: Run, outcome: Outcome, best: Dict[str, Any]) -> None:
    """The CLI's best value must equal the public objective's price of
    the CLI's best config, and the printed value must match it."""
    match = _OBJECTIVE.search(outcome.stdout)
    printed = match.group(1) if match else ""
    objectives, _ = repro_import(run.programs.root)
    value = objectives.get("mission_objective")(best["best_config"])
    run.operation(value == best["best_value"] and f"{value:.6g}" == printed,
                  f"funnel best value {best['best_value']} (printed"
                  f" {printed}) != re-priced {value}")


def funnel_mission(run: Run, trace: bool) -> None:
    if not trace:
        dse_setup(run, FUNNEL_ARGS)
        walls: List[float] = []
        rss: List[float] = []
        digests = set()

        def body() -> None:
            outcome, best, _ = _funnel_pass(run)
            walls.append(outcome.wall_s)
            rss.append(outcome.rss_mb)
            digests.add(digest(best_part(outcome.stdout)))
            if len(walls) == 1 and best:
                _reprice(run, outcome, best)

        repeat_for(run.seconds, body)
        run.metrics["wall_s"] = median(walls)
        run.metrics["peak_rss_mb"] = median(rss)
        run.operation(len(digests) == 1,
                      "funnel passes of one seed disagree")
        run.note("funnel passes: " + ", ".join(f"{w:.3f}" for w in walls)
                 + f" s; output digest {','.join(sorted(digests))}")
        return
    calibration = spans.calibrate()
    run.metrics["cli.import_s"] = import_seconds(run.programs)
    plain, _, _ = _funnel_pass(run)
    traced, _, document = _funnel_pass(run, traced=True)
    run.operation(best_part(traced.stdout) == best_part(plain.stdout),
                  "traced funnel pass differs from the untraced one")
    check_coverage(run, layer_metrics(run, [document], calibration))
    reached, screened = _top_tier(traced)
    m = run.metrics
    m["harness.trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    m["engine.oracle_calls"] = float(oracle_calls(plain) or 0)
    m["dse.funnel.top_tier_frac"] = reached / screened if screened else 0.0
    fill_per_layer(run)


# -- serve ------------------------------------------------------------


class Served:
    """Requests for the daemon, with their expected values.

    Expected values come from ``SuiteObjective.evaluate_batch`` in this
    process, computed before each phase (outside its timed window)."""

    def __init__(self, run: Run, capacity: int):
        """``capacity`` bounds the requests the run will make."""
        objectives, spaces = repro_import(run.programs.root)
        from repro.serve.protocol import decode_line, encode_line

        self.space = spaces.build("codesign_xl", "space")
        self.objective = objectives.get("suite_objective")
        self.mix = Mix(self.space.size, run.seed, capacity)
        self.encode_line, self.decode_line = encode_line, decode_line
        self.encode_ns = 0
        self.encoded = 0
        self.digest: Optional[str] = None  # of the first phase checked

    def batch(self, n: int) -> Tuple[List[int], List[bytes], List[float]]:
        indices = self.mix.draw(n)
        start = time.perf_counter_ns()
        lines = [self.encode_line({"op": "submit", "space": "codesign_xl",
                                   "indices": [i]}) for i in indices]
        self.encode_ns += time.perf_counter_ns() - start
        self.encoded += n
        expected = self.objective.evaluate_batch(
            [self.space.config_at(i) for i in indices])
        return indices, lines, expected

    def check(self, run: Run, phase: PhaseResult, indices: Sequence[int],
              expected: Sequence[float], *, count: bool = True) -> None:
        """Check every reply against its expected value.  With
        ``count`` each request is an operation (a refusal or timeout
        fails it); a wrong value is always a failure."""
        digest = hashlib.sha256()
        for i, (index, record, response) in enumerate(
                zip(indices, phase.records, phase.responses)):
            answered = record.ok and record.answered is not None
            value = response["results"][0]["value"] if answered else None
            digest.update(f"{index}:{value!r};".encode())
            if answered and value != expected[i]:
                run.operation(False, f"index {index}: served {value!r},"
                                     f" expected {expected[i]!r}")
            elif count:
                run.operation(answered, f"request {i} (index {index})"
                                        f" failed: {response}")
        if self.digest is None:
            self.digest = digest.hexdigest()[:16]


def _burst(run: Run, served: Served, daemon: Daemon) -> float:
    indices, lines, expected = served.batch(BURST)
    with daemon.connect() as sock:
        phase = run_schedule(sock, lines, [0.0] * BURST,
                             decode=served.decode_line, window=BURST_WINDOW)
    served.check(run, phase, indices, expected)
    return phase.wall_s


def _open_loop(run: Run, served: Served, daemon: Daemon, rate: float,
               seconds: float, *, count: bool = True):
    n = int(rate * seconds)
    indices, lines, expected = served.batch(n)
    with daemon.connect() as sock:
        phase = run_schedule(sock, lines, [i / rate for i in range(n)],
                             decode=served.decode_line)
    served.check(run, phase, indices, expected, count=count)
    return phase, open_loop_accounting(phase.records)


def _percentiles(summary, name: str, run: Run) -> None:
    latency = summary.latency_s
    p = supported_percentile(len(latency))
    if p is None or p < 99.0:
        run.operation(False, f"{name}: {len(latency)} samples cannot"
                             " support a p99")
        return
    run.metrics[f"serve.{name}_p50_ms"] = quantile(latency, 0.5) * 1e3
    run.metrics[f"serve.{name}_p99_ms"] = quantile(latency, 0.99) * 1e3
    run.note(f"{name}: n={len(latency)} p50"
             f" {run.metrics[f'serve.{name}_p50_ms']:.1f} ms p99"
             f" {run.metrics[f'serve.{name}_p99_ms']:.1f} ms, failed"
             f" {summary.failed}/{summary.attempted}, generator p99 late"
             f" {quantile(summary.late_s, 0.99) * 1e3:.2f} ms")


def _stats(daemon: Daemon) -> Dict[str, Any]:
    return json.loads(daemon.request(b'{"op":"stats"}\n'))


def _stopped(run: Run, daemon: Daemon, tracebacks: List[int]) -> Outcome:
    outcome = daemon.stop()
    tracebacks.append(outcome.tracebacks)
    run.operation(outcome.code == 0, f"daemon exit {outcome.code}")
    return outcome


def _launch(run: Run, served: Served,
            traced_out: Optional[Path] = None) -> Daemon:
    """Start a daemon; its first request is a one-candidate submit, so
    ``ready_s`` includes the lazy objective build a user waits for."""
    index = served.mix.hot[0]
    daemon = Daemon(run.programs, traced_out=traced_out)
    raw = daemon.start(served.encode_line(
        {"op": "submit", "space": "codesign_xl", "indices": [index]}))
    try:
        reply = json.loads(raw)
    except ValueError:
        reply = {}
    expected = served.objective.evaluate_batch(
        [served.space.config_at(index)])[0]
    run.operation(reply.get("ok") is True
                  and reply["results"][0]["value"] == expected,
                  f"first submit to a new daemon: {reply}")
    return daemon


def _step_up(run: Run, served: Served, daemon: Daemon) -> float:
    """Raise the open-loop rate step by step until one is not sustained;
    returns the capacity by :func:`perfbench.stats.capacity`."""
    steps = []
    for k in range(STEP_MAX):
        rate = STEP_START + k * STEP_RATE
        phase, summary = _open_loop(run, served, daemon, rate, STEP_SECONDS,
                                    count=False)
        p99 = (quantile(summary.latency_s, 0.99)
               if summary.latency_s else None)
        steps.append(Step(rate=rate, p99_s=p99, failed=summary.failed,
                          backlog=phase.backlog))
        run.note(f"step {rate:.0f}/s: p99 {(p99 or 0) * 1e3:.1f} ms,"
                 f" failed {summary.failed}, backlog {phase.backlog}")
        if not step_ok(steps[-1], limit_s=LATENCY_LIMIT_S):
            break
    return capacity(steps, limit_s=LATENCY_LIMIT_S)


def serve(run: Run, trace: bool) -> None:
    tracebacks: List[int] = []
    if not trace:
        served = Served(run, capacity=MAX_DAEMONS * DAEMON_BURSTS * BURST)

        def launch() -> float:
            daemon = _launch(run, served)
            _stopped(run, daemon, tracebacks)
            return daemon.ready_s

        timed_setup(run, launch)
        walls: List[float] = []
        rss: List[float] = []

        def body() -> None:
            daemon = _launch(run, served)
            try:
                for _ in range(DAEMON_BURSTS):
                    walls.append(_burst(run, served, daemon))
            finally:
                rss.append(_stopped(run, daemon, tracebacks).rss_mb)

        repeat_for(run.seconds, body, max_reps=MAX_DAEMONS)
        run.metrics["wall_s"] = median(walls)
        run.metrics["peak_rss_mb"] = median(rss)
        run.note(f"bursts of {BURST}: " + ", ".join(
            f"{w:.3f}" for w in walls) + " s")
        run.note(f"output digest (first burst) {served.digest}")
        run.note(f"daemon tracebacks: {sum(tracebacks)}")
        return

    m = run.metrics
    m.update({f"harness.{k}": v for k, v in spans.calibrate().items()})
    m["cli.import_s"] = import_seconds(run.programs)
    served = Served(run, capacity=int(
        LIGHT[0] * LIGHT[1] + HEAVY[0] * HEAVY[1]
        + 2 * REFERENCE_BURSTS * BURST
        + sum((STEP_START + k * STEP_RATE) * STEP_SECONDS
              for k in range(STEP_MAX))))
    # An untraced daemon takes the light phase; a traced one the heavy
    # phase and the step-up.  Between them they answer reference bursts
    # in turn, so the traced/untraced ratio shares one time window.
    out = run.programs.scratch("trace") / "daemon.json"
    plain = _launch(run, served)
    try:
        traced = _launch(run, served, traced_out=out)
        try:
            _, light = _open_loop(run, served, plain, *LIGHT)
            _percentiles(light, "light", run)
            before = _stats(traced)
            phase, heavy = _open_loop(run, served, traced, *HEAVY)
            after = _stats(traced)
            _percentiles(heavy, "heavy", run)
            _serve_stats(run, before, after, phase)
            m["harness.generator_late_ms"] = \
                quantile(heavy.late_s, 0.99) * 1e3
            bursts = [(_burst(run, served, plain),
                       _burst(run, served, traced))
                      for _ in range(REFERENCE_BURSTS)]
            m["harness.trace_overhead_frac"] = (
                median([t for _, t in bursts])
                / median([p for p, _ in bursts]) - 1.0)
            m["serve.capacity_per_s"] = _step_up(run, served, traced)
        finally:
            _stopped(run, traced, tracebacks)
    finally:
        _stopped(run, plain, tracebacks)
    layer_metrics(run, [read_trace(out)],
                  {"span_ns": m["harness.span_ns"],
                   "noise_ns": m["harness.noise_ns"]})
    # A daemon idles between requests, so its unattributed share says
    # nothing about coverage; only the DSE workloads check it.
    m["harness.unattributed_frac"] = 0.0
    run.note("serve: the daemon's idle time is unattributed by design;"
             " coverage is checked on the DSE workloads only")
    m["serve.encode_us"] = served.encode_ns / served.encoded / 1e3
    m["serve.daemon_tracebacks"] = float(sum(tracebacks))
    run.note(f"daemon tracebacks: {sum(tracebacks)}")
    fill_per_layer(run)


def _serve_stats(run: Run, before: Dict[str, Any], after: Dict[str, Any],
                 phase: PhaseResult) -> None:
    """Daemon-side counters of one phase (the ``stats`` op, diffed)."""
    def diff(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    m = run.metrics
    latency = after["serve"]["request_latency_s"]
    m["serve.service_p50_ms"] = latency["p50"] * 1e3
    m["serve.service_p99_ms"] = latency["p99"] * 1e3
    m["serve.occupancy_mean"] = after["serve"]["batch_occupancy"]["mean"]
    m["serve.flushes"] = diff("serve", "flushes")
    candidates = diff("serve", "candidates")
    m["serve.coalesced_frac"] = (diff("serve", "coalesced_candidates")
                                 / candidates if candidates else 0.0)
    lookups = diff("cache", "hits") + diff("cache", "misses")
    m["serve.hit_frac"] = diff("cache", "hits") / lookups if lookups else 0.0
    m["serve.refused"] = float(phase.errors.get("overloaded", 0))
    m["serve.decode_us"] = phase.decode_ns / max(1, len(phase.records)) / 1e3
    lanes = after.get("lanes", {}).get("suite_objective", {})
    m["engine.oracle_calls"] = float(lanes.get("oracle_calls", 0))


WORKLOADS: Dict[str, Callable[[Run, bool], None]] = {
    "dse_store": dse_store,
    "funnel_mission": funnel_mission,
    "serve": serve,
}
