"""Integration tests for the evaluation daemon.

Load-bearing properties: served values are byte-identical to the
serial one-shot path (same cache keys, so a server-primed cache
replays ``repro run`` with zero oracle calls), concurrent clients'
misses coalesce into shared batches, and admission control rejects —
never queues unboundedly — under pressure.
"""

import json
import socket
import threading
import time

from repro.cli import main
from repro.engine import Evaluator, ResultCache
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    encode_line,
    evaluator_context,
    resolve_space,
)
from repro.spec.registry import OBJECTIVES, SPACES

SPACE = SPACES.build("codesign", "$")


def serial_values(indices, objective="suite_objective"):
    """The one-shot reference: a fresh serial Evaluator with the CLI's
    DSE context."""
    evaluator = Evaluator(OBJECTIVES.get(objective),
                          context=evaluator_context(objective))
    outcomes = evaluator.map_batch(
        [SPACE.config_at(i) for i in indices])
    return [outcome.value for outcome in outcomes]


class TestEquivalence:
    def test_served_values_match_serial_path(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            served = client.submit_values(space="codesign",
                                          indices=list(range(8)))
        assert served == serial_values(range(8))

    def test_served_keys_match_serial_path(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        evaluator = Evaluator(
            OBJECTIVES.get("suite_objective"),
            context=evaluator_context("suite_objective"))
        with handle.client() as client:
            envelope = client.submit(space="codesign", indices=[0, 7])
        assert envelope["ok"]
        assert [r["key"] for r in envelope["results"]] == \
            [evaluator.key_for(SPACE.config_at(i)) for i in (0, 7)]

    def test_inline_and_indexed_submissions_share_keys(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            by_index = client.submit(space="codesign", indices=[3])
            inline = client.submit(
                candidates=[SPACE.config_at(3)])
        assert by_index["results"][0]["key"] == \
            inline["results"][0]["key"]
        assert inline["results"][0]["cached"] is True

    def test_server_primed_cache_replays_run_with_zero_oracle_calls(
            self, daemon, tmp_path, capsys):
        # The acceptance criterion, end to end: prime through the
        # daemon, then the one-shot CLI replays entirely from cache.
        cache = str(tmp_path / "cache")
        handle = daemon(max_wait_ms=10.0, cache_dir=cache)
        with handle.client() as client:
            client.submit_values(space="codesign",
                                 indices=list(range(8)))
        handle.stop()

        scenario = tmp_path / "grid8.json"
        scenario.write_text(json.dumps({
            "spec_version": 1, "kind": "scenario", "name": "grid8",
            "dse": {"space": {"ref": "codesign"},
                    "objective": {"ref": "suite_objective"},
                    "strategy": "grid", "budget": 8, "seed": 0,
                    "jobs": 1},
        }))
        assert main(["run", str(scenario), "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "oracle calls: 0 (cache hits: 8, jobs: 1)" in out


class TestCoalescing:
    def test_concurrent_clients_share_one_batch(self, daemon):
        handle = daemon(max_wait_ms=400.0, max_batch=1024)
        clients = 4
        barrier = threading.Barrier(clients)
        values = {}

        def worker(rank):
            indices = list(range(rank * 4, rank * 4 + 4))
            with handle.client() as client:
                barrier.wait()
                values[rank] = client.submit_values(
                    space="codesign", indices=indices,
                    tenant=f"t{rank}")

        threads = [threading.Thread(target=worker, args=(rank,))
                   for rank in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for rank in range(clients):
            assert values[rank] == serial_values(
                range(rank * 4, rank * 4 + 4))

        with handle.client() as client:
            stats = client.stats()["serve"]
        assert stats["coalesced_batches"] >= 1
        assert stats["coalesced_candidates"] >= 8
        # Coalescing amortizes: far fewer flushes than requests.
        assert stats["flushes"] < clients

    def test_duplicate_candidates_share_one_oracle_slot(self, daemon):
        handle = daemon(max_wait_ms=300.0, max_batch=1024)
        barrier = threading.Barrier(2)
        envelopes = {}

        def worker(name):
            with handle.client() as client:
                barrier.wait()
                envelopes[name] = client.submit(
                    space="codesign", indices=[0, 1, 2], tenant=name)

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        values = {name: [r["value"] for r in envelopes[name]["results"]]
                  for name in envelopes}
        assert values["a"] == values["b"] == serial_values([0, 1, 2])
        with handle.client() as client:
            stats = client.stats()
        # Both tenants asked for the same 3 candidates; the oracle
        # priced each exactly once.
        occupancy = stats["serve"]["batch_occupancy"]
        assert occupancy["count"] * occupancy["mean"] == 3

    def test_deadline_flushes_a_single_candidate(self, daemon):
        handle = daemon(max_wait_ms=100.0, max_batch=1024)
        started = time.monotonic()
        with handle.client() as client:
            values = client.submit_values(space="codesign",
                                          indices=[9])
            stats = client.stats()["serve"]
        assert time.monotonic() - started < 30
        assert values == serial_values([9])
        assert stats["flushes"] == 1
        assert stats["batch_occupancy"]["count"] == 1
        assert stats["batch_occupancy"]["mean"] == 1

    def test_occupancy_triggers_flush_before_deadline(self, daemon):
        # With a 60s deadline, only the max_batch trigger can explain
        # a prompt answer.
        handle = daemon(max_wait_ms=60_000.0, max_batch=4)
        started = time.monotonic()
        with handle.client() as client:
            values = client.submit_values(space="codesign",
                                          indices=[0, 1, 2, 3])
        assert time.monotonic() - started < 30
        assert values == serial_values([0, 1, 2, 3])

    def test_no_coalesce_prices_request_alone(self, daemon):
        handle = daemon(max_wait_ms=60_000.0, max_batch=1024)
        with handle.client() as client:
            values = client.submit_values(space="codesign",
                                          indices=[4, 5],
                                          no_coalesce=True)
            stats = client.stats()["serve"]
        assert values == serial_values([4, 5])
        assert stats["flushes"] == 1
        assert stats["coalesced_batches"] == 0


class TestCacheSharing:
    def test_hits_answer_across_tenants(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0, 1, 2],
                                 tenant="t1")
            second = client.submit(space="codesign", indices=[1, 2, 3],
                                   tenant="t2")
        assert [r["cached"] for r in second["results"]] == \
            [True, True, False]

    def test_tenant_counters_are_namespaced_metrics(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0, 1, 2],
                                 tenant="t1")
            client.submit_values(space="codesign", indices=[1, 2, 3],
                                 tenant="t2")
            stats = client.stats()
        assert stats["tenants"]["t1"] == {"misses": 3.0}
        assert stats["tenants"]["t2"] == {"hits": 2.0, "misses": 1.0}
        # The registry IS the store: the same counts live under the
        # namespaced metric names.
        snapshot = handle.server.metrics.snapshot()
        assert snapshot["engine.cache.tenant.t2.hits"]["value"] == 2.0

    def test_cache_totals_reported(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0, 1])
            client.submit_values(space="codesign", indices=[0, 1])
            stats = client.stats()
        assert stats["cache"]["hits"] >= 2
        assert stats["cache"]["misses"] >= 2


    def test_oracle_thread_writes_while_loop_thread_reads(self, daemon,
                                                          tmp_path):
        # Overlapping windows from concurrent clients: the loop thread
        # probes the store while the oracle thread appends to it, and a
        # 4-entry memory level sends most probes back to the segment.
        cache = str(tmp_path / "cache")
        handle = daemon(max_wait_ms=5.0, cache_dir=cache,
                        cache_max_entries=4)
        envelopes = []
        failures = []

        def worker(rank):
            try:
                with handle.client() as client:
                    for lo in range(rank, 32, 4):
                        envelopes.append(client.submit(
                            space="codesign",
                            indices=list(range(lo, lo + 6))))
            except Exception as error:  # noqa: BLE001 -- reported below
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(rank,))
                   for rank in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        handle.stop()
        assert not failures
        served = {}
        for envelope in envelopes:
            assert envelope["ok"], envelope
            for result in envelope["results"]:
                served[result["key"]] = result["value"]
        serial = Evaluator(OBJECTIVES.get("suite_objective"),
                           context=evaluator_context("suite_objective"))
        assert served == {r.key: r.value for r in serial.map_batch(
            [SPACE.config_at(i) for i in range(37)])}
        store = ResultCache(cache)
        assert store.get_many(served) == served
        assert store.metrics.value("engine.cache.corrupt") == 0


class TestAdmissionControl:
    def test_per_tenant_inflight_cap(self, daemon):
        handle = daemon(max_wait_ms=10.0, max_inflight=4)
        with handle.client() as client:
            envelope = client.submit(space="codesign",
                                     indices=list(range(5)),
                                     tenant="greedy")
        assert envelope["ok"] is False
        assert envelope["error"] == "overloaded"
        assert "retry_after_ms" in envelope

    def test_queue_full_rejects_new_misses(self, daemon):
        handle = daemon(max_wait_ms=60_000.0, max_batch=1024,
                        max_queue=4)
        parked = {}

        def parker():
            with handle.client(timeout=120.0) as client:
                parked["values"] = client.submit_values(
                    space="codesign", indices=[0, 1, 2, 3],
                    tenant="parker")

        thread = threading.Thread(target=parker)
        thread.start()
        # Wait until the parker's misses occupy the whole queue.
        deadline = time.monotonic() + 30
        with handle.client() as client:
            while time.monotonic() < deadline:
                if client.stats()["serve"]["queue_depth"] >= 4:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("queue never filled")
            rejected = client.submit(space="codesign", indices=[8, 9],
                                     tenant="latecomer")
        assert rejected["ok"] is False
        assert rejected["error"] == "overloaded"
        assert "queue" in rejected["detail"]

        # Shutdown drains the parked batch; the parker still gets
        # correct values.
        handle.stop()
        thread.join(timeout=60)
        assert parked["values"] == serial_values([0, 1, 2, 3])

    def test_draining_rejects_new_submissions(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        handle.server.draining = True
        with handle.client() as client:
            envelope = client.submit(space="codesign", indices=[0])
        assert envelope["ok"] is False
        assert envelope["error"] == "draining"


class TestRobustness:
    def test_disconnect_mid_batch_leaves_server_healthy(self, daemon):
        handle = daemon(max_wait_ms=300.0, max_batch=1024)
        # A raw socket fires a submission and vanishes without reading
        # the response.
        ghost = socket.create_connection(("127.0.0.1", handle.port))
        ghost.sendall(encode_line({"op": "submit", "space": "codesign",
                                   "indices": [0, 1], "tenant": "g"}))
        ghost.close()
        # An honest client overlapping the ghost's candidates still
        # gets correct values, and the server keeps answering.
        with handle.client() as client:
            values = client.submit_values(space="codesign",
                                          indices=[0, 1, 2])
            assert values == serial_values([0, 1, 2])
            assert client.ping()

    def test_malformed_line_is_bad_request(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            envelope = client.request({"op": "ping"})
            assert envelope["ok"]
            bad = client.submit(candidates=[{"x": 1}],
                                space="codesign", indices=[0])
        assert bad["ok"] is False
        assert bad["error"] == "bad_request"

    def test_raw_garbage_is_bad_request_not_a_crash(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        raw = socket.create_connection(("127.0.0.1", handle.port))
        try:
            raw.sendall(b"this is not json\n")
            reply = raw.makefile("rb").readline()
        finally:
            raw.close()
        envelope = json.loads(reply)
        assert envelope["ok"] is False
        assert envelope["error"] == "bad_request"
        with handle.client() as client:
            assert client.ping()

    def test_stats_dashboard_shape(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0])
            stats = client.stats()
        serve = stats["serve"]
        assert serve["requests"] == 1
        assert serve["candidates"] == 1
        assert serve["queue_depth"] == 0
        assert serve["request_latency_s"]["count"] == 1
        assert serve["request_latency_s"]["p99"] >= \
            serve["request_latency_s"]["p50"] >= 0
        assert stats["lanes"]["suite_objective"]["oracle_calls"] == 1

    def test_shutdown_op_stops_the_daemon(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            assert client.shutdown()
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()

    def test_lane_stats_count_only_their_own_lane(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0, 1, 2])
            client.submit_values(space="codesign", indices=[0],
                                 objective="mission_objective")
            lanes = client.stats()["lanes"]
        assert lanes["suite_objective"]["oracle_calls"] == 3
        assert lanes["mission_objective"]["oracle_calls"] == 1


def _failing_objective(candidate):
    raise ValueError("objective blew up")


def _replies(sock):
    """Every reply line until the daemon closes the connection."""
    return [json.loads(line) for line in sock.makefile("rb")]


class TestPipelinedWire:
    """The connection handler's wire contract, over one raw socket."""

    def test_pipelined_replies_come_back_in_request_order(self, daemon):
        handle = daemon(max_wait_ms=5.0)
        indices = [i * 7 % SPACE.size for i in range(2000)]
        lines = [encode_line({"op": "submit", "space": "codesign",
                              "indices": [index], "tenant": "pipeliner"})
                 for index in indices]
        lines[500:500] = [encode_line({"op": "ping"})]
        lines[1000:1000] = [encode_line({"op": "stats"})]
        lines[1500:1500] = [b"not json at all\n"]
        payload = b"".join(lines)
        assert len(payload) > 128 * 1024  # straddles many reads
        sock = socket.create_connection(("127.0.0.1", handle.port))
        sender = threading.Thread(target=sock.sendall, args=(payload,))
        try:
            sender.start()
            reader = sock.makefile("rb")
            replies = [json.loads(reader.readline()) for _ in lines]
            sender.join(timeout=60)
        finally:
            sock.close()
        assert [r["op"] for r in replies[500:1501:500]] == \
            ["ping", "stats", "?"]
        assert replies[1500]["error"] == "bad_request"
        submits = replies[:500] + replies[501:1000] \
            + replies[1001:1500] + replies[1501:]
        expected = serial_values(range(SPACE.size))
        assert all(r["ok"] and r["op"] == "submit" for r in submits)
        assert [r["results"][0]["value"] for r in submits] == \
            [expected[index] for index in indices]

    def test_final_line_without_newline_is_answered(self, daemon):
        handle = daemon(max_wait_ms=5.0)
        sock = socket.create_connection(("127.0.0.1", handle.port))
        try:
            sock.sendall(encode_line({"op": "ping"})
                         + encode_line({"op": "submit",
                                        "space": "codesign",
                                        "indices": [11]})[:-1])
            sock.shutdown(socket.SHUT_WR)
            replies = _replies(sock)
        finally:
            sock.close()
        assert [r["op"] for r in replies] == ["ping", "submit"]
        assert replies[1]["results"][0]["value"] == serial_values([11])[0]

    def test_over_long_line_is_refused_after_earlier_replies(self,
                                                             daemon):
        handle = daemon(max_wait_ms=5.0)
        sock = socket.create_connection(("127.0.0.1", handle.port))
        try:
            # No newline: the daemon has read every byte by the time
            # the line is over the bound, so it closes cleanly.
            sock.sendall(encode_line({"op": "ping"})
                         + encode_line({"op": "submit",
                                        "space": "codesign",
                                        "indices": [12]})
                         + b"x" * (MAX_LINE_BYTES + 1))
            replies = _replies(sock)  # ends at the daemon's EOF
        finally:
            sock.close()
        assert [r["op"] for r in replies] == ["ping", "submit", "?"]
        assert replies[1]["results"][0]["value"] == serial_values([12])[0]
        assert replies[2]["error"] == "bad_request"
        assert replies[2]["detail"] == \
            f"wire line exceeds {MAX_LINE_BYTES} bytes"
        with handle.client() as client:
            assert client.ping()


class TestSpaceBuilds:
    def test_a_daemon_builds_each_space_once(self, daemon, monkeypatch):
        entry = SPACES.entry("codesign_xl")
        builds = []
        original = entry.builder

        def counting(**kwargs):
            builds.append(kwargs)
            return original(**kwargs)

        monkeypatch.setattr(entry, "builder", counting)
        resolve_space.cache_clear()
        try:
            handle = daemon(max_wait_ms=5.0)
            with handle.client() as client:
                envelopes = client.pipeline([
                    client.submit_message(space="codesign_xl",
                                          indices=[i * 4099])
                    for i in range(50)])
                unknown = client.submit(space="no_such_space",
                                        indices=[0])
        finally:
            resolve_space.cache_clear()
        assert all(envelope["ok"] for envelope in envelopes)
        assert len(builds) == 1
        assert unknown["ok"] is False
        assert unknown["error"] == "bad_request"
        assert unknown["detail"].startswith("$.space:")


class TestOracleFailure:
    def test_every_cobatched_waiter_is_answered(self, daemon):
        handle = daemon(max_wait_ms=400.0, max_batch=1024)
        lane = handle.server.lane("suite_objective")
        working = lane.evaluator.objective
        lane.evaluator.objective = _failing_objective
        barrier = threading.Barrier(2)
        envelopes = {}

        def tenant(rank):
            with handle.client(timeout=60.0) as client:
                barrier.wait()
                envelopes[rank] = client.submit(
                    space="codesign", indices=[rank],
                    tenant=f"t{rank}")

        started = time.monotonic()
        threads = [threading.Thread(target=tenant, args=(rank,))
                   for rank in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # Answered by the failed flush, far inside the client timeout.
        assert time.monotonic() - started < 30.0
        for rank in range(2):
            assert envelopes[rank]["ok"] is False
            assert "oracle failed" in envelopes[rank]["detail"]
            assert "objective blew up" in envelopes[rank]["detail"]
        assert handle.server.metrics.value(
            "serve.coalesced_batches") == 1
        # An uncoalesced request fails the same way.
        with handle.client() as client:
            direct = client.submit(space="codesign", indices=[5],
                                   no_coalesce=True)
        assert direct["ok"] is False
        assert "oracle failed" in direct["detail"]
        # The daemon keeps serving once the objective behaves again.
        lane.evaluator.objective = working
        with handle.client() as client:
            assert client.submit_values(space="codesign",
                                        indices=[0]) == \
                serial_values([0])
