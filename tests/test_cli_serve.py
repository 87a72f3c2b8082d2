"""E2E smoke for the ``repro serve`` / ``repro submit`` verbs.

One real daemon subprocess, concurrent clients, and the CLI client
verb — the same shape as the CI serve smoke job, kept small enough for
tier-1.
"""

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.serve import ServeClient

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def daemon_process(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cache = str(tmp_path / "cache")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--max-wait-ms", "150", "--cache", cache],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT))
    banner = proc.stdout.readline().strip()
    assert banner.startswith("serving on 127.0.0.1:"), banner
    port = int(banner.rsplit(":", 1)[1])
    try:
        yield proc, port, cache
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=30)


def _submit_cli(port, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "submit", "--port",
         str(port), *extra],
        capture_output=True, text=True, timeout=120, env=env,
        cwd=str(ROOT))


class TestServeSmoke:
    def test_daemon_serves_concurrent_clients(self, daemon_process,
                                              tmp_path):
        proc, port, _ = daemon_process

        # 4 concurrent clients, distinct candidates each.
        barrier = threading.Barrier(4)
        envelopes = {}

        def worker(rank):
            with ServeClient(port=port, timeout=120.0) as client:
                barrier.wait()
                envelopes[rank] = client.submit(
                    space="codesign",
                    indices=list(range(rank * 4, rank * 4 + 4)),
                    tenant=f"smoke{rank}")

        threads = [threading.Thread(target=worker, args=(rank,))
                   for rank in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for rank in range(4):
            assert envelopes[rank]["ok"], envelopes[rank]
            assert len(envelopes[rank]["results"]) == 4

        # The CLI verb resubmits overlapping candidates: all hits now.
        out_json = tmp_path / "resubmit.json"
        result = _submit_cli(port, "--indices", "0-7", "--json",
                             str(out_json))
        assert result.returncode == 0, result.stderr
        assert "cache hits: 8/8" in result.stdout
        envelope = json.loads(out_json.read_text())
        assert [r["cached"] for r in envelope["results"]] == [True] * 8
        # CLI-submitted values match what the raw clients were served.
        assert [r["value"] for r in envelope["results"]] == \
            [r["value"] for rank in (0, 1)
             for r in envelopes[rank]["results"]]

        # Concurrent misses coalesced into shared batches.
        with ServeClient(port=port, timeout=120.0) as client:
            stats = client.stats()
        assert stats["serve"]["coalesced_batches"] >= 1

        # Stats + graceful shutdown through the CLI verb.
        result = _submit_cli(port, "--stats", "--shutdown")
        assert result.returncode == 0, result.stderr
        assert "Daemon dashboard" in result.stdout
        assert "daemon acknowledged shutdown" in result.stdout

        assert proc.wait(timeout=60) == 0
        tail = proc.stdout.read()
        assert "request(s)" in tail and "coalesced" in tail

    def test_submit_without_daemon_fails_cleanly(self):
        result = _submit_cli(1, "--indices", "0", "--timeout", "5")
        assert result.returncode == 2
        assert "cannot reach daemon" in result.stderr

    def test_submit_requires_an_action(self, daemon_process):
        _, port, _ = daemon_process
        result = _submit_cli(port)
        assert result.returncode == 2
        assert "nothing to do" in result.stderr

    def test_shutdown_with_idle_client_is_clean(self, daemon_process):
        proc, port, _ = daemon_process
        # A connected client that never sends a line: the daemon must
        # close it on shutdown, not cancel its handler mid-read.
        with socket.create_connection(("127.0.0.1", port), timeout=30):
            result = _submit_cli(port, "--shutdown")
            assert result.returncode == 0, result.stderr
            assert proc.wait(timeout=60) == 0
        stderr = proc.stderr.read()
        assert "Traceback" not in stderr, stderr
