"""Launching the program under test: one-shot CLI passes and the daemon.

Every process runs from a scratch directory inside the benchmark's work
directory (so nothing lands in the checkout proper), with ``TMPDIR``
pointing there too, and is reaped with ``wait4`` so its own peak RSS is
known.  Each launch has a watchdog that kills it after ``timeout_s``.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

TRACED = Path(__file__).resolve().parent / "traced.py"

_TRACEBACK = "Traceback (most recent call last)"

#: How long a daemon gets to exit after ``shutdown`` while an idle
#: client is still connected.
IDLE_GRACE_S = 2.0


@dataclass
class Outcome:
    """What one process did."""

    code: int  # exit code; -9 when the watchdog killed it
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def tracebacks(self) -> int:
        return self.stderr.count(_TRACEBACK)


class Programs:
    """Launches ``repro`` commands for one benchmark run."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env: Dict[str, str] = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            "TMPDIR": str(work),
            # The program asks git for provenance; keep git inside the
            # checkout.
            "GIT_CEILING_DIRECTORIES": str(root.parent),
        })
        self._serial = 0

    def scratch(self, name: str) -> Path:
        """A fresh directory under the work directory."""
        self._serial += 1
        path = self.work / f"{self._serial:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def argv(self, args: List[str], traced_out: Optional[Path]) -> List[str]:
        if traced_out is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(TRACED), str(traced_out), *args]

    def run(self, args: List[str], *, timeout_s: float,
            traced_out: Optional[Path] = None) -> Outcome:
        """Run one CLI command to completion."""
        cwd = self.scratch("cli")
        out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.argv(args, traced_out), cwd=cwd,
                                    env=self.env, stdout=out, stderr=err)
            code, rss_mb = _reap(proc, timeout_s)
            wall = time.perf_counter() - start
        return Outcome(code=code, wall_s=wall, rss_mb=rss_mb,
                       stdout=out_path.read_text(),
                       stderr=err_path.read_text())


def _reap(proc: subprocess.Popen, timeout_s: float):
    """Wait for ``proc`` (killing it after ``timeout_s``); returns
    ``(exit code, peak RSS in MB)``."""
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


_BANNER = re.compile(r"serving on ([\d.]+):(\d+)")


class Daemon:
    """One ``repro serve --port 0`` process with default flags."""

    def __init__(self, programs: Programs, *,
                 traced_out: Optional[Path] = None,
                 timeout_s: float = 170.0):
        self.programs = programs
        self.traced_out = traced_out
        self.timeout_s = timeout_s
        self.proc: Optional[subprocess.Popen] = None
        self._idle: Optional[socket.socket] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.ready_s = float("nan")

    def start(self, first: bytes = b'{"op":"ping"}\n') -> bytes:
        """Launch, send ``first`` and wait for its reply, which is
        returned; ``ready_s`` is the time from launch to that reply."""
        cwd = self.programs.scratch("serve")
        self._err_path = cwd / "stderr.txt"
        self._err = open(self._err_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.programs.argv(["serve", "--port", "0"], self.traced_out),
            cwd=cwd, env=self.programs.env, stdout=subprocess.PIPE,
            stderr=self._err)
        self._start = start
        self._watchdog = threading.Timer(self.timeout_s, self.proc.kill)
        self._watchdog.start()
        try:
            assert self.proc.stdout is not None
            banner = self.proc.stdout.readline().decode()
            match = _BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            reply = self.request(first)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start
        # An idle client stays connected until the daemon has exited, as
        # clients of a long-lived daemon do when it is shut down.
        self._idle = self.connect()
        return reply

    def _wait(self, grace_s: float):
        """Reap the daemon.  The idle client is closed once it has had
        ``grace_s`` to exit with it still connected (a daemon that waits
        for its clients would otherwise never exit)."""
        assert self.proc is not None
        if self._idle is not None:
            deadline = time.perf_counter() + grace_s
            while time.perf_counter() < deadline:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self._idle.close()
                    return status, usage
                time.sleep(0.01)
            self._idle.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        return status, usage

    def connect(self, timeout_s: float = 10.0) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def request(self, line: bytes) -> bytes:
        """One request on its own connection; returns the reply line."""
        with self.connect() as sock, sock.makefile("rb") as reader:
            sock.sendall(line)
            return reader.readline()

    def stop(self) -> Outcome:
        """Ask for a graceful shutdown and reap the process."""
        assert self.proc is not None
        try:
            if not self.port:
                raise OSError("daemon never reported its port")
            self.request(b'{"op":"shutdown"}\n')
        except OSError:
            self.proc.kill()
        try:
            status, usage = self._wait(IDLE_GRACE_S)
        finally:
            self._watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        assert self.proc.stdout is not None
        stdout = self.proc.stdout.read().decode()
        self.proc.stdout.close()
        self._err.close()
        return Outcome(code=self.proc.returncode,
                       wall_s=time.perf_counter() - self._start,
                       rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout,
                       stderr=self._err_path.read_text())
