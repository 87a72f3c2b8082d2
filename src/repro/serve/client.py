"""Blocking client for the evaluation daemon.

One :class:`ServeClient` wraps one TCP connection and speaks the
JSON-lines protocol of :mod:`repro.serve.protocol` with a single
outstanding request at a time (the server answers in order, so no
request ids are needed).  It is deliberately synchronous — the callers
are CLI verbs, tests, and benchmark worker threads; concurrency comes
from running many clients, which is exactly the traffic shape the
server's coalescer exists for.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ServeError
from repro.serve.protocol import decode_line, encode_line, read_frame

__all__ = ["ServeClient"]


class ServeClient:
    """A connection to a running ``repro serve`` daemon.

    Args:
        host: Daemon address.
        port: Daemon port.
        timeout: Per-request socket timeout in seconds (``None`` =
            block forever; keep it comfortably above the daemon's
            ``max_wait_ms`` plus one oracle batch).

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: Optional[float] = 60.0):
        try:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        except OSError as error:
            raise ServeError(
                f"cannot reach daemon at {host}:{port}: {error}"
            ) from error
        self._file = self._sock.makefile("rb")
        self._closed = False

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    # -- wire ---------------------------------------------------------

    def request(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Send one request and block for its response envelope.

        Transport failures raise :class:`ServeError`; protocol-level
        failures (``ok: false`` — e.g. ``overloaded``) come back as
        the envelope for the caller to inspect.
        """
        if self._closed:
            raise ServeError("client is closed")
        try:
            self._sock.sendall(encode_line(message))
            line = read_frame(self._file)
        except OSError as error:
            raise ServeError(f"daemon connection lost: {error}"
                             ) from error
        if line is None:
            raise ServeError("daemon closed the connection"
                             " mid-request")
        return dict(decode_line(line))

    def pipeline(self, messages: Sequence[Mapping[str, Any]]
                 ) -> List[Dict[str, Any]]:
        """Send many requests before reading any response.

        The daemon admits every line of a read at once, parks the
        misses of all of them on the coalescer, and replies in request
        order, so a client can park its whole working set in one burst
        instead of paying a flush round-trip per request.  Returns one
        envelope per request, in order.
        """
        if self._closed:
            raise ServeError("client is closed")
        if not messages:
            return []
        try:
            self._sock.sendall(b"".join(
                encode_line(message) for message in messages))
            frames = [read_frame(self._file) for _ in messages]
        except OSError as error:
            raise ServeError(f"daemon connection lost: {error}"
                             ) from error
        if any(frame is None for frame in frames):
            raise ServeError("daemon closed the connection"
                             " mid-pipeline")
        return [dict(decode_line(frame)) for frame in frames]

    # -- operations ---------------------------------------------------

    def ping(self) -> bool:
        """True iff the daemon answers."""
        return bool(self.request({"op": "ping"}).get("ok"))

    @staticmethod
    def submit_message(candidates: Optional[
            Sequence[Mapping[str, Any]]] = None, *,
            objective: str = "suite_objective",
            space: Optional[str] = None,
            indices: Optional[Sequence[int]] = None,
            tenant: str = "anonymous",
            no_coalesce: bool = False) -> Dict[str, Any]:
        """Build one ``submit`` request payload (for :meth:`submit` or
        a :meth:`pipeline` burst)."""
        message: Dict[str, Any] = {"op": "submit",
                                   "objective": objective,
                                   "tenant": tenant}
        if no_coalesce:
            message["no_coalesce"] = True
        if candidates is not None:
            message["candidates"] = [dict(candidate)
                                     for candidate in candidates]
        if space is not None:
            message["space"] = space
        if indices is not None:
            message["indices"] = list(indices)
        return message

    def submit(self, candidates: Optional[Sequence[Mapping[str, Any]]]
               = None, *, objective: str = "suite_objective",
               space: Optional[str] = None,
               indices: Optional[Sequence[int]] = None,
               tenant: str = "anonymous",
               no_coalesce: bool = False) -> Dict[str, Any]:
        """Submit candidates for pricing; returns the raw envelope.

        Pass either ``candidates`` (config mappings) or ``space`` +
        ``indices`` (design indices decoded server-side through the
        SPACES registry).  The envelope carries ``ok`` and, on
        success, ``results`` (candidate/value/key/cached per input, in
        order); on admission rejection, ``error: "overloaded"``.
        """
        return self.request(self.submit_message(
            candidates, objective=objective, space=space,
            indices=indices, tenant=tenant, no_coalesce=no_coalesce))

    def submit_values(self, *args: Any, **kwargs: Any) -> List[Any]:
        """:meth:`submit`, unwrapped to the value list; raises
        :class:`ServeError` on any non-ok envelope (including
        backpressure — callers wanting to handle ``overloaded``
        themselves should use :meth:`submit`)."""
        envelope = self.submit(*args, **kwargs)
        if not envelope.get("ok"):
            raise ServeError(
                f"submit failed: {envelope.get('error', 'unknown')}"
                f" ({envelope.get('detail', 'no detail')})")
        return [result["value"] for result in envelope["results"]]

    def stats(self) -> Dict[str, Any]:
        """The daemon's dashboard snapshot (see ``EvalServer.stats``)."""
        envelope = self.request({"op": "stats"})
        if not envelope.get("ok"):
            raise ServeError(f"stats failed: {envelope}")
        return envelope

    def shutdown(self) -> bool:
        """Ask the daemon to drain and exit; True once acknowledged."""
        acknowledged = bool(
            self.request({"op": "shutdown"}).get("ok"))
        self.close()
        return acknowledged
