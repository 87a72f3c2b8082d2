"""Wire protocol of the evaluation daemon: JSON lines over a socket.

Each message is one JSON object on one ``\\n``-terminated line (UTF-8,
no embedded newlines — ``json.dumps`` never emits raw ones).  Requests
carry an ``op``; responses echo it back with ``ok: true`` plus the
op-specific payload, or ``ok: false`` with an ``error`` code and a
human-readable ``detail``:

========== ==========================================================
op         request fields
========== ==========================================================
ping       —
submit     ``objective`` (OBJECTIVES ref, default
           ``suite_objective``), candidates as either ``candidates``
           (a list of config mappings) or ``space`` (SPACES ref) +
           ``indices`` (design indices into it), optional ``tenant``
           label and ``no_coalesce`` flag
stats      —
shutdown   — (graceful: drain pending batches, then stop)
========== ==========================================================

Error codes the server emits: ``bad_request`` (malformed message —
the dotted-path detail pinpoints the field), ``overloaded`` (admission
control rejected the submission; retry after ``retry_after_ms``),
``draining`` (server is shutting down), ``internal`` (the oracle
raised).

Candidate decoding goes through the same spec registries as the CLI
(:data:`~repro.spec.registry.OBJECTIVES`,
:data:`~repro.spec.registry.SPACES`), and the server prices through an
:class:`~repro.engine.evaluator.Evaluator` built with the CLI's
``dse-codesign`` context — so a submission, a ``repro dse`` run, and a
``repro run`` scenario replay all resolve to identical cache keys.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SpecError
from repro.spec import schema

__all__ = ["MAX_LINE_BYTES", "Submission", "decode_line",
           "decode_submission", "encode_line", "error_response",
           "evaluator_context", "resolve_space"]

#: Upper bound on one wire line; a client streaming more than this is
#: malformed (or malicious) and gets a ``bad_request``, not a swelling
#: server buffer.  Generous enough for ~10k 4-knob candidates.
MAX_LINE_BYTES = 8 * 1024 * 1024

_OPS = ("ping", "submit", "stats", "shutdown")

_SUBMIT_KEYS = ("op", "objective", "candidates", "space", "indices",
                "tenant", "no_coalesce")


def evaluator_context(objective_name: str) -> Dict[str, str]:
    """The evaluator context of the CLI's DSE path, verbatim.

    Key-compatibility is the serve layer's core contract: this must
    stay byte-identical to what ``repro dse`` / ``repro run`` build, so
    a server-primed cache replays them with zero oracle calls
    (``tests/serve/test_serve.py`` enforces it end to end).
    """
    return {"task": "dse-codesign", "objective": objective_name}


@dataclass
class Submission:
    """One decoded ``submit`` request.

    Attributes:
        objective: Registry name of the objective to price under.
        candidates: Decoded candidate configs, in request order.
        tenant: Client-chosen label for per-tenant accounting.
        no_coalesce: Price this request's misses as their own batch
            instead of joining the shared pending set (the benchmark
            baseline; values and cache keys are unchanged).
    """

    objective: str
    candidates: List[Mapping[str, Any]] = field(default_factory=list)
    tenant: str = "anonymous"
    no_coalesce: bool = False


@functools.lru_cache(maxsize=None)
def resolve_space(name: str) -> Any:
    """The design space registered as ``name``, built once per process.

    Building ``codesign_xl`` costs more than pricing one candidate, and
    a daemon resolves a space on every indexed ``submit``.  Spaces are
    never mutated and ``config_at`` returns a fresh dict, so sharing one
    instance changes no served value.  An unknown name raises the
    ``$.space`` :class:`~repro.errors.SpecError` on every call;
    ``lru_cache`` does not cache exceptions.
    """
    from repro.spec.registry import SPACES

    return SPACES.build(name, "$.space")


def decode_line(raw: bytes) -> Mapping[str, Any]:
    """One wire line -> request mapping (validates op)."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SpecError(f"$: not a JSON line: {error}") from None
    payload = schema.require_mapping(payload, "$")
    op = schema.as_str(schema.get_field(payload, "op", "$"), "$.op")
    if op not in _OPS:
        raise SpecError(
            f"$.op: unknown operation {op!r}; expected one of"
            f" {sorted(_OPS)}")
    return payload


def encode_line(message: Mapping[str, Any]) -> bytes:
    """One response/request mapping -> wire line (newline included)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode(
        "utf-8")


def error_response(op: str, code: str, detail: str,
                   **extra: Any) -> Dict[str, Any]:
    """A failure envelope: ``{"ok": false, "error": code, ...}``."""
    return {"ok": False, "op": op, "error": code, "detail": detail,
            **extra}


def decode_submission(payload: Mapping[str, Any]) -> Submission:
    """Validate and decode a ``submit`` request.

    Candidates come either inline (``candidates``: config mappings) or
    by reference (``space`` + ``indices``: design indices resolved
    through the SPACES registry) — both land on the exact config dicts
    the registries produce, so fingerprints match programmatic runs.
    """
    from repro.spec.registry import OBJECTIVES

    schema.check_keys(payload, _SUBMIT_KEYS, "$")
    objective = schema.as_str(
        payload.get("objective", "suite_objective"), "$.objective")
    OBJECTIVES.entry(objective, "$.objective")
    tenant = schema.as_str(
        payload.get("tenant", "anonymous"), "$.tenant")
    no_coalesce = schema.as_bool(
        payload.get("no_coalesce", False), "$.no_coalesce")
    has_inline = "candidates" in payload
    has_ref = "space" in payload or "indices" in payload
    if has_inline == has_ref:
        raise SpecError(
            "$: a submission carries either 'candidates' or"
            " 'space' + 'indices', not "
            + ("both" if has_inline else "neither"))
    if has_inline:
        candidates = [
            dict(schema.require_mapping(
                candidate, schema.item("$.candidates", i)))
            for i, candidate in enumerate(schema.as_sequence(
                payload["candidates"], "$.candidates"))
        ]
    else:
        space_name = schema.as_str(
            schema.get_field(payload, "space", "$"), "$.space")
        space = resolve_space(space_name)
        indices = schema.as_sequence(
            schema.get_field(payload, "indices", "$"), "$.indices")
        candidates = []
        for i, index in enumerate(indices):
            path = schema.item("$.indices", i)
            index = schema.as_int(index, path)
            if not 0 <= index < space.size:
                raise SpecError(
                    f"{path}: index {index} outside space"
                    f" {space_name!r} (size {space.size})")
            candidates.append(space.config_at(index))
    if not candidates:
        raise SpecError("$: a submission must carry at least one"
                        " candidate")
    return Submission(objective=objective, candidates=candidates,
                      tenant=tenant, no_coalesce=no_coalesce)


def read_frame(handle: Any) -> Optional[bytes]:
    """Read one wire line from a file-like object (None on EOF).

    Used by the blocking client; the daemon frames each socket read
    itself, with the same :data:`MAX_LINE_BYTES` bound.
    """
    line = handle.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise SpecError(
            f"$: wire line exceeds {MAX_LINE_BYTES} bytes")
    return line


def split_results(results: List[Mapping[str, Any]]
                  ) -> Tuple[int, int]:
    """(cache hits, fresh evaluations) of a submit response body."""
    hits = sum(1 for result in results if result["cached"])
    return hits, len(results) - hits
