"""Zero-copy shared-memory column transport for multi-process shards.

Pickling a rollout population to pool workers — and pickling every
result row back — is row-oriented transport: per-object overhead on
exactly the path the SoA kernels vectorized.  This module ships the
*columns* instead: one ``multiprocessing.shared_memory`` segment per
direction, laid out as named fixed-dtype arrays.  The parent writes
candidate columns once, workers map the segment and write result
columns at their shard's row offsets, and nobody serializes a row
object — the "minimize data movement" half of the paper's
memory/communication challenge applied to the evaluation fabric
itself.

Byte-exactness is the design invariant: a float64 written on one side
is mapped, not re-encoded, on the other, so the serial == parallel ==
cache-warm equivalence contracts hold bit-for-bit through this
transport (pickle preserves float bytes too — this path just stops
paying per-row CPU and memory for the privilege).

:class:`ColumnBlock` is deliberately dumb: a layout is a tuple of
``(name, dtype, shape)`` specs known to both sides (no header in the
segment), offsets are 8-byte aligned, and attach/close/destroy map the
create/close/unlink lifecycle.  The parent owns the segment: it
creates and destroys; workers attach and close.

CPython quirk (bpo-38119): a process that merely *attaches* to a
segment still registers it with its ``resource_tracker``.  Under the
default ``fork`` start method workers share the parent's tracker (the
engine pool starts it before forking), whose
registry is a set — the duplicate registration dedupes and the parent's
``unlink`` clears the single entry, so the standard lifecycle is clean
and no unregister workaround is needed (an extra worker-side
``unregister`` would *remove the parent's entry* and produce tracker
noise).  Under ``spawn``, a worker's private tracker may unlink the
segment at worker exit; that is tolerable here because POSIX keeps
existing mappings valid after unlink, workers outlive all attaches, and
the owner's :meth:`ColumnBlock.destroy` treats an already-unlinked
segment as destroyed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["ColumnBlock", "shm_available"]

#: One column: (name, dtype, shape).  Both sides must pass the same
#: layout; the segment itself carries no metadata.
ColumnSpec = Tuple[str, object, Tuple[int, ...]]

_ALIGN = 8

_available: "bool | None" = None


def shm_available() -> bool:
    """Whether POSIX shared memory works here (probed once).

    False on platforms/sandboxes without ``/dev/shm`` or with
    ``shm_open`` denied; fleet studies then run serially.
    """
    global _available
    if _available is None:
        try:
            from multiprocessing import shared_memory
            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _available = True
        except Exception:
            _available = False
    return _available


def _layout(specs: Sequence[ColumnSpec]) -> Tuple[Dict[str, Tuple[int, np.dtype, Tuple[int, ...]]], int]:
    """Offsets for each column and the total segment size."""
    offsets: Dict[str, Tuple[int, np.dtype, Tuple[int, ...]]] = {}
    cursor = 0
    for name, dtype, shape in specs:
        dt = np.dtype(dtype)
        count = 1
        for dim in shape:
            count *= int(dim)
        cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
        offsets[name] = (cursor, dt, tuple(int(d) for d in shape))
        cursor += count * dt.itemsize
    return offsets, max(cursor, 1)


class ColumnBlock:
    """Named numpy columns backed by one shared-memory segment.

    Create on the parent, attach in workers (same ``specs``), address
    columns by name on either side.  Views returned by :meth:`column`
    alias the segment directly — writes are visible to every process
    with zero copies — and die with :meth:`close`.
    """

    def __init__(self, shm, specs: Sequence[ColumnSpec],
                 owner: bool) -> None:
        self._shm = shm
        self._offsets, self._size = _layout(specs)
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, specs: Sequence[ColumnSpec]) -> "ColumnBlock":
        """Allocate a fresh segment sized for ``specs`` (parent side)."""
        from multiprocessing import shared_memory
        _, size = _layout(specs)
        shm = shared_memory.SharedMemory(create=True, size=size)
        return cls(shm, specs, owner=True)

    @classmethod
    def attach(cls, name: str, specs: Sequence[ColumnSpec]
               ) -> "ColumnBlock":
        """Map an existing segment by name (worker side).

        Ownership stays with the creator: workers only ``close()``
        (see the module docstring for how the resource tracker's
        attach-time registration resolves under fork vs spawn).
        """
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, specs, owner=False)

    @property
    def name(self) -> str:
        """Segment name (pass to :meth:`attach` in workers)."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Total segment size in bytes."""
        return self._size

    def column(self, name: str) -> np.ndarray:
        """The named column as a writable view of the segment."""
        offset, dt, shape = self._offsets[name]
        count = 1
        for dim in shape:
            count *= dim
        flat = np.frombuffer(self._shm.buf, dtype=dt, count=count,
                             offset=offset)
        return flat.reshape(shape)

    def columns(self) -> List[str]:
        return list(self._offsets)

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        if not self._closed:
            try:
                self._shm.close()
                self._closed = True
            except BufferError:
                # Live views still reference the buffer; the mapping is
                # released when they are collected.  Unlink (below) is
                # name-based and unaffected.
                pass

    def destroy(self) -> None:
        """Close and unlink the segment (owner side)."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "ColumnBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy() if self._owner else self.close()
