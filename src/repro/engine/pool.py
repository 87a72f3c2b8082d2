"""The engine's one worker pool, shared by every ``jobs > 1`` path.

The :class:`~repro.engine.evaluator.Evaluator` and
:class:`~repro.system.fleet.FleetStudy` run on one process-wide process
pool.  It starts on the first parallel call (a ``jobs=1`` run never
imports ``concurrent.futures.process`` or forks), outlives the call,
and is replaced by a wider pool when a caller asks for more workers
than it has.  Callers split work into their own ``jobs`` shards, so no
result depends on the pool's width.  Workers start with the platform's
default method (fork on Linux): they see the parent as it was when the
pool started, their own globals persist across calls, and a parallel
call made inside one runs in-process.
"""

from __future__ import annotations

import atexit
import pickle
import threading
from typing import Any, Callable, Iterable, List

from repro.errors import EngineError

__all__ = ["parallel_map", "picklable", "shutdown"]

# The serve daemon calls in from its oracle thread, so one lock covers
# starting, replacing and submitting to the pool.
_lock = threading.RLock()
_executor: Any = None
_workers = 0


def picklable(obj: Any) -> bool:
    """Whether ``obj`` can travel to a pool worker (only ``pickle.dumps``
    runs, so the callable's own exceptions are never caught here)."""
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def parallel_map(fn: Callable[..., Any], *iterables: Iterable[Any],
                 jobs: int) -> List[Any]:
    """``[fn(*args) for args in zip(*iterables)]`` on the pool, widened
    to at least ``jobs`` workers.  ``fn`` and its arguments must pickle;
    an exception ``fn`` raises keeps its type.  A dead worker raises
    :class:`EngineError` and drops the pool (the next call starts one).
    """
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    if multiprocessing.parent_process() is not None:
        # Inside a worker: a pool started here would keep the worker
        # from ever exiting (its children are joined before its atexit
        # hooks run), so nested parallel calls price in-process.
        return [fn(*args) for args in zip(*iterables)]
    global _executor, _workers
    try:
        with _lock:
            if _executor is None or _workers < jobs:
                import concurrent.futures
                from multiprocessing import resource_tracker

                shutdown()
                # Forked workers must share the parent's tracker, or
                # each would start its own and report every
                # shared-memory segment they attach as leaked.
                resource_tracker.ensure_running()
                _executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=jobs)
                _workers = jobs
            executor = _executor
            # map() submits every task before returning, so no other
            # caller can replace the pool under a half-submitted call.
            results = executor.map(fn, *iterables)
        return list(results)
    except BrokenProcessPool as error:
        with _lock:
            if _executor is executor:
                _executor = None
        raise EngineError(f"a pool worker died: {error}") from error


@atexit.register
def shutdown() -> None:
    """Stop the pool once the tasks already submitted to it finish; the
    next parallel call starts a new one.  Also runs at exit, while the
    modules the executor's cleanup needs are still loaded."""
    global _executor
    with _lock:
        if _executor is not None:
            _executor.shutdown(wait=True)
            _executor = None
