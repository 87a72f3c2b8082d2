"""The unified evaluation engine: fingerprints, cache, Evaluator, ask/tell.

"ML for system design" (paper §3.1) needs the simulator behind a
service boundary: candidate evaluation must be **content-addressed**
(so results are shareable and re-runs are free), **batched** (so a
process pool can price a generation at once), and **observable** (so
optimization loops can be audited).  This package is that boundary:

- :mod:`~repro.engine.arena`       — preallocated, capacity-doubling
  :class:`BatchArena` buffers so batch kernels stop reallocating their
  SoA columns every generation;
- :mod:`~repro.engine.fingerprint` — canonical JSON + SHA-256 content
  addresses for configs, workloads, platforms, and SoCs;
- :mod:`~repro.engine.cache`       — in-memory + on-disk result cache;
- :mod:`~repro.engine.evaluator`   — the :class:`Evaluator`: batch
  pricing with deterministic per-candidate seeding, serial or via the
  worker pool, bit-identical either way;
- :mod:`~repro.engine.pool`        — the one lazily started worker pool
  every ``jobs > 1`` path shares;
- :mod:`~repro.engine.protocol`    — the ask/tell
  :class:`SearchStrategy` protocol and the :func:`run_search` driver;
- :mod:`~repro.engine.shm`         — zero-copy shared-memory column
  transport for multi-process shards.

Consumers: every :mod:`repro.dse` strategy and
:class:`repro.benchmarksuite.runner.SuiteRunner`.
"""

from repro.engine.arena import BatchArena, Workspace
from repro.engine.cache import ResultCache
from repro.engine.evaluator import EvalResult, Evaluator
from repro.engine.fingerprint import canonical_json, fingerprint
from repro.engine.protocol import (
    BatchObjective,
    FidelityTier,
    SearchStrategy,
    TieredObjective,
    fidelity_tiers,
    run_search,
    supports_batch,
    supports_tiers,
)

__all__ = [
    "BatchArena",
    "BatchObjective",
    "EvalResult",
    "Evaluator",
    "FidelityTier",
    "ResultCache",
    "SearchStrategy",
    "TieredObjective",
    "Workspace",
    "canonical_json",
    "fidelity_tiers",
    "fingerprint",
    "run_search",
    "supports_batch",
    "supports_tiers",
]
