"""``jobs=`` through the funnel's per-tier batch pricing.

The funnel's screen tier asks its whole budget as one batch, so with
``jobs > 1`` that window shards across the process pool — same
survivors, same values, ``batch_shards > 0``.
"""

from repro.dse.funnel import FunnelConfig, funnel_search
from repro.dse.objectives import codesign_space, suite_objective
from repro.engine import Evaluator


def _funnel(jobs):
    space = codesign_space()
    evaluator = Evaluator(suite_objective, jobs=jobs)
    result, strategy = funnel_search(
        space, budget=128, config=FunnelConfig(inner="random"),
        evaluator=evaluator)
    return result, strategy, evaluator


class TestFunnelJobs:
    def test_sharded_funnel_matches_serial(self):
        serial, serial_strategy, serial_eval = _funnel(jobs=1)
        sharded, sharded_strategy, sharded_eval = _funnel(jobs=2)

        assert sharded.best_config == serial.best_config
        assert sharded.best_value == serial.best_value
        assert sharded.history == serial.history
        assert sharded_strategy.tier_report() == \
            serial_strategy.tier_report()

        # The screen tier's 128-candidate ask is the window that
        # shards; the serial run never touches the pool.
        assert serial_eval.stats()["batch_shards"] == 0
        assert sharded_eval.stats()["batch_shards"] > 0

    def test_tier_pricing_shards_large_screens_only(self):
        # Budget below the shard floor: jobs=2 stays in-process.
        space = codesign_space()
        evaluator = Evaluator(suite_objective, jobs=2)
        funnel_search(space, budget=16,
                      config=FunnelConfig(inner="random"),
                      evaluator=evaluator)
        assert evaluator.stats()["batch_shards"] == 0


def test_funnel_starts_at_most_one_pool(monkeypatch):
    import concurrent.futures

    from repro.dse.objectives import codesign_space_xl, mission_objective
    from repro.engine import pool

    starts = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    pool.shutdown()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    evaluator = Evaluator(mission_objective, jobs=2)
    serial = Evaluator(mission_objective)
    space = codesign_space_xl()
    sharded, _ = funnel_search(space, budget=2048, evaluator=evaluator)
    reference, _ = funnel_search(space, budget=2048, evaluator=serial)
    # Every tier (pricing screen, fleet screen, mission DES) priced on
    # the pool, all through the one pool started for the first.
    assert evaluator.stats()["batch_shards"] > 0
    assert len(starts) <= 1
    assert sharded.history == reference.history
