"""Multi-fidelity funnel DSE: speedup sweep + S7 rank-fidelity report.

The tentpole claim for :mod:`repro.dse.funnel`: screening a search
stream through the objective's fidelity ladder — batch pricing first,
full closed-loop DES only for gate survivors — beats paying full
fidelity for every candidate by an order of magnitude (>= 10x on the
high-resolution patrol setting), while landing on the *same* optimum
(screen regret 0, certified per run by :func:`run_funnel_dse`).

This script additionally computes the S7 *rank-fidelity* analysis the
speedup rests on: the Spearman correlation between cheap-tier and
full-fidelity scores, and where the true optimum lands in the screen's
ordering (if the screen ranked it below the gate's keep-fraction, the
funnel would kill the best design before ever pricing it honestly).

Two entry points:

- ``pytest benchmarks/bench_funnel_dse.py`` — small-scale smoke: the
  funnel must not lose to single-fidelity search, the screen must be
  rank-faithful, and the default gates must keep the true optimum;
- ``python benchmarks/bench_funnel_dse.py`` — the full sweep plus the
  S7 table, printed (the numbers quoted in EXPERIMENTS.md S7).
"""

import gc
import sys
import time

import numpy as np

from repro.dse.funnel import funnel_search
from repro.dse.objectives import (MissionObjective, codesign_space,
                                  codesign_space_xl, mission_objective,
                                  mission_setting, suite_objective)
from repro.dse.search import RandomStrategy
from repro.engine.cache import ResultCache
from repro.engine.evaluator import Evaluator

SIZES = (4_000, 20_000)
SMOKE_SIZE = 256
ATTEMPTS = 3        # re-measure on a noisy machine before failing
TARGET_SPEEDUP = 10.0   # the EXPERIMENTS.md claim, at full sizes


def spearman(a, b):
    """Spearman rank correlation via double-argsort ranks + Pearson
    (no scipy dependency; ties broken by position, which is exactly
    the funnel's own deterministic tie rule)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ranks_a = np.empty(len(a))
    ranks_a[np.argsort(a, kind="stable")] = np.arange(len(a))
    ranks_b = np.empty(len(b))
    ranks_b[np.argsort(b, kind="stable")] = np.arange(len(b))
    ranks_a = (ranks_a - ranks_a.mean()) / ranks_a.std()
    ranks_b = (ranks_b - ranks_b.mean()) / ranks_b.std()
    return float((ranks_a * ranks_b).mean())


def rank_fidelity(screen_values, full_values):
    """S7 row: how faithfully a cheap tier ranks what the top tier
    scores — Spearman rho, the screen's rank of the true optimum, and
    the smallest keep-fraction that still promotes it."""
    screen = np.asarray(screen_values, dtype=np.float64)
    full = np.asarray(full_values, dtype=np.float64)
    true_best = int(np.argmin(full))
    screen_order = np.argsort(screen, kind="stable")
    screen_rank = int(np.nonzero(screen_order == true_best)[0][0])
    return {
        "n": len(screen),
        "spearman": round(spearman(screen, full), 4),
        "optimum_screen_rank": screen_rank,
        "min_keep_fraction": round((screen_rank + 1) / len(screen), 4),
    }


def s7_report(mission_sample=512, seed=7):
    """Rank fidelity for both declared ladders: the suite objective's
    roofline screen over the *fully enumerated* codesign space, and
    the mission objective's pricing screen over a seeded sample of the
    million-point space (full DES on every sampled candidate)."""
    space = codesign_space()
    configs = [space.config_at(i) for i in range(space.size)]
    suite_row = rank_fidelity(
        suite_objective.roofline_screen_batch(configs),
        suite_objective.evaluate_batch(configs))

    sample = codesign_space_xl().sample(
        np.random.default_rng(seed), mission_sample)
    mission_row = rank_fidelity(
        mission_objective.pricing_screen_batch(sample),
        [mission_objective(config) for config in sample])
    return {"suite_roofline_vs_full": suite_row,
            "mission_pricing_vs_des": mission_row}


def run_funnel_dse(size):
    """Funnel search vs. single-fidelity full-DES search (S7).

    Both sides consume the *same* seeded proposal stream over the
    million-point ``codesign_xl`` space against a mission objective
    flying a high-resolution patrol (four laps at a 10 ms integration
    step — the fidelity regime the funnel is for; the screen proxy is
    closed-form, so its cost does not grow with DES resolution).  The
    baseline prices every candidate at the top tier (the scalar
    closed-loop DES — what a single-fidelity search must pay); the
    funnel screens at batch-pricing fidelity, promotes through the
    fleet tier, and pays DES only for top-tier survivors.  The run
    also certifies the tier-equivalence contract: a fresh evaluator
    sharing the funnel's cache must answer the best config from cache
    with zero oracle calls.
    """
    seed = 7
    space = codesign_space_xl()
    objective = MissionObjective(
        mission_setting(laps=4, time_step_s=0.01))
    # Warm the mission setting (course planning, frame SoA) so neither
    # timed side pays one-off setup.
    probe = space.config_at(0)
    objective(probe)
    objective.pricing_screen(probe)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Baseline: the identical proposal stream, every candidate at
        # full fidelity (tier="mission" forces the scalar DES path).
        strategy = RandomStrategy(space, budget=size, seed=seed)
        base_eval = Evaluator(objective)
        started = time.perf_counter()
        while not strategy.finished():
            batch = strategy.ask()
            if not batch:
                break
            strategy.tell(base_eval.map_batch(batch, tier="mission"))
        baseline = strategy.result()
        baseline_s = time.perf_counter() - started

        cache = ResultCache()
        started = time.perf_counter()
        result, funnel = funnel_search(
            space, objective, budget=size, seed=seed,
            cache=cache)
        funnel_s = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()

    # Tier-equivalence replay: top-tier funnel entries are legacy-keyed.
    replay = Evaluator(objective, cache=cache)
    (hit,) = replay.map_batch([result.best_config])
    assert hit.cached and replay.stats()["oracle_calls"] == 0, \
        "funnel-primed cache did not replay under direct evaluation"
    assert hit.value == result.best_value

    report = funnel.tier_report()
    screened = report[0]["evaluated"]
    reached = report[-1]["evaluated"]
    # >= 0 by construction: the funnel's top-tier evaluations are a
    # subset of the baseline's, priced identically.
    regret = result.best_value - baseline.best_value
    return {
        "full_fidelity_per_s": round(size / baseline_s, 1),
        "funnel_per_s": round(size / funnel_s, 1),
        "speedup": round(baseline_s / funnel_s, 2),
        "top_tier_frac": round(reached / screened, 4),
        "screen_regret": round(regret, 4),
    }


def test_funnel_not_slower_than_full_fidelity(report=None):
    """CI smoke: even at a small budget the funnel must not lose to
    pricing every candidate at full fidelity, and its best config must
    be the one the full-fidelity stream would have found."""
    best = None
    for _ in range(ATTEMPTS):
        metrics = run_funnel_dse(SMOKE_SIZE)
        assert metrics["screen_regret"] == 0.0, (
            f"funnel missed the stream optimum by"
            f" {metrics['screen_regret']}")
        if best is None or metrics["speedup"] > best["speedup"]:
            best = metrics
        if best["speedup"] >= 1.0:
            break
    assert best["speedup"] >= 1.0, (
        f"funnel slower than full fidelity at n={SMOKE_SIZE}:"
        f" {best['speedup']:.2f}x")
    assert best["top_tier_frac"] <= 0.05, (
        f"gate leaked {best['top_tier_frac']:.1%} to the top tier")


def test_screens_are_rank_faithful():
    """CI smoke (S7): both cheap tiers must rank candidates nearly as
    the top tier scores them, and the default gates' keep-fractions
    must retain the true optimum."""
    report = s7_report(mission_sample=192)
    suite_row = report["suite_roofline_vs_full"]
    mission_row = report["mission_pricing_vs_des"]
    assert suite_row["spearman"] >= 0.95, suite_row
    assert mission_row["spearman"] >= 0.95, mission_row
    # Single-boundary suite ladder keeps 1%; mission ladder's first
    # gate keeps 5% — the optimum must sit inside both.
    assert suite_row["min_keep_fraction"] <= 0.01, suite_row
    assert mission_row["min_keep_fraction"] <= 0.05, mission_row


def main():
    rows = [{"budget": n, **run_funnel_dse(n)} for n in SIZES]
    header = (f"{'budget':>7} {'full/s':>9} {'funnel/s':>10} "
              f"{'speedup':>8} {'top-tier':>9} {'regret':>7}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['budget']:>7} {row['full_fidelity_per_s']:>9.1f} "
              f"{row['funnel_per_s']:>10.1f} {row['speedup']:>7.2f}x "
              f"{row['top_tier_frac']:>8.2%} {row['screen_regret']:>7}")

    report = s7_report()
    print("\nS7 rank fidelity (cheap tier vs. full fidelity)")
    for name, row in report.items():
        print(f"  {name}: n={row['n']} spearman={row['spearman']}"
              f" optimum screen rank={row['optimum_screen_rank']}"
              f" (keep >= {row['min_keep_fraction']:.2%})")

    slowest = min(row["speedup"] for row in rows)
    if slowest < TARGET_SPEEDUP:
        print(f"WARNING: funnel speedup ({slowest:.1f}x) below the"
              f" {TARGET_SPEEDUP:.0f}x target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
