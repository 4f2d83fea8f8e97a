"""Continuous batching vs static waves on tail-heavy and uniform workloads.

The cell the feature was built for is sub-threshold Decay: at
``p = 0.25 * connectivity_threshold_probability(n, delta=4)`` a few percent
of sampled digraphs are disconnected, and a disconnected trial can never
complete — without dead-trial retirement (``retire_dead=False``) each such
straggler burns the full round cap *and* keeps rows of its wave alive
alongside it.  ``run_continuous`` retires a dead trial the phase its
informed set stops growing (Decay's frontier-closure rule), compacts the
stragglers' rows out of the stacked CSR, and refills from the pending
queue, so the cap is never paid at all.

The baseline is ``BatchEngine(retire_dead=False).run()`` over fixed waves.
``run`` is the one-cohort case of the same round loop, so in exact mode it
still compacts each wave's dry tail; what the baseline lacks is dead-trial
retirement and refill across waves, and the gate measures that bundle.  The
uniform cell (connected graphs, tight completion spread) checks the other
side: when there is no tail to cut, continuous batching must not cost more
than a few percent over a single static batch.

Both runs use exact per-trial RNG streams, so completed trials finish in
bit-identical rounds under either engine; only dead trials differ (the
baseline reports the round cap, continuous reports the retirement round).

Timing: each side runs once to warm up, then the two sides run as
interleaved pairs (alternating which goes first) and the gate is the
median of the per-pair baseline/continuous ratios, so a slow phase of the
host lands on both sides of a pair instead of on one side of the ratio.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.baselines.decay import BatchDecayBroadcast
from repro.core.broadcast_random import BatchEnergyEfficientBroadcast
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio.batch import BatchEngine, PendingTrial

DECAY_N = 8192
DECAY_TRIALS = 96
DECAY_SHARD = 32
DECAY_MAX_ROUNDS = 4000

UNIFORM_N = 4096
UNIFORM_TRIALS = 32

#: Timed interleaved pairs per cell (after one warm-up run per side).
DECAY_PAIRS = 5
UNIFORM_PAIRS = 5


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired_ratio(baseline, candidate, pairs):
    """Median per-pair ``baseline / candidate`` wall-time ratio.

    Both callables must already be warm.  Pairs alternate which side runs
    first.  Returns ``(median ratio, per-pair ratios, median baseline
    seconds, median candidate seconds)``.
    """
    ratios, base_seconds, cand_seconds = [], [], []
    for k in range(pairs):
        if k % 2 == 0:
            base = _seconds(baseline)
            cand = _seconds(candidate)
        else:
            cand = _seconds(candidate)
            base = _seconds(baseline)
        ratios.append(base / cand)
        base_seconds.append(base)
        cand_seconds.append(cand)
    return (
        statistics.median(ratios),
        ratios,
        statistics.median(base_seconds),
        statistics.median(cand_seconds),
    )


@pytest.fixture(scope="module")
def subthreshold_workload():
    """96 G(n, p) topologies well below the connectivity threshold.

    Expected out-degree lands near ``ln n`` — connectivity's knife edge — so
    a small fraction of samples (~2-3% at this n) leave part of the graph
    unreachable from the source and the completion-time spread is heavy.
    """
    p = 0.25 * connectivity_threshold_probability(DECAY_N, delta=4.0)
    networks = [random_digraph(DECAY_N, p, rng=1000 + t) for t in range(DECAY_TRIALS)]
    return networks


@pytest.fixture(scope="module")
def uniform_workload():
    """32 G(n, p) topologies at the connected E1 benchmark density."""
    p = connectivity_threshold_probability(UNIFORM_N, delta=4.0)
    networks = [
        random_digraph(UNIFORM_N, p, rng=1000 + t) for t in range(UNIFORM_TRIALS)
    ]
    return networks, p


def _sharded(networks):
    """Static waves without dead-trial retirement."""
    engine = BatchEngine(retire_dead=False)
    results = []
    for base in range(0, DECAY_TRIALS, DECAY_SHARD):
        nets = networks[base : base + DECAY_SHARD]
        results.extend(
            engine.run(
                nets,
                BatchDecayBroadcast(),
                rngs=[2000 + base + i for i in range(len(nets))],
                max_rounds=DECAY_MAX_ROUNDS,
            )
        )
    return results


def test_bench_continuous_subthreshold_decay(benchmark, subthreshold_workload):
    """Tail-heavy Decay cell: continuous batching vs static shards."""
    networks = subthreshold_workload

    def continuous():
        pend = [
            PendingTrial(net, rng=2000 + t) for t, net in enumerate(networks)
        ]
        return BatchEngine().run_continuous(
            pend,
            BatchDecayBroadcast,
            capacity=DECAY_SHARD,
            max_rounds=DECAY_MAX_ROUNDS,
        )

    # Warm-up: one run per side (the continuous one is the recorded cell).
    cont_results = benchmark.pedantic(continuous, rounds=1, iterations=1)
    base_results = _sharded(networks)
    speedup, ratios, sharded_seconds, continuous_seconds = _paired_ratio(
        lambda: _sharded(networks), continuous, DECAY_PAIRS
    )

    assert len(cont_results) == DECAY_TRIALS
    # Same trials complete under both engines, in bit-identical rounds; the
    # stragglers (incomplete) retire early instead of burning the cap.
    assert [r.completed for r in cont_results] == [r.completed for r in base_results]
    completed_rounds = [
        (c.completion_round, b.completion_round)
        for c, b in zip(cont_results, base_results)
        if c.completed
    ]
    assert all(c == b for c, b in completed_rounds)
    stragglers = [t for t, r in enumerate(cont_results) if not r.completed]
    assert stragglers, "workload must contain disconnected stragglers"
    assert all(
        cont_results[t].rounds_executed < DECAY_MAX_ROUNDS for t in stragglers
    )

    benchmark.extra_info.update(
        {
            "n": DECAY_N,
            "trials": DECAY_TRIALS,
            "shard": DECAY_SHARD,
            "max_rounds": DECAY_MAX_ROUNDS,
            "stragglers": len(stragglers),
            "sharded_seconds": sharded_seconds,
            "continuous_seconds": continuous_seconds,
            "sharded_trials_per_second": DECAY_TRIALS / sharded_seconds,
            "continuous_trials_per_second": DECAY_TRIALS / continuous_seconds,
            "compaction_speedup": speedup,
            "pair_ratios": ratios,
        }
    )
    print(
        f"\nn={DECAY_N} R={DECAY_TRIALS} sub-threshold decay: "
        f"sharded {sharded_seconds:.3f}s "
        f"({DECAY_TRIALS / sharded_seconds:.1f} trials/s), "
        f"continuous {continuous_seconds:.3f}s "
        f"({DECAY_TRIALS / continuous_seconds:.1f} trials/s), "
        f"median pair speedup {speedup:.2f}x "
        f"({len(stragglers)} stragglers retired)"
    )
    # Acceptance gate: continuous >= 1.5x sharded trials/s on the tail-heavy
    # cell, as the median of the paired ratios.  Timing gate is local-only
    # (shared CI runners are too noisy); CI still records the measured ratio
    # in the JSON.
    if not os.environ.get("CI"):
        assert speedup >= 1.5


def test_bench_continuous_uniform_no_regression(benchmark, uniform_workload):
    """Uniform collision cell: continuous batching must not tax the no-tail case."""
    networks, p = uniform_workload

    def continuous():
        pend = [
            PendingTrial(net, rng=2000 + t) for t, net in enumerate(networks)
        ]
        return BatchEngine().run_continuous(
            pend,
            lambda: BatchEnergyEfficientBroadcast(p),
            capacity=UNIFORM_TRIALS,
        )

    def static():
        return BatchEngine().run(
            networks,
            BatchEnergyEfficientBroadcast(p),
            rngs=[2000 + t for t in range(UNIFORM_TRIALS)],
        )

    # Warm-up: one run per side (the continuous one is the recorded cell).
    cont_results = benchmark.pedantic(continuous, rounds=1, iterations=1)
    batch_results = static()
    ratio, ratios, batch_seconds, continuous_seconds = _paired_ratio(
        static, continuous, UNIFORM_PAIRS
    )

    assert len(cont_results) == UNIFORM_TRIALS
    assert all(r.completed for r in cont_results)
    assert [r.completion_round for r in cont_results] == [
        r.completion_round for r in batch_results
    ]

    benchmark.extra_info.update(
        {
            "n": UNIFORM_N,
            "trials": UNIFORM_TRIALS,
            "batch_seconds": batch_seconds,
            "continuous_seconds": continuous_seconds,
            "batch_trials_per_second": UNIFORM_TRIALS / batch_seconds,
            "continuous_trials_per_second": UNIFORM_TRIALS / continuous_seconds,
            "compaction_uniform_ratio": ratio,
            "pair_ratios": ratios,
        }
    )
    print(
        f"\nn={UNIFORM_N} R={UNIFORM_TRIALS} uniform: "
        f"static batch {batch_seconds:.3f}s, continuous {continuous_seconds:.3f}s, "
        f"median pair ratio {ratio:.2f}x"
    )
    # No-regression gate: >= 0.95x static-batch throughput when every trial
    # completes and there is no tail to cut, as the median of the paired
    # ratios.  Local-only, as above.
    if not os.environ.get("CI"):
        assert ratio >= 0.95
