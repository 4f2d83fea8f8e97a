"""Batched-vs-serial equivalence suite for the batch simulation subsystem.

The batch engine promises two things:

1. In the **exact** rng mode (one child generator per trial) a batched run is
   *bit-identical* to running the serial engine trial by trial with the same
   generators — asserted here field by field for broadcast, gossip, flooding
   and the erasure collision model.
2. In the **fast** rng mode (one shared generator, vectorised draws) the
   per-trial topologies and seeds are spawned identically to the serial
   path, so aggregates are statistically interchangeable — asserted within
   tolerance on completion-round and energy statistics.
"""

import numpy as np
import pytest

from repro.baselines.flooding import (
    BatchBernoulliFlood,
    BatchDeterministicFlood,
    BernoulliFlood,
    DeterministicFlood,
)
from repro.baselines.gossip_uniform import BatchUniformScaleGossip, UniformScaleGossip
from repro.core.broadcast_random import (
    BatchEnergyEfficientBroadcast,
    EnergyEfficientBroadcast,
)
from repro.experiments.protocols import (
    BATCH_PROTOCOL_FACTORIES,
    PROTOCOL_FACTORIES,
    ProtocolSpec,
)
from repro.experiments.runner import (
    ExecutionPlan,
    Job,
    aggregate_runs,
    build_repetition_plan,
    repeat_job,
)
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio.batch import (
    BatchEngine,
    NetworkBatch,
    PendingTrial,
    run_protocol_batch,
)
from repro.radio.collision import (
    BatchStandardCollisionModel,
    ErasureCollisionModel,
    StandardCollisionModel,
)
from repro.radio.engine import SimulationEngine

from serial_reference import run_serial_reference


def _serial_runs(networks, make_protocol, seeds, **engine_options):
    engine = SimulationEngine(engine_options.pop("collision_model", None), **engine_options)
    return [
        engine.run(net, make_protocol(), rng=np.random.default_rng(seed))
        for net, seed in zip(networks, seeds)
    ]


def _assert_traces_identical(serial, batched, *, check_arrays=False):
    assert len(serial) == len(batched)
    for s, b in zip(serial, batched):
        assert s.protocol_name == b.protocol_name
        assert s.n == b.n
        assert s.completed == b.completed
        assert s.completion_round == b.completion_round
        assert s.rounds_executed == b.rounds_executed
        assert s.energy == b.energy
        assert s.informed_count == b.informed_count
        if check_arrays:
            assert np.array_equal(s.per_node_transmissions, b.per_node_transmissions)
            if s.informed_round is not None:
                assert np.array_equal(s.informed_round, b.informed_round)


@pytest.fixture(scope="module")
def gnp_batch():
    """Eight distinct G(n, p) samples, as a repetition sweep would draw."""
    n = 192
    p = connectivity_threshold_probability(n, delta=4.0)
    return [random_digraph(n, p, rng=300 + t) for t in range(8)], p


class TestExactEquivalence:
    def test_algorithm1_bit_identical(self, gnp_batch):
        networks, p = gnp_batch
        seeds = list(range(50, 58))
        serial = _serial_runs(
            networks,
            lambda: EnergyEfficientBroadcast(p),
            seeds,
            run_to_quiescence=True,
            keep_arrays=True,
        )
        engine = BatchEngine(run_to_quiescence=True, keep_arrays=True)
        batched = engine.run(
            networks,
            BatchEnergyEfficientBroadcast(p),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched, check_arrays=True)
        # Schedule metadata and the per-trial |U_t| history also agree.
        for s, b in zip(serial, batched):
            assert s.metadata["T"] == b.metadata["T"]
            assert s.metadata["active_history"] == b.metadata["active_history"]

    def test_gossip_bit_identical(self):
        n = 40
        p = 0.25
        networks = [random_digraph(n, p, rng=400 + t) for t in range(4)]
        seeds = [90, 91, 92, 93]
        serial = _serial_runs(networks, UniformScaleGossip, seeds)
        batched = BatchEngine().run(
            networks,
            BatchUniformScaleGossip(),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched)

    def test_erasure_model_bit_identical(self, gnp_batch):
        networks, p = gnp_batch
        seeds = list(range(60, 68))
        serial = _serial_runs(
            networks,
            lambda: EnergyEfficientBroadcast(p),
            seeds,
            collision_model=ErasureCollisionModel(0.25),
            run_to_quiescence=True,
        )
        batched = BatchEngine(
            ErasureCollisionModel(0.25), run_to_quiescence=True
        ).run(
            networks,
            BatchEnergyEfficientBroadcast(p),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched)

    def test_flooding_bit_identical(self, gnp_batch):
        networks, _ = gnp_batch
        seeds = list(range(70, 78))
        serial = _serial_runs(networks, lambda: BernoulliFlood(0.05), seeds)
        batched = BatchEngine().run(
            networks,
            BatchBernoulliFlood(0.05),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched)

        serial = _serial_runs(
            networks, lambda: DeterministicFlood(max_transmissions_per_node=6), seeds
        )
        batched = BatchEngine().run(
            networks,
            BatchDeterministicFlood(max_transmissions_per_node=6),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched)

    def test_record_rounds_bit_identical(self, gnp_batch):
        networks, p = gnp_batch
        seeds = list(range(80, 84))
        serial = _serial_runs(
            networks[:4],
            lambda: EnergyEfficientBroadcast(p),
            seeds,
            record_rounds=True,
        )
        batched = BatchEngine(record_rounds=True).run(
            networks[:4],
            BatchEnergyEfficientBroadcast(p),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        for s, b in zip(serial, batched):
            assert [r.as_dict() for r in s.rounds] == [r.as_dict() for r in b.rounds]

    @pytest.mark.parametrize("protocol_name", ["algorithm1", "decay"])
    def test_record_rounds_through_refills(self, gnp_batch, protocol_name):
        """Round logs survive admission waves and compaction unchanged."""
        networks, p = gnp_batch
        serial_factory = PROTOCOL_FACTORIES[protocol_name]
        batch_factory = BATCH_PROTOCOL_FACTORIES[protocol_name]
        params = {"p": p} if protocol_name == "algorithm1" else {}
        seeds = list(range(80, 86))
        serial = _serial_runs(
            networks[:6],
            lambda: serial_factory(**params),
            seeds,
            record_rounds=True,
        )
        static = BatchEngine(record_rounds=True).run(
            networks[:6],
            batch_factory(**params),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        cohorts = []

        def make_protocol():
            cohorts.append(batch_factory(**params))
            return cohorts[-1]

        continuous = BatchEngine(record_rounds=True).run_continuous(
            [
                PendingTrial(net, rng=np.random.default_rng(s))
                for net, s in zip(networks[:6], seeds)
            ],
            make_protocol,
            capacity=2,
        )
        assert len(cohorts) > 1
        assert all(t.rounds for t in continuous)
        for s, b, c in zip(serial, static, continuous):
            expected = [r.as_dict() for r in s.rounds]
            assert [r.as_dict() for r in b.rounds] == expected
            assert [r.as_dict() for r in c.rounds] == expected

    def test_repeat_job_exact_mode_matches_serial(self):
        graph = GraphSpec("gnp", {"n": 128, "p": 0.08})
        protocol = ProtocolSpec("algorithm1", {"p": 0.08})
        serial = run_serial_reference(
            build_repetition_plan(
                graph, protocol, repetitions=6, seed=11, run_to_quiescence=True
            ).jobs
        )
        batched = repeat_job(
            graph,
            protocol,
            repetitions=6,
            seed=11,
            batch_mode="exact",
            run_to_quiescence=True,
        )
        _assert_traces_identical(serial, batched)
        # The topology samples are the same networks in both paths.
        assert [r.network_name for r in serial] == [r.network_name for r in batched]

    # Every registered protocol, exercised through the registry factories the
    # experiment layer uses.  Exact mode must be bit-identical to serial.
    _REGISTRY_CASES = [
        ("algorithm2", {"p": 0.2}, {"n": 48, "p": 0.2}, {}),
        ("algorithm3", {"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        (
            "algorithm3",
            {"diameter": 3},
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        ("tradeoff", {"diameter": 3, "lam": 4.0}, {"n": 64, "p": 0.18}, {}),
        ("decay", {}, {"n": 64, "p": 0.18}, {}),
        (
            "decay",
            {"max_phases_active": 3},
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        (
            "time_invariant",
            {"distribution": {"kind": "fixed", "q": 0.06}},
            {"n": 64, "p": 0.18},
            {},
        ),
        (
            "time_invariant",
            {
                "distribution": {"kind": "alpha", "n": 64, "diameter": 3},
                "active_window": 60,
            },
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        ("czumaj_rytter_known_d", {"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        ("uniform_selection", {"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        (
            "elsasser_gasieniec",
            {"p": 0.18},
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        ("sequential_gossip", {}, {"n": 24, "p": 0.3}, {}),
    ]

    @pytest.mark.parametrize(
        "name,params,graph_params,options",
        _REGISTRY_CASES,
        ids=[
            f"{case[0]}{'-q' if case[3] else ''}{'-capped' if 'max_phases_active' in case[1] or 'active_window' in case[1] else ''}"
            for case in _REGISTRY_CASES
        ],
    )
    def test_registry_protocols_bit_identical(
        self, name, params, graph_params, options
    ):
        graph = GraphSpec("gnp", graph_params)
        protocol = ProtocolSpec(name, params)
        serial = run_serial_reference(
            build_repetition_plan(
                graph, protocol, repetitions=4, seed=17, **options
            ).jobs
        )
        batched = repeat_job(
            graph,
            protocol,
            repetitions=4,
            seed=17,
            batch_mode="exact",
            **options,
        )
        _assert_traces_identical(serial, batched)


class TestInvariants:
    def test_at_most_one_transmission_per_trial(self, gnp_batch):
        """Theorem 2.1's invariant holds in every trial of the batch path."""
        networks, p = gnp_batch
        results = run_protocol_batch(
            networks,
            BatchEnergyEfficientBroadcast(p),
            rng=5,
            run_to_quiescence=True,
            keep_arrays=True,
        )
        for result in results:
            assert result.energy.max_per_node <= 1
            assert result.per_node_transmissions.max() <= 1

    def test_stopped_trials_accrue_nothing(self, gnp_batch):
        """A trial that completes early neither transmits nor gains rounds."""
        networks, p = gnp_batch
        results = run_protocol_batch(
            networks, BatchEnergyEfficientBroadcast(p), rng=7
        )
        rounds = [r.rounds_executed for r in results]
        assert min(rounds) < max(rounds)  # trials genuinely stop at different times
        for result in results:
            if result.completed:
                assert result.rounds_executed == result.completion_round

    def test_shared_topology_batch(self, gnp_batch):
        networks, p = gnp_batch
        results = run_protocol_batch(
            networks[0], BatchEnergyEfficientBroadcast(p), trials=5, rng=3
        )
        assert len(results) == 5
        assert all(r.network_name == networks[0].name for r in results)


class TestBatchCollision:
    def test_batch_resolution_matches_per_trial_serial(self, gnp_batch):
        """One batched resolve == R serial resolves, trial by trial."""
        networks, _ = gnp_batch
        batch = NetworkBatch(networks)
        rng = np.random.default_rng(17)
        masks = rng.random((batch.trials, batch.n)) < 0.1
        outcome = BatchStandardCollisionModel().resolve(batch, masks)
        serial_model = StandardCollisionModel()
        for t, net in enumerate(networks):
            expected = serial_model.resolve(net, masks[t])
            assert np.array_equal(outcome.receivers_of(t), expected.receivers)
            assert np.array_equal(outcome.senders_of(t), expected.senders)
            assert np.array_equal(outcome.hear_counts[t], expected.hear_counts)
        assert int(outcome.receiver_counts.sum()) == outcome.receiver_flat.size

    def test_network_batch_rejects_mixed_sizes(self):
        a = random_digraph(16, 0.2, rng=1)
        b = random_digraph(17, 0.2, rng=1)
        with pytest.raises(ValueError):
            NetworkBatch([a, b])


class TestFastSeedingAggregates:
    def test_completion_aggregates_match_within_tolerance(self):
        """Fast-mode batching is statistically interchangeable with serial."""
        graph = GraphSpec("gnp", {"n": 256, "p": 0.06})
        protocol = ProtocolSpec("algorithm1", {"p": 0.06})
        serial = aggregate_runs(
            run_serial_reference(
                build_repetition_plan(
                    graph,
                    protocol,
                    repetitions=24,
                    seed=5,
                    run_to_quiescence=True,
                ).jobs
            )
        )
        batched = aggregate_runs(
            repeat_job(
                graph,
                protocol,
                repetitions=24,
                seed=5,
                run_to_quiescence=True,
            )
        )
        assert batched["runs"] == serial["runs"]
        assert abs(batched["success_rate"] - serial["success_rate"]) <= 0.25
        s_rounds = serial["completion_rounds"].mean
        b_rounds = batched["completion_rounds"].mean
        assert b_rounds == pytest.approx(s_rounds, rel=0.35)
        s_tx = serial["total_transmissions"].mean
        b_tx = batched["total_transmissions"].mean
        assert b_tx == pytest.approx(s_tx, rel=0.35)

    def test_fast_mode_erasure_on_dense_rounds(self):
        """Erasure + listener filter + dense collision rounds compose.

        Regression: the erasure model filters receiver_flat before the lazy
        sender_flat is materialised; on rounds with enough gathered edges to
        take the dense-scan path this used to rebuild the senders from the
        already-filtered receivers and crash on a size mismatch.
        """
        runs = repeat_job(
            GraphSpec("gnp", {"n": 2048, "p": 0.02}),
            ProtocolSpec("algorithm1", {"p": 0.02}),
            repetitions=4,
            seed=0,
            erasure_probability=0.2,
            run_to_quiescence=True,
        )
        assert len(runs) == 4
        assert all(r.energy.max_per_node <= 1 for r in runs)

    def test_invalid_batch_mode_rejected(self):
        with pytest.raises(ValueError):
            repeat_job(
                GraphSpec("gnp", {"n": 32, "p": 0.2}),
                ProtocolSpec("algorithm1", {"p": 0.2}),
                repetitions=2,
                batch_mode="approximate",
            )

    def test_job_metadata_attached(self):
        runs = repeat_job(
            GraphSpec("gnp", {"n": 64, "p": 0.15}),
            ProtocolSpec("algorithm1", {"p": 0.15}),
            repetitions=2,
            seed=9,
            label="batched-sweep",
        )
        for run in runs:
            assert run.metadata["job"]["protocol"]["name"] == "algorithm1"
            assert run.metadata["label"] == "batched-sweep"


class TestRegistryCoverage:
    def test_every_protocol_has_a_batched_implementation(self):
        """The unified pipeline covers the full protocol registry."""
        assert BATCH_PROTOCOL_FACTORIES.keys() == PROTOCOL_FACTORIES.keys()

    def test_batched_names_match_serial_names(self):
        """Batched runs drop into existing experiment tables unchanged."""
        cases = {
            "algorithm1": {"p": 0.1},
            "algorithm2": {"p": 0.1},
            "algorithm3": {"diameter": 3},
            "tradeoff": {"diameter": 3, "lam": 3.0},
            "time_invariant": {"distribution": 0.1},
            "decay": {},
            "elsasser_gasieniec": {"p": 0.1},
            "czumaj_rytter_known_d": {"diameter": 3},
            "uniform_selection": {"diameter": 3},
            "deterministic_flood": {},
            "bernoulli_flood": {"q": 0.1},
            "uniform_gossip": {},
            "sequential_gossip": {},
        }
        assert cases.keys() == PROTOCOL_FACTORIES.keys()
        for name, params in cases.items():
            serial = PROTOCOL_FACTORIES[name](**params)
            batched = BATCH_PROTOCOL_FACTORIES[name](**params)
            assert serial.name == batched.name, name


class TestShardedFanOut:
    def test_plan_shards_are_contiguous_and_cover_all_jobs(self):
        graph = GraphSpec("gnp", {"n": 32, "p": 0.2})
        protocol = ProtocolSpec("algorithm1", {"p": 0.2})
        jobs = tuple(
            Job(graph=graph, protocol=protocol, seed=s) for s in range(7)
        )
        plan = ExecutionPlan(jobs=jobs, processes=3)
        shards = plan.shards()
        assert len(shards) == 3
        sizes = [len(s.jobs) for s in shards]
        assert sum(sizes) == 7 and max(sizes) - min(sizes) <= 1
        flat = [job for shard in shards for job in shard.jobs]
        assert list(flat) == list(jobs)

    def test_sharded_exact_mode_is_bit_identical_to_serial(self):
        """processes=K runs K sharded batches, each bit-identical to serial."""
        graph = GraphSpec("gnp", {"n": 96, "p": 0.1})
        protocol = ProtocolSpec("algorithm1", {"p": 0.1})
        serial = run_serial_reference(
            build_repetition_plan(
                graph, protocol, repetitions=6, seed=3, run_to_quiescence=True
            ).jobs
        )
        sharded = repeat_job(
            graph,
            protocol,
            repetitions=6,
            seed=3,
            processes=2,
            batch_mode="exact",
            run_to_quiescence=True,
        )
        _assert_traces_identical(serial, sharded)

    def test_sharded_fast_mode_uses_same_topologies(self):
        graph = GraphSpec("gnp", {"n": 64, "p": 0.15})
        protocol = ProtocolSpec("algorithm2", {"p": 0.15})
        unsharded = repeat_job(graph, protocol, repetitions=4, seed=6)
        sharded = repeat_job(graph, protocol, repetitions=4, seed=6, processes=2)
        assert [r.network_name for r in unsharded] == [
            r.network_name for r in sharded
        ]
        assert all(r.completed for r in sharded)


class TestScheduledResolution:
    def test_mega_gather_matches_per_round_resolution(self, gnp_batch):
        """Fast-mode Phase-3 mega-gather is bit-identical to per-round resolves.

        Fast mode fixes all of Phase 3's randomness the moment the pool is
        (geometric pre-sampling), so resolving the remaining rounds up front
        must change nothing observable.
        """
        networks, p = gnp_batch
        for quiescence in (False, True):
            mega = BatchEngine(
                run_to_quiescence=quiescence, scheduled_resolution=True
            ).run(networks, BatchEnergyEfficientBroadcast(p), rng=13)
            per_round = BatchEngine(
                run_to_quiescence=quiescence, scheduled_resolution=False
            ).run(networks, BatchEnergyEfficientBroadcast(p), rng=13)
            _assert_traces_identical(per_round, mega)

    @pytest.mark.parametrize("max_chunk_edges", [1, 50, 1 << 22])
    def test_chunked_resolver_matches_per_round_resolution(
        self, gnp_batch, max_chunk_edges
    ):
        """Chunk boundaries never change the resolved deliveries."""
        from repro.radio.batch import (
            ScheduledTransmissions,
            resolve_scheduled_rounds,
        )

        networks, _ = gnp_batch
        batch = NetworkBatch(networks)
        rng = np.random.default_rng(23)
        rounds = 5
        buckets = [
            np.flatnonzero(rng.random(batch.total_nodes) < 0.01)
            for _ in range(rounds)
        ]
        buckets[2] = buckets[2][:0]  # an empty round inside the schedule
        offsets = np.concatenate(
            [[0], np.cumsum([b.size for b in buckets])]
        )
        schedule = ScheduledTransmissions(
            tx_flat=np.concatenate(buckets),
            offsets=offsets,
            first_round=4,
        )
        resolved = resolve_scheduled_rounds(
            batch, schedule, max_chunk_edges=max_chunk_edges
        )
        model = BatchStandardCollisionModel()
        for r, bucket in enumerate(buckets):
            expected = model.resolve(batch, bucket.astype(np.int64))
            assert np.array_equal(
                np.sort(resolved[4 + r]), np.sort(expected.receiver_flat)
            ), f"round {r}"

    def test_schedule_slicing(self):
        import numpy as np

        from repro.radio.batch import ScheduledTransmissions

        tx = np.array([0, 5, 9, 12, 30], dtype=np.int64)
        offsets = np.array([0, 2, 2, 3, 5], dtype=np.int64)
        schedule = ScheduledTransmissions(
            tx_flat=tx, offsets=offsets, first_round=10
        )
        assert schedule.num_rounds == 4
        part = schedule.slice(1, 3)
        assert part.first_round == 11
        assert part.num_rounds == 2
        assert list(part.tx_flat) == [9]
        assert list(part.offsets) == [0, 0, 1]


# --------------------------------------------------------------------------- #
# Fast-mode stream pin
# --------------------------------------------------------------------------- #
_PIN_PARAMS = {
    "algorithm1": {"p": 0.15},
    "algorithm2": {"p": 0.15},
    "algorithm3": {"diameter": 3},
    "tradeoff": {"diameter": 3, "lam": 3.0},
    "time_invariant": {"distribution": 0.1},
    "decay": {},
    "elsasser_gasieniec": {"p": 0.15},
    "czumaj_rytter_known_d": {"diameter": 3},
    "uniform_selection": {"diameter": 3},
    "deterministic_flood": {},
    "bernoulli_flood": {"q": 0.1},
    "uniform_gossip": {},
    "sequential_gossip": {},
}

_PIN_LOSS = {"name": "iid_loss", "params": {"tx_loss": 0.1, "rx_loss": 0.15}}

#: Per-trial ``(completed, completion_round, rounds_executed,
#: total_transmissions, informed_count)`` of a fast-mode run: five G(48, 0.15)
#: samples, shared generator seeded 31, ``max_rounds=400``.  Fast-mode draws
#: depend on how many rows a batch holds, so any change to row handling in
#: the round loop shows up here; a deliberate stream change must re-record
#: these values together with an ``ENGINE_VERSION`` bump.
_FAST_PIN = {
    ('algorithm1', None): [(False, 13, 13, 11, 32), (False, 15, 15, 26, 46), (False, 26, 26, 21, 47), (False, 17, 17, 21, 44), (False, 19, 19, 24, 45)],
    ('algorithm1', 'iid_loss'): [(False, 1, 1, 1, 1), (False, 1, 1, 1, 1), (False, 19, 19, 16, 35), (False, 35, 35, 17, 42), (False, 14, 14, 19, 42)],
    ('algorithm2', None): [(True, 69, 69, 470, 48), (True, 59, 59, 379, 48), (True, 72, 72, 470, 48), (True, 63, 63, 402, 48), (True, 68, 68, 444, 48)],
    ('algorithm2', 'iid_loss'): [(True, 52, 52, 356, 48), (True, 64, 64, 393, 48), (True, 89, 89, 610, 48), (True, 65, 65, 412, 48), (True, 57, 57, 390, 48)],
    ('algorithm3', None): [(True, 37, 37, 239, 48), (True, 11, 11, 74, 48), (True, 28, 28, 114, 48), (True, 29, 29, 78, 48), (True, 25, 25, 68, 48)],
    ('algorithm3', 'iid_loss'): [(True, 27, 27, 137, 48), (True, 19, 19, 107, 48), (True, 39, 39, 246, 48), (True, 38, 38, 184, 48), (True, 33, 33, 81, 48)],
    ('bernoulli_flood', None): [(True, 21, 21, 47, 48), (True, 30, 30, 52, 48), (True, 9, 9, 26, 48), (True, 22, 22, 55, 48), (True, 28, 28, 92, 48)],
    ('bernoulli_flood', 'iid_loss'): [(True, 32, 32, 33, 48), (True, 28, 28, 54, 48), (True, 14, 14, 50, 48), (True, 85, 85, 324, 48), (True, 34, 34, 84, 48)],
    ('czumaj_rytter_known_d', None): [(True, 22, 22, 196, 48), (True, 12, 12, 92, 48), (True, 25, 25, 64, 48), (True, 38, 38, 195, 48), (True, 28, 28, 69, 48)],
    ('czumaj_rytter_known_d', 'iid_loss'): [(True, 31, 31, 125, 48), (True, 29, 29, 210, 48), (True, 29, 29, 148, 48), (True, 42, 42, 209, 48), (True, 19, 19, 71, 48)],
    ('decay', None): [(True, 63, 63, 258, 48), (True, 52, 52, 279, 48), (True, 41, 41, 159, 48), (True, 54, 54, 241, 48), (True, 38, 38, 152, 48)],
    ('decay', 'iid_loss'): [(True, 88, 88, 401, 48), (True, 99, 99, 488, 48), (True, 51, 51, 243, 48), (True, 76, 76, 327, 48), (True, 49, 49, 198, 48)],
    ('deterministic_flood', None): [(False, 198, 198, 2880, 45), (False, 197, 197, 2880, 45), (True, 134, 134, 2882, 48), (False, 197, 197, 2880, 45), (False, 200, 200, 3008, 47)],
    ('deterministic_flood', 'iid_loss'): [(True, 100, 100, 2523, 48), (False, 181, 181, 3008, 47), (False, 164, 164, 2944, 46), (False, 203, 203, 3008, 47), (True, 88, 88, 2155, 48)],
    ('elsasser_gasieniec', None): [(False, 47, 47, 66, 35), (False, 47, 47, 166, 47), (False, 47, 47, 132, 46), (False, 47, 47, 87, 38), (False, 47, 47, 153, 47)],
    ('elsasser_gasieniec', 'iid_loss'): [(False, 47, 47, 13, 9), (False, 47, 47, 5, 9), (False, 47, 47, 118, 45), (False, 47, 47, 44, 28), (False, 47, 47, 103, 46)],
    ('sequential_gossip', None): [(True, 108, 108, 753, 48), (True, 108, 108, 850, 48), (True, 102, 102, 605, 48), (True, 128, 128, 844, 48), (True, 120, 120, 758, 48)],
    ('sequential_gossip', 'iid_loss'): [(True, 138, 138, 715, 48), (True, 115, 115, 955, 48), (True, 110, 110, 768, 48), (True, 163, 163, 1072, 48), (True, 96, 96, 457, 48)],
    ('time_invariant', None): [(True, 21, 21, 47, 48), (True, 30, 30, 52, 48), (True, 9, 9, 26, 48), (True, 22, 22, 55, 48), (True, 28, 28, 92, 48)],
    ('time_invariant', 'iid_loss'): [(True, 32, 32, 33, 48), (True, 28, 28, 54, 48), (True, 14, 14, 50, 48), (True, 85, 85, 324, 48), (True, 34, 34, 84, 48)],
    ('tradeoff', None): [(True, 37, 37, 239, 48), (True, 11, 11, 74, 48), (True, 28, 28, 114, 48), (True, 29, 29, 78, 48), (True, 25, 25, 68, 48)],
    ('tradeoff', 'iid_loss'): [(True, 27, 27, 137, 48), (True, 19, 19, 107, 48), (True, 39, 39, 246, 48), (True, 38, 38, 184, 48), (True, 33, 33, 81, 48)],
    ('uniform_gossip', None): [(True, 99, 99, 775, 48), (True, 114, 114, 895, 48), (True, 108, 108, 801, 48), (True, 115, 115, 973, 48), (True, 104, 104, 752, 48)],
    ('uniform_gossip', 'iid_loss'): [(True, 117, 117, 1051, 48), (True, 106, 106, 924, 48), (True, 146, 146, 1222, 48), (True, 96, 96, 804, 48), (True, 94, 94, 744, 48)],
    ('uniform_selection', None): [(True, 24, 24, 168, 48), (True, 12, 12, 75, 48), (True, 27, 27, 80, 48), (True, 40, 40, 151, 48), (True, 27, 27, 62, 48)],
    ('uniform_selection', 'iid_loss'): [(True, 40, 40, 169, 48), (True, 25, 25, 137, 48), (True, 21, 21, 56, 48), (True, 38, 38, 125, 48), (True, 34, 34, 190, 48)],
}


class TestFastModePin:
    @pytest.fixture(scope="class")
    def pin_networks(self):
        return [random_digraph(48, 0.15, rng=900 + t) for t in range(5)]

    @pytest.mark.parametrize("case", sorted(_FAST_PIN, key=str), ids=str)
    def test_fast_mode_streams_are_pinned(self, pin_networks, case):
        from repro.radio.environment import build_batch_environment

        name, env = case
        assert _PIN_PARAMS.keys() == BATCH_PROTOCOL_FACTORIES.keys()
        engine = BatchEngine(
            environment=build_batch_environment(_PIN_LOSS) if env else None
        )
        traces = engine.run(
            pin_networks,
            BATCH_PROTOCOL_FACTORIES[name](**_PIN_PARAMS[name]),
            rng=np.random.default_rng(31),
            max_rounds=400,
        )
        observed = [
            (
                t.completed,
                t.completion_round,
                t.rounds_executed,
                t.energy.total_transmissions,
                t.informed_count,
            )
            for t in traces
        ]
        assert observed == _FAST_PIN[case]

    def test_pin_covers_every_protocol_bare_and_lossy(self):
        assert set(_FAST_PIN) == {
            (name, env)
            for name in BATCH_PROTOCOL_FACTORIES
            for env in (None, "iid_loss")
        }
