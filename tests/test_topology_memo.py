"""The sweep-scoped topology memo behind ``run_grid``.

Cells with an equal random ``GraphSpec`` and an equal cell seed already
sample the same graphs (trial ``i``'s job seed is spawned from the cell
seed alone), so ``run_grid`` samples each of those graphs once.  Pinned
here:

1. **Bit-identity.**  Every cell's accumulators equal the same cell run
   alone through ``run_cell`` — fast and exact mode, store off, a store
   resumed from a partial checkpoint, and process fan-out.
2. **Reuse.**  ``runner.build_network`` runs once per distinct
   (spec, job seed), not once per trial.
3. **Release.**  A shared spec's networks die after its last cell and
   when the grid returns or raises; a single-use spec's never outlive
   their cell; past its byte budget the memo stops retaining.
"""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.protocols import ProtocolSpec
from repro.experiments.runner import build_repetition_plan
from repro.graphs.builders import GraphSpec
from repro.scenarios import SweepCell, SweepGrid, run_cell, run_grid
from repro.scenarios import runtime
from repro.store import ResultStore, canonical_dumps

METRICS = ("success", "completion_round", "total_tx", "max_tx_per_node")
SHARED = GraphSpec("gnp", {"n": 40, "p": 0.2})
SINGLE = GraphSpec("gnp", {"n": 32, "p": 0.25})
CLIQUES = GraphSpec("path_of_cliques", {"num_cliques": 3, "clique_size": 4})


def _cell(graph, protocol, repetitions, tag, **kwargs):
    name, params = protocol
    return SweepCell(
        coords={"tag": tag},
        graph=graph,
        protocol=ProtocolSpec(name, params),
        repetitions=repetitions,
        **kwargs,
    )


def _grid():
    """Shared and single-use G(n, p) specs, unequal repetitions (R=3 and
    R=5 of SHARED share their first 3 graphs), a cell whose explicit seed
    gives it its own graphs, and a deterministic family."""
    return SweepGrid(
        cells=(
            _cell(SHARED, ("decay", {}), 3, "shared-decay"),
            _cell(SINGLE, ("algorithm1", {"p": 0.25}), 4, "single"),
            _cell(SHARED, ("algorithm1", {"p": 0.2}), 5, "shared-alg1"),
            _cell(SHARED, ("decay", {}), 3, "own-seed", seed=11),
            _cell(CLIQUES, ("decay", {}), 2, "cliques"),
            _cell(
                SHARED,
                ("bernoulli_flood", {"q": 0.3}),
                4,
                "shared-loss",
                job_options={
                    "environment": {"name": "iid_loss", "params": {"rx_loss": 0.1}}
                },
            ),
        )
    )


#: Distinct (spec, job seed) pairs of :func:`_grid`: SHARED under the grid
#: seed (5), SINGLE (4), SHARED under seed 11 (3), and the one prebuilt
#: deterministic topology.
DISTINCT_BUILDS = 5 + 4 + 3 + 1


def _alone(grid, **options):
    return [
        run_cell(cell, metrics=METRICS, store=False, **options).accumulators
        for cell in grid
    ]


def _states(accumulator_sets):
    return [accumulators.state_dict() for accumulators in accumulator_sets]


@pytest.fixture
def builds(monkeypatch):
    """Record every network ``runner.build_network`` returns, by spec."""
    built = []
    original = runner.build_network

    def recording(spec, **kwargs):
        network = original(spec, **kwargs)
        built.append((spec, weakref.ref(network)))
        return network

    monkeypatch.setattr(runner, "build_network", recording)
    return built


def _alive(built, spec):
    gc.collect()
    return [ref for graph, ref in built if graph == spec and ref() is not None]


# --------------------------------------------------------------------------- #
# Bit-identity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("batch_mode", ["fast", "exact"])
def test_grid_matches_cells_run_alone(batch_mode):
    grid = _grid()
    results = run_grid(grid, seed=2, metrics=METRICS, store=False,
                       batch_mode=batch_mode)
    assert _states(r.accumulators for r in results) == _states(
        _alone(grid, seed=2, batch_mode=batch_mode)
    )


@pytest.mark.parametrize("batch_mode", ["fast", "exact"])
def test_grid_resumed_from_partial_checkpoint_matches(
    batch_mode, tmp_path, monkeypatch
):
    grid = _grid()
    store = ResultStore(tmp_path / "cache")
    # Checkpoint every 2 fresh trials and die in the middle of the third
    # cell: the rerun skips the first two cells, resumes the third from its
    # partial checkpoint, and samples the later shared cell's graphs with
    # only some of them already in the memo.
    monkeypatch.setattr(runtime, "_CHECKPOINT_EVERY", 2)
    extract = runtime.extract_sample
    calls = []

    def dying(*args):
        calls.append(None)
        if len(calls) == 10:
            raise RuntimeError("interrupted")
        return extract(*args)

    monkeypatch.setattr(runtime, "extract_sample", dying)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_grid(grid, seed=2, metrics=METRICS, store=store,
                 batch_mode=batch_mode)
    monkeypatch.setattr(runtime, "extract_sample", extract)

    resumed = run_grid(grid, seed=2, metrics=METRICS, store=store,
                       batch_mode=batch_mode)
    assert [r.counts["skipped"] for r in resumed[:2]] == [3, 4]
    if batch_mode == "exact":
        assert resumed[2].counts["skipped"] == 2
    assert _states(r.accumulators for r in resumed) == _states(
        _alone(grid, seed=2, batch_mode=batch_mode)
    )


def test_process_fan_out_matches():
    grid = _grid()
    fanned = run_grid(grid, seed=2, metrics=METRICS, store=False,
                      batch_mode="exact", processes=2)
    assert _states(r.accumulators for r in fanned) == _states(
        _alone(grid, seed=2, batch_mode="exact")
    )


def test_fanned_out_shards_carry_no_memo():
    # Sampled networks are never pickled to worker processes.
    plan = build_repetition_plan(
        SHARED, ProtocolSpec("decay", {}), repetitions=4, seed=2,
        processes=2, batch_mode="fast", store=False,
    )
    memo = runner._TopologyMemo(canonical_dumps(SHARED.as_dict()))
    with runner._sharing_topologies(memo):
        assert [shard.topology_memo for shard in plan.shards()] == [None, None]
        in_process = replace(plan, processes=None)
        assert [shard.topology_memo for shard in in_process.shards()] == [memo]


# --------------------------------------------------------------------------- #
# Reuse
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("batch_mode", ["fast", "exact"])
def test_each_distinct_graph_is_sampled_once(builds, batch_mode):
    run_grid(_grid(), seed=2, metrics=METRICS, store=False,
             batch_mode=batch_mode)
    assert len(builds) == DISTINCT_BUILDS
    builds.clear()
    _alone(_grid(), seed=2, batch_mode=batch_mode)
    assert len(builds) == sum(
        1 if cell.graph == CLIQUES else cell.repetitions for cell in _grid()
    )


def test_equal_specs_in_other_spellings_share(builds):
    # The memo key is the store's canonical form: key order and numpy
    # scalar types do not split a spec.
    respelled = GraphSpec("gnp", {"p": np.float64(0.2), "n": np.int64(40)})
    grid = SweepGrid(
        cells=(
            _cell(SHARED, ("decay", {}), 3, "a"),
            _cell(respelled, ("decay", {}), 3, "b"),
        )
    )
    results = run_grid(grid, seed=2, metrics=METRICS, store=False,
                       batch_mode="exact")
    assert len(builds) == 3
    assert results[0].accumulators.state_dict() == (
        results[1].accumulators.state_dict()
    )


def test_memo_past_its_byte_budget_resamples(builds, monkeypatch):
    # The first retained network fills the budget: the second cell reuses
    # it and resamples the rest, with unchanged results.
    monkeypatch.setattr(runner, "_TOPOLOGY_MEMO_BYTES", 1)
    grid = SweepGrid(
        cells=(
            _cell(SHARED, ("decay", {}), 3, "a"),
            _cell(SHARED, ("algorithm1", {"p": 0.2}), 3, "b"),
        )
    )
    results = run_grid(grid, seed=2, metrics=METRICS, store=False,
                       batch_mode="exact")
    assert len(builds) == 3 + 2
    assert _states(r.accumulators for r in results) == _states(
        _alone(grid, seed=2, batch_mode="exact")
    )


# --------------------------------------------------------------------------- #
# Release
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("batch_mode", ["fast", "exact"])
def test_shared_networks_die_after_their_last_cell(
    builds, batch_mode, monkeypatch
):
    grid = SweepGrid(
        cells=(
            _cell(SHARED, ("decay", {}), 3, "shared-1"),
            _cell(SHARED, ("decay", {}), 3, "own-seed", seed=11),
            _cell(SHARED, ("algorithm1", {"p": 0.2}), 3, "shared-2"),
            _cell(SINGLE, ("decay", {}), 3, "single"),
            _cell(CLIQUES, ("decay", {}), 2, "after"),
        )
    )
    seen = {}
    original = runtime.run_cell

    def observing(cell, **options):
        seen[cell.coords["tag"]] = {
            "memo": runner._TOPOLOGY_MEMO.get() is not None,
            "shared": len(_alive(builds, SHARED)),
            "single": len(_alive(builds, SINGLE)),
        }
        return original(cell, **options)

    monkeypatch.setattr(runtime, "run_cell", observing)
    run_grid(grid, seed=2, metrics=METRICS, store=False, batch_mode=batch_mode)
    assert {tag: state["memo"] for tag, state in seen.items()} == {
        "shared-1": True,
        "own-seed": False,
        "shared-2": True,
        "single": False,
        "after": False,
    }
    # Held between the two cells that share them (the own-seed cell's
    # samples are not), dropped after the second.
    assert seen["shared-2"]["shared"] == 3
    assert seen["single"]["shared"] == 0
    # A single-use spec's samples are never retained past their cell.
    assert seen["after"]["single"] == 0
    assert _alive(builds, SHARED) == [] and _alive(builds, SINGLE) == []


def test_shared_networks_die_when_the_grid_raises(builds, monkeypatch):
    grid = SweepGrid(
        cells=(
            _cell(SHARED, ("decay", {}), 3, "shared-1"),
            _cell(SINGLE, ("decay", {}), 2, "boom"),
            _cell(SHARED, ("algorithm1", {"p": 0.2}), 3, "shared-2"),
        )
    )
    original = runtime.run_cell

    def failing(cell, **options):
        if cell.coords["tag"] == "boom":
            assert len(_alive(builds, SHARED)) == 3
            raise RuntimeError("cell failed")
        return original(cell, **options)

    monkeypatch.setattr(runtime, "run_cell", failing)
    with pytest.raises(RuntimeError, match="cell failed") as raised:
        run_grid(grid, seed=2, metrics=METRICS, store=False, batch_mode="exact")
    # The caller still holds the traceback, and with it run_grid's frame.
    assert raised.traceback
    assert _alive(builds, SHARED) == []
    assert runner._TOPOLOGY_MEMO.get() is None
