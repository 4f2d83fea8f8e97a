"""The benchmark's three workloads, as generated :class:`ScenarioSpec` grids.

Each workload is a spec builder ``build(seed, index, scale)``: the
benchmark's ``--seed`` and the pass index derive the sweep seed, so the
same seed always yields the same sequence of specs, and the program under
test receives only the generated spec.  ``scale="bench"`` is the measured
size; ``scale="smoke"`` is the self-test's tiny variant of the same grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.experiments.common import dense_p, log2n, sparse_p, threshold_p
from repro.experiments.protocols import ProtocolSpec
from repro.graphs.builders import GraphSpec, build_network
from repro.graphs.properties import source_eccentricity
from repro.scenarios import ScenarioSpec, SweepCell, SweepGrid

#: Metrics every cell accumulates; the output check reads the first four.
BASE_METRICS = ("success", "completion_round", "total_tx", "max_tx_per_node")

#: ``exact-resume`` only: each read-back pass asks for one more metric than
#: the cold pass, so the cold aggregation checkpoint misses and every trial
#: is read back through the result store.
RESUME_EXTRAS = ("rounds_executed", "mean_tx_per_node", "informed_fraction")


def sweep_seed(seed: int, index: int) -> int:
    """The scenario seed of pass ``index`` under benchmark seed ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(1)
    return int(state[0])


def _spec(name: str, cells, metrics, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id=f"sweepbench:{name}",
        grid=SweepGrid(cells=tuple(cells)),
        metrics=metrics,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# gnp-broadcast: graph sampling dominates
# --------------------------------------------------------------------------- #
_REGIMES = {"threshold": threshold_p, "sparse": sparse_p, "dense": dense_p}


def gnp_broadcast(seed: int, index: int, scale: str = "bench") -> ScenarioSpec:
    """Algorithm 1 to quiescence on the E1 grid (regime x n), fast mode."""
    sizes = (512, 1024, 2048) if scale == "bench" else (64, 128)
    repetitions = 1 if scale == "bench" else 2
    cells = []
    for regime, p_of in _REGIMES.items():
        for n in sizes:
            p = p_of(n)
            cells.append(
                SweepCell(
                    coords={"regime": regime, "n": n},
                    graph=GraphSpec("gnp", {"n": n, "p": p}),
                    protocol=ProtocolSpec("algorithm1", {"p": p}),
                    repetitions=repetitions,
                    job_options={"run_to_quiescence": True},
                )
            )
    return _spec("gnp-broadcast", cells, BASE_METRICS, sweep_seed(seed, index))


# --------------------------------------------------------------------------- #
# engine-gossip: the round loop dominates
# --------------------------------------------------------------------------- #
@functools.cache
def _clique_diameter(shape: Tuple[int, int]) -> int:
    spec = GraphSpec(
        "path_of_cliques", {"num_cliques": shape[0], "clique_size": shape[1]}
    )
    return source_eccentricity(build_network(spec), 0)


def engine_gossip(seed: int, index: int, scale: str = "bench") -> ScenarioSpec:
    """Algorithm 2 on G(n, 4 log n / n) plus three broadcast protocols on a
    shared path-of-cliques topology, fast mode."""
    sizes = (128, 192, 256) if scale == "bench" else (32, 48)
    shape = (16, 16) if scale == "bench" else (6, 6)
    gossip_reps = 4 if scale == "bench" else 2
    clique_reps = 24 if scale == "bench" else 4
    cells = []
    for n in sizes:
        p = min(1.0, 4.0 * log2n(n) / n)
        cells.append(
            SweepCell(
                coords={"protocol": "algorithm2", "n": n},
                graph=GraphSpec("gnp", {"n": n, "p": p}),
                protocol=ProtocolSpec("algorithm2", {"p": p}),
                repetitions=gossip_reps,
            )
        )
    cliques = GraphSpec(
        "path_of_cliques", {"num_cliques": shape[0], "clique_size": shape[1]}
    )
    diameter = _clique_diameter(shape)
    for name, params in (
        ("algorithm3", {"diameter": diameter}),
        ("czumaj_rytter_known_d", {"diameter": diameter}),
        ("decay", {}),
    ):
        cells.append(
            SweepCell(
                coords={"protocol": name, "cliques": f"{shape[0]}x{shape[1]}"},
                graph=cliques,
                protocol=ProtocolSpec(name, params),
                repetitions=clique_reps,
                job_options={"run_to_quiescence": True},
            )
        )
    return _spec("engine-gossip", cells, BASE_METRICS, sweep_seed(seed, index))


# --------------------------------------------------------------------------- #
# exact-resume: exact mode, environments, store writes and read-back
# --------------------------------------------------------------------------- #
def _environments(scale: str) -> Dict[str, Optional[dict]]:
    crash, recover = (8, 24) if scale == "bench" else (3, 9)
    return {
        "null": None,
        "iid_loss": {"name": "iid_loss", "params": {"rx_loss": 0.1}},
        "churn": {
            "name": "churn",
            "params": {
                "events": [
                    {"round": crash, "crash_fraction": 0.25},
                    {"round": recover, "recover_all": True},
                ]
            },
        },
    }


def exact_resume(seed: int, index: int, scale: str = "bench") -> ScenarioSpec:
    """Algorithm 1 and Decay on threshold G(n, p) under three environments,
    plus one sub-threshold Decay cell whose trials retire dead."""
    n = 128 if scale == "bench" else 48
    repetitions = 24 if scale == "bench" else 3
    p = threshold_p(n)
    graph = GraphSpec("gnp", {"n": n, "p": p})
    cells = []
    for world, environment in _environments(scale).items():
        for name, params in (("algorithm1", {"p": p}), ("decay", {})):
            options = {"environment": environment} if environment else {}
            cells.append(
                SweepCell(
                    coords={"protocol": name, "world": world, "n": n},
                    graph=graph,
                    protocol=ProtocolSpec(name, params),
                    repetitions=repetitions,
                    job_options=options,
                )
            )
    sub_p = threshold_p(n, 0.5)
    cells.append(
        SweepCell(
            coords={"protocol": "decay", "world": "sub-threshold", "n": n},
            graph=GraphSpec("gnp", {"n": n, "p": sub_p}),
            protocol=ProtocolSpec("decay", {}),
            repetitions=repetitions,
        )
    )
    metrics = BASE_METRICS + ("work_wasted",)
    return _spec("exact-resume", cells, metrics, sweep_seed(seed, index))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., ScenarioSpec]
    batch_mode: str
    #: Store-backed workloads time a cold pass into a fresh file store and
    #: read-back passes from it; store-off workloads time the cold pass only.
    store: bool

    def repeat_specs(self, spec: ScenarioSpec):
        """The read-back sweeps timed after the cold one: one per extra
        metric when the store is on, none when it is off."""
        if not self.store:
            return []
        return [
            replace(spec, metrics=spec.metrics + (extra,)) for extra in RESUME_EXTRAS
        ]


#: Why each workload exists: BENCHMARK.json ("why") and meta.json.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("gnp-broadcast", gnp_broadcast, "fast", store=False),
        Workload("engine-gossip", engine_gossip, "fast", store=False),
        Workload("exact-resume", exact_resume, "exact", store=True),
    )
}
