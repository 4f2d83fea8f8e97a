"""Serial reference runs for the batch-equivalence tests.

The runner executes every job on the batch engine.  The serial
:class:`~repro.radio.engine.SimulationEngine`, the scalar protocols, collision
models and environments stay as the reference those tests compare against:
:func:`run_serial_reference` runs each job of a plan the way the serial path
did — same per-job seed split, same topology sample, one engine run per job.
"""

from __future__ import annotations

from typing import List, Sequence

from repro._util.rng import spawn_generators
from repro.experiments.protocols import build_protocol
from repro.experiments.runner import Job
from repro.graphs.builders import build_network
from repro.radio.collision import (
    ErasureCollisionModel,
    StandardCollisionModel,
    WithCollisionDetectionModel,
)
from repro.radio.engine import SimulationEngine
from repro.radio.environment import build_environment
from repro.radio.trace import RunResultTrace

_COLLISION_MODELS = {
    "standard": StandardCollisionModel,
    "collision_detection": WithCollisionDetectionModel,
}


def _serial_run(job: Job) -> RunResultTrace:
    """One serial engine run of ``job``."""
    graph_rng, protocol_rng = spawn_generators(job.seed, 2)
    if job.erasure_probability > 0.0:
        collision_model = ErasureCollisionModel(job.erasure_probability)
    else:
        collision_model = _COLLISION_MODELS[job.collision_model]()
    engine = SimulationEngine(
        collision_model,
        record_rounds=job.record_rounds,
        keep_arrays=job.keep_arrays,
        run_to_quiescence=job.run_to_quiescence,
        environment=build_environment(job.environment),
    )
    return engine.run(
        build_network(job.graph, rng=graph_rng),
        build_protocol(job.protocol),
        rng=protocol_rng,
        max_rounds=job.max_rounds,
    )


def run_serial_reference(jobs: Sequence[Job]) -> List[RunResultTrace]:
    """Serial reference traces of ``jobs`` (e.g. a plan's ``.jobs``), in order."""
    return [_serial_run(job) for job in jobs]
