"""Unified job execution: one pipeline composing batching and process fan-out.

A :class:`Job` is a fully declarative description of one protocol run
(topology spec + protocol spec + seed + engine options), so a list of jobs
can be executed in process or handed to worker processes — each worker
rebuilds the network and protocol from the specs, keeping results
independent of scheduling (the per-job seed fully determines both the
topology sample and the protocol's randomness).

Every run goes through the :class:`~repro.radio.batch.BatchEngine`.
Repetition sweeps (the workload behind every experiment E1–E17) go through
an :class:`ExecutionPlan`, which composes batching with process fan-out:

* **batching** — all ``R`` repetitions advance together on stacked
  ``(R, n)`` state;
* **process fan-out** — ``processes=K`` shards the ``R`` per-trial seeds into
  ``K`` contiguous chunks, each worker running its chunk as its own
  :class:`~repro.radio.batch.NetworkBatch` (batching *within* each worker).

Heterogeneous job lists (:func:`run_jobs`, :func:`execute_job`) run each job
as a one-job exact-mode plan.  Per-trial seeds are spawned identically on
every path, so the sampled topologies — and, in ``batch_mode="exact"``, the
full traces bit for bit — are independent of how the sweep was scheduled.

Sweeps are **resumable**: when a :class:`~repro.store.ResultStore` is
attached (per call, or process-wide via :func:`configure_execution`, or the
CLI's ``--resume`` / ``--cache-dir`` flags), every per-trial result is
checkpointed under a canonical content digest as its shard completes, and
:func:`repeat_job` / :func:`run_jobs` consult the store first — only the
missing trials are enqueued.  In ``batch_mode="exact"`` a resumed sweep is
bit-identical to an uninterrupted one, because each trial's bits are a pure
function of its job spec and seed.  Work is dispatched through the
:class:`~repro.jobs.JobQueue` abstraction (in-process or a process pool with
retry-on-worker-death), so later backends can slot in without touching the
planner.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro._util.rng import spawn_generators
from repro.analysis.statistics import summarize
from repro.experiments.protocols import ProtocolSpec, build_batch_protocol
from repro.graphs.builders import GraphSpec, build_network, spec_is_deterministic
from repro.jobs import InProcessBackend, JobQueue
from repro.radio.batch import BatchEngine, NetworkBatch, PendingTrial
from repro.radio.kernels import resolve_collision_kernel
from repro.radio.network import RadioNetwork
from repro.radio.collision import (
    BATCH_COLLISION_MODELS,
    BatchCollisionModel,
    BatchErasureCollisionModel,
)
from repro.radio.environment import build_batch_environment, validate_environment_spec
from repro.radio.trace import RunResultTrace
from repro.store import ResultStore, canonical_dumps, canonicalize, trial_digest

__all__ = [
    "Job",
    "ExecutionPlan",
    "build_repetition_plan",
    "configure_execution",
    "execute_job",
    "run_jobs",
    "aggregate_runs",
    "repeat_job",
    "job_store_key",
]

@dataclass(frozen=True)
class Job:
    """One fully specified protocol run."""

    graph: GraphSpec
    protocol: ProtocolSpec
    seed: int
    run_to_quiescence: bool = False
    record_rounds: bool = False
    keep_arrays: bool = False
    max_rounds: Optional[int] = None
    collision_model: str = "standard"
    erasure_probability: float = 0.0
    environment: Optional[Dict[str, object]] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.collision_model not in BATCH_COLLISION_MODELS:
            known = ", ".join(sorted(BATCH_COLLISION_MODELS))
            raise ValueError(
                f"unknown collision model {self.collision_model!r}; "
                f"known: {known}"
            )

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "graph": self.graph.as_dict(),
            "protocol": self.protocol.as_dict(),
            "seed": self.seed,
            "run_to_quiescence": self.run_to_quiescence,
            "record_rounds": self.record_rounds,
            "keep_arrays": self.keep_arrays,
            "max_rounds": self.max_rounds,
            "collision_model": self.collision_model,
            "erasure_probability": self.erasure_probability,
            "label": self.label,
        }
        # Only faulty-world jobs carry the key, so every digest computed
        # before the environment axis existed stays valid.
        if self.environment is not None:
            out["environment"] = dict(self.environment)
        return out


def execute_job(job: Job) -> RunResultTrace:
    """Build the network and protocol from the job's specs and run once.

    The job runs as a one-job exact-mode :class:`ExecutionPlan`: two
    independent generator streams are spawned from the job seed, one for
    the topology sample and one for the protocol/engine randomness — so e.g.
    comparing two protocols with the same seed uses the *same* sampled
    network.
    """
    return ExecutionPlan(jobs=(job,), batch_mode="exact").execute()[0]


def _worker_count(processes: Optional[int], task_count: int) -> int:
    """Resolve a ``processes`` argument into an actual worker count."""
    if processes is None:
        return 1
    workers = processes if processes > 0 else (os.cpu_count() or 1)
    return max(1, min(workers, task_count))


# --------------------------------------------------------------------------- #
# Result-store plumbing
# --------------------------------------------------------------------------- #
#: Per-completion callback used to checkpoint results: ``sink(index, trace)``.
_ResultSink = Callable[[int, RunResultTrace], None]


def job_store_key(job: Job, context: Dict[str, object]) -> str:
    """The content digest a job's result is stored under.

    ``context`` carries the execution facts that affect the result bits on
    top of the job spec itself — the randomness policy (``batch_mode``) and,
    in fast mode, the cohort entropy (see :meth:`ExecutionPlan.cache_context`).
    The job's ``label`` is display metadata and deliberately excluded, so
    relabelled sweeps still dedup.
    """
    payload = job.as_dict()
    payload.pop("label", None)
    return trial_digest({"job": payload, "context": dict(context)})


def _mode_context(batch_mode: str) -> Dict[str, object]:
    """The cache-context entries every plan carries.  ``state_backend`` is
    a fixed literal: sweeps always let the engine pick the node-set backend
    (every backend is bit-identical), and the key keeps existing store
    digests valid."""
    return {"batch_mode": batch_mode, "state_backend": "auto"}


def _trace_store_payload(trace: RunResultTrace) -> dict:
    """What the store records for a trial: the full-fidelity payload minus
    the requesting job's display metadata (re-attached on rehydration)."""
    payload = trace.to_payload()
    metadata = dict(payload.get("metadata", {}))
    metadata.pop("job", None)
    metadata.pop("label", None)
    payload["metadata"] = metadata
    return canonicalize(payload)


def _rehydrate_trace(payload: dict, job: Job) -> RunResultTrace:
    """Rebuild a cached trial and re-attach the requesting job's metadata."""
    trace = RunResultTrace.from_payload(payload)
    trace.metadata["job"] = job.as_dict()
    if job.label:
        trace.metadata["label"] = job.label
    return trace


def _store_sink(store: ResultStore, keys: Sequence[str]) -> _ResultSink:
    """A sink writing each completed trace under its precomputed key."""

    def sink(index: int, trace: RunResultTrace) -> None:
        store.put(keys[index], _trace_store_payload(trace))

    return sink


def _consult_store(
    store: ResultStore,
    jobs: Sequence[Job],
    keys: Sequence[str],
    run_missing: Callable[[List[int], _ResultSink], List[RunResultTrace]],
    *,
    all_or_nothing: bool = False,
) -> List[RunResultTrace]:
    """The cache-consultation protocol shared by :func:`run_jobs` and
    :meth:`ExecutionPlan.execute`: probe every key, rehydrate the hits,
    execute the missing jobs with a sink that checkpoints each completion
    under its key, and merge everything back in job order.

    ``all_or_nothing`` discards a *partial* hit set (fast-mode sweeps, whose
    draws are cohort-wide) — the discarded probes are reclassified as misses
    so the store counters report what was actually served.
    """
    results: Dict[int, RunResultTrace] = {}
    for index, key in enumerate(keys):
        payload = store.get(key)
        if payload is not None:
            results[index] = _rehydrate_trace(payload, jobs[index])
    if all_or_nothing and results and len(results) != len(jobs):
        store.hits -= len(results)
        store.misses += len(results)
        if telemetry.enabled():
            telemetry.counter_inc("store.hits", -len(results))
            telemetry.counter_inc("store.misses", len(results))
        results = {}
    missing = [index for index in range(len(jobs)) if index not in results]
    if missing:
        fresh = run_missing(
            missing, _store_sink(store, [keys[index] for index in missing])
        )
        for index, trace in zip(missing, fresh):
            results[index] = trace
    return [results[index] for index in range(len(jobs))]


def _resolve_store(store) -> Optional[ResultStore]:
    """Resolve a ``store`` argument: ``None`` means the process-wide default
    (:func:`configure_execution`), ``False`` disables caching explicitly, a
    path opens a :class:`~repro.store.ResultStore` there."""
    if store is None:
        return _EXECUTION_DEFAULTS.store
    if store is False:
        return None
    if isinstance(store, (str, Path)):
        return ResultStore(store)
    return store


def run_jobs(
    jobs: Sequence[Job],
    *,
    processes: Optional[int] = None,
    store=None,
    queue: Optional[JobQueue] = None,
) -> List[RunResultTrace]:
    """Execute ``jobs`` one :func:`execute_job` per job, in process or across
    workers.

    ``processes=None`` (default) runs in process; pass an integer (or 0 for
    ``os.cpu_count()``) to fan out.  This is the heterogeneous-job path —
    repetition sweeps should go through :func:`repeat_job` /
    :class:`ExecutionPlan`, which batch the repetition axis as well.

    ``store`` selects the content-addressed result store consulted before
    executing anything (``None``: the process-wide default, ``False``:
    disabled, or a :class:`~repro.store.ResultStore` / path): cached jobs
    are returned without touching the engine and fresh results are
    checkpointed as they complete, under the exact-mode cache context.
    ``queue`` overrides the :class:`~repro.jobs.JobQueue` work is dispatched
    through.
    """
    jobs = list(jobs)

    def run_missing(
        missing: Sequence[int], sink: Optional[_ResultSink] = None
    ) -> List[RunResultTrace]:
        workers = _worker_count(processes, len(missing))
        # A computed chunksize (instead of the default 1) amortises the
        # per-item pickle/IPC round trip on large sweeps while still keeping
        # ~4 chunks per worker for load balancing.
        chunksize = max(1, len(missing) // (4 * workers)) if workers > 1 else 1
        dispatch = queue if queue is not None else JobQueue.for_workers(workers)
        return dispatch.run(
            execute_job,
            [jobs[index] for index in missing],
            on_result=sink,
            chunksize=chunksize,
        )

    resolved = _resolve_store(store)
    if resolved is None:
        return run_missing(range(len(jobs)))
    context = _mode_context("exact")
    keys = [job_store_key(job, context) for job in jobs]
    return _consult_store(resolved, jobs, keys, run_missing)


@dataclass(frozen=True)
class _ExecutionDefaults:
    """Process-wide defaults for the batch axis of :class:`ExecutionPlan`."""

    batch_mode: str = "fast"
    kernel: str = "auto"
    store: Optional[ResultStore] = None
    environment: Optional[Dict[str, object]] = None


_EXECUTION_DEFAULTS = _ExecutionDefaults()

#: Sentinel distinguishing "leave unchanged" from "set to None (disable)".
_UNSET = object()


def configure_execution(
    *,
    batch_mode: Optional[str] = None,
    kernel: Optional[str] = None,
    store=_UNSET,
    environment=_UNSET,
) -> None:
    """Set process-wide execution defaults (the CLI's ``--batch-mode`` /
    ``--kernel`` / cache flags land here).

    ``repeat_job`` / :class:`ExecutionPlan` use these whenever the caller
    does not pass ``batch_mode`` / ``kernel`` explicitly, so the whole
    experiment suite can be switched to exact mode or a specific collision
    kernel without threading flags through every experiment module.

    ``store`` installs the process-wide content-addressed result store the
    sweeps consult (a :class:`~repro.store.ResultStore`, a cache-dir path,
    or ``None`` to disable caching); omit the argument to leave the current
    store unchanged.

    ``environment`` installs a process-wide faulty-world environment spec
    (the CLI's ``--env`` flag lands here): every job built without its own
    ``environment`` job option then runs under it.  Pass ``None`` to
    disable; omit the argument to leave the current default unchanged.
    """
    global _EXECUTION_DEFAULTS
    updates: Dict[str, object] = {}
    if batch_mode is not None:
        updates["batch_mode"] = batch_mode
    if kernel is not None:
        # Validate eagerly (mode-independent checks only) so a typo fails at
        # configuration time, not on the first sweep.
        resolve_collision_kernel(kernel)
        updates["kernel"] = kernel
    if store is not _UNSET:
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        updates["store"] = store
    if environment is not _UNSET:
        updates["environment"] = validate_environment_spec(environment)
    _EXECUTION_DEFAULTS = replace(_EXECUTION_DEFAULTS, **updates)


@dataclass(frozen=True)
class _BatchShard:
    """One worker's contiguous slice of a batched repetition sweep."""

    jobs: Tuple[Job, ...]
    mode: str
    fast_seed: Optional[np.random.SeedSequence]
    kernel: str = "auto"
    #: Plan-level topology cache: for deterministic graph families every
    #: job's sample is the same network, so the plan builds it once and every
    #: shard (and every trial within a shard) shares the object instead of
    #: rebuilding it per job.  ``None`` for random families, whose per-trial
    #: samples are (deliberately) distinct.
    shared_network: Optional[RadioNetwork] = None
    #: Stacked-CSR reuse on top of the topology cache: in-process plans also
    #: share the *tiled* :class:`NetworkBatch` across equally-sized shards,
    #: so a 64-shard resumable sweep builds the block-diagonal CSR once
    #: instead of 64 times.  ``None`` when fan-out would have to pickle the
    #: stacked arrays to worker processes (rebuilding there is cheaper).
    shared_batch: Optional[NetworkBatch] = None
    #: Telemetry/diagnostic name (``shard[k]:<cell digest prefix>``) set by
    #: the plan; doubles as the queue task label and the shard span name.
    label: str = ""
    #: The sweep's :class:`_TopologyMemo` for this shard's spec.  Only set
    #: for shards that run in process: sampled networks are never pickled
    #: to workers.
    topology_memo: Optional[_TopologyMemo] = field(
        default=None, compare=False
    )


def _execute_batch_shard(
    shard: _BatchShard, result_sink: Optional[_ResultSink] = None
) -> List[RunResultTrace]:
    """Run one shard's jobs as a single :class:`NetworkBatch` through the
    batch engine.  Runs in the parent (single shard) or a worker process
    (sharded fan-out); everything it needs is picklable.

    ``result_sink`` streams each trial's trace (with its job metadata
    attached) out as results are assembled; the return value is then empty
    and the shard never materialises its full trace list.
    """
    if not telemetry.enabled():
        return _execute_batch_shard_impl(shard, result_sink)
    with telemetry.span(
        "shard",
        shard.label or "shard",
        trials=len(shard.jobs),
        mode=shard.mode,
    ):
        return _execute_batch_shard_impl(shard, result_sink)


def _execute_batch_shard_traced(shard: _BatchShard):
    """Process-fan-out wrapper: run the shard under a telemetry capture and
    return ``(results, telemetry_payload)``.

    Workers cannot reach the parent's sink, so their spans/events/counters
    buffer in-process and ride home on the existing per-completion result
    channel; the parent's ``on_result`` callback ingests the payload tagged
    with the shard's cell-digest label (see :meth:`ExecutionPlan._run`).
    Only dispatched when the parent had telemetry enabled.
    """
    with telemetry.capture(shard.label or "shard") as captured:
        results = _execute_batch_shard(shard)
    return results, captured.payload()


#: Byte budget of one :class:`_TopologyMemo` (CSR arrays of its retained
#: networks).  Past it, later samples are not retained and the cells that
#: need them resample: a 10⁵-trial sweep stays memory-flat in the trial
#: count even when two of its cells share a spec.
_TOPOLOGY_MEMO_BYTES = 1 << 26


class _TopologyMemo:
    """The sampled networks of one (spec, cell seed) that several cells of
    a sweep use, by job seed.

    A sampled graph is a pure function of its spec and job seed (the graph
    stream is ``spawn_generators(job.seed, 2)[0]``), so a trial whose
    graph is already here reuses that read-only network instead of
    resampling it.  :func:`repro.scenarios.runtime.run_grid` creates one
    per shared (spec, cell seed), installs it in :data:`_TOPOLOGY_MEMO`
    while each of those cells runs, and drops it after the last one.
    """

    __slots__ = ("spec_key", "networks", "nbytes")

    def __init__(self, spec_key: str) -> None:
        #: ``canonical_dumps`` of the spec — the store's canonical form, so
        #: the memo never shares what the store would keep apart.
        self.spec_key = spec_key
        self.networks: Dict[int, RadioNetwork] = {}
        self.nbytes = 0

    def add(self, seed: int, network: RadioNetwork) -> None:
        if self.nbytes >= _TOPOLOGY_MEMO_BYTES:
            return
        self.networks[seed] = network
        self.nbytes += sum(
            array.nbytes
            for array in (
                network.out_indptr,
                network.out_indices,
                network.in_indptr,
                network.in_indices,
            )
        )


#: The :class:`_TopologyMemo` of the cell being run, or ``None``.  The
#: plan reads it in the calling process only, so process fan-out workers
#: never see it: they resample, with identical results.
_TOPOLOGY_MEMO: ContextVar[Optional[_TopologyMemo]] = ContextVar(
    "topology_memo", default=None
)


@contextmanager
def _sharing_topologies(memo: _TopologyMemo):
    """Install ``memo`` in :data:`_TOPOLOGY_MEMO` while the body runs."""
    token = _TOPOLOGY_MEMO.set(memo)
    try:
        yield
    finally:
        _TOPOLOGY_MEMO.reset(token)


def _memo_for(spec: GraphSpec) -> Optional[_TopologyMemo]:
    """The installed memo, if it holds ``spec``'s graphs."""
    memo = _TOPOLOGY_MEMO.get()
    if memo is None or memo.spec_key != canonical_dumps(spec.as_dict()):
        return None
    return memo


class _TopologyTimer:
    """Builds a shard's (or continuous run's) sampled topologies.

    ``memo`` is the sweep's :class:`_TopologyMemo` of the spec, if any: a
    job whose seed is in it reuses that network, and every graph built
    here is offered to it.  When telemetry is
    on, the build seconds are summed into one ``topology`` aggregate span
    carrying the ``graphs`` actually sampled and the ``reused`` count (no
    span when every trial shares one prebuilt deterministic topology).
    """

    def __init__(self, memo: Optional[_TopologyMemo] = None) -> None:
        self.memo = memo
        self.traced = telemetry.enabled()
        self.seconds = 0.0
        self.graphs = 0
        self.reused = 0

    def build(self, job: Job, rng) -> RadioNetwork:
        memo = self.memo
        if memo is not None:
            network = memo.networks.get(job.seed)
            if network is not None:
                self.reused += 1
                return network
        if self.traced:
            start = time.perf_counter()
            network = build_network(job.graph, rng=rng)
            self.seconds += time.perf_counter() - start
            self.graphs += 1
        else:
            network = build_network(job.graph, rng=rng)
        if memo is not None:
            memo.add(job.seed, network)
        return network

    def emit(self, spec: GraphSpec) -> None:
        if self.traced and (self.graphs or self.reused):
            telemetry.aggregate_span(
                "topology",
                spec.family,
                self.seconds,
                graphs=self.graphs,
                reused=self.reused,
            )


def _execute_batch_shard_impl(
    shard: _BatchShard, result_sink: Optional[_ResultSink] = None
) -> List[RunResultTrace]:
    jobs = shard.jobs
    template = jobs[0]
    collision_model = _batch_collision_model_for(template)
    topology = _TopologyTimer(shard.topology_memo)

    networks: Union[NetworkBatch, List[RadioNetwork]] = []
    protocol_rngs = []
    for job in jobs:
        # The graph stream is spawned even when the cached topology makes it
        # unused, so the protocol stream stays identical on every path.
        graph_rng, protocol_rng = spawn_generators(job.seed, 2)
        if isinstance(networks, list):
            if shard.shared_network is not None:
                networks.append(shard.shared_network)
            else:
                networks.append(topology.build(job, graph_rng))
        protocol_rngs.append(protocol_rng)
    topology.emit(template.graph)
    if shard.shared_batch is not None:
        networks = shard.shared_batch

    engine = BatchEngine(
        collision_model,
        record_rounds=template.record_rounds,
        keep_arrays=template.keep_arrays,
        run_to_quiescence=template.run_to_quiescence,
        environment=build_batch_environment(template.environment),
        kernel=shard.kernel,
    )
    protocol = build_batch_protocol(template.protocol)

    def decorate(trial: int, result: RunResultTrace) -> RunResultTrace:
        job = jobs[trial]
        result.metadata.setdefault("job", job.as_dict())
        if job.label:
            result.metadata["label"] = job.label
        return result

    engine_sink: Optional[_ResultSink] = None
    if result_sink is not None:

        def engine_sink(trial: int, result: RunResultTrace) -> None:
            result_sink(trial, decorate(trial, result))

    if shard.mode == "exact":
        results = engine.run(
            networks,
            protocol,
            rngs=protocol_rngs,
            max_rounds=template.max_rounds,
            result_sink=engine_sink,
        )
    else:
        results = engine.run(
            networks,
            protocol,
            rng=np.random.default_rng(shard.fast_seed),
            max_rounds=template.max_rounds,
            result_sink=engine_sink,
        )
    for trial, result in enumerate(results):
        decorate(trial, result)
    return results


def _batch_collision_model_for(job: Job) -> BatchCollisionModel:
    if job.erasure_probability > 0.0:
        return BatchErasureCollisionModel(job.erasure_probability)
    return BATCH_COLLISION_MODELS[job.collision_model]()


@dataclass(frozen=True)
class ExecutionPlan:
    """How a homogeneous repetition sweep is executed.

    Every job runs on the :class:`~repro.radio.batch.BatchEngine`; the plan
    composes batching with process fan-out.  With ``processes=None`` all
    ``R`` trials run in process; with ``processes=K`` the ``R`` seeds are
    sharded into ``K`` contiguous chunks and each worker runs its chunk as
    its own :class:`~repro.radio.batch.NetworkBatch`.

    ``batch_mode`` selects the randomness policy: ``"fast"`` (one shared
    generator per shard, vectorised draws — statistically identical to
    exact) or ``"exact"`` (one child generator per trial, consumed exactly
    as the serial reference engine would — bit-identical to it, regardless
    of sharding).

    ``kernel`` selects the collision-kernel implementation
    (:data:`repro.radio.kernels.COLLISION_KERNELS`): ``"auto"`` (default)
    runs the compiled kernel when numba is importable and the bit-identical
    numpy path otherwise, ``"numpy"`` / ``"compiled"`` force a side,
    and ``"edge_sampled"`` opts into the O(R·n) mean-field approximation
    for edge-bound graphs — fast mode only (the plan rejects it under
    ``batch_mode="exact"`` at construction), stamped into trace metadata
    and into the sweep's store digests.  The exact kernels all share one
    digest space, so flipping between them never invalidates a cache.

    Deterministic graph families (paths, grids, the lower-bound gadgets …)
    sample to the same network under every seed, so the plan builds that
    topology **once** and hands every shard a shared view instead of
    rebuilding it per job; random families keep their per-trial samples,
    except that an in-process plan run by
    :func:`~repro.scenarios.runtime.run_grid` reuses the samples other
    cells of the grid already drew (see :data:`_TOPOLOGY_MEMO`).

    ``store`` attaches a content-addressed result store: cached trials are
    returned without touching the engine, missing trials are executed and
    checkpointed shard by shard as they complete (so an interrupted sweep
    resumes where it died).  In exact mode each trial's bits are a pure
    function of its job spec + seed, making resumption bit-identical to an
    uninterrupted run; in fast mode the rng streams are cohort-wide, so the
    cache is all-or-nothing (a partial hit recomputes the whole sweep rather
    than silently changing the draws).

    ``queue`` overrides the :class:`~repro.jobs.JobQueue` shards are
    dispatched through (default: in-process for one worker, a process pool
    with retry-on-worker-death otherwise), and ``shard_count`` decouples the
    number of shards from the worker count — more shards mean finer resume
    checkpoints and better load balancing at a small per-shard overhead.

    An exact-mode sweep that runs in process (one worker, or an
    in-process ``queue``) goes through one
    :meth:`~repro.radio.batch.BatchEngine.run_continuous` loop: completed
    and dead trials retire the round they stop, the live batch is compacted
    and freed rows refill with later jobs — so a sweep whose completion
    rounds vary widely stops being billed for its slowest trial's horizon.
    Every trial is bit-identical to the sharded path, so this is an
    execution detail, not a result axis: it never changes store digests.
    Every other sweep runs as shards (fast-mode draws are
    cohort-wide, so the shard layout must stay fixed for its cache keys).

    The jobs must be a homogeneous sweep: same specs and engine options,
    differing only in seed/label (what :func:`repeat_job` builds).
    """

    jobs: Tuple[Job, ...]
    processes: Optional[int] = None
    batch_mode: str = "fast"
    fast_seed: Optional[np.random.SeedSequence] = None
    kernel: str = "auto"
    store: Optional[ResultStore] = None
    queue: Optional[JobQueue] = None
    shard_count: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("ExecutionPlan needs at least one job")
        if self.batch_mode not in ("fast", "exact"):
            raise ValueError(
                f"batch_mode must be 'fast' or 'exact', got {self.batch_mode!r}"
            )
        # Fails fast on unknown kernels and on the illegal
        # edge_sampled x exact combination (an approximation cannot honour
        # the bit-exactness contract) at plan-build time.
        resolve_collision_kernel(
            self.kernel, exact_mode=self.batch_mode == "exact"
        )
        if self.shard_count is not None and self.shard_count < 1:
            raise ValueError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )

    # ------------------------------------------------------------------ #
    def shared_topology(self) -> Optional[RadioNetwork]:
        """The plan-wide topology cache entry, if the sweep admits one.

        Deterministic graph families ignore their sampling rng, so all jobs
        of the sweep run on the same network: build it once here (the sample
        is seed-independent, so any job's spec works) and let every shard —
        and every trial inside a shard — share the object.
        """
        template = self.jobs[0]
        if not spec_is_deterministic(template.graph):
            return None
        return build_network(template.graph)

    def _fast_seed_or_derived(self) -> np.random.SeedSequence:
        """The fast-mode root seed (derived from the job seeds if unset)."""
        if self.fast_seed is not None:
            return self.fast_seed
        # A plan built without a fast seed still has to be reproducible:
        # derive one from the (deterministic) job seeds.
        return np.random.SeedSequence([job.seed for job in self.jobs])

    def _shard_total(self) -> int:
        """How many batch shards the plan splits into."""
        workers = _worker_count(self.processes, len(self.jobs))
        count = self.shard_count if self.shard_count is not None else workers
        return max(1, min(count, len(self.jobs)))

    def shards(self) -> List[_BatchShard]:
        """The batch shards this plan would execute (one per worker unless
        ``shard_count`` says otherwise)."""
        jobs = self.jobs
        count = self._shard_total()
        bounds = np.linspace(0, len(jobs), count + 1).astype(int)
        shared_network = self.shared_topology()
        if self.batch_mode == "exact":
            fast_seeds: List[Optional[np.random.SeedSequence]] = [None] * count
        else:
            fast_seed = self._fast_seed_or_derived()
            if count == 1:
                # Unsharded fast mode keeps the historical single-generator seed.
                fast_seeds = [fast_seed]
            else:
                fast_seeds = list(fast_seed.spawn(count))
        # Stacked-CSR reuse: an in-process shared-topology plan tiles the
        # block-diagonal batch once per distinct shard size and every shard
        # of that size shares the arrays.  Skipped under process fan-out,
        # where the shard would have to pickle the stacked CSR to its worker
        # (rebuilding from the n-node network there is cheaper than the
        # IPC).
        shared_batches: Dict[int, NetworkBatch] = {}
        if (
            shared_network is not None
            and _worker_count(self.processes, len(jobs)) == 1
        ):
            for size in {
                int(bounds[k + 1] - bounds[k])
                for k in range(count)
                if bounds[k] < bounds[k + 1]
            }:
                shared_batches[size] = NetworkBatch.shared(shared_network, size)
        memo = (
            _memo_for(jobs[0].graph)
            if shared_network is None and self._runs_in_process()
            else None
        )
        return [
            _BatchShard(
                jobs=jobs[bounds[k] : bounds[k + 1]],
                mode=self.batch_mode,
                fast_seed=fast_seeds[k],
                kernel=self.kernel,
                shared_network=shared_network,
                shared_batch=shared_batches.get(int(bounds[k + 1] - bounds[k])),
                topology_memo=memo,
            )
            for k in range(count)
            if bounds[k] < bounds[k + 1]
        ]

    # ------------------------------------------------------------------ #
    # Continuous batching
    # ------------------------------------------------------------------ #
    def _runs_in_process(self) -> bool:
        """Whether the plan executes in the calling process — the condition
        for the continuous path, whose refill loop feeds one live engine."""
        if self.queue is not None:
            return self.queue.in_process
        return _worker_count(self.processes, len(self.jobs)) <= 1

    def _run_continuous(
        self, sink: Optional[_ResultSink], *, collect: bool = True
    ) -> List[RunResultTrace]:
        """Execute an exact-mode sweep through one engine's
        :meth:`~repro.radio.batch.BatchEngine.run_continuous` loop.

        The pending stream pulls jobs lazily in job order — the in-process
        analogue of shard work-stealing: a row freed by a retired trial is
        refilled with what would have been a later shard's work, so
        occupancy stays near ``capacity`` for the whole sweep instead of
        draining once per shard.  Traces stream out one trial at a time
        (finer checkpoints than the per-shard sink of the sharded path).
        """
        jobs = self.jobs
        template = jobs[0]
        shared_network = self.shared_topology()
        # The largest shard of the sharded layout (shard sizes differ by at
        # most one).
        capacity = -(-len(jobs) // self._shard_total())
        engine = BatchEngine(
            _batch_collision_model_for(template),
            record_rounds=template.record_rounds,
            keep_arrays=template.keep_arrays,
            run_to_quiescence=template.run_to_quiescence,
            environment=build_batch_environment(template.environment),
            kernel=self.kernel,
        )
        topology = _TopologyTimer(
            _memo_for(template.graph) if shared_network is None else None
        )

        def pending():
            for index, job in enumerate(jobs):
                # The graph stream is spawned even when the cached topology
                # makes it unused, so the protocol stream stays identical on
                # every path.
                graph_rng, protocol_rng = spawn_generators(job.seed, 2)
                network = (
                    shared_network
                    if shared_network is not None
                    else topology.build(job, graph_rng)
                )
                yield PendingTrial(network, rng=protocol_rng, tag=index)

        collected: Dict[int, RunResultTrace] = {}

        def consume(index: int, trace: RunResultTrace) -> None:
            job = jobs[index]
            trace.metadata.setdefault("job", job.as_dict())
            if job.label:
                trace.metadata["label"] = job.label
            if collect:
                collected[index] = trace
            if sink is not None:
                sink(index, trace)

        label = (
            f"continuous:{job_store_key(template, self.cache_context())[:16]}"
        )

        def run_task(_task) -> None:
            engine.run_continuous(
                pending(),
                lambda: build_batch_protocol(template.protocol),
                capacity=capacity,
                max_rounds=template.max_rounds,
                result_sink=consume,
            )
            topology.emit(template.graph)

        # The single continuous task still goes through the queue so its
        # dispatch shows up in queue stats/labels like any shard would.
        queue = self.queue if self.queue is not None else JobQueue.for_workers(1)
        if telemetry.enabled():
            with telemetry.span(
                "shard",
                label,
                trials=len(jobs),
                mode=self.batch_mode,
                capacity=capacity,
            ):
                queue.run(run_task, [0], collect=False, task_labels=[label])
        else:
            queue.run(run_task, [0], collect=False, task_labels=[label])
        return [collected[i] for i in sorted(collected)] if collect else []

    # ------------------------------------------------------------------ #
    # Result-store integration
    # ------------------------------------------------------------------ #
    def cache_context(self) -> Dict[str, object]:
        """The execution facts baked into this sweep's store keys.

        Exact-mode trials are pure functions of their job spec, so their
        context is just the mode (plus the fixed ``state_backend`` literal,
        see :func:`_mode_context`).  Fast mode draws from cohort-wide
        streams — one shared generator per shard — so its context
        additionally pins the cohort (fast-seed entropy, shard layout): a
        fast key can only hit when the *whole sweep* is identical, never
        bit-mixing draws across differently shaped runs.
        """
        context = _mode_context(self.batch_mode)
        resolved_kernel = resolve_collision_kernel(
            self.kernel, exact_mode=self.batch_mode == "exact"
        )
        if resolved_kernel == "edge_sampled":
            # Only the approximation changes the result distribution; the
            # exact kernels (numpy/compiled/auto) are interchangeable bit
            # for bit, so they share the historical digests — the key is
            # omitted entirely to keep every pre-kernel store valid.
            context["kernel"] = "edge_sampled"
        if self.batch_mode == "fast":
            fast_seed = self._fast_seed_or_derived()
            context["fast_cohort"] = {
                "entropy": fast_seed.entropy,
                "spawn_key": list(fast_seed.spawn_key),
                "shards": self._shard_total(),
            }
        return context

    def job_keys(self) -> List[str]:
        """One store digest per job, in job order."""
        context = self.cache_context()
        return [job_store_key(job, context) for job in self.jobs]

    def execute(self) -> List[RunResultTrace]:
        """Run the sweep; returns one trace per job, in job order.

        With a ``store`` attached, cached trials are served from it and only
        the missing ones are executed (checkpointed back shard by shard); in
        fast mode the cache is all-or-nothing (see :meth:`cache_context`).
        """
        store = self.store
        if store is None:
            return self._run(None)
        context = self.cache_context()
        keys = self.job_keys()

        def run_missing(missing: List[int], sink: _ResultSink) -> List[RunResultTrace]:
            sub = replace(
                self, jobs=tuple(self.jobs[i] for i in missing), store=None
            )
            return sub._run(sink)

        return _consult_store(
            store,
            self.jobs,
            keys,
            run_missing,
            # Fast-mode draws are cohort-wide; a partial hit cannot be
            # extended bit-faithfully, so recompute the whole sweep.
            all_or_nothing=context["batch_mode"] == "fast",
        )

    def execute_streaming(
        self,
        consume: _ResultSink,
        *,
        skip_indices: Sequence[int] = (),
    ) -> Dict[str, int]:
        """Run the sweep feeding ``consume(index, trace)`` exactly once per
        job, **without materialising the result list** — the memory-flat
        path behind the streaming aggregation layer.

        Trials already in the attached ``store`` are streamed from it
        (payloads are loaded one at a time and dropped after consumption);
        missing trials execute and are checkpointed + consumed as their
        shard completes.  ``skip_indices`` names jobs the caller has already
        reduced (a resumed aggregation): they are neither executed nor read
        back — their traces are simply not needed any more.

        In exact mode every trial is its own pure function, so any subset
        can be served/skipped independently.  Fast-mode draws are
        cohort-wide: the store can only serve the sweep all-or-nothing, and
        a caller resuming a fast-mode aggregation must pass either a
        complete ``skip_indices`` or none (partial fast-mode state cannot
        be extended bit-faithfully; the scenario runtime discards it).

        Returns counters: ``{"total", "skipped", "served", "executed"}``.
        """
        skip = set(skip_indices)
        counts = {
            "total": len(self.jobs),
            "skipped": len(skip),
            "served": 0,
            "executed": 0,
        }
        candidates = [i for i in range(len(self.jobs)) if i not in skip]
        store = self.store
        context = self.cache_context()
        if context["batch_mode"] == "fast" and skip and candidates:
            # Checked store or no store: running the remaining jobs as a
            # sub-plan would draw from a different cohort layout than the
            # sweep the skipped trials came from.
            raise ValueError(
                "a fast-mode sweep cannot resume from a partial aggregation: "
                "its rng streams are cohort-wide (skip all trials or none)"
            )

        def run_missing(missing: List[int]) -> None:
            if not missing:
                return
            sub = replace(
                self, jobs=tuple(self.jobs[i] for i in missing), store=None
            )

            def sink(sub_index: int, trace: RunResultTrace) -> None:
                index = missing[sub_index]
                if store is not None:
                    store.put(keys[index], _trace_store_payload(trace))
                consume(index, trace)

            sub._run(sink, collect=False)
            counts["executed"] = len(missing)

        if store is None:
            run_missing(candidates)
            return counts

        keys = self.job_keys()
        if context["batch_mode"] == "fast" and not all(
            keys[i] in store for i in candidates
        ):
            # All-or-nothing: a partial fast-mode hit set cannot be extended
            # bit-faithfully, so everything recomputes (and the counters
            # report misses, not discarded probes).
            store.misses += len(candidates)
            telemetry.counter_inc("store.misses", len(candidates))
            run_missing(candidates)
            return counts
        missing: List[int] = []
        for index in candidates:
            payload = store.get(keys[index])
            if payload is None:
                missing.append(index)
                continue
            consume(index, _rehydrate_trace(payload, self.jobs[index]))
            counts["served"] += 1
        run_missing(missing)
        return counts

    def _run(
        self, sink: Optional[_ResultSink], *, collect: bool = True
    ) -> List[RunResultTrace]:
        """Execute every job of the plan (no store consultation), feeding
        completed traces to ``sink`` as their shard/chunk finishes.

        ``collect=False`` is the streaming mode: ``sink`` still sees every
        trace, but nothing is retained and the return value is empty — a
        10⁵-trial sweep's memory stays bounded by one shard, not by R.
        """
        if self.batch_mode == "exact" and self._runs_in_process():
            return self._run_continuous(sink, collect=collect)
        shards = self.shards()
        queue = self.queue
        if queue is None:
            workers = _worker_count(self.processes, len(self.jobs))
            queue = JobQueue.for_workers(min(workers, len(shards)))
        starts = np.concatenate(
            [[0], np.cumsum([len(shard.jobs) for shard in shards])]
        )

        # Name each shard by its first trial's cell digest, so a
        # poisoned shard is identifiable (WorkerPoolError), reproducible
        # straight from the error message, and attributable in the
        # telemetry stream (the label is also the shard span's name and
        # the tag relayed events carry home from workers).
        context = self.cache_context()
        labels = [
            f"shard[{k}]:{job_store_key(shard.jobs[0], context)[:16]}"
            for k, shard in enumerate(shards)
        ]
        shards = [
            replace(shard, label=label)
            for shard, label in zip(shards, labels)
        ]
        # Worker processes buffer their telemetry and ship it back with
        # the shard results (the parent cannot see their pipelines);
        # in-process execution emits directly, so no wrapping needed.
        traced = telemetry.enabled() and not isinstance(
            queue.backend, InProcessBackend
        )

        def on_shard(shard_index: int, shard_result) -> None:
            if traced:
                shard_result, payload = shard_result
                telemetry.ingest(payload, shard=labels[shard_index])
            if sink is not None:
                base = int(starts[shard_index])
                for offset, trace in enumerate(shard_result):
                    sink(base + offset, trace)

        if (
            not collect
            and sink is not None
            and isinstance(queue.backend, InProcessBackend)
        ):
            # In-process streaming: hand the sink through to the engine
            # so traces flow out one trial at a time and not even one
            # shard's trace list is ever materialised.  (Process fan-out
            # keeps the per-shard list — the traces have to cross the
            # IPC boundary as a batch anyway.)
            def run_streaming(item) -> None:
                index, shard = item
                base = int(starts[index])
                _execute_batch_shard(
                    shard,
                    result_sink=lambda t, trace: sink(base + t, trace),
                )

            queue.run(
                run_streaming,
                list(enumerate(shards)),
                collect=False,
                task_labels=labels,
            )
            return []
        parts = queue.run(
            _execute_batch_shard_traced if traced else _execute_batch_shard,
            shards,
            on_result=on_shard,
            collect=collect,
            task_labels=labels,
        )
        if traced:
            return [result for part in parts for result in part[0]]
        return [result for part in parts for result in part]


def build_repetition_plan(
    graph: GraphSpec,
    protocol: ProtocolSpec,
    *,
    repetitions: int,
    seed: int = 0,
    processes: Optional[int] = None,
    batch_mode: Optional[str] = None,
    kernel: Optional[str] = None,
    store=None,
    queue: Optional[JobQueue] = None,
    shards: Optional[int] = None,
    **job_options,
) -> ExecutionPlan:
    """The :class:`ExecutionPlan` behind :func:`repeat_job`, unexecuted.

    This is the single place per-trial seeds are spawned for a repetition
    sweep — :func:`repeat_job` and the scenario compiler
    (:mod:`repro.scenarios`) both build their plans here, so a scenario
    cell's trials are bit-identical (exact mode) to a direct ``repeat_job``
    call with the same parameters, whichever path executes them.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if batch_mode is None:
        batch_mode = _EXECUTION_DEFAULTS.batch_mode
    if kernel is None:
        kernel = _EXECUTION_DEFAULTS.kernel
    if "environment" not in job_options:
        if _EXECUTION_DEFAULTS.environment is not None:
            job_options["environment"] = _EXECUTION_DEFAULTS.environment
    else:
        # Normalise to canonical form here so all spellings of the same
        # environment share one store digest.
        job_options["environment"] = validate_environment_spec(
            job_options["environment"]
        )
    base = np.random.SeedSequence(seed)
    # The extra child seeds the fast-mode batch generator; the first
    # ``repetitions`` children are the per-trial job seeds.
    children = base.spawn(repetitions + 1)
    seeds = [int(s.generate_state(1)[0]) for s in children[:repetitions]]
    jobs = tuple(
        Job(graph=graph, protocol=protocol, seed=s, **job_options) for s in seeds
    )
    return ExecutionPlan(
        jobs=jobs,
        processes=processes,
        batch_mode=batch_mode,
        fast_seed=children[-1],
        kernel=kernel,
        store=_resolve_store(store),
        queue=queue,
        shard_count=shards,
    )


def repeat_job(
    graph: GraphSpec,
    protocol: ProtocolSpec,
    *,
    repetitions: int,
    seed: int = 0,
    processes: Optional[int] = None,
    batch_mode: Optional[str] = None,
    kernel: Optional[str] = None,
    store=None,
    queue: Optional[JobQueue] = None,
    shards: Optional[int] = None,
    **job_options,
) -> List[RunResultTrace]:
    """Run the same (graph, protocol) pair under ``repetitions`` different seeds.

    Builds an :class:`ExecutionPlan` and executes it: all repetitions run
    through the :class:`~repro.radio.batch.BatchEngine` on stacked
    ``(R, n)`` state (one topology sample per trial), sharded across
    ``processes`` workers when fan-out is requested.  Per-trial seeds are
    spawned identically on every path, so the sampled topologies are
    identical and aggregates are statistically interchangeable across every
    execution strategy.

    ``batch_mode`` / ``kernel`` default to the process-wide settings of
    :func:`configure_execution` (out of the box: ``"fast"`` and the
    ``"auto"`` collision kernel).

    * ``batch_mode="fast"``: one shared generator per shard with vectorised
      draws — statistically identical to exact mode, not bit-identical.
    * ``batch_mode="exact"``: one child generator per trial, consumed exactly
      as the serial reference engine would — results are bit-identical to
      it for the same seed (the equivalence tests rely on this), regardless
      of sharding.

    ``store`` selects the content-addressed result store (``None``: the
    process-wide default installed by :func:`configure_execution`,
    ``False``: disabled, or an explicit :class:`~repro.store.ResultStore` /
    cache-dir path).  With a store attached the sweep is *incremental*:
    trials already recorded — from an earlier run, an interrupted run, or a
    smaller ``repetitions`` at the same seed (seed spawning is
    prefix-stable) — are served from the store and only the missing ones
    execute.  ``queue`` / ``shards`` override the dispatch queue and the
    shard granularity (see :class:`ExecutionPlan`).
    """
    plan = build_repetition_plan(
        graph,
        protocol,
        repetitions=repetitions,
        seed=seed,
        processes=processes,
        batch_mode=batch_mode,
        kernel=kernel,
        store=store,
        queue=queue,
        shards=shards,
        **job_options,
    )
    return plan.execute()


def aggregate_runs(runs: Sequence[RunResultTrace]) -> Dict[str, object]:
    """Aggregate repeated runs into the quantities the theorems bound.

    Returns a dict with success rate, completion-round statistics
    (successful runs only), and energy statistics (all runs).

    This is the *materialising* reduction: it needs every trace in memory at
    once.  The experiment suite itself now streams per-trial metrics through
    :class:`repro.analysis.streaming.MetricAccumulator` as shards complete
    (see :mod:`repro.scenarios`), which keeps 10⁵⁺-trial sweeps memory-flat;
    this helper remains for callers that already hold a list of traces.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("cannot aggregate zero runs")
    successes = [r for r in runs if r.completed]
    out: Dict[str, object] = {
        "runs": len(runs),
        "successes": len(successes),
        "success_rate": len(successes) / len(runs),
        "n": runs[0].n,
    }
    if successes:
        out["completion_rounds"] = summarize([r.completion_round for r in successes])
    out["total_transmissions"] = summarize(
        [r.energy.total_transmissions for r in runs]
    )
    out["max_tx_per_node"] = summarize([r.energy.max_per_node for r in runs])
    out["mean_tx_per_node"] = summarize([r.energy.mean_per_node for r in runs])
    return out
