"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of the
simulator (the module-level names the runner calls, and the methods of
every class in the relevant hierarchies) with a timing shim, for the
duration of a ``with tracer.installed():`` block.  Nothing inside ``src/``
is edited: the wrappers are attribute patches, removed again on exit, so
untraced passes run the untouched code.

Self time is inclusive time minus the inclusive time of wrapped calls made
while this one was on the stack.  The stack is what makes two awkward
nestings come out right: topology sampled lazily from inside
``BatchEngine.run_continuous`` (its pending generator runs inside the
engine's frame), and result sinks — trace extraction, aggregation, store
writes — called from inside the engine's round loop.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: The layers, named after the modules whose public calls they wrap (see
#: :meth:`LayerTracer.installed`; meta.json maps each to the end-to-end
#: metric and workload it should move).
LAYERS = (
    "graphs.topology",
    "radio.stack",
    "protocols.build",
    "radio.engine",
    "radio.collision",
    "radio.protocol",
    "radio.environment",
    "scenarios.extract",
    "analysis.aggregate",
    "store.put",
    "store.get",
    "store.checkpoint",
    "jobs.dispatch",
)

#: Extra counts recorded beside the per-layer calls.
COUNTS = ("graphs.edges", "radio.rounds", "radio.trials")

_ENVIRONMENT_HOOKS = (
    "bind",
    "begin_round",
    "gate_transmit_flat",
    "perturb_transmissions",
    "filter_deliveries",
    "doomed_trials",
    "select_rows",
    "trial_report",
)


def _subclasses(root):
    """``root`` and every class deriving from it, each once."""
    seen = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class LayerTracer:
    """Accumulates per-layer self seconds, call counts and extra counts."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    # ------------------------------------------------------------------ #
    def wrap(self, layer, fn, after=None):
        """``fn`` timed as ``layer``; ``after(args, kwargs, result)`` runs
        once the call returns (outside the timed interval's self time)."""
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return timed

    def _wrap_engine(self, fn):
        """Engine runs additionally count the traces they hand out."""
        counts = self.counts
        timed = self.wrap("radio.engine", fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            sink = kwargs.get("result_sink")
            if sink is not None:

                def counting_sink(index, trace):
                    counts["radio.trials"] += 1
                    sink(index, trace)

                kwargs["result_sink"] = counting_sink
            result = timed(*args, **kwargs)
            if sink is None:
                counts["radio.trials"] += len(result)
            return result

        return run

    # ------------------------------------------------------------------ #
    @contextmanager
    def installed(self):
        """Patch every layer's entry points for the duration of the block."""
        from repro.analysis.streaming import AccumulatorSet
        from repro.experiments import runner
        from repro.jobs import JobQueue
        from repro.radio import batch
        from repro.radio.collision import BatchCollisionModel
        from repro.radio.environment import BatchEnvironment
        from repro.scenarios import runtime
        from repro.store import ResultStore
        from repro.store.aggregates import AggregateStore

        counts = self.counts
        patches = []  # (owner, name, original attribute)

        def patch(owner, name, replacement):
            patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)

        def count_edges(args, kwargs, network):
            counts["graphs.edges"] += network.num_edges

        def count_round(args, kwargs, result):
            counts["radio.rounds"] += 1

        def count_scheduled(args, kwargs, result):
            counts["radio.rounds"] += args[1].num_rounds

        patch(runner, "build_network", self.wrap(
            "graphs.topology", runner.build_network, count_edges))
        patch(runner, "build_batch_protocol", self.wrap(
            "protocols.build", runner.build_batch_protocol))
        patch(batch, "resolve_scheduled_rounds", self.wrap(
            "radio.collision", batch.resolve_scheduled_rounds, count_scheduled))
        patch(runtime, "extract_sample", self.wrap(
            "scenarios.extract", runtime.extract_sample))

        network_batch = batch.NetworkBatch
        patch(network_batch, "__init__", self.wrap(
            "radio.stack", network_batch.__init__))
        shared = network_batch.__dict__["shared"].__func__
        patch(network_batch, "shared", classmethod(
            self.wrap("radio.stack", shared)))

        engine = batch.BatchEngine
        patch(engine, "run", self._wrap_engine(engine.run))
        patch(engine, "run_continuous", self._wrap_engine(engine.run_continuous))

        for cls in _subclasses(BatchCollisionModel):
            if "resolve" in cls.__dict__:
                patch(cls, "resolve", self.wrap(
                    "radio.collision", cls.__dict__["resolve"], count_round))
        for cls in _subclasses(batch.BatchProtocol):
            for name in ("transmit_flat", "observe"):
                if name in cls.__dict__:
                    patch(cls, name, self.wrap(
                        "radio.protocol", cls.__dict__[name]))
        for cls in _subclasses(BatchEnvironment):
            for name in _ENVIRONMENT_HOOKS:
                if name in cls.__dict__:
                    patch(cls, name, self.wrap(
                        "radio.environment", cls.__dict__[name]))

        patch(AccumulatorSet, "observe_many", self.wrap(
            "analysis.aggregate", AccumulatorSet.observe_many))
        patch(ResultStore, "put", self.wrap("store.put", ResultStore.put))
        patch(ResultStore, "get", self.wrap("store.get", ResultStore.get))
        patch(AggregateStore, "save", self.wrap(
            "store.checkpoint", AggregateStore.save))
        patch(AggregateStore, "load", self.wrap(
            "store.checkpoint", AggregateStore.load))
        patch(JobQueue, "run", self.wrap("jobs.dispatch", JobQueue.run))
        try:
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    def metrics(self, sweep_wall_s):
        """Per-layer ``self_s`` / ``calls`` / ``share`` plus the extra counts
        and ``unattributed_share``, as ``{name: (value, unit)}``."""
        out = {}
        total_share = 0.0
        for layer in LAYERS:
            seconds = self.self_s.get(layer, 0.0)
            share = seconds / sweep_wall_s if sweep_wall_s > 0 else 0.0
            total_share += share
            out[f"{layer}.self_s"] = (seconds, "s")
            out[f"{layer}.calls"] = (self.calls.get(layer, 0), "count")
            out[f"{layer}.share"] = (share, "ratio")
        for name in COUNTS:
            out[name] = (self.counts.get(name, 0), "count")
        out["unattributed_share"] = (1.0 - total_share, "ratio")
        return out
