"""Experiment harness: one module per theorem/figure reproduced.

Every experiment module exposes

* ``EXPERIMENT_ID`` — e.g. ``"E1"``;
* ``TITLE`` and ``CLAIM`` — what the paper states;
* ``run(scale="quick", seed=0, processes=None) -> ExperimentResult`` — run
  the workload and return the table the paper's claim is checked against.

``scale`` selects the sweep size: ``"quick"`` keeps wall-clock in seconds
(used by the benchmarks and CI), ``"full"`` runs the sweep reported in
EXPERIMENTS.md.

The registry (:mod:`repro.experiments.registry`) maps experiment ids to
modules; the CLI (``python -m repro``) and the benchmark suite both go
through it.
"""

import importlib

#: Public name -> defining submodule.  Resolved on first access (PEP 562), so
#: importing one submodule (``repro.experiments.common``, the runner) does
#: not import the registry, the result containers or the rest.
_EXPORTS = {
    "ExperimentResult": "results",
    "ProtocolSpec": "protocols",
    "build_protocol": "protocols",
    "Job": "runner",
    "execute_job": "runner",
    "run_jobs": "runner",
    "aggregate_runs": "runner",
    "all_experiments": "registry",
    "get_experiment": "registry",
    "run_experiment": "registry",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
