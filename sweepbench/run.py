"""Sweep benchmark: end-to-end throughput and per-layer self time.

Drives the public scenario API (``run_scenario`` on generated
``ScenarioSpec`` grids, in one process, ``processes=None``) on one of the
workloads in ``workloads.py`` and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

    python3 sweepbench/run.py --workload gnp-broadcast --seed 1 --seconds 10 --trace 0

``--trace 0`` times the sweep untraced and reports the end-to-end metrics,
adjusted for host slowdown (see ``calibrate.py``); ``--trace 1`` alternates
untraced and traced passes of the same specs and reports per-layer self
time from the traced ones (see ``layers.py``).  ``meta.json`` records why
each workload exists, which layer should move which metric on which
workload, the held-out seed and the environment the bounds were set on.

Other modes:

    python3 sweepbench/run.py --report [--seed N --seconds S]   # every workload, both tables
    python3 sweepbench/run.py --selftest                        # smoke-size self-test
    python3 sweepbench/run.py --record-reference                # rewrite reference.json

Run from the repository root; the program is imported from ``src/`` next
to this directory, and scratch stores live under ``.sweepbench_work/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
WORK_ROOT = Path(".sweepbench_work")

#: Extra fresh-process set-ups per run; ``setup_s`` is the median of these
#: and the run's own set-up.
SETUP_PROBES = 4
#: Timed passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Seed the reference statistics were recorded under, and the fewest
#: trials recorded for any cell.
REFERENCE_SEED = 1_000_003
REFERENCE_TRIALS = 240


def _import_program():
    """Import the simulator from ``src/``; fail loudly when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"sweepbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from repro.radio.kernels import warm_kernels

    warm_kernels()


def _environment() -> dict:
    import numpy

    from repro.radio.kernels import compiled_available

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "compiled_available": compiled_available(),
    }


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _remove_work_dir(work_dir: Path) -> None:
    """Delete this process's scratch directory, and the shared root once
    no other benchmark process is using it."""
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


# --------------------------------------------------------------------------- #
# One pass: a cold sweep plus its read-backs
# --------------------------------------------------------------------------- #
class Pass:
    """One spec, timed: the cold sweep and, on a store-backed workload, the
    read-back sweeps after it."""

    def __init__(self, workload, spec, work_dir: Path, tracer=None):
        self.workload = workload
        self.spec = spec
        self.work_dir = work_dir
        self.tracer = tracer
        self.repeat_specs = workload.repeat_specs(spec)
        self.cold_trials = spec.grid.total_trials
        self.repeat_trials = sum(s.grid.total_trials for s in self.repeat_specs)
        self.cold_s = 0.0
        self.repeat_s = 0.0
        self.store_bytes = 0
        self.cold = None
        self.repeats = []
        #: Host slowdown against the calibration reference (calibrate.py)
        #: while the cold and the read-back sweeps ran, and at the pass's end.
        self.cold_slowdown = self.repeat_slowdown = self.end_slowdown = 1.0

    def _sweep(self, spec, store):
        from repro.scenarios import run_scenario

        if self.tracer is None:
            start = time.perf_counter()
            results = run_scenario(
                spec, store=store, batch_mode=self.workload.batch_mode
            )
            return results, time.perf_counter() - start
        with self.tracer.installed():
            start = time.perf_counter()
            results = run_scenario(
                spec, store=store, batch_mode=self.workload.batch_mode
            )
            return results, time.perf_counter() - start

    def run(self, calibrator=None, start=1.0) -> "Pass":
        """Run the sweeps; with a ``calibrator``, sample the host slowdown
        after the cold sweep and after the read-backs, if any (``start`` is
        the sample taken just before the pass)."""
        from repro.store import ResultStore

        def sample():
            return calibrator.slowdown() if calibrator is not None else 1.0

        store_dir = self.work_dir / "store"

        def store():
            # A fresh store object per sweep, as a resuming process would open.
            return ResultStore(store_dir) if self.workload.store else False

        try:
            self.cold, self.cold_s = self._sweep(self.spec, store())
            middle = self.end_slowdown = sample()
            if self.workload.store:
                for spec in self.repeat_specs:
                    results, seconds = self._sweep(spec, store())
                    self.repeats.append(results)
                    self.repeat_s += seconds
                self.end_slowdown = sample()
                self.store_bytes = _dir_bytes(store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        self.cold_slowdown = (start + middle) / 2
        self.repeat_slowdown = (middle + self.end_slowdown) / 2
        return self

    def check(self, checker, *, shadow_of=None) -> None:
        """Check the cold sweep (against ``shadow_of``'s cold sweep when this
        is its traced shadow) and every read-back against the cold sweep."""
        names = self.spec.metrics
        if shadow_of is None:
            checker.cold(self.cold)
        else:
            checker.repeat(shadow_of.cold, self.cold, names, served=False)
        for results in self.repeats:
            checker.repeat(self.cold, results, names, served=True)


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def _setup_probe_values(args) -> list:
    """Adjusted set-up seconds of ``SETUP_PROBES`` fresh benchmark processes."""
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def _run_pass(one, checker, *, shadow_of=None, calibrator=None, start=1.0):
    """Run and check one pass; a pass that raises counts all its trials as
    failed and the run goes on."""
    try:
        one.run(calibrator, start)
    except Exception as error:
        checker.raised(one.cold_trials + one.repeat_trials, error)
        return None
    one.check(checker, shadow_of=shadow_of)
    return one


def measure(workload_name, seed, seconds, trace, *, scale="bench",
            reference=None, checker=None, setup_values=(), work_dir=None,
            calibrator=None):
    """Run the timed passes of one workload; returns ``(metrics, checker)``
    where ``metrics`` maps name -> ``(value, unit)``.

    With a ``calibrator`` (untraced runs) every sweep is bracketed by
    host-slowdown samples and its rate is adjusted by their mean."""
    from checks import OutputChecker
    from layers import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if checker is None:
        checker = OutputChecker(workload_name, reference)
    work_dir = work_dir or WORK_ROOT / str(os.getpid())
    tracer = LayerTracer() if trace else None
    slowdown = calibrator.slowdown() if calibrator else 1.0
    passes, pairs = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_PASSES or time.perf_counter() < deadline:
        spec = workload.build(seed, index, scale)
        index += 1
        plain = _run_pass(
            Pass(workload, spec, work_dir), checker,
            calibrator=calibrator, start=slowdown,
        )
        if plain is None:
            if calibrator is not None:
                slowdown = calibrator.slowdown()
            continue
        slowdown = plain.end_slowdown
        passes.append(plain)
        if tracer is not None:
            shadow = _run_pass(
                Pass(workload, spec, work_dir, tracer), checker, shadow_of=plain
            )
            if shadow is not None:
                pairs.append((plain, shadow))
    checker.finish()

    metrics = {}
    if tracer is None:
        if not passes:
            raise RuntimeError("every timed pass raised")
        # Rates are rescaled by the host slowdown during their pass (see
        # calibrate.py), then the median is taken over the run's passes.
        cold = statistics.median(
            p.cold_trials / p.cold_s * p.cold_slowdown for p in passes
        )
        raw_cold = statistics.median(p.cold_trials / p.cold_s for p in passes)
        if workload.store:
            resumed = statistics.median(
                p.repeat_trials / p.repeat_s * p.repeat_slowdown for p in passes
            )
            raw_resumed = statistics.median(
                p.repeat_trials / p.repeat_s for p in passes
            )
        else:
            # A store-off sweep has nothing to resume from: resuming it is
            # running it again, at the cold rate.
            resumed, raw_resumed = cold, raw_cold
        metrics["trials_per_s"] = (cold, "trials/s")
        metrics["resumed_trials_per_s"] = (resumed, "trials/s")
        metrics["setup_s"] = (statistics.median(setup_values), "s")
        checker.notes.append(
            f"{len(passes)} passes; unadjusted medians: trials_per_s="
            f"{raw_cold:.6g} resumed_trials_per_s={raw_resumed:.6g}"
            f"; host slowdown {statistics.median(p.cold_slowdown for p in passes):.4g}"
        )
        if setup_values:
            checker.notes.append(
                "set-up samples (own, then fresh processes): "
                + " ".join(f"{v:.6g}" for v in setup_values)
            )
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MiB")
        return metrics, checker
    if not pairs:
        raise RuntimeError("every traced pass raised")
    traced_wall = sum(s.cold_s + s.repeat_s for _, s in pairs)
    plain_wall = sum(p.cold_s + p.repeat_s for p, _ in pairs)
    metrics.update(tracer.metrics(traced_wall))
    metrics["store.bytes"] = (sum(s.store_bytes for _, s in pairs), "bytes")
    metrics["trace_overhead"] = (traced_wall / plain_wall, "ratio")
    metrics["failed_share"] = (checker.failed_share, "ratio")
    return metrics, checker


def _print_table(metrics) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>14}  {unit}")


def _result_line(metrics, checker) -> str:
    return json.dumps(
        {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def run_benchmark(args) -> int:
    from calibrate import Calibrator
    from checks import load_reference
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work_dir = WORK_ROOT / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    calibrator = None
    try:
        workload.build(args.seed, 0)
        own_setup = time.perf_counter() - _T0
        setup_values = []
        # Traced runs report ratios of adjacent passes and need no
        # calibration.  The helper starts only after the set-up is timed,
        # so it runs beside none of the set-up samples.
        if not args.trace:
            calibrator = Calibrator()
            setup_values = [own_setup / calibrator.slowdown()]
            setup_values += _setup_probe_values(args)
        metrics, checker = measure(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            reference=load_reference(),
            setup_values=setup_values,
            work_dir=work_dir,
            calibrator=calibrator,
        )
    finally:
        if calibrator is not None:
            calibrator.close()
        _remove_work_dir(work_dir)
    env = _environment()
    print(
        f"sweepbench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    _print_table(metrics)
    for note in checker.notes:
        print(f"  {note}")
    print(f"  failed {checker.failed} of {checker.attempted} trials attempted")
    for problem in checker.problems:
        print(f"  check failed: {problem}")
    print(_result_line(metrics, checker))
    return 0


def setup_probe(args) -> int:
    from calibrate import slowdown_here
    from workloads import WORKLOADS

    work_dir = WORK_ROOT / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload].build(args.seed, 0)
        elapsed = time.perf_counter() - _T0
    finally:
        _remove_work_dir(work_dir)
    print(json.dumps({"setup_s": elapsed / slowdown_here()}))
    return 0


# --------------------------------------------------------------------------- #
# Report, self-test, reference recording
# --------------------------------------------------------------------------- #
def report(args) -> int:
    """Every workload, untraced then traced, in fresh processes."""
    from workloads import WORKLOADS

    print(
        "environment: "
        + " ".join(f"{k}={v}" for k, v in _environment().items())
    )
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ],
                capture_output=True,
                text=True,
                timeout=600,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(
                f"\n{name} — {kind}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            _print_table(
                {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
            )
    return status


def selftest(args) -> int:
    """Smoke-size self-test of the benchmark itself."""
    from checks import OutputChecker
    from workloads import WORKLOADS

    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    failures = []
    work_dir = WORK_ROOT / f"selftest-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                metrics, checker = measure(
                    name, 0, 0.0, trace, scale="smoke",
                    setup_values=[0.0], work_dir=work_dir,
                )
                for entry in declared[section]:
                    got = metrics.get(entry["name"])
                    if got is None or got[1] != entry["unit"]:
                        failures.append(f"{name}: {entry['name']} missing or unit {got}")
                extra = set(metrics) - {e["name"] for e in declared[section]}
                if extra:
                    failures.append(f"{name}: undeclared metrics {sorted(extra)}")
                if checker.failed:
                    failures.append(f"{name}: output check failed {checker.problems}")
                if trace:
                    shares = [v for k, (v, _) in metrics.items() if k.endswith(".share")]
                    if any(not 0.0 <= s <= 1.0 for s in shares):
                        failures.append(f"{name}: a layer share lies outside [0, 1]")
                    if sum(shares) > 1.0 + 1e-6:
                        failures.append(f"{name}: layer shares sum to {sum(shares)}")
        broken = OutputChecker("gnp-broadcast", None, tx_limit=0)
        metrics, _ = measure(
            "gnp-broadcast", 0, 0.0, 1, scale="smoke", checker=broken,
            work_dir=work_dir,
        )
        if not metrics["failed_share"][0] > 0.0:
            failures.append("a broken Theorem 2.1 check left failed_share at 0")
    finally:
        _remove_work_dir(work_dir)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def record_reference(args) -> int:
    """Rewrite ``reference.json`` from cold passes under
    :data:`REFERENCE_SEED`, enough for :data:`REFERENCE_TRIALS` trials in
    every cell."""
    from checks import REFERENCE_PATH
    from repro.analysis.streaming import MetricAccumulator
    from repro.scenarios import run_scenario
    from workloads import WORKLOADS

    reference = {}
    for name, workload in WORKLOADS.items():
        pools = {}
        first = workload.build(REFERENCE_SEED, 0)
        fewest = min(cell.repetitions for cell in first.grid)
        for index in range(-(-REFERENCE_TRIALS // fewest)):
            spec = workload.build(REFERENCE_SEED, index)
            for result in run_scenario(
                spec, store=False, batch_mode=workload.batch_mode
            ):
                pool = pools.setdefault(
                    result.cell.label(),
                    {m: MetricAccumulator() for m in ("success", "completion_round")},
                )
                for metric, accumulator in pool.items():
                    accumulator.merge(result.accumulators.metrics[metric])
        reference[name] = {}
        for label, pool in pools.items():
            rounds = pool["completion_round"].summary_or_none()
            reference[name][label] = {
                "trials": pool["success"].count,
                "success": pool["success"].mean,
                "completion_round": rounds.mean if rounds else None,
                "completion_round_std": rounds.std if rounds else None,
            }
        print(f"{name}: {len(pools)} cells recorded", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="gnp-broadcast")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.report:
        return report(args)
    if args.selftest:
        return selftest(args)
    if args.record_reference:
        return record_reference(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
