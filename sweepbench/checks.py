"""Output checks: the benchmark counts a trial only once its outputs pass.

Three checks, each failing the trials of the cell it inspects:

* **Theorem 2.1** — every Algorithm 1 trial transmits at most once per node
  (the per-cell maximum of ``max_tx_per_node`` is at most 1).
* **Reference statistics** — per cell, the success rate and the mean
  completion round, pooled over every pass of the run, lie within a stated
  tolerance of the values recorded in ``reference.json``.  The check is
  statistical, so an equivalent change to the random streams still passes.
* **Reproduction** — a traced pass equals its untraced twin bit for bit
  (``--trace 1``), and an ``exact-resume`` read-back equals the cold pass
  bit for bit on every metric the two share.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Tolerances of the reference check: an absolute floor plus this many
#: standard errors of the pooled estimate.
SUCCESS_FLOOR = 0.05
COMPLETION_FLOOR = 0.05  # relative to the reference mean
STANDARD_ERRORS = 5.0

#: Theorem 2.1: transmissions per node of Algorithm 1.
THEOREM_TX_LIMIT = 1


def load_reference() -> Dict[str, Dict[str, dict]]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def summary_bits(accumulators, names) -> Dict[str, Optional[tuple]]:
    """Order-independent reduced statistics of ``names``, for exact
    comparison (moments are exactly rounded, so these are bit-stable under
    any ingest order)."""
    out = {}
    for name in names:
        summary = accumulators.summary_or_none(name)
        out[name] = (
            None
            if summary is None
            else (
                summary.count,
                summary.mean,
                summary.std,
                summary.minimum,
                summary.maximum,
                summary.median,
            )
        )
    return out


class _Pool:
    __slots__ = ("trials", "success_n", "success_sum", "round_n", "round_sum")

    def __init__(self) -> None:
        self.trials = 0
        self.success_n = 0
        self.success_sum = 0.0
        self.round_n = 0
        self.round_sum = 0.0


class OutputChecker:
    """Collects the checked outcome of every pass of one benchmark run.

    ``reference=None`` disables the reference check (smoke-size runs have
    no recorded reference); ``tx_limit`` exists so the self-test can break
    the Theorem 2.1 check on purpose and see ``failed`` rise.
    """

    def __init__(self, workload: str, reference=None, *, tx_limit=THEOREM_TX_LIMIT):
        self.workload = workload
        self.reference = reference
        self.tx_limit = tx_limit
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Free-form lines the benchmark prints beside the result.
        self.notes: List[str] = []
        self._pools: Dict[str, _Pool] = {}

    def _fail(self, trials: int, message: str) -> None:
        self.failed += trials
        if len(self.problems) < 20:
            self.problems.append(message)

    # ------------------------------------------------------------------ #
    def raised(self, trials: int, error: BaseException) -> None:
        """A pass of ``trials`` trials raised instead of completing."""
        self.attempted += trials
        self._fail(trials, f"raised {type(error).__name__}: {error}")

    def cold(self, results) -> None:
        """Check a cold pass cell by cell and pool it for the reference."""
        for result in results:
            label = result.cell.label()
            trials = result.trials
            self.attempted += trials
            if trials != result.cell.repetitions:
                self._fail(trials, f"{label}: {trials} of {result.cell.repetitions} trials")
                continue
            if result.cell.protocol.name == "algorithm1":
                worst = result.maximum("max_tx_per_node")
                if worst is None or worst > self.tx_limit:
                    self._fail(trials, f"{label}: max tx/node {worst} > {self.tx_limit}")
                    continue
            pool = self._pools.setdefault(label, _Pool())
            pool.trials += trials
            success = result.accumulators.metrics["success"]
            pool.success_n += success.count
            pool.success_sum += success.total
            rounds = result.accumulators.metrics["completion_round"]
            pool.round_n += rounds.count
            pool.round_sum += rounds.total

    def repeat(self, first, second, names, *, served: bool) -> None:
        """Check a traced twin / read-back pass against its cold pass.

        ``served`` demands that every trial came from the result store.
        """
        for a, b in zip(first, second, strict=True):
            label = b.cell.label()
            self.attempted += b.trials
            if served and b.counts.get("served") != b.counts.get("total"):
                self._fail(b.trials, f"{label}: read-back served {b.counts}")
            elif summary_bits(a.accumulators, names) != summary_bits(
                b.accumulators, names
            ):
                self._fail(b.trials, f"{label}: repeated pass differs from cold pass")

    def finish(self) -> None:
        """Run the pooled reference check (once, after the last pass)."""
        if self.reference is None:
            return
        expected = self.reference.get(self.workload, {})
        for label, pool in self._pools.items():
            ref = expected.get(label)
            if ref is None:
                self._fail(pool.trials, f"{label}: no reference recorded")
                continue
            rate = pool.success_sum / pool.success_n
            p = ref["success"]
            # A reference rate of exactly 0 or 1 still has an unseen failure
            # (success) rate of up to ~3/N (rule of three), so the variance
            # is floored there rather than at zero.
            edge = 3.0 / ref["trials"]
            q = min(max(p, edge), 1.0 - edge)
            tol = SUCCESS_FLOOR + STANDARD_ERRORS * math.sqrt(q * (1 - q) / pool.success_n)
            if abs(rate - p) > tol:
                self._fail(pool.trials, f"{label}: success {rate:.3f} vs {p:.3f} ± {tol:.3f}")
                continue
            if ref["completion_round"] is None or pool.round_n == 0:
                # No completed trial on one side (a cell that almost always
                # fails): the success-rate check above already covers it.
                continue
            mean = pool.round_sum / pool.round_n
            m = ref["completion_round"]
            tol = COMPLETION_FLOOR * m + STANDARD_ERRORS * ref[
                "completion_round_std"
            ] / math.sqrt(pool.round_n)
            if abs(mean - m) > tol:
                self._fail(pool.trials, f"{label}: completion {mean:.2f} vs {m:.2f} ± {tol:.2f}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
