"""Run a set of experiments and assemble a single Markdown report.

``repro report`` (and :func:`generate_report`) is the one-command way to
regenerate the measured side of EXPERIMENTS.md: it runs the requested
experiments, writes each result as JSON (so the raw numbers are archived) and
produces a Markdown document with every table, the notes, and the run
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.experiments.common import execution_provenance
from repro.experiments.registry import all_experiments, run_experiment
from repro.experiments.results import ExperimentResult

__all__ = [
    "ReportPaths",
    "generate_report",
    "result_to_markdown",
    "accumulators_report",
]


@dataclass(frozen=True)
class ReportPaths:
    """Where :func:`generate_report` wrote its outputs."""

    report: Path
    json_files: List[Path]


def result_to_markdown(result: ExperimentResult) -> str:
    """Render one experiment result as a Markdown section."""
    lines: List[str] = []
    lines.append(f"## {result.experiment_id} — {result.title}")
    lines.append("")
    lines.append(f"**Claim.** {result.claim}")
    lines.append("")
    # Markdown table.
    header = "| " + " | ".join(str(c) for c in result.columns) + " |"
    separator = "|" + "|".join("---" for _ in result.columns) + "|"
    lines.append(header)
    lines.append(separator)
    for row in result.rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("-")
            elif isinstance(cell, bool):
                cells.append("yes" if cell else "no")
            elif isinstance(cell, float):
                cells.append(f"{cell:.4g}")
            else:
                cells.append(str(cell))
        lines.append("| " + " | ".join(cells) + " |")
    if result.notes:
        lines.append("")
        for note in result.notes:
            lines.append(f"* {note}")
    if result.parameters:
        lines.append("")
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(result.parameters.items()))
        lines.append(f"_Parameters: {rendered}_")
    lines.append("")
    return "\n".join(lines)


def accumulators_report(store) -> str:
    """Render every streaming-aggregation checkpoint persisted in ``store``.

    This is the ``repro report --accumulators`` view: the running reduction
    of each sweep cell (trials consumed so far, per-metric statistics) read
    straight from the checkpointed accumulator state — no traces are loaded
    and nothing is re-run, so it works mid-sweep and after interrupts.
    """
    from repro.analysis.streaming import AccumulatorSet
    from repro.analysis.tables import format_table
    from repro.scenarios.runtime import METRIC_SUMMARY_COLUMNS, metric_summary_rows
    from repro.scenarios.spec import SweepCell

    entries = store.aggregates.entries()
    if not entries:
        return f"no aggregation checkpoints in {store.root}"
    columns = ["cell", "trials", "of"] + METRIC_SUMMARY_COLUMNS
    rows = []
    for entry in entries:
        cell = SweepCell.from_dict(entry.get("cell", {}))
        accumulators = AccumulatorSet.from_state(entry.get("accumulators", {}))
        rows.extend(
            metric_summary_rows(
                [cell.label(), accumulators.trials, entry.get("trials_total")],
                accumulators,
                sort=True,
            )
        )
    header = (
        f"{len(entries)} aggregation checkpoint(s) in {store.root} "
        "(streamed state; no traces were read)"
    )
    return header + "\n\n" + format_table(columns, rows)


def generate_report(
    output_dir,
    *,
    experiment_ids: Optional[Sequence[str]] = None,
    scale: str = "quick",
    seed: int = 0,
    processes: Optional[int] = None,
    title: str = "Measured results",
) -> ReportPaths:
    """Run experiments and write ``report.md`` plus per-experiment JSON files.

    Parameters
    ----------
    output_dir:
        Directory to write into (created if missing).
    experiment_ids:
        Which experiments to include; defaults to all of them.
    scale, seed, processes:
        Forwarded to each experiment's ``run``.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if experiment_ids is None:
        experiment_ids = [m.EXPERIMENT_ID for m in all_experiments()]

    provenance = execution_provenance()
    store_note = (
        f", result store `{provenance['result_store']}`"
        if provenance["result_store"]
        else ", no result store"
    )
    sections: List[str] = [
        f"# {title}",
        "",
        f"Scale: `{scale}`, seed: `{seed}`.  Regenerate with "
        f"`repro report --scale {scale} --seed {seed}`.",
        "",
        f"Engine `{provenance['engine_version']}`, batch mode "
        f"`{provenance['batch_mode']}`{store_note}.",
        "",
    ]
    json_files: List[Path] = []
    for experiment_id in experiment_ids:
        result = run_experiment(
            experiment_id, scale=scale, seed=seed, processes=processes
        )
        json_path = output_dir / f"{result.experiment_id}.json"
        result.save(json_path)
        json_files.append(json_path)
        sections.append(result_to_markdown(result))

    report_path = output_dir / "report.md"
    report_path.write_text("\n".join(sections))
    return ReportPaths(report=report_path, json_files=json_files)
