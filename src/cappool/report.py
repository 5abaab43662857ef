"""Report generation: plot-ready tables summarizing a completed replay.

Reports are pure functions of the persisted artifacts plus the truth table;
regenerating them never changes run outputs. Aggregates are offered both
per week-ahead target and pooled over all targets, keyed consistently.
Every report and diagnostic table is written by ``write_table``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .diagnostics import cluster_trajectory, peak_week
from .ensembles import EnsembleRun
from .epiweek import Epiweek, season_of
from .panel import TruthTable, panel_dir, parse_truth_csv, truth_path
from .replay import load_run_artifacts, recorded_config
from .scoring import (
    BRIER_THRESHOLDS,
    ScoreRecord,
    brier_matrix,
    pit_calibration_auc,
    sorted_quantiles,
)

__all__ = ["ReportBundle", "emit_report", "trajectory_table", "write_report", "write_table"]

_GROUP_ALL = "all"

_PIT_GRID = [round(0.01 * k, 2) for k in range(101)]


@dataclass(frozen=True)
class ReportBundle:
    """All report tables, as header + row lists ready for CSV emission."""

    scores: list[list]
    logscore_quantiles: list[list]
    pit_cdf: list[list]
    brier_by_threshold: list[list]
    logscore_by_offset: list[list]
    trajectory: list[list]
    summary: list[list]

    def tables(self) -> dict[str, list[list]]:
        """Each table by its field name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _groups(targets) -> list:
    return sorted(targets) + [_GROUP_ALL]


def _in_group(record, group) -> bool:
    return group == _GROUP_ALL or record.target == group


def trajectory_table(runs: list[EnsembleRun], truth: TruthTable, variants) -> list[list]:
    """The ``trajectory`` table, header first: mean cluster count and
    entropy by weeks from peak for each of ``variants`` with cap runs."""
    rows = [["variant", "weeks_from_peak", "mean_clusters", "mean_entropy", "n"]]
    for variant in variants:
        for point in cluster_trajectory([r for r in runs if r.variant == variant], truth):
            rows.append(
                [
                    variant,
                    point.weeks_from_peak,
                    repr(point.mean_clusters),
                    repr(point.mean_entropy),
                    point.n,
                ]
            )
    return rows


def emit_report(
    runs: list[EnsembleRun],
    scores: list[ScoreRecord],
    truth: TruthTable,
    strict_brier: bool = False,
) -> ReportBundle:
    if not scores:
        raise ValueError("no scored weeks: nothing to report")
    variants = sorted({s.variant for s in scores})
    targets = sorted({s.target for s in scores})
    runs_by_key = {(r.variant, r.region, r.target, r.issue_week): r for r in runs}

    score_rows = [
        [
            "variant",
            "season",
            "region",
            "target",
            "issue_week",
            "target_week",
            "log_score",
            "pit",
            "brier_integral",
        ]
    ]
    for s in sorted(
        scores, key=lambda s: (s.variant, s.issue_week, s.region, s.target)
    ):
        season = season_of(Epiweek.from_int(s.issue_week))
        score_rows.append(
            [
                s.variant,
                season,
                s.region,
                s.target,
                s.issue_week,
                s.target_week,
                repr(s.log_score),
                repr(s.pit),
                repr(s.brier_integral),
            ]
        )

    quantile_rows = [["variant", "target", "q10", "q25", "q50", "q75", "q90", "n"]]
    pit_rows = [["variant", "target", "x", "cdf"]]
    brier_rows = [["variant", "target", "threshold", "mean_brier"]]
    offset_rows = [["variant", "target", "weeks_from_peak", "mean_log_score", "n"]]
    summary_rows = [
        [
            "variant",
            "target",
            "mean_log_score",
            "mean_brier_integral",
            "pit_auc_pooled",
            "pit_auc_mean_stratum",
            "n",
        ]
    ]

    peaks: dict[tuple[str, int], Epiweek | None] = {}
    for variant in variants:
        variant_scores = [s for s in scores if s.variant == variant]
        # One Brier row per scored record with a pooled pmf and a realized
        # truth, in score order; each group sums its own rows.
        brier_targets, pmfs, truth_values = [], [], []
        for s in variant_scores:
            run = runs_by_key.get((variant, s.region, s.target, s.issue_week))
            if run is None or run.pmf is None:
                continue
            truth_value = truth.wili(s.region, Epiweek.from_int(s.target_week))
            if truth_value is None:
                continue
            brier_targets.append(s.target)
            pmfs.append(run.pmf)
            truth_values.append(truth_value)
        brier = brier_matrix(pmfs, truth_values, strict_orientation=strict_brier)
        brier_targets = np.array(brier_targets)
        for group in _groups(targets):
            subset = [s for s in variant_scores if _in_group(s, group)]
            if not subset:
                continue
            logs = np.array([s.log_score for s in subset])
            pits = [s.pit for s in subset]
            briers = np.array([s.brier_integral for s in subset])
            qs = sorted_quantiles(np.sort(logs), [0.10, 0.25, 0.50, 0.75, 0.90])
            quantile_rows.append(
                [variant, group] + [repr(float(q)) for q in qs] + [len(subset)]
            )
            # Empirical CDF of PIT values on a fixed grid.
            at_or_below = np.searchsorted(np.sort(pits), _PIT_GRID, side="right")
            for x, count in zip(_PIT_GRID, at_or_below):
                pit_rows.append([variant, group, x, repr(float(count) / len(pits))])
            # Mean Brier score per cutpoint. Summing rows down axis 0 adds
            # them one after another, as a running total would.
            rows = brier if group == _GROUP_ALL else brier[brier_targets == group]
            if len(rows):
                for x, value in zip(BRIER_THRESHOLDS, rows.sum(axis=0) / len(rows)):
                    brier_rows.append([variant, group, repr(float(x)), repr(float(value))])
            # Log score by weeks from the regional peak of the issue week.
            buckets: dict[int, list[float]] = {}
            for s in subset:
                issue = Epiweek.from_int(s.issue_week)
                season = season_of(issue)
                if season is None:
                    continue
                key = (s.region, season)
                if key not in peaks:
                    peaks[key] = peak_week(truth, s.region, season)
                peak = peaks[key]
                if peak is None:
                    continue
                buckets.setdefault(issue.diff(peak), []).append(s.log_score)
            for offset in sorted(buckets):
                values = buckets[offset]
                offset_rows.append(
                    [variant, group, offset, repr(float(np.mean(values))), len(values)]
                )
            # Scalar summaries: pooled AUC plus the mean of per-stratum AUCs.
            strata: dict[tuple[str, int], list[float]] = {}
            for s in subset:
                strata.setdefault((s.region, s.target), []).append(s.pit)
            stratum_aucs = [pit_calibration_auc(v) for _, v in sorted(strata.items())]
            summary_rows.append(
                [
                    variant,
                    group,
                    repr(float(logs.mean())),
                    repr(float(briers.mean())),
                    repr(pit_calibration_auc(pits)),
                    repr(float(np.mean(stratum_aucs))),
                    len(subset),
                ]
            )

    return ReportBundle(
        scores=score_rows,
        logscore_quantiles=quantile_rows,
        pit_cdf=pit_rows,
        brier_by_threshold=brier_rows,
        logscore_by_offset=offset_rows,
        trajectory=trajectory_table(runs, truth, variants),
        summary=summary_rows,
    )


def write_table(path: Path, rows) -> Path:
    """Write a table, header first, as CSV at ``path``, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def write_report(out_dir) -> Path:
    """Generate all report CSVs for a completed run directory, with Brier
    scores in the orientation its ``run.cfg`` records (standard without one)."""
    out_dir = Path(out_dir)
    config = recorded_config(out_dir)
    runs, scores = load_run_artifacts(out_dir)
    truth = parse_truth_csv(truth_path(panel_dir(out_dir)))
    strict = config is not None and config.brier_mode == "strict"
    report_dir = out_dir / "reports"
    for name, rows in emit_report(runs, scores, truth, strict_brier=strict).tables().items():
        write_table(report_dir / f"{name}.csv", rows)
    return report_dir
