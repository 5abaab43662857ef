"""Output checks for one repetition's run directory.

Each ``check_*`` returns a list of problems; an empty list means the phase's
output passed. They read the files the phases wrote, not in-memory results,
so a planted fault in a copied run directory shows up exactly as a real one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from cappool.epiweek import season_weeks
from cappool.pmf import N_BINS, bin_index

PMF_TOLERANCE = 1e-9
SIMPLEX_TOLERANCE = 1e-9
RECOMPUTE_TOLERANCE = 1e-9
REFERENCE_TOLERANCE = 1e-6
LOG_SCORE_FLOOR = -10.0
REPORT_TABLES = (
    "scores",
    "logscore_quantiles",
    "pit_cdf",
    "brier_by_threshold",
    "logscore_by_offset",
    "trajectory",
    "summary",
)


def tree_digest(root) -> dict:
    """sha256 over every file's relative path and bytes, in sorted order."""
    root = Path(root)
    digest = hashlib.sha256()
    total = files = 0
    if root.exists():
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(len(data).to_bytes(8, "little") + data)
            total += len(data)
            files += 1
    return {"sha256": digest.hexdigest(), "bytes": total, "files": files}


def _data_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for row in csv.reader(fh) if row) - 1


def check_ingest(out_dir, workload, archive: dict) -> list[str]:
    """The panel holds one CSV and sidecar per season and every archive row."""
    panel = Path(out_dir) / "panel"
    problems = []
    rows = 0
    for season in workload.seasons:
        csv_path = panel / f"season-{season}.csv"
        sidecar = panel / f"season-{season}.json"
        if not csv_path.exists() or not sidecar.exists():
            problems.append(f"panel season {season} missing")
            continue
        rows += _data_rows(csv_path)
        try:
            json.loads(sidecar.read_text())
        except ValueError as exc:
            problems.append(f"{sidecar.name}: {exc}")
    if rows != archive["forecast_rows"]:
        problems.append(f"panel holds {rows} forecast rows, archive has {archive['forecast_rows']}")
    truth = panel / "truth.csv"
    if not truth.exists():
        problems.append("panel truth.csv missing")
    elif _data_rows(truth) != archive["truth_rows"]:
        problems.append("panel truth.csv row count differs from the archive")
    return problems


def _read_truth(out_dir) -> dict[tuple[str, int], float]:
    with open(Path(out_dir) / "panel" / "truth.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {(r[0], int(r[1])): float(r[2]) for r in reader if r}


def _read_pmfs(path: Path) -> dict[tuple[str, int], list[float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {(r[0], int(r[1])): [float(v) for v in r[2:]] for r in reader if r}


def check_replay(out_dir, workload) -> tuple[list[str], dict[str, float]]:
    """Every expected run exists with a valid pmf, simplex weights and
    in-range scores. Also returns each variant's mean log score, recomputed
    from the stored pmfs and the panel's truth table."""
    out_dir = Path(out_dir)
    problems: list[str] = []
    truth = _read_truth(out_dir)
    strata = sorted((r, t) for r in workload.regions for t in workload.targets)
    horizon = max(workload.targets)
    means: dict[str, float] = {}
    for variant in workload.variants:
        recomputed: list[float] = []
        for season in workload.seasons:
            base = out_dir / "runs" / variant / str(season)
            weeks = season_weeks(season)
            # Post-season weeks hold no runs, only the scores of the last runs.
            weeks += [weeks[-1].add_weeks(k) for k in range(1, horizon + 1)]
            pmfs: dict[int, dict] = {}
            scores: list[dict] = []
            for t, week in enumerate(weeks, start=1):
                where = f"{variant}/{season}/week-{week}"
                try:
                    payload = json.loads((base / f"week-{week}.json").read_text())
                    week_pmfs = _read_pmfs(base / f"week-{week}.csv")
                    runs, week_scores = payload["runs"], payload["scores"]
                except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
                    problems.append(f"{where}: unreadable ({type(exc).__name__}: {exc})")
                    continue
                pmfs[week.to_int()] = week_pmfs
                expected = strata if t <= len(weeks) - horizon else []
                found = sorted((r["region"], r["target"]) for r in runs)
                if found != expected:
                    problems.append(f"{where}: runs for {found}, expected {expected}")
                for run in runs:
                    key = (run["region"], run["target"])
                    problems += _check_run(f"{where} {key}", run, week_pmfs.get(key))
                for score in week_scores:
                    problems += _check_score(f"{where} score", score)
                scores += week_scores
            for score in scores:
                pmf = pmfs.get(score["issue_week"], {}).get((score["region"], score["target"]))
                value = truth.get((score["region"], score["target_week"]))
                if pmf is None or value is None or len(pmf) != N_BINS:
                    problems.append(f"{variant}/{season}: score without pmf or truth {score}")
                    continue
                p = pmf[bin_index(value)]
                recomputed.append(max(math.log(p), LOG_SCORE_FLOOR) if p > 0.0 else LOG_SCORE_FLOOR)
                if abs(recomputed[-1] - score["log_score"]) > RECOMPUTE_TOLERANCE:
                    problems.append(f"{variant}/{season}: stored log score differs from recomputed")
        if recomputed:
            means[variant] = math.fsum(recomputed) / len(recomputed)
        else:
            problems.append(f"{variant}: no scored runs")
    return problems, means


def _check_run(where: str, run: dict, pmf) -> list[str]:
    problems = []
    if run["has_pmf"]:
        if pmf is None:
            return [f"{where}: pmf row missing"]
        if len(pmf) != N_BINS or any(not (v >= 0.0) for v in pmf):
            problems.append(f"{where}: pmf has {len(pmf)} bins or a negative entry")
        elif abs(math.fsum(pmf) - 1.0) > PMF_TOLERANCE:
            problems.append(f"{where}: pmf sums to {math.fsum(pmf)!r}")
        weights = list(run["weights"].values())
        if not weights or any(not (w >= 0.0) for w in weights):
            problems.append(f"{where}: weights empty or negative")
        elif abs(math.fsum(weights) - 1.0) > SIMPLEX_TOLERANCE:
            problems.append(f"{where}: weights sum to {math.fsum(weights)!r}")
    elif pmf is not None or run["weights"]:
        problems.append(f"{where}: pmf or weights stored for a run without an ensemble")
    return problems


def _check_score(where: str, score: dict) -> list[str]:
    problems = []
    if not LOG_SCORE_FLOOR <= score["log_score"] <= 0.0:
        problems.append(f"{where}: log score {score['log_score']} outside [-10, 0]")
    if not -SIMPLEX_TOLERANCE <= score["pit"] <= 1.0 + SIMPLEX_TOLERANCE:
        problems.append(f"{where}: PIT {score['pit']} outside [0, 1]")
    brier = score["brier_integral"]
    if not (math.isfinite(brier) and brier >= 0.0):
        problems.append(f"{where}: Brier integral {brier} not finite and >= 0")
    return problems


def check_rerun(before: dict, after: dict) -> list[str]:
    if before != after:
        return [f"rerun changed the run directory: {before} -> {after}"]
    return []


def summary_means(out_dir) -> dict[str, float]:
    """Each variant's mean log score over all targets, from reports/summary.csv."""
    with open(Path(out_dir) / "reports" / "summary.csv", newline="") as fh:
        return {
            row["variant"]: float(row["mean_log_score"])
            for row in csv.DictReader(fh)
            if row["target"] == "all"
        }


def check_report(out_dir, workload, recomputed: dict[str, float], reference: dict | None) -> list[str]:
    """All tables exist (the trajectory has rows only for cap variants); each
    variant's pooled mean log score matches the recomputation and, when a
    reference is given, the reference. ``rep.repetition`` always gives one."""
    reports = Path(out_dir) / "reports"
    has_cap = any(v.startswith("cap-") for v in workload.variants)
    problems = [
        f"report table {name}.csv missing or empty"
        for name in REPORT_TABLES
        if not (reports / f"{name}.csv").exists()
        or _data_rows(reports / f"{name}.csv") < (0 if name == "trajectory" and not has_cap else 1)
    ]
    if problems:
        return problems
    summary = summary_means(out_dir)
    if set(summary) != set(recomputed):
        problems.append(f"summary variants {sorted(summary)} != scored {sorted(recomputed)}")
    for variant, value in sorted(summary.items()):
        if variant in recomputed and abs(value - recomputed[variant]) > RECOMPUTE_TOLERANCE:
            problems.append(
                f"{variant}: report mean log score {value!r} != recomputed {recomputed[variant]!r}"
            )
        expected = (reference or {}).get(variant)
        if reference is not None and expected is None:
            problems.append(f"{variant}: no reference mean log score")
        elif expected is not None and abs(value - expected) > REFERENCE_TOLERANCE:
            problems.append(f"{variant}: mean log score {value!r} != reference {expected!r}")
    return problems
