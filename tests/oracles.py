"""Looped reference implementations for the dense code paths.

Each function here computes, one cell at a time from dicts, what the package
computes with array indexing: the per-pair log-score correlation, the
truth-bin masses of a forecast stack, a season's score window and weight
fit mass matrices, the follow-the-leader choice, and the threshold
clustering. The clustering universe picked by id and cut from the
full-roster correlation with ``np.ix_`` is the reference for the cached
(ids, submatrix) pair. The per-value CSV codec (``csv.reader``/``csv.writer`` with
``float``/``repr`` of each probability) is the reference for the bulk one,
and the report's Brier table built from one ``brier_score`` call per
(record, cutpoint) is the reference for the one-matrix-per-variant table.
Property tests require exact equality between the two.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from cappool.clustering import Clustering
from cappool.ensembles import ClusterForecast, _masked_correlation
from cappool.epiweek import Epiweek, season_length, season_weeks
from cappool.panel import ForecastDataError, ForecastKey, _parse_target, canonical_region
from cappool.pmf import N_BINS, MalformedPmfError, bin_index
from cappool.scoring import BRIER_THRESHOLDS, LOG_SCORE_FLOOR, brier_score
from cappool.validation import check_forecast_array, check_truths


def logscore_correlation_matrix(
    scores: dict[str, dict], model_ids,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise Pearson correlation of per-key log-score series.

    ``scores[m]`` maps score keys (e.g. issue weeks) to floored log scores;
    pairs are compared on their common keys only. The diagonal is 1. Pairs
    with fewer than two common keys, or with a zero-variance series, get a
    correlation of 0 and are flagged.

    Returns (matrix, flagged) where ``flagged[i, j]`` marks entries forced
    to 0 because the correlation was undefined.
    """
    ids = list(model_ids)
    n = len(ids)
    corr = np.eye(n)
    flagged = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            si, sj = scores.get(ids[i], {}), scores.get(ids[j], {})
            common = sorted(si.keys() & sj.keys())
            value = None
            if len(common) >= 2:
                a = np.array([si[k] for k in common])
                b = np.array([sj[k] for k in common])
                da, db = a - a.mean(), b - b.mean()
                denom = np.sqrt((da @ da) * (db @ db))
                if denom > 0.0:
                    value = float(np.clip((da @ db) / denom, -1.0, 1.0))
            if value is None:
                value = 0.0
                flagged[i, j] = flagged[j, i] = True
            corr[i, j] = corr[j, i] = value
    return corr, flagged


def truth_bin_masses(F, y) -> np.ndarray:
    """Per-observation probability each component placed on the truth bin."""
    arr, available = check_forecast_array(F)
    truths = check_truths(y, arr.shape[0])
    out = np.zeros(arr.shape[:2])
    for j, t in enumerate(truths):
        b = bin_index(t)
        for c in np.flatnonzero(available[j]):
            out[j, c] = arr[j, c, b]
    return out


class LoopedHistory:
    """Per-stratum score history as dicts: target-week keys in absorption
    order, ``scores[model][key]`` and ``masses[key][model]``."""

    def __init__(self) -> None:
        self.strata: dict[tuple[str, int], dict] = {}

    def stratum(self, stratum) -> dict:
        return self.strata.setdefault(stratum, {"keys": [], "scores": {}, "masses": {}})

    def absorb(self, season: "LoopedSeason") -> None:
        for stratum, sd in season.strata.items():
            hist = self.stratum(stratum)
            for i in range(1, season.n_weeks + 1):
                if sd.truth_target[i] is None:
                    continue
                key = sd.week_ints[i]
                hist["keys"].append(key)
                hist["masses"][key] = dict(sd.f_mass[i])
                for m in sd.submitted[i]:
                    hist["scores"].setdefault(m, {})[key] = sd.score[i][m]


class _LoopedStratum:
    def __init__(self, panel, cells: dict, region, target, weeks, history: dict, roster):
        self.target = target
        n = len(weeks)
        self.week_ints = [0] + [w.add_weeks(target).to_int() for w in weeks]
        self.submitted = [frozenset()]
        self.truth_target = [None]
        self.f_mass = [{}]
        self.score = [{}]
        for w in weeks:
            cell = cells.get((region, target, w), {})
            truth = panel.realized_truth(region, target, w)
            self.submitted.append(frozenset(cell))
            self.truth_target.append(truth)
            if truth is None:
                self.f_mass.append({})
                self.score.append({})
            else:
                b = bin_index(truth)
                masses = {m: float(p[b]) for m, p in cell.items()}
                self.f_mass.append(masses)
                self.score.append(
                    {
                        m: max(math.log(v), LOG_SCORE_FLOOR) if v > 0.0 else LOG_SCORE_FLOOR
                        for m, v in masses.items()
                    }
                )

        index = {m: k for k, m in enumerate(roster)}
        n_prior = len(history["keys"])
        usable = [i for i in range(1, n + 1) if i + target <= n and self.truth_target[i] is not None]
        self.col_avail = np.array([0] * n_prior + [i + target for i in usable])
        self.S = np.full((len(roster), n_prior + len(usable)), np.nan)
        for col, key in enumerate(history["keys"]):
            for m, s in history["scores"].items():
                if key in s and m in index:
                    self.S[index[m], col] = s[key]
        for col, i in enumerate(usable, start=n_prior):
            for m, s in self.score[i].items():
                self.S[index[m], col] = s

    def window_size(self, t: int) -> int:
        return int(np.searchsorted(self.col_avail, t, side="right"))


class LoopedSeason:
    """One season's score windows and weight-fit mass matrices, built with
    per-cell loops over dicts."""

    def __init__(self, panel, season: int, targets, history: LoopedHistory):
        self.history = history
        self.n_weeks = season_length(season)
        self.roster = panel.roster
        weeks = season_weeks(season)
        # (region, target, issue) -> {model: pmf}, looked up cell by cell.
        cells: dict = {}
        for key, pmf in panel.entries.items():
            cells.setdefault((key.region, key.target, key.issue), {})[key.model_id] = pmf
        self.strata = {
            (region, target): _LoopedStratum(
                panel, cells, region, target, weeks, history.stratum((region, target)), self.roster
            )
            for region in panel.regions
            for target in targets
        }

    def medians(self, stratum, t: int) -> dict[str, float]:
        sd = self.strata[stratum]
        window = sd.S[:, : sd.window_size(t)]
        out = {}
        for idx, m in enumerate(self.roster):
            row = window[idx][~np.isnan(window[idx])]
            if row.size:
                out[m] = float(np.median(row))
        return out

    def ranking(self, stratum, t: int) -> list[str]:
        med = self.medians(stratum, t)
        scored = sorted((m for m in self.roster if m in med), key=lambda m: (-med[m], m))
        return scored + sorted(m for m in self.roster if m not in med)

    def leaders(self, stratum, clustering, t: int) -> list[int]:
        """Roster index of each cluster's first-ranked member that submitted
        at week t, or -1 when none did."""
        submitted = self.strata[stratum].submitted[t]
        order = [m for m in self.ranking(stratum, t) if m in submitted]
        out = []
        for members in clustering.clusters:
            first = next((m for m in order if m in members), None)
            out.append(-1 if first is None else self.roster.index(first))
        return out

    def _obs(self, stratum, t: int) -> list[int]:
        sd = self.strata[stratum]
        return [j for j in range(1, t) if j + sd.target <= t and sd.truth_target[j] is not None]

    def cluster_mass_matrix(self, stratum, clustering, t: int) -> np.ndarray:
        sd = self.strata[stratum]
        obs = self._obs(stratum, t)
        f = np.zeros((len(obs), clustering.n_clusters))
        member_sets = [set(c) for c in clustering.clusters]
        for row, j in enumerate(obs):
            order = self.ranking(stratum, j)
            for col, members in enumerate(member_sets):
                for m in order:
                    if m in members and m in sd.submitted[j]:
                        f[row, col] = sd.f_mass[j][m]
                        break
        return f

    def model_mass_matrix(self, stratum, t: int) -> np.ndarray:
        sd = self.strata[stratum]
        obs = self._obs(stratum, t)
        f = np.zeros((len(obs), len(self.roster)))
        for row, j in enumerate(obs):
            for col, m in enumerate(self.roster):
                f[row, col] = sd.f_mass[j].get(m, 0.0)
        return f

    def prior_mass_matrix(self, stratum) -> np.ndarray:
        hist = self.history.stratum(stratum)
        f = np.zeros((len(hist["keys"]), len(self.roster)))
        for row, key in enumerate(hist["keys"]):
            for col, m in enumerate(self.roster):
                f[row, col] = hist["masses"][key].get(m, 0.0)
        return f


def clustering_universe(data, stratum, t: int) -> tuple[list[str], np.ndarray]:
    """Week t's clustering universe and correlation submatrix by the rule
    ``SeasonData.clusters`` applied on every call before the pair was cached:
    the ids with scored history in the window or a submission at t, sorted,
    then the full-roster correlation indexed with ``np.ix_``."""
    sd = data.strata[stratum]
    window = sd.S[:, : sd.window_size(t)]
    eligible = (~np.isnan(window)).any(axis=1) | sd.sub[t]
    ids = sorted(m for m, keep in zip(data.roster, eligible.tolist()) if keep)
    corr, _ = _masked_correlation(window)
    sel = [data.index[m] for m in ids]
    return ids, corr[np.ix_(sel, sel)]


def aggregate_cluster(members, medians, current) -> ClusterForecast:
    """Follow-the-leader aggregation: the scored members by descending
    median (ties to the lower id), then the unscored ones in id order; the
    first with a current forecast leads."""
    members = tuple(members)
    if not members:
        raise ValueError("empty cluster")
    scored = sorted(
        (m for m in members if medians.get(m) is not None),
        key=lambda m: (-medians[m], m),
    )
    unscored = sorted(m for m in members if medians.get(m) is None)
    missing = frozenset(m for m in members if m not in current)
    for m in scored + unscored:
        if m in current:
            return ClusterForecast(members, m, current[m], missing)
    return ClusterForecast(members, None, None, missing)


def cluster_models(corr, phi: float, model_ids) -> Clustering:
    """Greedy threshold partition, testing every member pair one at a time."""
    model_ids = list(model_ids)
    corr = np.asarray(corr, dtype=float)
    order = sorted(range(len(model_ids)), key=model_ids.__getitem__)
    ids = [model_ids[k] for k in order]
    index = dict(zip(ids, order))
    clusters: list[list[str]] = []
    for m in ids:
        for members in clusters:
            if all(corr[index[m], index[j]] > phi for j in members):
                members.append(m)
                break
        else:
            clusters.append([m])
    return Clustering(tuple(tuple(c) for c in clusters), phi)


COMPONENT_HEADER = ["region", "target", "model_id", "issue_epiweek"] + [
    f"bin_{i}" for i in range(1, N_BINS + 1)
]


def format_probs(pmf) -> str:
    return ",".join([repr(float(v)) for v in pmf])


def normalize_pmf(raw) -> np.ndarray:
    """One pmf's checks and scaling, as ``normalize_pmfs`` applies them per row."""
    probs = np.asarray(raw, dtype=float)
    if probs.shape != (N_BINS,):
        raise MalformedPmfError(f"expected {N_BINS} probabilities, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise MalformedPmfError("non-finite probability entry")
    if np.any(probs < 0.0):
        raise MalformedPmfError("negative probability entry")
    total = float(probs.sum())
    if not 0.9 <= total <= 1.1:
        raise MalformedPmfError(f"probabilities sum to {total:.6f}, outside tolerance")
    return probs / total


def parse_component_csv(stream, renormalize: bool = True) -> dict[ForecastKey, np.ndarray]:
    """The canonical forecast parser with ``csv.reader`` and ``float()`` per value."""
    if isinstance(stream, (str, Path)):
        with open(stream, newline="") as fh:
            return parse_component_csv(fh, renormalize)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ForecastDataError("empty forecast file: header row missing") from None
    if [h.strip() for h in header] != COMPONENT_HEADER:
        raise ForecastDataError("unexpected forecast header; expected canonical wide format")
    fragment: dict[ForecastKey, np.ndarray] = {}
    end = reader.line_num
    for row in reader:
        # A row's number is the line it starts on.
        row_no, end = end + 1, reader.line_num
        if not row:
            continue
        if len(row) != len(COMPONENT_HEADER):
            raise ForecastDataError(f"row {row_no}: expected {len(COMPONENT_HEADER)} fields")
        try:
            region = canonical_region(row[0])
            target = _parse_target(row[1])
            issue = Epiweek.parse(row[3])
            probs = np.array([float(v) for v in row[4:]])
            pmf = normalize_pmf(probs) if renormalize else probs
        except ValueError as exc:
            raise ForecastDataError(f"row {row_no}: {exc}") from None
        model_id = row[2].strip()
        if not model_id:
            raise ForecastDataError(f"row {row_no}: empty model_id")
        key = ForecastKey(region, target, model_id, issue)
        if key in fragment:
            raise ForecastDataError(f"row {row_no}: duplicate forecast for {key}")
        fragment[key] = pmf
    return fragment


def write_component_csv(fh, entries) -> None:
    """Season CSV rows as ``csv.writer`` writes them, keys in sorted order."""
    writer = csv.writer(fh)
    writer.writerow(COMPONENT_HEADER)
    for key in sorted(entries):
        writer.writerow(
            [key.region, key.target, key.model_id, str(key.issue)]
            + [repr(float(v)) for v in entries[key]]
        )


def parse_week_csv(text: str, name: str) -> dict[tuple[str, int], np.ndarray]:
    """A week file's pooled pmfs by (region, target), one row at a time;
    a bad row raises ValueError with the message the week loader gives."""
    pmfs = {}
    for line_no, row in enumerate(csv.reader(text.splitlines()), start=1):
        if line_no == 1 or not row:
            continue
        try:
            if len(row) != N_BINS + 2:
                raise ValueError(f"{len(row)} fields")
            pmf = np.array([float(v) for v in row[2:]])
            key = (row[0], int(row[1]))
        except ValueError as exc:
            raise ValueError(f"corrupt week file {name}, line {line_no}: {exc}") from None
        pmfs[key] = pmf
    return pmfs


def brier_by_threshold_rows(runs, scores, truth, strict_brier: bool = False) -> list[list]:
    """The report's ``brier_by_threshold`` table, one ``brier_score`` call
    per (score record, group, cutpoint), summed into a running total."""
    runs_by_key = {(r.variant, r.region, r.target, r.issue_week): r for r in runs}
    targets = sorted({s.target for s in scores})
    rows = [["variant", "target", "threshold", "mean_brier"]]
    for variant in sorted({s.variant for s in scores}):
        for group in targets + ["all"]:
            subset = [s for s in scores if s.variant == variant and group in ("all", s.target)]
            acc = np.zeros(BRIER_THRESHOLDS.size)
            count = 0
            for s in subset:
                run = runs_by_key.get((variant, s.region, s.target, s.issue_week))
                if run is None or run.pmf is None:
                    continue
                truth_value = truth.wili(s.region, Epiweek.from_int(s.target_week))
                if truth_value is None:
                    continue
                acc += np.array(
                    [
                        brier_score(run.pmf, truth_value, float(x), strict_orientation=strict_brier)
                        for x in BRIER_THRESHOLDS
                    ]
                )
                count += 1
            if count:
                for x, value in zip(BRIER_THRESHOLDS, acc / count):
                    rows.append([variant, group, repr(float(x)), repr(float(value))])
    return rows
