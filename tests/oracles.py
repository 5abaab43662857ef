"""Looped reference implementations for the dense code paths.

Each function here computes, one cell at a time from dicts, what the package
computes with array indexing: the per-pair log-score correlation, the
truth-bin masses of a forecast stack, and a season's score window and weight
fit mass matrices. Property tests require exact equality between the two.
"""

from __future__ import annotations

import math

import numpy as np

from cappool.epiweek import season_length, season_weeks
from cappool.pmf import bin_index
from cappool.scoring import LOG_SCORE_FLOOR
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
    def __init__(self, panel, region, target, weeks, history: dict, roster):
        self.target = target
        n = len(weeks)
        self.week_ints = [0] + [w.add_weeks(target).to_int() for w in weeks]
        self.submitted = [frozenset()]
        self.truth_target = [None]
        self.f_mass = [{}]
        self.score = [{}]
        for w in weeks:
            cell = panel.available(region, target, w)
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
        self.strata = {
            (region, target): _LoopedStratum(
                panel, region, target, weeks, history.stratum((region, target)), self.roster
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
