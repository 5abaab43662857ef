"""Weekly ensemble construction: cluster-aggregate-pool and comparators.

Five variants share one season walk. The cluster-aggregate-pool ("cap")
variants partition models by historical log-score correlation, reduce each
cluster to its best-median member's forecast, and pool cluster forecasts
with equal or adaptively fitted weights. Comparators pool raw component
forecasts directly with equal, season-static, or adaptive weights.

All decisions at week t use only forecasts issued at or before t and truths
realized at or before t; later data never changes earlier artifacts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, cluster_models
from .epiweek import Epiweek, season_length, season_weeks
from .panel import Panel
from .pmf import bin_index, linear_pool
from .pool import AdaptivePrior, WeightFit, em_pool_weights, em_pool_weights_batch, renormalized
from .scoring import floored_log, log_score

__all__ = [
    "VARIANTS",
    "DEFAULT_PHI_GRID",
    "ClusterForecast",
    "EnsembleRun",
    "aggregate_cluster",
    "percent_entropy",
    "HistoryStore",
    "SeasonData",
    "make_variant",
    "EqualVariant",
    "StaticVariant",
    "AdaptiveVariant",
    "CapVariant",
]

VARIANTS = ("cap-equal", "cap-adaptive", "equal", "static", "adaptive")

DEFAULT_PHI_GRID = tuple(round(0.05 * k, 2) for k in range(20))

_INITIAL_PHI = 0.5

_NO_FORECASTS = "no forecasts submitted"

_log = logging.getLogger("cappool")


def _region_order(region: str) -> tuple[int, int]:
    return (0, int(region[3:])) if region.startswith("HHS") else (1, 0)


def stratum_sort_key(stratum: tuple[str, int]) -> tuple:
    region, target = stratum
    return (*_region_order(region), target)


@dataclass(frozen=True)
class ClusterForecast:
    """One cluster's representative forecast for the current week.

    The pmf is absent only when every member failed to submit; otherwise the
    best-median member with a submission stands in as leader.
    """

    members: tuple[str, ...]
    leader: str | None
    pmf: np.ndarray | None
    members_missing: frozenset[str]


def _leader_key(medians, model: str) -> tuple:
    """The one leader order: scored models by descending median, then
    unscored ones (no median); ties and unscored models in id order."""
    median = medians.get(model)
    return (median is None, 0.0 if median is None else -median, model)


def aggregate_cluster(members, medians, current) -> ClusterForecast:
    """Follow-the-leader aggregation of one cluster.

    ``medians`` maps model ids to their median historical log score (models
    with no scored history are absent). The leader is the member with a
    current forecast that comes first in ``_leader_key`` order.
    """
    members = tuple(members)
    if not members:
        raise ValueError("empty cluster")
    missing = frozenset(m for m in members if m not in current)
    leader = min(
        (m for m in members if m in current), key=lambda m: _leader_key(medians, m), default=None
    )
    return ClusterForecast(members, leader, None if leader is None else current[leader], missing)


def percent_entropy(weights) -> float:
    """Entropy of pool weights relative to the uniform maximum.

    A single cluster carries no allocation information, so K = 1 is defined
    as 1.0.
    """
    w = np.asarray(list(weights), dtype=float)
    if w.size < 1:
        raise ValueError("need at least one weight")
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a simplex vector")
    if w.size == 1:
        return 1.0
    positive = w[w > 0.0]
    return float(-(positive * np.log(positive)).sum() / math.log(w.size))


@dataclass(frozen=True)
class EnsembleRun:
    """Everything one variant produced for one (region, target, week)."""

    variant: str
    season: int
    region: str
    target: int
    issue_week: int
    week_index: int
    pmf: np.ndarray | None
    weights: dict[str, float]
    entropy: float | None
    phi: float | None = None
    clusters: tuple[tuple[str, ...], ...] | None = None
    leaders: tuple[str | None, ...] | None = None
    n_clusters: int | None = None
    missing_models: tuple[str, ...] = ()
    note: str = ""


class HistoryStore:
    """Accumulates per-stratum component truth-bin masses across seasons.

    Each absorbed season adds one ``(roster, mass, sub)`` block per stratum:
    its realized weeks' truth-bin masses and submission masks, with columns
    in that season's roster order.
    """

    def __init__(self) -> None:
        self._blocks: dict[tuple[str, int], list[tuple[tuple[str, ...], np.ndarray, np.ndarray]]] = {}
        self.seasons: list[int] = []

    def absorb(self, data: "SeasonData") -> None:
        """Fold a completed season's realized weeks into the store."""
        if data.season in self.seasons:
            return
        self.seasons.append(data.season)
        for stratum, sd in data.strata.items():
            rows = sd.realized
            self._blocks.setdefault(stratum, []).append((data.roster, sd.mass[rows], sd.sub[rows]))

    def prior(self, stratum: tuple[str, int], roster) -> tuple[np.ndarray, np.ndarray]:
        """Stacked prior-season masses and submission masks of ``stratum``,
        with columns mapped onto ``roster`` by model id (models absent from a
        season count as missing there)."""
        mass = [np.zeros((0, len(roster)))]
        sub = [np.zeros((0, len(roster)), dtype=bool)]
        for block_roster, block_mass, block_sub in self._blocks.get(stratum, ()):
            # A model the block lacks reads the appended all-zero column.
            index = {m: k for k, m in enumerate(block_roster)}
            cols = [index.get(m, len(block_roster)) for m in roster]
            mass.append(np.pad(block_mass, ((0, 0), (0, 1)))[:, cols])
            sub.append(np.pad(block_sub, ((0, 0), (0, 1)))[:, cols])
        return np.vstack(mass), np.vstack(sub)


class _StratumData:
    """Current-season data plus the combined score window for one stratum.

    ``mass[i, c]`` is the probability roster model c placed on the realized
    truth bin of week i (0 when it did not submit or the truth is unknown),
    ``sub[i, c]`` whether it submitted; week indexing is 1-based, row 0
    unused. ``S`` holds the floored log scores of the prior seasons' weeks,
    then of this season's weeks in the order they become known.
    """

    def __init__(
        self,
        panel: Panel,
        region: str,
        target: int,
        weeks: list[Epiweek],
        index: dict[str, int],
        prior: tuple[np.ndarray, np.ndarray],
    ):
        self.region = region
        self.target = target
        self.roster = tuple(index)
        n = len(weeks)
        self.pmfs: list[dict[str, np.ndarray]] = [{}]
        self.truth_target: list[float | None] = [None]
        self.mass = np.zeros((n + 1, len(index)))
        self.sub = np.zeros((n + 1, len(index)), dtype=bool)
        for i, w in enumerate(weeks, start=1):
            cell = panel.available(region, target, w)
            truth = panel.realized_truth(region, target, w)
            self.pmfs.append(cell)
            self.truth_target.append(truth)
            cols = [index[m] for m in cell]
            self.sub[i, cols] = True
            if truth is not None:
                b = bin_index(truth)
                self.mass[i, cols] = [p[b] for p in cell.values()]
        self.realized = np.flatnonzero([truth is not None for truth in self.truth_target])

        self.prior_mass, prior_sub = prior
        self.n_prior = len(self.prior_mass)
        usable = self.scored_weeks(n)
        mass = np.vstack([self.prior_mass, self.mass[usable]]).T
        present = np.vstack([prior_sub, self.sub[usable]]).T
        self.S = np.full(mass.shape, np.nan)
        self.S[present] = [floored_log(v) for v in mass[present].tolist()]

    def scored_weeks(self, t: int) -> np.ndarray:
        """Weeks j whose truth is realized and known by week t
        (j + target <= t), in order."""
        return self.realized[: np.searchsorted(self.realized, t - self.target, side="right")]

    def window_size(self, t: int) -> int:
        """Score-window columns usable at week t."""
        return self.n_prior + len(self.scored_weeks(t))

    def missing(self, t: int) -> tuple[str, ...]:
        """Roster models without a forecast at week t."""
        return tuple(sorted(set(self.roster) - self.pmfs[t].keys()))


def _masked_correlation(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise Pearson correlation over mutually observed columns.

    Entries with fewer than two common columns or a zero-variance series are
    set to 0 and flagged. Matches the per-pair reference implementation.
    """
    n_models = S.shape[0]
    mask = ~np.isnan(S)
    # Center each series on its own observed mean to tame cancellation.
    counts = mask.sum(axis=1)
    sums = np.where(mask, S, 0.0).sum(axis=1)
    means = np.divide(sums, counts, out=np.zeros(n_models), where=counts > 0)
    X = np.where(mask, S - means[:, None], 0.0)
    M = mask.astype(float)
    n = M @ M.T
    sx = X @ M.T
    sy = M @ X.T
    sxx = (X * X) @ M.T
    syy = M @ (X * X).T
    sxy = X @ X.T
    with np.errstate(invalid="ignore", divide="ignore"):
        cov = sxy - sx * sy / np.where(n > 0, n, 1)
        vx = sxx - sx**2 / np.where(n > 0, n, 1)
        vy = syy - sy**2 / np.where(n > 0, n, 1)
        corr = cov / np.sqrt(vx * vy)
    bad = (
        (n < 2)
        | (vx <= 1e-12 * np.maximum(sxx, 1e-30))
        | (vy <= 1e-12 * np.maximum(syy, 1e-30))
        | ~np.isfinite(corr)
    )
    out = np.clip(np.where(bad, 0.0, corr), -1.0, 1.0)
    np.fill_diagonal(out, 1.0)
    np.fill_diagonal(bad, False)
    return out, bad


class SeasonData:
    """One season's panel slice, score windows, and per-week caches."""

    def __init__(self, panel: Panel, season: int, targets, history: HistoryStore | None = None):
        self.panel = panel
        self.season = season
        self.history = history or HistoryStore()
        self.weeks = season_weeks(season)
        self.n_weeks = season_length(season)
        self.targets = tuple(sorted(targets))
        self.regions = tuple(sorted(panel.regions, key=_region_order))
        self.roster = panel.roster
        self.index = {m: k for k, m in enumerate(self.roster)}
        self.strata: dict[tuple[str, int], _StratumData] = {}
        for region in self.regions:
            for target in self.targets:
                key = (region, target)
                self.strata[key] = _StratumData(
                    panel, region, target, self.weeks, self.index,
                    self.history.prior(key, self.roster),
                )
        self._corr_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._preference_cache: dict[tuple, np.ndarray] = {}
        self._cluster_cache: dict[tuple, Clustering] = {}

    def stratum_keys(self) -> list[tuple[str, int]]:
        return sorted(self.strata, key=stratum_sort_key)

    # -- score windows -------------------------------------------------

    def preference(self, stratum: tuple[str, int], t: int) -> np.ndarray:
        """Each roster model's place in the leader preference order as of
        week t (0 is the first choice): ``_leader_key`` over the median of
        each model's scores in the window known at t."""
        cached = self._preference_cache.get((stratum, t))
        if cached is None:
            sd = self.strata[stratum]
            window = sd.S[:, : sd.window_size(t)]
            med = {
                m: float(np.median(row[~np.isnan(row)]))
                for m, row in zip(self.roster, window)
                if not np.isnan(row).all()
            }
            order = sorted(range(len(self.roster)), key=lambda c: _leader_key(med, self.roster[c]))
            cached = np.empty(len(self.roster), dtype=np.intp)
            cached[order] = np.arange(len(order))
            self._preference_cache[(stratum, t)] = cached
        return cached

    def correlation(self, stratum: tuple[str, int], t: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._corr_cache.get((stratum, t))
        if cached is None:
            sd = self.strata[stratum]
            cached = _masked_correlation(sd.S[:, : sd.window_size(t)])
            self._corr_cache[(stratum, t)] = cached
        return cached

    def clustering_universe(self, stratum: tuple[str, int], t: int) -> list[str]:
        """Models eligible for this week's partition: any scored history in
        the window, or a submission this week."""
        sd = self.strata[stratum]
        window = sd.S[:, : sd.window_size(t)]
        eligible = (~np.isnan(window)).any(axis=1) | sd.sub[t]
        return sorted(m for m, keep in zip(self.roster, eligible.tolist()) if keep)

    def clusters(self, stratum: tuple[str, int], t: int, phi: float) -> Clustering:
        cached = self._cluster_cache.get((stratum, t, phi))
        if cached is not None:
            return cached
        ids = self.clustering_universe(stratum, t)
        corr, _ = self.correlation(stratum, t)
        sel = [self.index[m] for m in ids]
        sub = corr[np.ix_(sel, sel)]
        clustering = cluster_models(sub, phi, ids)
        self._cluster_cache[(stratum, t, phi)] = clustering
        return clustering

    # -- cluster leaders -------------------------------------------------

    def leaders(self, stratum: tuple[str, int], clustering: Clustering, weeks) -> np.ndarray:
        """Roster index of each cluster's leader at each of ``weeks``, shape
        (weeks, clusters): its member that submitted that week and comes
        first in that week's preference order, or -1 when none submitted."""
        sd = self.strata[stratum]
        weeks = np.asarray(weeks, dtype=np.intp)
        n_models = len(self.roster)
        members = np.zeros((clustering.n_clusters, n_models), dtype=bool)
        for c, cluster in enumerate(clustering.clusters):
            members[c, [self.index[m] for m in cluster]] = True
        place = np.array([self.preference(stratum, j) for j in weeks.tolist()], dtype=np.intp)
        eligible = members & sd.sub[weeks][:, None, :]
        rank = np.where(eligible, place.reshape(len(weeks), 1, n_models), n_models)
        return np.where(eligible.any(axis=2), rank.argmin(axis=2), -1)

    def cluster_mass_matrix(
        self, stratum: tuple[str, int], clustering: Clustering, t: int
    ) -> np.ndarray:
        """Truth-bin mass each current cluster would have scored at past
        weeks under each week's own leader (0 when it had none)."""
        sd = self.strata[stratum]
        obs = sd.scored_weeks(t)
        leader = self.leaders(stratum, clustering, obs)
        mass = np.take_along_axis(sd.mass[obs], leader, axis=1)
        return np.where(leader >= 0, mass, 0.0)

    def model_mass_matrix(self, stratum: tuple[str, int], t: int) -> np.ndarray:
        """Truth-bin mass per roster model at past scored weeks (0 when
        missing), for the comparator weight fits."""
        sd = self.strata[stratum]
        return sd.mass[sd.scored_weeks(t)]

    def prior_mass_matrix(self, stratum: tuple[str, int]) -> np.ndarray:
        """Truth-bin mass per roster model over all prior-season weeks."""
        return self.strata[stratum].prior_mass.copy()


def _warn_unconverged(variant: str, data: SeasonData, stratum, fitted_for: str, fit: WeightFit):
    """Log a weight fit that stopped at the EM iteration cap unconverged."""
    if not fit.converged:
        region, target = stratum
        _log.warning(
            "%s: EM fit did not converge (season %d, %s target %d, %s, K=%d, n_iter=%d)",
            variant, data.season, region, target, fitted_for, fit.weights.size, fit.n_iter,
        )


def _run(variant: str, data: SeasonData, stratum, t: int, **fields) -> EnsembleRun:
    """An ``EnsembleRun`` for (stratum, week t) with the header fields filled in."""
    region, target = stratum
    return EnsembleRun(
        variant=variant,
        season=data.season,
        region=region,
        target=target,
        issue_week=data.weeks[t - 1].to_int(),
        week_index=t,
        missing_models=data.strata[stratum].missing(t),
        **fields,
    )


class _VariantBase:
    """A weekly ensemble recipe; subclasses fill in the pooling."""

    name: str

    def week_runs(self, data: SeasonData, t: int) -> list[EnsembleRun]:
        return [self.run_stratum(data, stratum, t) for stratum in data.stratum_keys()]

    def run_stratum(self, data: SeasonData, stratum, t: int) -> EnsembleRun:
        raise NotImplementedError


def _model_pool_run(
    variant: str,
    data: SeasonData,
    stratum,
    t: int,
    fitted: np.ndarray,
) -> EnsembleRun:
    """Pool component forecasts under fitted per-model weights, renormalized
    over this week's submitters."""
    cell = data.strata[stratum].pmfs[t]
    if not cell:
        return _run(
            variant, data, stratum, t, pmf=None, weights={}, entropy=None, note=_NO_FORECASTS
        )
    w = renormalized(fitted, [data.index[m] for m in cell])
    return _run(
        variant, data, stratum, t,
        pmf=linear_pool(list(cell.values()), w),
        weights={m: float(v) for m, v in zip(cell, w)},
        entropy=percent_entropy(w),
    )


class EqualVariant(_VariantBase):
    """Equal weights over every component that submitted this week."""

    name = "equal"

    def run_stratum(self, data: SeasonData, stratum, t: int) -> EnsembleRun:
        equal = np.full(len(data.roster), 1.0 / max(len(data.roster), 1))
        return _model_pool_run(self.name, data, stratum, t, equal)


class StaticVariant(_VariantBase):
    """Weights fit once per season on all prior seasons, then frozen.

    With no prior seasons the fit degenerates to equal weights.
    """

    name = "static"

    def __init__(self) -> None:
        self._weights: dict[tuple[str, int], np.ndarray] = {}

    def season_weights(self, data: SeasonData, stratum) -> np.ndarray:
        cached = self._weights.get((data.season, *stratum))
        if cached is None:
            fit = em_pool_weights(data.prior_mass_matrix(stratum))
            _warn_unconverged(self.name, data, stratum, "prior seasons", fit)
            cached = fit.weights
            self._weights[(data.season, *stratum)] = cached
        return cached

    def run_stratum(self, data: SeasonData, stratum, t: int) -> EnsembleRun:
        return _model_pool_run(self.name, data, stratum, t, self.season_weights(data, stratum))


class AdaptiveVariant(_VariantBase):
    """Weights refit each week on the season so far, tempered toward equal
    by a Dirichlet penalty that relaxes as the season ages."""

    name = "adaptive"

    def __init__(self, delta: float = 5.0) -> None:
        self.delta = delta

    def week_weights(self, data: SeasonData, stratum, t: int) -> np.ndarray:
        n = len(data.roster)
        if t == 1:
            return np.full(n, 1.0 / n)
        prior = AdaptivePrior(t, data.n_weeks, self.delta)
        fit = em_pool_weights(data.model_mass_matrix(stratum, t), alpha=prior.concentration)
        _warn_unconverged(self.name, data, stratum, f"week {t}", fit)
        return fit.weights

    def run_stratum(self, data: SeasonData, stratum, t: int) -> EnsembleRun:
        return _model_pool_run(self.name, data, stratum, t, self.week_weights(data, stratum, t))


class CapVariant(_VariantBase):
    """Cluster-aggregate-pool ensemble with a data-driven threshold.

    Each week one threshold is chosen globally by replaying the pipeline
    over the season's scored weeks across all strata and averaging the
    resulting ensemble log scores; clustering itself is per stratum.

    A replayed week's scores use only data known at that week, so each
    (stratum, week) is replayed once per season and kept as a score row,
    and each week's pick is kept too. The rows, picks and cluster-weight
    fits belong to one ``SeasonData`` and are dropped when another arrives.
    """

    def __init__(self, pooling: str = "equal", phi_grid=DEFAULT_PHI_GRID, delta: float = 5.0):
        if pooling not in ("equal", "adaptive"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.pooling = pooling
        self.phi_grid = tuple(sorted(float(p) for p in phi_grid))
        if not self.phi_grid:
            raise ValueError("empty phi candidate grid")
        self.delta = delta
        self._season: SeasonData | None = None
        # (stratum, week) -> replayed log score per grid phi, or None when
        # nobody submitted that week.
        self._rows: dict[tuple, list[float] | None] = {}
        # week -> the threshold select_phi picked for it.
        self._picks: dict[int, float] = {}
        # (stratum, week, partition) -> fitted cluster weights. Distinct
        # thresholds often give one partition, and the fit depends only on it.
        self._fits: dict[tuple, np.ndarray] = {}

    @property
    def name(self) -> str:
        return f"cap-{self.pooling}"

    def _use_season(self, data: SeasonData) -> None:
        if data is not self._season:
            self._season, self._rows, self._picks, self._fits = data, {}, {}, {}

    # -- pooling over cluster forecasts --------------------------------

    def _cluster_weights(
        self, data: SeasonData, stratum, t: int, clustering: Clustering
    ) -> np.ndarray:
        k = clustering.n_clusters
        if self.pooling == "equal" or t == 1:
            return np.full(k, 1.0 / k)
        self._use_season(data)
        key = (stratum, t, clustering.clusters)
        if key not in self._fits:
            prior = AdaptivePrior(t, data.n_weeks, self.delta)
            f = data.cluster_mass_matrix(stratum, clustering, t)
            fit = em_pool_weights(f, alpha=prior.concentration)
            _warn_unconverged(self.name, data, stratum, f"week {t}", fit)
            self._fits[key] = fit.weights
        return self._fits[key]

    def _pool(
        self,
        data: SeasonData,
        stratum,
        t: int,
        phi: float,
    ) -> tuple[np.ndarray, Clustering, np.ndarray, np.ndarray]:
        """Pool week t's cluster leaders (-1 for none); t must have a
        submission, so the submitter's cluster always has a leader."""
        clustering = data.clusters(stratum, t, phi)
        leaders = data.leaders(stratum, clustering, [t])[0]
        fitted = self._cluster_weights(data, stratum, t, clustering)
        present = np.flatnonzero(leaders >= 0)
        w = renormalized(fitted, present)
        cell = data.strata[stratum].pmfs[t]
        pmf = linear_pool([cell[data.roster[c]] for c in leaders[present].tolist()], w)
        return pmf, clustering, leaders, w

    # -- threshold selection -------------------------------------------

    def _replay(self, data: SeasonData, weeks) -> None:
        """Replay each (stratum, week) in ``weeks`` and store its score row:
        every grid phi's replayed log score, pooling each distinct partition
        once.

        With adaptive pooling the cluster-weight fits these replays need and
        no published week already fitted are solved first, together, in one
        ``em_pool_weights_batch`` call.
        """
        if self.pooling == "adaptive":
            pending: dict[tuple, tuple[np.ndarray, float]] = {}
            for stratum, j in weeks:
                if j == 1 or not data.strata[stratum].pmfs[j]:
                    continue
                alpha = AdaptivePrior(j, data.n_weeks, self.delta).concentration
                for phi in self.phi_grid:
                    clustering = data.clusters(stratum, j, phi)
                    key = (stratum, j, clustering.clusters)
                    if key not in pending and key not in self._fits:
                        pending[key] = (data.cluster_mass_matrix(stratum, clustering, j), alpha)
            fits = em_pool_weights_batch(list(pending.values()))
            for key, fit in zip(pending, fits):
                _warn_unconverged(self.name, data, key[0], f"week {key[1]}", fit)
                self._fits[key] = fit.weights
        for stratum, j in weeks:
            sd = data.strata[stratum]
            if not sd.pmfs[j]:
                self._rows[stratum, j] = None
                continue
            partitions = [data.clusters(stratum, j, phi).clusters for phi in self.phi_grid]
            scores: dict[tuple, float] = {}
            for phi, partition in zip(self.phi_grid, partitions):
                if partition not in scores:
                    pmf = self._pool(data, stratum, j, phi)[0]
                    scores[partition] = log_score(pmf, sd.truth_target[j])
            self._rows[stratum, j] = [scores[partition] for partition in partitions]

    def select_phi(self, data: SeasonData, t: int) -> float:
        """Threshold for week t: 1/2 on week one, afterwards the candidate
        whose replayed ensembles scored best on the season so far (ties to
        the smaller value).

        A single-candidate grid is a pinned threshold: it applies from week
        one, since no data-driven selection is happening at all.

        Weeks scored by t that have no score row yet are replayed first. The
        mean is taken over the rows of every week scored by t that had a
        submission, strata in ``stratum_keys()`` order and weeks ascending,
        so calls made out of order or repeated give the same answer. The
        pick is kept, so the week's other strata only look it up.
        """
        if len(self.phi_grid) == 1:
            return self.phi_grid[0]
        if t == 1:
            return _INITIAL_PHI
        self._use_season(data)
        if t in self._picks:
            return self._picks[t]
        scored = [
            (stratum, j)
            for stratum in data.stratum_keys()
            for j in data.strata[stratum].scored_weeks(t).tolist()
        ]
        self._replay(data, [key for key in scored if key not in self._rows])
        rows = [row for key in scored if (row := self._rows[key]) is not None]
        means = [np.mean(scores) for scores in np.array(rows).T]
        self._picks[t] = self.phi_grid[int(np.argmax(means))] if rows else _INITIAL_PHI
        return self._picks[t]

    # -- weekly run ------------------------------------------------------

    def run_stratum(self, data: SeasonData, stratum, t: int) -> EnsembleRun:
        phi = self.select_phi(data, t)
        if not data.strata[stratum].pmfs[t]:
            return _run(
                self.name, data, stratum, t,
                pmf=None, weights={}, entropy=None, phi=phi, note=_NO_FORECASTS,
            )
        pmf, clustering, leaders, w = self._pool(data, stratum, t, phi)
        present = np.flatnonzero(leaders >= 0).tolist()
        return _run(
            self.name, data, stratum, t,
            pmf=pmf,
            weights={f"c{i + 1}": float(v) for i, v in zip(present, w)},
            entropy=percent_entropy(w),
            phi=phi,
            clusters=clustering.clusters,
            leaders=tuple(data.roster[c] if c >= 0 else None for c in leaders.tolist()),
            n_clusters=clustering.n_clusters,
        )


def make_variant(name: str, phi_grid=DEFAULT_PHI_GRID, delta: float = 5.0) -> _VariantBase:
    if name == "equal":
        return EqualVariant()
    if name == "static":
        return StaticVariant()
    if name == "adaptive":
        return AdaptiveVariant(delta=delta)
    if name == "cap-equal":
        return CapVariant("equal", phi_grid=phi_grid, delta=delta)
    if name == "cap-adaptive":
        return CapVariant("adaptive", phi_grid=phi_grid, delta=delta)
    raise ValueError(f"unknown ensemble variant {name!r}")
