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
from dataclasses import dataclass, replace

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


def aggregate_cluster(members, medians, current) -> ClusterForecast:
    """Follow-the-leader aggregation of one cluster.

    ``medians`` maps model ids to their median historical log score (models
    with no scored history are absent). The leader is the scored member with
    the highest median (ties to the lower id); if it has no current forecast
    the next-best submitted member stands in. Unscored members are eligible
    only after every scored member, in id order.
    """
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
        self._median_cache: dict[tuple, dict[str, float]] = {}
        self._preference_cache: dict[tuple, np.ndarray] = {}
        self._cluster_cache: dict[tuple, Clustering] = {}
        self._replay_cache: dict[tuple, float | None] = {}
        self._weights_cache: dict[tuple, np.ndarray] = {}

    def stratum_keys(self) -> list[tuple[str, int]]:
        return sorted(self.strata, key=stratum_sort_key)

    # -- score windows -------------------------------------------------

    def medians(self, stratum: tuple[str, int], t: int) -> dict[str, float]:
        """Median historical log score per model, as known at week t."""
        cached = self._median_cache.get((stratum, t))
        if cached is not None:
            return cached
        sd = self.strata[stratum]
        k = sd.window_size(t)
        out: dict[str, float] = {}
        if k:
            window = sd.S[:, :k]
            counts = (~np.isnan(window)).sum(axis=1)
            for idx, m in enumerate(self.roster):
                if counts[idx]:
                    row = window[idx]
                    out[m] = float(np.median(row[~np.isnan(row)]))
        self._median_cache[(stratum, t)] = out
        return out

    def preference(self, stratum: tuple[str, int], t: int) -> np.ndarray:
        """Each roster model's place in the leader preference order as of
        week t (0 is the first choice): scored models by descending median,
        then unscored ones, ties and unscored models in id order."""
        cached = self._preference_cache.get((stratum, t))
        if cached is None:
            med = self.medians(stratum, t)
            order = sorted(self.roster, key=lambda m: (m not in med, -med.get(m, 0.0), m))
            cached = np.empty(len(self.roster), dtype=np.intp)
            cached[[self.index[m] for m in order]] = np.arange(len(order))
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

    # -- cluster forecasts ---------------------------------------------

    def cluster_forecasts(
        self, stratum: tuple[str, int], t: int, clustering: Clustering
    ) -> list[ClusterForecast]:
        sd = self.strata[stratum]
        med = self.medians(stratum, t)
        return [aggregate_cluster(c, med, sd.pmfs[t]) for c in clustering.clusters]

    def cluster_mass_matrix(
        self, stratum: tuple[str, int], clustering: Clustering, t: int
    ) -> np.ndarray:
        """Truth-bin mass each current cluster would have scored at past
        weeks, replaying each week's leader choice from its own history."""
        sd = self.strata[stratum]
        obs = sd.scored_weeks(t)
        n_models = len(self.roster)
        members = np.zeros((clustering.n_clusters, n_models), dtype=bool)
        for c, cluster in enumerate(clustering.clusters):
            members[c, [self.index[m] for m in cluster]] = True
        place = np.array([self.preference(stratum, j) for j in obs.tolist()], dtype=np.intp)
        # A cluster's leader at week j is its submitting member placed first
        # in week j's preference order; clusters with none score 0.
        eligible = members & sd.sub[obs][:, None, :]
        rank = np.where(eligible, place.reshape(len(obs), 1, n_models), n_models)
        leader = rank.argmin(axis=2)
        mass = np.take_along_axis(sd.mass[obs], leader, axis=1)
        return np.where(eligible.any(axis=2), mass, 0.0)

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


def _no_ensemble(variant: str, data: SeasonData, stratum, t: int, note: str) -> EnsembleRun:
    region, target = stratum
    return EnsembleRun(
        variant=variant,
        season=data.season,
        region=region,
        target=target,
        issue_week=data.weeks[t - 1].to_int(),
        week_index=t,
        pmf=None,
        weights={},
        entropy=None,
        missing_models=data.strata[stratum].missing(t),
        note=note,
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
    region, target = stratum
    sd = data.strata[stratum]
    cell = sd.pmfs[t]
    if not cell:
        return _no_ensemble(variant, data, stratum, t, "no forecasts submitted")
    w = renormalized(fitted, [data.index[m] for m in cell])
    pmf = linear_pool(list(cell.values()), w)
    weights = {m: float(v) for m, v in zip(cell, w)}
    return EnsembleRun(
        variant=variant,
        season=data.season,
        region=region,
        target=target,
        issue_week=data.weeks[t - 1].to_int(),
        week_index=t,
        pmf=pmf,
        weights=weights,
        entropy=percent_entropy(w),
        missing_models=sd.missing(t),
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
    """

    def __init__(self, pooling: str = "equal", phi_grid=DEFAULT_PHI_GRID, delta: float = 5.0):
        if pooling not in ("equal", "adaptive"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.pooling = pooling
        self.phi_grid = tuple(sorted(float(p) for p in phi_grid))
        if not self.phi_grid:
            raise ValueError("empty phi candidate grid")
        self.delta = delta
        self._phi_cache: dict[tuple[int, int], float] = {}

    @property
    def name(self) -> str:
        return f"cap-{self.pooling}"

    # -- pooling over cluster forecasts --------------------------------

    def _cluster_weights(
        self, data: SeasonData, stratum, t: int, clustering: Clustering
    ) -> np.ndarray:
        k = clustering.n_clusters
        if self.pooling == "equal" or t == 1:
            return np.full(k, 1.0 / k)
        key = self._weights_key(stratum, t, clustering)
        cached = data._weights_cache.get(key)
        if cached is None:
            prior = AdaptivePrior(t, data.n_weeks, self.delta)
            f = data.cluster_mass_matrix(stratum, clustering, t)
            fit = em_pool_weights(f, alpha=prior.concentration)
            _warn_unconverged(self.name, data, stratum, f"week {t}", fit)
            cached = fit.weights
            data._weights_cache[key] = cached
        return cached

    def _weights_key(self, stratum, t: int, clustering: Clustering) -> tuple:
        # Distinct thresholds often produce the same partition; the fit
        # depends only on the partition, the week, and the prior strength.
        return (stratum, t, clustering.clusters, self.delta)

    def _replay_key(self, stratum, j: int, clustering: Clustering) -> tuple:
        # Likewise the replayed score depends on the partition, not on phi.
        return (stratum, j, clustering.clusters, self.pooling)

    def _pool(
        self,
        data: SeasonData,
        stratum,
        t: int,
        phi: float,
    ) -> tuple[np.ndarray | None, Clustering, list[ClusterForecast], np.ndarray]:
        clustering = data.clusters(stratum, t, phi)
        forecasts = data.cluster_forecasts(stratum, t, clustering)
        fitted = self._cluster_weights(data, stratum, t, clustering)
        present = [i for i, cf in enumerate(forecasts) if cf.pmf is not None]
        if not present:
            return None, clustering, forecasts, np.array([])
        w = renormalized(fitted, present)
        pmf = linear_pool([forecasts[i].pmf for i in present], w)
        return pmf, clustering, forecasts, w

    # -- threshold selection -------------------------------------------

    def _replay_score(self, data: SeasonData, stratum, j: int, phi: float) -> float | None:
        sd = data.strata[stratum]
        if not sd.pmfs[j]:
            return None
        key = self._replay_key(stratum, j, data.clusters(stratum, j, phi))
        if key not in data._replay_cache:
            pmf, _, _, _ = self._pool(data, stratum, j, phi)
            data._replay_cache[key] = None if pmf is None else log_score(pmf, sd.truth_target[j])
        return data._replay_cache[key]

    def _prefetch_weights(self, data: SeasonData, scorable) -> None:
        """Fit, as one batched EM problem set, the cluster weights of every
        replay in ``scorable`` that neither cache answers yet."""
        pending: dict[tuple, tuple[np.ndarray, float]] = {}
        for stratum, j in scorable:
            if j == 1 or not data.strata[stratum].pmfs[j]:
                continue
            alpha = AdaptivePrior(j, data.n_weeks, self.delta).concentration
            for phi in self.phi_grid:
                clustering = data.clusters(stratum, j, phi)
                key = self._weights_key(stratum, j, clustering)
                if (
                    key in pending
                    or key in data._weights_cache
                    or self._replay_key(stratum, j, clustering) in data._replay_cache
                ):
                    continue
                pending[key] = (data.cluster_mass_matrix(stratum, clustering, j), alpha)
        fits = em_pool_weights_batch(list(pending.values()))
        for key, fit in zip(pending, fits):
            stratum, j = key[:2]
            _warn_unconverged(self.name, data, stratum, f"week {j}", fit)
            data._weights_cache[key] = fit.weights

    def select_phi(self, data: SeasonData, t: int) -> float:
        """Threshold for week t: 1/2 on week one, afterwards the candidate
        whose replayed ensembles scored best on the season so far (ties to
        the smaller value).

        A single-candidate grid is a pinned threshold: it applies from week
        one, since no data-driven selection is happening at all.

        With adaptive pooling, the cluster-weight fits that the replays need
        and no cache holds yet are prefetched before the grid is scored: each
        uncached (stratum, week, phi) replay is clustered, partitions whose
        fit is already cached are dropped, and the rest are solved together
        in one ``em_pool_weights_batch`` call. The grid loop then finds every
        fit in the cache.
        """
        if len(self.phi_grid) == 1:
            return self.phi_grid[0]
        if t == 1:
            return _INITIAL_PHI
        cached = self._phi_cache.get((data.season, t))
        if cached is not None:
            return cached
        scorable = [
            (stratum, j)
            for stratum in data.stratum_keys()
            for j in data.strata[stratum].scored_weeks(t).tolist()
        ]
        if self.pooling == "adaptive":
            self._prefetch_weights(data, scorable)
        best_phi, best_avg = None, -math.inf
        for phi in self.phi_grid:
            scores = [
                s
                for stratum, j in scorable
                if (s := self._replay_score(data, stratum, j, phi)) is not None
            ]
            if not scores:
                continue
            avg = float(np.mean(scores))
            if avg > best_avg:
                best_phi, best_avg = phi, avg
        phi = _INITIAL_PHI if best_phi is None else best_phi
        self._phi_cache[(data.season, t)] = phi
        return phi

    # -- weekly run ------------------------------------------------------

    def run_stratum(self, data: SeasonData, stratum, t: int) -> EnsembleRun:
        region, target = stratum
        sd = data.strata[stratum]
        phi = self.select_phi(data, t)
        if not sd.pmfs[t]:
            run = _no_ensemble(self.name, data, stratum, t, "no forecasts submitted")
            return replace(run, phi=phi)
        pmf, clustering, forecasts, w = self._pool(data, stratum, t, phi)
        present = [i for i, cf in enumerate(forecasts) if cf.pmf is not None]
        weights = {f"c{i + 1}": float(v) for i, v in zip(present, w)}
        return EnsembleRun(
            variant=self.name,
            season=data.season,
            region=region,
            target=target,
            issue_week=data.weeks[t - 1].to_int(),
            week_index=t,
            pmf=pmf,
            weights=weights,
            entropy=percent_entropy(w) if len(w) else None,
            phi=phi,
            clusters=clustering.clusters,
            leaders=tuple(cf.leader for cf in forecasts),
            n_clusters=clustering.n_clusters,
            missing_models=sd.missing(t),
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
