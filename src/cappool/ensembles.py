"""Weekly ensemble construction: cluster-aggregate-pool and comparators.

Five variants share one season walk. The cluster-aggregate-pool ("cap")
variants partition models by historical log-score correlation, reduce each
cluster to its best-median member's forecast, and pool cluster forecasts
with equal or adaptively fitted weights. The comparators run the same
path on the partition of the roster into singletons, with equal,
season-static, or adaptive weights.

All decisions at week t use only forecasts issued at or before t and truths
realized at or before t; later data never changes earlier artifacts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, cluster_models
from .epiweek import Epiweek, season_length, season_week, season_weeks
from .panel import Panel
from .pmf import N_BINS, bin_index, linear_pool
from .pool import AdaptivePrior, WeightFit, em_pool_weights, em_pool_weights_batch, renormalized
# log_score is unused here, but perfbench/spans.py patches it in this module.
from .scoring import floored_log, log_score, sorted_medians

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

# select_phi ties mean log scores this close to the best: regrouped sums move
# a mean in its last bits, and real margins are orders of magnitude larger.
_PICK_TOLERANCE = 1e-12

_NO_FORECASTS = "no forecasts submitted"

_log = logging.getLogger("cappool")
# Each week's phi pick, at INFO; a child of "cappool", so it can be enabled alone.
_phi_log = logging.getLogger("cappool.phi")


def _region_order(region: str) -> tuple[int, int]:
    return (0, int(region[3:])) if region.startswith("HHS") else (1, 0)


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


def _leader_order(medians: np.ndarray) -> np.ndarray:
    """The one leader order, of models given in id order with their median
    historical log scores (NaN when unscored): scored models by descending
    median, then unscored ones; ties and unscored models in id order."""
    scored = ~np.isnan(medians)
    return np.lexsort((np.where(scored, -medians, 0.0), ~scored))


def aggregate_cluster(members, medians, current) -> ClusterForecast:
    """Follow-the-leader aggregation of one cluster.

    ``medians`` maps model ids to their median historical log score (models
    with no scored history are absent or None). The leader is the member
    with a current forecast that comes first in ``_leader_order``.
    """
    members = tuple(members)
    if not members:
        raise ValueError("empty cluster")
    missing = frozenset(m for m in members if m not in current)
    ids = sorted(m for m in members if m in current)
    scores = np.array([medians.get(m) for m in ids], dtype=float)
    leader = ids[_leader_order(scores)[0]] if ids else None
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

    ``pmf[i, c]`` is roster model c's forecast at week i (all 0 when it did
    not submit) and ``sub[i, c]`` whether it submitted; ``mass[i, c]`` is the
    probability that forecast placed on the realized truth bin of week i (0
    when it did not submit or the truth is unknown). Week indexing is
    1-based, row 0 unused. ``S`` holds the floored log scores of the prior
    seasons' weeks, then of this season's weeks in the order they become
    known.
    """

    def __init__(self, target: int, roster, pmf, sub, truth_target, prior):
        self.target = target
        self.roster = roster
        self.pmf = pmf
        self.sub = sub
        self.truth_target: list[float | None] = truth_target
        self.realized = np.flatnonzero([truth is not None for truth in truth_target])
        bins = np.array([bin_index(truth_target[i]) for i in self.realized.tolist()], dtype=np.intp)
        self.mass = np.zeros(sub.shape)
        self.mass[self.realized] = pmf[self.realized, :, bins]

        self.prior_mass, prior_sub = prior
        self.n_prior = len(self.prior_mass)
        usable = self.scored_weeks(len(truth_target) - 1)
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
        """Roster models without a forecast at week t, in roster (id) order."""
        return tuple(self.roster[c] for c in np.flatnonzero(~self.sub[t]).tolist())


def _cluster_grid(corr: np.ndarray, phis, ids) -> list[Clustering]:
    """``cluster_models(corr, phi, ids)`` at each of ``phis``, from one
    ``corr > phi`` link stack: thresholds whose links are identical share
    one greedy pass, the one of the first of them."""
    links = np.asarray(corr) > np.asarray(phis, dtype=float)[:, None, None]
    passes: dict[bytes, Clustering] = {}
    out = []
    for phi, layer in zip(phis, links):
        found = passes.get(key := layer.tobytes())
        if found is None:
            found = passes[key] = cluster_models(corr, phi, ids)
        out.append(found if found.phi == phi else Clustering(found.clusters, phi))
    return out


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
    """One season's panel slice, score windows, and per-week caches.

    The forecasts are copied into each stratum's dense arrays, so the panel
    is not kept."""

    def __init__(self, panel: Panel, season: int, targets, history: HistoryStore | None = None):
        self.season = season
        self.history = history or HistoryStore()
        self.weeks = season_weeks(season)
        self.n_weeks = season_length(season)
        self.targets = tuple(sorted(targets))
        self.regions = tuple(sorted(panel.regions, key=_region_order))
        self.roster = panel.roster
        self.index = {m: k for k, m in enumerate(self.roster)}
        # The comparators' partition: the roster in singletons, as at phi 1.
        self.singletons = Clustering(tuple((m,) for m in self.roster), 1.0)
        self._index_dtype = np.int16 if len(self.roster) < 2**15 else np.intp
        keys = [(region, target) for region in self.regions for target in self.targets]
        shape = (self.n_weeks + 1, len(self.roster))
        pmf = {key: np.zeros((*shape, N_BINS)) for key in keys}
        sub = {key: np.zeros(shape, dtype=bool) for key in keys}
        # Keyed by (year, week) tuples, which hash without a Python call.
        row = {(week.year, week.week): i for i, week in enumerate(self.weeks, start=1)}
        for key, forecast in panel.entries.items():
            stratum, i = (key.region, key.target), row.get((key.issue.year, key.issue.week))
            if i is not None and stratum in pmf:
                c = self.index[key.model_id]
                pmf[stratum][i, c] = forecast
                sub[stratum][i, c] = True
        self.strata: dict[tuple[str, int], _StratumData] = {
            key: _StratumData(
                key[1], self.roster, pmf[key], sub[key],
                [None] + [panel.realized_truth(*key, week) for week in self.weeks],
                self.history.prior(key, self.roster),
            )
            for key in keys
        }
        self._cluster_cache: dict[tuple, Clustering] = {}
        self._ranked_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._leader_cache: dict[tuple, np.ndarray] = {}

    def stratum_keys(self) -> list[tuple[str, int]]:
        """Strata in region order (HHS1..HHS10, then Nat), then target order."""
        return list(self.strata)

    def week(self, t: int) -> Epiweek:
        """The epiweek of week index t (1-based), which may run past the
        season's end."""
        return season_week(self.season, t)

    # -- score windows -------------------------------------------------

    def correlation(self, stratum: tuple[str, int], t: int) -> tuple[list[str], np.ndarray]:
        """Week t's clustering universe (models with scored history in the
        window known at t or a submission at t, in id order) and their
        correlation submatrix. Not cached: ``clusters`` asks for it on a
        miss, and its first miss for a (stratum, week) partitions the grid."""
        sd = self.strata[stratum]
        window = sd.S[:, : sd.window_size(t)]
        corr, _ = _masked_correlation(window)
        eligible = (~np.isnan(window)).any(axis=1) | sd.sub[t]
        sel = np.flatnonzero(eligible).tolist()
        return [self.roster[c] for c in sel], corr[np.ix_(sel, sel)]

    def clusters(self, stratum: tuple[str, int], t: int, phi: float, grid=()) -> Clustering:
        """Week t's partition at threshold phi: ``cluster_models`` on the
        ``correlation(stratum, t)`` pair. A miss partitions at every
        threshold of ``grid`` not yet cached as well, in one
        ``_cluster_grid`` pass, and caches them all."""
        cached = self._cluster_cache.get((stratum, t, phi))
        if cached is None:
            ids, sub = self.correlation(stratum, t)
            phis = [
                p for p in dict.fromkeys((phi, *grid)) if (stratum, t, p) not in self._cluster_cache
            ]
            for p, clustering in zip(phis, _cluster_grid(sub, phis, ids)):
                self._cluster_cache[stratum, t, p] = clustering
            cached = self._cluster_cache[stratum, t, phi]
        return cached

    # -- cluster leaders -------------------------------------------------

    def leaders(self, stratum: tuple[str, int], clustering: Clustering, weeks) -> np.ndarray:
        """Roster index of each cluster's leader at each of ``weeks``, shape
        (weeks, clusters): its member that submitted that week and comes
        first in that week's leader order, or -1 when none submitted.

        The rows come from the partition's leader table, shape
        (weeks + 1, clusters) and 16-bit for any roster under 32 768 models,
        built for every week of the season on the partition's first use in
        the stratum. An all-singleton partition's table is the submission
        mask, each member where it submitted, and needs no ranking."""
        key = (stratum, clusters := clustering.clusters)
        table = self._leader_cache.get(key)
        if table is None:
            if all(len(cluster) == 1 for cluster in clusters):
                cols = np.array([self.index[m] for (m,) in clusters], dtype=self._index_dtype)
                table = np.where(self.strata[stratum].sub[:, cols], cols, -1)
            else:
                rank, by_place = self._ranked(stratum)
                # Members in cluster order; each cluster's best place is the
                # minimum over its run of columns.
                cols = [self.index[m] for cluster in clusters for m in cluster]
                starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
                best = np.minimum.reduceat(rank[:, cols], starts, axis=1)
                table = by_place[np.arange(len(best))[:, None], best]
            self._leader_cache[key] = table
        return table[np.asarray(weeks, dtype=np.intp)]

    def _ranked(self, stratum: tuple[str, int]) -> tuple[np.ndarray, np.ndarray]:
        """``by_place``, the roster in ``_leader_order`` at each week, shape
        (weeks + 1, roster + 1) with -1 in the last column, and ``rank``,
        each roster model's place in that row where it submitted and the
        roster size where it did not, so that ``by_place[t, rank[t, c]]``
        is c for a submitter and -1 otherwise. ``by_place`` is 16-bit when
        the roster allows, like the leader tables read out of it.

        Each week's order ranks the medians of the score window known at
        that week. A grown week sorts its window once (NaN last) and reads
        every median off the sorted rows; a week whose window did not grow
        copies the rows before it."""
        cached = self._ranked_cache.get(stratum)
        if cached is None:
            sd = self.strata[stratum]
            n_models = len(self.roster)
            by_place = np.full((self.n_weeks + 1, n_models + 1), -1, dtype=self._index_dtype)
            rank = np.empty((self.n_weeks + 1, n_models), dtype=np.intp)
            for t in range(self.n_weeks + 1):
                size = sd.window_size(t)
                if t and size == sd.window_size(t - 1):
                    by_place[t], rank[t] = by_place[t - 1], rank[t - 1]
                    continue
                window = sd.S[:, :size]
                counts = size - np.isnan(window).sum(axis=1)
                order = _leader_order(sorted_medians(np.sort(window, axis=1), counts))
                by_place[t, :n_models] = order
                rank[t, order] = np.arange(n_models)
            rank[~sd.sub] = n_models
            cached = self._ranked_cache[stratum] = (rank, by_place)
        return cached

    def cluster_mass_matrix(
        self, stratum: tuple[str, int], clustering: Clustering, t: int
    ) -> np.ndarray:
        """Truth-bin mass each current cluster would have scored at past
        weeks under each week's own leader (0 when it had none)."""
        sd = self.strata[stratum]
        obs = sd.scored_weeks(t)
        leader = self.leaders(stratum, clustering, obs)
        return np.where(leader >= 0, sd.mass[obs[:, None], leader], 0.0)

    # Unused here, but perfbench/spans.py patches it on this class.
    def model_mass_matrix(self, stratum: tuple[str, int], t: int) -> np.ndarray:
        """Truth-bin mass per roster model at past scored weeks (0 when
        missing): ``cluster_mass_matrix`` over ``singletons``."""
        sd = self.strata[stratum]
        return sd.mass[sd.scored_weeks(t)]

    def prior_mass_matrix(self, stratum: tuple[str, int]) -> np.ndarray:
        """Truth-bin mass per roster model over all prior-season weeks."""
        return self.strata[stratum].prior_mass.copy()


def _pooled_run(
    variant: str, data: SeasonData, stratum, t: int, units, fitted, keys, **fields
) -> EnsembleRun:
    """Week t's run of the linear pool of the present ``units``' forecasts.

    ``units`` gives each pooled unit's roster index, or -1 when the unit has
    no forecast; ``fitted`` is each unit's weight and ``keys`` its name in
    the run's weights. The weights are renormalized over the present units.
    With no unit present this is the "no forecasts submitted" run.
    """
    units = np.asarray(units)
    present = np.flatnonzero(units >= 0)
    if present.size:
        w = renormalized(fitted, present)
        fields.update(
            pmf=linear_pool(data.strata[stratum].pmf[t, units[present]], w),
            weights={keys[i]: float(v) for i, v in zip(present.tolist(), w)},
            entropy=percent_entropy(w),
        )
    else:
        fields.update(pmf=None, weights={}, entropy=None, note=_NO_FORECASTS)
    region, target = stratum
    return EnsembleRun(
        variant=variant,
        season=data.season,
        region=region,
        target=target,
        issue_week=data.week(t).to_int(),
        week_index=t,
        missing_models=data.strata[stratum].missing(t),
        **fields,
    )


class _VariantBase:
    """A weekly ensemble recipe: pool the leaders of a partition of the
    roster under ``pooling``'s weights, "equal", "static" (fit once on the
    prior seasons) or "adaptive" (refit each week on the season so far).
    The partition is the roster in singletons unless a subclass picks one."""

    name: str
    pooling: str
    delta: float  # tempering strength of the adaptive fits

    def __init__(self) -> None:
        # Weight fits kept for reuse, keyed (stratum, fitted week or None for
        # the prior seasons, partition): distinct thresholds often give one
        # partition, and a fit depends only on it.
        self._fits: dict[tuple, np.ndarray] = {}
        self._season: SeasonData | None = None

    def week_runs(self, data: SeasonData, t: int) -> list[EnsembleRun]:
        """Week t's run of every stratum, in ``stratum_keys()`` order."""
        self._use_season(data)
        self._prefit(data, t)
        return [self._run(data, stratum, t) for stratum in data.stratum_keys()]

    def _partition(self, data: SeasonData, stratum, t: int) -> Clustering:
        """The partition whose cluster leaders week t pools in ``stratum``."""
        return data.singletons

    def _labels(self, data: SeasonData, t: int, clustering, leaders):
        """Each pooled cluster's key in the run's weights, and the run's
        further fields (``clustering`` None: nobody submitted). A roster
        singleton is keyed by its model id, and adds no field."""
        return data.roster, {}

    def _run(self, data: SeasonData, stratum, t: int) -> EnsembleRun:
        clustering, leaders, fitted = None, (), None
        if data.strata[stratum].sub[t].any():
            clustering = self._partition(data, stratum, t)
            leaders = data.leaders(stratum, clustering, [t])[0]
            fitted = self._fitted(data, stratum, t, clustering.clusters)
        keys, fields = self._labels(data, t, clustering, leaders)
        return _pooled_run(self.name, data, stratum, t, leaders, fitted, keys, **fields)

    def _use_season(self, data: SeasonData) -> None:
        """Drop what was kept for another ``SeasonData``."""
        if data is not self._season:
            self._season, self._fits = data, {}

    def _fit_week(self, t: int) -> int | None:
        """The week whose fit weighs week t's clusters: t, or None for the
        static fit on the prior seasons."""
        return None if self.pooling == "static" else t

    def _alpha(self, data: SeasonData, t: int | None) -> float | None:
        """Dirichlet concentration of the weight fit for week t: flat for a
        fit on prior seasons (t None), the tempering ``AdaptivePrior``
        within the season, and None when the weights are equal without a
        fit: under equal pooling, and at week one, when nothing is scored."""
        if self.pooling == "equal":
            return None
        if t is None:
            return 1.0
        return None if t == 1 else AdaptivePrior(t, data.n_weeks, self.delta).concentration

    def _fitted(self, data: SeasonData, stratum, t: int, partition) -> np.ndarray:
        """Week t's weights of the clusters of ``partition``: equal when
        ``_alpha`` asks for no fit, else the fit kept under (stratum, fitted
        week, partition) before any run was pooled. Nothing here fits."""
        week = self._fit_week(t)
        if self._alpha(data, week) is None:
            return np.full(len(partition), 1.0 / len(partition))
        return self._fits[stratum, week, partition]

    def _prefit(self, data: SeasonData, t: int) -> None:
        """Make, with ``_fit_all``, every weight fit week t's runs read from
        ``_fits``: that of each stratum with a submission at t, unless an
        earlier week or a replay made it. A fit on the prior seasons fits
        their masses, any other its partition's past masses."""
        week = self._fit_week(t)
        if self._alpha(data, week) is None:
            return
        problems = {}
        for stratum in data.stratum_keys():
            if data.strata[stratum].sub[t].any():
                clustering = self._partition(data, stratum, t)
                key = (stratum, week, clustering.clusters)
                if key not in self._fits:
                    problems[key] = (stratum, data.prior_mass_matrix(stratum) if week is None
                                     else data.cluster_mass_matrix(stratum, clustering, t))
        self._fit_all(data, week, problems)

    def _keep(self, data: SeasonData, key, stratum, fitted_for: str, fit: WeightFit) -> None:
        """Keep ``fit``'s weights under ``key``, logged when the fit stopped
        at the EM iteration cap unconverged."""
        if not fit.converged:
            region, target = stratum
            _log.warning(
                "%s: EM fit did not converge (season %d, %s target %d, %s, K=%d, n_iter=%d)",
                self.name, data.season, region, target, fitted_for, fit.weights.size, fit.n_iter,
            )
        self._fits[key] = fit.weights

    def _fit_all(self, data: SeasonData, t: int | None, problems) -> None:
        """Fit the week-t ``problems`` (t None: the prior seasons),
        ``{key: (stratum, mass matrix)}``, under ``_alpha`` into ``_fits``.
        Problems of equal shape after the zero-row filter share one
        ``em_pool_weights_batch`` call, which is bit-identical to their solo
        fits; a problem alone in its shape is a solo ``em_pool_weights``
        fit."""
        alpha = self._alpha(data, t)
        fitted_for = "prior seasons" if t is None else f"week {t}"
        groups: dict[tuple[int, int], list] = {}
        for key, (_, f) in problems.items():
            shape = (np.count_nonzero(f.sum(axis=1) > 0.0), f.shape[1])
            groups.setdefault(shape, []).append(key)
        for keys in groups.values():
            if len(keys) == 1:
                fits = [em_pool_weights(problems[keys[0]][1], alpha=alpha)]
            else:
                fits = em_pool_weights_batch([(problems[key][1], alpha) for key in keys])
            for key, fit in zip(keys, fits):
                self._keep(data, key, problems[key][0], fitted_for, fit)


class EqualVariant(_VariantBase):
    """Equal weights over every component that submitted this week."""

    name = pooling = "equal"


class StaticVariant(_VariantBase):
    """Weights fit once per season on all prior seasons, then frozen.

    With no prior seasons the fit degenerates to equal weights.
    """

    name = pooling = "static"


class AdaptiveVariant(_VariantBase):
    """Weights refit each week on the season so far, tempered toward equal
    by a Dirichlet penalty that relaxes as the season ages."""

    name = pooling = "adaptive"

    def __init__(self, delta: float = 5.0) -> None:
        super().__init__()
        self.delta = delta


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
        super().__init__()
        self.pooling = pooling
        self.phi_grid = tuple(sorted(float(p) for p in phi_grid))
        if not self.phi_grid or len(set(self.phi_grid)) < len(self.phi_grid):
            raise ValueError(f"phi grid {list(self.phi_grid)} is empty or has duplicates")
        self.delta = delta
        # (stratum, week) -> replayed log score per grid phi, or None when
        # nobody submitted that week.
        self._rows: dict[tuple, list[float] | None] = {}
        # week -> the threshold select_phi picked for it.
        self._picks: dict[int, float] = {}

    @property
    def name(self) -> str:
        return f"cap-{self.pooling}"

    def _use_season(self, data: SeasonData) -> None:
        if data is not self._season:
            super()._use_season(data)
            self._rows, self._picks = {}, {}

    # -- pooling over cluster forecasts --------------------------------

    def _pool(
        self, data: SeasonData, stratum, t: int, phi: float
    ) -> tuple[Clustering, np.ndarray, np.ndarray]:
        """The inputs of week t's pool of the cluster leaders at threshold
        phi: the partition, each cluster's leader (roster index, -1 for
        none) and each cluster's weight. t must have a submission, so the
        submitter's cluster always has a leader. Adaptive weights are the
        fits ``_replay`` or ``_prefit`` kept."""
        clustering = data.clusters(stratum, t, phi, self.phi_grid)
        leaders = data.leaders(stratum, clustering, [t])[0]
        return clustering, leaders, self._fitted(data, stratum, t, clustering.clusters)

    # -- threshold selection -------------------------------------------

    def _replay(self, data: SeasonData, weeks) -> None:
        """Replay each (stratum, week) in ``weeks`` and store its score row:
        every grid phi's replayed log score, scoring each distinct partition
        once at its first phi. The log score of a linear pool is the log of
        its weighted truth-bin mass, so a replay reads the leaders' masses
        and pools no pmf.

        With adaptive pooling, the fits these partitions need that no
        published week made are solved first, in walk order, in one
        ``em_pool_weights_batch`` call."""
        walked = []
        pending: dict[tuple, tuple[np.ndarray, float]] = {}
        for stratum, j in weeks:
            if not data.strata[stratum].sub[j].any():
                self._rows[stratum, j] = None
                continue
            partitions = [data.clusters(stratum, j, phi, self.phi_grid) for phi in self.phi_grid]
            first: dict[tuple, Clustering] = {}
            for clustering in partitions:
                first.setdefault(clustering.clusters, clustering)
            walked.append((stratum, j, partitions, first))
            if (alpha := self._alpha(data, j)) is not None:
                for partition, clustering in first.items():
                    if (stratum, j, partition) not in self._fits:
                        f = data.cluster_mass_matrix(stratum, clustering, j)
                        pending[stratum, j, partition] = (f, alpha)
        if pending:
            fits = em_pool_weights_batch(list(pending.values()))
            for key, fit in zip(pending, fits):
                self._keep(data, key, key[0], f"week {key[1]}", fit)
        for stratum, j, partitions, first in walked:
            mass = data.strata[stratum].mass[j]
            scores = {}
            for partition, clustering in first.items():
                _, leaders, fitted = self._pool(data, stratum, j, clustering.phi)
                present = np.flatnonzero(leaders >= 0)
                scores[partition] = floored_log(
                    renormalized(fitted, present) @ mass[leaders[present]]
                )
            self._rows[stratum, j] = [scores[c.clusters] for c in partitions]

    def select_phi(self, data: SeasonData, t: int) -> float:
        """Threshold for week t: 1/2 on week one, afterwards the candidate
        whose replayed ensembles scored best on the season so far. Means
        within ``_PICK_TOLERANCE`` of the best are tied, and a tie goes to
        the smaller value.

        A single-candidate grid is a pinned threshold: it applies from week
        one, since no data-driven selection is happening at all.

        Weeks scored by t that have no score row yet are replayed first. The
        mean is taken over the rows of every week scored by t that had a
        submission, strata in ``stratum_keys()`` order and weeks ascending,
        so calls made out of order or repeated give the same answer. The
        pick is kept, so the week's other strata only look it up. It is
        logged at INFO on ``cappool.phi`` with the runner-up and the margin
        between their mean scores, and says so when the tolerance, not the
        larger mean, decided it.
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
        if not rows:
            self._picks[t] = _INITIAL_PHI
            return _INITIAL_PHI
        means = [np.mean(scores) for scores in np.array(rows).T]
        top = int(np.argmax(means))
        best = next(k for k, m in enumerate(means) if m >= means[top] - _PICK_TOLERANCE)
        self._picks[t] = self.phi_grid[best]
        if _phi_log.isEnabledFor(logging.INFO):
            # The runner-up is the best of the rest, ties to the smaller phi.
            rest = [k for k in range(len(means)) if k != best]
            runner_up = max(rest, key=lambda k: (means[k], -k))
            tied = "" if best == top else (
                f"; phi {self.phi_grid[top]!r} has the larger mean, but within the "
                f"{_PICK_TOLERANCE:g} tie tolerance"
            )
            _phi_log.info(
                "%s: season %d week %d picks phi %r; runner-up phi %r, "
                "%.6g lower in mean log score%s",
                self.name, data.season, t, self.phi_grid[best], self.phi_grid[runner_up],
                means[best] - means[runner_up], tied,
            )
        return self._picks[t]

    # -- weekly run ------------------------------------------------------

    def _partition(self, data: SeasonData, stratum, t: int) -> Clustering:
        """Week t's partition at the threshold ``select_phi`` picks."""
        return data.clusters(stratum, t, self.select_phi(data, t), self.phi_grid)

    def _labels(self, data: SeasonData, t: int, clustering, leaders):
        """Clusters are keyed c1, c2, ...; a run records the week's phi and,
        when anyone submitted, the partition and its leaders."""
        fields = {"phi": self.select_phi(data, t)}
        if clustering is None:
            return (), fields
        named = tuple(data.roster[c] if c >= 0 else None for c in leaders.tolist())
        fields.update(clusters=clustering.clusters, leaders=named, n_clusters=clustering.n_clusters)
        return [f"c{i + 1}" for i in range(clustering.n_clusters)], fields


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
