"""Redundancy and identifiability diagnostics.

Restart dispersion exposes flat likelihood ridges: when two components carry
near-identical densities, random restarts converge to visibly different
weight vectors at indistinguishable likelihoods. The variance-divergence
curve shows how pooling similar components shrinks ensemble variance, and
the trajectory summary tracks cluster counts and weight entropy relative to
the epidemic peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleRun
from .epiweek import Epiweek, season_weeks
from .panel import TruthTable
from .pmf import MixtureComponent, mixture_variance
from .pool import em_pool_weights, truth_bin_masses

__all__ = [
    "RestartDraw",
    "RestartReport",
    "restart_dispersion",
    "variance_vs_kl_curve",
    "likelihood_surface",
    "TrajectoryPoint",
    "cluster_trajectory",
    "peak_week",
]

FIG_MEAN_GRID = tuple(0.75 + 0.05 * k for k in range(16))


@dataclass(frozen=True)
class RestartDraw:
    init_weights: np.ndarray
    weights: np.ndarray
    log_likelihood: float


@dataclass(frozen=True)
class RestartReport:
    """Converged weight fits from random simplex starts plus dispersion."""

    draws: tuple[RestartDraw, ...]
    weight_std: np.ndarray
    likelihood_spread: float
    degenerate: bool


def restart_dispersion(F, y, n_restarts: int, seed: int) -> RestartReport:
    """Fit pool weights from many random starts and report the scatter.

    High weight dispersion combined with a near-zero likelihood spread is
    the signature of a non-identifiable (redundant) component set.
    """
    if n_restarts < 2:
        raise ValueError("need at least two restarts")
    f = truth_bin_masses(F, y)
    usable = f[f.sum(axis=1) > 0.0]
    n_models = f.shape[1]
    rng = np.random.default_rng(seed)
    draws = []
    degenerate = usable.shape[0] == 0
    for _ in range(n_restarts):
        init = rng.dirichlet(np.ones(n_models))
        # Keep the start strictly interior so the likelihood is defined.
        init = np.maximum(init, 1e-12)
        init = init / init.sum()
        if degenerate:
            fit_w, ll = init, 0.0
        else:
            result = em_pool_weights(usable, init=init)
            fit_w, ll = result.weights, result.log_posterior
        draws.append(RestartDraw(init, fit_w, float(ll)))
    converged = np.array([d.weights for d in draws])
    lls = np.array([d.log_likelihood for d in draws])
    return RestartReport(
        draws=tuple(draws),
        weight_std=converged.std(axis=0),
        likelihood_spread=float(lls.max() - lls.min()),
        degenerate=degenerate,
    )


def variance_vs_kl_curve(
    mean_grid=FIG_MEAN_GRID, sigma: float = 1.0, weight: float = 0.5, base_mean: float = 0.75
) -> list[tuple[float, float, float]]:
    """Pool variance as a second component's mean slides away from the first.

    For each mean on the grid, pairs the closed-form Gaussian divergence
    (delta^2 / 2 sigma^2) with the variance of the equally weighted two-
    component mixture. Returns (mean, kl, variance) rows.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    rows = []
    for mu in mean_grid:
        kl = (base_mean - mu) ** 2 / (2.0 * sigma**2)
        components = [
            MixtureComponent(base_mean, sigma**2, weight),
            MixtureComponent(float(mu), sigma**2, 1.0 - weight),
        ]
        rows.append((float(mu), float(kl), mixture_variance(components)))
    return rows


def likelihood_surface(F, y, resolution: int = 50) -> list[tuple[float, float, float]]:
    """Mixture log-likelihood over a weight grid for a three-model pool.

    Evaluates (w1, w2, 1 - w1 - w2) on a simplex lattice; useful for
    visualising ridge flatness without a Hessian.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    f = truth_bin_masses(F, y)
    if f.shape[1] != 3:
        raise ValueError("surface grid is defined for exactly three models")
    f = f[f.sum(axis=1) > 0.0]
    rows = []
    for i in range(resolution + 1):
        w1 = i / resolution
        for j in range(resolution + 1 - i):
            w2 = j / resolution
            pi = np.array([w1, w2, 1.0 - w1 - w2])
            mix = f @ pi
            ll = float(np.log(mix).sum()) if np.all(mix > 0.0) else -math.inf
            rows.append((w1, w2, ll))
    return rows


def peak_week(truth: TruthTable, region: str, season: int) -> Epiweek | None:
    """Week of maximum observed wILI within a season; ties go earlier."""
    best, best_value = None, -math.inf
    for week in season_weeks(season):
        value = truth.wili(region, week)
        if value is not None and value > best_value:
            best, best_value = week, value
    return best


@dataclass(frozen=True)
class TrajectoryPoint:
    weeks_from_peak: int
    mean_clusters: float
    mean_entropy: float
    n: int


def cluster_trajectory(runs: list[EnsembleRun], truth: TruthTable) -> list[TrajectoryPoint]:
    """Cluster counts and percent entropy aligned on weeks from the peak.

    Offsets are issue week minus the region's peak week for that season;
    strata whose season/region peak cannot be identified are skipped. Only
    offsets actually present appear; nothing is imputed.
    """
    peaks: dict[tuple[str, int], Epiweek | None] = {}
    buckets: dict[int, list[tuple[float, float]]] = {}
    for run in runs:
        if run.n_clusters is None or run.entropy is None:
            continue
        key = (run.region, run.season)
        if key not in peaks:
            peaks[key] = peak_week(truth, run.region, run.season)
        peak = peaks[key]
        if peak is None:
            continue
        offset = Epiweek.from_int(run.issue_week).diff(peak)
        buckets.setdefault(offset, []).append((float(run.n_clusters), run.entropy))
    points = []
    for offset in sorted(buckets):
        values = buckets[offset]
        points.append(
            TrajectoryPoint(
                weeks_from_peak=offset,
                mean_clusters=float(np.mean([v[0] for v in values])),
                mean_entropy=float(np.mean([v[1] for v in values])),
                n=len(values),
            )
        )
    return points
