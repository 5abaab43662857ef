"""Simplex weight estimation for linear opinion pools.

The maximum-likelihood weights come from an EM fixed point on the mixture
likelihood of truth-bin probabilities; the adaptive variant adds a symmetric
Dirichlet penalty whose concentration decays over the season so early weeks
stay close to uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pmf import bin_index, linear_pool
from .validation import ParamsMixin, check_forecast_array, check_truths

__all__ = [
    "WeightFit",
    "AdaptivePrior",
    "em_pool_weights",
    "em_pool_weights_batch",
    "truth_bin_masses",
    "renormalized",
    "EqualPool",
    "StaticPool",
    "AdaptivePool",
]

EM_TOL = 1e-8
EM_MAX_ITER = 10_000


@dataclass(frozen=True)
class WeightFit:
    """Converged simplex weights plus fit metadata."""

    weights: np.ndarray
    n_iter: int
    converged: bool
    log_posterior: float
    degenerate: bool = False


@dataclass(frozen=True)
class AdaptivePrior:
    """Week-indexed symmetric Dirichlet concentration schedule.

    Concentration is 1 + delta * (T - t) / T: strong tempering toward equal
    weights early in the season, fading to a flat prior by the final week.
    Always >= 1, so the MAP update never clips at zero.
    """

    week_index: int
    season_weeks: int
    delta: float = 5.0

    def __post_init__(self) -> None:
        if self.week_index < 1:
            raise ValueError("week_index must be >= 1")
        if self.season_weeks < 1:
            raise ValueError("season_weeks must be >= 1")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError("delta must be finite and >= 0")

    @property
    def concentration(self) -> float:
        frac = (self.season_weeks - self.week_index) / self.season_weeks
        return 1.0 + self.delta * max(frac, 0.0)


def em_pool_weights(f, alpha: float = 1.0, init=None, max_iter: int = EM_MAX_ITER) -> WeightFit:
    """EM fixed point for mixture weights on the simplex.

    ``f[j, c]`` is the probability component c placed on the bin realized at
    observation j (0 when the component was missing). Observations where
    every component has zero mass are dropped; if nothing remains the
    likelihood is degenerate and equal weights are returned with a flag.

    The fit converges once no weight moves by ``EM_TOL`` or more in an
    iteration; after ``max_iter`` iterations it stops unconverged. The
    (penalized, for alpha > 1) objective is checked to be non-decreasing at
    every iteration. This is ``em_pool_weights_batch`` on one problem.
    """
    return em_pool_weights_batch([(f, alpha)], max_iter=max_iter, inits=[init])[0]


def _denominators(F: np.ndarray, pi: np.ndarray, row_pad) -> np.ndarray:
    denom = F @ pi.mT
    if row_pad is not None:
        denom += row_pad
    return denom


def _objectives(denom: np.ndarray, pi: np.ndarray, alpha_m1, shift) -> np.ndarray:
    obj = np.add.reduce(np.log(denom), axis=1)
    if alpha_m1 is not None:
        obj += alpha_m1 * np.add.reduce(np.log(pi if shift is None else pi + shift), axis=2)
    return obj


def em_pool_weights_batch(problems, max_iter: int = EM_MAX_ITER, inits=None) -> list[WeightFit]:
    """``em_pool_weights`` for many ``(f, alpha)`` problems in one EM loop.

    ``inits`` optionally gives each problem's start (None: equal weights).
    The problems are padded into one ``(P, n_obs, K)`` array. Padded rows get
    a unit denominator, so they add nothing to the responsibilities or the
    log-likelihood; padded columns keep zero weight, get no Dirichlet mass and
    no ``log pi`` term. Each problem keeps its own convergence test and leaves
    the working arrays at the iteration where its solo fit would stop. The
    monotone-objective guard is checked per problem and names the one that
    failed.

    A batch whose problems share ``(n_obs after the zero-row filter, K)``
    needs no padding, and each of its fits is bit-identical to the solo fit
    (weights, ``log_posterior``, ``n_iter`` and ``converged``), whatever the
    mix of concentrations. Only padding regroups sums: a problem padded to a
    larger shape may differ from its solo fit in the last bits.
    """
    fits: list[WeightFit | None] = [None] * len(problems)
    live = []
    for p, ((f, alpha), init) in enumerate(zip(problems, inits or [None] * len(problems))):
        f = np.asarray(f, dtype=float)
        if f.ndim != 2:
            raise ValueError(f"expected (n_obs, n_models) mass matrix, got {f.shape}")
        if np.any(f < 0.0):
            raise ValueError("mass matrix has negative entries")
        if alpha < 1.0:
            raise ValueError("concentration must be >= 1")
        n_models = f.shape[1]
        if n_models < 1:
            raise ValueError("need at least one model")
        equal = np.full(n_models, 1.0 / n_models)
        f = f[f.sum(axis=1) > 0.0]
        if f.shape[0] == 0:
            fits[p] = WeightFit(equal, 0, True, 0.0, degenerate=True)
            continue
        if init is None:
            pi = equal
        else:
            pi = np.asarray(init, dtype=float)
            if pi.shape != (n_models,) or np.any(pi <= 0.0) or abs(pi.sum() - 1.0) > 1e-9:
                raise ValueError("init must be an interior simplex point")
        live.append((p, f, float(alpha), pi))
    if not live:
        return fits

    owner = [p for p, _, _, _ in live]
    rows = [f.shape[0] for _, f, _, _ in live]
    sizes = [f.shape[1] for _, f, _, _ in live]
    alphas = [alpha for _, _, alpha, _ in live]
    F = np.zeros((len(live), max(rows), max(sizes)))
    pi = np.zeros((len(live), 1, max(sizes)))
    for r, (_, f, _, start) in enumerate(live):
        F[r, : rows[r], : sizes[r]] = f
        pi[r, 0, : sizes[r]] = start
    alpha_m1 = prior_mass = shift = row_pad = None
    if max(alphas) != 1.0:
        alpha_m1 = np.array(alphas)[:, None] - 1.0
        prior_mass = np.zeros_like(pi)
        for r, alpha in enumerate(alphas):
            prior_mass[r, 0, : sizes[r]] = alpha - 1.0
        if min(alphas) == 1.0 or min(sizes) < max(sizes):
            # log pi enters only over the real columns of penalized problems;
            # the shift turns every other entry into log(1) = 0 (with
            # alpha = 1 a weight may reach 0 exactly).
            shift = np.ones_like(pi)
            for r, alpha in enumerate(alphas):
                if alpha != 1.0:
                    shift[r, 0, : sizes[r]] = 0.0
    if min(rows) < max(rows):
        row_pad = np.zeros((len(live), max(rows), 1))
        for r, n in enumerate(rows):
            row_pad[r, n:, 0] = 1.0

    denom = _denominators(F, pi, row_pad)
    obj = _objectives(denom, pi, alpha_m1, shift)
    # The ufunc reductions are what .sum() and .max() call; skipping their
    # Python wrappers matters at these sizes, where call overhead dominates.
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        resp = F * pi
        resp /= denom
        mass = np.add.reduce(resp, axis=1, keepdims=True)
        if prior_mass is not None:
            mass += prior_mass
        new_pi = mass / np.add.reduce(mass, axis=2, keepdims=True)
        new_denom = _denominators(F, new_pi, row_pad)
        new_obj = _objectives(new_denom, new_pi, alpha_m1, shift)
        fell = new_obj < obj - 1e-9
        if np.count_nonzero(fell):
            r = int(np.argmax(fell))
            raise RuntimeError(
                f"EM objective decreased for problem {owner[r]} at iteration {n_iter}: "
                f"{obj[r, 0]} -> {new_obj[r, 0]}"
            )
        done = np.maximum.reduce(np.abs(new_pi - pi), axis=2) < EM_TOL
        pi, denom, obj = new_pi, new_denom, new_obj
        n_done = np.count_nonzero(done)
        if n_done:
            for r in np.flatnonzero(done):
                weights = pi[r, 0, : sizes[r]].copy()
                fits[owner[r]] = WeightFit(weights, n_iter, True, float(obj[r, 0]))
            if n_done == len(owner):
                break
            keep = ~done[:, 0]
            owner = [p for p, k in zip(owner, keep) if k]
            sizes = [s for s, k in zip(sizes, keep) if k]
            F, pi, denom, obj, prior_mass, row_pad, alpha_m1, shift = (
                None if a is None else a[keep]
                for a in (F, pi, denom, obj, prior_mass, row_pad, alpha_m1, shift)
            )
    else:
        for r, p in enumerate(owner):
            fits[p] = WeightFit(pi[r, 0, : sizes[r]].copy(), n_iter, False, float(obj[r, 0]))
    return fits


def truth_bin_masses(F, y) -> np.ndarray:
    """Per-observation probability each component placed on the truth bin.

    Missing forecasts contribute zero mass.
    """
    arr, available = check_forecast_array(F)
    truths = check_truths(y, arr.shape[0])
    bins = np.array([bin_index(t) for t in truths], dtype=np.intp)
    return np.where(available, arr[np.arange(bins.size), :, bins], 0.0)


def renormalized(weights, present) -> np.ndarray:
    """The weights of the ``present`` components (an index list or mask),
    rescaled to sum to 1; equal over them when they carry no weight at all."""
    w = np.asarray(weights)[present]
    total = w.sum()
    return w / total if total > 0.0 else np.full(w.size, 1.0 / w.size)


def _pool_rows(arr: np.ndarray, available: np.ndarray, weights: np.ndarray) -> np.ndarray:
    out = np.full((arr.shape[0], arr.shape[2]), np.nan)
    for j in range(arr.shape[0]):
        idx = np.flatnonzero(available[j])
        if idx.size:
            out[j] = linear_pool(arr[j, idx], renormalized(weights, idx))
    return out


class EqualPool(ParamsMixin):
    """Equal-weight linear pool over whichever components are present."""

    def fit(self, F, y=None):
        arr, _ = check_forecast_array(F)
        self.n_models_ = arr.shape[1]
        self.weights_ = np.full(self.n_models_, 1.0 / self.n_models_)
        return self

    def predict(self, F) -> np.ndarray:
        arr, available = check_forecast_array(F)
        return _pool_rows(arr, available, np.ones(arr.shape[1]))


class StaticPool(ParamsMixin):
    """Linear pool with maximum-likelihood weights fit once on past data."""

    # Maximum likelihood is the penalized fit under a flat Dirichlet prior.
    concentration = 1.0

    def __init__(self, max_iter: int = EM_MAX_ITER):
        self.max_iter = max_iter

    def fit(self, F, y):
        result = em_pool_weights(
            truth_bin_masses(F, y), alpha=self.concentration, max_iter=self.max_iter
        )
        self.weights_ = result.weights
        self.n_iter_ = result.n_iter
        self.converged_ = result.converged
        self.degenerate_ = result.degenerate
        self.n_models_ = result.weights.shape[0]
        return self

    def predict(self, F) -> np.ndarray:
        arr, available = check_forecast_array(F)
        if arr.shape[1] != self.n_models_:
            raise ValueError(f"fitted for {self.n_models_} models, got {arr.shape[1]}")
        return _pool_rows(arr, available, self.weights_)


class AdaptivePool(StaticPool):
    """Linear pool with Dirichlet-penalized weights, refit as weeks accrue."""

    def __init__(self, concentration: float = 1.0, max_iter: int = EM_MAX_ITER):
        super().__init__(max_iter=max_iter)
        self.concentration = concentration
