"""Proper scores, calibration measures, and divergence diagnostics.

All functions are pure and deterministic: identical inputs give bit-identical
outputs, so cells may be scored in parallel and reduced in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pmf import bin_index

__all__ = [
    "LOG_SCORE_FLOOR",
    "BRIER_THRESHOLDS",
    "ScoreRecord",
    "floored_log",
    "log_score",
    "pit_value",
    "brier_score",
    "brier_matrix",
    "brier_integral",
    "pit_calibration_auc",
    "kl_divergence",
    "pairwise_kl_matrix",
    "median_log_score",
    "sorted_medians",
    "sorted_quantiles",
]

LOG_SCORE_FLOOR = -10.0

# Brier cutpoints: 0.0 to 10.0 percent ILI in 0.1 steps.
BRIER_THRESHOLDS = np.array([k / 10 for k in range(101)])

_KL_EPSILON = 1e-10


@dataclass(frozen=True)
class ScoreRecord:
    """Evaluation of one forecast against one realized truth."""

    variant: str
    region: str
    target: int
    issue_week: int
    target_week: int
    log_score: float
    pit: float
    brier_integral: float


def floored_log(p: float) -> float:
    """Natural log of a probability, floored at -10 (zero mass scores -10)."""
    if p <= 0.0:
        return LOG_SCORE_FLOOR
    return max(math.log(p), LOG_SCORE_FLOOR)


def log_score(pmf, truth: float) -> float:
    """Natural log of the probability on the realized bin, floored at -10."""
    return floored_log(float(np.asarray(pmf)[bin_index(truth)]))


def pit_value(pmf, truth: float) -> float:
    """Cumulative probability through the realized bin, inclusive.

    A pooled pmf can sum to a hair above 1, so a truth in the top bin would
    otherwise give a PIT above 1; the value is clamped to 1.
    """
    return min(float(np.asarray(pmf)[: bin_index(truth) + 1].sum()), 1.0)


def _cdf_at_threshold(pmf, x: float) -> float:
    # Cumulative mass through the bin whose upper edge is x; x is a multiple
    # of 0.1, so that bin count is simply x/0.1.
    k = int(round(x * 10.0))
    if abs(x * 10.0 - k) > 1e-9:
        raise ValueError(f"threshold {x} not on the 0.1-step grid")
    if not 0 <= k <= 100:
        raise ValueError(f"threshold {x} outside [0, 10]")
    return float(np.asarray(pmf)[:k].sum())


def brier_score(pmf, truth: float, x: float, strict_orientation: bool = False) -> float:
    """Squared gap between the forecast CDF at cutpoint x and the outcome.

    The default outcome event is ``truth <= x`` so the threshold integral
    matches a CRPS-style decomposition. ``strict_orientation`` flips the
    event to ``x < truth`` for callers that want the reversed pairing.
    """
    if not 0.0 <= truth <= 100.0:
        raise ValueError(f"percent ILI {truth} outside [0, 100]")
    f = _cdf_at_threshold(pmf, x)
    event = (x < truth) if strict_orientation else (truth <= x)
    return (f - float(event)) ** 2


def brier_matrix(pmfs, truths, strict_orientation: bool = False) -> np.ndarray:
    """Brier scores of many forecasts at every cutpoint, as an (n, 101) array.

    Cell ``[i, k]`` equals ``brier_score(pmfs[i], truths[i],
    BRIER_THRESHOLDS[k], strict_orientation)`` bit for bit, and a truth
    outside [0, 100] raises the same ValueError, naming the first such truth.

    Two details keep the bits. Each CDF column is ``P[:, :k].sum(axis=1)``
    over a C-contiguous stack, which adds every row in the order
    ``pmf[:k].sum()`` does; a ``cumsum`` adds in another order. And the
    scalar ``(f - e) ** 2`` on Python floats calls the C library's ``pow``,
    which is not always correctly rounded, so it can differ in the last bit
    from ``d * d``, which ``np.square`` and ``np.power`` compute. The square
    here is ``np.float_power(d, 2.0)``, which calls the same ``pow``.
    """
    values = np.asarray(truths, dtype=float)
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 100.0)))
    if bad.size:
        raise ValueError(f"percent ILI {truths[bad[0]]} outside [0, 100]")
    if not len(pmfs):
        return np.empty((0, BRIER_THRESHOLDS.size))
    stack = np.stack([np.asarray(p, dtype=float) for p in pmfs])
    cdf = np.empty((len(stack), BRIER_THRESHOLDS.size))
    for k in range(BRIER_THRESHOLDS.size):
        cdf[:, k] = stack[:, :k].sum(axis=1)
    if strict_orientation:
        event = BRIER_THRESHOLDS[None, :] < values[:, None]
    else:
        event = values[:, None] <= BRIER_THRESHOLDS[None, :]
    return np.float_power(cdf - event.astype(float), 2.0)


def brier_integral(pmf, truth: float, strict_orientation: bool = False) -> float:
    """Riemann sum of the Brier score over the 101-point cutpoint grid."""
    arr = np.asarray(pmf, dtype=float)
    cdf = np.concatenate(([0.0], np.cumsum(arr[:100])))
    if strict_orientation:
        event = (BRIER_THRESHOLDS < truth).astype(float)
    else:
        event = (truth <= BRIER_THRESHOLDS).astype(float)
    return float(((cdf - event) ** 2).sum() * 0.1)


def pit_calibration_auc(pits) -> float:
    """Area between the empirical CDF of PIT values and the identity line.

    Exact piecewise integral over [0, 1] with breakpoints at each sorted
    observation; 0 is perfectly calibrated.
    """
    values = sorted(float(p) for p in np.asarray(pits, dtype=float).ravel())
    if not values:
        raise ValueError("empty PIT sample")
    if values[0] < 0.0 or values[-1] > 1.0:
        raise ValueError("PIT values must lie in [0, 1]")
    n = len(values)
    # Segment boundaries where the ECDF steps, clipped to [0, 1].
    points = [0.0] + values + [1.0]
    area = 0.0
    for i in range(len(points) - 1):
        a, b = points[i], points[i + 1]
        if b <= a:
            continue
        g = i / n  # ECDF level on (a, b): observations 0..i-1 lie at or below a
        if g <= a:
            area += ((b - g) ** 2 - (a - g) ** 2) / 2.0
        elif g >= b:
            area += ((g - a) ** 2 - (g - b) ** 2) / 2.0
        else:
            area += ((g - a) ** 2 + (b - g) ** 2) / 2.0
    return area


def _smooth(pmf) -> np.ndarray:
    arr = np.asarray(pmf, dtype=float) + _KL_EPSILON
    return arr / arr.sum()


def kl_divergence(p, q) -> float:
    """Directed Kullback-Leibler divergence with epsilon smoothing.

    Both arguments get 1e-10 added per bin and are renormalized first, so
    exact zeros in submitted forecasts stay finite.
    """
    ps, qs = _smooth(p), _smooth(q)
    return float(np.sum(ps * np.log(ps / qs)))


def pairwise_kl_matrix(pmfs) -> np.ndarray:
    """Symmetrized KL divergence between every pair of pmfs; diagonal 0."""
    arr = [np.asarray(p, dtype=float) for p in pmfs]
    n = len(arr)
    if n < 2:
        raise ValueError("need at least two pmfs")
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = 0.5 * (kl_divergence(arr[i], arr[j]) + kl_divergence(arr[j], arr[i]))
            out[i, j] = out[j, i] = d
    return out


def median_log_score(scores) -> float:
    """Median of floored log scores; even counts use the central midpoint."""
    values = np.sort(np.asarray(list(scores), dtype=float))
    if values.size == 0:
        raise ValueError("empty score slice")
    return float(sorted_medians(values[None, :], np.array([values.size]))[0])


# Order statistics read off arrays that are already sorted, so one sort
# serves every statistic of a window. Each equals numpy's own function bit
# for bit (signed zeros aside, which sort as equals) without importing
# numpy.ma, which np.median and np.quantile load on their first call.


def sorted_medians(ordered: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.median`` of the first ``counts[i]`` entries of each row of
    ``ordered``, whose rows are sorted ascending (NaN last): the middle
    entry for an odd count, ``(a + b) / 2`` of the middle two for an even
    one. NaN for a count of 0 or when a counted entry is NaN."""
    if not ordered.shape[1]:
        return np.full(len(ordered), np.nan)
    rows = np.arange(len(ordered))
    low, high = ordered[rows, (counts - 1) // 2], ordered[rows, counts // 2]
    medians = np.where(counts % 2 == 1, high, (low + high) / 2)
    last = ordered[rows, np.maximum(counts - 1, 0)]
    return np.where((counts == 0) | np.isnan(last), np.nan, medians)


def sorted_quantiles(ordered: np.ndarray, qs) -> list[float]:
    """``np.quantile(ordered, qs)`` with numpy's default linear method, of
    a non-empty 1-D array sorted ascending (NaN last), for qs in [0, 1].

    The virtual index is ``(n - 1) * q``; an index at or past the top reads
    the last entry twice. The interpolation is numpy's ``_lerp``, which
    counts back from the upper entry when the fraction is at least 1/2.
    Every quantile is NaN when the array holds a NaN."""
    n = len(ordered)
    if math.isnan(ordered[-1]):
        return [math.nan] * len(qs)
    out = []
    for q in qs:
        index = (n - 1) * q
        if index >= n - 1:
            below = above = -1
        else:
            below = math.floor(index)
            above = below + 1
        a, b = ordered[below], ordered[above]
        t = index - below
        diff = b - a
        out.append(float(b - diff * (1 - t) if t >= 0.5 else a + diff * t))
    return out
