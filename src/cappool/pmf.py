"""Fixed 131-bin percent-ILI grid and probability-mass-function arithmetic.

The grid covers [0, 100]: bins ``[0.1*i, 0.1*(i+1))`` for i = 0..129 plus a
final closed bin [13.0, 100.0]. Left-closed/right-open applies uniformly to
forecasts and truth; a value exactly on 13.0 therefore lands in the last bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "N_BINS",
    "BIN_EDGES",
    "BIN_WIDTH",
    "bin_index",
    "normalize_pmf",
    "normalize_pmfs",
    "linear_pool",
    "MixtureComponent",
    "mixture_variance",
    "gaussian_pmf",
]

N_BINS = 131
BIN_WIDTH = 0.1
BIN_EDGES = np.array([i * BIN_WIDTH for i in range(N_BINS)] + [100.0])

# Values this close (in tenths) below a bin edge are snapped onto the edge,
# absorbing float representation noise in reported one-decimal truths.
_EDGE_SNAP = 1e-9

# Input rows may carry rounding noise; sums inside this band renormalize
# silently, anything further off is treated as a corrupt submission.
_SUM_TOLERANCE = 0.1


class MalformedPmfError(ValueError):
    """Probability vector is negative, mis-sized, or far from unit mass.

    ``row`` is the index of the offending row when a stack of pmfs was checked.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def bin_index(ili: float) -> int:
    """Map a percent-ILI value in [0, 100] to its bin index 0..130."""
    if not 0.0 <= ili <= 100.0:
        raise ValueError(f"percent ILI {ili} outside [0, 100]")
    tenths = ili * 10.0
    idx = math.floor(tenths)
    if tenths - idx > 1.0 - _EDGE_SNAP:
        idx += 1
    return min(idx, N_BINS - 1)


def normalize_pmf(raw) -> np.ndarray:
    """Validate a 131-entry probability vector and scale it to unit mass."""
    probs = np.asarray(raw, dtype=float)
    if probs.shape != (N_BINS,):
        raise MalformedPmfError(f"expected {N_BINS} probabilities, got shape {probs.shape}")
    return normalize_pmfs(probs[np.newaxis])[0]


def normalize_pmfs(rows) -> np.ndarray:
    """``normalize_pmf`` of every row of an (n, 131) array, in one pass.

    The first bad row raises the error ``normalize_pmf`` raises for it, with
    the row's index in ``MalformedPmfError.row``. Row sums and quotients are
    bit-identical to the one-row computation.
    """
    probs = np.asarray(rows, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != N_BINS:
        raise MalformedPmfError(f"expected (n, {N_BINS}) probabilities, got shape {probs.shape}")
    totals = probs.sum(axis=1)
    signed = (probs >= 0.0).all(axis=1)  # false for nan; an inf makes the sum inf
    massed = ((1.0 - _SUM_TOLERANCE) <= totals) & (totals <= (1.0 + _SUM_TOLERANCE))
    bad = ~(signed & massed)
    if bad.any():
        i = int(bad.argmax())
        if not np.isfinite(probs[i]).all():
            reason = "non-finite probability entry"
        elif not signed[i]:
            reason = "negative probability entry"
        else:
            reason = f"probabilities sum to {float(totals[i]):.6f}, outside tolerance"
        raise MalformedPmfError(reason, row=i)
    return probs / totals[:, np.newaxis]


def linear_pool(pmfs, weights) -> np.ndarray:
    """Convex combination of binned pmfs under simplex weights."""
    arr = np.asarray(pmfs, dtype=float)
    w = np.asarray(weights, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != N_BINS:
        raise ValueError(f"pmfs must be (n, {N_BINS}), got {arr.shape}")
    if w.shape != (arr.shape[0],):
        raise ValueError(f"{arr.shape[0]} pmfs but {w.shape} weights")
    if arr.shape[0] < 1:
        raise ValueError("need at least one pmf")
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be non-negative and sum to 1")
    return w @ arr


@dataclass(frozen=True)
class MixtureComponent:
    """One mixture component: location, spread, and pool weight."""

    mean: float
    variance: float
    weight: float

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError("variance must be >= 0")
        if self.weight < 0.0:
            raise ValueError("weight must be >= 0")


def mixture_variance(components: list[MixtureComponent]) -> float:
    """Variance of a mixture: weighted spread plus between-mean dispersion.

    Always at least the weighted average of component variances (Jensen);
    equality holds exactly when all means coincide.
    """
    if not components:
        raise ValueError("empty component list")
    w = np.array([c.weight for c in components])
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("component weights must sum to 1")
    mu = np.array([c.mean for c in components])
    var = np.array([c.variance for c in components])
    return float(w @ var + w @ (mu**2) - (w @ mu) ** 2)


def gaussian_pmf(mean: float, sd: float) -> np.ndarray:
    """Discretize a normal density onto the bin grid by CDF differencing.

    Tail mass outside [0, 100] folds into the end bins so total mass is
    conserved exactly.
    """
    if sd <= 0.0:
        raise ValueError("sd must be > 0")
    z = (BIN_EDGES - mean) / (sd * math.sqrt(2.0))
    cdf = np.array([0.5 * (1.0 + math.erf(v)) for v in z])
    cdf[0] = 0.0
    cdf[-1] = 1.0
    return normalize_pmf(np.diff(cdf))
