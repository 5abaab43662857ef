"""Deterministic synthetic forecast archives for tests and demos.

Each (region, season) gets a latent epidemic curve; truth is the curve plus
observation noise, reported at one decimal. Component models forecast the
curve with configurable bias, spread, and week-to-week jitter. Oracle models
submit the exact generating density (useful for calibration checks) and
clones duplicate another model's forecasts bit for bit (useful for
redundancy and clustering checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .epiweek import season_length, season_weeks
from .panel import ForecastKey, TruthTable, _write_truth_csv, write_component_csv
from .pmf import gaussian_pmf

__all__ = ["ModelSpec", "synthetic_archive", "write_synthetic_archive", "DEFAULT_MODELS"]


@dataclass(frozen=True)
class ModelSpec:
    name: str
    bias: float = 0.0
    sd: float = 0.6
    jitter: float = 0.0
    oracle: bool = False
    clone_of: str | None = None


DEFAULT_MODELS = (
    ModelSpec("m1", bias=0.0, sd=0.5, jitter=0.1),
    ModelSpec("m2", clone_of="m1"),
    ModelSpec("m3", bias=0.4, sd=0.8, jitter=0.2),
    ModelSpec("m4", bias=-0.3, sd=0.7, jitter=0.2),
    ModelSpec("m5", bias=0.0, sd=1.2, jitter=0.3),
)


def synthetic_archive(
    models=DEFAULT_MODELS,
    seasons=(2010, 2011),
    regions=("Nat", "HHS1"),
    targets=(1, 2),
    seed: int = 0,
    missing_rate: float = 0.0,
    truth_noise: float = 0.25,
) -> tuple[dict[ForecastKey, np.ndarray], TruthTable]:
    """Generate an aligned synthetic archive as (fragment, truth table)."""
    rng = np.random.default_rng(seed)
    specs = {m.name: m for m in models}
    for m in models:
        if m.clone_of is not None and m.clone_of not in specs:
            raise ValueError(f"{m.name} clones unknown model {m.clone_of}")
    horizon = max(targets)
    truth = TruthTable()
    fragment: dict[ForecastKey, np.ndarray] = {}

    for season in sorted(seasons):
        weeks = season_weeks(season)
        n = season_length(season)
        extended = weeks + [weeks[-1].add_weeks(k) for k in range(1, horizon + 1)]
        for region in regions:
            base = rng.uniform(0.8, 1.4)
            amp = rng.uniform(2.5, 5.0)
            peak = rng.uniform(0.45 * n, 0.65 * n)
            width = rng.uniform(3.0, 5.0)
            centers = np.array(
                [
                    base + amp * math.exp(-((i - peak) ** 2) / (2.0 * width**2))
                    for i in range(1, len(extended) + 1)
                ]
            )
            observed = np.clip(centers + rng.normal(0.0, truth_noise, centers.size), 0.1, 12.8)
            for week, value in zip(extended, observed):
                truth.add(region, week, round(float(value), 1))
            for i, week in enumerate(weeks, start=1):
                originals: dict[tuple[str, int], np.ndarray] = {}
                for spec in models:
                    if spec.clone_of is not None:
                        continue
                    for target in sorted(targets):
                        center = centers[i - 1 + target]
                        if spec.oracle:
                            pmf = gaussian_pmf(center, max(truth_noise, 0.05))
                        else:
                            wobble = rng.normal(0.0, spec.jitter) if spec.jitter else 0.0
                            pmf = gaussian_pmf(center + spec.bias + wobble, spec.sd)
                        originals[(spec.name, target)] = pmf
                for spec in models:
                    source = spec.clone_of or spec.name
                    for target in sorted(targets):
                        if missing_rate > 0.0 and rng.random() < missing_rate:
                            continue
                        key = ForecastKey(region, target, spec.name, week)
                        fragment[key] = originals[(source, target)]
    return fragment, truth


def write_synthetic_archive(directory, **kwargs) -> tuple[Path, Path]:
    """Write a synthetic archive as canonical forecasts.csv plus truth.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fragment, truth = synthetic_archive(**kwargs)
    forecasts_path = directory / "forecasts.csv"
    with open(forecasts_path, "w", newline="") as fh:
        write_component_csv(fh, fragment)
    truth_path = directory / "truth.csv"
    _write_truth_csv(truth_path, truth)
    return forecasts_path, truth_path
