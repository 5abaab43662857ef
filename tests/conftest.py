import os

import numpy as np
import pytest
from hypothesis import settings

from cappool.pmf import N_BINS

# CI runs every property test on the same examples and without deadlines, so
# a failure there replays exactly and a slow runner does not fail a test.
# GitHub Actions sets CI; local runs keep hypothesis's default profile.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def point_mass(bin_idx: int) -> np.ndarray:
    pmf = np.zeros(N_BINS)
    pmf[bin_idx] = 1.0
    return pmf


def random_pmf(rng) -> np.ndarray:
    raw = rng.dirichlet(np.full(N_BINS, 0.3))
    return raw / raw.sum()


# Truths on Brier cutpoints (both orientations flip there), between them,
# above the last cutpoint and at the ends of the valid range.
EDGE_TRUTHS = [0.0, 0.05, 0.1, 2.0, 5.55, 9.95, 10.0, 10.05, 13.0, 100.0]


def pmf_rows(seed: int, n: int) -> list[np.ndarray]:
    """n unnormalized pmfs holding exact zeros and subnormal entries."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(N_BINS, 0.3), size=n)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[rng.random(rows.shape) < 0.05] = 5e-324
    rows[rng.random(rows.shape) < 0.05] = 2.5e-310
    return list(rows)
