import numpy as np
import pytest

from cappool.diagnostics import (
    cluster_trajectory,
    likelihood_surface,
    peak_week,
    restart_dispersion,
    variance_vs_kl_curve,
)
from cappool.ensembles import EnsembleRun
from cappool.epiweek import season_weeks
from cappool.panel import TruthTable
from cappool.pmf import N_BINS, bin_index, gaussian_pmf

from conftest import point_mass


def _stack(rows):
    out = np.full((len(rows), len(rows[0]), N_BINS), np.nan)
    for j, row in enumerate(rows):
        for c, pmf in enumerate(row):
            if pmf is not None:
                out[j, c] = pmf
    return out


class TestRestartDispersion:
    def test_unique_optimum_has_no_dispersion(self):
        truths = [1.0, 2.0, 3.0, 1.5]
        rows = []
        for t in truths:
            covered = point_mass(bin_index(t))
            uncovered = point_mass(bin_index(t) + 40)
            rows.append([covered, uncovered])
        report = restart_dispersion(_stack(rows), np.array(truths), n_restarts=20, seed=5)
        for draw in report.draws:
            assert draw.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(report.weight_std < 1e-9)
        assert report.likelihood_spread < 1e-9

    def test_identical_models_show_flat_ridge(self):
        pmf = gaussian_pmf(2.0, 0.5)
        rows = [[pmf, pmf] for _ in range(8)]
        truths = np.array([1.6, 1.9, 2.1, 2.4, 1.8, 2.2, 2.0, 2.3])
        report = restart_dispersion(_stack(rows), truths, n_restarts=100, seed=7)
        assert report.likelihood_spread < 1e-6
        assert report.weight_std[0] > 0.1
        # the ridge conserves total weight
        for draw in report.draws:
            assert draw.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_same_seed_reproduces(self):
        pmf = gaussian_pmf(2.0, 0.5)
        rows = [[pmf, gaussian_pmf(2.5, 0.5)] for _ in range(5)]
        truths = np.array([2.0, 2.2, 2.4, 1.9, 2.5])
        a = restart_dispersion(_stack(rows), truths, n_restarts=4, seed=11)
        b = restart_dispersion(_stack(rows), truths, n_restarts=4, seed=11)
        for da, db in zip(a.draws, b.draws):
            assert np.array_equal(da.init_weights, db.init_weights)
            assert np.array_equal(da.weights, db.weights)

    def test_degenerate_flagged(self):
        rows = [[point_mass(5), point_mass(6)]]
        report = restart_dispersion(_stack(rows), np.array([9.0]), n_restarts=3, seed=1)
        assert report.degenerate

    def test_needs_two_restarts(self):
        with pytest.raises(ValueError):
            restart_dispersion(_stack([[point_mass(5)]]), np.array([0.5]), 1, 0)


class TestVarianceVsKlCurve:
    def test_zero_gap_point(self):
        rows = variance_vs_kl_curve([0.75])
        assert rows[0][1] == 0.0
        assert rows[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_unit_gap_point(self):
        rows = variance_vs_kl_curve([1.75])
        assert rows[0][1] == pytest.approx(0.5, abs=1e-12)
        assert rows[0][2] == pytest.approx(1.25, abs=1e-12)

    def test_monotone_and_affine_in_kl(self):
        grid = [0.75 + 0.05 * k for k in range(21)]
        rows = variance_vs_kl_curve(grid)
        kls = np.array([r[1] for r in rows])
        variances = np.array([r[2] for r in rows])
        assert np.all(np.diff(kls) >= 0)
        assert np.all(np.diff(variances) >= 0)
        # variance = sigma^2 + (sigma^2 / 2) * kl, exactly
        coeffs = np.polyfit(kls, variances, 1)
        assert coeffs[0] == pytest.approx(0.5, abs=1e-9)
        assert coeffs[1] == pytest.approx(1.0, abs=1e-9)
        residual = variances - (coeffs[1] + coeffs[0] * kls)
        assert np.max(np.abs(residual)) < 1e-9

    def test_variance_floor(self):
        rows = variance_vs_kl_curve([0.8, 1.2, 1.5], sigma=0.7)
        for _, kl, var in rows:
            assert var >= 0.49 - 1e-12
            if kl > 0:
                assert var > 0.49

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            variance_vs_kl_curve([1.0], sigma=0.0)


class TestLikelihoodSurface:
    def test_grid_covers_simplex(self):
        pmf = gaussian_pmf(2.0, 0.5)
        rows = [[pmf, pmf, gaussian_pmf(3.0, 0.5)] for _ in range(4)]
        truths = np.array([2.0, 2.1, 2.9, 3.2])
        surface = likelihood_surface(_stack(rows), truths, resolution=10)
        assert len(surface) == sum(range(1, 12))  # triangular lattice 11+10+...+1
        for w1, w2, _ in surface:
            assert w1 + w2 <= 1.0 + 1e-12

    def test_three_models_required(self):
        with pytest.raises(ValueError):
            likelihood_surface(_stack([[point_mass(1), point_mass(2)]]), np.array([0.15]))

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_resolution_below_one_rejected(self, resolution):
        pmf = gaussian_pmf(2.0, 0.5)
        with pytest.raises(ValueError, match="resolution must be >= 1"):
            likelihood_surface(_stack([[pmf, pmf, pmf]]), np.array([2.0]), resolution=resolution)


def _run(region, season, week, n_clusters, entropy):
    return EnsembleRun(
        variant="cap-adaptive",
        season=season,
        region=region,
        target=1,
        issue_week=week.to_int(),
        week_index=1,
        pmf=None,
        weights={},
        entropy=entropy,
        n_clusters=n_clusters,
    )


class TestClusterTrajectory:
    def _truth_with_peak(self, region="Nat", season=2010, peak_index=10):
        truth = TruthTable()
        weeks = season_weeks(season)
        for i, week in enumerate(weeks):
            truth.add(region, week, 5.0 if i == peak_index else 1.0)
        return truth, weeks

    def test_flat_trajectory(self):
        truth, weeks = self._truth_with_peak()
        runs = [_run("Nat", 2010, w, 5, 1.0) for w in weeks]
        points = cluster_trajectory(runs, truth)
        assert all(p.mean_clusters == 5.0 for p in points)
        assert [p.weeks_from_peak for p in points] == list(range(-10, len(weeks) - 10))

    def test_uniform_entropy(self):
        truth, weeks = self._truth_with_peak()
        runs = [_run("Nat", 2010, w, 3, 1.0) for w in weeks]
        assert all(p.mean_entropy == 1.0 for p in cluster_trajectory(runs, truth))

    def test_average_across_strata(self):
        truth, weeks = self._truth_with_peak()
        runs = [_run("Nat", 2010, weeks[12], 3, 0.5), _run("Nat", 2010, weeks[12], 5, 1.0)]
        points = cluster_trajectory(runs, truth)
        assert len(points) == 1
        assert points[0].mean_clusters == 4.0
        assert points[0].mean_entropy == 0.75
        assert points[0].n == 2

    def test_no_imputation(self):
        truth, weeks = self._truth_with_peak()
        runs = [_run("Nat", 2010, weeks[3], 2, 0.5)]
        points = cluster_trajectory(runs, truth)
        assert [p.weeks_from_peak for p in points] == [-7]

    def test_peak_tie_goes_earlier(self):
        truth = TruthTable()
        weeks = season_weeks(2010)
        for i, week in enumerate(weeks):
            truth.add("Nat", week, 5.0 if i in (8, 14) else 1.0)
        assert peak_week(truth, "Nat", 2010) == weeks[8]

    def test_missing_truth_stratum_skipped(self):
        truth, weeks = self._truth_with_peak(region="Nat")
        runs = [_run("HHS1", 2010, weeks[5], 4, 0.9)]
        assert cluster_trajectory(runs, truth) == []
