import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cappool.pmf import N_BINS, gaussian_pmf
from cappool.scoring import (
    BRIER_THRESHOLDS,
    kl_divergence,
    log_score,
    median_log_score,
    pairwise_kl_matrix,
    pit_calibration_auc,
    pit_value,
    brier_integral,
    brier_matrix,
    brier_score,
    sorted_medians,
    sorted_quantiles,
)

from conftest import EDGE_TRUTHS, pmf_rows, point_mass, random_pmf

UNIFORM = np.full(N_BINS, 1.0 / N_BINS)


class TestLogScore:
    def test_point_mass_on_truth(self):
        assert log_score(point_mass(50), 5.0) == 0.0

    def test_zero_mass_floored(self):
        assert log_score(point_mass(50), 2.0) == -10.0

    def test_uniform(self):
        assert log_score(UNIFORM, 7.3) == pytest.approx(-math.log(131), abs=1e-12)

    def test_floor_boundary(self):
        pmf = np.full(N_BINS, 0.0)
        pmf[10] = 1.0 - 1e-6
        pmf[20] = 1e-6
        assert log_score(pmf, 2.0) == -10.0  # ln(1e-6) < -10
        pmf2 = np.full(N_BINS, 0.0)
        pmf2[10] = 1.0 - 1e-4
        pmf2[20] = 1e-4
        assert log_score(pmf2, 2.0) == pytest.approx(math.log(1e-4))

    def test_insensitive_to_off_truth_mass(self, rng):
        # reshuffling probability among the other bins cannot change the score
        truth = 4.2
        b = 42
        for _ in range(20):
            pmf = random_pmf(rng)
            shuffled = pmf.copy()
            rest = np.delete(np.arange(N_BINS), b)
            shuffled[rest] = pmf[rest][rng.permutation(rest.size)]
            assert log_score(shuffled, truth) == log_score(pmf, truth)


class TestPitValue:
    def test_truth_in_last_bin(self, rng):
        assert pit_value(random_pmf(rng), 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_cumulative(self):
        assert pit_value(point_mass(50), 5.0) == 1.0

    def test_uniform_truth_on_edge(self):
        assert pit_value(UNIFORM, 6.5) == pytest.approx(66 / 131, abs=1e-12)

    def test_monotone_in_truth(self, rng):
        pmf = random_pmf(rng)
        values = [pit_value(pmf, t) for t in np.linspace(0, 14, 100)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_mass_above_one_clamped(self):
        # A pooled pmf may sum to a hair above 1; a top-bin truth takes it all.
        pmf = UNIFORM * (1.0 + 2.0**-50)
        assert float(pmf.sum()) > 1.0
        assert pit_value(pmf, 13.0) == 1.0
        assert pit_value(pmf, 20.0) == 1.0


class TestBrierScore:
    def test_perfect(self):
        assert brier_score(point_mass(3), 5.0, 9.0) == 0.0  # F=1, truth below x

    def test_worst(self):
        assert brier_score(point_mass(120), 1.0, 5.0) == 1.0  # F=0 but truth <= x

    def test_uniform_truth_at_threshold(self):
        # mass through bins 0..49 versus the realized event at x = 5.0
        assert brier_score(UNIFORM, 5.0, 5.0) == pytest.approx((50 / 131 - 1) ** 2, abs=1e-12)

    def test_strict_orientation_flips_event(self):
        assert brier_score(UNIFORM, 5.0, 5.0, strict_orientation=True) == pytest.approx(
            (50 / 131) ** 2, abs=1e-12
        )

    def test_off_grid_threshold_rejected(self):
        with pytest.raises(ValueError):
            brier_score(UNIFORM, 5.0, 5.05)
        with pytest.raises(ValueError):
            brier_score(UNIFORM, 5.0, 10.1)


brier_truths = st.sampled_from(EDGE_TRUTHS) | st.floats(0.0, 100.0)


def scalar_brier_rows(pmfs, truths, strict: bool) -> np.ndarray:
    return np.array(
        [[brier_score(p, t, float(x), strict) for x in BRIER_THRESHOLDS] for p, t in zip(pmfs, truths)]
    )


class TestBrierMatrix:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), truths=st.lists(brier_truths, min_size=1, max_size=140))
    @example(seed=0, truths=[10.0])
    @example(seed=1, truths=EDGE_TRUTHS * 14)
    def test_equals_scalar_brier_score_bit_for_bit(self, seed, truths):
        pmfs = pmf_rows(seed, len(truths))
        for strict in (False, True):
            got = brier_matrix(pmfs, truths, strict_orientation=strict)
            want = scalar_brier_rows(pmfs, truths, strict)
            assert got.shape == (len(truths), BRIER_THRESHOLDS.size)
            assert got.tobytes() == want.tobytes()

    def test_empty(self):
        assert brier_matrix([], []).shape == (0, BRIER_THRESHOLDS.size)

    @pytest.mark.parametrize("bad", [-0.1, 100.5, math.nan])
    def test_truth_outside_range_raises_scalar_message(self, bad):
        with pytest.raises(ValueError) as scalar:
            brier_score(UNIFORM, bad, 5.0)
        with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
            brier_matrix([UNIFORM, UNIFORM], [5.0, bad])


class TestBrierIntegral:
    def test_point_mass_truth_on_grid(self):
        # One threshold (the truth bin's lower edge) contributes (0-1)^2.
        assert brier_integral(point_mass(50), 5.0) == pytest.approx(0.1, abs=1e-12)

    def test_point_mass_truth_inside_bin(self):
        assert brier_integral(point_mass(50), 5.05) == 0.0

    def test_monotone_in_displacement(self):
        truth = 5.05
        values = [brier_integral(point_mass(b), truth) for b in (51, 60, 70, 90)]
        assert values == sorted(values)

    def test_deterministic(self, rng):
        pmf = random_pmf(rng)
        assert brier_integral(pmf, 3.3) == brier_integral(pmf.copy(), 3.3)

    def test_point_mass_at_truth_is_minimal(self, rng):
        truth = 5.05
        best = brier_integral(point_mass(50), truth)
        for _ in range(50):
            assert brier_integral(random_pmf(rng), truth) >= best


class TestPitCalibrationAuc:
    def test_uniform_grid_nearly_zero(self):
        n = 1000
        pits = [(k + 1) / (n + 1) for k in range(n)]
        assert pit_calibration_auc(pits) < 0.01

    def test_all_zero(self):
        assert pit_calibration_auc([0.0] * 17) == pytest.approx(0.5, abs=1e-12)

    def test_all_half(self):
        assert pit_calibration_auc([0.5] * 17) == pytest.approx(0.25, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pit_calibration_auc([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pit_calibration_auc([0.5, 1.2])

    def test_matches_riemann_oracle(self, rng):
        pits = rng.beta(2.0, 5.0, size=40)
        grid = np.linspace(0.0, 1.0, 200_001)
        ecdf = np.searchsorted(np.sort(pits), grid, side="right") / pits.size
        oracle = float(np.trapezoid(np.abs(ecdf - grid), grid))
        assert pit_calibration_auc(pits) == pytest.approx(oracle, abs=1e-4)


class TestKlDivergence:
    def test_identity(self, rng):
        pmf = random_pmf(rng)
        assert kl_divergence(pmf, pmf) == 0.0

    def test_smoothed_point_masses(self):
        eps = 1e-10
        ps = (1.0 + eps) / (1 + N_BINS * eps)
        qs = eps / (1 + N_BINS * eps)
        expected = ps * math.log(ps / qs)
        assert kl_divergence(point_mass(3), point_mass(4)) == pytest.approx(expected, rel=1e-9)

    def test_discretized_gaussians_match_closed_form(self):
        # continuous divergence between the two normals, by quadrature
        mu1, mu2, sd = 0.75, 0.80, 1.0
        xs = np.linspace(mu1 - 10, mu1 + 10, 400_001)
        p = np.exp(-((xs - mu1) ** 2) / 2) / math.sqrt(2 * math.pi)
        q = np.exp(-((xs - mu2) ** 2) / 2) / math.sqrt(2 * math.pi)
        quad = float(np.trapezoid(p * np.log(p / q), xs))
        closed = (mu1 - mu2) ** 2 / (2 * sd**2)
        assert quad == pytest.approx(closed, abs=1e-9)
        discrete = kl_divergence(gaussian_pmf(mu1, sd), gaussian_pmf(mu2, sd))
        assert discrete == pytest.approx(closed, abs=1e-3)

    def test_nonnegative(self, rng):
        for _ in range(50):
            assert kl_divergence(random_pmf(rng), random_pmf(rng)) >= 0.0


class TestPairwiseKlMatrix:
    def test_identical_pmfs_zero_matrix(self, rng):
        pmf = random_pmf(rng)
        assert np.array_equal(pairwise_kl_matrix([pmf] * 3), np.zeros((3, 3)))

    def test_two_pmfs_symmetric(self, rng):
        m = pairwise_kl_matrix([random_pmf(rng), random_pmf(rng)])
        assert m[0, 1] == m[1, 0] > 0.0
        assert m[0, 0] == m[1, 1] == 0.0

    def test_gaussian_ordering_matches_mean_gaps(self):
        pmfs = [gaussian_pmf(m, 1.0) for m in (0.75, 1.0, 1.5)]
        m = pairwise_kl_matrix(pmfs)
        # gaps: (0.75,1.0)=0.25 < (1.0,1.5)=0.5 < (0.75,1.5)=0.75
        assert m[0, 1] < m[1, 2] < m[0, 2]

    def test_needs_two(self, rng):
        with pytest.raises(ValueError):
            pairwise_kl_matrix([random_pmf(rng)])


class TestMedianLogScore:
    def test_single(self):
        assert median_log_score([-1.0]) == -1.0

    def test_odd_count(self):
        assert median_log_score([-1.0, -2.0, -10.0]) == -2.0

    def test_even_count_midpoint(self):
        assert median_log_score([-1.0, -3.0]) == -2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_log_score([])

    def test_nan_propagates_like_np_median(self):
        assert math.isnan(median_log_score([-1.0, math.nan, -3.0]))


# Scores as the replay makes them: floored logs in [-10, 0], with the floor,
# 0.0 and a few repeated values drawn often so rows hold ties. Adding 0.0
# turns a drawn -0.0 into 0.0; a log score is never -0.0, and the sorted
# order statistics leave the sign of a zero to the sort.
_scores = st.one_of(
    st.sampled_from([-10.0, 0.0, -1.0, -2.5, -2.848967716124882]),
    st.floats(-10.0, 0.0).map(lambda x: x + 0.0),
)
_REPORT_QS = [0.10, 0.25, 0.50, 0.75, 0.90]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestSortedOrderStatistics:
    """The sorted-array median and quantile equal numpy's bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_scores, max_size=12), min_size=1, max_size=8), st.randoms())
    @example([[-1.0], [-10.0, -10.0], [0.0, -2.5], []], None)
    @example([[0.0]], None)
    def test_medians_of_nan_padded_rows_equal_np_median(self, rows, rand):
        # Rows padded with NaN to a common width, and, as in a score window,
        # with the NaN gaps between the scores when shuffled.
        width = max(len(row) for row in rows) + 2
        padded = np.full((len(rows), width), np.nan)
        for i, row in enumerate(rows):
            padded[i, : len(row)] = row
            if rand is not None:
                rand.shuffle(padded[i])
        counts = (~np.isnan(padded)).sum(axis=1)
        got = sorted_medians(np.sort(padded, axis=1), counts)
        for i, row in enumerate(rows):
            if row:
                assert _bits(got[i]) == _bits(np.median(row)), row
            else:
                assert math.isnan(got[i])

    def test_medians_of_an_empty_window_are_nan(self):
        assert np.isnan(sorted_medians(np.empty((3, 0)), np.zeros(3, dtype=int))).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_scores, min_size=1, max_size=40))
    @example([-2.0])
    @example([0.0, 0.0])
    @example([-10.0, -10.0, -10.0, 0.0])
    def test_median_log_score_equals_np_median(self, values):
        assert _bits(median_log_score(values)) == _bits(np.median(values))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_scores, min_size=1, max_size=40),
        st.one_of(
            st.just(_REPORT_QS),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        ),
    )
    @example([-2.0], _REPORT_QS)
    @example([-2.0], [0.0, 1.0])
    @example([-10.0, 0.0], [0.0, 0.5, 1.0])
    @example([-1.0, -1.0, -3.0, -10.0, -10.0], _REPORT_QS)
    def test_quantiles_equal_np_quantile(self, values, qs):
        got = sorted_quantiles(np.sort(values), qs)
        assert _bits(got) == _bits(np.quantile(values, qs)), (values, qs)

    def test_quantiles_with_a_nan_are_nan(self):
        assert all(math.isnan(q) for q in sorted_quantiles(np.sort([-1.0, math.nan]), _REPORT_QS))
