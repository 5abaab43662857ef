import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappool import pool
from cappool.pmf import N_BINS, bin_index, gaussian_pmf
from cappool.pool import (
    AdaptivePool,
    AdaptivePrior,
    EqualPool,
    StaticPool,
    em_pool_weights,
    em_pool_weights_batch,
    truth_bin_masses,
)

from conftest import point_mass, random_pmf


def _stack(pmf_lists):
    """Stack per-observation lists of (pmf | None) into a NaN-padded array."""
    n_obs = len(pmf_lists)
    n_models = len(pmf_lists[0])
    out = np.full((n_obs, n_models, N_BINS), np.nan)
    for j, row in enumerate(pmf_lists):
        for c, pmf in enumerate(row):
            if pmf is not None:
                out[j, c] = pmf
    return out


def _dominant_fixture():
    """Model A puts all mass on every truth bin; model B puts none."""
    truths = [1.0, 2.0, 3.0, 4.0]
    rows = []
    for t in truths:
        a = point_mass(bin_index(t))
        b = point_mass(bin_index(t) + 5)
        rows.append([a, b])
    return _stack(rows), np.array(truths)


class TestEmCore:
    def test_dominant_model_takes_all_weight(self):
        F, y = _dominant_fixture()
        fit = em_pool_weights(truth_bin_masses(F, y))
        assert fit.weights[0] >= 0.999
        assert fit.converged and fit.n_iter <= 10_000

    def test_identical_models_stay_at_equal_start(self):
        pmf = gaussian_pmf(2.0, 0.5)
        F = _stack([[pmf, pmf]] * 6)
        y = np.full(6, 2.0)
        fit = em_pool_weights(truth_bin_masses(F, y))
        assert np.allclose(fit.weights, [0.5, 0.5], atol=1e-12)

    def test_simplex_output(self, rng):
        f = rng.uniform(0.0, 1.0, size=(25, 6))
        fit = em_pool_weights(f)
        assert np.all(fit.weights >= 0.0)
        assert abs(fit.weights.sum() - 1.0) < 1e-9

    def test_objective_nondecreasing_path(self, rng):
        # run EM manually and track the objective at every iterate
        f = rng.uniform(0.0, 1.0, size=(40, 5))
        pi = np.full(5, 0.2)
        prev = float(np.log(f @ pi).sum())
        for _ in range(200):
            resp = (f * pi) / (f @ pi)[:, None]
            pi = resp.sum(axis=0) / resp.sum()
            obj = float(np.log(f @ pi).sum())
            assert obj >= prev - 1e-9
            prev = obj
        fit = em_pool_weights(f)
        assert fit.log_posterior >= prev - 1e-6

    def test_degenerate_all_zero(self):
        fit = em_pool_weights(np.zeros((10, 4)))
        assert fit.degenerate
        assert np.allclose(fit.weights, 0.25)

    def test_flat_prior_matches_mle(self):
        F, y = _dominant_fixture()
        f = truth_bin_masses(F, y)
        assert np.allclose(
            em_pool_weights(f, alpha=1.0).weights, em_pool_weights(f).weights
        )

    def test_huge_concentration_forces_uniform(self, rng):
        f = rng.uniform(0.0, 1.0, size=(30, 4))
        fit = em_pool_weights(f, alpha=1e9)
        assert np.allclose(fit.weights, 0.25, atol=1e-6)

    def test_interior_requirement(self, rng):
        f = rng.uniform(0.0, 1.0, size=(10, 3))
        with pytest.raises(ValueError):
            em_pool_weights(f, init=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            em_pool_weights(f, alpha=0.5)


@st.composite
def em_problems(draw):
    """An ``(f, alpha)`` EM problem: random masses with missing entries, some
    all-zero rows, or nothing usable at all."""
    n_obs = draw(st.integers(0, 33))
    n_models = draw(st.integers(1, 20))
    alpha = draw(st.one_of(st.just(1.0), st.floats(1.0, 6.0)))
    kind = draw(st.sampled_from(["dense", "zero_rows", "degenerate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.uniform(0.0, 1.0, (n_obs, n_models)) * (rng.uniform(size=(n_obs, n_models)) < 0.8)
    if kind == "zero_rows":
        f[rng.uniform(size=n_obs) < 0.3] = 0.0
    elif kind == "degenerate":
        f[:] = 0.0
    return f, alpha


@st.composite
def equal_shape_batches(draw):
    """2-8 ``(f, alpha)`` problems that share (rows after the zero-row filter,
    K), with alpha = 1 and alpha > 1 both present. Each problem may carry
    extra all-zero rows, placed anywhere."""
    n_obs = draw(st.integers(1, 33))
    n_models = draw(st.integers(1, 20))
    alphas = [1.0, draw(st.floats(1.5, 6.0))] + draw(
        st.lists(st.one_of(st.just(1.0), st.floats(1.0, 6.0)), max_size=6)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems = []
    for alpha in alphas:
        f = rng.uniform(0.0, 1.0, (n_obs, n_models)) * (rng.uniform(size=(n_obs, n_models)) < 0.8)
        empty = f.sum(axis=1) == 0.0
        f[empty, rng.integers(n_models)] = rng.uniform(0.1, 1.0, np.count_nonzero(empty))
        zero_rows = int(rng.integers(0, 4))
        f = np.insert(f, rng.integers(0, n_obs + 1, zero_rows), 0.0, axis=0)
        problems.append((f, alpha))
    return problems


# Low enough that some drawn problems stop at the cap unconverged, which the
# comparisons below must then agree on too.
BATCH_MAX_ITER = 400
batch_settings = settings(max_examples=40, deadline=None)


class TestEmBatch:
    @batch_settings
    @given(st.lists(em_problems(), min_size=1, max_size=8))
    def test_each_fit_matches_its_solo_fit(self, problems):
        fits = em_pool_weights_batch(problems, max_iter=BATCH_MAX_ITER)
        for (f, alpha), fit in zip(problems, fits):
            solo = em_pool_weights(f, alpha=alpha, max_iter=BATCH_MAX_ITER)
            assert fit.n_iter == solo.n_iter
            assert fit.converged == solo.converged
            assert fit.degenerate == solo.degenerate
            assert fit.weights.shape == solo.weights.shape
            assert np.max(np.abs(fit.weights - solo.weights)) <= 1e-12
            assert fit.log_posterior == pytest.approx(solo.log_posterior, rel=1e-12, abs=1e-12)

    @batch_settings
    @given(em_problems())
    def test_batch_of_one_is_the_solo_fit(self, problem):
        f, alpha = problem
        (fit,) = em_pool_weights_batch([problem], max_iter=BATCH_MAX_ITER)
        solo = em_pool_weights(f, alpha=alpha, max_iter=BATCH_MAX_ITER)
        assert np.array_equal(fit.weights, solo.weights)
        assert (fit.n_iter, fit.converged, fit.log_posterior, fit.degenerate) == (
            solo.n_iter, solo.converged, solo.log_posterior, solo.degenerate
        )

    @batch_settings
    @given(st.lists(em_problems(), min_size=2, max_size=8), st.randoms())
    def test_permuting_problems_leaves_results_unchanged(self, problems, random):
        order = list(range(len(problems)))
        random.shuffle(order)
        fits = em_pool_weights_batch(problems, max_iter=BATCH_MAX_ITER)
        shuffled = em_pool_weights_batch([problems[i] for i in order], max_iter=BATCH_MAX_ITER)
        for i, fit in zip(order, shuffled):
            assert np.array_equal(fit.weights, fits[i].weights)
            assert (fit.n_iter, fit.converged) == (fits[i].n_iter, fits[i].converged)

    @batch_settings
    @given(equal_shape_batches())
    def test_equal_shape_batch_is_bit_identical_to_solo_fits(self, problems):
        fits = em_pool_weights_batch(problems, max_iter=BATCH_MAX_ITER)
        for (f, alpha), fit in zip(problems, fits, strict=True):
            solo = em_pool_weights(f, alpha=alpha, max_iter=BATCH_MAX_ITER)
            assert np.array_equal(fit.weights, solo.weights)
            assert (fit.log_posterior, fit.n_iter, fit.converged) == (
                solo.log_posterior, solo.n_iter, solo.converged
            )

    def test_iteration_cap_stops_only_the_slow_problem(self, rng):
        same = np.tile(rng.uniform(0.1, 1.0, (12, 1)), (1, 3))  # fixed point at the start
        rough = rng.uniform(0.0, 1.0, (30, 6))
        problems = [(same, 1.0), (rough, 1.0), (np.zeros((4, 2)), 2.0), (same, 3.0)]
        fits = em_pool_weights_batch(problems, max_iter=5)
        assert [fit.converged for fit in fits] == [True, False, True, True]
        assert [fit.n_iter for fit in fits] == [1, 5, 0, 1]
        solo = em_pool_weights(rough, max_iter=5)
        assert np.max(np.abs(fits[1].weights - solo.weights)) <= 1e-12

    def test_guard_names_the_failing_problem(self, monkeypatch, rng):
        real = pool._objectives
        calls = []

        def dips_for_second_problem(denom, pi, alpha_m1, shift):
            obj = real(denom, pi, alpha_m1, shift)
            calls.append(None)
            if len(calls) == 3:
                obj[1] -= 1.0
            return obj

        monkeypatch.setattr(pool, "_objectives", dips_for_second_problem)
        f = rng.uniform(0.0, 1.0, (20, 4))
        with pytest.raises(RuntimeError, match="problem 2 at iteration 2"):
            em_pool_weights_batch([(np.zeros((3, 2)), 1.0), (f, 1.0), (f, 2.0)])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            em_pool_weights_batch([(np.ones((3, 2)), 1.0), (-np.ones((3, 2)), 1.0)])


class TestAdaptivePrior:
    def test_schedule_decays_to_flat(self):
        early = AdaptivePrior(week_index=1, season_weeks=33)
        late = AdaptivePrior(week_index=33, season_weeks=33)
        assert early.concentration == pytest.approx(1.0 + 5.0 * 32 / 33)
        assert late.concentration == 1.0

    def test_always_at_least_one(self):
        for t in range(1, 40):
            assert AdaptivePrior(week_index=t, season_weeks=33).concentration >= 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            AdaptivePrior(week_index=0, season_weeks=33)
        with pytest.raises(ValueError):
            AdaptivePrior(week_index=1, season_weeks=33, delta=-1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="finite"):
            AdaptivePrior(week_index=1, season_weeks=33, delta=delta)


class TestFitFunctions:
    def test_static_no_data_equal_weights(self):
        est = StaticPool().fit(np.empty((0, 7, N_BINS)), np.empty(0))
        assert est.degenerate_
        assert np.allclose(est.weights_, 1.0 / 7)

    def test_static_dominant(self):
        F, y = _dominant_fixture()
        assert StaticPool().fit(F, y).weights_[0] >= 0.999

    def test_adaptive_flat_prior_matches_static(self):
        F, y = _dominant_fixture()
        flat = AdaptivePrior(week_index=33, season_weeks=33).concentration
        adaptive = AdaptivePool(concentration=flat).fit(F, y).weights_
        assert np.allclose(adaptive, StaticPool().fit(F, y).weights_)
        assert np.allclose(adaptive, em_pool_weights(truth_bin_masses(F, y), alpha=flat).weights)

    def test_single_model(self):
        F = _stack([[point_mass(10)]] * 3)
        assert StaticPool().fit(F, np.full(3, 1.0)).weights_[0] == 1.0
        assert em_pool_weights(truth_bin_masses(F, np.full(3, 1.0))).weights[0] == 1.0


class TestEstimators:
    def test_get_set_params_roundtrip(self):
        est = AdaptivePool(concentration=2.5, max_iter=500)
        params = est.get_params()
        assert params == {"concentration": 2.5, "max_iter": 500}
        clone = AdaptivePool(**params)
        assert clone.get_params() == params
        est.set_params(concentration=3.0)
        assert est.concentration == 3.0
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_equal_pool_predicts_mean(self, rng):
        pmfs = [random_pmf(rng) for _ in range(3)]
        F = _stack([pmfs])
        out = EqualPool().fit(F).predict(F)
        assert np.allclose(out[0], np.mean(pmfs, axis=0), atol=1e-15)

    def test_missing_handled_by_renormalizing(self, rng):
        pmfs = [random_pmf(rng) for _ in range(3)]
        F = _stack([[pmfs[0], None, pmfs[2]]])
        out = EqualPool().fit(_stack([pmfs])).predict(F)
        assert np.allclose(out[0], 0.5 * pmfs[0] + 0.5 * pmfs[2], atol=1e-15)

    def test_static_pool_fit_predict(self):
        F, y = _dominant_fixture()
        est = StaticPool().fit(F, y)
        assert est.weights_[0] >= 0.999
        preds = est.predict(F)
        assert preds.shape == (4, N_BINS)
        assert np.allclose(preds.sum(axis=1), 1.0, atol=1e-9)

    def test_static_pool_model_count_checked(self):
        F, y = _dominant_fixture()
        est = StaticPool().fit(F, y)
        with pytest.raises(ValueError):
            est.predict(np.full((1, 3, N_BINS), np.nan))

    def test_adaptive_pool_tempering(self):
        F, y = _dominant_fixture()
        sharp = AdaptivePool(concentration=1.0).fit(F, y)
        tempered = AdaptivePool(concentration=50.0).fit(F, y)
        assert sharp.weights_[0] > tempered.weights_[0]
        assert tempered.weights_[0] > 0.5  # still favors the dominant model

    def test_no_available_forecast_gives_nan_row(self, rng):
        pmfs = [random_pmf(rng), random_pmf(rng)]
        est = EqualPool().fit(_stack([pmfs]))
        out = est.predict(_stack([[None, None]]))
        assert np.all(np.isnan(out[0]))

    def test_partial_nan_slice_rejected(self, rng):
        F = _stack([[random_pmf(rng)]])
        F[0, 0, 3] = np.nan
        with pytest.raises(ValueError):
            EqualPool().fit(F)
