import logging
import math
import weakref

import numpy as np
import pytest

from cappool import ensembles, pool
from cappool.clustering import Clustering
from cappool.ensembles import (
    CapVariant,
    AdaptiveVariant,
    EqualVariant,
    HistoryStore,
    SeasonData,
    StaticVariant,
    aggregate_cluster,
    make_variant,
    percent_entropy,
)
from cappool.epiweek import season_weeks
from cappool.panel import ForecastKey, Panel, TruthTable
from cappool.pmf import N_BINS, bin_index, gaussian_pmf, linear_pool
from cappool.pool import AdaptivePrior, em_pool_weights
from cappool.scoring import log_score
from cappool.synthetic import synthetic_archive

from conftest import point_mass, random_pmf


def soft_mass(b: int, p: float) -> np.ndarray:
    """Mass p on bin b, remainder spread over the other bins."""
    pmf = np.full(N_BINS, (1.0 - p) / (N_BINS - 1))
    pmf[b] = p
    return pmf


class TestAggregateCluster:
    def test_singleton_with_forecast(self, rng):
        pmf = random_pmf(rng)
        cf = aggregate_cluster(("a",), {"a": -2.0}, {"a": pmf})
        assert cf.leader == "a"
        assert np.array_equal(cf.pmf, pmf)
        assert cf.members_missing == frozenset()

    def test_best_median_wins(self, rng):
        pa, pb = random_pmf(rng), random_pmf(rng)
        cf = aggregate_cluster(("a", "b"), {"a": -4.0, "b": -2.0}, {"a": pa, "b": pb})
        assert cf.leader == "b"
        assert np.array_equal(cf.pmf, pb)

    def test_median_tie_goes_to_lower_id(self, rng):
        pa, pb = random_pmf(rng), random_pmf(rng)
        cf = aggregate_cluster(("b", "a"), {"a": -2.0, "b": -2.0}, {"a": pa, "b": pb})
        assert cf.leader == "a"

    def test_leader_missing_falls_back(self, rng):
        pa = random_pmf(rng)
        cf = aggregate_cluster(("a", "b"), {"a": -4.0, "b": -2.0}, {"a": pa})
        assert cf.leader == "a"  # substitute recorded as the leader used
        assert np.array_equal(cf.pmf, pa)
        assert cf.members_missing == {"b"}

    def test_absent_only_when_all_missing(self):
        cf = aggregate_cluster(("a", "b"), {"a": -1.0, "b": -2.0}, {})
        assert cf.pmf is None and cf.leader is None
        assert cf.members_missing == {"a", "b"}

    def test_unscored_member_eligible_last(self, rng):
        pa, pu = random_pmf(rng), random_pmf(rng)
        cf = aggregate_cluster(("u", "a"), {"a": -9.0}, {"a": pa, "u": pu})
        assert cf.leader == "a"
        cf2 = aggregate_cluster(("u", "a"), {"a": -9.0}, {"u": pu})
        assert cf2.leader == "u"


class TestPercentEntropy:
    def test_uniform_is_max(self):
        assert percent_entropy([1 / 8] * 8) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_is_zero(self):
        assert percent_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_half_quarter_quarter(self):
        expected = (1.5 * math.log(2)) / math.log(3)
        assert percent_entropy([0.5, 0.25, 0.25]) == pytest.approx(expected, abs=1e-12)

    def test_single_cluster_defined_as_one(self):
        assert percent_entropy([1.0]) == 1.0

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            percent_entropy([0.5, 0.2])


def _mini_panel(design, truths, season=2010, region="Nat", target=1):
    """Build a one-stratum panel from {model: {week_index: pmf}} plus truth
    values for the target weeks of indices 1..len(truths)."""
    weeks = season_weeks(season)
    entries = {}
    for model, per_week in design.items():
        for i, pmf in per_week.items():
            key = ForecastKey(region, target, model, weeks[i - 1])
            entries[key] = pmf
    truth = TruthTable()
    for i, value in enumerate(truths, start=1):
        if value is not None:
            truth.add(region, weeks[i - 1].add_weeks(target), value)
    return Panel(entries, truth)


class TestSelectPhi:
    def test_week_one_is_half(self):
        design = {"a": {1: soft_mass(10, 0.5)}}
        panel = _mini_panel(design, [1.0])
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(0.1, 0.8))
        assert cap.select_phi(data, 1) == 0.5

    def test_single_candidate_returned(self):
        design = {
            "a": {1: soft_mass(10, 0.5), 2: soft_mass(10, 0.5), 3: soft_mass(10, 0.5)}
        }
        panel = _mini_panel(design, [1.0, 1.0, 1.0])
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(0.7,))
        assert cap.select_phi(data, 3) == 0.7

    def test_single_candidate_pins_week_one_too(self):
        design = {"a": {1: soft_mass(10, 0.5)}}
        panel = _mini_panel(design, [1.0])
        data = SeasonData(panel, 2010, (1,))
        assert CapVariant("equal", phi_grid=(1.0,)).select_phi(data, 1) == 1.0

    @pytest.mark.parametrize("grid", [(0.3, 0.3), (0.1, 0.3, 0.30), ()])
    def test_empty_or_duplicate_grid_is_refused(self, grid):
        # A repeated candidate would un-pin a single threshold at week one.
        with pytest.raises(ValueError, match="empty or has duplicates"):
            CapVariant("equal", phi_grid=grid)

    def test_no_scorable_data_falls_back_to_half(self):
        design = {"a": {1: soft_mass(10, 0.5), 2: soft_mass(10, 0.5)}}
        panel = _mini_panel(design, [None, None])
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(0.3, 0.7))
        assert cap.select_phi(data, 2) == 0.5

    def _toy_season(self):
        # Truths put week-by-week scores on a known pattern:
        # A (and clone B) score 0.5 then 0.2; C scores 0.1 then 0.4, so over
        # the first two realized weeks A moves down while C moves up.
        truths = [1.0, 2.0, 3.0, 4.0]
        bins = [bin_index(t) for t in truths]
        design = {
            "a": {
                1: soft_mass(bins[0], 0.5),
                2: soft_mass(bins[1], 0.2),
                3: soft_mass(bins[2], 0.1),
                4: soft_mass(bins[3], 0.3),
            },
            "c": {
                1: soft_mass(bins[0], 0.1),
                2: soft_mass(bins[1], 0.4),
                3: soft_mass(bins[2], 0.8),
                4: soft_mass(bins[3], 0.3),
            },
        }
        design["b"] = dict(design["a"])
        return _mini_panel(design, truths), truths

    def test_brute_forced_argmax(self):
        panel, truths = self._toy_season()
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(0.2, 1.0))

        # Brute force both candidates by hand. Weeks 1-2 have too little
        # history to separate models (singletons either way); week 3 has two
        # common scored weeks, where corr(a,b)=1 and corr(a,c)=corr(b,c)=-1.
        # phi=0.2 then pools {a,b} via its leader plus {c}; phi=1.0 keeps
        # all three singletons.
        def pooled_mass(masses):
            return float(np.mean(masses))

        week12 = [pooled_mass([0.5, 0.5, 0.1]), pooled_mass([0.2, 0.2, 0.4])]
        low_phi = week12 + [pooled_mass([0.1, 0.8])]
        high_phi = week12 + [pooled_mass([0.1, 0.1, 0.8])]
        avg_low = np.mean([math.log(m) for m in low_phi])
        avg_high = np.mean([math.log(m) for m in high_phi])
        assert avg_low > avg_high  # construction sanity

        assert cap.select_phi(data, 4) == 0.2

    def test_tie_breaks_to_smaller_phi(self):
        panel, _ = self._toy_season()
        data = SeasonData(panel, 2010, (1,))
        # Candidates on the same side of every correlation give identical
        # pipelines, hence tied averages.
        cap = CapVariant("equal", phi_grid=(0.3, 0.6))
        assert cap.select_phi(data, 3) == 0.3

    def test_means_within_tolerance_tie_to_smaller_phi(self, caplog):
        panel, _ = self._toy_season()
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(0.2, 1.0))
        # Weeks 1-3 are scored by week 4; their rows put the larger mean at
        # phi 1.0, by less than the tolerance.
        cap._use_season(data)
        for j in (1, 2, 3):
            cap._rows[("Nat", 1), j] = [-1.0, -1.0 + 4e-13]
        with caplog.at_level(logging.INFO, logger="cappool.phi"):
            assert cap.select_phi(data, 4) == 0.2
        margin = np.mean([-1.0] * 3) - np.mean([-1.0 + 4e-13] * 3)
        assert 0 < -margin < 1e-12
        (record,) = caplog.records
        assert record.getMessage() == (
            f"cap-equal: season 2010 week 4 picks phi 0.2; runner-up phi 1.0, {margin:.6g} "
            "lower in mean log score; phi 1.0 has the larger mean, but within the 1e-12 "
            "tie tolerance"
        )


class TestCapPipeline:
    def _identical_models_panel(self):
        truths = [1.0, 2.0, 1.5, 3.0, 2.5]
        offsets = [0.3, 0.6, 0.1, 0.5, 0.4]  # vary so scores move week to week
        design = {}
        for m in ("a", "b", "c"):
            design[m] = {
                i: gaussian_pmf(truths[i - 1] + offsets[i - 1], 0.6) for i in range(1, 6)
            }
        return _mini_panel(design, truths), truths

    def test_identical_models_collapse_to_one_cluster(self):
        panel, truths = self._identical_models_panel()
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(0.5,))
        run = cap.week_runs(data, 5)[0]
        assert run.n_clusters == 1
        assert run.clusters == (("a", "b", "c"),)
        # output equals the shared forecast
        shared = gaussian_pmf(truths[4] + 0.4, 0.6)
        assert np.allclose(run.pmf, shared, atol=1e-12)

    def test_threshold_above_one_matches_equal_pool(self):
        panel, _ = self._identical_models_panel()
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(1.0,))
        equal = EqualVariant()
        for t in range(1, 6):
            cap_run = cap.week_runs(data, t)[0]
            eq_run = equal.week_runs(data, t)[0]
            assert cap_run.n_clusters == len(cap_run.clusters)
            assert np.allclose(cap_run.pmf, eq_run.pmf, atol=1e-12)

    def test_structural_postconditions(self, rng):
        truths = [1.0, 2.0, 1.5, 3.0, 2.5]
        design = {
            f"m{k}": {
                i: gaussian_pmf(truths[i - 1] + rng.normal(0, 0.5), 0.5 + 0.1 * k)
                for i in range(1, 6)
            }
            for k in range(6)
        }
        panel = _mini_panel(design, truths)
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("adaptive", phi_grid=(0.0, 0.5, 0.9))
        for t in range(1, 6):
            run = cap.week_runs(data, t)[0]
            assert 1 <= run.n_clusters <= 6
            assert run.pmf.sum() == pytest.approx(1.0, abs=1e-9)
            assert abs(sum(run.weights.values()) - 1.0) < 1e-9
            assert 0.0 <= run.entropy <= 1.0 + 1e-12

    def test_week_one_all_singletons(self):
        panel, _ = self._identical_models_panel()
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(0.0, 0.9))
        run = cap.week_runs(data, 1)[0]
        assert run.phi == 0.5
        assert run.n_clusters == 3
        assert all(len(c) == 1 for c in run.clusters)

    def test_deterministic_rerun(self):
        panel, _ = self._identical_models_panel()
        runs1 = CapVariant("adaptive", phi_grid=(0.0, 0.5)).week_runs(
            SeasonData(panel, 2010, (1,)), 4
        )
        runs2 = CapVariant("adaptive", phi_grid=(0.0, 0.5)).week_runs(
            SeasonData(panel, 2010, (1,)), 4
        )
        for a, b in zip(runs1, runs2):
            assert a.weights == b.weights
            assert np.array_equal(a.pmf, b.pmf)

    def test_no_forecasts_yields_explicit_artifact(self):
        design = {"a": {1: soft_mass(10, 0.5)}}
        panel = _mini_panel(design, [1.0, 1.0])
        data = SeasonData(panel, 2010, (1,))
        cap = CapVariant("equal", phi_grid=(0.5,))
        run = cap.week_runs(data, 2)[0]
        assert run.pmf is None
        assert run.note == "no forecasts submitted"
        assert run.weights == {}


def test_week_index_runs_past_the_season_end():
    truths = [1.0, 2.0]
    data = SeasonData(_mini_panel({"a": {1: soft_mass(10, 0.5)}}, truths), 2010, (1,))
    weeks = season_weeks(2010)
    assert [data.week(t) for t in range(1, data.n_weeks + 1)] == weeks
    assert data.week(data.n_weeks + 3) == weeks[-1].add_weeks(3)
    assert data.week(data.n_weeks + 1) == weeks[-1].add_weeks(1)


class TestComparators:
    def _panel(self):
        truths = [1.0, 2.0, 1.5, 3.0]
        design = {
            "good": {i: soft_mass(bin_index(truths[i - 1]), 0.8) for i in range(1, 5)},
            "bad": {i: soft_mass(bin_index(truths[i - 1]) + 20, 0.8) for i in range(1, 5)},
        }
        return _mini_panel(design, truths)

    def test_equal_pools_submitters(self):
        data = SeasonData(self._panel(), 2010, (1,))
        run = EqualVariant().week_runs(data, 1)[0]
        assert run.weights == {"bad": 0.5, "good": 0.5}
        assert run.entropy == pytest.approx(1.0)

    def test_static_first_season_equal_all_season(self):
        data = SeasonData(self._panel(), 2010, (1,))
        static = StaticVariant()
        for t in range(1, 5):
            run = static.week_runs(data, t)[0]
            assert run.weights == {"bad": 0.5, "good": 0.5}

    def test_static_later_season_learns_from_history(self):
        history = HistoryStore()
        history.absorb(SeasonData(self._panel(), 2010, (1,)))
        panel_next = _mini_panel(
            {
                "good": {1: soft_mass(10, 0.8)},
                "bad": {1: soft_mass(30, 0.8)},
            },
            [1.0],
            season=2011,
        )
        data = SeasonData(panel_next, 2011, (1,), history)
        run = StaticVariant().week_runs(data, 1)[0]
        assert run.weights["good"] > 0.95

    def test_adaptive_week_one_equal_then_adapts(self):
        data = SeasonData(self._panel(), 2010, (1,))
        adaptive = AdaptiveVariant(delta=5.0)
        run1 = adaptive.week_runs(data, 1)[0]
        assert run1.weights == {"bad": 0.5, "good": 0.5}
        run4 = adaptive.week_runs(data, 4)[0]
        assert run4.weights["good"] > run4.weights["bad"]
        assert sum(run4.weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_missing_model_weight_renormalized(self):
        truths = [1.0, 2.0, 1.5]
        design = {
            "good": {i: soft_mass(bin_index(truths[i - 1]), 0.8) for i in range(1, 4)},
            "bad": {i: soft_mass(bin_index(truths[i - 1]) + 20, 0.8) for i in (1, 2)},
        }
        data = SeasonData(_mini_panel(design, truths), 2010, (1,))
        run = AdaptiveVariant().week_runs(data, 3)[0]
        assert set(run.weights) == {"good"}
        assert run.weights["good"] == pytest.approx(1.0)
        assert run.missing_models == ("bad",)

    def test_runs_are_the_pool_of_the_submitters_under_solo_fits(self):
        # A formula that reads no partition or leader table: the submitters'
        # pmfs pooled under 1/n, a solo fit on the prior seasons' masses or
        # a solo fit on the season's per-model masses, renormalized over the
        # submitters.
        fragment, truth = synthetic_archive(
            seasons=(2010, 2011), regions=("Nat", "HHS1"), targets=(1, 2), seed=5,
            missing_rate=0.05,
        )
        panel, history = Panel(fragment, truth), HistoryStore()
        variants = [EqualVariant(), StaticVariant(), AdaptiveVariant(delta=3.0)]
        checked = 0
        for season in (2010, 2011):
            data = SeasonData(panel, season, (1, 2), history)
            n = len(data.roster)
            static = {
                stratum: em_pool_weights(data.prior_mass_matrix(stratum), alpha=1.0).weights
                for stratum in data.stratum_keys()
            }
            for t in range(1, data.n_weeks + 1):
                for variant in variants:
                    for stratum, run in zip(data.stratum_keys(), variant.week_runs(data, t)):
                        if variant.name == "static":
                            w = static[stratum]
                        elif variant.name == "adaptive" and t > 1:
                            alpha = AdaptivePrior(t, data.n_weeks, 3.0).concentration
                            w = em_pool_weights(data.model_mass_matrix(stratum, t), alpha=alpha).weights
                        else:
                            w = np.full(n, 1.0 / n)
                        assert (run.phi, run.clusters, run.leaders, run.n_clusters) == (None,) * 4
                        sd = data.strata[stratum]
                        submitters = np.flatnonzero(sd.sub[t])
                        if not submitters.size:
                            assert run.pmf is None and run.weights == {}
                            continue
                        expected = pool.renormalized(w, submitters)
                        assert np.array_equal(run.pmf, linear_pool(sd.pmf[t, submitters], expected))
                        assert list(run.weights.items()) == [
                            (data.roster[c], float(v)) for c, v in zip(submitters.tolist(), expected)
                        ]
                        checked += 1
            history.absorb(data)
        assert checked > 3 * 4 * 60

    @pytest.mark.parametrize("name", ["static", "adaptive"])
    def test_no_fit_for_a_stratum_nobody_submitted_to(self, name, monkeypatch):
        # Nat targets 1 and 2, where nobody forecasts target 2 at week 3.
        weeks = season_weeks(2010)
        truth = TruthTable({("Nat", week): 1.0 + 0.5 * (i % 3) for i, week in enumerate(weeks[:8])})
        entries = {
            ForecastKey("Nat", target, model, weeks[i - 1]): soft_mass(10 + shift + i, 0.8)
            for target in (1, 2)
            for i in range(1, 5)
            if (target, i) != (2, 3)
            for model, shift in (("good", 0), ("bad", 20))
        }
        data = SeasonData(Panel(entries, truth), 2010, (1, 2))
        fitted = []

        def solo(f, alpha=1.0):
            fitted.append(f)
            return pool.em_pool_weights(f, alpha=alpha)

        def batch(problems):
            fitted.extend(f for f, _ in problems)
            return pool.em_pool_weights_batch(problems)

        monkeypatch.setattr(ensembles, "em_pool_weights", solo)
        monkeypatch.setattr(ensembles, "em_pool_weights_batch", batch)
        variant = make_variant(name)
        runs = variant.week_runs(data, 3)
        assert runs[0].pmf is not None and runs[1].note == "no forecasts submitted"
        assert len(fitted) == 1
        assert [key[0] for key in variant._fits] == [("Nat", 1)]


def _synthetic_season(seed: int = 5) -> SeasonData:
    """The replay tests' synthetic archive, first season only."""
    fragment, truth = synthetic_archive(
        seasons=(2010,), regions=("Nat", "HHS1"), targets=(1, 2), seed=seed, missing_rate=0.04
    )
    return SeasonData(Panel(fragment, truth), 2010, (1, 2))


def test_season_data_does_not_keep_the_panel():
    fragment, truth = synthetic_archive(seasons=(2010,), regions=("Nat",), targets=(1,), seed=3)
    panel = Panel(fragment, truth)
    alive = weakref.ref(panel)
    data = SeasonData(panel, 2010, (1,))
    del panel
    assert alive() is None
    assert data.strata[("Nat", 1)].sub.any()


PREFETCH_GRID = tuple(round(0.1 * k, 1) for k in range(10))


class TestWeekOne:
    @pytest.mark.parametrize("name", ["adaptive", "cap-adaptive"])
    def test_equal_weights_without_an_em_fit(self, name, monkeypatch):
        # Week two's fits go through a batch when their shapes match, so
        # both EM entry points are counted.
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return pool.em_pool_weights(*args, **kwargs)

        def counting_batch(problems):
            calls.append(None)
            return pool.em_pool_weights_batch(problems)

        monkeypatch.setattr(ensembles, "em_pool_weights", counting)
        monkeypatch.setattr(ensembles, "em_pool_weights_batch", counting_batch)
        data = _synthetic_season()
        variant = make_variant(name, phi_grid=PREFETCH_GRID)
        runs = [run for run in variant.week_runs(data, 1) if run.pmf is not None]
        assert runs and not calls
        for run in runs:
            weights = list(run.weights.values())
            assert np.allclose(weights, 1.0 / len(weights), rtol=0.0, atol=1e-15)
        variant.week_runs(data, 2)
        assert calls


class TestWeightPrefetch:
    def _replay(self, data, weeks=None):
        cap = CapVariant("adaptive", phi_grid=PREFETCH_GRID)
        return cap, [
            run for t in range(1, (weeks or data.n_weeks) + 1) for run in cap.week_runs(data, t)
        ]

    def test_cached_fits_match_solo_fits_and_phi_is_unchanged(self, monkeypatch):
        batch_sizes, solo_calls = [], []

        def spy_batch(problems):
            batch_sizes.append(len(problems))
            return pool.em_pool_weights_batch(problems)

        def spy_solo(*args, **kwargs):
            solo_calls.append(None)
            return pool.em_pool_weights(*args, **kwargs)

        monkeypatch.setattr(ensembles, "em_pool_weights_batch", spy_batch)
        monkeypatch.setattr(ensembles, "em_pool_weights", spy_solo)
        data = _synthetic_season()
        cap, runs = self._replay(data)
        assert max(batch_sizes) > 1
        # Replays never fit on their own: only each published week's fit does.
        assert len(solo_calls) <= len(data.strata) * data.n_weeks
        for (stratum, t, clusters), weights in cap._fits.items():
            f = data.cluster_mass_matrix(stratum, Clustering(clusters, 0.0), t)
            alpha = AdaptivePrior(t, data.n_weeks, cap.delta).concentration
            assert np.max(np.abs(weights - em_pool_weights(f, alpha=alpha).weights)) <= 1e-12

        def solo_batch(problems):
            return [pool.em_pool_weights(f, alpha=alpha) for f, alpha in problems]

        monkeypatch.setattr(ensembles, "em_pool_weights_batch", solo_batch)
        _, unbatched = self._replay(_synthetic_season())
        assert [run.phi for run in runs] == [run.phi for run in unbatched]

    def test_batch_holds_each_new_partition_once_in_walk_order(self, monkeypatch):
        # Strata in stratum_keys() order, weeks ascending, each week's
        # partitions in the order of their first phi; a fitted key never
        # comes back in a later batch.
        batches = []

        def spy_batch(problems):
            batches.append(list(problems))
            return pool.em_pool_weights_batch(problems)

        monkeypatch.setattr(ensembles, "em_pool_weights_batch", spy_batch)
        data = _synthetic_season()
        cap = CapVariant("adaptive", phi_grid=PREFETCH_GRID)
        fitted: list[tuple] = []
        for call, t in enumerate((8, 14), start=1):
            expected = []
            for stratum in data.stratum_keys():
                sd = data.strata[stratum]
                for j in sd.scored_weeks(t).tolist():
                    if j == 1 or not sd.sub[j].any():
                        continue
                    for phi in PREFETCH_GRID:
                        key = (stratum, j, data.clusters(stratum, j, phi).clusters)
                        if key not in fitted and key not in expected:
                            expected.append(key)
            cap.select_phi(data, t)
            assert len(batches) == call and expected
            assert list(cap._fits)[len(fitted):] == expected
            for (stratum, j, partition), (f, alpha) in zip(expected, batches[-1], strict=True):
                want = data.cluster_mass_matrix(stratum, Clustering(partition, 0.0), j)
                assert np.array_equal(f, want)
                assert alpha == AdaptivePrior(j, data.n_weeks, cap.delta).concentration
            fitted += expected

    def test_unconverged_fits_are_logged(self, monkeypatch, caplog):
        unconverged = {"solo": 0, "batch": 0}

        def capped_solo(f, alpha=1.0):
            fit = pool.em_pool_weights(f, alpha=alpha, max_iter=2)
            unconverged["solo"] += not fit.converged
            return fit

        def capped_batch(problems):
            fits = pool.em_pool_weights_batch(problems, max_iter=2)
            unconverged["batch"] += sum(not fit.converged for fit in fits)
            return fits

        monkeypatch.setattr(ensembles, "em_pool_weights", capped_solo)
        monkeypatch.setattr(ensembles, "em_pool_weights_batch", capped_batch)
        with caplog.at_level(logging.WARNING, logger="cappool"):
            self._replay(_synthetic_season(), weeks=6)
        assert unconverged["solo"] and unconverged["batch"]
        records = [r for r in caplog.records if r.name == "cappool"]
        assert len(records) == unconverged["solo"] + unconverged["batch"]
        message = records[0].getMessage()
        assert message.startswith("cap-adaptive: EM fit did not converge")
        assert "season 2010" in message and "week " in message and "n_iter=2" in message


def _same_runs(a, b) -> bool:
    return [r.phi for r in a] == [r.phi for r in b] and all(
        (x.pmf is None and y.pmf is None) or np.array_equal(x.pmf, y.pmf) for x, y in zip(a, b)
    )


class TestScoreRows:
    def _walk(self, cap, data):
        return [run for t in range(1, data.n_weeks + 1) for run in cap.week_runs(data, t)]

    def test_variants_sharing_season_data_do_not_share_scores(self):
        shared = _synthetic_season()
        self._walk(CapVariant("adaptive", phi_grid=PREFETCH_GRID, delta=5.0), shared)
        after = self._walk(CapVariant("adaptive", phi_grid=PREFETCH_GRID, delta=0.0), shared)
        fresh = self._walk(
            CapVariant("adaptive", phi_grid=PREFETCH_GRID, delta=0.0), _synthetic_season()
        )
        assert _same_runs(after, fresh)

    def test_new_season_data_starts_afresh(self):
        cap = CapVariant("adaptive", phi_grid=PREFETCH_GRID)
        self._walk(cap, _synthetic_season(seed=6))
        again = self._walk(cap, _synthetic_season())
        fresh = self._walk(CapVariant("adaptive", phi_grid=PREFETCH_GRID), _synthetic_season())
        assert _same_runs(again, fresh)

    @pytest.mark.parametrize("pooling", ["equal", "adaptive"])
    def test_rows_are_log_scores_of_the_pooled_leaders(self, pooling):
        # The replay scores truth-bin masses; that must be the log score of
        # the pool of the present leaders' pmfs under _pool's weights.
        data = _synthetic_season()
        cap = CapVariant(pooling, phi_grid=PREFETCH_GRID)
        self._walk(cap, data)
        checked = 0
        for (stratum, j), row in cap._rows.items():
            if row is None:
                continue
            sd = data.strata[stratum]
            for phi, score in zip(PREFETCH_GRID, row):
                _, leaders, fitted = cap._pool(data, stratum, j, phi)
                present = np.flatnonzero(leaders >= 0)
                pmf = linear_pool(sd.pmf[j, leaders[present]], pool.renormalized(fitted, present))
                assert abs(score - log_score(pmf, sd.truth_target[j])) <= 1e-12
                checked += 1
        assert checked > len(PREFETCH_GRID) * len(data.strata)

    @pytest.mark.parametrize("pooling", ["equal", "adaptive"])
    def test_out_of_order_calls_match_in_order_walk(self, pooling, monkeypatch):
        data = _synthetic_season()
        n = data.n_weeks
        in_order = CapVariant(pooling, phi_grid=PREFETCH_GRID)
        expected = {t: in_order.select_phi(data, t) for t in range(1, n + 1)}

        pooled: dict[tuple, int] = {}
        original = CapVariant._pool

        def counting_pool(self, data, stratum, t, phi):
            key = (stratum, t, data.clusters(stratum, t, phi).clusters)
            pooled[key] = pooled.get(key, 0) + 1
            return original(self, data, stratum, t, phi)

        monkeypatch.setattr(CapVariant, "_pool", counting_pool)
        cap = CapVariant(pooling, phi_grid=PREFETCH_GRID)
        for t in [n, 3, n, *range(2, n + 1)]:
            assert cap.select_phi(data, t) == expected[t], t
        assert pooled and max(pooled.values()) == 1


class TestOnePickPerWeek:
    @pytest.mark.parametrize("pooling", ["equal", "adaptive"])
    def test_week_runs_averages_the_grid_once(self, pooling, monkeypatch):
        data = _synthetic_season()
        assert len(data.strata) >= 3
        replays = []
        original = CapVariant._replay

        def counting_replay(self, data, weeks):
            replays.append(list(weeks))
            return original(self, data, weeks)

        monkeypatch.setattr(CapVariant, "_replay", counting_replay)
        cap = CapVariant(pooling, phi_grid=PREFETCH_GRID)
        for t in range(2, 8):
            replays.clear()
            runs = cap.week_runs(data, t)
            assert len(runs) == len(data.strata)
            assert len({run.phi for run in runs}) == 1
            assert len(replays) == 1, t


class TestPhiPickLog:
    def test_pick_runner_up_and_margin_are_logged_at_info(self, caplog):
        data = _synthetic_season()
        cap = CapVariant("equal", phi_grid=PREFETCH_GRID)
        with caplog.at_level(logging.INFO, logger="cappool"):
            phi = cap.select_phi(data, 9)
            cap.select_phi(data, 9)
        (record,) = caplog.records
        assert record.name == "cappool.phi" and record.levelno == logging.INFO
        rows = [
            row
            for stratum in data.stratum_keys()
            for j in data.strata[stratum].scored_weeks(9).tolist()
            if (row := cap._rows[stratum, j]) is not None
        ]
        means = [np.mean(column) for column in np.array(rows).T]
        ranked = sorted(range(len(means)), key=lambda k: (-means[k], k))
        best, runner_up = ranked[:2]
        assert phi == PREFETCH_GRID[best]
        assert record.getMessage() == (
            f"cap-equal: season 2010 week 9 picks phi {phi!r}; runner-up phi "
            f"{PREFETCH_GRID[runner_up]!r}, {means[best] - means[runner_up]:.6g} lower in mean "
            "log score"
        )

    def test_off_by_default(self, caplog):
        with caplog.at_level(logging.WARNING, logger="cappool"):
            CapVariant("equal", phi_grid=PREFETCH_GRID).select_phi(_synthetic_season(), 9)
        assert not caplog.records


class TestMakeVariant:
    def test_names(self):
        for name in ("cap-equal", "cap-adaptive", "equal", "static", "adaptive"):
            assert make_variant(name).name == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_variant("stacked")
