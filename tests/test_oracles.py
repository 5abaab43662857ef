"""The dense mass-matrix builders and score window against looped oracles.

Random seasons with missing forecasts and unrealized truths, a history
absorbed from a season with a different roster, and random partitions of the
clustering universe; every matrix must equal its oracle exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cappool.clustering import Clustering
from cappool.ensembles import HistoryStore, SeasonData, aggregate_cluster
from cappool.epiweek import season_weeks
from cappool.panel import ForecastKey, Panel, TruthTable
from cappool.pmf import N_BINS, bin_index
from cappool.pool import truth_bin_masses

import oracles
from conftest import random_pmf

REGION = "Nat"
# Forecasts and truths share a few bins, and half the forecasts a few mass
# levels, so truth-bin masses, floored scores and median ranks tie often.
# Level 0 scores the floor; the other half's masses are all distinct.
BINS = (10, 11, 12)
LEVELS = (0.0, 0.05, 0.2, 0.5)


def _pmf(b: int, p: float) -> np.ndarray:
    pmf = np.full(N_BINS, (1.0 - p) / (N_BINS - 1))
    pmf[b] = p
    return pmf


def _season_panel(rng, season, roster, targets, missing, unrealized, region=REGION) -> Panel:
    weeks = season_weeks(season)
    entries = {
        ForecastKey(region, target, m, w): _pmf(
            int(rng.choice(BINS)),
            float(rng.choice(LEVELS)) if rng.random() < 0.5 else float(rng.uniform()),
        )
        for target in targets
        for w in weeks
        for m in roster
        if rng.random() >= missing
    }
    truth = TruthTable()
    for w in weeks + [weeks[-1].add_weeks(k) for k in range(1, max(targets) + 1)]:
        if rng.random() >= unrealized:
            truth.add(region, w, 0.1 * int(rng.choice(BINS)) + 0.05)
    return Panel(entries, truth)


@st.composite
def two_seasons(draw):
    """Prior and current season panels whose rosters overlap only in part."""
    pool = [f"m{k}" for k in range(8)]
    prior_roster = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    roster = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    targets = tuple(sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=2))))
    missing = draw(st.sampled_from([0.0, 0.2, 0.6]))
    unrealized = draw(st.sampled_from([0.0, 0.2, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = _season_panel(rng, 2009, prior_roster, targets, missing, unrealized)
    current = _season_panel(rng, 2010, roster, targets, missing, unrealized)
    return prior, current, targets, rng


@st.composite
def two_season_panel(draw):
    """One panel holding two seasons of two regions, each (season, region)
    with its own roster, so some models miss whole seasons or regions."""
    pool = [f"m{k}" for k in range(6)]
    targets = tuple(sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=2))))
    missing = draw(st.sampled_from([0.0, 0.2, 0.6]))
    unrealized = draw(st.sampled_from([0.0, 0.2, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries, truth = {}, {}
    for season in (2009, 2010):
        for region in (REGION, "HHS2"):
            roster = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
            part = _season_panel(rng, season, roster, targets, missing, unrealized, region)
            entries.update(part.entries)
            truth.update(part.truth.items())
    return Panel(entries, TruthTable(truth)), targets


def _random_partition(rng, ids) -> Clustering:
    labels = rng.integers(0, len(ids), len(ids))
    groups: dict[int, list[str]] = {}
    for m, label in zip(ids, labels.tolist()):
        groups.setdefault(label, []).append(m)
    return Clustering(tuple(tuple(g) for g in groups.values()), 0.0)


class TestDenseBuildersMatchOracle:
    @settings(max_examples=20, deadline=None)
    @given(two_seasons())
    def test_every_matrix_equals_its_looped_oracle(self, seasons):
        prior_panel, panel, targets, rng = seasons
        history, looped_history = HistoryStore(), oracles.LoopedHistory()
        history.absorb(SeasonData(prior_panel, 2009, targets))
        looped_history.absorb(oracles.LoopedSeason(prior_panel, 2009, targets, looped_history))
        data = SeasonData(panel, 2010, targets, history)
        looped = oracles.LoopedSeason(panel, 2010, targets, looped_history)

        for stratum, sd in data.strata.items():
            ref = looped.strata[stratum]
            assert np.array_equal(sd.S, ref.S, equal_nan=True)
            assert np.array_equal(data.prior_mass_matrix(stratum), looped.prior_mass_matrix(stratum))
            for t in range(1, data.n_weeks + 1):
                assert sd.window_size(t) == ref.window_size(t)
                assert np.array_equal(
                    data.model_mass_matrix(stratum, t), looped.model_mass_matrix(stratum, t)
                )
                # The comparators' fits read the roster-singleton partition's
                # masses, which must be the per-model masses bit for bit.
                assert np.array_equal(
                    data.cluster_mass_matrix(stratum, data.singletons, t),
                    looped.model_mass_matrix(stratum, t),
                )
                universe, _ = data.correlation(stratum, t)
                if not universe:
                    continue
                clustering = _random_partition(rng, universe)
                assert np.array_equal(
                    data.cluster_mass_matrix(stratum, clustering, t),
                    looped.cluster_mass_matrix(stratum, clustering, t),
                )


def _seasons(seasons):
    """The current season's dense data and its looped oracle, each with the
    prior season absorbed."""
    prior_panel, panel, targets, _ = seasons
    history, looped_history = HistoryStore(), oracles.LoopedHistory()
    history.absorb(SeasonData(prior_panel, 2009, targets))
    looped_history.absorb(oracles.LoopedSeason(prior_panel, 2009, targets, looped_history))
    return SeasonData(panel, 2010, targets, history), oracles.LoopedSeason(
        panel, 2010, targets, looped_history
    )


class TestSeasonArraysMatchEntries:
    @settings(max_examples=20, deadline=None)
    @given(two_season_panel())
    def test_pmf_sub_and_mass_follow_the_entries(self, case):
        panel, targets = case
        for season in (2009, 2010):
            data = SeasonData(panel, season, targets)
            weeks = season_weeks(season)
            assert set(data.strata) == {(r, t) for r in panel.regions for t in targets}
            for (region, target), sd in data.strata.items():
                assert sd.pmf.shape == (len(weeks) + 1, len(panel.roster), N_BINS)
                assert not sd.sub[0].any()
                assert not sd.pmf[~sd.sub].any()
                for i, week in enumerate(weeks, start=1):
                    truth = panel.realized_truth(region, target, week)
                    for c, m in enumerate(panel.roster):
                        pmf = panel.entries.get(ForecastKey(region, target, m, week))
                        assert sd.sub[i, c] == (pmf is not None)
                        if pmf is None:
                            assert sd.mass[i, c] == 0.0
                            continue
                        assert np.array_equal(sd.pmf[i, c], pmf)
                        want = 0.0 if truth is None else pmf[bin_index(truth)]
                        assert sd.mass[i, c] == want


class TestCorrelationMatchesOracle:
    @settings(max_examples=20, deadline=None)
    @given(two_seasons())
    def test_universe_and_submatrix_equal_the_ix_rule(self, seasons):
        data, _ = _seasons(seasons)
        for stratum in data.strata:
            for t in range(1, data.n_weeks + 1):
                ids, sub = data.correlation(stratum, t)
                want_ids, want_sub = oracles.clustering_universe(data, stratum, t)
                assert ids == want_ids
                assert sub.shape == (len(ids), len(ids))
                assert np.array_equal(sub, want_sub)
                assert np.array_equal(data.correlation(stratum, t)[1], sub)


class TestGridClusteringMatchesOracle:
    @settings(max_examples=20, deadline=None)
    @given(two_seasons(), st.sampled_from([(0.0, 0.3, 0.6, 0.9), (0.0, 0.25, 0.5, 0.75)]))
    def test_grid_misses_equal_one_threshold_partitions(self, seasons, grid):
        # Week one's 1/2 is asked first, as in a replay, so a grid without
        # it is partitioned in the same pass.
        data, _ = _seasons(seasons)
        for stratum in data.strata:
            for t in range(1, data.n_weeks + 1):
                ids, sub = oracles.clustering_universe(data, stratum, t)
                for phi in (0.5, *grid):
                    got = data.clusters(stratum, t, phi, grid)
                    assert got == oracles.cluster_models(sub, phi, ids)


class TestLeaderRuleMatchesOracle:
    @settings(max_examples=20, deadline=None)
    @given(two_seasons())
    def test_leaders_equal_first_ranked_submitter(self, seasons):
        # Partitions of the whole roster, so clusters whose members have no
        # history and no forecast this week occur too.
        prior_panel, panel, targets, rng = seasons
        history, looped_history = HistoryStore(), oracles.LoopedHistory()
        history.absorb(SeasonData(prior_panel, 2009, targets))
        looped_history.absorb(oracles.LoopedSeason(prior_panel, 2009, targets, looped_history))
        data = SeasonData(panel, 2010, targets, history)
        looped = oracles.LoopedSeason(panel, 2010, targets, looped_history)

        for stratum in data.strata:
            for t in range(1, data.n_weeks + 1):
                clustering = _random_partition(rng, sorted(data.roster))
                leaders = data.leaders(stratum, clustering, [t])
                assert leaders.shape == (1, clustering.n_clusters)
                assert leaders[0].tolist() == looped.leaders(stratum, clustering, t)

    @settings(max_examples=20, deadline=None)
    @given(two_seasons())
    def test_one_call_over_many_weeks_equals_each_week_alone(self, seasons):
        # Weeks out of order and repeated each read their own place row.
        data, looped = _seasons(seasons)
        rng, ids = seasons[3], sorted(data.roster)
        for stratum in data.strata:
            clustering = _random_partition(rng, ids)
            weeks = rng.integers(1, data.n_weeks + 1, 2 * data.n_weeks).tolist()
            got = data.leaders(stratum, clustering, weeks)
            assert got.shape == (len(weeks), clustering.n_clusters)
            for row, t in zip(got.tolist(), weeks):
                assert row == looped.leaders(stratum, clustering, t)

    @settings(max_examples=20, deadline=None)
    @given(two_seasons())
    def test_every_leader_table_row_equals_the_looped_oracle(self, seasons):
        # The whole table, week 0 included, read in one call after the
        # partition was first used for one week. The roster in singletons,
        # the comparators' partition, builds its table from the submission
        # masks alone.
        data, looped = _seasons(seasons)
        rng, ids = seasons[3], sorted(data.roster)
        for stratum in data.strata:
            for clustering in [data.singletons] + [_random_partition(rng, ids) for _ in range(3)]:
                data.leaders(stratum, clustering, [data.n_weeks])
                table = data.leaders(stratum, clustering, range(data.n_weeks + 1))
                assert table.dtype == np.int16
                assert table.shape == (data.n_weeks + 1, clustering.n_clusters)
                assert (table[0] == -1).all()
                for t in range(1, data.n_weeks + 1):
                    assert table[t].tolist() == looped.leaders(stratum, clustering, t)

    @settings(max_examples=20, deadline=None)
    @given(two_seasons())
    def test_membership_follows_the_partition_not_the_threshold(self, seasons):
        # An equal partition under another threshold gives equal leaders; a
        # different partition, even one with as many clusters, never reads
        # a membership cached for another.
        data, looped = _seasons(seasons)
        rng, ids = seasons[3], sorted(data.roster)
        for stratum in data.strata:
            for t in range(1, data.n_weeks + 1):
                first = _random_partition(rng, ids)
                clusterings = [
                    first,
                    Clustering(first.clusters, 0.7),
                    Clustering(first.clusters[::-1], 0.0),
                    _random_partition(rng, ids),
                ]
                got = [data.leaders(stratum, c, [t])[0].tolist() for c in clusterings]
                assert got[0] == got[1]
                for clustering, leaders in zip(clusterings, got):
                    assert leaders == looped.leaders(stratum, clustering, t)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True),
        st.dictionaries(
            st.sampled_from("abcdefg"),
            st.sampled_from([None, -10.0, -9.0, -2.5, -2.5, -1.0, -0.0, 0.0]),
        ),
        st.sets(st.sampled_from("abcdefg")),
    )
    def test_aggregate_cluster_equals_looped_oracle(self, members, medians, submitted):
        current = {m: np.full(N_BINS, 1.0 / N_BINS) for m in sorted(submitted)}
        got = aggregate_cluster(members, medians, current)
        want = oracles.aggregate_cluster(members, medians, current)
        assert (got.members, got.leader, got.members_missing) == (
            want.members, want.leader, want.members_missing,
        )
        assert got.pmf is want.pmf


class TestTruthBinMassesMatchOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_equals_looped_oracle(self, n_obs, n_models, seed):
        rng = np.random.default_rng(seed)
        F = np.full((n_obs, n_models, N_BINS), np.nan)
        for j in range(n_obs):
            for c in range(n_models):
                if rng.random() < 0.7:
                    F[j, c] = random_pmf(rng)
        y = rng.uniform(0.0, 14.0, n_obs)
        assert np.array_equal(truth_bin_masses(F, y), oracles.truth_bin_masses(F, y))
