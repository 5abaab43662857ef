import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappool.clustering import Clustering, cluster_models
from cappool import ensembles
from cappool.ensembles import _cluster_grid, _masked_correlation

import oracles
from oracles import logscore_correlation_matrix


@st.composite
def correlation_problems(draw):
    """A symmetric matrix with few distinct values (so thresholds land on
    them), a threshold on or between them, and ids in a random order."""
    n = draw(st.integers(0, 12))
    levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
    cells = draw(st.lists(st.sampled_from(levels), min_size=n * n, max_size=n * n))
    raw = np.array(cells, dtype=float).reshape(n, n)
    corr = np.triu(raw) + np.triu(raw, 1).T
    if draw(st.booleans()):
        np.fill_diagonal(corr, 1.0)
    phi = draw(st.sampled_from(levels) | st.floats(0.0, 1.0))
    ids = draw(st.permutations([f"m{k:02d}" for k in range(n)]))
    return corr, max(phi, 0.0), ids


@st.composite
def grid_problems(draw):
    """A correlation problem and a grid of distinct thresholds in any order:
    some equal to matrix values (``corr == phi`` ties), some between them,
    with or without week one's 1/2."""
    corr, phi, ids = draw(correlation_problems())
    values = sorted({max(v, 0.0) for v in corr.ravel().tolist()}) or [0.0]
    more = draw(st.lists(st.sampled_from(values) | st.floats(0.0, 1.0), max_size=8))
    half = [0.5] if draw(st.booleans()) else []
    return corr, list(dict.fromkeys([phi, *more, *half])), ids


class TestCorrelationMatrix:
    def test_self_correlation_one(self):
        scores = {"a": {1: -1.0, 2: -2.0, 3: -1.5}}
        corr, flagged = logscore_correlation_matrix(scores, ["a"])
        assert corr[0, 0] == 1.0 and not flagged[0, 0]

    def test_anticorrelated_pair(self):
        a = {k: v for k, v in enumerate([-1.0, -2.0, -3.0, -1.5])}
        b = {k: -v - 4.0 for k, v in a.items()}
        corr, flagged = logscore_correlation_matrix({"a": a, "b": b}, ["a", "b"])
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert not flagged[0, 1]

    def test_constant_series_flagged_zero(self):
        a = {k: -10.0 for k in range(5)}
        b = {k: float(-k) for k in range(5)}
        corr, flagged = logscore_correlation_matrix({"a": a, "b": b}, ["a", "b"])
        assert corr[0, 1] == 0.0 and flagged[0, 1]

    def test_too_few_common_points_flagged(self):
        a = {1: -1.0, 2: -2.0}
        b = {2: -1.0, 3: -2.0}  # one common key
        corr, flagged = logscore_correlation_matrix({"a": a, "b": b}, ["a", "b"])
        assert corr[0, 1] == 0.0 and flagged[0, 1]

    def test_alignment_on_common_keys_only(self):
        a = {1: -1.0, 2: -2.0, 3: -3.0, 9: -9.0}
        b = {1: -2.0, 2: -4.0, 3: -6.0, 8: +1.0}
        corr, _ = logscore_correlation_matrix({"a": a, "b": b}, ["a", "b"])
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_vectorized_engine_path(self, rng):
        n_models, n_cols = 6, 40
        S = rng.normal(-3.0, 2.0, size=(n_models, n_cols))
        mask = rng.random((n_models, n_cols)) < 0.7
        S = np.where(mask, S, np.nan)
        ids = [f"m{i}" for i in range(n_models)]
        scores = {
            ids[i]: {k: float(S[i, k]) for k in range(n_cols) if mask[i, k]}
            for i in range(n_models)
        }
        ref, ref_flags = logscore_correlation_matrix(scores, ids)
        fast, fast_flags = _masked_correlation(S)
        assert np.allclose(ref, fast, atol=1e-10)
        assert np.array_equal(ref_flags, fast_flags)


class TestClusterModels:
    def test_high_threshold_gives_singletons(self):
        corr = np.array([[1.0, 0.8, 0.7], [0.8, 1.0, 0.6], [0.7, 0.6, 1.0]])
        clustering = cluster_models(corr, 0.9, ["a", "b", "c"])
        assert clustering.clusters == (("a",), ("b",), ("c",))

    def test_full_correlation_single_cluster(self):
        corr = np.ones((4, 4))
        clustering = cluster_models(corr, 0.5, ["a", "b", "c", "d"])
        assert clustering.clusters == (("a", "b", "c", "d"),)

    def test_all_members_rule(self):
        # corr(1,2)=0.9, corr(1,3)=0.9, corr(2,3)=0.2: model 3 fails against 2
        corr = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.2], [0.9, 0.2, 1.0]])
        clustering = cluster_models(corr, 0.5, ["1", "2", "3"])
        assert clustering.clusters == (("1", "2"), ("3",))

    def test_first_qualifying_cluster_wins(self):
        # model c qualifies for both existing clusters; joins the first
        corr = np.array(
            [
                [1.0, 0.1, 0.9],
                [0.1, 1.0, 0.9],
                [0.9, 0.9, 1.0],
            ]
        )
        clustering = cluster_models(corr, 0.5, ["a", "b", "c"])
        assert clustering.clusters == (("a", "c"), ("b",))

    def test_partition_invariants_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            raw = rng.uniform(-1, 1, size=(n, n))
            corr = (raw + raw.T) / 2
            np.fill_diagonal(corr, 1.0)
            ids = [f"m{i}" for i in range(n)]
            phi = float(rng.uniform(0, 1))
            clustering = cluster_models(corr, phi, ids)
            members = [m for c in clustering.clusters for m in c]
            assert sorted(members) == ids  # disjoint and exhaustive
            assert all(len(c) >= 1 for c in clustering.clusters)
            again = cluster_models(corr, phi, ids)
            assert again.clusters == clustering.clusters

    def test_unsorted_ids_follow_the_matrix_order(self):
        # Rows and columns are in the given id order: b, a, c.
        corr = np.eye(3)
        corr[0, 2] = corr[2, 0] = 0.9
        clustering = cluster_models(corr, 0.5, ["b", "a", "c"])
        assert clustering.clusters == (("a",), ("b", "c"))
        sorted_corr = corr[np.ix_([1, 0, 2], [1, 0, 2])]
        assert cluster_models(sorted_corr, 0.5, ["a", "b", "c"]).clusters == clustering.clusters

    @settings(max_examples=300, deadline=None)
    @given(correlation_problems())
    def test_matches_pairwise_oracle(self, problem):
        corr, phi, ids = problem
        assert cluster_models(corr, phi, ids) == oracles.cluster_models(corr, phi, ids)

    @settings(max_examples=300, deadline=None)
    @given(grid_problems())
    def test_grid_matches_pairwise_oracle_at_every_phi(self, problem):
        corr, phis, ids = problem
        want = [oracles.cluster_models(corr, p, ids) for p in phis]
        assert _cluster_grid(corr, phis, ids) == want

    def test_grid_runs_one_greedy_pass_per_distinct_link_set(self, monkeypatch):
        calls = []

        def counting(corr, phi, ids):
            calls.append(phi)
            return cluster_models(corr, phi, ids)

        monkeypatch.setattr(ensembles, "cluster_models", counting)
        corr = np.array([[1.0, 0.2, 0.7], [0.2, 1.0, 0.2], [0.7, 0.2, 1.0]])
        grid = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9]
        found = _cluster_grid(corr, grid, ["a", "b", "c"])
        # 0.7 itself links nothing: a pair links only strictly above phi.
        assert calls == [0.0, 0.3, 0.7]
        assert [c.phi for c in found] == grid
        assert [c.clusters for c in found] == [(("a", "b", "c"),)] * 2 + [
            (("a", "c"), ("b",))
        ] * 2 + [(("a",), ("b",), ("c",))] * 2

    def test_threshold_one_never_joins(self):
        corr = np.ones((3, 3))
        clustering = cluster_models(corr, 1.0, ["a", "b", "c"])
        assert clustering.n_clusters == 3

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            Clustering((("a",), ("a",)), 0.5)
        with pytest.raises(ValueError):
            Clustering(((),), 0.5)
