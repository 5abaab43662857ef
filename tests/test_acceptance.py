"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-6 and 10 run on bundled synthetic fixtures at desk scale.
Criteria 7-9 need the public multi-season forecast archive; point
CAPPOOL_ARCHIVE at a directory holding the per-model long-format tree under
``flusight/`` plus a ``truth.csv``, and they will ingest, replay, and check
the published summary statistics. Without that variable they are skipped.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cappool.clustering import cluster_models
from cappool.cli import main as cli_main
from cappool.diagnostics import restart_dispersion, variance_vs_kl_curve
from cappool.ensembles import aggregate_cluster
from cappool.pmf import N_BINS, gaussian_pmf
from cappool.pool import em_pool_weights, truth_bin_masses
from cappool.replay import RunConfig, replay, load_run_artifacts
from cappool.report import write_report
from cappool.scoring import brier_integral, log_score, pit_value
from cappool.synthetic import write_synthetic_archive

from conftest import point_mass


def _announce(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {message}")


# ---------------------------------------------------------------------------
# independent brute-force oracles (direct bin summation, own bin lookup)
# ---------------------------------------------------------------------------


def _oracle_bin(truth: float) -> int:
    tenths = truth * 10.0
    nearest = round(tenths)
    idx = nearest if abs(tenths - nearest) <= 1e-9 else math.floor(tenths)
    return min(idx, 130)


def _oracle_log_score(pmf, truth) -> float:
    p = pmf[_oracle_bin(truth)]
    if p <= 0.0:
        return -10.0
    return max(math.log(p), -10.0)


def _oracle_pit(pmf, truth) -> float:
    total = 0.0
    for i in range(_oracle_bin(truth) + 1):
        total += pmf[i]
    return total


def _oracle_brier_integral(pmf, truth) -> float:
    running = [0.0]
    for i in range(100):
        running.append(running[-1] + pmf[i])
    total = 0.0
    for k in range(101):
        event = 1.0 if truth <= k / 10 else 0.0
        total += (running[k] - event) ** 2
    return total * 0.1


def test_criterion_1_scoring_oracle_equivalence(rng):
    pairs = []
    for i in range(200):
        pmf = rng.dirichlet(np.full(N_BINS, 0.3))
        if i % 2 == 0:
            truth = round(float(rng.uniform(0, 13.0)), 1)
        elif i % 11 == 0:
            truth = float(rng.uniform(13.0, 100.0))
        else:
            truth = float(rng.uniform(0, 13.1))
        pairs.append((pmf, truth))
    start = time.perf_counter()
    worst = 0.0
    for pmf, truth in pairs:
        for got, want in (
            (log_score(pmf, truth), _oracle_log_score(pmf, truth)),
            (pit_value(pmf, truth), _oracle_pit(pmf, truth)),
            (brier_integral(pmf, truth), _oracle_brier_integral(pmf, truth)),
        ):
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, f"200 scoring triples match brute force (max gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_pool_reduction(tmp_path):
    start = time.perf_counter()
    data_dir = tmp_path / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010, 2011), regions=("Nat", "HHS1"), targets=(1, 2),
        seed=21, missing_rate=0.1,
    )
    config = RunConfig.parse(
        f"forecasts = {data_dir / 'forecasts.csv'}\n"
        f"truth = {data_dir / 'truth.csv'}\n"
        "seasons = 2010,2011\n"
        "targets = 1,2\n"
        "variants = cap-equal,equal\n"
        "phi_grid = 1.0\n"
    )
    out = tmp_path / "run"
    replay(config, out)
    runs, _ = load_run_artifacts(out)
    cap = {(r.region, r.target, r.issue_week): r for r in runs if r.variant == "cap-equal"}
    plain = {(r.region, r.target, r.issue_week): r for r in runs if r.variant == "equal"}
    assert set(cap) == set(plain)
    compared = 0
    for key, cap_run in cap.items():
        eq_run = plain[key]
        if cap_run.pmf is None:
            assert eq_run.pmf is None
            continue
        assert np.max(np.abs(cap_run.pmf - eq_run.pmf)) <= 1e-12
        assert all(len(c) == 1 for c in cap_run.clusters)
        compared += 1
    elapsed = time.perf_counter() - start
    assert compared > 200
    assert elapsed < 5.0
    _announce(2, f"threshold 1.0 collapses to the equal pool on {compared} weeks ({elapsed:.1f}s)")


def test_criterion_3_em_correctness(rng):
    # weight-(1,0) construction: model A covers every truth bin, model B none
    truths = np.array([1.0, 2.5, 3.0, 0.8, 4.4])
    F = np.empty((truths.size, 2, N_BINS))
    for j, t in enumerate(truths):
        F[j, 0] = point_mass(_oracle_bin(t))
        F[j, 1] = point_mass(_oracle_bin(t) + 7)
    f = truth_bin_masses(F, truths)
    fit = em_pool_weights(f)
    assert fit.n_iter <= 10_000
    assert fit.weights[0] >= 0.999

    # penalized objective tracked across every iteration of a rough surface
    g = rng.uniform(0.0, 1.0, size=(60, 8))
    alpha = 3.0
    pi = np.full(8, 1 / 8)
    prev = float(np.log(g @ pi).sum() + (alpha - 1.0) * np.log(pi).sum())
    steps = 0
    for _ in range(500):
        resp = (g * pi) / (g @ pi)[:, None]
        mass = resp.sum(axis=0) + (alpha - 1.0)
        pi = mass / mass.sum()
        obj = float(np.log(g @ pi).sum() + (alpha - 1.0) * np.log(pi).sum())
        assert obj >= prev - 1e-9
        prev = obj
        steps += 1
    fit_pen = em_pool_weights(g, alpha=alpha)  # inline monotonicity check active
    assert abs(fit_pen.log_posterior - prev) < 1e-6
    _announce(3, f"dominant model takes weight {fit.weights[0]:.6f}; {steps} monotone steps")


def test_criterion_4_missingness_semantics(rng):
    members = [["m1", "m2"], ["m3", "m4"], ["m5", "m6"]]
    ids = [m for c in members for m in c]
    corr = np.full((6, 6), 0.1)
    for block in range(3):
        i = 2 * block
        corr[i, i + 1] = corr[i + 1, i] = 0.95
    np.fill_diagonal(corr, 1.0)
    clustering = cluster_models(corr, 0.5, ids)
    assert [list(c) for c in clustering.clusters] == members
    medians = {m: -float(k) for k, m in enumerate(ids, start=1)}
    pmfs = {m: gaussian_pmf(1.0 + 0.2 * k, 0.5) for k, m in enumerate(ids)}

    checked = 0
    for _ in range(1000):
        mask = {m for m in ids if rng.random() < 0.5}
        current = {m: pmfs[m] for m in ids if m not in mask}
        for cluster in clustering.clusters:
            cf = aggregate_cluster(cluster, medians, current)
            all_masked = all(m in mask for m in cluster)
            assert (cf.pmf is None) == all_masked
            assert cf.members_missing == frozenset(cluster) & mask
            if cf.pmf is not None:
                survivors = [m for m in cluster if m not in mask]
                assert cf.leader == min(survivors, key=lambda m: (-medians[m], m))
            checked += 1
    assert checked == 3000
    _announce(4, "cluster forecast absent exactly when every member is masked (3000 cases)")


def test_criterion_5_redundancy_demo():
    grid = [0.75 + 0.05 * k for k in range(21)]  # means up to 1.75
    rows = variance_vs_kl_curve(grid, sigma=1.0, weight=0.5)
    by_mean = {round(mu, 3): (kl, var) for mu, kl, var in rows}
    assert by_mean[0.75][0] == 0.0
    assert abs(by_mean[0.75][1] - 1.0) <= 1e-9
    assert abs(by_mean[1.75][0] - 0.5) <= 1e-9
    assert abs(by_mean[1.75][1] - 1.25) <= 1e-9
    variances = [var for _, _, var in rows]
    assert all(b > a for a, b in zip(variances, variances[1:]))
    for mu, kl, var in rows:
        gap = mu - 0.75
        assert abs(kl - gap**2 / 2.0) <= 1e-9
        assert abs(var - (1.0 + gap**2 / 4.0)) <= 1e-9
    _announce(5, "variance 1.0 at zero divergence, 1.25 at unit gap, monotone in between")


def test_criterion_6_identifiability_signature():
    pmf = gaussian_pmf(2.0, 0.5)
    truths = np.array([1.6, 1.9, 2.1, 2.4, 1.8, 2.2, 2.0, 2.3, 2.6, 1.7])
    F = np.empty((truths.size, 2, N_BINS))
    F[:, 0] = pmf
    F[:, 1] = pmf
    report = restart_dispersion(F, truths, n_restarts=100, seed=42)
    assert report.likelihood_spread < 1e-6
    assert float(report.weight_std[0]) > 0.1
    _announce(
        6,
        f"duplicated models: likelihood spread {report.likelihood_spread:.1e}, "
        f"weight std {report.weight_std[0]:.3f} over 100 restarts",
    )


# ---------------------------------------------------------------------------
# full-archive criteria (opt-in via CAPPOOL_ARCHIVE)
# ---------------------------------------------------------------------------

_ARCHIVE = os.environ.get("CAPPOOL_ARCHIVE")
_ARCHIVE_SKIP = (
    "set CAPPOOL_ARCHIVE to a directory with flusight/ (per-model long-format "
    "tree) and truth.csv to run the full-archive criteria"
)


@pytest.fixture(scope="module")
def archive_run():
    if not _ARCHIVE:
        pytest.skip(_ARCHIVE_SKIP)
    root = Path(_ARCHIVE)
    tree = root / "flusight"
    truth = root / "truth.csv"
    if not tree.is_dir() or not truth.exists():
        pytest.skip(_ARCHIVE_SKIP)
    out = root / "run-acceptance"
    config = RunConfig.parse(
        f"flusight_dir = {tree}\n"
        f"truth = {truth}\n"
        "seasons = 2010,2011,2012,2013,2014,2015,2016,2017,2018\n"
        "targets = 1,2,3,4\n"
        "variants = cap-equal,cap-adaptive,equal,adaptive\n"
    )
    replay(config, out)
    write_report(out)
    return out


def _summary_value(out: Path, variant: str, target: str, column: str) -> float:
    with open(out / "reports" / "summary.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["variant"] == variant and row["target"] == target:
                return float(row[column])
    raise AssertionError(f"no summary row for {variant}/{target}")


def test_criterion_7_calibration_summary(archive_run):
    got = {
        ("cap-equal"): _summary_value(archive_run, "cap-equal", "2", "pit_auc_pooled"),
        ("equal"): _summary_value(archive_run, "equal", "2", "pit_auc_pooled"),
        ("cap-adaptive"): _summary_value(archive_run, "cap-adaptive", "2", "pit_auc_pooled"),
        ("adaptive"): _summary_value(archive_run, "adaptive", "2", "pit_auc_pooled"),
    }
    expected = {"cap-equal": 0.25, "equal": 0.30, "cap-adaptive": 0.24, "adaptive": 0.26}
    for variant, want in expected.items():
        assert abs(got[variant] - want) <= 0.02, (variant, got[variant], want)
    _announce(7, f"calibration areas {got} within 0.02 of the published levels")


def test_criterion_8_brier_summary(archive_run):
    got = {
        v: _summary_value(archive_run, v, "2", "mean_brier_integral")
        for v in ("cap-equal", "equal", "cap-adaptive", "adaptive")
    }
    expected = {"cap-equal": 0.66, "equal": 0.69, "cap-adaptive": 0.61, "adaptive": 0.60}
    for variant, want in expected.items():
        assert abs(got[variant] - want) <= 0.03, (variant, got[variant], want)
    _announce(8, f"Brier integrals {got} within 0.03 of the published levels")


def test_criterion_9_trajectory_shape(archive_run):
    rows = []
    with open(archive_run / "reports" / "trajectory.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["variant"] == "cap-adaptive":
                rows.append(
                    (int(row["weeks_from_peak"]), float(row["mean_clusters"]),
                     float(row["mean_entropy"]))
                )
    assert rows
    early_k = np.mean([k for off, k, _ in rows if off <= -20])
    peak_k = np.mean([k for off, k, _ in rows if abs(off) <= 1])
    late_k = np.mean([k for off, k, _ in rows if off >= 20])
    early_e = np.mean([e for off, _, e in rows if off <= -20])
    peak_e = np.mean([e for off, _, e in rows if abs(off) <= 1])
    late_e = np.mean([e for off, _, e in rows if off >= 20])
    assert abs(early_k - 23) <= 3
    assert abs(peak_k - 8) <= 3
    assert abs(late_k - 7) <= 3
    assert abs(early_e - 1.00) <= 0.05
    assert abs(peak_e - 0.83) <= 0.05
    assert abs(late_e - 0.92) <= 0.05
    _announce(
        9,
        f"clusters {early_k:.1f}/{peak_k:.1f}/{late_k:.1f}, "
        f"entropy {early_e:.2f}/{peak_e:.2f}/{late_e:.2f} at the anchors",
    )


def test_criterion_10_end_to_end_determinism(tmp_path):
    data_dir = tmp_path / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010, 2011), regions=("Nat", "HHS1"), targets=(1, 2),
        seed=33, missing_rate=0.05,
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"forecasts = {data_dir / 'forecasts.csv'}\n"
        f"truth = {data_dir / 'truth.csv'}\n"
        "seasons = 2010,2011\n"
        "targets = 1,2\n"
        "variants = cap-equal,cap-adaptive,equal,static,adaptive\n"
        "phi_grid = 0.0,0.5,0.9\n"
        "seed = 7\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["replay", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["replay", "--config", str(cfg), "--out", str(out_b)]) == 0

    def tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    files_a, files_b = tree(out_a), tree(out_b)
    assert files_a.keys() == files_b.keys()
    assert files_a == files_b
    assert len(files_a) > 100
    _announce(10, f"two replays produced {len(files_a)} byte-identical artifacts")
