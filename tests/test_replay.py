import csv
import json
import logging
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from cappool.epiweek import Epiweek
from cappool.replay import (
    ConfigError,
    ConfigMismatchError,
    CorruptArtifactError,
    RunConfig,
    load_run_artifacts,
    replay,
)
from cappool.report import write_report
from cappool.synthetic import ModelSpec, write_synthetic_archive


def _config_text(data_dir: Path, **overrides) -> str:
    values = {
        "forecasts": str(data_dir / "forecasts.csv"),
        "truth": str(data_dir / "truth.csv"),
        "seasons": "2010",
        "targets": "1,2",
        "variants": "cap-equal,cap-adaptive,equal,static,adaptive",
        "phi_grid": "0.0,0.5,0.9",
        "delta": "5.0",
        "seed": "0",
    }
    values.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One fully replayed two-season run shared by read-only tests."""
    root = tmp_path_factory.mktemp("small_run")
    data_dir = root / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010, 2011), regions=("Nat", "HHS1"), targets=(1, 2),
        seed=5, missing_rate=0.04,
    )
    config = RunConfig.parse(_config_text(data_dir, seasons="2010,2011"))
    out = root / "run"
    replay(config, out)
    return config, out


class TestRunConfig:
    def test_parse_roundtrip(self, tmp_path):
        text = "# comment\nseasons = 2010, 2011\ntargets = 2,1\ndelta = 3.5\n"
        cfg = RunConfig.parse(text)
        assert cfg.seasons == (2010, 2011)
        assert cfg.targets == (1, 2)
        assert cfg.delta == 3.5
        assert cfg.variants == ("cap-equal", "cap-adaptive", "equal", "static", "adaptive")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.parse("phi = 0.5\n")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("variants = equal,stacked\n")

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("targets = 0,1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("delta = 1\ndelta = 2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "delta = nan\n",
            "delta = inf\n",
            "phi_grid = 0.0,-0.1,0.5\n",
            "phi_grid = 0.0,nan\n",
            "variants = equal,cap-equal,equal\n",
            "targets = 1,1\n",
        ],
    )
    def test_bad_value_rejected(self, text):
        with pytest.raises(ConfigError):
            RunConfig.parse(text)


class TestReplayStructure:
    def test_smallest_pipeline(self, tmp_path):
        data_dir = tmp_path / "data"
        write_synthetic_archive(data_dir, seasons=(2010,), regions=("Nat",), targets=(1,), seed=9)
        config = RunConfig.parse(
            _config_text(data_dir, targets="1", variants="equal")
        )
        out = tmp_path / "run"
        replay(config, out)
        weeks = sorted((out / "runs" / "equal" / "2010").glob("week-*.json"))
        assert len(weeks) == 34  # 33 issue weeks + 1 trailing scoring week
        runs, scores = load_run_artifacts(out)
        assert all(r.pmf is not None for r in runs)
        # one-week-ahead scores lag issues by one week
        by_issue = {r.issue_week for r in runs}
        assert {s.issue_week for s in scores} <= by_issue
        first = json.loads(weeks[0].read_text())
        assert first["scores"] == []  # nothing can realize at the first week
        second = json.loads(weeks[1].read_text())
        assert len(second["scores"]) == 1

    def test_static_first_season_equal_weights(self, small_run):
        _, out = small_run
        runs, _ = load_run_artifacts(out)
        first_season = [r for r in runs if r.variant == "static" and r.season == 2010]
        assert first_season
        for r in first_season:
            weights = list(r.weights.values())
            assert all(w == pytest.approx(weights[0]) for w in weights)

    def test_static_second_season_weights_frozen(self, small_run):
        _, out = small_run
        runs, _ = load_run_artifacts(out)
        second = [r for r in runs if r.variant == "static" and r.season == 2011]
        assert second
        # weeks with a full submission share one weight vector per stratum
        per_stratum: dict[tuple, dict] = {}
        checked = 0
        for r in second:
            if r.missing_models or r.pmf is None:
                continue
            key = (r.region, r.target)
            if key in per_stratum:
                assert r.weights == per_stratum[key]
                checked += 1
            else:
                per_stratum[key] = r.weights
        assert checked > 0

    def test_cap_artifacts_carry_metadata(self, small_run):
        _, out = small_run
        runs, _ = load_run_artifacts(out)
        cap_runs = [r for r in runs if r.variant == "cap-adaptive" and r.pmf is not None]
        assert cap_runs
        for r in cap_runs:
            assert r.phi is not None
            assert r.n_clusters == len(r.clusters) >= 1
            assert len(r.leaders) == len(r.clusters)
            assert abs(sum(r.weights.values()) - 1.0) < 1e-9
            assert 0.0 <= r.entropy <= 1.0 + 1e-12

    def test_scores_attach_to_target_week(self, small_run):
        _, out = small_run
        _, scores = load_run_artifacts(out)
        assert scores
        for s in scores:
            assert Epiweek.from_int(s.issue_week).add_weeks(s.target).to_int() == s.target_week
            assert -10.0 <= s.log_score <= 0.0
            assert 0.0 <= s.pit <= 1.0 + 1e-12
            assert s.brier_integral >= 0.0

    def test_missing_season_rejected(self, tmp_path):
        data_dir = tmp_path / "data"
        write_synthetic_archive(data_dir, seasons=(2010,), regions=("Nat",), seed=1)
        config = RunConfig.parse(_config_text(data_dir, seasons="2015"))
        with pytest.raises(Exception):
            replay(config, tmp_path / "run")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def cap_run(tmp_path_factory):
    """A replayed one-stratum cap-equal run pinned at phi = 0.9."""
    root = tmp_path_factory.mktemp("cap_run")
    data_dir = root / "data"
    write_synthetic_archive(data_dir, seasons=(2010,), regions=("Nat",), targets=(1,), seed=5)
    overrides = {"targets": "1", "variants": "cap-equal", "phi_grid": "0.9"}
    out = root / "run"
    replay(RunConfig.parse(_config_text(data_dir, **overrides)), out)
    return data_dir, overrides, out


class TestRecordedConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("phi_grid", "0.0"),
            ("delta", "1.0"),
            ("variants", "cap-equal,equal"),
            ("forecasts", None),
        ],
    )
    def test_changed_config_is_refused(self, cap_run, tmp_path, field, value):
        data_dir, overrides, out = cap_run
        if field == "forecasts":
            value = str(tmp_path / "forecasts.csv")
            shutil.copy(data_dir / "forecasts.csv", value)
        run = tmp_path / "run"
        shutil.copytree(out, run)
        before = _tree_bytes(run)
        config = RunConfig.parse(_config_text(data_dir, **{**overrides, field: value}))
        with pytest.raises(ConfigMismatchError, match=f"records {field} = "):
            replay(config, run)
        assert _tree_bytes(run) == before

    def test_changed_seed_is_accepted(self, cap_run, tmp_path):
        data_dir, overrides, out = cap_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        before = _tree_bytes(run)
        replay(RunConfig.parse(_config_text(data_dir, **overrides, seed="3")), run)
        assert _tree_bytes(run) == before

    def test_unreadable_recorded_config_is_corrupt(self, cap_run, tmp_path):
        data_dir, overrides, _ = cap_run
        run = tmp_path / "run"
        run.mkdir()
        (run / "run.cfg").write_text("phi = 0.5\n")
        with pytest.raises(CorruptArtifactError, match="run.cfg"):
            replay(RunConfig.parse(_config_text(data_dir, **overrides)), run)


class TestDeterminismAndResume:
    def test_rerun_is_byte_identical(self, tmp_path):
        data_dir = tmp_path / "data"
        write_synthetic_archive(data_dir, seed=6, missing_rate=0.05)
        config = RunConfig.parse(_config_text(data_dir, seasons="2010,2011"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        replay(config, out_a)
        replay(config, out_b)
        assert _tree_bytes(out_a) == _tree_bytes(out_b)

    def test_interrupted_run_resumes_identically(self, tmp_path):
        data_dir = tmp_path / "data"
        write_synthetic_archive(data_dir, seed=6, missing_rate=0.05)
        config = RunConfig.parse(_config_text(data_dir, seasons="2010,2011"))
        out_full, out_cut = tmp_path / "full", tmp_path / "cut"
        replay(config, out_full)
        shutil.copytree(out_full, out_cut)
        # simulate a crash: drop everything from epiweek 201101 onwards
        removed = 0
        for path in out_cut.glob("runs/*/*/week-*.*"):
            if int(path.stem.split("-")[1]) >= 201101:
                path.unlink()
                removed += 1
        assert removed > 0
        replay(config, out_cut)
        assert _tree_bytes(out_full) == _tree_bytes(out_cut)

    def test_corrupt_week_files_are_recomputed(self, tmp_path, caplog):
        data_dir = tmp_path / "data"
        write_synthetic_archive(data_dir, seed=6, missing_rate=0.05)
        config = RunConfig.parse(_config_text(data_dir, variants="equal,cap-adaptive"))
        out_full, out_cut = tmp_path / "full", tmp_path / "cut"
        replay(config, out_full)
        shutil.copytree(out_full, out_cut)
        weeks = sorted(out_cut.glob("runs/equal/2010/week-*.json"))
        truncated_json = weeks[5]
        truncated_json.write_text(truncated_json.read_text()[:200])
        truncated_csv = sorted(out_cut.glob("runs/cap-adaptive/2010/week-*.csv"))[7]
        truncated_csv.write_text(truncated_csv.read_text()[:3000])
        with caplog.at_level(logging.WARNING, logger="cappool"):
            replay(config, out_cut)
        assert _tree_bytes(out_full) == _tree_bytes(out_cut)
        warned = " ".join(r.getMessage() for r in caplog.records if r.name == "cappool")
        assert str(truncated_json) in warned and str(truncated_csv) in warned

    def test_no_peeking(self, tmp_path):
        cutoff = 201050
        data_dir = tmp_path / "data"
        write_synthetic_archive(data_dir, seasons=(2010,), seed=8, missing_rate=0.03)
        config_a = RunConfig.parse(_config_text(data_dir))
        out_a = tmp_path / "a"
        replay(config_a, out_a)

        # Perturb every forecast issued after the cutoff and every truth
        # observed after it; artifacts at or before the cutoff must not move.
        mutated = tmp_path / "mutated"
        mutated.mkdir()
        with open(data_dir / "forecasts.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if int(row[3]) > cutoff:
                probs = np.array([float(v) for v in row[4:]])
                probs = (probs + 0.005) / (probs + 0.005).sum()
                row[4:] = [repr(float(v)) for v in probs]
        with open(mutated / "forecasts.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with open(data_dir / "truth.csv", newline="") as fh:
            trows = list(csv.reader(fh))
        for row in trows[1:]:
            if int(row[1]) > cutoff:
                row[2] = repr(round(min(float(row[2]) + 0.7, 12.9), 1))
        with open(mutated / "truth.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(trows)

        config_b = RunConfig.parse(_config_text(mutated))
        out_b = tmp_path / "b"
        replay(config_b, out_b)

        a_files = _tree_bytes(out_a)
        b_files = _tree_bytes(out_b)
        early = [
            name
            for name in a_files
            if name.startswith("runs/") and int(Path(name).stem.split("-")[1]) <= cutoff
        ]
        assert early
        changed_late = 0
        for name in a_files:
            if name in early:
                assert a_files[name] == b_files[name], f"{name} changed"
            elif name.startswith("runs/") and a_files[name] != b_files.get(name):
                changed_late += 1
        assert changed_late > 0  # the mutation really did alter later artifacts


class TestReport:
    def test_report_tables(self, small_run):
        _, out = small_run
        report_dir = write_report(out)
        names = {p.name for p in report_dir.glob("*.csv")}
        assert names == {
            "scores.csv",
            "logscore_quantiles.csv",
            "pit_cdf.csv",
            "brier_by_threshold.csv",
            "logscore_by_offset.csv",
            "trajectory.csv",
            "summary.csv",
        }
        with open(report_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        variants = {r["variant"] for r in rows}
        assert variants == {"cap-equal", "cap-adaptive", "equal", "static", "adaptive"}
        for r in rows:
            assert 0.0 <= float(r["pit_auc_pooled"]) <= 0.5
            assert float(r["mean_brier_integral"]) >= 0.0

    def test_report_is_pure(self, small_run):
        _, out = small_run
        before = {
            name: blob
            for name, blob in _tree_bytes(out).items()
            if not name.startswith("reports/")
        }
        write_report(out)
        write_report(out)
        after = {
            name: blob
            for name, blob in _tree_bytes(out).items()
            if not name.startswith("reports/")
        }
        assert before == after

    def test_quantiles_collapse_for_single_score(self, tmp_path):
        data_dir = tmp_path / "data"
        write_synthetic_archive(
            data_dir, seasons=(2010,), regions=("Nat",), targets=(1,), seed=2
        )
        config = RunConfig.parse(
            _config_text(data_dir, targets="1", variants="equal")
        )
        out = tmp_path / "run"
        replay(config, out)
        # keep only the earliest scored week
        runs_dir = out / "runs" / "equal" / "2010"
        for path in sorted(runs_dir.glob("week-*.json"))[2:]:
            payload = json.loads(path.read_text())
            payload["scores"] = []
            path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        report_dir = write_report(out)
        with open(report_dir / "logscore_quantiles.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        single = [r for r in rows if int(r["n"]) == 1]
        assert single
        for r in single:
            assert r["q10"] == r["q25"] == r["q50"] == r["q75"] == r["q90"]

    def test_identical_variants_identical_summaries(self, tmp_path):
        data_dir = tmp_path / "data"
        write_synthetic_archive(
            data_dir, seasons=(2010,), regions=("Nat",), targets=(1,), seed=3
        )
        config = RunConfig.parse(_config_text(data_dir, targets="1", variants="equal"))
        out = tmp_path / "run"
        replay(config, out)
        # clone the artifacts under a second variant name
        shutil.copytree(out / "runs" / "equal", out / "runs" / "adaptive")
        report_dir = write_report(out)
        with open(report_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        eq = sorted(
            tuple(r[k] for k in r if k != "variant") for r in rows if r["variant"] == "equal"
        )
        ad = sorted(
            tuple(r[k] for k in r if k != "variant") for r in rows if r["variant"] == "adaptive"
        )
        assert eq == ad

    def test_calibrated_forecaster_has_small_pit_auc(self, tmp_path):
        data_dir = tmp_path / "data"
        # wide observation noise keeps the per-bin mass small, so the
        # deterministic bin-inclusive PIT convention adds little bias
        write_synthetic_archive(
            data_dir,
            models=(ModelSpec("oracle", oracle=True),),
            seasons=(2010, 2011),
            regions=("Nat", "HHS1"),
            targets=(1, 2),
            seed=13,
            truth_noise=0.8,
        )
        config = RunConfig.parse(
            _config_text(data_dir, seasons="2010,2011", variants="equal")
        )
        out = tmp_path / "run"
        replay(config, out)
        report_dir = write_report(out)
        with open(report_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        overall = next(r for r in rows if r["target"] == "all")
        assert float(overall["pit_auc_pooled"]) < 0.1

    def test_corrupt_week_file_is_reported_by_name(self, small_run, tmp_path):
        _, out = small_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        path = sorted(copy.glob("runs/static/2011/week-*.json"))[3]
        path.write_text(path.read_text()[:150])
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            load_run_artifacts(copy)
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            write_report(copy)

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_report(tmp_path)
