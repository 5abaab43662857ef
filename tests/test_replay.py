import csv
import json
import logging
import re
import shutil
import weakref
from collections import Counter
from dataclasses import fields, replace
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappool.ensembles import VARIANTS
from cappool.epiweek import Epiweek, season_length, season_week
from cappool.panel import ForecastDataError
from cappool.replay import (
    ConfigError,
    ConfigMismatchError,
    CorruptArtifactError,
    RunConfig,
    load_run_artifacts,
    recorded_config,
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


# Paths that read back: no comma, "#" or line break, and no surrounding spaces.
_paths = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters="#,\x85"),
    min_size=1,
).filter(lambda s: s == s.strip())
_finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_configs = st.builds(
    RunConfig,
    forecasts=st.lists(_paths, max_size=3).map(tuple),
    flusight_dir=st.none() | _paths,
    truth=st.none() | _paths,
    state_ili=st.none() | _paths,
    populations=st.none() | _paths,
    seasons=st.lists(st.integers(1990, 2030), max_size=3, unique=True).map(tuple),
    targets=st.sets(st.sampled_from((1, 2, 3, 4)), min_size=1).map(lambda t: tuple(sorted(t))),
    variants=st.permutations(VARIANTS).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda n: tuple(order[:n]))
    ),
    phi_grid=st.lists(_finite, min_size=1, max_size=4, unique=True).map(tuple),
    delta=_finite,
    seed=st.integers(-(2**40), 2**40),
    brier_mode=st.sampled_from(["standard", "strict"]),
)


class TestRunConfig:
    @settings(max_examples=200, deadline=None)
    @given(_configs)
    def test_text_parses_back_equal(self, config):
        assert RunConfig.parse(config.text()) == config
        assert RunConfig.parse(config.text()).text() == config.text()

    def test_text_is_one_line_per_field(self):
        config = RunConfig(forecasts=("a.csv", "b.csv"), truth="t.csv", seasons=(2010,))
        assert config.text() == (
            "forecasts = a.csv,b.csv\ntruth = t.csv\nseasons = 2010\ntargets = 1,2,3,4\n"
            "variants = cap-equal,cap-adaptive,equal,static,adaptive\n"
            f"phi_grid = {','.join(repr(p) for p in config.phi_grid)}\n"
            "delta = 5.0\nseed = 0\nbrier_mode = standard\n"
        )

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

    def test_every_field_but_the_source_text_is_a_key(self):
        # A known key repeated fails as a duplicate, an unknown one earlier.
        for key in {f.name for f in fields(RunConfig)} - {"source_text"}:
            with pytest.raises(ConfigError) as info:
                RunConfig.parse(f"{key} = 1\n{key} = 1\n")
            assert "duplicate config key" in str(info.value)
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.parse("source_text = x\n")

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
            "phi_grid = 0.3,0.3\n",
            "phi_grid = 0.1,0.3,0.30\n",
            "seasons = 2010,2011,2010\n",
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

    def test_one_season_data_alive_at_a_time(self, tmp_path, monkeypatch):
        # Each season's forecast arrays are dropped before the next season's
        # panel is loaded, also with a CAP variant, whose caches belong to
        # one season.
        replay_mod = import_module("cappool.replay")  # the package re-exports replay()
        made, loads = [], []
        original_load = replay_mod.load_panel

        class Tracked(replay_mod.SeasonData):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        def load_panel(*args, **kwargs):
            loads.append(sum(ref() is not None for ref in made))
            return original_load(*args, **kwargs)

        monkeypatch.setattr(replay_mod, "SeasonData", Tracked)
        monkeypatch.setattr(replay_mod, "load_panel", load_panel)
        data_dir = tmp_path / "data"
        write_synthetic_archive(
            data_dir, seasons=(2010, 2011, 2012), regions=("Nat",), targets=(1,), seed=2
        )
        config = RunConfig.parse(
            _config_text(data_dir, seasons="2010,2011,2012", targets="1", variants="cap-equal")
        )
        replay(config, tmp_path / "run")
        assert loads == [0, 0, 0]

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

    def test_code_built_config_is_recorded_and_refuses_a_changed_delta(self, cap_run, tmp_path):
        data_dir, overrides, out = cap_run
        config = RunConfig(
            forecasts=(str(data_dir / "forecasts.csv"),), truth=str(data_dir / "truth.csv"),
            seasons=(2010,), targets=(1,), variants=("cap-equal",), phi_grid=(0.9,),
        )
        run = tmp_path / "run"
        replay(config, run)
        assert recorded_config(run) == config
        before = _tree_bytes(run)
        assert before == _tree_bytes(out)  # run.cfg included: the parsed config's text
        with pytest.raises(ConfigMismatchError, match="records delta = 5.0 but this config has"):
            replay(replace(config, delta=1.0), run)
        assert _tree_bytes(run) == before

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("truth", "data#1/truth.csv", "truth = 'data#1/truth.csv' reads back from run.cfg as"),
            ("forecasts", ("a,b.csv",), "forecasts = ('a,b.csv',) reads back from run.cfg as"),
            ("truth", "a\nb.csv", "truth cannot be recorded in run.cfg: line 2"),
            ("targets", (2, 1), "targets = (2, 1) reads back from run.cfg as (1, 2)"),
            ("variants", ("stacked",), "variants cannot be recorded in run.cfg: unknown variants"),
        ],
    )
    def test_unrecordable_config_is_refused_before_the_directory(
        self, tmp_path, field, value, message
    ):
        config = replace(RunConfig(seasons=(2010,), truth="truth.csv"), **{field: value})
        with pytest.raises(ConfigError, match=re.escape(message)):
            replay(config, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_unreadable_recorded_config_is_corrupt(self, cap_run, tmp_path):
        data_dir, overrides, _ = cap_run
        run = tmp_path / "run"
        run.mkdir()
        (run / "run.cfg").write_text("phi = 0.5\n")
        with pytest.raises(CorruptArtifactError, match="run.cfg"):
            replay(RunConfig.parse(_config_text(data_dir, **overrides)), run)


    def test_undecodable_recorded_config_is_corrupt(self, cap_run, tmp_path):
        data_dir, overrides, out = cap_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / "run.cfg"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        before = _tree_bytes(run)
        for call in (lambda: recorded_config(run), lambda: write_report(run)):
            with pytest.raises(CorruptArtifactError) as caught:
                call()
            assert str(caught.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")
            assert str(caught.value).count(str(path)) == 1
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            replay(RunConfig.parse(_config_text(data_dir, **overrides)), run)
        assert _tree_bytes(run) == before


def _made_variants(monkeypatch) -> list:
    """Record every variant replay makes, in order."""
    replay_mod = import_module("cappool.replay")
    made, original = [], replay_mod.make_variant

    def make_variant(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(replay_mod, "make_variant", make_variant)
    return made


def _by_walk(made: list) -> dict:
    """The variants that walked a season, by (name, season)."""
    return {(v.name, v._season.season): v for v in made if v._season is not None}


@pytest.fixture(scope="module")
def adaptive_walk(tmp_path_factory):
    """A cold two-season cap-adaptive and adaptive run, targets 1 and 2,
    and the variants that walked it, by (name, season)."""
    root = tmp_path_factory.mktemp("adaptive_walk")
    data_dir = root / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010, 2011), regions=("Nat",), targets=(1, 2), seed=3,
        missing_rate=0.05,
    )
    config = RunConfig.parse(
        _config_text(data_dir, seasons="2010,2011", variants="cap-adaptive,adaptive")
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        made = _made_variants(monkeypatch)
        replay(config, root / "run")
    return config, root / "run", _by_walk(made)


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

    @pytest.mark.parametrize("cut", ["2010 first", "2010 middle", "2010 last", "2011 middle"])
    def test_resumed_state_equals_the_cold_walk(self, adaptive_walk, tmp_path, monkeypatch, cut):
        # Every week file from the cut on is gone, as when a run is stopped
        # there. The variants that walk the resumed seasons must hold the
        # cold run's fits, phi score rows and picks, bit for bit.
        config, full, cold = adaptive_walk
        season, at = cut.split()
        season = int(season)
        n_weeks = season_length(season)
        t = {"first": 1, "middle": n_weeks // 2, "last": n_weeks + max(config.targets)}[at]
        run = tmp_path / "run"
        shutil.copytree(full, run)
        for path in run.glob("runs/*/*/week-*.*"):
            if int(path.stem[5:]) >= season_week(season, t).to_int():
                path.unlink()
        made = _made_variants(monkeypatch)
        replay(config, run)
        resumed = _by_walk(made)
        assert resumed.keys() == {key for key in cold if key[1] >= season}
        for key, variant in resumed.items():
            assert variant._fits.keys() == cold[key]._fits.keys()
            for fit, weights in variant._fits.items():
                assert np.array_equal(weights, cold[key]._fits[fit]), (key, fit)
            if key[0] == "cap-adaptive":
                assert variant._rows == cold[key]._rows
                assert variant._picks == cold[key]._picks
        assert _tree_bytes(run / "runs") == _tree_bytes(full / "runs")

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


@pytest.fixture(scope="module")
def three_season_run(tmp_path_factory):
    """A finished three-season equal and cap-adaptive run, read-only."""
    root = tmp_path_factory.mktemp("three_season_run")
    data_dir = root / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010, 2011, 2012), regions=("Nat",), targets=(1,), seed=2
    )
    config = RunConfig.parse(
        _config_text(data_dir, seasons="2010,2011,2012", targets="1", variants="equal,cap-adaptive")
    )
    out = root / "run"
    replay(config, out)
    return config, out


@pytest.fixture
def replay_calls(monkeypatch):
    """Record replay's panel loads and SeasonData builds (by season), its
    week-file reads (by variant, season and week) and the pmf text of each
    ``parse_prob_rows`` call it makes."""
    replay_mod = import_module("cappool.replay")
    calls = {"loads": [], "built": [], "reads": Counter(), "parsed": []}
    original_load, original_read = replay_mod.load_panel, replay_mod._load_week
    original_parse = replay_mod.parse_prob_rows

    class Counted(replay_mod.SeasonData):
        def __init__(self, panel, season, *args, **kwargs):
            calls["built"].append(season)
            super().__init__(panel, season, *args, **kwargs)

    def load_panel(directory, seasons=None):
        calls["loads"].append(list(seasons))
        return original_load(directory, seasons)

    def load_week(out_dir, variant, season, week):
        calls["reads"][variant, season, week] += 1
        return original_read(out_dir, variant, season, week)

    def parse_prob_rows(tails, *args):
        calls["parsed"].append(list(tails))
        return original_parse(tails, *args)

    monkeypatch.setattr(replay_mod, "SeasonData", Counted)
    monkeypatch.setattr(replay_mod, "load_panel", load_panel)
    monkeypatch.setattr(replay_mod, "_load_week", load_week)
    monkeypatch.setattr(replay_mod, "parse_prob_rows", parse_prob_rows)
    return calls


def _n_week_files(config: RunConfig, season: int) -> int:
    """Week files one variant writes for a season: every issue week, then
    one per week of the forecast horizon past the season's end."""
    return season_length(season) + max(config.targets)


class TestResumeLoadsOnlyWhatItComputes:
    def test_finished_directory_loads_no_panel(
        self, three_season_run, tmp_path, replay_calls, caplog
    ):
        config, full = three_season_run
        run = tmp_path / "run"
        shutil.copytree(full, run)
        before = _tree_bytes(run)
        with caplog.at_level(logging.INFO, logger="cappool"):
            replay(config, run)
        assert replay_calls["loads"] == [] and replay_calls["built"] == []
        assert _tree_bytes(run) == before
        assert set(replay_calls["reads"].values()) == {1}
        seasons = (2010, 2011, 2012)
        assert len(replay_calls["reads"]) == 2 * sum(_n_week_files(config, s) for s in seasons)
        assert [r.getMessage() for r in caplog.records if r.name == "cappool"] == [
            f"season {s}: all {2 * _n_week_files(config, s)} week files reused, panel not loaded"
            for s in seasons
        ]

    def test_resume_loads_up_to_the_season_it_computes(
        self, three_season_run, tmp_path, replay_calls, caplog
    ):
        config, full = three_season_run
        run = tmp_path / "run"
        shutil.copytree(full, run)
        # Cut the middle season short: its last weeks, for both variants.
        removed = [p for p in run.glob("runs/*/2011/week-*.*") if int(p.stem[5:]) >= 201215]
        for path in removed:
            path.unlink()
        assert removed
        with caplog.at_level(logging.INFO, logger="cappool"):
            replay(config, run)
        assert replay_calls["loads"] == [[2010], [2011]]
        assert replay_calls["built"] == [2010, 2011]
        assert set(replay_calls["reads"].values()) == {1}
        assert _tree_bytes(run) == _tree_bytes(full)
        reused = "week files reused, panel not loaded"
        assert [r.getMessage() for r in caplog.records if r.name == "cappool"] == [
            f"season 2010: all {2 * _n_week_files(config, 2010)} {reused}",
            "season 2011: equal week 201215 is not stored; loading the panel",
            f"season 2012: all {2 * _n_week_files(config, 2012)} {reused}",
        ]

    def test_finished_directory_parses_no_pmf_text(
        self, three_season_run, tmp_path, replay_calls
    ):
        config, full = three_season_run
        run = tmp_path / "run"
        shutil.copytree(full, run)
        replay(config, run)
        assert replay_calls["parsed"] == []
        assert _tree_bytes(run) == _tree_bytes(full)

    @pytest.mark.parametrize("variant", ["equal", "cap-adaptive"])
    def test_resume_parses_no_pmf_text(self, small_run, tmp_path, replay_calls, variant):
        # Targets 1 and 2: week t scores the runs of weeks t - 1 and t - 2,
        # which the walk from week one computes rather than reads back.
        config, full = small_run
        run = tmp_path / "run"
        shutil.copytree(full, run, ignore=shutil.ignore_patterns("reports"))
        weeks = sorted(run.glob(f"runs/{variant}/2010/week-*.json"))
        t = len(weeks) // 2  # weeks[t - 1] is week index t
        for path in (weeks[t - 1], weeks[t - 1].with_suffix(".csv")):
            path.unlink()
        replay(config, run)
        assert replay_calls["parsed"] == []
        assert replay_calls["built"] == [2010]
        assert set(replay_calls["reads"].values()) == {1}
        assert _tree_bytes(run / "runs") == _tree_bytes(full / "runs")

    def test_corrupt_week_is_warned_once_and_recomputed(
        self, three_season_run, tmp_path, replay_calls, caplog
    ):
        config, full = three_season_run
        run = tmp_path / "run"
        shutil.copytree(full, run)
        corrupt = sorted(run.glob("runs/cap-adaptive/2012/week-*.json"))[4]
        corrupt.write_text(corrupt.read_text()[:100])
        with caplog.at_level(logging.WARNING, logger="cappool"):
            replay(config, run)
        warned = [r.getMessage() for r in caplog.records if r.name == "cappool"]
        assert len(warned) == 1 and str(corrupt) in warned[0]
        assert replay_calls["loads"] == [[2010], [2011], [2012]]
        assert set(replay_calls["reads"].values()) == {1}
        assert _tree_bytes(run) == _tree_bytes(full)

    def test_damaged_panel_fails_only_when_needed(self, three_season_run, tmp_path):
        config, full = three_season_run
        run = tmp_path / "run"
        shutil.copytree(full, run)
        season_csv = run / "panel" / "season-2010.csv"
        text = season_csv.read_bytes()
        season_csv.write_bytes(text[: len(text) // 2])
        # Nothing to compute: the panel is not parsed, and nothing changes.
        before = _tree_bytes(run)
        replay(config, run)
        assert _tree_bytes(run) == before
        # A 2012 week to compute needs 2010 in the history: the damaged file
        # is named, and no week file is added.
        week = sorted(run.glob("runs/equal/2012/week-*.json"))[-1]
        week.unlink()
        before = _tree_bytes(run)
        with pytest.raises(ForecastDataError, match=re.escape(str(season_csv))):
            replay(config, run)
        assert _tree_bytes(run) == before


class TestWeightPrefit:
    def test_prefit_leaves_every_byte_as_it_was(self, tmp_path, monkeypatch):
        # Each week's and each season's fits, batched by shape in _fit_all,
        # against the same walk with every _fit_all problem fitted alone.
        ensembles = import_module("cappool.ensembles")
        pool = import_module("cappool.pool")
        data_dir = tmp_path / "data"
        write_synthetic_archive(
            data_dir, seasons=(2010, 2011), regions=("Nat", "HHS1"), targets=(1, 2),
            seed=5, missing_rate=0.04,
        )
        config = RunConfig.parse(_config_text(
            data_dir, seasons="2010,2011", variants="static,adaptive,cap-adaptive"
        ))
        solo_fits, batch_sizes = [], []

        def counting(*args, **kwargs):
            solo_fits.append(None)
            return pool.em_pool_weights(*args, **kwargs)

        def sizing(problems):
            batch_sizes.append(len(problems))
            return pool.em_pool_weights_batch(problems)

        def one_at_a_time(self, data, t, problems):
            alpha = self._alpha(data, t)
            fitted_for = "prior seasons" if t is None else f"week {t}"
            for key, (stratum, f) in problems.items():
                fit = ensembles.em_pool_weights(f, alpha=alpha)
                self._keep(data, key, stratum, fitted_for, fit)

        monkeypatch.setattr(ensembles, "em_pool_weights", counting)
        monkeypatch.setattr(ensembles, "em_pool_weights_batch", sizing)
        replay(config, tmp_path / "prefit")
        with_prefit, solo_fits[:] = len(solo_fits), []
        shape_batches, batch_sizes[:] = sum(n >= 2 for n in batch_sizes), []
        monkeypatch.setattr(ensembles._VariantBase, "_fit_all", one_at_a_time)
        replay(config, tmp_path / "one-at-a-time")
        # The replays' own batches are the same in both walks, so the extra
        # batches of two or more problems are _fit_all's shape batches.
        assert shape_batches > sum(n >= 2 for n in batch_sizes)
        assert with_prefit < len(solo_fits)
        assert _tree_bytes(tmp_path / "prefit") == _tree_bytes(tmp_path / "one-at-a-time")


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
        # clone the artifacts under a second variant name, which each bundle
        # names too
        shutil.copytree(out / "runs" / "equal", out / "runs" / "adaptive")
        for path in (out / "runs" / "adaptive").rglob("week-*.json"):
            path.write_text(json.dumps(json.loads(path.read_text()) | {"variant": "adaptive"}))
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

    def test_week_copied_over_the_next_is_corrupt_and_recomputed(self, small_run, tmp_path):
        # The copy is valid week data for 201045; under 201046's name it
        # loaded as that week.
        config, out = small_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy, ignore=shutil.ignore_patterns("reports"))
        base = copy / "runs" / "equal" / "2010"
        for suffix in (".json", ".csv"):
            shutil.copy(base / f"week-201045{suffix}", base / f"week-201046{suffix}")
        path = base / "week-201046.json"
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            load_run_artifacts(copy)
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            write_report(copy)
        replay(config, copy)
        assert _tree_bytes(copy / "runs") == _tree_bytes(out / "runs")

    @pytest.mark.parametrize("fault", ["mass-moved", "copied", "undecodable", "long-field"])
    def test_changed_week_csv_is_corrupt_and_recomputed(self, small_run, tmp_path, caplog, fault):
        # Mass moved between two bins of a row, which still sums to 1; the
        # CSV alone copied from the week before; a byte that is not UTF-8;
        # a quoted field longer than csv's field size limit.
        config, out = small_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy, ignore=shutil.ignore_patterns("reports"))
        base = copy / "runs" / "equal" / "2010"
        path = base / "week-201046.csv"
        data = path.read_bytes()
        if fault == "mass-moved":
            header, row, rest = data.split(b"\n", 2)
            cells = row.split(b",")
            cells[2:4] = [repr(float(cells[2]) + float(cells[3])).encode(), b"0.0"]
            path.write_bytes(b"\n".join([header, b",".join(cells), rest]))
        elif fault == "copied":
            shutil.copy(base / "week-201045.csv", path)
        elif fault == "undecodable":
            path.write_bytes(data + b"\xff")
        else:
            path.write_bytes(data + b'Nat,1,"' + b"0" * 131_073 + b'"\n')
        assert path.read_bytes() != data
        for read in (load_run_artifacts, write_report):
            with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
                read(copy)
        with caplog.at_level(logging.WARNING, logger="cappool"):
            replay(config, copy)
        warned = [r.getMessage() for r in caplog.records if r.name == "cappool"]
        assert len(warned) == 1 and str(path) in warned[0]
        assert _tree_bytes(copy / "runs") == _tree_bytes(out / "runs")

    @pytest.mark.parametrize("stray", ["week-copy", "bad-week", "season-dir"])
    def test_stray_names_under_runs_are_rejected_by_name(self, small_run, tmp_path, stray):
        # A stray copy was read as its week a second time, and a stray
        # directory raised a bare ValueError naming nothing.
        _, out = small_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy, ignore=shutil.ignore_patterns("reports"))
        week = sorted(copy.glob("runs/cap-adaptive/2010/week-*.json"))[5]
        if stray == "week-copy":
            path = week.with_name(week.stem + "-old.json")
            shutil.copy(week, path)
        elif stray == "bad-week":
            path = week.with_name("week-201099.json")
            shutil.copy(week, path)
        else:
            path = copy / "runs" / "cap-adaptive" / "notes"
            path.mkdir()
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            load_run_artifacts(copy)
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            write_report(copy)
        assert not (copy / "reports").exists()

    def test_unfinished_atomic_writes_are_not_week_files(self, small_run, tmp_path):
        _, out = small_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        week = sorted(copy.glob("runs/equal/2010/week-*.json"))[2]
        week.with_name(week.name + ".tmp").write_text(week.read_text()[:40])
        (runs, scores), (want_runs, want_scores) = load_run_artifacts(copy), load_run_artifacts(out)
        assert len(runs) == len(want_runs) and scores == want_scores

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_report(tmp_path)
