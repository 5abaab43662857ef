import csv
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cappool
from cappool.cli import _panel_fit_inputs, main
from cappool.epiweek import season_length, season_weeks
from cappool.panel import Panel, TruthTable, load_panel, write_panel
from cappool.pmf import N_BINS
from cappool.synthetic import synthetic_archive, write_synthetic_archive


@pytest.fixture()
def run_setup(tmp_path):
    data_dir = tmp_path / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010,), regions=("Nat",), targets=(1,), seed=4
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"forecasts = {data_dir / 'forecasts.csv'}\n"
        f"truth = {data_dir / 'truth.csv'}\n"
        "seasons = 2010\n"
        "targets = 1\n"
        "variants = cap-equal,equal\n"
        "phi_grid = 0.0,0.5\n"
    )
    return cfg, tmp_path / "out"


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(cappool.__path__, "cappool."))
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


class TestCliExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_args(self, capsys):
        assert main(["replay"]) == 2
        capsys.readouterr()

    def test_replay_takes_no_seed(self, run_setup, capsys):
        # Replay is seed-free; the config's seed key is only recorded.
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["replay", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_undecodable_config_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seasons = 2010\n\xff\n")
        assert main(["replay", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg}: 'utf-8' codec can't decode byte 0xff" in err
        assert not (tmp_path / "o").exists()

    def test_duplicate_targets_rejected_before_ingest(self, run_setup, capsys):
        cfg, out = run_setup
        cfg.write_text(cfg.read_text().replace("targets = 1\n", "targets = 1,1\n"))
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 2
        assert "duplicate targets" in capsys.readouterr().err
        assert not (out / "panel").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("phi_grid = 0.3,0.3\n", "duplicate phi_grid"),
            ("seasons = 2010,2010\n", "duplicate seasons"),
        ],
    )
    def test_duplicate_values_rejected_before_ingest(self, run_setup, capsys, line, message):
        cfg, out = run_setup
        key = line.split(" ")[0]
        text = "".join(l for l in cfg.read_text().splitlines(True) if not l.startswith(key))
        cfg.write_text(text + line)
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "panel").exists()

    def test_config_without_seasons_writes_nothing(self, run_setup, capsys):
        # A refused config must not record itself, or the corrected one
        # would then mismatch the directory's run.cfg.
        cfg, out = run_setup
        text = cfg.read_text()
        cfg.write_text(text.replace("seasons = 2010\n", ""))
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no seasons configured" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text(text)
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()

    def test_report_with_unreadable_run_cfg(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "run.cfg").write_text("phi = 0.5\n")
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1
        assert str(out / "run.cfg") in capsys.readouterr().err

    def test_report_with_undecodable_run_cfg(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "run.cfg"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: 'utf-8' codec can't decode byte 0xff" in err
        assert err.count(str(path)) == 1

    def test_trajectory_without_truth_table(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "panel" / "truth.csv").unlink()
        capsys.readouterr()
        assert main(["diagnose", "trajectory", "--out", str(out)]) == 1
        assert f"no truth table at {out / 'panel' / 'truth.csv'}" in capsys.readouterr().err

    def test_report_on_empty_directory(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_phi_trace_without_runs(self, tmp_path, capsys):
        assert main(["phi-trace", "--out", str(tmp_path)]) == 1
        capsys.readouterr()


def _flusight_file(path, first_value):
    lines = ["Location,Target,Type,Unit,Bin_start_incl,Bin_end_notincl,Value"]
    for i in range(N_BINS):
        value = first_value if i == 0 else 1.0 / N_BINS
        lines.append(f"US National,1 wk ahead,Bin,percent,{i / 10:.1f},{(i + 1) / 10:.1f},{value}")
    path.parent.mkdir(parents=True)
    path.write_text("\n".join(lines) + "\n")


class TestCliInputErrors:
    """A bad input file fails ingest with exit 1 and a message naming it."""

    @pytest.mark.parametrize(
        "probe, message",
        [
            ("second forecasts file", "row 6: unknown region token 'Mars'"),
            ("truth file", "row 4: unknown region token 'Mars'"),
            ("flusight file", "Nat target 1: negative probability entry"),
            ("over-long field", "field larger than field limit"),
            ("not UTF-8", "'utf-8' codec can't decode"),
        ],
    )
    def test_ingest_error_names_the_file(self, tmp_path, capsys, probe, message):
        data_dir = tmp_path / "data"
        forecasts, truth = write_synthetic_archive(
            data_dir, seasons=(2010,), regions=("Nat",), targets=(1,), seed=4
        )
        sources = f"forecasts = {forecasts}\n"
        lines = forecasts.read_text().splitlines(True)
        bad = data_dir / "forecasts-2.csv"
        if probe == "truth file":
            lines = truth.read_text().splitlines(True)
            lines[3] = "Mars" + lines[3][lines[3].index(","):]
            truth = bad = data_dir / "truth-bad.csv"
            bad.write_text("".join(lines))
        elif probe == "flusight file":
            bad = tmp_path / "flusight" / "model-a" / "EW43-2016.csv"
            _flusight_file(bad, -0.01)
            sources = f"flusight_dir = {tmp_path / 'flusight'}\n"
        else:
            if probe == "second forecasts file":
                lines[5] = "Mars" + lines[5][lines[5].index(","):]
            elif probe == "over-long field":
                lines[5] = lines[5].replace(",", "," + "m" * (csv.field_size_limit() + 1), 1)
            else:
                lines[5] = lines[5].replace("Nat", "N\xe9t", 1)
            bad.write_bytes("".join(lines).encode("latin-1"))
            sources = f"forecasts = {forecasts},{bad}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(sources + f"truth = {truth}\nseasons = 2010\ntargets = 1\n")
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err
        assert message in err


class TestCliWorkflow:
    def test_ingest_then_replay_then_report(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "panel" / "season-2010.csv").exists()
        assert (out / "panel" / "season-2010.json").exists()
        assert (out / "panel" / "truth.csv").exists()

        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "runs" / "cap-equal" / "2010").is_dir()

        assert main(["report", "--out", str(out)]) == 0
        assert (out / "reports" / "summary.csv").exists()
        capsys.readouterr()

    def test_a_run_never_imports_numpy_ma(self, run_setup):
        # np.median, np.quantile and np.unique import numpy.ma on their first
        # call, which costs time and memory; a run reads its medians and
        # quantiles off sorted arrays instead. Only a fresh interpreter shows
        # what a run imports.
        cfg, out = run_setup
        script = (
            "import sys\n"
            "from cappool.cli import main\n"
            "cfg, out = sys.argv[1:]\n"
            "for argv in (['ingest', '--config', cfg, '--out', out],\n"
            "             ['replay', '--config', cfg, '--out', out], ['report', '--out', out]):\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
        )
        paths = (str(Path(cappool.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        done = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert (out / "runs" / "cap-equal" / "2010").is_dir()
        assert done.stdout.splitlines()[-1] == "[]"

    def test_replay_with_changed_config_fails_and_keeps_weeks(self, run_setup, capsys):
        cfg, out = run_setup
        text = cfg.read_text()
        cfg.write_text(text.replace("phi_grid = 0.0,0.5", "phi_grid = 0.9"))
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        weeks = {p: p.read_bytes() for p in sorted(out.glob("runs/*/*/week-*"))}
        assert weeks
        cfg.write_text(text.replace("phi_grid = 0.0,0.5", "phi_grid = 0.0"))
        capsys.readouterr()
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "phi_grid" in err and "run.cfg" in err
        assert {p: p.read_bytes() for p in sorted(out.glob("runs/*/*/week-*"))} == weeks

    def test_replay_ingests_when_needed(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "panel" / "truth.csv").exists()
        capsys.readouterr()

    def test_phi_trace(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["phi-trace", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "reports" / "phi_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert {r["variant"] for r in rows} == {"cap-equal"}
        for r in rows:
            assert 0.0 <= float(r["phi"]) <= 1.0
            assert r["clusters"]

    def _two_cap_variants(self, run_setup):
        cfg, out = run_setup
        cfg.write_text(cfg.read_text().replace("cap-equal,equal", "cap-equal,cap-adaptive,equal"))
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_phi_trace_of_one_variant(self, run_setup, capsys):
        out = self._two_cap_variants(run_setup)
        assert main(["phi-trace", "--out", str(out)]) == 0
        with open(out / "reports" / "phi_trace.csv", newline="") as fh:
            every = list(csv.DictReader(fh))
        assert {r["variant"] for r in every} == {"cap-equal", "cap-adaptive"}
        assert main(["phi-trace", "--variant", "cap-adaptive", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "reports" / "phi_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [r for r in every if r["variant"] == "cap-adaptive"]

    @pytest.mark.parametrize("variant", ["equal", "cap-eqaul"])
    def test_phi_trace_of_an_absent_variant_names_it(self, run_setup, capsys, variant):
        out = self._two_cap_variants(run_setup)
        capsys.readouterr()
        assert main(["phi-trace", "--variant", variant, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: no cluster-aggregate-pool runs of variant {variant!r} in this run "
            "directory; it holds runs of cap-adaptive, cap-equal\n"
        )
        assert not (out / "reports" / "phi_trace.csv").exists()

    def test_ingest_from_state_ili(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_synthetic_archive(
            data_dir, seasons=(2010,), regions=("HHS1",), targets=(1,), seed=4
        )
        (tmp_path / "pops.csv").write_text(
            "state,region,population\naa,HHS1,1000000\nbb,HHS1,3000000\n"
        )
        weeks = [row.split(",")[1] for row in
                 (data_dir / "truth.csv").read_text().splitlines()[1:]]
        state_rows = ["state,epiweek,ili"]
        for w in weeks:
            state_rows.append(f"aa,{w},2.0")
            state_rows.append(f"bb,{w},4.0")
        (tmp_path / "state_ili.csv").write_text("\n".join(state_rows) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"forecasts = {data_dir / 'forecasts.csv'}\n"
            f"state_ili = {tmp_path / 'state_ili.csv'}\n"
            f"populations = {tmp_path / 'pops.csv'}\n"
            "seasons = 2010\ntargets = 1\nvariants = equal\n"
        )
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        truth_rows = (out / "panel" / "truth.csv").read_text().splitlines()[1:]
        hhs1 = [r for r in truth_rows if r.startswith("HHS1,")]
        assert hhs1 and all(r.endswith("3.5") for r in hhs1)

    def test_sidecar_lists_missingness(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_synthetic_archive(
            data_dir, seasons=(2010,), regions=("Nat",), targets=(1,),
            seed=4, missing_rate=0.2,
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"forecasts = {data_dir / 'forecasts.csv'}\n"
            f"truth = {data_dir / 'truth.csv'}\n"
            "seasons = 2010\ntargets = 1\nvariants = equal\n"
        )
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        sidecar = json.loads((out / "panel" / "season-2010.json").read_text())
        assert sidecar["roster"] == ["m1", "m2", "m3", "m4", "m5"]
        assert sidecar["missing"]  # the 20% dropout must appear explicitly


class TestCliDiagnose:
    def test_restarts_row_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(
            ["diagnose", "restarts", "--n", "100", "--seed", "7", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        with open(out / "diagnostics" / "restarts.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 101  # header + one row per restart
        summary = (out / "diagnostics" / "restarts_summary.csv").read_text()
        assert "likelihood_spread" in summary

    def test_restarts_same_seed_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["diagnose", "restarts", "--n", "10", "--seed", "3", "--out", str(out)]
            ) == 0
        capsys.readouterr()
        a = (out_a / "diagnostics" / "restarts.csv").read_bytes()
        b = (out_b / "diagnostics" / "restarts.csv").read_bytes()
        assert a == b

    def test_variance_kl_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["diagnose", "variance-kl", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "diagnostics" / "variance_kl.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16  # 0.75 to 1.5 in 0.05 steps
        assert float(rows[0]["kl"]) == 0.0
        assert float(rows[0]["variance"]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["variance-kl", "--step", "0"], "--step"),
            (["variance-kl", "--step", "-0.05"], "--step"),
            (["variance-kl", "--step", "nan"], "--step"),
            (["variance-kl", "--start", "1.5", "--stop", "0.75"], "--stop"),
            (["variance-kl", "--stop", "inf"], "--stop"),
            (["surface", "--resolution", "0"], "--resolution"),
            (["surface", "--resolution", "-1"], "--resolution"),
        ],
    )
    def test_bad_numeric_flag_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main(["diagnose", *argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_trajectory_from_run(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["diagnose", "trajectory", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "diagnostics" / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert {r["variant"] for r in rows} == {"cap-equal"}

    def test_trajectory_equals_the_report_table(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        assert main(["diagnose", "trajectory", "--out", str(out)]) == 0
        capsys.readouterr()
        diagnosed = (out / "diagnostics" / "trajectory.csv").read_bytes()
        assert diagnosed.count(b"\n") > 1
        assert diagnosed == (out / "reports" / "trajectory.csv").read_bytes()

    def test_surface_demo(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["diagnose", "surface", "--out", str(out), "--resolution", "10"]) == 0
        capsys.readouterr()
        with open(out / "diagnostics" / "surface.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(range(1, 12))


class TestPanelFitInputs:
    """``diagnose restarts --region/--target/--season`` fits on the panel's
    forecasts of one stratum: one row per week with a realized truth and at
    least one forecast, NaN where a model did not submit."""

    @pytest.fixture()
    def out(self, tmp_path):
        fragment, truth = synthetic_archive(
            seasons=(2010, 2011), regions=("Nat", "HHS1"), targets=(1, 2),
            seed=9, missing_rate=0.3,
        )
        weeks = season_weeks(2010)
        # A week nobody forecast and two weeks whose truth never realized.
        fragment = {
            k: p for k, p in fragment.items()
            if not (k.region == "Nat" and k.target == 1 and k.issue == weeks[3])
        }
        values = {key: v for key, v in truth.items() if key not in
                  {("Nat", weeks[6].add_weeks(1)), ("Nat", weeks[9].add_weeks(1))}}
        write_panel(Panel.assemble([fragment], TruthTable(values)), tmp_path / "out" / "panel")
        return tmp_path / "out"

    def expected(self, out, region, target, season):
        panel = load_panel(out / "panel", seasons=[season])
        cells: dict = {}
        for key, pmf in panel.entries.items():
            if (key.region, key.target) == (region, target):
                cells.setdefault(key.issue, {})[key.model_id] = pmf
        rows, truths = [], []
        for week in season_weeks(season):
            value = panel.realized_truth(region, target, week)
            cell = cells.get(week, {})
            if value is None or not cell:
                continue
            rows.append([cell.get(m, np.full(N_BINS, np.nan)) for m in panel.roster])
            truths.append(value)
        return np.array(rows), np.array(truths), list(panel.roster)

    @pytest.mark.parametrize("region, target, season", [("Nat", 1, 2010), ("HHS1", 2, 2011)])
    def test_equals_a_lookup_built_from_the_entries(self, out, region, target, season):
        F, y, names = _panel_fit_inputs(str(out), region, target, season)
        want_F, want_y, want_names = self.expected(out, region, target, season)
        assert F.dtype == want_F.dtype and F.shape == want_F.shape
        assert F.tobytes() == want_F.tobytes()
        assert y.tobytes() == want_y.tobytes()
        assert names == want_names
        assert np.isnan(F).all(axis=2).any()  # some model missed a kept week

    def test_skips_weeks_without_truth_or_forecasts(self, out):
        F, y, _ = _panel_fit_inputs(str(out), "Nat", 1, 2010)
        assert len(y) == season_length(2010) - 3

    def test_unknown_region_is_named(self, out, capsys):
        argv = ["diagnose", "restarts", "--region", "HHS9", "--target", "1",
                "--season", "2010", "--out", str(out)]
        assert main(argv) == 1
        assert "no forecasts for HHS9 target 1 in 2010" in capsys.readouterr().err

    def test_restarts_on_the_panel(self, out, capsys):
        argv = ["diagnose", "restarts", "--n", "5", "--region", "Nat", "--target", "1",
                "--season", "2010", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        with open(out / "diagnostics" / "restarts_summary.csv", newline="") as fh:
            models = [row[0] for row in csv.reader(fh)][1:-2]
        assert models == ["m1", "m2", "m3", "m4", "m5"]


def _forge_week_csv(csv_path: Path, edit) -> None:
    """Edit a week CSV's lines and rewrite its bundle's ``csv_sha256`` to
    match, as only editing both files together can."""
    lines = csv_path.read_text().split("\n")
    edit(lines)
    data = "\n".join(lines).encode()
    csv_path.write_bytes(data)
    bundle_path = csv_path.with_suffix(".json")
    bundle = json.loads(bundle_path.read_text())
    bundle["csv_sha256"] = hashlib.sha256(data).hexdigest()
    bundle_path.write_text(json.dumps(bundle, indent=1, sort_keys=True) + "\n")


class TestForgedWeekDigest:
    @pytest.fixture()
    def finished(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        weeks = sorted((out / "runs" / "equal" / "2010").glob("week-*.json"))
        return cfg, out, weeks[4].with_suffix(".csv"), weeks[5]

    @staticmethod
    def _runs(out: Path) -> dict[Path, bytes]:
        return {p: p.read_bytes() for p in sorted(out.glob("runs/*/*/week-*"))}

    def test_unparsable_row_is_kept_by_every_replay(self, finished, capsys):
        cfg, out, week_csv, next_json = finished

        def oops(lines):
            region, target, _, rest = lines[1].split(",", 3)
            lines[1] = ",".join([region, target, "oops", rest])

        original = self._runs(out)
        _forge_week_csv(week_csv, oops)
        forged = self._runs(out)
        # Nothing to compute: no pmf text is parsed, and the week is kept.
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert self._runs(out) == forged
        message = f"error: corrupt week file {week_csv}: line 2: could not convert string to float: 'oops'"
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        # The next week is recomputed by a walk from week one, which scores
        # the runs it computed: the forged week is kept, and the next week is
        # written as the uninterrupted run wrote it.
        next_json.unlink()
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert self._runs(out) == forged
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        # Recovery: delete the forged week's two files and replay again.
        week_csv.unlink()
        week_csv.with_suffix(".json").unlink()
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert self._runs(out) == original

    def test_forged_pmf_does_not_reach_a_recomputed_week(self, finished):
        # Mass moved between the row's two largest bins: the text parses
        # and the digest matches, so no check can tell the week was forged.
        cfg, out, week_csv, next_json = finished
        original = self._runs(out)

        def move_mass(lines):
            cells = lines[1].split(",")
            probs = [float(v) for v in cells[2:]]
            a, b = (int(k) + 2 for k in np.argsort(probs)[-2:])
            cells[a], cells[b] = repr(float(cells[a]) + float(cells[b])), "0.0"
            lines[1] = ",".join(cells)

        _forge_week_csv(week_csv, move_mass)
        forged = self._runs(out)
        assert forged[week_csv] != original[week_csv]
        next_json.unlink()
        next_json.with_suffix(".csv").unlink()
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        # The forged week is kept, and the next week is the uninterrupted run's.
        assert self._runs(out) == forged

    def test_repeated_row_is_corrupt(self, finished, capsys):
        # The reader used to key rows by (region, target), so a repeated
        # row silently became its run's pmf.
        cfg, out, week_csv, _ = finished
        before = self._runs(out)
        _forge_week_csv(week_csv, lambda lines: lines.insert(2, lines[1]))
        assert main(["report", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: corrupt week file {week_csv}: its rows are not the runs marked has_pmf" in err
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert self._runs(out) == before
