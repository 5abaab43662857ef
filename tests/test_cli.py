import csv
import json

import pytest

from cappool.cli import main
from cappool.synthetic import write_synthetic_archive


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


class TestCliExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_args(self, capsys):
        assert main(["replay"]) == 2
        capsys.readouterr()

    def test_invalid_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["replay", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_duplicate_targets_rejected_before_ingest(self, run_setup, capsys):
        cfg, out = run_setup
        cfg.write_text(cfg.read_text().replace("targets = 1\n", "targets = 1,1\n"))
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 2
        assert "duplicate targets" in capsys.readouterr().err
        assert not (out / "panel").exists()

    def test_report_on_empty_directory(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_phi_trace_without_runs(self, tmp_path, capsys):
        assert main(["phi-trace", "--out", str(tmp_path)]) == 1
        capsys.readouterr()


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

    def test_trajectory_from_run(self, run_setup, capsys):
        cfg, out = run_setup
        assert main(["replay", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["diagnose", "trajectory", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "diagnostics" / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert {r["variant"] for r in rows} == {"cap-equal"}

    def test_surface_demo(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["diagnose", "surface", "--out", str(out), "--resolution", "10"]) == 0
        capsys.readouterr()
        with open(out / "diagnostics" / "surface.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(range(1, 12))
