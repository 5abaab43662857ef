"""Report tables against looped references, and a report over top-bin truths."""

import csv
import re
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cappool.ensembles import EnsembleRun
from cappool.epiweek import Epiweek
from cappool.cli import main
from cappool.panel import ForecastDataError, TruthTable, parse_truth_csv
from cappool.replay import CorruptArtifactError, RunConfig, load_run_artifacts, replay
from cappool.report import emit_report, write_report
from cappool.scoring import ScoreRecord, brier_score
from cappool.synthetic import write_synthetic_archive

import oracles
from conftest import EDGE_TRUTHS, pmf_rows

VARIANTS = ("cap-equal", "equal")
REGIONS = ("Nat", "HHS1", "HHS2")
TARGETS = (1, 2)
FIRST_WEEK = Epiweek.from_int(201040)
ISSUE_OFFSETS = range(33)  # the 2010 season's weeks

record_keys = st.lists(
    st.tuples(
        st.sampled_from(VARIANTS),
        st.sampled_from(REGIONS),
        st.sampled_from(TARGETS),
        st.sampled_from(ISSUE_OFFSETS),
    ),
    min_size=1,
    max_size=160,
    unique=True,
)
# Every key of one variant: 198 records, more than numpy's 128-element
# pairwise summation block.
ONE_VARIANT = [("equal", r, t, o) for r in REGIONS for t in TARGETS for o in ISSUE_OFFSETS]


def replayed_records(keys, seed: int):
    """Runs, score records and truths for the given (variant, region, target,
    issue offset) keys. Some records have no run, some runs no pmf, and some
    target weeks no realized truth."""
    rng = np.random.default_rng(seed)
    truth = {}
    for region in REGIONS:
        for offset in range(1, max(ISSUE_OFFSETS) + max(TARGETS) + 1):
            draw = rng.random()
            if draw < 0.15:
                continue
            value = EDGE_TRUTHS[rng.integers(len(EDGE_TRUTHS))] if draw < 0.6 else rng.uniform(0.0, 15.0)
            truth[(region, FIRST_WEEK.add_weeks(offset))] = float(value)
    pmfs = pmf_rows(seed, len(keys))
    runs, scores = [], []
    for (variant, region, target, offset), pmf in zip(keys, pmfs):
        issue = FIRST_WEEK.add_weeks(offset)
        if rng.random() >= 0.1:
            runs.append(
                EnsembleRun(
                    variant=variant,
                    season=2010,
                    region=region,
                    target=target,
                    issue_week=issue.to_int(),
                    week_index=offset + 1,
                    pmf=None if rng.random() < 0.1 else pmf,
                    weights={},
                    entropy=None,
                )
            )
        scores.append(
            ScoreRecord(
                variant=variant,
                region=region,
                target=target,
                issue_week=issue.to_int(),
                target_week=issue.add_weeks(target).to_int(),
                log_score=float(rng.uniform(-10.0, 0.0)),
                pit=float(rng.random()),
                brier_integral=float(rng.uniform(0.0, 2.0)),
            )
        )
    return runs, scores, TruthTable(truth)


class TestBrierByThreshold:
    @settings(max_examples=20, deadline=None)
    @given(keys=record_keys, seed=st.integers(0, 2**32 - 1))
    @example(keys=ONE_VARIANT, seed=0)
    @example(keys=ONE_VARIANT[:1], seed=1)
    def test_equals_per_record_oracle(self, keys, seed):
        runs, scores, truth = replayed_records(keys, seed)
        for strict in (False, True):
            got = emit_report(runs, scores, truth, strict_brier=strict).brier_by_threshold
            assert got == oracles.brier_by_threshold_rows(runs, scores, truth, strict)

    def test_truth_outside_range_raises_scalar_message(self):
        runs, scores, _ = replayed_records(ONE_VARIANT[:3], seed=2)
        bad = 150.0
        truth = TruthTable(
            {(s.region, Epiweek.from_int(s.target_week)): bad for s in scores}
        )
        with pytest.raises(ValueError) as scalar:
            brier_score(runs[0].pmf, bad, 5.0)
        with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
            emit_report(runs, scores, truth)


@pytest.fixture(scope="module")
def strict_run(tmp_path_factory):
    """A replayed run directory whose run.cfg records ``brier_mode = strict``."""
    root = tmp_path_factory.mktemp("strict_run")
    data_dir = root / "data"
    write_synthetic_archive(data_dir, seasons=(2010,), regions=("Nat",), targets=(1,), seed=5)
    config = RunConfig.parse(
        f"forecasts = {data_dir / 'forecasts.csv'}\n"
        f"truth = {data_dir / 'truth.csv'}\n"
        "seasons = 2010\ntargets = 1\nvariants = equal\nbrier_mode = strict\n"
    )
    out = root / "run"
    replay(config, out)
    return out


def _copy(run, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    return copy


def _read_tables(report_dir) -> dict[str, list[list[str]]]:
    tables = {}
    for path in sorted(report_dir.glob("*.csv")):
        with open(path, newline="") as fh:
            tables[path.stem] = list(csv.reader(fh))
    return tables


def _emitted(out, strict: bool) -> dict[str, list[list[str]]]:
    runs, scores = load_run_artifacts(out)
    truth = parse_truth_csv(out / "panel" / "truth.csv")
    bundle = emit_report(runs, scores, truth, strict_brier=strict)
    return {name: [[str(v) for v in row] for row in rows] for name, rows in bundle.tables().items()}


class TestRecordedBrierMode:
    def test_strict_run_reports_alike_from_library_and_cli(self, strict_run, tmp_path, capsys):
        out = _copy(strict_run, tmp_path)
        library = _read_tables(write_report(out))
        shutil.rmtree(out / "reports")
        assert main(["report", "--out", str(out)]) == 0
        capsys.readouterr()
        assert _read_tables(out / "reports") == library
        assert library == _emitted(out, strict=True)
        assert library["brier_by_threshold"] != _emitted(out, strict=False)["brier_by_threshold"]

    def test_code_built_strict_run_reports_strict(self, strict_run, tmp_path):
        # A config built in code records itself as a parsed one does.
        data_dir = strict_run.parent / "data"
        config = RunConfig(
            forecasts=(str(data_dir / "forecasts.csv"),), truth=str(data_dir / "truth.csv"),
            seasons=(2010,), targets=(1,), variants=("equal",), brier_mode="strict",
        )
        out = tmp_path / "code-built"
        replay(config, out)
        parsed = _read_tables(write_report(_copy(strict_run, tmp_path)))
        assert _read_tables(write_report(out)) == parsed
        assert _read_tables(out / "reports") == _emitted(out, strict=True)

    def test_directory_without_run_cfg_reports_standard(self, strict_run, tmp_path):
        out = _copy(strict_run, tmp_path)
        (out / "run.cfg").unlink()
        assert _read_tables(write_report(out)) == _emitted(out, strict=False)

    def test_unreadable_run_cfg_is_corrupt(self, strict_run, tmp_path):
        out = _copy(strict_run, tmp_path)
        (out / "run.cfg").write_text("phi = 0.5\n")
        with pytest.raises(CorruptArtifactError, match=re.escape(str(out / "run.cfg"))):
            write_report(out)
        assert not (out / "reports").exists()

    def test_missing_truth_table(self, strict_run, tmp_path):
        out = _copy(strict_run, tmp_path)
        path = out / "panel" / "truth.csv"
        path.unlink()
        with pytest.raises(ForecastDataError, match=re.escape(f"no truth table at {path}")):
            write_report(out)


def test_report_with_top_bin_truths(tmp_path):
    """Truths of 13 % ILI and more realize the top bin, where the PIT is the
    pooled pmf's whole mass; pools summing to a hair above 1 must not stop
    the report."""
    data_dir = tmp_path / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010,), regions=("Nat", "HHS1"), targets=(1, 2), seed=1
    )
    truth_path = data_dir / "truth.csv"
    with open(truth_path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    with open(truth_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for region, week, value in rows:
            writer.writerow([region, week, repr(round(float(value) + 8.0, 1))])
    config = RunConfig.parse(
        f"forecasts = {data_dir / 'forecasts.csv'}\n"
        f"truth = {truth_path}\n"
        "seasons = 2010\n"
        "targets = 1,2\n"
        "variants = equal\n"
    )
    out = tmp_path / "run"
    replay(config, out)
    _, scores = load_run_artifacts(out)
    pits = [s.pit for s in scores]
    assert max(pits) == 1.0
    assert min(pits) >= 0.0
    report_dir = write_report(out)
    with open(report_dir / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert {r["target"] for r in summary} == {"1", "2", "all"}
