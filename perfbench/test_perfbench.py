"""Tests of the benchmark itself, on the test-sized ``smoke`` workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import rep  # noqa: E402
from spans import (  # noqa: E402
    DETERMINISTIC,
    SpanRecorder,
    layer_metrics,
    patch_points,
    self_times,
    tail_percentile,
    traced,
    week_metrics,
)
from workloads import REFERENCE_SEEDS, WORKLOADS, ensure_archive, input_seed  # noqa: E402

SMOKE = WORKLOADS["smoke"]
SEED = 3


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("archives")
    meta = ensure_archive(SMOKE, SEED, root)
    return root / f"smoke-{SEED}", meta


@pytest.fixture(scope="module")
def smoke_run(archive, tmp_path_factory):
    archive_dir, meta = archive
    out = tmp_path_factory.mktemp("run") / "out"
    phases = rep.run_phases(SMOKE, SEED, archive_dir, out)
    return out, phases, meta


def test_smoke_repetition_passes_every_check(smoke_run):
    out, phases, meta = smoke_run
    assert set(phases["seconds"]) == set(rep.PHASES) and not phases["errors"]
    problems = rep.check_phases(SMOKE, meta, out, phases, reference=None)
    assert problems == {name: [] for name in rep.PHASES}
    assert rep.ops_failed(problems) == 0
    assert meta["expected_runs"] == len(SMOKE.variants) * SMOKE.strata * SMOKE.weeks


def test_archive_is_generated_once_per_seed(archive):
    archive_dir, meta = archive
    before = (archive_dir / "forecasts.csv").stat().st_mtime_ns
    again = ensure_archive(SMOKE, SEED, archive_dir.parent)
    assert again == meta
    assert (archive_dir / "forecasts.csv").stat().st_mtime_ns == before


def _copy(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return copy


def _first_pmf_week(run_dir: Path) -> Path:
    for path in sorted((run_dir / "runs" / "cap-adaptive").rglob("week-*.csv")):
        if len(path.read_text().splitlines()) > 1:
            return path
    raise AssertionError("no week with a pooled pmf")


def test_corrupted_pmf_fails_the_replay_check(smoke_run, tmp_path):
    out, phases, meta = smoke_run
    copy = _copy(out, tmp_path)
    path = _first_pmf_week(copy)
    header, row, *rest = path.read_text().splitlines()
    fields = row.split(",")
    fields[-1] = repr(float(fields[-1]) + 0.5)  # top bin: never the truth bin here
    path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    problems = rep.check_phases(SMOKE, meta, copy, phases, reference=None)
    assert any("sums to" in p for p in problems["replay"])
    assert rep.ops_failed(problems) == 1


def test_truncated_week_file_fails_the_replay_check(smoke_run, tmp_path):
    out, phases, meta = smoke_run
    copy = _copy(out, tmp_path)
    path = _first_pmf_week(copy).with_suffix(".json")
    path.write_text(path.read_text()[:100])
    problems = rep.check_phases(SMOKE, meta, copy, phases, reference=None)
    assert any("unreadable" in p for p in problems["replay"])
    assert rep.ops_failed(problems) >= 1


def test_changed_run_directory_fails_the_rerun_check(smoke_run, tmp_path):
    out, _, _ = smoke_run
    copy = _copy(out, tmp_path)
    before = checks.tree_digest(copy)
    (copy / "run.cfg").write_text("changed\n")
    assert checks.check_rerun(before, checks.tree_digest(copy))


def test_wrong_reference_fails_the_report_check(smoke_run):
    out, phases, meta = smoke_run
    reference = {v: -1.0 for v in SMOKE.variants}
    problems = rep.check_phases(SMOKE, meta, out, phases, reference=reference)
    assert problems["report"] and rep.ops_failed(problems) == 1


def test_every_seed_has_a_stored_reference():
    for name in ("small-mixed", "wide-cap", "long-io"):
        for seed in (0, 9, REFERENCE_SEEDS - 1, REFERENCE_SEEDS, 12345, -1):
            assert 0 <= input_seed(seed) < REFERENCE_SEEDS
            reference = rep.stored_reference(name, input_seed(seed))
            assert reference is not None and set(reference) == set(WORKLOADS[name].variants)


def test_missing_reference_fails_the_repetition(archive, tmp_path):
    archive_dir, meta = archive
    assert rep.stored_reference("smoke", SEED) is None
    result = rep.repetition(SMOKE, SEED, archive_dir, meta, tmp_path / "run")
    assert any("no reference stored" in p for p in result["problems"]["report"])
    assert result["ops_failed"] == 1


def _originals():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in patch_points()]


def test_traced_runs_restore_originals_and_repeat_counters(archive, tmp_path):
    archive_dir, meta = archive
    originals = _originals()
    metrics = []
    for k in range(2):
        recorder = SpanRecorder()
        with traced(recorder):
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
            phases = rep.run_phases(SMOKE, SEED, archive_dir, tmp_path / f"run{k}", recorder)
        assert not phases["errors"]
        sizes = {
            "panel": checks.tree_digest(tmp_path / f"run{k}" / "panel")["bytes"],
            "runs": checks.tree_digest(tmp_path / f"run{k}" / "runs")["bytes"],
        }
        metrics.append(layer_metrics(json.loads(json.dumps(recorder.spans)), sizes))
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    for name in DETERMINISTIC:
        assert metrics[0][name] == metrics[1][name], name
    first = metrics[0]
    assert first["pool.em_fits"][0] > 0 and first["clustering.cluster_models_calls"][0] > 0
    assert 0 < first["ensembles.correlation_computes"][0] <= SMOKE.strata * SMOKE.weeks
    assert first["replay.week_writes"][0] > 0 and first["ensembles.week_calls"][0] > 0
    assert 0.0 < first["ensembles.partition_reuse_ratio"][0] <= 1.0


def test_traced_restores_originals_after_an_error():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with traced(SpanRecorder()):
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_self_times_subtract_direct_children():
    spans = [
        ["a", 0, 100, -1, None],
        ["b", 10, 40, 0, None],
        ["c", 15, 25, 1, None],
        ["b", 50, 60, 0, None],
    ]
    assert self_times(spans) == [60, 20, 10, 10]


def test_week_metrics_pool_the_calls_of_every_repetition():
    one = [["ensembles.week_runs", 0, k * 1_000_000, -1, None] for k in range(1, 11)]
    other = [["ensembles.week_runs", 0, k * 1_000_000, -1, None] for k in range(11, 21)]
    assert week_metrics([one]) == {
        "ensembles.week_ms_p50": (5.0, "ms"),
        "ensembles.week_ms_tail": (10.0, "ms"),
        "ensembles.week_ms_tail_pct": (100.0, "%"),
    }
    pooled = week_metrics([one, other])
    assert pooled["ensembles.week_ms_p50"] == (10.0, "ms")
    assert pooled["ensembles.week_ms_tail_pct"] == (50.0, "%")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) == 100.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
