"""Metamorphic properties of the replay: input changes that must not move
the outputs.

* Duplicate invariance, the paper's case for CAP: an exact copy of a model
  (same pmfs, same missingness, an id that sorts after the original) must
  not buy the copied forecasts extra weight. Once the pair shares two scored
  weeks their correlation is 1 and the copy joins the original's cluster,
  which it never leads; before that it is a singleton cluster.
* Row-order invariance: the order of the forecast rows in the input is not
  data, so shuffling it must give byte-identical run directories.
* Id invariance: a model id is only a name and a place in id order, so
  renaming every model in an order-preserving way must change the runs and
  reports in nothing but the names.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappool.ensembles import SeasonData, make_variant
from cappool.panel import ForecastKey, Panel
from cappool.replay import RunConfig, replay
from cappool.report import write_report
from cappool.scoring import log_score
from cappool.synthetic import synthetic_archive, write_synthetic_archive

DUPLICATE = "zz-dup"
GRID = (0.0, 0.3, 0.6, 0.9)


def _scored_weeks_of(data: SeasonData, stratum, model: str, t: int) -> int:
    """Columns of the score window known at week t that score ``model``."""
    sd = data.strata[stratum]
    return int(np.count_nonzero(~np.isnan(sd.S[data.index[model], : sd.window_size(t)])))


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    original=st.sampled_from(["m1", "m3", "m4", "m5"]),
    pooling=st.sampled_from(["equal", "adaptive"]),
)
def test_a_duplicate_model_changes_nothing_once_it_shares_two_scored_weeks(
    seed, original, pooling
):
    fragment, truth = synthetic_archive(
        seasons=(2010,), regions=("Nat", "HHS1"), targets=(1, 2), seed=seed, missing_rate=0.05
    )
    doubled = dict(fragment)
    doubled.update(
        (ForecastKey(k.region, k.target, DUPLICATE, k.issue), pmf)
        for k, pmf in fragment.items()
        if k.model_id == original
    )
    base = SeasonData(Panel(fragment, truth), 2010, (1, 2))
    data = SeasonData(Panel(doubled, truth), 2010, (1, 2))
    without = make_variant(f"cap-{pooling}", phi_grid=GRID)
    with_copy = make_variant(f"cap-{pooling}", phi_grid=GRID)
    compared = 0
    for t in range(1, data.n_weeks + 1):
        for a, b in zip(without.week_runs(base, t), with_copy.week_runs(data, t), strict=True):
            stratum = (b.region, b.target)
            if _scored_weeks_of(data, stratum, original, t) < 2:
                if b.clusters is not None and any(DUPLICATE in c for c in b.clusters):
                    assert (DUPLICATE,) in b.clusters, (stratum, t)
                continue
            compared += 1
            assert b.phi == a.phi, (stratum, t)
            if a.pmf is None:
                assert b.pmf is None
                continue
            assert np.array_equal(b.pmf, a.pmf), (stratum, t)
            truth_t = data.strata[stratum].truth_target[t]
            if truth_t is not None:
                assert log_score(b.pmf, truth_t) == log_score(a.pmf, truth_t)
    assert compared


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("shuffle_seed", [0, 1])
def test_shuffled_forecast_rows_give_identical_run_directories(tmp_path, shuffle_seed):
    data_dir = tmp_path / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010,), regions=("Nat", "HHS1"), targets=(1, 2),
        seed=5, missing_rate=0.04,
    )
    config = RunConfig.parse(
        f"forecasts = {data_dir / 'forecasts.csv'}\ntruth = {data_dir / 'truth.csv'}\n"
        "seasons = 2010\ntargets = 1,2\n"
        "variants = cap-equal,cap-adaptive,equal,static,adaptive\nphi_grid = 0.0,0.5,0.9\n"
    )
    replay(config, tmp_path / "in-order")
    write_report(tmp_path / "in-order")
    forecasts = data_dir / "forecasts.csv"
    header, *rows = forecasts.read_text().splitlines(keepends=True)
    random.Random(shuffle_seed).shuffle(rows)
    forecasts.write_text(header + "".join(rows))
    replay(config, tmp_path / "shuffled")
    write_report(tmp_path / "shuffled")
    for part in ("panel", "runs", "reports"):
        shuffled, in_order = tmp_path / "shuffled" / part, tmp_path / "in-order" / part
        assert _tree_bytes(shuffled) == _tree_bytes(in_order), part


RENAMED = "zz"


def test_order_preserving_renaming_changes_only_the_names(tmp_path):
    data_dir = tmp_path / "data"
    write_synthetic_archive(
        data_dir, seasons=(2010, 2011), regions=("Nat", "HHS1"), targets=(1, 2),
        seed=5, missing_rate=0.04,
    )
    forecasts = data_dir / "forecasts.csv"
    renamed = data_dir / "renamed.csv"
    header, *rows = forecasts.read_text().splitlines(keepends=True)
    ids = set()
    with open(renamed, "w") as fh:
        fh.write(header)
        for row in rows:
            region, target, model, rest = row.split(",", 3)
            ids.add(model)
            fh.write(",".join([region, target, RENAMED + model, rest]))
    # A common prefix keeps the id order, and no id holds it already.
    assert len(ids) > 1 and not any(m.startswith(RENAMED) for m in ids)
    config = (
        f"truth = {data_dir / 'truth.csv'}\nseasons = 2010,2011\ntargets = 1,2\n"
        "variants = cap-equal,cap-adaptive,equal,static,adaptive\nphi_grid = 0.0,0.5,0.9\n"
    )
    for name, path in (("original", forecasts), ("renamed", renamed)):
        replay(RunConfig.parse(f"forecasts = {path}\n" + config), tmp_path / name)
        write_report(tmp_path / name)
    prefix = RENAMED.encode()
    for part in ("runs", "reports"):
        original = _tree_bytes(tmp_path / "original" / part)
        named = _tree_bytes(tmp_path / "renamed" / part)
        assert not any(prefix in blob for blob in original.values())
        if part == "runs":
            assert any(prefix in blob for blob in named.values())
        restored = {name: blob.replace(prefix, b"") for name, blob in named.items()}
        assert restored == original, part
