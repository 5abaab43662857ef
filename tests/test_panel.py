import io
import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cappool.epiweek import Epiweek
from cappool.panel import (
    ForecastDataError,
    ForecastKey,
    Panel,
    StatePopulationTable,
    TruthTable,
    canonical_region,
    compute_wili,
    convert_flusight_csv,
    load_panel,
    panel_dir,
    parse_component_csv,
    parse_population_csv,
    parse_state_ili_csv,
    parse_truth_csv,
    stored_seasons,
    truth_from_state_ili,
    write_component_csv,
    write_panel,
)
from cappool.pmf import N_BINS, gaussian_pmf
from cappool.replay import RunConfig, ingest, replay
from cappool.report import write_report
from cappool.synthetic import synthetic_archive, write_synthetic_archive

HEADER = ",".join(
    ["region", "target", "model_id", "issue_epiweek"] + [f"bin_{i}" for i in range(1, N_BINS + 1)]
)


def _row(region="Nat", target="1", model="7", week="201040", probs=None):
    if probs is None:
        probs = [1.0 / N_BINS] * N_BINS
    return ",".join([region, target, model, week] + [str(p) for p in probs])


class TestCanonicalRegion:
    def test_tokens(self):
        assert canonical_region("nat") == "Nat"
        assert canonical_region("US National") == "Nat"
        assert canonical_region("HHS Region 3") == "HHS3"
        assert canonical_region("hhs10") == "HHS10"

    def test_unknown(self):
        with pytest.raises(ForecastDataError):
            canonical_region("HHS11")
        with pytest.raises(ForecastDataError):
            canonical_region("Europe")


class TestParseComponentCsv:
    def test_single_row(self):
        fragment = parse_component_csv(io.StringIO(HEADER + "\n" + _row()))
        key = ForecastKey("Nat", 1, "7", Epiweek(2010, 40))
        assert set(fragment) == {key}
        assert fragment[key].sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_file_with_header(self):
        assert parse_component_csv(io.StringIO(HEADER + "\n")) == {}

    def test_under_unit_sum_renormalized(self):
        probs = [0.97 / N_BINS] * N_BINS
        fragment = parse_component_csv(io.StringIO(HEADER + "\n" + _row(probs=probs)))
        pmf = next(iter(fragment.values()))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_region(self):
        with pytest.raises(ForecastDataError, match="row 2"):
            parse_component_csv(io.StringIO(HEADER + "\n" + _row(region="Mars")))

    def test_bad_target(self):
        with pytest.raises(ForecastDataError, match="row 2"):
            parse_component_csv(io.StringIO(HEADER + "\n" + _row(target="5")))

    def test_non_numeric_probability(self):
        probs = ["x"] + [str(1.0 / N_BINS)] * (N_BINS - 1)
        with pytest.raises(ForecastDataError, match="row 2"):
            parse_component_csv(io.StringIO(HEADER + "\n" + _row(probs=probs)))

    def test_duplicate_key(self):
        text = HEADER + "\n" + _row() + "\n" + _row()
        with pytest.raises(ForecastDataError, match="row 3"):
            parse_component_csv(io.StringIO(text))

    def test_wrong_header(self):
        with pytest.raises(ForecastDataError):
            parse_component_csv(io.StringIO("a,b,c\n1,2,3"))


class TestFlusightConverter:
    def _long_text(self):
        lines = ["Location,Target,Type,Unit,Bin_start_incl,Bin_end_notincl,Value"]
        lines.append("US National,1 wk ahead,Point,percent,,,2.1")
        for i in range(N_BINS):
            start = "13.0" if i == 130 else f"{i / 10:.1f}"
            end = "100" if i == 130 else f"{(i + 1) / 10:.1f}"
            lines.append(f"US National,1 wk ahead,Bin,percent,{start},{end},{1 / N_BINS}")
        lines.append("US National,Season onset,Bin,week,40,41,0.5")
        return "\n".join(lines)

    def test_conversion(self):
        fragment = convert_flusight_csv(
            io.StringIO(self._long_text()), "modelA", Epiweek(2016, 43)
        )
        key = ForecastKey("Nat", 1, "modelA", Epiweek(2016, 43))
        assert set(fragment) == {key}
        assert fragment[key].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(fragment[key], 1.0 / N_BINS)

    def test_incomplete_bins_rejected(self):
        text = "\n".join(self._long_text().splitlines()[:-2])
        with pytest.raises(ForecastDataError, match="bins present"):
            convert_flusight_csv(io.StringIO(text), "m", Epiweek(2016, 43))

    def test_tree_ingest_equals_the_converted_files(self, tmp_path, caplog):
        # Two models' EW<ww>-<yyyy> files with point rows, a week-based
        # target and one missing forecast, plus one misnamed file.
        rng = np.random.default_rng(3)
        root = tmp_path / "flusight"
        files = []
        for model in ("model-a", "model-b"):
            (root / model).mkdir(parents=True)
            for ww in (44, 45):
                lines = ["Location,Target,Type,Unit,Bin_start_incl,Bin_end_notincl,Value"]
                for location in ("US National", "HHS Region 1"):
                    if (model, ww, location) == ("model-b", 45, "HHS Region 1"):
                        continue
                    for target in (1, 2):
                        lines.append(f"{location},{target} wk ahead,Point,percent,,,2.1")
                        for i, p in enumerate(gaussian_pmf(rng.uniform(1.0, 4.0), 0.6).tolist()):
                            start = "13.0" if i == 130 else f"{i / 10:.1f}"
                            end = "100" if i == 130 else f"{(i + 1) / 10:.1f}"
                            lines.append(f"{location},{target} wk ahead,Bin,percent,{start},{end},{p!r}")
                lines.append("US National,Season onset,Bin,week,40,41,0.5")
                path = root / model / f"EW{ww}-2010-{model}.csv"
                path.write_text("\n".join(lines) + "\n")
                files.append((path, model, Epiweek(2010, ww)))
        stray = root / "model-b" / "notes-2010.csv"
        stray.write_text("not,a,forecast\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("region,epiweek,wili\nNat,201046,2.0\nHHS1,201046,2.5\n")
        config = RunConfig.parse(f"flusight_dir = {root}\ntruth = {truth}\nseasons = 2010\n")
        with caplog.at_level(logging.WARNING, logger="cappool"):
            ingest(config, tmp_path / "run")
        want = Panel.assemble([convert_flusight_csv(*f) for f in files], parse_truth_csv(truth))
        assert len(want.entries) == 14
        assert load_panel(panel_dir(tmp_path / "run")) == want
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and str(stray) in warnings[0]


class TestParseTruthCsv:
    def test_direct(self):
        table = parse_truth_csv(io.StringIO("region,epiweek,wili\nNat,201743,2.3\n"))
        assert table.wili("Nat", Epiweek(2017, 43)) == 2.3

    def test_duplicate_rejected(self):
        text = "region,epiweek,wili\nNat,201743,2.3\nNat,201743,2.4\n"
        with pytest.raises(ForecastDataError):
            parse_truth_csv(io.StringIO(text))

    def test_range_rejected(self):
        with pytest.raises(ForecastDataError):
            parse_truth_csv(io.StringIO("region,epiweek,wili\nHHS3,201801,-1.0\n"))

    def test_extra_columns_tolerated(self):
        text = "release_date,region,epiweek,lag,wili\n2018-01-01,nat,201743,0,2.3\n"
        assert parse_truth_csv(io.StringIO(text)).wili("Nat", Epiweek(2017, 43)) == 2.3


POPS = StatePopulationTable(
    population={"aa": 1_000_000, "bb": 3_000_000, "cc": 500_000},
    region={"aa": "HHS1", "bb": "HHS1", "cc": "HHS2"},
)


class TestComputeWili:
    def test_single_state_region(self):
        assert compute_wili({"cc": 3.0}, POPS, "HHS2") == 3.0

    def test_two_state_weighting(self):
        assert compute_wili({"aa": 2.0, "bb": 4.0}, POPS, "HHS1") == pytest.approx(3.5)

    def test_constant_fixed_point(self):
        ili = {"aa": 1.7, "bb": 1.7, "cc": 1.7}
        assert compute_wili(ili, POPS, "Nat") == pytest.approx(1.7)

    def test_convex_bounds(self, rng):
        for _ in range(20):
            ili = {s: float(rng.uniform(0, 10)) for s in POPS.population}
            value = compute_wili(ili, POPS, "Nat")
            assert min(ili.values()) <= value <= max(ili.values())

    def test_missing_state(self):
        with pytest.raises(ForecastDataError):
            compute_wili({"aa": 2.0}, POPS, "HHS1")

    def test_zero_population(self):
        pops = StatePopulationTable({"aa": 0.0}, {"aa": "HHS1"})
        with pytest.raises(ForecastDataError):
            compute_wili({"aa": 2.0}, pops, "HHS1")

    def test_population_and_state_ili_parsers(self):
        pops = parse_population_csv(
            io.StringIO("state,region,population\naa,HHS1,1000000\nbb,HHS1,3000000\n")
        )
        ili = parse_state_ili_csv(
            io.StringIO("state,epiweek,ili\naa,201040,2.0\nbb,201040,4.0\n")
        )
        truth = truth_from_state_ili(ili, pops)
        assert truth.wili("HHS1", Epiweek(2010, 40)) == pytest.approx(3.5)
        # Nat needs every state; both are present here
        assert truth.wili("Nat", Epiweek(2010, 40)) == pytest.approx(3.5)


_LONG_HEADER = "Location,Target,Type,Unit,Bin_start_incl,Bin_end_notincl,Value"


class TestReaderErrors:
    """Every reader rejects a missing column or a bad row with a message
    naming the row; read from a path, the message starts with the path."""

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            (
                parse_population_csv,
                "state,Region,pop\naa,HHS1,1\n",
                "population file missing columns ['population']",
            ),
            (
                parse_population_csv,
                "state,region,population\naa,HHS1,1\nbb,Mars,2\n",
                "row 3: unknown region token 'Mars'",
            ),
            (
                parse_population_csv,
                "state,region,population\naa,HHS1,1\naa,HHS2,2\n",
                "row 3: duplicate state aa",
            ),
            (
                parse_population_csv,
                "state,region,population\naa,HHS1\n",
                "row 2: could not convert",
            ),
            (
                parse_state_ili_csv,
                " State ,EPIWEEK\naa,201040\n",
                "state ILI file missing columns ['ili']",
            ),
            (
                parse_state_ili_csv,
                "state,epiweek,ili\naa,201040,2.0\naa,201041,x\n",
                "row 3: could not convert",
            ),
            (
                parse_state_ili_csv,
                "state,epiweek,ili\naa,201040,2.0\naa,201040,3.0\n",
                "row 3: duplicate ILI",
            ),
            (
                parse_truth_csv,
                "region,epiweek,wili\nNat,201040,1.5\nNat,201041\n",
                "row 3: could not convert",
            ),
            (parse_truth_csv, "region,wili\nNat,1.5\n", "truth file missing columns ['epiweek']"),
            (
                convert_flusight_csv,
                "Location,Target,Type,Bin_start_incl\n",
                "long-format file missing columns ['Value']",
            ),
            (
                convert_flusight_csv,
                _LONG_HEADER + "\nMars,1 wk ahead,Bin,percent,0.0,0.1,0.5\n",
                "row 2: unknown region token 'Mars'",
            ),
            (
                parse_component_csv,
                HEADER + "\n" + _row() + "\n" + _row(region="Mars"),
                "row 3: unknown region token 'Mars'",
            ),
        ],
    )
    def test_error_names_the_row_and_the_file(self, tmp_path, reader, text, message):
        args = ("m", Epiweek(2016, 43)) if reader is convert_flusight_csv else ()
        with pytest.raises(ForecastDataError) as info:
            reader(io.StringIO(text), *args)
        assert str(info.value).startswith(message)
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(ForecastDataError) as info:
            reader(path, *args)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize(
        "reader, text",
        [
            (parse_population_csv, "state,region,population\naa,HHS1,1\n\nbb,Mars,2\n"),
            (parse_state_ili_csv, "state,epiweek,ili\naa,201040,2.0\n\nbb,201040x,1.0\n"),
            (parse_truth_csv, "region,epiweek,wili\nNat,201040,1.5\n\nMars,201041,1.0\n"),
            (
                convert_flusight_csv,
                _LONG_HEADER + "\nNat,1 wk ahead,Point,percent,,,1.0\n\n"
                "Mars,1 wk ahead,Bin,percent,0.0,0.1,0.5\n",
            ),
        ],
        ids=["population", "state-ili", "truth", "flusight"],
    )
    def test_row_number_counts_blank_lines(self, reader, text):
        # Line 3 is blank; the bad row is on line 4.
        args = ("m", Epiweek(2016, 43)) if reader is convert_flusight_csv else ()
        with pytest.raises(ForecastDataError, match="^row 4: "):
            reader(io.StringIO(text), *args)

    @pytest.mark.parametrize(
        "text",
        [
            HEADER + "\n" + _row(model='"a\nb"') + "\n" + _row(region="Mars") + "\n",
            '"region\n"' + HEADER[len("region"):] + "\n" + _row() + "\n" + _row(region="Mars"),
        ],
        ids=["row", "header"],
    )
    def test_row_number_counts_lines_inside_quoted_fields(self, text):
        # A quoted field with a line break (in a row, or in the header, whose
        # names match without surrounding spaces) spans two lines; the bad
        # row is on line 4.
        with pytest.raises(ForecastDataError, match="^row 4: unknown region token 'Mars'"):
            parse_component_csv(io.StringIO(text, newline=""))

    def test_flusight_bad_bins_name_the_stratum(self, tmp_path):
        lines = [_LONG_HEADER]
        for i in range(N_BINS):
            value = -0.01 if i == 7 else 1.0 / N_BINS
            lines.append(
                f"HHS Region 2,3 wk ahead,Bin,percent,{i / 10:.1f},{(i + 1) / 10:.1f},{value}"
            )
        path = tmp_path / "EW43-2016.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ForecastDataError) as info:
            convert_flusight_csv(path, "m", Epiweek(2016, 43))
        assert str(info.value).startswith(f"{path}: HHS2 target 3: ")


class TestPanel:
    def _small_panel(self):
        fragment, truth = synthetic_archive(
            seasons=(2010,), regions=("Nat",), targets=(1, 4), seed=11
        )
        return Panel.assemble([fragment], truth)

    def test_missing_set(self):
        fragment, truth = synthetic_archive(seasons=(2010,), regions=("Nat",), seed=1)
        drop = next(k for k in fragment if k.model_id == "m4" and k.target == 1)
        del fragment[drop]
        panel = Panel.assemble([fragment], truth)
        assert panel.missing(drop.region, drop.target, drop.issue) == {"m4"}

    def test_available_plus_missing_covers_roster(self):
        fragment, truth = synthetic_archive(
            seasons=(2010,), regions=("Nat",), targets=(1, 4), seed=11, missing_rate=0.2
        )
        panel = Panel.assemble([fragment], truth)
        available: dict = {}
        for key in panel.entries:
            available.setdefault((key.region, key.target, key.issue), set()).add(key.model_id)
        assert any(len(avail) < len(panel.roster) for avail in available.values())
        for (region, target, issue), avail in available.items():
            miss = panel.missing(region, target, issue)
            assert len(avail) + len(miss) == len(panel.roster)
            assert not avail & miss

    def test_unobserved_truth(self):
        fragment, truth = synthetic_archive(seasons=(2010,), regions=("Nat",), seed=2)
        panel = Panel.assemble([fragment], TruthTable())
        key = next(iter(fragment))
        assert panel.realized_truth(key.region, key.target, key.issue) is None

    def test_target_week_arithmetic(self):
        panel = self._small_panel()
        issue = Epiweek(2010, 40)
        truth_value = panel.truth.wili("Nat", Epiweek(2010, 44))
        assert panel.realized_truth("Nat", 4, issue) == truth_value
        assert truth_value is not None

    def test_duplicate_across_fragments(self):
        fragment, truth = synthetic_archive(seasons=(2010,), regions=("Nat",), seed=3)
        with pytest.raises(ForecastDataError):
            Panel.assemble([fragment, dict(list(fragment.items())[:1])], truth)

    def test_roundtrip_bit_exact(self, tmp_path):
        panel = self._small_panel()
        write_panel(panel, tmp_path / "panel")
        loaded = load_panel(tmp_path / "panel")
        assert loaded == panel
        assert loaded.roster == panel.roster
        assert loaded.truth == panel.truth
        # a second write/load cycle is byte-stable
        write_panel(loaded, tmp_path / "panel2")
        a = sorted((tmp_path / "panel").glob("*"))
        b = sorted((tmp_path / "panel2").glob("*"))
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def _corrupt_stored_row(self, tmp_path, edit):
        """Write the panel, apply ``edit`` to one stored row's probabilities
        and return the season's pmf array file and that row's key."""
        panel = self._small_panel()
        write_panel(panel, tmp_path / "panel")
        path = tmp_path / "panel" / "season-2010.npy"
        probs = np.load(path)
        edit(probs[4])
        np.save(path, probs)
        with open(tmp_path / "panel" / "season-2010.csv", newline="") as fh:
            region, target, model_id, issue = fh.read().split("\r\n")[5].split(",")
        key = ForecastKey(region, int(target), model_id, Epiweek.parse(issue))
        return path, key

    def test_stored_nan_rejected(self, tmp_path):
        def edit(probs):
            probs[40] = float("nan")

        path, key = self._corrupt_stored_row(tmp_path, edit)
        with pytest.raises(ForecastDataError) as info:
            load_panel(tmp_path / "panel")
        assert str(info.value) == f"{path}: stored pmf for {key} has a non-finite entry"

    def test_stored_negative_entry_rejected(self, tmp_path):
        def edit(probs):
            j = int(np.argmin(probs[:-1]))  # moving 0.5 off the smallest bin leaves it negative
            probs[j] -= 0.5
            probs[j + 1] += 0.5

        path, key = self._corrupt_stored_row(tmp_path, edit)
        with pytest.raises(ForecastDataError) as info:
            load_panel(tmp_path / "panel")
        assert str(info.value) == f"{path}: stored pmf for {key} has a negative entry"

    def test_stored_sum_off_rejected(self, tmp_path):
        def edit(probs):
            probs[0] += 0.01

        path, key = self._corrupt_stored_row(tmp_path, edit)
        with pytest.raises(ForecastDataError, match="sums to 1.01") as info:
            load_panel(tmp_path / "panel")
        assert str(info.value).startswith(f"{path}: stored pmf for {key} sums to ")

    @pytest.mark.parametrize(
        "name, cut, message",
        [
            ("season-2010.csv", "mid-row", "expected 4 fields"),
            ("season-2010.csv", "row boundary", " forecasts, but season-2010.json implies "),
            ("season-2010.json", "mid-row", "unreadable sidecar"),
        ],
    )
    def test_truncated_season_file_rejected_by_name(self, tmp_path, name, cut, message):
        write_panel(self._small_panel(), tmp_path / "panel")
        path = tmp_path / "panel" / name
        data = path.read_bytes()
        end = len(data) // 2
        if cut == "row boundary":
            end = data.index(b"\r\n", end) + 2
        elif name.endswith(".csv"):  # after the first field of the next row
            end = data.index(b",", data.index(b"\r\n", end)) + 1
        path.write_bytes(data[:end])
        with pytest.raises(ForecastDataError, match=message) as info:
            load_panel(tmp_path / "panel")
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data, probs: data[: len(data) // 2], "unreadable pmf array: "),
            (lambda data, probs: data[: len(data) - probs.nbytes], "unreadable pmf array: "),
            (lambda data, probs: b"", "unreadable pmf array: "),
            (lambda data, probs: b"region,target\r\n", "unreadable pmf array: "),
            (lambda data, probs: _npy(probs, np.savez), "unreadable pmf array: "),
            (lambda data, probs: _npy(probs.astype(object)), "unreadable pmf array: "),
            (lambda data, probs: _npy(probs.astype(np.float32)), "got float32 "),
            (lambda data, probs: _npy(probs[:, :-1]), rf"got float64 \(\d+, {N_BINS - 1}\)"),
            (lambda data, probs: _npy(probs.ravel()), r"got float64 \(\d+,\)$"),
            (lambda data, probs: _npy(probs[:-1]), "expected a float64 array of shape "),
        ],
        ids=[
            "truncated", "header only", "empty", "not npy", "npz", "pickled", "dtype",
            "columns", "one-dimensional", "row count",
        ],
    )
    def test_bad_pmf_array_rejected_by_name(self, tmp_path, damage, message):
        write_panel(self._small_panel(), tmp_path / "panel")
        path = tmp_path / "panel" / "season-2010.npy"
        path.write_bytes(damage(path.read_bytes(), np.load(path)))
        with pytest.raises(ForecastDataError, match=message) as info:
            load_panel(tmp_path / "panel")
        assert str(info.value).startswith(f"{path}: ")

    def test_missing_pmf_array_rejected_by_name(self, tmp_path):
        write_panel(self._small_panel(), tmp_path / "panel")
        path = tmp_path / "panel" / "season-2010.npy"
        path.unlink()
        with pytest.raises(ForecastDataError, match="unreadable pmf array: ") as info:
            load_panel(tmp_path / "panel")
        assert str(info.value).startswith(f"{path}: ")

    def test_older_one_csv_panel_rejected_by_name(self, tmp_path):
        # Before the key list and .npy array, season-<Y>.csv held the keys
        # and the probabilities as write_component_csv writes them.
        panel = self._small_panel()
        write_panel(panel, tmp_path / "panel")
        path = tmp_path / "panel" / "season-2010.csv"
        (tmp_path / "panel" / "season-2010.npy").unlink()
        with open(path, "w", newline="") as fh:
            write_component_csv(fh, panel.entries)
        with pytest.raises(ForecastDataError, match="delete a panel/ .* and ingest again") as info:
            load_panel(tmp_path / "panel")
        assert str(info.value).startswith(f"{path}: not a key list")

    def test_roster_out_of_id_order_rejected_by_name(self, tmp_path):
        # The replay's tables break leader ties by roster position, which
        # must be id order; write_panel always writes it sorted.
        write_panel(self._small_panel(), tmp_path / "panel")
        path = tmp_path / "panel" / "season-2010.json"
        sidecar = json.loads(path.read_text())
        sidecar["roster"].reverse()
        path.write_text(json.dumps(sidecar))
        with pytest.raises(ForecastDataError) as info:
            load_panel(tmp_path / "panel")
        assert str(info.value) == f"{path}: roster not in ascending id order"

    def test_load_missing_season_rejected(self, tmp_path):
        panel = self._small_panel()
        write_panel(panel, tmp_path / "panel")
        with pytest.raises(ForecastDataError):
            load_panel(tmp_path / "panel", seasons=[1999])

    @pytest.mark.parametrize("name", ["season-x.csv", "season-2010-old.csv", "season-2011-bak.csv"])
    def test_stray_season_file_rejected_by_name(self, tmp_path, name):
        directory = tmp_path / "panel"
        write_panel(self._small_panel(), directory)
        assert stored_seasons(directory) == [2010]
        stray = directory / name
        stray.write_bytes((directory / "season-2010.csv").read_bytes())
        with pytest.raises(ForecastDataError) as info:
            stored_seasons(directory)
        assert str(info.value).startswith(f"{stray}: not a season file")
        with pytest.raises(ForecastDataError, match=name):
            load_panel(directory)

    def test_off_season_forecast_rejected_at_persist(self, tmp_path):
        pmf = np.full(N_BINS, 1.0 / N_BINS)
        key = ForecastKey("Nat", 1, "m1", Epiweek(2010, 25))  # summer week
        panel = Panel.assemble([{key: pmf}], TruthTable())
        with pytest.raises(ForecastDataError, match="off-season"):
            write_panel(panel, tmp_path / "panel")
        with pytest.raises(ForecastDataError, match="off-season"):
            panel.seasons()

    def test_row_order_irrelevant(self):
        text = io.StringIO(newline="")
        write_component_csv(text, self._small_panel().entries)
        lines = text.getvalue().splitlines()
        reversed_text = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
        shuffled = parse_component_csv(io.StringIO(reversed_text))
        straight = parse_component_csv(io.StringIO(text.getvalue()))
        assert shuffled.keys() == straight.keys()
        assert all(np.array_equal(shuffled[k], straight[k]) for k in straight)


def _npy(array, save=np.save) -> bytes:
    buffer = io.BytesIO()
    save(buffer, array, allow_pickle=True)
    return buffer.getvalue()


def _trailing_zeros(v: float) -> str:
    mantissa, e, exponent = repr(v).partition("e")
    return mantissa + ("" if "." in mantissa else ".") + "000" + e + exponent


def _underscored(v: float) -> str:
    text = repr(v)
    return "-0_" + text[1:] if text.startswith("-") else "0_" + text


# Exact spellings of a float: each reads back to the same float64 bits.
SPELLINGS = {
    "repr": repr,
    "%.17g": lambda v: "%.17g" % v,
    "upper-case E": lambda v: repr(v).upper(),
    "leading +": lambda v: repr(v) if repr(v).startswith("-") else "+" + repr(v),
    "trailing zeros": _trailing_zeros,
    "0 and 1": lambda v: "0" if v == 0.0 and repr(v) == "0.0" else "1" if v == 1.0 else repr(v),
    "space": lambda v: " " + repr(v),
    "underscore": _underscored,
    "quotes": lambda v: f'"{v!r}"',
}


def _spelled_source(path, rows, spell) -> None:
    """Write ``rows`` ({ForecastKey: float row}) as a canonical forecast file
    whose probabilities are spelled by ``spell``."""
    with open(path, "w", newline="") as fh:
        fh.write(HEADER + "\r\n")
        for key, probs in rows.items():
            fields = [key.region, str(key.target), key.model_id, str(key.issue)]
            fh.write(",".join(fields + [spell(float(v)) for v in probs]) + "\r\n")


def _ingested(tmp, name, rows, spell, truth_text="region,epiweek,wili\r\nNat,201041,1.5\r\n"):
    """Ingest ``rows`` spelled by ``spell``; return the source and run paths."""
    source = tmp / f"{name}.csv"
    _spelled_source(source, rows, spell)
    truth = tmp / "truth.csv"
    truth.write_text(truth_text)
    out = tmp / name
    ingest(RunConfig(forecasts=(str(source),), truth=str(truth), seasons=(2010,)), out)
    return source, out


def _bits(pmf) -> bytes:
    return np.asarray(pmf, dtype=float).tobytes()


_ROW_KINDS = ("point mass", "dyadic", "random", "off unit", "subnormal", "signed zero")
_row_kinds = st.sampled_from(_ROW_KINDS)


def _drawn_row(kind: str, seed: int) -> np.ndarray:
    """A probability row of one kind; "random" and "off unit" rows are the
    ones renormalization is likely to change."""
    rng = np.random.default_rng(seed)
    row = np.zeros(N_BINS)
    if kind == "point mass":
        row[rng.integers(N_BINS)] = 1.0
    elif kind == "dyadic":
        bins = rng.choice(N_BINS, size=4, replace=False)
        row[bins] = [0.5, 0.25, 0.125, 0.125]
    else:
        row = rng.dirichlet(np.full(N_BINS, 0.3))
        row[rng.random(N_BINS) < 0.3] = 0.0
        row = row / row.sum()
        if kind == "off unit":
            row = row * 1.05
        elif kind == "subnormal":
            # Into one of the bins zeroed above (about 30 %), so the row keeps
            # its unit sum; overwriting a bin that held mass could leave it
            # below ingest's tolerance.
            zeros = np.flatnonzero(row == 0.0)
            row[zeros[rng.integers(len(zeros))]] = 5e-324
        elif kind == "signed zero":
            row[row == 0.0] = -0.0
    return row


class TestIngestKeepsSourceSpelling:
    """Ingest keeps a source row's float64 bits, not its spelling: every
    exact spelling of the same rows gives the same ``panel/`` bytes, which
    load to the bits ``parse_component_csv`` gives for the source."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(_row_kinds, st.integers(0, 2**32 - 1)), min_size=1, max_size=6))
    @example([(kind, seed) for seed, kind in enumerate(_ROW_KINDS)])
    @example([("subnormal", 51)])
    @example([("subnormal", 651)])
    def test_every_spelling_writes_one_panel_that_loads_bit_identical(self, drawn):
        rows = {
            ForecastKey("Nat", 1, f"m{i}", Epiweek(2010, 40)): _drawn_row(kind, seed)
            for i, (kind, seed) in enumerate(drawn)
        }
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            panels = {}
            for name, spell in SPELLINGS.items():
                source, out = _ingested(tmp, name.replace(" ", "-"), rows, spell)
                parsed = parse_component_csv(source)
                loaded = load_panel(panel_dir(out)).entries
                assert loaded.keys() == parsed.keys() == rows.keys()
                assert all(_bits(loaded[k]) == _bits(parsed[k]) for k in parsed), name
                panels[name] = {p.name: p.read_bytes() for p in panel_dir(out).iterdir()}
            for name, panel in panels.items():
                assert panel == panels["repr"], name

    def test_every_spelling_replays_and_reports_byte_identical(self, tmp_path):
        fragment, truth = synthetic_archive(
            seasons=(2010,), regions=("Nat",), targets=(1,), seed=5, missing_rate=0.05
        )
        truth_text = "region,epiweek,wili\r\n" + "".join(
            f"{region},{week},{value!r}\r\n" for (region, week), value in truth.items()
        )
        rows = {key: fragment[key] for key in sorted(fragment)}
        config_text = (
            "truth = {truth}\nforecasts = {source}\nseasons = 2010\ntargets = 1\n"
            "variants = equal,static,adaptive,cap-equal,cap-adaptive\nphi_grid = 0.0,0.5,0.9\n"
        )
        trees = {}
        for name, spell in SPELLINGS.items():
            source, out = _ingested(tmp_path, name.replace(" ", "-"), rows, spell, truth_text)
            text = config_text.format(truth=tmp_path / "truth.csv", source=source)
            config = RunConfig.parse(text)
            replay(config, out)
            write_report(out)
            trees[name] = {
                path.relative_to(out).as_posix(): path.read_bytes()
                for sub in ("runs", "reports")
                for path in sorted((out / sub).rglob("*"))
                if path.is_file()
            }
        assert trees["repr"]
        for name, tree in trees.items():
            assert tree == trees["repr"], name


class TestIngestPanelBytes:
    """Ingest's panel files equal ``write_panel`` of what they hold, which is
    what ``parse_component_csv`` gives for the source."""

    def test_synthetic_archive_panel_equals_rewritten_entries(self, tmp_path):
        forecasts, truth = write_synthetic_archive(
            tmp_path / "data", seasons=(2010, 2011), regions=("Nat", "HHS1"), targets=(1, 2),
            seed=5, missing_rate=0.04,
        )
        out = tmp_path / "run"
        ingest(RunConfig(forecasts=(str(forecasts),), truth=str(truth)), out)
        panel = load_panel(panel_dir(out))
        parsed = parse_component_csv(forecasts)
        assert panel.entries.keys() == parsed.keys()
        assert all(_bits(panel.entries[k]) == _bits(parsed[k]) for k in parsed)
        rewritten = tmp_path / "rewritten"
        write_panel(panel, rewritten)
        stored = sorted(panel_dir(out).iterdir())
        assert [p.name for p in stored] == sorted(p.name for p in rewritten.iterdir())
        for path in stored:
            assert (rewritten / path.name).read_bytes() == path.read_bytes()
