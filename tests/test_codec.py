"""The bulk probability codec against the per-value csv/float/repr oracles.

Formatting must match ``repr`` of each value, parsing must match ``float()``
bit for bit, and a streamed, chunked parse must accept, reject and name rows
exactly as the one-row-at-a-time ``csv.reader`` parser did. Week JSON
bundles must match ``json.dumps(payload, indent=1, sort_keys=True)``, and a
week CSV loads only as the bytes whose SHA-256 its bundle records.
"""

import csv
import hashlib
import io
import json
import math
import re
import struct
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cappool.ensembles import EnsembleRun
from cappool.epiweek import Epiweek, season_weeks
from cappool.panel import (
    ForecastDataError,
    ForecastKey,
    Panel,
    TruthTable,
    format_probs,
    load_panel,
    parse_component_csv,
    parse_prob_rows,
    write_component_csv,
    write_panel,
)
from cappool.pmf import N_BINS, normalize_pmfs
from cappool.replay import (
    CorruptArtifactError,
    _load_week,
    _week_json,
    _write_week,
)
from cappool.scoring import ScoreRecord

import oracles

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1 / 3, 2 / 3, 0.1, 1.0, 1e16, 1.7976931348623157e308]
prob_rows = st.lists(st.floats() | st.sampled_from(SPECIAL), min_size=N_BINS, max_size=N_BINS)
non_nan_rows = st.lists(
    st.floats(allow_nan=False) | st.sampled_from(SPECIAL), min_size=N_BINS, max_size=N_BINS
)

# Tokens around which float() and np.loadtxt differ or agree only by luck:
# underscores, non-ASCII digits and spaces, ASCII separators, comments, case.
TOKEN_CHARS = "0123456789.eE+-_ \t\x0b\x0c\x1c\x1f\x00#infatyINFATYx١\xa0　"
token = st.sampled_from(
    ["1_0", "١", "\xa00.5", "1\x1c", "#1", "", " ", "Infinity", "-nan"]
) | st.text(TOKEN_CHARS, max_size=6)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def float_bits(values) -> bytes:
    return b"".join(struct.pack("<d", v) for v in values)


def oracle_rows(tails, row_nos):
    """float() per field; the first bad row raises as the per-value parser did."""
    out = []
    for tail, row_no in zip(tails, row_nos):
        try:
            out.append([float(v) for v in tail.split(",")])
        except ValueError as exc:
            raise ForecastDataError(f"row {row_no}: {exc}") from None
    return np.array(out, dtype=float).reshape(len(out), N_BINS)


def outcome(fn, *args):
    """(error type, message) if ``fn`` raises, else ("ok", result)."""
    try:
        return "ok", fn(*args)
    except (ForecastDataError, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestFormatProbs:
    @settings(max_examples=50)
    @given(prob_rows)
    def test_matches_per_value_repr(self, row):
        assert format_probs(np.array(row)) == oracles.format_probs(np.array(row))

    def test_special_values(self):
        pmf = np.array(SPECIAL + [0.0] * (N_BINS - len(SPECIAL)))
        text = format_probs(pmf)
        assert text == oracles.format_probs(pmf)
        assert text.startswith("0.0,-0.0,5e-324,-5e-324,1e-300,0.3333333333333333,")

    def test_float32_input_formats_like_float_of_each_value(self):
        pmf = np.linspace(0, 1, N_BINS, dtype=np.float32)
        assert format_probs(pmf) == oracles.format_probs(pmf)


class TestParseProbRows:
    @settings(max_examples=50)
    @given(st.lists(non_nan_rows, min_size=1, max_size=2))
    def test_round_trip_is_bit_exact(self, rows):
        tails = [format_probs(np.array(r)) for r in rows]
        parsed = parse_prob_rows(tails, range(len(rows)))
        assert parsed.dtype == np.float64 and parsed.shape == (len(rows), N_BINS)
        assert bits(parsed) == b"".join(float_bits(r) for r in rows)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, N_BINS - 1), token), max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    def test_odd_tokens_match_float(self, edits):
        tails = []
        for row_edits in edits:
            fields = [repr(v) for v in np.linspace(0, 1, N_BINS).tolist()]
            for col, tok in row_edits:
                fields[col] = tok
            tails.append(",".join(fields))
        row_nos = [2 + 3 * i for i in range(len(tails))]
        got = outcome(parse_prob_rows, tails, row_nos)
        want = outcome(oracle_rows, tails, row_nos)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert bits(got[1]) == bits(want[1])
        else:
            assert got[1] == want[1]

    @pytest.mark.parametrize("tok", ["1\x1c", "\x1f0.5", "١", "0.٥"])
    def test_odd_token_in_the_last_row_only(self, tok):
        # Every row but the last is plain ASCII, so a test of the chunk that
        # missed the last row would send it down the loadtxt path.
        rows = [[repr(v) for v in np.linspace(0, 1, N_BINS).tolist()] for _ in range(4)]
        rows[-1][7] = tok
        tails = [",".join(fields) for fields in rows]
        row_nos = [2, 3, 4, 5]
        got = outcome(parse_prob_rows, tails, row_nos)
        want = outcome(oracle_rows, tails, row_nos)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert bits(got[1]) == bits(want[1])
        else:
            assert got[1] == want[1]

    def test_line_label(self):
        tail = ",".join(["0.5", "x"] + ["0"] * (N_BINS - 2))
        message = r"^line 7: could not convert string to float: 'x'$"
        with pytest.raises(ForecastDataError, match=message):
            parse_prob_rows([tail], [7], "line")

    def test_list_tails_hold_fields_with_commas(self):
        fields = ["0.5", "0.5\n"] + ["0"] * (N_BINS - 2)
        assert parse_prob_rows([fields], [2])[0, 1] == 0.5
        message = "row 2: could not convert string to float: '0,5'"
        with pytest.raises(ForecastDataError, match=message):
            parse_prob_rows([["0,5"] + ["0"] * (N_BINS - 1)], [2])


class TestNormalizePmfs:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_rows_match_one_at_a_time(self, seed, n):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(N_BINS, 0.3), size=n) * rng.uniform(0.92, 1.08, size=(n, 1))
        got = normalize_pmfs(rows)
        assert bits(got) == b"".join(bits(oracles.normalize_pmf(r)) for r in rows)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda r: r.__setitem__(3, np.nan), "non-finite probability entry"),
            (lambda r: r.__setitem__(3, np.inf), "non-finite probability entry"),
            (lambda r: r.__setitem__(3, -r[3]), "negative probability entry"),
            (lambda r: r.__imul__(1.2), "probabilities sum to 1.200000, outside tolerance"),
        ],
    )
    def test_first_bad_row_named(self, edit, reason):
        rows = np.full((5, N_BINS), 1.0 / N_BINS)
        edit(rows[2])
        edit(rows[4])
        with pytest.raises(ValueError, match=reason) as info:
            normalize_pmfs(rows)
        assert info.value.row == 2
        with pytest.raises(ValueError, match=reason):
            oracles.normalize_pmf(rows[2])


# --- canonical forecast files -------------------------------------------------

REGION_SPELLINGS = {
    "Nat": ["Nat", "nat", "US National"],
    "HHS1": ["HHS1", "hhs 1", "HHS Region 1"],
    "HHS2": ["HHS2"],
}
MODEL_IDS = ["m1", "m2", "a,b", 'say "hi"', "x, \"y\"", "plain-model"]
WEEKS = season_weeks(2010)[:20]
KEY_SPACE = [
    (region, target, model, week)
    for region in REGION_SPELLINGS
    for target in (1, 2, 3, 4)
    for model in MODEL_IDS
    for week in WEEKS
]


def _pmf_pool(rng, size=24):
    pool = rng.dirichlet(np.full(N_BINS, 0.3), size=size)
    pool[1, :5] = 0.0
    pool[1] /= pool[1].sum()
    pool[: size // 3] *= rng.uniform(0.93, 1.07, size=(size // 3, 1))  # renormalized on ingest
    return [format_probs(p) for p in pool]


def component_text(rng, n_rows: int, newline: str) -> tuple[str, list[list[str]]]:
    """A random canonical file of distinct keys and its rows as field lists."""
    pool = _pmf_pool(rng)
    keys = [KEY_SPACE[i] for i in rng.choice(len(KEY_SPACE), size=n_rows, replace=False)]
    rows = []
    for region, target, model, week in keys:
        spelling = REGION_SPELLINGS[region][int(rng.integers(len(REGION_SPELLINGS[region])))]
        probs = pool[int(rng.integers(len(pool)))].split(",")
        rows.append([spelling, str(target), model, str(week)] + probs)
    return render(rng, rows, newline), rows


def render(rng, rows, newline: str) -> str:
    out = io.StringIO()
    minimal = csv.writer(out, lineterminator=newline)
    quote_all = csv.writer(out, lineterminator=newline, quoting=csv.QUOTE_ALL)
    minimal.writerow(oracles.COMPONENT_HEADER)
    for row in rows:
        if rng.random() < 0.05:
            out.write(newline)  # blank line
        (quote_all if rng.random() < 0.05 else minimal).writerow(row)
    return out.getvalue()


def parse_both(text: str):
    got = outcome(parse_component_csv, io.StringIO(text, newline=""))
    want = outcome(oracles.parse_component_csv, io.StringIO(text, newline=""))
    return got, want


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert list(got[1]) == list(want[1])
        assert all(bits(got[1][k]) == bits(want[1][k]) for k in want[1])
        assert all(not pmf.flags.writeable for pmf in got[1].values())
    else:
        assert got[1] == want[1]


class TestParseComponentCsv:
    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 1, 511, 512, 513, 1030]),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_matches_csv_reader_parser(self, seed, n_rows, newline):
        text, _ = component_text(np.random.default_rng(seed), n_rows, newline)
        assert_same(*parse_both(text))

    @pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 1030])
    def test_row_counts(self, n_rows):
        text, _ = component_text(np.random.default_rng(n_rows), n_rows, "\r\n")
        got, want = parse_both(text)
        assert got[0] == "ok" and len(got[1]) == n_rows
        assert_same(got, want)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(
                st.integers(0, 699),
                st.sampled_from(
                    [
                        "token", "fields+", "fields-", "duplicate", "region", "week", "model",
                        "sum", "negative", "underscore", "comma", "newline",
                    ]
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_errors_name_the_first_bad_row(self, seed, edits, newline):
        rng = np.random.default_rng(seed)
        _, rows = component_text(rng, 700, newline)  # two chunks
        for at, kind in edits:
            row = rows[at]
            if kind == "token":
                row[4 + int(rng.integers(N_BINS))] = "0.0x"
            elif kind == "fields+":
                row.append("0.0")
            elif kind == "fields-":
                del row[-1]
            elif kind == "duplicate":
                row[:4] = rows[int(rng.integers(at))][:4] if at else row[:4]
            elif kind == "region":
                row[0] = "Mars"
            elif kind == "week":
                row[3] = "201099"
            elif kind == "model":
                row[2] = "  "
            elif kind == "sum":
                # An earlier edit of this row may have left a field that
                # float() rejects ("0.0x", "0,25"); it stays as it is.
                row[4:] = [v if "x" in v or "," in v else repr(float(v) * 1.5) for v in row[4:]]
            elif kind == "negative":
                row[5] = "-" + row[5].lstrip("-")
            elif kind == "underscore":
                row[6] = "0_0"
            elif kind == "comma":
                row[7] = row[7].replace(".", ",")  # quoted, as "0,25"
            elif kind == "newline":
                row[8] += "\n"  # quoted; float() strips it
        assert_same(*parse_both(render(rng, rows, newline)))

    def test_bad_row_after_first_chunk(self):
        _, rows = component_text(np.random.default_rng(3), 700, "\n")
        rows[650][4 + 7] = "x"
        rows[600][0] = "Mars"  # an earlier bad row of another kind wins
        text = render(np.random.default_rng(4), rows, "\n")
        got, want = parse_both(text)
        assert got == want
        assert got[1].startswith("row ") and "Mars" in got[1]

    def test_unreadable_line_after_bad_row(self):
        header = ",".join(oracles.COMPONENT_HEADER)
        good = ",".join(["Nat", "1", "m", "201040"] + ["0"] * (N_BINS - 1) + ["1.0"])
        bad = good.replace("201040", "2010x0")
        text = header + "\n" + bad + "\n" + "a,b\rc\n"
        with pytest.raises(ForecastDataError, match="row 2"):
            parse_component_csv(io.StringIO(text))
        with pytest.raises(csv.Error):
            parse_component_csv(io.StringIO(header + "\n" + good + "\n" + "a,b\rc\n"))
        with pytest.raises(csv.Error):
            oracles.parse_component_csv(io.StringIO(header + "\n" + good + "\n" + "a,b\rc\n"))

    def test_field_over_csv_size_limit_rejected_as_before(self):
        header = ",".join(oracles.COMPONENT_HEADER)
        model = "m" * (csv.field_size_limit() + 1)
        row = ",".join(["Nat", "1", model, "201040"] + ["0"] * (N_BINS - 1) + ["1.0"])
        for parse in (parse_component_csv, oracles.parse_component_csv):
            with pytest.raises(csv.Error):
                parse(io.StringIO(header + "\n" + row + "\n"))

    def test_file_path_and_stream_agree(self, tmp_path):
        text, _ = component_text(np.random.default_rng(8), 600, "\r\n")
        path = tmp_path / "forecasts.csv"
        path.write_bytes(text.encode())
        assert_same(("ok", parse_component_csv(path)), ("ok", oracles.parse_component_csv(path)))


class TestWritePanel:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.text(alphabet='ab ,"\r\n\xe9', min_size=1, max_size=6).filter(
                lambda m: m.strip() == m
            ),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(models=["a\rb", "c\nd", "e,f", 'g"h', "i\r\nj", "k"], seed=0)
    def test_bytes_match_csv_writer_and_reload(self, tmp_path_factory, models, seed):
        # The key list is csv.writer's rows of the four key fields, and
        # write_component_csv, which writes synthetic archives, csv.writer's
        # rows of the keys and the repr of each probability.
        rng = np.random.default_rng(seed)
        entries = {}
        for model in models:
            for week in WEEKS[:3]:
                pmf = rng.dirichlet(np.full(N_BINS, 0.3))
                pmf.setflags(write=False)
                entries[ForecastKey("Nat", 1, model, week)] = pmf
        panel = Panel(entries, TruthTable({("Nat", Epiweek(2010, 41)): 1.5}))
        directory = tmp_path_factory.mktemp("panel")
        write_panel(panel, directory)
        keys = sorted(entries)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(oracles.COMPONENT_HEADER[:4])
        writer.writerows([k.region, k.target, k.model_id, str(k.issue)] for k in keys)
        with open(directory / "season-2010.csv", newline="") as fh:
            assert fh.read() == expected.getvalue()
        saved = io.BytesIO()
        np.save(saved, np.array([entries[k] for k in keys]), allow_pickle=False)
        assert (directory / "season-2010.npy").read_bytes() == saved.getvalue()
        written, expected = io.StringIO(newline=""), io.StringIO(newline="")
        write_component_csv(written, entries)
        oracles.write_component_csv(expected, entries)
        assert written.getvalue() == expected.getvalue()
        loaded = load_panel(directory)
        assert loaded == panel
        assert all(bits(loaded.entries[k]) == bits(entries[k]) for k in entries)


class TestWeekCsv:
    """A week CSV loads only as the bytes whose SHA-256 its bundle records:
    any edit makes the week corrupt, named by the CSV."""

    STRATA = [("Nat", 1), ("HHS1", 1), ("Nat", 2)]
    # More rows than one chunk of a forecast file's parse.
    LONG = [(f"R{i}", 1) for i in range(700)]
    WEEK = Epiweek(2010, 41)
    PMF = np.full(N_BINS, 1.0 / N_BINS)

    def _write(self, tmp_path, strata):
        runs = [
            EnsembleRun("equal", 2010, region, target, self.WEEK.to_int(), 2, self.PMF, {}, None)
            for region, target in strata
        ]
        _write_week(tmp_path, "equal", 2010, self.WEEK, runs, [])
        return tmp_path / "runs" / "equal" / "2010" / f"week-{self.WEEK}.csv"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: None,
            lambda lines: lines.__setitem__(2, lines[2].replace("0.007", "0.0x7", 1)),
            lambda lines: lines.__setitem__(3, lines[3] + ",0.1"),
            lambda lines: lines.__setitem__(2, lines[2].replace(",1,", ",one,", 1)),
            lambda lines: lines.__setitem__(1, lines[1].replace("0.007", "0_007", 1)),
            lambda lines: lines.insert(2, ""),
            lambda lines: lines.__setitem__(0, '"region' + lines[0]),
            lambda lines: lines.insert(3, lines[1]),
            lambda lines: lines.pop(2),
            lambda lines: lines.__setitem__(2, lines[2].replace("HHS1,", "HHS2,", 1)),
            lambda lines: lines.__setitem__(3, lines[3].replace(",0.007", ",-0.007", 1)),
            lambda lines: lines.__setitem__(3, "Nat,2,nan," + lines[3].split(",", 3)[3]),
            lambda lines: lines.__setitem__(3, "Nat,2,inf," + lines[3].split(",", 3)[3]),
            lambda lines: lines.__setitem__(3, lines[3].replace(",0.007", ",0.006", 1)),
            lambda lines: lines.pop(),  # the last newline
        ],
    )
    def test_matches_row_at_a_time_loader(self, tmp_path, edit):
        """The written file loads as csv.reader and float() read it, row by
        row; every edit is corrupt."""
        self._check(tmp_path, edit, self.STRATA)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: None,
            lambda lines: (
                lines.__setitem__(200, lines[200].replace(",0.007", ",0.006", 1)),
                lines.__setitem__(300, lines[5]),
                lines.__setitem__(400, lines[400].replace("0.007", "0.0x7", 1)),
            ),
            lambda lines: (
                lines.__setitem__(600, lines[2]),
                lines.__setitem__(650, lines[650].replace(",0.007", ",-0.007", 1)),
            ),
        ],
    )
    def test_every_edit_of_a_long_file_names_the_file(self, tmp_path, edit):
        self._check(tmp_path, edit, self.LONG)

    def _check(self, tmp_path, edit, strata):
        path = self._write(tmp_path, strata)
        text = path.read_text()
        lines = text.split("\n")
        edit(lines)
        if lines == text.split("\n"):
            # Unedited: each pmf is what float() gives for its row's fields.
            rows = list(csv.reader(text.splitlines()))[1:]
            want = {(row[0], int(row[1])): [float(v) for v in row[2:]] for row in rows}
            runs = _load_week(tmp_path, "equal", 2010, self.WEEK).runs()
            assert [(r.region, r.target) for r in runs] == list(want)
            for run in runs:
                assert bits(run.pmf) == bits(np.array(want[run.region, run.target]))
                assert not run.pmf.flags.writeable
            return
        path.write_text("\n".join(lines))
        assert path.read_text() != text
        with pytest.raises(CorruptArtifactError, match=re.escape(f"{path}: its SHA-256")):
            _load_week(tmp_path, "equal", 2010, self.WEEK)

    def test_missing_file_names_the_file(self, tmp_path):
        path = self._write(tmp_path, [])
        path.unlink()
        with pytest.raises(CorruptArtifactError, match=re.escape(f"{path}: missing")):
            _load_week(tmp_path, "equal", 2010, self.WEEK)

    def test_edited_has_pmf_names_the_file(self, tmp_path):
        path = self._write(tmp_path, self.STRATA)
        bundle_path = path.with_suffix(".json")
        bundle = json.loads(bundle_path.read_text())
        bundle["runs"][1]["has_pmf"] = False
        bundle_path.write_text(json.dumps(bundle))
        message = f"{path}: its rows are not the runs marked has_pmf"
        with pytest.raises(CorruptArtifactError, match=re.escape(message)):
            _load_week(tmp_path, "equal", 2010, self.WEEK)


# Ids and notes with quotes, backslashes, control and non-ASCII characters.
json_text = st.text(max_size=6) | st.sampled_from(['say "hi"', "a\\b", "\u00e9t\u00e9", "\u4e2d", "\n\t", ""])
json_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3])
ensemble_runs = st.builds(
    EnsembleRun,
    variant=st.just("equal"),
    season=st.just(2010),
    region=json_text,
    target=st.integers(1, 4),
    issue_week=st.integers(201040, 201120),
    week_index=st.integers(1, 33),
    pmf=st.none() | st.just(np.full(N_BINS, 1.0 / N_BINS)),
    weights=st.dictionaries(json_text, json_floats, max_size=4),
    entropy=st.none() | json_floats,
    phi=st.none() | json_floats,
    clusters=st.none() | st.lists(st.lists(json_text, max_size=3).map(tuple), max_size=3).map(tuple),
    leaders=st.none() | st.lists(st.none() | json_text, max_size=3).map(tuple),
    n_clusters=st.none() | st.integers(0, 20),
    missing_models=st.lists(json_text, max_size=3).map(tuple),
    note=json_text,
)
score_records = st.builds(
    ScoreRecord,
    variant=st.just("equal"),
    region=json_text,
    target=st.integers(1, 4),
    issue_week=st.integers(201040, 201120),
    target_week=st.integers(201040, 201120),
    log_score=json_floats,
    pit=json_floats,
    brier_integral=json_floats,
)


def _run_dict(run):
    """A run's week-JSON object, as ``json.dumps`` takes it."""
    return {
        "region": run.region,
        "target": run.target,
        "issue_week": run.issue_week,
        "week_index": run.week_index,
        "has_pmf": run.pmf is not None,
        "weights": run.weights,
        "entropy": run.entropy,
        "phi": run.phi,
        "clusters": [list(c) for c in run.clusters] if run.clusters is not None else None,
        "leaders": list(run.leaders) if run.leaders is not None else None,
        "n_clusters": run.n_clusters,
        "missing_models": list(run.missing_models),
        "note": run.note,
    }


def _score_dict(record):
    """A score's week-JSON object, as ``json.dumps`` takes it."""
    return {
        "region": record.region,
        "target": record.target,
        "issue_week": record.issue_week,
        "target_week": record.target_week,
        "log_score": record.log_score,
        "pit": record.pit,
        "brier_integral": record.brier_integral,
    }


def _week_dict(variant, season, issue_week, runs, scores, csv_sha256):
    return {
        "variant": variant,
        "season": season,
        "issue_week": issue_week,
        "runs": [_run_dict(r) for r in runs],
        "scores": [_score_dict(s) for s in scores],
        "csv_sha256": csv_sha256,
    }


class TestWeekJson:
    @settings(max_examples=100, deadline=None)
    @given(
        variant=json_text,
        season=st.integers(2000, 2030),
        issue_week=st.integers(200040, 203052),
        runs=st.lists(ensemble_runs, max_size=4),
        scores=st.lists(score_records, max_size=4),
        csv_bytes=st.binary(max_size=8),
    )
    def test_matches_json_dumps(self, variant, season, issue_week, runs, scores, csv_bytes):
        digest = hashlib.sha256(csv_bytes).hexdigest()
        payload = _week_dict(variant, season, issue_week, runs, scores, digest)
        assert _week_json(variant, season, issue_week, runs, scores, digest) == json.dumps(
            payload, indent=1, sort_keys=True
        )

    def test_written_week_file(self, tmp_path):
        week = Epiweek(2010, 41)
        run = EnsembleRun(
            variant="cap-equal", season=2010, region="Nat", target=1, issue_week=week.to_int(),
            week_index=2, pmf=np.full(N_BINS, 1.0 / N_BINS), weights={"c2": 0.25, "c1": 0.75},
            entropy=0.5, phi=0.4, clusters=(("m1", "m2"), ("m3",)), leaders=("m2", None),
            n_clusters=2, missing_models=("m4",), note="",
        )
        score = ScoreRecord("cap-equal", "Nat", 1, 201040, week.to_int(), -1.5, 0.25, 0.125)
        _write_week(tmp_path, "cap-equal", 2010, week, [run], [score])
        base = tmp_path / "runs" / "cap-equal" / "2010"
        digest = hashlib.sha256((base / f"week-{week}.csv").read_bytes()).hexdigest()
        payload = _week_dict("cap-equal", 2010, week.to_int(), [run], [score], digest)
        text = (base / f"week-{week}.json").read_text()
        assert text == json.dumps(payload, indent=1, sort_keys=True) + "\n"
        stored = _load_week(tmp_path, "cap-equal", 2010, week)
        runs, scores = stored.runs(), stored.scores
        assert scores == [score]
        assert runs[0].clusters == run.clusters and runs[0].weights == run.weights

    @settings(max_examples=50, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(ensemble_runs, st.sampled_from(["Nat", "HHS1", "HHS10"])).map(
                lambda pair: replace(pair[0], region=pair[1], issue_week=201041)
            ),
            max_size=4,
            unique_by=lambda r: (r.region, r.target),
        ),
        scores=st.lists(score_records.map(lambda s: replace(s, target_week=201041)), max_size=4),
    )
    def test_load_rebuilds_the_written_records(self, runs, scores):
        week = Epiweek(2010, 41)
        with tempfile.TemporaryDirectory() as tmp:
            _write_week(Path(tmp), "equal", 2010, week, runs, scores)
            stored = _load_week(Path(tmp), "equal", 2010, week)
            got_runs, got_scores = stored.runs(), stored.scores
        # repr tells a tuple from a list and spells every NaN alike.
        plain = [f.name for f in fields(EnsembleRun) if f.name not in ("pmf", "weights")]
        assert len(got_runs) == len(runs)
        for got, want in zip(got_runs, runs):
            assert repr([getattr(got, f) for f in plain]) == repr([getattr(want, f) for f in plain])
            assert repr(sorted(got.weights.items())) == repr(sorted(want.weights.items()))
            assert (got.pmf is None) == (want.pmf is None)
            assert want.pmf is None or np.array_equal(got.pmf, want.pmf)
            assert want.pmf is None or not got.pmf.flags.writeable
        assert repr(got_scores) == repr(scores)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda bundle: bundle["runs"][0].update(extra=1),
            lambda bundle: bundle["runs"][0].pop("note"),
            lambda bundle: bundle["runs"][0].pop("has_pmf"),
            lambda bundle: bundle["runs"].__setitem__(0, [1, 2]),
            lambda bundle: bundle["scores"][0].update(variant="equal"),
            lambda bundle: bundle["scores"][0].pop("pit"),
            # A bundle must be the week its path names.
            lambda bundle: bundle.update(variant="cap-equal"),
            lambda bundle: bundle.update(season=2011),
            lambda bundle: bundle.update(issue_week=201042),
            lambda bundle: bundle["runs"][0].update(issue_week=201042),
            lambda bundle: bundle["scores"][0].update(target_week=201042),
            lambda bundle: bundle.update(extra=1),
            # A bundle written before weeks recorded their CSV's digest.
            lambda bundle: bundle.pop("csv_sha256"),
        ],
    )
    def test_malformed_item_names_the_file(self, tmp_path, edit):
        week = Epiweek(2010, 41)
        run = EnsembleRun("equal", 2010, "Nat", 1, week.to_int(), 2, None, {}, None)
        score = ScoreRecord("equal", "Nat", 1, 201040, week.to_int(), -1.5, 0.25, 0.125)
        _write_week(tmp_path, "equal", 2010, week, [run], [score])
        path = tmp_path / "runs" / "equal" / "2010" / f"week-{week}.json"
        bundle = json.loads(path.read_text())
        edit(bundle)
        path.write_text(json.dumps(bundle))
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            _load_week(tmp_path, "equal", 2010, week)
