"""Forecast and truth ingestion: file parsing, alignment, and persistence.

The canonical forecast file is one row per forecast: region, target,
model_id, issue_epiweek, then 131 probability columns. A converter from the
per-bin long format used by public forecast archives is also provided.
Missing forecasts are data, not errors: the assembled panel answers which
models are absent at any key without imputing anything.
"""

from __future__ import annotations

import csv
import functools
import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .epiweek import Epiweek, season_length, season_of, season_weeks
from .pmf import N_BINS, MalformedPmfError, normalize_pmf, normalize_pmfs

__all__ = [
    "REGIONS",
    "TARGETS",
    "ForecastDataError",
    "ForecastKey",
    "TruthTable",
    "StatePopulationTable",
    "Panel",
    "canonical_region",
    "format_probs",
    "parse_prob_rows",
    "read_prob_records",
    "parse_component_csv",
    "convert_flusight_csv",
    "ingest_flusight_tree",
    "parse_truth_csv",
    "parse_population_csv",
    "parse_state_ili_csv",
    "compute_wili",
    "truth_from_state_ili",
    "write_component_csv",
    "write_panel",
    "panel_dir",
    "stored_seasons",
    "truth_path",
    "load_panel",
]

REGIONS = tuple(f"HHS{i}" for i in range(1, 11)) + ("Nat",)
TARGETS = (1, 2, 3, 4)

_KEY_HEADER = ["region", "target", "model_id", "issue_epiweek"]
_COMPONENT_HEADER = _KEY_HEADER + [f"bin_{i}" for i in range(1, N_BINS + 1)]


class ForecastDataError(ValueError):
    """A submission or truth file is malformed."""


def canonical_region(token: str) -> str:
    """Map a region token to its canonical form (HHS1..HHS10, Nat)."""
    t = token.strip().lower()
    if t in ("nat", "us national", "national", "us"):
        return "Nat"
    m = re.fullmatch(r"hhs\s*(?:region\s*)?(\d{1,2})", t)
    if m and 1 <= int(m.group(1)) <= 10:
        return f"HHS{int(m.group(1))}"
    raise ForecastDataError(f"unknown region token {token!r}")


def _parse_target(token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ForecastDataError(f"unknown target token {token!r}") from None
    if value not in TARGETS:
        raise ForecastDataError(f"unknown target token {token!r}")
    return value


def _reads_path(parse):
    """Let ``parse(stream, ...)`` take a path as well as a stream of lines.
    A path is opened, and a ForecastDataError, a line ``csv`` cannot read or
    text that is not UTF-8 met while reading it raises ForecastDataError
    with the path in front."""

    @functools.wraps(parse)
    def read(stream, *args, **kwargs):
        if not isinstance(stream, (str, Path)):
            return parse(stream, *args, **kwargs)
        with open(stream, newline="") as fh:
            try:
                return parse(fh, *args, **kwargs)
            except (ForecastDataError, csv.Error, UnicodeError) as exc:
                raise ForecastDataError(f"{stream}: {exc}") from None

    return read


def _named_rows(stream, names, kind: str):
    """Yield ``(number, fields)`` for each record of ``stream`` after its
    header: its number as ``_records`` counts them from the header's 1, and
    a tuple of its fields under ``names`` (two or more), whose header fields
    are matched without regard to case or surrounding spaces. A missing
    column raises; a row too short for a column reads it as ""."""
    records = _records(stream, sys.maxsize, 1)
    header = next(records, (0, 0, [], None))[2]
    index = {field.strip().lower(): k for k, field in enumerate(header)}
    missing = [name for name in names if name.lower() not in index]
    if missing:
        raise ForecastDataError(f"{kind} file missing columns {missing}")
    cols = [index[name.lower()] for name in names]
    pick, width = itemgetter(*cols), max(cols) + 1
    for number, n_fields, fields, _ in records:
        yield number, pick(fields if n_fields >= width else fields + [""] * width)


@dataclass(frozen=True, order=True)
class ForecastKey:
    """Identifies one forecast: where, how far ahead, by whom, and when."""

    region: str
    target: int
    model_id: str
    issue: Epiweek


class TruthTable:
    """Observed percent ILI per (region, observation week)."""

    def __init__(self, values: dict[tuple[str, Epiweek], float] | None = None):
        self._values = dict(values or {})

    def wili(self, region: str, week: Epiweek) -> float | None:
        return self._values.get((region, week))

    def add(self, region: str, week: Epiweek, value: float) -> None:
        if not 0.0 <= value <= 100.0:
            raise ForecastDataError(f"wILI {value} outside [0, 100]")
        key = (region, week)
        if key in self._values:
            raise ForecastDataError(f"duplicate truth entry for {region} {week}")
        self._values[key] = value

    def items(self):
        return sorted(self._values.items())

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        return isinstance(other, TruthTable) and self._values == other._values


# Probability rows are converted this many at a time, which bounds the text
# held besides the parsed arrays.
_CHUNK_ROWS = 512

# ASCII separators that np.loadtxt strips as whitespace around a number and
# float() rejects.
_LOADTXT_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def format_probs(pmf) -> str:
    """A probability row as comma-joined shortest round-trip ``repr`` floats,
    which ``parse_prob_rows`` reads back bit for bit. Week files and
    ``write_component_csv`` rows are written this way."""
    return ",".join(map(repr, np.asarray(pmf, dtype=float).tolist()))


def parse_prob_rows(tails, row_nos, label: str = "row") -> np.ndarray:
    """Parse probability rows into an (n, 131) float64 array.

    Each tail is one row's probability fields, comma-joined, or their list.
    Values are bit-identical to ``float()`` of each field. One
    ``np.loadtxt`` pass converts the rows; text that ``loadtxt`` does not
    take the way ``float()`` does falls back to ``float()`` per field, which
    raises ``ForecastDataError`` as ``"<label> N: ..."`` for the first row
    holding a field ``float()`` rejects. Callers check that every row has
    131 fields.
    """
    # A list whose fields hold no comma reads the same comma-joined, which
    # keeps the chunk on the loadtxt path.
    tails = [
        t if isinstance(t, str) or any("," in v for v in t) else ",".join(t) for t in tails
    ]
    if (
        tails
        and all(isinstance(t, str) for t in tails)
        and all(map(str.isascii, tails))
        and not any(c in t for t in tails for c in _LOADTXT_ONLY_SPACES)
    ):
        try:
            probs = np.loadtxt(tails, dtype=float, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if probs.shape == (len(tails), N_BINS):
                return probs
    probs = np.empty((len(tails), N_BINS))
    for i, (tail, row_no) in enumerate(zip(tails, row_nos)):
        try:
            values = [float(v) for v in (tail.split(",") if isinstance(tail, str) else tail)]
        except ValueError as exc:
            raise ForecastDataError(f"{label} {row_no}: {exc}") from None
        probs[i] = values
    return probs


def _records(lines, n_head: int, start: int):
    """Yield ``(number, n_fields, head, tail)`` for each non-blank CSV record
    of ``lines``, numbered by the line it starts on, counting every line
    (blank ones and those inside quoted fields included) from ``start``.

    ``head`` holds the first ``n_head`` fields and ``tail`` the rest in the
    form ``parse_prob_rows`` takes, or None when there are no more fields.
    Only quotes, line breaks inside a line and NUL (on Python 3.10) are
    special to csv's excel dialect, so a line without them that is too short
    to hold a field over csv's size limit is split on commas, as
    ``csv.reader`` would split it, and its tail is the line's own text. Any
    other line starts a ``csv.reader`` record, which may read further lines,
    and its tail is the list of its fields.
    """
    lines = iter(lines)
    limit = csv.field_size_limit()
    numbers = count(start)
    for number, line in zip(numbers, lines):
        text = line.rstrip("\r\n")
        if len(text) <= limit and not (
            '"' in text or "\r" in text or "\n" in text or "\0" in text
        ):
            if not text:
                continue
            fields = text.split(",", n_head)
            if len(fields) <= n_head:
                yield number, len(fields), fields, None
            else:
                tail = fields.pop()
                yield number, n_head + 1 + tail.count(","), fields, tail
            continue
        reader = csv.reader(chain([line], lines))
        row = next(reader)
        for _ in range(reader.line_num - 1):  # the lines the record read past
            next(numbers)
        if not row:
            continue
        yield number, len(row), row[:n_head], row[n_head:] or None


def read_prob_records(lines, n_head: int, start: int, convert) -> None:
    """Feed the CSV records of ``lines`` to ``convert`` in bounded chunks.

    Records are ``(number, n_fields, head, tail)`` as described in
    ``_records``. ``convert`` takes a list of them and must either accept all
    of them or raise a ``ValueError`` before keeping any. A chunk it rejects
    is fed again one record at a time, so the error raised is the one for
    the first bad record. Records before a line that cannot be read or
    decoded are converted before that error propagates.
    """
    chunk: list = []

    def flush() -> None:
        try:
            convert(chunk)
        except ValueError:
            for record in chunk:
                convert([record])
        chunk.clear()

    try:
        for record in _records(lines, n_head, start):
            chunk.append(record)
            if len(chunk) == _CHUNK_ROWS:
                flush()
    except (csv.Error, UnicodeError):
        flush()
        raise
    flush()


def _keyed_rows(lines, start: int, width: int, values) -> dict:
    """The CSV records of ``lines``, numbered from ``start``, keyed by
    ForecastKey under a forecast file's key rules; each maps to its item of
    ``values(chunk)`` for its chunk of records (see ``read_prob_records``).

    A record must have ``width`` fields, the first four a region, target,
    model id and epiweek. The region, target and epiweek must parse, then
    ``values`` is called, so its errors come after theirs; last, the
    stripped model id must not be empty and the key may not repeat. A
    broken rule raises ForecastDataError naming the row.
    """
    fragment: dict[ForecastKey, object] = {}
    parsed: dict[tuple[str, str, str], tuple] = {}  # key tokens -> (region, target, issue)

    def convert(records) -> None:
        cells = []
        for row_no, n_fields, head, _ in records:
            if n_fields != width:
                raise ForecastDataError(f"row {row_no}: expected {width} fields")
            tokens = (head[0], head[1], head[3])
            if tokens not in parsed:
                try:
                    parsed[tokens] = (
                        canonical_region(head[0]), _parse_target(head[1]), Epiweek.parse(head[3])
                    )
                except ValueError as exc:
                    raise ForecastDataError(f"row {row_no}: {exc}") from None
            cells.append(parsed[tokens])
        rows = {}
        for (row_no, _, head, _), cell, value in zip(records, cells, values(records)):
            model_id = head[2].strip()
            if not model_id:
                raise ForecastDataError(f"row {row_no}: empty model_id")
            key = ForecastKey(cell[0], cell[1], model_id, cell[2])
            if key in fragment or key in rows:
                raise ForecastDataError(f"row {row_no}: duplicate forecast for {key}")
            rows[key] = value
        fragment.update(rows)

    read_prob_records(lines, len(_KEY_HEADER), start, convert)
    return fragment


@_reads_path
def parse_component_csv(stream) -> dict[ForecastKey, np.ndarray]:
    """Parse canonical wide-format forecasts into a panel fragment.

    Each data row becomes one (key, pmf) pair, its pmf a read-only
    renormalized row; row order is irrelevant. Malformed rows fail hard
    with their row number. The file is streamed, and its probabilities are
    converted in chunks of rows.
    """
    lines = iter(stream)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ForecastDataError("empty forecast file: header row missing") from None
    if [h.strip() for h in header] != _COMPONENT_HEADER:
        raise ForecastDataError("unexpected forecast header; expected canonical wide format")

    def pmfs(records) -> np.ndarray:
        row_nos = [r[0] for r in records]
        probs = parse_prob_rows([r[3] for r in records], row_nos)
        try:
            probs = normalize_pmfs(probs)
        except MalformedPmfError as exc:
            raise ForecastDataError(f"row {row_nos[exc.row]}: {exc}") from None
        probs.setflags(write=False)
        return probs

    return _keyed_rows(lines, reader.line_num + 1, len(_COMPONENT_HEADER), pmfs)


_WEEK_AHEAD = re.compile(r"(\d)\s*wk\s*ahead", re.IGNORECASE)


@_reads_path
def convert_flusight_csv(
    stream, model_id: str, issue: Epiweek
) -> dict[ForecastKey, np.ndarray]:
    """Convert a per-bin long-format submission file to a panel fragment.

    Expects the public archive layout: Location, Target, Type, Unit,
    Bin_start_incl, Bin_end_notincl, Value. Only percent-ILI week-ahead
    bin rows are used; week-based targets and point estimates are skipped.
    """
    rows = _named_rows(
        stream, ("Location", "Target", "Type", "Bin_start_incl", "Value"), "long-format"
    )
    bins: dict[tuple[str, int], dict[int, float]] = {}
    for row_no, (location, target_text, kind, start_text, value_text) in rows:
        m = _WEEK_AHEAD.search(target_text)
        if not m or kind.strip().lower() != "bin":
            continue
        try:
            region = canonical_region(location)
            target = _parse_target(m.group(1))
            start = float(start_text)
            value = float(value_text)
        except ValueError as exc:
            raise ForecastDataError(f"row {row_no}: {exc}") from None
        idx = int(round(start * 10.0))
        if abs(start * 10.0 - idx) > 1e-6 or not 0 <= idx <= N_BINS - 1:
            raise ForecastDataError(f"row {row_no}: bin start {start} off the grid")
        cell = bins.setdefault((region, target), {})
        if idx in cell:
            raise ForecastDataError(f"row {row_no}: duplicate bin {start} for {region}")
        cell[idx] = value

    fragment: dict[ForecastKey, np.ndarray] = {}
    for (region, target), cell in sorted(bins.items()):
        if len(cell) != N_BINS:
            raise ForecastDataError(
                f"{region} target {target}: {len(cell)} bins present, expected {N_BINS}"
            )
        try:
            pmf = normalize_pmf(np.array([cell[i] for i in range(N_BINS)]))
        except MalformedPmfError as exc:
            raise ForecastDataError(f"{region} target {target}: {exc}") from None
        pmf.setflags(write=False)
        fragment[ForecastKey(region, target, model_id, issue)] = pmf
    return fragment


_FLUSIGHT_NAME = re.compile(r"EW(\d{2})-(\d{4})", re.IGNORECASE)


def ingest_flusight_tree(root) -> tuple[dict[ForecastKey, np.ndarray], list[str]]:
    """Walk an archive tree of per-model directories of long-format files.

    Each subdirectory names a model; files are matched by the EW<ww>-<yyyy>
    filename convention for their issue week. Returns the merged fragment
    plus the names of files that were skipped.
    """
    root = Path(root)
    fragment: dict[ForecastKey, np.ndarray] = {}
    skipped: list[str] = []
    for model_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for path in sorted(model_dir.glob("*.csv")):
            m = _FLUSIGHT_NAME.search(path.name)
            if not m:
                skipped.append(str(path))
                continue
            issue = Epiweek(int(m.group(2)), int(m.group(1)))
            piece = convert_flusight_csv(path, model_dir.name, issue)
            overlap = fragment.keys() & piece.keys()
            if overlap:
                raise ForecastDataError(f"{path}: duplicate forecast for {sorted(overlap)[0]}")
            fragment.update(piece)
    return fragment, skipped


@_reads_path
def parse_truth_csv(stream) -> TruthTable:
    """Parse observed wILI rows (region, epiweek, wili); duplicates rejected."""
    rows = _named_rows(stream, ("region", "epiweek", "wili"), "truth")
    table = TruthTable()
    for row_no, (region, week, wili) in rows:
        try:
            table.add(canonical_region(region), Epiweek.parse(week), float(wili))
        except ValueError as exc:
            raise ForecastDataError(f"row {row_no}: {exc}") from None
    return table


@dataclass(frozen=True)
class StatePopulationTable:
    """Resident counts and region membership for states."""

    population: dict[str, float]
    region: dict[str, str]

    def states_of(self, region: str) -> list[str]:
        if region == "Nat":
            return sorted(self.population)
        return sorted(s for s, r in self.region.items() if r == region)


@_reads_path
def parse_population_csv(stream) -> StatePopulationTable:
    rows = _named_rows(stream, ("state", "region", "population"), "population")
    population: dict[str, float] = {}
    region: dict[str, str] = {}
    for row_no, (state, region_text, count) in rows:
        state = state.strip()
        if state in population:
            raise ForecastDataError(f"row {row_no}: duplicate state {state}")
        try:
            population[state] = float(count)
            region[state] = canonical_region(region_text)
        except ValueError as exc:
            raise ForecastDataError(f"row {row_no}: {exc}") from None
    return StatePopulationTable(population, region)


@_reads_path
def parse_state_ili_csv(stream) -> dict[tuple[str, Epiweek], float]:
    rows = _named_rows(stream, ("state", "epiweek", "ili"), "state ILI")
    out: dict[tuple[str, Epiweek], float] = {}
    for row_no, (state, week_text, ili) in rows:
        state = state.strip()
        try:
            week = Epiweek.parse(week_text)
            value = float(ili)
        except ValueError as exc:
            raise ForecastDataError(f"row {row_no}: {exc}") from None
        if (state, week) in out:
            raise ForecastDataError(f"row {row_no}: duplicate ILI for {state} {week}")
        out[(state, week)] = value
    return out


def compute_wili(
    state_ili: dict[str, float], pops: StatePopulationTable, region: str
) -> float:
    """Population-weighted percent ILI for a region from state-level values."""
    states = pops.states_of(region)
    if not states:
        raise ForecastDataError(f"no states assigned to region {region}")
    missing = [s for s in states if s not in state_ili]
    if missing:
        raise ForecastDataError(f"region {region} missing state ILI for {missing}")
    total = sum(pops.population[s] for s in states)
    if total <= 0.0:
        raise ForecastDataError(f"region {region} has zero total population")
    return sum(pops.population[s] / total * state_ili[s] for s in states)


def truth_from_state_ili(
    state_ili: dict[tuple[str, Epiweek], float], pops: StatePopulationTable
) -> TruthTable:
    """Build the regional truth table from state-level ILI observations."""
    weeks = sorted({week for _, week in state_ili})
    table = TruthTable()
    for week in weeks:
        per_state = {s: v for (s, w), v in state_ili.items() if w == week}
        for region in REGIONS:
            states = pops.states_of(region)
            if states and all(s in per_state for s in states):
                table.add(region, week, compute_wili(per_state, pops, region))
    return table


class Panel:
    """Aligned collection of component forecasts with explicit missingness."""

    def __init__(self, entries: dict[ForecastKey, np.ndarray], truth: TruthTable):
        self.entries = entries
        self.truth = truth
        self.roster: tuple[str, ...] = tuple(sorted({k.model_id for k in entries}))
        self.regions: tuple[str, ...] = tuple(sorted({k.region for k in entries}))
        self.targets: tuple[int, ...] = tuple(sorted({k.target for k in entries}))

    @classmethod
    def assemble(cls, fragments, truth: TruthTable) -> "Panel":
        entries: dict[ForecastKey, np.ndarray] = {}
        for fragment in fragments:
            overlap = entries.keys() & fragment.keys()
            if overlap:
                raise ForecastDataError(f"duplicate forecast for {sorted(overlap)[0]}")
            entries.update(fragment)
        return cls(entries, truth)

    @cached_property
    def _by_cell(self) -> dict[tuple[str, int, Epiweek], set[str]]:
        """The model ids that submitted in each (region, target, issue) cell;
        built on first use, since only ``missing`` reads it."""
        by_cell: dict[tuple[str, int, Epiweek], set[str]] = {}
        for key in self.entries:
            by_cell.setdefault((key.region, key.target, key.issue), set()).add(key.model_id)
        return by_cell

    def missing(self, region: str, target: int, issue: Epiweek) -> frozenset[str]:
        return frozenset(self.roster) - self._by_cell.get((region, target, issue), set())

    def realized_truth(self, region: str, target: int, issue: Epiweek) -> float | None:
        return self.truth.wili(region, issue.add_weeks(target))

    def seasons(self) -> tuple[int, ...]:
        found = set()
        for key in self.entries:
            season = season_of(key.issue)
            if season is None:
                raise ForecastDataError(f"forecast issued off-season at {key.issue}")
            found.add(season)
        return tuple(sorted(found))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel) or self.entries.keys() != other.entries.keys():
            return False
        return all(np.array_equal(self.entries[k], other.entries[k]) for k in self.entries)


def _season_file(directory: Path, season: int, suffix: str) -> Path:
    """A season's key list (``.csv``), pmf array (``.npy``) or sidecar
    (``.json``)."""
    return directory / f"season-{season}{suffix}"


def _truth_csv(directory: Path) -> Path:
    return directory / "truth.csv"


def panel_dir(out_dir) -> Path:
    """The persisted panel of a run directory."""
    return Path(out_dir) / "panel"


_SEASON_CSV = re.compile(r"season-([1-9][0-9]*)\.csv")


def stored_seasons(directory) -> list[int]:
    """The seasons a persisted panel holds forecasts for, ascending. Any
    ``season-*.csv`` not named ``season-<year>.csv`` raises
    ForecastDataError naming it."""
    seasons = []
    for path in Path(directory).glob("season-*.csv"):
        match = _SEASON_CSV.fullmatch(path.name)
        if match is None:
            raise ForecastDataError(f"{path}: not a season file (expected season-<year>.csv)")
        seasons.append(int(match[1]))
    return sorted(seasons)


def truth_path(directory) -> Path:
    """The truth table of a persisted panel; ForecastDataError if absent."""
    path = _truth_csv(Path(directory))
    if not path.exists():
        raise ForecastDataError(f"no truth table at {path}")
    return path


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as a ``csv.writer`` field with the default minimal quoting."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _key_fields(key: ForecastKey) -> str:
    """A key's four fields, comma-joined as ``csv.writer`` writes them."""
    return f"{_csv_field(key.region)},{key.target},{_csv_field(key.model_id)},{key.issue}"


def write_component_csv(fh, entries: dict[ForecastKey, np.ndarray]) -> None:
    """Write forecasts in the canonical wide format, keys in sorted order,
    byte for byte as ``csv.writer`` writes the rows, probabilities by
    ``format_probs``. Open ``fh`` with ``newline=""``."""
    fh.write(",".join(_COMPONENT_HEADER) + "\r\n")
    for key in sorted(entries):
        fh.write(f"{_key_fields(key)},{format_probs(entries[key])}\r\n")


def write_panel(panel: Panel, directory) -> None:
    """Persist a panel: per season, a key list, its pmfs and a JSON sidecar
    carrying the roster and explicit missingness; then the truth table.

    ``season-<Y>.csv`` lists the season's forecast keys in sorted order
    under the header ``region,target,model_id,issue_epiweek``, one
    ``csv.writer`` row each. ``season-<Y>.npy`` holds their pmfs as one
    float64 array, row i for key i, byte for byte as ``np.save`` writes it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_season: dict[int, dict[ForecastKey, np.ndarray]] = {}
    for key, pmf in panel.entries.items():
        season = season_of(key.issue)
        if season is None:
            raise ForecastDataError(f"forecast issued off-season at {key.issue}")
        by_season.setdefault(season, {})[key] = pmf

    for season, entries in sorted(by_season.items()):
        keys = sorted(entries)
        with open(_season_file(directory, season, ".csv"), "w", newline="") as fh:
            fh.write(",".join(_KEY_HEADER) + "\r\n")
            fh.writelines(f"{_key_fields(key)}\r\n" for key in keys)
        # The rows are gathered a chunk at a time, so the season's pmfs are
        # never copied whole.
        with open(_season_file(directory, season, ".npy"), "wb") as fh:
            header = {"descr": "<f8", "fortran_order": False, "shape": (len(keys), N_BINS)}
            np.lib.format.write_array_header_1_0(fh, header)
            for start in range(0, len(keys), _CHUNK_ROWS):
                rows = [entries[key] for key in keys[start : start + _CHUNK_ROWS]]
                fh.write(np.array(rows, dtype="<f8").tobytes())
        missing: dict[str, list[str]] = {}
        season_region = sorted({k.region for k in entries})
        season_target = sorted({k.target for k in entries})
        for region in season_region:
            for target in season_target:
                for week in season_weeks(season):
                    absent = sorted(panel.missing(region, target, week))
                    if absent:
                        missing[f"{region}|{target}|{week}"] = absent
        sidecar = {
            "season": season,
            "roster": list(panel.roster),
            "regions": season_region,
            "targets": season_target,
            "missing": missing,
        }
        _season_file(directory, season, ".json").write_text(
            json.dumps(sidecar, indent=1, sort_keys=True) + "\n"
        )

    _write_truth_csv(_truth_csv(directory), panel.truth)


def _write_truth_csv(path, truth: TruthTable) -> None:
    """Write a truth table as the ``region,epiweek,wili`` CSV that
    ``parse_truth_csv`` reads, rows in sorted order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "epiweek", "wili"])
        for (region, week), value in truth.items():
            writer.writerow([region, str(week), repr(float(value))])


def _pmf_fault(probs: np.ndarray) -> tuple[int, str] | None:
    """A stored pmf is finite and non-negative and sums to 1 within 1e-6.
    Returns the index of the first row of ``probs`` that is not one and what
    is wrong with it, or None when every row is one."""
    signed = (probs >= 0.0).all(axis=1)  # false for nan; an inf makes the sum inf
    totals = probs.sum(axis=1)
    bad = ~(signed & (np.abs(totals - 1.0) <= 1e-6))
    if not bad.any():
        return None
    i = int(bad.argmax())
    if not np.isfinite(probs[i]).all():
        return i, "has a non-finite entry"
    if not signed[i]:
        return i, "has a negative entry"
    return i, f"sums to {float(totals[i])}"


@_reads_path
def _read_keys(stream) -> list[ForecastKey]:
    """The keys of a season's key list, in file order. A file whose first
    line is not the key list's header raises: a panel written in the older
    one-CSV-per-season format must be deleted and ingested again."""
    lines = iter(stream)
    if next(lines, "").rstrip("\r\n") != ",".join(_KEY_HEADER):
        raise ForecastDataError(
            f"not a key list (expected the header {','.join(_KEY_HEADER)}); "
            "delete a panel/ written by an older cappool and ingest again"
        )
    return list(_keyed_rows(lines, 2, len(_KEY_HEADER), lambda records: repeat(None)))


def _stored_pmfs(path: Path, keys: list[ForecastKey]) -> np.ndarray:
    """A season's stored pmfs, read-only: a float64 ``.npy`` array of one row
    of ``N_BINS`` per key, every row passing ``_pmf_fault``. Anything else
    raises ForecastDataError naming the file, and a bad pmf's key."""
    try:
        with open(path, "rb") as fh:  # a .npy file only; np.load would also open a zip
            probs = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ForecastDataError(f"{path}: unreadable pmf array: {exc}") from None
    shape = (len(keys), N_BINS)
    if probs.dtype != np.float64 or probs.shape != shape:
        raise ForecastDataError(
            f"{path}: expected a float64 array of shape {shape}, got {probs.dtype} {probs.shape}"
        )
    fault = _pmf_fault(probs)
    if fault is not None:
        raise ForecastDataError(f"{path}: stored pmf for {keys[fault[0]]} {fault[1]}")
    probs.setflags(write=False)
    return probs


def load_panel(directory, seasons=None) -> Panel:
    """Load a persisted panel, optionally restricted to given seasons.

    Stored probabilities are read back exactly (no renormalization), so a
    write/load cycle is bit-exact, and each entry is a read-only row view of
    its season's array. A key list that breaks a key rule or whose count
    differs from the one its sidecar implies, a sidecar whose roster is not
    in ascending id order (the order the replay's tables rely on), and a
    pmf array that ``_stored_pmfs`` rejects all raise. Every error names
    the file.
    """
    directory = Path(directory)
    truth = parse_truth_csv(truth_path(directory))
    entries: dict[ForecastKey, np.ndarray] = {}
    rosters: list[tuple[str, ...]] = []
    found = stored_seasons(directory)
    if seasons is not None:
        wanted = {int(s) for s in seasons}
        if not wanted <= set(found):
            raise ForecastDataError(f"panel missing seasons {sorted(wanted - set(found))}")
        found = [s for s in found if s in wanted]
    for season in found:
        path = _season_file(directory, season, ".csv")
        keys = _read_keys(path)
        sidecar_path = _season_file(directory, season, ".json")
        try:
            sidecar = json.loads(sidecar_path.read_text())
            roster, missing = tuple(sidecar["roster"]), sidecar["missing"]
            cells = len(sidecar["regions"]) * len(sidecar["targets"]) * season_length(season)
            expected = cells * len(roster) - sum(len(absent) for absent in missing.values())
            in_id_order = all(a < b for a, b in zip(roster, roster[1:]))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ForecastDataError(f"{sidecar_path}: unreadable sidecar: {exc!r}") from None
        if not in_id_order:
            raise ForecastDataError(f"{sidecar_path}: roster not in ascending id order")
        # A key list cut short at a row boundary still parses; its row count
        # no longer matches the cells and missing forecasts its sidecar lists.
        if len(keys) != expected:
            raise ForecastDataError(
                f"{path}: {len(keys)} forecasts, but {sidecar_path.name} implies {expected}"
            )
        entries.update(zip(keys, _stored_pmfs(_season_file(directory, season, ".npy"), keys)))
        rosters.append(roster)
    if rosters and len(set(rosters)) != 1:
        raise ForecastDataError("inconsistent rosters across season sidecars")
    panel = Panel(entries, truth)
    if rosters and set(panel.roster) - set(rosters[0]):
        raise ForecastDataError("stored forecasts reference models outside the roster")
    if rosters:
        panel.roster = rosters[0]
    return panel
