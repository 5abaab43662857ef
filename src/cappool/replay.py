"""Season replay: walk weeks in order, build every ensemble variant, score
forecasts as their target weeks realize, and persist artifacts incrementally.

At week t a variant sees only forecasts issued at or before t and truths for
weeks at or before t. Week artifacts are written atomically (CSV of pooled
pmfs first, then the JSON bundle that marks the week complete). A resume
walks each variant-season with a week missing from week one, as an
uninterrupted run does, and writes only the missing weeks, so it computes
exactly what an uninterrupted run computes and writes the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path

from .ensembles import (
    DEFAULT_PHI_GRID,
    VARIANTS,
    EnsembleRun,
    HistoryStore,
    SeasonData,
    make_variant,
)
from .epiweek import Epiweek, season_length, season_week
from .panel import (
    Panel,
    ForecastDataError,
    format_probs,
    ingest_flusight_tree,
    load_panel,
    panel_dir,
    parse_component_csv,
    parse_population_csv,
    parse_prob_rows,
    parse_state_ili_csv,
    parse_truth_csv,
    stored_seasons,
    truth_from_state_ili,
    write_panel,
)
from .pmf import N_BINS
from .scoring import ScoreRecord, brier_integral, log_score, pit_value

__all__ = [
    "ConfigError",
    "ConfigMismatchError",
    "CorruptArtifactError",
    "RunConfig",
    "ingest",
    "replay",
    "recorded_config",
    "load_run_artifacts",
]

_log = logging.getLogger("cappool")


class ConfigError(ValueError):
    """The run configuration file is malformed."""


class CorruptArtifactError(ValueError):
    """A persisted week artifact cannot be read back; the message names it."""


class ConfigMismatchError(ValueError):
    """A run directory was made under a different config; the message names
    the first field that differs."""


@dataclass(frozen=True)
class RunConfig:
    """Replay settings parsed from a flat key = value file."""

    forecasts: tuple[str, ...] = ()
    flusight_dir: str | None = None
    truth: str | None = None
    state_ili: str | None = None
    populations: str | None = None
    seasons: tuple[int, ...] = ()
    targets: tuple[int, ...] = (1, 2, 3, 4)
    variants: tuple[str, ...] = VARIANTS
    phi_grid: tuple[float, ...] = DEFAULT_PHI_GRID
    delta: float = 5.0
    seed: int = 0
    brier_mode: str = "standard"

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        values: dict[str, str] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_VALUES:
                raise ConfigError(f"line {line_no}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"line {line_no}: duplicate config key {key!r}")
            values[key] = value.strip()
        try:
            config = cls(**{key: _CONFIG_VALUES[key](value) for key, value in values.items()})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        config.validate()
        return config

    @classmethod
    def load(cls, path) -> "RunConfig":
        """Parse a UTF-8 config file; a ConfigError names the file."""
        try:
            return cls.parse(Path(path).read_text(encoding="utf-8"))
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def text(self) -> str:
        """The config as ``parse`` reads it: one ``key = value`` line per
        field that is not None, in field order, tuples comma-joined and
        floats by ``repr``. A value holding ``#``, ``,`` or a line break
        does not read back equal; ``replay`` refuses such a config."""
        return "".join(f"{name} = {value}\n" for name, value in self._spelled())

    def _spelled(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                items = value if isinstance(value, tuple) else (value,)
                yield f.name, ",".join(
                    repr(float(v)) if isinstance(v, float) else str(v) for v in items
                )

    def validate(self) -> None:
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ConfigError(f"unknown variants {sorted(unknown)}")
        if not self.variants:
            raise ConfigError("at least one ensemble variant is required")
        if len(set(self.variants)) != len(self.variants):
            raise ConfigError(f"duplicate variants in {list(self.variants)}")
        bad = [t for t in self.targets if t not in (1, 2, 3, 4)]
        if bad:
            raise ConfigError(f"targets {bad} outside 1..4")
        if not self.targets:
            raise ConfigError("at least one target is required")
        if len(set(self.targets)) != len(self.targets):
            raise ConfigError(f"duplicate targets in {list(self.targets)}")
        if len(set(self.seasons)) != len(self.seasons):
            raise ConfigError(f"duplicate seasons in {list(self.seasons)}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ConfigError(f"delta must be finite and >= 0, got {self.delta}")
        if not self.phi_grid:
            raise ConfigError("phi_grid must not be empty")
        if len(set(self.phi_grid)) != len(self.phi_grid):
            raise ConfigError(f"duplicate phi_grid values in {list(self.phi_grid)}")
        bad = [p for p in self.phi_grid if not (math.isfinite(p) and p >= 0.0)]
        if bad:
            raise ConfigError(f"phi_grid values {bad} are not finite and >= 0")
        if self.brier_mode not in ("standard", "strict"):
            raise ConfigError(f"unknown brier_mode {self.brier_mode!r}")


def _items(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


# Each config key, a RunConfig field, and how its value text is read.
_CONFIG_VALUES = {
    "forecasts": lambda v: tuple(_items(v)),
    **dict.fromkeys(("flusight_dir", "truth", "state_ili", "populations", "brier_mode"), str),
    "seasons": lambda v: tuple(int(s) for s in _items(v)),
    "targets": lambda v: tuple(sorted(int(t) for t in _items(v))),
    "variants": lambda v: tuple(_items(v)),
    "phi_grid": lambda v: tuple(float(p) for p in _items(v)),
    "delta": float,
    "seed": int,
}


def _config_path(out_dir) -> Path:
    return Path(out_dir) / "run.cfg"


def recorded_config(out_dir) -> RunConfig | None:
    """The config recorded in a run directory's ``run.cfg``, or None when
    there is none. An unparsable file raises CorruptArtifactError naming it."""
    path = _config_path(out_dir)
    if not path.exists():
        return None
    try:
        return RunConfig.load(path)
    except ConfigError as exc:
        raise CorruptArtifactError(str(exc)) from None


def ingest(config: RunConfig, out_dir) -> Path:
    """Build the persisted panel (per-season key lists, pmf arrays and
    sidecars, and the truth table); ``load_panel`` reads back the float64
    bits that ``parse_component_csv`` gives for each source row."""
    out_dir = Path(out_dir)
    fragments = [parse_component_csv(path) for path in config.forecasts]
    if config.flusight_dir:
        fragment, skipped = ingest_flusight_tree(config.flusight_dir)
        if skipped:
            _log.warning(
                "FluSight ingest skipped %d files not named EW<ww>-<yyyy>: %s",
                len(skipped), ", ".join(skipped),
            )
        fragments.append(fragment)
    if not fragments:
        raise ForecastDataError("no forecast sources configured")
    if config.truth:
        truth = parse_truth_csv(config.truth)
    elif config.state_ili and config.populations:
        truth = truth_from_state_ili(
            parse_state_ili_csv(config.state_ili), parse_population_csv(config.populations)
        )
    else:
        raise ForecastDataError("no truth source configured")
    panel = Panel.assemble(fragments, truth)
    write_panel(panel, panel_dir(out_dir))
    return panel_dir(out_dir)


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _week_paths(out_dir: Path, variant: str, season: int, week: Epiweek) -> tuple[Path, Path]:
    base = out_dir / "runs" / variant / str(season)
    return base / f"week-{week}.csv", base / f"week-{week}.json"


# A bundle's keys; ``csv_sha256`` is the hex SHA-256 of the week CSV's bytes.
# A record's week-JSON keys are its field names, less ``variant`` and
# ``season``, which the bundle gives once; a run's ``pmf`` is in the week
# CSV, and ``has_pmf`` says whether it has one. ``_load_week`` passes a
# record's values by position, in field order: json.loads does not intern
# its keys, and binding them by keyword took about 2 us more per run.
_WEEK_KEYS = {"variant", "season", "issue_week", "runs", "scores", "csv_sha256"}
_RUN_KEYS = {f.name for f in fields(EnsembleRun)} - {"variant", "season", "pmf"} | {"has_pmf"}
_SCORE_KEYS = {f.name for f in fields(ScoreRecord)} - {"variant"}
_run_values = itemgetter(*(f.name for f in fields(EnsembleRun)))
_score_values = itemgetter(*(f.name for f in fields(ScoreRecord)))


def _week_json(
    variant: str,
    season: int,
    issue_week: int,
    runs: list[EnsembleRun],
    scores: list[ScoreRecord],
    csv_sha256: str,
) -> str:
    """The week bundle: a JSON object of the ``_WEEK_KEYS``, with each run
    and score as the object of its ``_RUN_KEYS`` or ``_SCORE_KEYS``."""
    bundle = {
        "variant": variant, "season": season, "issue_week": issue_week,
        "runs": [
            {k: v for k, v in vars(run).items() if k in _RUN_KEYS} | {"has_pmf": run.pmf is not None}
            for run in runs
        ],
        "scores": [{k: v for k, v in vars(s).items() if k in _SCORE_KEYS} for s in scores],
        "csv_sha256": csv_sha256,
    }
    return json.dumps(bundle, indent=1, sort_keys=True)


def _write_week(
    out_dir: Path,
    variant: str,
    season: int,
    week: Epiweek,
    runs: list[EnsembleRun],
    scores: list[ScoreRecord],
) -> None:
    csv_path, json_path = _week_paths(out_dir, variant, season, week)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(["region", "target"] + [f"bin_{i}" for i in range(1, N_BINS + 1)])]
    for run in runs:
        if run.pmf is not None:
            lines.append(f"{run.region},{run.target},{format_probs(run.pmf)}")
    # Bytes, not text, so no platform translates the newlines the digest covers.
    data = ("\n".join(lines) + "\n").encode()
    _atomic_write(csv_path, data)
    digest = hashlib.sha256(data).hexdigest()
    bundle = _week_json(variant, season, week.to_int(), runs, scores, digest)
    _atomic_write(json_path, (bundle + "\n").encode())


@dataclass(frozen=True)
class _StoredWeek:
    """A completed week as ``_load_week`` read and checked it, its pmf text
    not yet parsed: each run's fields but its pmf, in bundle order, the pmf
    text of each run marked ``has_pmf``, in the same order, and the scores."""

    csv_path: Path
    items: list[dict]
    tails: list[str]
    scores: list[ScoreRecord]

    def runs(self) -> list[EnsembleRun]:
        """The week's runs, their pmfs parsed in one ``parse_prob_rows`` call
        as read-only rows of one array. A row that does not parse raises
        CorruptArtifactError naming the CSV and the line."""
        try:
            probs = parse_prob_rows(self.tails, range(2, len(self.tails) + 2), "line")
        except ValueError as exc:
            raise CorruptArtifactError(f"corrupt week file {self.csv_path}: {exc}") from None
        probs.setflags(write=False)  # before the row views are taken
        rows = iter(probs)
        runs = []
        for item in self.items:
            item["pmf"] = next(rows) if item["has_pmf"] else None
            runs.append(EnsembleRun(*_run_values(item)))
        return runs


def _load_week(out_dir: Path, variant: str, season: int, week: Epiweek) -> _StoredWeek | None:
    """Read back one completed week, or None if it was never completed.

    Raises CorruptArtifactError naming the file when the week's JSON bundle
    is unparsable, when the week CSV is missing or its bytes are not the
    ones whose SHA-256 the bundle records, or when the two do not match.
    The bundle must be the week its path names: its ``variant``, ``season``
    and ``issue_week``, each run's ``issue_week`` and each score's
    ``target_week`` must be the path's. The CSV must hold one row per run
    marked ``has_pmf``, in run order, whose first two fields are the run's
    region and target. The rows' pmf text is left for ``_StoredWeek.runs``.
    """
    csv_path, json_path = _week_paths(out_dir, variant, season, week)
    if not json_path.exists():
        return None
    try:
        payload = json.loads(json_path.read_text())
        if payload.keys() != _WEEK_KEYS:
            raise KeyError(f"bundle keys {sorted(payload)}")
        week_int = week.to_int()
        named = payload["variant"], payload["season"], payload["issue_week"]
        if named != (variant, season, week_int):
            raise ValueError(f"the bundle of {named} at the path of {(variant, season, week_int)}")
        items, wanted = payload["runs"], []
        for item in items:
            if item.keys() != _RUN_KEYS:
                raise KeyError(f"run keys {sorted(item)}")
            if item["issue_week"] != week_int:
                raise ValueError(f"a run issued in week {item['issue_week']}")
            clusters, leaders = item["clusters"], item["leaders"]
            item["clusters"] = None if clusters is None else tuple(map(tuple, clusters))
            item["leaders"] = None if leaders is None else tuple(leaders)
            item["missing_models"] = tuple(item["missing_models"])
            item["variant"], item["season"] = variant, season
            if item["has_pmf"]:
                wanted.append((item["region"], item["target"]))
        scores = []
        for item in payload["scores"]:
            if item.keys() != _SCORE_KEYS:
                raise KeyError(f"score keys {sorted(item)}")
            if item["target_week"] != week_int:
                raise ValueError(f"a score of target week {item['target_week']}")
            item["variant"] = variant
            scores.append(ScoreRecord(*_score_values(item)))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptArtifactError(f"corrupt week file {json_path}: {exc!r}") from None
    try:
        data = csv_path.read_bytes()
    except FileNotFoundError:
        raise CorruptArtifactError(f"corrupt week file {csv_path}: missing") from None
    if hashlib.sha256(data).hexdigest() != payload["csv_sha256"]:
        raise CorruptArtifactError(
            f"corrupt week file {csv_path}: its SHA-256 is not the bundle's csv_sha256"
        )
    keys, tails = [], []
    try:
        for line in data.decode().splitlines()[1:]:
            region, target, tail = line.split(",", 2)
            keys.append((region, int(target)))
            tails.append(tail)
    except ValueError as exc:
        raise CorruptArtifactError(f"corrupt week file {csv_path}: {exc}") from None
    if keys != wanted:
        raise CorruptArtifactError(
            f"corrupt week file {csv_path}: its rows are not the runs marked has_pmf"
        )
    return _StoredWeek(csv_path, items, tails, scores)


def _score_runs_targeting(
    data: SeasonData, runs_by_week: list[list[EnsembleRun]], t: int, targets, strict: bool
) -> list[ScoreRecord]:
    """Score every run whose target week realizes at week index t.

    ``runs_by_week[j]`` holds week j's runs in ``stratum_keys()`` order, as
    this process computed them, so the records follow that order within
    each target."""
    records = []
    week_int = data.week(t).to_int()
    for target in sorted(targets):
        j = t - target
        if j < 1:
            continue
        for run in runs_by_week[j]:
            if run.target != target or run.pmf is None:
                continue
            truth = data.strata[run.region, target].truth_target[j]
            if truth is None:
                continue
            records.append(
                ScoreRecord(
                    variant=run.variant,
                    region=run.region,
                    target=target,
                    issue_week=run.issue_week,
                    target_week=week_int,
                    log_score=log_score(run.pmf, truth),
                    pit=pit_value(run.pmf, truth),
                    brier_integral=brier_integral(run.pmf, truth, strict_orientation=strict),
                )
            )
    return records


def replay(config: RunConfig, out_dir) -> None:
    """Replay all configured seasons for all configured variants."""
    # Refused before the run directory is touched, so it is not recorded there.
    if not config.seasons:
        raise ConfigError("no seasons configured")
    text = _recordable(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    recorded = recorded_config(out_dir)
    if recorded is not None:
        _check_recorded_config(recorded, config, _config_path(out_dir))
    else:
        _atomic_write(_config_path(out_dir), text.encode())
    stored = panel_dir(out_dir)
    if not stored.exists():
        ingest(config, out_dir)
    available = stored_seasons(stored)
    missing = set(config.seasons) - set(available)
    if missing:
        raise ForecastDataError(f"panel has no data for seasons {sorted(missing)}")

    # A season's panel is loaded only when one of its weeks must be computed.
    # HistoryStore must hold every earlier stored season before a season's
    # SeasonData is built, so seasons whose week files were all reused wait
    # in ``pending`` until a later season needs its data; seasons after the
    # last one that does are never loaded.
    history = HistoryStore()
    pending: list[int] = []

    def load(season: int) -> SeasonData:
        return SeasonData(load_panel(stored, seasons=[season]), season, config.targets, history)

    def season_data(season: int) -> SeasonData:
        while pending:
            history.absorb(load(pending.pop(0)))
        return load(season)

    last = max(config.seasons)
    for season in available:
        if season > last:
            break
        data = None
        if season in config.seasons:
            data = _replay_season_runs(season, season_data, config, out_dir)
        if data is None:
            pending.append(season)
        else:
            history.absorb(data)
            # Only one season's forecast arrays are alive at a time.
            del data


def _recordable(config: RunConfig) -> str:
    """``config.text()``, once it parses back equal to ``config``; else
    ConfigError naming the first field whose line does not."""
    text = config.text()
    try:
        if RunConfig.parse(text) == config:
            return text
    except ConfigError:
        pass
    for name, value in config._spelled():
        try:
            back = getattr(RunConfig.parse(f"{name} = {value}\n"), name)
        except ConfigError as exc:
            raise ConfigError(f"{name} cannot be recorded in run.cfg: {exc}") from None
        if back != getattr(config, name):
            raise ConfigError(
                f"{name} = {getattr(config, name)!r} reads back from run.cfg as {back!r}"
            )
    raise ConfigError("this config does not read back from run.cfg")


def _check_recorded_config(recorded: RunConfig, config: RunConfig, cfg_path: Path) -> None:
    """Refuse to add to a run directory whose ``run.cfg`` records another
    config. ``seed`` is not compared: replay never reads it."""
    for f in fields(RunConfig):
        if f.name == "seed":
            continue
        old, new = getattr(recorded, f.name), getattr(config, f.name)
        if old != new:
            raise ConfigMismatchError(
                f"{cfg_path} records {f.name} = {old!r} but this config has {new!r}; "
                "replay into a fresh run directory"
            )


def _replay_season_runs(
    season: int, season_data: Callable[[int], SeasonData], config: RunConfig, out_dir: Path
) -> SeasonData | None:
    """Walk one season for each configured variant. Variants keep no state
    from one season to the next, so each season makes its own.

    Every week file of a variant is checked with ``_load_week`` first; one
    that does not read back is warned about and counts as missing. A variant
    with no week missing is skipped. Any other is walked from week one, as
    an uninterrupted run walks it, up to its last missing week, and only the
    missing weeks are written: a stored week never feeds the computation, so
    a replay parses no stored pmf text. ``season_data(season)`` is called for
    the first variant walked; its SeasonData is returned, or None when every
    week file was reused."""
    strict = config.brier_mode == "strict"
    n_weeks = season_length(season)
    weeks = [season_week(season, t) for t in range(1, n_weeks + max(config.targets) + 1)]
    data = None
    for name in config.variants:
        missing = set()
        for t, week in enumerate(weeks, start=1):
            try:
                if _load_week(out_dir, name, season, week) is None:
                    missing.add(t)
            except CorruptArtifactError as exc:
                _log.warning("%s; recomputing that week", exc)
                missing.add(t)
        if not missing:
            continue
        if data is None:
            _log.info(
                "season %d: %s week %s is not stored; loading the panel",
                season, name, weeks[min(missing) - 1],
            )
            data = season_data(season)
        variant = make_variant(name, phi_grid=config.phi_grid, delta=config.delta)
        runs_by_week: list[list[EnsembleRun]] = [[]]
        for t in range(1, max(missing) + 1):
            runs_by_week.append(variant.week_runs(data, t) if t <= n_weeks else [])
            if t in missing:
                scores = _score_runs_targeting(data, runs_by_week, t, config.targets, strict)
                _write_week(out_dir, name, season, weeks[t - 1], runs_by_week[t], scores)
    if data is None:
        _log.info(
            "season %d: all %d week files reused, panel not loaded",
            season, len(config.variants) * len(weeks),
        )
    return data


_SEASON_DIR = re.compile(r"[1-9][0-9]*")
_WEEK_JSON = re.compile(r"week-([0-9]{6})\.json")


def _stored_week(path: Path) -> Epiweek:
    """The epiweek a ``week-<YYYYWW>.json`` file is named for; any other
    name raises CorruptArtifactError naming the file."""
    match = _WEEK_JSON.fullmatch(path.name)
    if match is not None:
        try:
            return Epiweek.from_int(int(match[1]))
        except ValueError:
            pass
    raise CorruptArtifactError(f"{path}: not a week file (expected week-<YYYYWW>.json)")


def load_run_artifacts(out_dir) -> tuple[list[EnsembleRun], list[ScoreRecord]]:
    """Read every persisted run and score record under a run directory.

    Every directory under ``runs/<variant>/`` must be named by its season's
    year, and every ``week-*.json`` in it must be ``week-<YYYYWW>.json``; a
    stray name, or a week file that cannot be read back, raises
    CorruptArtifactError naming the path.
    """
    out_dir = Path(out_dir)
    runs_root = out_dir / "runs"
    if not runs_root.exists():
        raise FileNotFoundError(f"no runs directory under {out_dir}")
    all_runs: list[EnsembleRun] = []
    all_scores: list[ScoreRecord] = []
    for variant_dir in sorted(runs_root.iterdir()):
        if not variant_dir.is_dir():
            continue
        for season_dir in sorted(variant_dir.iterdir()):
            if not season_dir.is_dir():
                continue
            if _SEASON_DIR.fullmatch(season_dir.name) is None:
                raise CorruptArtifactError(
                    f"{season_dir}: not a season directory (expected runs/<variant>/<year>)"
                )
            season = int(season_dir.name)
            for json_path in sorted(season_dir.glob("week-*.json")):
                week = _stored_week(json_path)
                loaded = _load_week(out_dir, variant_dir.name, season, week)
                if loaded is None:
                    continue
                all_runs.extend(loaded.runs())
                all_scores.extend(loaded.scores)
    return all_runs, all_scores
