"""Season replay: walk weeks in order, build every ensemble variant, score
forecasts as their target weeks realize, and persist artifacts incrementally.

At week t a variant sees only forecasts issued at or before t and truths for
weeks at or before t. Week artifacts are written atomically (CSV of pooled
pmfs first, then the JSON bundle that marks the week complete), so an
interrupted run resumes at the first incomplete week and reproduces exactly
what an uninterrupted run would have written.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .ensembles import (
    DEFAULT_PHI_GRID,
    VARIANTS,
    EnsembleRun,
    HistoryStore,
    SeasonData,
    make_variant,
    stratum_sort_key,
)
from .epiweek import Epiweek
from .panel import (
    Panel,
    ForecastDataError,
    format_probs,
    ingest_flusight_tree,
    load_panel,
    parse_component_csv,
    parse_population_csv,
    parse_prob_rows,
    parse_state_ili_csv,
    parse_truth_csv,
    read_prob_records,
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


_CONFIG_KEYS = {
    "forecasts",
    "flusight_dir",
    "truth",
    "state_ili",
    "populations",
    "seasons",
    "targets",
    "variants",
    "phi_grid",
    "delta",
    "seed",
    "brier_mode",
}


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
    source_text: str = field(default="", compare=False)

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
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"line {line_no}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"line {line_no}: duplicate config key {key!r}")
            values[key] = value.strip()

        def split(key: str) -> list[str]:
            return [v.strip() for v in values[key].split(",") if v.strip()]

        kwargs: dict = {"source_text": text}
        try:
            if "forecasts" in values:
                kwargs["forecasts"] = tuple(split("forecasts"))
            for key in ("flusight_dir", "truth", "state_ili", "populations"):
                if key in values:
                    kwargs[key] = values[key]
            if "seasons" in values:
                kwargs["seasons"] = tuple(int(v) for v in split("seasons"))
            if "targets" in values:
                kwargs["targets"] = tuple(sorted(int(v) for v in split("targets")))
            if "variants" in values:
                kwargs["variants"] = tuple(split("variants"))
            if "phi_grid" in values:
                kwargs["phi_grid"] = tuple(float(v) for v in split("phi_grid"))
            if "delta" in values:
                kwargs["delta"] = float(values["delta"])
            if "seed" in values:
                kwargs["seed"] = int(values["seed"])
            if "brier_mode" in values:
                kwargs["brier_mode"] = values["brier_mode"]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        config = cls(**kwargs)
        config.validate()
        return config

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.parse(Path(path).read_text())

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
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ConfigError(f"delta must be finite and >= 0, got {self.delta}")
        if not self.phi_grid:
            raise ConfigError("phi_grid must not be empty")
        bad = [p for p in self.phi_grid if not (math.isfinite(p) and p >= 0.0)]
        if bad:
            raise ConfigError(f"phi_grid values {bad} are not finite and >= 0")
        if self.brier_mode not in ("standard", "strict"):
            raise ConfigError(f"unknown brier_mode {self.brier_mode!r}")


def _panel_dir(out_dir: Path) -> Path:
    return out_dir / "panel"


def ingest(config: RunConfig, out_dir) -> Path:
    """Build the persisted panel (per-season forecasts, sidecars, truth)."""
    out_dir = Path(out_dir)
    fragments = []
    for path in config.forecasts:
        fragments.append(parse_component_csv(path))
    if config.flusight_dir:
        fragment, _skipped = ingest_flusight_tree(config.flusight_dir)
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
    write_panel(panel, _panel_dir(out_dir))
    return _panel_dir(out_dir)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _week_paths(out_dir: Path, variant: str, season: int, week: Epiweek) -> tuple[Path, Path]:
    base = out_dir / "runs" / variant / str(season)
    return base / f"week-{week}.csv", base / f"week-{week}.json"


def _run_to_json(run: EnsembleRun) -> dict:
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


def _run_from_json(variant: str, season: int, item: dict, pmf) -> EnsembleRun:
    return EnsembleRun(
        variant=variant,
        season=season,
        region=item["region"],
        target=item["target"],
        issue_week=item["issue_week"],
        week_index=item["week_index"],
        pmf=pmf,
        weights=item["weights"],
        entropy=item["entropy"],
        phi=item["phi"],
        clusters=tuple(tuple(c) for c in item["clusters"]) if item["clusters"] is not None else None,
        leaders=tuple(item["leaders"]) if item["leaders"] is not None else None,
        n_clusters=item["n_clusters"],
        missing_models=tuple(item["missing_models"]),
        note=item["note"],
    )


def _score_to_json(record: ScoreRecord) -> dict:
    return {
        "region": record.region,
        "target": record.target,
        "issue_week": record.issue_week,
        "target_week": record.target_week,
        "log_score": record.log_score,
        "pit": record.pit,
        "brier_integral": record.brier_integral,
    }


# Week JSON bundles are emitted for their fixed schema directly, byte for
# byte as json.dumps(payload, indent=1, sort_keys=True) writes them: with an
# indent, json.dumps falls back to its pure-Python encoder. Strings go through
# json's C ``encode_basestring_ascii``, as json.dumps would send them.


def _json_scalar(value) -> str:
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_list(items, depth: int) -> str:
    """A list of scalars, or None, whose items are indented by ``depth``."""
    if items is None:
        return "null"
    if not items:
        return "[]"
    pad = "\n" + " " * depth
    return "[" + pad + ("," + pad).join(map(_json_scalar, items)) + "\n" + " " * (depth - 1) + "]"


def _run_json_text(item: dict) -> str:
    clusters = item["clusters"]
    if clusters:
        clusters = "[\n    " + ",\n    ".join(_json_list(c, 5) for c in clusters) + "\n   ]"
    else:
        clusters = _json_list(clusters, 4)
    weights = item["weights"]
    if weights:
        weights = "{\n    " + ",\n    ".join(
            f"{encode_basestring_ascii(k)}: {_json_scalar(v)}" for k, v in sorted(weights.items())
        ) + "\n   }"
    else:
        weights = "{}"
    return (
        "{\n"
        f'   "clusters": {clusters},\n'
        f'   "entropy": {_json_scalar(item["entropy"])},\n'
        f'   "has_pmf": {_json_scalar(item["has_pmf"])},\n'
        f'   "issue_week": {_json_scalar(item["issue_week"])},\n'
        f'   "leaders": {_json_list(item["leaders"], 4)},\n'
        f'   "missing_models": {_json_list(item["missing_models"], 4)},\n'
        f'   "n_clusters": {_json_scalar(item["n_clusters"])},\n'
        f'   "note": {_json_scalar(item["note"])},\n'
        f'   "phi": {_json_scalar(item["phi"])},\n'
        f'   "region": {_json_scalar(item["region"])},\n'
        f'   "target": {_json_scalar(item["target"])},\n'
        f'   "week_index": {_json_scalar(item["week_index"])},\n'
        f'   "weights": {weights}\n'
        "  }"
    )


def _score_json_text(item: dict) -> str:
    return (
        "{\n"
        f'   "brier_integral": {_json_scalar(item["brier_integral"])},\n'
        f'   "issue_week": {_json_scalar(item["issue_week"])},\n'
        f'   "log_score": {_json_scalar(item["log_score"])},\n'
        f'   "pit": {_json_scalar(item["pit"])},\n'
        f'   "region": {_json_scalar(item["region"])},\n'
        f'   "target": {_json_scalar(item["target"])},\n'
        f'   "target_week": {_json_scalar(item["target_week"])}\n'
        "  }"
    )


def _json_items(texts: list[str]) -> str:
    return "[\n  " + ",\n  ".join(texts) + "\n ]" if texts else "[]"


def _week_json(payload: dict) -> str:
    """The week bundle as ``json.dumps(payload, indent=1, sort_keys=True)``."""
    return (
        "{\n"
        f' "issue_week": {_json_scalar(payload["issue_week"])},\n'
        f' "runs": {_json_items([_run_json_text(r) for r in payload["runs"]])},\n'
        f' "scores": {_json_items([_score_json_text(s) for s in payload["scores"]])},\n'
        f' "season": {_json_scalar(payload["season"])},\n'
        f' "variant": {_json_scalar(payload["variant"])}\n'
        "}"
    )


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
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    payload = {
        "variant": variant,
        "season": season,
        "issue_week": week.to_int(),
        "runs": [_run_to_json(r) for r in runs],
        "scores": [_score_to_json(s) for s in scores],
    }
    _atomic_write(json_path, _week_json(payload) + "\n")


def _load_week(
    out_dir: Path, variant: str, season: int, week: Epiweek
) -> tuple[list[EnsembleRun], list[ScoreRecord]] | None:
    """Read back one completed week, or None if it was never completed.

    Raises CorruptArtifactError naming the file when the week's JSON bundle
    or pmf CSV is unparsable, truncated, or does not match the other.
    """
    csv_path, json_path = _week_paths(out_dir, variant, season, week)
    if not json_path.exists():
        return None
    pmfs: dict[tuple[str, int], np.ndarray] = {}
    if csv_path.exists():
        text = csv_path.read_text()
        # Every write ends in a newline, so a file without one was cut short,
        # possibly inside a number that still parses.
        if not text.endswith("\n"):
            raise CorruptArtifactError(f"corrupt week file {csv_path}: truncated")

        def convert(records) -> None:
            records = [r for r in records if r[0] != 1]  # the header
            for line_no, n_fields, _, _ in records:
                if n_fields != N_BINS + 2:
                    raise CorruptArtifactError(
                        f"corrupt week file {csv_path}, line {line_no}: {n_fields} fields"
                    )
            try:
                probs = parse_prob_rows([r[3] for r in records], [r[0] for r in records], "line")
            except ValueError as exc:
                raise CorruptArtifactError(f"corrupt week file {csv_path}, {exc}") from None
            keys = []
            for line_no, _, head, _ in records:
                try:
                    keys.append((head[0], int(head[1])))
                except ValueError as exc:
                    raise CorruptArtifactError(
                        f"corrupt week file {csv_path}, line {line_no}: {exc}"
                    ) from None
            probs.setflags(write=False)
            pmfs.update(zip(keys, probs))

        read_prob_records(text.splitlines(), 2, 1, convert)
    try:
        payload = json.loads(json_path.read_text())
        runs = [
            _run_from_json(variant, season, item, pmfs.get((item["region"], item["target"])))
            for item in payload["runs"]
        ]
        missing = [
            (item["region"], item["target"])
            for item in payload["runs"]
            if item["has_pmf"] and (item["region"], item["target"]) not in pmfs
        ]
        scores = [
            ScoreRecord(
                variant=variant,
                region=item["region"],
                target=item["target"],
                issue_week=item["issue_week"],
                target_week=item["target_week"],
                log_score=item["log_score"],
                pit=item["pit"],
                brier_integral=item["brier_integral"],
            )
            for item in payload["scores"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptArtifactError(f"corrupt week file {json_path}: {exc!r}") from None
    if missing:
        raise CorruptArtifactError(f"corrupt week file {csv_path}: no pmf row for {missing[0]}")
    return runs, scores


def _score_runs_targeting(
    data: SeasonData,
    season_runs: dict[int, dict[tuple[str, int], EnsembleRun]],
    t: int,
    targets,
    strict: bool,
) -> list[ScoreRecord]:
    """Score every stored run whose target week realizes at week index t."""
    records = []
    week_int = (
        data.weeks[t - 1].to_int() if t <= data.n_weeks
        else data.weeks[-1].add_weeks(t - data.n_weeks).to_int()
    )
    for target in sorted(targets):
        j = t - target
        if j < 1 or j not in season_runs:
            continue
        for stratum in sorted(season_runs[j], key=stratum_sort_key):
            region, run_target = stratum
            if run_target != target:
                continue
            run = season_runs[j][stratum]
            if run.pmf is None:
                continue
            truth = data.strata[stratum].truth_target[j]
            if truth is None:
                continue
            records.append(
                ScoreRecord(
                    variant=run.variant,
                    region=region,
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "run.cfg"
    if cfg_path.exists():
        _check_recorded_config(cfg_path, config)
    elif config.source_text:
        _atomic_write(cfg_path, config.source_text)
    panel_dir = _panel_dir(out_dir)
    if not panel_dir.exists():
        ingest(config, out_dir)
    available = sorted(int(p.stem.split("-")[1]) for p in panel_dir.glob("season-*.csv"))
    if not config.seasons:
        raise ConfigError("no seasons configured")
    missing = set(config.seasons) - set(available)
    if missing:
        raise ForecastDataError(f"panel has no data for seasons {sorted(missing)}")

    history = HistoryStore()
    variants = [
        make_variant(name, phi_grid=config.phi_grid, delta=config.delta)
        for name in config.variants
    ]
    last = max(config.seasons)
    for season in available:
        if season > last:
            break
        panel = load_panel(panel_dir, seasons=[season])
        data = SeasonData(panel, season, config.targets, history)
        if season in config.seasons:
            _replay_season_runs(data, variants, config, out_dir)
        history.absorb(data)


def _check_recorded_config(cfg_path: Path, config: RunConfig) -> None:
    """Refuse to add to a run directory whose ``run.cfg`` records another
    config. ``seed`` is not compared: replay never reads it, and
    ``replay --seed`` overrides it without rewriting ``run.cfg``."""
    try:
        recorded = RunConfig.load(cfg_path)
    except ConfigError as exc:
        raise CorruptArtifactError(f"{cfg_path}: {exc}") from None
    for f in fields(RunConfig):
        if f.name in ("seed", "source_text"):
            continue
        old, new = getattr(recorded, f.name), getattr(config, f.name)
        if old != new:
            raise ConfigMismatchError(
                f"{cfg_path} records {f.name} = {old!r} but this config has {new!r}; "
                "replay into a fresh run directory"
            )


def _replay_season_runs(
    data: SeasonData, variants, config: RunConfig, out_dir: Path
) -> None:
    strict = config.brier_mode == "strict"
    horizon = max(config.targets)
    for variant in variants:
        season_runs: dict[int, dict[tuple[str, int], EnsembleRun]] = {}
        for t in range(1, data.n_weeks + horizon + 1):
            in_season = t <= data.n_weeks
            week = (
                data.weeks[t - 1]
                if in_season
                else data.weeks[-1].add_weeks(t - data.n_weeks)
            )
            try:
                cached = _load_week(out_dir, variant.name, data.season, week)
            except CorruptArtifactError as exc:
                _log.warning("%s; recomputing that week", exc)
                cached = None
            if cached is not None:
                runs = cached[0]
            elif in_season:
                runs = variant.week_runs(data, t)
            else:
                runs = []
            season_runs[t] = {(r.region, r.target): r for r in runs}
            if cached is None:
                scores = _score_runs_targeting(
                    data, season_runs, t, config.targets, strict
                )
                _write_week(out_dir, variant.name, data.season, week, runs, scores)


def load_run_artifacts(out_dir) -> tuple[list[EnsembleRun], list[ScoreRecord]]:
    """Read every persisted run and score record under a run directory.

    A week file that cannot be read back raises CorruptArtifactError.
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
            season = int(season_dir.name)
            for json_path in sorted(season_dir.glob("week-*.json")):
                week = Epiweek.from_int(int(json_path.stem.split("-")[1]))
                loaded = _load_week(out_dir, variant_dir.name, season, week)
                if loaded is None:
                    continue
                all_runs.extend(loaded[0])
                all_scores.extend(loaded[1])
    return all_runs, all_scores
