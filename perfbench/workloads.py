"""Benchmark workloads: seeded synthetic archives plus the replay config.

Each workload fixes the archive's shape (models, clones, regions, targets,
seasons, 5 % missingness) and the replay settings (variants, phi grid,
delta). The seed drives the archive generator (epidemic curves, forecast
jitter, missingness), so one (workload, seed) pair always yields the same
bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from cappool.epiweek import season_length
from cappool.synthetic import ModelSpec, write_synthetic_archive

ALL_VARIANTS = ("equal", "static", "adaptive", "cap-equal", "cap-adaptive")
MISSING_RATE = 0.05
DELTA = 5.0
# reference.json holds the mean log scores of input seeds 0..REFERENCE_SEEDS-1.
REFERENCE_SEEDS = 32


def input_seed(seed: int) -> int:
    """The archive seed that a benchmark ``--seed`` selects: one with a
    stored reference, so the reference check applies to every seed."""
    return seed % REFERENCE_SEEDS


@dataclass(frozen=True)
class Workload:
    name: str
    distinct: int
    clones: int
    regions: tuple[str, ...]
    targets: tuple[int, ...]
    seasons: tuple[int, ...]
    variants: tuple[str, ...]
    phi_grid: tuple[float, ...] | None = None  # None: the replay default grid

    @property
    def strata(self) -> int:
        return len(self.regions) * len(self.targets)

    @property
    def weeks(self) -> int:
        return sum(season_length(s) for s in self.seasons)

    @property
    def expected_runs(self) -> int:
        """Ensemble runs one cold replay writes: (variant, stratum, in-season week)."""
        return len(self.variants) * self.strata * self.weeks


def _grid(stop: float, step: float) -> tuple[float, ...]:
    return tuple(round(step * k, 2) for k in range(int(round(stop / step)) + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-mixed",
            distinct=8,
            clones=1,
            regions=("Nat",),
            targets=(1, 2),
            seasons=(2010, 2011),
            variants=ALL_VARIANTS,
            phi_grid=_grid(0.9, 0.1),
        ),
        Workload(
            "wide-cap",
            distinct=16,
            clones=4,
            regions=("Nat", "HHS1"),
            targets=(1,),
            seasons=(2010,),
            variants=("cap-adaptive",),
        ),
        Workload(
            "long-io",
            distinct=10,
            clones=2,
            regions=("Nat", "HHS1"),
            targets=(1, 2, 3, 4),
            seasons=(2010, 2011),
            # Not static: its one EM fit per stratum and season ran 1 500 to
            # 13 000 iterations across seeds (one hit EM_MAX_ITER), which made
            # replay_s here an EM measurement. small-mixed keeps static.
            variants=("equal",),
        ),
        # Test-sized; not part of BENCHMARK.json.
        Workload(
            "smoke",
            distinct=2,
            clones=1,
            regions=("Nat",),
            targets=(1,),
            seasons=(2010, 2011),
            variants=ALL_VARIANTS,
            phi_grid=(0.0, 0.5),
        ),
    )
}


def model_specs(workload: Workload) -> list[ModelSpec]:
    """The workload's component models: a fixed ladder of bias, spread and
    jitter, so the seed varies the archive but not the roster. Each clone
    copies one of the first distinct models."""
    n = workload.distinct
    specs = [
        ModelSpec(
            f"m{i + 1:02d}",
            bias=round(-0.4 + 0.8 * ((3 * i) % n) / max(n - 1, 1), 3),
            sd=round(0.5 + 0.6 * i / max(n - 1, 1), 3),
            jitter=round(0.1 + 0.15 * ((7 * i) % n) / max(n - 1, 1), 3),
        )
        for i in range(n)
    ]
    specs += [
        ModelSpec(f"m{n + k:02d}", clone_of=f"m{k:02d}")
        for k in range(1, workload.clones + 1)
    ]
    return specs


def generator_params(workload: Workload, seed: int) -> dict:
    return {
        "seed": seed,
        "models": [vars(m) for m in model_specs(workload)],
        "regions": list(workload.regions),
        "targets": list(workload.targets),
        "seasons": list(workload.seasons),
        "missing_rate": MISSING_RATE,
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def ensure_archive(workload: Workload, seed: int, root) -> dict:
    """Generate the (workload, seed) archive under ``root`` once and return
    its record. A later call reuses it after checking the stored hashes."""
    directory = Path(root) / f"{workload.name}-{seed}"
    params = json.loads(json.dumps(generator_params(workload, seed)))
    meta_path = directory / "archive.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        files = meta["files"]
        if meta["generator"] == params and all(
            _sha256(directory / name) == files[name]["sha256"] for name in files
        ):
            return meta
    shutil.rmtree(directory, ignore_errors=True)
    tmp = directory.with_name(directory.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    write_synthetic_archive(
        tmp,
        models=model_specs(workload),
        seasons=workload.seasons,
        regions=workload.regions,
        targets=workload.targets,
        seed=seed,
        missing_rate=MISSING_RATE,
    )
    files = {
        name: {"sha256": _sha256(tmp / name), "bytes": (tmp / name).stat().st_size}
        for name in ("forecasts.csv", "truth.csv")
    }
    meta = {
        "workload": workload.name,
        "generator": params,
        "files": files,
        "forecast_rows": _count_rows(tmp / "forecasts.csv"),
        "truth_rows": _count_rows(tmp / "truth.csv"),
        "archive_bytes": sum(f["bytes"] for f in files.values()),
        "strata": workload.strata,
        "weeks": workload.weeks,
        "expected_runs": workload.expected_runs,
    }
    (tmp / "archive.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, directory)
    return meta


def config_text(workload: Workload, archive_dir, seed: int) -> str:
    """The replay config for this workload, in the run.cfg key = value form."""
    archive_dir = Path(archive_dir)
    lines = [
        f"forecasts = {archive_dir / 'forecasts.csv'}",
        f"truth = {archive_dir / 'truth.csv'}",
        f"seasons = {','.join(str(s) for s in workload.seasons)}",
        f"targets = {','.join(str(t) for t in workload.targets)}",
        f"variants = {','.join(workload.variants)}",
        f"delta = {DELTA}",
        f"seed = {seed}",
    ]
    if workload.phi_grid is not None:
        lines.append(f"phi_grid = {','.join(repr(p) for p in workload.phi_grid)}")
    return "\n".join(lines) + "\n"
