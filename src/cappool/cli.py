"""Command-line surface: ingest, replay, report, diagnose, phi-trace.

Exit codes: 0 success, 1 runtime error, 2 usage error. All outputs land
under the run directory given by --out.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .diagnostics import (
    likelihood_surface,
    restart_dispersion,
    variance_vs_kl_curve,
)
from .ensembles import SeasonData
from .panel import ForecastDataError, load_panel, panel_dir, parse_truth_csv, truth_path
from .pmf import N_BINS, gaussian_pmf
from .replay import ConfigError, RunConfig, ingest, load_run_artifacts, replay
from .report import trajectory_table, write_report, write_table

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cappool",
        description="Cluster-aggregate-pool ensembles for binned ILI forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build the forecast panel from raw files")
    p_ingest.add_argument("--config", required=True)
    p_ingest.add_argument("--out", required=True)

    p_replay = sub.add_parser("replay", help="replay configured seasons week by week")
    p_replay.add_argument("--config", required=True)
    p_replay.add_argument("--out", required=True)

    p_report = sub.add_parser("report", help="emit report tables for a finished run")
    p_report.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="redundancy and identifiability diagnostics")
    diag_sub = p_diag.add_subparsers(dest="diagnostic", required=True)

    p_restarts = diag_sub.add_parser("restarts", help="random-restart weight dispersion")
    p_restarts.add_argument("--n", type=int, default=100)
    p_restarts.add_argument("--seed", type=int, default=0)
    p_restarts.add_argument("--out", required=True)
    p_restarts.add_argument("--region", default=None)
    p_restarts.add_argument("--target", type=int, default=None)
    p_restarts.add_argument("--season", type=int, default=None)

    p_curve = diag_sub.add_parser("variance-kl", help="pool variance vs divergence curve")
    p_curve.add_argument("--out", required=True)
    p_curve.add_argument("--sigma", type=float, default=1.0)
    p_curve.add_argument("--start", type=float, default=0.75)
    p_curve.add_argument("--stop", type=float, default=1.5)
    p_curve.add_argument("--step", type=float, default=0.05)

    p_traj = diag_sub.add_parser("trajectory", help="cluster count and entropy by weeks from peak")
    p_traj.add_argument("--out", required=True)

    p_surface = diag_sub.add_parser("surface", help="likelihood surface for a 3-model demo")
    p_surface.add_argument("--out", required=True)
    p_surface.add_argument("--seed", type=int, default=0)
    p_surface.add_argument("--resolution", type=int, default=50)

    p_phi = sub.add_parser("phi-trace", help="dump weekly threshold picks and cluster metadata")
    p_phi.add_argument("--out", required=True)
    p_phi.add_argument("--variant", default=None)

    return parser


def _diag_path(out: str, name: str) -> Path:
    return Path(out) / "diagnostics" / name


def _demo_redundant_fit(seed: int):
    """Three-model demo: two identical components and one distinct one."""
    rng = np.random.default_rng(seed)
    pmf_a = gaussian_pmf(1.0, 0.5)
    pmf_c = gaussian_pmf(3.0, 0.7)
    n_obs = 40
    F = np.empty((n_obs, 3, N_BINS))
    y = []
    for j in range(n_obs):
        if rng.random() < 0.5:
            y.append(float(np.clip(rng.normal(1.0, 0.5), 0.0, 12.9)))
        else:
            y.append(float(np.clip(rng.normal(3.0, 0.7), 0.0, 12.9)))
        F[j, 0] = pmf_a
        F[j, 1] = pmf_a
        F[j, 2] = pmf_c
    return F, np.array(y)


def _panel_fit_inputs(out: str, region: str, target: int, season: int):
    data = SeasonData(load_panel(panel_dir(out), seasons=[season]), season, (target,))
    if (region, target) not in data.strata:
        raise ForecastDataError(f"no forecasts for {region} target {target} in {season}")
    sd = data.strata[(region, target)]
    weeks = sd.realized[sd.sub[sd.realized].any(axis=1)]
    if not weeks.size:
        raise ForecastDataError(f"no scored forecasts for {region} target {target} in {season}")
    F = np.where(sd.sub[weeks, :, None], sd.pmf[weeks], np.nan)
    return F, np.array([sd.truth_target[i] for i in weeks.tolist()]), list(data.roster)


def _cmd_restarts(args) -> int:
    if args.region is not None:
        if args.target is None or args.season is None:
            raise ConfigError("--region requires --target and --season")
        F, y, names = _panel_fit_inputs(args.out, args.region, args.target, args.season)
    else:
        F, y = _demo_redundant_fit(args.seed)
        names = ["dup_a", "dup_b", "distinct"]
    report = restart_dispersion(F, y, n_restarts=args.n, seed=args.seed)
    columns = [f"{kind}_{m}" for kind in ("init", "weight") for m in names]
    draws = [["restart", *columns, "log_likelihood"]]
    for idx, draw in enumerate(report.draws):
        draws.append(
            [idx]
            + [repr(float(v)) for v in draw.init_weights]
            + [repr(float(v)) for v in draw.weights]
            + [repr(draw.log_likelihood)]
        )
    summary = [["model", "weight_std"]]
    summary += [[m, repr(float(v))] for m, v in zip(names, report.weight_std)]
    summary.append(["likelihood_spread", repr(report.likelihood_spread)])
    summary.append(["degenerate", str(report.degenerate).lower()])
    path = write_table(_diag_path(args.out, "restarts.csv"), draws)
    write_table(_diag_path(args.out, "restarts_summary.csv"), summary)
    print(f"wrote {path} ({args.n} restarts)")
    return 0


def _cmd_variance_kl(args) -> int:
    if not (math.isfinite(args.start) and math.isfinite(args.stop) and args.stop >= args.start):
        raise ConfigError(f"--stop must be >= --start, both finite (got {args.start}, {args.stop})")
    if not args.step > 0.0:
        raise ConfigError(f"--step must be > 0, got {args.step}")
    steps = int(round((args.stop - args.start) / args.step))
    grid = [args.start + k * args.step for k in range(steps + 1)]
    rows = variance_vs_kl_curve(grid, sigma=args.sigma, base_mean=args.start)
    table = [["mean", "kl", "variance"]]
    table += [[repr(mu), repr(kl), repr(var)] for mu, kl, var in rows]
    print(f"wrote {write_table(_diag_path(args.out, 'variance_kl.csv'), table)}")
    return 0


def _cmd_trajectory(args) -> int:
    runs, _ = load_run_artifacts(args.out)
    truth = parse_truth_csv(truth_path(panel_dir(args.out)))
    table = trajectory_table(runs, truth, sorted({r.variant for r in runs}))
    print(f"wrote {write_table(_diag_path(args.out, 'trajectory.csv'), table)}")
    return 0


def _cmd_surface(args) -> int:
    if args.resolution < 1:
        raise ConfigError(f"--resolution must be >= 1, got {args.resolution}")
    F, y = _demo_redundant_fit(args.seed)
    rows = likelihood_surface(F, y, resolution=args.resolution)
    table = [["w1", "w2", "log_likelihood"]]
    table += [[repr(w1), repr(w2), repr(ll)] for w1, w2, ll in rows]
    print(f"wrote {write_table(_diag_path(args.out, 'surface.csv'), table)}")
    return 0


def _cmd_phi_trace(args) -> int:
    runs, _ = load_run_artifacts(args.out)
    subset = [r for r in runs if r.phi is not None]
    if args.variant is not None:
        subset = [r for r in subset if r.variant == args.variant]
    if not subset:
        raise FileNotFoundError("no cluster-aggregate-pool runs found in this run directory")
    table = [
        ["variant", "season", "issue_week", "region", "target", "phi", "n_clusters", "entropy",
         "clusters", "leaders"]
    ]
    for r in sorted(subset, key=lambda r: (r.variant, r.issue_week, r.region, r.target)):
        clusters = ";".join("|".join(c) for c in r.clusters) if r.clusters is not None else ""
        leaders = (
            ";".join(m if m is not None else "-" for m in r.leaders)
            if r.leaders is not None
            else ""
        )
        table.append(
            [
                r.variant,
                r.season,
                r.issue_week,
                r.region,
                r.target,
                repr(r.phi),
                r.n_clusters if r.n_clusters is not None else "",
                repr(r.entropy) if r.entropy is not None else "",
                clusters,
                leaders,
            ]
        )
    print(f"wrote {write_table(Path(args.out) / 'reports' / 'phi_trace.csv', table)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "ingest":
            config = RunConfig.load(args.config)
            panel_dir = ingest(config, args.out)
            print(f"wrote panel under {panel_dir}")
            return 0
        if args.command == "replay":
            replay(RunConfig.load(args.config), args.out)
            print(f"replay complete under {args.out}")
            return 0
        if args.command == "report":
            report_dir = write_report(args.out)
            print(f"wrote reports under {report_dir}")
            return 0
        if args.command == "diagnose":
            handler = {
                "restarts": _cmd_restarts,
                "variance-kl": _cmd_variance_kl,
                "trajectory": _cmd_trajectory,
                "surface": _cmd_surface,
            }[args.diagnostic]
            return handler(args)
        if args.command == "phi-trace":
            return _cmd_phi_trace(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ForecastDataError, FileNotFoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
