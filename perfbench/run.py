"""cappool end-to-end benchmark: ingest -> replay -> rerun -> report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's archive from the input seed (once per workload and
input seed, untimed), then runs repetitions for S seconds (at least three).
The input seed is N modulo ``REFERENCE_SEEDS``, so every seed has a stored
reference for the mean log score check. Each repetition is a fresh
interpreter (``rep.py``) that runs the four phases into a fresh run
directory, one after another: a closed loop with one client. BLAS libraries
are held to one thread.

With ``--trace 0`` the end-to-end metrics are medians over the repetitions.
With ``--trace 1`` repetitions alternate one untraced and two traced; the
per-layer metrics are medians over the traced ones (the ``week_runs``
latencies are pooled over them), their counters must repeat exactly, and
``trace.overhead_ratio`` compares traced with untraced totals. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REP_TIMEOUT_S = 120  # keeps a hung repetition inside the 180 s a run may take
MIN_REPS = 3
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "replay_s": "s",
    "rerun_s": "s",
    "report_s": "s",
    "total_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: "1" for name in BLAS_THREADS},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def run_repetition(workload: str, seed: int, archive_dir: Path, index: int, traced: bool):
    """One child interpreter; returns its JSON result, or None if it crashed."""
    out_dir = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}-{index}"
    spans_path = out_dir.with_suffix(".spans.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--archive", str(archive_dir.relative_to(ROOT)),
        "--out", str(out_dir.relative_to(ROOT)),
    ]
    if traced:
        cmd += ["--spans", str(spans_path.relative_to(ROOT))]
    env = dict(os.environ, **{name: "1" for name in BLAS_THREADS})
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is not None and traced:
            result["spans"] = json.loads(spans_path.read_text())["spans"]
    except (subprocess.TimeoutExpired, ValueError, OSError) as exc:
        print(f"repetition {index} crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
        result = None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
    return result


def end_to_end(rep: dict, expected_runs: int) -> dict[str, float]:
    s = rep["seconds"]
    return {
        "setup_s": s["ingest"],
        "replay_s": s["replay"],
        "rerun_s": s["rerun"],
        "report_s": s["report"],
        "total_s": s["ingest"] + s["replay"] + s["report"],
        "runs_per_s": expected_runs / s["replay"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cappool ingest/replay/report benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cappool" / "__init__.py").exists():
        print(f"error: cappool sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import DETERMINISTIC, layer_metrics, week_metrics
    from workloads import WORKLOADS, ensure_archive, input_seed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    seed = input_seed(args.seed)
    start = perf_counter()
    archive = ensure_archive(workload, seed, WORK / "archives")
    archive_dir = WORK / "archives" / f"{workload.name}-{seed}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "input_seed": seed,
        "input": {k: v for k, v in archive.items() if k != "workload"},
        "archive_s": perf_counter() - start,
        "environment": environment(),
        "loop": "closed, one client, one repetition at a time",
    }
    print("record " + json.dumps(record, sort_keys=True), flush=True)

    reps: list[tuple[bool, dict | None]] = []
    attempted = failed = 0
    begin = perf_counter()
    longest = 0.0
    while len(reps) < MIN_REPS or perf_counter() - begin + longest <= args.seconds:
        traced = bool(args.trace) and len(reps) % 3 != 0
        t0 = perf_counter()
        rep = run_repetition(workload.name, seed, archive_dir, len(reps), traced)
        wall = perf_counter() - t0
        longest = max(longest, wall)
        reps.append((traced, rep))
        attempted += rep["ops"] if rep else 4
        failed += rep["ops_failed"] if rep else 4
        if rep is None:
            print(f"rep {len(reps) - 1} traced={int(traced)} crashed", flush=True)
            continue
        s = rep["seconds"]
        print(
            f"rep {len(reps) - 1} traced={int(traced)} "
            + " ".join(f"{k}={v:.4f}s" for k, v in s.items())
            + f" rss={rep['peak_rss_mb']:.1f}MiB ops_failed={rep['ops_failed']} wall={wall:.2f}s",
            flush=True,
        )
        for phase, problems in rep["problems"].items():
            for problem in problems[:5]:
                print(f"  check {phase}: {problem}", flush=True)

    # Timings count only from repetitions whose four phases all ran to the end.
    complete = [(t, r) for t, r in reps if r is not None and not r["errors"]]
    correct = failed == 0
    digests = {
        (r["digest"]["runs"]["sha256"], r["digest"]["reports"]["sha256"]) for _, r in complete
    }
    if len(digests) > 1:
        print("check: repetitions of one seed wrote different bytes", flush=True)
        correct = False
    for runs_sha, reports_sha in sorted(digests):
        print(f"digest runs={runs_sha} reports={reports_sha}", flush=True)

    untraced = [end_to_end(r, workload.expected_runs) for t, r in complete if not t]
    if not untraced:
        print("error: no repetition completed; nothing to report", file=sys.stderr)
        return 1
    metrics: dict[str, dict] = {}
    if not args.trace:
        for name, unit in END_TO_END_UNITS.items():
            values = [m[name] for m in untraced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{name} = {metrics[name]['value']:.6g} {unit} (median; {_spread(values)})")
    else:
        layers = [
            layer_metrics(
                r["spans"],
                {"panel": r["digest"]["panel"]["bytes"], "runs": r["digest"]["runs"]["bytes"]},
            )
            for t, r in complete
            if t
        ]
        if not layers:
            print("error: no traced repetition completed", file=sys.stderr)
            return 1
        for name in DETERMINISTIC:
            values = {layer[name][0] for layer in layers}
            if len(values) > 1:
                print(f"check: counter {name} differs across traced runs: {sorted(values)}")
                correct = False
        for name, (_, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        weeks = week_metrics([r["spans"] for t, r in complete if t])
        metrics.update({name: {"value": v, "unit": unit} for name, (v, unit) in weeks.items()})
        traced_total = statistics.median(
            end_to_end(r, workload.expected_runs)["total_s"] for t, r in complete if t
        )
        untraced_total = statistics.median(m["total_s"] for m in untraced)
        metrics["trace.overhead_ratio"] = {"value": traced_total / untraced_total - 1.0, "unit": "ratio"}
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
