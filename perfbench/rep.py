"""One repetition in a fresh interpreter: ingest -> replay -> replay -> report.

    python3 perfbench/rep.py --workload NAME --seed N --archive DIR --out RUN_DIR
                             [--spans FILE]

Times each phase, checks each phase's output (outside the timed region) and
prints one JSON object. Each variant's mean log score must match the one
stored in ``reference.json`` for this workload and seed; a missing entry
fails the report check. With ``--spans`` the layer boundaries are traced and
the spans are written to FILE when the repetition ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from importlib import import_module  # noqa: E402

import checks  # noqa: E402
from spans import SpanRecorder, traced  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

# The package re-exports functions named like its modules, so look the
# modules up by name rather than as package attributes.
replay_mod = import_module("cappool.replay")
report_mod = import_module("cappool.report")
PHASES = ("ingest", "replay", "rerun", "report")


def run_phases(workload, seed: int, archive_dir, out_dir, recorder=None) -> dict:
    """Run the four phases in order; a phase that raises stops the rest.

    Returns per-phase seconds and errors, the run directory's digest around
    the rerun, and the interpreter's peak RSS after the last phase.
    """
    out_dir = Path(out_dir)
    config = replay_mod.RunConfig.parse(config_text(workload, archive_dir, seed))
    calls = {
        "ingest": lambda: replay_mod.ingest(config, out_dir),
        "replay": lambda: replay_mod.replay(config, out_dir),
        "rerun": lambda: replay_mod.replay(config, out_dir),
        "report": lambda: report_mod.write_report(out_dir),
    }
    seconds: dict[str, float] = {}
    errors: dict[str, str] = {}
    digests: dict[str, dict] = {}
    for name in PHASES:
        if errors:
            errors[name] = f"not run: {next(iter(errors))} failed"
            continue
        if name == "rerun":
            digests["before_rerun"] = checks.tree_digest(out_dir)
        scope = recorder.span(f"phase.{name}") if recorder else nullcontext()
        # Each phase starts on a collected heap, as it would as its own CLI
        # command, so a full collection of an earlier phase's garbage does not
        # land in whichever phase happens to cross the threshold.
        gc.collect()
        start = perf_counter()
        try:
            with scope:
                calls[name]()
        except Exception as exc:  # a failed phase is counted, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
        seconds[name] = perf_counter() - start
        if name == "rerun":
            digests["after_rerun"] = checks.tree_digest(out_dir)
    return {"seconds": seconds, "errors": errors, "digests": digests, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    """This interpreter's peak RSS. ``ru_maxrss`` also keeps the RSS of the
    parent that forked us, so prefer the per-image high-water mark."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_phases(workload, archive: dict, out_dir, result: dict, reference) -> dict[str, list[str]]:
    """Problems per phase: its exception, or what its output check found."""
    problems = {name: [result["errors"][name]] for name in result["errors"]}
    if "ingest" not in problems:
        problems["ingest"] = checks.check_ingest(out_dir, workload, archive)
    means: dict[str, float] = {}
    if "replay" not in problems:
        problems["replay"], means = checks.check_replay(out_dir, workload)
    if "rerun" not in problems:
        problems["rerun"] = checks.check_rerun(
            result["digests"]["before_rerun"], result["digests"]["after_rerun"]
        )
    if "report" not in problems:
        problems["report"] = checks.check_report(out_dir, workload, means, reference)
    return {name: problems[name] for name in PHASES}


def ops_failed(problems: dict[str, list[str]]) -> int:
    """One op is one phase call; it failed if it raised or its check found problems."""
    return sum(1 for found in problems.values() if found)


def stored_reference(workload_name: str, seed: int) -> dict[str, float] | None:
    """Per-variant mean log scores stored for (workload, seed), if any."""
    table = json.loads((HERE / "reference.json").read_text())
    return table.get(workload_name, {}).get(str(seed))


def repetition(workload, seed, archive_dir, archive: dict, out_dir, spans_path=None) -> dict:
    recorder = SpanRecorder() if spans_path else None
    with traced(recorder) if recorder else nullcontext():
        result = run_phases(workload, seed, archive_dir, out_dir, recorder)
    if recorder:
        Path(spans_path).write_text(json.dumps({"spans": recorder.spans}))
    reference = stored_reference(workload.name, seed)
    problems = check_phases(workload, archive, out_dir, result, reference)
    if reference is None:
        problems["report"].append(f"no reference stored for {workload.name} seed {seed}")
    out_dir = Path(out_dir)
    return {
        "seconds": result["seconds"],
        "errors": result["errors"],
        "peak_rss_mb": result["peak_rss_mb"],
        "problems": problems,
        "ops": len(PHASES),
        "ops_failed": ops_failed(problems),
        "digest": {
            "runs": checks.tree_digest(out_dir / "runs"),
            "reports": checks.tree_digest(out_dir / "reports"),
            "panel": checks.tree_digest(out_dir / "panel"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--archive", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    archive = json.loads((Path(args.archive) / "archive.json").read_text())
    result = repetition(WORKLOADS[args.workload], args.seed, args.archive, archive, args.out, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
