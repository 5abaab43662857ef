"""Regenerate reference.json: each workload's per-variant mean log score for
input seeds 0..REFERENCE_SEEDS-1, taken from one checked
ingest -> replay -> rerun -> report.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the artifacts, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import rep  # puts src/ and this directory on sys.path
import checks
from workloads import REFERENCE_SEEDS, WORKLOADS, ensure_archive

WORK = rep.HERE.parent / ".perfbench_work" / "reference"
BENCHMARKED = ("small-mixed", "wide-cap", "long-io")


def main() -> int:
    table: dict[str, dict[str, dict[str, float]]] = {}
    for name in BENCHMARKED:
        workload = WORKLOADS[name]
        table[name] = {}
        for seed in range(REFERENCE_SEEDS):
            meta = ensure_archive(workload, seed, WORK / "archives")
            out = WORK / "run"
            shutil.rmtree(out, ignore_errors=True)
            result = rep.run_phases(workload, seed, WORK / "archives" / f"{name}-{seed}", out)
            problems = rep.check_phases(workload, meta, out, result, reference=None)
            if rep.ops_failed(problems):
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            table[name][str(seed)] = checks.summary_means(out)
            print(f"{name} seed {seed}: {table[name][str(seed)]}", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    (rep.HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
