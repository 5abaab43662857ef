"""Compare perfbench's end-to-end metrics between a parent revision and this tree.

    git archive REV | tar -x -C DIR      # or: git clone . DIR && git -C DIR checkout REV
    python3 tools/bench_compare.py --parent REV --parent-dir DIR --out BENCH_<n>.json \\
        --pairs 10 --seed 3 --seconds 12 [--workload long-io ...]

``--parent-dir`` is a plain checkout of ``--parent``; the change side is this
tree. Before any run, both trees are checked against git: every file under
``src/`` and ``perfbench/`` that git tracks at the side's revision (``--parent``
or ``HEAD``), and every ``*.py`` file there, must be present in the tree with
the same blob hash. So uncommitted edits to the code perfbench runs stop the
script, and the commits in the record name exactly what was measured. For
each workload (by default those of ``BENCHMARK.json``) the script runs
``--pairs`` pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one in each tree, the parent first in even pairs and the change first in odd
ones, so a drift in the machine's speed lands on both sides alike. It edits
nothing under ``perfbench/``; each tree's harness keeps its own
``.perfbench_work/``.

The JSON written to ``--out`` holds, per workload: every pair's metrics,
``correct`` flag, failed-op count and run/report digests for both sides; the
median of each metric per side and their ratio (change / parent); how many
pairs the change won per metric (strictly better, in the direction
``BENCHMARK.json`` gives); and the interquartile range of the parent's runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CODE_DIRS = ("src", "perfbench")


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def check_tree(tree: Path, rev: str) -> None:
    """Raise unless ``tree``'s code under CODE_DIRS is ``rev``'s, blob for blob."""
    listing = _git("ls-tree", "-r", rev, "--", *CODE_DIRS)
    tracked = {}
    for line in listing.splitlines():
        meta, path = line.split("\t", 1)
        tracked[path] = meta.split()[2]
    found = {str(f.relative_to(tree)) for d in CODE_DIRS for f in (tree / d).rglob("*.py")}
    for path in sorted(tracked.keys() | found):
        file = tree / path
        data = file.read_bytes() if file.is_file() else None
        blob = None if data is None else hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
        if blob != tracked.get(path):
            raise SystemExit(f"error: {file} does not match {rev}:{path}; commit or check out {rev} first")


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line plus the
    digest line of the bytes its repetitions wrote."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    # run.py stops starting repetitions after ``seconds``; one may still be
    # running then, and the first run of a tree also generates the archive.
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    digests = [line.split(" ", 1)[1] for line in lines if line.startswith("digest ")]
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "digests": digests,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Medians per side, their ratio, the change's wins and the parent's IQR."""
    summary: dict = {"median": {}, "ratio": {}, "change_wins": {}, "parent_iqr": {}}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        medians = {side: statistics.median(values[side]) for side in SIDES}
        for side in SIDES:
            summary["median"].setdefault(side, {})[name] = medians[side]
        summary["ratio"][name] = medians["change"] / medians["parent"]
        summary["change_wins"][name] = sum(
            (c < p) if direction == "lower" else (c > p)
            for p, c in zip(values["parent"], values["change"])
        )
        summary["parent_iqr"][name] = _iqr(values["parent"])
    summary["all_correct"] = all(p[s]["correct"] and p[s]["failed"] == 0 for p in pairs for s in SIDES)
    summary["same_digests"] = all(p["parent"]["digests"] == p["change"]["digests"] for p in pairs)
    return summary


def compare(trees: dict[str, Path], workloads, pairs: int, seed: int, seconds: float, better) -> dict:
    results = {}
    for workload in workloads:
        runs = []
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], workload, seed, seconds)
            runs.append(pair)
            print(
                f"{workload} pair {i}: "
                + " ".join(
                    f"{side} total_s={pair[side]['metrics']['total_s']:.4f}"
                    f" rerun_s={pair[side]['metrics']['rerun_s']:.4f}"
                    for side in SIDES
                ),
                file=sys.stderr, flush=True,
            )
        results[workload] = {"pairs": runs, **summarize(runs, better)}
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parent vs change perfbench pairs")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--workload", action="append", help="default: BENCHMARK.json's")
    parser.add_argument(
        "--parent-dir", required=True, type=Path, help="a plain checkout of --parent"
    )
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    trees = {"parent": args.parent_dir.resolve(), "change": ROOT}
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD")}
    for side in SIDES:
        check_tree(trees[side], revs[side])
    record = {
        "parent": {"revision": args.parent, "commit": revs["parent"]},
        "change": {"commit": revs["change"]},
        "checked_dirs": list(CODE_DIRS),
        "settings": {"pairs": args.pairs, "seed": args.seed, "seconds": args.seconds, "trace": 0},
        "machine": {"python": platform.python_version(), "platform": platform.platform()},
        "workloads": compare(trees, workloads, args.pairs, args.seed, args.seconds, better),
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for workload, result in record["workloads"].items():
        for name, ratio in result["ratio"].items():
            print(
                f"{workload} {name}: parent {result['median']['parent'][name]:.6g} "
                f"change {result['median']['change'][name]:.6g} ratio {ratio:.3f} "
                f"wins {result['change_wins'][name]}/{args.pairs} "
                f"parent IQR {result['parent_iqr'][name]:.3g}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
