"""Span recording around cappool's layer boundaries, from outside the package.

``traced(recorder)`` swaps each boundary in ``patch_points()`` for a wrapper
that appends a span ``[name, start_ns, end_ns, parent, attrs]`` to the
recorder and restores every original attribute on exit. Names that a module
imports by name are patched where they are looked up (``linear_pool`` in
``cappool.ensembles``, ``load_panel`` in ``cappool.replay``, ...), so each
call site is attributed to the layer it calls into.

``layer_metrics(spans)`` turns one repetition's spans into the per-layer
metrics: self times (span time minus the time its children cover) and
counters read from return values. ``week_metrics`` gives the ``week_runs``
latency percentiles over the calls of several repetitions.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter_ns

NAME, START, END, PARENT, ATTRS = range(5)


class SpanRecorder:
    """Spans of one repetition, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = perf_counter_ns()
        try:
            yield
        finally:
            span[END] = perf_counter_ns()
            self._stack.pop()


def _rows(args, result):
    return len(result)


def _partition(args, result):
    data, stratum, t = args[:3]
    partition = ";".join(",".join(c) for c in result.clusters)
    return f"{data.season}|{stratum[0]}|{stratum[1]}|{t}|{partition}"


def _fit(args, result):
    return [result.n_iter, bool(result.converged)]


def _loaded(args, result):
    return result is not None


def patch_points() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, attrs from (args, result)) per boundary."""
    ens = import_module("cappool.ensembles")
    rpl = import_module("cappool.replay")
    rep = import_module("cappool.report")

    return [
        (rpl, "parse_component_csv", "panel.parse", _rows),
        (rpl, "parse_truth_csv", "panel.parse", _rows),
        (rpl, "write_panel", "panel.write", None),
        (rpl, "load_panel", "panel.load", None),
        (ens.SeasonData, "__init__", "ensembles.season_data", None),
        (ens.SeasonData, "correlation", "ensembles.correlation", None),
        (ens, "_masked_correlation", "ensembles.correlation_compute", None),
        (ens.SeasonData, "cluster_mass_matrix", "ensembles.mass_matrix", None),
        (ens.SeasonData, "model_mass_matrix", "ensembles.mass_matrix", None),
        (ens.SeasonData, "prior_mass_matrix", "ensembles.mass_matrix", None),
        (ens.SeasonData, "clusters", "ensembles.clusters", _partition),
        (ens._VariantBase, "week_runs", "ensembles.week_runs", None),
        (ens.CapVariant, "select_phi", "ensembles.select_phi", None),
        (ens.CapVariant, "_pool", "ensembles.cap_pool", None),
        (ens, "cluster_models", "clustering.cluster_models", None),
        (ens, "em_pool_weights", "pool.em", _fit),
        (ens, "linear_pool", "pmf.linear_pool", None),
        (ens, "log_score", "scoring", None),
        (rpl, "log_score", "scoring", None),
        (rpl, "pit_value", "scoring", None),
        (rpl, "brier_integral", "scoring", None),
        (rpl, "_write_week", "replay.write_week", None),
        (rpl, "_load_week", "replay.load_week", _loaded),
        (rep, "load_run_artifacts", "report.load", None),
        (rep, "parse_truth_csv", "report.load", None),
        (rep, "emit_report", "report.emit", None),
        (rep, "write_report", "report.write", None),
    ]


@contextmanager
def traced(recorder: SpanRecorder):
    """Install every boundary wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, attrs in patch_points():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, attrs))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly on one thread, so children never overlap and their
    summed durations equal the part of the parent they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _phases(spans) -> list[str | None]:
    """The enclosing ``phase.*`` span name of each span (parents come first)."""
    phase: list[str | None] = []
    for s in spans:
        if s[NAME].startswith("phase."):
            phase.append(s[NAME])
        else:
            phase.append(phase[s[PARENT]] if s[PARENT] >= 0 else None)
    return phase


def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it;
    100 (the maximum) when there are fewer than twenty samples."""
    best = 100.0
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1]


def layer_metrics(spans, bytes_written: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition, as name -> (value, unit)."""
    own = self_times(spans)
    phase = _phases(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        self_s[s[NAME]] += own[i] / 1e9
        calls[s[NAME]] += 1
        by_name[s[NAME]].append(i)

    def attrs(name):
        return [spans[i][ATTRS] for i in by_name[name]]

    def distinct(name):
        return len({(phase[i], spans[i][ATTRS]) for i in by_name[name]})

    fits = attrs("pool.em")
    iters = sum(f[0] for f in fits)
    cluster_calls = calls["clustering.cluster_models"]
    return {
        "panel.parse_s": (self_s["panel.parse"], "s"),
        "panel.rows_parsed": (sum(attrs("panel.parse")), "count"),
        "panel.write_s": (self_s["panel.write"], "s"),
        "panel.bytes_written": (bytes_written["panel"], "bytes"),
        "panel.load_s": (self_s["panel.load"], "s"),
        "ensembles.season_data_s": (self_s["ensembles.season_data"], "s"),
        "ensembles.correlation_s": (
            self_s["ensembles.correlation"] + self_s["ensembles.correlation_compute"],
            "s",
        ),
        "ensembles.correlation_computes": (calls["ensembles.correlation_compute"], "count"),
        "ensembles.mass_matrix_s": (self_s["ensembles.mass_matrix"], "s"),
        "ensembles.select_phi_self_s": (self_s["ensembles.select_phi"], "s"),
        "ensembles.clusters_self_s": (self_s["ensembles.clusters"], "s"),
        "ensembles.cap_pool_self_s": (self_s["ensembles.cap_pool"], "s"),
        "ensembles.distinct_partitions": (distinct("ensembles.clusters"), "count"),
        "ensembles.partition_reuse_ratio": (
            distinct("ensembles.clusters") / cluster_calls if cluster_calls else 0.0,
            "ratio",
        ),
        "ensembles.week_calls": (calls["ensembles.week_runs"], "count"),
        "clustering.cluster_models_calls": (cluster_calls, "count"),
        "clustering.cluster_models_s": (self_s["clustering.cluster_models"], "s"),
        "pool.em_fits": (len(fits), "count"),
        "pool.em_iters_total": (iters, "count"),
        "pool.em_iters_max": (max((f[0] for f in fits), default=0), "count"),
        "pool.em_nonconverged": (sum(1 for f in fits if not f[1]), "count"),
        "pool.em_s": (self_s["pool.em"], "s"),
        "pool.em_us_per_iter": (self_s["pool.em"] * 1e6 / iters if iters else 0.0, "us"),
        "pmf.linear_pool_calls": (calls["pmf.linear_pool"], "count"),
        "pmf.linear_pool_s": (self_s["pmf.linear_pool"], "s"),
        "scoring.calls": (calls["scoring"], "count"),
        "scoring.s": (self_s["scoring"], "s"),
        "replay.loop_self_s": (self_s["phase.replay"] + self_s["phase.rerun"], "s"),
        "replay.week_writes": (calls["replay.write_week"], "count"),
        "replay.week_write_s": (self_s["replay.write_week"], "s"),
        "replay.bytes_written": (bytes_written["runs"], "bytes"),
        "replay.week_loads": (sum(1 for hit in attrs("replay.load_week") if hit), "count"),
        "replay.week_load_s": (self_s["replay.load_week"], "s"),
        "report.load_s": (self_s["report.load"], "s"),
        "report.emit_s": (self_s["report.emit"], "s"),
        "report.write_s": (self_s["report.write"], "s"),
    }


def week_metrics(runs) -> dict[str, tuple[float, str]]:
    """``week_runs`` latency percentiles over the calls of every repetition in
    ``runs`` (a list of span lists). One repetition has too few calls for a
    tail beyond p50, so the calls of all traced repetitions are pooled."""
    week_ms = [
        (s[END] - s[START]) / 1e6 for spans in runs for s in spans if s[NAME] == "ensembles.week_runs"
    ]
    tail = tail_percentile(len(week_ms))
    return {
        "ensembles.week_ms_p50": (nearest_rank(week_ms, 50.0) if week_ms else 0.0, "ms"),
        "ensembles.week_ms_tail": (nearest_rank(week_ms, tail) if week_ms else 0.0, "ms"),
        "ensembles.week_ms_tail_pct": (tail, "%"),
    }


# Counters that must repeat exactly across traced repetitions of one seed.
DETERMINISTIC = (
    "panel.rows_parsed",
    "panel.bytes_written",
    "ensembles.correlation_computes",
    "ensembles.distinct_partitions",
    "ensembles.partition_reuse_ratio",
    "ensembles.week_calls",
    "clustering.cluster_models_calls",
    "pool.em_fits",
    "pool.em_iters_total",
    "pool.em_iters_max",
    "pool.em_nonconverged",
    "pmf.linear_pool_calls",
    "scoring.calls",
    "replay.week_writes",
    "replay.bytes_written",
    "replay.week_loads",
)
