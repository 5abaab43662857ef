"""Cluster-aggregate-pool ensembles for binned influenza-like-illness forecasts.

The library combines component forecast distributions over a fixed 131-bin
percent-ILI grid. It ships the cluster-aggregate-pool pipeline (group models
by historical log-score correlation, keep each group's best-median member,
pool the survivors), the classical equal/static/adaptive linear pools, a
proper-scoring battery, redundancy diagnostics, and a no-peeking season
replay harness with a CLI.
"""

from .clustering import Clustering, cluster_models
from .diagnostics import (
    RestartReport,
    TrajectoryPoint,
    cluster_trajectory,
    restart_dispersion,
    variance_vs_kl_curve,
)
from .ensembles import (
    DEFAULT_PHI_GRID,
    VARIANTS,
    CapVariant,
    ClusterForecast,
    EnsembleRun,
    HistoryStore,
    SeasonData,
    aggregate_cluster,
    make_variant,
    percent_entropy,
)
from .epiweek import Epiweek, season_length, season_of, season_weeks, weeks_in_year
from .panel import (
    Panel,
    ForecastDataError,
    ForecastKey,
    StatePopulationTable,
    TruthTable,
    compute_wili,
    convert_flusight_csv,
    format_probs,
    load_panel,
    parse_component_csv,
    parse_prob_rows,
    parse_truth_csv,
    write_panel,
)
from .pmf import (
    BIN_EDGES,
    N_BINS,
    MixtureComponent,
    bin_index,
    gaussian_pmf,
    linear_pool,
    mixture_variance,
    normalize_pmf,
    normalize_pmfs,
)
from .pool import (
    AdaptivePool,
    AdaptivePrior,
    EqualPool,
    StaticPool,
    WeightFit,
    em_pool_weights,
    em_pool_weights_batch,
    renormalized,
)
from .replay import RunConfig, ingest, replay
from .report import ReportBundle, emit_report, write_report
from .scoring import (
    BRIER_THRESHOLDS,
    LOG_SCORE_FLOOR,
    ScoreRecord,
    brier_integral,
    brier_matrix,
    brier_score,
    floored_log,
    kl_divergence,
    log_score,
    median_log_score,
    pairwise_kl_matrix,
    pit_calibration_auc,
    pit_value,
)

__version__ = "0.1.0"
