"""Workload characterization core: the paper's methodology.

Data access patterns (§4), temporal patterns (§5) and compute patterns (§6)
are each covered by a dedicated module; :mod:`repro.core.characterization`
ties them together into a single report per workload.
"""

from .stats import (
    EmpiricalCDF,
    SketchCDF,
    empirical_cdf,
    hourly_series,
    pearson_correlation,
    percentile,
    percentile_ratio_curve,
)
from .zipf import RankFrequency, fit_zipf_slope
from .burstiness import BurstinessResult, analyze_burstiness, burstiness_curve, hourly_task_seconds
from .temporal import (
    CorrelationResult,
    DiurnalAnalysis,
    HourlyDimensions,
    WeeklyView,
    dimension_correlations,
    diurnal_strength,
    hourly_totals,
    weekly_view,
)
from .datasizes import DataSizeDistributions, median_spread_orders
from .access import AccessPatternResult, ReaccessFractions, ReaccessIntervals, SizeAccessProfile
from .kmeans import (
    KMeansResult,
    KSelectionResult,
    assign_labels,
    kmeans,
    log_standardize,
    select_k,
)
from .clustering import ClusteringResult, JobCluster, cluster_jobs, label_centroid
from .naming import (
    FRAMEWORK_KEYWORDS,
    FirstWordBreakdown,
    NamingAnalysis,
    classify_framework,
)
from .multiplexing import ConsolidationStudy, consolidation_study
from .sharedscan import (
    DEFAULT_CLUSTER_SAMPLE_CAP,
    CharacterizationAnalyses,
    run_characterization_scan,
)
from .profile import (
    DEFAULT_SMALL_JOB_THRESHOLD_BYTES,
    SmallJobCountConsumer,
    WorkloadProfile,
    profile_source,
)
from .comparison import (
    WorkloadFeatures,
    WorkloadSuite,
    features_from_profile,
    select_workload_suite,
    workload_distance,
    workload_features,
)
from .evolution import DimensionShift, EvolutionReport, compare_evolution, evolution_from_profiles
from .federation import FederationReport, PairComparison, compare_catalog
from .report import WorkloadReport, render_table
from .characterization import WorkloadCharacterizer, characterize

__all__ = [
    # stats
    "EmpiricalCDF",
    "SketchCDF",
    "empirical_cdf",
    "percentile",
    "percentile_ratio_curve",
    "hourly_series",
    "pearson_correlation",
    # zipf
    "RankFrequency",
    "fit_zipf_slope",
    # burstiness
    "BurstinessResult",
    "burstiness_curve",
    "hourly_task_seconds",
    "analyze_burstiness",
    # temporal
    "HourlyDimensions",
    "WeeklyView",
    "DiurnalAnalysis",
    "CorrelationResult",
    "hourly_totals",
    "weekly_view",
    "diurnal_strength",
    "dimension_correlations",
    # data sizes
    "DataSizeDistributions",
    "median_spread_orders",
    # shared scan
    "CharacterizationAnalyses",
    "run_characterization_scan",
    "DEFAULT_CLUSTER_SAMPLE_CAP",
    # access
    "AccessPatternResult",
    "SizeAccessProfile",
    "ReaccessIntervals",
    "ReaccessFractions",
    # kmeans / clustering
    "KMeansResult",
    "KSelectionResult",
    "kmeans",
    "assign_labels",
    "select_k",
    "log_standardize",
    "ClusteringResult",
    "JobCluster",
    "cluster_jobs",
    "label_centroid",
    # naming
    "FRAMEWORK_KEYWORDS",
    "classify_framework",
    "FirstWordBreakdown",
    "NamingAnalysis",
    # multiplexing / consolidation
    "ConsolidationStudy",
    "consolidation_study",
    # workload profiles
    "DEFAULT_SMALL_JOB_THRESHOLD_BYTES",
    "SmallJobCountConsumer",
    "WorkloadProfile",
    "profile_source",
    # cross-workload comparison / suites
    "WorkloadFeatures",
    "features_from_profile",
    "workload_features",
    "workload_distance",
    "WorkloadSuite",
    "select_workload_suite",
    # evolution
    "DimensionShift",
    "EvolutionReport",
    "compare_evolution",
    "evolution_from_profiles",
    # federation
    "FederationReport",
    "PairComparison",
    "compare_catalog",
    # report / characterization
    "WorkloadReport",
    "render_table",
    "WorkloadCharacterizer",
    "characterize",
]
