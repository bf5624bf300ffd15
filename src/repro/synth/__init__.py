"""Workload synthesis: distributions, arrival processes, file popularity,
scaling and the SWIM-style synthesizer.
"""

from .distributions import Distribution, ZipfRank
from .arrival import (
    ArrivalProcess,
    DiurnalBurstyArrivals,
    PoissonArrivals,
    diurnal_rate_profile,
    sine_reference_series,
)
from .filepop import FilePopularityModel, PathAssignment
from .sampler import TraceSampler, stratified_sample
from .scaling import ScalePlan, scale_cluster
from .swim import SwimSynthesizer, SyntheticWorkloadPlan, DataLayoutPlan

__all__ = [
    "Distribution",
    "ZipfRank",
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalBurstyArrivals",
    "diurnal_rate_profile",
    "sine_reference_series",
    "FilePopularityModel",
    "PathAssignment",
    "TraceSampler",
    "stratified_sample",
    "ScalePlan",
    "scale_cluster",
    "SwimSynthesizer",
    "SyntheticWorkloadPlan",
    "DataLayoutPlan",
]
