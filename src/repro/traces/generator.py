"""Trace generation from a :class:`~repro.traces.spec.WorkloadSpec`.

:class:`SpecTraceGenerator` stands in for the paper's non-public traces (see
docs/architecture.md): it turns the published statistical description of a
paper workload (Table 1 row, Table 2 job classes, Figure 2 Zipf slope, Figure
7/8 arrival structure, Figure 10 name mix) into a concrete, per-job trace the
characterization pipeline, synthesizer and simulator can consume.

Generation is deterministic given a seed and honours an optional ``scale``
factor so tests and benchmarks can work with traces of manageable size while
preserving each workload's class mixture.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SpecError
from ..synth.arrival import DiurnalBurstyArrivals
from ..synth.filepop import FilePopularityModel
from .schema import Job
from .spec import JobClassSpec, WorkloadSpec
from .trace import Trace

__all__ = ["SpecTraceGenerator", "generate_trace"]

#: Default dispersion applied to task counts relative to task-seconds.
_SECONDS_PER_TASK = 30.0


class SpecTraceGenerator:
    """Generates a synthetic :class:`Trace` from a :class:`WorkloadSpec`.

    Args:
        spec: the workload description.
        seed: RNG seed; identical seeds produce identical traces.
        scale: fraction of the full-scale job count to generate (1.0 means the
            paper's full job count — over a million jobs for the Facebook
            workloads).  Every class keeps at least one job.
        time_scale: fraction of the full trace length to cover.  Scaling jobs
            and time by the same factor preserves the jobs-per-hour density —
            the SWIM-style scale-down of §7 — which keeps hourly statistics
            (burstiness, correlations) comparable to the full-scale workload.
            Defaults to ``scale`` when jobs are scaled down, and 1.0 otherwise.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0, scale: float = 1.0,
                 time_scale: Optional[float] = None):
        if scale <= 0:
            raise SpecError("scale must be positive, got %r" % (scale,))
        if time_scale is not None and time_scale <= 0:
            raise SpecError("time_scale must be positive, got %r" % (time_scale,))
        self.spec = spec
        self.seed = int(seed)
        self.scale = float(scale)
        if time_scale is None:
            time_scale = min(1.0, self.scale) if self.scale < 1.0 else 1.0
        self.time_scale = float(time_scale)

    # ------------------------------------------------------------------
    def generate(self) -> Trace:
        """Generate the trace."""
        rng = np.random.default_rng(self.seed)
        spec = self.spec
        counts = spec.scaled_counts(self.scale)
        n_jobs = int(sum(counts))
        horizon_s = max(float(spec.trace_length_s) * self.time_scale, 2 * 3600.0)

        # 1. Arrival times, one independent diurnal + bursty stream per job
        #    class (§5).  Interactive small jobs and scheduled batch pipelines
        #    burst independently of each other, which is what keeps the
        #    jobs-vs-bytes and jobs-vs-compute hourly correlations low while
        #    bytes-vs-compute stays high (Figure 9).
        submit_times = np.empty(n_jobs, dtype=float)
        class_indices = np.empty(n_jobs, dtype=int)
        cursor = 0
        for class_index, class_count in enumerate(counts):
            arrivals = DiurnalBurstyArrivals(
                diurnal_amplitude=spec.arrival.diurnal_amplitude,
                weekend_factor=spec.arrival.weekend_factor,
                burstiness=spec.arrival.burstiness,
            )
            class_times = arrivals.generate(rng, class_count, horizon_s)
            submit_times[cursor:cursor + class_count] = class_times
            class_indices[cursor:cursor + class_count] = class_index
            cursor += class_count
        order = np.argsort(submit_times, kind="stable")
        submit_times = submit_times[order]
        class_indices = class_indices[order]

        # 2. Per-job dimensions sampled around each class centroid.
        dimensions = self._sample_dimensions(rng, class_indices)

        # 3. File paths: Zipf popularity + temporal locality (§4), with fresh
        #    inputs drawn from size-binned catalogs so access frequency stays
        #    decoupled from file size (Figures 3-4).
        paths = FilePopularityModel(
            n_input_files=max(2, int(spec.access.distinct_input_files * self.scale) or 2),
            n_output_files=max(2, int(spec.access.distinct_output_files * self.scale) or 2),
            zipf_slope=spec.access.zipf_slope,
            input_reaccess_fraction=spec.access.input_reaccess_fraction,
            output_reaccess_fraction=spec.access.output_reaccess_fraction,
            reaccess_halflife_s=spec.access.reaccess_halflife_s,
        ).assign(
            submit_times,
            rng,
            record_inputs=spec.has_input_paths,
            record_outputs=spec.has_output_paths,
            input_prefix="/%s/in" % spec.name.lower(),
            output_prefix="/%s/out" % spec.name.lower(),
            input_bytes=dimensions[:, 0],
            output_bytes=dimensions[:, 2],
        )

        # 4. Job names from the Figure-10 mix (if the trace records names).
        names, frameworks = self._sample_names(rng, n_jobs)

        jobs = []
        for index in range(n_jobs):
            class_spec = spec.job_classes[class_indices[index]]
            input_b, shuffle_b, output_b, duration, map_s, reduce_s = dimensions[index]
            map_tasks = max(1, int(round(map_s / _SECONDS_PER_TASK))) if map_s > 0 else 1
            reduce_tasks = int(round(reduce_s / _SECONDS_PER_TASK)) if reduce_s > 0 else 0
            jobs.append(
                Job(
                    job_id="%s_job_%07d" % (spec.name.lower().replace("-", "_"), index),
                    submit_time_s=float(submit_times[index]),
                    duration_s=float(duration),
                    input_bytes=float(input_b),
                    shuffle_bytes=float(shuffle_b),
                    output_bytes=float(output_b),
                    map_task_seconds=float(map_s),
                    reduce_task_seconds=float(reduce_s),
                    map_tasks=map_tasks,
                    reduce_tasks=reduce_tasks,
                    name=names[index],
                    framework=frameworks[index],
                    input_path=paths.input_paths[index],
                    output_path=paths.output_paths[index],
                    workload=spec.name,
                    cluster_label=class_spec.label,
                )
            )
        return Trace(jobs, name=spec.name, machines=spec.machines)

    # ------------------------------------------------------------------
    def _sample_dimensions(self, rng: np.random.Generator, class_indices: np.ndarray) -> np.ndarray:
        """Sample the 6 numeric dimensions for every job.

        Each dimension is log-normal around its class centroid with the class
        dispersion; zero centroids (map-only shuffle/reduce) stay exactly zero
        so map-only structure is preserved.
        """
        n_jobs = class_indices.size
        output = np.zeros((n_jobs, 6), dtype=float)
        for class_index, class_spec in enumerate(self.spec.job_classes):
            mask = class_indices == class_index
            count = int(mask.sum())
            if count == 0:
                continue
            output[mask] = self._sample_class(rng, class_spec, count)
        return output

    @staticmethod
    def _sample_class(rng: np.random.Generator, class_spec: JobClassSpec, count: int) -> np.ndarray:
        """Sample ``count`` jobs of one class: correlated log-normal jitter.

        A shared per-job factor correlates data size and compute time, which
        reproduces the paper's §5.3 observation that bytes and task-seconds
        are the most strongly correlated pair of dimensions.
        """
        sigma = class_spec.dispersion
        shared = rng.normal(0.0, sigma, count)
        centroid = np.asarray(class_spec.centroid, dtype=float)
        samples = np.zeros((count, 6), dtype=float)
        for dim in range(6):
            if centroid[dim] <= 0:
                continue
            own = rng.normal(0.0, sigma * 0.5, count)
            samples[:, dim] = centroid[dim] * np.exp(0.8 * shared + own)
        # Durations below one second are unphysical for a MapReduce job.
        samples[:, 3] = np.maximum(samples[:, 3], 1.0)
        return samples

    def _sample_names(self, rng: np.random.Generator, n_jobs: int):
        """Sample job names and frameworks from the Figure-10 name mix."""
        if not self.spec.has_names or not self.spec.name_mix:
            return [None] * n_jobs, [None] * n_jobs
        entries, weights = self.spec.name_mix_weights()
        picks = rng.choice(len(entries), size=n_jobs, p=weights)
        names = []
        frameworks = []
        for index in range(n_jobs):
            entry = entries[picks[index]]
            names.append("%s job %d" % (entry.first_word, index))
            frameworks.append(entry.framework)
        return names, frameworks


def generate_trace(spec: WorkloadSpec, seed: int = 0, scale: float = 1.0,
                   time_scale: Optional[float] = None) -> Trace:
    """Convenience wrapper: ``SpecTraceGenerator(spec, seed, scale).generate()``."""
    return SpecTraceGenerator(spec, seed=seed, scale=scale, time_scale=time_scale).generate()
