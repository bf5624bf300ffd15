"""Tests for the cluster energy model and the power-down policy evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulator import (
    ClusterConfig,
    PowerDownPolicy,
    PowerModel,
    SimulationMetrics,
    WorkloadReplayer,
    energy_from_metrics,
    evaluate_power_down,
)
from repro.traces import Job, Trace
from repro.units import GB, HOUR

from legacy_replay import observe_utilization


def metrics_with_samples(samples, total_slots=600):
    metrics = SimulationMetrics(total_slots=total_slots)
    for time_s, busy in samples:
        observe_utilization(metrics, time_s, busy)
    metrics.horizon_s = samples[-1][0]
    return metrics


CONFIG = ClusterConfig(n_nodes=100)  # 600 slots


class TestPowerModel:
    def test_validation(self):
        with pytest.raises(SimulationError):
            PowerModel(idle_node_watts=-1.0)
        with pytest.raises(SimulationError):
            PowerModel(idle_node_watts=200.0, peak_node_watts=100.0)

    def test_idle_and_peak_cluster_power(self):
        power = PowerModel(idle_node_watts=100.0, peak_node_watts=300.0)
        assert power.cluster_power_watts(0, CONFIG) == pytest.approx(100.0 * 100)
        assert power.cluster_power_watts(CONFIG.total_slots, CONFIG) == pytest.approx(300.0 * 100)

    def test_power_is_monotone_in_load(self):
        power = PowerModel()
        values = [power.cluster_power_watts(busy, CONFIG) for busy in (0, 150, 300, 450, 600)]
        assert values == sorted(values)

    def test_negative_busy_slots_rejected(self):
        with pytest.raises(SimulationError):
            PowerModel().cluster_power_watts(-1, CONFIG)


class TestEnergyFromMetrics:
    def test_constant_full_load(self):
        metrics = metrics_with_samples([(0.0, 600), (HOUR, 600)])
        report = energy_from_metrics(metrics, CONFIG, PowerModel(idle_node_watts=100.0,
                                                                 peak_node_watts=300.0))
        assert report.energy_joules == pytest.approx(300.0 * 100 * HOUR)
        assert report.mean_utilization == pytest.approx(1.0)
        assert 1.0 - report.energy_joules / report.always_peak_joules == pytest.approx(0.0)
        assert report.proportionality_gap == pytest.approx(0.0)

    def test_idle_cluster_energy_and_proportionality_gap(self):
        metrics = metrics_with_samples([(0.0, 0), (HOUR, 0)])
        report = energy_from_metrics(metrics, CONFIG, PowerModel(idle_node_watts=100.0,
                                                                 peak_node_watts=300.0))
        assert report.energy_joules == pytest.approx(100.0 * 100 * HOUR)
        assert report.proportional_joules == pytest.approx(0.0)
        assert report.proportionality_gap == pytest.approx(1.0)
        assert 1.0 - report.energy_joules / report.always_peak_joules == pytest.approx(2.0 / 3.0)

    def test_energy_bounded_by_references(self):
        metrics = metrics_with_samples([(0.0, 60), (HOUR, 500), (2 * HOUR, 30), (3 * HOUR, 30)])
        report = energy_from_metrics(metrics, CONFIG)
        assert report.proportional_joules <= report.energy_joules <= report.always_peak_joules
        assert 0.0 <= report.mean_utilization <= 1.0

    def test_requires_two_samples(self):
        metrics = SimulationMetrics(total_slots=600)
        observe_utilization(metrics, 0.0, 10)
        with pytest.raises(SimulationError):
            energy_from_metrics(metrics, CONFIG)

    def test_kwh_conversion(self):
        metrics = metrics_with_samples([(0.0, 600), (HOUR, 600)])
        report = energy_from_metrics(metrics, CONFIG, PowerModel(idle_node_watts=300.0,
                                                                 peak_node_watts=300.0))
        assert report.energy_kwh == pytest.approx(30.0)  # 30 kW for one hour

    @given(busy=st.lists(st.integers(min_value=0, max_value=600), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_energy_never_negative_and_bounded(self, busy):
        samples = [(float(hour) * HOUR, value) for hour, value in enumerate(busy)]
        metrics = metrics_with_samples(samples)
        report = energy_from_metrics(metrics, CONFIG)
        assert report.energy_joules >= 0.0
        assert report.energy_joules <= report.always_peak_joules + 1e-6


class TestPowerDownPolicy:
    def test_validation(self):
        with pytest.raises(SimulationError):
            PowerDownPolicy(min_nodes_fraction=0.0)
        with pytest.raises(SimulationError):
            PowerDownPolicy(min_nodes_fraction=1.5)
        with pytest.raises(SimulationError):
            PowerDownPolicy(headroom_fraction=-0.1)

    def test_bursty_load_saves_energy(self):
        # One busy hour followed by nine idle hours: the §5.2 shape.
        samples = [(0.0, 550)] + [(float(hour) * HOUR, 10) for hour in range(1, 10)]
        samples.append((10.0 * HOUR, 10))
        metrics = metrics_with_samples(samples)
        evaluation = evaluate_power_down(metrics, CONFIG)
        assert evaluation.policy_joules < evaluation.baseline_joules
        assert evaluation.savings_fraction > 0.3
        assert evaluation.mean_nodes_on < CONFIG.n_nodes

    def test_flat_full_load_saves_nothing(self):
        metrics = metrics_with_samples([(0.0, 600), (HOUR, 600), (2 * HOUR, 600)])
        evaluation = evaluate_power_down(metrics, CONFIG)
        assert evaluation.savings_fraction == pytest.approx(0.0, abs=0.02)
        assert evaluation.mean_nodes_on == pytest.approx(CONFIG.n_nodes)

    def test_min_nodes_floor_respected(self):
        samples = [(float(hour) * HOUR, 0) for hour in range(6)]
        metrics = metrics_with_samples(samples)
        policy = PowerDownPolicy(min_nodes_fraction=0.5)
        evaluation = evaluate_power_down(metrics, CONFIG, policy=policy)
        assert evaluation.mean_nodes_on >= 0.5 * CONFIG.n_nodes - 1e-6

    def test_transition_cost_reduces_savings(self):
        samples = []
        for hour in range(12):
            samples.append((float(hour) * HOUR, 500 if hour % 2 == 0 else 10))
        metrics = metrics_with_samples(samples)
        cheap = evaluate_power_down(metrics, CONFIG,
                                    policy=PowerDownPolicy(transition_energy_joules=0.0))
        expensive = evaluate_power_down(metrics, CONFIG,
                                        policy=PowerDownPolicy(transition_energy_joules=1e7))
        assert expensive.policy_joules > cheap.policy_joules
        assert expensive.transitions == cheap.transitions > 0


class TestEnergyOnReplayedWorkload:
    def test_end_to_end_with_replayer(self):
        jobs = [
            Job(job_id="j%d" % index, submit_time_s=index * 120.0, duration_s=60.0,
                input_bytes=1 * GB, shuffle_bytes=0.0, output_bytes=100e6,
                map_task_seconds=300.0, reduce_task_seconds=0.0, map_tasks=5, reduce_tasks=0)
            for index in range(30)
        ]
        trace = Trace(jobs, name="energy-e2e", machines=10)
        metrics = WorkloadReplayer(cluster_config=ClusterConfig(n_nodes=10)).replay(trace)
        report = energy_from_metrics(metrics, ClusterConfig(n_nodes=10))
        evaluation = evaluate_power_down(metrics, ClusterConfig(n_nodes=10))
        assert report.energy_joules > 0
        assert 0.0 <= evaluation.savings_fraction < 1.0
