"""Cluster energy model (§5.2 of the paper).

The paper's burstiness analysis concludes that "mechanisms for conserving
energy will be beneficial during periods of low utilization": peak-to-median
load ratios of 9:1 to 260:1 mean the cluster spends most hours far below its
provisioned capacity.  This module turns that remark into measurable
quantities on top of the replay simulator's utilization samples:

* :class:`PowerModel` — a standard linear node power model (idle watts plus a
  utilization-proportional active component), the same shape used by the
  power-management studies the paper cites (Sierra, power management of
  online data-intensive services).
* :func:`energy_from_metrics` — integrate the replay's slot-occupancy step
  function into energy, and compare against two reference points: an
  always-on cluster at peak power, and a hypothetical perfectly
  energy-proportional cluster.
* :class:`PowerDownPolicy` / :func:`evaluate_power_down` — estimate the
  additional savings from powering nodes off when utilization stays below a
  threshold, including the cost of keeping a minimum node count up for data
  availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .cluster import ClusterConfig
from .metrics import SimulationMetrics

__all__ = [
    "PowerModel",
    "EnergyReport",
    "energy_from_metrics",
    "PowerDownPolicy",
    "PowerDownEvaluation",
    "evaluate_power_down",
]

#: Joules per kilowatt-hour, for human-readable reporting.
JOULES_PER_KWH = 3.6e6


@dataclass(frozen=True)
class PowerModel:
    """Linear per-node power model.

    Node power = ``idle_node_watts`` + busy-slot fraction × (``peak_node_watts``
    − ``idle_node_watts``).  Typical servers of the paper's era idle at roughly
    half their peak power, which is what the defaults encode.

    Attributes:
        idle_node_watts: power drawn by an idle (but powered-on) node.
        peak_node_watts: power drawn by a node with every slot busy.
        powered_off_watts: residual draw of a powered-off node (0 by default).
    """

    idle_node_watts: float = 150.0
    peak_node_watts: float = 300.0
    powered_off_watts: float = 0.0

    def __post_init__(self):
        if self.idle_node_watts < 0 or self.peak_node_watts < 0 or self.powered_off_watts < 0:
            raise SimulationError("power values must be non-negative")
        if self.peak_node_watts < self.idle_node_watts:
            raise SimulationError("peak power must be at least idle power")

    def cluster_power_watts(self, busy_slots: float, config: ClusterConfig) -> float:
        """Instantaneous cluster power with every node powered on.

        Busy slots are assumed spread evenly across nodes, which matches the
        simulator's rotating-cursor placement.
        """
        if busy_slots < 0:
            raise SimulationError("busy slot count must be non-negative")
        fraction = min(1.0, busy_slots / float(config.total_slots))
        per_node = self.idle_node_watts + fraction * (self.peak_node_watts - self.idle_node_watts)
        return per_node * config.n_nodes


@dataclass
class EnergyReport:
    """Energy accounting for one replay.

    Attributes:
        horizon_s: simulated time span the energy was integrated over.
        energy_joules: energy consumed under the linear power model with all
            nodes always on.
        always_peak_joules: energy of a cluster pinned at peak power
            (the provisioning-for-peak reference point).
        proportional_joules: energy of a hypothetical perfectly
            energy-proportional cluster (power scales linearly from zero with
            utilization) — the lower bound the paper's burstiness numbers make
            attractive.
        mean_power_watts: time-averaged power.
        mean_utilization: time-averaged slot utilization.
    """

    horizon_s: float
    energy_joules: float
    always_peak_joules: float
    proportional_joules: float
    mean_power_watts: float
    mean_utilization: float

    @property
    def energy_kwh(self) -> float:
        return self.energy_joules / JOULES_PER_KWH

    @property
    def proportionality_gap(self) -> float:
        """Fraction of consumed energy that a proportional cluster would avoid."""
        if self.energy_joules <= 0:
            return 0.0
        return 1.0 - self.proportional_joules / self.energy_joules


def _utilization_steps(metrics: SimulationMetrics) -> List[Tuple[float, float, float]]:
    """Return (start, end, busy_slots) steps of the replay's occupancy.

    Delegates to :meth:`SimulationMetrics.utilization_steps`: sample-exact
    when the replay retained its utilization samples, reconstructed at hour
    granularity from the incremental accumulator for streaming replays.
    """
    return metrics.utilization_steps()


def energy_from_metrics(metrics: SimulationMetrics, config: ClusterConfig,
                        power: Optional[PowerModel] = None) -> EnergyReport:
    """Integrate a replay's slot-occupancy step function into an energy report.

    Raises:
        SimulationError: when the metrics carry fewer than two utilization
            samples (nothing to integrate).
    """
    power = power or PowerModel()
    steps = _utilization_steps(metrics)
    horizon = steps[-1][1] - steps[0][0]

    energy = 0.0
    proportional = 0.0
    busy_slot_seconds = 0.0
    for start, end, busy in steps:
        span = end - start
        energy += power.cluster_power_watts(busy, config) * span
        fraction = min(1.0, busy / float(config.total_slots))
        proportional += power.peak_node_watts * config.n_nodes * fraction * span
        busy_slot_seconds += busy * span

    always_peak = power.peak_node_watts * config.n_nodes * horizon
    mean_utilization = busy_slot_seconds / (horizon * config.total_slots) if horizon > 0 else 0.0
    return EnergyReport(
        horizon_s=horizon,
        energy_joules=energy,
        always_peak_joules=always_peak,
        proportional_joules=proportional,
        mean_power_watts=energy / horizon if horizon > 0 else 0.0,
        mean_utilization=mean_utilization,
    )


@dataclass(frozen=True)
class PowerDownPolicy:
    """Power nodes off when the workload leaves them idle.

    The policy keeps exactly as many nodes on as the current slot demand
    requires (rounded up), plus a safety margin, and never drops below
    ``min_nodes_on`` — the covering subset that must stay up so every HDFS
    block keeps at least one live replica (the Sierra/Rabbit-style argument).

    Attributes:
        min_nodes_fraction: minimum fraction of nodes that must stay powered on.
        headroom_fraction: extra fraction of currently-needed nodes kept on to
            absorb short bursts without waiting for node wake-up.
        transition_energy_joules: energy charged for every node power state
            transition (wake or sleep).
    """

    min_nodes_fraction: float = 0.34
    headroom_fraction: float = 0.10
    transition_energy_joules: float = 5000.0

    def __post_init__(self):
        if not 0.0 < self.min_nodes_fraction <= 1.0:
            raise SimulationError("min_nodes_fraction must be in (0, 1]")
        if self.headroom_fraction < 0:
            raise SimulationError("headroom_fraction must be non-negative")
        if self.transition_energy_joules < 0:
            raise SimulationError("transition energy must be non-negative")


@dataclass
class PowerDownEvaluation:
    """Result of applying a :class:`PowerDownPolicy` to a replay.

    Attributes:
        baseline_joules: energy with all nodes always on (linear model).
        policy_joules: energy with the power-down policy applied.
        savings_fraction: fractional saving of the policy over the baseline.
        mean_nodes_on: time-averaged number of powered-on nodes.
        transitions: number of node power state transitions charged.
    """

    baseline_joules: float
    policy_joules: float
    savings_fraction: float
    mean_nodes_on: float
    transitions: int


def evaluate_power_down(metrics: SimulationMetrics, config: ClusterConfig,
                        power: Optional[PowerModel] = None,
                        policy: Optional[PowerDownPolicy] = None) -> PowerDownEvaluation:
    """Estimate the savings of powering idle nodes down during low utilization.

    The evaluation is optimistic about wake-up latency (demand is assumed
    known one step ahead) but charges ``transition_energy_joules`` per node
    transition, so rapid oscillation is penalized.  The point is the *shape*
    comparison the paper motivates: bursty workloads with low median load have
    a large powered-down fraction most of the time.

    Raises:
        SimulationError: when the metrics carry fewer than two utilization samples.
    """
    power = power or PowerModel()
    policy = policy or PowerDownPolicy()
    steps = _utilization_steps(metrics)
    slots_per_node = config.map_slots_per_node + config.reduce_slots_per_node
    min_nodes = max(1, int(np.ceil(policy.min_nodes_fraction * config.n_nodes)))

    baseline = 0.0
    with_policy = 0.0
    node_seconds_on = 0.0
    transitions = 0
    previous_nodes_on: Optional[int] = None
    for start, end, busy in steps:
        span = end - start
        baseline += power.cluster_power_watts(busy, config) * span

        needed = int(np.ceil(busy / slots_per_node)) if busy > 0 else 0
        nodes_on = min(config.n_nodes,
                       max(min_nodes, int(np.ceil(needed * (1.0 + policy.headroom_fraction)))))
        if previous_nodes_on is not None and nodes_on != previous_nodes_on:
            transitions += abs(nodes_on - previous_nodes_on)
            with_policy += policy.transition_energy_joules * abs(nodes_on - previous_nodes_on)
        previous_nodes_on = nodes_on

        on_config_fraction = min(1.0, busy / float(max(1, nodes_on * slots_per_node)))
        per_node = power.idle_node_watts + on_config_fraction * (
            power.peak_node_watts - power.idle_node_watts)
        with_policy += (per_node * nodes_on
                        + power.powered_off_watts * (config.n_nodes - nodes_on)) * span
        node_seconds_on += nodes_on * span

    horizon = steps[-1][1] - steps[0][0]
    savings = 1.0 - with_policy / baseline if baseline > 0 else 0.0
    return PowerDownEvaluation(
        baseline_joules=baseline,
        policy_joules=with_policy,
        savings_fraction=savings,
        mean_nodes_on=node_seconds_on / horizon if horizon > 0 else 0.0,
        transitions=transitions,
    )
