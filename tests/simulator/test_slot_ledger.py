"""The replay engine's slot accounting: two counters per slot kind."""

from repro.simulator import ClusterConfig
from repro.simulator.cluster import SlotLedger

CONFIG = ClusterConfig(n_nodes=3, map_slots_per_node=2, reduce_slots_per_node=1)


def test_capacity_comes_from_the_cluster_config():
    ledger = SlotLedger(CONFIG)
    assert (ledger.map_capacity, ledger.reduce_capacity) == (6, 3)
    assert ledger.total_busy_slots() == 0


def test_total_busy_slots_counts_both_kinds():
    ledger = SlotLedger(CONFIG)
    ledger.busy_map, ledger.busy_reduce = 4, 2
    assert ledger.total_busy_slots() == 6
