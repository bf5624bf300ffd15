"""The vectorized engine's slot accounting: two counters per slot kind that
refuse to over-commit or over-release."""

import pytest

from repro.errors import SimulationError
from repro.simulator import ClusterConfig
from repro.simulator.cluster import SlotLedger

CONFIG = ClusterConfig(n_nodes=3, map_slots_per_node=2, reduce_slots_per_node=1)
CAPACITY = {"map": 6, "reduce": 3}


def test_capacity_comes_from_the_cluster_config():
    ledger = SlotLedger(CONFIG)
    assert (ledger.map_capacity, ledger.reduce_capacity) == (6, 3)
    assert ledger.total_busy_slots() == 0


@pytest.mark.parametrize("kind", ["map", "reduce"])
def test_acquire_and_release_move_free_slots(kind):
    ledger = SlotLedger(CONFIG)
    ledger.acquire(kind, 2)
    assert ledger.free_slots(kind) == CAPACITY[kind] - 2
    ledger.release(kind)
    assert ledger.free_slots(kind) == CAPACITY[kind] - 1


@pytest.mark.parametrize("kind", ["map", "reduce"])
def test_acquiring_more_slots_than_exist_raises(kind):
    ledger = SlotLedger(CONFIG)
    ledger.acquire(kind, CAPACITY[kind])
    assert ledger.free_slots(kind) == 0
    with pytest.raises(SimulationError, match="more %s slots than exist" % kind):
        ledger.acquire(kind)


@pytest.mark.parametrize("kind", ["map", "reduce"])
def test_releasing_an_unacquired_slot_raises(kind):
    ledger = SlotLedger(CONFIG)
    ledger.acquire(kind)
    with pytest.raises(SimulationError, match="released a %s slot" % kind):
        ledger.release(kind, 2)


def test_total_busy_slots_counts_both_kinds():
    ledger = SlotLedger(CONFIG)
    ledger.acquire("map", 4)
    ledger.acquire("reduce", 2)
    assert ledger.total_busy_slots() == 6


@pytest.mark.parametrize("call", [
    lambda ledger: ledger.free_slots("shuffle"),
    lambda ledger: ledger.acquire("shuffle"),
    lambda ledger: ledger.release("shuffle"),
], ids=["free_slots", "acquire", "release"])
def test_unknown_slot_kind_is_rejected(call):
    with pytest.raises(SimulationError, match="unknown slot kind"):
        call(SlotLedger(CONFIG))
