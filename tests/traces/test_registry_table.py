"""The workload registry is a fixed table of the seven paper workloads."""

import pytest

from repro.errors import SpecError
from repro.traces import (
    DEFAULT_SCALES,
    PAPER_WORKLOAD_NAMES,
    load_all_paper_workloads,
    load_workload,
    registered_names,
)


def test_registered_names_are_the_paper_workloads_in_table_1_order():
    assert registered_names() == list(PAPER_WORKLOAD_NAMES)


def test_every_paper_workload_has_a_default_scale():
    assert set(DEFAULT_SCALES) == set(PAPER_WORKLOAD_NAMES)


def test_loading_an_unknown_workload_raises():
    with pytest.raises(SpecError, match="unknown workload 'nope'"):
        load_workload("nope")


def test_load_all_paper_workloads_applies_scale_then_overrides():
    traces = load_all_paper_workloads(seed=3, scale=0.001,
                                      scale_overrides={"CC-e": 0.01})
    assert list(traces) == list(PAPER_WORKLOAD_NAMES)
    assert len(traces["CC-e"]) == len(load_workload("CC-e", seed=3, scale=0.01))
    assert len(traces["CC-a"]) == len(load_workload("CC-a", seed=3, scale=0.001))
