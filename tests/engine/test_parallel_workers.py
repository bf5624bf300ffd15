"""How many workers a fan-out uses, and that a pooled map keeps task order."""

import multiprocessing

import pytest

from repro.engine import ParallelExecutor


@pytest.mark.parametrize("processes, n_tasks, workers", [
    (None, 1, 1),
    (None, 0, 1),
    (2, 5, 2),
    (4, 2, 2),
    (1, 10, 1),
])
def test_effective_workers_are_bounded_by_tasks_and_request(processes, n_tasks, workers):
    assert ParallelExecutor(processes=processes).effective_workers(n_tasks) == workers


def test_effective_workers_default_to_the_cpu_count():
    many = 10 * multiprocessing.cpu_count()
    assert ParallelExecutor().effective_workers(many) == multiprocessing.cpu_count()


def test_map_of_no_tasks_is_empty():
    assert ParallelExecutor(processes=2).map(abs, []) == []


@pytest.mark.parametrize("processes", [1, 2])
def test_map_returns_results_in_task_order(processes):
    tasks = [-5, 3, -1, 8, -2]
    assert ParallelExecutor(processes=processes).map(abs, tasks) == [5, 3, 1, 8, 2]
