"""Seeded inputs: one seed gives the same jobs and inputs, another seed
different ones, and the size schedules hold every size the workloads name."""

from __future__ import annotations

import itertools

import pytest

import run
import workloads


def _fingerprint(workload: str, seed: int, count: int = 20):
    files: dict[str, str] = {}
    jobs = []
    for new_files, new_jobs in itertools.islice(workloads.data(workload, seed), count):
        assert not files.keys() & new_files.keys()
        files.update(new_files)
        jobs.extend((j.kind, j.argv, j.datum, j.reads) for j in new_jobs)
    return run.digest(*(f"{name}\n{files[name]}" for name in sorted(files))), jobs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_and_inputs(workload):
    first = _fingerprint(workload, 3)
    assert _fingerprint(workload, 3) == first
    assert _fingerprint(workload, 4)[0] != first[0]


def test_schedules_hold_every_size_the_workloads_name():
    assert set(workloads.BETTI_SIZES) == set(range(6, 17))
    assert {n for f, n in workloads.KERNEL_SIZES if f == "cp"} == set(range(4, 11))
    assert {n for f, n in workloads.KERNEL_SIZES if f == "s"} == {3, 4, 5}
    assert {n for f, n in workloads.QUERY_SIZES if f == "s"} == {4, 5}
    assert max(n for f, n in workloads.QUERY_SIZES if f == "cp") == 20
