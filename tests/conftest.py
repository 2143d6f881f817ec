import os

import pytest

import netchange.evaluation


@pytest.fixture
def usable_cpus(monkeypatch):
    """`usable_cpus(k)` lets `evaluate` score its runs in k processes.

    The process sees k usable CPUs, whatever the machine has, and counts as
    running one thread, whatever its BLAS runs.
    """

    def see(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(netchange.evaluation, "_thread_count", lambda: 1)

    return see
