import os

import pytest

import netchange.pipeline


@pytest.fixture
def usable_cpus(monkeypatch):
    """`usable_cpus(k)` lets `detect` and `evaluate` map over k processes.

    The process sees k usable CPUs, whatever the machine has, and counts as
    running one thread, whatever its BLAS runs.
    """

    def see(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(netchange.pipeline, "_thread_count", lambda: 1)

    return see
