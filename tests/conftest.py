import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Let this process use two CPUs, so that a pool of two workers is
    allowed on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The number of processes forked so far, in a one-item list."""
    count = [0]
    fork = os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count
