import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Four allowed CPUs whatever the machine has, and a count of the forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls
