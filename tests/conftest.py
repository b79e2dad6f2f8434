"""Fixtures shared by the test modules."""

import pytest

from swarmdescent import harness


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker count of every process pool the harness starts during the test, in order."""
    started = []
    start_pool = harness._process_pool

    def recording_pool(workers):
        started.append(workers)
        return start_pool(workers)

    monkeypatch.setattr(harness, "_process_pool", recording_pool)
    return started
