"""Fixtures shared by the test modules."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from swarmdescent import harness


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker count of every process pool the harness starts during the test, in order."""
    started = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return started
