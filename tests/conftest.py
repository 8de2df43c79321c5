import concurrent.futures
import sys

import pytest


@pytest.fixture(autouse=True)
def unblock_openssl():
    """Undo the OpenSSL block of ``experiments.prepare_engine_process`` where a
    test ran it in pytest's own process, so no later test inherits it; a
    ``_hashlib`` loaded or blocked before the test stays as it was."""
    had = "_hashlib" in sys.modules
    yield
    if not had and "_hashlib" in sys.modules and sys.modules["_hashlib"] is None:
        del sys.modules["_hashlib"]


@pytest.fixture
def serial_pool(monkeypatch):
    """A process pool that runs its tasks in this process, in order, and
    runs no initializer; the list of ``(max_workers, initializer)`` of each
    pool started."""
    started = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            started.append((max_workers, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    # _run imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started
