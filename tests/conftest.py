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
