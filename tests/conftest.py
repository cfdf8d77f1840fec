"""Fixtures shared by the test modules."""

from concurrent.futures import ProcessPoolExecutor

import pytest


class _Pools(list):
    """The max_workers of each pool, in order; ``methods`` holds their start
    methods, None for a pool left to the platform's default."""

    def __init__(self):
        super().__init__()
        self.methods = []


@pytest.fixture
def process_pools(monkeypatch) -> _Pools:
    """Every process pool built in this process, whichever module builds it."""
    pools = _Pools()
    init = ProcessPoolExecutor.__init__

    def spy(self, max_workers=None, mp_context=None, *args, **kwargs):
        pools.append(max_workers)
        pools.methods.append(mp_context and mp_context.get_start_method())
        init(self, max_workers, mp_context, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", spy)
    return pools
