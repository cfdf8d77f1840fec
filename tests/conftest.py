"""Fixtures shared by the test modules."""

import pytest

from lomaxbayes import sampler


@pytest.fixture
def process_pools(monkeypatch) -> list:
    """The max_workers of every process pool run_chains builds in this process."""
    pools = []

    class SpyPool(sampler.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(sampler, "ProcessPoolExecutor", SpyPool)
    return pools
