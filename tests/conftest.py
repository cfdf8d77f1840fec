"""Fixtures shared by the test modules."""

import pytest

from lomaxbayes import sampler


@pytest.fixture
def process_pools(monkeypatch) -> list:
    """The w of each ``sampler._fork_map`` call in this process that forks
    (w > 1, with 2 or more items), in order, whichever module makes it.

    A forked worker's own calls run in its process, so they are not listed;
    inside an item of a map that forks, ``_fork_width`` gives 1 anyway."""
    widths = []
    fork_map = sampler._fork_map

    def spy(fn, items, w):
        items = list(items)
        if min(w, len(items)) > 1:
            widths.append(w)
        return fork_map(fn, items, w)

    monkeypatch.setattr(sampler, "_fork_map", spy)
    return widths
