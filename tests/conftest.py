"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

from lomaxbayes import sampler

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def src_env() -> dict:
    """The environment of a child Python that imports lomaxbayes from this
    checkout's ``src``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


@pytest.fixture
def process_pools(monkeypatch) -> list:
    """The w of each ``sampler._fork_map`` call in this process that forks
    (w > 1), in order, whichever module makes it: the results of
    ``_fork_width``, which the map alone calls.

    A forked worker's own calls run in its process, so they are not listed;
    inside an item of a map that forks, ``_fork_width`` gives 1 anyway."""
    widths = []
    fork_width = sampler._fork_width

    def spy(k):
        w = fork_width(k)
        if w > 1:
            widths.append(w)
        return w

    monkeypatch.setattr(sampler, "_fork_width", spy)
    return widths
