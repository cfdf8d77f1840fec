"""Spans around calls into the lomaxbayes package, recorded from outside it.

``Spans.wrap`` replaces a package function by a timing wrapper wherever a
module of the package holds a reference to it (``from .x import f`` makes
such copies), and ``Spans.close`` puts the originals back.  A function that
no longer exists is listed in ``missing`` instead of failing, so metrics that
depend on it can be reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "lomaxbayes"


class Spans:
    def __init__(self):
        self.starts: dict[str, array] = {}
        self.ends: dict[str, array] = {}
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def wrap(self, label: str, module: str, name: str, on_result=None) -> None:
        """Record the start and end of every call of ``module.name`` under ``label``.

        ``on_result``, when given, receives the return value of every call.
        """
        orig = getattr(importlib.import_module(module), name, None)
        if not callable(orig):
            self.missing.append(label)
            return
        starts, ends = self.starts.setdefault(label, array("d")), self.ends.setdefault(label, array("d"))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = orig(*args, **kwargs)
            ends.append(clock())
            starts.append(t0)
            if on_result is not None:
                on_result(out)
            return out

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def close(self) -> None:
        """Restore every wrapped function."""
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def has(self, label: str) -> bool:
        return label in self.starts and len(self.starts[label]) > 0

    def durations(self, label: str) -> np.ndarray:
        """Durations in seconds of every recorded call under ``label``."""
        return np.array(self.ends[label]) - np.array(self.starts[label])

    def total(self, label: str) -> float:
        return float(self.durations(label).sum()) if self.has(label) else 0.0
