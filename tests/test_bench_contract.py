"""The benchmark's contract with the package: every run reports what BENCHMARK.json declares.

``perfbench/run.py`` prints its result as the last line of standard
output, written by ``json.dumps``, which spells a non-finite float ``NaN``
or ``Infinity``; a strict JSON reader refuses both.  An untraced run
(``--trace 0``, the one the benchmark gates) must report every
``end_to_end`` metric, and a traced run every ``per_layer`` one.

``--trace 1`` times the sampler stages by wrapping ``run_chain``,
``sample_lambda``, ``sample_beta`` and ``_mh_step_alpha`` where the package
calls them, in the process that runs the chains.  A change that renames or
inlines one of them, or moves it into another process, drops metrics that
``BENCHMARK.json`` declares.

This module is the one check of that contract.  It runs every workload
both ways, six runs of one second each, at seed 2: the contract is about
which metrics a run reports and whether they are finite, not their values.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = [(w["name"], trace) for trace in (0, 1) for w in BENCHMARK["workloads"]]


@dataclass(frozen=True)
class Run:
    returncode: int
    stdout: str
    stderr: str
    stray: str | None  # why a process of the run's session outlived it, if one did


def _refuse(constant):
    raise ValueError(f"the result line holds {constant}, which is not JSON")


def _reap_session(sid: int, grace_s: float = 5.0) -> str | None:
    """None once every process of session ``sid`` is gone; after ``grace_s``,
    kill any left and say so."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(sid, 0)
        except ProcessLookupError:
            return None
        if time.monotonic() > deadline:
            os.killpg(sid, signal.SIGKILL)
            return f"a process of run.py's session {sid} outlived run.py by {grace_s} s"
        time.sleep(0.05)


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """The six runs, all started before any is waited on.

    Each run.py leads a session of its own, so a process it leaves behind
    (one that could print after the result line) is found by its group; the
    output goes to files, which such a process cannot hold open against us.
    Concurrent runs share ``.perfbench-tmp``, which run.py removes only once
    it is empty; each run makes its own directory there before its first
    import, long before the shortest run ends.
    """
    base = tmp_path_factory.mktemp("bench")
    procs = {}
    try:
        for workload, trace in RUNS:
            argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", "2", "--seconds", "1", "--trace", str(trace)]
            with open(base / f"{workload}-{trace}.out", "w") as fout, \
                    open(base / f"{workload}-{trace}.err", "w") as ferr:
                procs[workload, trace] = subprocess.Popen(
                    argv, cwd=ROOT, stdout=fout, stderr=ferr, start_new_session=True)
        codes = {key: proc.wait(timeout=600) for key, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        strays = {key: _reap_session(proc.pid) for key, proc in procs.items()}
    return {
        (workload, trace): Run(codes[workload, trace],
                               (base / f"{workload}-{trace}.out").read_text(),
                               (base / f"{workload}-{trace}.err").read_text(),
                               strays[workload, trace])
        for workload, trace in RUNS
    }


@pytest.mark.parametrize("workload, trace", RUNS, ids=[f"{w}-trace{t}" for w, t in RUNS])
def test_run_reports_every_declared_metric_as_finite(runs, workload, trace):
    run = runs[workload, trace]
    assert run.stray is None, run.stray
    assert run.returncode == 0, run.stderr
    assert run.stdout, "no result line"
    last = json.loads(run.stdout.splitlines()[-1], parse_constant=_refuse)

    kind = "per_layer" if trace else "end_to_end"
    metrics = last["metrics"]
    missing = [m["name"] for m in BENCHMARK[kind] if m["name"] not in metrics]
    assert missing == [], f"{kind} metrics not reported: {', '.join(missing)}\n{run.stdout}"
    not_finite = {name: m["value"] for name, m in metrics.items() if not math.isfinite(m["value"])}
    assert not_finite == {}
    assert last["correct"] is True, run.stdout
