"""The benchmark's contract with the package: a traced run reports every per-layer metric.

``perfbench/run.py --trace 1`` times the sampler stages by wrapping
``run_chain``, ``sample_lambda``, ``sample_beta`` and ``_mh_step_alpha``
where the package calls them, in the process that runs the chains.  A change
that renames or inlines one of them, or moves it into another process,
drops metrics that ``BENCHMARK.json`` declares.  The result is the last
line of standard output, written by ``json.dumps``, which spells a
non-finite float ``NaN`` or ``Infinity``; a strict JSON reader refuses both.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _refuse(constant):
    raise ValueError(f"the result line holds {constant}, which is not JSON")


def _reap_session(sid: int, grace_s: float = 5.0) -> None:
    """Fail unless every process of session ``sid`` is gone within ``grace_s``; kill any left."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(sid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(sid, signal.SIGKILL)
            pytest.fail(f"a process of run.py's session {sid} outlived run.py by {grace_s} s")
        time.sleep(0.05)


# a fit through the CLI and the study through run_study, at a seed other
# than the one the CI step runs
@pytest.mark.parametrize("workload", ["fit-n500", "study-n50"])
def test_traced_run_reports_every_per_layer_metric_as_finite(workload, tmp_path):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "2", "--seconds", "1", "--trace", "1"]
    # run.py leads a session of its own, so a process it leaves behind (one
    # that could print after the result line) is found by its group; the
    # output goes to files, which such a process cannot hold open against us
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as fout, open(err, "w") as ferr:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=fout, stderr=ferr, start_new_session=True)
        try:
            returncode = proc.wait(timeout=600)
        finally:
            _reap_session(proc.pid)
    stdout = out.read_text()
    assert returncode == 0, err.read_text()
    last = json.loads(stdout.splitlines()[-1], parse_constant=_refuse)
    assert last["correct"] is True, stdout

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = last["metrics"]
    assert [name for name in declared if name not in metrics] == [], done.stdout
    not_finite = {name: metrics[name]["value"] for name in declared
                  if not math.isfinite(metrics[name]["value"])}
    assert not_finite == {}
