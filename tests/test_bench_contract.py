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
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _refuse(constant):
    raise ValueError(f"the result line holds {constant}, which is not JSON")


# a fit through the CLI and the study through run_study, at a seed other
# than the one the CI step runs
@pytest.mark.parametrize("workload", ["fit-n500", "study-n50"])
def test_traced_run_reports_every_per_layer_metric_as_finite(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "2", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1], parse_constant=_refuse)
    assert last["correct"] is True, done.stdout

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = last["metrics"]
    assert [name for name in declared if name not in metrics] == [], done.stdout
    not_finite = {name: metrics[name]["value"] for name in declared
                  if not math.isfinite(metrics[name]["value"])}
    assert not_finite == {}
