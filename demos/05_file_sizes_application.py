#!/usr/bin/env python3
"""End-to-end application: fit heavy-tailed file-size data through the CLI.

Uses ``data/ini_sizes.txt`` when the real dataset has been fetched (see
scripts/fetch_file_sizes.py), otherwise generates the clearly-marked
synthetic stand-in and fits that under the dependent Jeffreys prior;
artifacts land in ``out/application/jeffreys/``.  The 1/(alpha beta)
``reference`` prior is not fitted: its posterior is improper as beta -> inf.
"""

import json
import subprocess
import sys
from pathlib import Path

from lomaxbayes.cli import main

ROOT = Path(__file__).resolve().parents[1]

data = ROOT / "data" / "ini_sizes.txt"
if not data.exists():
    data = ROOT / "data" / "ini_sizes_synthetic.txt"
    if not data.exists():
        print("real dataset absent; generating the synthetic stand-in\n")
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "fetch_file_sizes.py"), "--synthetic"],
            check=True,
        )
print(f"dataset: {data}\n")

out = ROOT / "out" / "application" / "jeffreys"
code = main([
    "fit", str(data), "--prior", "jeffreys", "--out", str(out),
    "--iters", "30000", "--burnin", "5000", "--thin", "10",
    "--chains", "2", "--seed", "0",
])
if code != 0:
    sys.exit(code)
summary = json.loads((out / "summary.json").read_text())

print("\nposterior summaries under the dependent Jeffreys prior:")
print(f"{'param':>6} {'mean':>10} {'sd':>9} {'95% CI':>22}")
for param in ("beta", "alpha"):
    s = summary[param]
    ci = f"[{s['ci_low']:.4g}, {s['ci_high']:.4g}]"
    print(f"{param:>6} {s['mean']:10.4f} {s['sd']:9.4f} {ci:>22}")
print("\nalpha < 1 says the fitted law is so heavy-tailed that even its mean is infinite.")
