"""Every demo runs to the end with no RuntimeWarning, writing only under a copy of the demos."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(tmp_path, src_env, demo):
    # a demo finds data/ and out/ next to its demos/ folder, so the copy keeps them here
    for folder in ("demos", "scripts"):
        shutil.copytree(ROOT / folder, tmp_path / folder,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(tmp_path / "demos" / demo.name)],
        cwd=tmp_path, env=src_env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    if demo.stem == "05_file_sizes_application":
        assert (tmp_path / "data" / "ini_sizes_synthetic.txt").exists()
        assert (tmp_path / "out" / "application" / "jeffreys" / "summary.json").exists()
