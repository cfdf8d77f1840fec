"""Benchmark of lomaxbayes: run one workload at one seed and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fit-n500 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it makes untimed set-up measurements and then timed calls
of the workload until ``--seconds`` have passed, and prints the end-to-end
metrics.  With ``--trace 1`` it makes one untraced and one traced pass over
the same inputs, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from the checkout's ``src/``; it need not be
installed.  Every output goes to a temporary directory inside the checkout
that is removed at the end, and no bytecode is written.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 5
SETUP_STATEMENT = "import lomaxbayes, lomaxbayes.cli"


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def setup_seconds(env: dict) -> float:
    """Median time for a fresh interpreter to import the package and its CLI."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-B", "-c", SETUP_STATEMENT], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def provenance() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "lomaxbayes").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lomaxbayes" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'lomaxbayes'}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(workdir))
    os.environ.update(PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(workdir))
    sys.path.insert(0, str(SRC))
    try:
        return run(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, workdir: Path, env: dict) -> int:
    import lomaxbayes
    import workloads as w

    if Path(lomaxbayes.__file__).resolve().parent != SRC / "lomaxbayes":
        print(f"perfbench: imported lomaxbayes from {lomaxbayes.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    res = w.Outcome()
    if args.trace:
        if args.workload in w.FITS:
            w.traced_fit(args.workload, workdir, args.seed, res)
        else:
            w.traced_study(args.seed, res)
    else:
        setup = setup_seconds(env)
        if args.workload in w.FITS:
            w.run_fit(args.workload, workdir, args.seed, args.seconds, res)
        else:
            w.run_study_workload(args.seed, args.seconds, res)
        res.put("setup_s", setup, "s")
        res.put("peak_rss_mb", peak_rss_mb(), "MB")

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **provenance()}))
    for note in res.notes:
        print(f"# {note}")
    if res.attempted:
        print(f"fail_frac = {res.failed / res.attempted:.4g} ({res.failed}/{res.attempted} calls)")
    for name, m in sorted(res.metrics.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = res.failed == 0 and res.identical
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
