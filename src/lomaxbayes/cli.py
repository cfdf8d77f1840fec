"""Command-line interface: fit a dataset or run a simulation study.

``lomaxbayes fit DATA`` writes three artifacts into the output directory:
``summary.json`` (posterior summaries and diagnostics), ``trace.csv``
(columns chain,draw_index,alpha,beta) and ``outliers.csv`` (columns
index,x,flagged, which marks the x above their 95th percentile).
``lomaxbayes simulate`` writes ``simulation.csv`` and prints the
aggregated table.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
propriety error.  Runs are reproducible: the same flags and seed yield
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .distribution import Dataset, LomaxParams
from .priors import ImproperPosteriorError, PriorKind
from .sampler import Chain, DegenerateDataError, McmcConfig, run_chains
from .simulation import ReplicateFit, StudyConfig, run_study, summarize_chains

__all__ = ["DataFormatError", "parse_dataset", "cmd_fit", "cmd_simulate", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUTDIR_ENV = "LOMAXBAYES_OUTDIR"

PRIOR_CHOICES = tuple(k.value for k in PriorKind)


class DataFormatError(ValueError):
    """Input file violates the one-value-per-line dataset format."""


# exception classes -> (message label, exit code); the first match wins
_ERRORS = (
    ((DataFormatError, OSError), "data error", EXIT_DATA),
    ((ImproperPosteriorError, DegenerateDataError), "numerical error", EXIT_NUMERIC),
    # a run too long to allocate its draws (--iters 1e14), refused before any output
    ((ValueError, MemoryError), "invalid configuration", EXIT_USAGE),
)


def parse_dataset(path) -> Dataset:
    """Read a dataset: one nonnegative real per line.

    Blank lines and lines starting with ``#`` are ignored; a
    single-column CSV with one optional header row is accepted too.  The
    first value line is that header only if some whitespace-separated
    token in it is not a number.
    """
    values: list[float] = []
    saw_candidate = False
    try:
        # utf-8-sig drops a leading byte-order mark, which would pass for a header
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = [f.strip() for f in line.split(",") if f.strip()]
                if len(fields) != 1:
                    raise DataFormatError(
                        f"{path}: line {lineno}: expected one value, got {len(fields)}"
                    )
                first_candidate = not saw_candidate
                saw_candidate = True
                try:
                    value = float(fields[0])
                except ValueError:
                    if first_candidate and not all(map(_is_float, fields[0].split())):
                        continue  # header row
                    raise DataFormatError(
                        f"{path}: line {lineno}: unparsable value {fields[0]!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(f"{path}: line {lineno}: non-finite value")
                if value < 0.0:
                    raise DataFormatError(f"{path}: line {lineno}: negative value {value}")
                values.append(value)
    except UnicodeDecodeError as exc:
        # a ValueError, which would otherwise read as a usage error
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
    if not values:
        raise DataFormatError(f"{path}: empty dataset")
    return Dataset(np.array(values))


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _sig6(value: float):
    """Float reduced to 6 significant digits for the summary JSON."""
    if value is None or not math.isfinite(value):
        return None
    return float(f"{value:.6g}")


def _summary_payload(kind: PriorKind, d: Dataset, fit: ReplicateFit, seed: int) -> dict:
    payload = {
        "prior": kind.value,
        "n": d.n,
        "seed": seed,
        "acceptance_rate": _sig6(fit.accept_rate),
        "psrf": {"alpha": _sig6(fit.psrf_alpha), "beta": _sig6(fit.psrf_beta)},
    }
    for param in ("beta", "alpha"):
        payload[param] = {k: _sig6(v) for k, v in asdict(getattr(fit, param)).items()}
    return payload


def _write_trace_csv(path: Path, chains: tuple[Chain, ...]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("chain,draw_index,alpha,beta\n")
        for c in chains:
            for i, (a, b) in enumerate(zip(c.alpha.tolist(), c.beta.tolist())):
                fh.write(f"{c.chain_index},{i},{a!r},{b!r}\n")


def _write_outlier_csv(path: Path, d: Dataset) -> None:
    flagged = d.x > np.percentile(d.x, 95.0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,x,flagged\n")
        for i, (x, flag) in enumerate(zip(d.x.tolist(), flagged.tolist())):
            fh.write(f"{i},{x!r},{'true' if flag else 'false'}\n")


def _mcmc_config(args) -> McmcConfig:
    return McmcConfig(
        iterations=args.iters,
        burn_in=args.burnin,
        thin=args.thin,
        chains=args.chains,
        seed=args.seed,
    )


def _out_dir(value: str) -> Path:
    """``--out`` as a Path, if it and its nearest existing ancestor are directories."""
    out = Path(value)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {value}: {existing} is not a directory")
    return out


def _report_fields(values: dict, prefix: str = "") -> str:
    """``key=value`` pairs of one ``summary.json`` object, each value as JSON writes it."""
    return " ".join(f"{prefix}{k}={json.dumps(v)}" for k, v in values.items())


def cmd_fit(args) -> int:
    out = _out_dir(args.out)
    d = parse_dataset(args.data)
    kind = PriorKind(args.prior)
    cfg = _mcmc_config(args)
    chains = run_chains(d, kind, cfg)

    out.mkdir(parents=True, exist_ok=True)
    summary = _summary_payload(kind, d, summarize_chains(chains), cfg.seed)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    _write_trace_csv(out / "trace.csv", chains)
    _write_outlier_csv(out / "outliers.csv", d)

    print(f"prior={kind.value} n={d.n} seed={cfg.seed}")
    for param in ("beta", "alpha"):
        print(f"  {param}: {_report_fields(summary[param])}")
    print(f"  acceptance_rate={json.dumps(summary['acceptance_rate'])} "
          f"{_report_fields(summary['psrf'], 'psrf.')}")
    print(f"artifacts written to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    out = _out_dir(args.out)
    kinds = (PriorKind(args.prior),) if args.prior else StudyConfig.priors
    study = StudyConfig(
        true_params=LomaxParams(beta=args.beta, alpha=args.alpha),
        sample_sizes=tuple(args.sizes),
        replications=args.replications,
        priors=kinds,
        mcmc=_mcmc_config(args),
        seed=args.seed,
    )
    report = run_study(study, progress=not args.quiet)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "simulation.csv", "w", encoding="utf-8", newline="") as fh:
        report.to_csv(fh)
    print(report.table())
    print(f"artifacts written to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_mcmc_flags(p, defaults: McmcConfig):
    p.add_argument(
        "--iters", type=int, default=defaults.iterations,
        help="total iterations per chain; the shape step's random walk on log alpha "
        "has scale 1.5/sqrt(n), set from the data",
    )
    p.add_argument("--burnin", type=int, default=defaults.burn_in, help="discarded initial iterations")
    p.add_argument("--thin", type=int, default=defaults.thin, help="keep every thin-th draw")
    p.add_argument(
        "--chains", type=int, default=defaults.chains,
        help="number of chains; with 2 or more usable CPUs, chain 0 runs in this process "
        "and the others in forked ones, up to one process per CPU; simulate runs each "
        "replicate's chains one after another when it spreads its replicates over processes",
    )
    p.add_argument("--seed", type=int, default=defaults.seed, help="non-negative master seed")
    p.add_argument(
        "--out",
        default=os.environ.get(OUTDIR_ENV, "."),
        help=f"output directory (default from ${OUTDIR_ENV}, else '.')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lomaxbayes",
        description="Objective Bayesian inference for the Lomax distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", parents=[], help="fit a dataset from a file")
    fit.add_argument("data", help="dataset file: one value per line (or 1-column CSV)")
    fit.add_argument("--prior", choices=PRIOR_CHOICES, default="jeffreys",
                     help="objective prior (default: jeffreys, the only one with a proper posterior)")
    _add_mcmc_flags(fit, McmcConfig(iterations=80000, burn_in=20000, thin=20))
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run a Monte Carlo bias/rmse study")
    sim.add_argument(
        "--prior", choices=PRIOR_CHOICES, default=None,
        help=f"restrict to one prior (default: {', '.join(k.value for k in StudyConfig.priors)}); "
        "the reference posterior, under 1/(alpha beta), is improper as beta -> inf at every n",
    )
    sim.add_argument(
        "--replications", type=int, default=StudyConfig.replications, help="datasets per cell"
    )
    sim.add_argument(
        "--sizes", type=int, nargs="+", default=list(StudyConfig.sample_sizes),
        help="sample sizes",
    )
    sim.add_argument("--beta", type=float, default=2.0, help="true scale")
    sim.add_argument("--alpha", type=float, default=1.5, help="true shape")
    sim.add_argument("--quiet", action="store_true", help="suppress progress lines")
    _add_mcmc_flags(sim, StudyConfig.mcmc)
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        # run_study wraps a replicate's error, so its cause may decide the exit code
        for err in (exc, exc.__cause__):
            for types, label, code in _ERRORS:
                if isinstance(err, types):
                    print(f"lomaxbayes: {label}: {exc}", file=sys.stderr)
                    return code
        raise


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
