"""The benchmark's workloads, their output checks and their metrics.

Every workload fits the dependent Jeffreys prior to Lomax data with true
beta = 2 and alpha = 1.5.  The end-to-end calls go only through the public
entry points ``lomaxbayes.cli.main`` and ``lomaxbayes.run_study``.  Why
these three workloads were chosen is written down in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ess import geyer_ess
from spans import Spans

BETA, ALPHA = 2.0, 1.5
PRIOR = "jeffreys"
CHAINS = 2
# |median - truth| of log alpha and log beta, in posterior SDs of the pooled
# log draws.  Missed by a correct sampler with probability of order 1e-8.
MEDIAN_TOLERANCE_SD = 6.0
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class FitSpec:
    n: int
    iters: int
    burnin: int
    thin: int

    @property
    def retained(self) -> int:
        return (self.iters - self.burnin) // self.thin

    def flags(self) -> list[str]:
        return ["--iters", str(self.iters), "--burnin", str(self.burnin),
                "--thin", str(self.thin), "--chains", str(CHAINS)]


# fit-n500 repeats the CLI defaults explicitly, so the work stays the same
# if those defaults change.
FITS = {
    "fit-n500": FitSpec(n=500, iters=80000, burnin=20000, thin=20),
    "fit-n5000": FitSpec(n=5000, iters=20000, burnin=5000, thin=5),
}
STUDY = "study-n50"
STUDY_N, STUDY_REPLICATIONS, STUDY_JOBS = 50, 20, 2
WORKLOADS = (*FITS, STUDY)


@dataclass
class Outcome:
    """What one run measured: calls attempted and failed, metrics, notes."""

    attempted: int = 0
    failed: int = 0
    identical: bool = True
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED {what}")


# ---------------------------------------------------------------- seeds

def call_seeds(seed: int, workload: str, k: int) -> tuple[np.random.SeedSequence, int]:
    """Dataset seed sequence and MCMC master seed of call ``k`` of a run."""
    ss = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(workload.encode()), k))
    data_ss, mcmc_ss = ss.spawn(2)
    return data_ss, int(mcmc_ss.generate_state(1, np.uint64)[0])


def chain_seeds(master: int, chains: int = CHAINS) -> list[int]:
    """Seeds the sampler gives its chains: chain i uses ``master XOR (i+1)``.

    Distinct masters can share chain seeds (0 and 3 both give {1, 2}), so
    the benchmark checks the chain seeds themselves, not the masters.
    """
    return [(master ^ (i + 1)) & _SEED_MASK for i in range(chains)]


def check_distinct_chain_seeds(masters) -> None:
    seeds = [s for m in masters for s in chain_seeds(m)]
    if len(set(seeds)) != len(seeds):
        raise RuntimeError(f"MCMC master seeds {list(masters)} share a chain seed")


def lomax_data(ss: np.random.SeedSequence, n: int) -> np.ndarray:
    """n Lomax(beta, alpha) variates by inverting the survival function."""
    u = 1.0 - np.random.default_rng(ss).random(n)
    return BETA * np.expm1(-np.log(u) / ALPHA)


# ---------------------------------------------------------------- checks

def read_trace(path: Path, spec: FitSpec) -> np.ndarray:
    """Draws of trace.csv as an array (chains, retained, 2) of (alpha, beta)."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "chain,draw_index,alpha,beta":
            raise ValueError("trace.csv header changed")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (CHAINS * spec.retained, 4):
        raise ValueError(f"trace.csv has shape {rows.shape}, "
                         f"expected ({CHAINS * spec.retained}, 4)")
    draws = rows[:, 2:]
    if not (np.all(np.isfinite(draws)) and np.all(draws > 0.0)):
        raise ValueError("trace.csv holds a draw that is not finite and positive")
    return draws.reshape(CHAINS, spec.retained, 2)


def check_fit(out: Path, rc: int, spec: FitSpec) -> np.ndarray:
    """Raise ValueError unless the fit's artifacts are complete and plausible."""
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    for name in ("summary.json", "trace.csv", "outliers.csv"):
        if not (out / name).is_file():
            raise ValueError(f"{name} missing")
    draws = read_trace(out / "trace.csv", spec)
    for j, (param, truth) in enumerate((("alpha", ALPHA), ("beta", BETA))):
        logs = np.log(draws[:, :, j]).ravel()
        z = abs(np.median(logs) - math.log(truth)) / logs.std()
        if not z <= MEDIAN_TOLERANCE_SD:
            raise ValueError(f"posterior median of {param} is {z:.1f} SD from the truth")
    return draws


def check_study_csv(text: str) -> None:
    rows = text.splitlines()[1:]
    if not rows:
        raise ValueError("simulation.csv has no rows")
    for row in rows:
        values = [float(v) for v in row.split(",")[3:]]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value in simulation.csv row {row!r}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ess_sums(chains) -> tuple[float, float]:
    """Geyer ESS of log alpha and of log beta, each summed over chains.

    On the log scale because E[beta | x] does not exist at small n under
    the Jeffreys prior, while log beta has all its moments.
    """
    chains = list(chains)
    ea = sum(geyer_ess(np.log(a)) for a, _ in chains)
    eb = sum(geyer_ess(np.log(b)) for _, b in chains)
    return ea, eb


# ---------------------------------------------------------------- fit

@dataclass
class FitCall:
    wall: float
    rc: int
    out: Path


def fit_call(name: str, workdir: Path, seed: int, k: int, tag: str = "") -> FitCall:
    """One ``lomaxbayes fit`` through ``cli.main`` on call k's generated data file."""
    from lomaxbayes.cli import main

    spec = FITS[name]
    data_ss, mcmc_seed = call_seeds(seed, name, k)
    data = workdir / f"data-{k}.txt"
    if not data.exists():
        data.write_text("".join(f"{v!r}\n" for v in lomax_data(data_ss, spec.n).tolist()))
    out = workdir / f"out-{k}{tag}"
    argv = ["fit", str(data), "--prior", PRIOR, "--seed", str(mcmc_seed),
            "--out", str(out), *spec.flags()]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - t0
    return FitCall(wall, rc, out)


def another_call_fits(t_start: float, seconds: float, durations: list) -> bool:
    """Whether one more call, as long as the median one so far, ends within the window."""
    expected = statistics.median(durations) if durations else 0.0
    return time.perf_counter() - t_start + expected <= seconds


def run_fit(name: str, workdir: Path, seed: int, seconds: float, res: Outcome) -> None:
    """Untraced fit calls, each on fresh data, for ``seconds``."""
    spec = FITS[name]
    walls, attempts, masters = [], [], []
    t_start = time.perf_counter()
    while another_call_fits(t_start, seconds, attempts):
        k = len(attempts)
        masters.append(call_seeds(seed, name, k)[1])
        check_distinct_chain_seeds(masters)
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            call = fit_call(name, workdir, seed, k)
            walls.append(call.wall)
            check_fit(call.out, call.rc, spec)
        except Exception as exc:  # a crash or a failed check fails the call
            res.fail(f"call {k}: {type(exc).__name__}: {exc}")
        else:
            if k == 0:
                res.notes.append(f"call 0 trace.csv sha256={file_sha256(call.out / 'trace.csv')}")
        attempts.append(time.perf_counter() - t0)
    res.notes.append(f"calls={len(attempts)} walls_s={[round(w, 3) for w in walls]}")
    res.put("wall_s", np.median(walls) if walls else 0.0, "s")


def _wrap_layers(sp: Spans) -> list:
    """Spans around every layer's public functions; returns the list that
    will hold every chain ``run_chain`` returns."""
    chains = []
    sp.wrap("sampler.chains", "lomaxbayes.sampler", "run_chains")
    sp.wrap("sampler.chain", "lomaxbayes.sampler", "run_chain", on_result=chains.append)
    sp.wrap("sampler.lambda", "lomaxbayes.sampler", "sample_lambda")
    sp.wrap("sampler.beta", "lomaxbayes.sampler", "sample_beta")
    # run_chain calls the private step; the public mh_step_alpha is a wrapper
    # that run_chain never enters.
    sp.wrap("sampler.alpha", "lomaxbayes.sampler", "_mh_step_alpha")
    for fn in ("summarize", "gelman_rubin", "outlier_scores"):
        sp.wrap(f"diagnostics.{fn}", "lomaxbayes.diagnostics", fn)
    sp.wrap("cli.parse", "lomaxbayes.cli", "parse_dataset")
    sp.wrap("distribution.sample", "lomaxbayes.distribution", "sample")
    return chains


DIAGNOSTICS = ("diagnostics.summarize", "diagnostics.gelman_rubin", "diagnostics.outlier_scores")


def _sampler_metrics(sp: Spans, chains: list, res: Outcome) -> None:
    """Per-stage timings from ``sp`` and mixing of ``chains``."""
    if not chains:
        return
    iters = sum(c.proposed for c in chains)
    post = sum(c.config.iterations - c.config.burn_in for c in chains)
    iter_us = sp.total("sampler.chain") / iters * 1e6
    res.put("sampler.iter_us", iter_us, "us")
    res.put("sampler.accept_rate", sum(c.accepted for c in chains) / iters, "ratio")
    ess_a, ess_b = ess_sums((c.alpha, c.beta) for c in chains)
    res.put("sampler.ess_alpha_per_kiter", ess_a / post * 1000, "1/kiter")
    res.put("sampler.ess_beta_per_kiter", ess_b / post * 1000, "1/kiter")

    stages = {s: sp.durations(f"sampler.{s}") for s in ("lambda", "beta", "alpha")
              if sp.has(f"sampler.{s}")}
    if "alpha" in stages and "beta" in stages and len(stages["alpha"]) == len(stages["beta"]):
        # from the end of the beta draw, so the alpha stage includes the
        # sum of log lambda that run_chain computes between the two calls
        stages["alpha"] = np.array(sp.ends["sampler.alpha"]) - np.array(sp.ends["sampler.beta"])
    for s, d in stages.items():
        res.put(f"sampler.{s}_us.p50", np.percentile(d, 50) * 1e6, "us")
        res.put(f"sampler.{s}_us.p99", np.percentile(d, 99) * 1e6, "us")
        res.notes.append(f"sampler.{s}_us: {d.size} spans")
    if len(stages) == 3:
        res.put("sampler.loop_us", iter_us - sum(d.mean() for d in stages.values()) * 1e6, "us")


def _diagnostics_ms(sp: Spans) -> float:
    """Summaries, PSRF and outlier scores of one fit, in ms."""
    fits = len(sp.starts.get("sampler.chains", ())) or 1
    return sum(sp.total(label) for label in DIAGNOSTICS) / fits * 1000


def traced_fit(name: str, workdir: Path, seed: int, res: Outcome) -> None:
    """One untraced and one traced fit on the same inputs, then per-layer metrics."""
    spec = FITS[name]
    plain = fit_call(name, workdir, seed, 0)
    with Spans() as sp:
        chains = _wrap_layers(sp)
        traced = fit_call(name, workdir, seed, 0, tag="-traced")
    res.attempted += 2
    for label, call in (("untraced", plain), ("traced", traced)):
        try:
            draws = check_fit(call.out, call.rc, spec)
        except ValueError as exc:
            res.fail(f"{label} call: {exc}")
        else:
            if call is plain:
                put_ess_per_s(res, [(d[:, 0], d[:, 1]) for d in draws], plain.wall)
    for artifact in ("summary.json", "trace.csv", "outliers.csv"):
        if (plain.out / artifact).read_bytes() != (traced.out / artifact).read_bytes():
            res.identical = False
            res.notes.append(f"traced {artifact} differs from untraced")
    res.notes.append(f"call 0 trace.csv sha256={file_sha256(traced.out / 'trace.csv')}")
    res.notes.append(f"untraced_wall_s={plain.wall:.3f} traced_wall_s={traced.wall:.3f}")
    report_missing(sp, res)

    _sampler_metrics(sp, chains, res)
    parse = sp.total("cli.parse")
    diag = sum(sp.total(label) for label in DIAGNOSTICS)
    res.put("diagnostics.post_ms", _diagnostics_ms(sp), "ms")
    if sp.has("cli.parse"):
        res.put("cli.parse_ms", parse * 1000, "ms")
    if sp.has("sampler.chains"):
        res.put("cli.self_ms", (traced.wall - parse - sp.total("sampler.chains") - diag) * 1000, "ms")
    # a fit never enters the study harness or draws data through the package
    res.put("simulation.parallel_eff", 0.0, "ratio")
    res.put("simulation.harness_ms", 0.0, "ms")
    res.put("distribution.sample_us", 0.0, "us")
    res.put("trace.overhead_s", traced.wall - plain.wall, "s")


def put_ess_per_s(res: Outcome, chains: list, wall: float) -> None:
    """Effective draws per second of wall time of the untraced call."""
    ess_a, ess_b = ess_sums(chains)
    res.put("ess_alpha_per_s", ess_a / wall, "1/s")
    res.put("ess_beta_per_s", ess_b / wall, "1/s")


def report_missing(sp: Spans, res: Outcome) -> None:
    for label in sp.missing:
        res.notes.append(f"absent: {label} (function not found; its metrics are omitted)")


# ---------------------------------------------------------------- study

def study_config(seed: int):
    import lomaxbayes as lb

    _, master = call_seeds(seed, STUDY, 0)
    return lb.StudyConfig(
        true_params=lb.LomaxParams(beta=BETA, alpha=ALPHA),
        sample_sizes=(STUDY_N,),
        replications=STUDY_REPLICATIONS,
        priors=(lb.PriorKind(PRIOR),),
        mcmc=lb.McmcConfig(),
        seed=master,
    )


def _csv(report) -> str:
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


def study_call(cfg) -> tuple[float, str]:
    """One ``run_study`` on two worker processes; returns (wall, simulation.csv)."""
    import lomaxbayes as lb

    t0 = time.perf_counter()
    report = lb.run_study(cfg, n_jobs=STUDY_JOBS)
    wall = time.perf_counter() - t0
    return wall, _csv(report)


@dataclass
class SerialStudy:
    wall: float
    fit_times: list
    csv: str


def serial_study(cfg) -> SerialStudy:
    """The same study run serially through a timed ``fit_replicate`` as ``fit_fn``.

    ``run_study`` hands ``fit_fn`` exactly the datasets and MCMC seeds its
    worker processes use, so the result must equal the parallel one.
    """
    import lomaxbayes as lb

    fit_replicate = lb.fit_replicate
    fit_times = []

    def timed_fit(d, kind, mcmc):
        t0 = time.perf_counter()
        out = fit_replicate(d, kind, mcmc)
        fit_times.append(time.perf_counter() - t0)
        return out

    t0 = time.perf_counter()
    report = lb.run_study(cfg, fit_fn=timed_fit)
    return SerialStudy(time.perf_counter() - t0, fit_times, _csv(report))


def run_study_workload(seed: int, seconds: float, res: Outcome) -> None:
    """Timed studies, all of the same config, for ``seconds``."""
    cfg = study_config(seed)
    walls, csvs, attempts = [], [], []
    t_start = time.perf_counter()
    while another_call_fits(t_start, seconds, attempts):
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            wall, text = study_call(cfg)
            walls.append(wall)
            check_study_csv(text)
            if csvs and text != csvs[0]:
                raise ValueError("simulation.csv differs from the first call's")
            csvs.append(text)
        except Exception as exc:  # a crash or a failed check fails the call
            res.fail(f"call {len(attempts)}: {type(exc).__name__}: {exc}")
        attempts.append(time.perf_counter() - t0)
    if csvs:
        res.notes.append(f"simulation.csv sha256={sha256(csvs[0])}")
    res.notes.append(f"calls={len(attempts)} walls_s={[round(w, 3) for w in walls]}")
    res.put("wall_s", np.median(walls) if walls else 0.0, "s")


def traced_study(seed: int, res: Outcome) -> None:
    """Parallel untraced study, serial study and serial traced study."""
    cfg = study_config(seed)
    par_wall, par_csv = study_call(cfg)
    serial = serial_study(cfg)
    with Spans() as sp:
        chains = _wrap_layers(sp)
        traced = serial_study(cfg)
    res.attempted += 3
    for label, text in (("parallel", par_csv), ("serial", serial.csv), ("traced", traced.csv)):
        try:
            check_study_csv(text)
        except ValueError as exc:
            res.fail(f"{label} call: {exc}")
    if not par_csv == serial.csv == traced.csv:
        res.identical = False
        res.notes.append("simulation.csv differs between parallel, serial and traced calls")
    res.notes.append(f"simulation.csv sha256={sha256(traced.csv)}")
    res.notes.append(f"parallel_wall_s={par_wall:.3f} serial_wall_s={serial.wall:.3f} "
                     f"traced_serial_wall_s={traced.wall:.3f}")
    report_missing(sp, res)

    _sampler_metrics(sp, chains, res)
    put_ess_per_s(res, [(c.alpha, c.beta) for c in chains], par_wall)
    res.put("diagnostics.post_ms", _diagnostics_ms(sp), "ms")
    res.put("cli.parse_ms", 0.0, "ms")  # the study never enters the CLI
    res.put("cli.self_ms", 0.0, "ms")
    res.put("simulation.parallel_eff", serial.wall / (STUDY_JOBS * par_wall), "ratio")
    res.put("simulation.harness_ms", (serial.wall - sum(serial.fit_times)) * 1000, "ms")
    if sp.has("distribution.sample"):
        res.put("distribution.sample_us", np.percentile(sp.durations("distribution.sample"), 50) * 1e6, "us")
    res.put("trace.overhead_s", traced.wall - serial.wall, "s")
