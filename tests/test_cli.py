"""Dataset parsing, artifact writing, exit codes and reproducibility."""

import json
import os
import re
import signal
import subprocess
import time
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lomaxbayes import (
    Chain,
    DegenerateDataError,
    LomaxParams,
    McmcConfig,
    PriorKind,
    fit_replicate,
    sample,
    sampler,
    summarize,
)
from lomaxbayes import cli
from lomaxbayes.cli import (
    _sig6,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    DataFormatError,
    build_parser,
    main,
    parse_dataset,
)


def _write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _make_data_file(tmp_path, n=30, seed=5):
    d = sample(LomaxParams(2.0, 1.5), np.random.default_rng(seed), n)
    return _write(tmp_path, "\n".join(repr(v) for v in d.x.tolist()) + "\n")


FIT_FLAGS = ["--iters", "600", "--burnin", "100", "--thin", "5", "--chains", "2", "--seed", "7"]


class TestParseDataset:
    def test_plain_lines_with_comment_and_blank(self, tmp_path):
        d = parse_dataset(_write(tmp_path, "1.5\n2.0\n# c\n\n3.0\n"))
        assert d.n == 3
        np.testing.assert_array_equal(d.x, [1.5, 2.0, 3.0])

    def test_csv_header_skipped(self, tmp_path):
        d = parse_dataset(_write(tmp_path, "size\n10\n20\n"))
        np.testing.assert_array_equal(d.x, [10.0, 20.0])

    def test_trailing_comma_single_column(self, tmp_path):
        d = parse_dataset(_write(tmp_path, "10,\n20,\n"))
        np.testing.assert_array_equal(d.x, [10.0, 20.0])

    def test_negative_value_names_line(self, tmp_path):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_dataset(_write(tmp_path, "10\n-1\n"))

    def test_unparsable_token_names_line(self, tmp_path):
        with pytest.raises(DataFormatError, match="line 3"):
            parse_dataset(_write(tmp_path, "1\n2\nxyz\n"))
        # a first line of numbers only is malformed data, not a header row
        with pytest.raises(DataFormatError, match=r"line 1: unparsable value '1\.5 2\.5'"):
            parse_dataset(_write(tmp_path, "1.5 2.5\n3.0\n4.0\n"))

    def test_two_columns_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_dataset(_write(tmp_path, "1,2\n"))

    def test_empty_dataset(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            parse_dataset(_write(tmp_path, "# only a comment\n"))

    def test_byte_order_mark_keeps_first_value(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf1.0\n2.5\n3.0\n")
        d = parse_dataset(str(path))
        assert d.n == 3
        np.testing.assert_array_equal(d.x, [1.0, 2.5, 3.0])

    def test_byte_order_mark_before_header_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfsize\n10\n20\n")
        np.testing.assert_array_equal(parse_dataset(str(path)).x, [10.0, 20.0])


class TestParserDefaults:
    def test_fit_defaults_match_application_protocol(self):
        args = build_parser().parse_args(["fit", "x.txt"])
        assert (args.iters, args.burnin, args.thin, args.chains) == (80000, 20000, 20, 2)
        assert args.prior == "jeffreys"  # the one prior here whose posterior is proper

    def test_simulate_defaults_match_study_design(self):
        args = build_parser().parse_args(["simulate"])
        assert args.sizes == [50, 100, 150, 200, 300, 500]
        assert (args.beta, args.alpha) == (2.0, 1.5)
        assert args.replications == 500
        assert (args.iters, args.burnin, args.thin) == (11000, 1000, 10)
        assert args.prior is None  # both jeffreys and reference by default

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOMAXBAYES_OUTDIR", str(tmp_path))
        args = build_parser().parse_args(["fit", "x.txt"])
        assert args.out == str(tmp_path)


class TestFitCommand:
    def test_artifacts_and_round_trip(self, tmp_path):
        data = _make_data_file(tmp_path)
        out = tmp_path / "out"
        code = main(["fit", data, "--prior", "reference", "--out", str(out)] + FIT_FLAGS)
        assert code == EXIT_OK

        summary = json.loads((out / "summary.json").read_text())
        assert summary["prior"] == "reference"
        assert summary["n"] == 30
        assert summary["seed"] == 7
        assert set(summary["alpha"]) == {"mean", "sd", "ci_low", "ci_high"}
        assert summary["psrf"]["alpha"] is not None

        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "chain,draw_index,alpha,beta"
        assert len(trace) == 1 + 2 * 100  # chains x retained

        # summary statistics must match the emitted trace to printed precision
        alphas = np.array([float(r.split(",")[2]) for r in trace[1:]])
        stats = summarize(alphas)
        assert float(f"{stats.mean:.6g}") == summary["alpha"]["mean"]
        assert float(f"{stats.sd:.6g}") == summary["alpha"]["sd"]
        assert float(f"{stats.ci_low:.6g}") == summary["alpha"]["ci_low"]

        outliers = (out / "outliers.csv").read_text().splitlines()
        assert outliers[0] == "index,x,flagged"
        assert len(outliers) == 1 + 30
        assert outliers[1].split(",")[2] in {"true", "false"}

    @pytest.mark.parametrize("chains", ["1", "2"])
    def test_report_prints_each_summary_key(self, tmp_path, capsys, chains):
        data = _make_data_file(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", data, "--out", str(out)] + FIT_FLAGS + ["--chains", chains]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "prior=jeffreys n=30 seed=7"
        for line, param in zip(lines[1:3], ("beta", "alpha")):
            s = summary[param]
            assert line == f"  {param}: mean={s['mean']} sd={s['sd']} ci_low={s['ci_low']} ci_high={s['ci_high']}"
        psrf = summary["psrf"]
        if chains == "1":  # one chain has no PSRF: summary.json holds null
            assert psrf == {"alpha": None, "beta": None}
            assert lines[3] == f"  acceptance_rate={summary['acceptance_rate']} psrf.alpha=null psrf.beta=null"
        else:
            assert lines[3] == (f"  acceptance_rate={summary['acceptance_rate']} "
                                f"psrf.alpha={psrf['alpha']} psrf.beta={psrf['beta']}")
        assert lines[-1] == f"artifacts written to {out}"

    def test_byte_identical_reruns(self, tmp_path):
        data = _make_data_file(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["fit", data, "--out", str(out)] + FIT_FLAGS) == EXIT_OK
        for name in ("summary.json", "trace.csv", "outliers.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_equals_fit_replicate(self, tmp_path):
        data = _make_data_file(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", data, "--prior", "jeffreys", "--out", str(out)] + FIT_FLAGS) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        cfg = McmcConfig(iterations=600, burn_in=100, thin=5, chains=2, seed=7)
        fit = fit_replicate(parse_dataset(data), PriorKind.JEFFREYS_DEPENDENT, cfg)
        assert summary["acceptance_rate"] == _sig6(fit.accept_rate)
        assert summary["psrf"] == {"alpha": _sig6(fit.psrf_alpha), "beta": _sig6(fit.psrf_beta)}
        for param in ("beta", "alpha"):
            s = getattr(fit, param)
            assert summary[param] == {
                "mean": _sig6(s.mean), "sd": _sig6(s.sd),
                "ci_low": _sig6(s.ci_low), "ci_high": _sig6(s.ci_high),
            }

    def test_constant_retained_draws_give_null_psrf(self, tmp_path, monkeypatch):
        # neither chain moves alpha between its 2 retained draws, so W = 0 for alpha
        def constant_alpha(d, kind, cfg):
            return tuple(
                Chain(alpha=np.full(cfg.retained, 1.4 + 0.2 * i), beta=np.array([1.0, 2.0 + i]),
                      accepted=0, proposed=cfg.iterations, chain_index=i, config=cfg)
                for i in range(cfg.chains)
            )

        monkeypatch.setattr(cli, "run_chains", constant_alpha)
        data = _make_data_file(tmp_path)
        out = tmp_path / "out"
        flags = ["--prior", "jeffreys", "--iters", "12", "--burnin", "2", "--thin", "5",
                 "--seed", "0", "--out", str(out)]
        assert main(["fit", data] + flags) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["psrf"]["alpha"] is None

    def test_propriety_violation_exits_3(self, tmp_path, capsys):
        data = _write(tmp_path, "5.0\n")
        code = main(["fit", data, "--prior", "reference", "--out", str(tmp_path)] + FIT_FLAGS)
        assert code == EXIT_NUMERIC
        assert "improper posterior" in capsys.readouterr().err

    def test_subnormal_data_exit_3_naming_the_overflow(self, tmp_path, capsys):
        data = _write(tmp_path, "1e-310\n2e-310\n3e-310\n4e-310\n")
        assert main(["fit", data, "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        match = re.fullmatch(r"lomaxbayes: numerical error: "
                             r"beta \* sum\(u_i x_i\) / g overflowed to inf at beta=(\S+)\n", err)
        assert match, err
        assert 0.0 < float(match[1]) < 1e-300
        assert not (tmp_path / "o").exists()

    def test_error_in_a_forked_chain_exits_3(self, tmp_path, monkeypatch, capsys, process_pools):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        orig = sampler.run_chain

        def fail_chain_1(d, kind, cfg, chain_index=0):
            if chain_index == 1:
                raise DegenerateDataError("chain 1 failed")
            return orig(d, kind, cfg, chain_index)

        monkeypatch.setattr(sampler, "run_chain", fail_chain_1)
        data = _make_data_file(tmp_path)
        flags = ["--iters", "300", "--burnin", "100", "--thin", "10", "--out", str(tmp_path / "o")]
        # exit 3 needs the DegenerateDataError type back from the forked chain
        assert main(["fit", data] + flags) == EXIT_NUMERIC
        assert "chain 1 failed" in capsys.readouterr().err
        assert process_pools == [2]

    def test_zero_heavy_data_refused_before_forking(self, tmp_path, monkeypatch, capsys, process_pools):
        # chains long enough to fork on 2 CPUs; the improper posterior stops them all
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        data = _write(tmp_path, "0\n" * 99 + "1.0\n")
        out = tmp_path / "o"
        flags = ["--iters", "4000", "--burnin", "1000", "--thin", "10", "--out", str(out)]
        assert main(["fit", data] + flags) == EXIT_NUMERIC
        assert "improper posterior: 99 observations are 0" in capsys.readouterr().err
        assert not out.exists()
        assert process_pools == []

    @pytest.mark.parametrize("prior", ["reference", "jeffreys"])
    def test_scale_far_below_the_largest_values_runs(self, tmp_path, prior):
        # every value is positive, so the posterior is proper as beta -> 0,
        # and beta falls far below 1e300 / 2e300 without forming x_i/beta
        x = [1e300, 2e300, 3.0, 5.0]
        data = _write(tmp_path, "".join(f"{v!r}\n" for v in x))
        out = tmp_path / "o"
        flags = ["--prior", prior, "--iters", "3000", "--burnin", "1000", "--out", str(out)]
        assert main(["fit", data] + flags) == EXIT_OK
        draws = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)[:, 2:]
        assert draws.shape == (2 * 100, 2)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)
        # below max(x) / float max, x_i/beta would overflow
        assert draws[:, 1].min() < max(x) / sys.float_info.max

    def test_zero_heavy_data_refused_before_any_chain(self, tmp_path, capsys, process_pools):
        # the posterior mass is at beta -> 0: refused, not left to overflow mid-chain
        data = _write(tmp_path, "0\n" * 99 + "1.0\n")
        out = tmp_path / "o"
        flags = ["--iters", "3000", "--burnin", "1000", "--out", str(out)]
        assert main(["fit", data] + flags) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "improper posterior: 99 observations are 0" in err
        assert not out.exists()
        assert process_pools == []

    def test_tiny_scale_keeps_its_spread(self, tmp_path):
        data = _write(tmp_path, "1e-300\n2e-300\n3e-300\n")
        out = tmp_path / "out"
        flags = ["--prior", "jeffreys", "--iters", "3000", "--burnin", "1000", "--out", str(out)]
        assert main(["fit", data] + flags) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        # the sd of the betas times 1e300, whose squares do not underflow
        sd = float(np.std(trace[:, 3] * 1e300, ddof=1)) * 1e-300
        assert summary["beta"]["sd"] == pytest.approx(sd, rel=1e-5, abs=0.0)
        assert summary["psrf"]["beta"] is not None

    def test_forked_and_serial_chains_write_the_same_artifacts(self, tmp_path, monkeypatch, process_pools):
        data = _make_data_file(tmp_path)
        flags = ["--iters", "300", "--burnin", "100", "--thin", "10"]
        for cpus in (2, 1):
            monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
            assert main(["fit", data, "--out", str(tmp_path / str(cpus))] + flags) == EXIT_OK
        assert process_pools == [2]
        for name in ("summary.json", "trace.csv", "outliers.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("prior", ["jeffreys", "reference"])
    def test_one_zero_among_fifty_refused(self, tmp_path, capsys, process_pools, prior):
        # one zero makes the posterior improper under every prior, however many
        # positive values there are; a chain would not find that out
        x = sample(LomaxParams(2.0, 1.5), np.random.default_rng(42), 50).x.tolist()
        data = _write(tmp_path, "".join(f"{v!r}\n" for v in [0.0] + x[1:]))
        out = tmp_path / "o"
        assert main(["fit", data, "--prior", prior, "--out", str(out)]) == EXIT_NUMERIC
        assert "improper posterior: 1 observation is 0" in capsys.readouterr().err
        assert not out.exists()
        assert process_pools == []

    def test_dependent_jeffreys_accepts_single_observation(self, tmp_path):
        data = _write(tmp_path, "5.0\n")
        out = tmp_path / "single"
        code = main(["fit", data, "--prior", "jeffreys", "--out", str(out)] + FIT_FLAGS)
        assert code == EXIT_OK
        assert (out / "summary.json").exists()

    def test_bad_data_exits_2(self, tmp_path):
        data = _write(tmp_path, "1.0\n-3.0\n")
        assert main(["fit", data, "--out", str(tmp_path)] + FIT_FLAGS) == EXIT_DATA

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_value_exits_2_before_writing(self, tmp_path, capsys, token):
        data = _write(tmp_path, f"1.0\n{token}\n3.0\n")
        out = tmp_path / "out"
        assert main(["fit", data, "--out", str(out)] + FIT_FLAGS) == EXIT_DATA
        assert f"{data}: line 2: non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        assert main(["fit", missing, "--out", str(tmp_path)] + FIT_FLAGS) == EXIT_DATA

    def test_non_utf8_file_exits_2_before_writing(self, tmp_path, capsys):
        # UnicodeDecodeError is a ValueError: unconverted it reads as a usage error
        data = tmp_path / "latin.txt"
        data.write_bytes(b"1.0\n2.5\n\xff\xfe3\n")
        out = tmp_path / "out"
        assert main(["fit", str(data), "--out", str(out)] + FIT_FLAGS) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and f"{data}: not UTF-8 text" in err
        assert not out.exists()

    def test_usage_error_exits_1(self, tmp_path, capsys):
        data = _make_data_file(tmp_path)
        assert main(["fit", data, "--prior", "flat"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE
        # the shape step's proposal scale is derived from n, not set
        assert main(["fit", data, "--tuning", "1.0"]) == EXIT_USAGE
        # invalid run configuration (burn-in beyond iterations)
        assert main(["fit", data, "--iters", "10", "--burnin", "100"]) == EXIT_USAGE
        # 1e14 retained draws cannot be allocated
        out = tmp_path / "out"
        flags = ["--iters", "100000000000000", "--burnin", "0", "--thin", "1", "--chains", "1"]
        capsys.readouterr()
        assert main(["fit", data, "--out", str(out)] + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_exits_1_before_writing(self, tmp_path, capsys):
        data = _make_data_file(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", data] + FIT_FLAGS + ["--seed", "-1", "--out", str(out)]) == EXIT_USAGE
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_0_and_3_share_no_chain(self, tmp_path):
        # a rule seeding chain i with seed ^ (i + 1) gives masters 0 and 3 the
        # same two chains under swapped labels: compare chains, not labels
        data = _make_data_file(tmp_path)
        chains = []
        for seed in ("0", "3"):
            out = tmp_path / f"seed{seed}"
            assert main(["fit", data] + FIT_FLAGS + ["--seed", seed, "--out", str(out)]) == EXIT_OK
            by_chain = {}
            for line in (out / "trace.csv").read_text().splitlines()[1:]:
                chain, draw = line.split(",", 1)
                by_chain.setdefault(chain, []).append(draw)
            chains.append({tuple(draws) for draws in by_chain.values()})
        assert len(chains[0]) == len(chains[1]) == 2
        assert not chains[0] & chains[1]

    def test_one_retained_draw_exits_1_before_writing(self, tmp_path, capsys):
        data = _make_data_file(tmp_path)
        out = tmp_path / "out"
        flags = ["--iters", "1", "--burnin", "0", "--thin", "1", "--chains", "1", "--out", str(out)]
        assert main(["fit", data] + flags) == EXIT_USAGE
        assert "got 1" in capsys.readouterr().err
        assert not out.exists()


class TestOutlierFlags:
    """outliers.csv flags the x above their 95th percentile."""

    @staticmethod
    def _flags(tmp_path, x):
        data = _write(tmp_path, "".join(f"{v!r}\n" for v in x))
        out = tmp_path / "out"
        assert main(["fit", data, "--out", str(out)] + FIT_FLAGS) == EXIT_OK
        rows = [r.split(",") for r in (out / "outliers.csv").read_text().splitlines()[1:]]
        assert [(int(i), float(v)) for i, v, _ in rows] == list(enumerate(x))
        return np.array([flag == "true" for _, _, flag in rows])

    def test_cut_is_the_95th_percentile(self, tmp_path):
        # at n = 101 the 95th percentile is the order statistic x = 96, so
        # moving the cut by one percentile point changes the flagged set
        x = np.random.default_rng(5).permutation(np.arange(1.0, 102.0)).tolist()
        flagged = self._flags(tmp_path, x)
        assert sorted(np.array(x)[flagged].tolist()) == [97.0, 98.0, 99.0, 100.0, 101.0]

    def test_single_observation_not_flagged(self, tmp_path):
        assert self._flags(tmp_path, [4.0]).tolist() == [False]

    def test_planted_gross_outlier_flagged(self, tmp_path):
        base = sample(LomaxParams(2.0, 1.5), np.random.default_rng(56), 60).x
        flagged = self._flags(tmp_path, np.append(base, 100.0 * base.max()).tolist())
        assert flagged[-1]
        assert flagged.mean() <= 0.10

    def test_homogeneous_data_rarely_flagged(self, tmp_path):
        x = sample(LomaxParams(2.0, 1.5), np.random.default_rng(55), 100).x
        assert self._flags(tmp_path, x.tolist()).mean() <= 0.10

    def test_tied_observations_get_identical_flags(self, tmp_path):
        flagged = self._flags(tmp_path, [5.0] * 10 + [1.0, 9.0, 1.0])
        assert np.unique(flagged[:10]).tolist() == [False]
        assert flagged[10] == flagged[12]
        assert flagged.tolist().count(True) == 1 and flagged[11]

    def test_flags_are_the_top_of_x(self, tmp_path):
        x = sample(LomaxParams(2.0, 1.5), np.random.default_rng(42), 500).x
        flagged = self._flags(tmp_path, x.tolist())
        np.testing.assert_array_equal(flagged, x > np.percentile(x, 95.0))
        assert flagged.sum() == 25
        assert x[flagged].min() > x[~flagged].max()


class TestRuntimeWithoutScipy:
    """The package and its CLI run on numpy and the standard library alone."""

    @staticmethod
    def _python(code, cwd, env):
        return subprocess.run(
            [sys.executable, "-B", "-c", code], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120,
        )

    def test_import_loads_no_scipy(self, tmp_path, src_env):
        # numpy.polynomial alone adds 784 KiB of peak RSS (numpy 2.4.6), 8x the
        # benchmark's 0.1 MB bound on peak_rss_mb
        data = _make_data_file(tmp_path)
        done = self._python(
            "import sys\n"
            "import lomaxbayes, lomaxbayes.cli\n"
            "from lomaxbayes import LomaxParams, McmcConfig, StudyConfig, run_study\n"
            f"code = lomaxbayes.cli.main(['fit', {data!r}, '--iters', '300', '--burnin', '100',"
            " '--thin', '1', '--out', 'fit'])\n"
            "assert code == 0, code\n"
            "run_study(StudyConfig(LomaxParams(2.0, 1.5), sample_sizes=(20,), replications=2,"
            " mcmc=McmcConfig(300, 100, 1)))\n"
            # the fork map needs neither multiprocessing nor concurrent.futures
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing',"
            " 'concurrent') or m.startswith('numpy.polynomial')))",
            tmp_path, src_env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"  # after fit's report

    def test_fit_with_scipy_blocked_matches_in_process_fit(self, tmp_path, src_env):
        data = _make_data_file(tmp_path)
        flags = ["--iters", "3000", "--burnin", "1000", "--thin", "1"]
        blocked, here = tmp_path / "blocked", tmp_path / "here"
        done = self._python(
            "import sys; sys.modules['scipy'] = None\n"
            "from lomaxbayes import cli\n"
            f"sys.exit(cli.main({['fit', data, '--out', str(blocked)] + flags!r}))",
            tmp_path, src_env,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert main(["fit", data, "--out", str(here)] + flags) == EXIT_OK
        assert (blocked / "trace.csv").read_bytes() == (here / "trace.csv").read_bytes()


SIM_FLAGS = [
    "--replications", "2", "--sizes", "6", "--prior", "reference", "--quiet",
    "--iters", "300", "--burnin", "100", "--thin", "2", "--chains", "2", "--seed", "3",
]


class TestSimulateCommand:
    def test_single_cell_report(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out)] + SIM_FLAGS) == EXIT_OK
        lines = (out / "simulation.csv").read_text().splitlines()
        assert lines[0].startswith("prior,n,parameter")
        assert len(lines) == 1 + 2  # one (prior, n) cell, two parameters
        assert "rmse" in capsys.readouterr().out

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_replicate_exits_1_without_traceback(self, tmp_path, monkeypatch, capsys, cpus):
        # on 2 CPUs the error comes back from a pool worker with a remote traceback
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        # beta = 1e300 overflows the sampled data to inf, which Dataset rejects
        flags = ["--beta", "1e300", "--alpha", "0.1", "--sizes", "50", "--replications", "2",
                 "--prior", "jeffreys", "--iters", "300", "--burnin", "100", "--thin", "2",
                 "--quiet", "--out", str(tmp_path / "sim")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate"] + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "replicate 0 failed for prior=jeffreys, n=50: observations must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("quiet", [False, True])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_progress_lines(self, tmp_path, monkeypatch, capsys, cpus, quiet):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        flags = [f for f in SIM_FLAGS if f != "--quiet"] + ["--quiet"] * quiet
        flags += ["--replications", "12", "--out", str(tmp_path)]
        assert main(["simulate"] + flags) == EXIT_OK
        expected = [] if quiet else [
            "[simulate] prior=reference n=6: replicate 10/12",
            "[simulate] prior=reference n=6: replicate 12/12",
        ]
        assert capsys.readouterr().err.splitlines() == expected

    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_jobs_is_not_a_flag(self, tmp_path, capsys, jobs):
        # the replicates fan out over the usable CPUs, which taskset limits
        out = tmp_path / "sim"
        assert main(["simulate"] + SIM_FLAGS + ["--jobs", jobs, "--out", str(out)]) == EXIT_USAGE
        assert f"error: unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--iters", "2", "--burnin", "1", "--thin", "1"],  # one retained draw
        ["--seed", "-1"],
        ["--sizes", "50", "50"],  # would fit and write the n = 50 cell twice
        ["--sizes=0"],  # no dataset, so no propriety check: exit 1, not 3
        ["--sizes=-5"],
    ])
    def test_invalid_settings_exit_1_before_writing(self, tmp_path, flags):
        out = tmp_path / "sim"
        argv = ["simulate"] + SIM_FLAGS + flags + ["--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("prior, code", [("jeffreys", EXIT_OK), ("reference", EXIT_NUMERIC)])
    def test_single_observation_cells(self, tmp_path, capsys, prior, code):
        # n + nu > 0 admits n = 1 under jeffreys (nu = -1/2), not under reference (nu = -1)
        out = tmp_path / "sim"
        argv = ["simulate"] + SIM_FLAGS + ["--sizes", "1", "--prior", prior, "--out", str(out)]
        assert main(argv) == code
        if code == EXIT_OK:
            rows = (out / "simulation.csv").read_text().splitlines()[1:]
            assert [r.split(",")[:3] for r in rows] == [["jeffreys", "1", "beta"], ["jeffreys", "1", "alpha"]]
        else:
            assert "prior 'reference' requires n >= 2, got n=1" in capsys.readouterr().err
            assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert main(["simulate", "--out", str(out)] + SIM_FLAGS) == EXIT_OK
        assert (out1 / "simulation.csv").read_bytes() == (out2 / "simulation.csv").read_bytes()


class TestOutDir:
    @pytest.mark.parametrize("sub", ["", "sub"])
    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_unusable_out_exits_1_before_anything_runs(self, tmp_path, monkeypatch, capsys, command, sub):
        # --out under a regular file was found by mkdir only after every chain had run
        def ran(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("lomaxbayes.cli.run_chains", ran)
        monkeypatch.setattr("lomaxbayes.cli.run_study", ran)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile / sub if sub else afile
        argv = ["fit", _make_data_file(tmp_path)] + FIT_FLAGS if command == "fit" else ["simulate"] + SIM_FLAGS
        before = sorted(tmp_path.iterdir())
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"invalid configuration: --out {out}: {afile} is not a directory" in err
        assert sorted(tmp_path.iterdir()) == before
        assert afile.read_text() == "keep\n"


class TestConsoleProcess:
    """``python -m lomaxbayes.cli`` as a process of its own, as a shell runs it."""

    @staticmethod
    def _argv(*args):
        return [sys.executable, "-m", "lomaxbayes.cli", *args]

    @pytest.mark.parametrize("text,flags,code", [
        (None, [], EXIT_OK),
        (None, ["--iters", "3000", "--burnin", "5000"], EXIT_USAGE),
        ("1.0\nabc\n", [], EXIT_DATA),
        ("1.0\n0\n2.0\n", [], EXIT_NUMERIC),
    ], ids=["ok", "usage", "data", "numeric"])
    def test_exit_codes(self, tmp_path, src_env, text, flags, code):
        data = _make_data_file(tmp_path) if text is None else _write(tmp_path, text)
        out = tmp_path / "out"
        done = subprocess.run(
            self._argv("fit", data, "--out", str(out), *FIT_FLAGS, *flags),
            env=src_env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code, done.stderr
        assert (out / "summary.json").exists() == (code == EXIT_OK)
        assert done.stderr.startswith("lomaxbayes: ") != (code == EXIT_OK), done.stderr

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_closed_stdout_is_not_an_error(self, tmp_path, src_env, unbuffered):
        # 1,600 table rows, more than a pipe holds: the process is still
        # writing them when the reader goes away after one line
        env = {k: v for k, v in src_env.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        out = tmp_path / "sim"
        proc = subprocess.Popen(
            self._argv("simulate", "--sizes", *map(str, range(2, 402)), "--replications", "1",
                       "--iters", "40", "--burnin", "10", "--thin", "1", "--chains", "1",
                       "--quiet", "--out", str(out)),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().split()[0] == b"prior"
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read().decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert (code, err) == (EXIT_OK, "")
        assert (out / "simulation.csv").exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="lists processes in /proc")
    @pytest.mark.skipif(sampler._usable_cpus() < 2, reason="one usable CPU: the chains do not fork")
    def test_sigterm_leaves_no_worker(self, tmp_path, src_env):
        data = _make_data_file(tmp_path, n=50)
        # chains of minutes: the caller runs chain 0 and a forked worker chain 1
        argv = self._argv("fit", data, "--iters", str(10**7), "--burnin", "0", "--thin", "1000",
                          "--out", str(tmp_path / "o"))
        proc = subprocess.Popen(argv, env=src_env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(_session(proc.pid)) < 2:
                assert proc.poll() is None and time.monotonic() < deadline, "no worker was forked"
                time.sleep(0.02)
            os.kill(proc.pid, signal.SIGTERM)
            code = proc.wait(timeout=30)
            deadline = time.monotonic() + 5
            while (left := _session(proc.pid)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert left == []
            assert code == 128 + signal.SIGTERM
            assert b"Traceback" not in proc.stderr.read()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stderr.close()


def _session(sid: int) -> list[int]:
    """The pids of the processes in session ``sid``, from /proc."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # gone since
            continue
        # the fields after the command's ")" are state, ppid, pgrp and session
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            pids.append(int(entry))
    return pids
