"""Command-line interface: CSV contract, config handling, exit codes."""

import importlib.util
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dafrelay import analysis, cli, montecarlo
from dafrelay.channel import SCENARIOS, CascadedModelKind, FadingSpec, seeded_rng
from dafrelay.cli import (
    CSV_HEADER,
    EXIT_NUMERIC,
    EXIT_USAGE,
    doppler_normalized,
    main,
    parse_grid,
    read_config_file,
)

TOOL = Path(__file__).parents[1] / "tools" / "seeded_outputs.py"
spec = importlib.util.spec_from_file_location("seeded_outputs", TOOL)
seeded_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seeded_outputs)


FAST_CFG = """
# fast smoke-test configuration
min_bit_errors = 50
max_symbols = 100000   # keep runtime low
frame_len = 1000
generator = ar1
"""


def write_cfg(tmp_path, extra=""):
    """FAST_CFG with the entries of `extra` in place of its own of the same keys: a config file sets a key once."""
    def key(line):
        return line.split("=", 1)[0].strip()

    keys = {key(line) for line in extra.splitlines()}
    path = tmp_path / "run.cfg"
    path.write_text("".join(line + "\n" for line in FAST_CFG.splitlines() if key(line) not in keys) + extra)
    return str(path)


class TestHelpers:
    def test_doppler_example(self):
        # 2 GHz carrier, 0.1 ms symbols, 75 km/h: f_d T_s ~ 1.39e-2
        f = doppler_normalized(2e9, 1e-4, 75.0)
        assert f == pytest.approx((75 / 3.6) * 2e9 / 3e8 * 1e-4, rel=1e-12)
        assert f == pytest.approx(1.3889e-2, rel=1e-4)

    def test_doppler_validation(self):
        with pytest.raises(ValueError):
            doppler_normalized(-1.0, 1e-4, 10.0)
        with pytest.raises(ValueError):
            doppler_normalized(2e9, 0.0, 10.0)

    def test_parse_grid(self):
        assert parse_grid("0:5:30") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert parse_grid("12.5") == (12.5,)
        # the stop is inclusive and bounds the grid: no point lies beyond a stop that is not on it
        assert parse_grid("0:5:32.6") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert parse_grid("0:0.6:1") == (0.0, 0.6)
        assert parse_grid("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)
        with pytest.raises(ValueError):
            parse_grid("0:5")
        with pytest.raises(ValueError):
            parse_grid("10:5:0")
        with pytest.raises(ValueError):
            parse_grid("0:-5:30")

    def test_parse_grid_bounds_its_length(self):
        assert len(parse_grid("0:0.01:100")) == 10_001
        with pytest.raises(ValueError, match="more than 10001 points"):
            parse_grid("0:0.01:100.01")

    def test_read_config_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("M = 4  # order\n\nseed=7\n")
        assert read_config_file(str(path)) == {"m": "4", "seed": "7"}

    def test_read_config_file_rejects_a_repeated_key(self, tmp_path, capsys):
        # keys are compared after lowercasing: "m" then "M" would silently run M = 4
        path = tmp_path / "twice.cfg"
        path.write_text("m = 2\nseed = 7\nM = 4\n")
        with pytest.raises(ValueError, match=r"twice\.cfg:3: key 'm' is already set on line 1"):
            read_config_file(str(path))
        assert main(["sweep", "--config", str(path), "--scenario", "III", "--no-sim"]) == EXIT_USAGE
        assert "key 'm'" in capsys.readouterr().err

    def test_read_config_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no equals sign here\n")
        with pytest.raises(ValueError):
            read_config_file(str(path))


class TestSweepCommand:
    def test_theory_only_rows(self, capsys):
        rc = main(["sweep", "--scenario", "III", "--m", "2", "--scheme", "tvd",
                   "--pdb", "10:10:30", "--no-sim"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "10"
        assert first[1] == "III"
        assert first[2] == "tvd"
        assert first[3] == "2"
        assert first[4] == ""  # no simulation column
        assert float(first[6]) > 0  # theory
        assert float(first[7]) > 0  # floor
        assert first[8] == ""

    def test_simulated_sweep_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        rc = main(["sweep", "--scenario", "I", "--m", "2", "--scheme", "cdd,tvd",
                   "--pdb", "5", "--seed", "11", "--config", cfg])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        schemes = [ln.split(",")[2] for ln in lines[1:]]
        assert schemes == ["cdd", "tvd"]
        for ln in lines[1:]:
            cols = ln.split(",")
            assert float(cols[4]) > 0
            assert float(cols[5]) > 0
            assert cols[8] in ("0", "1")

    def test_six_significant_digits(self, capsys):
        main(["sweep", "--scenario", "II", "--m", "4", "--scheme", "opt",
              "--pdb", "17", "--no-sim"])
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        for col in (row[6], row[7]):
            mantissa = col.replace("-", "").replace(".", "").replace("e", " ").split()[0]
            assert len(mantissa.lstrip("0")) <= 6

    def test_deterministic_output(self, tmp_path):
        cfg = write_cfg(tmp_path)
        args = ["sweep", "--scenario", "I", "--m", "2", "--scheme", "all",
                "--pdb", "0:5:10", "--seed", "3", "--config", cfg]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_all_schemes_share_draws_under_symbol_budget(self, tmp_path):
        # with a binding budget, each scheme of one paired run sees the same
        # chunks as a run of that scheme alone
        cfg = write_cfg(tmp_path, "max_symbols = 4000\nmin_bit_errors = 1000000000\n")
        args = ["sweep", "--scenario", "III", "--m", "4", "--pdb", "5:10:25", "--seed", "5",
                "--config", cfg, "--out"]

        def sim_columns(scheme):
            out = tmp_path / f"{scheme}.csv"
            assert main(args + [str(out), "--scheme", scheme]) == 0
            rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
            return {(r[0], r[2]): (r[4], r[5], r[8]) for r in rows}

        paired = sim_columns("all")
        assert len(paired) == 9
        for scheme in ("cdd", "tvd", "opt"):
            alone = sim_columns(scheme)
            assert alone == {key: cols for key, cols in paired.items() if key[1] == scheme}
        assert all(cols[2] == "1" for cols in paired.values())

    def test_custom_scenario_from_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f_sd = 0.02\nf_sr = 0.02\nf_rd = 0.005\n")
        rc = main(["sweep", "--m", "2", "--scheme", "tvd", "--pdb", "10",
                   "--no-sim", "--config", cfg])
        assert rc == 0
        assert capsys.readouterr().out.split("\n")[1].split(",")[1] == "custom"

    def test_unknown_scheme_exits_usage(self, capsys):
        # a repeated scheme would print its row twice, and simulated, with its errors counted twice
        for scheme in ("mrc", "tvd,tvd", "cdd,tvd,cdd"):
            for no_sim in (["--no-sim"], []):
                argv = ["sweep", "--scenario", "III", "--scheme", scheme, "--pdb", "10", "--seed", "1", *no_sim]
                assert main(argv) == EXIT_USAGE
                assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "extra",
        ["generator = foo", "cascaded = foo", "min_bit_error = 60", "f_sd = 0.3\nf_sr = 0.3\nf_rd = 0.3", "m = 8",
         "m = 512", "max_symbols = inf", "max_symbols = 1e400", "frame_len = 1e4", "seed = x"],
    )
    def test_bad_config_entry_exits_usage(self, tmp_path, capsys, extra):
        cfg = write_cfg(tmp_path, extra)
        rc = main(["sweep", "--scenario", "I", "--pdb", "10", "--no-sim", "--config", cfg])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and extra.split(" =")[0] in err  # the message names the entry's key

    def test_missing_scenario_exits_usage(self, capsys):
        rc = main(["sweep", "--m", "2", "--pdb", "10", "--no-sim"])
        assert rc == EXIT_USAGE

    def test_quadrature_failure_exits_numeric(self, monkeypatch, capsys):
        # a negative tolerance fails every refinement check
        monkeypatch.setattr(analysis, "_QUAD_RTOL", -1.0)
        rc = main(["sweep", "--scenario", "I", "--m", "2", "--scheme", "tvd", "--pdb", "10", "--no-sim"])
        assert rc == EXIT_NUMERIC
        assert "numeric failure:" in capsys.readouterr().err

    def test_first_failing_point_decides_the_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "_QUAD_RTOL", -1.0)
        argv = ["sweep", "--no-sim", "--scenario", "I", "--m", "2", "--scheme", "tvd", "--pdb"]
        # 10 dB fails its quadrature before 2900 dB is rejected
        assert main(argv + ["10:2890:2900"]) == EXIT_NUMERIC
        assert "numeric failure: theta-quadrature did not converge at 10 dB: " in capsys.readouterr().err
        assert main(argv + ["2900"]) == EXIT_USAGE
        assert "error: total power 2900.0 dB" in capsys.readouterr().err

    def test_malformed_grid_exits_usage(self):
        assert main(["sweep", "--scenario", "I", "--pdb", "5:1", "--no-sim"]) == EXIT_USAGE

    @pytest.mark.parametrize("pdb", ["4000", "nan", "inf", "0:inf:10", "-inf:5:0", "2900", "0:1e-6:1", "0:1e-9:1",
                                     "-1e308:1:1e308"])
    def test_power_out_of_range_exits_usage(self, capsys, pdb):
        rc = main(["sweep", "--scenario", "I", "--scheme", "tvd", f"--pdb={pdb}", "--no-sim"])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_huge_finite_power_is_named_before_any_warning(self, capsys):
        argv = ["sweep", "--no-sim", "--scenario", "I", "--scheme", "tvd", "--pdb"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["2900"]) == EXIT_USAGE
            assert "total power 2900.0 dB" in capsys.readouterr().err
            assert main(argv + ["2500"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[0] == "2500"
        assert 0.0 < float(row[6]) < 1e-9

    def test_autocorrelation_outside_the_analysis_is_named(self, tmp_path, capsys):
        # J0(2 pi f) <= 0 for f >= 0.3828: at f_sd = 0.45 alpha_sd is -0.19615, and the message names it
        cfg = write_cfg(tmp_path, "f_sd = 0.45\nf_sr = 0.01\nf_rd = 0.01\n")
        assert main(["sweep", "--scheme", "tvd", "--no-sim", "--pdb", "10", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha_sd" in err and "-0.196" in err

    def test_link_outside_the_analysis_is_simulated_without_theory(self, tmp_path, capsys):
        # the simulator runs any f < 0.5; rows whose link the analysis does not cover leave both theory cells empty
        cfg = write_cfg(tmp_path, "f_sd = 0.45\nf_sr = 0.01\nf_rd = 0.01\n")
        assert main(["sweep", "--scheme", "all", "--pdb", "10:10:20", "--seed", "1", "--config", cfg]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [(row[0], row[2]) for row in rows] == [(p, s) for s in ("cdd", "tvd", "opt") for p in ("10", "20")]
        for row in rows:
            assert row[1] == "custom" and 0.0 < float(row[4]) < 0.5 and float(row[5]) > 0.0
            assert row[6] == row[7] == ""

    def test_theory_defined_at_negative_power(self, capsys):
        rc = main(["sweep", "--no-sim", "--scenario", "III", "--m", "2", "--scheme", "tvd", "--pdb", "-20:5:30"])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [float(row[0]) for row in rows] == list(range(-20, 35, 5))
        assert all(0.0 < float(row[6]) < 0.5 for row in rows)


class TestValidateChannelCommand:
    def test_report_contents(self, capsys):
        rc = main(["validate-channel", "--scenario", "II", "--samples", "20000", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario II" in out
        assert "model=exact" in out
        assert "model=approx" in out
        assert "chi2=" in out
        assert "p_value=" in out
        assert "theory_cascaded" in out

    def test_report_to_file(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["validate-channel", "--scenario", "I", "--samples", "20000",
                   "--out", str(out)])
        assert rc == 0
        assert "histogram:" in out.read_text()

    def test_seed_is_one_64_bit_word(self, tmp_path):
        # as in sweep, --seed -1 is the two's-complement word 2^64 - 1
        reports = []
        for seed in ("-1", str(2**64 - 1)):
            out = tmp_path / f"seed{seed}.txt"
            assert main(["validate-channel", "--scenario", "I", "--samples", "10000", "--seed", seed,
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_too_few_samples_exits_usage(self):
        assert main(["validate-channel", "--scenario", "I", "--samples", "100"]) == EXIT_USAGE


def exact_finishing_last(fn):
    """`fn` as validate-channel's model function, with the exact model held until the other one has returned."""
    approx_done = threading.Event()

    def wrapper(kind, *args):
        result = fn(kind, *args)
        if kind is CascadedModelKind.APPROXIMATE:
            approx_done.set()
        else:
            assert approx_done.wait(60), "the one-term model did not finish"
        return result

    return wrapper


class TestValidateChannelModels:
    ARGV = ["validate-channel", "--scenario", "II", "--samples", "123457", "--seed", "12345"]

    def report_and_raw(self, monkeypatch, capsys, workers, exact_last=False):
        """The report on stdout and the seeded-outputs tool's raw file, with `workers` usable CPUs."""
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        models = exact_finishing_last(cli._validate_model) if exact_last else cli._validate_model
        results = {}
        monkeypatch.setattr(cli, "_validate_model", seeded_outputs.recorded(models, results))
        assert main(self.ARGV) == 0
        return capsys.readouterr().out, seeded_outputs.validate_raw(results)

    def test_report_does_not_depend_on_the_cpu_count_or_finish_order(self, monkeypatch, capsys):
        # the exact model runs on the calling thread and the one-term model on a helper thread; held until
        # the helper's model has returned, the exact one finishes last, and the report and the raw file still
        # list the models in model order
        one = self.report_and_raw(monkeypatch, capsys, 1)
        assert self.report_and_raw(monkeypatch, capsys, 2) == one
        assert self.report_and_raw(monkeypatch, capsys, 2, exact_last=True) == one
        assert one[0].index("model=exact") < one[0].index("model=approx")
        assert one[1].decode().splitlines()[0].startswith("model=exact")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_helper_thread_runs_the_one_term_model_where_two_cpus_are_usable(self, monkeypatch, workers):
        validate_model, threads = cli._validate_model, {}

        def model(kind, *args):
            threads[kind] = threading.current_thread()
            return validate_model(kind, *args)

        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(cli, "_validate_model", model)
        assert main(self.ARGV) == 0
        assert threads[CascadedModelKind.EXACT_PRODUCT] is threading.main_thread()
        assert (threads[CascadedModelKind.APPROXIMATE] is threading.main_thread()) == (workers == 1)

    @pytest.mark.parametrize("kind", list(CascadedModelKind))
    def test_model_working_set(self, kind):
        # one model at 10^5 rows of 10 samples, the cascade built in h_rd's buffer from innovations drawn per
        # row block: h_rd, h0 (a tenth of it), a block's draws and validate_stats' block temporaries
        scn = SCENARIOS["III"]
        specs = FadingSpec(scn.f_sr), FadingSpec(scn.f_rd)
        cli._validate_model(kind, *specs, 10, 10**5, seeded_rng([3, 1]))  # one-time allocations
        tracemalloc.start()
        try:
            stats, (_, p) = cli._validate_model(kind, *specs, 10, 10**5, seeded_rng([3, 1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.variance == pytest.approx(1.0, abs=0.05) and 0.0 <= p <= 1.0
        assert peak <= 1.3 * np.empty((10**5, 10), dtype=complex).nbytes


IMPORT_PROBE = """
import os, sys
sys.path.insert(0, sys.argv[1])
from dafrelay.cli import main

def heavy():
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules} & {"scipy.stats", "scipy.signal"})

for argv in (["sweep", "--no-sim", "--scheme", "all", "--scenario", "III", "--pdb", "0:10:30"],
             ["sweep", "--config", sys.argv[2], "--scheme", "all", "--scenario", "III", "--pdb", "10"],
             ["validate-channel", "--scenario", "III", "--samples", "10000"],
             ["sweep", "--config", sys.argv[3], "--scenario", "III", "--pdb", "10"]):
    assert main(argv + ["--out", os.devnull]) == 0, argv
    print(heavy())
"""


def test_sweeps_and_validation_import_neither_scipy_stats_nor_signal(tmp_path):
    # a fresh interpreter runs a theory-only sweep, an SoS exact-cascade sweep, validate-channel's 1000 x 10
    # rows and an AR(1) one-term-cascade sweep, whose 1000-sample rows are scanned; after each command the
    # probe sees neither module loaded
    cfgs = []
    for gen, cascade, frame_len in (("sos", "exact", 100), ("ar1", "approx", 1000)):
        cfgs.append(tmp_path / f"{gen}.cfg")
        cfgs[-1].write_text(f"generator = {gen}\ncascaded = {cascade}\nframe_len = {frame_len}\n"
                            "max_symbols = 2000\nmin_bit_errors = 50\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), *map(str, cfgs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * 4


class TestDopplerCommand:
    def test_prints_normalized_doppler(self, capsys):
        rc = main(["doppler", "--fc", "2e9", "--ts", "1e-4", "--v", "75"])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1.3889e-2, rel=1e-4)

    def test_invalid_input_exits_usage(self):
        assert main(["doppler", "--fc", "2e9", "--ts", "-1", "--v", "75"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["--fc", "nan", "--ts", "1e-4", "--v", "75"],
                                      ["--fc", "2e9", "--ts", "inf", "--v", "75"],
                                      ["--fc", "2e9", "--ts", "1e-4", "--v", "nan"]])
    def test_non_finite_input_exits_usage(self, capsys, argv):
        assert main(["doppler"] + argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


def refuse(*args, **kwargs):
    # numpy raises MemoryError before allocating an array it cannot hold
    raise MemoryError("Unable to allocate 745. GiB")


@pytest.mark.parametrize("target, argv", [
    ("run_sweep", ["sweep", "--scenario", "I", "--m", "2", "--scheme", "tvd", "--pdb", "10"]),
    # validate-channel's first allocation of each model is its h_rd
    ("gen_fading", ["validate-channel", "--scenario", "III", "--samples", "20000"]),
])
def test_memory_error_exits_usage(monkeypatch, capsys, target, argv):
    monkeypatch.setattr(cli, target, refuse)
    assert main(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2])
def test_memory_error_of_the_one_term_model_exits_usage(monkeypatch, capsys, workers):
    # with two usable CPUs the one-term model runs on the helper thread, whose error reaches the command
    cascade = cli._cascade

    def refuse_approx(spec_sr, spec_rd, kind, *args, **kwargs):
        if kind is CascadedModelKind.APPROXIMATE:
            refuse()
        return cascade(spec_sr, spec_rd, kind, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    monkeypatch.setattr(cli, "_cascade", refuse_approx)
    assert main(["validate-channel", "--scenario", "III", "--samples", "20000"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
